"""``JobGenerator.generate`` against the seed generator loop.

The production loop draws the CPU intensity as ``low + (high - low) *
rng.random()`` where the seed loop (``oracles.jobs``) called
``rng.uniform(low, high)``; numpy computes uniform the same way on one
draw, so the two must agree exactly: ``==`` job lists, and the shared-seed
``Generator`` left in the same state (same number of draws consumed).
Intensities are compared with ``==`` on purpose, including ``low < high``
where the product is not exact: a platform whose numpy fuses that
multiply-add would fail here, and that is a finding, not a tolerance.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.jobs import generate_reference

from repro.snapshot.config import build_iris_snapshot_config
from repro.snapshot.experiment import SnapshotExperiment
from repro.workload.jobs import JobGenerator, WorkloadProfile


def _both(profile, total_cores, max_cores, seed, duration_s, warmup_s):
    """Run both loops on identically seeded Generators; return jobs and states."""
    outcomes = []
    for generate in (JobGenerator.generate, generate_reference):
        rng = np.random.default_rng(seed)
        generator = JobGenerator(profile, total_cores, seed=rng,
                                 max_cores_per_job=max_cores)
        jobs = generate(generator, duration_s, warmup_s)
        outcomes.append((jobs, rng.bit_generator.state))
    return outcomes


@st.composite
def intensity_bounds(draw):
    """``(low, high)`` with ``low == high`` or ``low < high``."""
    low = draw(st.floats(min_value=0.01, max_value=1.0))
    if low < 1.0 and draw(st.booleans()):
        return low, draw(st.floats(min_value=low, max_value=1.0,
                                   exclude_min=True))
    return low, low


@given(
    bounds=intensity_bounds(),
    amplitude=st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=0.9)),
    warmup_s=st.one_of(st.just(0.0), st.floats(min_value=60.0,
                                               max_value=6 * 3600.0)),
    target=st.floats(min_value=0.05, max_value=1.0),
    mean_cores=st.floats(min_value=1.0, max_value=16.0),
    median_runtime_s=st.floats(min_value=1800.0, max_value=6 * 3600.0),
    sigma=st.floats(min_value=0.1, max_value=2.0),
    total_cores=st.integers(min_value=1, max_value=256),
    max_cores=st.integers(min_value=1, max_value=64),
    duration_s=st.floats(min_value=600.0, max_value=6 * 3600.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(bounds=(1.0, 1.0), amplitude=0.2, warmup_s=3600.0, target=0.75,
         mean_cores=4.0, median_runtime_s=3 * 3600.0, sigma=1.0,
         total_cores=128, max_cores=32, duration_s=6 * 3600.0, seed=7)
@example(bounds=(0.7, 1.0), amplitude=0.0, warmup_s=0.0, target=0.9,
         mean_cores=2.0, median_runtime_s=1800.0, sigma=0.5,
         total_cores=64, max_cores=8, duration_s=3600.0, seed=11)
@example(bounds=(0.05, 0.95), amplitude=0.5, warmup_s=7200.0, target=0.5,
         mean_cores=8.0, median_runtime_s=7200.0, sigma=1.5,
         total_cores=256, max_cores=64, duration_s=4 * 3600.0, seed=3)
@settings(max_examples=80, deadline=None)
def test_generate_matches_seed_loop(bounds, amplitude, warmup_s, target,
                                    mean_cores, median_runtime_s, sigma,
                                    total_cores, max_cores, duration_s, seed):
    low, high = bounds
    profile = WorkloadProfile(
        target_utilization=target, diurnal_amplitude=amplitude,
        mean_cores_per_job=mean_cores, median_runtime_s=median_runtime_s,
        runtime_sigma=sigma, cpu_intensity_low=low, cpu_intensity_high=high)
    (jobs, state), (reference_jobs, reference_state) = _both(
        profile, total_cores, max_cores, seed, duration_s, warmup_s)
    assert jobs == reference_jobs
    assert state == reference_state


def test_dur_full_scale_stream_matches_seed_loop():
    """DUR's full-scale snapshot stream: the cold path's longest."""
    config = build_iris_snapshot_config(node_scale=1.0)
    experiment = SnapshotExperiment(config)
    site = next(site for site in config.sites if site.site == "DUR")
    node_ids, specs = experiment._site_specs(site)
    cluster = experiment._build_cluster(node_ids, specs)
    target = experiment._site_target_utilization(
        site, experiment._site_models(specs))
    profile = WorkloadProfile(target_utilization=min(max(target, 0.01), 1.0),
                              cpu_intensity_low=1.0, cpu_intensity_high=1.0)
    (jobs, state), (reference_jobs, reference_state) = _both(
        profile, cluster.total_cores,
        min(node.cores for node in cluster.nodes), site.workload_seed,
        config.duration_s, config.warmup_hours * 3600.0)
    assert len(jobs) > 40_000
    assert jobs == reference_jobs
    assert state == reference_state
