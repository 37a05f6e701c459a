"""The seed job-stream generator.

:func:`generate_reference` is ``JobGenerator.generate`` as it was before
its per-job loop drew the CPU intensity as ``low + (high - low) *
rng.random()`` instead of ``rng.uniform(low, high)`` and dropped its scalar
``int``/``float``/``min``/``max`` calls.  It takes the generator as its
first argument, so ``generate_reference(generator, duration_s, warmup_s)``
stands in for ``generator.generate(duration_s, warmup_s)``; the two must
return ``==`` job lists and leave a shared-seed ``Generator`` in the same
state.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.seeding import as_generator
from repro.workload.jobs import Job, JobGenerator


def generate_reference(
    generator: JobGenerator, duration_s: float, warmup_s: float = 0.0,
) -> List[Job]:
    """The seed ``JobGenerator.generate`` body, ``rng.uniform`` and all."""
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if warmup_s < 0:
        raise ValueError("warmup_s must be non-negative")
    p = generator._profile
    rng = as_generator(generator._seed)
    rate = generator._arrival_rate_per_second()
    window = duration_s + warmup_s
    # Thinning a Poisson stream (for the diurnal cycle) reduces its mean
    # rate by the average acceptance probability, so the stream is drawn
    # at an inflated rate such that the *post-thinning* rate equals the
    # rate the utilisation target requires.
    amplitude = p.diurnal_amplitude
    draw_rate = rate * (1.0 + amplitude)
    expected_jobs = draw_rate * window
    # Draw a generous number of inter-arrival gaps and trim to the window.
    n_draw = max(int(expected_jobs * 1.5) + 16, 16)
    gaps = rng.exponential(1.0 / draw_rate, size=n_draw)
    arrivals = np.cumsum(gaps)
    arrivals = arrivals[arrivals < window]
    # Diurnal thinning: drop a time-dependent fraction of arrivals.
    if amplitude > 0 and len(arrivals):
        hour = ((arrivals - warmup_s) % 86400.0) / 3600.0
        acceptance = (
            1.0 + amplitude * np.cos(2 * np.pi * (hour - 14.0) / 24.0)
        ) / (1.0 + amplitude)
        keep = rng.random(len(arrivals)) < acceptance
        arrivals = arrivals[keep]
    jobs: List[Job] = []
    job_id = 0
    # The draws stay scalar and in this order: bulk draws would change
    # the random stream and every job after the first.
    geometric, lognormal, uniform = rng.geometric, rng.lognormal, rng.uniform
    # Geometric widths have mean exactly `mean_cores_per_job`.
    width_p = 1.0 / p.mean_cores_per_job
    max_cores = generator._max_cores
    log_median = np.log(p.median_runtime_s)
    sigma = p.runtime_sigma
    low, high = p.cpu_intensity_low, p.cpu_intensity_high
    # In place: `arrivals` is a fresh copy (boolean indexing), and a
    # temporary array here measurably raised the process's peak RSS.
    arrivals -= warmup_s
    for submit in arrivals.tolist():
        cores = int(min(geometric(width_p), max_cores))
        runtime = float(lognormal(log_median, sigma))
        runtime = max(runtime, 60.0)
        intensity = float(uniform(low, high))
        if submit < 0.0:
            # A warm-up job: only the part of it still running at time
            # zero matters.  Jobs that would have finished before the
            # window opened are dropped; the rest carry their remaining
            # runtime, which leaves the cluster in (approximately) its
            # stationary state at the start of the measured window.
            remaining = runtime + submit
            if remaining <= 0.0:
                continue
            runtime = max(remaining, 60.0)
            submit = 0.0
        jobs.append(
            Job(
                job_id=job_id,
                submit_time_s=submit,
                cores=cores,
                runtime_s=runtime,
                cpu_intensity=intensity,
            )
        )
        job_id += 1
    return jobs


__all__ = ["generate_reference"]
