"""Shared hypothesis strategies for the property-based test suite.

One home for the strategies the property files used to hand-roll
separately: scalar quantities, time-series shapes, bounded distributions,
assessment-spec scenario fields, portfolio load shares and site snapshot
configurations.  Import from here instead of redefining::

    from strategies import finite_positive, series_values, load_shares

Strategy constructors (``positive_floats``, ``load_shares``, ...) return a
fresh strategy per call so files can pin their own ranges; the module-level
names are the canonical instances most properties want.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.api.spec import AssessmentSpec
from repro.portfolio.spec import PortfolioMember, PortfolioSpec
from repro.snapshot.config import SiteSnapshotConfig
from repro.uncertainty.distributions import Discrete, Empirical, Triangular, Uniform
from repro.workload.cluster import SimulatedCluster, SimulatedNode
from repro.workload.jobs import Job


# -- scalar quantities ----------------------------------------------------------

def positive_floats(min_value: float = 1e-9, max_value: float = 1e12):
    """Strictly positive, finite floats in the given range."""
    return st.floats(min_value=min_value, max_value=max_value,
                     allow_nan=False, allow_infinity=False)


#: The wide canonical positive range (unit round-trips and conversions).
finite_positive = positive_floats()

#: A moderate positive range for quantities that get multiplied together.
small_positive = positive_floats(min_value=1e-3, max_value=1e6)

#: A fraction in [0, 1] (utilisation, shares, coverage).
utilization = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

#: Grid carbon intensities in g/kWh (non-negative, realistic ceiling).
intensities = st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)

#: Facility PUE values (>= 1 by definition).
pues = st.floats(min_value=1.0, max_value=2.5, allow_nan=False)

#: Amortisation lifetimes in years.
lifetimes = st.floats(min_value=0.5, max_value=15.0, allow_nan=False)


# -- time series ----------------------------------------------------------------

#: Non-negative sample values for a power-like series.
series_values = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=200)

#: Realistic sampling cadences in seconds.
steps = st.sampled_from([1.0, 30.0, 60.0, 900.0, 1800.0])

#: Integer resampling factors.
factors = st.integers(min_value=1, max_value=12)

#: Non-negative intensity samples for an intensity-like series.
intensity_values = st.lists(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    min_size=2, max_size=96)


# -- distributions --------------------------------------------------------------

#: Distributions with finite support (the quantile / support properties).
bounded_distributions = st.one_of(
    st.tuples(st.floats(-1e6, 1e6), st.floats(1e-3, 1e6)).map(
        lambda t: Uniform(t[0], t[0] + t[1])),
    st.tuples(st.floats(-1e6, 1e6), st.floats(1e-3, 1e5),
              st.floats(1e-3, 1e5)).map(
        lambda t: Triangular(t[0], t[0] + t[1], t[0] + t[1] + t[2])),
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8).map(
        lambda values: Discrete(tuple(values))),
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=16).map(
        lambda values: Empirical(tuple(values))),
)


# -- assessment specs -----------------------------------------------------------

def analysis_overrides():
    """Scenario (analysis-stage) spec fields: cheap against one substrate."""
    return st.fixed_dictionaries({
        "carbon_intensity_g_per_kwh": intensities,
        "pue": pues,
        "lifetime_years": lifetimes,
    })


@st.composite
def assessment_specs(draw, node_scale: float = 0.02, campaign_seed: int = 3):
    """Specs varying only in analysis fields over one pinned physical config.

    Every drawn spec shares the same :meth:`AssessmentSpec.physical_key`,
    so a property consuming these against one substrate cache costs one
    simulation for the whole run.
    """
    overrides = draw(analysis_overrides())
    return AssessmentSpec(node_scale=node_scale, campaign_seed=campaign_seed,
                          **overrides)


# -- portfolios -----------------------------------------------------------------

#: The stock region codes the portfolio strategies bind members to.
REGION_CODES = ("GB", "FR", "PL", "NO")


@st.composite
def load_shares(draw, size: int):
    """``size`` positive shares normalised to sum to one."""
    weights = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0,
                                      allow_nan=False),
                            min_size=size, max_size=size))
    total = sum(weights)
    return [weight / total for weight in weights]


@st.composite
def portfolio_specs(draw, max_members: int = 4, node_scale: float = 0.02):
    """Small portfolio specs: distinct member names, normalised shares.

    Pure construction — no simulation — so spec round-trip properties stay
    fast.  Members draw their region bindings from :data:`REGION_CODES`
    (or keep the base grid), and analysis fields vary member to member.
    """
    size = draw(st.integers(min_value=1, max_value=max_members))
    shares = draw(load_shares(size))
    members = []
    for index in range(size):
        spec = draw(assessment_specs(node_scale=node_scale))
        region = draw(st.sampled_from(REGION_CODES + (None,)))
        members.append(PortfolioMember(
            name=f"site-{index}", spec=spec, load_share=shares[index],
            region=region))
    return PortfolioSpec(members=tuple(members),
                         name=draw(st.sampled_from(("portfolio", "estate"))))


# -- scheduler workloads --------------------------------------------------------

@st.composite
def scheduler_clusters(draw, max_nodes: int = 8, max_cores: int = 8):
    """Small heterogeneous clusters for scheduler differential properties."""
    core_counts = draw(st.lists(st.integers(min_value=1, max_value=max_cores),
                                min_size=1, max_size=max_nodes))
    return SimulatedCluster([
        SimulatedNode(index=index, node_id=f"node-{index}",
                      cores=cores, free_cores=cores)
        for index, cores in enumerate(core_counts)
    ])


@st.composite
def job_streams(draw, max_jobs: int = 30, max_cores: int = 10,
                horizon_s: float = 500.0):
    """Adversarial job lists for the scheduler engines.

    Fractional submit times (no start may precede its submission), duplicate
    submit instants, runtimes from sub-second to the full horizon, and
    widths that may exceed every node (exercising the unschedulable
    filter).
    """
    count = draw(st.integers(min_value=0, max_value=max_jobs))
    return [
        Job(
            job_id=job_id,
            submit_time_s=draw(st.floats(min_value=0.0, max_value=horizon_s,
                                         allow_nan=False)),
            cores=draw(st.integers(min_value=1, max_value=max_cores)),
            runtime_s=draw(st.floats(min_value=1e-3, max_value=horizon_s,
                                     allow_nan=False)),
            cpu_intensity=draw(st.floats(min_value=0.1, max_value=1.0,
                                         allow_nan=False)),
        )
        for job_id in range(count)
    ]


@st.composite
def bursty_job_streams(draw, max_bursts: int = 8, max_batch: int = 8,
                       max_cores: int = 8):
    """Job streams that alternate free flow and contention.

    Bursts of same-instant submissions (a batch may block anywhere in its
    middle) are separated by gaps that may or may not drain the cluster.
    Streams can start at 1e6 s, where a 1e-12 s runtime is absorbed by
    the start time: such a job ends at the instant it starts, and the
    cores it held must be released before the next same-time start.
    """
    now = draw(st.sampled_from([0.0, 1e6]))
    jobs = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_bursts))):
        now += draw(st.sampled_from([0.0, 0.5, 5.0, 50.0, 500.0]))
        for _ in range(draw(st.integers(min_value=1, max_value=max_batch))):
            jobs.append(Job(
                job_id=len(jobs),
                submit_time_s=now,
                cores=draw(st.integers(min_value=1, max_value=max_cores)),
                runtime_s=draw(st.sampled_from(
                    [1e-12, 0.25, 3.0, 40.0, 400.0])),
            ))
    return jobs


# -- site snapshot configurations ----------------------------------------------

@st.composite
def site_snapshot_configs(draw, site: str = "SITE"):
    """Valid per-site snapshot configurations for config-layer properties."""
    return SiteSnapshotConfig(
        site=site,
        node_count=draw(st.integers(min_value=1, max_value=64)),
        storage_fraction=draw(st.floats(min_value=0.0, max_value=0.5,
                                        allow_nan=False)),
        measurement_methods=tuple(draw(st.sets(
            st.sampled_from(("facility", "pdu", "ipmi", "turbostat")),
            min_size=1, max_size=4))),
        default_utilization=draw(st.floats(min_value=0.05, max_value=1.0,
                                           allow_nan=False)),
        ipmi_node_coverage=draw(st.floats(min_value=0.1, max_value=1.0,
                                          allow_nan=False)),
        workload_seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


__all__ = [
    "REGION_CODES",
    "analysis_overrides",
    "assessment_specs",
    "bounded_distributions",
    "bursty_job_streams",
    "factors",
    "finite_positive",
    "intensities",
    "intensity_values",
    "job_streams",
    "lifetimes",
    "load_shares",
    "portfolio_specs",
    "positive_floats",
    "pues",
    "scheduler_clusters",
    "series_values",
    "site_snapshot_configs",
    "small_positive",
    "steps",
    "utilization",
]
