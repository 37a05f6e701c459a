"""The indexed scheduling loop and its supporting index structures.

The contract under test is strict: ``BackfillScheduler.run`` must produce
**bit-identical** placement sequences, statistics and final cluster state
to the seed event loop (``oracles.scheduler``) for every input.  The
differential properties drive both loops over adversarial random job
streams and heterogeneous clusters; the unit tests pin the index
structures against naive O(N) oracles.
"""

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import scheduler as oracle
from strategies import bursty_job_streams, job_streams, scheduler_clusters

from repro.api.spec import AssessmentSpec
from repro.snapshot.config import build_iris_snapshot_config
from repro.snapshot.experiment import SnapshotExperiment
from repro.workload.cluster import SimulatedCluster, SimulatedNode
from repro.workload.jobs import Job, JobGenerator, WorkloadProfile
from repro.workload.scheduler import BackfillScheduler
from repro.workload.scheduling_index import (
    FreeCoreIndex,
    PendingJobQueue,
    earliest_fit_time,
)


def _cluster(core_counts):
    return SimulatedCluster([
        SimulatedNode(index=i, node_id=f"n{i}", cores=c, free_cores=c)
        for i, c in enumerate(core_counts)
    ])


#: The seed loop (through the oracle) and the production indexed loop.
RUNS = (oracle.run, BackfillScheduler.run)


def _run_both(cluster, jobs, duration_s, backfill_depth=50):
    """Run both loops; return ((placements, stats, free), ...) pairs."""
    scheduler = BackfillScheduler(cluster, backfill_depth=backfill_depth)
    outcomes = []
    for run in RUNS:
        placements, stats = run(scheduler, jobs, duration_s)
        free = [node.free_cores for node in cluster.nodes]
        outcomes.append((placements, stats, free))
    return outcomes


def _contended_workload():
    """A small cluster and a six-hour stream at a 0.95 utilisation target."""
    cluster = _cluster([16, 8, 4, 32, 8, 16])
    profile = WorkloadProfile(target_utilization=0.95,
                              mean_cores_per_job=6.0,
                              median_runtime_s=600.0)
    jobs = JobGenerator(profile, cluster.total_cores, seed=11).generate(
        duration_s=6 * 3600.0)
    return cluster, jobs


class TestEngineDifferential:
    """indexed == seed loop, bit for bit."""

    @given(cluster=scheduler_clusters(), jobs=job_streams(),
           depth=st.sampled_from([0, 1, 50]))
    @settings(max_examples=120, deadline=None)
    def test_random_streams_bit_identical(self, cluster, jobs, depth):
        reference, indexed = _run_both(cluster, jobs, duration_s=600.0,
                                       backfill_depth=depth)
        assert indexed[0] == reference[0]          # exact placement sequence
        assert indexed[1].as_dict() == reference[1].as_dict()
        assert indexed[2] == reference[2]          # final cluster free state

    def test_generated_contended_stream_with_backfills(self):
        """A realistic contended stream must exercise the backfill path."""
        cluster, jobs = _contended_workload()
        reference, indexed = _run_both(cluster, jobs, duration_s=6 * 3600.0)
        assert reference[1].backfilled_jobs > 0
        assert indexed[0] == reference[0]
        assert indexed[1].as_dict() == reference[1].as_dict()
        assert indexed[2] == reference[2]

    @given(cluster=scheduler_clusters(), jobs=job_streams(),
           duration_s=st.sampled_from([1e-3, 50.0, 250.0, 600.0]))
    @example(cluster=_cluster([4]), jobs=[
        Job(job_id=0, submit_time_s=0.0, cores=4, runtime_s=50.0),
        Job(job_id=1, submit_time_s=10.0, cores=2, runtime_s=20.0),
        Job(job_id=2, submit_time_s=20.0, cores=2, runtime_s=5.0),
    ], duration_s=50.0)  # jobs ending and starting exactly at the window end
    @settings(max_examples=80, deadline=None)
    def test_window_statistics_match_seed_passes(self, cluster, jobs,
                                                 duration_s):
        """Jobs ending past, and starting after, the window end included."""
        placements, stats = BackfillScheduler(cluster).run(jobs, duration_s)
        completed, delivered = oracle.window_statistics(placements, duration_s)
        assert stats.jobs_completed_in_window == completed
        assert stats.core_seconds_delivered == delivered

    def test_zero_backfill_depth_pure_fcfs(self):
        cluster = _cluster([4, 4])
        jobs = [
            Job(job_id=0, submit_time_s=0.0, cores=4, runtime_s=100.0),
            Job(job_id=1, submit_time_s=1.0, cores=8, runtime_s=10.0),
            Job(job_id=2, submit_time_s=2.0, cores=1, runtime_s=1.0),
        ]
        reference, indexed = _run_both(cluster, jobs, duration_s=500.0,
                                       backfill_depth=0)
        assert indexed[0] == reference[0]
        assert reference[1].backfilled_jobs == 0
        # job 1 is unschedulable (wider than any node); job 2 waits behind
        # nothing once job 1 is dropped.
        assert reference[1].jobs_unschedulable == 1


def _assert_same(reference, indexed):
    assert indexed[0] == reference[0]
    assert indexed[1].as_dict() == reference[1].as_dict()
    assert indexed[2] == reference[2]


class TestFreeFlowTransitions:
    """The free-flow phase hands over to the event loop and back exactly.

    While nobody is queued the indexed loop starts each arrival on submit
    instead of iterating over every completion; these streams switch
    between that phase and contention as often as possible.
    """

    @given(cluster=scheduler_clusters(max_nodes=4), jobs=bursty_job_streams(),
           depth=st.sampled_from([0, 1, 50]))
    @settings(max_examples=200, deadline=None)
    def test_bursty_streams_bit_identical(self, cluster, jobs, depth):
        _assert_same(*_run_both(cluster, jobs, duration_s=1e6 + 3000.0,
                                backfill_depth=depth))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("depth", [0, 50])
    def test_alternating_quiet_and_contended_phases(self, seed, depth):
        """Quiet hours start every job on submit; busy hours queue."""
        cluster = _cluster([8, 4, 8, 2])
        jobs = []
        for hour in range(6):
            profile = WorkloadProfile(
                target_utilization=1.0 if hour % 2 else 0.05,
                mean_cores_per_job=3.0, median_runtime_s=900.0)
            stream = JobGenerator(profile, cluster.total_cores,
                                  seed=seed * 10 + hour).generate(3600.0)
            jobs += [Job(len(jobs) + job.job_id,
                         job.submit_time_s + hour * 3600.0, job.cores,
                         job.runtime_s) for job in stream]
        reference, indexed = _run_both(cluster, jobs, duration_s=6 * 3600.0,
                                       backfill_depth=depth)
        _assert_same(reference, indexed)
        waits = [p.wait_time_s for p in reference[0]]
        assert waits.count(0.0) > 0 and max(waits) > 0.0

    @pytest.mark.parametrize("depth", [0, 50])
    def test_block_mid_batch(self, depth):
        """The second of four same-time arrivals blocks; the third may
        backfill around it, the fourth may not."""
        cluster = _cluster([4, 4])
        jobs = [
            Job(0, 0.0, 4, 50.0),     # node 0 until 50
            Job(1, 10.0, 2, 30.0),    # node 1 until 40
            Job(2, 10.0, 4, 10.0),    # blocked: reservation at 40
            Job(3, 10.0, 1, 5.0),     # ends at 15 <= 40: backfills
            Job(4, 10.0, 2, 100.0),   # would end past 40: waits
        ]
        reference, indexed = _run_both(cluster, jobs, 500.0, depth)
        _assert_same(reference, indexed)
        starts = {p.job.job_id: p.start_time_s for p in indexed[0]}
        assert starts[2] == 40.0
        assert indexed[1].backfilled_jobs == (1 if depth else 0)
        assert starts[3] == (10.0 if depth else 50.0)

    def test_warmup_batch_at_zero_blocks(self):
        """Warm-up jobs all clamp to submit 0.0: one batch wider than the
        cluster (the stream is sized for four times its cores), blocking
        part-way through."""
        cluster = _cluster([8, 8, 4])
        profile = WorkloadProfile(target_utilization=0.9,
                                  mean_cores_per_job=4.0,
                                  median_runtime_s=1800.0)
        jobs = JobGenerator(profile, 4 * cluster.total_cores, seed=2,
                            max_cores_per_job=4).generate(
            4 * 3600.0, warmup_s=6 * 3600.0)
        batch = [job for job in jobs if job.submit_time_s == 0.0]
        assert sum(job.cores for job in batch) > cluster.total_cores
        for depth in (0, 50):
            reference, indexed = _run_both(cluster, jobs, 4 * 3600.0, depth)
            _assert_same(reference, indexed)
            assert any(p.start_time_s > 0.0 for p in indexed[0]
                       if p.job.submit_time_s == 0.0)

    def test_release_up_to_the_arrival(self):
        """An idle-queue arrival sees every completion up to its submit time,
        not only those up to the previous event."""
        cluster = _cluster([2, 2])
        jobs = [Job(0, 0.0, 2, 10.0), Job(1, 20.0, 2, 10.0)]
        reference, indexed = _run_both(cluster, jobs, 100.0)
        _assert_same(reference, indexed)
        assert [p.node_index for p in indexed[0]] == [0, 0]

    def test_same_time_release_before_take(self):
        """A start absorbed by a large clock (end == start) frees its cores
        for the next same-time arrival."""
        cluster = _cluster([2, 2])
        jobs = [Job(0, 1e6, 2, 1e-12), Job(1, 1e6, 2, 5.0)]
        reference, indexed = _run_both(cluster, jobs, 2e6)
        _assert_same(reference, indexed)
        first, second = indexed[0]
        assert first.end_time_s == first.start_time_s
        assert second.node_index == 0


def _count_queue_calls(monkeypatch):
    """Count ``PendingJobQueue.append`` and ``.extend`` calls."""
    counts = {"append": 0, "extend": 0}
    for name in counts:
        original = getattr(PendingJobQueue, name)

        def counting(self, arg, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, arg)

        monkeypatch.setattr(PendingJobQueue, name, counting)
    return counts


class TestFreeFlowFastPath:
    """Which path a stream takes: an idle queue never touches the queue."""

    def test_full_scale_dur_never_queues(self, monkeypatch):
        """DUR's full-scale snapshot, the cold path's longest schedule."""
        counts = _count_queue_calls(monkeypatch)
        config = build_iris_snapshot_config(node_scale=1.0, sites=("DUR",))
        result = SnapshotExperiment(config).run()
        stats = result.site_result("DUR").scheduler_stats
        assert counts == {"append": 0, "extend": 0}
        assert stats.jobs_started == stats.jobs_submitted > 40_000
        assert stats.max_wait_s == 0.0

    def test_contended_stream_queues(self, monkeypatch):
        """The stream of ``test_generated_contended_stream_with_backfills``
        blocks and queues, so the event loop stays exercised."""
        cluster, jobs = _contended_workload()
        counts = _count_queue_calls(monkeypatch)
        _, stats = BackfillScheduler(cluster).run(jobs, 6 * 3600.0)
        assert counts["append"] > 0 and counts["extend"] > 0
        assert stats.backfilled_jobs > 0


class TestAntiStall:
    """Fractional submit times start on time, and no start precedes its
    submission.

    Time advances event by event, so a job submitted inside ``(now, now +
    1)`` on an idle cluster starts at its own submit instant, not at a
    rounded or stepped one.  (The seed loop's anti-stall clamp this class
    is named for never fires on these streams.)
    """

    def test_fractional_submit_starts_exactly_on_time(self):
        cluster = _cluster([2])
        jobs = [
            Job(job_id=0, submit_time_s=0.0, cores=2, runtime_s=0.25),
            Job(job_id=1, submit_time_s=0.4, cores=2, runtime_s=0.25),
            Job(job_id=2, submit_time_s=0.9, cores=2, runtime_s=0.25),
        ]
        for run in RUNS:
            placements, stats = run(BackfillScheduler(cluster), jobs, 10.0)
            starts = {p.job.job_id: p.start_time_s for p in placements}
            assert starts == {0: 0.0, 1: 0.4, 2: 0.9}
            assert stats.mean_wait_s == 0.0

    @given(jobs=job_streams(max_cores=2))
    @settings(max_examples=60, deadline=None)
    def test_starts_never_precede_submission(self, jobs):
        cluster = _cluster([4, 2])
        for run in RUNS:
            placements, _ = run(BackfillScheduler(cluster), jobs, 600.0)
            for placement in placements:
                assert placement.start_time_s >= placement.job.submit_time_s


class TestFreeCoreIndex:
    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            FreeCoreIndex([])
        with pytest.raises(ValueError):
            FreeCoreIndex([4, -1])

    def test_take_and_give_require_positive_cores(self):
        index = FreeCoreIndex([4])
        with pytest.raises(ValueError):
            index.take(0)
        with pytest.raises(ValueError):
            index.give(0, 0)
        assert index.counts() == [4]

    def test_bounds_checked(self):
        index = FreeCoreIndex([4, 8])
        with pytest.raises(IndexError):
            index.free(2)
        with pytest.raises(IndexError):
            index.give(-1, 3)
        with pytest.raises(IndexError):
            index.give(2, 3)
        assert index[1] == 8
        assert index.node_count == 2

    def test_leftmost_semantics(self):
        index = FreeCoreIndex([2, 8, 8, 1])
        assert index.take(1) == 0
        assert index.take(3) == 1    # leftmost of the two eights
        assert index.take(8) == 2    # node 1 now has 5
        assert index.take(9) == -1
        assert index.counts() == [1, 5, 0, 1]

    def test_updates_tracked(self):
        index = FreeCoreIndex([4, 4, 4])
        assert index.take(4) == 0
        assert index.take(1) == 1
        assert index.take(4) == 2
        assert index.take(4) == -1
        index.give(0, 4)
        assert index.take(3) == 0
        index.give(1, 1)
        assert index.take(4) == 1
        assert index.free(0) == 1
        assert index.counts() == [1, 0, 0]

    @given(
        free=st.lists(st.integers(min_value=0, max_value=64),
                      min_size=1, max_size=33),
        operations=st.lists(
            st.tuples(st.booleans(),
                      st.integers(min_value=0, max_value=1000),
                      st.integers(min_value=1, max_value=64)),
            max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_scan(self, free, operations):
        """take/give == leftmost O(N) array scan plus plain list updates."""
        index = FreeCoreIndex(free)
        counts = list(free)
        for is_take, position, cores in operations:
            if is_take:
                expected = next(
                    (i for i, value in enumerate(counts) if value >= cores),
                    -1)
                assert index.take(cores) == expected
                if expected >= 0:
                    counts[expected] -= cores
            else:
                node = position % len(counts)
                index.give(node, cores)
                counts[node] += cores
            assert index.counts() == counts
        for node, value in enumerate(counts):
            assert index.free(node) == value


class TestPendingJobQueue:
    @staticmethod
    def _job(job_id):
        return Job(job_id=job_id, submit_time_s=0.0, cores=1, runtime_s=1.0)

    def test_fifo_order(self):
        queue = PendingJobQueue()
        jobs = [self._job(i) for i in range(4)]
        for job in jobs:
            queue.append(job)
        assert len(queue) == 4
        assert queue.head() is jobs[0]
        assert [queue.pop_head() for _ in range(4)] == jobs
        assert not queue

    def test_discard_skips_middle_entries(self):
        queue = PendingJobQueue()
        jobs = [self._job(i) for i in range(5)]
        for job in jobs:
            queue.append(job)
        queue.discard(jobs[1])
        queue.discard(jobs[3])
        assert len(queue) == 3
        assert [queue.pop_head() for _ in range(3)] == [jobs[0], jobs[2], jobs[4]]

    def test_discard_head_then_head_advances(self):
        queue = PendingJobQueue()
        jobs = [self._job(i) for i in range(3)]
        for job in jobs:
            queue.append(job)
        queue.discard(jobs[0])
        assert queue.head() is jobs[1]

    def test_backfill_candidates_excludes_head_and_tombstones(self):
        queue = PendingJobQueue()
        jobs = [self._job(i) for i in range(6)]
        for job in jobs:
            queue.append(job)
        queue.discard(jobs[2])
        assert queue.backfill_candidates(3) == [jobs[1], jobs[3], jobs[4]]
        assert queue.backfill_candidates(50) == [
            jobs[1], jobs[3], jobs[4], jobs[5]]
        assert queue.backfill_candidates(0) == []

    def test_backfill_candidates_empty_behind_head(self):
        queue = PendingJobQueue()
        queue.append(self._job(0))
        assert queue.backfill_candidates(50) == []

    def test_compaction_preserves_order(self):
        queue = PendingJobQueue()
        jobs = [self._job(i) for i in range(8)]
        for job in jobs:
            queue.append(job)
        # Discard most entries; compaction triggers once tombstones
        # outnumber the live remainder.
        for job in jobs[1:7]:
            queue.discard(job)
        assert len(queue) == 2
        assert [queue.pop_head() for _ in range(2)] == [jobs[0], jobs[7]]


def _naive_earliest_fit(cores_needed, running, free_cores):
    """The reference semantics: walk completions in sorted order."""
    freed = {}
    for end_time, node_index, cores in sorted(running):
        total = freed.get(node_index, int(free_cores[node_index])) + cores
        if total >= cores_needed:
            return end_time
        freed[node_index] = total
    return float("inf")


class TestEarliestFitTime:
    def test_empty_running_is_inf(self):
        assert earliest_fit_time(4, [], [0, 0]) == float("inf")

    def test_accumulates_across_completions(self):
        running = [(5.0, 0, 2), (7.0, 0, 2), (3.0, 1, 1)]
        heapq.heapify(running)
        # Node 0 reaches 4 free only once both its jobs complete.
        assert earliest_fit_time(4, running, [0, 0]) == 7.0
        # One core frees on node 1 at t=3.
        assert earliest_fit_time(1, running, [0, 0]) == 3.0

    @given(
        entries=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1e4,
                                allow_nan=False),
                      st.integers(min_value=0, max_value=5),
                      st.integers(min_value=1, max_value=8)),
            max_size=40),
        free=st.lists(st.integers(min_value=0, max_value=8),
                      min_size=6, max_size=6),
        cores_needed=st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_sorted_walk(self, entries, free, cores_needed):
        running = list(entries)
        heapq.heapify(running)
        assert earliest_fit_time(cores_needed, running, free) == (
            _naive_earliest_fit(cores_needed, entries, free))


class TestClusterSupport:
    def test_total_cores_cached_and_stable(self):
        cluster = _cluster([4, 8, 2])
        assert cluster.total_cores == 14
        cluster.allocate(1, 8)
        assert cluster.total_cores == 14  # capacity, not free
        cluster.release(1, 8)

    def test_core_index_reflects_current_free(self):
        cluster = _cluster([4, 8])
        cluster.allocate(0, 3)
        index = cluster.core_index()
        assert index.free(0) == 1
        assert index.free(1) == 8
        assert index.take(2) == 1

    def test_sync_free_cores_roundtrip(self):
        cluster = _cluster([4, 8])
        cluster.sync_free_cores([1, 5])
        assert [node.free_cores for node in cluster.nodes] == [1, 5]
        assert cluster.find_node_with_free_cores(6) is None
        assert cluster.find_node_with_free_cores(5) == 1

    def test_sync_free_cores_validates(self):
        cluster = _cluster([4, 8])
        with pytest.raises(ValueError):
            cluster.sync_free_cores([1])          # wrong length
        with pytest.raises(ValueError):
            cluster.sync_free_cores([5, 0])       # exceeds capacity
        with pytest.raises(ValueError):
            cluster.sync_free_cores([-1, 0])      # negative


class TestExperimentPlumbing:
    def test_timings_recorded_per_site(self):
        config = build_iris_snapshot_config(node_scale=0.02, campaign_seed=5)
        result = SnapshotExperiment(config).run()
        timings = result.timings
        assert set(timings) == {r.site for r in result.site_results}
        for phases in timings.values():
            assert {"calibration_s", "workload_s", "schedule_s", "trace_s",
                    "power_s", "total_s"} <= set(phases)
            assert all(value >= 0.0 for value in phases.values())
            assert phases["total_s"] >= phases["schedule_s"]


class TestSpecPlumbing:
    def test_default_engine_hidden_from_digest_surfaces(self):
        """A legacy document naming the old default loads as the plain spec."""
        spec = AssessmentSpec()
        assert "scheduler_engine" not in spec.to_dict()
        assert "scheduler_engine" not in spec.physical_key()
        legacy = dict(spec.to_dict(), scheduler_engine="indexed")
        assert AssessmentSpec.from_dict(legacy) == spec

    def test_legacy_reference_engine_rejected(self):
        with pytest.raises(ValueError, match="scheduler_engine 'reference'"):
            AssessmentSpec.from_dict({"scheduler_engine": "reference"})

