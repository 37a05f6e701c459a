"""Tests for the FCFS + EASY-backfill scheduler."""

import copy
import dataclasses
import pickle

import pytest

from repro.workload.cluster import SimulatedCluster
from repro.workload.jobs import Job, JobGenerator, WorkloadProfile
from repro.workload.scheduler import BackfillScheduler, Placement


def _job(job_id, submit, cores, runtime, intensity=1.0):
    return Job(job_id=job_id, submit_time_s=submit, cores=cores,
               runtime_s=runtime, cpu_intensity=intensity)


class TestRecords:
    """``Job`` and ``Placement`` are frozen, slotted value records."""

    JOB = Job(job_id=3, submit_time_s=1.5, cores=4, runtime_s=60.0,
              cpu_intensity=0.8)
    PLACEMENT = Placement(JOB, 2, 10.0, 70.0)

    @pytest.mark.parametrize("record", [JOB, PLACEMENT],
                             ids=["job", "placement"])
    def test_round_trips(self, record):
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                      copy.deepcopy(record), dataclasses.replace(record)):
            assert clone == record
            assert hash(clone) == hash(record)
        assert not hasattr(record, "__dict__")
        for field in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, 0)

    def test_replace_keeps_validation(self):
        assert dataclasses.replace(self.JOB, cores=8).core_seconds == 480.0
        with pytest.raises(ValueError):
            dataclasses.replace(self.JOB, cores=0)
        moved = dataclasses.replace(self.PLACEMENT, start_time_s=11.5)
        assert moved.wait_time_s == 10.0
        assert moved.job is self.JOB


class TestBasicScheduling:
    def test_single_job_runs_immediately(self):
        cluster = SimulatedCluster.homogeneous(1, 8)
        scheduler = BackfillScheduler(cluster)
        placements, stats = scheduler.run([_job(0, 0.0, 4, 3600.0)], 7200.0)
        assert len(placements) == 1
        assert placements[0].start_time_s == 0.0
        assert stats.jobs_started == 1
        assert stats.jobs_completed_in_window == 1

    def test_jobs_queue_when_cluster_full(self):
        cluster = SimulatedCluster.homogeneous(1, 4)
        scheduler = BackfillScheduler(cluster)
        jobs = [_job(0, 0.0, 4, 1000.0), _job(1, 0.0, 4, 1000.0)]
        placements, stats = scheduler.run(jobs, 4000.0)
        assert placements[0].start_time_s == 0.0
        assert placements[1].start_time_s == pytest.approx(1000.0)
        assert stats.max_wait_s == pytest.approx(1000.0)

    def test_all_submitted_jobs_eventually_start(self):
        cluster = SimulatedCluster.homogeneous(2, 8)
        scheduler = BackfillScheduler(cluster)
        jobs = [_job(i, i * 10.0, 2, 500.0) for i in range(20)]
        placements, stats = scheduler.run(jobs, 86400.0)
        assert stats.jobs_started == 20
        assert len(placements) == 20

    def test_no_node_ever_oversubscribed(self):
        cluster = SimulatedCluster.homogeneous(2, 8)
        scheduler = BackfillScheduler(cluster)
        jobs = [_job(i, 0.0, 3, 700.0 + 13 * i) for i in range(12)]
        placements, _ = scheduler.run(jobs, 86400.0)
        # Reconstruct concurrent usage per node at every start instant.
        for probe in placements:
            for node_index in range(cluster.node_count):
                usage = sum(
                    p.job.cores
                    for p in placements
                    if p.node_index == node_index
                    and p.start_time_s <= probe.start_time_s < p.end_time_s
                )
                assert usage <= 8

    def test_wide_job_blocks_until_space(self):
        cluster = SimulatedCluster.homogeneous(1, 8)
        scheduler = BackfillScheduler(cluster)
        jobs = [_job(0, 0.0, 6, 1000.0), _job(1, 1.0, 8, 100.0)]
        placements, _ = scheduler.run(jobs, 5000.0)
        wide = next(p for p in placements if p.job.job_id == 1)
        assert wide.start_time_s >= 1000.0


class TestBackfill:
    def test_small_job_backfills_around_blocked_head(self):
        cluster = SimulatedCluster.homogeneous(1, 8)
        scheduler = BackfillScheduler(cluster)
        jobs = [
            _job(0, 0.0, 6, 1000.0),    # running
            _job(1, 1.0, 8, 500.0),     # blocked head (needs whole node)
            _job(2, 2.0, 2, 400.0),     # short+narrow: can backfill
        ]
        placements, stats = scheduler.run(jobs, 10000.0)
        backfilled = next(p for p in placements if p.job.job_id == 2)
        head = next(p for p in placements if p.job.job_id == 1)
        assert backfilled.start_time_s < head.start_time_s
        assert stats.backfilled_jobs >= 1

    def test_backfill_never_delays_head_reservation(self):
        cluster = SimulatedCluster.homogeneous(1, 8)
        scheduler = BackfillScheduler(cluster)
        jobs = [
            _job(0, 0.0, 6, 1000.0),
            _job(1, 1.0, 8, 500.0),     # head reservation at t=1000
            _job(2, 2.0, 2, 5000.0),    # too long to backfill
        ]
        placements, _ = scheduler.run(jobs, 20000.0)
        head = next(p for p in placements if p.job.job_id == 1)
        assert head.start_time_s == pytest.approx(1000.0)

    def test_zero_backfill_depth_disables_backfill(self):
        cluster = SimulatedCluster.homogeneous(1, 8)
        scheduler = BackfillScheduler(cluster, backfill_depth=0)
        jobs = [
            _job(0, 0.0, 6, 1000.0),
            _job(1, 1.0, 8, 500.0),
            _job(2, 2.0, 2, 400.0),
        ]
        _, stats = scheduler.run(jobs, 10000.0)
        assert stats.backfilled_jobs == 0


class TestTraceConstruction:
    def test_trace_reflects_single_placement(self):
        cluster = SimulatedCluster.homogeneous(1, 8)
        scheduler = BackfillScheduler(cluster)
        placements, _ = scheduler.run([_job(0, 0.0, 4, 1800.0)], 3600.0)
        trace = scheduler.build_trace(placements, 3600.0, step_s=600.0)
        series = trace.node_series(trace.node_ids[0])
        # Half the node for half the hour: first three samples at 0.5, rest 0.
        assert series.values[0] == pytest.approx(0.5)
        assert series.values[2] == pytest.approx(0.5)
        assert series.values[3] == pytest.approx(0.0)

    def test_partial_interval_weighting(self):
        cluster = SimulatedCluster.homogeneous(1, 4)
        scheduler = BackfillScheduler(cluster)
        placements, _ = scheduler.run([_job(0, 0.0, 4, 900.0)], 3600.0)
        trace = scheduler.build_trace(placements, 3600.0, step_s=600.0)
        series = trace.node_series(trace.node_ids[0])
        assert series.values[0] == pytest.approx(1.0)
        assert series.values[1] == pytest.approx(0.5)
        assert series.values[2] == pytest.approx(0.0)

    def test_intensity_scales_trace(self):
        cluster = SimulatedCluster.homogeneous(1, 4)
        scheduler = BackfillScheduler(cluster)
        placements, _ = scheduler.run([_job(0, 0.0, 4, 3600.0, intensity=0.5)], 3600.0)
        trace = scheduler.build_trace(placements, 3600.0, step_s=3600.0)
        assert trace.mean_utilization() == pytest.approx(0.5)

    def test_simulate_end_to_end_reaches_target(self):
        profile = WorkloadProfile(target_utilization=0.5, diurnal_amplitude=0.0,
                                  median_runtime_s=1800.0, runtime_sigma=0.5,
                                  cpu_intensity_low=1.0, cpu_intensity_high=1.0)
        cluster = SimulatedCluster.homogeneous(8, 32)
        jobs = JobGenerator(profile, cluster.total_cores, seed=4).generate(
            86400.0, warmup_s=4 * 3600.0
        )
        scheduler = BackfillScheduler(cluster)
        trace, stats = scheduler.simulate(jobs, 86400.0, step_s=300.0)
        assert stats.jobs_started + stats.jobs_unschedulable == stats.jobs_submitted
        assert 0.35 < trace.mean_utilization() < 0.65

    def test_invalid_arguments(self):
        cluster = SimulatedCluster.homogeneous(1, 4)
        scheduler = BackfillScheduler(cluster)
        with pytest.raises(ValueError):
            scheduler.run([], 0.0)
        with pytest.raises(ValueError):
            scheduler.build_trace([], 3600.0, step_s=0.0)
        with pytest.raises(ValueError):
            BackfillScheduler(cluster, backfill_depth=-1)


class TestEdgeCases:
    def test_unschedulable_jobs_dropped_and_counted(self):
        """Jobs wider than the widest node never start, but are accounted."""
        cluster = SimulatedCluster.homogeneous(2, 8)
        scheduler = BackfillScheduler(cluster)
        jobs = [
            _job(0, 0.0, 4, 600.0),
            _job(1, 0.0, 16, 600.0),   # wider than any node
            _job(2, 10.0, 9, 600.0),   # one core too wide
            _job(3, 20.0, 8, 600.0),   # exactly node-wide: schedulable
        ]
        placements, stats = scheduler.run(jobs, 7200.0)
        assert stats.jobs_submitted == 4
        assert stats.jobs_unschedulable == 2
        assert stats.jobs_started == 2
        assert {p.job.job_id for p in placements} == {0, 3}

    def test_only_unschedulable_jobs(self):
        cluster = SimulatedCluster.homogeneous(1, 4)
        scheduler = BackfillScheduler(cluster)
        placements, stats = scheduler.run([_job(0, 0.0, 5, 100.0)], 3600.0)
        assert placements == []
        assert stats.jobs_unschedulable == 1
        assert stats.jobs_started == 0
        assert stats.core_seconds_delivered == 0.0
        trace = scheduler.build_trace(placements, 3600.0)
        assert not trace.matrix.any()

    def test_pure_fcfs_with_zero_backfill_depth_preserves_order(self):
        """backfill_depth=0 degenerates to strict FCFS start order."""
        cluster = SimulatedCluster.homogeneous(1, 8)
        scheduler = BackfillScheduler(cluster, backfill_depth=0)
        jobs = [
            _job(0, 0.0, 6, 1000.0),
            _job(1, 1.0, 8, 500.0),    # blocks the queue head
            _job(2, 2.0, 1, 10.0),     # would trivially backfill if allowed
            _job(3, 3.0, 1, 10.0),
        ]
        placements, stats = scheduler.run(jobs, 20000.0)
        assert stats.backfilled_jobs == 0
        starts = {p.job.job_id: p.start_time_s for p in placements}
        # FCFS: nothing overtakes the blocked head.
        assert starts[2] >= starts[1]
        assert starts[3] >= starts[2]

    def test_zero_length_window_rejected(self):
        cluster = SimulatedCluster.homogeneous(1, 4)
        scheduler = BackfillScheduler(cluster)
        for duration in (0.0, -60.0):
            with pytest.raises(ValueError, match="duration_s"):
                scheduler.run([_job(0, 0.0, 2, 100.0)], duration)
        with pytest.raises(ValueError, match="at least one sample"):
            scheduler.build_trace([], 0.0)

    def test_window_shorter_than_one_step_rejected(self):
        cluster = SimulatedCluster.homogeneous(1, 4)
        scheduler = BackfillScheduler(cluster)
        placements, _ = scheduler.run([_job(0, 0.0, 2, 100.0)], 10.0)
        with pytest.raises(ValueError, match="at least one sample"):
            scheduler.build_trace(placements, 10.0, step_s=60.0)
