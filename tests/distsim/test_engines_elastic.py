"""Engine behaviour under elastic cluster membership (evictions)."""

import numpy as np

from repro.distsim.cluster import Cluster, ClusterSpec
from repro.distsim.engines import BSPEngine, make_engine
from repro.distsim.engines.asynchronous import pull_and_schedule
from repro.distsim.engines.base import TrainingSession
from repro.distsim.events import EventQueue
from repro.distsim.job import JobConfig
from repro.distsim.timing import timing_for
from repro.mlcore.datasets import make_dataset
from repro.mlcore.models import make_model


def make_session(n_workers=4, total_steps=400, seed=0):
    job = JobConfig(
        model="resnet32-sim",
        dataset="cifar10-sim",
        total_steps=total_steps,
        base_lr=0.004,
        eval_every=200,
        loss_log_every=100,
        seed=seed,
    )
    return TrainingSession(
        job=job,
        model=make_model("resnet32-sim"),
        dataset=make_dataset("cifar10-sim"),
        timing=timing_for("resnet32-sim"),
        cluster=Cluster(ClusterSpec(n_workers=n_workers)),
    )


class TestBSPWithEvictions:
    def test_round_advances_by_active_count(self):
        session = make_session(n_workers=4)
        session.cluster.evict(2)
        BSPEngine().run(session, steps=3)
        assert session.step == 3  # one 3-worker round

    def test_default_lr_multiplier_tracks_active_count(self):
        """Linear scaling follows the *active* cluster (elastic policy)."""
        evicted = make_session(n_workers=4, seed=9)
        evicted.cluster.evict(3)
        full = make_session(n_workers=4, seed=9)
        initial = make_session(n_workers=4, seed=9).ps.peek().copy()
        BSPEngine().run(evicted, steps=3)
        BSPEngine().run(full, steps=4)
        # different batch composition and lr -> different updates
        assert not np.allclose(evicted.ps.peek(), full.ps.peek())
        assert not np.allclose(evicted.ps.peek(), initial)

    def test_global_batch_excludes_evicted_worker(self):
        session = make_session(n_workers=4)
        session.cluster.evict(0)
        inputs, _ = session.global_batch(session.cluster.active_workers, 16)
        assert inputs.shape[0] == 3 * 16

    def test_mid_run_eviction_changes_round_size(self):
        session = make_session(n_workers=4)
        BSPEngine().run(session, steps=4)
        session.cluster.evict(1)
        BSPEngine().run(session, steps=3)
        assert session.step == 7

    def test_round_time_shrinks_with_smaller_cluster(self):
        """A smaller barrier (fewer workers) means a cheaper round."""
        big = make_session(n_workers=8, seed=1)
        BSPEngine().run(big, steps=8)  # exactly one 8-worker round
        small = make_session(n_workers=8, seed=1)
        for worker in (5, 6, 7):
            small.cluster.evict(worker)
        BSPEngine().run(small, steps=5)  # exactly one 5-worker round
        assert small.clock.now < big.clock.now


class ShrinkMidRunCases:
    """Elastic shrink during an asynchronous tail (fleet-style
    preemption).  The four asynchronous protocols share one push loop,
    so the ``Test*`` classes below run every case on each of them."""

    protocol: str

    def test_stop_hook_eviction_completes_with_remaining_workers(self):
        session = make_session(n_workers=4, total_steps=400)
        evicted_at = {}

        def shrink(current):
            if current.step == 10 and current.cluster.is_active(0):
                current.cluster.evict(0)
                evicted_at["time"] = current.clock.now
            return None

        reason = make_engine(self.protocol).run(session, 80, None, shrink)
        assert reason == "completed"
        assert session.step == 80  # remaining workers absorb the budget
        late_pushes = [
            worker
            for time, worker, _ in session.telemetry.worker_durations
            if worker == 0 and time > evicted_at["time"]
        ]
        assert not late_pushes, "evicted worker kept pushing updates"

    def test_shrink_then_restore_next_segment(self):
        session = make_session(n_workers=4, total_steps=400)

        def shrink(current):
            if current.step == 8 and current.cluster.is_active(1):
                current.cluster.evict(1)
            return None

        engine = make_engine(self.protocol)
        engine.run(session, steps=40, stop=shrink)
        session.cluster.restore(1)
        engine.run(session, steps=40)
        assert session.step == 80
        workers_seen = {
            worker
            for _, worker, _ in session.telemetry.worker_durations[-30:]
        }
        assert 1 in workers_seen  # restored worker rejoined


class TestASPElasticShrinkMidRun(ShrinkMidRunCases):
    protocol = "asp"

    def test_pull_and_schedule_skips_evicted_worker(self):
        session = make_session(n_workers=4)
        session.cluster.evict(3)
        queue, states = EventQueue(), {}
        pull_and_schedule(session, queue, states, 3, 32)
        assert len(queue) == 0
        assert 3 not in states


class TestCASPElasticShrinkMidRun(ShrinkMidRunCases):
    protocol = "casp"


class TestSSPElasticShrinkMidRun(ShrinkMidRunCases):
    protocol = "ssp"


class TestDSSPElasticShrinkMidRun(ShrinkMidRunCases):
    protocol = "dssp"


class BetweenRunEvictionCases:
    protocol: str

    def test_evicted_worker_events_are_skipped(self):
        session = make_session(n_workers=4)
        engine = make_engine(self.protocol)
        engine.run(session, steps=8)
        session.cluster.evict(0)
        engine.run(session, steps=8)
        # run completes despite the stale event for worker 0 in flight
        assert session.step == 16

    def test_restored_worker_rejoins_next_segment(self):
        session = make_session(n_workers=4)
        session.cluster.evict(0)
        make_engine(self.protocol).run(session, steps=8)
        session.cluster.restore(0)
        make_engine(self.protocol).run(session, steps=40)
        workers_seen = {
            worker for _, worker, _ in session.telemetry.worker_durations
        }
        assert 0 in workers_seen


class TestASPWithEvictions(BetweenRunEvictionCases):
    protocol = "asp"


class TestCASPWithEvictions(BetweenRunEvictionCases):
    protocol = "casp"


class TestSSPWithEvictions(BetweenRunEvictionCases):
    protocol = "ssp"


class TestDSSPWithEvictions(BetweenRunEvictionCases):
    protocol = "dssp"
