"""Unit tests for Pregel building blocks: router, aggregators, protocols."""

import pytest

from repro.pregel import (
    Aggregators,
    CapacityProtocol,
    MaxAggregator,
    MessageRouter,
    MigrationProtocol,
    MinAggregator,
    NetworkStats,
    SumAggregator,
    sum_combiner,
)
from repro.pregel.fault import Checkpointer, FaultPlan


class TestNetworkStats:
    def test_counters_accumulate(self):
        net = NetworkStats()
        net.count_local(3)
        net.count_remote(2)
        net.count_compute(1.5)
        assert net.current.local_messages == 3
        assert net.current.remote_messages == 2
        assert net.current.total_messages == 5
        assert net.current.remote_fraction == pytest.approx(0.4)

    def test_barrier_rotates_records(self):
        net = NetworkStats()
        net.count_remote(1)
        closed = net.barrier(superstep=1)
        assert closed.remote_messages == 1
        assert net.current.remote_messages == 0
        assert net.history == [closed]

    def test_totals(self):
        net = NetworkStats()
        net.count_remote(2)
        net.barrier(1)
        net.count_remote(3)
        net.count_migration(1)
        net.barrier(2)
        totals = net.totals()
        assert totals.remote_messages == 5
        assert totals.migrations == 1

    def test_remote_fraction_empty(self):
        assert NetworkStats().current.remote_fraction == 0.0


class TestMessageRouter:
    def setup_method(self):
        self.placement = {"a": 0, "b": 0, "c": 1}
        self.net = NetworkStats()
        self.router = MessageRouter(self.placement, self.net)

    def test_local_vs_remote_classification(self):
        self.router.send("a", "b", 1)  # same worker
        self.router.send("a", "c", 2)  # cross worker
        inbox = self.router.deliver()
        assert inbox == {"b": [1], "c": [2]}
        assert self.net.current.local_messages == 1
        assert self.net.current.remote_messages == 1

    def test_delivery_delayed_until_deliver(self):
        self.router.send("a", "b", 1)
        assert self.router.pending_inbox == {}
        self.router.deliver()
        assert self.router.pending_inbox == {"b": [1]}

    def test_combiner_folds_per_source_worker(self):
        self.router.set_combiner(sum_combiner)
        self.router.send("a", "c", 1)
        self.router.send("b", "c", 2)  # same worker 0: combined
        inbox = self.router.deliver()
        assert inbox == {"c": [3]}
        assert self.net.current.remote_messages == 1

    def test_combiner_does_not_fold_across_workers(self):
        self.placement["d"] = 1
        self.router.set_combiner(sum_combiner)
        self.router.send("a", "b", 1)  # from worker 0
        self.router.send("c", "b", 2)  # from worker 1
        inbox = self.router.deliver()
        assert sorted(inbox["b"]) == [1, 2]

    def test_single_worker_delivery_keeps_send_order_and_is_all_local(self):
        # num_workers=1: every target hears from exactly one worker (a zero
        # cut) — the one regime the deleted "collision-free bulk path" of
        # deliver() could take.  The general loop gives the same inbox:
        # mailboxes in first-send order, one folded message each, all local.
        placement = dict.fromkeys("abcd", 0)
        router = MessageRouter(placement, self.net)
        router.set_combiner(sum_combiner)
        for source, target, message in (
            ("a", "c", 1), ("b", "a", 2), ("d", "c", 4), ("a", "d", 8),
        ):
            router.send(source, target, message)
        inbox = router.deliver()
        assert list(inbox.items()) == [("c", [5]), ("a", [2]), ("d", [8])]
        assert {type(box) for box in inbox.values()} == {list}
        assert self.net.current.local_messages == 3
        assert self.net.current.remote_messages == 0
        assert router.take_inbox() is inbox

    def test_vanished_destination_dropped(self):
        self.router.send("a", "ghost", 1)
        inbox = self.router.deliver()
        assert inbox == {}

    def test_routing_follows_placement_at_delivery(self):
        # The deferred-migration guarantee: classification happens at
        # delivery time against the current placement.
        self.router.send("a", "c", 1)
        self.placement["c"] = 0  # c "migrated" to worker 0 before barrier
        self.router.deliver()
        assert self.net.current.local_messages == 1
        assert self.net.current.remote_messages == 0

    def test_drop_vertex(self):
        self.router.send("a", "b", 1)
        self.router.deliver()
        self.router.drop_vertex("b")
        assert self.router.pending_inbox == {}

    def test_has_pending(self):
        assert not self.router.has_pending()
        self.router.send("a", "b", 1)
        assert self.router.has_pending()
        self.router.deliver()
        assert self.router.has_pending()


class TestAggregators:
    def test_sum_lifecycle(self):
        aggs = Aggregators()
        aggs.register("count", SumAggregator)
        aggs.contribute("count", 3)
        aggs.contribute("count", 4)
        assert aggs.previous("count") == 0  # not visible yet
        aggs.barrier()
        assert aggs.previous("count") == 7
        aggs.barrier()
        assert aggs.previous("count") == 0  # reset each superstep

    def test_max_min(self):
        aggs = Aggregators()
        aggs.register("hi", MaxAggregator)
        aggs.register("lo", MinAggregator)
        for value in (3, 9, 1):
            aggs.contribute("hi", value)
            aggs.contribute("lo", value)
        aggs.barrier()
        assert aggs.previous("hi") == 9
        assert aggs.previous("lo") == 1

    def test_empty_max_is_none(self):
        aggs = Aggregators()
        aggs.register("hi", MaxAggregator)
        aggs.barrier()
        assert aggs.previous("hi") is None

    def test_unregistered_raises(self):
        aggs = Aggregators()
        with pytest.raises(KeyError):
            aggs.contribute("nope", 1)
        with pytest.raises(KeyError):
            aggs.previous("nope")

    def test_names(self):
        aggs = Aggregators()
        aggs.register("a", SumAggregator)
        assert aggs.names() == ["a"]


class TestMigrationProtocol:
    def setup_method(self):
        self.net = NetworkStats()
        self.protocol = MigrationProtocol(self.net, num_workers=3)
        self.placement = {}

    def _update(self, vid, worker):
        self.placement[vid] = worker

    def test_requests_invisible_until_announce(self):
        self.protocol.request("v", 0, 1)
        assert self.placement == {}
        assert self.protocol.requested_count == 1
        announced = self.protocol.announce_barrier(self._update)
        assert announced == [("v", 0, 1)]
        assert self.placement == {"v": 1}

    def test_migrating_state_spans_one_superstep(self):
        self.protocol.request("v", 0, 1)
        assert not self.protocol.is_migrating("v")
        self.protocol.announce_barrier(self._update)
        assert self.protocol.is_migrating("v")
        completed = self.protocol.complete_barrier()
        assert completed == {"v": (0, 1)}
        assert not self.protocol.is_migrating("v")

    def test_notification_traffic_counted(self):
        self.protocol.request("a", 0, 1)
        self.protocol.request("b", 0, 2)
        self.protocol.request("c", 1, 2)
        self.protocol.announce_barrier(self._update)
        # two origin workers × (3 − 1) peers
        assert self.net.current.migration_notifications == 4

    def test_migration_traffic_counted_at_completion(self):
        self.protocol.request("v", 0, 1)
        self.protocol.announce_barrier(self._update)
        assert self.net.current.migrations == 0
        self.protocol.complete_barrier()
        assert self.net.current.migrations == 1

    def test_same_worker_request_rejected(self):
        with pytest.raises(ValueError):
            self.protocol.request("v", 1, 1)

    def test_cancel_vertex(self):
        self.protocol.request("v", 0, 1)
        self.protocol.cancel_vertex("v")
        assert self.protocol.announce_barrier(self._update) == []
        self.protocol.request("w", 0, 1)
        self.protocol.announce_barrier(self._update)
        self.protocol.cancel_vertex("w")
        assert self.protocol.complete_barrier() == {}

    def test_single_worker_no_notifications(self):
        protocol = MigrationProtocol(self.net, num_workers=1)
        assert self.net.current.migration_notifications == 0


class TestCapacityProtocol:
    def test_one_barrier_delay(self):
        net = NetworkStats()
        protocol = CapacityProtocol(net, num_workers=3)
        assert protocol.visible_capacities() is None
        protocol.publish([5, 6, 7])
        assert protocol.visible_capacities() == [5, 6, 7]

    def test_broadcast_traffic(self):
        net = NetworkStats()
        protocol = CapacityProtocol(net, num_workers=4)
        protocol.publish([1, 2, 3, 4])
        assert net.current.capacity_messages == 4 * 3

    def test_returns_copy(self):
        protocol = CapacityProtocol(NetworkStats(), num_workers=2)
        protocol.publish([1, 2])
        view = protocol.visible_capacities()
        view[0] = 99
        assert protocol.visible_capacities() == [1, 2]

    def test_single_worker_no_traffic(self):
        net = NetworkStats()
        CapacityProtocol(net, num_workers=1).publish([3])
        assert net.current.capacity_messages == 0


class TestCheckpointer:
    def test_interval(self):
        cp = Checkpointer(interval=5, plan=FaultPlan().add(6, 0))
        assert cp.maybe_checkpoint(5, {"v": 1}) is True
        assert cp.maybe_checkpoint(6, {"v": 2}) is False
        assert cp.maybe_checkpoint(10, {"v": 3}) is False  # no failure ahead
        assert cp.last_checkpoint_superstep == 5

    def test_restore_known_and_new_vertices(self):
        cp = Checkpointer(interval=1, plan=FaultPlan().add(1, 0))
        cp.maybe_checkpoint(1, {"old": 10})
        values = {"old": 99, "new": 5}
        restored = cp.restore_vertices(
            ["old", "new"], values, reinitialise=lambda vid: 0
        )
        assert restored == 2
        assert values == {"old": 10, "new": 0}

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Checkpointer(interval=0, plan=FaultPlan())


class TestFaultPlan:
    def test_schedule_lookup(self):
        plan = FaultPlan().add(7, 2)
        assert plan.worker_failing_at(7) == 2
        assert plan.worker_failing_at(8) is None
