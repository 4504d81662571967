"""Unit tests for timestamped event streams and batching."""

import pytest

from repro.graph import (
    AddEdge,
    AddVertex,
    EventStream,
    Graph,
    TimedEvent,
    batch_by_count,
    batch_by_time,
)


def make_stream(times):
    s = EventStream()
    for i, t in enumerate(times):
        s.push(t, AddEdge(i, i + 1))
    return s


class TestEventStream:
    def test_push_keeps_order(self):
        s = make_stream([3.0, 1.0, 2.0])
        assert [te.time for te in s] == [1.0, 2.0, 3.0]

    def test_extend_sorts(self):
        s = EventStream()
        s.extend([TimedEvent(2.0, AddVertex("b")), TimedEvent(1.0, AddVertex("a"))])
        assert [te.time for te in s] == [1.0, 2.0]

    def test_start_end_times(self):
        s = make_stream([5.0, 1.0])
        assert s.start_time == 1.0
        assert s.end_time == 5.0

    def test_empty_stream(self):
        s = EventStream()
        assert len(s) == 0
        assert s.start_time is None
        assert s.end_time is None

    def test_window_half_open(self):
        s = make_stream([0.0, 1.0, 2.0, 3.0])
        window = s.window(1.0, 3.0)
        assert [te.time for te in window] == [1.0, 2.0]

    def test_events_between(self):
        s = make_stream([0.0, 1.0])
        events = s.events_between(0.0, 10.0)
        assert events == [AddEdge(0, 1), AddEdge(1, 2)]

    def test_replay_into(self):
        s = EventStream()
        s.push(0.0, AddEdge("a", "b"))
        s.push(1.0, AddEdge("b", "c"))
        g = Graph()
        assert s.replay_into(g) == 2
        assert g.num_edges == 2

    def test_replay_until(self):
        s = EventStream()
        s.push(0.0, AddEdge("a", "b"))
        s.push(5.0, AddEdge("b", "c"))
        g = Graph()
        assert s.replay_into(g, until=5.0) == 1
        assert g.num_edges == 1

    def test_merged_with(self):
        a = make_stream([0.0, 2.0])
        b = make_stream([1.0])
        merged = a.merged_with(b)
        assert [te.time for te in merged] == [0.0, 1.0, 2.0]
        assert len(a) == 2  # originals untouched

    def test_indexing(self):
        s = make_stream([1.0, 0.0])
        assert s[0].time == 0.0

    def test_push_extend_and_init_share_the_time_seq_order(self):
        """Many equal times: every way in lands in ``(time, seq)`` order,
        the order the dataclass comparison defines."""
        times = [float(i % 4) for i in range(7, 47)]  # ten events per time
        pushed = make_stream(times)
        created = [TimedEvent(t, AddEdge(i, i + 1)) for i, t in enumerate(times)]
        extended = EventStream()
        extended.extend(created[::-1])
        expected = sorted(created)
        assert [(te.time, te.seq) for te in expected] == sorted(
            (te.time, te.seq) for te in created
        )
        assert list(extended) == expected
        assert list(EventStream(created[::2] + created[1::2])) == expected
        assert [te.event for te in pushed] == [te.event for te in expected]
        assert list(pushed) == sorted(pushed)  # FIFO among equal times


class TestBatching:
    def test_batch_by_time_covers_span(self):
        s = make_stream([0.0, 0.5, 1.5, 3.2])
        batches = list(batch_by_time(s, window=1.0))
        starts = [b[0] for b in batches]
        assert starts == [0.0, 1.0, 2.0, 3.0]
        total = sum(len(b[1]) for b in batches)
        assert total == 4

    def test_batch_by_time_yields_empty_windows(self):
        s = make_stream([0.0, 3.0])
        batches = list(batch_by_time(s, window=1.0))
        # Window at t=1 and t=2 must exist and be empty (the system still
        # runs supersteps when the feed goes quiet).
        assert batches[1][1] == []
        assert batches[2][1] == []

    def test_batch_by_time_empty_stream(self):
        assert list(batch_by_time(EventStream(), window=1.0)) == []

    def test_batch_by_time_rejects_bad_window(self):
        with pytest.raises(ValueError):
            list(batch_by_time(make_stream([0.0]), window=0))

    def test_batch_by_count_sizes(self):
        s = make_stream([float(i) for i in range(7)])
        batches = list(batch_by_count(s, batch_size=3))
        assert [len(b) for b in batches] == [3, 3, 1]

    def test_batch_by_count_exact_multiple(self):
        s = make_stream([float(i) for i in range(6)])
        batches = list(batch_by_count(s, batch_size=3))
        assert [len(b) for b in batches] == [3, 3]

    def test_batch_by_count_rejects_bad_size(self):
        with pytest.raises(ValueError):
            list(batch_by_count(make_stream([0.0]), batch_size=0))
