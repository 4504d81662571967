"""Unit tests for the per-iteration quota table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QuotaTable

try:
    import numpy as np
except ImportError:  # the numpy-free leg
    np = None


class TestQuotaMaths:
    def test_paper_formula(self):
        # Q(i, j) = C_t(j) / (k - 1)
        table = QuotaTable([8, 4, 0], num_partitions=3)
        assert table.quota(1, 0) == pytest.approx(4.0)
        assert table.quota(0, 1) == pytest.approx(2.0)
        assert table.quota(0, 2) == 0.0

    def test_negative_capacity_clamps_to_zero(self):
        # An over-full partition (e.g. after a load spike) offers no quota.
        table = QuotaTable([-5, 10], num_partitions=2)
        assert table.quota(1, 0) == 0.0

    def test_single_partition_no_lanes(self):
        table = QuotaTable([10], num_partitions=1)
        with pytest.raises(ValueError):
            table.quota(0, 0)


class TestConsumption:
    def test_consume_until_exhausted(self):
        table = QuotaTable([4, 4], num_partitions=2)  # quota 4 each lane
        for _ in range(4):
            assert table.try_consume(0, 1) is True
        assert table.try_consume(0, 1) is False
        assert table.available(0, 1) == pytest.approx(0.0)

    def test_lanes_are_independent(self):
        table = QuotaTable([2, 2, 2], num_partitions=3)  # quota 1 per lane
        assert table.try_consume(0, 2) is True
        assert table.try_consume(0, 2) is False
        assert table.try_consume(1, 2) is True  # other lane unaffected

    def test_worst_case_never_exceeds_capacity(self):
        # All sources exhaust their quota towards j: total <= C_t(j).
        k = 5
        remaining = [7] * k
        table = QuotaTable(remaining, num_partitions=k)
        destination = 3
        admitted = 0
        for source in range(k):
            if source == destination:
                continue
            while table.try_consume(source, destination):
                admitted += 1
        assert admitted <= remaining[destination]
        assert table.total_admitted_to(destination) == admitted

    def test_weighted_loads(self):
        table = QuotaTable([10, 10], num_partitions=2)  # quota 10
        assert table.try_consume(0, 1, load=6.0) is True
        assert table.try_consume(0, 1, load=6.0) is False  # would overdraw
        assert table.try_consume(0, 1, load=4.0) is True

    def test_whole_load_or_nothing(self):
        table = QuotaTable([3, 3], num_partitions=2)
        assert table.try_consume(0, 1, load=2.0) is True
        # remaining lane quota is 1; a 2-unit vertex must be rejected whole
        assert table.try_consume(0, 1, load=2.0) is False
        assert table.consumed(0, 1) == pytest.approx(2.0)

    def test_invalid_load(self):
        table = QuotaTable([3, 3], num_partitions=2)
        with pytest.raises(ValueError):
            table.try_consume(0, 1, load=0)

    def test_bad_partition_ids(self):
        table = QuotaTable([3, 3], num_partitions=2)
        with pytest.raises(ValueError):
            table.try_consume(0, 5)
        with pytest.raises(ValueError):
            table.try_consume(0, 0)

    def test_num_partitions_validated(self):
        with pytest.raises(ValueError):
            QuotaTable([], num_partitions=0)


LOADS = st.one_of(
    st.sampled_from([1.0, 2.0, 0.1, 0.2, 0.3, 0.7, 1e-9]),
    st.floats(min_value=0.01, max_value=4.0),
)


@st.composite
def admission_rounds(draw):
    """A quota table, some consumption already on it, and one round of
    ``(source, destination, load)`` requests in admission order."""
    k = draw(st.sampled_from([1, 2, 8]))
    remaining = draw(st.lists(
        st.floats(min_value=-3.0, max_value=12.0), min_size=k, max_size=k
    ))
    lanes = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(
        lambda lane: lane[0] != lane[1]
    )
    many = 60 if k > 1 else 0  # one partition has no lane at all
    consumed = draw(st.lists(st.tuples(lanes, LOADS), max_size=many // 15))
    requests = draw(st.lists(st.tuples(lanes, LOADS), max_size=many))
    requests = [(src, dst, load) for (src, dst), load in requests]
    if draw(st.booleans()):  # an invalid request, somewhere
        bad = draw(st.sampled_from([
            (0, 0, 1.0), (0, k, 1.0), (-1, 0, 1.0),
            (0, k - 1, 0.0), (0, k - 1, -0.5),
        ]))
        requests.insert(draw(st.integers(0, len(requests))), bad)
    return k, remaining, consumed, requests


@pytest.mark.skipif(np is None, reason="QuotaTable.admit takes numpy columns")
class TestAdmitColumns:
    """``QuotaTable.admit`` is the sequential ``try_consume`` loop, exactly:
    same mask, same lane consumption (fractional float sums included),
    same error after the same applied prefix."""

    @given(case=admission_rounds())
    @settings(max_examples=300, deadline=None)
    def test_equals_sequential_try_consume(self, case):
        k, remaining, consumed, requests = case
        looped, columns = QuotaTable(remaining, k), QuotaTable(remaining, k)
        for (src, dst), load in consumed:
            looped.try_consume(src, dst, load)
            columns.try_consume(src, dst, load)
        expected, expected_error = [], None
        try:
            for src, dst, load in requests:
                expected.append(looped.try_consume(src, dst, load))
        except ValueError as error:
            expected_error = str(error)
        sources, destinations, loads = (
            [r[i] for r in requests] for i in range(3)
        )
        if expected_error is None:
            mask = columns.admit(sources, destinations, loads)
            assert mask.dtype == bool and mask.tolist() == expected
        else:
            with pytest.raises(ValueError) as raised:
                columns.admit(sources, destinations, loads)
            assert str(raised.value) == expected_error
        for src in range(k):
            for dst in range(k):
                if src != dst:
                    assert columns.consumed(src, dst) == looped.consumed(src, dst)

    def test_a_smaller_load_fits_after_a_refusal(self):
        """The per-lane tail: a refusal does not end the lane."""
        table = QuotaTable([10, 10], num_partitions=2)  # quota 10
        mask = table.admit([0, 0, 0, 0], [1, 1, 1, 1], [6.0, 6.0, 3.0, 2.0])
        assert mask.tolist() == [True, False, True, False]
        assert table.consumed(0, 1) == 9.0

    def test_empty_round(self):
        table = QuotaTable([4, 4], num_partitions=2)
        assert table.admit([], [], []).tolist() == []
        assert table.consumed(0, 1) == 0.0
