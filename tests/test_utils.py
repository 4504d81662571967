"""Unit tests for repro.utils: RNG derivation, stable hashing, statistics."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import (
    RunningStats,
    derive_seed,
    make_rng,
    mean,
    mean_and_error,
    stable_hash,
    stderr_of_mean,
)
from repro.utils.rng import random_column, shuffled_order

try:
    import numpy as np
except ImportError:  # the numpy-free leg
    np = None


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_labels_distinguish(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_base_seed_distinguishes(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_order_matters(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")

    def test_non_negative(self):
        for seed in (0, 1, -5, 2 ** 70):
            assert derive_seed(seed, "x") >= 0


class TestMakeRng:
    def test_returns_random_instance(self):
        assert isinstance(make_rng(0), random.Random)

    def test_same_seed_same_stream(self):
        a = make_rng(5, "component")
        b = make_rng(5, "component")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_labels_different_streams(self):
        a = make_rng(5, "one")
        b = make_rng(5, "two")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_no_labels_seeds_directly(self):
        assert make_rng(7).random() == random.Random(7).random()


class TestStableHash:
    def test_deterministic_for_ints(self):
        assert stable_hash(12345) == stable_hash(12345)

    def test_deterministic_for_strings(self):
        assert stable_hash("vertex-1") == stable_hash("vertex-1")

    def test_int_and_string_of_int_differ_is_allowed(self):
        # They may collide or not; the contract is only per-type stability.
        assert isinstance(stable_hash(3), int)

    def test_bytes_supported(self):
        assert stable_hash(b"abc") == stable_hash(b"abc")

    def test_rejects_unsupported_types(self):
        with pytest.raises(TypeError):
            stable_hash(3.14)
        with pytest.raises(TypeError):
            stable_hash((1, 2))

    def test_spread_over_partitions(self):
        # Hash mod k should scatter ids reasonably evenly.
        k = 8
        counts = [0] * k
        for v in range(8000):
            counts[stable_hash(v) % k] += 1
        expected = 8000 / k
        for c in counts:
            assert abs(c - expected) < expected * 0.2

    def test_non_negative_64bit(self):
        h = stable_hash("anything")
        assert 0 <= h < 2 ** 64


class TestMeanAndError:
    def test_mean_basic(self):
        assert mean([1, 2, 3]) == 2.0

    def test_mean_empty_raises(self):
        with pytest.raises(ValueError):
            mean([])

    def test_stderr_single_sample_is_zero(self):
        assert stderr_of_mean([5.0]) == 0.0

    def test_stderr_known_value(self):
        # Samples 1..5: stdev = sqrt(2.5), stderr = sqrt(2.5/5)
        samples = [1, 2, 3, 4, 5]
        assert stderr_of_mean(samples) == pytest.approx(math.sqrt(2.5 / 5))

    def test_mean_and_error_pair(self):
        mu, err = mean_and_error([2.0, 4.0])
        assert mu == 3.0
        assert err == pytest.approx(1.0)

    def test_stderr_empty_raises(self):
        with pytest.raises(ValueError):
            stderr_of_mean([])


class TestRunningStats:
    def test_matches_batch_statistics(self):
        samples = [0.5, 1.5, -2.0, 4.0, 4.0, 0.0]
        rs = RunningStats()
        for x in samples:
            rs.add(x)
        assert rs.n == len(samples)
        assert rs.mean == pytest.approx(mean(samples))
        assert rs.stderr == pytest.approx(stderr_of_mean(samples))
        assert rs.min == -2.0
        assert rs.max == 4.0

    def test_variance_below_two_samples(self):
        rs = RunningStats()
        assert rs.variance == 0.0
        rs.add(3.0)
        assert rs.variance == 0.0

    def test_merge_equals_combined_stream(self):
        xs = [1.0, 2.0, 3.0]
        ys = [10.0, 20.0]
        a = RunningStats()
        b = RunningStats()
        combined = RunningStats()
        for x in xs:
            a.add(x)
            combined.add(x)
        for y in ys:
            b.add(y)
            combined.add(y)
        a.merge(b)
        assert a.n == combined.n
        assert a.mean == pytest.approx(combined.mean)
        assert a.variance == pytest.approx(combined.variance)
        assert a.min == combined.min
        assert a.max == combined.max

    def test_merge_with_empty(self):
        a = RunningStats()
        a.add(1.0)
        b = RunningStats()
        a.merge(b)
        assert a.n == 1
        b.merge(a)
        assert b.n == 1
        assert b.mean == 1.0

    def test_as_dict_keys(self):
        rs = RunningStats()
        rs.add(2.0)
        d = rs.as_dict()
        assert set(d) == {"n", "mean", "stdev", "stderr", "min", "max"}


# The n that sit next to a change of ``getrandbits`` width (2**k ± 1), and
# the smallest lists (0, 1, 2), always run — not only when drawn.
BUCKET_EDGES = sorted({0, 1, 2} | {2**k + d for k in range(1, 11) for d in (-1, 1)})


@pytest.mark.skipif(np is None, reason="shuffled_order returns a numpy column")
class TestShuffledOrder:
    """``shuffled_order`` replays ``random.Random.shuffle``: the same
    permutation from the same draws, so the stream after it is the same.
    If a CPython release changes how ``shuffle`` draws, this fails first."""

    @given(seed=st.integers(0, 2**64), n=st.integers(0, 3000))
    @settings(max_examples=150, deadline=None)
    def test_matches_random_shuffle(self, seed, n):
        self.check(seed, n)

    @given(seed=st.integers(0, 2**64))
    @settings(max_examples=10, deadline=None)
    @pytest.mark.parametrize("n", BUCKET_EDGES)
    def test_matches_random_shuffle_on_bucket_edges(self, seed, n):
        self.check(seed, n)

    @staticmethod
    def check(seed, n):
        reference, replay = random.Random(seed), random.Random(seed)
        shuffled = list(range(n))
        reference.shuffle(shuffled)
        order = shuffled_order(replay, n)
        assert order.dtype == np.int64
        assert order.tolist() == shuffled
        assert replay.random() == reference.random()

    def test_random_column_continues_the_stream(self):
        reference, replay = random.Random(3), random.Random(3)
        coins = random_column(replay, 50)
        assert coins.tolist() == [reference.random() for _ in range(50)]
        assert replay.getrandbits(32) == reference.getrandbits(32)
