"""The hot kernels against brute-force references, on ordinary data and on
the awkward cases (heavy ties, values on bin edges)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaseq import _kernels

from helpers import hist_naive


def brute_scaled(row_a, row_b):
    n1, n2 = len(row_a), len(row_b)
    points = sorted(set(row_a) | set(row_b))
    best = 0
    for t in points:
        f1 = sum(1 for v in row_a if v <= t)
        f2 = sum(1 for v in row_b if v <= t)
        best = max(best, abs(f1 * n2 - f2 * n1))
    return best


class TestKsScaledBatch:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(40, 9))
        b = rng.normal(size=(40, 6))
        scaled, ties = _kernels.ks_scaled_batch(a, b)
        for r in range(40):
            assert scaled[r] == brute_scaled(a[r].tolist(), b[r].tolist())
        assert not ties.any()  # continuous draws never collide

    def test_tie_flag_matches_set_intersection(self):
        rng = np.random.default_rng(6)
        a = rng.integers(0, 5, size=(200, 8)).astype(np.float64)
        b = rng.integers(0, 5, size=(200, 5)).astype(np.float64)
        scaled, ties = _kernels.ks_scaled_batch(a, b)
        for r in range(200):
            shared = set(a[r].tolist()) & set(b[r].tolist())
            assert ties[r] == (len(shared) > 0)
            assert scaled[r] == brute_scaled(a[r].tolist(), b[r].tolist())

    @given(
        a=st.lists(st.integers(-3, 3), min_size=2, max_size=8),
        b=st.lists(st.integers(-3, 3), min_size=2, max_size=8),
    )
    @settings(max_examples=120, deadline=None)
    def test_scaled_is_multiple_of_gcd(self, a, b):
        av = np.asarray([a], dtype=np.float64)
        bv = np.asarray([b], dtype=np.float64)
        scaled, _ = _kernels.ks_scaled_batch(av, bv)
        g = math.gcd(len(a), len(b))
        assert scaled[0] % g == 0
        assert 0 <= scaled[0] <= len(a) * len(b)

    def test_identical_rows_give_zero(self):
        a = np.arange(12, dtype=np.float64).reshape(2, 6)
        scaled, ties = _kernels.ks_scaled_batch(a, a.copy())
        assert np.array_equal(scaled, [0, 0])
        assert ties.all()


class TestHistAccumulate:
    def test_matches_naive_including_edges(self):
        # values sitting exactly on bin boundaries are the risky ones
        edges = np.linspace(-1.0, 1.0, 11)
        rng = np.random.default_rng(9)
        values = np.concatenate([edges, rng.uniform(-1, 1, size=500), [-1.0, 1.0]])
        counts = np.zeros(10, dtype=np.int64)
        _kernels.hist_accumulate(values, -1.0, 10 / 2.0, counts)
        assert counts.sum() == values.size
        assert np.array_equal(counts, hist_naive(values, -1.0, 1.0, 10))

    def test_out_of_range_values_clip(self):
        values = np.array([-5.0, 5.0, 0.5])
        counts = np.zeros(4, dtype=np.int64)
        _kernels.hist_accumulate(values, 0.0, 4.0, counts)
        assert counts[0] == 1 and counts[-1] == 1
        assert counts.sum() == 3
