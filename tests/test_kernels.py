"""The hot kernels against brute-force references, on ordinary data and on
the awkward cases (heavy ties, signed zeros, values on bin edges). The KS
kernel must equal the stable-argsort oracle exactly, statistic and tie flag,
on float rows and on columns drawn from dense-ranked pooled rows."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaseq import _kernels

from helpers import dense_ranks_oracle, hist_accumulate_clip, hist_naive, ks_scaled_oracle

# few distinct values, so most rows tie within and across samples; -0.0 and
# 0.0 are one value
TIED = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0, 3.0])
CELLS = st.one_of(TIED, st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def row_pairs(draw, cells=CELLS):
    m = draw(st.integers(1, 6))
    n1 = draw(st.integers(1, 8))
    n2 = draw(st.integers(1, 8))
    flat = draw(st.lists(cells, min_size=m * (n1 + n2), max_size=m * (n1 + n2)))
    x = np.asarray(flat, dtype=np.float64).reshape(m, n1 + n2)
    return x[:, :n1], x[:, n1:]


def assert_matches_oracle(got, a, b):
    scaled, ties = got
    want_scaled, want_ties = ks_scaled_oracle(a, b)
    assert scaled.dtype == np.int64
    assert np.array_equal(scaled, want_scaled)
    assert np.array_equal(ties, want_ties)


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

    @given(row_pairs())
    @settings(max_examples=300, deadline=None)
    def test_float_rows_match_oracle(self, pair):
        a, b = pair
        assert_matches_oracle(_kernels.ks_scaled_batch(a, b), a, b)

    @given(row_pairs(cells=TIED))
    @settings(max_examples=200, deadline=None)
    def test_heavily_tied_rows_match_oracle(self, pair):
        a, b = pair
        assert_matches_oracle(_kernels.ks_scaled_batch(a, b), a, b)

    @given(row_pairs())
    @settings(max_examples=100, deadline=None)
    def test_identical_samples_match_oracle(self, pair):
        a, _ = pair
        assert_matches_oracle(_kernels.ks_scaled_batch(a, a.copy()), a, a)

    def test_single_value_samples(self):
        rng = np.random.default_rng(7)
        x = np.round(rng.normal(size=(300, 9)), 1)
        for n1 in (1, 8):
            a, b = x[:, :n1], x[:, n1:]
            assert_matches_oracle(_kernels.ks_scaled_batch(a, b), a, b)
        a, b = x[:, :1], x[:, 1:2]
        assert_matches_oracle(_kernels.ks_scaled_batch(a, b), a, b)

    def test_signed_zeros_are_one_value(self):
        a = np.array([[-0.0, 1.0], [0.0, -0.0]])
        b = np.array([[0.0, 2.0], [0.0, 0.0]])
        scaled, ties = _kernels.ks_scaled_batch(a, b)
        assert np.array_equal(scaled, [2, 0])
        assert ties.all()
        assert_matches_oracle(_kernels.ks_scaled_batch(a, b), a, b)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_ranked_columns_match_oracle(self, data):
        # rank a quantised pooled matrix once, then test column subsets of it
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = data.draw(st.integers(1, 8))
        s1 = data.draw(st.integers(1, 12))
        s2 = data.draw(st.integers(1, 12))
        decimals = data.draw(st.integers(0, 2))
        pooled = np.round(rng.normal(size=(m, s1 + s2)), decimals)
        ranks = _kernels.dense_ranks(pooled)
        g1 = rng.choice(s1, size=data.draw(st.integers(1, s1)), replace=False)
        g2 = s1 + rng.choice(s2, size=data.draw(st.integers(1, s2)), replace=False)
        got = _kernels.ks_scaled_batch(ranks[:, g1], ranks[:, g2])
        assert_matches_oracle(got, pooled[:, g1], pooled[:, g2])

    @given(row_pairs())
    @settings(max_examples=100, deadline=None)
    def test_dense_ranks_keep_order_and_ties(self, pair):
        x = np.concatenate(pair, axis=1)
        ranks = _kernels.dense_ranks(x)
        for row, r in zip(x, ranks):
            assert np.array_equal(np.sign(row[:, None] - row[None, :]),
                                  np.sign(r[:, None] - r[None, :]))
            assert set(r.tolist()) == set(range(np.unique(row).size))

    @pytest.mark.parametrize("m", [0, 1, 2, 6, 7, 8, 9, 14, 15, 16])
    def test_float_rows_in_blocks_of_seven_rows(self, m, monkeypatch):
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", 7)
        x = np.round(np.random.default_rng(m).normal(size=(m, 13)), 1)
        assert_matches_oracle(_kernels.ks_scaled_batch(x[:, :6], x[:, 6:]), x[:, :6], x[:, 6:])

    def test_float_rows_hold_no_pooled_copy_of_the_batch(self):
        # 4000 pooled rows of 88: the scan's h and its product with the rank
        # changes take 2.8 MB, the flags 0.7 MB and one block's pooled copy,
        # argsort and sorted values 2.2 MB; those three of the whole batch
        # would take 8.4 MB
        x = np.round(np.random.default_rng(0).normal(size=(4000, 88)), 2)
        tracemalloc.start()
        try:
            got = _kernels.ks_scaled_batch(x[:, :45], x[:, 45:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20
        assert_matches_oracle(got, x[:, :45], x[:, 45:])

    @pytest.mark.parametrize("m", [0, 1, 2, 6, 7, 8, 9, 14, 15, 16])
    def test_dense_ranks_in_blocks_of_seven_rows(self, m, monkeypatch):
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", 7)
        x = np.round(np.random.default_rng(m).normal(size=(m, 9)), 1)
        ranks = _kernels.dense_ranks(x)
        assert ranks.dtype == np.int32 and ranks.shape == x.shape
        assert np.array_equal(ranks, dense_ranks_oracle(x).reshape(x.shape))

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @pytest.mark.parametrize("m", range(0, 23))
    def test_row_blocks_cover_without_a_lone_row(self, m, block, monkeypatch):
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", block)
        blocks = _kernels.row_blocks(m)
        assert [i for b in blocks for i in range(m)[b]] == list(range(m))
        assert all(b.stop - b.start >= 2 for b in blocks) or m == 1
        assert all(b.stop - b.start <= max(2, block) + 1 for b in blocks)

    def test_rank_values_past_int32_keys(self):
        # keys 2*rank + bit that straddle +-2**31 would wrap in int32
        rng = np.random.default_rng(8)
        pooled = np.round(rng.normal(size=(50, 14)), 1)
        ranks = _kernels.dense_ranks(pooled).astype(np.int64)
        for shift in (2**30 - 3, -2**30 - 3, 2**40):
            got = _kernels.ks_scaled_batch(ranks[:, :6] + shift, ranks[:, 6:] + shift)
            assert_matches_oracle(got, pooled[:, :6], pooled[:, 6:])

    def test_lattice_past_int32(self):
        # 46,341**2 > 2**31 - 1: fully separated samples reach h = n1*n2,
        # which an int32 accumulator would wrap
        n = 46_341
        rng = np.random.default_rng(9)
        x = np.round(rng.uniform(size=(2, 2 * n)), 2)
        x[0, n:] += 2.0
        a, b = x[:, :n], x[:, n:]
        got = _kernels.ks_scaled_batch(a, b)
        assert got[0][0] == n * n
        assert_matches_oracle(got, a, b)
        ranks = _kernels.dense_ranks(x)
        assert_matches_oracle(_kernels.ks_scaled_batch(ranks[:, :n], ranks[:, n:]), a, b)

    def test_identical_rows_give_zero(self):
        a = np.arange(12, dtype=np.float64).reshape(2, 6)
        scaled, ties = _kernels.ks_scaled_batch(a, a.copy())
        assert np.array_equal(scaled, [0, 0])
        assert ties.all()


@st.composite
def binned_values(draw):
    """(values, lo, scale, bins) with every value in [lo, lo + bins/scale],
    both ends and one ULP inside each among the candidates."""
    bins = draw(st.integers(1, 64))
    lo = draw(st.floats(-100.0, 100.0))
    scale = draw(st.floats(0.01, 100.0))
    hi = lo + bins / scale
    ends = [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo)]
    vals = draw(st.lists(st.one_of(st.floats(lo, hi), st.sampled_from(ends)), max_size=200))
    return np.array(vals, dtype=np.float64), lo, scale, bins


class TestHistAccumulate:
    def test_matches_naive_including_edges(self):
        # values sitting exactly on bin boundaries are the risky ones
        edges = np.linspace(-1.0, 1.0, 11)
        rng = np.random.default_rng(9)
        values = np.concatenate([edges, rng.uniform(-1, 1, size=500), [-1.0, 1.0]])
        counts = np.zeros(10, dtype=np.int64)
        _kernels.hist_accumulate(values.copy(), -1.0, 10 / 2.0, counts)
        assert counts.sum() == values.size
        assert np.array_equal(counts, hist_naive(values, -1.0, 1.0, 10))

    @settings(max_examples=300, deadline=None)
    @given(binned_values())
    def test_equals_clipping_kernel_in_range(self, case):
        values, lo, scale, bins = case
        want = np.arange(bins, dtype=np.int64)  # counts already there add up
        got = want.copy()
        hist_accumulate_clip(values, lo, scale, want)
        _kernels.hist_accumulate(values, lo, scale, got)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
