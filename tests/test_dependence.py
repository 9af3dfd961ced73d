import math
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaseq import (
    DegenerateInputError,
    ExpressionMatrix,
    ResourceError,
    TripleCovarianceModel,
    ValidationError,
    positive_increment_threshold,
    sharp_positive_increment_threshold,
    triple_census,
    triple_stats,
    type_a_census,
    type_a_test,
    type_a_triple_consistency,
)
from deltaseq import _kernels
from deltaseq.dependence import (
    _draw_distinct_tuples,
    _triple_rows,
    pair_census_to_csv,
    triple_census_to_csv,
)

from helpers import (
    draw_distinct_tuples_oracle,
    pearson_float,
    triple_census_oracle,
    type_a_census_oracle,
)


def matrix_from(values):
    values = np.asarray(values, dtype=np.float64)
    return ExpressionMatrix(
        tuple(f"g{i}" for i in range(values.shape[0])),
        tuple(f"a{j}" for j in range(values.shape[1])),
        values, True,
    )


class TestTypeATest:
    def test_additive_construction_passes(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 1.0, size=200)
        y = x + rng.normal(0.0, 1.0, size=200)
        res = type_a_test(x, y)
        assert res.is_type_a
        assert res.driver == 0
        assert res.modulator == 1
        assert res.p_value > 0.05

    def test_independent_rows_fail(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        y = rng.normal(size=200) * 2.0
        res = type_a_test(x, y)
        # under independence the driver/increment correlation is forced
        # negative: cov(x, y - x) = -var(x)
        assert not res.is_type_a
        assert res.statistic < 0
        assert res.p_value < 1e-6

    def test_driver_is_lower_variance_row_either_way(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0.0, 1.0, size=50)
        y = x + rng.normal(0.0, 2.0, size=50)
        a = type_a_test(x, y, ids=(7, 9))
        b = type_a_test(y, x, ids=(9, 7))
        assert a.driver == b.driver == 7
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value

    def test_statistic_is_driver_increment_correlation(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=30)
        y = x + rng.normal(size=30) * 0.5 + 1.0
        res = type_a_test(x, y)
        assert res.statistic == pytest.approx(pearson_float(x, y - x), abs=1e-12)

    def test_variance_tie_goes_to_smaller_id(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([4.0, 3.0, 2.0, 1.0])  # same variance
        res = type_a_test(x, y, ids=(5, 2))
        assert res.driver == 2

    def test_identical_rows_are_type_a(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        res = type_a_test(x, x.copy())
        assert res.is_type_a
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_shifted_copy_is_type_a(self):
        # increment is an exact constant, so dependence cannot be rejected
        x = np.array([5.0, 2.0, 8.0, 3.0, 7.0])
        res = type_a_test(x, x + 3.25)
        assert res.is_type_a
        assert res.statistic == 0.0

    def test_both_constant_degenerate(self):
        with pytest.raises(DegenerateInputError):
            type_a_test([1.0] * 5, [2.0] * 5)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            type_a_test([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])

    def test_bad_alpha(self):
        with pytest.raises(ValidationError):
            type_a_test([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 4.0, 8.0], alpha=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, bad):
        # not a statistic of 0 and a p of 1, nor NaN statistics
        for x, y in (([1, 2, 3, bad, 5], [1, 2, 3, 4, 6]), ([1, 2, 3, 4, 5], [bad, 2, 3, 4, 6])):
            with pytest.raises(ValidationError, match="rows must be finite"):
                type_a_test(x, y)


class TestTypeACensus:
    def test_matches_pairwise_tests(self):
        rng = np.random.default_rng(4)
        m = matrix_from(rng.normal(size=(8, 25)))
        total = 8 * 7 // 2
        census = type_a_census(m, total, alpha=0.1, seed=9)
        assert census.pairs.shape == (total, 2)
        # every unordered pair appears exactly once
        assert {tuple(sorted(p)) for p in census.pairs.tolist()} == {
            (i, j) for i in range(8) for j in range(i + 1, 8)
        }
        for (lo, hi), r, p, ok in zip(census.pairs, census.statistics,
                                      census.p_values, census.is_type_a):
            ref = type_a_test(m.values[lo], m.values[hi], alpha=0.1, ids=(lo, hi))
            assert ref.driver == lo
            assert r == pytest.approx(ref.statistic, abs=1e-12)
            assert p == pytest.approx(ref.p_value, abs=1e-12)
            assert bool(ok) == ref.is_type_a
        assert census.fraction == census.is_type_a.mean()

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(5)
        m = matrix_from(rng.normal(size=(20, 10)))
        a = type_a_census(m, 30, seed=3)
        b = type_a_census(m, 30, seed=3)
        c = type_a_census(m, 30, seed=4)
        assert np.array_equal(a.pairs, b.pairs)
        assert not np.array_equal(a.pairs, c.pairs)

    def test_too_many_pairs_rejected(self):
        m = matrix_from(np.random.default_rng(6).normal(size=(5, 6)))
        with pytest.raises(ValidationError):
            type_a_census(m, 11)

    def test_csv_has_gene_names(self):
        m = matrix_from(np.random.default_rng(7).normal(size=(5, 8)))
        census = type_a_census(m, 4, seed=0)
        lines = pair_census_to_csv(census, m).splitlines()
        assert lines[0] == "id1,id2,statistic,p_value,flag"
        assert len(lines) == 5
        assert lines[1].startswith("g")


def no_codes():
    return np.empty(0, dtype=np.int64)


def codes_of(tuples, m):
    """Base-m codes of sorted index tuples, ascending."""
    return sorted(sum(v * m ** (len(t) - 1 - k) for k, v in enumerate(t)) for t in tuples)


class TestDrawDistinctTuples:
    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(3, 40), size=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_matches_oracle_across_calls(self, m, size, seed, data):
        total = math.comb(m, size)
        rng = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)
        seen, seen_ref = no_codes(), set()
        drawn = 0
        for _ in range(data.draw(st.integers(1, 3), label="calls")):
            left = total - drawn
            want = data.draw(st.sampled_from(sorted({0, min(1, left), left // 2, left})),
                             label="want")
            got, seen = _draw_distinct_tuples(rng, m, size, want, seen)
            ref = draw_distinct_tuples_oracle(rng_ref, m, size, want, seen_ref)
            assert got.dtype == np.int64 and got.shape == (want, size)
            assert [tuple(t) for t in got.tolist()] == ref
            assert rng.bit_generator.state == rng_ref.bit_generator.state
            assert seen.tolist() == codes_of(seen_ref, m)
            drawn += want

    @pytest.mark.parametrize("m,size", [(3, 2), (3, 3), (12, 2), (12, 3), (40, 3)])
    def test_drawing_every_tuple_ends(self, m, size):
        total = math.comb(m, size)
        got, seen = _draw_distinct_tuples(np.random.default_rng(m), m, size, total, no_codes())
        ref = draw_distinct_tuples_oracle(np.random.default_rng(m), m, size, total, set())
        assert [tuple(t) for t in got.tolist()] == ref
        assert sorted(ref) == list(combinations(range(m), size))
        assert seen.shape == (total,)

    def test_codes_past_int64_rejected(self):
        with pytest.raises(ValidationError, match="int64"):
            _draw_distinct_tuples(np.random.default_rng(0), 2**21, 3, 1, no_codes())
        m = 2**21 - 1  # m**3 < 2**63: the largest code still fits
        got, seen = _draw_distinct_tuples(np.random.default_rng(0), m, 3, 4, no_codes())
        assert seen.tolist() == codes_of([tuple(t) for t in got.tolist()], m)


def awkward_matrix(m, n_arrays=88, seed=0):
    """Random rows plus negated copies (variances tied bit for bit) and
    shifted copies (constant increments, so degenerate pairs)."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(m, n_arrays))
    values[1::4] = -values[0::4][: values[1::4].shape[0]]
    values[2::4] = values[0::4][: values[2::4].shape[0]] + 0.75
    return values


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# 4095 rows are 585 blocks of 7: the last block is one row short (4094),
# whole (4095), one row over and so merged into the block before it (4096),
# or two rows of its own (4097)
EDGE_ROWS = [4094, 4095, 4096, 4097]


class TestBlockedCensus:
    """With blocks of 7 rows, the censuses equal their whole-batch oracles
    bit for bit; at the default blocks their memory stays bounded."""

    @pytest.fixture
    def seven_row_blocks(self, monkeypatch):
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", 7)

    @pytest.mark.usefixtures("seven_row_blocks")
    @pytest.mark.parametrize("n_pairs", EDGE_ROWS)
    def test_pairs_bitwise_equal_to_oracle(self, n_pairs):
        values = awkward_matrix(100)
        census = type_a_census(matrix_from(values), n_pairs, alpha=0.05, seed=3)
        pairs, r, p, ok = type_a_census_oracle(values, None, n_pairs, 0.05, 3)
        assert same_bits(census.pairs, pairs)
        assert same_bits(census.statistics, r)
        assert same_bits(census.p_values, p)
        assert same_bits(census.is_type_a, ok)
        assert census.fraction == float(ok.mean())
        # the matrix reaches the tie and degenerate cases it was built for
        var = values.var(axis=1, ddof=1)
        assert (var[pairs[:, 0]] == var[pairs[:, 1]]).any()
        assert ((r == 0.0) & (p == 1.0)).any()

    @pytest.mark.usefixtures("seven_row_blocks")
    def test_both_constant_pair_in_later_block(self):
        # the error names the first both-constant pair in draw order, which
        # lies in the third block; two more such pairs come after it
        m, seed, first = 30, 5, 17
        n_pairs = math.comb(m, 2)
        order = draw_distinct_tuples_oracle(np.random.default_rng(seed), m, 2, n_pairs, set())
        pos = {t: k for k, t in enumerate(order)}
        a, b = order[first]
        c = next(c for c in range(m) if c not in (a, b)
                 and min(pos[tuple(sorted((a, c)))], pos[tuple(sorted((b, c)))]) > first)
        values = awkward_matrix(m, seed=1)
        values[[a, b, c]] = [[2.5], [-1.0], [7.0]]
        ids = tuple(f"g{i}" for i in range(m))
        with pytest.raises(ValueError) as ref:
            type_a_census_oracle(values, ids, n_pairs, 0.05, seed)
        with pytest.raises(DegenerateInputError) as err:
            type_a_census(matrix_from(values), n_pairs, seed=seed)
        assert str(err.value) == str(ref.value)
        assert {f"'g{a}'", f"'g{b}'"} == set(str(err.value).split()[1:4:2])

    @pytest.mark.usefixtures("seven_row_blocks")
    @pytest.mark.parametrize("n_triples", EDGE_ROWS)
    def test_triples_any_mode_bitwise_equal_to_oracle(self, n_triples):
        values = awkward_matrix(40)
        census = triple_census(matrix_from(values), n_triples, mode="any", seed=7)
        ids, cov, p, attempts = triple_census_oracle(values, n_triples, "any", 0.05, 7)
        assert same_bits(census.triples, ids)
        assert same_bits(census.cov_z1_z2, cov)
        assert same_bits(census.pair_p_values, p)
        assert census.attempts == attempts
        assert census.fraction_negative == float((cov < 0.0).mean())

    @pytest.mark.usefixtures("seven_row_blocks")
    def test_triples_type_a_only_bitwise_equal_to_oracle(self):
        # rows of one profile plus noise of unequal sd: about a third of the
        # candidates qualify, and each batch of candidates spans many blocks
        rng = np.random.default_rng(8)
        noisy = rng.normal(size=88) + rng.normal(size=(60, 88)) * rng.uniform(0.05, 0.6, (60, 1))
        values = np.vstack([noisy, awkward_matrix(20, seed=9)])
        n_triples = 40
        census = triple_census(matrix_from(values), n_triples, alpha=0.05, seed=11)
        ids, cov, p, attempts = triple_census_oracle(values, n_triples, "type_a_only", 0.05, 11)
        assert attempts > 2 * n_triples
        assert same_bits(census.triples, ids)
        assert same_bits(census.cov_z1_z2, cov)
        assert same_bits(census.pair_p_values, p)
        assert census.attempts == attempts

    @pytest.mark.usefixtures("seven_row_blocks")
    def test_triples_budget_matches_oracle(self):
        values = awkward_matrix(30, n_arrays=12, seed=2)
        with pytest.raises(ResourceError) as err:
            triple_census(matrix_from(values), 200, alpha=0.999, seed=9, max_attempt_factor=2)
        ids, _, _, attempts = triple_census_oracle(values, 200, "type_a_only", 0.999, 9, 2)
        assert ids is None
        assert f"after {attempts} candidates" in str(err.value)

    def test_pair_memory_does_not_grow_with_rows(self):
        # unblocked, each extra pair holds about 3.5 KB of gathered rows
        m = matrix_from(np.random.default_rng(12).normal(size=(1000, 88)))
        peaks = {}
        for n_pairs in (5_000, 50_000):
            tracemalloc.start()
            try:
                type_a_census(m, n_pairs, seed=13)
                peaks[n_pairs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[50_000] - peaks[5_000]) / 45_000 < 300


class TestTripleStats:
    def test_orders_by_variance_and_differences(self):
        rng = np.random.default_rng(8)
        u = rng.normal(0, 0.5, size=40)
        v = rng.normal(0, 1.5, size=40)
        w = rng.normal(0, 3.0, size=40)
        # pass them scrambled; the result must unscramble
        ts = triple_stats(w, u, v, ids=(30, 10, 20))
        assert ts.ids == (10, 20, 30)
        assert ts.sigma_u <= ts.sigma_v <= ts.sigma_w
        assert np.allclose(ts.z1, v - u)
        assert np.allclose(ts.z2, w - v)

    def test_bilinearity_of_sample_covariance(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(3, 25))
        ts = triple_stats(*rows)
        order = np.argsort(rows.var(axis=1, ddof=1), kind="stable")
        u, v, w = rows[order]
        z2 = w - v

        def cov(a, b):
            return float((a - a.mean()) @ (b - b.mean())) / (len(a) - 1)

        assert cov(u, z2) + ts.cov_z1_z2 == pytest.approx(cov(v, z2), abs=1e-12)

    def test_degenerate_identical_rows(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        ts = triple_stats(x, x.copy(), x * 2)
        assert ts.degenerate

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, bad):
        x = [1.0, 2.0, 3.0, 4.0, 8.0]
        with pytest.raises(ValidationError, match="rows must be finite"):
            triple_stats(x, [2.0 * v for v in x], [1.0, bad, 0.0, 5.0, 2.0])

    def test_rows_of_unequal_length_refused(self):
        x = [1.0, 2.0, 3.0, 4.0, 8.0]
        with pytest.raises(ValidationError, match="rows must have equal length"):
            triple_stats(x, x, x[:4])

    def test_threshold_nan_when_sigma_zero(self):
        const = np.full(5, 3.0)
        x = np.array([1.0, 2.0, 3.0, 4.0, 8.0])
        ts = triple_stats(const, x, x * 2)
        assert ts.sigma_u == 0.0
        assert math.isnan(ts.rho_uv)
        assert ts.degenerate


class TestTripleCensus:
    def chain_matrix(self, seed=0):
        rng = np.random.default_rng(seed)
        u = rng.normal(0, 1, size=(10, 60))
        v = u + rng.normal(0, 1, size=(10, 60))
        w = v + rng.normal(0, 1, size=(10, 60))
        return matrix_from(np.vstack([u, v, w]))

    def test_any_mode_counts_every_draw(self):
        m = self.chain_matrix()
        census = triple_census(m, 50, mode="any", seed=1)
        assert census.triples.shape == (50, 3)
        assert census.attempts == 50
        assert 0.0 <= census.fraction_negative <= 1.0

    def test_triples_are_distinct_and_variance_sorted(self):
        m = self.chain_matrix(seed=2)
        census = triple_census(m, 40, mode="any", seed=3)
        keys = {tuple(sorted(t)) for t in census.triples.tolist()}
        assert len(keys) == 40
        var = m.values.var(axis=1, ddof=1)
        for t in census.triples:
            assert var[t[0]] <= var[t[1]] <= var[t[2]]

    def test_type_a_only_filters(self):
        # only the ten same-index (u, v, w) paths are genuinely additive, so
        # qualifying triples are rare and the budget must cover the whole space
        m = self.chain_matrix(seed=4)
        census = triple_census(m, 3, mode="type_a_only", alpha=0.05, seed=5,
                               max_attempt_factor=2000)
        assert census.triples.shape == (3, 3)
        assert (census.pair_p_values > 0.05).all()
        assert census.attempts >= 3

    def test_covariances_match_triple_stats(self):
        m = self.chain_matrix(seed=6)
        census = triple_census(m, 10, mode="any", seed=7)
        for t, cov in zip(census.triples, census.cov_z1_z2):
            ts = triple_stats(m.values[t[0]], m.values[t[1]], m.values[t[2]],
                              ids=tuple(int(x) for x in t))
            assert cov == ts.cov_z1_z2

    def test_budget_exhaustion(self):
        # alpha near 1 rejects almost every pair, so qualifying triples are rare
        rng = np.random.default_rng(8)
        m = matrix_from(rng.normal(size=(30, 12)))
        with pytest.raises(ResourceError, match="found"):
            triple_census(m, 200, mode="type_a_only", alpha=0.999,
                          seed=9, max_attempt_factor=2)

    def test_request_exceeding_population_rejected(self):
        m = matrix_from(np.random.default_rng(10).normal(size=(5, 6)))
        with pytest.raises(ValidationError):
            triple_census(m, 11, mode="any")

    def test_csv_shape(self):
        m = self.chain_matrix(seed=11)
        census = triple_census(m, 5, mode="any", seed=12)
        lines = triple_census_to_csv(census, m).splitlines()
        assert lines[0] == "id1,id2,id3,statistic,p_value,flag"
        assert len(lines) == 6


@st.composite
def tied_rows(draw):
    """A small matrix (n = 4 to 7 arrays) of rows on a coarse grid, so that
    values and variances tie, each later row possibly an exact copy, a
    shifted copy, a negated copy of an earlier one, or constant."""
    m = draw(st.integers(3, 7), label="m")
    n = draw(st.integers(4, 7), label="n")
    grid = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    values = np.array(draw(st.lists(grid, min_size=m, max_size=m)), dtype=np.float64) * 0.3
    for k in range(1, m):
        j = draw(st.integers(0, k - 1))
        kind = draw(st.sampled_from(["own", "copy", "shift", "negate", "constant"]))
        if kind == "copy":
            values[k] = values[j]
        elif kind == "shift":
            values[k] = values[j] + draw(st.sampled_from([0.7, -1.1, 3.25]))
        elif kind == "negate":
            values[k] = -values[j]
        elif kind == "constant":
            values[k] = draw(st.sampled_from([0.0, 0.1, 2.5]))
    return values


def bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestScalarIsCensusRow:
    """The scalar pair and triple tests are one-row calls of the census
    kernels: every census row equals the scalar call on its genes, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(values=tied_rows(), seed=st.integers(0, 2**16))
    def test_triple_census_rows_are_triple_stats(self, values, seed):
        matrix = matrix_from(values)
        census = triple_census(matrix, math.comb(values.shape[0], 3), mode="any", seed=seed)
        # the census's one block, which the kernel's flags are read from
        _, deg1, _, deg2, cov = _triple_rows(matrix.values, census.triples)
        assert same_bits(cov, census.cov_z1_z2)
        assert (census.pair_p_values[deg1, 0] == 1.0).all()
        assert (census.pair_p_values[deg2, 1] == 1.0).all()
        for t, c, d in zip(census.triples.tolist(), census.cov_z1_z2, deg1 | deg2):
            ts = triple_stats(*matrix.values[t], ids=tuple(t))
            assert ts.ids == tuple(t)
            assert bits(ts.cov_z1_z2) == bits(c)
            assert ts.degenerate == bool(d)

    @settings(max_examples=150, deadline=None)
    @given(values=tied_rows(), seed=st.integers(0, 2**16))
    def test_type_a_census_rows_are_type_a_tests(self, values, seed):
        matrix = matrix_from(values)
        try:
            census = type_a_census(matrix, math.comb(values.shape[0], 2), seed=seed)
        except DegenerateInputError as err:
            # the first pair of constant rows, which the scalar test refuses too
            a, b = (int(g) for g in re.findall(r"'g(\d+)'", str(err)))
            with pytest.raises(DegenerateInputError, match="both constant"):
                type_a_test(values[a], values[b], ids=(a, b))
            return
        for (lo, hi), r, p, ok in zip(census.pairs.tolist(), census.statistics,
                                      census.p_values, census.is_type_a):
            a, b = sorted((lo, hi))
            res = type_a_test(matrix.values[a], matrix.values[b], ids=(a, b))
            assert (res.driver, res.modulator) == (lo, hi)
            assert bits(res.statistic) == bits(r)
            assert bits(res.p_value) == bits(p)
            assert res.is_type_a == bool(ok)


# ---------------------------------------------------------------------------
# The threshold theory, as certificates in Fraction: every quantity below is
# rational, so each claim is checked exactly, with no tolerance.
# ---------------------------------------------------------------------------


def principal_minors(K):
    """Every principal minor of a symmetric 3 x 3 matrix; it is positive
    semidefinite iff all of them are >= 0."""
    (a, b, c), (_, d, e), (_, _, f) = K
    return [a, d, f, a * d - b * b, a * f - c * c, d * f - e * e,
            a * d * f + 2 * b * c * e - a * e * e - d * c * c - f * b * b]


def printed_bound(su, sv, sw):
    """The paper's bound, ``positive_increment_threshold``, in Fraction."""
    return 1 - (1 - sv / sw) ** 2 * (1 - sv / su) ** 2 / 2


def sharp_bound(su, sv, sw, k):
    """``sharp_positive_increment_threshold`` in Fraction, given the rational
    square root k of sigma_u^2 + sigma_w^2 - sigma_v^2."""
    assert k > 0 and k * k == su * su + sw * sw - sv * sv
    return (sv * sv - su * su + su * k) / (sv * sw)


def attaining_structure(su, sv, sw, rho, d):
    """The correlation matrix of (u, v, w) with rho(v, w) = rho and u a
    positive multiple of w - v, whose sd d is given; and Cov(v - u, w - v),
    which this u makes least for the given rho."""
    assert d > 0 and d * d == sv * sv + sw * sw - 2 * rho * sv * sw
    ruv = (rho * sv * sw - sv * sv) / (d * sv)
    ruw = (sw * sw - rho * sv * sw) / (d * sw)
    cov = rho * sv * sw - sv * sv - ruw * su * sw + ruv * su * sv
    return [[1, ruv, ruw], [ruv, 1, rho], [ruw, rho, 1]], cov


@st.composite
def square_sigmas(draw):
    """Rational sigma_u < sigma_v < sigma_w and the rational k > 0 with
    k^2 = sigma_u^2 + sigma_w^2 - sigma_v^2: for c = sigma_v^2 - sigma_u^2
    and 0 < t < sigma_v - sigma_u, sigma_w = (c/t + t)/2 and k = (c/t - t)/2."""
    fractions = st.fractions(Fraction(1, 10), 4, max_denominator=40)
    su = draw(fractions)
    sv = su + draw(fractions)
    t = (sv - su) * draw(st.fractions(Fraction(1, 40), Fraction(39, 40), max_denominator=40))
    c = sv * sv - su * su
    sw, k = (c / t + t) / 2, (c / t - t) / 2
    assert su < sv < sw
    return su, sv, sw, k


# sigma_u, sigma_v, sigma_w: t = 1/2 above, with k = 187/50
COUNTEREXAMPLE = Fraction(1, 10), Fraction(2), Fraction(106, 25)


class TestThreshold:
    def test_known_value(self):
        # 1 - (1/2) * (1 - 2/4)^2 * (1 - 2/1)^2 = 7/8, each step exact in floats
        assert positive_increment_threshold(1.0, 2.0, 4.0) == 0.875

    def test_equal_sigmas_give_one(self):
        assert positive_increment_threshold(1.5, 1.5, 1.5) == 1.0

    def test_ordering_enforced(self):
        with pytest.raises(ValidationError):
            positive_increment_threshold(2.0, 1.0, 3.0)
        with pytest.raises(ValidationError):
            positive_increment_threshold(0.0, 1.0, 2.0)


class TestConsistencyModel:
    def test_matrix_layout(self):
        model = TripleCovarianceModel(2.0, 3.0, 4.0, 0.25)
        K = model.matrix()
        assert np.array_equal(np.diag(K), [2.0, 3.0, 4.0])
        assert K[0, 2] == K[2, 0] == -0.25
        assert K[1, 2] == K[2, 1] == 0.25
        assert K[0, 1] == 0.0

    def test_unit_variance_boundary(self):
        # with unit variances the determinant is 1 - 2c^2: PSD iff 2c^2 <= 1,
        # decided here on the two floats either side of 1/sqrt(2)
        c = math.sqrt(0.5)
        below = c if 2 * Fraction(c) ** 2 <= 1 else math.nextafter(c, 0.0)
        above = math.nextafter(below, 1.0)
        assert 2 * Fraction(below) ** 2 <= 1 < 2 * Fraction(above) ** 2
        for cov in (0.0, -0.5, below, -below):
            assert type_a_triple_consistency(TripleCovarianceModel(1, 1, 1, cov))
        for cov in (above, -above, 2.0):
            assert not type_a_triple_consistency(TripleCovarianceModel(1, 1, 1, cov))

    def test_determinant_zero_is_accepted_and_one_ulp_past_refused(self):
        # det = 2 * 2 * 1 - (2 + 2) * c^2 is exactly 0 at c = 1
        assert type_a_triple_consistency(TripleCovarianceModel(2.0, 2.0, 1.0, 1.0))
        assert type_a_triple_consistency(TripleCovarianceModel(2.0, 2.0, 1.0, -1.0))
        past = math.nextafter(1.0, 2.0)
        assert not type_a_triple_consistency(TripleCovarianceModel(2.0, 2.0, 1.0, past))
        assert not type_a_triple_consistency(TripleCovarianceModel(2.0, 2.0, 1.0, -past))

    def test_bad_variances(self):
        with pytest.raises(ValidationError):
            TripleCovarianceModel(0.0, 1.0, 1.0, 0.1)


class TestSharpThreshold:
    def test_equal_sigmas_give_one(self):
        assert sharp_positive_increment_threshold(0.5, 1.5, 1.5) == 1.0
        assert sharp_positive_increment_threshold(0.5, 0.5, 1.0) == 1.0

    def test_known_value(self):
        # sigma = (1/2, 3/2, 9/4), k = 7/4: every step before the division
        # is exact in floats, so the result is rho* = 23/27 correctly rounded
        rho = sharp_bound(Fraction(1, 2), Fraction(3, 2), Fraction(9, 4), Fraction(7, 4))
        assert rho == Fraction(23, 27)
        assert sharp_positive_increment_threshold(0.5, 1.5, 2.25) == float(rho)

    def test_ordering_enforced(self):
        with pytest.raises(ValidationError):
            sharp_positive_increment_threshold(2.0, 1.0, 3.0)

    def test_printed_bound_is_below_the_sharp_one_at_a_counterexample(self):
        su, sv, sw = COUNTEREXAMPLE
        printed = printed_bound(su, sv, sw)
        sharp = sharp_bound(su, sv, sw, Fraction(187, 50))
        assert printed == Fraction(-138703, 2809)
        assert sharp == Fraction(1091, 2120)
        sigmas = tuple(map(float, COUNTEREXAMPLE))
        assert positive_increment_threshold(*sigmas) < sharp_positive_increment_threshold(*sigmas)

    def test_printed_bound_has_an_exact_counterexample(self):
        # u a positive multiple of w - v, with sd(w - v) = 4
        su, sv, sw = COUNTEREXAMPLE
        d = Fraction(4)
        rho = (sv * sv + sw * sw - d * d) / (2 * sv * sw)
        assert printed_bound(su, sv, sw) < rho < sharp_bound(su, sv, sw, Fraction(187, 50))
        sigmas = tuple(map(float, COUNTEREXAMPLE))
        assert positive_increment_threshold(*sigmas) < rho < sharp_positive_increment_threshold(*sigmas)
        R, cov = attaining_structure(su, sv, sw, rho, d)
        assert all(m >= 0 for m in principal_minors(R))  # a valid structure
        assert cov == Fraction(-882, 625)  # whose increments do not correlate positively

    @settings(max_examples=300, deadline=None)
    @given(sig=square_sigmas())
    def test_tight_at_the_threshold(self, sig):
        su, sv, sw, k = sig
        rho = sharp_bound(su, sv, sw, k)
        assert rho < 1  # so some rho(v, w) lies above it
        d = (rho * sv * sw - sv * sv) / su  # the sd of w - v where cov is 0
        R, cov = attaining_structure(su, sv, sw, rho, d)
        assert all(m >= 0 for m in principal_minors(R))
        assert cov == 0

    @settings(max_examples=300, deadline=None)
    @given(sig=square_sigmas(),
           lam=st.fractions(Fraction(1, 1000), Fraction(999, 1000), max_denominator=1000))
    def test_sharp_threshold_has_no_counterexample(self, sig, lam):
        # Above rho*, the least Cov(v - u, w - v), rho sigma_v sigma_w -
        # sigma_v^2 - sigma_u sd(w - v), is positive: its first part is, and
        # its square exceeds the square of the second.
        su, sv, sw, k = sig
        star = sharp_bound(su, sv, sw, k)
        rho = star + lam * (1 - star)
        lead = rho * sv * sw - sv * sv
        assert lead > 0
        assert lead * lead > su * su * (sv * sv + sw * sw - 2 * rho * sv * sw)
