import math
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaseq import (
    EDF,
    ResourceError,
    StepFunction,
    ValidationError,
    kolmogorov_distance,
    ks_exact_cdf,
    ks_exact_pvalue,
    ks_exact_pvalue_exact,
    ks_statistic,
    ks_test,
    mean_of_edfs,
)
from deltaseq.kstest import _lattice_counts, exact_pvalues_for_scaled

from helpers import (
    edf_eval,
    edf_mean_searchsorted,
    edf_sides_searches,
    edf_step_unique,
    enum_cdf,
    enum_pvalue,
    ks_distance_exact,
    paths_within,
    step_distance_union,
    step_left,
    step_right,
)


class TestStatistic:
    def test_interleaved_quartet(self):
        # F1 leads by 1/2 after its first point
        assert ks_statistic([1, 3], [2, 4]) == pytest.approx(0.5)

    def test_disjoint_supports(self):
        assert ks_statistic([1, 2, 3], [4, 5, 6]) == 1.0

    def test_identical_samples(self):
        assert ks_statistic([1, 2, 3], [1, 2, 3]) == 0.0

    def test_matches_exact_oracle_on_random_data(self):
        rng = np.random.default_rng(0)
        for trial in range(40):
            n1 = rng.integers(1, 9)
            n2 = rng.integers(1, 9)
            s1 = rng.integers(0, 6, size=n1)  # plenty of ties
            s2 = rng.integers(0, 6, size=n2)
            want = ks_distance_exact(s1.tolist(), s2.tolist())
            got = ks_statistic(s1, s2)
            assert got == pytest.approx(float(want), abs=1e-12), (s1, s2)

    def test_symmetric_even_with_asymmetric_tie_groups(self):
        # one pooled value shared 2-1 across samples: the sup must not
        # depend on which sample is called first
        s1 = [0.0, 1.0, 1.0]
        s2 = [1.0, 2.0]
        assert ks_statistic(s1, s2) == ks_statistic(s2, s1)
        assert ks_statistic(s1, s2) == pytest.approx(float(ks_distance_exact(s1, s2)))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        s1 = rng.normal(size=7)
        s2 = rng.normal(size=5)
        base = ks_test(s1, s2)
        warped = ks_test(np.exp(s1), np.exp(s2))
        assert warped.scaled == base.scaled
        assert warped.p_value == base.p_value

    def test_ties_flag(self):
        assert not ks_test([1.0, 2.0], [3.0, 4.0]).ties
        assert ks_test([1.0, 2.0], [2.0, 4.0]).ties
        # within-sample tie alone is not a cross-sample tie
        assert not ks_test([1.0, 1.0], [3.0, 4.0]).ties

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError):
            ks_statistic([], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            ks_statistic([np.nan, 1.0], [2.0])


class TestExactPValue:
    def test_smallest_case(self):
        # 2x2: D = 1 for the 2 of 6 orderings with both firsts leading
        assert ks_exact_pvalue_exact(1.0, 2, 2) == Fraction(1, 3)
        assert ks_exact_pvalue(1.0, 2, 2) == pytest.approx(1 / 3, rel=1e-15)

    def test_zero_is_certain(self):
        assert ks_exact_pvalue(0.0, 5, 7) == 1.0

    def test_tiny_positive_is_certain_too(self):
        # below the smallest attainable statistic nothing is excluded
        assert ks_exact_pvalue_exact(1e-12, 4, 6) == 1

    @pytest.mark.parametrize("n1,n2", [(2, 2), (3, 2), (5, 5), (4, 7), (1, 9), (6, 4)])
    def test_matches_enumeration(self, n1, n2):
        g = math.gcd(n1, n2)
        for c in range(g, n1 * n2 + 1, g):
            want = enum_pvalue(c, n1, n2)
            got = ks_exact_pvalue_exact(c / (n1 * n2), n1, n2)
            assert got == want, (n1, n2, c)

    def test_off_lattice_values_round_down(self):
        # P(D >= d) is flat between attainable values
        p_at = ks_exact_pvalue_exact(0.5, 4, 4)
        p_above = ks_exact_pvalue_exact(0.5 + 1e-4, 4, 4)
        p_next = ks_exact_pvalue_exact(0.75, 4, 4)
        assert p_above == p_next
        assert p_at > p_next

    def test_lattice_snap_tolerates_float_noise(self):
        d = 7 / 12  # not a dyadic rational
        assert ks_exact_pvalue_exact(d, 3, 4) == enum_pvalue(7, 3, 4)

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            ks_exact_pvalue(1.5, 3, 3)
        with pytest.raises(ValidationError):
            ks_exact_pvalue(-0.2, 3, 3)
        with pytest.raises(ValidationError):
            ks_exact_pvalue(0.5, 0, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.floats(0.0, 1.0))
    def test_pvalue_is_a_survival_function(self, n1, n2, d):
        p = ks_exact_pvalue(d, n1, n2)
        assert 0.0 <= p <= 1.0
        assert ks_exact_pvalue(d / 2, n1, n2) >= p


@lru_cache(maxsize=None)
def oracle_counts(n1, n2):
    """``paths_within`` at every limit from -1 to n1*n2 + 1, one DP each."""
    return tuple(paths_within(n1, n2, limit) for limit in range(-1, n1 * n2 + 2))


class TestLatticeEngine:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 14), st.integers(1, 14), st.data())
    def test_matches_oracle(self, n1, n2, data):
        limits = data.draw(st.lists(st.integers(-1, n1 * n2 + 1), max_size=6))
        got = _lattice_counts(n1, n2, limits)
        assert got == [oracle_counts(n1, n2)[limit + 1] for limit in limits]
        assert all(type(k) is int for k in got)

    @pytest.mark.parametrize("n1,n2", [(1, 1), (1, 9), (3, 30), (7, 9), (10, 10), (44, 44),
                                       (45, 43)])
    def test_every_limit_in_one_call(self, n1, n2):
        # all limits from -1 to n1*n2 + 1: every band the lattice has, plus
        # one past each end (no path, and every path)
        assert _lattice_counts(n1, n2, range(-1, n1 * n2 + 2)) == list(oracle_counts(n1, n2))

    def test_cdf_limits_of_a_shared_lattice(self):
        # the CDF table's limits k*g of 120/120, g = 120
        limits = range(0, 120 * 120 + 1, 120)
        assert _lattice_counts(120, 120, limits) == [paths_within(120, 120, k) for k in limits]


class TestBatchPValues:
    def test_matches_scalar_api_shared_lattice(self):
        rng = np.random.default_rng(2)
        scaled = []
        for _ in range(30):
            r = ks_test(rng.normal(size=10), rng.normal(size=10))
            scaled.append(r.scaled)
        got = exact_pvalues_for_scaled(np.asarray(scaled), 10, 10)
        want = [ks_exact_pvalue(c / 100, 10, 10) for c in scaled]
        assert np.array_equal(got, np.asarray(want))

    def test_matches_scalar_api_coprime_sizes(self):
        # coprime sizes: every integer in [0, 23*29] is an attainable
        # statistic, so each observed value takes its own path count
        rng = np.random.default_rng(3)
        scaled = []
        for _ in range(12):
            r = ks_test(rng.normal(size=23), rng.normal(size=29))
            scaled.append(r.scaled)
        got = exact_pvalues_for_scaled(np.asarray(scaled), 23, 29)
        want = [ks_exact_pvalue(c / (23 * 29), 23, 29) for c in scaled]
        assert np.array_equal(got, np.asarray(want))

    @pytest.mark.parametrize("n1,n2", [(1, 1), (10, 10), (23, 29), (45, 43)])
    def test_every_statistic_matches_its_path_count(self, n1, n2):
        top = n1 * n2
        total = math.comb(n1 + n2, n1)
        # oracle_counts(n1, n2)[c] holds the paths within limit c - 1
        want = np.asarray([float(1 - Fraction(oracle_counts(n1, n2)[c], total))
                           for c in range(top + 1)])
        got = exact_pvalues_for_scaled(np.arange(top + 1), n1, n2)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        grid = np.random.default_rng(top).integers(0, top + 1, size=(3, 5))
        got2 = exact_pvalues_for_scaled(grid, n1, n2)
        assert got2.shape == (3, 5)
        assert got2.view(np.int64).tolist() == want[grid].view(np.int64).tolist()
        empty = exact_pvalues_for_scaled(np.empty(0, dtype=np.int64), n1, n2)
        assert empty.shape == (0,) and empty.dtype == np.float64

    @pytest.mark.parametrize("n1,n2", [(10, 10), (45, 43)])
    def test_statistic_outside_the_lattice_rejected(self, n1, n2):
        for c in (-1, n1 * n2 + 1):
            with pytest.raises(ValidationError, match=f"scaled statistic {c} outside"):
                exact_pvalues_for_scaled(np.asarray([0, c]), n1, n2)

    def test_scaled_statistics_are_gcd_multiples(self):
        rng = np.random.default_rng(4)
        for n1, n2 in [(4, 6), (9, 12), (5, 5)]:
            g = math.gcd(n1, n2)
            for _ in range(10):
                r = ks_test(rng.normal(size=n1), rng.normal(size=n2))
                assert r.scaled % g == 0


class TestExactCdf:
    @pytest.mark.parametrize("n1,n2", [(2, 2), (3, 5), (4, 4), (2, 7)])
    def test_matches_enumeration(self, n1, n2):
        table = ks_exact_cdf(n1, n2)
        want = enum_cdf(n1, n2)
        assert len(table.ds) == len(want)
        for (d, cdf), wd, wc in zip(want, table.ds, table.cdf):
            assert wd == pytest.approx(float(d), abs=1e-15)
            assert wc == pytest.approx(float(cdf), rel=1e-15)

    def test_final_value_is_one(self):
        table = ks_exact_cdf(5, 8)
        assert table.cdf[-1] == 1.0
        assert table.ds[-1] == 1.0

    def test_budget_guard(self):
        with pytest.raises(ResourceError):
            ks_exact_cdf(300, 300)
        # and an explicit budget unlocks larger sizes
        assert ks_exact_cdf(120, 120, budget=14_400).n1 == 120

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_invalid(self, budget):
        with pytest.raises(ValidationError, match=f"budget must be >= 1, got {budget}"):
            ks_exact_cdf(3, 3, budget=budget)

    def test_csv_header(self):
        assert ks_exact_cdf(2, 2).to_csv().splitlines()[0] == "d,cdf"


class TestStepFunctions:
    def test_edf_evaluate(self):
        e = EDF.from_sample([1.0, 2.0, 2.0, 5.0]).as_step()
        for t, want in [(0.5, 0.0), (1.0, 0.25), (1.5, 0.25), (2.0, 0.75), (10.0, 1.0)]:
            assert e.evaluate(t) == want
            assert want == edf_eval([1.0, 2.0, 2.0, 5.0], t)

    def test_step_left_limits(self):
        s = StepFunction(np.array([0.0, 1.0]), np.array([0.5, 1.0]))
        left, right = s.evaluate_sides([-1.0, 0.0, 1.0, 2.0])
        assert left.tolist() == [0.0, 0.0, 0.5, 1.0]
        assert right.tolist() == [0.0, 0.5, 1.0, 1.0]
        assert s.evaluate(0.0) == 0.5

    @pytest.mark.parametrize("values, size, message", [
        ([3.0, 1.0, 2.0], 3, "sorted in nondecreasing order"),
        ([1.0, math.nan, 2.0], 3, "must be finite"),
        ([1.0, 2.0, math.inf], 3, "must be finite"),
        ([], 0, "nonempty sample"),
        ([[1.0, 2.0]], 2, "1-d"),
    ])
    def test_edf_constructor_checks_its_sample(self, values, size, message):
        # an unsorted sample read 2/3 at 1.5, where from_sample's EDF reads 1/3:
        # from_sample sorts and flattens its ``size`` values, and refuses the rest
        with pytest.raises(ValidationError, match=message):
            EDF(np.array(values))
        try:
            assert EDF.from_sample(values).size == size
        except ValidationError as exc:
            assert re.search(message, str(exc))

    def test_edf_holds_a_read_only_view(self):
        values = np.array([1.0, 2.0, 3.0])
        for e in (EDF(values), EDF.from_sample(values), mean_of_edfs([EDF(values)])):
            with pytest.raises(ValueError):
                e.sorted_values[0] = 9.0
        assert values.flags.writeable
        assert np.shares_memory(EDF(values).sorted_values, values)

    @pytest.mark.parametrize("values", [[2.0], [1.0, 1.0, 4.0], np.arange(17.0)])
    def test_edf_size_is_its_samples_length(self, values):
        e = EDF(np.asarray(values))
        assert e.size == len(values)
        assert mean_of_edfs([e, e, e]).size == 3 * len(values)

    def test_edf_from_sample_keeps_its_messages(self):
        for sample, message in (([], "EDF needs a nonempty sample"),
                                ([2.0, math.nan], "EDF sample must be finite")):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                EDF.from_sample(sample)
        assert EDF.from_sample([[3.0, 1.0], [2.0, 2.0]]).evaluate(1.5) == 0.25

    def test_step_requires_increasing_xs(self):
        with pytest.raises(ValidationError):
            StepFunction(np.array([1.0, 1.0]), np.array([0.1, 0.2]))

    def test_step_rejects_heights_outside_a_distribution(self):
        xs = np.array([0.0, 1.0, 2.0])
        for ys in ([0.2, 0.1, 0.3], [-0.1, 0.5, 1.0], [0.0, 0.5, 1.5], [0.0, math.nan, 1.0]):
            with pytest.raises(ValidationError, match="nondecreasing in \\[0, 1\\]"):
                StepFunction(xs, np.array(ys))

    def test_step_rejects_repeated_infinity(self):
        with pytest.raises(ValidationError):
            StepFunction(np.array([0.0, math.inf, math.inf]), np.array([0.1, 0.2, 0.3]))

    def test_distance_half_offset(self):
        # classic: EDF{1,2} vs EDF{1.5} differ by 1/2 on [1, 1.5)
        d = kolmogorov_distance(EDF.from_sample([1.0, 2.0]), EDF.from_sample([1.5]))
        assert d == 0.5

    def test_distance_sees_left_limits(self):
        # same jump points, different heights approached from the left
        f = StepFunction(np.array([0.0, 1.0]), np.array([0.9, 1.0]))
        g = StepFunction(np.array([0.0, 1.0]), np.array([0.1, 1.0]))
        assert kolmogorov_distance(f, g) == pytest.approx(0.8)

    def test_distance_to_self_is_zero(self):
        e = EDF.from_sample(np.random.default_rng(5).normal(size=9))
        assert kolmogorov_distance(e, e) == 0.0

    def test_mean_of_edfs_pointwise(self):
        e1 = EDF.from_sample([1.0, 3.0])
        e2 = EDF.from_sample([2.0, 2.0])
        mean = mean_of_edfs([e1, e2])
        for t in [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]:
            want = (edf_eval([1.0, 3.0], t) + edf_eval([2.0, 2.0], t)) / 2
            assert mean.evaluate(t) == pytest.approx(want, abs=1e-15)

    def test_mean_of_edfs_rejects_mixed_sizes(self):
        edfs = [EDF.from_sample([1.0, 3.0]), EDF.from_sample([2.0]), EDF.from_sample([4.0, 5.0])]
        with pytest.raises(ValidationError, match="equal sample sizes, got \\[1, 2\\]"):
            mean_of_edfs(edfs)

    def test_mean_of_single_edf_is_identity(self):
        e = EDF.from_sample([2.0, 7.0, 7.0, 9.0])
        assert kolmogorov_distance(mean_of_edfs([e]), e) == 0.0

    def test_cdf_table_as_step(self):
        table = ks_exact_cdf(2, 2)
        s = table.as_step()
        # attainable values 1/2 and 1 with P(D <= .) = 2/3 and 1
        assert s.evaluate(0.4) == 0.0
        assert s.evaluate(0.5) == pytest.approx(2 / 3, rel=1e-15)
        assert s.evaluate(1.0) == 1.0


# quarter-integers give ties within and across samples; the floats do not
_VALUES = st.one_of(st.integers(-6, 6).map(lambda k: k / 4),
                    st.floats(-1e3, 1e3, allow_nan=False))


_HEIGHTS = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def _sample_sets(draw):
    """1 to 6 samples of one common size."""
    B = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    return [draw(st.lists(_VALUES, min_size=n, max_size=n)) for _ in range(B)]


def _heights(draw, size: int) -> np.ndarray:
    return np.array(sorted(draw(st.lists(_HEIGHTS, min_size=size, max_size=size))))


@st.composite
def _step_functions(draw):
    """Distribution functions jumping at the sample values."""
    xs = sorted(draw(st.lists(_VALUES, min_size=1, max_size=10, unique=True)))
    return StepFunction(np.array(xs), _heights(draw, len(xs)))


def _edf_steps(sample):
    xs = sorted(set(map(float, sample)))
    return xs, [sum(1 for v in sample if v <= x) / len(sample) for x in xs], 0.0


def _steps(s: StepFunction):
    return s.xs, s.ys, 0.0


class TestDistanceOracles:
    """Bitwise agreement with a distance read over the union of both jump
    sets and with a center built from one searchsorted pass per EDF."""

    @settings(max_examples=200, deadline=None)
    @given(_sample_sets())
    def test_center_matches_searchsorted_mean(self, samples):
        center = mean_of_edfs([EDF.from_sample(s) for s in samples]).as_step()
        xs, heights = edf_mean_searchsorted(samples)
        assert np.array_equal(center.xs, xs)
        assert np.array_equal(center.ys, heights)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_VALUES, min_size=1, max_size=12))
    def test_edf_step_matches_unique_counts(self, sample):
        step = EDF.from_sample(sample).as_step()
        xs, heights = edf_step_unique(sample)
        assert np.array_equal(step.xs, xs)
        assert np.array_equal(step.ys, heights)

    @settings(max_examples=200, deadline=None)
    @given(_sample_sets())
    def test_edf_to_center_matches_union(self, samples):
        edfs = [EDF.from_sample(s) for s in samples]
        center = mean_of_edfs(edfs)
        for sample, edf in zip(samples, edfs):
            want = step_distance_union(*_edf_steps(sample), *_steps(center.as_step()))
            assert kolmogorov_distance(edf, center) == want
            assert kolmogorov_distance(center, edf) == want

    @settings(max_examples=300, deadline=None)
    @given(_step_functions(), _step_functions(), _sample_sets())
    def test_step_functions_match_union(self, f, g, samples):
        edf = EDF.from_sample(samples[0])
        for a, b in [(f, g), (g, f), (f, f), (f, edf), (edf, f)]:
            a_steps = _edf_steps(samples[0]) if a is edf else _steps(a)
            b_steps = _edf_steps(samples[0]) if b is edf else _steps(b)
            assert kolmogorov_distance(a, b) == step_distance_union(*a_steps, *b_steps)


@st.composite
def _covering_pairs(draw):
    """(a, b): distribution functions where ``a`` holds every jump of ``b``
    plus at least one point before and one after them."""
    b_xs = sorted(draw(st.lists(_VALUES, min_size=1, max_size=8, unique=True)))
    outside = st.floats(1e3 + 1, 2e3, allow_nan=False)
    lo = draw(st.lists(outside.map(lambda x: b_xs[0] - x), min_size=1, max_size=3, unique=True))
    hi = draw(st.lists(outside.map(lambda x: b_xs[-1] + x), min_size=1, max_size=3, unique=True))
    inner = draw(st.lists(_VALUES, max_size=6))
    a_xs = sorted(set(b_xs) | set(lo) | set(hi) | set(inner))
    return (StepFunction(np.array(a_xs), _heights(draw, len(a_xs))),
            StepFunction(np.array(b_xs), _heights(draw, len(b_xs))))


class TestMonotoneRead:
    """The other side is read at the visited jumps by one left search."""

    @settings(max_examples=300, deadline=None)
    @given(_covering_pairs())
    def test_covering_jumps_match_union(self, pair):
        a, b = pair
        want = step_distance_union(*_steps(a), *_steps(b))
        assert kolmogorov_distance(a, b) == want
        assert kolmogorov_distance(b, a) == want

    @settings(max_examples=200, deadline=None)
    @given(_step_functions(), st.lists(_VALUES, max_size=12))
    def test_sides_match_two_searches(self, f, probes):
        t = np.sort(np.concatenate([f.xs, np.asarray(probes, dtype=np.float64)]))
        left, right = f.evaluate_sides(t)
        assert np.array_equal(left, step_left(f.xs, f.ys, 0.0, t))
        assert np.array_equal(right, step_right(f.xs, f.ys, 0.0, t))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-1.5, 0.0, 0.25, 2.0, 3.0]), min_size=1, max_size=40),
           st.lists(st.sampled_from([-math.inf, -2.0, -1.5, 0.0, 0.1, 0.25, 2.0, 3.0, 4.0,
                                     math.inf]), max_size=12), st.booleans())
    def test_edf_sides_match_two_searches_on_ties(self, sample, probes, sort):
        # long runs of equal values, probes on and between them, sorted or not
        edf = EDF.from_sample(sample)
        t = np.concatenate([edf.sorted_values, np.asarray(probes, dtype=np.float64)])
        if sort:
            t.sort()
        got = edf.evaluate_sides(t)
        want = edf_sides_searches(edf.sorted_values, t)
        assert [a.view(np.int64).tolist() for a in got] == [
            a.view(np.int64).tolist() for a in want]

    def test_step_rejects_nan_xs(self):
        for xs in ([math.nan], [0.0, math.nan], [math.nan, 0.0]):
            with pytest.raises(ValidationError):
                StepFunction(np.array(xs), np.zeros(len(xs)))


def test_edf_distance_visits_only_the_edf_jumps(monkeypatch):
    """Against a B=8 center, each distance reads both functions at no more
    than the EDF's own jumps plus one point, never the center's whole grid;
    the center is read, through one of the recorded methods."""
    reads = []
    for cls in (StepFunction, EDF):
        for name in ("evaluate", "evaluate_sides"):
            original = getattr(cls, name)

            def recording(self, t, original=original):
                reads.append((self, np.size(t)))
                return original(self, t)

            monkeypatch.setattr(cls, name, recording)
    rng = np.random.default_rng(3)
    edfs = [EDF.from_sample(np.round(rng.normal(size=100), 3)) for _ in range(8)]
    center = mean_of_edfs(edfs)
    for edf in edfs:
        jumps = np.unique(edf.sorted_values).size
        assert center.as_step().xs.size > 4 * jumps
        for f, g in [(edf, center), (center, edf)]:
            reads.clear()
            kolmogorov_distance(f, g)
            assert any(step is center for step, _ in reads)
            assert max(size for _, size in reads) <= jumps + 1
