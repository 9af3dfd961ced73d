import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaseq import (
    DegenerateInputError,
    DomainError,
    ExpressionMatrix,
    ValidationError,
    all_pairs_summary,
    fisher_z,
    pearson,
    z_summary,
)
from deltaseq.corrstats import histogram_to_csv, summary_header_json

from helpers import all_pair_correlations, hist_naive, pearson_float


class TestPearson:
    def test_known_value(self):
        # hand-solved: covariance 1.0, both variances 1.25 (about the mean 2.5)
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)

    def test_perfect_and_inverse(self):
        x = [1.0, 2.0, 5.0, 9.0]
        assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0, abs=1e-12)
        assert pearson(x, [-3 * v for v in x]) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_input_degenerate(self):
        with pytest.raises(DegenerateInputError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(ValidationError):
            pearson([1.0], [2.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                    min_size=3, max_size=12))
    def test_symmetry_and_range(self, xs):
        rng = np.random.default_rng(len(xs))
        ys = rng.normal(size=len(xs)).tolist()
        if np.std(xs) == 0.0:
            return
        r = pearson(xs, ys)
        assert -1.0 <= r <= 1.0
        assert r == pytest.approx(pearson(ys, xs), abs=1e-12)
        assert r == pytest.approx(pearson_float(xs, ys), abs=1e-9)


class TestFisherZ:
    def test_known_value(self):
        # atanh(1/2) = log(3) / 2
        assert fisher_z(0.5) == pytest.approx(math.log(3.0) / 2.0, rel=1e-15)

    def test_odd_function(self):
        assert fisher_z(-0.3) == -fisher_z(0.3)

    @pytest.mark.parametrize("r", [1.0, -1.0, 1.5])
    def test_out_of_domain(self, r):
        with pytest.raises(DomainError):
            fisher_z(r)


def random_matrix(m=12, n=9, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, n))


class TestAllPairsSummary:
    def test_matches_double_loop(self):
        values = random_matrix()
        s = all_pairs_summary(values, bins=20)
        ref = all_pair_correlations(values)
        assert s.pair_count == ref.shape[0] == 12 * 11 // 2
        assert s.mean_r == pytest.approx(ref.mean(), abs=1e-12)
        assert s.sd_r == pytest.approx(ref.std(ddof=0), abs=1e-12)
        assert np.array_equal(s.histogram.counts, hist_naive(ref, -1.0, 1.0, 20))

    def test_histogram_covers_unit_interval(self):
        s = all_pairs_summary(random_matrix(), bins=10)
        assert s.histogram.edges[0] == -1.0
        assert s.histogram.edges[-1] == 1.0
        assert s.histogram.counts.sum() == s.pair_count

    def test_perfect_correlation_lands_in_last_bin(self):
        base = np.arange(6.0)
        values = np.vstack([base, 2 * base + 1.0])
        s = all_pairs_summary(values, bins=10)
        assert s.histogram.counts[-1] == 1
        assert s.mean_r == pytest.approx(1.0, abs=1e-12)

    def test_block_size_is_only_a_performance_knob(self):
        # accumulation order may shift the last ulp, nothing more
        values = random_matrix(m=17)
        a = all_pairs_summary(values, bins=13, block=3)
        b = all_pairs_summary(values, bins=13)
        assert a.pair_count == b.pair_count
        assert a.mean_r == pytest.approx(b.mean_r, rel=1e-12, abs=1e-15)
        assert a.sd_r == pytest.approx(b.sd_r, rel=1e-12)
        assert np.array_equal(a.histogram.counts, b.histogram.counts)

    def test_accepts_matrix_object(self):
        values = random_matrix(m=5, n=6)
        matrix = ExpressionMatrix(tuple(f"g{i}" for i in range(5)),
                                  tuple(f"a{j}" for j in range(6)), values, True)
        assert all_pairs_summary(matrix).pair_count == 10

    def test_zero_variance_row_named(self):
        values = random_matrix(m=4)
        values[2] = 7.0
        matrix = ExpressionMatrix(("g0", "g1", "g2", "g3"),
                                  tuple(f"a{j}" for j in range(9)), values, True)
        with pytest.raises(DegenerateInputError, match="g2"):
            all_pairs_summary(matrix)

    def test_single_pair_minimum(self):
        with pytest.raises(ValidationError):
            all_pairs_summary(random_matrix(m=1))


class TestZSummary:
    def test_matches_naive_transform(self):
        values = random_matrix(m=10, n=30, seed=3)
        s = z_summary(values, bins=16)
        z = np.arctanh(all_pair_correlations(values))
        assert s.pair_count == 45
        assert s.mean_z == pytest.approx(z.mean(), abs=1e-12)
        assert s.sd_z == pytest.approx(z.std(ddof=0), abs=1e-12)
        assert s.histogram.counts.sum() == 45

    def test_theoretical_sd(self):
        s = z_summary(random_matrix(m=6, n=88, seed=4))
        assert s.theoretical_sd == pytest.approx(1.0 / math.sqrt(85.0), rel=1e-15)

    def test_needs_four_arrays(self):
        with pytest.raises(ValidationError):
            z_summary(random_matrix(m=5, n=3))

    def test_duplicate_rows_are_domain_error(self):
        values = random_matrix(m=4)
        values[1] = values[0]
        with pytest.raises(DomainError):
            z_summary(values)


class TestSerialization:
    def test_histogram_csv_shape(self):
        s = all_pairs_summary(random_matrix(), bins=4)
        lines = histogram_to_csv(s.histogram).splitlines()
        assert lines[0] == "bin_low,bin_high,count"
        assert len(lines) == 5

    def test_summary_json_keys(self):
        import json
        s = all_pairs_summary(random_matrix())
        payload = json.loads(summary_header_json(s))
        assert payload["pair_count"] == s.pair_count
        assert payload["theoretical_sd"] is None
        z = z_summary(random_matrix(m=5, n=12))
        zp = json.loads(summary_header_json(z))
        assert zp["theoretical_sd"] == pytest.approx(1 / math.sqrt(9))
