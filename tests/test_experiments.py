import json
import math
import os
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaseq import (
    DeltaseqError,
    DomainError,
    ExpressionMatrix,
    InjectionConfig,
    ResourceError,
    ValidationError,
    cross_phenotype_exceedance,
    effect_injection_experiment,
    generate_null_matrix,
    jackknife_stability,
    ks_test,
    moving_mean_consistency,
    null_split_experiment,
    two_sample_screen,
    variance_ordering,
)
from deltaseq import _kernels, _parts, experiments
from deltaseq.kstest import exact_pvalues_for_scaled
from deltaseq.mtp import confusion_counts, extended_bonferroni, report_to_json
from deltaseq.ordering import delta_sequence

from helpers import (
    duplicated_increment_matrix,
    injection_oracle,
    jackknife_distances_oracle,
    ks_scaled_oracle,
    run_under_every_blas_kernel,
    variance_ordering_oracle,
)

TESTS = str(Path(__file__).resolve().parent)

DUPLICATED_INCREMENTS_SCRIPT = f"""
import sys
sys.path.insert(0, {TESTS!r})
from deltaseq import DomainError, jackknife_stability
from helpers import duplicated_increment_matrix
try:
    jackknife_stability(duplicated_increment_matrix(), d=8, B=4, first_k=5, seed=8)
except DomainError as exc:
    assert "duplicated increment rows" in str(exc), exc
else:
    raise SystemExit("no DomainError")
"""


def null_matrix(m=60, n=40, seed=0, sf=0.0):
    return generate_null_matrix(m=m, n=n, shared_factor_sd=sf, gene_sd=1.0, seed=seed)


class TestNullSplit:
    def test_groups_are_disjoint_and_sized(self):
        res = null_split_experiment(null_matrix(), 12, 9, mode="delta", seed=1)
        assert res.group1.shape == (12,)
        assert res.group2.shape == (9,)
        assert not set(res.group1.tolist()) & set(res.group2.tolist())

    def test_statistics_match_row_by_row(self):
        m = null_matrix(m=20, n=30, seed=2)
        res = null_split_experiment(m, 8, 8, mode="expression", seed=3)
        ordering = variance_ordering(m)
        rows = m.values[ordering.permutation[1::2]]
        for i in [0, 3, 7]:
            ref = ks_test(rows[i][res.group1], rows[i][res.group2])
            assert res.scaled[i] == ref.scaled
            assert res.statistics[i] == pytest.approx(ref.statistic)

    def test_distance_small_under_the_null(self):
        res = null_split_experiment(null_matrix(m=400, n=40, seed=4), 10, 10,
                                    mode="delta", seed=5)
        assert res.distance < 0.15

    def test_shared_factor_contrast(self):
        # a strong per-array factor wrecks the expression-mode null fit but
        # cancels out of the increments
        m = generate_null_matrix(m=2000, n=88, shared_factor_sd=1.0,
                                 gene_sd=0.3, seed=414)
        res_d = null_split_experiment(m, 20, 20, mode="delta", seed=0)
        res_x = null_split_experiment(m, 20, 20, mode="expression", seed=0)
        assert res_d.distance < 0.05
        assert res_x.distance > 3.0 * res_d.distance

    def test_deterministic(self):
        m = null_matrix(seed=6)
        a = null_split_experiment(m, 10, 10, seed=7)
        b = null_split_experiment(m, 10, 10, seed=7)
        assert a.to_json() == b.to_json()
        assert np.array_equal(a.scaled, b.scaled)

    def test_group_sizes_validated(self):
        with pytest.raises(ValidationError):
            null_split_experiment(null_matrix(n=12), 10, 10)

    def test_cdf_budget_respected(self):
        with pytest.raises(ResourceError):
            null_split_experiment(null_matrix(), 10, 10, cdf_budget=50)

    def test_csv_lists_every_row(self):
        res = null_split_experiment(null_matrix(m=10), 5, 5, mode="delta", seed=8)
        lines = res.to_csv().splitlines()
        assert lines[0] == "row_id,scaled,d"
        assert len(lines) == 1 + 5  # 10 genes -> 5 increment rows


class TestJackknife:
    def test_single_subsample_centers_on_itself(self):
        rep = jackknife_stability(null_matrix(m=30, n=30, seed=9), d=5, B=1,
                                  first_k=10, seed=10)
        assert rep.distances.shape == (1,)
        assert rep.distances[0] == 0.0
        assert rep.sd_distance == 0.0

    def test_distances_are_positive_for_many_subsamples(self):
        rep = jackknife_stability(null_matrix(m=30, n=30, seed=11), d=5, B=6,
                                  first_k=10, seed=12)
        assert rep.B == 6
        assert (rep.distances > 0).all()
        assert rep.mean_distance == pytest.approx(rep.distances.mean())

    def test_deterministic(self):
        m = null_matrix(m=30, n=30, seed=13)
        a = jackknife_stability(m, d=4, B=3, first_k=8, seed=14)
        b = jackknife_stability(m, d=4, B=3, first_k=8, seed=14)
        assert np.array_equal(a.distances, b.distances)

    def test_too_many_deletions_rejected(self):
        with pytest.raises(ValidationError):
            jackknife_stability(null_matrix(n=10), d=7, B=2, first_k=5)

    def test_first_k_bounded_by_pairs(self):
        with pytest.raises(ValidationError):
            jackknife_stability(null_matrix(m=10), d=2, B=2, first_k=6)

    def test_pair_budget(self):
        with pytest.raises(ResourceError):
            jackknife_stability(null_matrix(m=30), d=2, B=4, first_k=10,
                                max_pair_evals=10)

    def test_pair_budget_boundary(self):
        # 3 subsamples of C(4, 2) = 6 pairs: a budget of exactly 18 passes
        m = null_matrix(m=30, n=12, seed=16)
        rep = jackknife_stability(m, d=2, B=3, first_k=4, seed=17, max_pair_evals=18)
        assert rep.distances.shape == (3,)
        with pytest.raises(ResourceError, match="18 pairwise correlations"):
            jackknife_stability(m, d=2, B=3, first_k=4, seed=17, max_pair_evals=17)

    def test_duplicated_increment_rows_are_domain_error(self):
        # the two lowest increment rows of every subsample are bitwise equal
        # or negated; at seed 8 the AVX-512 GEMM gives their r as
        # -0.9999999999999992 to -0.9999999999999999 in the four subsamples,
        # which a check of the product alone for |r| = 1 lets through
        matrix = duplicated_increment_matrix()
        v = matrix.values
        assert np.array_equal(v[1] - v[0], v[3] - v[2])
        assert sorted(variance_ordering(matrix).permutation[:4]) == [0, 1, 2, 3]
        with pytest.raises(DomainError, match="duplicated increment rows"):
            jackknife_stability(matrix, d=8, B=4, first_k=5, seed=8)

    def test_duplicated_increment_rows_under_every_blas_kernel(self):
        run_under_every_blas_kernel(DUPLICATED_INCREMENTS_SCRIPT)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_distances_bitwise_equal_to_oracle(self, data):
        """Bitwise equality with the full path on odd and even gene counts,
        on rows that are exact negations of other rows (their variances tie
        bit for bit, so the ordering falls back on the index), with
        ``first_k`` up to every pair and with 1-decimal values."""
        draw = data.draw
        n = draw(st.integers(6, 12), label="arrays")
        m = draw(st.integers(5, 24), label="genes")
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="values seed"))
        values = rng.normal(size=(m, n)) * rng.uniform(0.2, 3.0, size=(m, 1))
        negated = draw(st.lists(st.integers(0, m - 1), max_size=m // 2, unique=True),
                       label="negated rows")
        values = np.vstack([values, -values[negated]])
        if draw(st.booleans(), label="odd gene count") == (values.shape[0] % 2 == 0):
            values = values[:-1]
        if draw(st.booleans(), label="1-decimal"):
            values = np.round(values, 1)
        matrix = ExpressionMatrix(tuple(f"g{i}" for i in range(values.shape[0])),
                                  tuple(f"a{j}" for j in range(n)), values)
        pairs = values.shape[0] // 2
        first_k = draw(st.one_of(st.just(pairs), st.integers(2, pairs)), label="first_k")
        d = draw(st.integers(1, n - 4), label="d")
        B = draw(st.integers(1, 4), label="B")
        seed = draw(st.integers(0, 1000), label="seed")
        try:
            want = jackknife_distances_oracle(matrix, d, B, first_k, seed)
        except DeltaseqError as exc:
            with pytest.raises(type(exc)):
                jackknife_stability(matrix, d, B, first_k, seed)
            return
        got = jackknife_stability(matrix, d, B, first_k, seed).distances
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


class TestRowBlockEdges:
    """With blocks of 7 rows, the resampling harnesses equal their
    whole-matrix oracles bit for bit on 1-decimal, heavily tied data."""

    @pytest.fixture(autouse=True)
    def seven_row_blocks(self, monkeypatch):
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", 7)

    @staticmethod
    def tied(m, n, seed):
        rng = np.random.default_rng(seed)
        values = np.round(rng.normal(size=(m, n)) * rng.uniform(0.2, 3.0, size=(m, 1)), 1)
        return ExpressionMatrix(tuple(f"g{i}" for i in range(m)),
                                tuple(f"a{j}" for j in range(n)), values)

    @pytest.mark.parametrize("m, d, B, first_k", [
        (15, 1, 1, 2), (16, 3, 3, 2), (15, 2, 1, 7), (22, 4, 4, 11), (29, 5, 2, 14),
    ])
    def test_jackknife_equals_oracle(self, m, d, B, first_k):
        matrix = self.tied(m, 11, seed=m + B)
        want = jackknife_distances_oracle(matrix, d, B, first_k, seed=first_k)
        got = jackknife_stability(matrix, d, B, first_k, seed=first_k).distances
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @pytest.mark.parametrize("mode", ["delta", "expression"])
    def test_injection_equals_oracle(self, mode):
        # 41 genes give 20 pairs, ranked in blocks of rows 0-6, 7-13, 14-19
        matrix = self.tied(41, 40, seed=23)
        cfg = InjectionConfig(split=(18, 16), n_modified=6, effect_multiplier=2.0,
                              n1=7, n2=6, replicates=12, pfer=3.0, seed=4)
        rep = effect_injection_experiment(matrix, cfg, mode=mode)
        m, targets, effects, truth, fp, tp, fdr = injection_oracle(matrix, cfg, mode)
        assert rep.m == m == 20
        assert rep.targets.tolist() == targets.tolist()
        assert targets.max() >= 14
        assert rep.effects.view(np.int64).tolist() == effects.view(np.int64).tolist()
        assert np.array_equal(rep.truth, truth)
        assert rep.fp.tolist() == fp.tolist() and rep.tp.tolist() == tp.tolist()
        assert rep.fdr.view(np.int64).tolist() == fdr.view(np.int64).tolist()
        assert rep.tp.sum() > 0


class TestResamplingMemory:
    """The bytes the harnesses allocate at their peak (tracemalloc) beyond
    the matrix they are given, at 4000 genes x 88 arrays in blocks of 64
    rows, so that the bounds are set by what each must hold."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", 64)

    @staticmethod
    def traced_peak(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_jackknife_holds_its_z_scores_twice(self):
        # the z-score buffer and its pooled sorted copy, 8 bytes a z-score
        # each; the ordering's variances, argsort and ranks, 8 bytes a gene
        # each; and 512 KiB for one block of rows and one subsample's rows,
        # product and EDF steps. A gather of the kept columns of every gene
        # (2.7 MiB here) would pass the bound.
        matrix = null_matrix(m=4000, n=88, seed=3)
        B, first_k = 4, 60
        z_scores = B * first_k * (first_k - 1) // 2
        peak = self.traced_peak(jackknife_stability, matrix, 8, B, first_k, 1)
        assert peak <= 16 * z_scores + 4 * 8 * 4000 + (512 << 10)

    @pytest.mark.parametrize("mode", ["delta", "expression"])
    def test_injection_holds_about_one_half(self, mode):
        # the selected second half and its spiked copy, the first half's
        # rows, and 1 MiB for row ids and the temporaries of a replicate; a
        # copy of the spiked copy would pass the bound
        matrix = null_matrix(m=4000, n=88, seed=3)
        half = 4000 * 44 * 8
        cfg = InjectionConfig(split=(44, 44), n_modified=100, effect_multiplier=2.0,
                              n1=10, n2=10, replicates=20, pfer=9.0, seed=1)
        peak = self.traced_peak(effect_injection_experiment, matrix, cfg, mode)
        assert peak <= 2 * half + half // 2 + (1 << 20)


class TestInjection:
    def config(self, **over):
        base = dict(split=(20, 20), n_modified=5, effect_multiplier=2.0,
                    n1=8, n2=8, replicates=6, pfer=1.0, seed=15)
        base.update(over)
        return InjectionConfig(**base)

    @pytest.mark.parametrize("n1, n2", [(10, 10), (44, 44), (12, 18), (45, 43)])
    def test_pvalue_table_holds_the_multiples_of_gcd(self, n1, n2):
        g, table = experiments._scaled_pvalue_table(n1, n2)
        full = exact_pvalues_for_scaled(np.arange(n1 * n2 + 1), n1, n2)
        assert g == math.gcd(n1, n2)
        assert table.tobytes() == full[::g].tobytes()

    def test_report_shapes(self):
        rep = effect_injection_experiment(null_matrix(m=40, n=40, seed=16),
                                          self.config(), mode="delta")
        assert rep.m == 20
        assert rep.targets.shape == (5,)
        assert rep.effects.shape == (5,)
        assert rep.fp.shape == (6,)
        assert rep.truth.sum() == 5
        assert rep.fp_range[0] <= rep.fp_range[1]

    def test_multiplier_zero_means_all_null(self):
        rep = effect_injection_experiment(null_matrix(m=40, n=40, seed=17),
                                          self.config(effect_multiplier=0.0))
        assert not rep.truth.any()
        assert (rep.tp == 0).all()
        assert (rep.effects == 0.0).all()

    def test_strong_effect_is_found(self):
        rep = effect_injection_experiment(null_matrix(m=40, n=40, seed=18),
                                          self.config(effect_multiplier=6.0,
                                                      replicates=4))
        assert rep.tp.mean() >= 3.0

    def test_modes_share_split_and_targets(self):
        m = null_matrix(m=40, n=40, seed=19)
        a = effect_injection_experiment(m, self.config(), mode="delta")
        b = effect_injection_experiment(m, self.config(), mode="expression")
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.truth, b.truth)

    def test_deterministic_bytes(self):
        m = null_matrix(m=40, n=40, seed=20)
        a = effect_injection_experiment(m, self.config())
        b = effect_injection_experiment(m, self.config())
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    @pytest.mark.parametrize("mode", ["delta", "expression"])
    def test_tied_data_match_oracle_replicates(self, mode, monkeypatch):
        # On data at 1 decimal most rows tie across samples. Each replicate
        # must count what the float oracle gives on rows1[:, g1], rows2[:, g2],
        # which checks that the second part's columns are read at s1 + g2 of
        # the pooled ranks.
        base = null_matrix(m=60, n=40, seed=21)
        tied = ExpressionMatrix(base.gene_ids, base.array_ids, np.round(base.values, 1),
                                base.log_scale)
        cfg = self.config(split=(18, 16), n1=7, n2=6, replicates=12, pfer=3.0)
        pooled = []
        dense_ranks = _kernels.dense_ranks
        monkeypatch.setattr(_kernels, "dense_ranks",
                            lambda x: pooled.append(x) or dense_ranks(x))
        rep = effect_injection_experiment(tied, cfg, mode=mode)
        (rows,) = pooled
        s1, s2 = cfg.split
        assert rows.shape == (rep.m, s1 + s2)
        rows1, rows2 = rows[:, :s1], rows[:, s1:]
        any_ties = False
        for r, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.replicates)):
            crng = np.random.default_rng(child)
            g1 = crng.choice(s1, size=cfg.n1, replace=False)
            g2 = crng.choice(s2, size=cfg.n2, replace=False)
            scaled, ties = ks_scaled_oracle(rows1[:, g1], rows2[:, g2])
            any_ties |= bool(ties.any())
            p = exact_pvalues_for_scaled(scaled, cfg.n1, cfg.n2)
            want = confusion_counts(extended_bonferroni(p, cfg.pfer), rep.truth)
            assert (rep.fp[r], rep.tp[r], rep.fdr[r]) == (want.fp, want.tp, want.fdr)
        assert any_ties
        assert rep.tp.sum() > 0

    @pytest.mark.parametrize("mode", ["delta", "expression"])
    def test_spike_past_the_float_range_is_refused(self, mode):
        # sds of about 3 times a multiplier of 1e308 overflow to inf; the
        # spiked half is checked as a constructed matrix is
        matrix = generate_null_matrix(m=40, n=40, shared_factor_sd=0.0, gene_sd=3.0, seed=16)
        cfg = self.config(effect_multiplier=1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(ValidationError, match="non-finite value at gene 'g"):
                effect_injection_experiment(matrix, cfg, mode=mode)
            with pytest.raises(ValidationError, match="non-finite value at gene 'g"):
                injection_oracle(matrix, cfg, mode)

    def test_split_must_fit(self):
        with pytest.raises(ValidationError):
            effect_injection_experiment(null_matrix(n=30), self.config())

    def test_n_modified_bounded(self):
        with pytest.raises(ValidationError):
            effect_injection_experiment(null_matrix(m=8, n=40),
                                        self.config(n_modified=5))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            self.config(split=(3, 20))
        with pytest.raises(ValidationError):
            self.config(n1=25)
        with pytest.raises(ValidationError):
            self.config(pfer=0.0)
        with pytest.raises(ValidationError):
            self.config(replicates=0)
        with pytest.raises(ValidationError):
            self.config(effect_multiplier=-1.0)


class TestMovingMean:
    def test_identical_rows_keep_spread_flat(self):
        row = np.random.default_rng(21).normal(size=50)
        values = np.tile(row, (40, 1))
        traj = moving_mean_consistency(values, step=5, k_max=8)
        assert traj.sd_values.max() - traj.sd_values.min() < 1e-12

    def test_independent_rows_shrink_like_root_k(self):
        values = np.random.default_rng(22).normal(size=(160, 300))
        traj = moving_mean_consistency(values, step=10, k_max=16)
        ratio = traj.sd_values[3] / traj.sd_values[0]  # 40 rows vs 10 rows
        assert 0.3 < ratio < 0.7

    def test_accepts_delta_matrix(self):
        m = null_matrix(m=20, n=20, seed=23)
        d = delta_sequence(m, variance_ordering(m))
        traj = moving_mean_consistency(d, step=2, k_max=5)
        assert traj.row_counts.tolist() == [2, 4, 6, 8, 10]

    def test_row_budget_checked(self):
        with pytest.raises(ValidationError):
            moving_mean_consistency(np.zeros((10, 5)), step=4, k_max=3)

    def test_bad_step(self):
        with pytest.raises(ValidationError):
            moving_mean_consistency(np.zeros((10, 5)), step=0, k_max=2)

    def test_csv(self):
        traj = moving_mean_consistency(np.random.default_rng(24).normal(size=(12, 6)),
                                       step=3, k_max=4)
        lines = traj.to_csv().splitlines()
        assert lines[0] == "rows_averaged,sd"
        assert len(lines) == 5


class TestExceedance:
    def test_identical_matrices_never_exceed(self):
        m = null_matrix(m=30, n=20, seed=25)
        res = cross_phenotype_exceedance(m, m, mode="delta", alpha=0.05)
        assert res.fraction == 0.0
        assert (res.p_values == 1.0).all()

    def test_null_fraction_near_alpha(self):
        a = null_matrix(m=600, n=20, seed=26)
        b = null_matrix(m=600, n=22, seed=27)
        res = cross_phenotype_exceedance(a, b, mode="expression", alpha=0.05)
        assert res.fraction < 0.12

    def test_gene_universe_must_match(self):
        a = null_matrix(m=10, seed=28)
        values = a.values.copy()
        b = ExpressionMatrix(tuple(f"x{i}" for i in range(10)), a.array_ids,
                             values, True)
        with pytest.raises(ValidationError):
            cross_phenotype_exceedance(a, b)

    def test_pooled_ordering_reads_both_phenotypes_in_blocks(self, monkeypatch):
        # with 7-row blocks the rows are those of the concatenated matrix's ordering
        monkeypatch.setattr(_kernels, "BLOCK_ROWS", 7)
        a = null_matrix(m=36, n=12, seed=38)
        b = null_matrix(m=36, n=14, seed=39)
        ordering = variance_ordering_oracle(np.concatenate([a.values, b.values], axis=1))
        rows_a, rows_b, row_ids = experiments._two_sample_rows(a, b, "delta")
        want_a = delta_sequence(a, ordering)
        assert np.array_equal(rows_a, want_a.values)
        assert np.array_equal(rows_b, delta_sequence(b, ordering).values)
        assert row_ids == want_a.row_ids

    def test_delta_mode_uses_pooled_ordering(self):
        a = null_matrix(m=20, n=12, seed=29)
        b = null_matrix(m=20, n=14, seed=30)
        res = cross_phenotype_exceedance(a, b, mode="delta")
        assert len(res.row_ids) == 10
        assert res.n1 == 12 and res.n2 == 14

    def test_alpha_validated(self):
        m = null_matrix(m=10, seed=31)
        with pytest.raises(ValidationError):
            cross_phenotype_exceedance(m, m, alpha=1.0)

    def test_csv(self):
        m = null_matrix(m=10, n=12, seed=32)
        res = cross_phenotype_exceedance(m, m)
        lines = res.to_csv().splitlines()
        assert lines[0] == "row_id,d,p,exceeds"
        assert lines[1].endswith(",0")


class TestScreen:
    def test_report_covers_every_row(self):
        a = null_matrix(m=30, n=16, seed=33)
        b = null_matrix(m=30, n=16, seed=34)
        report, row_ids = two_sample_screen(a, b, mode="delta", pfer=1.0)
        assert report.m == 15 == len(row_ids)
        assert report.threshold == pytest.approx(1.0 / 15)

    def test_injected_difference_is_caught(self):
        a = null_matrix(m=30, n=16, seed=35)
        shifted = a.values.copy()
        ordering = variance_ordering(a)
        hot = ordering.permutation[1]  # higher-variance member of pair 1
        shifted[hot] += 25.0
        b = ExpressionMatrix(a.gene_ids, tuple(f"B{j}" for j in range(16)),
                             shifted, True)
        report, row_ids = two_sample_screen(a, b, mode="delta", pfer=0.5)
        flagged = [row_ids[i] for i in report.rejected.tolist()]
        assert any(a.gene_ids[int(hot)] in rid for rid in flagged)

    def test_json_round_trip(self):
        a = null_matrix(m=20, n=16, seed=36)
        b = null_matrix(m=20, n=16, seed=37)
        report, row_ids = two_sample_screen(a, b, mode="expression", pfer=2.0)
        payload = json.loads(report_to_json(report))
        assert payload["m"] == report.m == 20  # expression mode tests every gene
        assert payload["threshold"] == pytest.approx(0.1)
        assert payload["n_rejected"] == report.n_rejected
        assert tuple(row_ids) == a.gene_ids


class TestResamplingParts:
    """The injection replicates and the jackknife distances cut into k
    parts, k - 1 of them in forked children: the oracles' bits for any k."""

    @pytest.fixture
    def parts(self, monkeypatch):
        """Set the usable CPUs to k and drop both floors, so that the loops
        cut into k parts if they have the items; the thread gate still
        applies. Returns the part count of every split."""
        counts = []
        in_parts = _parts._in_parts

        def recorded(part, k):
            counts.append(k)
            return in_parts(part, k)

        monkeypatch.setattr(_parts, "_in_parts", recorded)
        monkeypatch.setattr(experiments, "_INJECT_PART_ROWS", 1)
        monkeypatch.setattr(experiments, "_DISTANCE_PART_POINTS", 1)

        def cut_into(k):
            monkeypatch.setattr(_parts, "_usable_cpus", lambda: k)
            return counts

        return cut_into

    @staticmethod
    def injection_case():
        matrix = null_matrix(m=41, n=40, seed=31)
        cfg = InjectionConfig(split=(18, 16), n_modified=6, effect_multiplier=2.0,
                              n1=7, n2=6, replicates=7, pfer=3.0, seed=4)
        return matrix, cfg

    @staticmethod
    def assert_injection_equals(rep, want):
        m, targets, effects, truth, fp, tp, fdr = want
        assert rep.m == m and rep.targets.tolist() == targets.tolist()
        assert rep.fp.tolist() == fp.tolist() and rep.tp.tolist() == tp.tolist()
        assert rep.fdr.view(np.int64).tolist() == fdr.view(np.int64).tolist()

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["delta", "expression"])
    def test_injection_equals_oracle(self, parts, k, mode):
        matrix, cfg = self.injection_case()
        counts = parts(k)
        rep = effect_injection_experiment(matrix, cfg, mode=mode)
        assert counts == [k]
        self.assert_injection_equals(rep, injection_oracle(matrix, cfg, mode))
        assert rep.fp.flags.writeable and rep.fp.flags.c_contiguous
        counts.clear()
        parts(1)
        serial = effect_injection_experiment(matrix, cfg, mode=mode)
        assert counts == [1]
        assert (rep.to_json(), rep.to_csv()) == (serial.to_json(), serial.to_csv())

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_jackknife_equals_oracle(self, parts, k):
        matrix = null_matrix(m=30, n=12, seed=32)
        counts = parts(k)
        got = jackknife_stability(matrix, 3, 5, 9, seed=6)
        assert counts == [k]
        want = jackknife_distances_oracle(matrix, 3, 5, 9, seed=6)
        assert got.distances.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_more_parts_than_items(self, parts):
        counts = parts(3)
        matrix = null_matrix(m=30, n=12, seed=33)
        got = jackknife_stability(matrix, 3, 2, 9, seed=7)
        assert counts == [2]  # one part per subsample, none empty
        want = jackknife_distances_oracle(matrix, 3, 2, 9, seed=7)
        assert got.distances.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_no_fork_while_another_thread_runs(self, parts, monkeypatch):
        matrix, cfg = self.injection_case()
        counts = parts(2)
        fork = mock.Mock(wraps=os.fork)
        monkeypatch.setattr(os, "fork", fork)
        alone = (effect_injection_experiment(matrix, cfg), jackknife_stability(matrix, 3, 4, 9))
        assert fork.call_count == 2 and counts == [2, 2]  # one child each
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            shared = (effect_injection_experiment(matrix, cfg),
                      jackknife_stability(matrix, 3, 4, 9))
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert fork.call_count == 2 and counts == [2, 2, 1, 1]
        for a, b in zip(alone, shared):
            assert (a.to_json(), a.to_csv()) == (b.to_json(), b.to_csv())

    def test_failed_replicate_part_runs_again_here(self, parts, monkeypatch):
        # the child's first KS batch raises, so it exits non-zero and its
        # replicates run here, after part 0's
        matrix, cfg = self.injection_case()
        parent = os.getpid()
        batch = _kernels.ks_scaled_batch
        in_parent = []

        def ks_scaled_batch(a, b):
            if os.getpid() != parent:
                raise RuntimeError("part failed")
            in_parent.append(None)
            return batch(a, b)

        monkeypatch.setattr(_kernels, "ks_scaled_batch", ks_scaled_batch)
        counts = parts(2)
        rep = effect_injection_experiment(matrix, cfg)
        assert counts == [2]
        assert len(in_parent) == cfg.replicates
        self.assert_injection_equals(rep, injection_oracle(matrix, cfg, "delta"))
