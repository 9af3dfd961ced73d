"""Acceptance suite: one test per shipping criterion.

Each test prints a single `criterion N ... PASS` line (visible with -v as the
test outcome, and with -s as the printed detail) and enforces both the stated
tolerance and the stated runtime budget. Oracles come from tests/helpers.py,
never from the package under test.
"""

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from deltaseq import _kernels
from deltaseq.cli import main as cli_main
from deltaseq.corrstats import all_pairs_summary, fisher_z, pearson
from deltaseq.datamodel import matrix_to_tsv
from deltaseq.dependence import triple_census, triple_stats
from deltaseq.experiments import (
    InjectionConfig,
    effect_injection_experiment,
    moving_mean_consistency,
)
from deltaseq.kstest import (
    exact_pvalues_for_scaled,
    ks_exact_pvalue,
    ks_exact_pvalue_exact,
    ks_test,
)
from deltaseq.mtp import extended_bonferroni
from deltaseq.ordering import delta_sequence, even_rank_genes, variance_ordering
from deltaseq.synth import (
    ChainSpec,
    NoiseModel,
    add_noise,
    generate_chain_matrix,
    generate_null_matrix,
)

from helpers import enum_pvalue, paths_within


class _Budget:
    """Wall-clock guard for one criterion."""

    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    def done(self, tag):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"{tag} took {elapsed:.1f}s, budget {self.limit}s"
        return elapsed


def _report(n, tag, detail, elapsed):
    print(f"criterion {n:2d} ({tag}): PASS [{detail}; {elapsed:.1f}s]")


def test_criterion_01_exact_ks_oracle():
    """Exact p-values equal full-enumeration values for every n1+n2 <= 12."""
    budget = _Budget(10)
    checked = 0
    for n1 in range(1, 12):
        for n2 in range(1, 12 - n1 + 1):
            total = n1 * n2
            for c in range(0, total + 1):
                want = enum_pvalue(c, n1, n2)
                got = ks_exact_pvalue_exact(c / total, n1, n2)
                assert got == want, (n1, n2, c, got, want)
                assert ks_exact_pvalue(c / total, n1, n2) == float(want)
                checked += 1
    elapsed = budget.done("criterion 1")
    _report(1, "exact KS oracle", f"{checked} rational p-values equal", elapsed)


def test_criterion_02_distribution_freeness():
    """All 252 labelings at n1=n2=5: statistic and p survive monotone maps."""
    budget = _Budget(30)
    rng = np.random.default_rng(202)
    base = rng.normal(size=10)
    assert len(set(base.tolist())) == 10
    transforms = [
        lambda v: v,
        np.exp,
        lambda v: v ** 3,
        lambda v: 3.0 * v - 7.0,
    ]
    reference = []
    for k, transform in enumerate(transforms):
        data = transform(base)
        outcomes = []
        for pos in combinations(range(10), 5):
            sel = np.zeros(10, dtype=bool)
            sel[list(pos)] = True
            res = ks_test(data[sel], data[~sel])
            outcomes.append((res.scaled, res.p_value))
        if k == 0:
            reference = outcomes
        else:
            assert outcomes == reference  # exact equality, statistic and p
    assert len(reference) == 252
    elapsed = budget.done("criterion 2")
    _report(2, "distribution-freeness", "252 labelings x 4 transforms identical", elapsed)


def test_criterion_03_fisher_z_calibration():
    """sd of 10^4 null z-scores at n=100 within 3 MC SE of 1/sqrt(97)."""
    budget = _Budget(30)
    rng = np.random.default_rng(303)
    trials, n = 10_000, 100
    x = rng.normal(size=(trials, n))
    y = rng.normal(size=(trials, n))
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    r = (xc * yc).sum(axis=1) / np.sqrt((xc * xc).sum(axis=1) * (yc * yc).sum(axis=1))
    z = np.arctanh(r)
    # the vectorized values are the library's values
    for i in (0, 17, 4_000, 9_999):
        ri = pearson(x[i], y[i])
        assert ri == pytest.approx(r[i], abs=1e-12)
        assert fisher_z(ri) == pytest.approx(z[i], abs=1e-12)
    sd = float(z.std(ddof=1))
    target = 1.0 / math.sqrt(n - 3)
    se = target / math.sqrt(2 * (trials - 1))
    assert abs(sd - target) <= 3 * se
    elapsed = budget.done("criterion 3")
    _report(3, "Fisher z calibration", f"sd {sd:.6f} vs {target:.6f} (3SE {3*se:.6f})", elapsed)


def test_criterion_04_delta_noise_cancellation():
    """Increment rows unchanged (<=1e-9 relative) by per-array constants."""
    budget = _Budget(30)
    spec = ChainSpec(m=400, n=60, base_sd=0.5, increment_sd=0.4,
                     shared_factor_sd=0.0, chain_length=4, seed=404)
    clean = generate_chain_matrix(spec)
    ordering = variance_ordering(clean)
    reference = delta_sequence(clean, ordering).values
    noisy = add_noise(clean, NoiseModel("array-only", 0.8), seed=405)
    perturbed = delta_sequence(noisy, ordering).values
    scale = max(1.0, float(np.abs(reference).max()))
    worst = float(np.abs(perturbed - reference).max())
    assert worst <= 1e-9 * scale
    elapsed = budget.done("criterion 4")
    _report(4, "delta noise cancellation", f"max deviation {worst:.2e}", elapsed)


def test_criterion_05_delta_near_independence():
    """Factor-driven gene correlation > 0.5 while delta rows stay within +-0.02."""
    budget = _Budget(120)
    matrix = generate_null_matrix(m=2000, n=88, shared_factor_sd=1.0,
                                  gene_sd=0.3, seed=505)
    ordering = variance_ordering(matrix)
    even = all_pairs_summary(matrix.values[even_rank_genes(ordering)])
    delta = all_pairs_summary(delta_sequence(matrix, ordering))
    assert even.mean_r > 0.5
    assert -0.02 <= delta.mean_r <= 0.02
    elapsed = budget.done("criterion 5")
    _report(5, "delta near-independence",
            f"gene mean r {even.mean_r:.3f}, delta mean r {delta.mean_r:.5f}", elapsed)


def test_criterion_06_triple_identities():
    """Bilinearity exact to 1e-9; planted chains give >=90% negative covariance."""
    budget = _Budget(60)
    rng = np.random.default_rng(606)
    values = rng.normal(size=(60, 50))

    def cov(a, b):
        return float((a - a.mean()) @ (b - b.mean())) / (a.shape[0] - 1)

    worst = 0.0
    for _ in range(1000):
        i, j, k = rng.choice(60, size=3, replace=False)
        ts = triple_stats(values[i], values[j], values[k], ids=(int(i), int(j), int(k)))
        by_id = {int(i): values[i], int(j): values[j], int(k): values[k]}
        u = by_id[ts.ids[0]]
        v = by_id[ts.ids[1]]
        residual = abs(cov(u, ts.z2) + ts.cov_z1_z2 - cov(v, ts.z2))
        worst = max(worst, residual)
    assert worst <= 1e-9

    spec = ChainSpec(m=600, n=200, base_sd=0.03, increment_sd=0.03,
                     shared_factor_sd=1.0, chain_length=4, seed=607)
    census = triple_census(generate_chain_matrix(spec), 400,
                           mode="type_a_only", alpha=0.05, seed=608)
    assert census.fraction_negative >= 0.9
    elapsed = budget.done("criterion 6")
    _report(6, "triple identities",
            f"bilinearity residual {worst:.2e}, negative fraction {census.fraction_negative:.3f}",
            elapsed)


def test_criterion_07_pfer_control():
    """Mean false-positive count: =9 on uniforms, and on discrete exact p the
    exact expectation 2000 * P(D >= 0.8), each within 3 SE."""
    budget = _Budget(120)
    rng = np.random.default_rng(707)
    panels = 10_000
    fps = np.empty(panels, dtype=np.int64)
    for i in range(panels):
        fps[i] = extended_bonferroni(rng.random(1000), 9.0).n_rejected
    mean = float(fps.mean())
    se = float(fps.std(ddof=1)) / math.sqrt(panels)
    assert abs(mean - 9.0) <= 3 * se

    rng = np.random.default_rng(708)
    discrete = np.empty(40, dtype=np.int64)
    for i in range(40):
        data = rng.normal(size=(2000, 20))
        scaled, _ = _kernels.ks_scaled_batch(data[:, :10], data[:, 10:])
        p = exact_pvalues_for_scaled(scaled, 10, 10)
        discrete[i] = extended_bonferroni(p, 9.0).n_rejected
    dmean = float(discrete.mean())
    dse = float(discrete.std(ddof=1)) / math.sqrt(discrete.shape[0])
    # The null tail P(D >= c/100) of each attainable statistic, by lattice
    # path count: the threshold 9/2000 rejects exactly D >= 0.8, so the
    # expected count is 2000 * P(D >= 0.8).
    total = math.comb(20, 10)
    tail = {c: Fraction(total - paths_within(10, 10, c - 1), total) for c in range(10, 101, 10)}
    least = min(c for c, p in tail.items() if p <= Fraction(9, 2000))
    assert least == 80
    expected = float(2000 * tail[least])
    assert abs(dmean - expected) <= 3 * dse
    elapsed = budget.done("criterion 7")
    _report(7, "PFER control",
            f"uniform mean FP {mean:.3f} (3SE {3*se:.3f}), discrete mean FP {dmean:.3f} "
            f"against exact {expected:.4f} (3SE {3*dse:.3f})", elapsed)


def test_criterion_08_stability_variance_contrast():
    """Same inputs and seeds: delta-mode fp_sd at most a third of expression's."""
    budget = _Budget(600)
    matrix = generate_null_matrix(m=2000, n=88, shared_factor_sd=1.0,
                                  gene_sd=0.3, seed=808)
    config = InjectionConfig(split=(44, 44), n_modified=100, effect_multiplier=2.0,
                             n1=10, n2=10, replicates=300, pfer=9.0, seed=809)
    delta_report = effect_injection_experiment(matrix, config, mode="delta")
    expr_report = effect_injection_experiment(matrix, config, mode="expression")
    assert np.array_equal(delta_report.targets, expr_report.targets)
    assert delta_report.fp_sd <= expr_report.fp_sd / 3.0
    elapsed = budget.done("criterion 8")
    _report(8, "stability contrast",
            f"fp sd {delta_report.fp_sd:.2f} (delta) vs {expr_report.fp_sd:.2f} (expression)",
            elapsed)


def test_criterion_09_consistency_trajectory():
    """Independent rows: sd ratio near 1/2; shared rows: flat trajectory."""
    budget = _Budget(60)
    rng = np.random.default_rng(909)
    independent = moving_mean_consistency(rng.normal(size=(160, 400)), 10, 16)
    ratio = float(independent.sd_values[3] / independent.sd_values[0])
    assert 0.4 <= ratio <= 0.6

    shared = np.tile(rng.normal(size=400), (80, 1))
    flat = moving_mean_consistency(shared, 10, 8)
    spread = float(flat.sd_values.max() - flat.sd_values.min())
    assert spread <= 1e-12 * float(flat.sd_values[0])
    elapsed = budget.done("criterion 9")
    _report(9, "consistency trajectory",
            f"sd(40 rows)/sd(10 rows) = {ratio:.3f}, shared-row spread {spread:.1e}", elapsed)


def test_criterion_10_byte_identical_reports(tmp_path):
    """Reports are byte-identical across reruns."""
    budget = _Budget(300)
    spec = ChainSpec(m=60, n=32, base_sd=0.4, increment_sd=0.4,
                     shared_factor_sd=0.5, chain_length=4, seed=1010)
    matrix_path = tmp_path / "matrix.tsv"
    matrix_path.write_text(matrix_to_tsv(generate_chain_matrix(spec)), encoding="utf-8")
    mat = str(matrix_path)
    # enough rows for several 512-row blocks, so the correlation summaries
    # run their helper thread ahead of the caller
    tall_spec = ChainSpec(m=1100, n=32, base_sd=0.4, increment_sd=0.4,
                          shared_factor_sd=0.5, chain_length=4, seed=1011)
    tall_path = tmp_path / "tall.tsv"
    tall_path.write_text(matrix_to_tsv(generate_chain_matrix(tall_spec)), encoding="utf-8")
    tall = str(tall_path)

    runs = {
        "exp-null": ["exp-null", "--in", mat, "--n1", "8", "--n2", "8",
                     "--mode", "delta", "--seed", "5"],
        "exp-jackknife": ["exp-jackknife", "--in", mat, "--d", "6", "--reps", "8",
                          "--first-k", "8", "--seed", "5"],
        "exp-inject": ["exp-inject", "--in", mat, "--split", "16", "16",
                       "--n-modified", "5", "--multiplier", "2", "--n1", "6",
                       "--n2", "6", "--reps", "12", "--pfer", "2", "--mode",
                       "delta", "--seed", "5"],
        "exp-moving": ["exp-moving", "--in", mat, "--step", "3", "--k-max", "5",
                       "--on", "delta"],
        "exceedance": ["exceedance", "--in", mat, "--in2", mat,
                       "--mode", "expression", "--alpha", "0.1"],
        "corr-genes": ["corr", "--in", tall, "--on", "genes"],
        "corr-delta-z": ["corr", "--in", tall, "--on", "delta", "--z"],
    }

    def collect(outdir):
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    for name, argv in runs.items():
        out1 = tmp_path / f"{name}-1"
        out2 = tmp_path / f"{name}-2"
        assert cli_main(argv + ["--out", str(out1)]) == 0
        assert cli_main(argv + ["--out", str(out2)]) == 0
        assert collect(out1) == collect(out2), f"{name} differed across reruns"
    elapsed = budget.done("criterion 10")
    _report(10, "byte-identical reports",
            "5 experiments and 2 correlation summaries, each run twice", elapsed)
