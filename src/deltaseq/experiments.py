"""Resampling experiments over expression matrices.

Every experiment takes one master seed and derives an independent stream per
replicate, so results are reproducible bit for bit. Reports serialize to JSON
with sorted keys, making byte-identical reruns checkable by comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .corrstats import _standardized_rows
from .datamodel import ExpressionMatrix, select_arrays
from .errors import DomainError, ResourceError, ValidationError
from .kstest import (
    EDF,
    ExactCdfTable,
    exact_pvalues_for_scaled,
    kolmogorov_distance,
    ks_exact_cdf,
    mean_of_edfs,
)
from .mtp import RejectionReport, confusion_counts, csv_text, extended_bonferroni, json_dumps
from .ordering import GeneOrdering, delta_sequence, even_rank_genes, variance_ordering

MODES = ("delta", "expression")


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


class _Rows(NamedTuple):
    """Selected rows with their labels, which a correlation summary uses to
    name a zero-variance row."""

    values: np.ndarray
    row_ids: tuple[str, ...]


def _mode_rows(matrix: ExpressionMatrix, ordering: GeneOrdering, mode: str) -> _Rows:
    """Row values and labels tested in the given mode: increment rows for
    "delta", the higher-variance member of each pair for "expression"."""
    if mode == "delta":
        dm = delta_sequence(matrix, ordering)
        return _Rows(dm.values, dm.row_ids)
    idx = even_rank_genes(ordering)
    return _Rows(matrix.values[idx], tuple(matrix.gene_ids[int(i)] for i in idx))


def _sd(values: np.ndarray) -> float:
    return float(values.std(ddof=1)) if values.shape[0] >= 2 else 0.0


# ---------------------------------------------------------------------------
# Null split: disjoint array groups from one phenotype, pooled statistics
# against the exact null distribution.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NullSplitResult:
    mode: str
    n1: int
    n2: int
    seed: int
    group1: np.ndarray
    group2: np.ndarray
    row_ids: tuple[str, ...]
    scaled: np.ndarray
    statistics: np.ndarray
    table: ExactCdfTable
    distance: float

    def to_json(self) -> str:
        return json_dumps({
            "experiment": "null_split",
            "mode": self.mode,
            "n1": self.n1,
            "n2": self.n2,
            "seed": self.seed,
            "n_statistics": int(self.statistics.shape[0]),
            "distance": self.distance,
            "group1": [int(i) for i in self.group1],
            "group2": [int(i) for i in self.group2],
        })

    def to_csv(self) -> str:
        return csv_text("row_id,scaled,d", self.row_ids, self.scaled, self.statistics)


def null_split_experiment(matrix: ExpressionMatrix, n1: int, n2: int,
                          mode: str = "delta", seed: int = 0,
                          cdf_budget: int = 10_000) -> NullSplitResult:
    """Draw two disjoint array groups, compute the two-sample statistic for
    every row, and measure sup distance between the pooled statistic EDF and
    the exact null distribution.

    The gene ordering is taken from the FULL matrix before splitting.
    """
    _check_mode(mode)
    n = matrix.n_arrays
    if n1 < 1 or n2 < 1 or n1 + n2 > n:
        raise ValidationError(f"need n1, n2 >= 1 with n1+n2 <= {n}, got ({n1}, {n2})")
    ordering = variance_ordering(matrix)
    rows, row_ids = _mode_rows(matrix, ordering, mode)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    g1 = np.sort(perm[:n1])
    g2 = np.sort(perm[n1 : n1 + n2])
    scaled, _ = _kernels.ks_scaled_batch(rows[:, g1], rows[:, g2])
    stats = scaled / (n1 * n2)
    table = ks_exact_cdf(n1, n2, budget=cdf_budget)
    distance = kolmogorov_distance(EDF.from_sample(stats), table.as_step())
    return NullSplitResult(mode, n1, n2, seed, g1, g2, tuple(row_ids), scaled, stats,
                           table, distance)


# ---------------------------------------------------------------------------
# Delete-d jackknife stability of the increment correlation distribution.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    d: int
    B: int
    first_k: int
    seed: int
    distances: np.ndarray
    mean_distance: float
    sd_distance: float

    def to_json(self) -> str:
        return json_dumps({
            "experiment": "jackknife_stability",
            "d": self.d,
            "B": self.B,
            "first_k": self.first_k,
            "seed": self.seed,
            "mean_distance": self.mean_distance,
            "sd_distance": self.sd_distance,
        })

    def to_csv(self) -> str:
        return csv_text("subsample,distance", np.arange(1, self.distances.shape[0] + 1),
                        self.distances)


def jackknife_stability(matrix: ExpressionMatrix, d: int, B: int, first_k: int,
                        seed: int = 0, max_pair_evals: int = 20_000_000) -> StabilityReport:
    """Delete-d jackknife: for each of B subsamples, recompute the variance
    ordering, take the first ``first_k`` increment rows, form the EDF of the
    Fisher z-scores of all their pairwise correlations, and measure each
    subsample's sup distance to the pointwise mean of all B EDFs.

    Each subsample costs one gather of the kept columns, one variance
    ordering of the genes, and the ``2*first_k`` lowest-variance rows
    differenced into the ``first_k`` increment rows it correlates; no row
    beyond those is built or labelled. The cost is linear in B: the mean
    comes from one sort of the pooled z-scores, and each distance reads the
    mean only at that subsample's own jump points.

    Memory grows with the ``B*first_k*(first_k-1)/2`` z-scores held at once:
    the EDFs, the pooled sort and the building of the center take about 50
    bytes per z-score at peak. ``max_pair_evals`` caps that count before any
    subsample is drawn; the default of 2e7 keeps the held z-scores under
    1 GiB (0.93 GiB at 49 bytes each).
    """
    n = matrix.n_arrays
    if not (1 <= d <= n - 4):
        raise ValidationError(f"d must leave at least 4 arrays, got d={d} for n={n}")
    if B < 1:
        raise ValidationError(f"B must be >= 1, got {B}")
    m_even = matrix.n_genes - (matrix.n_genes % 2)
    if not (2 <= first_k <= m_even // 2):
        raise ValidationError(f"first_k must lie in [2, {m_even // 2}], got {first_k}")
    pair_evals = B * (first_k * (first_k - 1) // 2)
    if pair_evals > max_pair_evals:
        raise ResourceError(
            f"jackknife needs {pair_evals} pairwise correlations, over the budget "
            f"of {max_pair_evals}; lower B (--reps) or first_k (--first-k), or raise "
            f"the max_pair_evals argument of jackknife_stability"
        )
    children = np.random.SeedSequence(seed).spawn(B)
    iu = np.triu_indices(first_k, 1)
    edfs = []
    for child in children:
        rng = np.random.default_rng(child)
        removed = rng.choice(n, size=d, replace=False)
        keep = np.setdiff1d(np.arange(n), removed)
        sub = matrix.values[:, keep]
        perm = variance_ordering(sub).permutation[: 2 * first_k]
        S = _standardized_rows(sub[perm[1::2]] - sub[perm[0::2]])
        r = np.clip((S @ S.T)[iu], -1.0, 1.0)
        if (np.abs(r) == 1.0).any():
            raise DomainError("duplicated increment rows give |r| = 1; z-score undefined")
        edfs.append(EDF.from_sample(np.arctanh(r)))
    center = mean_of_edfs(edfs)
    distances = np.asarray([kolmogorov_distance(e, center) for e in edfs])
    return StabilityReport(d, B, first_k, seed, distances,
                           float(distances.mean()), _sd(distances))


# ---------------------------------------------------------------------------
# Effect injection: spiked constants on one half of a split, screened under
# PFER control, replicated over random group draws.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InjectionConfig:
    split: tuple[int, int]
    n_modified: int
    effect_multiplier: float
    n1: int
    n2: int
    replicates: int
    pfer: float
    seed: int

    def __post_init__(self) -> None:
        s1, s2 = self.split
        if s1 < 4 or s2 < 4:
            raise ValidationError(f"each split part needs >= 4 arrays, got {self.split}")
        if self.n_modified < 0:
            raise ValidationError("n_modified must be >= 0")
        if not (1 <= self.n1 <= s1) or not (1 <= self.n2 <= s2):
            raise ValidationError(
                f"group sizes ({self.n1}, {self.n2}) must fit the split {self.split}"
            )
        if self.replicates < 1:
            raise ValidationError("replicates must be >= 1")
        if not (self.pfer > 0.0 and math.isfinite(self.pfer)):
            raise ValidationError(f"pfer must be finite and > 0, got {self.pfer}")
        if not (self.effect_multiplier >= 0.0 and math.isfinite(self.effect_multiplier)):
            raise ValidationError("effect_multiplier must be finite and >= 0")


@dataclass(frozen=True)
class ExperimentReport:
    mode: str
    config: InjectionConfig
    m: int
    threshold: float
    targets: np.ndarray
    effects: np.ndarray
    truth: np.ndarray
    fp: np.ndarray
    tp: np.ndarray
    fdr: np.ndarray
    fp_mean: float
    fp_sd: float
    fp_range: tuple[int, int]
    fdr_mean: float
    fdr_sd: float

    def to_json(self) -> str:
        return json_dumps({
            "experiment": "effect_injection",
            "mode": self.mode,
            "config": {
                "split": list(self.config.split),
                "n_modified": self.config.n_modified,
                "effect_multiplier": self.config.effect_multiplier,
                "n1": self.config.n1,
                "n2": self.config.n2,
                "replicates": self.config.replicates,
                "pfer": self.config.pfer,
                "seed": self.config.seed,
            },
            "m": self.m,
            "threshold": self.threshold,
            "targets": [int(t) for t in self.targets],
            "effects": [float(e) for e in self.effects],
            "fp_mean": self.fp_mean,
            "fp_sd": self.fp_sd,
            "fp_range": list(self.fp_range),
            "fdr_mean": self.fdr_mean,
            "fdr_sd": self.fdr_sd,
        })

    def to_csv(self) -> str:
        return csv_text("replicate,fp,tp,fdr", np.arange(1, self.fp.shape[0] + 1),
                        self.fp, self.tp, self.fdr)


def effect_injection_experiment(matrix: ExpressionMatrix, config: InjectionConfig,
                                mode: str = "delta") -> ExperimentReport:
    """Split arrays once, estimate ordering and per-row sds on the first part,
    add fixed constants (multiplier times the estimated sd) to the
    higher-variance member of each designated pair in the second part, then
    repeatedly draw small groups from each part and screen every row with the
    exact two-sample test under the PFER threshold.

    The target set and effect constants are drawn once from the master seed
    and shared by all replicates; with multiplier 0 the rows are unchanged,
    so all hypotheses count as null.
    """
    _check_mode(mode)
    s1, s2 = config.split
    if s1 + s2 > matrix.n_arrays:
        raise ValidationError(
            f"split {config.split} needs {s1 + s2} arrays, matrix has {matrix.n_arrays}"
        )
    ss = np.random.SeedSequence(config.seed)
    rng = np.random.default_rng(ss)
    perm = rng.permutation(matrix.n_arrays)
    cols1 = np.sort(perm[:s1])
    cols2 = np.sort(perm[s1 : s1 + s2])
    sub1 = select_arrays(matrix, cols1)
    sub2 = select_arrays(matrix, cols2)

    # Ordering and per-row sd estimates come from the first part only; the
    # ordering is then enforced on the second part.
    ordering = variance_ordering(sub1)
    n_rows = ordering.n_pairs
    if config.n_modified > n_rows:
        raise ValidationError(
            f"n_modified ({config.n_modified}) exceeds the {n_rows} testable rows"
        )
    targets = np.sort(rng.choice(n_rows, size=config.n_modified, replace=False)).astype(np.int64)

    rows1, _ = _mode_rows(sub1, ordering, mode)
    sds = rows1.std(axis=1, ddof=1)
    effects = config.effect_multiplier * sds[targets]

    modified2 = sub2.values.copy()
    even_idx = even_rank_genes(ordering)
    modified2[even_idx[targets]] += effects[:, None]
    sub2mod = ExpressionMatrix(sub2.gene_ids, sub2.array_ids, modified2, sub2.log_scale)

    rows2, _ = _mode_rows(sub2mod, ordering, mode)
    truth = np.zeros(n_rows, dtype=bool)
    truth[targets[effects != 0.0]] = True

    # The statistic depends only on each pooled row's order: rank the rows
    # once, then each replicate sorts just the ranks it draws. Arrays run
    # along axis 0, so a draw gathers whole rows of ranks.
    pooled = np.concatenate([rows1, rows2], axis=1)
    ranks = np.ascontiguousarray(_kernels.dense_ranks(pooled).T)
    threshold = min(config.pfer / n_rows, 1.0)
    fp = np.empty(config.replicates, dtype=np.int64)
    tp = np.empty(config.replicates, dtype=np.int64)
    fdr = np.empty(config.replicates, dtype=np.float64)
    for r, child in enumerate(ss.spawn(config.replicates)):
        crng = np.random.default_rng(child)
        g1 = crng.choice(s1, size=config.n1, replace=False)
        g2 = crng.choice(s2, size=config.n2, replace=False)
        scaled, _ = _kernels.ks_scaled_batch(ranks[g1].T, ranks[s1 + g2].T)
        p = exact_pvalues_for_scaled(scaled, config.n1, config.n2)
        rep = confusion_counts(extended_bonferroni(p, config.pfer), truth)
        fp[r] = rep.fp
        tp[r] = rep.tp
        fdr[r] = rep.fdr
    return ExperimentReport(
        mode, config, n_rows, float(threshold), targets, effects, truth, fp, tp, fdr,
        float(fp.mean()), _sd(fp), (int(fp.min()), int(fp.max())),
        float(fdr.mean()), _sd(fdr),
    )


# ---------------------------------------------------------------------------
# Moving-mean consistency: does averaging more rows shrink the spread across
# arrays the way independent rows would?
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyTrajectory:
    step: int
    row_counts: np.ndarray
    sd_values: np.ndarray

    def to_json(self) -> str:
        return json_dumps({
            "experiment": "moving_mean_consistency",
            "step": self.step,
            "row_counts": [int(k) for k in self.row_counts],
            "sd_values": [float(v) for v in self.sd_values],
        })

    def to_csv(self) -> str:
        return csv_text("rows_averaged,sd", self.row_counts, self.sd_values)


def moving_mean_consistency(source, step: int, k_max: int) -> ConsistencyTrajectory:
    """For k = 1..k_max, average the first k*step rows per array and report the
    sd of that average across arrays. Near-independent rows shrink the sd by
    about 1/sqrt(k); rows sharing a common component keep it flat."""
    values = np.asarray(getattr(source, "values", source), dtype=np.float64)
    if values.ndim != 2:
        raise ValidationError("expected a matrix-like source with 2-d values")
    if step < 1 or k_max < 1:
        raise ValidationError("step and k_max must be >= 1")
    if k_max * step > values.shape[0]:
        raise ValidationError(
            f"k_max*step = {k_max * step} exceeds the {values.shape[0]} available rows"
        )
    if values.shape[1] < 2:
        raise ValidationError("need at least 2 arrays")
    csum = np.cumsum(values, axis=0)
    counts = np.arange(1, k_max + 1, dtype=np.int64) * step
    sds = np.asarray([float((csum[c - 1] / c).std(ddof=1)) for c in counts])
    return ConsistencyTrajectory(step, counts, sds)


# ---------------------------------------------------------------------------
# Cross-phenotype exceedance and the screening pipeline.
# ---------------------------------------------------------------------------


def _two_sample_rows(a: ExpressionMatrix, b: ExpressionMatrix, mode: str):
    """Per-row two-sample inputs for two phenotypes on one gene universe.

    In delta mode the ordering is estimated on the pooled arrays and enforced
    on both phenotypes so row i is the same gene pair in each.
    """
    _check_mode(mode)
    if a.gene_ids != b.gene_ids:
        raise ValidationError("matrices must share one gene universe (same ids, same order)")
    if mode == "delta":
        pooled = np.concatenate([a.values, b.values], axis=1)
        ordering = variance_ordering(pooled)
        da = delta_sequence(a, ordering)
        db = delta_sequence(b, ordering)
        return da.values, db.values, da.row_ids
    return a.values, b.values, a.gene_ids


@dataclass(frozen=True)
class ExceedanceResult:
    mode: str
    alpha: float
    n1: int
    n2: int
    fraction: float
    row_ids: tuple[str, ...]
    statistics: np.ndarray
    p_values: np.ndarray

    def to_json(self) -> str:
        return json_dumps({
            "experiment": "cross_phenotype_exceedance",
            "mode": self.mode,
            "alpha": self.alpha,
            "n1": self.n1,
            "n2": self.n2,
            "n_rows": int(self.p_values.shape[0]),
            "fraction": self.fraction,
        })

    def to_csv(self) -> str:
        return csv_text("row_id,d,p,exceeds", self.row_ids, self.statistics, self.p_values,
                        self.p_values <= self.alpha)


def cross_phenotype_exceedance(a: ExpressionMatrix, b: ExpressionMatrix,
                               mode: str = "delta", alpha: float = 0.05) -> ExceedanceResult:
    """Fraction of rows whose exact two-sample p-value between phenotypes is
    at or below alpha."""
    if not (0.0 < alpha < 1.0):
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    rows_a, rows_b, row_ids = _two_sample_rows(a, b, mode)
    n1 = rows_a.shape[1]
    n2 = rows_b.shape[1]
    scaled, _ = _kernels.ks_scaled_batch(rows_a, rows_b)
    p = exact_pvalues_for_scaled(scaled, n1, n2)
    return ExceedanceResult(mode, alpha, n1, n2, float((p <= alpha).mean()),
                            tuple(row_ids), scaled / (n1 * n2), p)


def two_sample_screen(a: ExpressionMatrix, b: ExpressionMatrix, mode: str,
                      pfer: float) -> tuple[RejectionReport, tuple[str, ...]]:
    """Screen every row for a cross-phenotype difference under PFER control."""
    rows_a, rows_b, row_ids = _two_sample_rows(a, b, mode)
    scaled, _ = _kernels.ks_scaled_batch(rows_a, rows_b)
    p = exact_pvalues_for_scaled(scaled, rows_a.shape[1], rows_b.shape[1])
    return extended_bonferroni(p, pfer), tuple(row_ids)
