"""Resampling experiments over expression matrices.

Every experiment takes one master seed and derives an independent stream per
replicate, so results are reproducible bit for bit. Reports serialize to JSON
with sorted keys, making byte-identical reruns checkable by comparison.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _kernels, _parts
from .corrstats import _has_collinear_pair, _row_values, _standardized_rows
from .datamodel import MIN_ARRAYS, ExpressionMatrix, select_arrays
from .errors import DomainError, ResourceError, ValidationError, _check_alpha, _check_positive
from .kstest import (
    DEFAULT_CDF_BUDGET,
    EDF,
    ExactCdfTable,
    exact_pvalues_for_scaled,
    kolmogorov_distance,
    ks_exact_cdf,
    mean_of_edfs,
)
from .mtp import RejectionReport, confusion_counts, csv_text, extended_bonferroni, json_dumps
from .ordering import even_rank_genes, rows_under_test, variance_ordering

MODES = ("delta", "expression")
# The rows (``ordering.rows_under_test``) that each mode tests: the two
# phenotype screens test every gene in expression mode, the one-phenotype
# experiments one gene per pair, as many rows as delta mode's.
_SCREEN_ROWS = {"delta": "delta", "expression": "genes"}
_PAIR_ROWS = {"delta": "delta", "expression": "even"}


def _row_kind(mode: str, kinds: dict[str, str]) -> str:
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    return kinds[mode]


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


def null_split_experiment(matrix: ExpressionMatrix, n1: int, n2: int, mode: str = "delta",
                          seed: int = 0, cdf_budget: int = DEFAULT_CDF_BUDGET) -> NullSplitResult:
    """Draw two disjoint array groups, compute the two-sample statistic for
    every row, and measure sup distance between the pooled statistic EDF and
    the exact null distribution.

    The gene ordering is taken from the FULL matrix before splitting. The
    exact null table is built first, so a budget too small for it refuses
    the run before any other work.
    """
    kind = _row_kind(mode, _PAIR_ROWS)
    n = matrix.n_arrays
    if n1 < 1 or n2 < 1 or n1 + n2 > n:
        raise ValidationError(f"need n1, n2 >= 1 with n1+n2 <= {n}, got ({n1}, {n2})")
    table = ks_exact_cdf(n1, n2, budget=cdf_budget)
    rows, row_ids = rows_under_test(matrix, kind)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    g1 = np.sort(perm[:n1])
    g2 = np.sort(perm[n1 : n1 + n2])
    scaled, _ = _kernels.ks_scaled_batch(rows[:, g1], rows[:, g2])
    stats = scaled / (n1 * n2)
    distance = kolmogorov_distance(EDF.from_sample(stats), table.as_step())
    return NullSplitResult(mode, n1, n2, seed, g1, g2, row_ids, scaled, stats,
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


_DUPLICATED_INCREMENTS = "duplicated increment rows give |r| = 1; z-score undefined"
# The distances run in parts (``_parts``) of at least this many EDF points
# (B * pairs over the parts). On a 2-vCPU Xeon, at B=8 against the center of
# the benchmark's pooled file, two parts came out even at 159,200 points (12
# against 13 ms) and won from 249,000 on (18 against 22 ms; 37 against 58 ms
# at 638,400) for about 10 ms more CPU.
_DISTANCE_PART_POINTS = 1 << 17


def jackknife_stability(matrix: ExpressionMatrix, d: int, B: int, first_k: int,
                        seed: int = 0, max_pair_evals: int = 20_000_000) -> StabilityReport:
    """Delete-d jackknife: for each of B subsamples, recompute the variance
    ordering, take the first ``first_k`` increment rows, form the EDF of the
    Fisher z-scores of all their pairwise correlations, and measure each
    subsample's sup distance to the pointwise mean of all B EDFs.

    Each subsample orders the genes on its kept columns a block of rows at a
    time, then gathers just the ``2*first_k`` lowest-variance rows on those
    columns and differences them into the ``first_k`` increment rows it
    correlates; no row beyond those is built or labelled. Its z-scores go
    into its own row of one (B, pairs) buffer, sorted there, and its EDF is
    a view of that row. The cost is linear in B: the mean is the EDF of one
    sorted pooled copy of the buffer, and each distance reads the mean only
    at that subsample's own jump points, by counting. The subsamples run in
    this process; the B distances then run in contiguous parts across the
    usable CPUs (``_parts``, above _DISTANCE_PART_POINTS points a part),
    which give the same floats for any number of parts.

    Increment rows that are equal, or one the negation of another, have no
    finite z and raise DomainError before their product, whatever the GEMM
    would round their r to.

    Memory grows with the ``B*first_k*(first_k-1)/2`` z-scores held at once:
    the buffer and the pooled copy take 16 bytes per z-score (30.5 MiB at
    B=16, first_k=500). Beyond them only the temporaries of one block of
    rows and of one subsample are held, the largest the subsample's
    first_k x first_k product and the first_k**2 upper-triangle mask, about
    9*first_k**2 bytes. ``max_pair_evals`` caps the z-score count before any
    subsample is drawn; the default of 2e7 keeps the two copies of the
    z-scores within 320 MB (305 MiB). At B = 1 it allows first_k = 6325,
    whose product and mask take about 360 MB, more than the two copies.
    """
    n = matrix.n_arrays
    if not (1 <= d <= n - MIN_ARRAYS):
        raise ValidationError(f"d must leave at least {MIN_ARRAYS} arrays, got d={d} for n={n}")
    if B < 1:
        raise ValidationError(f"B must be >= 1, got {B}")
    m_even = matrix.n_genes - (matrix.n_genes % 2)
    if not (2 <= first_k <= m_even // 2):
        raise ValidationError(f"first_k must lie in [2, {m_even // 2}], got {first_k}")
    pairs = first_k * (first_k - 1) // 2
    if B * pairs > max_pair_evals:
        raise ResourceError(
            f"jackknife needs {B * pairs} pairwise correlations, over the budget "
            f"of {max_pair_evals}; lower B (--reps) or first_k (--first-k), or raise "
            f"the max_pair_evals argument of jackknife_stability"
        )
    children = np.random.SeedSequence(seed).spawn(B)
    # the pairs i < j of a first_k x first_k product, in row-major order
    upper = np.triu(np.ones((first_k, first_k), dtype=bool), 1).ravel()
    z = np.empty((B, pairs))
    edfs = []
    for row, child in zip(z, children):
        rng = np.random.default_rng(child)
        removed = rng.choice(n, size=d, replace=False)
        keep = np.delete(np.arange(n), removed)
        perm = variance_ordering(matrix, columns=keep).permutation[: 2 * first_k]
        lowest = matrix.values[np.ix_(perm, keep)]
        S = _standardized_rows(lowest[1::2] - lowest[0::2])
        if _has_collinear_pair(S):
            raise DomainError(_DUPLICATED_INCREMENTS)
        np.compress(upper, (S @ S.T).ravel(), out=row)
        np.clip(row, -1.0, 1.0, out=row)
        if row.min() == -1.0 or row.max() == 1.0:
            raise DomainError(_DUPLICATED_INCREMENTS)
        np.arctanh(row, out=row)
        row.sort()
        edfs.append(EDF(row))
    center = mean_of_edfs(edfs)
    distances = _parts._map_in_parts(lambda b: kolmogorov_distance(edfs[b], center), B,
                                     np.float64, B * pairs, _DISTANCE_PART_POINTS)
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
        if s1 < MIN_ARRAYS or s2 < MIN_ARRAYS:
            raise ValidationError(f"each split part needs >= {MIN_ARRAYS} arrays, got {self.split}")
        if self.n_modified < 0:
            raise ValidationError("n_modified must be >= 0")
        if not (1 <= self.n1 <= s1) or not (1 <= self.n2 <= s2):
            raise ValidationError(
                f"group sizes ({self.n1}, {self.n2}) must fit the split {self.split}"
            )
        if self.replicates < 1:
            raise ValidationError("replicates must be >= 1")
        _check_positive("pfer", self.pfer)
        _check_positive("effect_multiplier", self.effect_multiplier, allow_zero=True)


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
            "config": asdict(self.config),
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


def _spiked(half: ExpressionMatrix, genes: np.ndarray, effects: np.ndarray) -> ExpressionMatrix:
    """``half`` with ``effects`` added to the rows of ``genes``, in one
    writable copy of its values that the new matrix keeps; the sums are
    checked finite as a constructed matrix's values are."""
    values = half.values.copy()
    values[genes] += effects[:, None]
    return ExpressionMatrix._adopt(half.gene_ids, half.array_ids, values, half.log_scale,
                                   finite=False)


# The replicates run in parts (``_parts``) of at least this many tested rows
# (replicates * rows over the parts). On a 2-vCPU Xeon, at 11,000 rows a
# replicate (the benchmark's pooled file), two parts came out even at 16
# replicates (27-31 ms) and won from 24 on (31-35 against 45 ms; 53-55
# against 80 ms at 48) for 10-20 ms more CPU.
_INJECT_PART_ROWS = 1 << 17
# One replicate's counts, as each part sends them.
_REPLICATE = np.dtype([("fp", np.int64), ("tp", np.int64), ("fdr", np.float64)])


def _scaled_pvalue_table(n1: int, n2: int) -> tuple[int, np.ndarray]:
    """g = gcd(n1, n2) and the p-value of each scaled statistic at (n1, n2),
    indexed by the statistic over g: every scaled statistic is a multiple
    of g, so the lattice paths are counted for those alone."""
    g = math.gcd(n1, n2)
    return g, exact_pvalues_for_scaled(np.arange(0, n1 * n2 + 1, g), n1, n2)


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

    Each replicate draws from its own child of the master seed, all spawned
    before any replicate runs, and reads its p-values from one table of
    every attainable scaled statistic at (n1, n2), built once. So the
    replicates run in contiguous ranges across the usable CPUs (``_parts``,
    above _INJECT_PART_ROWS tested rows a part) and the report is the same
    for any number of parts.
    """
    kind = _row_kind(mode, _PAIR_ROWS)
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

    # Ordering and per-row sd estimates come from the first part only; the
    # ordering is then enforced on the second part.
    ordering = variance_ordering(sub1)
    n_rows = ordering.n_pairs
    if config.n_modified > n_rows:
        raise ValidationError(
            f"n_modified ({config.n_modified}) exceeds the {n_rows} testable rows"
        )
    targets = np.sort(rng.choice(n_rows, size=config.n_modified, replace=False)).astype(np.int64)

    # Each half, and then each set of rows, is dropped once the next step
    # has what it needs, so about one half of the matrix is held at a time.
    rows1, _ = rows_under_test(sub1, kind, ordering)
    del sub1
    sds = np.sqrt(_kernels.row_variances(rows1))
    effects = config.effect_multiplier * sds[targets]

    sub2 = _spiked(select_arrays(matrix, cols2), even_rank_genes(ordering)[targets], effects)
    rows2, _ = rows_under_test(sub2, kind, ordering)
    del sub2
    truth = np.zeros(n_rows, dtype=bool)
    truth[targets[effects != 0.0]] = True

    # The statistic depends only on each pooled row's order: rank the rows
    # once, then each replicate sorts just the ranks it draws. Arrays run
    # along axis 0, so a draw gathers whole rows of ranks.
    pooled = np.concatenate([rows1, rows2], axis=1)
    del rows1, rows2
    ranks = _kernels.dense_ranks(pooled)
    del pooled
    ranks = np.ascontiguousarray(ranks.T)
    threshold = min(config.pfer / n_rows, 1.0)
    # every replicate tests at (n1, n2): one table serves them all
    g, p_of = _scaled_pvalue_table(config.n1, config.n2)
    children = ss.spawn(config.replicates)

    def replicate(r: int) -> tuple[int, int, float]:
        crng = np.random.default_rng(children[r])
        g1 = crng.choice(s1, size=config.n1, replace=False)
        g2 = crng.choice(s2, size=config.n2, replace=False)
        scaled, _ = _kernels.ks_scaled_batch(ranks[g1].T, ranks[s1 + g2].T)
        rep = confusion_counts(extended_bonferroni(p_of[scaled // g], config.pfer), truth)
        return rep.fp, rep.tp, rep.fdr

    records = _parts._map_in_parts(replicate, config.replicates, _REPLICATE,
                                   config.replicates * n_rows, _INJECT_PART_ROWS)
    fp, tp, fdr = (records[name].copy() for name in _REPLICATE.names)
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
    values = _row_values(source)
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
    """The rows tested in each of two phenotypes on one gene universe, and
    their labels.

    In delta mode the ordering is estimated on the pooled arrays and enforced
    on both phenotypes so row i is the same gene pair in each.
    """
    kind = _row_kind(mode, _SCREEN_ROWS)
    if a.gene_ids != b.gene_ids:
        raise ValidationError("matrices must share one gene universe (same ids, same order)")
    ordering = variance_ordering((a.values, b.values)) if kind == "delta" else None
    rows_a, row_ids = rows_under_test(a, kind, ordering)
    return rows_a, rows_under_test(b, kind, ordering).values, row_ids


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
    _check_alpha(alpha)
    rows_a, rows_b, row_ids = _two_sample_rows(a, b, mode)
    n1 = rows_a.shape[1]
    n2 = rows_b.shape[1]
    scaled, _ = _kernels.ks_scaled_batch(rows_a, rows_b)
    p = exact_pvalues_for_scaled(scaled, n1, n2)
    return ExceedanceResult(mode, alpha, n1, n2, float((p <= alpha).mean()),
                            row_ids, scaled / (n1 * n2), p)


def two_sample_screen(a: ExpressionMatrix, b: ExpressionMatrix, mode: str,
                      pfer: float) -> tuple[RejectionReport, tuple[str, ...]]:
    """Screen every row for a cross-phenotype difference under PFER control.
    ``pfer`` is checked before any row is built."""
    _check_positive("pfer", pfer)
    rows_a, rows_b, row_ids = _two_sample_rows(a, b, mode)
    scaled, _ = _kernels.ks_scaled_batch(rows_a, rows_b)
    p = exact_pvalues_for_scaled(scaled, rows_a.shape[1], rows_b.shape[1])
    return extended_bonferroni(p, pfer), row_ids
