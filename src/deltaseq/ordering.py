"""Variance-based gene ordering and the paired-increment (delta) sequence.

Genes are ranked by ascending sample variance (ties broken by ascending
original index; an odd gene count drops the lowest-variance gene so the
ranking pairs up evenly). The delta sequence takes consecutive pairs along
that ranking and subtracts the lower-ranked member from the higher-ranked
one, per array. Any additive per-array disturbance shared by all genes
cancels exactly in each difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .datamodel import (MIN_ARRAYS, ExpressionMatrix, _check_labels, _checked_columns, _frozen, _Labels,
                        table_to_tsv)
from .errors import ValidationError, _check_finite
from .mtp import csv_text


@dataclass(frozen=True)
class GeneOrdering:
    """Ascending-variance gene ranking of even length.

    ``permutation[k]`` is the original row index of the gene at rank k;
    ``variances[k]`` is that gene's sample variance (ddof=1), finite and
    non-decreasing along the ranking.
    """

    permutation: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        perm = np.asarray(self.permutation, dtype=np.int64).copy()
        var = np.asarray(self.variances, dtype=np.float64).copy()
        if perm.ndim != 1 or var.ndim != 1 or perm.shape != var.shape:
            raise ValidationError("permutation and variances must be 1-d and equal length")
        if perm.shape[0] % 2 != 0 or perm.shape[0] == 0:
            raise ValidationError("ordering must have positive even length")
        if np.unique(perm).shape[0] != perm.shape[0]:
            raise ValidationError("permutation entries must be distinct")
        _check_finite("variances", var)
        if (np.diff(var) < 0).any():
            raise ValidationError("variances must be non-decreasing along the ranking")
        _frozen(self, permutation=perm, variances=var)

    @property
    def n_pairs(self) -> int:
        return self.permutation.shape[0] // 2


def variance_ordering(matrix: ExpressionMatrix | np.ndarray | tuple,
                      columns: np.ndarray | None = None) -> GeneOrdering:
    """Rank rows by ascending sample variance, over ``columns`` only when
    given; drop the lowest-variance row when the count is odd.

    ``matrix`` may be a tuple of arrays over the same genes, pooled side by
    side. The variances come a block of rows at a time from
    ``_kernels.row_variances``, which copies neither the pool nor the subset.
    ``columns`` must be distinct, in range and at least MIN_ARRAYS, as
    ``select_arrays`` needs; with no ``columns`` the pool must be as wide.
    Every array must be 2-d, and a pool's parts must have one row count."""
    values = getattr(matrix, "values", matrix)
    shapes = [np.shape(part) for part in (values if isinstance(values, tuple) else (values,))]
    if any(len(shape) != 2 for shape in shapes) or len({shape[:1] for shape in shapes}) > 1:
        raise ValidationError(f"values must be 2-d with one row count, got shapes {shapes}")
    width = sum(shape[1] for shape in shapes)
    if columns is not None:
        columns = _checked_columns(columns, width)
    elif width < MIN_ARRAYS:
        raise ValidationError(f"need at least {MIN_ARRAYS} arrays, got {width}")
    var = _kernels.row_variances(values, columns)
    order = np.argsort(var, kind="stable")
    if order.shape[0] % 2 != 0:
        order = order[1:]
    if order.shape[0] == 0:
        raise ValidationError("ordering must have positive even length")
    # A stable argsort of the variances is distinct and non-decreasing by
    # construction, so the constructor's copies and checks are skipped.
    return _frozen(object.__new__(GeneOrdering), permutation=order, variances=var[order])


@dataclass(frozen=True)
class DeltaMatrix:
    """Per-array differences for consecutive ranked gene pairs.

    Row i is gene at rank 2i+1 minus gene at rank 2i (0-based ranks), i.e.
    the higher-variance member of the pair minus the lower. There is one
    row id per row and one array id per column, each distinct and nonempty.
    """

    values: np.ndarray
    row_ids: tuple[str, ...]
    array_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64).copy()
        row_ids, array_ids = _check_labels(values, self.row_ids, self.array_ids, "row", "array")
        _frozen(self, values=values, row_ids=row_ids, array_ids=array_ids)

    @property
    def n_pairs(self) -> int:
        return self.values.shape[0]

    @property
    def n_arrays(self) -> int:
        return self.values.shape[1]


def delta_sequence(matrix: ExpressionMatrix, ordering: GeneOrdering) -> DeltaMatrix:
    """Build the increment rows for ``matrix`` along ``ordering``.

    The ordering may come from a different (e.g. pooled or reference) matrix
    with the same gene universe; only index bounds are checked, so a ranking
    estimated elsewhere can be enforced here.
    """
    perm = ordering.permutation
    if perm.max() >= matrix.n_genes or perm.min() < 0:
        raise ValidationError("ordering refers to gene indices outside this matrix")
    low = perm[0::2]
    high = perm[1::2]
    values = matrix.values[high]
    values -= matrix.values[low]
    ids = matrix.gene_ids
    # distinct by their pair numbers, so held as checked
    row_ids = _Labels(
        f"pair{i}:{ids[a]}-{ids[b]}"
        for i, (a, b) in enumerate(zip(low.tolist(), high.tolist()), start=1)
    )
    # The differences are a fresh array, so the constructor's copy is skipped.
    return _frozen(object.__new__(DeltaMatrix), values=values, row_ids=row_ids,
                   array_ids=matrix.array_ids)


def even_rank_genes(ordering: GeneOrdering) -> np.ndarray:
    """Original indices of the higher-variance member of each pair."""
    return ordering.permutation[1::2].copy()


ROW_KINDS = ("genes", "delta", "even")


class Rows(NamedTuple):
    """Rows under test with their labels, which a correlation summary uses to
    name a zero-variance row."""

    values: np.ndarray
    row_ids: tuple[str, ...]


def rows_under_test(matrix: ExpressionMatrix, kind: str,
                    ordering: GeneOrdering | None = None) -> Rows:
    """The rows a test reads, one of ROW_KINDS: "genes" is the matrix's own
    values (not a copy) labelled by gene id; "delta" the increment rows and
    "even" the higher-variance gene of each pair, both along ``ordering``, or
    along the matrix's own variance ordering when it is None."""
    if kind not in ROW_KINDS:
        raise ValidationError(f"rows must be one of {ROW_KINDS}, got {kind!r}")
    if kind == "genes":
        return Rows(matrix.values, matrix.gene_ids)
    if ordering is None:
        ordering = variance_ordering(matrix)
    if kind == "delta":
        dm = delta_sequence(matrix, ordering)
        return Rows(dm.values, dm.row_ids)
    idx = even_rank_genes(ordering)
    return Rows(matrix.values[idx], tuple(matrix.gene_ids[int(i)] for i in idx))


def ordering_to_csv(ordering: GeneOrdering, matrix: ExpressionMatrix) -> str:
    ids = matrix.gene_ids
    perm = ordering.permutation
    return csv_text("rank,gene_id,variance", np.arange(1, perm.shape[0] + 1),
                    [ids[i] for i in perm.tolist()], ordering.variances)


def delta_to_tsv(delta: DeltaMatrix) -> bytes:
    return table_to_tsv(delta.row_ids, delta.array_ids, delta.values)
