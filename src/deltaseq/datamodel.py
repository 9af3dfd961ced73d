"""Expression matrix container plus TSV ingestion, transforms, and selection.

Matrices are genes-as-rows, arrays-as-columns. The TSV layout is UTF-8 text,
one gene per line, first column the gene id, remaining columns float values,
with an optional header row naming the arrays. The writer emits shortest
round-tripping float representations, so write/load is an exact identity.

The loader splits each line once into gene id and value text and parses all
values with one np.loadtxt call. It keeps that result only when every line
gave a row, the width matches the header, and every value is finite; then
the values are exactly those float() gives. Otherwise the line-by-line
parser parses the lines again, and it alone raises ParseError with the line
and column of the first fault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError, ParseError, StateError, ValidationError

MIN_GENES = 2
MIN_ARRAYS = 4


def _check_ids(ids: Sequence[str], kind: str) -> tuple[str, ...]:
    out = tuple(str(i) for i in ids)
    if len(set(out)) != len(out):
        seen: set[str] = set()
        for i in out:
            if i in seen:
                raise ValidationError(f"duplicate {kind} id: {i!r}")
            seen.add(i)
    if any(i == "" for i in out):
        raise ValidationError(f"empty {kind} id")
    return out


@dataclass(frozen=True)
class ExpressionMatrix:
    """Immutable m x n matrix of per-gene, per-array expression values.

    Invariants enforced at construction: all values finite, distinct gene and
    array ids, m >= 2 genes and n >= 4 arrays. ``log_scale`` records whether
    values are already on a log scale.
    """

    gene_ids: tuple[str, ...]
    array_ids: tuple[str, ...]
    values: np.ndarray
    log_scale: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "gene_ids", _check_ids(self.gene_ids, "gene"))
        object.__setattr__(self, "array_ids", _check_ids(self.array_ids, "array"))
        values = np.array(self.values, dtype=np.float64, copy=True)
        if values.ndim != 2:
            raise ValidationError("values must be a 2-d array")
        m, n = values.shape
        if m < MIN_GENES:
            raise ValidationError(f"need at least {MIN_GENES} genes, got {m}")
        if n < MIN_ARRAYS:
            raise ValidationError(f"need at least {MIN_ARRAYS} arrays, got {n}")
        if m != len(self.gene_ids):
            raise ValidationError("gene_ids length does not match row count")
        if n != len(self.array_ids):
            raise ValidationError("array_ids length does not match column count")
        if not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))[0]
            raise ValidationError(
                f"non-finite value at gene {self.gene_ids[bad[0]]!r}, "
                f"array {self.array_ids[bad[1]]!r}"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n_genes(self) -> int:
        return self.values.shape[0]

    @property
    def n_arrays(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class NoiseModel:
    """Additive zero-mean Gaussian noise specification.

    ``kind`` is ``"gene-array"`` (independent draw per cell) or
    ``"array-only"`` (one draw per array, shared by every gene on it).
    """

    kind: str
    sd: float

    KINDS = ("gene-array", "array-only")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValidationError(f"noise kind must be one of {self.KINDS}, got {self.kind!r}")
        if not (self.sd >= 0.0 and math.isfinite(self.sd)):
            raise ValidationError(f"noise sd must be finite and >= 0, got {self.sd}")


def load_matrix(path: str | Path, *, has_header: bool = True, log_scale: bool = False) -> ExpressionMatrix:
    """Parse a UTF-8 TSV file into an ExpressionMatrix.

    Raises ParseError naming the 1-based line number for structural problems
    and ValidationError for id or shape violations.
    """
    path = Path(path)
    lines = _read_lines(path)
    body = lines[1:] if has_header else lines
    bulk = _parse_bulk(body)
    if bulk is not None:
        gene_ids, values = bulk
        if has_header:
            array_ids = [c.strip() for c in lines[0].split("\t")[1:]]
        else:
            array_ids = [f"A{i + 1}" for i in range(values.shape[1])]
        if values.shape[1] == len(array_ids):
            del lines, body  # free the text before ExpressionMatrix copies the values
            return ExpressionMatrix(tuple(gene_ids), tuple(array_ids), values, log_scale)
    return _load_lines(path, lines, has_header=has_header, log_scale=log_scale)


def _read_lines(path: Path) -> list[str]:
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text: byte {data[exc.start]:#04x} at offset {exc.start}"
        ) from None
    del data
    lines = text.splitlines()
    # Trailing blank lines are tolerated; interior blanks are not.
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise ParseError(f"{path}: file is empty")
    return lines


def _parse_bulk(body: list[str]) -> tuple[list[str], np.ndarray] | None:
    """Gene ids and values of the body lines, or None when a line needs the
    line parser's diagnosis.

    One np.loadtxt call parses every value. Where it accepts a cell, it
    gives the double float() gives; it rejects some cells float() accepts
    (``1_0``, non-ASCII digits), and those files take the line parser.
    """
    gene_ids: list[str] = []
    rests: list[str] = []
    try:
        for line in body:
            gid, rest = line.split("\t", 1)
            gene_ids.append(gid.strip())
            rests.append(rest)
        if not any(rests):  # nothing to parse; np.loadtxt would warn
            return None
        values = np.loadtxt(rests, delimiter="\t", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    # np.loadtxt skips empty lines, such as the rest of a "g\t" row.
    if values.shape[0] != len(body) or not np.isfinite(values).all():
        return None
    return gene_ids, values


def _load_lines(path: Path, lines: list[str], *, has_header: bool, log_scale: bool) -> ExpressionMatrix:
    """Line-by-line parser: the reference for load_matrix's values, and the
    source of every ParseError with its line and column numbers."""
    lineno = 1
    array_ids: list[str] | None = None
    if has_header:
        header = lines[0].split("\t")
        if len(header) < 2:
            raise ParseError(f"{path}: line 1: header must name at least one array column")
        array_ids = [c.strip() for c in header[1:]]
        body = lines[1:]
        lineno = 2
    else:
        body = lines
    if not body:
        raise ParseError(f"{path}: no data rows after the header")

    gene_ids: list[str] = []
    rows: list[list[float]] = []
    width: int | None = None
    for offset, line in enumerate(body):
        ln = lineno + offset
        if line.strip() == "":
            raise ParseError(f"{path}: line {ln}: blank line inside table")
        cells = line.split("\t")
        if len(cells) < 2:
            raise ParseError(f"{path}: line {ln}: expected gene id and values, got {len(cells)} column(s)")
        gid = cells[0].strip()
        vals = []
        for col, cell in enumerate(cells[1:], start=2):
            cell = cell.strip()
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(f"{path}: line {ln}: column {col}: not a number: {cell!r}") from None
            if not math.isfinite(v):
                raise ParseError(f"{path}: line {ln}: column {col}: non-finite value {cell!r}")
            vals.append(v)
        if width is None:
            width = len(vals)
            if array_ids is not None and width != len(array_ids):
                raise ParseError(
                    f"{path}: line {ln}: row has {width} values but header names {len(array_ids)} arrays"
                )
        elif len(vals) != width:
            raise ParseError(f"{path}: line {ln}: row has {len(vals)} values, expected {width}")
        gene_ids.append(gid)
        rows.append(vals)

    if array_ids is None:
        array_ids = [f"A{i + 1}" for i in range(width or 0)]
    return ExpressionMatrix(tuple(gene_ids), tuple(array_ids), np.array(rows, dtype=np.float64), log_scale)


def matrix_to_tsv(matrix: ExpressionMatrix) -> str:
    """Serialize to the TSV layout accepted by load_matrix; byte-stable."""
    return table_to_tsv(matrix.gene_ids, matrix.array_ids, matrix.values)


def table_to_tsv(row_ids: Sequence[str], col_ids: Sequence[str], values: np.ndarray) -> str:
    lines = ["gene_id\t" + "\t".join(col_ids)]
    # repr of a Python float is the shortest string that reads back exactly.
    lines.extend(rid + "\t" + "\t".join(map(repr, row))
                 for rid, row in zip(row_ids, np.asarray(values, dtype=np.float64).tolist()))
    return "\n".join(lines) + "\n"


def save_matrix(matrix: ExpressionMatrix, path: str | Path) -> None:
    Path(path).write_text(matrix_to_tsv(matrix), encoding="utf-8")


def log_transform(matrix: ExpressionMatrix, base: float = 2.0) -> ExpressionMatrix:
    """Elementwise log with the given base (> 1); requires strictly positive values.

    No normalization is applied. Raises StateError if the matrix is already
    on a log scale and DomainError naming the first offending cell otherwise.
    """
    if matrix.log_scale:
        raise StateError("matrix is already log-scale")
    if not (base > 1.0 and math.isfinite(base)):
        raise ValidationError(f"log base must be finite and > 1, got {base}")
    if (matrix.values <= 0).any():
        bad = np.argwhere(matrix.values <= 0)[0]
        raise DomainError(
            f"non-positive value at gene {matrix.gene_ids[bad[0]]!r}, "
            f"array {matrix.array_ids[bad[1]]!r}: {matrix.values[bad[0], bad[1]]!r}"
        )
    out = np.log(matrix.values) / math.log(base)
    return ExpressionMatrix(matrix.gene_ids, matrix.array_ids, out, log_scale=True)


def select_arrays(matrix: ExpressionMatrix, indices: Sequence[int]) -> ExpressionMatrix:
    """Column projection in the order given; indices must be distinct, in
    bounds, and number at least MIN_ARRAYS."""
    idx = [int(i) for i in indices]
    if len(idx) < MIN_ARRAYS:
        raise ValidationError(f"need at least {MIN_ARRAYS} array indices, got {len(idx)}")
    if len(set(idx)) != len(idx):
        raise ValidationError("array indices must be distinct")
    n = matrix.n_arrays
    for i in idx:
        if not (0 <= i < n):
            raise ValidationError(f"array index {i} out of range [0, {n})")
    return ExpressionMatrix(
        matrix.gene_ids,
        tuple(matrix.array_ids[i] for i in idx),
        matrix.values[:, idx],
        matrix.log_scale,
    )
