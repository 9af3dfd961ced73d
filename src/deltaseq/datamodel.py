r"""Expression matrix container plus TSV ingestion, transforms, and selection.

Matrices are genes-as-rows, arrays-as-columns. The TSV layout is UTF-8 text,
one gene per line, first column the gene id, remaining columns float values,
with an optional header row naming the arrays. A line ends at \n or at the
end of the file, one \r before that end dropped; any other line break
str.splitlines knows (a lone \r, \x0b, \x0c, \x1c-\x1e, \x85, U+2028,
U+2029) inside a line is a ParseError. Trailing blank lines are ignored. The
writer emits shortest round-tripping float representations and refuses,
with ValidationError, an id the loader would not read back (a repeated or
empty id, one holding a tab, a line break or a lone surrogate, or one
beginning or ending with whitespace), so write/load is an exact identity
for every table it writes.

The loader splits each line of a chunk once into gene id and value text and
parses all the chunk's values with one np.loadtxt call. It keeps that result
only when every line gave a row, the width matches the header, and every
value is finite; then the values are exactly those float() gives. Otherwise
it parses that chunk again line by line with float(), which reads the cells
np.loadtxt rejects (``1_0``) or raises ParseError with the line and column,
or byte offset, of the chunk's first fault: the first fault in the file is
the one named.

Both directions work in row chunks, so neither holds a second copy of the
table. A load parses about _LOAD_BLOCK_BYTES of text at a time straight into
one values array, which the matrix then keeps without a copy: at its peak it
holds the file's bytes, the values and one chunk's temporaries. A save
(``table_to_tsv``, which returns the UTF-8 bytes) formats _WRITE_BLOCK_CELLS
values at a time into one buffer sized once for the whole text: at its peak
it holds the values, the text's bytes (up to 1/32 more, reserved) and one
chunk's temporaries. ``matrix_to_tsv`` decodes the bytes for callers that
want a string.

A large table is parsed and formatted in contiguous row parts, one per
usable CPU, the parts after the first in forked children (``_parts``, whose
docstring says when and how a part forks; the floors are under "Large tables
in row parts" below). The bytes and values are the same for any number of
parts; one part forks nothing, and a part whose child fails runs again in
this process.

A table of at least 1 MiB is parsed once per content: the parsed ids and
values go to a verified binary entry in the user's cache directory, keyed
by the SHA-256 of the file's bytes, the header flag and the parser's
identity, and a later load of the same bytes, in any process, reads the
entry in place of parsing (``_tablecache``). A hit gives the same ids and
values bit for bit and passes the same checks; at its peak it holds the
file's bytes or the values, not both. No report depends on the cache, and
a cache that cannot be used only costs the parse.
"""

from __future__ import annotations

import hashlib
import io
import math
import mmap
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _parts, _tablecache
from .errors import DomainError, ParseError, StateError, ValidationError, _check_positive

MIN_GENES = 2
MIN_ARRAYS = 4


class _Labels(tuple):
    """Ids as a record holds them: str, distinct and nonempty, as
    ``_check_labels`` returns them or as a record derives them from such
    ids. They are checked where they enter and not scanned again: a record
    built from another's ids and the writer take them as they are."""

    __slots__ = ()


def _check_labels(values: np.ndarray, row_ids: Sequence[str], col_ids: Sequence[str],
                  rows: str = "row", columns: str = "column") -> tuple[_Labels, _Labels]:
    """The row and column ids as ``_Labels``; ValidationError for values
    that are not 2-d, or on either axis ids whose count differs from the
    values', a repeated id or an empty one. ``_Labels`` whose count matches
    are returned as they are."""
    if values.ndim != 2:
        raise ValidationError("values must be a 2-d array")
    out = []
    for ids, kind, size, axis in ((row_ids, rows, values.shape[0], "rows"),
                                  (col_ids, columns, values.shape[1], "columns")):
        if len(ids) != size:
            raise ValidationError(f"{kind} ids: {len(ids)} for {size} {axis}")
        if type(ids) is _Labels:
            out.append(ids)
            continue
        ids = _Labels(map(str, ids))
        if len(set(ids)) != size:
            seen: set[str] = set()
            for i in ids:
                if i in seen:
                    raise ValidationError(f"duplicate {kind} id: {i!r}")
                seen.add(i)
        if "" in ids:
            raise ValidationError(f"empty {kind} id")
        out.append(ids)
    return out[0], out[1]


def _frozen(record, **fields):
    """``record``, a frozen dataclass instance, with ``fields`` set and each
    array among them made read-only: how every record takes its checked
    values."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(record, name, value)
    return record


@dataclass(frozen=True)
class ExpressionMatrix:
    """Immutable m x n matrix of per-gene, per-array expression values.

    Invariants enforced at construction: all values finite, distinct gene and
    array ids, m >= 2 genes and n >= 4 arrays. ``log_scale`` records whether
    values are already on a log scale. ``sha256`` is the hex SHA-256 of the
    file bytes ``load_matrix`` read the matrix from, and None for a matrix
    constructed or derived from another.
    """

    gene_ids: tuple[str, ...]
    array_ids: tuple[str, ...]
    values: np.ndarray
    log_scale: bool = False
    sha256: str | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._seal(self.gene_ids, self.array_ids, np.array(self.values, dtype=np.float64, copy=True),
                   finite=False)

    @classmethod
    def _adopt(cls, gene_ids: Sequence[str], array_ids: Sequence[str], values: np.ndarray,
               log_scale: bool, finite: bool = True,
               sha256: str | None = None) -> ExpressionMatrix:
        """A matrix over ``values`` itself: a float64 array that nothing else
        holds. The id and shape checks still run and the copy does not; nor
        does the finiteness pass while ``finite`` says every value is already
        known finite (the loader's checked values, a matrix's gathered ones).
        ``sha256`` is given by the loader alone."""
        matrix = _frozen(cls.__new__(cls), log_scale=log_scale, sha256=sha256)
        matrix._seal(gene_ids, array_ids, values, finite=finite)
        return matrix

    def _seal(self, gene_ids: Sequence[str], array_ids: Sequence[str], values: np.ndarray,
              finite: bool) -> None:
        gene_ids, array_ids = _check_labels(values, gene_ids, array_ids, "gene", "array")
        m, n = values.shape
        if m < MIN_GENES:
            raise ValidationError(f"need at least {MIN_GENES} genes, got {m}")
        if n < MIN_ARRAYS:
            raise ValidationError(f"need at least {MIN_ARRAYS} arrays, got {n}")
        if not finite and not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))[0]
            raise ValidationError(
                f"non-finite value at gene {gene_ids[bad[0]]!r}, "
                f"array {array_ids[bad[1]]!r}"
            )
        _frozen(self, gene_ids=gene_ids, array_ids=array_ids, values=values)

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
        _check_positive("noise sd", self.sd, allow_zero=True)


def load_matrix(path: str | Path, *, has_header: bool = True, log_scale: bool = False) -> ExpressionMatrix:
    """Parse a UTF-8 TSV file into an ExpressionMatrix.

    Raises ParseError naming the 1-based line number for structural problems
    and ValidationError for id or shape violations. The file is read and
    its bytes hashed once: the matrix's ``sha256`` is their digest, and the
    cache key continues from it (a damaged cache entry costs one more read,
    whose bytes are parsed and hashed in their turn). A table of at least
    ``_tablecache._CACHE_FLOOR_BYTES`` that this parser has read before is
    taken from the parsed-table cache (``_tablecache``), with the same ids
    and values bit for bit and the same checks.
    """
    path = Path(path)
    data = _read(path)
    digest = hashlib.sha256(data)
    entry = _tablecache._entry_path(digest, len(data), has_header)
    if entry is not None and entry.is_file():
        del data  # the text's bytes are freed before the entry is read
        table = _tablecache._read_entry(entry)
        if table is not None:
            return ExpressionMatrix._adopt(*table, log_scale, finite=False,
                                           sha256=digest.hexdigest())
        data = _read(path)  # a damaged entry: parse the text, and write it again
        digest = hashlib.sha256(data)
        entry = _tablecache._entry_path(digest, len(data), has_header)
    matrix = ExpressionMatrix._adopt(*_parse_bulk(path, data, has_header), log_scale,
                                     sha256=digest.hexdigest())
    del data
    if entry is not None:
        _tablecache._store_entry(entry, matrix.gene_ids, matrix.array_ids, matrix.values)
    return matrix


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _parse_bulk(path: Path, data: bytes, has_header: bool) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Gene ids, array ids and values of a table, or ParseError for its
    first fault in file order.

    The body runs from the line after the header to the end of the last line
    holding a non-blank character; it is cut into parts right after a
    newline, in forked children for a large table, and each part into chunks
    of about _LOAD_BLOCK_BYTES, again right after a newline. Each chunk is
    decoded, split and parsed on its own (``_parse_rows``, or
    ``_parse_lines`` where that cannot) and its values written into the one
    output array at the chunk's row, so a part holds one chunk of
    temporaries at a time. Cutting after a newline keeps UTF-8 characters
    and CRLF pairs whole, so the chunks' lines are the table's lines, one
    row each.
    """
    stop = _content_end(data)
    if stop == 0:
        raise ParseError(f"{path}: file is empty")
    first = data.find(b"\n", 0, stop)
    start = 0
    if has_header:
        header = _line(path, data, 0, stop if first < 0 else first, 1).split("\t")
        if len(header) < 2:
            raise ParseError(f"{path}: line 1: header must name at least one array column")
        if first < 0 or first + 1 == stop:
            raise ParseError(f"{path}: no data rows after the header")
        start = first + 1
        array_ids = tuple(c.strip() for c in header[1:])
    else:
        width = data.count(b"\t", 0, stop if first < 0 else first)
        array_ids = tuple(f"A{i + 1}" for i in range(width))
    width = len(array_ids)

    k = _parts._part_count(stop - start, _LOAD_PART_BYTES)
    cuts = [start]
    for i in range(1, k):
        # the start of the first line at or after the even cut
        cut = data.find(b"\n", start + (stop - start) * i // k - 1, stop) + 1
        if cuts[-1] < cut < stop:
            cuts.append(cut)
    cuts.append(stop)
    # each part's first row: one row per newline, one more for a last line without
    ends = [0]
    for lo, hi in zip(cuts, cuts[1:]):
        ends.append(ends[-1] + data.count(b"\n", lo, hi))
    if data[stop - 1] != 0x0A:
        ends[-1] += 1
    if len(cuts) > 2 and width:  # children write their rows into memory shared with this process
        values = np.frombuffer(mmap.mmap(-1, ends[-1] * width * 8), dtype=np.float64)
        values = values.reshape(ends[-1], width)
    else:
        values = np.empty((ends[-1], width))
    view = memoryview(data)

    def part(i: int, out: io.BytesIO) -> None:
        lo, hi, row = cuts[i], cuts[i + 1], ends[i]
        while lo < hi:
            cut = data.find(b"\n", lo + _LOAD_BLOCK_BYTES - 1, hi) + 1 or hi
            rows = data.count(b"\n", lo, cut) + (data[cut - 1] != 0x0A)
            ids = _parse_rows(view[lo:cut], values[row : row + rows])
            if ids is None:
                ids = _parse_lines(path, data, lo, cut, values, row, has_header)
            out.write(("\n".join(ids) + "\n").encode("utf-8"))
            lo, row = cut, row + rows

    ids = _parts._in_parts(part, len(cuts) - 1)
    # gene ids come from split lines, so none holds a newline
    return tuple(ids.decode("utf-8").split("\n")[:-1]), array_ids, values


def _content_end(data: bytes) -> int:
    """The end of the last line of ``data`` holding a non-blank character,
    past its newline if it has one; 0 when there is none. Trailing blank
    lines, whitespace such as ``\\xa0`` included, are left out."""
    end = len(data)
    while end:
        tail = data[max(0, end - 4096) : end]
        kept = len(tail.rstrip())  # ASCII whitespace only
        end -= len(tail) - kept
        if kept:
            lo = data.rfind(b"\n", 0, end) + 1
            if data[lo:end].decode("utf-8", "replace").strip():
                return data.find(b"\n", end) + 1 or len(data)
            end = lo
    return 0


# The line breaks str.splitlines knows besides \n; inside a line each is a
# fault, and an id the writer would not write.
_BREAKS = r"\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
_LINE_BREAK = re.compile(f"[{_BREAKS}]")


def _line(path: Path, data: bytes, lo: int, hi: int, lineno: int) -> str:
    """The text of line ``lineno``, ``data[lo:hi]`` without its newline,
    less one ``\\r`` at its end; ParseError for a byte that is not UTF-8,
    named by its offset in the file, or a line break inside the line."""
    try:
        line = data[lo:hi].decode("utf-8")
    except UnicodeDecodeError as exc:
        at = lo + exc.start
        raise ParseError(f"{path}: not UTF-8 text: byte {data[at]:#04x} at offset {at}") from None
    if line.endswith("\r"):
        line = line[:-1]
    found = _LINE_BREAK.search(line)
    if found:
        raise ParseError(f"{path}: line {lineno}: line break {found.group()!r} inside a line; "
                         "a line ends at \\n or \\r\\n")
    return line


def _parse_rows(text: memoryview, out: np.ndarray) -> list[str] | None:
    """Gene ids of UTF-8 table lines, one row a line, their values written
    into ``out``; or None, with nothing written, when the chunk needs
    ``_parse_lines``.

    One np.loadtxt call parses every value. Where it accepts a cell, it
    gives the double float() gives; it rejects some cells float() accepts
    (``1_0``, non-ASCII digits), and those chunks take ``_parse_lines``.
    str.splitlines also splits at the other line breaks, so the lines number
    ``len(out)``, one per newline (a last line given one), only when no line
    holds such a break.
    """
    gene_ids: list[str] = []
    rests: list[str] = []
    try:
        chunk = str(text, "utf-8")
        for line in (chunk if chunk.endswith("\n") else chunk + "\n").splitlines():
            gid, rest = line.split("\t", 1)
            gene_ids.append(gid.strip())
            rests.append(rest)
        if not any(rests):  # nothing to parse; np.loadtxt would warn
            return None
        values = np.loadtxt(rests, delimiter="\t", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:  # UnicodeDecodeError included
        return None
    # np.loadtxt skips empty lines, such as the rest of a "g\t" row.
    if len(rests) != len(out) or values.shape != out.shape or not np.isfinite(values).all():
        return None
    out[:] = values
    return gene_ids


def _parse_lines(path: Path, data: bytes, lo: int, hi: int, values: np.ndarray, row: int,
                 has_header: bool) -> list[str]:
    """Gene ids of the table lines ``data[lo:hi]``, the first of them body
    row ``row``, their values read one by one by float() into ``values``
    from that row on: the parse of a chunk ``_parse_rows`` cannot take.
    Raises ParseError for the chunk's first fault, naming its line and
    column, or its byte offset."""
    width = values.shape[1]
    gene_ids: list[str] = []
    while lo < hi:
        end = data.find(b"\n", lo, hi)
        if end < 0:  # a last line without a newline
            end = hi
        ln = row + 1 + has_header
        line = _line(path, data, lo, end, ln)
        if line.strip() == "":
            raise ParseError(f"{path}: line {ln}: blank line inside table")
        cells = line.split("\t")
        if len(cells) < 2:
            raise ParseError(f"{path}: line {ln}: expected gene id and values, got {len(cells)} column(s)")
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
        if len(vals) != width:
            if has_header and row == 0:
                raise ParseError(f"{path}: line {ln}: row has {len(vals)} values but header names {width} arrays")
            raise ParseError(f"{path}: line {ln}: row has {len(vals)} values, expected {width}")
        values[row] = vals
        gene_ids.append(cells[0].strip())
        lo, row = end + 1, row + 1
    return gene_ids


def matrix_to_tsv(matrix: ExpressionMatrix) -> str:
    """The text save_matrix writes, as a string; byte-stable."""
    return table_to_tsv(matrix.gene_ids, matrix.array_ids, matrix.values).decode("utf-8")


def table_to_tsv(row_ids: Sequence[str], col_ids: Sequence[str], values: np.ndarray) -> bytes:
    """The UTF-8 TSV layout load_matrix reads: a ``gene_id`` header naming
    the columns, then one line per row, each value by ``repr``.

    Rows are formatted _WRITE_BLOCK_CELLS values at a time, each chunk
    encoded and appended to the result, so the text exists once, as bytes.
    Raises ValidationError, before formatting anything, for values that are
    not 2-d, ids whose count differs from theirs, a repeated or empty id, and
    the first column or row id the loader would not read back. A record's
    own ids (``_Labels``, as ``save_matrix``, ``delta_to_tsv`` and ``synth``
    pass them) were checked distinct and nonempty where they entered, and
    are not scanned for that again.
    """
    values = np.asarray(values, dtype=np.float64)
    if not (type(row_ids) is type(col_ids) is _Labels
            and values.shape == (len(row_ids), len(col_ids))):
        _check_labels(values, row_ids, col_ids)
    _check_writable_ids(col_ids, "column")
    _check_writable_ids(row_ids, "row")
    m = values.shape[0]
    k = max(1, min(_parts._part_count(values.size, _WRITE_PART_CELLS), m))  # no part without rows
    bounds = [m * i // k for i in range(k + 1)]
    step = max(1, _WRITE_BLOCK_CELLS // max(1, values.shape[1]))

    def rows_text(i: int, out: io.BytesIO) -> None:
        if i == 0:
            out.write(("gene_id\t" + "\t".join(col_ids) + "\n").encode("utf-8"))
        # Room, in one allocation, for the rows this buffer ends up holding
        # (part 0's gets every part's), at the bytes a row of an evenly
        # spaced sample of them, plus 1/32.
        held = range(m) if i == 0 else range(bounds[i], bounds[i + 1])
        if len(held) > step:
            sample = list(held[:: max(1, len(held) // 64)])
            probe = io.BytesIO()
            _write_rows(probe, [row_ids[r] for r in sample], values[sample])
            size = probe.tell() * len(held) // len(sample)
            _reserve(out, out.tell() + size + size // 32)
        for lo in range(bounds[i], bounds[i + 1], step):
            hi = min(lo + step, bounds[i + 1])
            _write_rows(out, row_ids[lo:hi], values[lo:hi])

    return _parts._in_parts(rows_text, k)


def _write_rows(out: io.BytesIO, row_ids: Sequence[str], values: np.ndarray) -> None:
    """Append the TSV lines of some rows to ``out``, one encoded line at a time."""
    # repr of a Python float is the shortest string that reads back exactly.
    out.writelines((rid + "\t" + "\t".join(map(repr, row)) + "\n").encode("utf-8")
                   for rid, row in zip(row_ids, values.tolist()))


# An id the loader would not read back: one holding a character its line
# split splits at (a tab, or a line break as str.splitlines knows them) or a
# lone surrogate, which UTF-8 cannot encode, or one beginning or ending with
# whitespace, which its strip drops.
_UNWRITABLE_ID = re.compile(rf"[\t\n{_BREAKS}\ud800-\udfff]|^\s|\s\Z")


def _check_writable_ids(ids: Sequence[str], kind: str) -> None:
    joined = "".join(ids)
    if joined.isascii() and joined.split(maxsplit=1) == [joined]:  # no whitespace at all
        return
    for i in ids:
        if _UNWRITABLE_ID.search(i):
            raise ValidationError(
                f"{kind} id {i!r} would not read back: an id may not hold a tab, a line "
                "break or a lone surrogate, nor begin or end with whitespace")


def save_matrix(matrix: ExpressionMatrix, path: str | Path) -> None:
    Path(path).write_bytes(table_to_tsv(matrix.gene_ids, matrix.array_ids, matrix.values))


# ---------------------------------------------------------------------------
# Large tables in row parts across the usable CPUs (see ``_parts``).
#
# On a 2-vCPU Xeon, for the 35 MB paper-scale table in two parts, a split
# cost 0.04 s of CPU on a 0.36 s load and 0.06 s on a 0.85 s write, so a part
# is worth a child only above a floor of work: _LOAD_PART_BYTES of file text,
# _WRITE_PART_CELLS of values to format. Smaller tables stay serial.
#
# The load floor was set there from the first load of a fresh process, as a
# CLI command makes it, in alternating pairs: two parts lost on the 6 and 12
# MB tables of the KS benchmark and on 14 MiB of the full-precision
# paper-scale table, and won from 16 MiB on. In a process that had already
# loaded the same table, two parts won from 3 MiB on, so a warm in-process
# timing does not set this floor. Measured again the same way, with the
# parsed-table cache off, 12 alternating pairs each (medians): only the win
# from 16 MiB on reproduced (151 against 229 ms, 12 of 12 pairs). Two parts
# also won on the 6 and 12 MB tables (68 against 81 ms and 105 against
# 150 ms, 11 of 12 pairs each) and on 14 MiB (124 against 196 ms, 12 of 12).
# The floor stays until a benchmark shows the gain: with the cache, each
# table's text is parsed once, not once per command.
# ---------------------------------------------------------------------------

_LOAD_PART_BYTES = 8 << 20
_WRITE_PART_CELLS = 1 << 18
# Within a part, the rows parsed or formatted at a time: each chunk's
# temporaries (lines, strings, Python floats) are freed before the next. On
# the paper-scale table these sizes were as fast as 1 MiB and 64Ki values.
_LOAD_BLOCK_BYTES = 1 << 18
_WRITE_BLOCK_CELLS = 1 << 14


def _reserve(out: io.BytesIO, size: int) -> None:
    """Give ``out`` room for ``size`` bytes in one allocation, keeping its
    position; the caller truncates it at the position once done.

    Grown a chunk at a time, a buffer of many MB is copied each time it
    outgrows its block, and the old blocks' pages stay resident: 20 MB
    more at the peak for the 35 MB paper-scale table.
    """
    pos = out.tell()
    if size > pos:
        out.seek(size - 1)
        out.write(b"\0")
        out.seek(pos)


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


def _checked_columns(indices: Sequence[int], n: int) -> list[int]:
    """``indices`` as ints, refused unless distinct, each in [0, n), and at
    least MIN_ARRAYS."""
    idx = [int(i) for i in indices]
    if len(set(idx)) != len(idx):
        raise ValidationError("array indices must be distinct")
    for i in idx:
        if not (0 <= i < n):
            raise ValidationError(f"array index {i} out of range [0, {n})")
    if len(idx) < MIN_ARRAYS:
        raise ValidationError(f"need at least {MIN_ARRAYS} array indices, got {len(idx)}")
    return idx


def select_arrays(matrix: ExpressionMatrix, indices: Sequence[int]) -> ExpressionMatrix:
    """Column projection in the order given; indices must be distinct, in
    bounds, and number at least MIN_ARRAYS."""
    idx = _checked_columns(indices, matrix.n_arrays)
    # distinct columns of distinct ids
    return ExpressionMatrix._adopt(matrix.gene_ids, _Labels(matrix.array_ids[i] for i in idx),
                                   matrix.values[:, idx], matrix.log_scale)
