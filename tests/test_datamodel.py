import ast
import errno
import hashlib
import inspect
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaseq import _parts, datamodel, experiments
from deltaseq import (
    DeltaseqError,
    DomainError,
    ExpressionMatrix,
    ParseError,
    StateError,
    ValidationError,
    load_matrix,
    log_transform,
    matrix_to_tsv,
    save_matrix,
    select_arrays,
)
from deltaseq.datamodel import NoiseModel
from deltaseq.ordering import delta_sequence, delta_to_tsv, variance_ordering
from deltaseq.synth import generate_null_matrix
from helpers import ascii_locale_env, bulk_load_oracle, line_load_oracle, table_to_tsv_oracle


def small_matrix():
    values = np.arange(12, dtype=np.float64).reshape(3, 4) + 0.5
    return ExpressionMatrix(("g1", "g2", "g3"), ("a", "b", "c", "d"), values, True)


class TestExpressionMatrix:
    def test_shape_properties(self):
        m = small_matrix()
        assert m.n_genes == 3
        assert m.n_arrays == 4

    def test_values_are_read_only(self):
        m = small_matrix()
        with pytest.raises(ValueError):
            m.values[0, 0] = 99.0

    def test_duplicate_gene_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate gene id"):
            ExpressionMatrix(("g", "g"), ("a", "b", "c", "d"),
                             np.zeros((2, 4)), True)

    def test_too_few_arrays_rejected(self):
        with pytest.raises(ValidationError):
            ExpressionMatrix(("g1", "g2"), ("a", "b", "c"), np.zeros((2, 3)), True)

    def test_non_finite_rejected(self):
        v = np.zeros((2, 4))
        v[1, 2] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            ExpressionMatrix(("g1", "g2"), ("a", "b", "c", "d"), v, True)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ExpressionMatrix(("g1", "g2"), ("a", "b", "c", "d"), np.zeros((3, 4)), True)

    def test_callers_array_is_copied(self):
        values = np.ones((2, 4))
        m = ExpressionMatrix(("g1", "g2"), ("a", "b", "c", "d"), values, True)
        values[0, 0] = 5.0
        assert m.values[0, 0] == 1.0
        assert values.flags.writeable and not m.values.flags.writeable

    def test_loaded_matrix_keeps_the_parsed_array(self, tmp_path):
        # no copy, and no finiteness pass beyond the one of each parsed chunk
        path = tmp_path / "m.tsv"
        save_matrix(small_matrix(), path)
        parse_bulk, parsed = datamodel._parse_bulk, []

        def recorded(*args):
            parsed.append(parse_bulk(*args))
            return parsed[-1]

        with mock.patch.object(datamodel, "_parse_bulk", recorded), \
                mock.patch.object(datamodel, "_parse_rows", wraps=datamodel._parse_rows) as rows, \
                mock.patch.object(np, "isfinite", wraps=np.isfinite) as isfinite:
            m = load_matrix(path, log_scale=True)
        assert m.values is parsed[0][2]
        assert isfinite.call_count == rows.call_count == 1
        assert not m.values.flags.writeable
        assert np.array_equal(m.values, small_matrix().values)

    def test_only_a_load_carries_a_digest(self, tmp_path):
        # sha256 names the bytes a load read; a matrix constructed, derived
        # or generated names none. It is no constructor argument, and repr
        # leaves it out.
        path = tmp_path / "m.tsv"
        save_matrix(small_matrix(), path)
        loaded = load_matrix(path)
        assert loaded.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        raw = load_matrix(path, log_scale=False)
        assert raw.sha256 == loaded.sha256
        unnamed = [small_matrix(), log_transform(raw), select_arrays(loaded, [3, 0, 2, 1]),
                   experiments._spiked(loaded, np.array([1]), np.array([2.0])),
                   generate_null_matrix(m=3, n=4, shared_factor_sd=1.0, gene_sd=1.0, seed=1)]
        assert [m.sha256 for m in unnamed] == [None] * len(unnamed)
        assert list(inspect.signature(ExpressionMatrix).parameters) == [
            "gene_ids", "array_ids", "values", "log_scale"]
        assert "sha256" not in repr(loaded)


def test_only_frozen_sets_fields_or_freezes_arrays():
    # every record takes its fields, and makes its arrays read-only, through
    # datamodel._frozen; nowhere else in the package is either done
    found = []
    for path in sorted(Path(datamodel.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = [node for node in tree.body if path.stem == "datamodel"
                  and isinstance(node, ast.FunctionDef) and node.name == "_frozen"]
        allowed = {node for fn in helper for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if node in allowed:
                continue
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                found.append(f"{path.name}:{node.lineno}: object.__setattr__")
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            for target in targets:
                if (isinstance(target, ast.Attribute) and target.attr == "writeable"
                        and isinstance(target.value, ast.Attribute) and target.value.attr == "flags"):
                    found.append(f"{path.name}:{node.lineno}: .flags.writeable")
    assert found == []
    assert hasattr(datamodel, "_frozen")


class TestLoadSave:
    def test_round_trip_exact(self, tmp_path):
        m = small_matrix()
        path = tmp_path / "m.tsv"
        save_matrix(m, path)
        back = load_matrix(path, log_scale=True)
        assert back.gene_ids == m.gene_ids
        assert back.array_ids == m.array_ids
        assert np.array_equal(back.values, m.values)

    def test_round_trip_preserves_awkward_floats(self, tmp_path):
        values = np.array([[0.1, 1e-300, 12345678.9012345, -3.0],
                           [2.0 ** -52, 1.7976931348623157e308, -0.0, 7.25]])
        m = ExpressionMatrix(("g1", "g2"), ("a", "b", "c", "d"), values, True)
        path = tmp_path / "m.tsv"
        save_matrix(m, path)
        assert np.array_equal(load_matrix(path, log_scale=True).values, values)

    def test_headerless_synthesizes_array_ids(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("g1\t1\t2\t3\t4\ng2\t5\t6\t7\t8\n")
        m = load_matrix(path, has_header=False)
        assert m.array_ids == ("A1", "A2", "A3", "A4")

    def test_short_row_reports_line_number(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("gene_id\ta\tb\tc\td\ng1\t1\t2\t3\t4\ng2\t5\t6\n")
        with pytest.raises(ParseError, match="line 3"):
            load_matrix(path)

    def test_non_numeric_reports_line_number(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("gene_id\ta\tb\tc\td\ng1\t1\ttwo\t3\t4\ng2\t5\t6\t7\t8\n")
        with pytest.raises(ParseError, match="line 2"):
            load_matrix(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("gene_id\ta\tb\tc\td\ng1\t1\tnan\t3\t4\ng2\t5\t6\t7\t8\n")
        with pytest.raises(ParseError):
            load_matrix(path)

    def test_blank_interior_line_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("gene_id\ta\tb\tc\td\ng1\t1\t2\t3\t4\n\ng2\t5\t6\t7\t8\n")
        with pytest.raises(ParseError, match="line 3"):
            load_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_matrix(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, message", [
        ("gene_id\tA1\tA2\tA3\tA4\n", "no data rows"),
        ("gene_id\tA1\tA2\tA3\tA4\ng1\t\ng2\t\n", "line 2: column 2: not a number"),
    ], ids=["header-only", "ids-only"])
    def test_table_without_values(self, text, message, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            load_matrix(path)

    def test_non_utf8_file_names_the_byte_offset(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_bytes(b"gene_id\ta\tb\tc\td\ng\xe91\t1\t2\t3\t4\ng2\t5\t6\t7\t8\n")
        with pytest.raises(ParseError, match=r"m\.tsv: not UTF-8 text: byte 0xe9 at offset 17"):
            load_matrix(path)

    def test_utf8_ids_round_trip_under_an_ascii_locale(self, tmp_path):
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from deltaseq import ExpressionMatrix, load_matrix, save_matrix\n"
            "m = ExpressionMatrix(('g\\u00e91', 'g2'), ('a', 'b', 'c', 'd'), np.ones((2, 4)), True)\n"
            "save_matrix(m, sys.argv[1])\n"
            "assert load_matrix(sys.argv[1], log_scale=True).gene_ids == m.gene_ids\n"
        )
        path = tmp_path / "m.tsv"
        proc = subprocess.run([sys.executable, "-c", script, str(path)],
                              env=ascii_locale_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert path.read_bytes().splitlines()[1].startswith("gé1\t".encode("utf-8"))

    def test_tsv_header_names_columns(self):
        text = matrix_to_tsv(small_matrix())
        assert text.splitlines()[0] == "gene_id\ta\tb\tc\td"

    @settings(max_examples=25, deadline=None)
    @given(rows=st.lists(
        st.lists(st.floats(min_value=-1e12, max_value=1e12,
                           allow_nan=False, allow_infinity=False),
                 min_size=4, max_size=4),
        min_size=2, max_size=6,
    ))
    def test_any_finite_matrix_round_trips(self, rows, tmp_path_factory):
        values = np.asarray(rows)
        gene_ids = tuple(f"g{i}" for i in range(values.shape[0]))
        m = ExpressionMatrix(gene_ids, ("a", "b", "c", "d"), values, True)
        path = tmp_path_factory.mktemp("rt") / "m.tsv"
        save_matrix(m, path)
        assert np.array_equal(load_matrix(path, log_scale=True).values, values)


# Cells float() reads exactly; they are rendered in several number syntaxes.
AWKWARD = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, 1.7976931348623157e308,
           -1e308, 0.1, 1e-5, 1e16]
FORMATS = [repr, "{:.3f}".format, "{:.17g}".format, "{:.25e}".format, "{:E}".format]
PADDING = ["", " ", "\xa0", " \xa0", "  "]


@st.composite
def tsv_tables(draw):
    """A valid table as (lines, has_header): header first when present."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(4, 6))
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(AWKWARD))
    fmt = draw(st.sampled_from(FORMATS))
    pad = draw(st.sampled_from(PADDING))
    has_header = draw(st.booleans())
    lines = [f"{pad}g{i}{pad}\t" + "\t".join(pad + fmt(draw(value)) + pad for _ in range(n))
             for i in range(m)]
    if has_header:
        lines.insert(0, "gene_id\t" + "\t".join(f"{pad}a{j}{pad}" for j in range(n)))
    return lines, has_header


def write_table(path, lines, eol="\n", trailing=""):
    path.write_bytes((eol.join(lines) + eol + trailing).encode("utf-8"))


def reference_load(path, has_header):
    return line_load_oracle(path, has_header)


def bits(m):
    return m.gene_ids, m.array_ids, m.values.view(np.int64).tolist()


def outcome(load):
    """A loader's result as comparable data: bit patterns, or the exception.
    A warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return bits(load())
        except DeltaseqError as exc:
            return type(exc), str(exc)


# A cell text float() rejects or reads as non-finite, or that np.loadtxt
# rejects although float() accepts it.
BAD_CELLS = ["nan", "-inf", "Infinity", "1e400", "#", "1#2", "#1.5", '"1.5"', "'2'", "",
             "1_0", "\u0663", "\uff11", "1_000.5"]


@st.composite
def broken_tables(draw):
    """A table with one fault from the list the line parser diagnoses."""
    lines, has_header = draw(tsv_tables())
    first = 1 if has_header else 0
    i = draw(st.integers(first, len(lines) - 1))
    kinds = ["short", "tab", "blank", "space", "g-tab", "cell"] + ["header"] * has_header
    kind = draw(st.sampled_from(kinds))
    if kind == "header":
        lines[0] = lines[0] + "\tz" if draw(st.booleans()) else lines[0].rsplit("\t", 1)[0]
    elif kind == "short":
        lines[i] = lines[i].rsplit("\t", 1)[0]
    elif kind == "tab":
        lines[i] += "\t"
    elif kind == "g-tab":
        lines[i] = lines[i].split("\t", 1)[0] + "\t"
    elif kind == "cell":
        cells = lines[i].split("\t")
        cells[draw(st.integers(1, len(cells) - 1))] = draw(st.sampled_from(BAD_CELLS))
        lines[i] = "\t".join(cells)
    else:
        filler = "" if kind == "blank" else draw(st.sampled_from([" ", "\t", " \t ", "\xa0"]))
        lines.insert(draw(st.integers(first + 1, len(lines) - 1)), filler)
    return lines, has_header


@contextmanager
def cut_into(k):
    """Cut every table into k parts, if it has the rows: the thread gate
    still applies, and k - 1 children fork."""
    with mock.patch.object(_parts, "_usable_cpus", lambda: k), \
            mock.patch.multiple(datamodel, _LOAD_PART_BYTES=1, _WRITE_PART_CELLS=1):
        yield


def part_counts():
    """Patch recording the part count of every split."""
    counts = []
    in_parts = _parts._in_parts

    def recorded(part, k):
        counts.append(k)
        return in_parts(part, k)

    return counts, mock.patch.object(_parts, "_in_parts", recorded)


def in_child_raise(fn, parent):
    """``fn`` that raises in every process but ``parent``."""
    def wrapped(*args):
        if os.getpid() != parent:
            raise RuntimeError("part failed")
        return fn(*args)
    return wrapped


class TestBulkLoaderOracle:
    """load_matrix, cut into k = 1..4 parts, against the serial bulk loader
    and the line parser it falls back to."""

    @settings(max_examples=200, deadline=None)
    @given(table=tsv_tables(), eol=st.sampled_from(["\n", "\r\n"]),
           trailing=st.sampled_from([None, "", "\n", "\r\n  \n", " \t\n\n"]),
           k=st.integers(1, 4))
    def test_valid_tables_load_bitwise_equal(self, table, eol, trailing, k, tmp_path_factory):
        lines, has_header = table
        path = tmp_path_factory.mktemp("oracle") / "m.tsv"
        if trailing is None:  # no newline after the last line
            path.write_bytes(eol.join(lines).encode("utf-8"))
        else:
            write_table(path, lines, eol, trailing)
        want = bits(reference_load(path, has_header))
        gene_ids, array_ids, values = bulk_load_oracle(path.read_bytes(), has_header)
        assert (gene_ids, array_ids, values.view(np.int64).tolist()) == want
        # the line parser must not run: np.loadtxt alone gives the result
        with cut_into(k), mock.patch.object(datamodel, "_parse_lines", side_effect=AssertionError):
            got = bits(load_matrix(path, has_header=has_header))
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(table=broken_tables(), k=st.integers(1, 4))
    def test_faulty_tables_match_the_line_parser(self, table, k, tmp_path_factory):
        lines, has_header = table
        path = tmp_path_factory.mktemp("oracle") / "m.tsv"
        write_table(path, lines)
        with cut_into(k):
            got = outcome(lambda: load_matrix(path, has_header=has_header))
        assert got == outcome(lambda: reference_load(path, has_header))

    @pytest.mark.parametrize("cell", ["1_0", "\u0663", "\uff11", " 1_000.5\xa0"])
    def test_cells_only_float_reads_take_the_fallback(self, cell, tmp_path):
        path = tmp_path / "m.tsv"
        write_table(path, ["gene_id\ta\tb\tc\td", f"g1\t1\t{cell}\t3\t4", "g2\t5\t6\t7\t8"])
        assert load_matrix(path).values[0, 1] == float(cell)


VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(AWKWARD),
                   st.integers(-999, 999).map(lambda i: i / 8))  # short reprs


class TestRowParts:
    """Saving in k = 1..4 parts against the serial writer, and how a split
    load or save fails, falls back and stays serial."""

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), m=st.integers(0, 6), n=st.integers(1, 5), k=st.integers(1, 4))
    def test_save_bitwise_equal_to_serial(self, data, m, n, k):
        values = np.array(data.draw(st.lists(st.lists(VALUES, min_size=n, max_size=n),
                                             min_size=m, max_size=m)), dtype=np.float64)
        values = values.reshape(m, n)
        row_ids = [f"g\u00e9{i}" for i in range(m)]
        col_ids = [f"a{j}" for j in range(n)]
        with cut_into(k):
            got = datamodel.table_to_tsv(row_ids, col_ids, values)
        assert got == table_to_tsv_oracle(row_ids, col_ids, values).encode()

    @pytest.mark.parametrize("has_header", [True, False])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_parts_of_one_row(self, has_header, eol, tmp_path):
        values = np.arange(16, dtype=np.float64).reshape(4, 4) / 4
        m = ExpressionMatrix(("g0", "g1", "g2", "g3"), ("a", "b", "c", "d"), values, True)
        text = matrix_to_tsv(m)
        lines = text.splitlines()[0 if has_header else 1:]
        path = tmp_path / "m.tsv"
        write_table(path, lines, eol)
        counts, recorded = part_counts()
        with cut_into(4), recorded:
            assert matrix_to_tsv(m) == text
            back = load_matrix(path, has_header=has_header, log_scale=True)
        assert counts == [4, 4]
        assert back.gene_ids == m.gene_ids
        assert np.array_equal(back.values, values)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_more_parts_than_rows(self, m):
        values = np.arange(4.0 * m).reshape(m, 4)
        ids = [f"g{i}" for i in range(m)]
        counts, recorded = part_counts()
        with cut_into(4), recorded:
            got = datamodel.table_to_tsv(ids, ["a", "b", "c", "d"], values)
        assert counts == [m]  # one part per row, none empty
        assert got == table_to_tsv_oracle(ids, ["a", "b", "c", "d"], values).encode()

    def test_large_tables_split_and_small_ones_do_not(self):
        # the floor: the benchmark's KS inputs, 6 and 12 MB of text, load in
        # one part, and from 16 MiB on in two; the paper-scale matrix is 35 MB
        cpus = _parts._usable_cpus()
        assert _parts._part_count(14 << 20, datamodel._LOAD_PART_BYTES) == 1
        assert _parts._part_count(16 << 20, datamodel._LOAD_PART_BYTES) == min(cpus, 2)
        assert _parts._part_count(35 << 20, datamodel._LOAD_PART_BYTES) == min(cpus, 4)
        assert _parts._part_count(22_000 * 88, datamodel._WRITE_PART_CELLS) == min(cpus, 3)

    def rows_table(self, tmp_path, last=None, m=40):
        lines = ["gene_id\ta\tb\tc\td"] + [f"g{i}\t{i}\t1.5\t2.5\t3.5" for i in range(m)]
        if last is not None:
            lines[-1] = last
        path = tmp_path / "m.tsv"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        return path

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("last, message", [
        ("g39\t39\t1.5\tx\t3.5", "line 41: column 4: not a number: 'x'"),
        ("g39\t39\t1.5\t2.5", "line 41: row has 3 values, expected 4"),
        ("g\udce939\t39\t1.5\t2.5\t3.5", "not UTF-8 text: byte 0xe9 at offset {}"),
    ], ids=["cell", "short", "utf8"])
    def test_fault_in_the_last_part_reads_as_serial(self, k, last, message, tmp_path):
        path = self.rows_table(tmp_path, last)
        message = message.format(path.read_bytes().find(b"\xe9"))
        with pytest.raises(ParseError) as want:
            reference_load(path, True)
        counts, recorded = part_counts()
        with cut_into(k), recorded, pytest.raises(ParseError) as got:
            load_matrix(path)
        assert counts == [k]
        assert str(got.value) == str(want.value) == f"{path}: {message}"

    def test_child_that_raises_makes_the_load_fall_back(self, tmp_path):
        # the failed child's part is parsed again here, at its place
        path = self.rows_table(tmp_path)
        parse_rows = mock.Mock(wraps=in_child_raise(datamodel._parse_rows, os.getpid()))
        counts, recorded = part_counts()
        with cut_into(2), recorded, mock.patch.object(datamodel, "_parse_rows", parse_rows), \
                mock.patch.object(datamodel, "_parse_lines", side_effect=AssertionError):
            got = load_matrix(path)
        assert counts == [2]
        assert parse_rows.call_count == 2  # part 0, then part 1, one chunk each
        assert bits(got) == bits(reference_load(path, True))

    def test_child_that_raises_makes_the_save_format_serially(self):
        # the failed child's rows are formatted again here, at their place
        values = np.arange(40, dtype=np.float64).reshape(10, 4) / 3

        class Ids(list):
            parent = os.getpid()

            def __getitem__(self, index):
                if os.getpid() != self.parent:
                    raise RuntimeError("part failed")
                return super().__getitem__(index)

        row_ids = Ids(f"g{i}" for i in range(10))
        counts, recorded = part_counts()
        with cut_into(2), recorded:
            got = datamodel.table_to_tsv(row_ids, ["a", "b", "c", "d"], values)
        assert counts == [2]
        assert got == table_to_tsv_oracle(list(row_ids), ["a", "b", "c", "d"], values).encode()

    @staticmethod
    def second_fork_fails():
        """Patch of os.fork whose second call raises OSError."""
        fork, calls = os.fork, []

        def forked():
            calls.append(None)
            if len(calls) == 2:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        return mock.patch("os.fork", side_effect=forked)

    def test_failed_fork_leaves_the_load_part_here(self, tmp_path):
        path = self.rows_table(tmp_path, m=60)
        parse_rows = mock.Mock(wraps=datamodel._parse_rows)
        counts, recorded = part_counts()
        with cut_into(3), recorded, self.second_fork_fails() as fork, \
                mock.patch.object(datamodel, "_parse_rows", parse_rows):
            got = load_matrix(path)
        assert counts == [3] and fork.call_count == 2
        assert parse_rows.call_count == 2  # parts 0 and 2, one chunk each
        assert bits(got) == bits(reference_load(path, True))

    def test_failed_fork_leaves_the_save_part_here(self):
        values = np.arange(60, dtype=np.float64).reshape(15, 4) / 3
        row_ids = [f"g{i}" for i in range(15)]
        write_rows = mock.Mock(wraps=datamodel._write_rows)
        counts, recorded = part_counts()
        with cut_into(3), recorded, self.second_fork_fails() as fork, \
                mock.patch.object(datamodel, "_write_rows", write_rows):
            got = datamodel.table_to_tsv(row_ids, ["a", "b", "c", "d"], values)
        assert counts == [3] and fork.call_count == 2
        assert [c.args[1] for c in write_rows.call_args_list] == [row_ids[:5], row_ids[10:]]
        assert got == table_to_tsv_oracle(row_ids, ["a", "b", "c", "d"], values).encode()

    def test_no_fork_while_another_thread_runs(self, tmp_path):
        path = self.rows_table(tmp_path)
        m = load_matrix(path)
        with cut_into(2), mock.patch("os.fork", wraps=os.fork) as fork:
            load_matrix(path)
            save_matrix(m, tmp_path / "out.tsv")
            assert fork.call_count == 2  # one child each, with this thread alone
            stop = threading.Event()
            other = threading.Thread(target=stop.wait)
            other.start()
            try:
                load_matrix(path)
                save_matrix(m, tmp_path / "out.tsv")
            finally:
                stop.set()
                other.join(timeout=10)
            assert not other.is_alive()
            assert fork.call_count == 2
        assert (tmp_path / "out.tsv").read_text() == table_to_tsv_oracle(
            m.gene_ids, m.array_ids, m.values)


class TestChunks:
    """Parsing and formatting in row chunks, with the chunk sizes patched
    small, in k = 1..4 parts: the serial oracles' bytes and values."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [5, 6, 7, 11, 12, 13])  # around one and two chunks of 6 rows
    def test_save_at_chunk_boundaries(self, k, m):
        values = np.arange(4.0 * m).reshape(m, 4) / 7
        ids = [f"g\u00e9{i}" for i in range(m)]
        with cut_into(k), mock.patch.object(datamodel, "_WRITE_BLOCK_CELLS", 24):
            got = datamodel.table_to_tsv(ids, ["a", "b", "c", "d"], values)
        assert got == table_to_tsv_oracle(ids, ["a", "b", "c", "d"], values).encode()

    @staticmethod
    def table(eol, final_eol, last=None, m=13):
        rows = [f"g{i:02d}\t{i:02d}.5\t1.25\t-2.5\t3e-5" for i in range(m)]  # of equal length
        if last is not None:
            rows[-1] = last
        text = "gene_id\ta\tb\tc\td" + eol + eol.join(rows) + (eol if final_eol else "")
        return text.encode("utf-8"), len(rows[0]) + len(eol)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("final_eol", [True, False])
    @pytest.mark.parametrize("lines, shift", [(1, 0), (2, -1), (2, 0), (2, 1), (20, 0)])
    def test_load_at_chunk_boundaries(self, k, eol, final_eol, lines, shift):
        # a chunk ends at the first newline at or past _LOAD_BLOCK_BYTES: a
        # block one byte short of two lines, or exactly two, takes two lines;
        # one byte more takes three
        data, line = self.table(eol, final_eol)
        parse_rows = mock.Mock(wraps=datamodel._parse_rows)
        with cut_into(k), mock.patch.object(datamodel, "_LOAD_BLOCK_BYTES", line * lines + shift), \
                mock.patch.object(datamodel, "_parse_rows", parse_rows):
            got = datamodel._parse_bulk(Path("m.tsv"), data, True)
        gene_ids, array_ids, values = bulk_load_oracle(data, True)
        assert got[:2] == (gene_ids, array_ids)
        assert got[2].view(np.int64).tolist() == values.view(np.int64).tolist()
        if k == 1:  # the children's calls are not seen here
            per_chunk = lines + (shift > 0)
            assert parse_rows.call_count == -(-13 // per_chunk)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_bad_cell_in_the_last_chunk(self, k, eol, tmp_path):
        data, line = self.table(eol, True, last="g12\t12.5\t1.25\tx\t3e-5")
        path = tmp_path / "m.tsv"
        path.write_bytes(data)
        with pytest.raises(ParseError) as want:
            reference_load(path, True)
        with cut_into(k), mock.patch.object(datamodel, "_LOAD_BLOCK_BYTES", 2 * line), \
                pytest.raises(ParseError) as got:
            load_matrix(path)
        assert str(got.value) == str(want.value) == f"{path}: line 14: column 4: not a number: 'x'"

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_only_the_chunks_with_odd_cells_take_the_line_parser(self, k, tmp_path):
        # 200 rows of 26 bytes in chunks of 20 rows; row 45 holds a cell
        # only float() reads in chunk 2, row 150 another in chunk 7
        rows = [f"g{i:03d}\t{i:03d}.5\t1.25\t-2.5\t3e-5" for i in range(200)]
        rows[45] = rows[45].replace("1.25", " 1_0")
        rows[150] = rows[150].replace("-2.5", "  \u0663")
        path = tmp_path / "m.tsv"
        write_table(path, ["gene_id\ta\tb\tc\td"] + rows)
        data, line = path.read_bytes(), 26
        head = data.find(b"\n") + 1
        assert len(data) == head + 200 * line
        parse_lines = mock.Mock(wraps=datamodel._parse_lines)
        with cut_into(k), mock.patch.object(datamodel, "_LOAD_BLOCK_BYTES", 20 * line), \
                mock.patch.object(datamodel, "_parse_lines", parse_lines):
            got = load_matrix(path)
        assert bits(got) == bits(reference_load(path, True))
        assert got.values[45, 1] == 10.0 and got.values[150, 2] == 3.0
        if k == 1:  # the children's calls are not seen here
            chunks = [call.args[2:4] for call in parse_lines.call_args_list]
            assert chunks == [(head + 40 * line, head + 60 * line), (head + 140 * line, head + 160 * line)]


class TestLineGrammar:
    """A line ends at \\n, one \\r before it dropped; any other line break
    inside a line is a fault, named with its line. Loaded in one part and in
    three, where a fault on the last line sits in a child's part."""

    ROWS = ["gene_id\ta\tb\tc\td"] + [f"g{i}\t{i}\t1.5\t2.5\t3.5" for i in range(40)]

    @staticmethod
    def load_fails(path, k, has_header=True):
        """The ParseError message of loading ``path`` cut into k parts, and
        the part counts of its splits."""
        counts, recorded = part_counts()
        with cut_into(k), recorded, pytest.raises(ParseError) as got:
            load_matrix(path, has_header=has_header)
        return str(got.value), counts

    @staticmethod
    def broken(path, line, char):
        return f"{path}: line {line}: line break {char!r} inside a line; a line ends at \\n or \\r\\n"

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("has_header", [True, False])
    def test_cr_only_file(self, k, has_header, tmp_path):
        path = tmp_path / "m.tsv"
        write_table(path, self.ROWS[0 if has_header else 1:], "\r")
        # one line: a header alone, or a body in one part
        assert self.load_fails(path, k, has_header) == (self.broken(path, 1, "\r"),
                                                        [] if has_header else [1])

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("char", ["\x0b", "\x85", "\u2028", "\r"])
    @pytest.mark.parametrize("line", [1, 2, 41])
    def test_break_inside_a_line(self, k, char, line, tmp_path):
        rows = list(self.ROWS)
        cells = rows[line - 1].split("\t")
        cells[2] += char
        rows[line - 1] = "\t".join(cells)
        path = tmp_path / "m.tsv"
        write_table(path, rows)
        assert self.load_fails(path, k) == (self.broken(path, line, char), [] if line == 1 else [k])

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("eol, trailing", [
        ("\r\n", ""), ("\n", None), ("\r\n", None), ("\n", "\xa0\n"), ("\n", "\u3000\n\xa0"),
        ("\r\n", " \xa0\r\n\u3000\r\n"), ("\n", "\x0b\n\x0c\n\x1c\r\n"),
    ], ids=["crlf", "no-final-lf", "crlf-no-final", "nbsp", "ideographic", "crlf-blanks", "break-blanks"])
    def test_still_loads(self, k, eol, trailing, tmp_path):
        path = tmp_path / "m.tsv"
        if trailing is None:  # no newline after the last line
            path.write_bytes(eol.join(self.ROWS).encode("utf-8"))
        else:
            write_table(path, self.ROWS, eol, trailing)
        counts, recorded = part_counts()
        with cut_into(k), recorded:
            got = load_matrix(path)
        assert counts == [k]
        assert bits(got) == bits(reference_load(path, True))

    @pytest.mark.parametrize("k", [1, 3])
    def test_first_fault_in_file_order(self, k, tmp_path):
        rows = list(self.ROWS)
        rows[1] = rows[1].replace("1.5", "x")
        rows[2] = rows[2].replace("g1", "g\udce9")
        path = tmp_path / "m.tsv"
        path.write_bytes(("\n".join(rows) + "\n").encode("utf-8", "surrogateescape"))
        assert self.load_fails(path, k) == (f"{path}: line 2: column 3: not a number: 'x'", [k])
        # the whole-file oracle decodes first, so it names the byte
        with pytest.raises(ParseError, match="not UTF-8 text: byte 0xe9"):
            reference_load(path, True)


def traced_peak(fn) -> int:
    """Peak bytes of Python and numpy allocations made while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Allocations while saving and loading in one part: the text, the
    values and the file bytes each once, plus one chunk of temporaries,
    measured as the peak for a table of one chunk. A table eight chunks
    long holds the text of every row while one chunk is formatted or parsed;
    keeping a whole-table list of floats, lines or strings would not fit.
    The save's buffer is reserved 1/32 larger than its text, a quarter of
    one chunk's text here."""

    @pytest.fixture
    def tables(self, tmp_path):
        cols = 64
        rows = datamodel._WRITE_BLOCK_CELLS // cols
        values = np.random.default_rng(3).normal(size=(8 * rows, cols))
        gene_ids = tuple(f"g{i}" for i in range(8 * rows))
        array_ids = tuple(f"a{j}" for j in range(cols))
        big = ExpressionMatrix(gene_ids, array_ids, values, True)
        one = ExpressionMatrix(gene_ids[:rows], array_ids, values[:rows], True)
        with mock.patch.object(_parts, "_usable_cpus", lambda: 1):
            yield big, one

    def test_save(self, tables, tmp_path):
        big, one = tables
        chunk = traced_peak(lambda: save_matrix(one, tmp_path / "one.tsv"))
        peak = traced_peak(lambda: save_matrix(big, tmp_path / "big.tsv"))
        assert peak <= (tmp_path / "big.tsv").stat().st_size + chunk

    def test_load(self, tables, tmp_path):
        # also with one cell only float() reads, whose chunk alone takes the
        # line parser
        big, _ = tables
        path = tmp_path / "big.tsv"
        save_matrix(big, path)
        data = path.read_bytes()
        one = tmp_path / "one.tsv"  # the header and the lines of the first chunk
        one.write_bytes(data[: data.find(b"\n", data.find(b"\n") + datamodel._LOAD_BLOCK_BYTES) + 1])
        chunk = traced_peak(lambda: load_matrix(one, log_scale=True))
        cell = data.find(b"\t", len(data) // 2) + 1
        odd = tmp_path / "odd.tsv"
        odd.write_bytes(data[:cell] + b"1_0" + data[data.find(b"\t", cell) :])
        for table in (path, odd):
            peak = traced_peak(lambda: load_matrix(table, log_scale=True))
            assert peak <= len(data) + big.values.nbytes + chunk, table.name


class TestUnwritableIds:
    """The writer refuses, before writing, an id the loader would not read
    back, and every id it writes reads back unchanged."""

    @pytest.mark.parametrize("gene", ["g1 ", " g1", "\xa0g1", "g1\u3000", "g\t1", "g\n1", "g\r1",
                                      "g\x0b1", "g\x0c1", "g\x1c1", "g\x1e1", "g\x851", "g\u20281",
                                      "g\u20291", "g\udce91"])
    def test_save_refuses_gene_id(self, gene, tmp_path):
        m = ExpressionMatrix(("g0", gene), ("a", "b", "c", "d"), np.ones((2, 4)), True)
        path = tmp_path / "m.tsv"
        message = "^" + re.escape(f"row id {gene!r} would not read back")
        with pytest.raises(ValidationError, match=message):
            save_matrix(m, path)
        assert not path.exists()

    @pytest.mark.parametrize("row_ids, col_ids, values, message", [
        (("a",), ("x", "y"), np.zeros((3, 1)), "row ids: 1 for 3 rows"),
        (("a", "b", "c"), ("x", "y"), np.zeros((3, 1)), "column ids: 2 for 1 columns"),
        (("a", "b", "c"), ("x", "y"), np.zeros((3, 3)), "column ids: 2 for 3 columns"),
        (("a",), ("x",), np.zeros(3), "2-d"),
        (("a",), ("x",), np.zeros((1, 1, 1)), "2-d"),
        # load_matrix refuses these, so write/load would not be the identity
        (("a", "a"), ("x",), np.zeros((2, 1)), "duplicate row id: 'a'"),
        (("a", "b"), ("x", "x"), np.zeros((2, 2)), "duplicate column id: 'x'"),
        (("a", ""), ("x",), np.zeros((2, 1)), "empty row id"),
        (("a",), ("", "y"), np.zeros((1, 2)), "empty column id"),
    ])
    def test_writer_refuses_ids_that_miss_the_values(self, row_ids, col_ids, values, message,
                                                     monkeypatch):
        # one row was written under a two-column header
        monkeypatch.setattr(datamodel, "_write_rows", None)
        with pytest.raises(ValidationError, match=message):
            datamodel.table_to_tsv(row_ids, col_ids, values)

    def test_writer_takes_a_records_ids_unscanned(self, monkeypatch, tmp_path):
        # a record's ids were checked where they entered; the writer still
        # checks their count against the values it is given
        m = ExpressionMatrix(("g0", "g1"), ("a", "b", "c", "d"), np.arange(8.0).reshape(2, 4), True)
        dm = delta_sequence(m, variance_ordering(m))
        text, delta = matrix_to_tsv(m), delta_to_tsv(dm)
        with pytest.raises(ValidationError, match="row ids: 2 for 3 rows"):
            datamodel.table_to_tsv(m.gene_ids, m.array_ids, np.zeros((3, 4)))
        monkeypatch.setattr(datamodel, "_check_labels", None)
        assert matrix_to_tsv(m) == text
        save_matrix(m, tmp_path / "m.tsv")
        assert (tmp_path / "m.tsv").read_text(encoding="utf-8") == text
        assert delta_to_tsv(dm) == delta
        with pytest.raises(TypeError):  # a caller's own ids are scanned
            datamodel.table_to_tsv(list(m.gene_ids), m.array_ids, m.values)

    def test_save_refuses_array_id_first(self, tmp_path):
        m = ExpressionMatrix(("g0 ", "g1"), ("a", "b\t", "c", "d"), np.ones((2, 4)), True)
        message = "^" + re.escape("column id 'b\\t' would not read back")
        with pytest.raises(ValidationError, match=message):
            save_matrix(m, tmp_path / "m.tsv")

    @settings(max_examples=300, deadline=None)
    @given(ids=st.lists(st.text(min_size=1, max_size=4), min_size=6, max_size=6, unique=True))
    def test_written_ids_read_back(self, ids, tmp_path_factory):
        m = ExpressionMatrix(tuple(ids[:2]), tuple(ids[2:]), np.ones((2, 4)), True)
        readable = all(i == i.strip() and len(i.splitlines()) == 1 and "\t" not in i
                       and not any("\ud800" <= c <= "\udfff" for c in i) for i in ids)
        path = tmp_path_factory.mktemp("ids") / "m.tsv"
        if not readable:
            with pytest.raises(ValidationError):
                save_matrix(m, path)
            return
        save_matrix(m, path)
        back = load_matrix(path, log_scale=True)
        assert (back.gene_ids, back.array_ids) == (m.gene_ids, m.array_ids)


class TestLogTransform:
    def test_log2_values(self):
        values = np.array([[1.0, 2.0, 4.0, 8.0], [16.0, 32.0, 64.0, 128.0]])
        m = ExpressionMatrix(("g1", "g2"), ("a", "b", "c", "d"), values, False)
        out = log_transform(m, base=2.0)
        assert out.log_scale
        assert np.allclose(out.values, [[0, 1, 2, 3], [4, 5, 6, 7]], atol=1e-12)

    def test_already_log_is_an_error(self):
        with pytest.raises(StateError):
            log_transform(small_matrix())

    def test_non_positive_cell_is_named(self):
        values = np.ones((2, 4))
        values[1, 2] = 0.0
        m = ExpressionMatrix(("g1", "g2"), ("a", "b", "c", "d"), values, False)
        with pytest.raises(DomainError, match="g2"):
            log_transform(m)

    def test_bad_base_rejected(self):
        m = ExpressionMatrix(("g1", "g2"), ("a", "b", "c", "d"), np.ones((2, 4)), False)
        with pytest.raises(ValidationError):
            log_transform(m, base=1.0)


class TestSelectArrays:
    def test_projection_keeps_given_order(self):
        m = small_matrix()
        out = select_arrays(m, [3, 0, 2, 1])
        assert out.array_ids == ("d", "a", "c", "b")
        assert np.array_equal(out.values, m.values[:, [3, 0, 2, 1]])

    def test_keeps_its_gather(self):
        # the gather is fresh and its values finite, so neither the
        # constructor's copy nor its finiteness pass runs
        m = small_matrix()
        with mock.patch.object(ExpressionMatrix, "__post_init__", side_effect=AssertionError), \
                mock.patch.object(np, "isfinite", side_effect=AssertionError):
            out = select_arrays(m, [3, 0, 2, 1])
        assert np.array_equal(out.values, m.values[:, [3, 0, 2, 1]])
        assert not np.shares_memory(out.values, m.values)
        assert not out.values.flags.writeable
        assert (out.gene_ids, out.log_scale) == (m.gene_ids, m.log_scale)

    def test_takes_the_matrix_ids_unscanned(self):
        # a checked matrix's gene ids, and the distinct array ids picked
        # from it, are taken as they are, by select_arrays and by a matrix
        # built on them; their count is still checked against the values
        m = small_matrix()
        out = select_arrays(m, [3, 0, 2, 1])
        assert out.gene_ids is m.gene_ids
        assert type(out.array_ids) is datamodel._Labels
        again = ExpressionMatrix(out.gene_ids, out.array_ids, out.values, True)
        assert again.gene_ids is m.gene_ids and again.array_ids is out.array_ids
        with pytest.raises(ValidationError, match="gene ids: 3 for 2 rows"):
            ExpressionMatrix(m.gene_ids, m.array_ids, m.values[:2], True)

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValidationError):
            select_arrays(small_matrix(), [0, 0, 1, 2])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValidationError):
            select_arrays(small_matrix(), [0, 1, 2, 4])

    def test_too_few_rejected(self):
        with pytest.raises(ValidationError):
            select_arrays(small_matrix(), [0, 1, 2])


class TestNoiseModel:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            NoiseModel("per-lane", 0.1)

    def test_negative_sd_rejected(self):
        with pytest.raises(ValidationError):
            NoiseModel("gene-array", -0.1)
