import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaseq import datamodel
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
from helpers import ascii_locale_env


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
    return datamodel._load_lines(path, datamodel._read_lines(path), has_header=has_header,
                                 log_scale=False)


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


class TestBulkLoaderOracle:
    """load_matrix against the line parser it falls back to."""

    @settings(max_examples=150, deadline=None)
    @given(table=tsv_tables(), eol=st.sampled_from(["\n", "\r\n"]),
           trailing=st.sampled_from(["", "\n", "\r\n  \n", " \t\n\n"]))
    def test_valid_tables_load_bitwise_equal(self, table, eol, trailing, tmp_path_factory):
        lines, has_header = table
        path = tmp_path_factory.mktemp("oracle") / "m.tsv"
        write_table(path, lines, eol, trailing)
        want = bits(reference_load(path, has_header))
        # the line parser must not run: the bulk path alone gives the result
        with mock.patch.object(datamodel, "_load_lines", side_effect=AssertionError):
            got = bits(load_matrix(path, has_header=has_header))
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(table=broken_tables())
    def test_faulty_tables_match_the_line_parser(self, table, tmp_path_factory):
        lines, has_header = table
        path = tmp_path_factory.mktemp("oracle") / "m.tsv"
        write_table(path, lines)
        assert outcome(lambda: load_matrix(path, has_header=has_header)) == \
            outcome(lambda: reference_load(path, has_header))

    @pytest.mark.parametrize("cell", ["1_0", "\u0663", "\uff11", " 1_000.5\xa0"])
    def test_cells_only_float_reads_take_the_fallback(self, cell, tmp_path):
        path = tmp_path / "m.tsv"
        write_table(path, ["gene_id\ta\tb\tc\td", f"g1\t1\t{cell}\t3\t4", "g2\t5\t6\t7\t8"])
        assert load_matrix(path).values[0, 1] == float(cell)


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
