"""The parsed-table cache behind ``load_matrix``: a repeat load of the same
bytes reads the table's entry in place of parsing, with the parse's ids and
values bit for bit and its checks; a damaged, foreign or unusable entry or
directory costs a parse and changes no result. The floor is patched to 0 so
that small tables are cached; each test has its own cache directory
(``conftest.own_table_cache``)."""

import hashlib
import os
import shutil
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import test_cli_golden as golden
from deltaseq import ParseError, ValidationError, _tablecache, datamodel, load_matrix
from helpers import line_load_oracle

# ids ending in NUL, with inner spaces and non-ASCII; -0.0, subnormals and
# a value whose shortest repr is long
AWKWARD = ["gene_id\tá\tb c\tz\x00\t日",
           "gé\t-0.0\t1e-310\t5e-324\t0.1",
           "g 1\t-2.5\t1.7976931348623157e308\t3\t0.30000000000000004",
           "g\x00\t1\t2\t3\t4",
           "日本\t-1e-300\t0\t-0\t7"]


def bits(m):
    return m.gene_ids, m.array_ids, m.values.view(np.int64).tolist()


def write(path: Path, rows) -> Path:
    path.write_bytes(("\n".join(rows) + "\n").encode("utf-8"))
    return path


@pytest.fixture
def cache(monkeypatch) -> Path:
    """The cache's directory, with every table cached."""
    monkeypatch.setattr(_tablecache, "_CACHE_FLOOR_BYTES", 0)
    return Path(os.environ["XDG_CACHE_HOME"]) / "deltaseq" / "tables"


def entries(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir()) if directory.is_dir() else []


@contextmanager
def parses():
    """A mock wrapping the parser, to count the loads that parse."""
    with mock.patch.object(datamodel, "_parse_bulk", wraps=datamodel._parse_bulk) as parse:
        yield parse


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_golden_bytes_on_a_cold_then_a_warm_cache(name, cache, tmp_path, monkeypatch):
    golden.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = golden.CASES[name]
    assert golden.run_case(argv) == golden.GOLDEN[name]
    assert bool(entries(cache)) == ("--in" in argv)
    shutil.rmtree("out", ignore_errors=True)
    with mock.patch.object(datamodel, "_parse_bulk", side_effect=AssertionError("parsed again")):
        assert golden.run_case(argv) == golden.GOLDEN[name]


def test_awkward_ids_and_values_survive_bit_for_bit(cache, tmp_path):
    path = write(tmp_path / "m.tsv", AWKWARD)
    want = bits(line_load_oracle(path, True))
    with parses() as parse:
        cold = bits(load_matrix(path))
        warm = bits(load_matrix(path))
    assert parse.call_count == 1
    assert cold == warm == want
    assert warm[1] == ("á", "b c", "z\x00", "日")
    assert warm[0] == ("gé", "g 1", "g\x00", "日本")
    assert warm[2][0][0] == np.float64(-0.0).view(np.int64)
    assert len(entries(cache)) == 1


def test_a_hit_is_a_checked_read_only_matrix(cache, tmp_path):
    path = write(tmp_path / "m.tsv", AWKWARD)
    load_matrix(path)
    with mock.patch.object(datamodel, "_check_labels", wraps=datamodel._check_labels) as check:
        m = load_matrix(path, log_scale=True)
    assert check.call_count == 1 and m.log_scale
    assert not m.values.flags.writeable


@pytest.mark.parametrize("damage", ["truncated", "longer", "value", "id", "header", "foreign"])
def test_damaged_entry_is_parsed_again_and_rewritten(damage, cache, tmp_path):
    path = write(tmp_path / "m.tsv", AWKWARD)
    want = bits(load_matrix(path))
    (name,) = entries(cache)
    entry = cache / name
    good = entry.read_bytes()
    values_at = len(good) - 4 * 4 * 8

    def flipped(i):
        return good[:i] + bytes([good[i] ^ 1]) + good[i + 1:]

    if damage == "foreign":  # a whole entry, of another table
        other = write(tmp_path / "other.tsv", AWKWARD[:-1])
        load_matrix(other)
        (other_name,) = set(entries(cache)) - {name}
        bad = (cache / other_name).read_bytes()
    else:
        bad = {"truncated": good[:-1], "longer": good + b"\0", "value": flipped(values_at + 3),
               "id": flipped(good.index(b"\n") + 2), "header": flipped(0)}[damage]
    entry.write_bytes(bad)
    with parses() as parse:
        assert bits(load_matrix(path)) == want
    assert parse.call_count == 1
    assert entry.read_bytes() == good


def test_the_digest_is_of_the_bytes_parsed_or_looked_up(cache, tmp_path):
    path = write(tmp_path / "m.tsv", AWKWARD)
    first = path.read_bytes()
    with parses() as parse:
        parsed, hit = load_matrix(path), load_matrix(path)
    assert parse.call_count == 1
    assert parsed.sha256 == hit.sha256 == hashlib.sha256(first).hexdigest()
    # A damaged entry is parsed from a second read, here of a file replaced
    # since the first: the digest is of the bytes that second read parsed.
    (name,) = entries(cache)
    (cache / name).write_bytes(b"damaged")
    replaced = AWKWARD[:-1]
    read = datamodel._read

    def replace_after_the_first_read(p):
        data = read(p)
        write(path, replaced)
        return data

    with mock.patch.object(datamodel, "_read", side_effect=replace_after_the_first_read) as reads:
        reparsed = load_matrix(path)
    assert reads.call_count == 2
    assert reparsed.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert bits(reparsed) == bits(line_load_oracle(path, True))


def test_an_entry_is_named_by_the_bytes_the_parser_and_the_header_flag(cache, tmp_path):
    # sha256(file bytes || parser identity || header byte): the name every
    # entry has had, so the entries in a user's cache stay valid
    path = write(tmp_path / "m.tsv", ["g0\t1\t2\t3\t4", "g1\t5\t6\t7\t8", "g2\t9\t10\t11\t12"])
    load_matrix(path)
    load_matrix(path, has_header=False)
    key = path.read_bytes() + _tablecache._parser_identity()
    assert entries(cache) == sorted(hashlib.sha256(key + bytes([flag])).hexdigest()
                                    for flag in (False, True))


@pytest.mark.parametrize("where", ["a-file", "others-may-write", "another-owner", "unwritable"])
def test_unusable_directory_caches_nothing(where, cache, tmp_path, monkeypatch):
    path = write(tmp_path / "m.tsv", AWKWARD)
    want = bits(line_load_oracle(path, True))
    root = Path(os.environ["XDG_CACHE_HOME"])
    if where == "a-file":
        root.rmdir()
        root.write_bytes(b"")
    elif where == "others-may-write":
        cache.mkdir(parents=True)
        cache.chmod(0o777)
    elif where == "another-owner":
        uid = os.geteuid() + 1
        monkeypatch.setattr(os, "geteuid", lambda: uid)
    else:
        monkeypatch.setattr(_tablecache.tempfile, "mkstemp", mock.Mock(side_effect=PermissionError))
    with parses() as parse:
        for _ in range(2):
            assert bits(load_matrix(path)) == want
    assert parse.call_count == 2
    assert entries(cache) == []


@pytest.mark.parametrize("rows, error", [
    (["gene_id\ta\tb\tc\td", "g1\t1\t2\tx\t4", "g2\t1\t2\t3\t4"], ParseError),
    (["gene_id\ta\tb\tc\td", "g1\t1\t2\t3\t4", "g1\t1\t2\t3\t4"], ValidationError),
    (["gene_id\ta\tb\ta\td", "g1\t1\t2\t3\t4", "g2\t1\t2\t3\t4"], ValidationError),
], ids=["parse-error", "duplicate-gene", "duplicate-array"])
def test_failed_load_stores_nothing(rows, error, cache, tmp_path):
    path = write(tmp_path / "m.tsv", rows)
    for _ in range(2):
        with pytest.raises(error):
            load_matrix(path)
    assert entries(cache) == []


def test_header_and_no_header_loads_keep_separate_entries(cache, tmp_path):
    path = write(tmp_path / "m.tsv", ["g0\t1\t2\t3\t4", "g1\t5\t6\t7\t8", "g2\t9\t10\t11\t12"])
    with_header, without = bits(load_matrix(path)), bits(load_matrix(path, has_header=False))
    assert with_header == bits(line_load_oracle(path, True))
    assert without == bits(line_load_oracle(path, False))
    assert len(entries(cache)) == 2
    with parses() as parse:
        assert bits(load_matrix(path, has_header=False)) == without
        assert bits(load_matrix(path)) == with_header
    assert parse.call_count == 0


def test_another_parser_identity_misses(cache, tmp_path, monkeypatch):
    path = write(tmp_path / "m.tsv", AWKWARD)
    load_matrix(path)
    monkeypatch.setattr(_tablecache, "_parser_identity", lambda: b"another parser")
    with parses() as parse:
        load_matrix(path)
    assert parse.call_count == 1
    assert len(entries(cache)) == 2


@pytest.mark.parametrize("what", [*sorted(p.name for p in Path(datamodel.__file__).parent.glob("*.py")),
                                  "python", "numpy"])
def test_parser_identity_names_the_parser(what, monkeypatch):
    identity = _tablecache._parser_identity.__wrapped__
    before = identity()
    read = Path.read_bytes
    if what.endswith(".py"):  # one more byte in that module of the package
        monkeypatch.setattr(Path, "read_bytes", lambda p: read(p) + b"#" if p.name == what else read(p))
    elif what == "python":
        monkeypatch.setattr(sys, "version", sys.version + "+")
    else:
        monkeypatch.setattr(np, "__version__", np.__version__ + "+")
    assert identity() != before


def test_least_recently_used_entries_go_past_the_cap(cache, tmp_path, monkeypatch):
    # three tables of one shape, so their entries are of one size
    paths = [write(tmp_path / f"m{i}.tsv", ["gene_id\ta\tb\tc\td", f"g0\t{i}\t2\t3\t4", "g1\t1\t2\t3\t4"])
             for i in range(3)]
    load_matrix(paths[0])
    (first,) = entries(cache)
    load_matrix(paths[1])
    (second,) = set(entries(cache)) - {first}
    monkeypatch.setattr(_tablecache, "_CACHE_CAP_BYTES", 2 * (cache / first).stat().st_size)
    os.utime(cache / first, ns=(10**9, 10**9))
    os.utime(cache / second, ns=(2 * 10**9, 2 * 10**9))
    with parses() as parse:
        load_matrix(paths[0])  # a hit: now the most recently used
        load_matrix(paths[2])
    assert parse.call_count == 1
    assert second not in entries(cache) and first in entries(cache)
    assert len(entries(cache)) == 2


def test_below_the_floor_nothing_is_stored(tmp_path):
    path = write(tmp_path / "m.tsv", AWKWARD)
    assert path.stat().st_size < _tablecache._CACHE_FLOOR_BYTES
    with parses() as parse:
        load_matrix(path)
        load_matrix(path)
    assert parse.call_count == 2
    assert entries(Path(os.environ["XDG_CACHE_HOME"]) / "deltaseq" / "tables") == []
