"""Parsed tables, cached by content, so that each table's text is parsed once.

One command parses each table it reads, and a pipeline of commands reads
the same table again in every step. So ``datamodel.load_matrix`` keeps a
parsed table of at least _CACHE_FLOOR_BYTES in the user's cache directory,
$XDG_CACHE_HOME/deltaseq/tables or ~/.cache/deltaseq/tables, one file per
key. The key is the SHA-256 of the file's bytes, whether it has a header
and the parser's identity: the bytes of every module of the package, and
the Python and numpy versions, whose str.splitlines, float() and np.loadtxt
the parse rests on. Hashing every module, not only those a load runs, needs
no list kept in step with the imports; the cost is that an edit to any
module, ``cli`` say, makes every table miss once. A repeat load then costs
one hash and one binary read in place of a parse.

An entry is one header line, "deltaseq-table key m n id-bytes
payload-sha256", then the payload: the gene ids and then the array ids as
UTF-8 joined by \\n (no loaded id holds a newline), then the m x n float64
values. An entry is used only when it names its own key and its payload
matches its digest; the loader then runs every check a parsed table
passes. Any other entry is parsed again and rewritten. An entry is written
to a temporary file and renamed into place, so a reader sees a whole entry
or none; the digest catches what a crash leaves. The loader stores only a
table that loaded without error. A directory that cannot be made or
written, or that is not this user's alone, caches nothing, and every load
then parses. After a store the least recently used entries (a hit
refreshes an entry's mtime) go until the directory holds at most
_CACHE_CAP_BYTES. Deleting the directory clears the cache.

The floor, measured on a 2-vCPU Xeon as the first load of a fresh process
in 8 alternating pairs per size (medians): a hit beat a parse at every size
tried, 0.5 against 1.1 ms at 64 KiB and 2.5 against 13.7 ms at 1 MiB of the
full-precision paper-scale table, and a miss, which parses and then stores,
took 2.2 and 16.0 ms. So the floor does not mark a break-even: below 1 MiB a
hit saves under 11 ms, about 5 % of a command's start-up, and each table
stored is one more file in the user's cache, so small tables, toy inputs
and test fixtures among them, are parsed every time.

This is a module of its own, not a part of ``datamodel``: where no bytecode
is kept, every process compiles the package from source, and with this code
inside ``datamodel`` a process that had imported deltaseq held 0.1-0.2 MiB
more than before it was added (5 fresh processes each); as two modules it
held about the same.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import stat
import sys
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

_CACHE_FLOOR_BYTES = 1 << 20
_CACHE_CAP_BYTES = 1 << 30
_ENTRY_MAGIC = b"deltaseq-table"


@functools.cache
def _parser_identity() -> bytes | None:
    """A digest of what a parse's result and its entry's layout depend on
    besides the input, or None, and no caching, when a source file cannot
    be read."""
    try:
        sources = [path.read_bytes() for path in sorted(Path(__file__).parent.glob("*.py"))]
    except OSError:
        return None
    return hashlib.sha256(b"\0".join([*sources, sys.version.encode(), np.__version__.encode(),
                                      sys.byteorder.encode()])).digest()


def _cache_dir() -> Path | None:
    """The cache's directory, made with mode 0700 if missing; None when it
    cannot be made or others may write it."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    try:
        root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
        directory = root / "deltaseq" / "tables"
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = directory.stat()
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    if not stat.S_ISDIR(st.st_mode) or st.st_uid != os.geteuid() or st.st_mode & 0o022:
        return None
    return directory


def _entry_path(data: bytes, has_header: bool) -> Path | None:
    """The path of the entry for a table of these bytes, or None when the
    table is below the floor or nothing can be cached."""
    if len(data) < _CACHE_FLOOR_BYTES:
        return None
    identity = _parser_identity()
    directory = _cache_dir() if identity is not None else None
    if directory is None:
        return None
    key = hashlib.sha256(data)
    key.update(identity + bytes([has_header]))
    return directory / key.hexdigest()


def _read_entry(entry: Path) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray] | None:
    """The gene ids, array ids and values an entry holds, or None for an
    entry that is missing, short, long, made for another key or does not
    match its digest."""
    try:
        with open(entry, "rb") as fh:
            line = fh.readline(256)
            header = line.split()
            if len(header) != 6 or header[:2] != [_ENTRY_MAGIC, entry.name.encode()]:
                return None
            m, n, size = map(int, header[2:5])
            if min(m, n, size) < 0 or os.fstat(fh.fileno()).st_size != len(line) + size + 8 * m * n:
                return None
            ids, values = bytearray(size), np.empty((m, n))
            if fh.readinto(ids) != size or fh.readinto(memoryview(values).cast("B")) != values.nbytes:
                return None
        digest = hashlib.sha256(ids)
        digest.update(values)
        if digest.hexdigest().encode() != header[5]:
            return None
        labels = ids.decode("utf-8").split("\n")
    except (OSError, ValueError):  # ValueError: a bad number or UTF-8 in the header or ids
        return None
    if len(labels) != m + n:
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    return tuple(labels[:m]), tuple(labels[m:]), values


def _store_entry(entry: Path, gene_ids: Sequence[str], array_ids: Sequence[str],
                 values: np.ndarray) -> None:
    """Write the entry of a loaded table, then evict down to the cap; an
    OSError leaves nothing cached."""
    ids = "\n".join([*gene_ids, *array_ids]).encode("utf-8")
    payload = memoryview(np.ascontiguousarray(values)).cast("B")
    digest = hashlib.sha256(ids)
    digest.update(payload)
    m, n = values.shape
    try:
        fd, temp = tempfile.mkstemp(dir=entry.parent, prefix=".new-")
    except OSError:
        return
    try:
        with open(fd, "wb") as fh:
            fh.write(b"%s %s %d %d %d %s\n" % (_ENTRY_MAGIC, entry.name.encode(), m, n, len(ids),
                                                digest.hexdigest().encode()))
            fh.write(ids)
            fh.write(payload)
        os.replace(temp, entry)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        return
    _evict(entry.parent)


def _evict(directory: Path) -> None:
    """Delete the least recently modified files of ``directory`` until the
    rest hold at most _CACHE_CAP_BYTES."""
    files = []
    with contextlib.suppress(OSError), os.scandir(directory) as listing:
        for item in listing:
            with contextlib.suppress(OSError):
                st = item.stat(follow_symlinks=False)
                if stat.S_ISREG(st.st_mode):
                    files.append((st.st_mtime_ns, st.st_size, item.path))
    total = sum(size for _, size, _ in files)
    for _, size, name in sorted(files):
        if total <= _CACHE_CAP_BYTES:
            break
        with contextlib.suppress(OSError):
            os.unlink(name)
        total -= size
