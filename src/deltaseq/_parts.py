"""Independent work in contiguous parts across the usable CPUs.

Parsing a table, formatting one, running KS replicates, measuring
jackknife distances and summarizing correlation tiles are each cut into
contiguous parts: this process does the first, and a child forked for each
other part does that one. The first four hold the GIL, so two threads run
them no faster than one. The tiles' GEMMs release it, but parts keep every
call this process makes on its one thread, so that spans timed around
nested calls never overlap. A child touches only its own slice of the
memory it shares with the parent: a byte range of the file, rows of the
values, a range of replicates, of subsample EDFs or of correlation tiles it
reads. Walking the parent's own objects, its line strings say, would write
their reference counts and so copy every shared page they live on.

A split costs CPU time beyond the fork itself (about 2 ms for a 100 MB
process): page faults in both processes while they share memory, and the
copy of each child's result. So each caller cuts its work into parts only
above a floor of work in its own units, set by measurement beside the
caller's constant; smaller work stays in this process.

A child computes its part into its own buffer and sends the bytes only once
done: streamed through a pipe of 64 KiB, it would wait on the parent's part
0 after its first chunks. A child's peak is the parent's memory at the fork
plus its own part.

A part whose fork fails, or whose child exits non-zero (its part raised, a
ParseError say), runs again in the parent, from its place in the output on.
So work in parts gives the whole result, or raises the error of its first
faulty part, as one part would.

A process forks only while it runs one Python thread: the child holds only
the thread that forked it, and a lock another thread held stays locked
there. Native pools such as OpenBLAS's are outside that count, and a part
may call BLAS: BLAS calls run on Python threads, so the pool is idle at the
fork, and OpenBLAS shuts it down before a fork and restarts it, with as
many threads, on its next call in either process.
"""

from __future__ import annotations

import io
import os
import shutil
import signal
import threading
import warnings
from typing import BinaryIO, Callable

import numpy as np


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _part_count(size: int, floor: int) -> int:
    """How many parts ``size`` units of work are cut into: one per usable
    CPU, each of at least ``floor`` units, and 1 wherever forking is
    unavailable or unsafe."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return 1
    return max(1, min(_usable_cpus(), size // floor))


def _map_in_parts(fn: Callable[[int], object], n: int, dtype, size: int, floor: int) -> np.ndarray:
    """``np.array([fn(0), ..., fn(n - 1)], dtype)``, the indices cut into
    contiguous ranges, one part each (``_part_count(size, floor)`` of them,
    at most n); each part sends its records as raw bytes."""
    k = min(_part_count(size, floor), n)
    bounds = [n * i // k for i in range(k + 1)]

    def part(i: int, out: io.BytesIO) -> None:
        out.write(np.array([fn(j) for j in range(bounds[i], bounds[i + 1])], dtype=dtype).tobytes())

    return np.frombuffer(_in_parts(part, k), dtype=dtype).copy()


def _in_parts(part: Callable[[int, io.BytesIO], None], k: int) -> bytes:
    """The bytes ``part(0, out)``, ..., ``part(k - 1, out)`` write to ``out``
    up to its position, in order.

    Part 0 runs in this process and writes straight into the result. Each
    other part runs in a child forked for it, which collects its bytes and
    sends them through a pipe only once it is done, so that it never waits
    on the parent's part 0; the parent copies each pipe into the result in
    chunks. A child ends with ``os._exit``, with status 0 only once it wrote
    all its bytes. A part whose fork raised OSError, or whose child exited
    with another status, runs here in its place, over any bytes the child
    sent: so a part's error is raised here, the first in order. With k = 1
    nothing forks. Every child is reaped before this returns or raises; one
    whose bytes are no longer wanted is killed first.
    """
    children: dict[int, tuple[int, BinaryIO]] = {}
    try:
        for i in range(1, k):
            try:
                children[i] = _fork_part(part, i)
            except OSError:  # out of processes or descriptors: the part runs here
                pass
        out = io.BytesIO()
        for i in range(k):
            if i in children:
                pid, reader = children[i]
                at = out.tell()
                shutil.copyfileobj(reader, out)
                reader.close()
                status = os.waitpid(pid, 0)[1]
                del children[i]
                if status == 0:
                    continue
                out.seek(at)
            part(i, out)
        out.truncate()
        return out.getvalue()
    finally:
        for pid, reader in children.values():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_part(part: Callable[[int, io.BytesIO], None], i: int) -> tuple[int, BinaryIO]:
    """Fork a child that writes the bytes of ``part(i, out)`` to a pipe;
    its pid and the pipe's reading end."""
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when the process has other OS threads; the
            # only ones here are native pools, safe as explained above
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # the child, which never returns
        code = 1
        try:
            os.close(r)
            out = io.BytesIO()
            part(i, out)
            out.truncate()
            with open(w, "wb") as fh:
                fh.write(out.getbuffer())
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, os.fdopen(r, "rb")
