"""Tests of the test harness's own helpers."""

import subprocess
import sys
import threading

from helpers import child_pids


def test_child_pids_while_threads_start_and_end():
    """A thread that ends between the listing of this process's tasks and
    the read of its ``children`` file must not make ``child_pids`` fail,
    nor hide a child of another task."""
    child = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"],
                             stdin=subprocess.PIPE)
    stop = threading.Event()

    def churn():
        while not stop.is_set():
            short = threading.Thread(target=lambda: None)
            short.start()
            short.join()

    churner = threading.Thread(target=churn)
    churner.start()
    try:
        for _ in range(3000):
            assert child.pid in child_pids()
    finally:
        stop.set()
        churner.join(timeout=10)
        child.stdin.close()
        child.wait(timeout=10)
    assert not churner.is_alive()
    assert child.pid not in child_pids()
