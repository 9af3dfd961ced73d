import threading

import pytest

from helpers import child_pids


@pytest.fixture(autouse=True)
def own_table_cache(tmp_path_factory, monkeypatch):
    """Point the parsed-table cache at a directory of this test's own, so no
    test writes the user's cache or reads another test's entries; child
    processes inherit it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread running which it did not find."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    if left:
        pytest.fail(f"test left threads running: {left}")


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process, running or unreaped, which
    it did not find. Reaps nothing, so the leak stays visible."""
    before = child_pids()
    yield
    left = sorted(child_pids() - before)
    if left:
        pytest.fail(f"test left child processes: {left}")
