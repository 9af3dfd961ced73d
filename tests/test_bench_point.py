"""The pairing schedule of ``bench/point.py``, loaded by path (it is a
script, not part of the package)."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _point():
    spec = importlib.util.spec_from_file_location("bench_point", ROOT / "bench" / "point.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_first_side_alternates_within_each_workload():
    point = _point()
    pairs = point.schedule()
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert sorted({w for _, _, w, _ in pairs}) == sorted(workloads)
    for workload in workloads:
        firsts = [first for _, _, w, first in pairs if w == workload]
        assert len(firsts) == 10
        assert all(a != b for a, b in zip(firsts, firsts[1:])), (workload, firsts)
        assert firsts.count("parent") == firsts.count("change") == 5
