"""The program's side of the contract with the benchmark's span tracer,
``clibench/spantrace.py``: every function it wraps exists under the name it
looks up, and the traced calls a command makes in its own process never
overlap on threads, so that the tracer's self times add up."""

import importlib
import importlib.util
import threading
from pathlib import Path

import numpy as np

from deltaseq import _kernels, _parts, all_pairs_summary, corrstats, z_summary

SPANTRACE = Path(__file__).resolve().parents[1] / "clibench" / "spantrace.py"


def traced_layers():
    """``spantrace.LAYERS``, read from the file without installing a tracer."""
    spec = importlib.util.spec_from_file_location("spantrace_layers", SPANTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_function_resolves_to_a_callable():
    layers = traced_layers()
    assert layers
    for layer, module_name, attr, _ in layers:
        owner = importlib.import_module(module_name)
        for name in attr.split("."):
            owner = getattr(owner, name)
        assert callable(owner), (layer, module_name, attr)


def test_summaries_bin_on_the_calling_thread_in_parts(monkeypatch):
    calls = []
    hist = _kernels.hist_accumulate

    def recorded(*args):
        calls.append(threading.get_ident())
        hist(*args)

    monkeypatch.setattr(_kernels, "hist_accumulate", recorded)
    monkeypatch.setattr(_parts, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(corrstats, "_CORR_PART_PAIRS", 1)
    monkeypatch.setattr(corrstats, "_TILE", 4)
    values = np.random.default_rng(0).normal(size=(40, 9))
    # 40 rows in blocks of 4: 55 tiles, 27 of them in part 0, which runs
    # here; part 1 bins its tiles in its child
    all_pairs_summary(values)
    assert len(calls) == 27
    z_summary(values)
    assert len(calls) in (54, 81)  # the z bins take a second pass, or a third
    assert set(calls) == {threading.get_ident()}
