"""Outside-in span tracing of the deltaseq layers.

The program is not edited. ``Tracer.install`` wraps the public functions of
the ``deltaseq`` modules listed in ``LAYERS``: each function gets exactly one
wrapper, and every module global that binds the original object is pointed at
that wrapper. This matters because callers look functions up in different
places: ``experiments`` and ``cli`` import ``exact_pvalues_for_scaled``,
``kolmogorov_distance``, ``load_matrix`` and others by name, while
``_kernels.ks_scaled_batch`` is read as a module attribute. A binding that
was missed would show up as a layer with zero calls, which the benchmark's
coverage check refuses.

A span is ``[name, start, end, parent, counters]`` with monotonic-clock
times, kept in memory until the owner writes them out. The self time of a
span is its duration minus the durations of its direct children; calls run on
one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

import numpy as np


def _load_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _written_bytes(args, kwargs, result):
    return {"bytes": len(result)}  # the TSV text is ASCII: one byte per character


def _ks_rows(args, kwargs, result):
    scaled, ties = result
    return {"rows": int(scaled.shape[0]), "tied_rows": int(np.count_nonzero(ties))}


def _hist_values(args, kwargs, result):
    return {"values": int(np.size(args[0]))}


def _jump_points(f) -> int:
    # EDF arguments carry their sample, step functions their jump points
    xs = getattr(f, "xs", None)
    return int(xs.shape[0]) if xs is not None else int(f.size)


def _distance_points(args, kwargs, result):
    # computed: the jump points of both arguments, an upper bound on the
    # union the distance is evaluated over
    return {"points": _jump_points(args[0]) + _jump_points(args[1])}


def _pair_flops(gemm_passes: int):
    def count(args, kwargs, result):
        source = args[0]
        n = np.asarray(getattr(source, "values", source)).shape[1]
        pairs = int(result.pair_count)
        return {"pairs": pairs, "flops": 2 * n * pairs * gemm_passes}
    return count


def _triples_accepted(args, kwargs, result):
    return {"kept": int(result.triples.shape[0]), "attempts": int(result.attempts)}


def _pair_evals(args, kwargs, result):
    k = result.first_k
    return {"pair_evals": result.B * (k * (k - 1) // 2)}


def _replicates(args, kwargs, result):
    return {"replicates": int(result.config.replicates)}


_REPORT_CLASSES = ("NullSplitResult", "StabilityReport", "ExperimentReport",
                   "ConsistencyTrajectory", "ExceedanceResult")

# (layer, module, attribute path, counter). Several functions may share one
# layer name; their spans add up.
LAYERS = (
    ("cli.manifest", "deltaseq.cli", "_manifest", None),
    ("datamodel.load", "deltaseq.datamodel", "load_matrix", _load_bytes),
    ("datamodel.write", "deltaseq.datamodel", "table_to_tsv", _written_bytes),
    ("datamodel.select", "deltaseq.datamodel", "select_arrays", None),
    ("ordering.variance", "deltaseq.ordering", "variance_ordering", None),
    ("ordering.delta", "deltaseq.ordering", "delta_sequence", None),
    ("ordering.csv", "deltaseq.ordering", "ordering_to_csv", None),
    ("kernels.ks", "deltaseq._kernels", "ks_scaled_batch", _ks_rows),
    ("kernels.hist", "deltaseq._kernels", "hist_accumulate", _hist_values),
    ("kstest.pvalues", "deltaseq.kstest", "exact_pvalues_for_scaled", None),
    ("kstest.cdf", "deltaseq.kstest", "ks_exact_cdf", None),
    ("kstest.center", "deltaseq.kstest", "mean_of_edfs", None),
    ("kstest.distance", "deltaseq.kstest", "kolmogorov_distance", _distance_points),
    ("mtp.bonferroni", "deltaseq.mtp", "extended_bonferroni", None),
    ("mtp.confusion", "deltaseq.mtp", "confusion_counts", None),
    ("mtp.csv", "deltaseq.mtp", "report_to_csv", None),
    ("corrstats.summary", "deltaseq.corrstats", "all_pairs_summary", _pair_flops(1)),
    ("corrstats.summary", "deltaseq.corrstats", "z_summary", _pair_flops(2)),
    ("dependence.census", "deltaseq.dependence", "type_a_census", None),
    ("dependence.census", "deltaseq.dependence", "triple_census", _triples_accepted),
    ("dependence.csv", "deltaseq.dependence", "pair_census_to_csv", None),
    ("dependence.csv", "deltaseq.dependence", "triple_census_to_csv", None),
    ("experiments.jackknife", "deltaseq.experiments", "jackknife_stability", _pair_evals),
    ("experiments.inject", "deltaseq.experiments", "effect_injection_experiment", _replicates),
    ("experiments.null", "deltaseq.experiments", "null_split_experiment", None),
    ("experiments.screen", "deltaseq.experiments", "two_sample_screen", None),
    ("experiments.screen", "deltaseq.experiments", "cross_phenotype_exceedance", None),
    ("experiments.moving", "deltaseq.experiments", "moving_mean_consistency", None),
    *(("experiments.report", "deltaseq.experiments", f"{cls}.{meth}", None)
      for cls in _REPORT_CLASSES for meth in ("to_json", "to_csv")),
    ("synth.generate", "deltaseq.synth", "generate_chain_matrix", None),
    ("synth.generate", "deltaseq.synth", "generate_null_matrix", None),
)


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None, count=None):
        """``fn(*args, **kwargs)`` inside a span; ``count(args, kwargs,
        result)`` may return the span's counters."""
        kwargs = kwargs or {}
        parent = self._open[-1] if self._open else -1
        span = [name, 0.0, 0.0, parent, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.monotonic()
            self._open.pop()
        if count is not None:
            span[4] = count(args, kwargs, result)
        return result

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return wrapper

    def install(self) -> None:
        """Wrap every function in LAYERS wherever a deltaseq module binds it."""
        importlib.import_module("deltaseq.cli")  # the package root does not import it
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "deltaseq" or n.startswith("deltaseq."))]
        for layer, module_name, attr, count in LAYERS:
            owner = importlib.import_module(module_name)
            *classes, name = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, name)
            wrapper = self.wrap(layer, original, count)
            if classes:
                setattr(owner, name, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
