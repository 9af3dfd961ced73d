"""Per-family error rate control by threshold relaxation.

Rejecting p <= gamma/m bounds the EXPECTED NUMBER of false positives by
gamma rather than the probability of any false positive, so gamma may exceed
one; gamma = 1 recovers the classical familywise threshold. With discrete
p-values (e.g. exact rank tests) P(p <= t) can sit strictly below t, making
the realized false-positive count conservative relative to gamma.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class RejectionReport:
    """Outcome of one screening pass.

    ``rejected`` holds the sorted indices with p <= threshold. Truth-derived
    fields (fp, tp, fdr) are None until confusion_counts fills them in;
    fdr = fp / max(#rejected, 1).
    """

    m: int
    pfer: float
    threshold: float
    p_values: np.ndarray
    rejected: np.ndarray
    truth: np.ndarray | None = None
    fp: int | None = None
    tp: int | None = None
    fdr: float | None = None

    @property
    def n_rejected(self) -> int:
        return int(self.rejected.shape[0])


def extended_bonferroni(p_values: Sequence[float], pfer: float) -> RejectionReport:
    """Reject every hypothesis with p <= pfer/m (threshold clamped to 1)."""
    p = np.asarray(p_values, dtype=np.float64).ravel()
    if p.shape[0] < 1:
        raise ValidationError("need at least one p-value")
    if not np.isfinite(p).all() or (p < 0.0).any() or (p > 1.0).any():
        bad = int(np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))[0])
        raise ValidationError(f"p-value at index {bad} outside [0, 1]: {p[bad]}")
    if not (pfer > 0.0 and math.isfinite(pfer)):
        raise ValidationError(f"pfer must be finite and > 0, got {pfer}")
    m = p.shape[0]
    threshold = min(pfer / m, 1.0)
    rejected = np.flatnonzero(p <= threshold)
    return RejectionReport(m, float(pfer), float(threshold), p, rejected)


def confusion_counts(report: RejectionReport, truth: Sequence[bool]) -> RejectionReport:
    """Attach false/true positive counts given per-hypothesis truth flags
    (True = genuinely modified)."""
    t = np.asarray(truth, dtype=bool).ravel()
    if t.shape[0] != report.m:
        raise ValidationError(f"truth length {t.shape[0]} does not match m={report.m}")
    rej = report.rejected
    tp = int(t[rej].sum())
    fp = int(rej.shape[0] - tp)
    fdr = fp / max(rej.shape[0], 1)
    return replace(report, truth=t, fp=fp, tp=tp, fdr=float(fdr))


def json_dumps(payload: dict) -> str:
    """The byte format of every JSON report: sorted keys, two-space indent,
    and a closing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def report_to_json(report: RejectionReport) -> str:
    return json_dumps({
        "m": report.m,
        "pfer": report.pfer,
        "threshold": report.threshold,
        "n_rejected": report.n_rejected,
        "fp": report.fp,
        "tp": report.tp,
        "fdr": report.fdr,
    })


def report_to_csv(report: RejectionReport, row_ids: Sequence[str] | None = None) -> str:
    if row_ids is not None and len(row_ids) != report.m:
        raise ValidationError(f"got {len(row_ids)} row ids for {report.m} hypotheses")
    rej = np.zeros(report.m, dtype=bool)
    rej[report.rejected] = True
    head = "index,p,rejected,truth" if row_ids is None else "row_id,p,rejected,truth"
    lines = [head]
    for i in range(report.m):
        label = str(i) if row_ids is None else row_ids[i]
        truth = "" if report.truth is None else str(int(report.truth[i]))
        lines.append(f"{label},{float(report.p_values[i])!r},{int(rej[i])},{truth}")
    return "\n".join(lines) + "\n"
