"""Synthetic expression matrices with controlled correlation structure.

Two generators:

* generate_chain_matrix: genes come in chains; each chain starts from an
  independent Gaussian root and every later gene adds an independent
  Gaussian increment, so adjacent chain members are exactly driver/increment
  pairs and variances grow along the chain. An optional per-array shared
  factor is added to every gene, inducing strong correlation between genes
  of different chains while cancelling in within-array differences.
* generate_null_matrix: independent Gaussian genes plus the same optional
  shared factor.

add_noise perturbs an existing matrix per cell or per array.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .datamodel import ExpressionMatrix, NoiseModel
from .errors import ValidationError


def _check_positive(name: str, v: float, allow_zero: bool = False) -> None:
    ok = (v >= 0.0) if allow_zero else (v > 0.0)
    if not (ok and math.isfinite(v)):
        kind = ">= 0" if allow_zero else "> 0"
        raise ValidationError(f"{name} must be finite and {kind}, got {v}")


@dataclass(frozen=True)
class ChainSpec:
    """Parameters for the chain generator; m must be divisible by chain_length."""

    m: int
    n: int
    chain_length: int
    base_sd: float
    increment_sd: float
    shared_factor_sd: float
    seed: int
    base_mean: float = 8.0
    increment_mean: float = 0.0

    def __post_init__(self) -> None:
        if self.m < 2 or self.n < 4:
            raise ValidationError(f"need m >= 2 and n >= 4, got m={self.m}, n={self.n}")
        if self.chain_length < 2:
            raise ValidationError(f"chain_length must be >= 2, got {self.chain_length}")
        if self.m % self.chain_length != 0:
            raise ValidationError(
                f"m ({self.m}) must be divisible by chain_length ({self.chain_length})"
            )
        _check_positive("base_sd", self.base_sd)
        _check_positive("increment_sd", self.increment_sd, allow_zero=True)
        _check_positive("shared_factor_sd", self.shared_factor_sd, allow_zero=True)


def generate_chain_matrix(spec: ChainSpec) -> ExpressionMatrix:
    """Deterministic in the spec (including its seed)."""
    rng = np.random.default_rng(spec.seed)
    n_chains = spec.m // spec.chain_length
    values = np.empty((spec.m, spec.n), dtype=np.float64)
    gene_ids = []
    row = 0
    for c in range(n_chains):
        level = rng.normal(spec.base_mean, spec.base_sd, size=spec.n)
        for k in range(spec.chain_length):
            if k > 0:
                level = level + rng.normal(spec.increment_mean, spec.increment_sd, size=spec.n)
            values[row] = level
            gene_ids.append(f"c{c + 1:04d}g{k + 1:02d}")
            row += 1
    if spec.shared_factor_sd > 0.0:
        values += rng.normal(0.0, spec.shared_factor_sd, size=spec.n)[None, :]
    array_ids = tuple(f"A{j + 1}" for j in range(spec.n))
    return ExpressionMatrix(tuple(gene_ids), array_ids, values, log_scale=True)


def generate_null_matrix(m: int, n: int, shared_factor_sd: float, gene_sd: float,
                         seed: int, mean: float = 8.0) -> ExpressionMatrix:
    """Independent Gaussian genes plus an optional per-array shared factor."""
    if m < 2 or n < 4:
        raise ValidationError(f"need m >= 2 and n >= 4, got m={m}, n={n}")
    _check_positive("shared_factor_sd", shared_factor_sd, allow_zero=True)
    _check_positive("gene_sd", gene_sd, allow_zero=True)
    rng = np.random.default_rng(seed)
    values = mean + rng.normal(0.0, gene_sd, size=(m, n)) if gene_sd > 0.0 else np.full((m, n), float(mean))
    if shared_factor_sd > 0.0:
        values = values + rng.normal(0.0, shared_factor_sd, size=n)[None, :]
    gene_ids = tuple(f"g{i + 1:05d}" for i in range(m))
    array_ids = tuple(f"A{j + 1}" for j in range(n))
    return ExpressionMatrix(gene_ids, array_ids, values, log_scale=True)


def add_noise(matrix: ExpressionMatrix, model: NoiseModel, seed: int) -> ExpressionMatrix:
    """Additive Gaussian disturbance: per cell ("gene-array") or one draw per
    array shared by all genes ("array-only")."""
    rng = np.random.default_rng(seed)
    if model.kind == "gene-array":
        noise = rng.normal(0.0, model.sd, size=matrix.values.shape) if model.sd > 0.0 else 0.0
    else:
        noise = (
            rng.normal(0.0, model.sd, size=matrix.n_arrays)[None, :]
            if model.sd > 0.0
            else 0.0
        )
    return ExpressionMatrix(matrix.gene_ids, matrix.array_ids, matrix.values + noise,
                            matrix.log_scale)


_INT_KEYS = {"m", "n", "chain_length", "seed"}
_NUMBER_KEYS = {"base_sd", "increment_sd", "shared_factor_sd", "base_mean", "increment_mean",
                "gene_sd", "mean"}


def _check_spec_types(kind: str, raw: dict) -> None:
    """Integers (not bool) for the sizes and the seed, numbers (not bool)
    for the sds and means; keys the generator does not take are left to it."""
    for key, value in raw.items():
        if key in _INT_KEYS:
            ok, want = isinstance(value, int), "an integer"
        elif key in _NUMBER_KEYS:
            ok, want = isinstance(value, (int, float)), "a number"
        else:
            continue
        if isinstance(value, bool) or not ok:
            raise ValidationError(f"{kind} spec: {key} must be {want}, got {value!r}")


def spec_from_json(path: str | Path):
    """Read a generator spec: {"kind": "chain", ...} or {"kind": "null", ...}.

    Returns (kind, payload) where payload is a ChainSpec or a dict of
    generate_null_matrix keyword arguments.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read generator spec {path}: {exc}") from exc
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ValidationError(f"generator spec {path} must be an object with a 'kind' key")
    kind = raw.pop("kind")
    if kind == "chain":
        _check_spec_types(kind, raw)
        try:
            return kind, ChainSpec(**raw)
        except TypeError as exc:
            raise ValidationError(f"bad chain spec: {exc}") from exc
    if kind == "null":
        allowed = {"m", "n", "shared_factor_sd", "gene_sd", "seed", "mean"}
        extra = set(raw) - allowed
        if extra or not {"m", "n", "shared_factor_sd", "gene_sd", "seed"} <= set(raw):
            raise ValidationError(
                f"null spec needs m, n, shared_factor_sd, gene_sd, seed; got {sorted(raw)}"
            )
        _check_spec_types(kind, raw)
        return kind, raw
    raise ValidationError(f"unknown generator kind {kind!r}")


def spec_to_dict(kind: str, payload) -> dict:
    out = asdict(payload) if isinstance(payload, ChainSpec) else dict(payload)
    out["kind"] = kind
    return out
