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

import inspect
import json
import typing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .datamodel import MIN_ARRAYS, MIN_GENES, ExpressionMatrix, NoiseModel
from .errors import ValidationError, _check_positive, _seed_sequence


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
        if self.m < MIN_GENES or self.n < MIN_ARRAYS:
            raise ValidationError(f"need m >= {MIN_GENES} and n >= {MIN_ARRAYS}, got m={self.m}, n={self.n}")
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
    rng = np.random.default_rng(_seed_sequence(spec.seed))
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
    if m < MIN_GENES or n < MIN_ARRAYS:
        raise ValidationError(f"need m >= {MIN_GENES} and n >= {MIN_ARRAYS}, got m={m}, n={n}")
    _check_positive("shared_factor_sd", shared_factor_sd, allow_zero=True)
    _check_positive("gene_sd", gene_sd, allow_zero=True)
    rng = np.random.default_rng(_seed_sequence(seed))
    values = mean + rng.normal(0.0, gene_sd, size=(m, n)) if gene_sd > 0.0 else np.full((m, n), float(mean))
    if shared_factor_sd > 0.0:
        values = values + rng.normal(0.0, shared_factor_sd, size=n)[None, :]
    gene_ids = tuple(f"g{i + 1:05d}" for i in range(m))
    array_ids = tuple(f"A{j + 1}" for j in range(n))
    return ExpressionMatrix(gene_ids, array_ids, values, log_scale=True)


def add_noise(matrix: ExpressionMatrix, model: NoiseModel, seed: int) -> ExpressionMatrix:
    """Additive Gaussian disturbance: per cell ("gene-array") or one draw per
    array shared by all genes ("array-only")."""
    rng = np.random.default_rng(_seed_sequence(seed, "noise seed"))
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


# the JSON values a spec field of each declared type takes; bool is refused apart
_SPEC_TYPES = {int: ("an integer", int), float: ("a number", (int, float))}


def _checked_spec(kind: str, declaration, raw: dict) -> dict:
    """``raw`` checked against the parameters of ``declaration``: each key
    one of them, every one without a default present, and each value of
    its declared type."""
    params = inspect.signature(declaration).parameters
    required = [name for name, p in params.items() if p.default is p.empty]
    if not set(raw) <= set(params) or not set(required) <= set(raw):
        optional = [name for name in params if name not in required]
        raise ValidationError(f"{kind} spec needs {', '.join(required)} and may give "
                              f"{', '.join(optional)}; got {sorted(raw)}")
    types = typing.get_type_hints(declaration)
    for key, value in raw.items():
        want, ok = _SPEC_TYPES[types[key]]
        if isinstance(value, bool) or not isinstance(value, ok):
            raise ValidationError(f"{kind} spec: {key} must be {want}, got {value!r}")
    return raw


def spec_from_json(path: str | Path):
    """Read a generator spec: {"kind": "chain", ...} or {"kind": "null", ...},
    whose other keys are the fields of ChainSpec or the parameters of
    generate_null_matrix.

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
        return kind, ChainSpec(**_checked_spec(kind, ChainSpec, raw))
    if kind == "null":
        return kind, _checked_spec(kind, generate_null_matrix, raw)
    raise ValidationError(f"unknown generator kind {kind!r}")


def spec_to_dict(kind: str, payload) -> dict:
    out = asdict(payload) if isinstance(payload, ChainSpec) else dict(payload)
    out["kind"] = kind
    return out
