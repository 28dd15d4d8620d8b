"""Declarative problem and run configuration.

A problem is a catalog name or an inline definition whose field expressions
are polynomial / exponential terms with coefficient lists (grammar
documented in the CLI module and the README); both are built by
``grammar.problem_from_definition``, since every catalog entry is itself
such a definition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .catalog import catalog_names, get_problem
from .errors import ConfigError, DomainError
from .gibbs import KS_MIN_SAMPLES
from .grammar import problem_from_definition
from .problems import ProblemSpec

KNOWN_CHECKS = ("laplace", "constants", "lln", "fluctuations", "preposition1", "sampler")


@dataclass(frozen=True)
class RunConfig:
    problem: object  # catalog name or inline definition dict
    n_sweep: tuple[int, ...] = (25, 100, 400, 1600)
    grid_res: int = 64
    tol: float = 1e-10
    safety_factor: float = 1.1
    seed: int = 0
    checks: tuple[str, ...] = ("laplace",)
    output_path: str = "."
    sample_count: int = 100_000

    def validate(self) -> None:
        if not self.n_sweep or any(
            b <= a for a, b in zip(self.n_sweep, self.n_sweep[1:])
        ):
            raise ConfigError("n_sweep must be nonempty and strictly increasing")
        unknown = [c for c in self.checks if c not in KNOWN_CHECKS]
        if unknown:
            raise ConfigError(f"unknown checks: {unknown}; known: {list(KNOWN_CHECKS)}")
        if not self.checks:
            raise ConfigError("at least one check is required")
        for what, value, least in (("grid_res", self.grid_res, 16), ("tol", self.tol, 1e-14),
                                   ("safety_factor", self.safety_factor, 1.0),
                                   ("sample_count", self.sample_count, 1)):
            if not value >= least:
                raise ConfigError(f"{what} must be at least {least:g}, not {value!r}")
        if "fluctuations" in self.checks and self.sample_count < KS_MIN_SAMPLES:
            raise ConfigError(
                f"the fluctuations check needs sample_count at least {KS_MIN_SAMPLES}, "
                f"not {self.sample_count!r}"
            )


def problem_from_config(cfg) -> ProblemSpec:
    """Resolve a problem: a string picks a catalog entry; a dict is an
    inline definition (``grammar.DEFINITION_KEYS``), its maximum classified
    automatically."""
    if isinstance(cfg, str):
        try:
            return get_problem(cfg)
        except DomainError as exc:
            raise ConfigError(
                f"unknown catalog problem {cfg!r}; available: {catalog_names()}"
            ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("problem must be a catalog name or an inline definition")
    return problem_from_definition(cfg)


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object")
    return cfg


def strict_json(obj):
    """``obj`` as plain JSON values, with None (null) for every non-finite
    float (an infinite F2_prime, an overflowed enclosure); the reports write
    it with ``allow_nan=False``."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [strict_json(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj
