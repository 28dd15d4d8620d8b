"""Declarative problem and run configuration.

Problems load either by catalog name or from an inline definition whose
field expressions are polynomial / exponential terms with coefficient lists
(grammar documented in the CLI module and the README).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .catalog import catalog_names, get_problem
from .errors import ConfigError, DomainError
from .gibbs import KS_MIN_SAMPLES
from .problems import (
    CLASSIFY_MIN_GRID_RES,
    INTERIOR,
    UNIT_WEIGHT,
    BoxDomain,
    EpsilonSchedule,
    MaximumInfo,
    ProblemSpec,
    ScalarField,
    classify_maximum,
    constant_field,
    default_n_zero,
    exponential_field,
    polynomial_field,
    power_epsilon,
    zero_epsilon,
)

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
    ks_threshold: float = 0.02

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


def field_from_config(cfg, dimension: int) -> ScalarField:
    if cfg is None:
        return UNIT_WEIGHT
    if isinstance(cfg, (int, float)):
        return constant_field(float(cfg))
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ConfigError(f"field definition needs a 'type': {cfg!r}")
    kind = cfg["type"]
    try:
        if kind == "constant":
            return constant_field(float(cfg.get("value", 1.0)))
        if kind == "polynomial":
            terms = [(float(t["coeff"]), tuple(int(e) for e in t["powers"]))
                     for t in cfg["terms"]]
            if any(len(p) != dimension for _, p in terms):
                raise ConfigError("polynomial powers must match the problem dimension")
            return polynomial_field(terms, name=cfg.get("name", "poly"))
        if kind == "exponential":
            lin = [float(v) for v in cfg.get("linear", [])]
            if len(lin) != dimension:
                raise ConfigError("exponential linear coefficients must match the dimension")
            return exponential_field(
                float(cfg.get("scale", 1.0)), lin, float(cfg.get("offset", 0.0)),
                name=cfg.get("name", "exp"),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind} field: {exc}") from exc
    raise ConfigError(f"unknown field type {kind!r}")


def epsilon_from_config(cfg) -> EpsilonSchedule:
    if cfg is None:
        return zero_epsilon()
    if not isinstance(cfg, dict):
        raise ConfigError(f"epsilon must be a definition with a 'class': {cfg!r}")
    kind = cfg.get("class", "zero")
    if kind == "zero":
        return zero_epsilon()
    if kind == "power":
        try:
            return power_epsilon(float(cfg["exponent"]), float(cfg.get("scale", 1.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad epsilon: {exc}") from exc
    raise ConfigError(f"unknown epsilon class {kind!r}")


def problem_from_config(cfg) -> ProblemSpec:
    """Resolve a problem: a bare string (or {"catalog": name}) picks a
    catalog entry; a dict with domain/f defines one inline, classified
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
    if "catalog" in cfg:
        return problem_from_config(cfg["catalog"])

    try:
        dom_cfg = cfg["domain"]
        box = BoxDomain(dom_cfg["lower"], dom_cfg["upper"], dom_cfg.get("rotation"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad domain: {exc}") from exc
    m = box.dimension
    if "f" not in cfg:
        raise ConfigError("inline problem needs an 'f' field definition")
    f = field_from_config(cfg["f"], m)
    g = field_from_config(cfg.get("g"), m)
    sigma = field_from_config(cfg["sigma"], m) if "sigma" in cfg else None
    eps = epsilon_from_config(cfg.get("epsilon"))
    name = cfg.get("name", "inline")

    draft = ProblemSpec(
        name=name,
        dimension=m,
        domain=box,
        f_limit=f,
        g=g,
        maximum=_placeholder_maximum(box),
        sigma=sigma,
        epsilon=eps,
        n_zero=1,
    )
    try:
        grid_res = int(cfg.get("classify_grid_res", 64))
        n_zero = int(cfg.get("n_zero", 1))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad inline setting: {exc}") from exc
    if grid_res < CLASSIFY_MIN_GRID_RES:
        raise ConfigError(
            f"classify_grid_res must be at least {CLASSIFY_MIN_GRID_RES}, not {grid_res}")
    info = classify_maximum(draft, grid_res=grid_res)
    if "neighborhood" in cfg:
        try:
            nb_cfg = cfg["neighborhood"]
            nb = BoxDomain(nb_cfg["lower"], nb_cfg["upper"], box.rotation)
            if not box.contains_box(nb):
                raise ValueError("it must lie in the domain")
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad neighborhood: {exc}") from exc
        info = replace(info, neighborhood=nb)
    n0 = default_n_zero(
        box, info.neighborhood, info.kind, lambda n: box.to_box(info.x_star_of_N(n))
    )
    return replace(draft, maximum=info, n_zero=max(n0, n_zero))


def _placeholder_maximum(box: BoxDomain):
    center = 0.5 * (box.lower + box.upper)
    return MaximumInfo(
        kind=INTERIOR,
        x_star=box.to_ambient(center),
        x_star_of_N=lambda n: box.to_ambient(center),
        neighborhood=BoxDomain(box.lower, box.upper, box.rotation),
    )


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


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
