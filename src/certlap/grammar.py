"""The inline problem grammar: a definition of the domain, the fields f, g
and sigma, epsilon and the optional neighbourhood (grammar documented in the
CLI module and the README) built into a classified ``ProblemSpec``.

Every problem is built here: an inline ``--config`` problem and each
catalog entry, which is such a definition.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from typing import Callable, Optional

from .errors import ConfigError
from .problems import (
    CLASSIFY_MIN_GRID_RES,
    INTERIOR,
    MAX_DIMENSION,
    UNIT_WEIGHT,
    BoxDomain,
    EpsilonSchedule,
    MaximumInfo,
    ProblemSpec,
    ScalarField,
    classify_maximum,
    constant_field,
    exponential_field,
    polynomial_field,
)

# the keys an inline definition may have
DEFINITION_KEYS = ("name", "domain", "f", "g", "sigma", "epsilon", "neighborhood",
                   "classify_grid_res", "n_zero")


def json_int(value, what: str) -> int:
    """``value`` when it is an integer (a bool is not one); otherwise a
    ConfigError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, not {value!r}")
    return value


def json_float(value, what: str) -> float:
    """``value`` as a float when it is a finite number, integer or decimal,
    within the float range (a bool is not one, nor JSON's ``Infinity`` or
    ``NaN``, which fail the comparison); otherwise a ConfigError naming
    ``what``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{what} must be a finite number, not {value!r}")
    return float(value)


def _json_floats(values, what: str):
    """A list of numbers, or of such lists (a rotation's rows), each number
    through ``json_float``."""
    if isinstance(values, (list, tuple)):
        return [_json_floats(v, what) for v in values]
    return json_float(values, what)


# the keys a definition of each field kind, a polynomial term and epsilon may have
_FIELD_KEYS = {
    "constant": ("type", "value"),
    "polynomial": ("type", "terms"),
    "exponential": ("type", "linear", "scale", "offset"),
}
_TERM_KEYS = ("coeff", "powers")
_EPSILON_KEYS = ("class", "scale", "exponent")


def _refuse_unknown(cfg: dict, known, what: str) -> None:
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} keys {unknown}; known: {list(known)}")


def field_from_config(cfg, dimension: int) -> ScalarField:
    if cfg is None:
        return UNIT_WEIGHT
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ConfigError(f"field definition needs a 'type': {cfg!r}")
    kind = cfg["type"]
    if not isinstance(kind, str) or kind not in _FIELD_KEYS:
        raise ConfigError(f"unknown field type {kind!r}")
    _refuse_unknown(cfg, _FIELD_KEYS[kind], f"{kind} field")
    try:
        if kind == "constant":
            return constant_field(json_float(cfg.get("value", 1.0), "constant value"))
        if kind == "polynomial":
            for t in cfg["terms"]:
                _refuse_unknown(t, _TERM_KEYS, "polynomial term")
            terms = [(json_float(t["coeff"], "polynomial coeff"), tuple(t["powers"]))
                     for t in cfg["terms"]]
            if any(len(p) != dimension for _, p in terms):
                raise ConfigError("polynomial powers must match the problem dimension")
            return polynomial_field(terms)
        if kind == "exponential":
            lin = [json_float(v, "exponential linear entry") for v in cfg.get("linear", [])]
            if len(lin) != dimension:
                raise ConfigError("exponential linear coefficients must match the dimension")
            return exponential_field(json_float(cfg.get("scale", 1.0), "exponential scale"),
                                     lin, json_float(cfg.get("offset", 0.0), "exponential offset"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind} field: {exc}") from exc


def epsilon_from_config(cfg) -> EpsilonSchedule:
    if cfg is None:
        return EpsilonSchedule()
    if not isinstance(cfg, dict):
        raise ConfigError(f"epsilon must be a definition with a 'class': {cfg!r}")
    _refuse_unknown(cfg, _EPSILON_KEYS, "epsilon")
    kind = cfg.get("class", "zero")
    if kind == "zero":
        # a scale or exponent belongs to the power class: read with the zero
        # class (explicit or defaulted) it would be dropped without a word
        given = sorted(set(cfg) & {"scale", "exponent"})
        if given:
            raise ConfigError(f"epsilon keys {given} need \"class\": \"power\"; "
                              "the zero class takes none")
        return EpsilonSchedule()
    if kind == "power":
        try:
            return EpsilonSchedule(json_float(cfg.get("scale", 1.0), "epsilon scale"),
                                   json_float(cfg["exponent"], "epsilon exponent"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad epsilon: {exc}") from exc
    raise ConfigError(f"unknown epsilon class {kind!r}")


def problem_from_definition(
    cfg: dict, exact_integral: Optional[Callable[[int], float]] = None
) -> ProblemSpec:
    """Build an inline definition, its maximum classified automatically;
    ``exact_integral`` is a closed form of the integral, when one is known."""
    _refuse_unknown(cfg, DEFINITION_KEYS, "inline problem")
    try:
        dom_cfg = cfg["domain"]
        _refuse_unknown(dom_cfg, ("lower", "upper", "rotation"), "domain")
        lower, upper = (_json_floats(dom_cfg[k], f"domain {k} entry") for k in ("lower", "upper"))
        rot = dom_cfg.get("rotation")
        box = BoxDomain(lower, upper, None if rot is None else _json_floats(rot, "rotation entry"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad domain: {exc}") from exc
    m = box.dimension
    if m > MAX_DIMENSION:
        # refused before classification, whose grid has 65^m points
        raise ConfigError(f"bad domain: dimension {m} above {MAX_DIMENSION} is unsupported")
    if "f" not in cfg:
        raise ConfigError("inline problem needs an 'f' field definition")
    f = field_from_config(cfg["f"], m)
    g = field_from_config(cfg.get("g"), m)
    sigma = field_from_config(cfg["sigma"], m) if "sigma" in cfg else None
    eps = epsilon_from_config(cfg.get("epsilon"))
    grid_res = json_int(cfg.get("classify_grid_res", 64), "classify_grid_res")
    n_zero = json_int(cfg.get("n_zero", 1), "n_zero")
    if grid_res < CLASSIFY_MIN_GRID_RES:
        raise ConfigError(
            f"classify_grid_res must be at least {CLASSIFY_MIN_GRID_RES}, not {grid_res}")
    nb = None
    if "neighborhood" in cfg:
        try:
            nb_cfg = cfg["neighborhood"]
            _refuse_unknown(nb_cfg, ("lower", "upper"), "neighborhood")
            nb = BoxDomain(*(_json_floats(nb_cfg[k], f"neighborhood {k} entry")
                             for k in ("lower", "upper")), box.rotation)
            if not box.contains_box(nb):
                raise ValueError("it must lie in the domain")
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad neighborhood: {exc}") from exc

    centre = box.to_ambient(0.5 * (box.lower + box.upper))
    draft = ProblemSpec(
        name=cfg.get("name", "inline"),
        domain=box,
        f_limit=f,
        g=g,
        maximum=MaximumInfo(INTERIOR, centre, box),  # replaced once classified
        sigma=sigma,
        epsilon=eps,
        exact_integral=exact_integral,
    )
    info = classify_maximum(draft, grid_res=grid_res, neighborhood=nb)
    return replace(draft, maximum=replace(info, n_zero=max(info.n_zero, n_zero)))
