"""High-accuracy reference integration of the peaked integrals.

Tensor-product Gauss-Legendre on dyadic panels that shrink geometrically
toward the maximizer (the integrand localizes at scale 1/sqrt(N), so uniform
panels would need O(sqrt(N)) nodes per axis).  All exponents are evaluated
relative to f(x*(N), N): individual factors can over/underflow wildly while
the shifted products stay representable.  Summation order is fixed (blocked
partial sums combined with fsum), so values are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import QuadratureBudgetError, UnsupportedDimensionError
from .derivatives import field_values
from .problems import BoxDomain, ProblemSpec, ScalarField, rotated_view

MAX_PANEL_DEPTH = 40
_GAUSS_ORDER = {1: 32, 2: 20, 3: 12, 4: 8}
_CHUNK = 2_000_000  # max tensor nodes evaluated at once


@dataclass(frozen=True)
class OracleValue:
    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool
    log_abs_value: float = float("-inf")
    # error estimate relative to the value (nan where not known); unlike
    # abs_error_estimate it is not capped where the value overflows
    rel_error_estimate: float = float("nan")


@lru_cache(maxsize=64)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _axis_nodes(lo: float, hi: float, center: float, depth: int, order: int):
    """Panel breakpoints dyadically accumulating toward ``center``; returns
    flat node and weight arrays for one axis."""
    c = min(max(center, lo), hi)
    breaks = [lo]
    left = c - lo
    if left > 0:
        for j in range(depth, 0, -1):
            breaks.append(c - left * 0.5 ** (depth - j + 1))
        breaks.append(c)
    right = hi - c
    if right > 0:
        for j in range(1, depth + 1):
            breaks.append(c + right * 0.5 ** (depth - j + 1))
        breaks.append(hi)
    breaks = np.unique(np.asarray(breaks))
    xs, ws = _leggauss(order)
    nodes, weights = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * xs)
        weights.append(half * ws)
    return np.concatenate(nodes), np.concatenate(weights)


def _tensor_sum(
    axes_nodes, axes_weights, exponent: Callable[[np.ndarray], np.ndarray],
    weight_fn: Optional[Callable[[np.ndarray], np.ndarray]],
):
    """Deterministic blocked tensor-product sum of w(x) * exp(exponent(x))."""
    m = len(axes_nodes)
    n0 = len(axes_nodes[0])
    partials = []
    count = 0
    inner = int(np.prod([len(a) for a in axes_nodes[1:]])) if m > 1 else 1
    block = max(1, _CHUNK // max(1, inner))
    for start in range(0, n0, block):
        sel = slice(start, min(n0, start + block))
        mesh = np.meshgrid(axes_nodes[0][sel], *axes_nodes[1:], indexing="ij")
        pts = np.stack([g.reshape(-1) for g in mesh], axis=-1)
        wmesh = np.meshgrid(axes_weights[0][sel], *axes_weights[1:], indexing="ij")
        wts = np.ones(len(pts))
        for g in wmesh:
            wts = wts * g.reshape(-1)
        vals = np.exp(exponent(pts))
        if weight_fn is not None:
            vals = vals * weight_fn(pts)
        partials.append(float(np.dot(wts, vals)))
        count += len(pts)
    return math.fsum(partials), count


def integrate(
    spec: ProblemSpec,
    N: int,
    tol: float = 1e-10,
    weight: Optional[ScalarField] = None,
    log_weight: Optional[Callable] = None,
    domain: Optional[BoxDomain] = None,
    center: Optional[np.ndarray] = None,
) -> OracleValue:
    """Reference value of the integral of w(x) exp(N f(x, N)) over the box.

    ``weight`` replaces the problem's g (multiplicative); ``log_weight`` is
    added inside the exponent (used for exponential tilts, where a
    multiplicative weight would overflow).  Converged when two successive
    panel refinements agree within tol * max(1, |value|), the value being
    measured relative to exp(N f(x*(N), N) + log_weight(x*)).
    """
    N = int(N)
    m = spec.dimension
    if m > 4:
        raise UnsupportedDimensionError("oracle integration supports m <= 4")
    if tol < 1e-14:
        raise ValueError("tol must be at least 1e-14")
    box = domain if domain is not None else spec.domain
    f_box = spec.f_of_box(N)
    w_field = weight if weight is not None else spec.g
    w_box = rotated_view(w_field, box.rotation)
    if center is None:
        center = spec.z_star_of_N(N)
    c = box.clip(np.asarray(center, dtype=float))

    f_peak = float(np.asarray(f_box.evaluate(c)))
    lw_peak = float(log_weight(c)) if log_weight is not None else 0.0
    log_offset = N * f_peak + lw_peak

    def exponent(pts):
        e = N * (field_values(f_box, pts) - f_peak)
        if log_weight is not None:
            e = e + (np.asarray(log_weight(pts), dtype=float) - lw_peak)
        return e

    def wfn(pts):
        return field_values(w_box, pts)

    order = _GAUSS_ORDER[m]
    prev = None
    evals = 0
    depth = 4
    while depth <= MAX_PANEL_DEPTH:
        axes = [
            _axis_nodes(box.lower[i], box.upper[i], c[i], depth, order)
            for i in range(m)
        ]
        val, cnt = _tensor_sum(
            [a[0] for a in axes], [a[1] for a in axes], exponent, wfn
        )
        evals += cnt
        if prev is not None:
            delta = abs(val - prev)
            if delta <= tol * max(1.0, abs(val)):
                return _finish(val, delta, evals, True, log_offset)
        prev = val
        depth += 2
    best = _finish(prev, float("nan"), evals, False, log_offset)
    raise QuadratureBudgetError(
        f"panel budget exhausted before reaching tol={tol}", best=best
    )


def _finish(shifted: float, delta: float, evals: int, ok: bool, log_offset: float) -> OracleValue:
    if shifted == 0.0:
        return OracleValue(0.0, delta, evals, ok, float("-inf"), math.inf)
    log_abs = math.log(abs(shifted)) + log_offset
    value = math.copysign(math.exp(log_abs), shifted) if log_abs < 700 else math.copysign(float("inf"), shifted)
    err = delta * math.exp(min(log_offset, 700.0)) if math.isfinite(delta) else delta
    return OracleValue(value, err, evals, ok, log_abs, delta / abs(shifted))


def tail_integral(m: int, k: int, a: float, N: int, R: float, tol: float = 1e-10) -> OracleValue:
    """Reference value of the integral of |x|^k exp(-a N |x|^2) over the
    complement of the radius-R ball, via the radial reduction
    (2 pi^{m/2} / Gamma(m/2)) * int_R^inf r^{k+m-1} exp(-a N r^2) dr with
    adaptive Gauss-Legendre panels (relative convergence criterion)."""
    if m < 1 or k < 0:
        raise ValueError("need m >= 1 and k >= 0")
    if a <= 0 or N < 1 or R < 0:
        raise ValueError("need a > 0, N >= 1, R >= 0")
    if tol < 1e-14:
        raise ValueError("tol must be at least 1e-14")
    q = k + m - 1
    aN = a * float(N)
    sigma = 1.0 / math.sqrt(2.0 * aN)
    mode = math.sqrt(q / (2.0 * aN)) if q > 0 else 0.0
    upper = max(R, mode) + 45.0 * sigma
    surface = 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
    # integrate relative to the peak of the radial integrand on [R, upper];
    # dyadic panels concentrate toward the peak, whose decay length
    # 1/(2 a N r_peak) can be far shorter than sigma
    r_peak = min(max(mode, R), upper)
    log_peak = q * math.log(r_peak) - aN * r_peak**2 if r_peak > 0 else -aN * R**2

    def radial(rs):
        with np.errstate(divide="ignore"):
            logs = np.where(rs > 0, q * np.log(np.maximum(rs, 1e-300)), 0.0)
        return np.exp(logs - aN * rs**2 - log_peak)

    prev = None
    evals = 0
    depth = 6
    while depth <= MAX_PANEL_DEPTH:
        nodes, weights = _axis_nodes(R, upper, r_peak, depth, 24)
        val = float(np.dot(weights, radial(nodes)))
        evals += len(nodes)
        if prev is not None and abs(val - prev) <= tol * max(abs(val), 1e-300):
            shifted = val * surface
            log_abs = (
                math.log(abs(shifted)) + log_peak if shifted > 0 else float("-inf")
            )
            return OracleValue(
                math.exp(log_abs) if shifted > 0 else 0.0,
                abs(val - prev) * surface * math.exp(log_peak),
                evals,
                True,
                log_abs,
            )
        prev = val
        depth += 2
    raise QuadratureBudgetError("radial panel budget exhausted")
