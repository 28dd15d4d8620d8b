"""High-accuracy reference integration of the peaked integrals.

Tensor-product Gauss-Legendre on dyadic panels that shrink geometrically
toward the maximizer (the integrand localizes at scale 1/sqrt(N), so uniform
panels would need O(sqrt(N)) nodes per axis).  Each panel set is evaluated
twice, with Gauss order n and with order n - 2 on the same panels; the call
has converged when the two agree to tol times the integral of |integrand|
(the order-n sum of |w| e^(...)), and returns the order-n value.  Otherwise
the axes whose own order pair, on the line through the centre, misses tol
are refined by two dyadic levels (every axis, if none does).  A deeper
level only splits the panels next to the centre, so once one fails to cut
the disagreement by 4 the order pair is raised by 2 on the same panels
instead; once that fails to cut it too, the call gives up.  All exponents are
evaluated relative to f(x*(N), N): individual factors can over/underflow
wildly while the shifted products stay representable.  Summation order is
fixed (blocked partial sums combined with fsum), so values are reproducible
bit for bit.

Where the integrand factorises, so does each tensor sum (the product rule,
Davis & Rabinowitz, *Methods of Numerical Integration*, 2nd ed., 1984,
§5.6).  The axes are split into blocks: the coupling of f(., N) and of the
log weight (``ScalarField.coupling``), joined, plus one block holding every
axis a non-constant weight reads.  The unit weight g = 1 is never
evaluated: multiplying by 1.0 is exact.  Each block is summed on its own
axes, from the terms that read them: block B's exponent is N (f_B(x_B) -
f_B(c_B)) + (l_B(x_B) - l_B(c_B)), where f_B and l_B are the terms of
f(., N) and of the log weight whose support lies in B (the terms that read
no axis cancel) and c_B is the centre on B; the weight's block evaluates
the weight's terms on its axes.  The block exponents sum to the full one,
so Q_n, Q_{n-2} and the |integrand| sum are products over blocks, and the
refinement path is the one the full tensor sum would take.  A block sum
that recurs within one call (a line probe's own axis at
the panel depths already summed, a block with every axis pinned) is reused,
not evaluated again; the products are formed in the same order, so the
value is the same bit for bit.  ``evaluations`` counts the nodes of every
block sum on the refinement path, reused or not: sum_B prod_{i in B} n_i
per panel sum in place of prod_i n_i.  A one-axis block sum is one dot
product of its weights and values, evaluated on the (n, 1) column of its
nodes.  The panel nodes and weights of each (axis, clipped centre
coordinate, depth, order) on the problem's own domain are built once per
spec, so once per run, and kept read-only in the spec's cache beside
f(., N) and x*(N), which a ``dataclasses.replace`` copy does not share:
Z(N) shares its centre with the g-integral, and a tilted MGF centre
differs from x*(N) only on its tilted axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Optional

import numpy as np

from .errors import QuadratureBudgetError, UnsupportedDimensionError
from .problems import (
    MAX_DIMENSION,
    BoxDomain,
    ProblemSpec,
    ScalarField,
    axis_blocks,
    block_field,
    join_coupling,
    read_axes,
    rotated_view,
)

MAX_PANEL_DEPTH = 40
# Gauss order n per dimension.  Each depth is checked against order n - 2,
# whose error on the panels that deepening leaves alone should sit below the
# default tol: on a 4-D Gaussian an 8/6 pair stalls at 2e-8 to 1e-7, a 12/10
# pair at 7e-13.  Raising the order on a stall goes up to twice these.
# In 2-D a 12/10 pair converges on the depth-4 panels of every 2-D problem
# at tol 1e-10 (N = 25 to 1600), each log value within 2.1e-14 of an
# order-32 reference at tol 1e-13 (order 20: 3.9e-14), at a third of the
# evaluations of 20/18 on a coupled block.  Order 10 drifts to 4.2e-13 and
# order 8 deepens every call, so 12 is the lowest that converges at depth 4.
# The order is keyed on the dimension, not on a block's size, so a split
# integrand and the same one as one block take the same path.
_GAUSS_ORDER = {1: 32, 2: 12, 3: 12, 4: 12}
_CHUNK = 2_000_000  # max tensor nodes evaluated at once
# the most panel node lists one spec keeps for its own domain: a bound for a
# long-lived spec, far above the 2-48 a catalog or workload run keeps (each
# list is 120-5,248 nodes)
_MAX_STORED_AXES = 512


@dataclass(frozen=True)
class OracleValue:
    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool
    log_abs_value: float = float("-inf")
    # error estimate relative to the value (nan where not known)
    rel_error_estimate: float = float("nan")
    # panel depth per axis and Gauss order n the refinement ended at
    depths: tuple[int, ...] = ()
    order: int = 0


@lru_cache(maxsize=64)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _axis_nodes(lo: float, hi: float, center: float, depth: int, order: int):
    """Panel breakpoints dyadically accumulating toward ``center``; returns
    flat node and weight arrays for one axis.  The breaks, panel midpoints
    and half-widths are Python floats, which round as float64 does."""
    lo, hi = float(lo), float(hi)
    c = min(max(float(center), lo), hi)
    breaks = [lo, *(c - (c - lo) * 0.5 ** k for k in range(1, depth + 1)), c,
              *(c + (hi - c) * 0.5 ** k for k in range(depth, 0, -1)), hi]
    # rounding is monotone, so the breaks are sorted; the panels of zero
    # width (c at lo or hi, or two breaks that round together) are dropped
    mids, half = [], []
    for a, b in zip(breaks, breaks[1:]):
        if b > a:
            mids.append(0.5 * (a + b))
            half.append(0.5 * (b - a))
    xs, ws = _leggauss(order)
    half = np.array(half)
    nodes = np.array(mids)[:, None] + np.multiply.outer(half, xs)
    return nodes.ravel(), np.multiply.outer(half, ws).ravel()


def _panel_store(spec: ProblemSpec, box: BoxDomain) -> dict:
    """Where ``integrate`` keeps its ``_axis_nodes`` arrays, keyed by (axis,
    clipped centre coordinate, depth, order).  On the spec's own domain it
    is the spec's cached "panel_nodes" store, kept as long as the spec (a
    run's) and never shared with a copy, since Z(N), the MGFs and the
    probability sums of one N build the same nodes; a sub-box's nodes are
    kept for the call only, as ``measure_of``'s audit boxes do not repeat."""
    if box is not spec.domain:
        return {}
    return spec.cached("panel_nodes", dict)


def _tensor_sum(
    axes_nodes, axes_weights, exponent: Callable[[np.ndarray], np.ndarray],
    weight_fn: Optional[Callable[[np.ndarray], np.ndarray]],
):
    """Deterministic blocked tensor-product sums of w(x) * exp(exponent(x))
    and of its absolute value; returns (sum, abs_sum, evaluations).

    Each block of first-axis nodes is evaluated on one preallocated
    (block, n_1, ..., n_{m-1}, m) point buffer, filled by broadcasting each
    axis's nodes.  The quadrature weights are contracted one axis at a time:
    the outer product of the trailing axes' weights, built once, with ``@``,
    then the first axis with ``np.dot``.

    One axis of at most _CHUNK nodes is one block with no trailing weights:
    the exponent is evaluated on the (n, 1) column view of the nodes and the
    sums are one ``np.dot`` each, the value the general path forms (its
    trailing weight is 1.0, which is exact, and its fsum has one term)."""
    if len(axes_nodes) == 1 and len(axes_nodes[0]) <= _CHUNK:
        pts, w = axes_nodes[0][:, None], axes_weights[0]
        vals = np.exp(exponent(pts))
        if weight_fn is not None:
            vals *= weight_fn(pts)
        total = float(np.dot(w, vals))
        if weight_fn is not None and vals.min() < 0:  # exp is never negative
            return total, float(np.dot(w, np.abs(vals))), len(w)
        return total, total, len(w)
    m = len(axes_nodes)
    trailing = tuple(len(a) for a in axes_nodes[1:])
    inner = math.prod(trailing)
    n0 = len(axes_nodes[0])
    block = min(n0, max(1, _CHUNK // inner))
    w_inner = reduce(np.multiply.outer, axes_weights[1:], np.ones(())).reshape(inner)
    buf = np.empty((block,) + trailing + (m,))
    for i in range(1, m):
        buf[..., i] = axes_nodes[i].reshape((-1,) + (1,) * (m - 1 - i))
    partials, abs_partials = [], []
    for start in range(0, n0, block):
        x0 = axes_nodes[0][start:start + block]
        pts = buf[:len(x0)]
        pts[..., 0] = x0.reshape((-1,) + (1,) * (m - 1))
        vals = np.exp(exponent(pts))
        if weight_fn is not None:
            vals *= weight_fn(pts)
        flat = vals.reshape(len(x0), inner)
        w0 = axes_weights[0][start:start + block]
        partials.append(float(np.dot(w0, flat @ w_inner)))
        if weight_fn is not None and flat.min() < 0:  # exp is never negative
            abs_partials.append(float(np.dot(w0, np.abs(flat) @ w_inner)))
        else:
            abs_partials.append(partials[-1])
    return math.fsum(partials), math.fsum(abs_partials), n0 * inner


def _is_unit(weight: ScalarField) -> bool:
    """True when the weight is the one constant term 1.0 (g = 1)."""
    if len(weight.terms) != 1:
        return False
    c, powers, rate = weight.terms[0]
    return c == 1.0 and not powers and rate is None


@lru_cache(maxsize=256)
def _blocks(m: int, f_coupling, lw_coupling, w_coupling):
    """The sorted axis blocks the integrand factorises over, and the index of
    the block the weight is applied in.  The couplings of f and of the log
    weight are joined with one block of every axis the weight reads (the
    weight multiplies the integrand); an axis nothing reads is a block of
    its own."""
    w_axes = read_axes(w_coupling, m)
    blocks = tuple(axis_blocks(join_coupling(f_coupling, lw_coupling, (w_axes,)), m))
    return blocks, next(k for k, b in enumerate(blocks) if set(w_axes) <= set(b))


def _block_exponent(N: int, block, c: np.ndarray, f: ScalarField,
                    log_weight: Optional[ScalarField]):
    """The exponent N (f_B(x) - f_B(c_B)) + (l_B(x) - l_B(c_B)) of one block
    B, on points of its own axes: f_B and l_B are the terms of f and of the
    log weight that read B's axes (``block_field``), and c_B the centre's
    coordinates on B.  The terms that read no axis cancel."""
    c = c[list(block)]
    f = block_field(f, block)
    log_weight = None if log_weight is None else block_field(log_weight, block)
    f_peak = float(f.evaluate(c))
    lw_peak = float(log_weight.evaluate(c)) if log_weight is not None else 0.0

    def exponent(pts):
        # np.subtract makes the one fresh array the rest works in: a field
        # may return a view of pts
        e = np.subtract(f.evaluate(pts), f_peak)
        e *= N
        if log_weight is not None:
            e += np.subtract(log_weight.evaluate(pts), lw_peak)
        return e

    return exponent


def integrate(
    spec: ProblemSpec,
    N: int,
    tol: float = 1e-10,
    weight: Optional[ScalarField] = None,
    log_weight: Optional[ScalarField] = None,
    domain: Optional[BoxDomain] = None,
    center: Optional[np.ndarray] = None,
) -> OracleValue:
    """Reference value of the integral of w(x) exp(N f(x, N)) over the box.

    ``weight`` replaces the problem's g (multiplicative); ``log_weight`` is
    added inside the exponent (used for exponential tilts, where a
    multiplicative weight would overflow).

    The axes are split into blocks that nothing couples: the coupling of
    f(., N) joined with that of the log weight, plus one block holding every
    axis a non-constant weight reads (an axis nothing reads is a block of
    its own).  Each panel sum is the product over blocks of the tensor sum
    on the block's own axes, from the terms that read them (a line probe
    pins the block's other axes at the centre), and the weight applied in
    one block; with one block it is the full tensor sum.

    From panel depth 4 on every axis, each panel set is evaluated with
    Gauss orders n and n - 2; converged when |Q_n - Q_{n-2}| <= tol * A_n,
    where A_n is the order-n sum of the integrand's absolute value (|Q_n|
    for a positive integrand; for a sign-changing weight it keeps a
    cancelling integral from demanding round-off).  Otherwise the same pair
    is formed on the line through the centre along each axis, and the axes
    whose line misses tol get two more dyadic levels (every axis, if no line
    misses), up to MAX_PANEL_DEPTH.  A deeper level only splits the panels
    next to the centre; once one fails to cut the disagreement by 4, the
    rest sits on panels it leaves alone, and the pair is raised to orders
    n + 2 and n on the same panels, up to twice the dimension's order.  Once
    a raise fails to cut it by 4 too (round-off, or an integrand that is
    not smooth), the call raises QuadratureBudgetError.  The value returned
    is Q_n, and |Q_n - Q_{n-2}| is its error estimate (an over-estimate: it
    is the error of Q_{n-2}).  A block sum formed once in the call is
    reused wherever it recurs, not evaluated again, and a one-axis block
    sum is one flat dot product.  On the spec's own domain the panel nodes
    of each (axis, clipped centre coordinate, depth, order) are kept in the
    spec's own cache (``_panel_store``) and built once for all its calls,
    not for a copy's; a sub-box's are built per call.  ``evaluations``
    counts the nodes of every block sum on the refinement path, reused or
    not; ``depths`` and ``order`` are the panel depths and Gauss order n
    the call ended at.
    """
    N = int(N)
    m = spec.dimension
    if m > MAX_DIMENSION:
        raise UnsupportedDimensionError(f"oracle integration supports m <= {MAX_DIMENSION}")
    if tol < 1e-14:
        raise ValueError("tol must be at least 1e-14")
    box = domain if domain is not None else spec.domain
    f_box = spec.f_of_box(N)
    w_box = spec.g_box if weight is None else (
        weight if box.identity_frame else rotated_view(weight, box.rotation))
    if center is None:
        center = spec.z_star_of_N(N)
    c = box.clip(np.asarray(center, dtype=float))

    lw_coupling = () if log_weight is None else log_weight.coupling
    blocks, w_block = _blocks(m, f_box.coupling, lw_coupling, w_box.coupling)
    if _is_unit(w_box):
        w_block = None  # multiplying by 1.0 is exact: the weight is never read
    f_peak = float(f_box.evaluate(c))
    lw_peak = float(log_weight.evaluate(c)) if log_weight is not None else 0.0
    log_offset = N * f_peak + lw_peak

    # per block: its own exponent, and in the weight's block the weight's
    # terms on the block's axes
    parts = [
        (block, _block_exponent(N, block, c, f_box, log_weight),
         block_field(w_box, block, constants=True).evaluate if k == w_block else None)
        for k, block in enumerate(blocks)
    ]

    sums = {}  # the block sums formed so far in this call
    store = _panel_store(spec, box)

    def nodes(i: int, depth: int, order: int):
        key = (i, float(c[i]), depth, order)
        got = store.get(key)
        if got is None:
            got = _axis_nodes(box.lower[i], box.upper[i], c[i], depth, order)
            for a in got:
                a.flags.writeable = False
            if len(store) < _MAX_STORED_AXES:
                store[key] = got
        return got

    def panel_sum(depths, order: int, line: Optional[int] = None):
        """The order-``order`` sums on the panels of ``depths``, as products
        over blocks; with ``line``, only on the line through the centre along
        that axis.  A block's sum depends only on its axes' depths (-1 for
        a pinned axis) and, unless every axis is pinned, the order, so one
        formed before in this call is reused, evaluations and all."""
        total, scale, evals = 1.0, 1.0, 0
        for k, (block, exponent, weight_fn) in enumerate(parts):
            levels = tuple(depths[i] if line in (None, i) else -1 for i in block)
            key = (k, order if max(levels) >= 0 else None, levels)
            if key not in sums:
                axes = [
                    nodes(i, depths[i], order)
                    if line in (None, i) else (c[i:i + 1], np.ones(1))
                    for i in block
                ]
                sums[key] = _tensor_sum([x[0] for x in axes], [x[1] for x in axes],
                                        exponent, weight_fn)
            s, a, n = sums[key]
            total, scale, evals = total * s, scale * a, evals + n
        return total, scale, evals

    depths, order = [4] * m, _GAUSS_ORDER[m]
    val, scale, evals = panel_sum(depths, order)
    low, _, cnt = panel_sum(depths, order - 2)
    evals += cnt
    deepen = True
    last = math.inf
    while True:
        delta = abs(val - low)
        if delta <= tol * scale:
            return _finish(val, delta, evals, True, log_offset, depths, order)
        if delta > last / 4:
            if not deepen:
                break
            deepen = False
        last = delta
        if deepen and max(depths) < MAX_PANEL_DEPTH:
            flagged = []
            for i in range(m):
                hi, line_scale, k_hi = panel_sum(depths, order, line=i)
                lo, _, k_lo = panel_sum(depths, order - 2, line=i)
                evals += k_hi + k_lo
                if abs(hi - lo) > tol * line_scale:
                    flagged.append(i)
            for i in flagged or range(m):
                depths[i] += 2
            val, scale, cnt = panel_sum(depths, order)
            low, _, cnt_low = panel_sum(depths, order - 2)
            evals += cnt + cnt_low
        elif not deepen and order < 2 * _GAUSS_ORDER[m]:
            order += 2
            low = val
            val, scale, cnt = panel_sum(depths, order)
            evals += cnt
        else:
            break
    best = _finish(val, delta, evals, False, log_offset, depths, order)
    raise QuadratureBudgetError(
        f"no panel depths up to {depths} and Gauss order up to {order} reached "
        f"tol={tol}", best=best
    )


def _exp_or_inf(log_abs: float) -> float:
    return math.inf if log_abs >= 700 else math.exp(log_abs)


def _finish(shifted: float, delta: float, evals: int, ok: bool, log_offset: float,
            depths, order: int) -> OracleValue:
    """Undo the shift by exp(log_offset).  The value and its absolute error
    estimate are both formed in log space, so either is inf only where its
    own logarithm passes 700."""
    log_abs = math.log(abs(shifted)) + log_offset if shifted else -math.inf
    log_err = math.log(delta) + log_offset if delta else -math.inf
    rel = delta / abs(shifted) if shifted else math.inf
    value = math.copysign(_exp_or_inf(log_abs), shifted)
    return OracleValue(value, _exp_or_inf(log_err), evals, ok, log_abs, rel, tuple(depths), order)


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
