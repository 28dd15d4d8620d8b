"""Probability harness for the Gibbs measure with density proportional to
exp(N f(x, N)) on the domain: moment-generating-function checks for the law
of large numbers and for the fluctuation limits, the maximizer drift bound,
the tilted-maximizer estimates, and an exact rejection sampler.

A ``GibbsMeasure`` holds one N's log normaliser log Z(N); build it once per
N and pass it on.  Every probability of the measure is one quadrature
ratio against Z(N): ``measure_of`` (a box), ``mgf_X`` and ``mgf_Y`` all
go through ``_expectation``, the one place that forms that ratio.

The limit law has one shape.  At a boundary maximum the fluctuation is
exponential along the boundary axis (scaled by N, measured inward) and
Gaussian along the other axes (scaled by sqrt(N)); at an interior maximum
it is the same law with no exponential axis.  ``problems.limit_axes``
decides the exponential axis, the Gaussian axes and the inward sign; every
function here indexes by the Gaussian axes and adds the exponential-axis
term only when there is one.

The sampler rejects against ``_Envelope``, a piecewise bound on
exp(N (f_N - f_N*)): a core from the certified curvature (and inward slope
at a boundary maximum) on the neighborhood, one tangent plane per cell off
it, proved where f is a polynomial of degree at most 3.  On a coupling
block of several Gaussian axes the core is a matrix Gaussian from the
local curvature at x*(N), less Gershgorin row bounds on how much the
Hessian can rise over the neighborhood.  Each proposal is read against the
piece that drew it, as it is drawn; the mass of the pieces gives the
predicted acceptance, which sizes the proposal blocks, and every draw read
is checked against E'.

``mgf_Y`` tests the N -> infinity law.  The draws are tested against the
law at finite N instead: ``empirical_limit_test`` rescales them about
x*(N) and compares them with the second-order expansion of f_N there.
That law tends to the limit law, and it carries the maximizer drift and
the finite-N curvature that a fixed KS threshold would otherwise read as a
failure; the third-order (skew) term of order 1/sqrt(N) is not modelled.

Sign conventions (the source formulas leave two ambiguous):
  * the limiting covariance is (-D^2 f(x*))^{-1} on the Gaussian axes, the
    only positive definite reading at a maximum;
  * the exponential coordinate is N * (X_1 - x_1*) measured inward
    (nonnegative), so its limit is an exponential with rate |f'(x*)| and
    MGF rate / (rate - xi_1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import ConstantsReport
from .derivatives import gradients_on, hessians_on
from .errors import (
    AssumptionViolationError,
    DomainError,
    EnvelopeFailureError,
    InsufficientSampleError,
    MgfPoleError,
    TheoremMismatchError,
    TiltTooLargeError,
)
from .oracle import OracleValue, integrate
from .problems import (
    INTERIOR,
    UNIT_WEIGHT,
    BoxDomain,
    ProblemSpec,
    _maximizer_of_n,
    axis_blocks,
    block_field,
    gauss_block,
    limit_axes,
    linear_field,
)

# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GibbsMeasure:
    spec: ProblemSpec
    N: int
    normalizer: OracleValue  # Z(N)
    tol: float = 1e-10

    @property
    def log_normalizer(self) -> float:
        return self.normalizer.log_abs_value


def gibbs_measure(spec: ProblemSpec, N: int, tol: float = 1e-10) -> GibbsMeasure:
    z = integrate(spec, N, tol=tol, weight=UNIT_WEIGHT)
    return GibbsMeasure(spec=spec, N=int(N), normalizer=z, tol=tol)


def _expectation(measure: GibbsMeasure, log_weight=None, domain=None, center=None) -> float:
    """Expectation of exp(log_weight) times the indicator of ``domain``
    (default: the whole domain) under the measure, as the quadrature ratio
    exp(log numerator - log Z(N)).  Box probabilities and both MGFs are
    such ratios; the measure carries no g-weight, hence the unit weight."""
    num = integrate(
        measure.spec, measure.N, tol=measure.tol, weight=UNIT_WEIGHT,
        log_weight=log_weight, domain=domain, center=center,
    )
    return math.exp(num.log_abs_value - measure.log_normalizer)


def measure_of(measure: GibbsMeasure, box: BoxDomain) -> float:
    """Probability of a sub-box under the Gibbs measure (oracle ratio)."""
    if not measure.spec.domain.contains_box(box):
        raise DomainError("box escapes the problem domain")
    return _expectation(measure, domain=box)


# ---------------------------------------------------------------------------
# MGF reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MgfReport:
    xi: np.ndarray
    N: int
    mgf_value: float
    limit_prediction: float
    residual: float
    expected_decay: float
    kind: str
    hypothesis_violated: bool = False


def _limit_covariance(spec: ProblemSpec) -> np.ndarray:
    """(-D^2 f_limit(x*))^{-1} on the Gaussian axes, box frame."""
    _, gauss, _ = limit_axes(spec)
    return np.linalg.inv(-gauss_block(spec.peak().hessian, gauss))


def _check_tilt_inside(spec: ProblemSpec, N: int, tilt_gradient: np.ndarray, what: str):
    """The tilted exponent must still peak strictly inside the certified
    neighborhood; returns the tilted maximizer (box frame, read-only),
    solved from x*(N) once per N and tilt by ``problems._maximizer_of_n``."""
    axis, _, _ = limit_axes(spec)
    pinned = axis if axis is not None and abs(tilt_gradient[axis]) < 1e-15 else None
    z_t = _maximizer_of_n(spec, N, spec.z_star_of_N(N), pinned, tilt_gradient)
    if not spec.maximum.neighborhood.contains_z(z_t, tol=1e-9 * np.min(spec.domain.edges)):
        raise TiltTooLargeError(f"{what}: tilted maximizer {z_t} leaves the certified neighborhood")
    return z_t


def _tilt_vector(spec: ProblemSpec, xi) -> tuple[np.ndarray, np.ndarray]:
    """(xi, xi in the box frame): ``xi`` as a float vector, which must have
    the problem dimension."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (spec.dimension,):
        raise ValueError("xi must have the problem dimension")
    return xi, spec.domain.to_box(xi)


def mgf_X(measure: GibbsMeasure, xi) -> MgfReport:
    """MGF of the identity vector under the Gibbs measure, as a quadrature
    ratio, against the constant-limit prediction exp(xi . x*)."""
    spec = measure.spec
    N = measure.N
    xi, xi_box = _tilt_vector(spec, xi)
    z_t = _check_tilt_inside(spec, N, xi_box / N, "mgf_X")
    mgf = _expectation(measure, linear_field(xi_box), center=z_t)
    pred = math.exp(float(xi @ spec.maximum.x_star))
    eps_n = spec.epsilon.evaluate(N)
    return MgfReport(
        xi=xi,
        N=N,
        mgf_value=mgf,
        limit_prediction=pred,
        residual=abs(mgf / pred - 1.0),
        expected_decay=max(1.0 / math.sqrt(N), eps_n),
        kind="lln",
    )


def mgf_Y(measure: GibbsMeasure, xi) -> MgfReport:
    """MGF of the rescaled fluctuation vector: sqrt(N) (X - x*) on the
    Gaussian axes, predicted exp(xi' Sigma xi / 2) with
    Sigma = (-D^2 f(x*))^{-1}; at a boundary maximum the exponential
    coordinate is scaled by N and measured inward, and the prediction gains
    the factor rate / (rate - xi_1)."""
    spec = measure.spec
    N = measure.N
    xi, xi_box = _tilt_vector(spec, xi)
    sqrtN = math.sqrt(N)
    violated = not spec.epsilon.sqrt_n_vanishes
    eps_n = spec.epsilon.evaluate(N)
    expected = max(1.0 / sqrtN, eps_n * sqrtN)
    z_star = spec.z_star
    axis, gauss, s = limit_axes(spec)

    xi_gauss = xi_box.copy()  # the Gaussian tilt, zero on the exponential axis
    tilt_grad = xi_box / sqrtN
    if axis is not None:
        rate = abs(float(spec.peak().gradient[axis]))
        xi1 = float(xi_box[axis])
        if abs(xi1) >= rate * (1.0 - 1e-3):
            raise MgfPoleError(
                f"boundary tilt xi_1={xi1} at or beyond the exponential pole (rate {rate})"
            )
        tilt_grad[axis] = xi1 * s  # N-scaled on the exponential axis
        xi_gauss[axis] = 0.0
    z_t = _check_tilt_inside(spec, N, tilt_grad, "mgf_Y")
    if axis is not None and abs(z_t[axis] - z_star[axis]) > 1e-7 * spec.domain.edges[axis]:
        raise TiltTooLargeError("boundary tilt pushed the maximizer off the face")

    # the tilt of the rescaled fluctuation: sqrt(N) xi_gauss . (x - z*), and
    # N xi_1 times the inward distance from the face on the exponential axis
    tilt = sqrtN * xi_gauss
    if axis is not None:
        tilt[axis] = N * xi1 * s
    mgf = _expectation(measure, linear_field(tilt, at=z_star), center=z_t)
    xi_hat = xi_box[gauss]
    pred = math.exp(0.5 * float(xi_hat @ _limit_covariance(spec) @ xi_hat))
    kind = "fluctuation_interior"
    if axis is not None:
        pred = rate / (rate - xi1) * pred
        kind = "fluctuation_boundary"
    return MgfReport(xi, N, mgf, pred, abs(mgf / pred - 1.0), expected, kind, violated)


# Residuals at or below this floor are round-off of the quadrature ratios,
# not signal: an exact MGF (exp1d) leaves residuals of 1e-16 to 1e-15.
RESIDUAL_FLOOR = 1e-12


def fluctuation_verdict(reports) -> dict:
    """Decision rule for a sweep of mgf_Y reports: the residuals fail to
    decay when the last one is above RESIDUAL_FLOOR and no smaller than the
    first; the sweep is flagged when that or the schedule-based hypothesis
    violation holds."""
    residuals = [r.residual for r in reports]
    nondecay = (
        len(residuals) >= 2 and residuals[-1] > RESIDUAL_FLOOR and residuals[-1] >= residuals[0]
    )
    violated = any(r.hypothesis_violated for r in reports)
    return {
        "residual_nondecaying": bool(nondecay),
        "hypothesis_violated": bool(violated),
        "flagged": bool(nondecay or violated),
    }


def fluctuation_sweep(spec: ProblemSpec, n_sweep, xi, tol: float = 1e-10) -> dict:
    """mgf_Y residuals over a sweep, with the fluctuation verdict."""
    rows = [mgf_Y(gibbs_measure(spec, N, tol=tol), xi) for N in n_sweep]
    return {"rows": rows, "residuals": [r.residual for r in rows], **fluctuation_verdict(rows)}


# ---------------------------------------------------------------------------
# drift of the maximizer
# ---------------------------------------------------------------------------

def maximum_drift_check(spec: ProblemSpec, consts: ConstantsReport, n_sweep) -> list[dict]:
    """Per-N check of |x*(N) - x*| <= eps(N) |D sigma(x*)| / F2_prime, with
    x*(N) the maximizer of the spec's own f(., N) (``spec.z_star_of_N``)."""
    if spec.f_same_at_every_n:
        raise ValueError("drift check needs a sigma perturbation and an epsilon scale > 0")
    nb = spec.maximum.neighborhood
    z_star = spec.z_star
    _, gauss, _ = limit_axes(spec)
    dsig_norm = float(np.linalg.norm(spec.sigma_box.gradient(z_star)[gauss]))

    rows = []
    for N in n_sweep:
        N = int(N)
        z_n = spec.z_star_of_N(N)
        if not nb.contains_z(z_n, tol=1e-9):
            raise AssumptionViolationError(
                "maximizer_drift", f"x*(N) left the certified neighborhood at N={N}"
            )
        drift = float(np.linalg.norm((z_n - z_star)[gauss]))
        bound = spec.epsilon.evaluate(N) * dsig_norm / consts.F2_prime
        rows.append(
            {
                "N": N,
                "drift": drift,
                "bound": bound,
                "ok": drift <= bound * (1.0 + 1e-6) + 1e-12,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# tilted-maximizer estimates
# ---------------------------------------------------------------------------

def require_proposition1(spec: ProblemSpec) -> None:
    """Raise for Proposition 1's hypothesis that the spec alone decides,
    "eps(N) sqrt(N) nonincreasing" (``EpsilonSchedule.sqrt_n_nonincreasing``).
    ``cli.run_checks`` calls it before any check runs when the preposition1
    check is requested at an interior maximum."""
    if not spec.epsilon.sqrt_n_nonincreasing:
        raise AssumptionViolationError(
            "epsilon_sqrtN", "eps(N) sqrt(N) must be nonincreasing on the sweep"
        )


def tilted_maximizer_check(spec: ProblemSpec, xi, n_sweep) -> list[dict]:
    """Per-N bounded-ratio statistics for the tilted exponent
    f~(x, N) = f(x, N) + xi . (x - x*) / sqrt(N) at an interior maximum:

      (i)   ||x~*(N) - x*(N) - Sigma xi / sqrt(N)|| * N,
      (ii)  |f~(x~*) - f(x*(N), N) - xi' Sigma xi / (2N)| * min(N^{3/2}, sqrt(N)/eps),
      (iii) |sqrt(|det H(x*(N))| / |det H~(x~*)|) - 1| * sqrt(N),

    with Sigma = (-D^2 f(x*))^{-1}."""
    if spec.maximum.kind != INTERIOR:
        raise TheoremMismatchError("tilted-maximizer estimates require an interior maximum")
    sweep = [int(n) for n in n_sweep]
    require_proposition1(spec)
    _, xi_box = _tilt_vector(spec, xi)
    z_star = spec.z_star
    Sigma = _limit_covariance(spec)

    rows = []
    for N in sweep:
        sqrtN = math.sqrt(N)
        f_n, peak = spec.f_of_box(N), spec.peak(N)
        z_t = _check_tilt_inside(spec, N, xi_box / sqrtN, "tilted estimates")
        # tilt value relative to x*: f~ = f + xi.(x - x*)/sqrt(N)
        f_tilde_val = float(f_n.evaluate(z_t)) + float(xi_box @ (z_t - z_star)) / sqrtN
        drift_pred = Sigma @ xi_box / sqrtN
        s1 = float(np.linalg.norm(z_t - peak.z - drift_pred)) * N
        quad = 0.5 * float(xi_box @ Sigma @ xi_box) / N
        eps_n = spec.epsilon.evaluate(N)
        scale2 = N**1.5 if eps_n == 0.0 else min(N**1.5, sqrtN / eps_n)
        s2 = abs(f_tilde_val - peak.value - quad) * scale2
        H_t = f_n.hessian(z_t)  # tilt is linear: same Hessian field
        ratio = math.sqrt(abs(np.linalg.det(peak.hessian)) / abs(np.linalg.det(H_t)))
        s3 = abs(ratio - 1.0) * sqrtN
        rows.append({"N": N, "stat_drift": s1, "stat_value": s2, "stat_det": s3})
    return rows


# ---------------------------------------------------------------------------
# exact rejection sampler
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleBatch:
    draws: np.ndarray  # (count, m) ambient coordinates
    N: int
    proposed: int
    acceptance_rate: float
    spec: ProblemSpec

    @property
    def count(self) -> int:
        return self.draws.shape[0]


# proposals drawn at once: bounds the sampler's temporaries, as
# oracle._CHUNK bounds the quadrature's
_BLOCK = 1 << 16
# the most product cells the envelope builds over the domain
_MESH_CELLS = 1 << 16
# the least in-cell rate |s|: a cell flat along an axis draws uniformly on it
_FLAT = 1e-200


def _walls(lo: float, nb_lo: float, nb_up: float, up: float, z: float, sigma: float):
    """Cell walls along one axis: the domain's and the neighborhood's
    faces, walls 0.5 sigma apart within 6 sigma of z and, beyond those,
    widths doubling from sigma out to the faces."""
    steps = [0.5 * k for k in range(1, 13)]
    while steps[-1] < max(z - lo, up - z) / sigma:
        steps.append(2.0 * steps[-1] - 5.0)  # 6, 7, 9, 13, 21: widths 1, 2, 4, 8
    offsets = sigma * np.array(steps)
    walls = np.concatenate(([lo, nb_lo, nb_up, up, z], z - offsets, z + offsets))
    return np.unique(walls[(walls >= lo) & (walls <= up)])


def _block_hessians(spec: ProblemSpec, consts: ConstantsReport, N: int, blocks) -> tuple:
    """The (n, k, k) Hessians of f(., N) on each of ``blocks``
    (``block_field``, on the block's own axes) at the nodes of the block's
    neighborhood sub-grid, the constants grid at ``consts.grid_res``.  Where
    the curvature is the same at every N they come from the field at the
    sweep's first N, as the constants' do.  They are kept in the spec's
    cache under ("block_hessians", N, blocks, grid_res), N that first N or
    else the call's own, so taken once per spec and N."""
    nb = spec.maximum.neighborhood
    N = consts.n_sweep[0] if spec.curvature_same_at_every_n else N
    f = spec.f_of_box(N)

    def build() -> tuple:
        return tuple(hessians_on(block_field(f, b), nb.grid_points(consts.grid_res, b))
                     for b in blocks)

    return spec.cached(("block_hessians", N, tuple(blocks), consts.grid_res), build)


def _row_bounds(H: np.ndarray, h_star: np.ndarray) -> np.ndarray:
    """Delta: Delta_i the largest Gershgorin row bound
    D_ii + sum_{j != i} |D_ij| over the (n, k, k) stack D = H - h_star.
    Formed one column of D at a time: numpy's reductions over a last axis
    of two or three entries cost several times as much."""
    k = len(h_star)
    delta = np.empty(k)
    for i in range(k):
        row = H[:, i, i] - h_star[i, i]
        for j in range(k):
            if j != i:
                row += np.abs(H[:, i, j] - h_star[i, j])
        delta[i] = np.max(row)
    return delta


class _Envelope:
    """Certified dominating function E' >= exp(N (f_N - f_N*)) on the domain
    for rejection sampling, f_N* = f_N(x*(N)); box frame throughout.

    E' is piecewise.  On the closed neighborhood nb it is the core, a
    closed-form density from the certified constants:
      * interior maximum: grad f_N(x*(N)) = 0 and -D^2 f_N >= F2' on the
        (convex) neighborhood give f_N - f_N* <= -(F2'/2) |z - x*(N)|^2;
      * boundary maximum: on the face x*(N) maximises f_N, so the same bound
        holds for the tangential offset d, and the inward derivative is at
        most -F1' over the whole neighborhood, so moving t inward from the
        face lowers f_N by at least F1' t:
          f_N - f_N* <= -F1' t - (F2'/2) |d|^2,
        an inward exponential times a Gaussian.
    f_N is a sum of functions of one coupling block each, so the Gaussian
    bound splits over the blocks, and a block of two or more Gaussian axes
    that holds no exponential axis takes its local curvature instead of
    F2'.  With d the block's offset from x*(N), K = -D^2 f_N(x*(N)) and
    D(z) = D^2 f_N(z) - D^2 f_N(x*(N)) on the block, and Delta_i the largest
    Gershgorin row bound D_ii + sum_{j != i} |D_ij| over the block's sub-grid
    of the constants grid, diag Delta - D is diagonally dominant with a
    nonnegative diagonal at every node, so D <= diag Delta (Gershgorin;
    Horn & Johnson, *Matrix Analysis*, 2nd ed., 2013, §6.1).  Then
    -D^2 f_N >= K - diag Delta, and the block's term of f_N - f_N* is at
    most -(1/2) d' P d with P = (K - diag Delta) / safety factor: grid +
    safety, like F2'.  On a boundary maximum's tangent block the offset is
    read on the face, where the block's gradient vanishes at x*(N) as at an
    interior maximum; a block holding the exponential axis keeps F2'.  A
    block whose K - diag Delta is not positive definite keeps F2' too.  The
    core precision on the Gaussian axes is then N P on those blocks and
    N F2' on every other axis; with U its upper Cholesky factor the core is
    exp(-(1/2) |U d|^2), drawn as x*(N) + U^-1 normal, of mass
    (2 pi)^(k/2) / det U.  When no block takes P (every block has one
    Gaussian axis, as in every catalog problem) U is None and the core is
    N F2' I, drawn and read by division by sqrt(N F2').

    Off nb, E' is one tangent plane per complement cell (Gilks & Wild,
    *Applied Statistics* 41, 1992): ``_walls`` splits each axis, and a cell
    C whose midpoint lies outside nb, of centre c, half-widths w and
    g = grad f_N(c), has by Taylor's theorem with the Lagrange remainder
      f_N - f_N* <= a_C + g . (x - c),  a_C = f_N(c) - f_N* + lambda_C |w|^2 / 2,
    lambda_C = max(0, the largest lambda_max(D^2 f_N) at C's 2^m corners).
    That is proved where D^2 f_N is affine (f of degree at most 3), as
    lambda_max(D^2 f_N) is then convex; elsewhere it is not certified, and
    the exceedance guard of ``sample`` is the check.  Each cell's term
    exp(N (a_C + g . (x - c))) 1_C is a product of truncated exponentials,
    of closed-form mass.  Where nb covers the domain there are no cells.

    Proposals come from the mixture of the core over R^m and the cells, of
    mass M, each read against the component that drew it as ``propose``
    draws it (composition-rejection, Devroye 1986, II.3): a cell draw
    against its cell's plane, a core draw against the core, and a core
    draw off nb is rejected unread.  The accepted density is then
    proportional to E' t / E' = t, t the target: exact wherever E'
    dominates, which ``sample`` checks at every draw it reads.  The
    acceptance probability is Z(N) exp(-N f_N*) / M.  Once N is large the
    core holds nearly all of M, and a block whose picks all fall to the
    core is drawn and read with nothing scattered."""

    def __init__(self, spec: ProblemSpec, consts: ConstantsReport, N: int):
        self.N = N = int(N)
        box, self.nb = spec.domain, spec.maximum.neighborhood
        self.axis, self.gauss, self.sign = limit_axes(spec)
        peak = spec.peak(N)
        self.z_n, self.f_star = peak.z, peak.value
        self.f_n = f_n = spec.f_of_box(N)
        self.walls, self.cells = self._complement(box, self.nb, peak)

        # core: precision N F2' on the Gaussian axes (a one-dimensional
        # boundary problem has none, and F2' = inf), or U'U on the coupled
        # blocks' local curvature, inward rate N F1'
        self.prec = N * consts.F2_prime if self.gauss else 1.0
        self.root = self._core_root(spec, consts, N)
        if self.root is None:
            self.log_m_core = 0.5 * len(self.gauss) * math.log(2.0 * math.pi / self.prec)
        else:
            # each row of a normal draw times unroot is U^-1 times that row,
            # each row of d times root_t is U d.  Both are C-contiguous: on a
            # transposed operand matmul leaves BLAS for a slower loop
            self.unroot = np.ascontiguousarray(np.linalg.inv(self.root).T)
            self.root_t = np.ascontiguousarray(self.root.T)
            self.log_m_core = (0.5 * len(self.gauss) * math.log(2.0 * math.pi)
                               - float(np.sum(np.log(np.diagonal(self.root)))))
        if self.axis is not None:
            self.rate = N * consts.F1_prime
            self.log_m_core -= math.log(self.rate)

        # per complement cell: c, w, g and a_C; for its draws the corner
        # where the plane is highest, s = N g and expm1(-2 |s| w)
        m = len(self.z_n)
        lower, upper = (np.stack([w[i + k] for w, i in zip(self.walls, self.cells)], axis=-1)
                        for k in (0, 1))
        self.centre, self.half = 0.5 * (lower + upper), 0.5 * (upper - lower)
        self.top, self.grad, log_m_cells = np.empty(0), np.empty((0, m)), np.empty(0)
        if len(self.centre):
            self.grad = gradients_on(f_n, self.centre)
            corners = np.concatenate([np.where(b, upper, lower) for b in np.ndindex((2,) * m)])
            lam = np.linalg.eigvalsh(hessians_on(f_n, corners))[:, -1].reshape(2**m, -1)
            lam = np.maximum(np.max(lam, axis=0), 0.0)
            self.top = f_n.evaluate(self.centre) - self.f_star
            self.top += 0.5 * lam * np.sum(self.half * self.half, axis=1)
            rate = np.maximum(np.abs(N * self.grad), _FLAT)
            self.slope = np.copysign(rate, self.grad)
            self.high = self.centre + np.copysign(self.half, self.grad)
            self.shrink = np.expm1(-2.0 * rate * self.half)
            log_m_cells = N * self.top + np.sum(rate * self.half + np.log(-self.shrink / rate), 1)
        self.log_m_cells = float(np.logaddexp.reduce(log_m_cells, initial=-math.inf))
        self.log_m = float(np.logaddexp(self.log_m_core, self.log_m_cells))
        # component 0 is the core, component j >= 1 the complement cell j - 1
        self.cum = np.cumsum(np.exp(np.append(self.log_m_core, log_m_cells) - self.log_m))

    def _complement(self, box: BoxDomain, nb: BoxDomain, peak) -> tuple:
        """The walls per axis, sigma_i (N K_ii)^(-1/2) or, on the exponential
        axis, 1 / (N |d_i f_N|), and the complement cells' indices in C
        order; one cell, the domain, where nb covers it.  Above _MESH_CELLS
        cells, an EnvelopeFailureError before any field work on them."""
        m, N = len(self.z_n), self.N
        if np.all(nb.lower <= box.lower) and np.all(nb.upper >= box.upper):
            return (tuple(np.array(b) for b in zip(box.lower, box.upper)),
                    tuple(np.empty((m, 0), dtype=np.intp)))
        sigma = [1.0 / (N * abs(float(peak.gradient[i]))) if i == self.axis
                 else 1.0 / math.sqrt(-N * float(peak.hessian[i, i])) for i in range(m)]
        walls = tuple(_walls(*b) for b in zip(box.lower, nb.lower, nb.upper, box.upper,
                                              self.z_n, sigma))
        mesh = math.prod(len(w) - 1 for w in walls)
        if mesh > _MESH_CELLS:
            raise EnvelopeFailureError(
                f"{mesh} envelope cells at N={N}, above the {_MESH_CELLS} the sampler builds")
        inside = np.ones((), dtype=bool)
        for w, lo, up in zip(walls, nb.lower, nb.upper):
            mid = 0.5 * (w[:-1] + w[1:])
            inside = np.logical_and.outer(inside, (mid > lo) & (mid < up))
        return walls, np.nonzero(~inside)

    def _core_root(self, spec: ProblemSpec, consts: ConstantsReport,
                   N: int) -> Optional[np.ndarray]:
        """U, the upper Cholesky factor of the core precision on the
        Gaussian axes: N P on each coupling block of two or more axes that
        holds no exponential axis and whose K - diag Delta is positive
        definite, N F2' on every other Gaussian axis.  None when no block
        takes P, so the core is N F2' I."""
        blocks = [b for b in axis_blocks(self.f_n.coupling, len(self.z_n))
                  if len(b) > 1 and self.axis not in b]
        if not blocks:
            return None
        H_star = spec.peak(N).hessian
        at = {a: k for k, a in enumerate(self.gauss)}
        Q = np.diag(np.full(len(self.gauss), self.prec))
        matrix = False
        for b, H in zip(blocks, _block_hessians(spec, consts, N, blocks)):
            h_star = gauss_block(H_star, b)
            bound = -h_star - np.diag(_row_bounds(H, h_star))
            try:
                np.linalg.cholesky(bound)
            except np.linalg.LinAlgError:
                continue  # not positive definite: the block keeps N F2'
            idx = np.array([at[a] for a in b])
            Q[np.ix_(idx, idx)] = N * (bound / consts.safety_factor)
            matrix = True
        return np.linalg.cholesky(Q).T if matrix else None

    def _log_core(self, z: np.ndarray) -> np.ndarray:
        """log of the core density at box-frame points (k, m), -inf off nb."""
        d = np.subtract(z, self.z_n)
        g = d if self.axis is None else d[:, self.gauss]
        if self.root is not None:
            g = g @ self.root_t  # each row U d
        log_e = np.einsum("ki,ki->k", g, g)
        log_e *= -0.5 * self.prec if self.root is None else -0.5
        if self.axis is not None:
            t = d[:, self.axis]
            t *= self.rate * self.sign
            log_e -= t
        log_e[~self.nb.contains_rows(z)] = -np.inf
        return log_e

    def _log_cells(self, j: np.ndarray, x: np.ndarray) -> np.ndarray:
        """log E' = N (a_C + g . (x - c)) at points x (k, m) of the
        complement cells j: the one form ``propose`` and ``log_envelope``
        both read."""
        tilt = np.einsum("ki,ki->k", x - self.centre.take(j, axis=0), self.grad.take(j, axis=0))
        return self.N * (self.top.take(j) + tilt)

    def log_envelope(self, z: np.ndarray) -> np.ndarray:
        """log E' at box-frame points (k, m), read by position."""
        idx = tuple(
            np.clip(np.searchsorted(w, z[:, i], side="right") - 1, 0, len(w) - 2)
            for i, w in enumerate(self.walls)
        )
        number = np.full(tuple(len(w) - 1 for w in self.walls), -1)
        number[self.cells] = np.arange(len(self.top))
        j = number[idx]
        at = np.flatnonzero(j >= 0)
        log_e = self._log_core(z)
        log_e[at] = np.logaddexp(log_e[at], self._log_cells(j[at], z[at]))
        return log_e

    def propose(self, rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k draws from the mixture of mass M, and log E' at each as read
        against the piece that drew it: a cell draw its cell's plane, a core
        draw the core (-inf off nb).  The random streams are consumed in a
        fixed order: the component pick, the in-cell uniforms u in [0, 1),
        the exponential draws, then the normal draws.  A cell draw is its
        highest corner plus log1p(u expm1(-2 |s| w)) / s on each axis, finite
        since u < 1.  When no pick reaches a cell the core draws are written
        straight into the output; otherwise the core's draws are read before
        they are scattered by index into it, where a boolean row mask costs
        several times as much."""
        m = len(self.z_n)
        pick = rng.random(k)
        out = np.empty((k, m))
        if pick.max() < self.cum[0]:
            self._draw_core(rng, out)
            return out, self._log_core(out)
        in_cell = pick >= self.cum[0]
        cells = np.flatnonzero(in_cell)
        c = np.minimum(np.searchsorted(self.cum[1:], pick.take(cells), side="right"),
                       len(self.cum) - 2)
        x = rng.random((len(c), m))
        x *= self.shrink.take(c, axis=0)
        np.log1p(x, out=x)
        x /= self.slope.take(c, axis=0)
        x += self.high.take(c, axis=0)
        out[cells] = x
        core = np.empty((k - len(c), m))
        self._draw_core(rng, core)
        log_e = np.empty(k)
        log_e[cells] = self._log_cells(c, x)
        rows = np.flatnonzero(~in_cell)
        out[rows] = core
        log_e[rows] = self._log_core(core)
        return out, log_e

    def _draw_core(self, rng: np.random.Generator, core: np.ndarray) -> None:
        """Fill ``core`` (k, m) with draws from the core: x*(N) plus, on the
        exponential axis, sign times the exponential draws, then on the
        Gaussian axes the normal draws over sqrt(prec), or U^-1 times them."""
        if self.axis is None:
            if self.root is None:
                rng.standard_normal(out=core)
                core /= math.sqrt(self.prec)
            else:
                np.matmul(rng.standard_normal(core.shape), self.unroot, out=core)
            core += self.z_n
            return
        core[:, self.axis] = self.sign * rng.exponential(1.0 / self.rate, size=len(core))
        core[:, self.axis] += self.z_n[self.axis]
        normal = rng.standard_normal(size=(len(core), len(self.gauss)))
        if self.root is None:
            normal /= math.sqrt(self.prec)
        else:
            normal = normal @ self.unroot
        normal += self.z_n[self.gauss]
        core[:, self.gauss] = normal


def sample(measure: GibbsMeasure, count: int, seed: int, consts: ConstantsReport) -> SampleBatch:
    """Exact i.i.d. draws from the Gibbs measure by rejection against the
    envelope certified by ``consts``.  Deterministic for a fixed seed: the
    draws come from the stream seeded with (seed, 0).  With p the envelope's
    predicted acceptance Z(N) exp(-N f_N*) / M and n draws still missing, a
    block holds (n + 4 sqrt(n (1 - p)) + 1) / p proposals, at most _BLOCK:
    four binomial standard deviations over n, so one block almost always
    ends the batch and few accepted draws are dropped."""
    if count < 1:
        raise ValueError("count must be at least 1")
    spec, N = measure.spec, measure.N
    env = _Envelope(spec, consts, N)
    p_hat = math.exp(min(0.0, measure.log_normalizer - N * env.f_star - env.log_m))
    if p_hat < 1e-4:
        raise EnvelopeFailureError(
            f"predicted acceptance {p_hat:.2e} below 1e-4 at N={N} (log core mass "
            f"{env.log_m_core:.3g}, log complement mass {env.log_m_cells:.3g})",
            acceptance_rate=p_hat,
        )

    rng = np.random.default_rng([seed, 0])
    got: list[np.ndarray] = []
    n_have = 0
    proposed = 0
    while (need := count - n_have) > 0:
        k = min(_BLOCK, math.ceil((need + 4.0 * math.sqrt(need * (1.0 - p_hat)) + 1.0) / p_hat))
        z, log_e = env.propose(rng, k)
        u = rng.random(k)
        read = log_e > -np.inf
        proposed += k
        if not read.all():
            keep = np.flatnonzero(read)
            z, u, log_e = z.take(keep, axis=0), u.take(keep), log_e.take(keep)
        if len(z):
            log_ratio = env.f_n.evaluate(z)
            log_ratio -= env.f_star
            log_ratio *= N
            log_ratio -= log_e
            if np.any(log_ratio > 1e-9):
                raise EnvelopeFailureError(
                    "certified envelope exceeded by a drawn point",
                    acceptance_rate=n_have / proposed,
                )
            # the first ``need`` accepted rows, gathered by index like the
            # rows read above: a boolean row mask costs several times as much
            hit = np.flatnonzero(np.log(u, out=u) <= log_ratio)
            got.append(z.take(hit[:need], axis=0))
            n_have += len(hit)
        if proposed >= 4096 and n_have / proposed < 1e-4:
            raise EnvelopeFailureError(
                f"acceptance rate {n_have / proposed:.2e} below 1e-4",
                acceptance_rate=n_have / proposed,
            )

    return SampleBatch(
        # the gathered rows are a fresh array no caller holds: not copied again
        draws=spec.domain.to_ambient(got[0] if len(got) == 1 else np.concatenate(got), copy=False),
        N=N,
        proposed=proposed, acceptance_rate=count / proposed, spec=spec,
    )


# ---------------------------------------------------------------------------
# empirical fluctuation tests
# ---------------------------------------------------------------------------

def ks_statistic(values, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a cdf callable."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    F = np.asarray(cdf(x), dtype=float)
    steps = np.arange(n + 1, dtype=float)
    steps /= n  # i / n
    gap = np.subtract(steps[1:], F)
    upper = gap.max()
    lower = np.subtract(F, steps[:-1], out=gap).max()
    return float(max(upper, lower))


def transform_to_fluctuations(batch: SampleBatch) -> np.ndarray:
    """Case-appropriate rescaling of draws about the finite-N maximizer
    x*(N): sqrt(N) on the Gaussian axes, N (inward) on the exponential
    axis.  Box-frame output, exponential axis first when there is one."""
    spec, N = batch.spec, batch.N
    d = spec.domain.to_box(batch.draws)  # a fresh array, offset in place
    d -= spec.z_star_of_N(N)
    axis, gauss, s = limit_axes(spec)
    lead = int(axis is not None)
    Y = np.empty((len(d), lead + len(gauss)))
    for j, i in enumerate(gauss, start=lead):
        np.multiply(d[:, i], math.sqrt(N), out=Y[:, j])
    if axis is not None:
        np.multiply(d[:, axis], N * s, out=Y[:, 0])
    return Y


# Cody, Math. Comp. 23 (1969), netlib CALERF: erf(y) = y A(y^2) for y up to
# 0.46875, and erfcx(y) = C(y) up to 4 and (1/sqrt(pi) - t P(t)) / y, t = 1/y^2,
# beyond; each lists its numerator, then its monic denominator, highest first.
_CODY_A = (1.85777706184603153e-1, 3.16112374387056560, 1.13864154151050156e2,
           3.77485237685302021e2, 3.20937758913846947e3, 2.36012909523441209e1,
           2.44024637934444173e2, 1.28261652607737228e3, 2.84423683343917062e3)
_CODY_C = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594,
           6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
           1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3,
           1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
           1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
           3.43936767414372164e3, 1.23033935480374942e3)
_CODY_P = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
           1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4,
           2.56852019228982242, 1.87295284992346725, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)


def _rational(x: np.ndarray, coefs) -> np.ndarray:
    """Horner's rule for a Cody rational, with the numerator and the monic
    denominator as the two rows of one array, so each step is two in-place
    passes; ``coefs`` lists the numerator, then the denominator without its
    leading 1, highest first."""
    half = len(coefs) // 2 + 1
    steps = np.array([coefs[1:half], coefs[half:]]).T.reshape((-1, 2) + (1,) * x.ndim)
    nd = np.empty((2,) + x.shape)
    nd[0] = coefs[0]
    nd[1] = 1.0
    for step in steps:
        nd *= x
        nd += step
    nd[0] /= nd[1]
    return nd[0]


def _two_ranges(x: np.ndarray, joint: float, near, far) -> np.ndarray:
    """``near`` on the values x <= joint and ``far`` on the rest (NaN
    included), each called only on its own values and only if there are
    any: np.piecewise's split without its fixed cost.  Neither function
    changes x, so when every value falls on one side that side reads x
    itself.  When the near values are one run, as on sorted x (a prefix)
    or on |x| of sorted x (a middle run), each side is read as slices, with
    the far side's two ends joined into one call; otherwise each side is a
    boolean gather and scatter.  Either way each value meets the same
    operations, so the result does not depend on the order of x."""
    if not x.size:
        return np.empty_like(x)
    mask = x <= joint
    n_near = np.count_nonzero(mask)
    if n_near in (0, x.size):
        return (near if n_near else far)(x)
    out = np.empty_like(x)
    a = int(np.argmax(mask))
    b = a + n_near
    if mask[a:b].all():
        out[a:b] = near(x[a:b])
        rest = x[b:] if a == 0 else x[:a] if b == x.size else np.concatenate((x[:a], x[b:]))
        r = far(rest)
        out[:a] = r[:a]
        out[b:] = r[a:]
        return out
    for sel, fn in ((mask, near), (~mask, far)):
        out[sel] = fn(x[sel])
    return out


def _erfcx_far(v: np.ndarray) -> np.ndarray:
    """(1/sqrt(pi) - t P(t)) / v, t = v^-2: erfcx beyond 4."""
    t = v**-2
    q = _rational(t, _CODY_P)
    q *= t
    np.subtract(1.0 / math.sqrt(math.pi), q, out=q)
    q /= v
    return q


def _erfcx_tail(y: np.ndarray) -> np.ndarray:
    """exp(y^2) erfc(y) for y > 0.46875."""
    return _two_ranges(y, 4.0, lambda v: _rational(v, _CODY_C), _erfcx_far)


def _erfcx_small(v: np.ndarray) -> np.ndarray:
    """exp(v^2) (1 - v A(v^2)) for v up to 0.46875."""
    sq = v * v
    q = _rational(sq, _CODY_A)
    q *= v
    np.subtract(1.0, q, out=q)
    np.exp(sq, out=sq)
    sq *= q
    return sq


def _erfcx(x) -> np.ndarray:
    """Scaled complementary error function exp(x^2) erfc(x) for x >= 0."""
    return _two_ranges(np.array(x, dtype=float, ndmin=1, copy=None), 0.46875, _erfcx_small,
                       _erfcx_tail)


_SQRT_HALF = math.sqrt(0.5)


def _ndtr_small(v: np.ndarray) -> np.ndarray:
    """1/2 - (r v / 2) A(v^2 / 2), r = sqrt(1/2): Phi(-v) for v up to
    0.46875 / r."""
    t = np.multiply(v, 0.5)
    t *= v
    q = _rational(t, _CODY_A)
    np.multiply(v, 0.5 * _SQRT_HALF, out=t)
    t *= q
    np.subtract(0.5, t, out=t)
    return t


def _ndtr_tail(v: np.ndarray) -> np.ndarray:
    """exp(-v^2 / 2) erfcx(r v) / 2: Phi(-v) beyond 0.46875 / r."""
    e = np.multiply(v, -0.5)
    e *= v
    np.exp(e, out=e)
    e *= 0.5
    e *= _erfcx_tail(np.multiply(v, _SQRT_HALF))
    return e


def _ndtr(z) -> np.ndarray:
    """Standard normal CDF.  With a = |z| and y = a / sqrt(2), Phi(-a) =
    erfc(y) / 2 is 1/2 - erf(y) / 2 on the small range and
    exp(-a^2 / 2) erfcx(y) / 2 beyond it; Phi(z) = 1 - Phi(-a) for z > 0."""
    z = np.array(z, dtype=float, ndmin=1, copy=None)
    low = _two_ranges(np.abs(z), 0.46875 / _SQRT_HALF, _ndtr_small, _ndtr_tail)
    np.subtract(1.0, low, out=low, where=z > 0)
    return low


def _exp_gauss_cdf(u: np.ndarray, c: float) -> np.ndarray:
    """CDF of the density proportional to exp(-u - c u^2) on u >= 0:
    1 - exp(-u - c u^2) erfcx(sqrt(c) u + w0) / erfcx(w0), w0 = 1/(2 sqrt(c));
    Exp(1) when c <= 0.  Formed in place in one copy of u and one scratch
    array, besides erfcx's own."""
    u = np.array(u, dtype=float)
    np.maximum(u, 0.0, out=u)
    if c <= 0.0:
        np.negative(u, out=u)
        np.expm1(u, out=u)
        return np.negative(u, out=u)
    r = math.sqrt(c)
    w0 = 0.5 / r
    x = np.multiply(u, r)
    x += w0
    e = _erfcx(x)
    np.multiply(u, c, out=x)
    x *= u
    np.negative(u, out=u)
    u -= x
    np.exp(u, out=u)
    u *= e
    u /= _erfcx(w0)
    return np.subtract(1.0, u, out=u)


def _whiten(Y: np.ndarray, K: np.ndarray) -> np.ndarray:
    """L^-1 y for each row y of Y (n, k), with K^-1 = L L', L the Cholesky
    factor: rows of law N(0, K^-1) come out standard normal.  One small
    product with L^-1, where np.linalg.solve(L, Y.T) is a LAPACK gesv with
    one right-hand side per row and costs several times as much.  On a
    diagonal K, L^-1 is diag(1 / L_jj), and both multiply column j by it."""
    L = np.linalg.cholesky(np.linalg.inv(K))
    return Y @ np.ascontiguousarray(np.linalg.inv(L).T)


# the fewest draws a KS test reads; RunConfig.validate rejects a smaller
# sample_count when the fluctuations check runs
KS_MIN_SAMPLES = 100
# the bound on every marginal's KS statistic that the fluctuations check
# passes; run reports record it as config.ks_threshold
KS_THRESHOLD = 0.02


def empirical_limit_test(batch: SampleBatch) -> dict:
    """Kolmogorov-Smirnov statistics of the rescaled draws against the
    marginals of the second-order law at x*(N), N = batch.N.

    With K = -D^2 f_N(x*(N)) and a = |d f_N / d t| at x*(N) along the
    exponential axis t, N (f_N - f_N*) ~ -N a t - (N/2) [t, s]' K [t, s].
    The Gaussian axes are whitened with K_ss.  Integrating out s leaves
    u = N a t with density proportional to exp(-u - c u^2),
    c = b / (2 N a^2) and b = K_tt - K_ts K_ss^{-1} K_st.  As N grows, x*(N)
    tends to x*, K to the limit Hessian and c to 0, so these laws tend to
    the N -> infinity law of ``mgf_Y``.  The slope a must be positive."""
    if batch.count < KS_MIN_SAMPLES:
        raise InsufficientSampleError(f"need at least {KS_MIN_SAMPLES} samples")
    spec, N, n = batch.spec, batch.N, batch.count
    Y = transform_to_fluctuations(batch)
    peak = spec.peak(N)
    K = -peak.hessian
    axis, gauss, _ = limit_axes(spec)
    K_ss = gauss_block(K, gauss)
    stats = []
    if axis is not None:
        a = abs(float(peak.gradient[axis]))
        if not a > 0.0:
            raise ValueError("the boundary law needs a positive slope at x*(N)")
        k_ts = K[axis, gauss]
        b = K[axis, axis] - (k_ts @ np.linalg.solve(K_ss, k_ts) if gauss else 0.0)
        c = b / (2.0 * N * a * a)
        stats.append(("exponential", ks_statistic(a * Y[:, 0], lambda u: _exp_gauss_cdf(u, c))))
        Y = Y[:, 1:]
    if Y.shape[1]:
        Z = _whiten(Y, K_ss)
        for j in range(Z.shape[1]):
            stats.append(("normal", ks_statistic(Z[:, j], _ndtr)))
    return {
        "count": n,
        "marginals": [
            {"law": law, "ks": ks, "sqrt_n_ks": ks * math.sqrt(n)} for law, ks in stats
        ],
        "max_ks": max(ks for _, ks in stats),
    }
