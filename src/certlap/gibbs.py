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

Sign conventions (the source formulas leave two ambiguous):
  * the limiting covariance is (-D^2 f(x*))^{-1} on the Gaussian axes, the
    only positive definite reading at a maximum;
  * the exponential coordinate is N * (X_1 - x_1*) measured inward
    (nonnegative), so its limit is an exponential with rate |f'(x*)| and
    MGF rate / (rate - xi_1).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr

from .constants import ConstantsReport, estimate_constants
from .derivatives import field_values, gradient_at, hessian_at, hessians_on
from .errors import (
    AssumptionViolationError,
    DomainError,
    EnvelopeFailureError,
    InsufficientSampleError,
    MgfPoleError,
    TheoremMismatchError,
    TiltTooLargeError,
)
from .laplace import _complement_distance
from .oracle import OracleValue, integrate
from .problems import (
    INTERIOR,
    UNIT_WEIGHT,
    BoxDomain,
    ProblemSpec,
    add_fields,
    gauss_block,
    limit_axes,
    locate_maximum,
    polynomial_field,
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

    def to_dict(self) -> dict:
        return {
            "xi": list(np.atleast_1d(self.xi)),
            "N": self.N,
            "mgf_value": self.mgf_value,
            "limit_prediction": self.limit_prediction,
            "residual": self.residual,
            "expected_decay": self.expected_decay,
            "kind": self.kind,
            "hypothesis_violated": self.hypothesis_violated,
        }


def _limit_covariance(spec: ProblemSpec) -> np.ndarray:
    """(-D^2 f_limit(x*))^{-1} on the Gaussian axes, box frame."""
    _, gauss, _ = limit_axes(spec)
    H = gauss_block(hessian_at(spec.f_limit_box, spec.z_star, spec.domain), gauss)
    return np.linalg.inv(-H)


def _limit_rate(spec: ProblemSpec, axis: int) -> float:
    g = gradient_at(spec.f_limit_box, spec.z_star, spec.domain)
    return abs(float(g[axis]))


def _check_tilt_inside(spec: ProblemSpec, N: int, tilt_gradient: np.ndarray, what: str):
    """The tilted exponent must still peak strictly inside the certified
    neighborhood; returns the tilted maximizer (box frame)."""
    f_n = spec.f_of_box(N)
    lin = polynomial_field(
        [(float(tilt_gradient[i]), tuple(1 if j == i else 0 for j in range(spec.dimension)))
         for i in range(spec.dimension)],
        name="tilt",
    )
    tilted = add_fields(f_n, lin, 1.0, name="tilted")
    z0 = spec.z_star_of_N(N)
    axis, _, _ = limit_axes(spec)
    fixed = None
    if axis is not None and abs(tilt_gradient[axis]) < 1e-15:
        fixed = {axis: z0[axis]}
    z_t, _ = locate_maximum(tilted, spec.domain, z0, fixed_axes=fixed)
    nb = spec.maximum.neighborhood
    margin = 1e-9 * np.min(spec.domain.edges)
    inside = np.all(z_t >= nb.lower - margin) and np.all(z_t <= nb.upper + margin)
    if not inside:
        raise TiltTooLargeError(
            f"{what}: tilted maximizer {z_t} leaves the certified neighborhood"
        )
    return z_t


def _eps_sqrt_n_violated(spec: ProblemSpec, N: int) -> bool:
    """True when eps(N) sqrt(N) is not decaying at N (checked on N, 4N, 16N)."""
    eps = spec.epsilon
    vals = [float(eps.evaluate(n)) * math.sqrt(n) for n in (N, 4 * N, 16 * N)]
    if all(v == 0.0 for v in vals):
        return False
    return not (vals[0] >= vals[1] >= vals[2] and vals[2] < vals[0])


def mgf_X(measure: GibbsMeasure, xi) -> MgfReport:
    """MGF of the identity vector under the Gibbs measure, as a quadrature
    ratio, against the constant-limit prediction exp(xi . x*)."""
    spec = measure.spec
    N = measure.N
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    xi_box = spec.domain.to_box(xi)
    z_t = _check_tilt_inside(spec, N, xi_box / N, "mgf_X")
    mgf = _expectation(measure, lambda pts: np.asarray(pts, dtype=float) @ xi_box, center=z_t)
    pred = math.exp(float(xi @ spec.maximum.x_star))
    eps_n = float(spec.epsilon.evaluate(N))
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
    m = spec.dimension
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.size != m:
        raise ValueError("xi must have the problem dimension")
    xi_box = spec.domain.to_box(xi)
    sqrtN = math.sqrt(N)
    violated = _eps_sqrt_n_violated(spec, N)
    eps_n = float(spec.epsilon.evaluate(N))
    expected = max(1.0 / sqrtN, eps_n * sqrtN)
    z_star = spec.z_star
    axis, gauss, s = limit_axes(spec)

    xi_gauss = xi_box.copy()  # the Gaussian tilt, zero on the exponential axis
    tilt_grad = xi_box / sqrtN
    if axis is not None:
        rate = _limit_rate(spec, axis)
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

    def log_w(pts):
        pts = np.asarray(pts, dtype=float)
        w = sqrtN * ((pts - z_star) @ xi_gauss)
        if axis is not None:
            w = N * xi1 * (s * (pts[..., axis] - z_star[axis])) + w
        return w

    mgf = _expectation(measure, log_w, center=z_t)
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
    """Per-N check of |x*(N) - x*| <= eps(N) |D sigma(x*)| / F2_prime."""
    if spec.sigma is None:
        raise ValueError("drift check needs a nonzero sigma perturbation")
    if all(float(spec.epsilon.evaluate(int(n))) == 0.0 for n in n_sweep):
        raise ValueError("drift check needs epsilon > 0 somewhere on the sweep")
    box = spec.domain
    nb = spec.maximum.neighborhood
    z_star = spec.z_star
    axis, gauss, _ = limit_axes(spec)
    fixed = None if axis is None else {axis: z_star[axis]}
    dsig_norm = float(np.linalg.norm(gradient_at(spec.sigma_box, z_star, box)[gauss]))

    rows = []
    for N in n_sweep:
        N = int(N)
        f_n = spec.f_of_box(N)
        z_n, _ = locate_maximum(f_n, box, z_star, fixed_axes=fixed)
        if not (np.all(z_n >= nb.lower - 1e-9) and np.all(z_n <= nb.upper + 1e-9)):
            raise AssumptionViolationError(
                "maximizer_drift", f"x*(N) left the certified neighborhood at N={N}"
            )
        drift = float(np.linalg.norm((z_n - z_star)[gauss]))
        bound = float(spec.epsilon.evaluate(N)) * dsig_norm / consts.F2_prime
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

def tilted_maximizer_check(
    spec: ProblemSpec, consts: ConstantsReport, xi, n_sweep
) -> list[dict]:
    """Per-N bounded-ratio statistics for the tilted exponent
    f~(x, N) = f(x, N) + xi . (x - x*) / sqrt(N) at an interior maximum:

      (i)   ||x~*(N) - x*(N) - Sigma xi / sqrt(N)|| * N,
      (ii)  |f~(x~*) - f(x*(N), N) - xi' Sigma xi / (2N)| * min(N^{3/2}, sqrt(N)/eps),
      (iii) |sqrt(|det H(x*(N))| / |det H~(x~*)|) - 1| * sqrt(N),

    with Sigma = (-D^2 f(x*))^{-1}."""
    if spec.maximum.kind != INTERIOR:
        raise TheoremMismatchError("tilted-maximizer estimates require an interior maximum")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    sweep = [int(n) for n in n_sweep]
    eps_scaled = [float(spec.epsilon.evaluate(n)) * math.sqrt(n) for n in sweep]
    if any(b > a + 1e-12 for a, b in zip(eps_scaled, eps_scaled[1:])):
        raise AssumptionViolationError(
            "epsilon_sqrtN", "eps(N) sqrt(N) must be nonincreasing on the sweep"
        )
    box = spec.domain
    xi_box = box.to_box(xi)
    z_star = spec.z_star
    Sigma = _limit_covariance(spec)

    rows = []
    for N in sweep:
        sqrtN = math.sqrt(N)
        f_n = spec.f_of_box(N)
        z_n = spec.z_star_of_N(N)
        f_star_n = float(field_values(f_n, z_n))
        z_t = _check_tilt_inside(spec, N, xi_box / sqrtN, "tilted estimates")
        # tilt value relative to x*: f~ = f + xi.(x - x*)/sqrt(N)
        f_tilde_val = float(np.asarray(f_n.evaluate(z_t))) + float(
            xi_box @ (z_t - z_star)
        ) / sqrtN
        drift_pred = Sigma @ xi_box / sqrtN
        s1 = float(np.linalg.norm(z_t - z_n - drift_pred)) * N
        quad = 0.5 * float(xi_box @ Sigma @ xi_box) / N
        eps_n = float(spec.epsilon.evaluate(N))
        scale2 = N**1.5 if eps_n == 0.0 else min(N**1.5, sqrtN / eps_n)
        s2 = abs(f_tilde_val - f_star_n - quad) * scale2
        H_n = hessian_at(f_n, z_n, box)
        H_t = hessian_at(f_n, z_t, box)  # tilt is linear: same Hessian field
        ratio = math.sqrt(abs(np.linalg.det(H_n)) / abs(np.linalg.det(H_t)))
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
    seed: int
    proposed: int
    acceptance_rate: float
    mean: np.ndarray
    cov: np.ndarray
    problem: str
    spec: ProblemSpec

    @property
    def count(self) -> int:
        return self.draws.shape[0]

    def to_csv(self, path) -> None:
        m = self.draws.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{i + 1}" for i in range(m)])
            for row in self.draws:
                writer.writerow([format(v, ".17g") for v in row])


@dataclass(frozen=True)
class FluctuationModel:
    """Limit law of the rescaled draws: covariance on the Gaussian axes and
    the exponential rate (None at an interior maximum)."""
    covariance: np.ndarray
    rate: Optional[float] = None


def build_fluctuation_model(spec: ProblemSpec) -> FluctuationModel:
    axis, _, _ = limit_axes(spec)
    rate = None if axis is None else _limit_rate(spec, axis)
    return FluctuationModel(_limit_covariance(spec), rate)


def _farthest_corner(z: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    """Distance from z to the farthest corner of the box [lower, upper]."""
    return float(np.linalg.norm(np.maximum(np.abs(z - lower), np.abs(upper - z))))


class _Envelope:
    """Certified dominating bound for rejection sampling, assembled from the
    constants report plus pointwise quantities at x*(N).

    Proposal: Gaussian at x*(N) on the Gaussian axes with covariance
    4 (-H)^{-1} / N, H the Hessian block on those axes, times an inward
    exponential with rate N F1'/2 on the exponential axis when there is one,
    mixed with a uniform component on the domain.  The log bound is a
    closed-form supremum of certified exponent estimates, so the accept
    test is exact."""

    UNIFORM_WEIGHT = 0.05

    def __init__(self, spec: ProblemSpec, consts: ConstantsReport, N: int):
        self.spec = spec
        self.N = int(N)
        self.c = consts
        box = spec.domain
        self.axis, self.gauss, self.sign = limit_axes(spec)
        self.z_n = spec.z_star_of_N(N)
        f_n = spec.f_of_box(N)
        self.f_n = f_n
        self.f_star = float(np.asarray(f_n.evaluate(self.z_n)))
        self.w = self.UNIFORM_WEIGHT
        self.log_vol = math.log(box.volume)
        nb = spec.maximum.neighborhood
        self.nb = nb

        gauss = self.gauss
        self.neg_H = -gauss_block(hessian_at(f_n, self.z_n, box), gauss)
        self.chol = np.linalg.cholesky(np.linalg.inv(self.neg_H) * 4.0 / N)
        # an empty block (one-dimensional boundary problem) has no eigenvalues
        lam_max = float(np.max(np.linalg.eigvalsh(self.neg_H), initial=0.0))
        _, logdet = np.linalg.slogdet(self.neg_H * N / (8.0 * math.pi))
        self.log_cg = 0.5 * logdet
        S = _farthest_corner(self.z_n[gauss], nb.lower[gauss], nb.upper[gauss])
        if self.axis is None:
            sup = max(0.0, lam_max / 8.0 - consts.F2_prime / 2.0) * S**2
            log_core_norm = self.log_cg
        else:
            self.rate_t = N * consts.F1_prime / 2.0
            # certified exponent bound inside the neighborhood:
            #   f - f* <= -F1' t + M_cross t s - (F2'/2) s^2
            self.cross = self._cross_bound()
            cs = consts.F2_prime / 2.0 - lam_max / 8.0
            sup = self._sup_boundary_core(
                consts.F1_prime / 2.0, self.cross, cs, nb.edges[self.axis], S
            )
            log_core_norm = math.log(self.rate_t) + self.log_cg
        self.log_m_core = N * sup - math.log(1.0 - self.w) - log_core_norm

        self.log_m_out = -math.inf
        R = _complement_distance(spec)
        if R is not None:
            # the certified drop is measured from x*(N); shrink the
            # limit-based face distance by the maximizer drift
            R_n = max(0.0, R - float(np.linalg.norm(self.z_n - spec.z_star)))
            # quadratic drop at an interior maximum, linear along an exponential axis
            drop = (consts.F2_prime_Omega * R_n**2 if self.axis is None
                    else consts.F1_prime_Omega * R_n)
            self.log_m_out = -N * drop - math.log(self.w) + self.log_vol
        self.log_m = max(self.log_m_core, self.log_m_out)

    # -- geometry helpers --------------------------------------------------
    def _cross_bound(self) -> float:
        """Certified sup of the mixed second derivatives coupling the
        exponential axis to the Gaussian axes (grid + safety, like the
        report constants)."""
        spec, c = self.spec, self.c
        pts = self.nb.grid_points(min(c.grid_res, 32))
        sup = 0.0
        sweep = c.n_sweep if (spec.sigma is not None and spec.epsilon.decay_class != "zero") else c.n_sweep[:1]
        for N in sweep:
            H = hessians_on(spec.f_of_box(N), pts, spec.domain, c.fd_step)
            row = H[..., self.axis, self.gauss]
            if row.shape[-1]:
                sup = max(sup, float(np.max(np.linalg.norm(row, axis=-1))))
        return sup * c.safety_factor

    @staticmethod
    def _sup_boundary_core(half_rate, cross, cs, T, S) -> float:
        """max over 0<=t<=T, 0<=s<=S of -half_rate*t + cross*t*s - cs*s^2."""
        if S <= 0.0 or not math.isfinite(cs):
            # no tangential extent (or infinitely strong certified curvature):
            # the profile reduces to -half_rate * t <= 0
            return 0.0

        def val(t, s):
            return -half_rate * t + cross * t * s - cs * s * s

        best = 0.0
        for t in (0.0, T):
            cands = [0.0, S]
            if cs > 0:
                cands.append(min(S, max(0.0, cross * t / (2.0 * cs))))
            for s in cands:
                best = max(best, val(t, s))
        # the maximum over t of the s-maximized profile is at an endpoint
        # (convex quadratic in t when cs > 0), already covered above
        return best

    # -- densities ----------------------------------------------------------
    def log_q(self, z: np.ndarray) -> np.ndarray:
        """Log mixture proposal density at box-frame points (k, m)."""
        z = np.atleast_2d(z)
        d = (z - self.z_n)[:, self.gauss]
        quad = np.einsum("ki,ij,kj->k", d, self.neg_H, d)
        log_core = self.log_cg - (self.N / 8.0) * quad
        if self.axis is not None:
            t = self.sign * (z[:, self.axis] - self.z_n[self.axis])
            log_exp = np.where(t >= 0, math.log(self.rate_t) - self.rate_t * t, -np.inf)
            log_core = log_exp + log_core
        log_unif = math.log(self.w) - self.log_vol
        return np.logaddexp(math.log(1.0 - self.w) + log_core, log_unif)

    def propose(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Mixture draws; the random streams are consumed in a fixed order:
        the mixture pick, the uniform draws, the exponential draws, then the
        normal draws."""
        box = self.spec.domain
        m = box.dimension
        out = np.empty((k, m))
        pick_unif = rng.uniform(size=k) < self.w
        n_unif = int(np.sum(pick_unif))
        out[pick_unif] = rng.uniform(box.lower, box.upper, size=(n_unif, m))
        n_core = k - n_unif
        core = np.tile(self.z_n, (n_core, 1))
        if self.axis is not None:
            core[:, self.axis] += self.sign * rng.exponential(1.0 / self.rate_t, size=n_core)
        core[:, self.gauss] += rng.standard_normal(size=(n_core, len(self.gauss))) @ self.chol.T
        out[~pick_unif] = core
        return out


def sample(
    measure: GibbsMeasure, count: int, seed: int, consts: Optional[ConstantsReport] = None
) -> SampleBatch:
    """Exact i.i.d. draws from the Gibbs measure by rejection against a
    certified envelope.  Deterministic for a fixed seed: the draws come from
    the stream seeded with (seed, 0)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    spec, N = measure.spec, measure.N
    if consts is None:
        consts = estimate_constants(spec, grid_res=32, n_sweep=(N,))
    env = _Envelope(spec, consts, N)
    box = spec.domain

    rng = np.random.default_rng([seed, 0])
    got: list[np.ndarray] = []
    n_have = 0
    proposed = 0
    while n_have < count:
        k = max(1024, 2 * (count - n_have))
        z = env.propose(rng, k)
        u = rng.uniform(size=k)
        inside = np.all((z >= box.lower) & (z <= box.upper), axis=1)
        proposed += k
        zi = z[inside]
        if len(zi):
            log_target = env.N * (field_values(env.f_n, zi) - env.f_star)
            log_ratio = log_target - env.log_q(zi)
            if np.any(log_ratio > env.log_m + 1e-9):
                raise EnvelopeFailureError(
                    "certified envelope exceeded by a drawn point",
                    acceptance_rate=n_have / proposed,
                )
            acc = np.log(u[inside]) <= log_ratio - env.log_m
            sel = zi[acc]
            got.append(sel)
            n_have += len(sel)
        if proposed >= 4096 and n_have / proposed < 1e-4:
            raise EnvelopeFailureError(
                f"acceptance rate {n_have / proposed:.2e} below 1e-4",
                acceptance_rate=n_have / proposed,
            )

    x_draws = box.to_ambient(np.concatenate(got)[:count])
    mean = np.mean(x_draws, axis=0)
    cov = np.cov(x_draws.T) if count > 1 else np.zeros((spec.dimension, spec.dimension))
    return SampleBatch(
        draws=x_draws,
        N=N,
        seed=seed,
        proposed=proposed,
        acceptance_rate=count / proposed,
        mean=np.atleast_1d(mean),
        cov=np.atleast_2d(cov),
        problem=spec.name,
        spec=spec,
    )


# ---------------------------------------------------------------------------
# empirical fluctuation tests
# ---------------------------------------------------------------------------

def ks_statistic(values, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a cdf callable."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    F = np.asarray(cdf(x), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - F)
    lower = np.max(F - np.arange(0, n) / n)
    return float(max(upper, lower))


def transform_to_fluctuations(batch: SampleBatch) -> np.ndarray:
    """Case-appropriate rescaling of draws: sqrt(N) on the Gaussian axes,
    N (inward) on the exponential axis.  Box-frame output, exponential axis
    first when there is one."""
    spec = batch.spec
    z = spec.domain.to_box(batch.draws)
    z_star = spec.z_star
    N = batch.N
    axis, gauss, s = limit_axes(spec)
    Y = math.sqrt(N) * (z - z_star)[:, gauss]
    if axis is not None:
        Y = np.column_stack([N * s * (z[:, axis] - z_star[axis]), Y])
    return Y


def empirical_limit_test(batch: SampleBatch, model: FluctuationModel) -> dict:
    """Kolmogorov-Smirnov statistics of the rescaled draws against the
    marginals of the limit model (unit-rate exponential on the exponential
    axis, whitened normal on the Gaussian axes)."""
    if batch.count < 100:
        raise InsufficientSampleError("need at least 100 samples")
    Y = transform_to_fluctuations(batch)
    n = batch.count
    stats = []
    axis, _, _ = limit_axes(batch.spec)
    if axis is not None:
        if model.rate is None or model.rate <= 0:
            raise ValueError("boundary model needs a positive rate")
        e = model.rate * Y[:, 0]
        stats.append(("exponential", ks_statistic(e, lambda t: -np.expm1(-np.maximum(t, 0.0)))))
        Y = Y[:, 1:]
    if Y.shape[1]:
        L = np.linalg.cholesky(model.covariance)
        Z = np.linalg.solve(L, Y.T).T
        for j in range(Z.shape[1]):
            stats.append(("normal", ks_statistic(Z[:, j], ndtr)))
    return {
        "count": n,
        "marginals": [
            {"law": law, "ks": ks, "sqrt_n_ks": ks * math.sqrt(n)} for law, ks in stats
        ],
        "max_ks": max(ks for _, ks in stats),
    }
