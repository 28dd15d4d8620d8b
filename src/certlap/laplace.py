"""Leading-order values of the peaked integrals together with explicit,
numerically certified remainder bounds, for the three maximum geometries:
one-dimensional boundary, m-dimensional interior, and m-dimensional
boundary.  Also the standalone Gaussian tail bound used to dominate mass
outside a shrinking or fixed window.

Leading terms are computed in log space (log of the absolute value plus a
sign) and exposed both ways: exp(N f) overflows long before the enclosure
itself becomes meaningless.  All operations here are pure; sweeps over N
can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import ConstantsReport
from .errors import (
    DegenerateHessianError,
    MissingConstantError,
    SweepRangeError,
)
from .problems import (
    INTERIOR,
    ProblemSpec,
    gauss_block,
    limit_axes,
    window_fits,
)

T1 = "T1"
T2 = "T2"
T3 = "T3"


@dataclass(frozen=True)
class LaplaceResult:
    theorem: str
    N: int
    leading: float
    omega_bound: float
    remainder_magnitude: float
    enclosure: tuple[float, float]
    log_abs_leading: float
    leading_sign: float
    log_remainder: float

    def contains(self, value: float, slack: float = 0.0) -> bool:
        """Whether a reference value lies in the enclosure; ``slack`` admits
        the reference's own numerical resolution (a quadrature value carries
        floating-point noise that can exceed remainders of order 1e-19)."""
        return self.enclosure[0] - slack <= value <= self.enclosure[1] + slack

    def oracle_slack(self, oracle) -> float:
        """Comparison slack for an OracleValue: its reported error estimate
        plus a handful of ulps of the quantities being compared."""
        return oracle.abs_error_estimate + 64.0 * 2.3e-16 * (
            abs(oracle.value) + abs(self.leading)
        )

    def contains_oracle(self, oracle) -> bool:
        """Whether an OracleValue lies in the enclosure within its own
        resolution.  When the leading term or the oracle value overflows,
        the same test runs on the log-space fields, scaled by the larger of
        the two, with the oracle's relative error for its absolute one."""
        if math.isfinite(self.leading) and math.isfinite(oracle.value):
            return self.contains(oracle.value, slack=self.oracle_slack(oracle))
        ref = max(self.log_abs_leading, oracle.log_abs_value)
        value = math.copysign(math.exp(oracle.log_abs_value - ref), oracle.value)
        leading = self.leading_sign * math.exp(self.log_abs_leading - ref)
        rem = math.exp(min(self.log_remainder - ref, 700.0))
        slack = oracle.rel_error_estimate * abs(value) if value else 0.0
        slack += 64.0 * 2.3e-16 * (abs(value) + abs(leading))
        return abs(value - leading) <= rem + slack

    @property
    def relative_remainder(self) -> float:
        return self.remainder_magnitude / abs(self.leading) if self.leading else math.inf


def _signed_exp(log_abs: float, sign: float) -> float:
    if sign == 0.0 or log_abs == -math.inf:
        return 0.0
    if log_abs > 700.0:
        return math.copysign(math.inf, sign)
    return math.copysign(math.exp(log_abs), sign)


def _result(theorem, N, exp_arg, poly, gterm, omega, rem_poly):
    """Assemble a LaplaceResult: leading = exp(exp_arg) * poly * gterm and
    remainder = exp(exp_arg) * rem_poly * omega.

    Values are formed as direct float products whenever exp(exp_arg) is
    representable (so algebraically exact cases like a unit-slope boundary
    problem stay bit-exact); the log-space fields cover the overflow range.
    """
    sign = math.copysign(1.0, gterm) if gterm != 0.0 else 0.0
    log_abs_leading = exp_arg + math.log(poly) + (
        math.log(abs(gterm)) if gterm else -math.inf
    )
    log_rem = exp_arg + math.log(rem_poly) + (math.log(omega) if omega > 0 else -math.inf)
    if abs(exp_arg) <= 700.0:
        e = math.exp(exp_arg)
        leading = e * poly * gterm
        rem = e * rem_poly * omega
    else:
        leading = _signed_exp(log_abs_leading, sign)
        rem = _signed_exp(log_rem, 1.0)
    return LaplaceResult(
        theorem=theorem,
        N=N,
        leading=leading,
        omega_bound=omega,
        remainder_magnitude=rem,
        enclosure=(leading - rem, leading + rem),
        log_abs_leading=log_abs_leading,
        leading_sign=sign,
        log_remainder=log_rem,
    )


def _local_model(spec: ProblemSpec, N: int):
    """Leading-term ingredients at the maximizer z*(N), read from
    ``spec.peak(N)`` in the frame of ``limit_axes``:
    (N f(z*(N), N), poly, gterm, g(z*(N))) with leading term
    exp(N f) * poly * gterm, where poly = (2 pi / N)^{k/2} over the k
    Gaussian axes, times 1/N for an exponential axis, and
    gterm = g / sqrt(|det H|), H the Hessian block on the Gaussian axes,
    divided by |f'| the inward derivative along an exponential axis."""
    if N <= spec.n_zero:
        raise SweepRangeError(f"N={N} must exceed n_zero={spec.n_zero}")
    peak = spec.peak(N)
    if not window_fits(spec.maximum.neighborhood, peak.z, spec.maximum.kind, N, spec.domain):
        raise SweepRangeError(
            f"shrinking window at N={N} does not fit inside the certified neighborhood"
        )
    axis, gauss, s = limit_axes(spec)
    poly = (2.0 * math.pi / N) ** (len(gauss) / 2.0)
    scale = 1.0
    if axis is not None:
        inward = s * peak.gradient[axis]
        if abs(inward) < 1e-14:
            raise DegenerateHessianError("inward first derivative vanishes at the maximizer")
        poly = (1.0 / N) * poly
        scale = abs(inward)
    det = abs(float(np.linalg.det(gauss_block(peak.hessian, gauss))))
    if det < 1e-300:
        raise DegenerateHessianError(
            "Hessian block on the Gaussian axes is numerically singular at the maximizer"
        )
    gval = float(spec.g_box.evaluate(peak.z))
    return N * peak.value, poly, gval / (scale * math.sqrt(det)), gval


def _omega_interior(m: int, N: int, c: ConstantsReport, g_star_abs: float) -> float:
    """Remainder constant for an interior maximum in dimension m: a Taylor
    term from the cubic correction and the weight gradient, plus the
    exponentially small mass outside the shrinking window."""
    gm = math.gamma
    taylor = (
        math.pi ** (m / 2.0)
        * gm((m + 1) / 2.0)
        / gm(m / 2.0)
        * (c.F2_prime / 2.0) ** (-(m + 1) / 2.0)
        * (c.F3 / (3.0 * c.F2_prime) * math.exp(c.F3) * g_star_abs + c.G1)
    )
    window_tail = (
        math.pi ** (m / 2.0)
        / gm(m / 2.0)
        * (c.F2_prime_Omega / 2.0) ** (-(m + 1) / 2.0)
        * (gm(m) + (1.0 + math.sqrt(c.F2_prime_Omega) * N ** (1 / 6) / math.sqrt(2.0)) ** (m - 1))
        * (c.G + g_star_abs)
        * math.exp(-N ** (1 / 3) * c.F2_prime_Omega)
    )
    return taylor + window_tail


def _omega_1d_boundary(N: int, c: ConstantsReport, g_star_abs: float, G: float, G1: float) -> float:
    """T1's remainder constant for |g(x*)| = g_star_abs, |g| <= G and |g'| <= G1."""
    if c.F1_prime is None or c.F1_prime_Omega is None:
        raise MissingConstantError("boundary constants F1_prime/F1_prime_Omega are required")
    sqrtN = math.sqrt(N)
    return (
        g_star_abs * c.F2 / c.F1_prime**3 * math.exp(0.5 * c.F2)
        + G1 / c.F1_prime**2
        + G / c.F1_prime_Omega * N * math.exp(-sqrtN * c.F1_prime_Omega)
        + g_star_abs / c.F1_prime * N * math.exp(-sqrtN * c.F1_prime)
    )


def _complement_distance(spec: ProblemSpec) -> Optional[float]:
    """Distance from the maximizer to the domain-minus-neighborhood region:
    the nearest neighborhood face that is interior to the domain (None when
    the neighborhood is the whole domain)."""
    box, nb = spec.domain, spec.maximum.neighborhood
    z = spec.z_star
    best = None
    for i in range(box.dimension):
        if nb.lower[i] > box.lower[i] + 1e-12:
            d = z[i] - nb.lower[i]
            best = d if best is None else min(best, d)
        if nb.upper[i] < box.upper[i] - 1e-12:
            d = nb.upper[i] - z[i]
            best = d if best is None else min(best, d)
    return best


def _omega_boundary_md(spec: ProblemSpec, c: ConstantsReport, N: int, g_star_abs: float) -> float:
    """T3's remainder constant, boundary maximum in dimension m >= 2: the
    one-dimensional boundary bound along the ridge composed with the interior
    bound across it, plus a fixed-radius tail for the domain complement."""
    m = spec.dimension
    sqrtN = math.sqrt(N)
    sqrt_lam = math.sqrt(c.lambda_det)
    omega_b2 = _omega_1d_boundary(N, c, 1.0, 1.0, 0.0)  # the ridge: T1's at g = 1; checks F1
    omega_b1 = (
        g_star_abs * c.F2 / (sqrt_lam * c.F1_prime**3) * math.exp(0.5 * c.F2)
        + (1.0 / c.F1_prime**2)
        * (c.G1 / sqrt_lam + m * c.G * c.F3 / (c.lambda_det**1.5 * c.F2_prime))
        + c.G / (sqrt_lam * c.F1_prime_Omega) * N * math.exp(-sqrtN * c.F1_prime_Omega)
        + g_star_abs / (sqrt_lam * c.F1_prime) * N * math.exp(-sqrtN * c.F1_prime)
    )
    omega_i = _omega_interior(m - 1, N, c, g_star_abs)

    R = _complement_distance(spec)
    if R is None:
        outer_tail = 0.0
    else:
        outer_tail = (
            2.0
            * math.sqrt(math.pi)
            / math.gamma(m / 2.0)
            * c.F2_prime_Omega ** (-(m + 1) / 2.0)
            * (
                math.gamma(m)
                + (1.0 + math.sqrt(N * c.F2_prime_Omega) * R / math.sqrt(2.0)) ** (m - 1)
            )
            * c.G
            * math.exp(-N * c.F2_prime_Omega * R**2)
        )
    return omega_b1 / sqrtN + omega_i * (1.0 / c.F1_prime + omega_b2 / N) + outer_tail


def approximate(spec: ProblemSpec, consts: ConstantsReport, N: int) -> LaplaceResult:
    """Leading term exp(N f) * poly * gterm (see ``_local_model``) with the
    remainder of the theorem that fits the maximum:

    - T2, interior, any dimension m: exp(N f) (2 pi / N)^{m/2} * omega / sqrt(N);
    - T1, boundary, m = 1: exp(N f(x*, N)) * omega / N^2;
    - T3, boundary, m >= 2 (face orthogonal to the boundary axis):
      exp(N f) (1/N) (2 pi / N)^{(m-1)/2} * omega / sqrt(N)."""
    N = int(N)
    exp_arg, poly, gterm, gval = _local_model(spec, N)
    if spec.maximum.kind == INTERIOR:
        omega = _omega_interior(spec.dimension, N, consts, abs(gval))
        return _result(T2, N, exp_arg, poly, gterm, omega, poly / math.sqrt(N))
    if spec.dimension == 1:
        omega = _omega_1d_boundary(N, consts, abs(gval), consts.G, consts.G1)
        return _result(T1, N, exp_arg, poly, gterm, omega, 1.0 / N**2)
    omega = _omega_boundary_md(spec, consts, N, abs(gval))
    return _result(T3, N, exp_arg, poly, gterm, omega, poly / math.sqrt(N))


def gaussian_tail_bound(m: int, k: int, a: float, N: int, R: float) -> float:
    """Upper bound on the integral of |x|^k exp(-a N |x|^2) outside the ball
    of radius R.

    Derived from the radial reduction: with c = a N R^2 and s = k + m,

        bound = pi^{m/2} / Gamma(m/2) * (a N)^{-s/2} * J_bound * exp(-c),
        J_bound = Gamma(s - 1) + (1 + sqrt(c))^{s - 2}        for s >= 2,
        J_bound = min(Gamma(1/2), c^{-1/2})                   for s = 1.
    """
    if m < 1 or k < 0:
        raise ValueError("need m >= 1 and k >= 0")
    if a <= 0 or N < 1 or R <= 0:
        raise ValueError("need a > 0, N >= 1 and R > 0")

    aN = a * float(N)
    c = aN * float(R)**2
    s = k + m
    front = math.pi ** (m / 2.0) / math.gamma(m / 2.0) * aN ** (-s / 2.0)
    if s >= 2:
        j_bound = math.gamma(s - 1) + (1.0 + math.sqrt(c)) ** (s - 2)
    else:
        j_bound = min(math.gamma(0.5), c**-0.5 if c > 0 else math.inf)
    return front * j_bound * math.exp(-c)
