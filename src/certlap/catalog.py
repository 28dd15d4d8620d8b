"""Built-in test problems.

Each entry carries analytic derivative handles and, where one exists, a
closed-form value of the integral so the quadrature oracle and the certified
enclosures can be cross-checked against something independent.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError
from .problems import (
    BOUNDARY,
    INTERIOR,
    UNIT_WEIGHT,
    BoxDomain,
    EpsilonSchedule,
    MaximumInfo,
    ProblemSpec,
    ScalarField,
    default_n_zero,
    default_neighborhood,
    polynomial_field,
    power_epsilon,
    zero_epsilon,
)


def _gauss_f(m: int) -> ScalarField:
    # -|x|^2 / 2
    return polynomial_field([(-0.5, tuple(2 if i == j else 0 for i in range(m)))
                             for j in range(m)], name="neg_half_square")


def _const_point(x) -> Callable[[int], np.ndarray]:
    arr = np.asarray(x, dtype=float)

    def x_star_of_N(_n: int) -> np.ndarray:
        return arr.copy()

    return x_star_of_N


def _segment_gauss(N: float, a: float, b: float, shift: float = 0.0) -> float:
    """integral over [a, b] of exp(-N (x - shift)^2 / 2)."""
    s = math.sqrt(N / 2.0)
    return math.sqrt(math.pi / (2.0 * N)) * (math.erf(s * (b - shift)) - math.erf(s * (a - shift)))


def _interior_spec(
    name, box, f, g, sigma, epsilon, neighborhood, x_star, x_star_of_N, exact
) -> ProblemSpec:
    info = MaximumInfo(
        kind=INTERIOR,
        x_star=np.asarray(x_star, dtype=float),
        x_star_of_N=x_star_of_N,
        neighborhood=neighborhood,
    )
    n0 = default_n_zero(box, neighborhood, INTERIOR, lambda n: box.to_box(x_star_of_N(n)))
    return ProblemSpec(
        name=name, dimension=box.dimension, domain=box, f_limit=f, g=g,
        maximum=info, sigma=sigma, epsilon=epsilon, n_zero=n0, exact_integral=exact,
    )


def _boundary_spec(name, box, f, g, neighborhood, x_star, axis, exact) -> ProblemSpec:
    info = MaximumInfo(
        kind=BOUNDARY,
        x_star=np.asarray(x_star, dtype=float),
        x_star_of_N=_const_point(x_star),
        neighborhood=neighborhood,
        boundary_axis=axis,
    )
    n0 = default_n_zero(box, neighborhood, BOUNDARY, lambda n: np.asarray(x_star, dtype=float))
    return ProblemSpec(
        name=name, dimension=box.dimension, domain=box, f_limit=f, g=g,
        maximum=info, sigma=None, epsilon=zero_epsilon(), n_zero=n0,
        exact_integral=exact,
    )


def _drifting_gauss(name: str, epsilon: EpsilonSchedule, half_width: float) -> ProblemSpec:
    """f = -x^2/2 + eps(N) x on [-1, 1]: maximizer x*(N) = eps(N)."""
    box = BoxDomain([-1.0], [1.0])
    f = polynomial_field([(-0.5, (2,))], name="neg_half_square")
    sigma = polynomial_field([(1.0, (1,))], name="identity")
    nb = BoxDomain([-half_width], [half_width])

    def x_star_of_N(n: int) -> np.ndarray:
        return np.array([float(epsilon.evaluate(int(n)))])

    def exact(n: int) -> float:
        eps = float(epsilon.evaluate(int(n)))
        return math.exp(n * eps * eps / 2.0) * _segment_gauss(n, -1.0, 1.0, shift=eps)

    return _interior_spec(
        name, box, f, UNIT_WEIGHT, sigma, epsilon, nb,
        x_star=[0.0], x_star_of_N=x_star_of_N, exact=exact,
    )


def _build_gauss1d() -> ProblemSpec:
    box = BoxDomain([-1.0], [1.0])
    f = _gauss_f(1)
    nb = default_neighborhood(box, np.zeros(1))  # [-0.5, 0.5]

    def exact(n: int) -> float:
        return _segment_gauss(n, -1.0, 1.0)

    return _interior_spec(
        "gauss1d", box, f, UNIT_WEIGHT, None, zero_epsilon(), nb,
        x_star=[0.0], x_star_of_N=_const_point([0.0]), exact=exact,
    )


def _build_exp1d() -> ProblemSpec:
    box = BoxDomain([0.0], [1.0])
    f = polynomial_field([(-1.0, (1,))], name="neg_x")
    nb = BoxDomain([0.0], [1.0])  # the whole domain certifies |f'| = 1

    def exact(n: int) -> float:
        return -math.expm1(-n) / n

    return _boundary_spec("exp1d", box, f, UNIT_WEIGHT, nb,
                          x_star=[0.0], axis=0, exact=exact)


def _build_cubic1d() -> ProblemSpec:
    # Non-quadratic interior problem: nonzero third derivative at the
    # maximizer drives the constant part of the interior remainder bound.
    box = BoxDomain([-1.0], [1.0])
    f = polynomial_field([(-0.5, (2,)), (-1.0 / 6.0, (3,))], name="cubic_well")
    nb = BoxDomain([-0.9], [0.9])
    return _interior_spec(
        "cubic1d", box, f, UNIT_WEIGHT, None, zero_epsilon(), nb,
        x_star=[0.0], x_star_of_N=_const_point([0.0]), exact=None,
    )


def _build_quartic1d() -> ProblemSpec:
    box = BoxDomain([-1.0], [1.0])
    f = polynomial_field([(-0.5, (2,)), (-0.25, (4,))], name="quartic_well")
    nb = BoxDomain([-1.0], [1.0])
    return _interior_spec(
        "quartic1d", box, f, UNIT_WEIGHT, None, zero_epsilon(), nb,
        x_star=[0.0], x_star_of_N=_const_point([0.0]), exact=None,
    )


def _build_iso2d() -> ProblemSpec:
    box = BoxDomain([-1.0, -1.0], [1.0, 1.0])
    f = _gauss_f(2)
    nb = BoxDomain([-1.0, -1.0], [1.0, 1.0])

    def exact(n: int) -> float:
        return _segment_gauss(n, -1.0, 1.0) ** 2

    return _interior_spec(
        "iso2d", box, f, UNIT_WEIGHT, None, zero_epsilon(), nb,
        x_star=[0.0, 0.0], x_star_of_N=_const_point([0.0, 0.0]), exact=exact,
    )


def _build_gauss3d() -> ProblemSpec:
    box = BoxDomain([-1.0] * 3, [1.0] * 3)
    f = _gauss_f(3)
    nb = BoxDomain([-1.0] * 3, [1.0] * 3)

    def exact(n: int) -> float:
        return _segment_gauss(n, -1.0, 1.0) ** 3

    return _interior_spec(
        "gauss3d", box, f, UNIT_WEIGHT, None, zero_epsilon(), nb,
        x_star=[0.0] * 3, x_star_of_N=_const_point([0.0] * 3), exact=exact,
    )


def _build_mixed2d() -> ProblemSpec:
    # Boundary maximum in the relative interior of the x1 = 0 face.  The
    # tangential axis straddles zero so the face carries a full Gaussian
    # cross-section (a corner placement would halve the leading term).
    box = BoxDomain([0.0, -1.0], [1.0, 1.0])
    f = polynomial_field([(-1.0, (1, 0)), (-0.5, (0, 2))], name="mixed")
    nb = BoxDomain([0.0, -1.0], [1.0, 1.0])

    def exact(n: int) -> float:
        return (-math.expm1(-n) / n) * _segment_gauss(n, -1.0, 1.0)

    return _boundary_spec("mixed2d", box, f, UNIT_WEIGHT, nb,
                          x_star=[0.0, 0.0], axis=0, exact=exact)


def _build_tilt2d() -> ProblemSpec:
    # mixed2d geometry with a sloped weight: the nonzero gradient bound of g
    # keeps the remainder constant from degenerating, giving the clean
    # 1/sqrt(N) certified-error rate for the boundary case.
    box = BoxDomain([0.0, -1.0], [1.0, 1.0])
    f = polynomial_field([(-1.0, (1, 0)), (-0.5, (0, 2))], name="mixed")
    g = polynomial_field([(1.0, (0, 0)), (2.0, (0, 1))], name="one_plus_2y")
    nb = BoxDomain([0.0, -1.0], [1.0, 1.0])

    def exact(n: int) -> float:
        # the odd part of g integrates to zero over the symmetric x2 range
        return (-math.expm1(-n) / n) * _segment_gauss(n, -1.0, 1.0)

    return _boundary_spec("tilt2d", box, f, g, nb, x_star=[0.0, 0.0], axis=0, exact=exact)


def _build_boundary3d() -> ProblemSpec:
    box = BoxDomain([0.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    f = polynomial_field(
        [(-1.0, (1, 0, 0)), (-0.5, (0, 2, 0)), (-0.5, (0, 0, 2))], name="mixed3"
    )
    nb = BoxDomain([0.0, -1.0, -1.0], [1.0, 1.0, 1.0])

    def exact(n: int) -> float:
        return (-math.expm1(-n) / n) * _segment_gauss(n, -1.0, 1.0) ** 2

    return _boundary_spec("boundary3d", box, f, UNIT_WEIGHT, nb,
                          x_star=[0.0, 0.0, 0.0], axis=0, exact=exact)


_BUILDERS: dict[str, Callable[[], ProblemSpec]] = {
    "gauss1d": _build_gauss1d,
    "exp1d": _build_exp1d,
    "cubic1d": _build_cubic1d,
    "quartic1d": _build_quartic1d,
    "iso2d": _build_iso2d,
    "mixed2d": _build_mixed2d,
    "tilt2d": _build_tilt2d,
    "gauss3d": _build_gauss3d,
    "boundary3d": _build_boundary3d,
    "drift1d": lambda: _drifting_gauss(
        "drift1d", EpsilonSchedule(lambda n: 1.0 / n, "o_one_over_sqrtN"), 0.5
    ),
    "eps1d": lambda: _drifting_gauss("eps1d", power_epsilon(-0.75), 0.5),
    "viol1d": lambda: _drifting_gauss("viol1d", power_epsilon(-0.25), 0.85),
}


def catalog() -> list[ProblemSpec]:
    """Built-in problems spanning 1D/2D/3D, interior and boundary maxima,
    and drifting-maximizer perturbations."""
    return [build() for build in _BUILDERS.values()]


def get_problem(name: str) -> ProblemSpec:
    """Build the one catalog problem called ``name``."""
    try:
        build = _BUILDERS[name]
    except KeyError:
        raise DomainError(f"unknown catalog problem {name!r}") from None
    return build()


def catalog_names() -> list[str]:
    return list(_BUILDERS)
