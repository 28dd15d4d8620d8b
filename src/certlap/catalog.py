"""Built-in test problems.

Each entry is an inline definition in the ``certlap run --config`` grammar,
so any of them is a template for an inline problem, and it is built and
classified the way an inline problem is.  Where one exists, a closed-form
value of the integral sits next to the definition, so the quadrature oracle
and the certified enclosures can be cross-checked against something
independent.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .grammar import problem_from_definition
from .problems import ProblemSpec


def _poly(*terms) -> dict:
    return {"type": "polynomial", "terms": [{"coeff": c, "powers": list(p)} for c, p in terms]}


def _box(lower, upper) -> dict:
    return {"lower": lower, "upper": upper}


def _segment_gauss(N: float, a: float, b: float, shift: float = 0.0) -> float:
    """integral over [a, b] of exp(-N (x - shift)^2 / 2)."""
    s = math.sqrt(N / 2.0)
    return math.sqrt(math.pi / (2.0 * N)) * (math.erf(s * (b - shift)) - math.erf(s * (a - shift)))


def _face(N: float) -> float:
    """integral over [0, 1] of exp(-N x)."""
    return -math.expm1(-N) / N


def _drifting(exponent: float, half_width: float):
    """f = -x^2/2 + eps(N) x on [-1, 1] with eps(N) = N^exponent: maximizer
    x*(N) = eps(N)."""
    definition = {
        "domain": _box([-1.0], [1.0]),
        "f": _poly((-0.5, (2,))),
        "sigma": _poly((1.0, (1,))),
        "epsilon": {"class": "power", "exponent": exponent},
        "neighborhood": _box([-half_width], [half_width]),
    }

    def exact(n: int) -> float:
        eps = float(n) ** exponent
        return math.exp(n * eps * eps / 2.0) * _segment_gauss(n, -1.0, 1.0, shift=eps)

    return definition, exact


_GAUSS = [_poly(*[(-0.5, tuple(2 if i == j else 0 for i in range(m))) for j in range(m)])
          for m in (1, 2, 3)]
_CUBE = [_box([-1.0] * m, [1.0] * m) for m in (1, 2, 3)]
_HALF = _box([0.0, -1.0], [1.0, 1.0])  # the x1 = 0 face is the maximizing one
_MIXED = _poly((-1.0, (1, 0)), (-0.5, (0, 2)))

# name: (definition, closed form of the integral or None)
_ENTRIES = {
    "gauss1d": ({"domain": _CUBE[0], "f": _GAUSS[0], "neighborhood": _box([-0.5], [0.5])},
                lambda n: _segment_gauss(n, -1.0, 1.0)),
    # the whole domain certifies |f'| = 1
    "exp1d": ({"domain": _box([0.0], [1.0]), "f": _poly((-1.0, (1,))),
               "neighborhood": _box([0.0], [1.0])}, _face),
    # non-quadratic interior problem: the nonzero third derivative at the
    # maximizer drives the constant part of the interior remainder bound
    "cubic1d": ({"domain": _CUBE[0], "f": _poly((-0.5, (2,)), (-1.0 / 6.0, (3,))),
                 "neighborhood": _box([-0.9], [0.9])}, None),
    "quartic1d": ({"domain": _CUBE[0], "f": _poly((-0.5, (2,)), (-0.25, (4,))),
                   "neighborhood": _CUBE[0]}, None),
    "iso2d": ({"domain": _CUBE[1], "f": _GAUSS[1], "neighborhood": _CUBE[1]},
              lambda n: _segment_gauss(n, -1.0, 1.0) ** 2),
    # boundary maximum in the relative interior of the x1 = 0 face: the
    # tangential axis straddles zero, so the face carries a full Gaussian
    # cross-section (a corner placement would halve the leading term)
    "mixed2d": ({"domain": _HALF, "f": _MIXED, "neighborhood": _HALF},
                lambda n: _face(n) * _segment_gauss(n, -1.0, 1.0)),
    # mixed2d with a sloped weight: the nonzero gradient bound of g keeps the
    # remainder constant from degenerating, giving the clean 1/sqrt(N)
    # certified-error rate for the boundary case; the odd part of g
    # integrates to zero over the symmetric x2 range
    "tilt2d": ({"domain": _HALF, "f": _MIXED, "neighborhood": _HALF,
                "g": _poly((1.0, (0, 0)), (2.0, (0, 1)))},
               lambda n: _face(n) * _segment_gauss(n, -1.0, 1.0)),
    "gauss3d": ({"domain": _CUBE[2], "f": _GAUSS[2], "neighborhood": _CUBE[2],
                 "classify_grid_res": 16},
                lambda n: _segment_gauss(n, -1.0, 1.0) ** 3),
    "boundary3d": ({"domain": _box([0.0, -1.0, -1.0], [1.0, 1.0, 1.0]),
                    "f": _poly((-1.0, (1, 0, 0)), (-0.5, (0, 2, 0)), (-0.5, (0, 0, 2))),
                    "neighborhood": _box([0.0, -1.0, -1.0], [1.0, 1.0, 1.0]),
                    "classify_grid_res": 16},
                   lambda n: _face(n) * _segment_gauss(n, -1.0, 1.0) ** 2),
    "drift1d": _drifting(-1.0, 0.5),
    "eps1d": _drifting(-0.75, 0.5),
    "viol1d": _drifting(-0.25, 0.85),
}


def catalog() -> list[ProblemSpec]:
    """Built-in problems spanning 1D/2D/3D, interior and boundary maxima,
    and drifting-maximizer perturbations."""
    return [get_problem(name) for name in _ENTRIES]


def get_problem(name: str) -> ProblemSpec:
    """Build the one catalog problem called ``name``."""
    try:
        definition, exact = _ENTRIES[name]
    except KeyError:
        raise DomainError(f"unknown catalog problem {name!r}") from None
    return problem_from_definition({"name": name, **definition}, exact)


def catalog_names() -> list[str]:
    return list(_ENTRIES)
