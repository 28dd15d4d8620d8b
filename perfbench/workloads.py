"""The benchmark's workloads: which problems one pass runs, and with what
run configuration.

A problem is either a catalog name or an inline definition in the
``certlap run --config`` grammar; both go through ``RunConfig.problem``.
README.md in this directory says why each workload exists.
"""

from __future__ import annotations

# Every pass runs each problem with the full check set and the default sweep.
RUN_CONFIG = {
    "checks": ("laplace", "constants", "lln", "fluctuations", "preposition1", "sampler"),
    "n_sweep": (25, 100, 400, 1600),
    "tol": 1e-10,
    "sample_count": 20000,
}


def _poly(*terms) -> dict:
    return {
        "type": "polynomial",
        "terms": [{"coeff": c, "powers": list(p)} for c, p in terms],
    }


def _inline(name: str, lower, upper, f: dict) -> dict:
    # g = exp(0.3 x - 0.2 y), sigma = x, epsilon(N) = N^-0.75 for all three
    return {
        "name": name,
        "domain": {"lower": lower, "upper": upper},
        "f": f,
        "g": {"type": "exponential", "linear": [0.3, -0.2]},
        "sigma": _poly((1.0, (1, 0))),
        "epsilon": {"class": "power", "exponent": -0.75},
    }


WORKLOADS: dict[str, list] = {
    # one interior and one boundary 3-D maximum: bulk oracle evaluation
    "catalog3d": ["gauss3d", "boundary3d"],
    # the other ten catalog problems: many small calls, and today's failures
    "catalog_lowdim": [
        "gauss1d", "exp1d", "cubic1d", "quartic1d", "iso2d",
        "mixed2d", "tilt2d", "drift1d", "eps1d", "viol1d",
    ],
    # inline configs: classification, solved x*(N), low-acceptance sampling
    "inline2d": [
        _inline("quad2d", [-1.0, -1.0], [1.0, 1.0],
                _poly((-0.5, (2, 0)), (-1.0, (0, 2)), (0.1, (1, 1)))),
        _inline("cub2d", [-1.0, -1.0], [1.0, 1.0],
                _poly((-0.5, (2, 0)), (-1.0, (0, 2)), (0.2, (3, 0)), (0.1, (1, 1)))),
        _inline("bnd2d", [0.0, -1.0], [1.0, 1.0],
                _poly((-1.0, (1, 0)), (-0.3, (2, 0)), (-0.5, (0, 2)))),
    ],
}


def problem_name(problem) -> str:
    return problem if isinstance(problem, str) else problem["name"]
