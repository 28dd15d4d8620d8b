import json

import numpy as np
import pytest

from certlap import (
    BOUNDARY,
    BoxDomain,
    INTERIOR,
    MaximumInfo,
    ProblemSpec,
    audit_constants,
    constant_field,
    estimate_constants,
    get_problem,
    polynomial_field,
    refine_constants,
)
from certlap.errors import DefinitenessError

SWEEP = (25, 100, 400, 1600)


def with_neighborhood(spec, lower, upper):
    from dataclasses import replace

    nb = BoxDomain(lower, upper, spec.domain.rotation)
    return replace(spec, maximum=replace(spec.maximum, neighborhood=nb))


class TestStrictJson:
    def test_to_json_writes_null_for_infinity(self):
        # exp1d's empty tangent block leaves F2_prime infinite
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text = estimate_constants(get_problem("exp1d"), n_sweep=(100,)).to_json()
        d = json.loads(text, parse_constant=refuse)
        assert d["F2_prime"] is None
        assert d["F2_prime_Omega"] is None


class TestEstimate:
    def test_gauss1d_exact_constants(self):
        # constant curvature field on the quarter-width neighborhood
        spec = with_neighborhood(get_problem("gauss1d"), [-0.25], [0.25])
        rep = estimate_constants(spec, grid_res=16, n_sweep=SWEEP, safety_factor=1.0)
        assert rep.F2 == pytest.approx(1.0, rel=1e-12)
        assert rep.F2_prime == pytest.approx(1.0, rel=1e-12)
        assert rep.F3 == pytest.approx(0.0, abs=1e-10)
        assert rep.G == pytest.approx(1.0)
        assert rep.G1 == pytest.approx(0.0, abs=1e-12)
        assert rep.lambda_det == pytest.approx(1.0, rel=1e-12)
        assert rep.Lambda_det == pytest.approx(1.0, rel=1e-12)
        assert rep.F1_prime is None and rep.F1_prime_Omega is None
        # min structure: the domain-gap term is transcribed on the grid
        # (sup of f over outside nodes / sup of squared distance)
        nodes = np.linspace(-1.0, 1.0, 17)
        outside = nodes[np.abs(nodes) > 0.25 + 1e-12]
        gap = 0.0 - np.max(-0.5 * outside**2)
        ratio = gap / np.max(np.abs(outside)) ** 2
        assert rep.F2_prime_Omega == pytest.approx(min(1.0, ratio), rel=1e-9)

    def test_exp1d_linear_field(self):
        rep = estimate_constants(get_problem("exp1d"), grid_res=16,
                                 n_sweep=SWEEP, safety_factor=1.0)
        assert rep.F1_prime == pytest.approx(1.0, rel=1e-12)
        assert rep.F1_prime_Omega == pytest.approx(1.0, rel=1e-12)
        # empty tangent space: determinant convention 1, no curvature floor
        assert rep.lambda_det == pytest.approx(1.0)
        assert rep.Lambda_det == pytest.approx(1.0)
        assert rep.F2 == pytest.approx(0.0, abs=1e-10)

    def test_mixed2d_hand_derivatives(self):
        rep = estimate_constants(get_problem("mixed2d"), grid_res=64,
                                 n_sweep=SWEEP, safety_factor=1.0)
        assert rep.F1_prime == pytest.approx(1.0, rel=1e-10)
        assert rep.lambda_det == pytest.approx(1.0, rel=1e-10)
        assert rep.Lambda_det == pytest.approx(1.0, rel=1e-10)
        assert rep.F2 == pytest.approx(1.0, rel=1e-10)
        assert rep.F2_prime == pytest.approx(1.0, rel=1e-10)

    def test_invariant_inequalities(self, specs, consts_cache):
        for name in specs:
            rep = consts_cache(name)
            assert rep.F2_prime > 0 and rep.F2_prime_Omega > 0
            assert 0 < rep.lambda_det <= rep.Lambda_det + 1e-15
            assert rep.F2_prime_Omega <= rep.F2_prime + 1e-15
            if specs[name].maximum.kind == BOUNDARY:
                assert rep.F1_prime > 0
                assert rep.F1_prime_Omega <= rep.F1_prime + 1e-15
            else:
                assert rep.F1_prime is None and rep.F1_prime_Omega is None

    def test_definiteness_error(self):
        box = BoxDomain([-1.0], [1.0])
        spec = ProblemSpec(
            name="flat", dimension=1, domain=box,
            f_limit=polynomial_field([(-0.25, (4,))]),  # degenerate at 0
            g=constant_field(1.0),
            maximum=MaximumInfo(
                kind=INTERIOR, x_star=np.zeros(1),
                x_star_of_N=lambda n: np.zeros(1),
                neighborhood=BoxDomain([-0.5], [0.5]),
            ),
        )
        with pytest.raises(DefinitenessError):
            estimate_constants(spec, grid_res=16, n_sweep=(25,))

    def test_preconditions(self):
        spec = get_problem("gauss1d")
        with pytest.raises(ValueError):
            estimate_constants(spec, grid_res=8, n_sweep=SWEEP)
        with pytest.raises(ValueError):
            estimate_constants(spec, grid_res=16, n_sweep=())
        with pytest.raises(ValueError):
            estimate_constants(spec, grid_res=16, n_sweep=SWEEP, safety_factor=0.5)
        with pytest.raises(ValueError):
            estimate_constants(spec, grid_res=16, n_sweep=(spec.n_zero,))

    def test_serialization_round_trip(self, consts_cache):
        import json

        rep = consts_cache("mixed2d")
        d = json.loads(rep.to_json())
        assert d["problem"] == "mixed2d"
        assert d["F1_prime"] == rep.F1_prime
        assert d["n_sweep"] == list(SWEEP)
        assert d["grid_res"] == 64


class TestRefinement:
    def test_gauss1d_constant_curvature_stable(self):
        spec = with_neighborhood(get_problem("gauss1d"), [-0.25], [0.25])
        r16 = estimate_constants(spec, grid_res=16, n_sweep=(25, 100), safety_factor=1.0)
        r32 = refine_constants(r16, spec)
        assert r32.grid_res == 32
        for fld in ("F2", "F2_prime", "lambda_det", "Lambda_det"):
            assert getattr(r32, fld) == pytest.approx(getattr(r16, fld), rel=1e-12)

    def test_random_cubic_f3_nondecreasing(self):
        rng = np.random.default_rng(5)
        coeffs = rng.normal(scale=0.1, size=3)
        box = BoxDomain([-1.0], [1.0])
        f = polynomial_field(
            [(-0.5, (2,))] + [(float(c) * 0.05, (3,)) for c in coeffs]
        )
        spec = ProblemSpec(
            name="randcubic", dimension=1, domain=box, f_limit=f,
            g=constant_field(1.0),
            maximum=MaximumInfo(
                kind=INTERIOR, x_star=np.zeros(1),
                x_star_of_N=lambda n: np.zeros(1),
                neighborhood=BoxDomain([-0.5], [0.5]),
            ),
        )
        r16 = estimate_constants(spec, grid_res=16, n_sweep=(25,))
        r32 = refine_constants(r16, spec)
        assert r32.F3 >= r16.F3 - 1e-15

    def test_monotone_refinement_mixed2d(self):
        spec = get_problem("mixed2d")
        r16 = estimate_constants(spec, grid_res=16, n_sweep=(25, 100))
        r32 = refine_constants(r16, spec)
        # sup-type nondecreasing, inf-type nonincreasing
        assert r32.F2 >= r16.F2 - 1e-15
        assert r32.F3 >= r16.F3 - 1e-15
        assert r32.G >= r16.G - 1e-15
        assert r32.Lambda_det >= r16.Lambda_det - 1e-15
        assert r32.F2_prime <= r16.F2_prime + 1e-15
        assert r32.F2_prime_Omega <= r16.F2_prime_Omega + 1e-15
        assert r32.lambda_det <= r16.lambda_det + 1e-15
        assert r32.F1_prime <= r16.F1_prime + 1e-15

    def test_monotone_refinement_cubic(self):
        spec = get_problem("cubic1d")
        r16 = estimate_constants(spec, grid_res=16, n_sweep=(25,))
        r32 = refine_constants(r16, spec)
        assert r32.F3 >= r16.F3 - 1e-15
        assert r32.F2_prime <= r16.F2_prime + 1e-15


class TestAudit:
    @pytest.mark.parametrize(
        "name", ["gauss1d", "exp1d", "cubic1d", "mixed2d", "tilt2d", "drift1d"]
    )
    def test_soundness_sampling(self, specs, consts_cache, name):
        rep = consts_cache(name)
        audit = audit_constants(specs[name], rep, n_points=1000, seed=1)
        assert audit["ok"], audit["failures"]
