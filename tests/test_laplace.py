import math
from dataclasses import replace

import numpy as np
import pytest

from certlap import (
    INTERIOR,
    approximate,
    catalog,
    estimate_constants,
    gaussian_tail_bound,
    integrate,
    tail_integral,
)
from certlap.config import problem_from_config
from certlap.errors import SweepRangeError
from workloads_inline import INLINE

SWEEP = (25, 100, 400, 1600)


class TestOverflow:
    """f = x on [0, 1] at N = 1600: the linear leading term and enclosure
    overflow, and containment is decided on the log-space fields."""

    @pytest.fixture(scope="class")
    def rising(self):
        spec = problem_from_config({
            "name": "rising",
            "domain": {"lower": [0.0], "upper": [1.0]},
            "f": {"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [1]}]},
        })
        r = approximate(spec, estimate_constants(spec, n_sweep=(1600,)), 1600)
        return r, integrate(spec, 1600)

    def test_contains_oracle_in_log_space(self, rising):
        r, o = rising
        assert r.leading == math.inf and math.isnan(r.enclosure[0])
        assert not r.contains(o.value, slack=r.oracle_slack(o))
        assert r.contains_oracle(o)

    def test_log_space_edges_follow_the_remainder(self, rising):
        r, o = rising
        rel = math.exp(r.log_remainder - r.log_abs_leading)  # about 3e-4
        for factor, inside in ((0.5, True), (2.0, False), (-0.5, True), (-2.0, False)):
            moved = replace(o, log_abs_value=r.log_abs_leading + math.log1p(factor * rel))
            assert r.contains_oracle(moved) is inside, factor


class TestBoundary1d:
    def test_exp1d_n10(self, specs, consts_cache):
        spec, c = specs["exp1d"], consts_cache("exp1d")
        r = approximate(spec, c, 10)
        assert r.theorem == "T1"
        assert r.leading == pytest.approx(0.1, rel=1e-14)
        exact = (1 - math.exp(-10)) / 10
        assert exact == pytest.approx(0.09999546000702375, rel=1e-12)
        assert abs(exact - r.leading) == pytest.approx(math.exp(-10) / 10, rel=1e-10)
        assert abs(exact - r.leading) <= r.remainder_magnitude

    def test_exp1d_n100_error_deep_inside(self, specs, consts_cache):
        spec, c = specs["exp1d"], consts_cache("exp1d")
        r = approximate(spec, c, 100)
        assert r.leading == pytest.approx(0.01, rel=1e-14)
        assert math.exp(-100) / 100 <= 1e-6 * r.remainder_magnitude

    def test_sloped_weight_enclosure(self, specs):
        # g = 1 + x on the boundary problem, oracle at tight tolerance
        from dataclasses import replace

        from certlap import polynomial_field

        spec = replace(
            specs["exp1d"], g=polynomial_field([(1.0, (0,)), (1.0, (1,))]), exact_integral=None
        )
        c = estimate_constants(spec, grid_res=64, n_sweep=SWEEP)
        r = approximate(spec, c, 25)
        assert r.leading == pytest.approx(1.0 / 25.0, rel=1e-14)
        o = integrate(spec, 25, tol=1e-12)
        assert r.contains(o.value, slack=r.oracle_slack(o))

    def test_negative_weight_sign(self, specs):
        # sign-changing g with g(x*) < 0: leading and enclosure flip sign
        from dataclasses import replace

        from certlap import polynomial_field

        spec = replace(
            specs["exp1d"], g=polynomial_field([(-1.0, (0,)), (-1.0, (1,))]),
            exact_integral=None,
        )
        c = estimate_constants(spec, grid_res=32, n_sweep=(25,))
        r = approximate(spec, c, 25)
        assert r.leading == pytest.approx(-1.0 / 25.0, rel=1e-14)
        assert r.leading_sign == -1.0
        o = integrate(spec, 25, tol=1e-12)
        assert o.value < 0
        assert r.contains(o.value, slack=r.oracle_slack(o))

    def test_dispatch_errors(self, specs, consts_cache):
        with pytest.raises(SweepRangeError):
            approximate(specs["exp1d"], consts_cache("exp1d"), 1)


class TestInterior:
    def test_gauss1d_n100(self, specs, consts_cache):
        spec, c = specs["gauss1d"], consts_cache("gauss1d")
        r = approximate(spec, c, 100)
        assert r.theorem == "T2"
        assert r.leading == pytest.approx(math.sqrt(2 * math.pi / 100), rel=1e-13)
        assert r.leading == pytest.approx(0.2506628, rel=1e-6)
        o = integrate(spec, 100, tol=1e-12)
        assert abs(o.value - r.leading) <= r.remainder_magnitude

    def test_iso2d_n64(self, specs, consts_cache):
        r = approximate(specs["iso2d"], consts_cache("iso2d"), 64)
        assert r.leading == pytest.approx(2 * math.pi / 64, rel=1e-13)
        assert r.leading == pytest.approx(0.0981748, rel=1e-6)

    def test_drifting_maximizer_leading(self, specs, consts_cache):
        # x*(N) = 1/N and f(x*(N), N) = 1/(2 N^2) shift the prefactor
        spec, c = specs["drift1d"], consts_cache("drift1d")
        n = 100
        r = approximate(spec, c, n)
        expected = math.exp(n * 1.0 / (2 * n * n)) * math.sqrt(2 * math.pi / n)
        assert r.leading == pytest.approx(expected, rel=1e-12)

    def test_window_precondition(self, specs, consts_cache):
        # gauss1d neighborhood half-width 0.5: N^{-1/3} <= 0.5 needs N >= 8
        with pytest.raises(SweepRangeError):
            approximate(specs["gauss1d"], consts_cache("gauss1d"), 7 + 0)

    def test_degenerate_hessian(self, specs, consts_cache):
        # flat-curvature maximizer supplied by hand: the leading term has no
        # meaning and must be refused
        from dataclasses import replace

        from certlap import polynomial_field
        from certlap.errors import DegenerateHessianError

        spec = replace(
            specs["quartic1d"], f_limit=polynomial_field([(-0.25, (4,))]),
            exact_integral=None,
        )
        with pytest.raises(DegenerateHessianError):
            approximate(spec, consts_cache("quartic1d"), 100)


class TestBoundaryMd:
    def test_mixed2d_n100(self, specs, consts_cache):
        spec, c = specs["mixed2d"], consts_cache("mixed2d")
        r = approximate(spec, c, 100)
        assert r.theorem == "T3"
        assert r.leading == pytest.approx(0.01 * math.sqrt(2 * math.pi / 100), rel=1e-13)
        assert r.leading == pytest.approx(2.5066e-3, rel=1e-4)
        o = integrate(spec, 100, tol=1e-11)
        assert r.contains(o.value, slack=r.oracle_slack(o))

    def test_boundary3d_n100(self, specs, consts_cache):
        r = approximate(specs["boundary3d"], consts_cache("boundary3d"), 100)
        assert r.leading == pytest.approx((1 / 100) * (2 * math.pi / 100), rel=1e-12)

    def test_remainder_rate_two_point(self, specs, consts_cache):
        # on a problem whose remainder constant has settled, quadrupling N
        # halves the certified relative remainder (the 1/sqrt(N) scale)
        spec, c = specs["tilt2d"], consts_cache("tilt2d")
        r100 = approximate(spec, c, 100)
        r400 = approximate(spec, c, 400)
        ratio = r400.relative_remainder / r100.relative_remainder
        assert 0.35 <= ratio <= 0.65

    def test_rotated_problem_end_to_end(self, specs):
        # physically rotated copy: same certified constants and enclosure
        import math as _m

        from certlap import rotate_problem

        th = _m.pi / 6.0
        R = np.array([[_m.cos(th), -_m.sin(th)], [_m.sin(th), _m.cos(th)]])
        spec = rotate_problem(specs["mixed2d"], R)
        c = estimate_constants(spec, grid_res=32, n_sweep=(100,))
        r = approximate(spec, c, 100)
        assert r.leading == pytest.approx(0.01 * math.sqrt(2 * math.pi / 100), rel=1e-10)
        o = integrate(spec, 100, tol=1e-11)
        assert o.value == pytest.approx(specs["mixed2d"].exact_integral(100), rel=1e-9)
        assert r.contains(o.value, slack=r.oracle_slack(o))

    def test_permuted_boundary_axis(self):
        # same geometry with the boundary face orthogonal to the second axis
        from certlap import (
            BOUNDARY,
            BoxDomain,
            MaximumInfo,
            ProblemSpec,
            constant_field,
            polynomial_field,
        )

        box = BoxDomain([-1.0, 0.0], [1.0, 1.0])
        f = polynomial_field([(-0.5, (2, 0)), (-1.0, (0, 1))])
        spec = ProblemSpec(
            name="mixed2d_swapped", domain=box, f_limit=f,
            g=constant_field(1.0),
            maximum=MaximumInfo(
                kind=BOUNDARY, x_star=np.zeros(2),
                neighborhood=box, boundary_axis=1,
            ),
        )
        c = estimate_constants(spec, grid_res=32, n_sweep=(100,))
        r = approximate(spec, c, 100)
        assert r.leading == pytest.approx(0.01 * math.sqrt(2 * math.pi / 100), rel=1e-12)
        o = integrate(spec, 100, tol=1e-11)
        assert r.contains(o.value, slack=r.oracle_slack(o))


@pytest.mark.parametrize("name", [s.name for s in catalog()] + list(INLINE))
def test_approximate_picks_the_theorem(specs, consts_cache, name):
    """T2 at an interior maximum, T1 at a one-dimensional boundary maximum
    and T3 at a boundary maximum in two or more dimensions."""
    if name in INLINE:
        spec = problem_from_config(INLINE[name])
        c = estimate_constants(spec, n_sweep=(100,))
    else:
        spec, c = specs[name], consts_cache(name)
    if spec.maximum.kind == INTERIOR:
        expected = "T2"
    else:
        expected = "T1" if spec.dimension == 1 else "T3"
    assert approximate(spec, c, 100).theorem == expected


class TestEnclosureInvariants:
    @pytest.mark.parametrize("N", SWEEP)
    def test_enclosure_soundness_catalog(self, specs, consts_cache, N):
        for name, spec in specs.items():
            r = approximate(spec, consts_cache(name), N)
            o = integrate(spec, N, tol=1e-10)
            assert r.contains(o.value, slack=r.oracle_slack(o)), (name, N)

    def test_enclosure_geometry(self, specs, consts_cache):
        r = approximate(specs["mixed2d"], consts_cache("mixed2d"), 100)
        lo, hi = r.enclosure
        assert hi - lo == pytest.approx(2 * r.remainder_magnitude, rel=1e-12)
        assert lo <= r.leading <= hi
        assert math.exp(r.log_abs_leading) * r.leading_sign == pytest.approx(r.leading, rel=1e-12)

    def test_relative_remainder_decays_at_stated_rate(self, specs, consts_cache):
        for name, spec in specs.items():
            rels = [
                approximate(spec, consts_cache(name), n).relative_remainder
                for n in SWEEP
            ]
            assert rels[-1] < rels[0], name
            # omega bounded: rate-normalized remainder must not blow up
            if spec.maximum.kind == "boundary_b" and spec.dimension == 1:
                normalized = [r * n for r, n in zip(rels, SWEEP)]
            else:
                normalized = [r * math.sqrt(n) for r, n in zip(rels, SWEEP)]
            assert max(normalized) <= 4.0 * normalized[0] + 1e-9, name

    def test_omega_monotone_dominance(self, specs, consts_cache):
        # once sqrt(N) * F1'_Omega > 2 the N-dependent tail terms only shrink
        for name, spec in specs.items():
            c = consts_cache(name)
            omegas = [approximate(spec, c, n).omega_bound for n in SWEEP]
            guard = c.F1_prime_Omega if c.F1_prime_Omega else c.F2_prime_Omega
            for (n1, w1), (n2, w2) in zip(zip(SWEEP, omegas), zip(SWEEP[1:], omegas[1:])):
                if math.sqrt(n1) * guard > 2.0:
                    assert w2 <= w1 * (1 + 1e-9), (name, n1, n2)

    def test_actual_error_rate_bounded(self, specs, consts_cache):
        # (oracle - leading) scaled by the theorem's remainder prefactor
        # stays bounded along the sweep
        for name in ("cubic1d", "tilt2d", "exp1d"):
            spec = specs[name]
            vals = []
            for n in SWEEP:
                r = approximate(spec, consts_cache(name), n)
                o = integrate(spec, n, tol=1e-11)
                rem_scale = math.exp(r.log_remainder - math.log(r.omega_bound))
                vals.append(abs(o.value - r.leading) / rem_scale)
            assert max(vals) <= max(10.0, 4.0 * vals[0] + 1.0), (name, vals)


class TestGaussianTailBound:
    def test_known_point_dominates(self):
        b = gaussian_tail_bound(1, 0, 1.0, 4, 1.0)
        t = tail_integral(1, 0, 1.0, 4, 1.0, tol=1e-12)
        assert b >= t.value
        assert t.value == pytest.approx(0.0041455347, rel=1e-7)

    def test_monotone_to_zero(self):
        vals = [gaussian_tail_bound(1, 0, 1.0, n, n ** (-1 / 3)) for n in (10, 100, 1000, 10000)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-10

    @pytest.mark.parametrize("seed", range(50))
    def test_dominates_oracle_tail(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        k = int(rng.integers(0, 4))
        a = float(rng.uniform(0.5, 4.0))
        N = int(rng.integers(1, 10_001))
        R = float(rng.uniform(0.2, 2.0))
        bound = gaussian_tail_bound(m, k, a, N, R)
        true = tail_integral(m, k, a, N, R, tol=1e-11)
        assert bound >= true.value * (1 - 1e-9), (m, k, a, N, R)

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_tail_bound(1, 0, -1.0, 4, 1.0)
        with pytest.raises(ValueError):
            gaussian_tail_bound(1, 0, 1.0, 4, 0.0)
