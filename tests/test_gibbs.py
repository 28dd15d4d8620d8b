import copy
import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from certlap import (
    BoxDomain,
    EpsilonSchedule,
    catalog,
    empirical_limit_test,
    estimate_constants,
    fluctuation_sweep,
    get_problem,
    gibbs_measure,
    ks_statistic,
    maximum_drift_check,
    measure_of,
    mgf_X,
    mgf_Y,
    sample,
    tilted_maximizer_check,
    transform_to_fluctuations,
)
from certlap import approximate, integrate
from certlap.config import problem_from_config
from certlap.gibbs import MgfReport, fluctuation_verdict
from certlap.problems import ScalarField, limit_axes
from certlap.errors import (
    AssumptionViolationError,
    DomainError,
    EnvelopeFailureError,
    InsufficientSampleError,
    MgfPoleError,
    TheoremMismatchError,
    TiltTooLargeError,
)

SWEEP = (25, 100, 400, 1600)


class TestMeasure:
    def test_normalization(self, specs):
        for name in ("gauss1d", "exp1d", "mixed2d", "drift1d"):
            spec = specs[name]
            m = gibbs_measure(spec, 100, tol=1e-11)
            p = measure_of(m, spec.domain)
            assert abs(p - 1.0) <= 10 * 1e-11, name

    def test_gauss1d_one_sigma_scale(self, specs):
        # N = 100: X is nearly N(0, 1/100); P(|X| <= 0.01) = P(|Z| <= 0.1)
        m = gibbs_measure(specs["gauss1d"], 100, tol=1e-12)
        p = measure_of(m, BoxDomain([-0.01], [0.01]))
        expected = erf(0.1 / math.sqrt(2.0))
        assert p == pytest.approx(expected, abs=1e-4)
        assert p == pytest.approx(0.0797, abs=2e-4)

    def test_exp1d_truncated_exponential(self, specs):
        m = gibbs_measure(specs["exp1d"], 50, tol=1e-12)
        p = measure_of(m, BoxDomain([0.0], [1.0 / 50.0]))
        expected = (1 - math.exp(-1.0)) / (1 - math.exp(-50.0))
        assert p == pytest.approx(expected, rel=1e-9)
        assert p == pytest.approx(0.6321, abs=1e-4)

    def test_box_escape(self, specs):
        m = gibbs_measure(specs["gauss1d"], 100)
        with pytest.raises(DomainError):
            measure_of(m, BoxDomain([-2.0], [0.0]))


class TestMgfX:
    def test_zero_tilt_is_one(self, specs):
        for name in ("gauss1d", "exp1d", "mixed2d"):
            m = gibbs_measure(specs[name], 100)
            r = mgf_X(m, np.zeros(specs[name].dimension))
            assert r.mgf_value == pytest.approx(1.0, rel=1e-10)
            assert r.residual <= 1e-10

    def test_gauss1d_residual_decay(self, specs):
        # closed form: residual = exp(xi^2 / 2N) - 1, so a 4x step in N
        # shrinks it 4x (faster than the certified 1/sqrt(N) rate)
        residuals = []
        for n in (25, 100, 400):
            m = gibbs_measure(specs["gauss1d"], n, tol=1e-12)
            residuals.append(mgf_X(m, [0.5]).residual)
        for n, r in zip((25, 100, 400), residuals):
            # up to the exponentially small domain truncation
            assert r == pytest.approx(math.exp(0.125 / n) - 1.0, rel=2e-4)
        assert residuals[1] <= 0.3 * residuals[0]
        assert residuals[2] <= 0.3 * residuals[1]

    def test_exp1d_closed_form(self, specs):
        n, xi = 200, 0.5
        m = gibbs_measure(specs["exp1d"], n, tol=1e-12)
        r = mgf_X(m, [xi])
        closed = (n / (n - xi)) * (-math.expm1(-(n - xi))) / (-math.expm1(-n))
        assert r.mgf_value == pytest.approx(closed, rel=1e-10)
        assert r.limit_prediction == 1.0

    def test_expected_decay_field(self, specs):
        m = gibbs_measure(specs["eps1d"], 100)
        r = mgf_X(m, [0.5])
        assert r.expected_decay == pytest.approx(max(0.1, 100 ** -0.75))

    def test_tilt_too_large(self, specs):
        m = gibbs_measure(specs["gauss1d"], 25)
        with pytest.raises(TiltTooLargeError):
            mgf_X(m, [60.0])  # tilted maximizer at 60/25 > neighborhood


class TestMgfY:
    def test_gauss1d_fluctuation(self, specs):
        m = gibbs_measure(specs["gauss1d"], 400, tol=1e-12)
        r = mgf_Y(m, [1.0])
        assert r.limit_prediction == pytest.approx(math.exp(0.5), rel=1e-12)
        assert abs(r.mgf_value - math.exp(0.5)) <= 0.06
        assert r.residual <= 1.0 / math.sqrt(400)

    def test_exp1d_boundary_fluctuation(self, specs):
        n = 200
        m = gibbs_measure(specs["exp1d"], n, tol=1e-12)
        r = mgf_Y(m, [0.5])
        # truncated-exponential closed form for E exp(xi N X): the remaining
        # inward slope is N (1 - xi)
        closed = (1.0 / 0.5) * (-math.expm1(-0.5 * n)) / (-math.expm1(-n))
        assert r.mgf_value == pytest.approx(closed, rel=1e-10)
        assert r.limit_prediction == pytest.approx(2.0, rel=1e-12)

    def test_zero_tilt(self, specs):
        for name in ("gauss1d", "exp1d", "mixed2d"):
            m = gibbs_measure(specs[name], 100)
            r = mgf_Y(m, np.zeros(specs[name].dimension))
            assert r.mgf_value == pytest.approx(1.0, rel=1e-9)
            assert r.limit_prediction == 1.0

    def test_pole_error(self, specs):
        m = gibbs_measure(specs["exp1d"], 100)
        with pytest.raises(MgfPoleError):
            mgf_Y(m, [1.0])

    def test_mixed2d_tangent_marginal_prediction(self, specs):
        m = gibbs_measure(specs["mixed2d"], 400, tol=1e-11)
        r = mgf_Y(m, [0.0, 1.0])
        assert r.limit_prediction == pytest.approx(math.exp(0.5), rel=1e-12)
        assert r.residual <= 0.06

    def test_rotated_problem_mgf(self, specs):
        # ambient tilt on a rotated copy agrees with the box-frame value
        from certlap import rotate_problem

        th = math.pi / 7.0
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        rotated = rotate_problem(specs["mixed2d"], R)
        m0 = gibbs_measure(specs["mixed2d"], 100, tol=1e-11)
        m1 = gibbs_measure(rotated, 100, tol=1e-11)
        xi_box = np.array([0.0, 1.0])
        r0 = mgf_Y(m0, xi_box)
        r1 = mgf_Y(m1, R @ xi_box)
        assert r1.mgf_value == pytest.approx(r0.mgf_value, rel=1e-8)
        assert r1.limit_prediction == pytest.approx(r0.limit_prediction, rel=1e-12)

    def test_verdict_ignores_round_off(self):
        def reports(residuals, violated=False):
            return [MgfReport(np.ones(1), n, 1.0, 1.0, r, 0.1, "fluctuation_interior", violated)
                    for n, r in zip((25, 100, 400, 1600), residuals)]

        # exact MGF: residuals at quadrature round-off count as decayed
        assert not fluctuation_verdict(reports([3.3e-16, 1.7e-15]))["flagged"]
        grown = fluctuation_verdict(reports([8.0, 22.6, 86.5, 557.0]))
        assert grown["residual_nondecaying"] and grown["flagged"]
        assert not grown["hypothesis_violated"]
        assert fluctuation_verdict(reports([0.1, 0.01], violated=True))["flagged"]

    def test_fluctuation_decay_and_violation_flag(self, specs):
        ok = fluctuation_sweep(specs["eps1d"], (25, 100, 400), [1.0], tol=1e-10)
        assert not ok["flagged"]
        assert ok["residuals"][-1] < ok["residuals"][0]
        bad = fluctuation_sweep(specs["viol1d"], (25, 100, 400), [1.0], tol=1e-10)
        assert bad["flagged"]
        assert bad["hypothesis_violated"]
        assert bad["residual_nondecaying"]


@pytest.mark.parametrize("xi", [[0.5], [0.5, 0.0, 0.0], [[0.5, 0.0]]],
                         ids=["short", "long", "matrix"])
@pytest.mark.parametrize("check", ["mgf_X", "mgf_Y", "tilted_maximizer_check"])
def test_xi_of_the_wrong_size(specs, check, xi):
    """A tilt xi that is not a vector of the problem dimension (2 on iso2d)
    is refused by name before any maximizer is solved or integral taken."""
    spec = specs["iso2d"]
    with pytest.raises(ValueError, match="xi must have the problem dimension"):
        if check == "tilted_maximizer_check":
            tilted_maximizer_check(spec, xi, SWEEP)
        else:
            {"mgf_X": mgf_X, "mgf_Y": mgf_Y}[check](gibbs_measure(spec, 100), xi)


class TestDrift:
    def test_quadratic_shift_exact(self, specs, consts_cache):
        rows = maximum_drift_check(specs["drift1d"], consts_cache("drift1d"), SWEEP)
        for row in rows:
            assert row["ok"]
            assert row["drift"] == pytest.approx(1.0 / row["N"], abs=1e-10)

    def test_constant_sigma_no_drift(self):
        from dataclasses import replace

        from certlap import EpsilonSchedule, constant_field

        spec = replace(get_problem("gauss1d"), sigma=constant_field(2.0),
                       epsilon=EpsilonSchedule(1.0, -0.75))
        c = estimate_constants(spec, grid_res=32, n_sweep=(25, 100))
        rows = maximum_drift_check(spec, c, (25, 100))
        for row in rows:
            assert row["drift"] <= 1e-10
            assert row["ok"]

    def test_boundary_tangential_drift(self):
        # mixed2d + sigma = x2: drift only along the face, bounded by
        # eps / F2_prime.  The copy is built by replace alone: it keeps
        # mixed2d's maximum, and x*(N) comes from its own f(., N)
        from dataclasses import replace

        from certlap import EpsilonSchedule, polynomial_field

        spec = replace(
            get_problem("mixed2d"),
            sigma=polynomial_field([(1.0, (0, 1))]),
            epsilon=EpsilonSchedule(1.0, -0.75),
            exact_integral=None,
        )
        c = estimate_constants(spec, grid_res=32, n_sweep=(25, 100, 400))
        rows = maximum_drift_check(spec, c, (25, 100, 400))
        for row in rows:
            assert row["ok"]
            n = row["N"]
            assert row["drift"] == pytest.approx(n ** -0.75, rel=1e-6)

    def test_requires_perturbation(self, specs, consts_cache):
        with pytest.raises(ValueError):
            maximum_drift_check(specs["gauss1d"], consts_cache("gauss1d"), SWEEP)

    def test_every_perturbed_catalog_problem(self, specs, consts_cache):
        for name, spec in specs.items():
            if spec.sigma is None:
                continue
            rows = maximum_drift_check(spec, consts_cache(name), SWEEP)
            assert all(row["ok"] for row in rows), name


class TestEpsilonRules:
    """Each decay order a theorem assumes is read from eps's exponent: the
    CLT needs eps(N) sqrt(N) -> 0 (exponent below -1/2), the tilted
    estimates eps(N) sqrt(N) nonincreasing (exponent at most -1/2), on a
    sweep of one N too."""

    @pytest.mark.parametrize("scale, exponent, flagged, raises", [
        (1.0, -0.5, True, False),
        (1.0, -0.25, True, True),
        (0.0, -0.25, False, False),
    ])
    def test_flag_and_violation(self, specs, scale, exponent, flagged, raises):
        spec = dataclasses.replace(specs["drift1d"], epsilon=EpsilonSchedule(scale, exponent))
        assert mgf_Y(gibbs_measure(spec, 100), [1.0]).hypothesis_violated is flagged
        for sweep in ((100,), (100, 400)):
            if raises:
                with pytest.raises(AssumptionViolationError,
                                   match=r"eps\(N\) sqrt\(N\) must be nonincreasing"):
                    tilted_maximizer_check(spec, [1.0], sweep)
            else:
                rows = tilted_maximizer_check(spec, [1.0], sweep)
                assert [r["N"] for r in rows] == list(sweep)

    def test_rules_written_once_on_the_schedule(self):
        """The two rules keep the tests the CLT flag and the tilted estimates
        made before they moved onto EpsilonSchedule."""
        for scale, exponent in itertools.product(
                [0.0, -0.0, 5e-324, 0.3, 1.0, 1e300],
                [-5e-324, -0.25, -0.5 + 2**-53, -0.5, -0.5 - 2**-53, -0.75, -1.0, -math.inf]):
            eps = EpsilonSchedule(scale, exponent)
            assert eps.sqrt_n_vanishes is not (scale > 0 and exponent >= -0.5)
            assert eps.sqrt_n_nonincreasing is not (scale > 0 and exponent > -0.5)


class TestTiltedEstimates:
    def test_gauss1d_quadratic_exactness(self, specs):
        rows = tilted_maximizer_check(specs["gauss1d"], [1.0], SWEEP)
        for row in rows:
            # estimate (drift of the tilted maximizer) is exact: residual 0
            assert row["stat_drift"] / row["N"] <= 1e-8
            assert row["stat_det"] <= 1e-6

    def test_quartic_bounded_ratios(self, specs):
        rows = tilted_maximizer_check(specs["quartic1d"], [1.0], SWEEP)
        first = rows[0]
        for row in rows[1:]:
            for key in ("stat_drift", "stat_value", "stat_det"):
                assert row[key] <= 3.0 * first[key] + 1e-9

    def test_cubic_statistics_settle_to_constants(self, specs):
        # nonzero third derivative: the scaled statistics approach nonzero
        # constants (xi^2/2, ~xi^3, xi/2)
        rows = tilted_maximizer_check(specs["cubic1d"], [1.0], SWEEP)
        last = rows[-1]
        assert last["stat_drift"] == pytest.approx(0.5, rel=0.15)
        assert last["stat_det"] == pytest.approx(0.5, rel=0.15)

    def test_interior_only(self, specs):
        with pytest.raises(TheoremMismatchError):
            tilted_maximizer_check(specs["exp1d"], [1.0], SWEEP)

    def test_each_maximizer_solved_once_per_run(self, monkeypatch):
        """A full-check drift1d run solves each (N, tilt, pinned axis) once:
        in 1-D mgf_Y and Proposition 1 tilt by the same xi / sqrt(N)."""
        import certlap.problems
        from certlap.cli import run_checks
        from certlap.config import KNOWN_CHECKS, RunConfig

        keys = []
        real = certlap.problems.locate_maximum

        def counting(fld, box, start, fixed_axes=None, tilt=None):
            terms = tuple((c, p, None if r is None else r.tobytes()) for c, p, r in fld.terms)
            keys.append((terms, np.asarray(start, dtype=float).tobytes(),
                         tuple(sorted((fixed_axes or {}).items())),
                         None if tilt is None else np.asarray(tilt, dtype=float).tobytes()))
            return real(fld, box, start, fixed_axes, tilt)

        monkeypatch.setattr(certlap.problems, "locate_maximum", counting)
        status, _ = run_checks(RunConfig(problem="drift1d", checks=KNOWN_CHECKS,
                                         sample_count=20_000, seed=1))
        assert status == 0
        assert len(keys) == len(set(keys))
        # mgf_X's xi / N and the shared xi / sqrt(N) at each of the four N
        assert sum(k[3] is not None for k in keys) == 8


class TestSampler:
    def test_determinism(self, specs, consts_cache):
        m = gibbs_measure(specs["gauss1d"], 100)
        c = consts_cache("gauss1d")
        b1 = sample(m, 4000, seed=9, consts=c)
        b2 = sample(m, 4000, seed=9, consts=c)
        assert np.array_equal(b1.draws, b2.draws)
        b3 = sample(m, 4000, seed=10, consts=c)
        assert not np.array_equal(b1.draws, b3.draws)

    def test_gauss1d_mean(self, specs, consts_cache):
        m = gibbs_measure(specs["gauss1d"], 100)
        b = sample(m, 100_000, seed=0, consts=consts_cache("gauss1d"))
        # CLT scale of the empirical mean: 4 / sqrt(N * count)
        assert abs(np.mean(b.draws, axis=0)[0]) <= 4.0 * 10 ** -3.5

    def test_exp1d_moments(self, specs, consts_cache):
        m = gibbs_measure(specs["exp1d"], 100)
        b = sample(m, 100_000, seed=0, consts=consts_cache("exp1d"))
        assert b.draws.min() >= 0.0
        assert np.mean(100 * b.draws[:, 0]) == pytest.approx(1.0, abs=4 / math.sqrt(100_000))

    def test_sampler_vs_oracle_boxes(self, specs, consts_cache):
        spec = specs["mixed2d"]
        m = gibbs_measure(spec, 100, tol=1e-10)
        b = sample(m, 50_000, seed=3, consts=consts_cache("mixed2d"))
        rng = np.random.default_rng(12)
        z = b.draws
        for _ in range(10):
            lo = spec.domain.lower + rng.uniform(0.0, 0.05, 2)
            hi = lo + rng.uniform(0.05, 0.4, 2)
            hi = np.minimum(hi, spec.domain.upper)
            box = BoxDomain(lo, hi)
            p = measure_of(m, box)
            emp = float(np.mean(np.all((z >= lo) & (z <= hi), axis=1)))
            se = math.sqrt(max(p * (1 - p), 1e-12) / b.count)
            assert abs(emp - p) <= 5 * se + 1e-9

class TestEmpiricalLimits:
    def test_ks_statistic_basics(self):
        from scipy.special import ndtr

        rng = np.random.default_rng(0)
        z = rng.standard_normal(10_000)
        d = ks_statistic(z, ndtr)
        assert d <= 0.02
        d_bad = ks_statistic(z + 1.0, ndtr)
        assert d_bad > 0.3

    def test_self_test_exact_sampler(self):
        # the null distribution: sqrt(n) KS within the 99% quantile
        from scipy.special import ndtr

        rng = np.random.default_rng(2024)
        n = 100_000
        z = rng.standard_normal(n)
        d = ks_statistic(z, ndtr)
        assert d * math.sqrt(n) <= 1.63

    def test_gauss1d_whitened_normal(self, specs, consts_cache):
        spec = specs["gauss1d"]
        m = gibbs_measure(spec, 400)
        b = sample(m, 100_000, seed=5, consts=consts_cache("gauss1d"))
        out = empirical_limit_test(b)
        assert out["max_ks"] <= 0.02

    def test_exp1d_exponential_marginal(self, specs, consts_cache):
        spec = specs["exp1d"]
        m = gibbs_measure(spec, 400)
        b = sample(m, 100_000, seed=5, consts=consts_cache("exp1d"))
        out = empirical_limit_test(b)
        assert out["marginals"][0]["law"] == "exponential"
        assert out["max_ks"] <= 0.02

    def test_fluctuation_transform_shapes(self, specs, consts_cache):
        spec = specs["mixed2d"]
        m = gibbs_measure(spec, 100)
        b = sample(m, 1000, seed=1, consts=consts_cache("mixed2d"))
        y = transform_to_fluctuations(b)
        assert y.shape == (1000, 2)
        assert np.all(y[:, 0] >= 0.0)  # inward scaling is nonnegative

    def test_insufficient_sample(self, specs, consts_cache):
        spec = specs["gauss1d"]
        m = gibbs_measure(spec, 100)
        b = sample(m, 50, seed=1, consts=consts_cache("gauss1d"))
        with pytest.raises(InsufficientSampleError):
            empirical_limit_test(b)


class TestUpperFace:
    """The mirror of exp1d, f = x - 1 on [0, 1]: a boundary maximum on the
    upper face, so the inward sign is -1.  Its integral, its fluctuation
    MGF and its fluctuation law are exp1d's."""

    N_SWEEP = (100, 400)

    @pytest.fixture(scope="class")
    def mirror(self):
        return problem_from_config({
            "name": "exp1d_mirror",
            "domain": {"lower": [0.0], "upper": [1.0]},
            "f": {"type": "polynomial", "terms": [
                {"coeff": 1.0, "powers": [1]}, {"coeff": -1.0, "powers": [0]},
            ]},
        })

    def test_limit_axes(self, mirror, specs):
        assert limit_axes(mirror) == (0, [], -1.0)
        assert limit_axes(specs["exp1d"]) == (0, [], 1.0)
        assert limit_axes(specs["gauss3d"]) == (None, [0, 1, 2], 1.0)

    def test_oracle_and_enclosure(self, mirror):
        consts = estimate_constants(mirror, n_sweep=self.N_SWEEP)
        for n in self.N_SWEEP:
            exact = -math.expm1(-n) / n
            assert integrate(mirror, n, tol=1e-12).value == pytest.approx(exact, rel=1e-12)
            assert approximate(mirror, consts, n).contains(exact)

    def test_mgf_y_matches_exp1d(self, mirror, specs):
        for n in self.N_SWEEP:
            rep = mgf_Y(gibbs_measure(mirror, n), [0.5])
            ref = mgf_Y(gibbs_measure(specs["exp1d"], n), [0.5])
            assert rep.limit_prediction == 2.0
            assert abs(rep.mgf_value - 2.0) <= 1e-12
            assert abs(rep.mgf_value - ref.mgf_value) <= 1e-12

    def test_fluctuations_are_inward(self, mirror):
        consts = estimate_constants(mirror, n_sweep=self.N_SWEEP)
        batch = sample(gibbs_measure(mirror, 400), 100_000, seed=0, consts=consts)
        Y = transform_to_fluctuations(batch)
        assert Y.shape == (100_000, 1)
        assert np.all(Y >= 0.0)
        assert abs(float(np.mean(Y)) - 1.0) <= 4.0 / math.sqrt(batch.count)


# ---------------------------------------------------------------------------
# the KS gate against the finite-N law, and the sampler's envelope
# ---------------------------------------------------------------------------

def _poly(*terms):
    return {"type": "polynomial", "terms": [{"coeff": c, "powers": list(p)} for c, p in terms]}


def _inline(name, lower, upper, f):
    return {
        "name": name,
        "domain": {"lower": lower, "upper": upper},
        "f": f,
        "g": {"type": "exponential", "linear": [0.3, -0.2]},
        "sigma": _poly((1.0, (1, 0))),
        "epsilon": {"class": "power", "exponent": -0.75},
    }


# the benchmark's inline problems: a tilted quadratic, a cubic and a boundary maximum
INLINE = {
    "quad2d": _inline("quad2d", [-1.0, -1.0], [1.0, 1.0],
                      _poly((-0.5, (2, 0)), (-1.0, (0, 2)), (0.1, (1, 1)))),
    "cub2d": _inline("cub2d", [-1.0, -1.0], [1.0, 1.0],
                     _poly((-0.5, (2, 0)), (-1.0, (0, 2)), (0.2, (3, 0)), (0.1, (1, 1)))),
    "bnd2d": _inline("bnd2d", [0.0, -1.0], [1.0, 1.0],
                     _poly((-1.0, (1, 0)), (-0.3, (2, 0)), (-0.5, (0, 2)))),
}


def _scaled(batch, factor):
    """The batch with its draws scaled by ``factor`` about x*(N)."""
    spec = batch.spec
    z_n = spec.z_star_of_N(batch.N)
    z = z_n + factor * (spec.domain.to_box(batch.draws) - z_n)
    return dataclasses.replace(batch, draws=spec.domain.to_ambient(z))


class TestFiniteNLaw:
    @pytest.mark.parametrize("name, law", [
        ("gauss1d", "normal"), ("drift1d", "normal"), ("exp1d", "exponential"),
    ])
    def test_draws_scaled_by_1_1_fail(self, specs, consts_cache, name, law):
        # true KS distance 0.023 (normal) and 0.035 (exponential)
        spec = specs[name]
        b = sample(gibbs_measure(spec, 1600), 100_000, seed=1, consts=consts_cache(name))
        assert empirical_limit_test(b)["max_ks"] <= 0.02
        bad = empirical_limit_test(_scaled(b, 1.1))
        assert bad["marginals"][0]["law"] == law
        assert bad["max_ks"] > 0.02

    @pytest.mark.parametrize("name", ["gauss1d", "exp1d", "mixed2d"])
    def test_draws_scaled_by_1_25_fail(self, specs, consts_cache, name):
        # true KS distance 0.054 for a normal marginal
        spec = specs[name]
        b = sample(gibbs_measure(spec, 1600), 20_000, seed=1, consts=consts_cache(name))
        assert empirical_limit_test(_scaled(b, 1.25))["max_ks"] > 0.02

    @pytest.mark.parametrize("c", [1e-4, 0.05, 1.0, 30.0])
    def test_exponential_axis_cdf(self, c):
        from scipy.integrate import quad

        from certlap.gibbs import _exp_gauss_cdf

        def density(v):
            return math.exp(-v - c * v * v)

        total = quad(density, 0.0, math.inf)[0]
        for u in (0.0, 0.1, 0.7, 2.0, 6.0):
            ref = quad(density, 0.0, u)[0] / total
            assert _exp_gauss_cdf(np.array([u]), c)[0] == pytest.approx(ref, abs=1e-12)
        assert _exp_gauss_cdf(np.array([-1.0, 1.0]), 0.0).tolist() == [0.0, -math.expm1(-1.0)]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("problem", ["drift1d", "eps1d", INLINE["bnd2d"]],
                             ids=["drift1d", "eps1d", "bnd2d"])
    def test_drifting_and_boundary_problems_pass(self, problem, seed):
        from certlap.cli import run_checks
        from certlap.config import RunConfig

        cfg = RunConfig(problem=problem, checks=("fluctuations", "sampler"),
                        sample_count=20_000, seed=seed)
        status, report = run_checks(cfg)
        assert report["checks"]["fluctuations"]["ks_all_ok"]
        assert report["checks"]["sampler"]["ok"]
        assert status == 0

    def test_viol1d_still_exits_3(self, tmp_path):
        from certlap.cli import main

        code = main(["run", "--problem", "viol1d", "--sample-count", "20000",
                     "--checks", "fluctuations,preposition1", "--output-path", str(tmp_path)])
        assert code == 3


class TestEnvelope:
    SAMPLE_GRID = {1: 2001, 2: 201, 3: 41}

    @pytest.mark.parametrize("name", [s.name for s in catalog()] + list(INLINE))
    def test_dominates_and_accepts(self, name, specs, consts_cache):
        """log target - log envelope <= 1e-9 on a grid over the domain,
        faces included, and acceptance >= 5%, at every sweep N."""
        from certlap.gibbs import _Envelope

        if name in INLINE:
            spec = problem_from_config(INLINE[name])
            consts = estimate_constants(spec, n_sweep=SWEEP)
        else:
            spec, consts = specs[name], consts_cache(name)
        pts = spec.domain.grid_points(self.SAMPLE_GRID[spec.dimension])
        for n in SWEEP:
            env = _Envelope(spec, consts, n)
            gap = n * (env.f_n.evaluate(pts) - env.f_star) - env.log_envelope(pts)
            assert float(np.max(gap)) <= 1e-9
            batch = sample(gibbs_measure(spec, n), 2000, seed=1, consts=consts)
            assert batch.acceptance_rate >= 0.05

    @pytest.mark.parametrize("problem", ["cubic1d", INLINE["cub2d"]], ids=["cubic1d", "cub2d"])
    def test_curved_problems_complete(self, problem):
        from certlap.cli import run_checks
        from certlap.config import RunConfig

        cfg = RunConfig(problem=problem, checks=("fluctuations", "sampler"),
                        sample_count=20_000, seed=1)
        _, report = run_checks(cfg)
        assert all(r["acceptance_rate"] >= 0.05 for r in report["checks"]["fluctuations"]["rows"])
        assert report["checks"]["sampler"]["ok"]

    def test_fewer_proposal_blocks(self, monkeypatch):
        """A full-check gauss1d run draws one block per N (101 before the
        blocks were sized from the predicted acceptance)."""
        import certlap.gibbs
        from certlap.cli import run_checks
        from certlap.config import KNOWN_CHECKS, RunConfig

        blocks = []
        real = certlap.gibbs._Envelope.propose

        def counting(env, rng, k):
            blocks.append(k)
            return real(env, rng, k)

        monkeypatch.setattr(certlap.gibbs._Envelope, "propose", counting)
        status, _ = run_checks(RunConfig(problem="gauss1d", checks=KNOWN_CHECKS,
                                         sample_count=20_000, seed=1))
        assert status == 0
        assert len(blocks) == 4

    def test_low_predicted_acceptance_raises_before_drawing(self, specs, consts_cache, monkeypatch):
        import certlap.gibbs

        spec = specs["gauss1d"]
        loose = dataclasses.replace(consts_cache("gauss1d"), F2_prime=1e-9)
        monkeypatch.setattr(certlap.gibbs._Envelope, "propose",
                            lambda *a: pytest.fail("drew from a failing envelope"))
        with pytest.raises(EnvelopeFailureError, match=r"predicted acceptance .* N=100"):
            sample(gibbs_measure(spec, 100), 1000, seed=1, consts=loose)


def _mp_reference(fn, xs):
    """fn at each float of xs, in mpmath at 40 digits, rounded to float."""
    import mpmath

    with mpmath.workdps(40):
        return np.array([float(fn(mpmath.mpf(float(x)))) for x in xs])


def _with_neighbours(*points):
    return [q for p in points for q in (np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf))]


class TestSpecialFunctions:
    """The numpy erfcx and normal CDF against mpmath at 40 digits; joints of
    Cody's ranges are tested with their float neighbours."""

    def test_erfcx_relative(self):
        import mpmath

        from certlap.gibbs import _erfcx

        x = np.concatenate([
            np.linspace(0.0, 10.0, 1001), np.geomspace(1e-12, 1e3, 600),
            _with_neighbours(0.46875, 4.0), [0.0, 1e3],
        ])
        ref = _mp_reference(lambda v: mpmath.exp(v * v) * mpmath.erfc(v), x)
        assert np.max(np.abs(_erfcx(x) - ref) / ref) <= 2e-15
        assert _erfcx(0.0).tolist() == [1.0]

    def test_ndtr_absolute_and_relative(self):
        import mpmath

        from certlap.gibbs import _ndtr

        joint = 0.46875 * math.sqrt(2.0)
        z = np.concatenate([
            np.linspace(-40.0, 10.0, 2001), np.linspace(-8.0, 8.0, 1601),
            _with_neighbours(-joint, joint, -4.0 * math.sqrt(2.0)),
        ])
        ref = _mp_reference(mpmath.ncdf, z)
        got = _ndtr(z)
        assert np.max(np.abs(got - ref)) <= 2e-16
        inner = np.abs(z) <= 8.0
        assert np.max(np.abs(got - ref)[inner] / ref[inner]) <= 2e-14
        assert _ndtr(np.array([0.0, -np.inf, np.inf])).tolist() == [0.5, 0.0, 1.0]

    @pytest.mark.parametrize("c", [1e-4, 0.1, 3.0])
    def test_exp_gauss_cdf_against_quadrature(self, c):
        import mpmath

        from certlap.gibbs import _exp_gauss_cdf

        u = np.array([0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0])
        with mpmath.workdps(40):
            def density(v):
                return mpmath.exp(-v - c * v * v)

            total = mpmath.quad(density, [0, mpmath.inf])
            ref = np.array([float(mpmath.quad(density, [0, mpmath.mpf(x)]) / total) for x in u])
        assert np.max(np.abs(_exp_gauss_cdf(u, c) - ref)) <= 1e-15


def _spec_and_consts(name, specs, consts_cache):
    if name in INLINE:
        spec = problem_from_config(INLINE[name])
        return spec, estimate_constants(spec, n_sweep=SWEEP)
    return specs[name], consts_cache(name)


def _core_picks(env, rng, k):
    """Which of the k rows of ``env.propose(rng, k)`` the core draws: its
    component picks, the first k uniforms of a copy of ``rng``, below the
    core's share of the mass."""
    return copy.deepcopy(rng).random(k) < env.cum[0]


def _assert_reads(env, z, log_e, core):
    """``propose``'s log E' at its draws ``z`` is ``log_envelope``'s, read
    by position, at every draw that is read (a cell draw, or a core draw in
    nb), and -inf at every core draw off nb, which is rejected unread."""
    nb = env.nb
    in_nb = np.all((z >= nb.lower) & (z <= nb.upper), axis=1)
    read = ~core | in_nb
    assert log_e.shape == (len(z),)
    assert np.array_equal(log_e[read], env.log_envelope(z)[read])
    assert np.all(log_e[~read] == -np.inf)


class TestLabelledEnvelope:
    """The piecewise envelope: the core on the closed neighborhood, one
    constant per complement cell, each proposal read against the piece that
    drew it."""

    @pytest.mark.parametrize("name, N", [("gauss1d", 25), ("cub2d", 25), ("bnd2d", 100)])
    def test_sampler_vs_oracle_across_faces(self, name, N, specs, consts_cache):
        """Box frequencies against the oracle on boxes that straddle the
        neighborhood's faces, where a draw is accepted against a cell on one
        side and against the core on the other."""
        spec, consts = _spec_and_consts(name, specs, consts_cache)
        box, nb = spec.domain, spec.maximum.neighborhood
        m = gibbs_measure(spec, N, tol=1e-10)
        b = sample(m, 50_000, seed=3, consts=consts)
        rng = np.random.default_rng(12)
        faces = [(i, f) for i in range(box.dimension) for f in (nb.lower[i], nb.upper[i])
                 if box.lower[i] < f < box.upper[i]]
        assert faces
        for i, f in faces * 3:
            lo = rng.uniform(box.lower, spec.z_star)
            hi = rng.uniform(spec.z_star, box.upper)
            lo[i] = max(box.lower[i], f - rng.uniform(0.05, 0.3))
            hi[i] = min(box.upper[i], f + rng.uniform(0.05, 0.3))
            p = measure_of(m, BoxDomain(lo, hi))
            emp = float(np.mean(np.all((b.draws >= lo) & (b.draws <= hi), axis=1)))
            se = math.sqrt(max(p * (1 - p), 1e-12) / b.count)
            assert abs(emp - p) <= 5 * se + 1e-9

    @pytest.mark.parametrize("name", ["gauss1d", "cubic1d", "cub2d", "bnd2d"])
    def test_labels_agree_with_positions(self, name, specs, consts_cache):
        """The log E' that ``propose`` reads at each draw, against the piece
        that drew it, is the envelope read by position, on a block with
        both cell draws and core draws in nb."""
        from certlap.gibbs import _Envelope

        spec, consts = _spec_and_consts(name, specs, consts_cache)
        nb = spec.maximum.neighborhood
        env = _Envelope(spec, consts, 25)
        core = _core_picks(env, np.random.default_rng(5), 20_000)
        z, log_e = env.propose(np.random.default_rng(5), 20_000)
        in_nb = np.all((z >= nb.lower) & (z <= nb.upper), axis=1)
        assert np.any(~core) and np.any(core & in_nb)
        _assert_reads(env, z, log_e, core)

    @pytest.mark.parametrize("name", ["gauss3d", "boundary3d"])
    def test_no_field_work_without_complement_cells(self, name, specs, consts_cache, monkeypatch):
        """Where the neighborhood covers the domain the envelope evaluates f
        only at x*(N), for f_N*, and takes no gradient."""
        import certlap.gibbs

        spec, consts = specs[name], consts_cache(name)
        evaluated = []
        real = ScalarField.evaluate
        monkeypatch.setattr(ScalarField, "evaluate",
                            lambda f, pts: evaluated.append(np.shape(pts)) or real(f, pts))
        monkeypatch.setattr(certlap.gibbs, "gradients_on",
                            lambda *a: pytest.fail("gradients taken without complement cells"))
        for n in SWEEP:
            env = certlap.gibbs._Envelope(spec, consts, n)
            assert len(env.log_top) == 0 and env.log_m_cells == -math.inf
        assert evaluated == [(spec.dimension,)] * len(SWEEP)

    def test_only_complement_corners_are_read(self, specs, consts_cache, monkeypatch):
        import certlap.gibbs

        evaluated = []
        real = certlap.gibbs.gradients_on
        monkeypatch.setattr(certlap.gibbs, "gradients_on",
                            lambda f, pts, *a: evaluated.append(len(pts)) or real(f, pts, *a))
        env = certlap.gibbs._Envelope(specs["gauss1d"], consts_cache("gauss1d"), 25)
        n_out = len(env.log_top)
        # two runs of complement cells, one beyond each face
        assert evaluated == [n_out + 2] and n_out + 2 < len(env.breaks[0])

    def test_block_sizing_wastes_few_proposals(self, specs, consts_cache):
        b = sample(gibbs_measure(specs["gauss1d"], 100), 20_000, seed=1,
                   consts=consts_cache("gauss1d"))
        assert b.acceptance_rate >= 0.9

    def test_guard_covers_cell_draws(self, specs, consts_cache, monkeypatch):
        """Cell constants lowered by 2 (in log) no longer dominate: the
        exceedance guard must see it at a cell draw."""
        import certlap.gibbs

        real = certlap.gibbs._Envelope.__init__

        def lowered(env, *a):
            real(env, *a)
            env.log_top = env.log_top - 2.0

        monkeypatch.setattr(certlap.gibbs._Envelope, "__init__", lowered)
        with pytest.raises(EnvelopeFailureError, match="exceeded"):
            sample(gibbs_measure(specs["gauss1d"], 25), 20_000, seed=1,
                   consts=consts_cache("gauss1d"))


def _full_grid_cells(spec, consts, N):
    """The complement cells, their constants and the component masses built
    on the full cell grid: every cell's lower corner and width by meshgrid,
    the complement told by the midpoints, and each complement cell's corner
    values read through one padded full-grid mask per corner.  The reference
    for ``_Envelope``'s per-axis construction."""
    from certlap.gibbs import _CELLS, _Envelope, _cell_breaks
    from certlap.derivatives import gradients_on

    env = _Envelope(spec, consts, N)
    box, nb, m = spec.domain, spec.maximum.neighborhood, spec.dimension
    n = round(_CELLS ** (1.0 / m))
    breaks = [_cell_breaks(*b, n) for b in zip(box.lower, nb.lower, nb.upper, box.upper)]
    shape = tuple(len(b) - 1 for b in breaks)
    lower, width = (
        np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
        for axes in ([b[:-1] for b in breaks], [np.diff(b) for b in breaks])
    )
    mid = lower + 0.5 * width
    out = ~np.all((mid > nb.lower) & (mid < nb.upper), axis=1)
    log_top = np.empty(0)
    if np.any(out):
        corners = [tuple(map(slice, c, np.add(c, shape))) for c in np.ndindex((2,) * m)]
        read = np.any([np.pad(out.reshape(shape), [(c, 1 - c) for c in corner])
                       for corner in np.ndindex((2,) * m)], axis=0)
        nodes = np.stack(np.meshgrid(*breaks, indexing="ij"), axis=-1)[read]
        vals = np.full(read.shape, -math.inf)
        vals[read] = env.f_n.evaluate(nodes) - env.f_star
        lip = consts.safety_factor * float(np.max(np.linalg.norm(
            gradients_on(env.f_n, nodes), axis=-1)))
        top = np.max([vals[s] for s in corners], axis=0).ravel()[out]
        log_top = N * (top + lip * 0.5 * np.linalg.norm(width[out], axis=1))
    log_m_cells = log_top + np.sum(np.log(width[out]), axis=1)
    log_m = float(np.logaddexp(env.log_m_core,
                               np.logaddexp.reduce(log_m_cells, initial=-math.inf)))
    cum = np.cumsum(np.exp(np.append(env.log_m_core, log_m_cells) - log_m))
    return env, {"cell_lower": lower[out], "cell_width": width[out], "log_top": log_top,
                 "cum": cum}


class TestEnvelopeConstruction:
    @pytest.mark.parametrize("N", [25, 1600])
    @pytest.mark.parametrize("name", ["cub2d", "cubic1d", "bnd2d", "gauss3d"])
    def test_matches_the_full_grid_construction(self, name, N, specs, consts_cache):
        spec, consts = _spec_and_consts(name, specs, consts_cache)
        env, ref = _full_grid_cells(spec, consts, N)
        assert (len(ref["log_top"]) == 0) == (name == "gauss3d")
        for key, want in ref.items():
            got = getattr(env, key)
            assert got.shape == want.shape and np.array_equal(got, want), key

    def test_core_draws_without_cells(self, specs, consts_cache):
        """With no complement cells every proposal is z_n + normal / sqrt(prec),
        drawn after the k component picks of the same stream, and each is
        read against the core alone: the core density in nb, -inf off it."""
        from certlap.gibbs import _Envelope

        env = _Envelope(specs["gauss3d"], consts_cache("gauss3d"), 100)
        z, log_e = env.propose(np.random.default_rng(7), 5000)
        rng = np.random.default_rng(7)
        rng.uniform(size=5000)
        assert np.array_equal(z, env.z_n + rng.standard_normal(size=(5000, 3)) / math.sqrt(env.prec))
        assert np.array_equal(log_e, env._log_core(z))
        _assert_reads(env, z, log_e, np.ones(5000, dtype=bool))


class TestEnvelopeGeometry:
    """The cells are built once per domain and neighborhood and shared by
    every N; the draws follow the documented stream order whether or not a
    pick lands in a cell."""

    @pytest.mark.parametrize("name, N, in_cells", [
        ("cub2d", 1600, False), ("cub2d", 25, True), ("bnd2d", 1600, False), ("bnd2d", 25, True),
    ])
    def test_draws_follow_the_stream_order(self, name, N, in_cells, specs, consts_cache):
        """The picks, the in-cell uniforms, the exponentials, then the
        normals, each core draw built as x*(N) plus its offsets: the normals
        over sqrt(prec), or U^-1 times them on cub2d's matrix core."""
        from certlap.gibbs import _Envelope

        spec, consts = _spec_and_consts(name, specs, consts_cache)
        m, k = spec.dimension, 5000
        env = _Envelope(spec, consts, N)
        z, log_e = env.propose(np.random.default_rng(7), k)

        rng = np.random.default_rng(7)
        pick = rng.uniform(size=k)
        drawn = pick >= env.cum[0]
        assert len(env.log_top) and drawn.any() == in_cells
        c = np.minimum(np.searchsorted(env.cum[1:], pick[drawn], side="right"), len(env.cum) - 2)
        want = np.empty((k, m))
        want[drawn] = env.cell_lower[c] + env.cell_width[c] * rng.uniform(size=(len(c), m))
        core = np.empty((k - len(c), m))
        core[:] = env.z_n
        if env.axis is not None:
            core[:, env.axis] += env.sign * rng.exponential(1.0 / env.rate, size=len(core))
        normal = rng.standard_normal(size=(len(core), len(env.gauss)))
        assert (env.root is not None) == (name == "cub2d")
        if env.root is None:
            core[:, env.gauss] += normal / math.sqrt(env.prec)
        else:
            core[:, env.gauss] += normal @ np.linalg.inv(env.root).T
        want[~drawn] = core
        assert np.array_equal(z, want)
        if in_cells:
            assert np.array_equal(log_e[drawn], env.log_top[c])
        _assert_reads(env, z, log_e, ~drawn)

    def test_geometry_is_shared_across_n(self, specs, consts_cache):
        from certlap.gibbs import _Envelope

        spec, consts = _spec_and_consts("cub2d", specs, consts_cache)
        first = _Envelope(spec, consts, 25)
        assert _Envelope(spec, consts, 1600).geometry is first.geometry
        assert not first.cell_lower.flags.writeable

        nb = spec.maximum.neighborhood
        narrow = dataclasses.replace(spec, maximum=dataclasses.replace(
            spec.maximum, neighborhood=BoxDomain(nb.lower / 2.0, nb.upper / 2.0)))
        other = _Envelope(narrow, consts, 25)
        assert other.geometry is not first.geometry
        assert len(other.cell_lower) > len(first.cell_lower)
        again = _Envelope(spec, consts, 25)
        for key in ("cell_lower", "cell_width", "log_top", "cum"):
            assert np.array_equal(getattr(again, key), getattr(first, key)), key


class TestInPlaceSpecialFunctions:
    @pytest.mark.parametrize("c", [0.0, 1e-3, 0.3])
    def test_exp_gauss_cdf_matches_the_out_of_place_form(self, c):
        from certlap.gibbs import _erfcx, _exp_gauss_cdf

        rng = np.random.default_rng(11)
        u = np.concatenate([rng.exponential(2.0, 19_000), rng.uniform(-3.0, 0.0, 500),
                            np.geomspace(1.0, 1e6, 500)])
        v = np.maximum(u, 0.0)
        if c <= 0.0:
            want = -np.expm1(-v)
        else:
            r = math.sqrt(c)
            w0 = 0.5 / r
            want = 1.0 - np.exp(-v - c * v * v) * _erfcx(r * v + w0) / _erfcx(w0)
        given = u.copy()
        assert np.array_equal(_exp_gauss_cdf(u, c), want)
        assert np.array_equal(u, given)

    def test_one_sided_ranges_match_the_split(self):
        """Values that all fall on one side of a joint are read in place;
        each must equal its value in a batch split across the joint."""
        from certlap.gibbs import _erfcx, _ndtr

        rng = np.random.default_rng(4)
        across = [0.1, 2.0, 10.0]  # on every side of every joint
        for x in (rng.uniform(0.0, 0.4, 1000), rng.uniform(6.0, 30.0, 1000)):
            split = np.append(x, across)
            assert np.array_equal(_erfcx(x), _erfcx(split)[:len(x)])
            assert np.array_equal(_ndtr(-x), _ndtr(-split)[:len(x)])


class TestAcceptedDrawsToKs:
    """The path from accepted draws to the KS verdict: the draws gathered by
    index, the whitening as one small product and the special functions on
    sorted input give the same values as the masks, the solve and unsorted
    input."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_whiten_matches_the_solve(self, m):
        from certlap.gibbs import _whiten

        rng = np.random.default_rng(m)
        Y = rng.standard_normal((20_000, m))
        for _ in range(5):
            A = rng.standard_normal((m, m))
            K = A @ A.T + 0.5 * np.eye(m)
            L = np.linalg.cholesky(np.linalg.inv(K))
            assert np.max(np.abs(_whiten(Y, K) - np.linalg.solve(L, Y.T).T)) <= 1e-13
        K = np.diag(rng.uniform(0.2, 5.0, m))
        L = np.linalg.cholesky(np.linalg.inv(K))
        assert np.array_equal(_whiten(Y, K), np.linalg.solve(L, Y.T).T)

    def test_special_functions_ignore_input_order(self):
        """Sorted input is split into slices, shuffled input by masks; each
        value comes out bitwise the same."""
        from certlap.gibbs import _erfcx, _exp_gauss_cdf, _ndtr

        rng = np.random.default_rng(5)
        joint = 0.46875 * math.sqrt(2.0)
        z = np.sort(np.concatenate([
            3.0 * rng.standard_normal(20_000), rng.uniform(-12.0, 12.0, 500),
            _with_neighbours(-joint, joint, -4.0 * math.sqrt(2.0), 4.0 * math.sqrt(2.0)),
        ]))
        u = np.sort(np.concatenate([rng.exponential(2.0, 20_000), np.geomspace(1e-6, 1e3, 200),
                                    _with_neighbours(0.46875, 4.0)]))
        cases = [(_ndtr, z), (_erfcx, np.abs(z)), (_erfcx, u)]
        cases += [(lambda v, c=c: _exp_gauss_cdf(v, c), u) for c in (0.0, 1e-3, 0.3)]
        for fn, x in cases:
            perm = rng.permutation(len(x))
            assert np.array_equal(fn(x)[perm], fn(x[perm]))

    @pytest.mark.parametrize("name, count", [("gauss3d", 20_000), ("boundary3d", 20_000),
                                             ("cubic1d", 150_000)])
    def test_draws_match_the_mask_selection(self, name, count, specs, consts_cache):
        """sample against the same rejection loop that selects with boolean
        row masks and slices the joined blocks; cubic1d's count needs more
        than one block."""
        import hashlib

        from certlap.gibbs import _BLOCK, _Envelope

        def digest(a):
            return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

        spec, consts = specs[name], consts_cache(name)
        for N in (25, 1600):
            measure = gibbs_measure(spec, N)
            for seed in (1, 2):
                env = _Envelope(spec, consts, N)
                p_hat = math.exp(min(0.0, measure.log_normalizer - N * env.f_star - env.log_m))
                rng = np.random.default_rng([seed, 0])
                got, n_have, proposed, blocks = [], 0, 0, 0
                while (need := count - n_have) > 0:
                    k = min(_BLOCK, math.ceil(
                        (need + 4.0 * math.sqrt(need * (1.0 - p_hat)) + 1.0) / p_hat))
                    core = _core_picks(env, rng, k)
                    z, log_e = env.propose(rng, k)
                    _assert_reads(env, z, log_e, core)
                    u = rng.uniform(size=k)
                    read = log_e > -np.inf
                    z, u, log_e = z[read], u[read], log_e[read]
                    log_ratio = N * (env.f_n.evaluate(z) - env.f_star) - log_e
                    sel = z[np.log(u) <= log_ratio]
                    got.append(sel)
                    n_have += len(sel)
                    proposed += k
                    blocks += 1
                want = np.concatenate(got)[:count] @ spec.domain.rotation.T
                batch = sample(measure, count, seed=seed, consts=consts)
                assert digest(batch.draws) == digest(want)
                assert batch.proposed == proposed
                assert blocks > 1 or name != "cubic1d"


def _masked_proposals(env, seed, k, draw_core):
    """The proposals of ``_Envelope.propose`` built with boolean row masks,
    every label -1 for a core draw: the picks, the in-cell uniforms, then
    ``draw_core(rng, n)``, the n core rows."""
    rng = np.random.default_rng(seed)
    m = len(env.z_n)
    pick = rng.random(k)
    out = np.empty((k, m))
    cell = np.full(k, -1)
    cells = pick >= env.cum[0]
    c = cell[cells] = np.minimum(
        np.searchsorted(env.cum[1:], pick[cells], side="right"), len(env.cum) - 2)
    out[cells] = env.cell_lower[c] + env.cell_width[c] * rng.random((len(c), m))
    out[~cells] = draw_core(rng, k - len(c))
    return out, cell


def _f2_prime_core(env, prec):
    """Core rows by the F2' rule: x*(N) plus sign times the exponential
    draws on the exponential axis and the normals over sqrt(prec) on the
    Gaussian axes."""
    def draw(rng, n):
        core = np.empty((n, len(env.z_n)))
        core[:] = env.z_n
        if env.axis is not None:
            core[:, env.axis] += env.sign * rng.exponential(1.0 / env.rate, size=n)
        core[:, env.gauss] += rng.standard_normal((n, len(env.gauss))) / math.sqrt(prec)
        return core

    return draw


@st.composite
def _coupled_cubics(draw):
    """A 2-D or 3-D inline problem on [-1, 1]^m: -a_i x_i^2 + c_i x_i^3 on
    each axis, b x_i x_j and e x_i^2 x_j on each coupled pair, with
    sigma = x_1 and epsilon = N^-0.75.  Every pair is coupled, or in 3-D
    the third axis may be left a block of its own, so that the core is
    N P on the first two axes and N F2' on the third.  The ranges keep
    the Hessian diagonally dominant and negative on the classified
    neighborhood [-1/2, 1/2]^m, and K - diag Delta positive definite."""
    m = draw(st.sampled_from([2, 3]))
    pairs = list(itertools.combinations(range(m), 2))
    if m == 3 and draw(st.booleans()):
        pairs = [(0, 1)]
    coef = functools.partial(st.floats, allow_nan=False, allow_infinity=False)

    def unit(*axes):
        powers = [0] * m
        for i in axes:
            powers[i] += 1
        return tuple(powers)

    terms = []
    for i in range(m):
        terms += [(-draw(coef(0.75, 1.5)), unit(i, i)), (draw(coef(-0.2, 0.2)), unit(i, i, i))]
    for i, j in pairs:
        b = draw(coef(0.02, 0.2)) * draw(st.sampled_from([-1.0, 1.0]))  # nonzero: coupled
        terms += [(b, unit(i, j)), (draw(coef(-0.1, 0.1)), unit(i, i, j))]
    return {
        "name": f"coupled{m}d",
        "domain": {"lower": [-1.0] * m, "upper": [1.0] * m},
        "f": _poly(*terms),
        "sigma": _poly((1.0, unit(0))),
        "epsilon": {"class": "power", "exponent": -0.75},
        "classify_grid_res": 16,
    }


class TestMatrixCore:
    """The core's precision N P on a coupling block of several Gaussian
    axes, P = (K - diag Delta) / safety factor from the local curvature and
    the Gershgorin row bounds Delta; N F2' on blocks of one axis."""

    @settings(max_examples=40, deadline=None)
    @given(_coupled_cubics(), st.sampled_from([1.0, 1.1]), st.integers(0, 2**32 - 1))
    def test_core_dominates_on_coupled_cubics(self, cfg, safety, seed):
        """N (f_N - f_N*) - log core <= 1e-9 at random neighborhood points.
        f is cubic, so D is linear and each row bound is convex: its largest
        value on the neighborhood is at a corner, a grid node, and the bound
        holds with no safety factor."""
        from certlap.gibbs import _Envelope

        spec = problem_from_config(cfg)
        consts = estimate_constants(spec, grid_res=16, n_sweep=(25, 400, 1600),
                                    safety_factor=safety)
        nb = spec.maximum.neighborhood
        pts = np.random.default_rng(seed).uniform(nb.lower, nb.upper, (2000, spec.dimension))
        for n in (25, 400, 1600):
            env = _Envelope(spec, consts, n)
            assert env.root is not None
            gap = n * (env.f_n.evaluate(pts) - env.f_star) - env._log_core(pts)
            assert float(np.max(gap)) <= 1e-9

    @pytest.mark.parametrize("N", [25, 100, 400])
    def test_zero_row_bounds_are_caught(self, N, monkeypatch):
        """With Delta set to 0 the core is K / safety factor, which cub2d's
        cubic term exceeds: the exceedance guard must fire."""
        import certlap.gibbs

        spec = problem_from_config(INLINE["cub2d"])
        consts = estimate_constants(spec, n_sweep=SWEEP)
        monkeypatch.setattr(certlap.gibbs, "_row_bounds", lambda H, h: np.zeros(len(h)))
        with pytest.raises(EnvelopeFailureError, match="exceeded"):
            sample(gibbs_measure(spec, N), 20_000, seed=1, consts=consts)

    @pytest.mark.parametrize("name, floor", [("quad2d", 0.85), ("cub2d", 0.5)])
    def test_acceptance_floors(self, name, floor):
        spec = problem_from_config(INLINE[name])
        consts = estimate_constants(spec, n_sweep=SWEEP)
        for n in (100, 400, 1600):
            batch = sample(gibbs_measure(spec, n), 20_000, seed=1, consts=consts)
            assert batch.acceptance_rate >= floor, n

    @pytest.mark.parametrize("name", ["gauss3d", "iso2d", "boundary3d", "bnd2d", "cubic1d"])
    def test_one_axis_blocks_keep_the_f2_prime_core(self, name, specs, consts_cache, monkeypatch):
        """No Hessian grid is taken, prec is N F2', and the proposals are
        those of the F2' rule, bit for bit."""
        import certlap.gibbs
        from certlap.gibbs import _Envelope

        monkeypatch.setattr(certlap.gibbs, "_block_hessians",
                            lambda *a: pytest.fail("a Hessian grid on a one-axis block"))
        spec, consts = _spec_and_consts(name, specs, consts_cache)
        for n in (25, 1600):
            env = _Envelope(spec, consts, n)
            prec = n * consts.F2_prime if env.gauss else 1.0
            assert env.root is None and env.prec == prec
            z, log_e = env.propose(np.random.default_rng(3), 5000)
            want, want_cell = _masked_proposals(env, 3, 5000, _f2_prime_core(env, prec))
            assert np.array_equal(z, want)
            assert np.array_equal(log_e[want_cell >= 0], env.log_top[want_cell[want_cell >= 0]])
            _assert_reads(env, z, log_e, want_cell < 0)

    @pytest.mark.parametrize("name", ["cub2d", "bnd2d"])
    def test_mixed_blocks_match_the_mask_construction(self, name, specs, consts_cache):
        """A block whose picks reach a cell, gathered and scattered by
        index, against the boolean row masks: the same proposals and log E',
        each draw's read against the piece that drew it."""
        from certlap.gibbs import _Envelope

        spec, consts = _spec_and_consts(name, specs, consts_cache)
        env = _Envelope(spec, consts, 25)

        def draw_core(rng, n):
            core = np.empty((n, spec.dimension))
            env._draw_core(rng, core)
            return core

        z, log_e = env.propose(np.random.default_rng(9), 20_000)
        want, want_cell = _masked_proposals(env, 9, 20_000, draw_core)
        assert np.any(want_cell >= 0) and np.any(want_cell < 0)
        assert np.array_equal(z, want)
        core = want_cell < 0
        want_log_e = np.empty(len(want))
        want_log_e[core] = env._log_core(want[core])
        want_log_e[~core] = env.log_top[want_cell[~core]]
        assert np.array_equal(log_e, want_log_e)
        _assert_reads(env, z, log_e, core)

    def test_boundary_tangent_block(self):
        """A boundary maximum whose two tangent axes are coupled: the
        tangent block takes the matrix core, which with the inward rate
        dominates on a grid over the neighborhood (the domain) at every
        sweep N, and the draws match the oracle's box probabilities."""
        from certlap.gibbs import _Envelope

        box = {"lower": [0.0, -1.0, -1.0], "upper": [1.0, 1.0, 1.0]}
        spec = problem_from_config({
            "name": "bndcoupled3d",
            "domain": box,
            "neighborhood": box,
            "f": _poly((-1.0, (1, 0, 0)), (-0.5, (0, 2, 0)), (-1.0, (0, 0, 2)),
                       (0.3, (0, 1, 1)), (0.15, (0, 3, 0))),
            "sigma": _poly((0.2, (0, 1, 0))),
            "epsilon": {"class": "power", "exponent": -0.75},
            "classify_grid_res": 16,
        })
        consts = estimate_constants(spec, grid_res=32, n_sweep=SWEEP)
        pts = spec.domain.grid_points(40)
        for n in SWEEP:
            env = _Envelope(spec, consts, n)
            assert env.axis == 0 and env.root is not None
            gap = n * (env.f_n.evaluate(pts) - env.f_star) - env.log_envelope(pts)
            assert float(np.max(gap)) <= 1e-9
        m = gibbs_measure(spec, 100)
        b = sample(m, 20_000, seed=2, consts=consts)
        z_n = spec.z_star_of_N(100)
        for lo, hi in (([0.0, -1.0, -1.0], [0.01, z_n[1], 1.0]),
                       ([0.0, z_n[1] - 0.1, z_n[2] - 0.1], [1.0, z_n[1] + 0.05, z_n[2] + 0.1])):
            p = measure_of(m, BoxDomain(lo, hi))
            emp = float(np.mean(np.all((b.draws >= lo) & (b.draws <= hi), axis=1)))
            assert abs(emp - p) <= 5 * math.sqrt(p * (1 - p) / b.count)

    def test_hessian_grid_once_per_run(self, monkeypatch):
        """One Hessian grid per run where the curvature is the same at every
        N (quad2d, sigma = x), one per N where it is not (sigma = x^2), and
        none kept once the run's spec, which holds them, is gone."""
        import gc
        import weakref

        import certlap.gibbs
        from certlap.cli import run_checks
        from certlap.config import RunConfig

        calls, refs = [], []
        real = certlap.gibbs.hessians_on
        monkeypatch.setattr(certlap.gibbs, "hessians_on",
                            lambda f, pts: calls.append(len(pts)) or real(f, pts))
        real_blocks = certlap.gibbs._block_hessians

        def spy(spec, *args):
            grids = real_blocks(spec, *args)
            refs.extend(weakref.ref(x) for x in (spec, *grids))
            return grids

        monkeypatch.setattr(certlap.gibbs, "_block_hessians", spy)
        quadsig = dict(INLINE["quad2d"], name="quadsig2d", sigma=_poly((1.0, (2, 0))))
        for problem, grids in ((INLINE["quad2d"], 1), (quadsig, len(SWEEP))):
            calls.clear()
            refs.clear()
            status, _ = run_checks(RunConfig(problem=problem, checks=("fluctuations", "sampler"),
                                             sample_count=2000, seed=1))
            assert status == 0
            assert calls == [65 * 65] * grids
            gc.collect()
            assert refs and all(ref() is None for ref in refs)
