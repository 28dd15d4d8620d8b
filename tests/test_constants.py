import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certlap import (
    BOUNDARY,
    BoxDomain,
    INTERIOR,
    MaximumInfo,
    ProblemSpec,
    audit_constants,
    catalog,
    constant_field,
    estimate_constants,
    exponential_field,
    get_problem,
    polynomial_field,
)
import certlap.constants
from certlap.config import problem_from_config, strict_json
from certlap.errors import AssumptionViolationError, DefinitenessError, ToolkitError
from certlap.problems import UNIT_WEIGHT, EpsilonSchedule
from workloads_inline import INLINE

SWEEP = (25, 100, 400, 1600)


def with_neighborhood(spec, lower, upper):
    from dataclasses import replace

    nb = BoxDomain(lower, upper, spec.domain.rotation)
    return replace(spec, maximum=replace(spec.maximum, neighborhood=nb))


# ---------------------------------------------------------------------------
# the sweep against one single-N report or audit per N: a quantity the same
# at every N is taken once, the others at each N

# sigma = x^2 adds 2 eps(N) to d2f/dx2, so the curvature changes with N
QUAD_SIGMA = {
    "name": "quadsig2d",
    "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    "f": {"type": "polynomial", "terms": [
        {"coeff": -1.0, "powers": [2, 0]}, {"coeff": -0.5, "powers": [0, 2]},
        {"coeff": 0.1, "powers": [1, 1]}]},
    "sigma": {"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [2, 0]}]},
    "epsilon": {"class": "power", "exponent": -0.75},
}


def _n_problem(name):
    inline = dict(INLINE, quadsig2d=QUAD_SIGMA)
    return problem_from_config(inline[name]) if name in inline else get_problem(name)


# how a sweep's constants fold its N's: the safety factor scales monotonically,
# so folding after it gives the same bits
_FOLD = {"F2": max, "F3": max, "Lambda_det": max, "F2_prime": min, "F2_prime_Omega": min,
         "lambda_det": min, "F1_prime": min, "F1_prime_Omega": min}
# sigma affine (or absent) in all but quadsig2d; the varying constant under
# test: F2 changes with N only on quadsig2d, F1_prime on bnd2d
N_CASES = [("quad2d", "F2"), ("drift1d", "F2"), ("bnd2d", "F1_prime"), ("quadsig2d", "F2")]
DOWN = SWEEP[::-1]


def _per_n_reports(spec, n_sweep, **kw):
    """One report per N, each from a sweep of that N alone, and their fold
    into the report of the whole sweep."""
    reps = [dataclasses.asdict(estimate_constants(spec, n_sweep=(N,), **kw)) for N in n_sweep]
    ref = dict(reps[0], n_sweep=tuple(n_sweep))
    for key, fold in _FOLD.items():
        if ref[key] is not None:
            ref[key] = fold(r[key] for r in reps)
    return reps, ref


def _per_n_audit(spec, report):
    """The audit of the report's sweep from one audit per N."""
    per_n = [audit_constants(spec, dataclasses.replace(report, n_sweep=(N,)), seed=1)
             for N in report.n_sweep]
    return {
        "ok": all(a["ok"] for a in per_n),
        "failures": [f for a in per_n for f in a["failures"]],
        "n_points": 1000,
        "problem": spec.name,
    }


class TestStrictJson:
    def test_to_json_writes_null_for_infinity(self):
        # exp1d's empty tangent block leaves F2_prime infinite
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        rep = estimate_constants(get_problem("exp1d"), n_sweep=(100,))
        text = json.dumps(strict_json(dataclasses.asdict(rep)), allow_nan=False)
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

    @pytest.mark.parametrize("sweep", [SWEEP, DOWN], ids=["up", "down"])
    @pytest.mark.parametrize("name,varying", N_CASES)
    def test_sweep_is_the_fold_of_its_n(self, name, varying, sweep):
        # in a descending sweep the least F1_prime (at N = 25) comes last;
        # on quadsig2d the largest F2 comes last in an ascending one
        spec = _n_problem(name)
        reps, ref = _per_n_reports(spec, sweep, grid_res=32)
        assert dataclasses.asdict(estimate_constants(spec, grid_res=32, n_sweep=sweep)) == ref
        if name in ("bnd2d", "quadsig2d"):
            assert len({r[varying] for r in reps}) == len(sweep)

    def test_quadratic_sigma_changes_the_curvature(self):
        reps, _ = _per_n_reports(_n_problem("quadsig2d"), SWEEP, grid_res=32)
        F2 = [r["F2"] for r in reps]
        assert F2 == sorted(F2) and F2[0] < F2[-1]

    def test_definiteness_error(self):
        box = BoxDomain([-1.0], [1.0])
        spec = ProblemSpec(
            name="flat", domain=box,
            f_limit=polynomial_field([(-0.25, (4,))]),  # degenerate at 0
            g=constant_field(1.0),
            maximum=MaximumInfo(
                kind=INTERIOR, x_star=np.zeros(1),
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
        rep = consts_cache("mixed2d")
        d = json.loads(json.dumps(strict_json(dataclasses.asdict(rep)), allow_nan=False))
        assert d["problem"] == "mixed2d"
        assert d["F1_prime"] == rep.F1_prime
        assert d["n_sweep"] == list(SWEEP)
        assert d["grid_res"] == 64


class TestRefinement:
    def test_gauss1d_constant_curvature_stable(self):
        spec = with_neighborhood(get_problem("gauss1d"), [-0.25], [0.25])
        r16 = estimate_constants(spec, grid_res=16, n_sweep=(25, 100), safety_factor=1.0)
        r32 = estimate_constants(spec, grid_res=32, n_sweep=(25, 100), safety_factor=1.0)
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
            name="randcubic", domain=box, f_limit=f,
            g=constant_field(1.0),
            maximum=MaximumInfo(
                kind=INTERIOR, x_star=np.zeros(1),
                neighborhood=BoxDomain([-0.5], [0.5]),
            ),
        )
        r16 = estimate_constants(spec, grid_res=16, n_sweep=(25,))
        r32 = estimate_constants(spec, grid_res=32, n_sweep=(25,))
        assert r32.F3 >= r16.F3 - 1e-15

    def test_monotone_refinement_mixed2d(self):
        spec = get_problem("mixed2d")
        r16 = estimate_constants(spec, grid_res=16, n_sweep=(25, 100))
        r32 = estimate_constants(spec, grid_res=32, n_sweep=(25, 100))
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
        r32 = estimate_constants(spec, grid_res=32, n_sweep=(25,))
        assert r32.F3 >= r16.F3 - 1e-15
        assert r32.F2_prime <= r16.F2_prime + 1e-15


class TestAudit:
    @pytest.mark.parametrize(
        "name", ["gauss1d", "exp1d", "cubic1d", "mixed2d", "tilt2d", "drift1d"]
    )
    def test_soundness_sampling(self, specs, consts_cache, name):
        rep = consts_cache(name)
        audit = audit_constants(specs[name], rep, seed=1)
        assert audit["ok"], audit["failures"]

    @pytest.mark.parametrize("sweep", [SWEEP, DOWN], ids=["up", "down"])
    @pytest.mark.parametrize("name,varying", N_CASES)
    def test_sweep_is_the_audits_of_its_n(self, name, varying, sweep):
        # the varying constant set between its per-N values, so that some N
        # fail and some do not; a constant the same at every N set to half
        # its value, so that every N fails, each under its own label
        spec = _n_problem(name)
        reps, _ = _per_n_reports(spec, sweep, grid_res=32, safety_factor=1.0)
        vals = [r[varying] for r in reps]
        bar = 0.5 * (min(vals) + max(vals)) if len(set(vals)) > 1 else 0.5 * vals[0]
        rep = estimate_constants(spec, grid_res=32, n_sweep=sweep, safety_factor=1.0)
        rep = dataclasses.replace(rep, **{varying: bar})
        ref = _per_n_audit(spec, rep)
        assert audit_constants(spec, rep, seed=1) == ref
        failed = [f for f in ref["failures"] if f.startswith(varying + "@")]
        if len(set(vals)) > 1:
            assert 0 < len(failed) < len(sweep)
        else:
            assert failed == [f"{varying}@N={N}" for N in sweep]


# ---------------------------------------------------------------------------
# block-wise neighborhood extremes against the full grid


def _drop_coupling(spec):
    """The same problem with the coupling of each field dropped: the
    constants are then taken on the full grid, as one block."""
    def hide(fld):
        return None if fld is None else dataclasses.replace(fld, coupling=None)

    return dataclasses.replace(
        spec, f_limit=hide(spec.f_limit), sigma=hide(spec.sigma), g=hide(spec.g)
    )


def _outcome(spec, **kw):
    """Every report field, or the error raised (class and message)."""
    try:
        return dataclasses.asdict(estimate_constants(spec, **kw))
    except ToolkitError as exc:
        return type(exc), str(exc)


EQUIVALENCE_PROBLEMS = [s.name for s in catalog()] + list(INLINE.values())


@st.composite
def _separable_problems(draw, cross=False):
    """A problem whose exponent is a sum of one-axis polynomials in 2-4 D,
    with consecutive axes joined by small xy terms when ``cross``.  An
    interior axis spans [-1, 1] and carries -a x^2 + b x^3 + c x^4 with
    a >= 0.7, |b| <= 0.2 and c <= 0, so 0 is the maximum and the Hessian is
    negative definite; at a boundary maximum axis 0 spans [0, 1] and
    decays linearly from its lower face.  The neighborhood is the domain
    or its half about the maximum, the weight is 1, a linear polynomial or
    an exponential of one axis, and sigma is absent or a one-axis
    polynomial with epsilon(N) = N^-0.75."""
    m = draw(st.integers(2, 4))
    boundary = draw(st.booleans())
    terms = []

    def power(i, e):
        return tuple(e if j == i else 0 for j in range(m))

    for i in range(m):
        if boundary and i == 0:
            terms += [(-draw(st.floats(0.5, 2.0)), power(0, 1)),
                      (-draw(st.floats(0.0, 0.5)), power(0, 2))]
        else:
            terms += [(-draw(st.floats(0.7, 2.0)), power(i, 2)),
                      (draw(st.floats(-0.2, 0.2)), power(i, 3)),
                      (-draw(st.floats(0.0, 0.5)), power(i, 4))]
    for i in range(m - 1 if cross else 0):
        if draw(st.booleans()):
            terms.append((draw(st.floats(-0.2, 0.2)),
                          tuple(1 if j in (i, i + 1) else 0 for j in range(m))))
    lower = [0.0 if boundary and i == 0 else -1.0 for i in range(m)]
    box = BoxDomain(lower, [1.0] * m)
    scale = draw(st.sampled_from([0.5, 1.0]))
    nb = BoxDomain(np.array(lower) * scale, np.full(m, scale))
    j = draw(st.integers(0, m - 1))
    g = draw(st.sampled_from([
        UNIT_WEIGHT,
        polynomial_field([(1.0, (0,) * m), (0.3, power(j, 1))]),
        exponential_field(1.0, [0.4 if i == j else 0.0 for i in range(m)]),
    ]))
    sigma = None
    if draw(st.booleans()):
        sigma = polynomial_field([(draw(st.floats(-1.0, 1.0)), power(j, draw(st.integers(1, 2))))])
    zero = np.zeros(m)
    info = (MaximumInfo(BOUNDARY, zero, nb, boundary_axis=0) if boundary
            else MaximumInfo(INTERIOR, zero, nb))
    spec = ProblemSpec("separable", box, polynomial_field(terms), g, info, sigma=sigma,
                       **({"epsilon": EpsilonSchedule(1.0, -0.75)} if sigma else {}))
    return spec


class TestBlockExtremes:
    """The neighborhood extremes taken per block of f's coupling, with the
    other axes pinned, against the same problem with every coupling
    dropped, which takes them on the full grid."""

    @pytest.mark.parametrize("grid_res", [32, 64])
    @pytest.mark.parametrize(
        "problem", EQUIVALENCE_PROBLEMS,
        ids=[p if isinstance(p, str) else p["name"] for p in EQUIVALENCE_PROBLEMS],
    )
    def test_catalog_and_inline_match_the_full_grid(self, problem, grid_res):
        spec = get_problem(problem) if isinstance(problem, str) else problem_from_config(problem)
        kw = dict(grid_res=grid_res)
        assert _outcome(spec, **kw) == _outcome(_drop_coupling(spec), **kw)

    @settings(max_examples=25, deadline=None)
    @given(_separable_problems())
    def test_separable_exponents_match_bit_for_bit(self, spec):
        kw = dict(grid_res=16, n_sweep=(25, 100))
        assert _outcome(spec, **kw) == _outcome(_drop_coupling(spec), **kw)

    @settings(max_examples=15, deadline=None)
    @given(_separable_problems(cross=True))
    def test_multi_axis_blocks_match_to_rounding(self, spec):
        # a block of several axes after another one sums its log|det| and
        # squared third-tensor norm as one term, where the full grid adds
        # them axis by axis: the same quantity, rounded in another order
        kw = dict(grid_res=16, n_sweep=(25, 100))
        split, whole = _outcome(spec, **kw), _outcome(_drop_coupling(spec), **kw)
        assert isinstance(split, dict) == isinstance(whole, dict)
        if not isinstance(split, dict):
            assert split == whole
            return
        for key, value in whole.items():
            if isinstance(value, float):
                assert split[key] == pytest.approx(value, rel=1e-13, abs=0.0), key
            else:
                assert split[key] == value, key

    @pytest.mark.parametrize("kind, error", [
        (BOUNDARY, AssumptionViolationError), (INTERIOR, DefinitenessError)])
    def test_an_axis_f_does_not_read(self, kind, error):
        # f = -y^2 / 2 on [0, 1] x [-1, 1] leaves x unread: at a boundary
        # maximum on x's face F1_prime is 0, at an interior one the zero
        # Hessian row is not negative definite
        box = BoxDomain([0.0, -1.0], [1.0, 1.0])
        f = polynomial_field([(-0.5, (0, 2))])
        assert f.coupling == ((1,),)
        x_star = np.array([0.0 if kind == BOUNDARY else 0.5, 0.0])
        info = MaximumInfo(kind, x_star, box, boundary_axis=0 if kind == BOUNDARY else None)
        spec = ProblemSpec("unread", box, f, constant_field(1.0), info)
        split = _outcome(spec, grid_res=16, n_sweep=(25,))
        assert split[0] is error
        assert split == _outcome(_drop_coupling(spec), grid_res=16, n_sweep=(25,))


def _count_points(monkeypatch):
    """Record how many points each Hessian grid of estimate_constants sees."""
    seen = []
    real = certlap.constants.hessians_on

    def hessians_on(fld, pts, *args):
        seen.append(math.prod(np.shape(pts)[:-1]))
        return real(fld, pts, *args)

    monkeypatch.setattr(certlap.constants, "hessians_on", hessians_on)
    return seen


class TestBlockCost:
    def test_gauss3d_hessians_on_three_lines(self, monkeypatch):
        # gauss3d's f is N-independent, so one N of the sweep is evaluated;
        # its three one-axis blocks take 65 Hessians each at grid_res 64
        seen = _count_points(monkeypatch)
        estimate_constants(get_problem("gauss3d"), grid_res=64, n_sweep=SWEEP)
        assert sum(seen) == 3 * 65

    def test_coupling_dropped_takes_the_full_grid(self, monkeypatch):
        seen = _count_points(monkeypatch)
        estimate_constants(_drop_coupling(get_problem("gauss3d")), grid_res=64, n_sweep=SWEEP)
        assert sum(seen) == 65**3
