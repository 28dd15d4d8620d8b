import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc

from certlap import (
    BoxDomain, catalog, get_problem, integrate, oracle, polynomial_field, tail_integral,
)
from certlap.config import problem_from_config
from certlap.errors import (
    QuadratureBudgetError, UnsupportedDimensionError,
)
from certlap.problems import (
    INTERIOR, UNIT_WEIGHT, MaximumInfo, ProblemSpec, linear_field, rotate_problem,
)


def erf_series(z, terms=40):
    """Independent power-series evaluation of erf (oracle for the oracle)."""
    total = 0.0
    for n in range(terms):
        total += (-1) ** n * z ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * total


def tail_closed_form(m, k, a, N, R):
    """Radial tail via the upper incomplete gamma function: an integration-
    free cross-check of tail_integral."""
    q = k + m - 1
    s = (q + 1) / 2.0
    aN = a * N
    pref = 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
    return pref * 0.5 * aN ** (-s) * gammaincc(s, aN * R * R) * math.gamma(s)


class TestIntegrate:
    def test_exp1d_closed_form(self):
        spec = get_problem("exp1d")
        v = integrate(spec, 10, tol=1e-12)
        assert v.converged
        assert v.value == pytest.approx((1 - math.exp(-10)) / 10, abs=1e-12)

    def test_gauss1d_vs_erf_series(self):
        spec = get_problem("gauss1d")
        v = integrate(spec, 4, tol=1e-12)
        expected = math.sqrt(math.pi / 2.0) * erf_series(math.sqrt(2.0))
        assert v.value == pytest.approx(expected, rel=1e-12)

    def test_mixed2d_factorizes(self):
        spec = get_problem("mixed2d")
        v2 = integrate(spec, 100, tol=1e-11)
        e1 = integrate(get_problem("exp1d"), 100, tol=1e-12).value
        g1 = integrate(get_problem("gauss1d"), 100, tol=1e-12).value
        assert abs(v2.value - e1 * g1) <= 10 * 1e-11

    def test_refinement_consistency(self):
        spec = get_problem("cubic1d")
        loose = integrate(spec, 100, tol=1e-8)
        tight = integrate(spec, 100, tol=5e-9)
        assert abs(tight.value - loose.value) <= loose.abs_error_estimate + 1e-15

    def test_symmetry_under_reflection(self):
        spec = get_problem("gauss1d")
        v = integrate(spec, 50, tol=1e-12)
        mirrored = rotate_problem(spec, np.array([[-1.0]]))
        vm = integrate(mirrored, 50, tol=1e-12)
        assert abs(v.value - vm.value) <= 10 * 1e-12

    def test_weight_override(self):
        from certlap import polynomial_field

        spec = get_problem("exp1d")
        w = polynomial_field([(1.0, (0,)), (1.0, (1,))])  # 1 + x
        v = integrate(spec, 25, tol=1e-12, weight=w)
        n = 25.0
        exact = (1 - math.exp(-n)) / n + (1 - math.exp(-n) * (n + 1)) / n**2
        assert v.value == pytest.approx(exact, rel=1e-11)

    def test_domain_override(self):
        spec = get_problem("exp1d")
        sub = BoxDomain([0.0], [0.02])
        v = integrate(spec, 50, tol=1e-13, domain=sub)
        assert v.value == pytest.approx((1 - math.exp(-1.0)) / 50.0, rel=1e-11)

    def test_dimension_cap(self):
        box = BoxDomain([-1.0] * 5, [1.0] * 5)
        f = polynomial_field([(-0.5, tuple(2 if j == i else 0 for j in range(5)))
                              for i in range(5)])
        spec = ProblemSpec("gauss5d", box, f, UNIT_WEIGHT, MaximumInfo(INTERIOR, np.zeros(5), box))
        with pytest.raises(UnsupportedDimensionError):
            integrate(spec, 10)

    def test_tol_floor(self):
        spec = get_problem("gauss1d")
        with pytest.raises(ValueError):
            integrate(spec, 10, tol=1e-15)

    def test_converged_estimate_below_tol(self):
        spec = get_problem("gauss1d")
        v = integrate(spec, 64, tol=1e-10)
        assert v.converged
        assert v.abs_error_estimate <= 1e-10 * max(1.0, abs(v.value))


CLOSED_FORM_PROBLEMS = (
    "gauss1d", "exp1d", "iso2d", "mixed2d", "tilt2d", "gauss3d", "boundary3d",
    "drift1d", "eps1d", "viol1d",
)


def _meshgrid_sum(axes_nodes, axes_weights, exponent, weight_fn):
    """Naive reference for oracle._tensor_sum: the whole tensor grid and its
    weights as flat meshgrid copies, summed with fsum."""
    pts = np.stack([g.reshape(-1) for g in np.meshgrid(*axes_nodes, indexing="ij")], axis=-1)
    wts = np.ones(len(pts))
    for g in np.meshgrid(*axes_weights, indexing="ij"):
        wts = wts * g.reshape(-1)
    vals = np.exp(exponent(pts))
    if weight_fn is not None:
        vals = vals * weight_fn(pts)
    return math.fsum(wts * vals), math.fsum(wts * np.abs(vals)), len(pts)


class TestPanelPair:
    """One panel set per depth, checked by Gauss order n - 2 on the same
    panels, with a relative stopping rule."""

    def test_closed_form_list_is_complete(self):
        assert {s.name for s in catalog() if s.exact_integral} == set(CLOSED_FORM_PROBLEMS)

    @pytest.mark.parametrize("name", CLOSED_FORM_PROBLEMS)
    def test_closed_forms(self, name):
        spec = get_problem(name)
        for n in (25, 100, 400, 1600):
            v = integrate(spec, n, tol=1e-10)
            ref = spec.exact_integral(n)
            assert v.converged
            assert abs(v.value - ref) <= 1e-13 * abs(ref), (name, n)

    def test_boundary_estimate_is_relative(self):
        # the shifted value of a boundary problem is << 1, so an absolute
        # rule would stop with a relative error estimate far above tol
        v = integrate(get_problem("mixed2d"), 1600, tol=1e-10)
        assert v.converged
        assert v.rel_error_estimate <= 1e-10

    def test_repeat_is_bit_identical(self):
        spec = get_problem("gauss3d")
        assert integrate(spec, 100, tol=1e-10) == integrate(spec, 100, tol=1e-10)

    def test_gauss3d_evaluations(self):
        # the two-depth comparison took 6,469,632 evaluations per call
        v = integrate(get_problem("gauss3d"), 1600, tol=1e-10)
        assert v.converged
        assert v.evaluations < 6_469_632 // 2

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_tensor_sum_matches_meshgrid(self, m, monkeypatch):
        rng = np.random.default_rng(m)
        sizes = (7, 5, 4, 3)[:m]
        nodes = [rng.uniform(-1.0, 1.0, k) for k in sizes]
        weights = [rng.uniform(0.1, 1.0, k) for k in sizes]
        a = rng.uniform(-3.0, -0.5, m)

        def exponent(pts):
            return (pts**2) @ a + 0.3 * pts[..., -1]

        def weight_fn(pts):
            return 0.5 + pts[..., 0]  # changes sign on the nodes

        inner = math.prod(sizes[1:])
        for w_fn in (weight_fn, None):
            ref, abs_ref, n_ref = _meshgrid_sum(nodes, weights, exponent, w_fn)
            # one block, then the first axis split into blocks of 2, 2, 2, 1
            for chunk in (oracle._CHUNK, 2 * inner):
                monkeypatch.setattr(oracle, "_CHUNK", chunk)
                got, abs_got, n = oracle._tensor_sum(nodes, weights, exponent, w_fn)
                assert n == n_ref
                assert abs(got - ref) <= 1e-15 * abs_ref
                assert abs(abs_got - abs_ref) <= 1e-15 * abs_ref


def _opaque(spec):
    """The same problem with the coupling of each field dropped: the oracle
    then sums the integrand as one block, the full tensor product."""
    def hide(fld):
        return None if fld is None else dataclasses.replace(fld, coupling=None)

    return dataclasses.replace(
        spec, f_limit=hide(spec.f_limit), sigma=hide(spec.sigma), g=hide(spec.g)
    )


def _gaussian_config(m: int) -> dict:
    # f = -|x|^2 / 2 on [-1, 1]^m
    return {
        "name": f"gauss{m}d_inline",
        "domain": {"lower": [-1.0] * m, "upper": [1.0] * m},
        "f": {"type": "polynomial", "terms": [
            {"coeff": -0.5, "powers": [2 if j == i else 0 for j in range(m)]}
            for i in range(m)
        ]},
    }


class TestRefinement:
    """A failing pair deepens the axes whose line through the centre misses
    tol.  Deeper levels only split the panels next to the centre; when that
    stops cutting the pair's disagreement, the order is raised on the same
    panels, and when that stops too the call raises at once."""

    def test_gauss3d_below_the_pair_floor(self):
        # the 12/10 pair stalls at about 6e-13 on gauss3d at N = 1600, where
        # deepening leaves the panels carrying it alone; a 14/12 pair on the
        # depth-6 panels converges
        spec = get_problem("gauss3d")
        v = integrate(spec, 1600, tol=1e-13)
        assert v.converged
        assert v.rel_error_estimate <= 1e-13
        assert abs(v.value - spec.exact_integral(1600)) <= 1e-13 * v.value
        # depth 4 with orders 12 and 10; every axis's line through the centre
        # misses tol, so depth 6 on every axis; that does not cut the pair's
        # difference, so order 14 at depth 6.  Each axis is a block: a panel
        # sum costs the sum of the axes' node counts, and a line probe the
        # line's nodes plus one pinned node for each of the other two blocks
        cuts = 3 * ((120 + 2) + (100 + 2))
        assert v.evaluations == 3 * (120 + 100) + cuts + 3 * (168 + 140) + 3 * 196
        assert v.depths == (6, 6, 6) and v.order == 14

    def test_gauss3d_below_the_pair_floor_opaque(self):
        # the same integrand as one block takes the same path at the cost of
        # the full tensor product
        spec = _opaque(get_problem("gauss3d"))
        v = integrate(spec, 1600, tol=1e-13)
        assert v.converged
        assert v.rel_error_estimate <= 1e-13
        assert abs(v.value - spec.exact_integral(1600)) <= 1e-13 * v.value
        cuts = 3 * (120 + 100)
        assert v.evaluations == 120**3 + 100**3 + cuts + 168**3 + 140**3 + 196**3
        assert v.depths == (6, 6, 6) and v.order == 14

    def test_boundary3d_deepens_only_its_exponential_axis(self):
        # at N = 1600 the exponential axis 0 has scale 1/N, the Gaussian
        # axes 1/sqrt(N): only axis 0's line through the centre misses tol,
        # so depths go (4, 4, 4) -> (6, 4, 4) -> (8, 4, 4)
        spec = get_problem("boundary3d")
        v = integrate(spec, 1600, tol=1e-10)
        assert v.converged
        assert abs(v.value - spec.exact_integral(1600)) <= 1e-14 * v.value
        # each axis is a block, so a panel sum costs the sum of the axes'
        # node counts, and each of the 6 line probes per depth one pinned
        # node for each of the other two blocks
        panels = (
            (60 + 2 * 120 + 50 + 2 * 100)
            + (84 + 2 * 120 + 70 + 2 * 100)
            + (108 + 2 * 120 + 90 + 2 * 100)
        )
        cuts = (60 + 50 + 2 * 220 + 6 * 2) + (84 + 70 + 2 * 220 + 6 * 2)
        assert v.evaluations == panels + cuts
        assert v.depths == (8, 4, 4) and v.order == 12

    def test_boundary3d_deepens_only_its_exponential_axis_opaque(self):
        spec = _opaque(get_problem("boundary3d"))
        v = integrate(spec, 1600, tol=1e-10)
        assert v.converged
        assert abs(v.value - spec.exact_integral(1600)) <= 1e-14 * v.value
        panels = (
            (60 * 120**2 + 50 * 100**2)
            + (84 * 120**2 + 70 * 100**2)
            + (108 * 120**2 + 90 * 100**2)
        )
        cuts = (60 + 50 + 2 * 220) + (84 + 70 + 2 * 220)
        assert v.evaluations == panels + cuts
        assert v.depths == (8, 4, 4) and v.order == 12

    def test_kink_raises_at_once(self):
        # a narrow bump in the exponent away from the centre, the log weight
        # -(x - 0.75)^2 / (2 * 0.02^2): neither deeper panels, which split
        # only the panels next to the centre, nor higher orders cut the
        # error geometrically
        spec = get_problem("gauss1d")
        bump = polynomial_field([(-1250.0, (2,)), (1875.0, (1,)), (-703.125, (0,))])
        with pytest.raises(QuadratureBudgetError) as info:
            integrate(spec, 100, tol=1e-12, log_weight=bump)
        assert not info.value.best.converged
        assert info.value.best.evaluations < 10_000

    def test_zero_integral_converges(self):
        # g = x on gauss1d integrates to zero: Q_n and Q_{n-2} are both
        # round-off, and the rule scales tol by the integral of |g| e^(N f)
        spec = get_problem("gauss1d")
        x = polynomial_field([(1.0, (1,))])
        for n in (25, 1600):
            v = integrate(spec, n, tol=1e-10, weight=x)
            assert v.converged
            assert abs(v.value) <= 1e-10 * integrate(spec, n).value


class TestFourDimensions:
    @pytest.mark.parametrize("n", [25, 1600])
    def test_gaussian_orthant(self, n):
        # exp(-N |x|^2 / 2) on [0, 1]^4, centre at the corner: 5 panels per
        # axis at depth 4, converged there with orders 12 and 10
        spec = problem_from_config(_gaussian_config(4))
        v = integrate(spec, n, tol=1e-10, domain=BoxDomain([0.0] * 4, [1.0] * 4),
                      center=np.zeros(4))
        ref = (math.sqrt(math.pi / (2 * n)) * math.erf(math.sqrt(n / 2))) ** 4
        assert v.converged
        assert abs(v.value - ref) <= 1e-12 * ref
        # one block per axis: 4 axes of 60 nodes at order 12 and 50 at 10
        assert v.evaluations == 4 * 60 + 4 * 50
        assert v.depths == (4, 4, 4, 4) and v.order == 12

    @pytest.mark.parametrize("n", [25, 1600])
    def test_gaussian_orthant_opaque(self, n):
        spec = _opaque(problem_from_config(_gaussian_config(4)))
        v = integrate(spec, n, tol=1e-10, domain=BoxDomain([0.0] * 4, [1.0] * 4),
                      center=np.zeros(4))
        ref = (math.sqrt(math.pi / (2 * n)) * math.erf(math.sqrt(n / 2))) ** 4
        assert v.converged
        assert abs(v.value - ref) <= 1e-12 * ref
        assert v.evaluations == 60**4 + 50**4
        assert v.depths == (4, 4, 4, 4) and v.order == 12


def _inline_2d(name, lower, f_terms):
    # the benchmark's inline problems: g = exp(0.3 x - 0.2 y), sigma = x,
    # epsilon(N) = N^-0.75
    return problem_from_config({
        "name": name,
        "domain": {"lower": lower, "upper": [1.0, 1.0]},
        "f": {"type": "polynomial",
              "terms": [{"coeff": c, "powers": list(p)} for c, p in f_terms]},
        "g": {"type": "exponential", "linear": [0.3, -0.2]},
        "sigma": {"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [1, 0]}]},
        "epsilon": {"class": "power", "exponent": -0.75},
    })


def _quad2d():
    return _inline_2d("quad2d", [-1.0, -1.0], [(-0.5, (2, 0)), (-1.0, (0, 2)), (0.1, (1, 1))])


def _two_dimensional_problems():
    return [
        _quad2d(),
        _inline_2d("cub2d", [-1.0, -1.0],
                   [(-0.5, (2, 0)), (-1.0, (0, 2)), (0.2, (3, 0)), (0.1, (1, 1))]),
        _inline_2d("bnd2d", [0.0, -1.0], [(-1.0, (1, 0)), (-0.3, (2, 0)), (-0.5, (0, 2))]),
        get_problem("iso2d"), get_problem("mixed2d"), get_problem("tilt2d"),
    ]


class TestTwoDimensionOrder:
    """2-D calls start from the order pair 12/10 on depth-4 panels, a coupled
    2-D block included, and may raise the order up to 24."""

    def test_values_match_a_high_order_reference(self, monkeypatch):
        specs = _two_dimensional_problems()
        got = {(s.name, n): integrate(s, n, tol=1e-10) for s in specs for n in (25, 100, 400, 1600)}
        monkeypatch.setitem(oracle._GAUSS_ORDER, 2, 32)
        for s in specs:
            for n in (25, 100, 400, 1600):
                v, ref = got[(s.name, n)], integrate(s, n, tol=1e-13)
                assert v.converged and ref.converged
                assert abs(v.log_abs_value - ref.log_abs_value) <= 5e-14, (s.name, n)

    def test_coupled_block_converges_at_the_starting_panels(self):
        # f couples x and y, and g reads both: one block of 10 panels per
        # axis, 12 and 10 nodes a panel
        v = integrate(_quad2d(), 400, tol=1e-10)
        assert v.converged
        assert v.depths == (4, 4) and v.order == 12
        assert v.evaluations == 120**2 + 100**2

    def test_coupled_block_raises_the_order(self):
        # below the 12/10 pair's floor: y deepens, then 14/12 on the same
        # panels converges, well under the 2-D ceiling 2 * 12
        v = integrate(_quad2d(), 25, tol=1e-14)
        assert v.converged
        assert v.rel_error_estimate <= 1e-14
        assert v.depths == (4, 6) and v.order == 14
        assert v.order < 2 * oracle._GAUSS_ORDER[2]


@st.composite
def _separable_integrals(draw):
    """A random exponent that is a sum of polynomials of disjoint axis
    blocks, with a centre, an optional sub-box and an optional linear tilt.
    An interior axis spans [-1, 1] and carries a concave quartic peaked near
    0; a face axis spans [0, 1] and peaks at its lower face, with a linear
    (exponential) decay in 1-3 D.  In 4-D every axis is a face axis with a
    Gaussian-type decay and N = 25, so the full tensor product the test
    compares against stays at 60^4 + 50^4 nodes; in 3-D N stays <= 100."""
    m = draw(st.sampled_from([1, 2, 3, 4]))
    faces = [True] * m if m == 4 else draw(st.lists(st.booleans(), min_size=m, max_size=m))
    coef = st.floats(-0.2, 0.2)
    terms = []

    def power(i, e):
        return tuple(e if j == i else 0 for j in range(m))

    for i, face in enumerate(faces):
        a = draw(st.floats(0.7, 2.0))
        terms += [(-a, power(i, 2)), (-draw(st.floats(0.0, 0.5)), power(i, 4))]
        if face and m < 4:
            terms.append((-draw(st.floats(1.0, 3.0)), power(i, 1)))
        elif not face:
            terms.append((draw(coef), power(i, 3)))
    # a cross term couples consecutive axes into one block
    for i in range(m - 1):
        if draw(st.booleans()):
            terms.append((draw(coef), tuple(1 if j in (i, i + 1) else 0 for j in range(m))))
    lower = np.array([0.0 if face else -1.0 for face in faces])
    box = BoxDomain(lower, np.ones(m))
    centre = np.array([0.0 if face else draw(st.floats(-0.1, 0.1)) for face in faces])
    domain = None
    if draw(st.booleans()):
        sub_lower = [0.0 if face else draw(st.floats(-1.0, -0.05)) for face in faces]
        domain = BoxDomain(sub_lower, [draw(st.floats(0.2, 1.0)) for _ in range(m)])
    tilt = None
    if draw(st.booleans()):
        tilt = linear_field([draw(st.floats(-3.0, 3.0)) for _ in range(m)], at=centre)
    n = draw(st.sampled_from([25, 100, 400, 1600][:{1: 4, 2: 4, 3: 2, 4: 1}[m]]))
    return polynomial_field(terms), box, centre, domain, tilt, n


def _integrate_or_best(spec, n, **kw):
    try:
        return integrate(spec, n, tol=1e-10, **kw)
    except QuadratureBudgetError as exc:
        return exc.best


class TestBlockProduct:
    @settings(max_examples=10, deadline=None)
    @given(_separable_integrals())
    def test_matches_the_full_tensor_product(self, case):
        # the same integrand with its blocks and as one opaque block
        f, box, centre, domain, tilt, n = case
        info = MaximumInfo(INTERIOR, centre, box)
        spec = ProblemSpec("separable", box, f, UNIT_WEIGHT, info)
        kw = dict(domain=domain, center=centre)
        split = _integrate_or_best(spec, n, log_weight=tilt, **kw)
        whole = _integrate_or_best(
            _opaque(spec), n, log_weight=tilt and dataclasses.replace(tilt, coupling=None), **kw
        )
        assert abs(split.value - whole.value) <= 1e-13 * abs(whole.value)
        assert (split.converged, split.depths, split.order) == (
            whole.converged, whole.depths, whole.order)
        assert split.evaluations <= whole.evaluations


# f = x on [0, 1]: N f* = N, so the shifted value is scaled by exp(N)
RISING = {
    "name": "rising",
    "domain": {"lower": [0.0], "upper": [1.0]},
    "f": {"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [1]}]},
}


class TestErrorEstimateScale:
    def test_not_capped_below_overflow(self):
        # log offset 705 > 700 while the value e^705 / 705 stays finite
        v = integrate(problem_from_config(RISING), 705, tol=1e-10)
        assert math.isfinite(v.value) and v.abs_error_estimate > 0
        assert v.abs_error_estimate == pytest.approx(v.rel_error_estimate * v.value, rel=1e-12)

    def test_infinite_only_where_the_value_overflows(self):
        v = integrate(problem_from_config(RISING), 1600, tol=1e-10)
        assert v.value == math.inf and v.abs_error_estimate == math.inf
        assert v.rel_error_estimate <= 1e-10


class TestTailIntegral:
    def test_known_point(self):
        # m=1, k=0, a=1, N=4, R=1: two-sided Gaussian tail
        v = tail_integral(1, 0, 1.0, 4, 1.0, tol=1e-12)
        expected = tail_closed_form(1, 0, 1.0, 4, 1.0)
        assert v.value == pytest.approx(expected, rel=1e-10)
        # equals sqrt(pi)/2 * erfc(2) = 0.0041455346903...
        assert expected == pytest.approx(0.0041455347, rel=1e-7)

    def test_full_gaussian_normalization(self):
        for m in (1, 2, 3):
            v = tail_integral(m, 0, 0.7, 9, 0.0, tol=1e-12)
            assert v.value == pytest.approx((math.pi / (0.7 * 9)) ** (m / 2), rel=1e-10)

    def test_second_moment(self):
        v = tail_integral(1, 2, 1.3, 5, 0.0, tol=1e-12)
        aN = 1.3 * 5
        assert v.value == pytest.approx(math.sqrt(math.pi) / (2 * aN**1.5), rel=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_incomplete_gamma(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        k = int(rng.integers(0, 4))
        a = float(rng.uniform(0.5, 4.0))
        N = int(rng.integers(1, 500))
        R = float(rng.uniform(0.2, 2.0))
        v = tail_integral(m, k, a, N, R, tol=1e-12)
        ref = tail_closed_form(m, k, a, N, R)
        if ref > 1e-290:
            assert v.value == pytest.approx(ref, rel=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            tail_integral(1, 0, -1.0, 4, 1.0)
        with pytest.raises(ValueError):
            tail_integral(0, 0, 1.0, 4, 1.0)


def _weight_reads(monkeypatch):
    """Record, for every tensor sum that applies a weight, the points the
    weight was evaluated at and the evaluations the sum made."""
    reads, evals = [], []
    real = oracle._tensor_sum

    def counting(nodes, weights, exponent, weight_fn):
        if weight_fn is None:
            return real(nodes, weights, exponent, None)

        def read(pts):
            reads.append(math.prod(pts.shape[:-1]))
            return weight_fn(pts)

        s, a, n = real(nodes, weights, exponent, read)
        evals.append(n)
        return s, a, n

    monkeypatch.setattr(oracle, "_tensor_sum", counting)
    return reads, evals


class TestUnitWeight:
    """g = 1 multiplies every node by 1.0, which is exact, so the oracle
    does not evaluate it; any other weight is read at every node of its
    block."""

    def test_unit_weight_is_never_evaluated(self, monkeypatch):
        from certlap.gibbs import gibbs_measure, measure_of, mgf_X, mgf_Y

        spec = get_problem("gauss3d")
        reads, _ = _weight_reads(monkeypatch)
        m = gibbs_measure(spec, 100)
        measure_of(m, BoxDomain([-0.5] * 3, [0.5] * 3))
        mgf_X(m, [0.1, 0.0, -0.1])
        mgf_Y(m, [0.1, 0.0, -0.1])
        integrate(spec, 400, weight=UNIT_WEIGHT)
        assert reads == []

    def test_skipping_it_changes_no_value(self):
        # 0.5 + 0.5 is 1.0 at every node, but two terms: it is evaluated
        halves = dataclasses.replace(UNIT_WEIGHT, terms=((0.5, (), None),) * 2)
        for name in ("gauss3d", "boundary3d", "mixed2d"):
            spec = get_problem(name)
            assert integrate(spec, 400, weight=UNIT_WEIGHT) == integrate(spec, 400, weight=halves)

    def test_exponential_weight_read_at_every_node(self, monkeypatch):
        spec = problem_from_config({
            **_gaussian_config(2), "g": {"type": "exponential", "linear": [0.3, -0.2]}})
        reads, evals = _weight_reads(monkeypatch)
        integrate(spec, 100)
        assert evals and sum(reads) == sum(evals)


def _loop_axis_nodes(lo, hi, center, depth, order):
    """The panel construction one panel at a time: the reference that
    ``oracle._axis_nodes`` must match element for element."""
    c = min(max(center, lo), hi)
    breaks = [lo]
    left = c - lo
    if left > 0:
        for j in range(depth, 0, -1):
            breaks.append(c - left * 0.5 ** (depth - j + 1))
        breaks.append(c)
    right = hi - c
    if right > 0:
        for j in range(1, depth + 1):
            breaks.append(c + right * 0.5 ** (depth - j + 1))
        breaks.append(hi)
    breaks = np.unique(np.asarray(breaks))
    xs, ws = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (b - a)
        nodes.append(0.5 * (a + b) + half * xs)
        weights.append(half * ws)
    return np.concatenate(nodes), np.concatenate(weights)


class TestAxisNodes:
    @pytest.mark.parametrize("depth", [0, 1, 4, 7, 40])
    @pytest.mark.parametrize("order", [10, 12, 24, 32, 64])
    def test_matches_the_panel_loop(self, depth, order):
        rng = np.random.default_rng(depth * 100 + order)
        for _ in range(20):
            lo = float(rng.uniform(-3.0, 1.0))
            hi = lo + float(10.0 ** rng.uniform(-6.0, 1.0))
            inside = float(rng.uniform(lo, hi))
            # centre below, at and above the box, inside it, and one ulp
            # inside either bound
            for c in (lo - 1.0, lo, inside, hi, hi + 1.0,
                      np.nextafter(lo, hi), np.nextafter(hi, lo)):
                args = (np.float64(lo), np.float64(hi), np.float64(c), depth, order)
                nodes, weights = oracle._axis_nodes(*args)
                ref_nodes, ref_weights = _loop_axis_nodes(*args)
                assert np.array_equal(nodes, ref_nodes)
                assert np.array_equal(weights, ref_weights)

    def test_box_of_two_adjacent_floats(self):
        lo = 1.0
        hi = float(np.nextafter(lo, 2.0))
        for c in (lo, hi, 0.0, 2.0):
            for depth in (0, 4, 40):
                nodes, weights = oracle._axis_nodes(lo, hi, c, depth, 12)
                ref_nodes, ref_weights = _loop_axis_nodes(lo, hi, c, depth, 12)
                assert np.array_equal(nodes, ref_nodes)
                assert np.array_equal(weights, ref_weights)


def _tensor_sums(monkeypatch):
    """Count the tensor sums the oracle forms."""
    calls = []
    real = oracle._tensor_sum

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(oracle, "_tensor_sum", counting)
    return calls


class TestBlockSumReuse:
    """A block sum that recurs within one call is formed once: a line
    probe's own axis at the panel depths already summed, and a block with
    every axis pinned at the centre.  Every value, the refinement path and
    the evaluation count are those of TestRefinement."""

    def test_gauss3d(self, monkeypatch):
        spec = get_problem("gauss3d")
        calls = _tensor_sums(monkeypatch)
        v = integrate(spec, 1600, tol=1e-13)
        # 33 without reuse: 3 blocks in each of 5 panel sums and 6 line
        # probes.  A probe's own axis repeats a panel sum's block, so only the
        # panel sums' 15 and one pinned sum per block are formed
        assert len(calls) == 3 * 5 + 3
        assert v.converged and abs(v.value - spec.exact_integral(1600)) <= 1e-13 * v.value
        cuts = 3 * ((120 + 2) + (100 + 2))
        assert v.evaluations == 3 * (120 + 100) + cuts + 3 * (168 + 140) + 3 * 196
        assert v.depths == (6, 6, 6) and v.order == 14

    def test_boundary3d(self, monkeypatch):
        spec = get_problem("boundary3d")
        calls = _tensor_sums(monkeypatch)
        v = integrate(spec, 1600, tol=1e-10)
        # 54 without reuse: the first panel pair forms 6 block sums and its
        # probes 3 pinned ones; each deeper pair only axis 0's 2
        assert len(calls) == 6 + 3 + 2 + 2
        assert v.converged and abs(v.value - spec.exact_integral(1600)) <= 1e-14 * v.value
        panels = (
            (60 + 2 * 120 + 50 + 2 * 100)
            + (84 + 2 * 120 + 70 + 2 * 100)
            + (108 + 2 * 120 + 90 + 2 * 100)
        )
        cuts = (60 + 50 + 2 * 220 + 6 * 2) + (84 + 70 + 2 * 220 + 6 * 2)
        assert v.evaluations == panels + cuts
        assert v.depths == (8, 4, 4) and v.order == 12

    def test_one_block(self, monkeypatch):
        # as one block, gauss3d repeats no sum: 11 calls, as without reuse.
        # boundary3d's probes along axes 1 and 2 at depths (6, 4, 4) are
        # those at (4, 4, 4), since only axis 0 deepened: 14 calls, not 18
        calls = _tensor_sums(monkeypatch)
        v = integrate(_opaque(get_problem("gauss3d")), 1600, tol=1e-13)
        assert len(calls) == 11
        assert v.evaluations == 120**3 + 100**3 + 3 * (120 + 100) + 168**3 + 140**3 + 196**3
        calls.clear()
        v = integrate(_opaque(get_problem("boundary3d")), 1600, tol=1e-10)
        assert len(calls) == 14
        assert v.depths == (8, 4, 4) and v.order == 12


def _node_lists(monkeypatch):
    """Record the number of axes each tensor sum the oracle forms receives."""
    widths = []
    real = oracle._tensor_sum

    def recording(nodes, weights, exponent, weight_fn):
        widths.append(len(nodes))
        return real(nodes, weights, exponent, weight_fn)

    monkeypatch.setattr(oracle, "_tensor_sum", recording)
    return widths


def _x_squared(m: int) -> ProblemSpec:
    # f = -x_0^2 on [-1, 1]^m: every axis but the first is read by no term
    box = BoxDomain([-1.0] * m, [1.0] * m)
    f = polynomial_field([(-1.0, (2,) + (0,) * (m - 1))])
    return ProblemSpec(f"x2_{m}d", box, f, UNIT_WEIGHT, MaximumInfo(INTERIOR, np.zeros(m), box))


class TestOwnAxes:
    """Each block sum reads only its own block: its tensor sum receives the
    block's axes alone, and its exponent the terms that read them."""

    @pytest.mark.parametrize("name", ["gauss3d", "boundary3d"])
    def test_one_axis_blocks_get_one_axis_node_lists(self, name, monkeypatch):
        from certlap.gibbs import gibbs_measure, measure_of, mgf_X

        spec = get_problem(name)
        widths = _node_lists(monkeypatch)
        for s, width in ((spec, 1), (_opaque(spec), 3)):
            widths.clear()
            measure = gibbs_measure(s, 400)
            inner = BoxDomain(spec.domain.lower, 0.5 * (spec.domain.lower + spec.domain.upper))
            measure_of(measure, inner)
            mgf_X(measure, [0.1, 0.0, -0.1])
            integrate(s, 1600)
            assert widths and set(widths) == {width}

    def test_unread_axis_evaluates_no_term(self, monkeypatch):
        from certlap import problems

        evaluated, per_sum = [], []
        real_eval, real_sum = problems._eval_terms, oracle._tensor_sum

        def recording_eval(terms, pts):
            evaluated.append((terms, np.shape(pts)[-1]))
            return real_eval(terms, pts)

        def recording_sum(nodes, weights, exponent, weight_fn):
            evaluated.clear()
            out = real_sum(nodes, weights, exponent, weight_fn)
            per_sum.append(list(evaluated))
            return out

        monkeypatch.setattr(problems, "_eval_terms", recording_eval)
        monkeypatch.setattr(oracle, "_tensor_sum", recording_sum)
        x_term = ((-1.0, ((0, 2),), None),)
        for n in (25, 100, 400, 1600):
            per_sum.clear()
            plane = integrate(_x_squared(2), n, tol=1e-14)
            # each sum evaluates f's one term on the x block, or no term on
            # the y block, on points of one axis
            assert {tuple(calls) for calls in per_sum} == {((x_term, 1),), (((), 1),)}
            line = integrate(_x_squared(1), n, tol=1e-14)
            assert plane.converged and line.converged
            assert abs(plane.value - 2.0 * line.value) <= 1e-15 * plane.value

    @pytest.mark.parametrize("n", [25, 100, 400, 1600])
    def test_constant_term_and_tilt_at_an_off_centre_point(self, n):
        # the deterministic twin of TestBlockProduct: a constant in f and a
        # tilt a . (x - c) with a constant term, about a centre off the
        # origin.  e^(N 0.7) overflows at N = 1600, so the log values are
        # compared
        box = BoxDomain([-1.0, -1.0, 0.0], [1.0, 1.0, 1.0])
        f = polynomial_field([
            (0.7, (0, 0, 0)), (-1.0, (2, 0, 0)), (-0.3, (4, 0, 0)), (0.1, (3, 0, 0)),
            (-0.5, (0, 2, 0)), (0.05, (0, 1, 1)), (-0.8, (0, 0, 2)), (-1.5, (0, 0, 1))])
        centre = np.array([0.04, -0.07, 0.0])
        spec = ProblemSpec("tilted", box, f, UNIT_WEIGHT, MaximumInfo(INTERIOR, centre, box))
        tilt = linear_field([1.5, -2.0, 0.5], at=centre)
        kw = dict(center=centre, domain=BoxDomain([-0.6, -1.0, 0.0], [0.9, 0.5, 0.8]))
        split = integrate(spec, n, log_weight=tilt, **kw)
        whole = integrate(_opaque(spec), n, log_weight=dataclasses.replace(tilt, coupling=None),
                          **kw)
        assert split.converged and whole.converged
        assert abs(split.log_abs_value - whole.log_abs_value) <= 1e-13
        assert (split.depths, split.order) == (whole.depths, whole.order)
        assert split.evaluations < whole.evaluations


class TestOneAxisSum:
    """A one-axis tensor sum is one dot product of the weights and the
    values: bit for bit the blocked sum with a second axis of one node at
    weight 1.0 that neither the exponent nor the weight reads."""

    @pytest.mark.parametrize("n", [1, 120, 5248])
    def test_equals_the_sum_with_a_unit_axis(self, n):
        rng = np.random.default_rng(n)
        nodes = np.sort(rng.uniform(-1.0, 1.0, n))
        weights = rng.uniform(1e-3, 0.1, n)

        def exponent(pts):
            return -3.0 * pts[..., 0] ** 2 + 0.2 * pts[..., 0]

        def changes_sign(pts):
            return 0.3 - pts[..., 0]

        def positive(pts):
            return 1.5 + np.sin(pts[..., 0])

        unit_axis = ([nodes, np.array([0.37])], [weights, np.ones(1)])
        for w_fn in (changes_sign, positive, None):
            one = oracle._tensor_sum([nodes], [weights], exponent, w_fn)
            assert one == oracle._tensor_sum(*unit_axis, exponent, w_fn)
            assert one[2] == n
        # the |.| sum differs on a sign-changing weight, once a node has
        # either sign
        s, a, _ = oracle._tensor_sum([nodes], [weights], exponent, changes_sign)
        assert a > abs(s) or n == 1


def _node_builds(monkeypatch):
    """Record the (lower, upper, centre, depth, order) of every panel node
    list the oracle builds."""
    builds = []
    real = oracle._axis_nodes

    def recording(lo, hi, center, depth, order):
        builds.append((float(lo), float(hi), float(center), depth, order))
        return real(lo, hi, center, depth, order)

    monkeypatch.setattr(oracle, "_axis_nodes", recording)
    return builds


class TestPanelStore:
    """The panel nodes of each (axis, centre coordinate, depth, order) on
    the spec's own domain are built once per spec, kept read-only; a
    sub-box's are built for the call."""

    def test_second_call_builds_nothing_built_before(self, monkeypatch):
        spec = get_problem("boundary3d")
        builds = _node_builds(monkeypatch)
        first = integrate(spec, 1600, tol=1e-10)
        built = list(builds)
        builds.clear()
        # a tighter tol at the same centre goes deeper: only new panels
        deeper = integrate(spec, 1600, tol=1e-13)
        assert built and builds and not set(builds) & set(built)
        assert deeper.depths != first.depths or deeper.order != first.order
        builds.clear()
        assert integrate(spec, 1600, tol=1e-10) == first
        assert builds == []

    def test_kept_arrays_are_read_only(self):
        spec = get_problem("gauss3d")
        integrate(spec, 400)
        store = oracle._panel_store(spec, spec.domain)
        assert store
        for nodes, weights in store.values():
            assert not nodes.flags.writeable and not weights.flags.writeable

    def test_fresh_spec_starts_empty(self):
        spec = get_problem("gauss3d")
        integrate(spec, 400)
        assert oracle._panel_store(spec, spec.domain)
        fresh = get_problem("gauss3d")
        assert oracle._panel_store(fresh, fresh.domain) == {}

    def test_sub_box_stores_nothing(self, monkeypatch):
        from certlap.gibbs import gibbs_measure, measure_of

        spec = get_problem("gauss3d")
        measure = gibbs_measure(spec, 400)
        store = oracle._panel_store(spec, spec.domain)
        kept = dict(store)
        builds = _node_builds(monkeypatch)
        measure_of(measure, BoxDomain([-0.5, -0.2, 0.0], [0.1, 0.3, 0.4]))
        assert builds and store == kept

    @pytest.mark.parametrize("name", ["gauss3d", "boundary3d", "mixed2d", "exp1d"])
    def test_emptied_store_gives_the_same_value(self, name):
        spec = get_problem(name)
        tilt = linear_field([0.5] * spec.dimension, at=spec.z_star_of_N(100))
        for kw in ({}, {"weight": UNIT_WEIGHT}, {"log_weight": tilt}):
            kept = integrate(spec, 100, **kw)
            oracle._panel_store(spec, spec.domain).clear()
            assert integrate(spec, 100, **kw) == kept
