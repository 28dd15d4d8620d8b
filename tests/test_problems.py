import itertools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import certlap.grammar
import certlap.problems
from certlap import (
    BOUNDARY,
    INTERIOR,
    BoxDomain,
    EpsilonSchedule,
    MaximumInfo,
    ProblemSpec,
    catalog_names,
    classify_maximum,
    constant_field,
    exponential_field,
    get_problem,
    linear_field,
    polynomial_field,
    rotate_problem,
)
from certlap.errors import (
    AmbiguousMaximumError,
    DomainError,
    NonUniqueMaximumError,
)
from certlap.config import problem_from_config
from certlap.problems import UNIT_WEIGHT, add_fields, join_coupling, rotated_view
from workloads_inline import INLINE


def make_1d_problem(terms, lower=-1.0, upper=1.0, name="adhoc"):
    box = BoxDomain([lower], [upper])
    f = polynomial_field(terms)
    info = MaximumInfo(
        kind=INTERIOR,
        x_star=np.zeros(1),
        neighborhood=box,
    )
    return ProblemSpec(
        name=name, domain=box, f_limit=f, g=constant_field(1.0),
        maximum=info,
    )


class TestBoxDomain:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoxDomain([1.0], [0.0])
        with pytest.raises(ValueError):
            BoxDomain([0.0, 0.0], [1.0, 1.0], rotation=[[1.0, 0.5], [0.0, 1.0]])

    def test_rotation_round_trip(self):
        th = 0.3
        R = [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
        box = BoxDomain([0.0, -1.0], [1.0, 1.0], rotation=R)
        z = np.array([0.25, 0.5])
        assert np.allclose(box.to_box(box.to_ambient(z)), z)

    def test_rotated_rows_round_trip(self):
        th = 0.3
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        box = BoxDomain([0.0, -1.0], [1.0, 1.0], rotation=R)
        rows = np.array([[0.25, 0.5], [0.75, -0.5], [0.1, 0.9]])
        assert np.array_equal(box.to_ambient(rows), rows @ R.T)
        assert np.allclose(box.to_box(box.to_ambient(rows)), rows, rtol=0.0, atol=1e-15)

    def test_identity_frame_is_a_copy(self):
        """An identity rotation is not multiplied: each map returns a new
        float array equal to its input, and writing to it leaves the input
        as it was."""
        box = BoxDomain([0.0, -1.0], [1.0, 1.0])
        z = np.array([[0.25, 0.5], [0.75, -0.5]])
        z.flags.writeable = False
        for to in (box.to_ambient, box.to_box):
            out = to(z)
            assert np.array_equal(out, z) and not np.shares_memory(out, z)
            out[:] = 7.0
            assert z.tolist() == [[0.25, 0.5], [0.75, -0.5]]
        assert box.to_box([1, 0]).dtype == np.float64

    def test_an_owned_array_is_not_copied_again(self):
        z = np.array([[0.25, 0.5], [0.75, -0.5]])
        assert BoxDomain([0.0, -1.0], [1.0, 1.0]).to_ambient(z, copy=False) is z
        R = np.array([[0.6, -0.8], [0.8, 0.6]])
        out = BoxDomain([0.0, -1.0], [1.0, 1.0], rotation=R).to_ambient(z, copy=False)
        assert np.array_equal(out, z @ R.T) and not np.shares_memory(out, z)

    def test_grid_nesting(self):
        box = BoxDomain([-1.0], [2.0])
        coarse = box.grid_axes(16)[0]
        fine = box.grid_axes(32)[0]
        assert set(np.round(coarse, 12)).issubset(set(np.round(fine, 12)))

    def test_grid_points_on_some_axes(self):
        """The nodes on some axes are the full grid's columns of those
        axes, in the order given, with no column for any other axis."""
        box = BoxDomain([0.0, -1.0, 2.0], [1.0, 1.0, 4.0])
        nodes = box.grid_axes(4)
        full = box.grid_points(4)
        mesh = np.meshgrid(*nodes, indexing="ij")
        assert np.array_equal(full, np.stack([m.reshape(-1) for m in mesh], axis=-1))
        line = box.grid_points(4, axes=(1,))
        assert line.shape == (5, 1) and np.array_equal(line[:, 0], nodes[1])
        plane = box.grid_points(4, axes=(0, 2))
        assert plane.shape == (25, 2)
        assert np.array_equal(plane, full[full[:, 1] == nodes[1][2]][:, [0, 2]])
        assert box.grid_points(4, axes=()).shape == (1, 0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_contains_rows_matches_the_row_reduction(self, m):
        rng = np.random.default_rng(m)
        lo, hi = rng.uniform(-2.0, -0.5, m), rng.uniform(0.5, 2.0, m)
        box = BoxDomain(lo, hi)
        z = rng.uniform(-3.0, 3.0, (2000, m))
        # points exactly on a bound, on one axis or on every axis
        z[:200] = np.where(rng.random((200, m)) < 0.5, lo, hi)
        z[200:400, 0] = lo[0]
        z[400:600, m - 1] = hi[m - 1]
        z[600:610, 0] = np.nan
        for tol in (0.0, 1e-12):
            got = box.contains_rows(z, tol=tol)
            ref = np.all((z >= lo - tol) & (z <= hi + tol), axis=1)
            assert got.dtype == bool and np.array_equal(got, ref)


class TestAssembleF:
    """f(x, N) = f_limit + epsilon(N) * sigma, assembled by spec.f_of_box."""

    def test_linear_perturbation_at_zero(self):
        spec = _drifting(EpsilonSchedule(1.0, -1.0))
        f = spec.f_of_box(100)
        assert f.evaluate(np.zeros(1)) == pytest.approx(0.0, abs=1e-15)
        assert f.gradient(np.zeros(1))[0] == pytest.approx(0.01, abs=1e-15)

    def test_absent_sigma_is_exact_passthrough(self):
        spec = get_problem("gauss1d")
        f = spec.f_of_box(50)
        x = np.array([0.37])
        assert f.evaluate(x) == spec.f_limit.evaluate(x)

    def test_direct_substitution(self):
        spec = _drifting(EpsilonSchedule(1.0, -1.0), n_zero=2)
        f = spec.f_of_box(4)
        assert float(f.evaluate(np.array([1.0]))) == pytest.approx(-0.25, abs=1e-15)

    def test_epsilon_is_validated_data(self):
        """eps(N) = scale * N ** exponent, eps = 0 by default; a schedule
        that could grow or go negative cannot be built."""
        assert EpsilonSchedule() == EpsilonSchedule(0.0, -1.0)
        assert EpsilonSchedule().evaluate(25) == 0.0
        assert EpsilonSchedule(2.0, -0.75).evaluate(16) == 2.0 * 16.0 ** -0.75
        for scale, exponent in ((1.0, 0.0), (1.0, 0.5), (-1.0, -0.5),
                                (float("nan"), -0.5), (1.0, float("nan"))):
            with pytest.raises(ValueError, match="epsilon"):
                EpsilonSchedule(scale, exponent)
        # with scale 0, f(., N) is f_limit at every N and x*(N) is x*
        spec = _drifting(EpsilonSchedule(0.0, -0.25))
        assert spec.f_same_at_every_n and spec.f_of_box(100) is spec.f_limit_box
        assert not _drifting(EpsilonSchedule(1.0, -0.25)).f_same_at_every_n

    def test_one_field_per_n(self):
        spec = _drifting(EpsilonSchedule(1.0, -1.0))
        assert spec.f_of_box(100) is spec.f_of_box(100.0)
        assert spec.f_of_box(100) is not spec.f_of_box(101)

    def test_inline_problem_shares_no_cache_with_the_draft(self, monkeypatch):
        # problem_from_config classifies a draft spec and returns a copy with
        # the maximum filled in: the copy starts with an empty cache of its
        # own and derives the same f(., N) and x*(N) as the draft did
        drafts = []
        real = certlap.grammar.classify_maximum
        monkeypatch.setattr(certlap.grammar, "classify_maximum",
                            lambda spec, **kw: drafts.append(spec) or real(spec, **kw))
        c, s = math.cos(0.4), math.sin(0.4)
        spec = problem_from_config({
            "name": "cub2d_rot",
            "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0],
                       "rotation": [[c, -s], [s, c]]},
            "f": {"type": "polynomial", "terms": [
                {"coeff": -0.5, "powers": [2, 0]}, {"coeff": -1.0, "powers": [0, 2]},
                {"coeff": 0.2, "powers": [3, 0]}, {"coeff": 0.1, "powers": [1, 1]}]},
            "g": {"type": "exponential", "linear": [0.3, -0.2]},
            "sigma": {"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [1, 0]}]},
            "epsilon": {"class": "power", "exponent": -0.75},
        })
        (draft,) = drafts
        assert spec is not draft and spec.maximum is not draft.maximum
        assert spec._cache == {} and draft._cache
        for name in ("f_limit_box", "sigma_box", "g_box"):
            mine, drafts_own = getattr(spec, name), getattr(draft, name)
            assert mine is not drafts_own and _term_bits(mine) == _term_bits(drafts_own)
        assert spec.f_limit_box is not spec.f_limit  # taken through the rotation
        # the classification solved x*(N) at N = n_zero + 1 into the draft's
        # cache; the finished spec solves it again, to the same bits
        n = spec.n_zero + 1
        key = ("x", n, spec.z_star.tobytes(), spec.maximum.boundary_axis, None)
        assert _bits(spec.z_star_of_N(n)) == _bits(draft._cache[key])
        assert spec.f_of_box(n) is not draft.f_of_box(n)
        assert _term_bits(spec.f_of_box(n)) == _term_bits(draft.f_of_box(n))
        kept = {id(v) for v in draft._cache.values()}
        assert spec._cache and not kept & {id(v) for v in spec._cache.values()}
        # a copy with another field builds its own
        other = replace(spec, g=constant_field(2.0))
        assert other._cache == {}
        assert other.g_box is not spec.g_box and other.f_of_box(400) is not spec.f_of_box(400)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-1.0, 1.0), st.integers(20, 10_000))
    def test_assembly_linearity(self, x, n):
        spec = _drifting(EpsilonSchedule(1.0, -0.75))
        f = spec.f_of_box(n)
        pt = np.array([x])
        eps = n ** -0.75
        lhs = float(f.evaluate(pt)) - float(spec.f_limit.evaluate(pt))
        assert lhs == pytest.approx(eps * x, abs=1e-15, rel=1e-12)


class TestCoupling:
    """Blocks of axes such that a field is a sum of functions of one block
    each; None couples every axis."""

    def test_separable_polynomial_splits(self):
        f = polynomial_field([(-1.0, (2, 0)), (-1.0, (0, 2))])
        assert f.coupling == ((0,), (1,))

    def test_cross_term_couples(self):
        # quad2d's f: the xy term joins the axes
        f = polynomial_field([(-0.5, (2, 0)), (-1.0, (0, 2)), (0.1, (1, 1))])
        assert f.coupling == ((0, 1),)

    def test_constant_reads_no_axis(self):
        assert constant_field(2.0).coupling == ()
        assert polynomial_field([(3.0, (0, 0)), (0.0, (1, 1))]).coupling == ()

    def test_add_fields_joins_overlapping_blocks(self):
        f1 = polynomial_field([(1.0, (1, 1, 0, 0)), (1.0, (0, 0, 2, 0)), (1.0, (0, 0, 0, 2))])
        f2 = polynomial_field([(1.0, (0, 1, 1, 0))])
        assert f1.coupling == ((0, 1), (2,), (3,))
        assert add_fields(f1, f2, 0.5).coupling == ((0, 1, 2), (3,))
        assert add_fields(f1, f2, 0.0).coupling == f1.coupling

    def test_exponential_reads_its_support(self):
        assert exponential_field(1.0, [0.3, 0.0, -0.2]).coupling == ((0, 2),)

    def test_linear_field(self):
        a, at = np.array([2.0, 0.0, -1.0]), np.array([0.5, 9.0, 1.0])
        lin = linear_field(a, at=at)
        assert lin.coupling == ((0,), (2,))
        pts = np.array([[1.0, 3.0, 2.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(lin.evaluate(pts), (pts - at) @ a)
        assert np.array_equal(lin.gradient(pts), np.tile(a, (2, 1)))
        assert float(linear_field(a).evaluate(np.array([1.0, 3.0, 2.0]))) == 0.0

    def test_assemble_f_passes_it_through(self):
        spec = _drifting(EpsilonSchedule(1.0, -1.0))
        assert spec.f_of_box(100).coupling == ((0,),)

    def test_rotation_takes_the_coupling_of_its_terms(self):
        c, s = math.cos(0.3), math.sin(0.3)
        R = np.array([[c, -s], [s, c]])
        # the cross terms of the isotropic form cancel exactly
        f = polynomial_field([(-1.0, (2, 0)), (-1.0, (0, 2))])
        assert rotated_view(f, R).coupling == ((0,), (1,))
        assert rotated_view(f, np.eye(2)).coupling == ((0,), (1,))
        g = polynomial_field([(-1.0, (2, 0)), (-2.0, (0, 2))])
        assert rotated_view(g, R).coupling == ((0, 1),)
        assert rotated_view(exponential_field(1.0, [0.3, 0.0]), R).coupling == ((0, 1),)


class TestPolynomialDerivatives:
    """Each symmetric entry is evaluated once, at its sorted index, and
    mirrored; entries with no terms stay zero."""

    def test_closed_form_and_exact_symmetry(self):
        # f = 0.1 x^3 y^5 - 2 x z^2: d2f/dxdy = 1.5 x^2 y^4, d3f/dxdzdz = -4
        f = polynomial_field([(0.1, (3, 5, 0)), (-2.0, (1, 0, 2))])
        pts = np.array([[0.5, -2.0, 3.0], [1.0, 1.0, 1.0]])
        x, y, z = pts.T
        H, T = f.hessian(pts), f.third_tensor(pts)
        assert H.shape == (2, 3, 3) and T.shape == (2, 3, 3, 3)
        assert np.allclose(H[:, 0, 1], 1.5 * x**2 * y**4, rtol=1e-15)
        assert np.allclose(T[:, 0, 2, 2], -4.0, rtol=0.0)
        assert np.array_equal(H, np.swapaxes(H, -1, -2))
        for perm in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            assert np.array_equal(T, np.transpose(T, (0,) + tuple(p + 1 for p in perm)))
        assert np.array_equal(f.gradient(pts[0]), f.gradient(pts)[0])

    def test_quadratic_third_tensor_is_zero(self):
        f = polynomial_field([(-0.5, (2, 0, 0)), (-0.5, (0, 2, 0)), (0.1, (0, 1, 1))])
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(4, 5, 3))
        T = f.third_tensor(pts)
        assert T.shape == (4, 5, 3, 3, 3) and not np.any(T)
        assert np.array_equal(f.hessian(pts)[..., 1, 2], np.full((4, 5), 0.1))

    def test_powers_are_nonnegative_integers(self):
        """A power that is not a nonnegative integer is refused, not read
        as another one: x^-1 was x^2 to the batch evaluator, x to the point
        evaluator and -1 to the gradient, and int() took 2.5 to 2."""
        for power in (-1, 2.5, -1.0, float("nan"), True):
            with pytest.raises(ValueError, match="nonnegative integer"):
                polynomial_field([(1.0, (1,)), (1.0, (power,))])
        f = polynomial_field([(1.0, (2.0, np.int64(1)))])
        assert f.terms == ((1.0, ((0, 2), (1, 1)), None),)
        assert all(isinstance(e, int) for _, powers, _ in f.terms for _, e in powers)


def _derivative_terms(terms, idx):
    """The term list of d^k f / dx_idx, differentiated along idx in order
    with the coefficient multiplied by each power as it drops."""
    out = []
    for c, powers in terms:
        p = list(powers)
        for axis in idx:
            c, p[axis] = c * p[axis], p[axis] - 1
        if min(p) >= 0:
            out.append((c, tuple(p)))
    return out


def _pow_form(terms, pts):
    """sum(c * prod(x_i ** e_i)) with numpy's ``**``, term by term."""
    out = np.zeros(pts.shape[:-1])
    for c, powers in terms:
        if c == 0.0:
            continue
        term = np.full(pts.shape[:-1], c)
        for i, e in enumerate(powers):
            if e:
                term = term * pts[..., i] ** e
        out = out + term
    return out


def _underflow(live, x, n):
    """The underflow term of the standard rounding model (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2002, §2.1): a product that
    comes out subnormal carries an absolute error of up to 2^-1075 in place
    of a relative one.  Each of the sum(p) + 4 + n roundings of a term may
    add one, and the factors multiplied in after it scale it by at most
    prod(max(1, |x_i|) ** e_i); a sum of subnormals is exact.  Next to the
    relative bound it matters only for terms near or below the smallest
    normal, 2^-1022."""
    import mpmath

    return mpmath.mpf(2) ** -1075 * mpmath.fsum(
        (sum(p) + 4 + n) * mpmath.fprod(max(1.0, abs(float(x[i]))) ** e for i, e in enumerate(p))
        for _, p in live
    )


def _handles(f, order):
    return (f.evaluate, f.gradient, f.hessian, f.third_tensor)[order]


@st.composite
def _polynomials(draw, max_power):
    """A term list on m <= 3 axes (zero coefficients and a constant term
    included) and points of batch shape (..., m) with negative bases."""
    m = draw(st.integers(1, 3))
    coeff = st.one_of(st.just(0.0), st.floats(-10.0, 10.0, allow_subnormal=False))
    powers = st.tuples(*[st.integers(0, max_power)] * m)
    terms = draw(st.lists(st.tuples(coeff, powers), min_size=1, max_size=5))
    if draw(st.booleans()):
        terms.append((draw(coeff), (0,) * m))
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    pts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-2.0, 2.0, batch + (m,))
    return terms, pts


class TestPolynomialKernel:
    """Powers are formed by multiplication, so a term may differ from
    numpy's ``**`` (libm pow) by a few ulps from degree 3 on, and not at all
    up to degree 2."""

    @settings(max_examples=40, deadline=None)
    @given(_polynomials(max_power=6))
    # c * y^3 is subnormal here: its rounding is absolute, not relative
    @example(([(2.2250738585072014e-308, (0, 3))], np.array([1.2397643242763117, 0.3056087730785637])))
    def test_every_handle_against_mpmath(self, case):
        import mpmath

        terms, pts = case
        m = pts.shape[-1]
        f = polynomial_field(terms)
        flat = pts.reshape(-1, m)
        for order in range(4):
            got = np.asarray(_handles(f, order)(pts)).reshape(len(flat), -1)
            for col, idx in enumerate(itertools.product(range(m), repeat=order)):
                live = [(c, p) for c, p in _derivative_terms(terms, sorted(idx)) if c != 0.0]
                for row, x in enumerate(flat):
                    with mpmath.workdps(50):
                        parts = [mpmath.mpf(c) * mpmath.fprod(mpmath.mpf(float(x[i])) ** e
                                                              for i, e in enumerate(p))
                                 for c, p in live]
                        # a rounding per factor of a term and per step of the
                        # sum, each at most an ulp of the term, or an
                        # absolute underflow where a product is subnormal
                        tol = mpmath.fsum(abs(t) * (sum(p) + 4 + len(live))
                                          for t, (_, p) in zip(parts, live))
                        err = abs(mpmath.mpf(float(got[row, col])) - mpmath.fsum(parts))
                        assert err <= tol * 2.0**-52 + _underflow(live, x, len(live))

    @settings(max_examples=60, deadline=None)
    @given(_polynomials(max_power=2))
    def test_degree_two_per_axis_is_bitwise_the_pow_form(self, case):
        terms, pts = case
        m = pts.shape[-1]
        f = polynomial_field(terms)
        for order in range(4):
            got = np.asarray(_handles(f, order)(pts))
            assert got.shape == pts.shape[:-1] + (m,) * order
            for idx in itertools.product(range(m), repeat=order):
                ref = _pow_form(_derivative_terms(terms, sorted(idx)), pts)
                assert np.array_equal(got[(...,) + idx], ref)


@st.composite
def _term_lists(draw):
    """A term list on m <= 3 axes: monomials, exp factors alone or times
    powers, zero coefficients and constants, and one point."""
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeff = st.one_of(st.just(0.0), st.floats(-10.0, 10.0, allow_subnormal=False))
    raw = draw(st.lists(
        st.tuples(coeff, st.lists(st.integers(0, 4), min_size=m, max_size=m), st.booleans()),
        min_size=1, max_size=6))
    # rates from the generator, not hypothesis's round floats, whose
    # products are often exact and would hide a dot product taken in
    # another order; a quarter of the entries zero
    terms = [(c, tuple((i, e) for i, e in enumerate(p) if e),
              np.where(rng.random(m) < 0.25, 0.0, rng.uniform(-1.5, 1.5, m)) if exp else None)
             for c, p, exp in raw]
    if draw(st.booleans()):
        terms.append((draw(coeff), (), None))
    return tuple(terms), rng.uniform(-2.0, 2.0, m)


class TestPointPath:
    """A single point (m,) is evaluated on Python floats, not through the
    batch arrays; every value and handle is still the batch's bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(_term_lists())
    # a sum of the rate's products from the left rounds this exponent 1 ulp
    # away from numpy's dot product
    @example((((2.0, ((0, 1),), np.array([-0.275, -1.364, -1.354])),),
              np.array([1.997, 0.609, -1.062])))
    def test_a_point_is_bitwise_its_batch_of_one(self, case):
        terms, pt = case
        one = certlap.problems._eval_terms(terms, pt)
        assert type(one) is np.float64
        assert one.tobytes() == certlap.problems._eval_terms(terms, pt[None])[0].tobytes()
        f = certlap.problems._term_field(terms)
        for order in range(4):
            got, batch = _handles(f, order)(pt), _handles(f, order)(pt[None])
            assert np.shape(got) == batch.shape[1:]
            assert np.asarray(got).tobytes() == batch[0].tobytes()


@st.composite
def _exponential_sums(draw):
    """scale * exp(a . x + offset) on m <= 3 axes, alone (empty polynomial
    part and w = 1) or added with weight w to a polynomial, and points."""
    terms, pts = draw(_polynomials(max_power=4))
    m = pts.shape[-1]
    # magnitudes below 1e-3 are 0, so no product of a term underflows
    unit = st.floats(-1.5, 1.5).map(lambda v: v if abs(v) >= 1e-3 else 0.0)
    a = draw(st.lists(unit, min_size=m, max_size=m))
    scale, offset = 2.0 * draw(unit), draw(unit)
    if draw(st.booleans()):
        return [], (scale, a, offset), 1.0, pts
    return terms, (scale, a, offset), draw(unit.filter(bool)), pts


class TestTermFields:
    """Every grammar field is a term list c * x^p * exp(rate . x) with one
    evaluator and one product-rule derivative; add_fields concatenates term
    lists."""

    @settings(max_examples=40, deadline=None)
    @given(_exponential_sums())
    def test_exponential_handles_against_mpmath(self, case):
        import mpmath

        terms, (scale, a, offset), w, pts = case
        m = pts.shape[-1]
        exp_f = exponential_field(scale, a, offset)
        f = exp_f
        if terms:
            f = add_fields(polynomial_field(terms), exp_f, w)
            assert f.coupling == join_coupling(polynomial_field(terms).coupling, exp_f.coupling)
        flat = pts.reshape(-1, m)
        for order in range(4):
            got = np.asarray(_handles(f, order)(pts)).reshape(len(flat), -1)
            for col, idx in enumerate(itertools.product(range(m), repeat=order)):
                live = [(c, p) for c, p in _derivative_terms(terms, sorted(idx)) if c != 0.0]
                for row, x in enumerate(flat):
                    with mpmath.workdps(50):
                        xs = [mpmath.mpf(float(v)) for v in x]
                        parts = [mpmath.mpf(c) * mpmath.fprod(xs[i] ** e for i, e in enumerate(p))
                                 for c, p in live]
                        dot = mpmath.fsum(mpmath.mpf(ai) * xi for ai, xi in zip(a, xs))
                        e_part = (mpmath.mpf(w) * mpmath.mpf(scale) * mpmath.exp(offset)
                                  * mpmath.fprod(mpmath.mpf(a[i]) for i in idx) * mpmath.exp(dot))
                        # the polynomial terms as in TestPolynomialKernel; the
                        # exp term also carries the rounding of a . x and of
                        # e^offset, relative to its exponent's magnitude
                        n = len(live) + 1
                        tol = mpmath.fsum(abs(t) * (sum(p) + 4 + n)
                                          for t, (_, p) in zip(parts, live))
                        spread = mpmath.fsum(abs(mpmath.mpf(ai) * xi) for ai, xi in zip(a, xs))
                        tol += abs(e_part) * ((m + 2) * (spread + abs(offset) + 1) + 4 + n)
                        err = abs(mpmath.mpf(float(got[row, col])) - mpmath.fsum(parts + [e_part]))
                        assert err <= tol * 2.0**-52 + _underflow(live, x, n)

    @settings(max_examples=60, deadline=None)
    @given(_polynomials(max_power=4), st.integers(0, 2),
           st.floats(-2.0, 2.0, allow_subnormal=False).filter(bool))
    def test_unit_term_sum_is_bitwise_the_composed_sum(self, case, axis, w):
        # the sigma = x_j of drift1d, eps1d, viol1d and the inline problems
        terms, pts = case
        m = pts.shape[-1]
        f1 = polynomial_field(terms)
        f2 = polynomial_field([(1.0, tuple(int(i == axis % m) for i in range(m)))])
        total = add_fields(f1, f2, w)
        assert total.terms == f1.terms + ((w, ((axis % m, 1),), None),)
        assert total.coupling == join_coupling(f1.coupling, f2.coupling)
        for k in range(4):
            ref = _handles(f1, k)(pts) + w * _handles(f2, k)(pts)
            assert np.array_equal(_handles(total, k)(pts), ref)


@st.composite
def _rotated_sums(draw):
    """A polynomial plus w * scale * exp(a . x + offset) on m <= 3 axes, an
    orthogonal R (the Q of a Gaussian matrix's QR) and box-frame points.
    Magnitudes below 1e-3 are 0, so no product underflows."""
    m = draw(st.integers(1, 3))
    unit = st.floats(-1.5, 1.5).map(lambda v: v if abs(v) >= 1e-3 else 0.0)
    coeff = st.floats(-10.0, 10.0).map(lambda v: v if abs(v) >= 1e-3 else 0.0)
    powers = st.tuples(*[st.integers(0, 3)] * m)
    terms = draw(st.lists(st.tuples(coeff, powers), min_size=1, max_size=4))
    a = draw(st.lists(unit, min_size=m, max_size=m))
    scale, offset, w = 2.0 * draw(unit), draw(unit), draw(unit)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    R = np.linalg.qr(rng.normal(size=(m, m)))[0]
    z = rng.uniform(-2.0, 2.0, (draw(st.integers(1, 4)), m))
    return terms, (scale, a, offset), w, R, z


_CHAIN = ("...a,ai->...i", "...ab,ai,bj->...ij", "...abc,ai,bj,ck->...ijk")


def _chain_rule(f, R, z, order):
    """The order-``order`` handle of z -> f(R z), by the chain rule on the
    handles of f at R z."""
    v = np.asarray(_handles(f, order)(z @ R.T))
    return v if order == 0 else np.einsum(_CHAIN[order - 1], v, *[R] * order)


class TestRotatedTerms:
    """rotated_view multiplies a term list out through the rotation once."""

    @settings(max_examples=60, deadline=None)
    @given(_rotated_sums())
    def test_handles_against_the_chain_rule(self, case):
        terms, (scale, a, offset), w, R, z = case
        m = R.shape[0]
        f = add_fields(polynomial_field(terms), exponential_field(scale, a, offset), w)
        rotated = rotated_view(f, R)
        assert rotated.terms is not None
        # the majorant: |c|, |rate| and |R| at |z| bound every product that
        # either side forms, term by term
        f_abs = add_fields(polynomial_field([(abs(c), p) for c, p in terms]),
                           exponential_field(abs(scale), np.abs(a), offset), abs(w))
        d = max(sum(p) for _, p in terms)
        n = len(rotated.terms) + len(f.terms)
        spread = np.abs(z) @ np.abs(R).T @ np.abs(a)  # bounds |a . x| and |(a R) . z|
        for k in range(4):
            bound = _chain_rule(f_abs, np.abs(R), np.abs(z), k)
            # roundings, each at most an ulp of the majorant: m + 2 for each
            # of the d + 3 factors of a term (an m-term sum where a factor
            # x_i = R_i . z is multiplied out or rounded, the powers, the
            # coefficient, the product rule), one per term summed on either
            # side, m^k in the chain rule's sums, and 2m + 2 per unit of the
            # exponent (a R and R z rounded, then dotted)
            count = (d + 3) * (m + 2) + n + m**k + (2 * m + 2) * spread
            tol = bound * count.reshape(count.shape + (1,) * k) * 2.0**-52
            err = np.abs(np.asarray(_handles(rotated, k)(z)) - _chain_rule(f, R, z, k))
            assert np.all(err <= tol)


@pytest.mark.parametrize("problem", catalog_names() + list(INLINE.values()),
                         ids=catalog_names() + list(INLINE))
def test_peak_is_f_at_x_star_of_n(problem):
    """peak(N) is f(., N), its gradient and its Hessian at x*(N), bit for bit
    as evaluated directly, and peak() the same of f_limit at x*; each array
    is read-only, each model built once per N, and a replaced copy of the
    spec starts without them."""
    spec = problem_from_config(problem)
    for N in SWEEP + (None,):
        peak = spec.peak(N)
        f = spec.f_limit_box if N is None else spec.f_of_box(N)
        z = spec.z_star if N is None else spec.z_star_of_N(N)
        assert peak.z.tobytes() == z.tobytes()
        assert np.float64(peak.value).tobytes() == np.float64(f.evaluate(z)).tobytes()
        assert peak.gradient.tobytes() == f.gradient(z).tobytes()
        assert peak.hessian.tobytes() == f.hessian(z).tobytes()
        assert peak.hessian.shape == (spec.dimension,) * 2
        assert not any(a.flags.writeable for a in (peak.z, peak.gradient, peak.hessian))
        assert spec.peak(N) is peak
    copy = replace(spec)
    assert copy._cache == {}
    assert copy.peak(SWEEP[-1]) is not spec.peak(SWEEP[-1])


# The catalog as it was written by hand before its entries became inline
# definitions: name -> (kind, boundary_axis, x*, neighbourhood lower and
# upper, n_zero, epsilon's (scale, exponent), epsilon(N) over SWEEP (None:
# zero), exact integral over SWEEP (None: no closed form)).  A drifting
# entry's x*(N) is epsilon(N); every other entry's is x*.
SWEEP = (25, 100, 400, 1600)
HAND_WRITTEN = {
    "gauss1d": (INTERIOR, None, [0.0], [-0.5], [0.5], 7, (0.0, -1.0), None,
                [0.5013253675146261, 0.25066282746310004, 0.12533141373155002,
                 0.06266570686577501]),
    "exp1d": (BOUNDARY, 0, [0.0], [0.0], [1.0], 1, (0.0, -1.0), None,
              [0.03999999999944449, 0.01, 0.0025, 0.000625]),
    "cubic1d": (INTERIOR, None, [0.0], [-0.9], [0.9], 1, (0.0, -1.0), None, None),
    "quartic1d": (INTERIOR, None, [0.0], [-1.0], [1.0], 1, (0.0, -1.0), None, None),
    "iso2d": (INTERIOR, None, [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0], 1, (0.0, -1.0), None,
              [0.2513271241136749, 0.06283185307179585, 0.015707963267948963,
               0.003926990816987241]),
    "mixed2d": (BOUNDARY, 0, [0.0, 0.0], [0.0, -1.0], [1.0, 1.0], 1, (0.0, -1.0), None,
                [0.02005301470030655, 0.0025066282746310006, 0.00031332853432887507,
                 3.9166066791109384e-05]),
    "tilt2d": (BOUNDARY, 0, [0.0, 0.0], [0.0, -1.0], [1.0, 1.0], 1, (0.0, -1.0), None,
               [0.02005301470030655, 0.0025066282746310006, 0.00031332853432887507,
                3.9166066791109384e-05]),
    "gauss3d": (INTERIOR, None, [0.0] * 3, [-1.0] * 3, [1.0] * 3, 1, (0.0, -1.0), None,
                [0.12599666286268213, 0.015749609945722418, 0.0019687012432153023,
                 0.0002460876554019128]),
    "boundary3d": (BOUNDARY, 0, [0.0] * 3, [0.0, -1.0, -1.0], [1.0] * 3, 1, (0.0, -1.0), None,
                   [0.01005308496440738, 0.0006283185307179585, 3.926990816987241e-05,
                    2.4543692606170254e-06]),
    "drift1d": (INTERIOR, None, [0.0], [-0.5], [0.5], 13, (1.0, -1.0),
                [1.0 / n for n in SWEEP],
                [0.5114526482319859, 0.25191928011443526, 0.12548817595469217,
                 0.06268529295933829]),
    "eps1d": (INTERIOR, None, [0.0], [-0.5], [0.5], 17, (1.0, -0.75),
              [0.08944271909999159, 0.03162277660168379, 0.011180339887498949,
               0.003952847075210474],
              [0.5540490535634502, 0.26351458544784734, 0.12850419357566126,
               0.06345394442284576]),
    "viol1d": (INTERIOR, None, [0.0], [-0.85], [0.85], 19, (1.0, -0.25),
               [0.4472135954999579, 0.31622776601683794, 0.22360679774997896,
                0.15811388300841897],
               [6.089957264414628, 37.201662093233104, 2760.6080975727555,
                30403219.917026367]),
}


def _bits(values) -> list:
    """Each value as its float's hex form, so -0.0 and 0.0 differ."""
    return [float(v).hex() for v in np.atleast_1d(np.asarray(values, dtype=float))]


def _term_bits(fld) -> list:
    """A field's terms with every float as its hex form."""
    return [(_bits(c), powers, None if rate is None else _bits(rate))
            for c, powers, rate in fld.terms]


def _drifting(eps, n_zero=19):
    box = BoxDomain([-1.0], [1.0])
    info = MaximumInfo(
        kind=INTERIOR, x_star=np.zeros(1),
        neighborhood=BoxDomain([-0.9], [0.9]), n_zero=n_zero,
    )
    return ProblemSpec(
        name="drifting", domain=box,
        f_limit=polynomial_field([(-0.5, (2,))]),
        sigma=polynomial_field([(1.0, (1,))]),
        epsilon=eps,
        g=constant_field(1.0), maximum=info,
    )


class TestClassify:
    def test_symmetric_parabola_interior(self):
        spec = make_1d_problem([(-0.5, (2,))])
        info = classify_maximum(spec, 64)
        assert info.kind == INTERIOR
        assert info.x_star[0] == pytest.approx(0.0, abs=1e-9)

    def test_linear_field_boundary(self):
        box = BoxDomain([0.0], [1.0])
        f = polynomial_field([(-1.0, (1,))])
        spec = ProblemSpec(
            name="lin", domain=box, f_limit=f, g=constant_field(1.0),
            maximum=MaximumInfo(
                kind=BOUNDARY, x_star=np.zeros(1), neighborhood=box, boundary_axis=0,
            ),
        )
        info = classify_maximum(spec, 64)
        assert info.kind == BOUNDARY
        assert info.boundary_axis == 0
        assert info.x_star[0] == pytest.approx(0.0, abs=1e-12)
        # inward derivative is -1
        g = spec.f_limit_box.gradient(info.x_star)
        assert g[0] == pytest.approx(-1.0, abs=1e-9)

    def test_mixed2d_grid_argmax_then_classifier(self):
        # independent oracle: brute-force argmax on a 64-cell grid before
        # trusting the classifier
        spec = get_problem("mixed2d")
        pts = spec.domain.grid_points(64)
        vals = spec.f_limit_box.evaluate(pts)
        arg = pts[np.argmax(vals)]
        assert np.allclose(arg, [0.0, 0.0], atol=1e-12)
        info = classify_maximum(spec, 64)
        assert info.kind == BOUNDARY
        assert info.boundary_axis == 0
        assert np.allclose(info.x_star, [0.0, 0.0], atol=1e-9)

    @pytest.mark.parametrize("name", ["exp1d", "mixed2d", "boundary3d"])
    def test_boundary_maximum_is_solved_once(self, name, monkeypatch):
        """The free solve already holds the face, so the limit field is not
        solved again with the face pinned."""
        spec = get_problem(name)
        fields = []
        real = certlap.problems.locate_maximum
        monkeypatch.setattr(certlap.problems, "locate_maximum",
                            lambda fld, *a, **k: fields.append(fld) or real(fld, *a, **k))
        info = classify_maximum(spec, 64)
        assert info.kind == BOUNDARY
        assert sum(f is spec.f_limit_box for f in fields) == 1

    @pytest.mark.parametrize("grid_res", [32, 64, 128])
    def test_classification_stability(self, specs, grid_res):
        for spec in specs.values():
            info = classify_maximum(spec, grid_res)
            assert info.kind == spec.maximum.kind, spec.name
            assert info.boundary_axis == spec.maximum.boundary_axis, spec.name
            assert np.allclose(info.x_star, spec.maximum.x_star, atol=1e-7), spec.name

    def test_rotation_invariance(self):
        spec = get_problem("mixed2d")
        th = math.pi / 5.0
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        rotated = rotate_problem(spec, R)
        info = classify_maximum(rotated, 64)
        assert info.kind == BOUNDARY
        assert info.boundary_axis == spec.maximum.boundary_axis
        # ambient maximizer moves with the rotation; box frame does not
        assert np.allclose(info.x_star, R @ spec.maximum.x_star, atol=1e-9)
        assert np.allclose(rotated.z_star, spec.z_star, atol=1e-9)

    def test_interior_maximum_hugging_a_face(self):
        # critical point within one grid cell of the face is still interior
        spec = make_1d_problem(
            [(-0.5, (2,)), (0.985, (1,)), (-0.485112, (0,))], name="hug"
        )
        info = classify_maximum(spec, 64)
        assert info.kind == INTERIOR
        assert info.x_star[0] == pytest.approx(0.985, abs=1e-8)

    def test_non_unique_maximum(self):
        # two symmetric bumps tie far apart
        spec = make_1d_problem([(-1.0, (4,)), (1.0, (2,))], name="twin")
        with pytest.raises(NonUniqueMaximumError):
            classify_maximum(spec, 64)

    def test_ambiguous_near_face(self):
        # maximizer exactly on the face with vanishing inward derivative
        spec = make_1d_problem([(-1.0, (4,))], lower=0.0, upper=1.0, name="flat_face")
        with pytest.raises(AmbiguousMaximumError):
            classify_maximum(spec, 64)

    def test_grid_res_floor(self):
        spec = make_1d_problem([(-0.5, (2,))])
        with pytest.raises(ValueError):
            classify_maximum(spec, 4)

    def test_x_star_of_n_solved_once_per_n(self, monkeypatch):
        spec = problem_from_config({
            "name": "drift2d",
            "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
            "f": {"type": "polynomial",
                  "terms": [{"coeff": -0.5, "powers": [2, 0]}, {"coeff": -1.0, "powers": [0, 2]}]},
            "sigma": {"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [1, 0]}]},
            "epsilon": {"class": "power", "exponent": -0.75},
        })
        calls = []
        real = certlap.problems.locate_maximum

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(certlap.problems, "locate_maximum", counting)
        first = spec.z_star_of_N(400)
        assert np.array_equal(spec.z_star_of_N(400), first)
        assert len(calls) == 1
        # the cached solve is read-only; each read is a fresh writable copy
        cached = certlap.problems._maximizer_of_n(spec, 400, spec.z_star, None)
        assert not cached.flags.writeable and first.flags.writeable
        assert not np.shares_memory(first, cached)

    @pytest.mark.parametrize("perturbation", [
        {},
        {"sigma": {"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [1, 0]}]},
         "epsilon": {"class": "zero"}},
    ])
    def test_x_star_of_n_is_x_star_when_f_is_the_same_at_every_n(self, perturbation,
                                                                   monkeypatch):
        spec = problem_from_config({
            "name": "still2d",
            "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
            "f": {"type": "polynomial", "terms": [
                {"coeff": -0.5, "powers": [2, 0]}, {"coeff": -1.0, "powers": [0, 2]},
                {"coeff": 0.3, "powers": [1, 0]}, {"coeff": 0.1, "powers": [1, 1]}]},
            **perturbation,
        })
        assert spec.f_same_at_every_n
        calls = []
        real = certlap.problems.locate_maximum
        monkeypatch.setattr(certlap.problems, "locate_maximum",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        for n in (25, 100, 400, 1600, 12_345):
            assert _bits(spec.z_star_of_N(n)) == _bits(spec.maximum.x_star)
        assert calls == []

    def test_a_given_neighborhood_is_classified_once(self, monkeypatch):
        """default_n_zero runs once, on the given neighbourhood, wherever
        the package binds it."""
        calls = []
        real = certlap.problems.default_n_zero

        def counting(domain, neighborhood, *args, **kwargs):
            calls.append(neighborhood)
            return real(domain, neighborhood, *args, **kwargs)

        for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "certlap"]:
            if vars(mod).get("default_n_zero") is real:
                monkeypatch.setattr(mod, "default_n_zero", counting)
        spec = problem_from_config({
            "name": "drift2d",
            "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
            "f": {"type": "polynomial",
                  "terms": [{"coeff": -0.5, "powers": [2, 0]}, {"coeff": -1.0, "powers": [0, 2]}]},
            "sigma": {"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [1, 0]}]},
            "epsilon": {"class": "power", "exponent": -0.75},
            "neighborhood": {"lower": [-0.6, -0.7], "upper": [0.8, 0.7]},
        })
        assert len(calls) == 1 and calls[0] is spec.maximum.neighborhood
        assert spec.maximum.neighborhood.lower.tolist() == [-0.6, -0.7]
        assert spec.n_zero == spec.maximum.n_zero


class TestCatalog:
    def test_contract(self, specs):
        assert len(specs) >= 6
        kinds = {(s.dimension, s.maximum.kind) for s in specs.values()}
        assert (1, INTERIOR) in kinds and (1, BOUNDARY) in kinds
        assert (2, INTERIOR) in kinds and (2, BOUNDARY) in kinds
        assert (3, INTERIOR) in kinds
        assert any(
            s.sigma is not None and abs(s.epsilon.evaluate(16) - 16 ** -0.75) < 1e-15
            for s in specs.values()
        )

    def test_get_problem_builds_only_the_named_entry(self, monkeypatch):
        # every problem is built (and classified) in the grammar module
        calls = []
        real = certlap.grammar.classify_maximum

        def counting(spec, **kwargs):
            calls.append(spec.name)
            return real(spec, **kwargs)

        monkeypatch.setattr(certlap.grammar, "classify_maximum", counting)
        assert get_problem("gauss3d").name == "gauss3d"
        assert calls == ["gauss3d"]

    @pytest.mark.parametrize("name", list(HAND_WRITTEN))
    def test_entry_matches_the_hand_written_values(self, name):
        """The classified entry is bit for bit the hand-written one: an
        independent reference for the classification of every entry."""
        kind, axis, x_star, lower, upper, n_zero, schedule, eps, exact = HAND_WRITTEN[name]
        spec = get_problem(name)
        info = spec.maximum
        assert (info.kind, info.boundary_axis, spec.n_zero) == (kind, axis, n_zero)
        assert _bits(info.x_star) == _bits(x_star)
        assert _bits(info.neighborhood.lower) == _bits(lower)
        assert _bits(info.neighborhood.upper) == _bits(upper)
        assert (spec.epsilon.scale, spec.epsilon.exponent) == schedule
        assert (spec.g is UNIT_WEIGHT) == (name != "tilt2d")
        assert (spec.exact_integral is None) == (exact is None)
        for i, n in enumerate(SWEEP):
            eps_n = 0.0 if eps is None else eps[i]
            assert _bits(spec.epsilon.evaluate(n)) == _bits(eps_n)
            assert _bits(spec.z_star_of_N(n)) == _bits(x_star if eps is None else [eps_n])
            if exact is not None:
                assert _bits(spec.exact_integral(n)) == _bits(exact[i])

    def test_every_build_verifies_its_maximum_per_n(self, monkeypatch):
        """Each catalog build checks x*(N) against the neighbourhood it
        keeps, at N beyond the threshold it keeps."""
        checked = []
        real = certlap.problems._verify_per_n

        def recording(spec, info, z_of_n, side):
            checked.append((spec.name, info))
            return real(spec, info, z_of_n, side)

        monkeypatch.setattr(certlap.problems, "_verify_per_n", recording)
        specs = [get_problem(name) for name in catalog_names()]
        assert [name for name, _ in checked] == catalog_names()
        for (_, info), spec in zip(checked, specs):
            assert info.neighborhood is spec.maximum.neighborhood
            assert info.n_zero == spec.n_zero

    def test_names_match_entries(self, specs):
        assert catalog_names() == list(specs)
        assert [get_problem(name).name for name in catalog_names()] == catalog_names()

    def test_gauss1d_entry(self, specs):
        s = specs["gauss1d"]
        assert s.maximum.kind == INTERIOR
        assert float(s.g.evaluate(np.array([0.3]))) == 1.0

    def test_exp1d_exact(self, specs):
        s = specs["exp1d"]
        assert s.exact_integral(10) == pytest.approx((1 - math.exp(-10)) / 10, rel=1e-14)

    def test_mixed2d_exact_product(self, specs):
        # product structure: boundary factor times the Gaussian cross-section
        from scipy.integrate import quad

        s = specs["mixed2d"]
        n = 40
        tang, _ = quad(lambda t: math.exp(-n * t * t / 2.0), -1.0, 1.0, epsabs=1e-14)
        expected = (1 - math.exp(-n)) / n * tang
        assert s.exact_integral(n) == pytest.approx(expected, rel=1e-12)

    def test_maximizers_stay_in_neighborhood(self, specs):
        for s in specs.values():
            nb = s.maximum.neighborhood
            for n in (s.n_zero + 1, 4 * (s.n_zero + 1), 1600):
                z = s.z_star_of_N(n)
                assert np.all(z >= nb.lower - 1e-9) and np.all(z <= nb.upper + 1e-9), (
                    s.name, n)


def _lbfgsb_then_newton(fld, box, start):
    """Reference maximiser: scipy's L-BFGS-B on the box, then Newton steps
    on the coordinates strictly inside it until a step stops moving z (a
    gradient tolerance would leave an error of gtol over the curvature)."""
    from scipy import optimize

    res = optimize.minimize(
        lambda z: -float(fld.evaluate(z)), np.asarray(start, dtype=float),
        jac=lambda z: -np.asarray(fld.gradient(z), dtype=float), method="L-BFGS-B",
        bounds=list(zip(box.lower, box.upper)),
        options={"maxiter": 500, "ftol": 1e-16, "gtol": 1e-11},
    )
    z = res.x
    for _ in range(40):
        inner = [i for i in range(box.dimension)
                 if box.lower[i] + 1e-13 < z[i] < box.upper[i] - 1e-13]
        if not inner:
            break
        g = fld.gradient(z)[inner]
        step = np.linalg.solve(fld.hessian(z)[np.ix_(inner, inner)], -g)
        z_new = z.copy()
        z_new[inner] += step
        z_new = box.clip(z_new)
        if np.max(np.abs(z_new - z)) < 1e-15:
            break
        z = z_new
    return z


class TestLocateMaximum:
    locate = staticmethod(certlap.problems.locate_maximum)

    def test_axis_at_a_bound_with_outward_gradient_is_held(self):
        # f = x - y^2 + 0.5 x y: df/dx > 0 on the whole box, so x ends at its
        # upper bound and y maximises -y^2 + 0.5 y there; -H is indefinite
        box = BoxDomain([-1.0, -1.0], [1.0, 1.0])
        f = polynomial_field([(1.0, (1, 0)), (-1.0, (0, 2)), (0.5, (1, 1))])
        z, value = self.locate(f, box, [0.0, 0.0])
        assert z[0] == 1.0
        assert z[1] == pytest.approx(0.25, abs=1e-12)
        assert value == pytest.approx(1.0625, abs=1e-14)

    def test_axis_rounded_just_inside_its_bound_is_held(self):
        # capped Newton steps carry y from -1 towards 0.5, and the last one
        # lands an ulp short of the bound, where the gradient still points
        # out; y must be held there so that x can reach its own optimum
        K = np.array([[0.2 + 0.046875**2, 0.046875], [0.046875, 1.2]])
        f = polynomial_field([(-0.5 * K[0, 0], (2, 0)), (-K[0, 1], (1, 1)),
                              (-0.5 * K[1, 1], (0, 2)), (1.0, (0, 1))])
        box = BoxDomain([-1.0, -1.0], [1.0, 0.5])
        z, _ = self.locate(f, box, [0.0, -1.0])
        np.testing.assert_allclose(z, [-0.5 * K[0, 1] / K[0, 0], 0.5], rtol=0, atol=1e-12)

    def test_fixed_axis_pins_a_face(self):
        # at x = -1 the gradient points into the box, but the axis is pinned:
        # the maximum of -(y - 0.2)^2 - 0.5 y over y is y = -0.05
        box = BoxDomain([-1.0, -1.0], [1.0, 1.0])
        f = polynomial_field([(-1.0, (2, 0)), (0.6, (1, 0)), (-1.0, (0, 2)), (0.4, (0, 1)),
                              (0.5, (1, 1))])
        assert f.gradient(np.array([-1.0, 0.0]))[0] > 0
        z, _ = self.locate(f, box, [0.5, 0.5], fixed_axes={0: -1.0})
        assert z[0] == -1.0
        assert z[1] == pytest.approx(-0.05, abs=1e-12)

    def test_indefinite_start_takes_gradient_steps(self):
        # f = x^2 / 2 - x^4 / 4 has a local minimum at 0 and its maximum on
        # [-0.5, 2] at 1; at the start -f'' < 0, so no Newton step exists
        box = BoxDomain([-0.5], [2.0])
        f = polynomial_field([(0.5, (2,)), (-0.25, (4,))])
        assert -f.hessian(np.array([0.1]))[0, 0] < 0
        z, value = self.locate(f, box, [0.1])
        assert z[0] == pytest.approx(1.0, abs=1e-12)
        assert value == pytest.approx(0.25, abs=1e-15)

    def test_saddle_start_in_two_dimensions(self):
        box = BoxDomain([-0.5, -1.0], [2.0, 1.0])
        f = polynomial_field([(0.5, (2, 0)), (-0.25, (4, 0)), (-1.0, (0, 2)), (0.3, (0, 1))])
        z, _ = self.locate(f, box, [0.05, 0.9])
        np.testing.assert_allclose(z, [1.0, 0.15], atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(_term_lists(), st.data())
    def test_tilt_is_the_added_linear_field_bit_for_bit(self, case, data):
        """A tilt t maximizes f + t . x on f's own handles: the same (z,
        value), bit for bit, as the solve on the field add_fields(f,
        linear_field(t), 1.0), with or without a pinned axis."""
        terms, start = case
        m = start.size
        f = certlap.problems._term_field(terms)
        # entries from a generator, not hypothesis's round floats, and about
        # a third of them zero
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        t = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(-2.0, 2.0, m))
        fixed = None
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, m - 1))
            fixed = {i: start[i]}
        box = BoxDomain([-2.0] * m, [2.0] * m)
        ref = self.locate(add_fields(f, linear_field(t), 1.0), box, start, fixed)
        got = self.locate(f, box, start, fixed, tilt=t)
        assert _bits(got[0]) == _bits(ref[0]) and _bits(got[1]) == _bits(ref[1])

    def test_rank_one_free_block_takes_a_gradient_step(self):
        """-H of c x_1 exp(r . x) on the free axes 0 and 2 is r r^T times a
        scalar, rank one: Cholesky passes it on a pivot rounding left
        positive, and the LU solve finds it exactly singular.  The step is
        then a gradient step, and a tilt still gives the bits of the added
        linear field."""
        K = np.array([[0.008561298344544808, -0.008630846165807608],
                      [-0.008630846165807608, 0.008700958959723825]])
        g = np.array([-0.018549399829516155, 0.018700086126378756])
        np.linalg.cholesky(K)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(K, g)
        assert certlap.problems._newton_step(K, g) is None
        rate = np.array([0.46154045, 0.0, -0.46528978])
        f = certlap.problems._term_field([(-0.14553945247744202, ((1, 1),), rate)])
        box = BoxDomain([-2.0] * 3, [2.0] * 3)
        start = np.array([0.96167068, 0.37108397, 0.30091855])
        fixed = {1: start[1]}
        z, _ = self.locate(f, box, start, fixed)
        np.testing.assert_array_equal(z, [-2.0, start[1], 2.0])
        t = np.array([0.885953, 0.101417, 0.0])
        ref = self.locate(add_fields(f, linear_field(t), 1.0), box, start, fixed)
        got = self.locate(f, box, start, fixed, tilt=t)
        assert _bits(got[0]) == _bits(ref[0]) and _bits(got[1]) == _bits(ref[1])
        np.testing.assert_array_equal(got[0], [2.0, start[1], 2.0])

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 2),
        data=st.data(),
    )
    def test_matches_lbfgsb_reference(self, m, data):
        """A strictly concave quadratic plus a small cubic on a random box:
        the maximiser agrees with an L-BFGS-B + Newton reference to 1e-12,
        whether the maximum is interior or on a face."""
        floats = st.floats(-1.0, 1.0, allow_nan=False)
        L = np.array(data.draw(st.lists(floats, min_size=m * m, max_size=m * m))).reshape(m, m)
        K = L @ L.T + (0.2 + data.draw(st.floats(0.0, 1.0))) * np.eye(m)
        lam = float(np.min(np.linalg.eigvalsh(K)))
        lower = np.array(data.draw(st.lists(st.floats(-2.0, -0.25), min_size=m, max_size=m)))
        upper = np.array(data.draw(st.lists(st.floats(0.25, 2.0), min_size=m, max_size=m)))
        b = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m))
        # |f'''| times the box radius stays below the curvature, so f is
        # strictly concave on the box and its maximiser unique
        cubic = [lam / 40.0 * data.draw(st.floats(-1.0, 1.0)) for _ in range(m)]
        unit = np.eye(m, dtype=int)
        terms = [(-0.5 * K[i, j], tuple(unit[i] + unit[j])) for i in range(m) for j in range(m)]
        terms += [(b[i], tuple(unit[i])) for i in range(m)]
        terms += [(cubic[i], tuple(3 * unit[i])) for i in range(m)]
        f = polynomial_field(terms)
        box = BoxDomain(lower, upper)
        start = box.clip(np.array(data.draw(st.lists(floats, min_size=m, max_size=m))) * 2.0)
        z, value = self.locate(f, box, start)
        z_ref = _lbfgsb_then_newton(f, box, start)
        np.testing.assert_allclose(z, z_ref, rtol=0, atol=1e-12)
        assert value >= float(f.evaluate(z_ref)) - 1e-13


def _frame_rule(outer, inner, tol=1e-12):
    """``contains_box`` without its fast paths: the rotations compared
    entrywise, then the bounds."""
    return bool(np.allclose(inner.rotation, outer.rotation, rtol=0.0, atol=1e-14)
                and np.all(inner.lower >= outer.lower - tol)
                and np.all(inner.upper <= outer.upper + tol))


def _turn(th):
    return np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])


class TestContainsBox:
    """A box lies in another only in the same frame.  The same rotation
    object, or two identity frames, skip the entrywise comparison and give
    its answer."""

    def test_rotation_off_by_1e10_is_refused(self):
        outer = BoxDomain([-1.0, -1.0], [1.0, 1.0], _turn(0.3))
        for R in (_turn(0.3 + 1e-10), _turn(1e-10)):
            inner = BoxDomain([-0.5, -0.5], [0.5, 0.5], R)
            assert not outer.contains_box(inner)
        assert not BoxDomain([-1.0, -1.0], [1.0, 1.0]).contains_box(inner)
        # an equal rotation, a copy or the same object, is the same frame
        assert outer.contains_box(BoxDomain([-0.5, -0.5], [0.5, 0.5], _turn(0.3)))
        assert outer.contains_box(BoxDomain([-0.5, -0.5], [0.5, 0.5], outer.rotation))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_fast_paths_match_the_entrywise_rule(self, m):
        rng = np.random.default_rng(m)
        turns = [None, np.eye(m), np.linalg.qr(rng.normal(size=(m, m)))[0]]
        turns.append(turns[-1] + 1e-15)  # within the 1e-14 tolerance
        for _ in range(200):
            lo = rng.uniform(-2.0, -0.5, m)
            outer = BoxDomain(lo, lo + rng.uniform(1.0, 3.0, m), turns[rng.integers(4)])
            inner_lo = rng.uniform(-2.2, 0.0, m)
            share = rng.random() < 0.5  # the outer box's own rotation object
            R = outer.rotation if share else turns[rng.integers(4)]
            inner = BoxDomain(inner_lo, inner_lo + rng.uniform(0.1, 2.0, m), R)
            assert outer.contains_box(inner) == _frame_rule(outer, inner)


class TestBlockField:
    """``block_field`` keeps the terms whose support lies in a block, in
    their order, on the block's own axes."""

    def test_terms_reindexed_to_the_block(self):
        f = add_fields(
            polynomial_field([(-1.0, (2, 0, 0)), (0.7, (0, 0, 0)), (0.3, (0, 1, 1)),
                              (0.0, (1, 1, 0)), (-0.2, (0, 0, 3))]),
            exponential_field(2.0, [0.0, 0.5, -0.25]), 1.0)
        tail = f.terms[-1]
        yz = certlap.problems.block_field(f, (1, 2))
        assert yz.terms[:2] == ((0.3, ((0, 1), (1, 1)), None), (-0.2, ((1, 3),), None))
        assert yz.terms[2][0] == tail[0] and np.array_equal(yz.terms[2][2], [0.5, -0.25])
        # the zero term and the constant are dropped; with constants, the
        # constant is kept in its place
        assert certlap.problems.block_field(f, (0,)).terms == ((-1.0, ((0, 2),), None),)
        assert certlap.problems.block_field(f, (0,), constants=True).terms == (
            (-1.0, ((0, 2),), None), (0.7, (), None))
        assert certlap.problems.block_field(f, (0, 1)).terms == ((-1.0, ((0, 2),), None),)

    def test_blocks_sum_to_the_field_less_its_constants(self):
        f = polynomial_field([(-1.0, (2, 0, 0)), (0.7, (0, 0, 0)), (0.3, (0, 1, 1)),
                              (-0.2, (0, 0, 3)), (0.1, (1, 0, 0))])
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (50, 3))
        parts = [certlap.problems.block_field(f, b).evaluate(pts[:, list(b)])
                 for b in ((0,), (1, 2))]
        assert np.allclose(parts[0] + parts[1] + 0.7, f.evaluate(pts), rtol=0.0, atol=1e-15)


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-310, 1.0, -1.0, 1e308,
                math.inf, -math.inf, math.nan)


def _numpy_step(K: np.ndarray, g: np.ndarray):
    """The Newton step as LAPACK takes it: None where Cholesky refuses K."""
    try:
        np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(all="ignore"):
        return np.linalg.solve(K, g)


class TestNewtonStep:
    """One free axis takes the Newton test and step on Python floats, with
    the branch and the bits of numpy's Cholesky and solve."""

    @settings(max_examples=400, deadline=None)
    @given(k=st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(width=64)),
           g=st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(width=64)))
    @example(k=0.0, g=1.0)
    @example(k=-0.0, g=1.0)
    @example(k=math.nan, g=1.0)
    @example(k=math.inf, g=-2.0)
    @example(k=5e-324, g=3.0)
    @example(k=-2.0, g=0.5)
    def test_one_axis_matches_numpy(self, k, g):
        K, gv = np.array([[k]]), np.array([g])
        expected = _numpy_step(K, gv)
        got = certlap.problems._newton_step(K, gv)
        if expected is None:
            assert got is None
            return
        assert got is not None and got.shape == (1,) and got.dtype == np.float64
        assert np.array_equal(got, expected, equal_nan=True)
        assert math.isnan(got[0]) or np.signbit(got[0]) == np.signbit(expected[0])

    def test_two_axes_stay_on_lapack(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            A = rng.normal(size=(2, 2))
            for K in (A @ A.T + 0.1 * np.eye(2), -A @ A.T):
                g = rng.normal(size=2)
                expected = _numpy_step(K, g)
                got = certlap.problems._newton_step(K, g)
                assert (got is None) == (expected is None)
                assert got is None or np.array_equal(got, expected)


class TestContainsColumns:
    def test_transposed_copy_matches_rows(self):
        rng = np.random.default_rng(5)
        box = BoxDomain([-1.0, 0.0, -0.5], [1.0, 2.0, 0.5])
        z = rng.uniform(-1.5, 2.5, size=(2000, 3))
        z[::7, 1] = 2.0  # exactly on a bound
        for tol in (0.0, 1e-12):
            cols = np.ascontiguousarray(z.T)
            assert np.array_equal(box.contains_columns(cols, tol), box.contains_rows(z, tol))


class TestHeldAxisEndsOnTheBound:
    def test_axis_held_short_of_its_bound_ends_on_it(self):
        # f = -0.1 x^2 - x on [-0.99999, 0.99999] from 2e-13: the Newton step
        # stops 2e-13 inside the lower bound, within the 1e-13-edge hold, where
        # f is 1.6e-13 below its maximum on the bound
        f = polynomial_field([(-0.1, (2,)), (-1.0, (1,)), (0.0, (3,))])
        box = BoxDomain([-0.99999], [0.99999])
        z, value = certlap.problems.locate_maximum(f, box, [2e-13])
        assert z[0] == -0.99999
        assert value == float(f.evaluate(np.array([-0.99999])))


def _array_loop(fld, box, start, fixed_axes=None, tilt=None):
    """locate_maximum's loop with every mask, step and line search on numpy
    arrays, as it was written before it moved to Python floats: the
    reference its bits are held to."""
    t = [] if tilt is None else [(int(i), float(tilt[i])) for i in np.flatnonzero(tilt)]

    def value(z):
        v = float(fld.evaluate(z))
        for i, ti in t:
            v += float(z[i]) * ti
        return v

    fixed_axes = fixed_axes or {}
    z = np.asarray(start, dtype=float).copy()
    z[list(fixed_axes)] = list(fixed_axes.values())
    pinned = np.zeros(box.dimension, dtype=bool)
    pinned[list(fixed_axes)] = True
    cap, f = 0.25 * float(np.min(box.edges)), value(z)
    lower, upper = box.lower + 1e-13 * box.edges, box.upper - 1e-13 * box.edges
    for _ in range(200):
        g = fld.gradient(z)
        for i, ti in t:
            g[i] += ti
        out_low, out_up = ~pinned & (z <= lower) & (g < 0), ~pinned & (z >= upper) & (g > 0)
        free = ~(pinned | out_low | out_up)
        if not np.any(g[free]):
            if np.any(out_low | out_up):
                z_b = np.where(out_low, box.lower, np.where(out_up, box.upper, z))
                f_b = value(z_b)
                if f_b > f:
                    z, f = z_b, f_b
            break
        d_free = certlap.problems._newton_step(-fld.hessian(z)[free][:, free], g[free])
        newton = d_free is not None
        if not newton:
            if np.max(np.abs(g[free])) <= 1e-12:
                break
            d_free = g[free]
        d = np.zeros_like(z)
        d[free] = d_free * min(1.0, cap / float(np.max(np.abs(d_free))))
        slack = 1e-13 * max(1.0, abs(f))
        for k in range(41):
            z_t = box.clip(z + 0.5**k * d)
            f_t, rise = value(z_t), float(g @ (z_t - z))
            if (rise > 0 and f_t - f >= 1e-4 * rise) or (k == 0 and f_t >= f - slack):
                break
        else:
            break
        moved, z, f = float(np.max(np.abs(z_t - z))), z_t, f_t
        if moved <= (1e-9 * cap if newton else 0.0):
            break
    return z, f


_CLIP_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.5, -0.5, 1.0, -1.0, 2.0, math.inf,
                -math.inf, math.nan)


class TestPythonFloatLoop:
    """locate_maximum's masks, step scaling, clip and line search run on
    Python floats, with the bits of the same loop on numpy arrays."""

    @settings(max_examples=300, deadline=None)
    @given(x=st.one_of(st.sampled_from(_CLIP_FLOATS), st.floats(width=64)),
           lo=st.one_of(st.sampled_from(_CLIP_FLOATS[:-3]), st.floats(-1e3, 1e3)),
           width=st.one_of(st.just(0.0), st.floats(0.0, 1e3)))
    @example(x=0.0, lo=-0.0, width=0.0)
    @example(x=-0.0, lo=0.0, width=0.0)
    @example(x=0.0, lo=-1.0, width=1.0)  # up = -1.0 + 1.0 = 0.0
    def test_clip_is_numpys(self, x, lo, width):
        up = lo + width
        got = certlap.problems._clip(x, lo, up)
        ref = np.clip(np.array([x]), np.array([lo]), np.array([up]))[0]
        assert _bits(got) == _bits(ref)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(width=64)),
                    min_size=1, max_size=4))
    def test_abs_max_is_numpys(self, v):
        assert _bits(certlap.problems._abs_max(v)) == _bits(np.max(np.abs(np.array(v))))

    @settings(max_examples=150, deadline=None)
    @given(_term_lists(), st.data())
    def test_every_solve_is_the_array_loops_bit_for_bit(self, case, data):
        terms, start = case
        m = start.size
        f = certlap.problems._term_field(terms)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        lower = rng.uniform(-2.5, -0.5, m)
        box = BoxDomain(lower, lower + rng.uniform(0.5, 4.0, m))
        start = box.clip(start)
        tilt = None
        if data.draw(st.booleans()):
            tilt = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(-2.0, 2.0, m))
        fixed = None
        if data.draw(st.booleans()):
            i = data.draw(st.integers(0, m - 1))
            fixed = {i: start[i]}
        with np.errstate(all="ignore"):
            ref = _array_loop(f, box, start, fixed, tilt)
            got = certlap.problems.locate_maximum(f, box, start, fixed, tilt)
        assert _bits(got[0]) == _bits(ref[0]) and _bits(got[1]) == _bits(ref[1])

    def test_catalog_maximizers_are_the_array_loops(self):
        """Every x*(N) and tilted maximizer a drifting catalog problem asks
        for at the default sweep."""
        for name in ("drift1d", "eps1d", "viol1d"):
            spec = get_problem(name)
            for n in (25, 100, 400, 1600):
                z0 = spec.z_star_of_N(n)
                for tilt in (None, np.array([0.5 / n]), np.array([1.0 / math.sqrt(n)])):
                    start = spec.z_star if tilt is None else z0
                    got = certlap.problems.locate_maximum(spec.f_of_box(n), spec.domain,
                                                          start, None, tilt)
                    ref = _array_loop(spec.f_of_box(n), spec.domain, start, None, tilt)
                    assert _bits(got[0]) == _bits(ref[0]) and _bits(got[1]) == _bits(ref[1])


def _reference_n_zero(domain, neighborhood, kind, z_star_of_N):
    """default_n_zero's search with x*(N) solved at every probe."""
    def fits(n):
        return certlap.problems.window_fits(neighborhood, z_star_of_N(n), kind, n, domain)

    hi = 1
    while not fits(hi):
        hi *= 2
        if hi > 10**9:
            return None
    lo = hi // 2
    while hi - lo > 1 and lo >= 1:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return max(1, hi - 1)


class TestNZeroSkip:
    """default_n_zero refuses, without solving x*(N), an N whose window is
    wider than the neighborhood on an axis where the neighborhood stops
    short of both faces of the domain, and finds the same threshold."""

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 3), kind=st.sampled_from([INTERIOR, BOUNDARY]), data=st.data())
    def test_same_threshold_as_solving_every_probe(self, m, kind, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        lower = rng.uniform(-3.0, 0.0, m)
        domain = BoxDomain(lower, lower + rng.uniform(0.2, 3.0, m))
        # a neighborhood inside the domain, touching a face on some axes
        a, b = np.sort(rng.uniform(domain.lower, domain.upper, (2, m)), axis=0)
        a = np.where(rng.random(m) < 0.3, domain.lower, a)
        b = np.where(rng.random(m) < 0.3, domain.upper, np.maximum(b, a + 1e-3))
        b = np.minimum(b, domain.upper)
        nb = BoxDomain(a, b)
        z_inf = rng.uniform(a, b)
        drift = rng.uniform(-0.5, 0.5, m) * data.draw(st.sampled_from([0.0, 1e-3, 1.0]))
        rate = data.draw(st.sampled_from([0.25, 0.5, 1.0]))

        def z_of_n(n):
            return domain.clip(z_inf + drift * float(n) ** -rate)

        ref = _reference_n_zero(domain, nb, kind, z_of_n)
        if ref is None:
            with pytest.raises(DomainError):
                certlap.problems.default_n_zero(domain, nb, kind, z_of_n)
        else:
            assert certlap.problems.default_n_zero(domain, nb, kind, z_of_n) == ref

    def test_small_n_probes_are_not_solved(self):
        # drift1d: f = -x^2 / 2 + N^-1 x on [-1, 1], neighborhood [-0.25, 0.25]
        spec = get_problem("drift1d")
        nb = spec.maximum.neighborhood
        solved = []

        def z_of_n(n):
            solved.append(n)
            return spec.z_star_of_N(n)

        n_zero = certlap.problems.default_n_zero(spec.domain, nb, INTERIOR, z_of_n)
        assert n_zero == spec.n_zero
        # 2 N^-1/3 > width for every N below (2 / width)^3
        width = float(nb.upper[0] - nb.lower[0])
        assert solved and min(solved) > (2.0 / width) ** 3 / 2
        assert n_zero == _reference_n_zero(spec.domain, nb, INTERIOR, spec.z_star_of_N)


def _per_axis_neighborhood(domain, z_star, boundary_axis=None, boundary_side=None):
    """The default neighborhood by the per-axis loop it had before it was
    one clip rule: the reference for ``default_neighborhood``."""
    z_star = np.asarray(z_star, dtype=float)
    m = domain.dimension
    dists = []
    for j in range(m):
        for side, bound in ((0, domain.lower[j]), (1, domain.upper[j])):
            if boundary_axis is not None and j == boundary_axis and side == boundary_side:
                continue
            dists.append(abs(z_star[j] - bound))
    d = min(dists)
    lo, up = np.array(domain.lower), np.array(domain.upper)
    out_lo, out_up = np.empty(m), np.empty(m)
    for i in range(m):
        hw = min(0.25 * (up[i] - lo[i]), d)
        if boundary_axis is not None and i == boundary_axis:
            if boundary_side == 0:
                out_lo[i], out_up[i] = lo[i], min(up[i], lo[i] + hw)
            else:
                out_lo[i], out_up[i] = max(lo[i], up[i] - hw), up[i]
        else:
            out_lo[i] = max(lo[i], z_star[i] - hw)
            out_up[i] = min(up[i], z_star[i] + hw)
    return out_lo, out_up


@st.composite
def _maximizers(draw):
    """A box of 1-4 axes, a point off its faces and, half the time, a
    maximizing face with the point moved onto it, its coordinate the face
    value exactly, as ``classify_maximum`` leaves it."""
    m = draw(st.integers(1, 4))
    lower = np.array([draw(st.floats(-10.0, 10.0)) for _ in range(m)])
    edges = np.array([draw(st.floats(1e-3, 20.0)) for _ in range(m)])
    upper = lower + edges
    z = lower + edges * np.array([draw(st.floats(0.01, 0.99)) for _ in range(m)])
    axis = side = None
    if draw(st.booleans()):
        axis, side = draw(st.integers(0, m - 1)), draw(st.integers(0, 1))
        z[axis] = (lower, upper)[side][axis]
    return BoxDomain(lower, upper), z, axis, side


@settings(max_examples=300, deadline=None)
@given(_maximizers())
def test_default_neighborhood_is_one_clip_rule(case):
    """The one clip rule gives the per-axis loop's box bit for bit."""
    from certlap import default_neighborhood

    domain, z, axis, side = case
    nb = default_neighborhood(domain, z, axis, side)
    want_lo, want_up = _per_axis_neighborhood(domain, z, axis, side)
    assert np.array_equal(nb.lower, want_lo) and np.array_equal(nb.upper, want_up)
