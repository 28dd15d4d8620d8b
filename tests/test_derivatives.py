import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certlap import (
    BoxDomain,
    bundle_at,
    default_fd_step,
    derivatives,
    estimate_constants,
    polynomial_field,
    third_tensor_norm_bound,
)
from certlap.catalog import catalog
from certlap.derivatives import (
    DerivativeBundle,
    field_values,
    gradient_at,
    gradients_on,
    hessian_at,
    hessians_on,
    third_norms_on,
)
from certlap.errors import FieldEvaluationError, StepSizeError
from certlap.problems import ScalarField


def strip_analytic(field):
    return ScalarField(field.evaluate, name=field.name + "_fd_only")


class TestFieldValues:
    def test_batch_shape(self):
        f = polynomial_field([(1.0, (1, 1))])
        assert field_values(f, np.ones((4, 3, 2))).shape == (4, 3)

    def test_pointwise_callable_is_refused(self):
        # a callable written for single points silently sums over a batch
        f = ScalarField(lambda x: float(np.sum(np.asarray(x) ** 2)), name="pointwise")
        with pytest.raises(FieldEvaluationError):
            field_values(f, np.zeros((5, 2)))


class TestBundleAt:
    def test_quadratic_exact(self):
        f = strip_analytic(polynomial_field([(-0.5, (2,))]))
        b = bundle_at(f, np.array([0.3]), 1e-4)
        assert b.source == "finite_difference"
        assert b.gradient[0] == pytest.approx(-0.3, abs=1e-6)
        assert b.hessian[0, 0] == pytest.approx(-1.0, abs=1e-6)
        assert b.third[0, 0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_cubic_third(self):
        f = strip_analytic(polynomial_field([(1.0, (3,))]))
        b = bundle_at(f, np.array([1.0]), 1e-4)
        assert b.third[0, 0, 0] == pytest.approx(6.0, abs=1e-3)

    def test_2d_quadratic_form(self):
        f = strip_analytic(
            polynomial_field([(-0.5, (2, 0)), (-1.0, (1, 1)), (-1.0, (0, 2))])
        )
        b = bundle_at(f, np.zeros(2), 1e-4)
        assert np.allclose(b.hessian, [[-1.0, -1.0], [-1.0, -2.0]], atol=1e-6)

    def test_analytic_passthrough(self):
        f = polynomial_field([(1.0, (3,))])
        b = bundle_at(f, np.array([1.0]), 1e-4)
        assert b.source == "analytic"
        assert b.third[0, 0, 0] == 6.0

    def test_one_sided_at_face(self):
        box = BoxDomain([0.0], [1.0])
        f = strip_analytic(polynomial_field([(-1.0, (1,)), (0.5, (2,))]))
        b = bundle_at(f, np.zeros(1), 1e-5, box=box)
        assert b.gradient[0] == pytest.approx(-1.0, abs=1e-7)
        assert b.hessian[0, 0] == pytest.approx(1.0, abs=1e-4)

    def test_step_errors(self):
        f = polynomial_field([(-0.5, (2,))])
        with pytest.raises(StepSizeError):
            bundle_at(f, np.zeros(1), 0.0)
        with pytest.raises(StepSizeError):
            bundle_at(strip_analytic(f), np.zeros(1), 0.5, box=BoxDomain([-1.0], [1.0]))


class TestTensorBound:
    def test_zero(self):
        assert third_tensor_norm_bound(np.zeros((2, 2, 2))) == 0.0

    def test_scalar(self):
        assert third_tensor_norm_bound(np.full((1, 1, 1), 6.0)) == pytest.approx(6.0)

    def test_axis_tensor(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 1.0
        assert third_tensor_norm_bound(t) == pytest.approx(1.0)
        # injective norm of the rank-one axis tensor is also 1
        u = np.array([1.0, 0.0])
        assert abs(np.einsum("ijk,i,j,k", t, u, u, u)) == pytest.approx(1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_soundness_vs_random_unit_vectors(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        t = rng.normal(size=(m, m, m))
        sym = np.zeros_like(t)
        import itertools

        for p in itertools.permutations(range(3)):
            sym += np.transpose(t, p)
        sym /= 6.0
        bound = third_tensor_norm_bound(sym)
        for _ in range(100):
            u = rng.normal(size=m)
            u /= np.linalg.norm(u)
            assert abs(np.einsum("ijk,i,j,k", sym, u, u, u)) <= bound + 1e-12

    def test_taylor_cubic_quadratic_field(self):
        from certlap import get_problem

        spec = get_problem("mixed2d")
        b = bundle_at(spec.f_limit_box, spec.z_star + 0.3, 1e-4)
        assert third_tensor_norm_bound(b.third) == pytest.approx(0.0, abs=1e-10)


class TestFdConsistency:
    @pytest.mark.parametrize("name", [s.name for s in catalog()])
    def test_fd_matches_analytic(self, specs, name):
        spec = specs[name]
        box = spec.domain
        rng = np.random.default_rng(42)
        f = spec.f_limit_box
        bare = strip_analytic(f)
        h = 1e-4 * float(np.min(box.edges))
        # interior points with room for centered stencils
        margin = 0.15 * box.edges
        pts = rng.uniform(box.lower + margin, box.upper - margin, size=(20, box.dimension))
        for p in pts:
            ana = bundle_at(f, p, h)
            fd = bundle_at(bare, p, h)
            assert np.max(np.abs(ana.gradient - fd.gradient)) <= 1e-5
            assert np.max(np.abs(ana.hessian - fd.hessian)) <= 1e-4
            assert np.max(np.abs(ana.third - fd.third)) <= 1e-2

    def test_richardson(self):
        # halving the step cuts the gradient FD error by at least 3x
        f = polynomial_field([(-0.5, (2,)), (-1.0 / 6.0, (3,))])
        bare = strip_analytic(f)
        x = np.array([0.3])
        exact = f.gradient(x)[0]
        errs = []
        for h in (2e-3, 1e-3):
            errs.append(abs(bundle_at(bare, x, h).gradient[0] - exact))
        assert errs[0] / errs[1] >= 3.0

    def test_bundle_invariants(self):
        f = polynomial_field([(-0.5, (2, 0)), (0.25, (1, 2)), (-0.125, (0, 4))])
        b = bundle_at(strip_analytic(f), np.array([0.2, -0.1]), 1e-4)
        assert isinstance(b, DerivativeBundle)
        assert np.allclose(b.hessian, b.hessian.T, rtol=1e-10, atol=1e-12)
        import itertools

        scale = max(1.0, np.max(np.abs(b.third)))
        for p in itertools.permutations(range(3)):
            assert np.max(np.abs(b.third - np.transpose(b.third, p))) / scale <= 1e-8


class TestStencilPath:
    """Fields without analytic handles: one batched stencil path."""

    def test_evaluate_calls_do_not_grow_with_the_points(self):
        f = polynomial_field([(-0.5, (2, 0)), (0.25, (1, 2)), (-0.125, (0, 4))])
        box = BoxDomain([-1.0, -1.0], [1.0, 1.0])
        rng = np.random.default_rng(0)

        def calls(fn, k):
            count = []

            def ev(pts):
                count.append(1)
                return f.evaluate(pts)

            fn(ScalarField(ev, name="counted"), rng.uniform(-1, 1, size=(k, 2)), box, 1e-4)
            return len(count)

        for fn in (gradients_on, hessians_on, third_norms_on):
            assert calls(fn, 10) == calls(fn, 1000)

    @pytest.mark.parametrize("name", [s.name for s in catalog()])
    def test_matches_analytic_on_the_grid(self, specs, name):
        spec = specs[name]
        box = spec.domain
        pts = box.grid_points(8)  # the faces need the one-sided stencils
        h = default_fd_step(box)
        for f in (spec.f_limit_box, spec.sigma_box, spec.g_box):
            if f is None:
                continue
            bare = strip_analytic(f)
            for fn, step, tol in (
                (gradients_on, h, 1e-6), (hessians_on, h, 1e-5), (third_norms_on, 10 * h, 1e-2)
            ):
                assert np.max(np.abs(fn(bare, pts, box, step) - fn(f, pts, box, step))) <= tol

    @pytest.mark.parametrize("name", ["quartic1d", "mixed2d", "boundary3d"])
    def test_point_helpers_are_rows_of_the_batch(self, specs, name):
        spec = specs[name]
        box = spec.domain
        bare = strip_analytic(spec.f_limit_box)
        pts = box.grid_points(4)
        h = default_fd_step(box)
        grads = gradients_on(bare, pts, box, h)
        hess = hessians_on(bare, pts, box, h)
        thirds = derivatives._thirds(bare, pts, box, h, 10 * h)
        for i, p in enumerate(pts):
            b = bundle_at(bare, p, h, box=box)
            assert np.array_equal(gradient_at(bare, p, box, h), grads[i])
            assert np.array_equal(hessian_at(bare, p, box, h), hess[i])
            assert np.array_equal(b.gradient, grads[i])
            assert np.array_equal(b.hessian, hess[i])
            assert np.array_equal(b.third, thirds[i])

    def test_opaque_3d_constants_are_practical(self, specs):
        spec = specs["gauss3d"]
        opaque = dataclasses.replace(
            spec, f_limit=strip_analytic(spec.f_limit), g=strip_analytic(spec.g)
        )
        start = time.perf_counter()
        estimate_constants(opaque, grid_res=16)
        assert time.perf_counter() - start < 2.0
