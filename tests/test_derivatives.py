import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certlap import polynomial_field
from certlap.catalog import catalog
from certlap.derivatives import third_norms_on


class TestFieldValues:
    def test_batch_shape(self):
        f = polynomial_field([(1.0, (1, 1))])
        assert f.evaluate(np.ones((4, 3, 2))).shape == (4, 3)


class TestTensorBound:
    """third_norms_on is the Frobenius norm of the third tensor, which
    dominates its injective norm sup_{|u|=1} |T(u, u, u)|."""

    def test_zero(self):
        f = polynomial_field([(1.0, (2, 0)), (-3.0, (1, 1))])
        assert third_norms_on(f, np.array([0.3, -0.2])) == 0.0

    def test_scalar(self):
        f = polynomial_field([(1.0, (3,))])  # f''' = 6
        assert third_norms_on(f, np.array([0.4])) == pytest.approx(6.0)

    def test_axis_tensor(self):
        f = polynomial_field([(1.0 / 6.0, (3, 0))])  # T[0, 0, 0] = 1
        pt = np.array([0.2, -0.7])
        assert third_norms_on(f, pt) == pytest.approx(1.0)
        # injective norm of the rank-one axis tensor is also 1
        u = np.array([1.0, 0.0])
        assert abs(np.einsum("ijk,i,j,k", f.third_tensor(pt), u, u, u)) == pytest.approx(1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_soundness_vs_random_unit_vectors(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        t = rng.normal(size=(m, m, m))
        sym = np.zeros_like(t)
        for p in itertools.permutations(range(3)):
            sym += np.transpose(t, p)
        sym /= 6.0
        # the cubic sum_ijk sym_ijk x_i x_j x_k / 6, whose third tensor is sym
        terms = []
        for idx in itertools.combinations_with_replacement(range(m), 3):
            orderings = len(set(itertools.permutations(idx)))
            terms.append((sym[idx] * orderings / 6.0, tuple(idx.count(i) for i in range(m))))
        f = polynomial_field(terms)
        pt = rng.uniform(-1.0, 1.0, size=m)
        assert np.allclose(f.third_tensor(pt), sym, rtol=1e-12, atol=1e-12)
        bound = third_norms_on(f, pt)
        for _ in range(100):
            u = rng.normal(size=m)
            u /= np.linalg.norm(u)
            assert abs(np.einsum("ijk,i,j,k", sym, u, u, u)) <= bound + 1e-12

    def test_taylor_cubic_quadratic_field(self, specs):
        spec = specs["mixed2d"]
        assert third_norms_on(spec.f_limit_box, spec.z_star + 0.3) == pytest.approx(0.0, abs=1e-10)


def _central(values, x, h):
    """Second-order central differences of ``values`` at the point x: the
    first differences (m,) and the second differences (m, m), the diagonal
    from the three-point rule and the rest from the four corners."""
    m = len(x)
    e = h * np.eye(m)
    f0 = values(x)
    grad = np.array([(values(x + e[i]) - values(x - e[i])) / (2 * h) for i in range(m)])
    hess = np.empty((m, m))
    for i in range(m):
        hess[i, i] = (values(x + e[i]) - 2 * f0 + values(x - e[i])) / h**2
        for j in range(i + 1, m):
            hess[i, j] = hess[j, i] = (
                values(x + e[i] + e[j]) - values(x + e[i] - e[j])
                - values(x - e[i] + e[j]) + values(x - e[i] - e[j])
            ) / (4 * h * h)
    return grad, hess


class TestFdConsistency:
    @pytest.mark.parametrize("name", [s.name for s in catalog()])
    def test_fd_matches_analytic(self, specs, name):
        """The gradient and Hessian handles of every box-frame field of every
        catalog problem agree with central differences of its ``evaluate``."""
        spec = specs[name]
        box = spec.domain
        rng = np.random.default_rng(42)
        h = 1e-4 * float(np.min(box.edges))
        margin = 0.15 * box.edges
        pts = rng.uniform(box.lower + margin, box.upper - margin, size=(20, box.dimension))
        for f in (spec.f_limit_box, spec.sigma_box, spec.g_box):
            if f is None:
                continue

            def values(x, f=f):
                return float(f.evaluate(x))

            for p in pts:
                grad, hess = _central(values, p, h)
                assert np.max(np.abs(f.gradient(p) - grad)) <= 1e-5
                assert np.max(np.abs(f.hessian(p) - hess)) <= 1e-4
