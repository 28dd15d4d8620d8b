"""Field evaluation, gradients, Hessians and third-derivative tensors
(analytic passthrough or second-order finite differences), plus the norm
machinery the remainder constants are built from.

This module holds the only difference stencils in the package.  The
third-tensor "norm" here is the Frobenius upper bound of the injective
norm: cheap, deterministic, and conservative, so every bound assembled from
it stays a bound.  Everything in this module is a pure function, safe for
concurrent use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import FieldEvaluationError, StepSizeError, SymmetryError

if TYPE_CHECKING:
    from .problems import BoxDomain, ScalarField

# second-order accurate one-dimensional stencils: offsets (in units of h) and
# coefficients for the first and second derivative, per side
_D1 = {
    "central": ((-1, 1), (-0.5, 0.5)),
    "forward": ((0, 1, 2), (-1.5, 2.0, -0.5)),
    "backward": ((-2, -1, 0), (0.5, -2.0, 1.5)),
}
_D2 = {
    "central": ((-1, 0, 1), (1.0, -2.0, 1.0)),
    "forward": ((0, 1, 2, 3), (2.0, -5.0, 4.0, -1.0)),
    "backward": ((-3, -2, -1, 0), (-1.0, 4.0, -5.0, 2.0)),
}


@dataclass(frozen=True)
class DerivativeBundle:
    gradient: np.ndarray
    hessian: np.ndarray
    third: np.ndarray
    fd_step: float
    source: str  # analytic | finite_difference


def default_fd_step(box: BoxDomain, order: int = 1) -> float:
    """1e-4 of the smallest box edge for gradient/Hessian stencils, 1e-3 for
    the third tensor (differences of Hessians lose one order)."""
    edge = float(np.min(box.edges))
    return (1e-4 if order < 3 else 1e-3) * edge


def field_values(fld: ScalarField, pts: np.ndarray) -> np.ndarray:
    """Evaluate a field on points of shape (..., m); returns shape (...).

    ``fld.evaluate`` must honour the batch contract of ScalarField; a result
    of any other shape raises FieldEvaluationError."""
    pts = np.asarray(pts, dtype=float)
    out = np.asarray(fld.evaluate(pts), dtype=float)
    if out.shape != pts.shape[:-1]:
        raise FieldEvaluationError(
            f"field {fld.name!r} returned shape {out.shape} for points of shape "
            f"{pts.shape}; evaluate must map (..., m) to (...)"
        )
    return out


def _pick_side(x_i: float, lo: float, hi: float, room: float) -> str:
    if x_i - lo >= room and hi - x_i >= room:
        return "central"
    return "forward" if hi - x_i >= x_i - lo else "backward"


def _sides(x: np.ndarray, box: Optional[BoxDomain], room: float) -> list[str]:
    m = x.size
    if box is None:
        return ["central"] * m
    return [_pick_side(x[i], box.lower[i], box.upper[i], room) for i in range(m)]


def _apply_stencils(fld: ScalarField, x: np.ndarray, specs) -> float:
    """Tensor composition of per-axis 1-d stencils; ``specs`` maps axis ->
    (h, offsets, coeffs)."""
    pts, weights = [x.copy()], [1.0]
    for axis, (h, offs, coefs) in specs.items():
        new_pts, new_w = [], []
        for p, w in zip(pts, weights):
            for o, c in zip(offs, coefs):
                q = p.copy()
                q[axis] += o * h
                new_pts.append(q)
                new_w.append(w * c / h)
        pts, weights = new_pts, new_w
    vals = field_values(fld, np.array(pts))
    if not np.all(np.isfinite(vals)):
        raise FieldEvaluationError("non-finite field value in a difference stencil")
    return float(np.dot(np.asarray(weights), vals))


def _fd_gradient(fld, x, h, box):
    sides = _sides(x, box, 2 * h)
    return np.array([_apply_stencils(fld, x, {i: (h, *_D1[sides[i]])}) for i in range(x.size)])


def _fd_hessian(fld, x, h, box):
    m = x.size
    sides = _sides(x, box, 2 * h)
    hess = np.empty((m, m))
    for i in range(m):
        offs2, coefs2 = _D2[sides[i]]
        # _apply_stencils divides by h once; pre-divide so the diagonal
        # second derivative carries the full 1/h^2
        hess[i, i] = _apply_stencils(fld, x, {i: (h, offs2, tuple(c / h for c in coefs2))})
    for i in range(m):
        for j in range(i + 1, m):
            v = _apply_stencils(fld, x, {i: (h, *_D1[sides[i]]), j: (h, *_D1[sides[j]])})
            hess[i, j] = hess[j, i] = v
    return 0.5 * (hess + hess.T)


def gradient_at(fld: ScalarField, z, box: BoxDomain, h: Optional[float] = None) -> np.ndarray:
    """Gradient at one point: the analytic handle when the field has one,
    otherwise the stencils above with step ``h`` (default 1e-6 of the
    smallest box edge), one-sided near a face."""
    z = np.asarray(z, dtype=float)
    if fld.gradient is not None:
        return np.asarray(fld.gradient(z), dtype=float)
    if h is None:
        h = 1e-6 * float(np.min(box.edges))
    return _fd_gradient(fld, z, h, box)


def hessian_at(fld: ScalarField, z, box: BoxDomain, h: Optional[float] = None) -> np.ndarray:
    """Hessian at one point: the analytic handle when the field has one,
    otherwise the stencils above with step ``h`` (default 1e-4 of the
    smallest box edge), one-sided near a face."""
    z = np.asarray(z, dtype=float)
    if fld.hessian is not None:
        return np.asarray(fld.hessian(z), dtype=float)
    if h is None:
        h = default_fd_step(box)
    return _fd_hessian(fld, z, h, box)


def _symmetrize3(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    for perm in itertools.permutations(range(3)):
        out += np.transpose(t, perm)
    return out / 6.0


def bundle_at(
    fld: ScalarField,
    x,
    fd_step: float,
    box: Optional[BoxDomain] = None,
    third_step: Optional[float] = None,
) -> DerivativeBundle:
    """Derivatives of a scalar field at a point.

    Analytic handles are used when the field provides all of them; otherwise
    second-order central differences, switching to one-sided stencils on
    axes that sit within two steps of a box face (pass ``box`` to enable
    that).  The third tensor is differenced from Hessians with a 10x larger
    step by default and symmetrized."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if fd_step <= 0:
        raise StepSizeError("fd_step must be positive")
    if box is not None and fd_step > 0.1 * float(np.min(box.edges)):
        raise StepSizeError("fd_step exceeds 1e-1 of the smallest box edge")
    if third_step is None:
        third_step = 10.0 * fd_step

    if fld.has_analytic:
        g = np.asarray(fld.gradient(x), dtype=float)
        H = np.asarray(fld.hessian(x), dtype=float)
        T = np.asarray(fld.third_tensor(x), dtype=float)
        rel = np.max(np.abs(H - H.T)) / max(1.0, np.max(np.abs(H)))
        if rel > 1e-10:
            raise SymmetryError(f"analytic Hessian asymmetric (rel {rel:.2e})")
        scale = max(1.0, float(np.max(np.abs(T))))
        for perm in itertools.permutations(range(3)):
            if np.max(np.abs(T - np.transpose(T, perm))) / scale > 1e-8:
                raise SymmetryError("analytic third tensor is not permutation symmetric")
        return DerivativeBundle(g, 0.5 * (H + H.T), _symmetrize3(T), fd_step, "analytic")

    grad = _fd_gradient(fld, x, fd_step, box)
    hess = _fd_hessian(fld, x, fd_step, box)
    m = x.size
    third = np.empty((m, m, m))
    h3 = third_step
    sides = _sides(x, box, 2 * h3 + 2 * fd_step)
    for k in range(m):
        offs, coefs = _D1[sides[k]]
        acc = np.zeros((m, m))
        for o, c in zip(offs, coefs):
            if c == 0.0:
                continue
            xp = x.copy()
            xp[k] += o * h3
            acc += (c / h3) * _fd_hessian(fld, xp, fd_step, box)
        third[k] = acc
    return DerivativeBundle(grad, hess, _symmetrize3(third), fd_step, "finite_difference")


def operator_norm_hessian(h) -> float:
    """Spectral norm of a symmetric matrix (largest absolute eigenvalue)."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    if h.size == 0:
        return 0.0
    scale = max(1.0, float(np.max(np.abs(h))))
    if np.max(np.abs(h - h.T)) > 1e-9 * scale:
        raise SymmetryError("matrix is not symmetric")
    return float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (h + h.T)))))


def min_singular_value(h) -> float:
    """Smallest absolute eigenvalue of a symmetric matrix; equals
    1 / ||h^-1|| when invertible and 0 when singular."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    if h.size == 0:
        return float("inf")
    return float(np.min(np.abs(np.linalg.eigvalsh(0.5 * (h + h.T)))))


def third_tensor_norm_bound(t) -> float:
    """Frobenius norm of a 3-tensor; dominates sup_{|u|=1} |t(u,u,u)|."""
    t = np.asarray(t, dtype=float)
    return float(np.sqrt(np.sum(t * t)))


def taylor_cubic_bound(t, radius: float) -> float:
    """Upper bound on |t(v, v, v)| over |v| <= radius."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return third_tensor_norm_bound(t) * float(radius) ** 3


# ---------------------------------------------------------------------------
# batched helpers used by the grid sweeps
# ---------------------------------------------------------------------------

def gradients_on(fld: ScalarField, pts: np.ndarray, box: BoxDomain, h: float) -> np.ndarray:
    if fld.gradient is not None:
        return np.asarray(fld.gradient(pts), dtype=float)
    out = np.empty_like(pts)
    for idx, p in enumerate(pts):
        out[idx] = _fd_gradient(fld, p, h, box)
    return out


def hessians_on(fld: ScalarField, pts: np.ndarray, box: BoxDomain, h: float) -> np.ndarray:
    if fld.hessian is not None:
        return np.asarray(fld.hessian(pts), dtype=float)
    m = pts.shape[-1]
    out = np.empty(pts.shape[:-1] + (m, m))
    for idx, p in enumerate(pts.reshape(-1, m)):
        out.reshape(-1, m, m)[idx] = _fd_hessian(fld, p, h, box)
    return out


def third_norms_on(fld: ScalarField, pts: np.ndarray, box: BoxDomain, h: float) -> np.ndarray:
    if fld.third_tensor is not None:
        T = np.asarray(fld.third_tensor(pts), dtype=float)
        return np.sqrt(np.sum(T * T, axis=(-3, -2, -1)))
    m = pts.shape[-1]
    vals = []
    for p in pts.reshape(-1, m):
        b = bundle_at(fld, p, h, box=box)
        vals.append(third_tensor_norm_bound(b.third))
    return np.array(vals).reshape(pts.shape[:-1])
