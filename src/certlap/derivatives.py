"""Field evaluation, gradients, Hessians and third-derivative tensors (the
product-rule handles of a term-list field, or second-order finite
differences of an opaque one), plus the norm machinery the remainder
constants are built from.

This module holds the only difference stencils in the package and the one
function that applies them, ``_stencil``: a tensor product of 1-d stencils
on a whole batch of points, evaluated in one ``field_values`` call, so a
field without analytic derivatives is practical on a grid.  The third-tensor
"norm" is the Frobenius upper bound of the injective norm: cheap and
conservative, so every bound assembled from it stays a bound.  Everything
in this module is a pure function, safe for concurrent use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import FieldEvaluationError, StepSizeError

if TYPE_CHECKING:
    from .problems import BoxDomain, ScalarField

# second-order 1-d stencils for the first and second derivative: offsets (in
# units of h), coefficients and the power of h they divide by, one row per
# side (central, forward, backward); central rows are padded with zero weights
_D1 = (
    np.array([[-1.0, 0.0, 1.0], [0.0, 1.0, 2.0], [-2.0, -1.0, 0.0]]),
    np.array([[-0.5, 0.0, 0.5], [-1.5, 2.0, -0.5], [0.5, -2.0, 1.5]]),
    1,
)
_D2 = (
    np.array([[-1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 2.0, 3.0], [-3.0, -2.0, -1.0, 0.0]]),
    np.array([[1.0, -2.0, 1.0, 0.0], [2.0, -5.0, 4.0, -1.0], [-1.0, 4.0, -5.0, 2.0]]),
    2,
)
_CHUNK = 16_384  # points differenced at once; bounds the stencil buffers


@dataclass(frozen=True)
class DerivativeBundle:
    gradient: np.ndarray
    hessian: np.ndarray
    third: np.ndarray
    fd_step: float
    source: str  # analytic | finite_difference


def default_fd_step(box: BoxDomain) -> float:
    """1e-4 of the smallest box edge: the gradient and Hessian step."""
    return 1e-4 * float(np.min(box.edges))


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


def _sides(pts: np.ndarray, box: Optional[BoxDomain], room: float) -> np.ndarray:
    """Stencil row per point and axis: central with ``room`` to both faces,
    otherwise one-sided toward the farther face."""
    if box is None:
        return np.zeros(pts.shape, dtype=int)
    below, above = pts - box.lower, box.upper - pts
    return np.where((below >= room) & (above >= room), 0, np.where(above >= below, 1, 2))


def _stencil(fld: ScalarField, pts: np.ndarray, h: float, sides: np.ndarray, terms) -> np.ndarray:
    """Tensor product of the (axis, table) pairs in ``terms`` at each point
    of ``pts`` (k, m), with the row per point and axis that ``sides`` picks;
    one field_values call on the points repeated per node.  Shape (k,)."""
    k = len(pts)
    x, weights = pts, []
    for depth, (axis, (offs, coefs, power)) in enumerate(terms):
        row = sides[:, axis]
        shape = (k,) + (1,) * depth + (offs.shape[1],)
        x = np.repeat(x[..., None, :], offs.shape[1], axis=-2)
        x[..., axis] += (offs[row] * h).reshape(shape)
        weights.append((coefs[row] / h**power).reshape(shape))
    vals = field_values(fld, x)
    if not np.all(np.isfinite(vals)):
        raise FieldEvaluationError("non-finite field value in a difference stencil")
    # each row's weights sum to zero, so taking the first node's values off
    # keeps the sum and shrinks the round-off of the weighted terms
    vals = vals - vals[:, :1]
    for w in reversed(weights):
        vals = np.sum(w * vals, axis=-1)
    return vals


def _gradients(fld, pts, box, h):
    sides = _sides(pts, box, 2 * h)
    return np.stack([_stencil(fld, pts, h, sides, [(i, _D1)]) for i in range(pts.shape[-1])], -1)


def _hessians(fld, pts, box, h):
    """D2 on the diagonal and D1 x D1 off it."""
    sides = _sides(pts, box, 2 * h)
    m = pts.shape[-1]
    out = np.empty((len(pts), m, m))
    for i in range(m):
        out[:, i, i] = _stencil(fld, pts, h, sides, [(i, _D2)])
        for j in range(i + 1, m):
            out[:, i, j] = out[:, j, i] = _stencil(fld, pts, h, sides, [(i, _D1), (j, _D1)])
    return out


def _symmetrize3(t: np.ndarray) -> np.ndarray:
    """Mean over the permutations of the last three axes."""
    lead = tuple(range(t.ndim - 3))
    perms = itertools.permutations(range(t.ndim - 3, t.ndim))
    return sum(np.transpose(t, lead + p) for p in perms) / 6.0


def _thirds(fld, pts, box, h, h3):
    """Symmetrised third tensors at ``pts`` (k, m): D1 differences with step
    ``h3`` of the step-``h`` Hessians at the shifted points."""
    m = pts.shape[-1]
    offs, coefs, _ = _D1
    row = _sides(pts, box, 2 * h3 + 2 * h)
    # shifted[p, a, n] is point p moved by node n of its axis-a stencil
    shifted = pts[:, None, None, :] + (offs[row] * h3)[..., None] * np.eye(m)[:, None, :]
    H = _hessians(fld, shifted.reshape(-1, m), box, h).reshape(shifted.shape + (m,))
    return _symmetrize3(np.sum((coefs[row] / h3)[..., None, None] * H, axis=2))


def _chunked(fn, fld, pts, box, *steps) -> np.ndarray:
    """``fn`` on points of shape (..., m), _CHUNK points at a time."""
    flat = np.asarray(pts, dtype=float).reshape(-1, pts.shape[-1])
    parts = [fn(fld, flat[s:s + _CHUNK], box, *steps) for s in range(0, len(flat) or 1, _CHUNK)]
    out = np.concatenate(parts)
    return out.reshape(pts.shape[:-1] + out.shape[1:])


def gradients_on(fld: ScalarField, pts: np.ndarray, box: BoxDomain, h: float) -> np.ndarray:
    if fld.gradient is not None:
        return np.asarray(fld.gradient(pts), dtype=float)
    return _chunked(_gradients, fld, pts, box, h)


def hessians_on(fld: ScalarField, pts: np.ndarray, box: BoxDomain, h: float) -> np.ndarray:
    if fld.hessian is not None:
        return np.asarray(fld.hessian(pts), dtype=float)
    return _chunked(_hessians, fld, pts, box, h)


def third_norms_on(
    fld: ScalarField, pts: np.ndarray, box: BoxDomain, h: float, axes=None
) -> np.ndarray:
    """Frobenius norms of the third tensors at ``pts``, restricted to the
    entries on ``axes`` (default every axis): the analytic handle, or D1
    differences with step 10h of Hessians taken at step h.  The squares are
    summed one index at a time, the last first, so where only the (i, i, i)
    entries are nonzero the squared norm is the sum of their squares in
    axis order."""
    if fld.third_tensor is not None:
        T = np.asarray(fld.third_tensor(pts), dtype=float)
    else:
        T = _chunked(_thirds, fld, pts, box, h, 10 * h)
    if axes is not None and len(axes) < T.shape[-1]:
        idx = np.asarray(axes, dtype=np.intp)
        T = T[..., idx[:, None, None], idx[:, None], idx]
    return np.sqrt(np.sum(np.sum(np.sum(T * T, axis=-1), axis=-1), axis=-1))


def gradient_at(fld: ScalarField, z, box: BoxDomain, h: Optional[float] = None) -> np.ndarray:
    """Gradient at one point: the analytic handle when the field has one,
    otherwise the stencils above with step ``h`` (default 1e-6 of the
    smallest box edge), one-sided near a face."""
    z = np.asarray(z, dtype=float)
    if fld.gradient is not None:
        return np.asarray(fld.gradient(z), dtype=float)
    if h is None:
        h = 1e-6 * float(np.min(box.edges))
    return _gradients(fld, z[None], box, h)[0]


def hessian_at(fld: ScalarField, z, box: BoxDomain, h: Optional[float] = None) -> np.ndarray:
    """Hessian at one point: the analytic handle when the field has one,
    otherwise the stencils above with step ``h`` (default 1e-4 of the
    smallest box edge), one-sided near a face."""
    z = np.asarray(z, dtype=float)
    if fld.hessian is not None:
        return np.asarray(fld.hessian(z), dtype=float)
    if h is None:
        h = default_fd_step(box)
    return _hessians(fld, z[None], box, h)[0]


def bundle_at(
    fld: ScalarField,
    x,
    fd_step: float,
    box: Optional[BoxDomain] = None,
    third_step: Optional[float] = None,
) -> DerivativeBundle:
    """Derivatives of a scalar field at a point.

    The handles of a term-list field are used as they are: the product rule
    writes one value to every permutation of an index, so they are
    symmetric.  An opaque field gets second-order central differences,
    switching to one-sided stencils on axes that sit within two steps of a
    box face (pass ``box`` to enable that); the third tensor is differenced
    from Hessians with a 10x larger step by default and symmetrized."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if fd_step <= 0:
        raise StepSizeError("fd_step must be positive")
    if box is not None and fd_step > 0.1 * float(np.min(box.edges)):
        raise StepSizeError("fd_step exceeds 1e-1 of the smallest box edge")
    if third_step is None:
        third_step = 10.0 * fd_step

    if fld.gradient is not None:
        return DerivativeBundle(
            fld.gradient(x), fld.hessian(x), fld.third_tensor(x), fd_step, "analytic"
        )

    pts = x[None]
    grad = _gradients(fld, pts, box, fd_step)[0]
    hess = _hessians(fld, pts, box, fd_step)[0]
    third = _thirds(fld, pts, box, fd_step, third_step)[0]
    return DerivativeBundle(grad, hess, third, fd_step, "finite_difference")


def third_tensor_norm_bound(t) -> float:
    """Frobenius norm of a 3-tensor; dominates sup_{|u|=1} |t(u,u,u)|."""
    t = np.asarray(t, dtype=float)
    return float(np.sqrt(np.sum(t * t)))
