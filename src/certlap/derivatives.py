"""The derivative handles of a term-list field on grids of points, and the
norm machinery the remainder constants are built from.  A field's values
come from ``ScalarField.evaluate`` itself.

Every field is a term list, so its gradient, Hessian and third tensor are
exact: the product rule on the terms (``problems._term_handles``).  The
third-tensor "norm" is the Frobenius upper bound of the injective norm:
cheap and conservative, so every bound assembled from it stays a bound.
Everything in this module is a pure function, safe for concurrent use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .problems import ScalarField


def gradients_on(fld: ScalarField, pts: np.ndarray) -> np.ndarray:
    return np.asarray(fld.gradient(pts), dtype=float)


def hessians_on(fld: ScalarField, pts: np.ndarray) -> np.ndarray:
    return np.asarray(fld.hessian(pts), dtype=float)


def third_norms_on(fld: ScalarField, pts: np.ndarray) -> np.ndarray:
    """Frobenius norms of the third tensors at ``pts``.  The squares are
    summed one index at a time, the last first, so where only the (i, i, i)
    entries are nonzero the squared norm is the sum of their squares in axis
    order."""
    T = np.asarray(fld.third_tensor(pts), dtype=float)
    return np.sqrt(np.sum(np.sum(np.sum(T * T, axis=-1), axis=-1), axis=-1))
