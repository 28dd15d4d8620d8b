"""Certified numeric derivative bounds over the neighborhood, the domain
complement, and the N-sweep.

Sup-type constants are grid maxima multiplied by the safety factor; inf-type
constants are grid minima divided by it.  The quantifier over all N > n_zero
is replaced by the finite sweep actually certified (recorded in the report),
and grids nest under doubling so refinement is monotone by construction.
Grid sweeps reduce through order-independent max/min, so results do not
depend on how a caller partitions the work.

The neighborhood extremes are taken block by block over the coupling of
f(., N) (``ScalarField.coupling``, with every axis no block reads a block of
its own).  f is a sum of functions of one block each, so its Hessian and
third tensor are block diagonal, each block's entries those of the block's
own field (``problems.block_field``) on the block's coordinates.  The
eigenvalues of a block-diagonal matrix are those of its blocks, and its
determinant is the product of theirs (Horn & Johnson, *Matrix Analysis*,
2nd ed., 2013, §0.9).  The neighborhood grid is the product of its blocks'
sub-grids, and each pointwise quantity is monotone in each block's term, so
its extreme over the grid is a combination of per-block extremes, each
taken on the block's own sub-grid: F2, the top eigenvalue
and F2_prime are the max / min over blocks, lambda and Lambda the products
of the blocks' least / largest |det| (exp of the summed log |det|, as
``np.linalg.det`` forms a determinant), F3 the root of the sum of the
blocks' largest squared norms, and F1_prime comes from the block holding
the exponential axis.  The sums run in axis order, as the full grid's do at
each node, so with one-axis blocks the result is the full grid's bit for
bit.  With blocks of several axes they are the same quantities rounded in
another order and can differ from the full grid's in the last bits: such a
block adds its log |det| and squared norm as one term where the full grid
adds them axis by axis, and LAPACK reduces a block whose axes are not
consecutive in another order.

A field whose coupling is None is one block: the full grid.  G and G1
are taken likewise on the axes g reads.  The complement gap and
``audit_constants`` stay pointwise.

f(., N) = f + eps(N) sigma is taken at each N of the sweep only where it
can change with N.  It is the same field at every N when sigma is None or
eps == 0.  Its curvature, the Hessian and third tensor behind F2, F3, the
top eigenvalue, F2_prime, lambda and Lambda, is the same at every N also
when every term of sigma in the box frame has total degree <= 1 and no
exp factor: the product rule then leaves no sigma term in a second or
third derivative, so the Hessian and third-tensor term lists are equal at
every N, and so is every value taken from them.  Such a quantity is taken
at the first N of the sweep alone, and the max / min over the sweep of
equal values is that value, bit for bit.  F1_prime (from the gradient)
and the complement gap (from f itself) are taken at every N unless f(., N)
is the same at every N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .derivatives import gradients_on, hessians_on, third_norms_on
from .errors import AssumptionViolationError, DefinitenessError, FieldEvaluationError
from .problems import ProblemSpec, axis_blocks, block_field, gauss_block, limit_axes, read_axes

# audit_constants draws this many neighbourhood points, and up to as many
# complement points, and allows each check this multiplicative slack
_AUDIT_POINTS = 1000
_AUDIT_SLACK = 1.0001


@dataclass(frozen=True)
class ConstantsReport:
    F2: float
    F2_prime: float
    F2_prime_Omega: float
    F3: float
    G: float
    G1: float
    lambda_det: float
    Lambda_det: float
    F1_prime: Optional[float]
    F1_prime_Omega: Optional[float]
    grid_res: int
    n_sweep: tuple[int, ...]
    safety_factor: float
    # 1e-4 of the smallest box edge, kept in the report schema; every
    # derivative is exact, so nothing reads it
    fd_step: float
    boundary_axis: Optional[int]
    problem: str


def _check_finite(arr, what):
    if not np.all(np.isfinite(arr)):
        raise FieldEvaluationError(f"non-finite {what} on the constants grid")


def _curvature_extremes(fld, pts, gauss) -> dict:
    """Extremes over ``pts`` of the pointwise quantities behind the
    curvature constants of ``fld``, keyed by constant name: ``top``, the
    largest eigenvalue on the Gaussian axes ``gauss`` (positions among
    ``fld``'s axes), and ``log_lambda`` / ``log_Lambda``, the least /
    largest log |det| there.  A field with no Gaussian axis (the
    exponential axis alone, or a one-dimensional boundary problem) has
    determinant 1 and no such eigenvalues."""
    H = hessians_on(fld, pts)
    _check_finite(H, "Hessian")
    eigs = np.linalg.eigvalsh(0.5 * (H + np.swapaxes(H, -1, -2)))
    T = third_norms_on(fld, pts)
    _check_finite(T, "third tensor")
    Hg = gauss_block(H, gauss)
    # on Gaussian axes only, Hg is H itself
    eig_g = eigs if Hg is H else np.linalg.eigvalsh(0.5 * (Hg + np.swapaxes(Hg, -1, -2)))
    # |det| = exp(log |det|), as np.linalg.det forms it
    log_dets = np.linalg.slogdet(Hg)[1]
    return {
        "F2": float(np.max(np.abs(eigs))),
        "F3": float(np.max(T)),
        "top": float(np.max(eig_g, initial=-math.inf)),
        "F2_prime": float(np.min(np.abs(eig_g), initial=math.inf)),
        "log_lambda": float(np.min(log_dets)),
        "log_Lambda": float(np.max(log_dets)),
    }


def _least_slope(f_n, pts, axis) -> float:
    """min |d f_n / d x_axis| over ``pts``: F1_prime before the safety
    factor."""
    grads = gradients_on(f_n, pts)
    _check_finite(grads, "gradient")
    return float(np.min(np.abs(grads[..., axis])))


def _n_sweeps(spec: ProblemSpec, n_sweep: tuple) -> tuple[tuple, tuple]:
    """(the N at which f(., N) must be taken, the N at which its curvature
    must be): the first N alone for a quantity that is the same at every N
    (module docstring)."""
    if spec.f_same_at_every_n:
        return n_sweep[:1], n_sweep[:1]
    return n_sweep, n_sweep[:1] if spec.curvature_same_at_every_n else n_sweep


def _fold(values) -> float:
    """Left-to-right float sum from 0: the order in which the full grid adds
    the blocks' terms at each node (``sum`` compensates on Python 3.12+)."""
    acc = 0.0
    for v in values:
        acc += v
    return acc


def _combine(exts) -> dict:
    """The extremes over a product of block grids from each block's
    extremes (``_curvature_extremes``, in axis order): every pointwise
    quantity is monotone in each block's term, so its extreme is that of
    the blocks' extremes."""
    return {
        "F2": max(e["F2"] for e in exts),
        "F3": math.sqrt(_fold(e["F3"] * e["F3"] for e in exts)),
        "top": max(e["top"] for e in exts),
        "F2_prime": min(e["F2_prime"] for e in exts),
        "lambda": math.exp(_fold(e["log_lambda"] for e in exts)),
        "Lambda": math.exp(_fold(e["log_Lambda"] for e in exts)),
    }


def _complement_drop(spec: ProblemSpec, N: int, f_n, out_pts):
    """(f(x*(N)) - f, |x - x*(N)|) at the complement points."""
    z_n = spec.z_star_of_N(N)
    f_star = float(f_n.evaluate(z_n))
    return f_star - f_n.evaluate(out_pts), np.linalg.norm(out_pts - z_n, axis=1)


def estimate_constants(
    spec: ProblemSpec,
    grid_res: int = 64,
    n_sweep=(25, 100, 400, 1600),
    safety_factor: float = 1.1,
) -> ConstantsReport:
    """Certified bounds on the derivative constants of one problem.

    The inverse-Hessian and determinant constants use the Hessian block on
    the Gaussian axes of ``limit_axes`` (the coordinates of the maximizing
    face at a boundary maximum) and F1_prime the inward derivative along
    the exponential axis; the full Hessian norm backs F2 in both cases.

    The neighborhood extremes are taken on each block of the coupling of
    f(., N) by the block's own field (``block_field``) on its sub-grid of
    the neighborhood grid.  Entries across blocks vanish identically and
    the node set is the full grid's, so combining the blocks' extremes
    (module docstring) is exact.  A field whose coupling is None is one
    block, the full grid.  G (on the domain grid) and G1 (on the
    neighborhood grid) are taken likewise on the axes g reads: one point,
    of no coordinates, for a constant g.  The complement
    gap is taken at every domain node outside the neighborhood, and the
    full domain grid is built only when there is such a node.

    The curvature extremes are taken at the first N of the sweep alone
    when sigma is None, eps == 0 or sigma is affine (no exp factor, total
    degree <= 1), and F1_prime and the gap when sigma is None or eps == 0:
    they are then the same at every N (module docstring).
    """
    if grid_res < 16:
        raise ValueError("grid_res must be at least 16 per axis")
    n_sweep = tuple(int(n) for n in n_sweep)
    if not n_sweep:
        raise ValueError("n_sweep must be nonempty")
    if any(n <= spec.n_zero for n in n_sweep):
        raise ValueError(f"every sweep N must exceed n_zero={spec.n_zero}")
    if safety_factor < 1.0:
        raise ValueError("safety_factor must be at least 1")

    box = spec.domain
    nb = spec.maximum.neighborhood
    m = box.dimension
    axis, gauss, _ = limit_axes(spec)

    # a domain node lies outside the neighborhood iff one of its coordinates does
    has_outside = any(
        np.any((nodes < nb.lower[i] - 1e-12) | (nodes > nb.upper[i] + 1e-12))
        for i, nodes in enumerate(box.grid_axes(grid_res))
    )
    g_axes = read_axes(spec.g_box.coupling, m)
    g_b = block_field(spec.g_box, g_axes, constants=True)
    g_abs = np.abs(g_b.evaluate(box.grid_points(grid_res, g_axes)))
    _check_finite(g_abs, "g")
    G = float(np.max(g_abs))
    g_grads = gradients_on(g_b, nb.grid_points(grid_res, g_axes))
    _check_finite(g_grads, "grad g")
    G1 = float(np.max(np.linalg.norm(g_grads, axis=-1)))

    f_sweep, curvature_sweep = _n_sweeps(spec, n_sweep)

    F2 = F3 = Lam = -math.inf
    F2p = lam = F1p = math.inf
    gap2 = gap1 = math.inf

    for N in f_sweep:
        f_n = spec.f_of_box(N)
        exts = []
        for b in axis_blocks(f_n.coupling, m):
            f_b, pts = block_field(f_n, b), nb.grid_points(grid_res, b)
            if N in curvature_sweep:  # the Gaussian axes as positions in b
                exts.append(_curvature_extremes(f_b, pts, [b.index(i) for i in b if i in gauss]))
            if axis in b:
                F1p = min(F1p, _least_slope(f_b, pts, b.index(axis)))
        if not exts:
            continue  # the first N's curvature is this N's
        ext = _combine(exts)
        if ext["top"] >= 0.0:
            raise DefinitenessError(
                f"Hessian on the Gaussian axes not negative definite on the neighborhood "
                f"grid (N={N})"
            )
        F2 = max(F2, ext["F2"])
        F3 = max(F3, ext["F3"])
        F2p = min(F2p, ext["F2_prime"])
        lam = min(lam, ext["lambda"])
        Lam = max(Lam, ext["Lambda"])

    if has_outside:
        om_pts = box.grid_points(grid_res)
        inside = nb.contains_rows(om_pts, tol=1e-12)
        out_pts = om_pts[~inside]
        for N in f_sweep:
            drop, dists = _complement_drop(spec, N, spec.f_of_box(N), out_pts)
            _check_finite(drop, "f on the complement grid")
            # min(f* - f_out) == f* - max(f_out): rounding is monotone
            gap, dmax = float(np.min(drop)), float(np.max(dists))
            gap2 = min(gap2, gap / dmax**2)
            gap1 = min(gap1, gap / dmax)

    sf = float(safety_factor)
    F2 *= sf
    F3 *= sf
    G *= sf
    G1 *= sf
    Lam *= sf
    F2p /= sf
    lam /= sf
    F2pO = min(F2p, gap2 / sf) if has_outside else F2p
    if axis is None:
        F1p = F1pO = None
    else:
        F1p /= sf
        F1pO = min(F1p, gap1 / sf) if has_outside else F1p

    for name, val in (
        ("F2_prime", F2p),
        ("F2_prime_Omega", F2pO),
        ("lambda", lam),
        ("F1_prime", F1p),
        ("F1_prime_Omega", F1pO),
    ):
        if val is not None and not val > 0.0:
            raise AssumptionViolationError(name, f"certified value {val} is not positive")

    return ConstantsReport(
        F2=F2,
        F2_prime=F2p,
        F2_prime_Omega=F2pO,
        F3=F3,
        G=G,
        G1=G1,
        lambda_det=lam,
        Lambda_det=Lam,
        F1_prime=F1p,
        F1_prime_Omega=F1pO,
        grid_res=grid_res,
        n_sweep=n_sweep,
        safety_factor=sf,
        fd_step=1e-4 * float(np.min(box.edges)),
        boundary_axis=axis,
        problem=spec.name,
    )


def audit_constants(spec: ProblemSpec, report: ConstantsReport, seed: int = 0) -> dict:
    """Random-point soundness audit of every report field.

    Draws points in the neighborhood (and the complement for the gap-type
    constants) and checks the pointwise inequalities each certified constant
    claims, with multiplicative tolerance 1.0001, at every N of the
    report's sweep.  Returns a dict with ``ok`` and any failures, labelled
    by constant and N.

    A quantity the same at every N (module docstring) is taken at the
    first N and checked against the report at each N: the curvature
    extremes when sigma is None, eps == 0 or sigma is affine, F1_prime and
    the complement drop when sigma is None or eps == 0."""
    rng = np.random.default_rng(seed)
    box = spec.domain
    nb = spec.maximum.neighborhood
    m = box.dimension
    axis, gauss, _ = limit_axes(spec)

    pts = rng.uniform(nb.lower, nb.upper, size=(_AUDIT_POINTS, m))
    om = rng.uniform(box.lower, box.upper, size=(4 * _AUDIT_POINTS, m))
    inside = nb.contains_rows(om, tol=1e-12)
    out_pts = om[~inside][:_AUDIT_POINTS]

    failures: list[str] = []

    def check(cond, label):
        if not cond:
            failures.append(label)

    g_box = spec.g_box
    check(float(np.max(np.abs(g_box.evaluate(om)))) <= report.G * _AUDIT_SLACK, "G")
    gg = gradients_on(g_box, pts)
    check(float(np.max(np.linalg.norm(gg, axis=-1))) <= report.G1 * _AUDIT_SLACK, "G1")

    f_sweep, curvature_sweep = _n_sweeps(spec, report.n_sweep)
    for N in report.n_sweep:
        f_n = spec.f_of_box(N)
        if N in curvature_sweep:
            ext = _combine([_curvature_extremes(f_n, pts, gauss)])
        check(ext["F2"] <= report.F2 * _AUDIT_SLACK, f"F2@N={N}")
        check(ext["F3"] <= report.F3 * _AUDIT_SLACK + 1e-12, f"F3@N={N}")
        check(ext["F2_prime"] >= report.F2_prime / _AUDIT_SLACK, f"F2_prime@N={N}")
        check(ext["lambda"] >= report.lambda_det / _AUDIT_SLACK, f"lambda@N={N}")
        check(ext["Lambda"] <= report.Lambda_det * _AUDIT_SLACK, f"Lambda@N={N}")
        if N in f_sweep:
            slope = None if axis is None else _least_slope(f_n, pts, axis)
            if len(out_pts):
                drop, d = _complement_drop(spec, N, f_n, out_pts)
        if axis is not None:
            check(slope >= report.F1_prime / _AUDIT_SLACK, f"F1_prime@N={N}")

        if len(out_pts):
            check(
                bool(np.all(drop >= report.F2_prime_Omega * d**2 / _AUDIT_SLACK)),
                f"F2_prime_Omega@N={N}",
            )
            if axis is not None:
                check(
                    bool(np.all(drop >= report.F1_prime_Omega * d / _AUDIT_SLACK)),
                    f"F1_prime_Omega@N={N}",
                )

    return {
        "ok": not failures,
        "failures": failures,
        "n_points": _AUDIT_POINTS,
        "problem": spec.name,
    }
