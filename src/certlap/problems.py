"""Problem model: box domains, scalar fields, perturbation schedules, maximum
classification, and assembly of the N-dependent exponent.

All types are immutable after construction and safe to share between
concurrent workers; classification is single-threaded numpy and therefore
deterministic regardless of the caller's worker count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    AmbiguousMaximumError,
    DefinitenessError,
    DomainError,
    FieldEvaluationError,
    NonUniqueMaximumError,
)

INTERIOR = "interior_a"
BOUNDARY = "boundary_b"

_ORTHO_TOL = 1e-12
_GRAD_TOL = 1e-8
_TIE_TOL = 1e-10
# the coarsest classification grid, per axis
CLASSIFY_MIN_GRID_RES = 8
# the largest dimension the quadrature oracle, and so every check but the
# constants audit, supports
MAX_DIMENSION = 4

def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box, optionally rotated into ambient coordinates.

    The domain is {rotation @ z : lower <= z <= upper}.  ``lower``/``upper``
    live in the box frame; all grid machinery works in that frame.  An
    identity rotation is not multiplied: ``to_ambient`` and ``to_box`` then
    return a float copy of their input, never a view of it.  A caller that
    owns a fresh float array may pass ``copy=False`` to ``to_ambient`` to
    get that array itself back on an identity frame.
    """

    lower: np.ndarray
    upper: np.ndarray
    rotation: np.ndarray | None = None

    def __post_init__(self):
        lo = _freeze(np.atleast_1d(np.asarray(self.lower, dtype=float)))
        up = _freeze(np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if lo.shape != up.shape or lo.ndim != 1:
            raise ValueError("lower/upper must be 1-d arrays of equal length")
        if not np.all(lo < up):
            raise ValueError("lower[i] < upper[i] is required for every axis")
        m = lo.size
        rot = self.rotation
        rot = np.eye(m) if rot is None else np.asarray(rot, dtype=float)
        if rot.shape != (m, m):
            raise ValueError("rotation must be an m-by-m matrix")
        if np.max(np.abs(rot.T @ rot - np.eye(m))) > _ORTHO_TOL:
            raise ValueError("rotation is not orthogonal to 1e-12")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "rotation", _freeze(rot))
        object.__setattr__(self, "_identity", bool(np.array_equal(rot, np.eye(m))))

    @property
    def dimension(self) -> int:
        return self.lower.size

    @property
    def identity_frame(self) -> bool:
        """True when the rotation is the identity: box frame is ambient frame."""
        return self._identity

    @property
    def edges(self) -> np.ndarray:
        return self.upper - self.lower

    def to_ambient(self, z, copy: bool = True):
        if self._identity:
            return np.array(z, dtype=float) if copy else np.asarray(z, dtype=float)
        return np.asarray(z, dtype=float) @ self.rotation.T

    def to_box(self, x):
        if self._identity:
            return np.array(x, dtype=float)
        return np.asarray(x, dtype=float) @ self.rotation

    def contains_z(self, z, tol: float = 1e-12) -> bool:
        z = np.asarray(z, dtype=float)
        return bool(np.all(z >= self.lower - tol) and np.all(z <= self.upper + tol))

    def contains_rows(self, z, tol: float = 0.0) -> np.ndarray:
        """Per row of the (n, m) box-frame points ``z``, whether
        lower - tol <= z <= upper + tol; tested one column at a time, which
        is several times faster than ``np.all(..., axis=1)`` over a
        row-major batch."""
        return self.contains_columns(np.asarray(z, dtype=float).T, tol)

    def contains_columns(self, cols, tol: float = 0.0) -> np.ndarray:
        """``contains_rows`` of the points whose coordinates on axis i are
        ``cols[i]``: on a contiguous (m, n) copy each test reads one run of
        memory, where a column of a row-major batch is strided."""
        lo, up = self.lower - tol, self.upper + tol
        inside = np.ones(len(cols[0]), dtype=bool)
        for i in range(self.dimension):
            inside &= cols[i] >= lo[i]
            inside &= cols[i] <= up[i]
        return inside

    def contains_box(self, other: "BoxDomain", tol: float = 1e-12) -> bool:
        """True when ``other`` lies in this box (to ``tol``) in the same frame:
        rotations that agree entrywise to 1e-14, with no relative slack.  The
        same rotation object, or two identity frames, need no comparison."""
        same = other.rotation is self.rotation or self._identity and other._identity
        if not (same or np.allclose(other.rotation, self.rotation, rtol=0.0, atol=1e-14)):
            return False
        return bool(
            np.all(other.lower >= self.lower - tol)
            and np.all(other.upper <= self.upper + tol)
        )

    def grid_axes(self, grid_res: int) -> list[np.ndarray]:
        """Per-axis nodes; grid_res cells => grid_res+1 nodes, so a doubled
        resolution nests the coarse grid (monotone refinement)."""
        return [
            np.linspace(self.lower[i], self.upper[i], grid_res + 1)
            for i in range(self.dimension)
        ]

    def grid_points(self, grid_res: int, axes=None) -> np.ndarray:
        """The ``grid_axes`` nodes on ``axes`` (default every axis), in
        row-major order, one column per axis of ``axes`` in that order: a
        block's own coordinates.  No axes give one point of shape (1, 0)."""
        nodes = self.grid_axes(grid_res)
        axes = range(self.dimension) if axes is None else axes
        mesh = np.meshgrid(*(nodes[i] for i in axes), indexing="ij")
        pts = np.empty((mesh[0].size if mesh else 1, len(mesh)))
        for k, coord in enumerate(mesh):
            pts[:, k] = coord.reshape(-1)
        return pts

    def clip(self, z):
        return np.clip(np.asarray(z, dtype=float), self.lower, self.upper)


# sorted, disjoint blocks of axes (see ScalarField.coupling); None couples
# every axis
Coupling = Optional[tuple[tuple[int, ...], ...]]


def join_coupling(*couplings: Coupling) -> Coupling:
    """The coupling of a sum of fields with these couplings: their blocks,
    with overlapping ones merged.  None if any input is None."""
    if any(c is None for c in couplings):
        return None
    blocks: list[set] = []
    for coupling in couplings:
        for b in coupling:
            merged = set(b)
            rest = []
            for other in blocks:
                if merged & other:
                    merged |= other
                else:
                    rest.append(other)
            blocks = rest + [merged] if merged else rest
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def axis_blocks(coupling: Coupling, m: int) -> list[tuple[int, ...]]:
    """Sorted blocks that partition the m axes: one block of every axis for
    None, otherwise the coupling's blocks plus one block for each axis none
    of them reads."""
    if coupling is None:
        return [tuple(range(m))]
    read = read_axes(coupling, m)
    return sorted(list(coupling) + [(i,) for i in range(m) if i not in read])


def read_axes(coupling: Coupling, m: int) -> tuple[int, ...]:
    """The sorted axes a field with this coupling reads: every one of the m
    axes for None."""
    if coupling is None:
        return tuple(range(m))
    return tuple(sorted({i for b in coupling for i in b}))


@dataclass(frozen=True)
class ScalarField:
    """Scalar function given by a term list: sum(c * prod(x_i ** e_i) *
    exp(rate . x)) over its terms (see ``_term_field``).

    ``evaluate`` takes a point of shape (m,) or a batch (..., m) and returns
    a scalar / (...) array.  ``gradient`` (..., m), ``hessian`` (..., m, m)
    and ``third_tensor`` (..., m, m, m) are derived from the terms by the
    product rule (``_term_handles``).  The handles, and the ``block_field``
    views, are made in ``__post_init__`` and belong to this field alone: a
    ``dataclasses.replace`` copy makes its own.

    ``coupling`` lists blocks of axes such that the field is a sum of
    functions that each read one block: the connected components of the
    terms' supports, joined by ``add_fields``.  None (the default) couples
    every axis.  The oracle sums exp(N f) block by block when f's coupling
    splits.
    """

    terms: tuple
    coupling: Coupling = None

    def __post_init__(self):
        if not isinstance(self.terms, tuple):
            raise TypeError(f"a ScalarField needs a tuple of terms, not {type(self.terms)}")
        handles = _term_handles(self.terms)
        object.__setattr__(self, "gradient", handles[0])
        object.__setattr__(self, "hessian", handles[1])
        object.__setattr__(self, "third_tensor", handles[2])
        # block fields by (block, constants)
        object.__setattr__(self, "_block_fields", {})

    def evaluate(self, pts):
        return _eval_terms(self.terms, pts)


def _power(x: np.ndarray, e: int, out: np.ndarray) -> np.ndarray:
    """x ** e for e >= 1 by multiplication: x itself for e = 1, otherwise
    x * x (bitwise numpy's ``x ** 2``) written to ``out``, times x once more
    per higher power.  numpy's ``**`` calls libm ``pow`` from e = 3 on: 5.5 ms
    per 65,536 doubles against 0.09 ms for ``x * x * x`` (numpy 2.4)."""
    if e == 1:
        return x
    np.multiply(x, x, out=out)
    for _ in range(e - 2):
        out *= x
    return out


def _eval_terms(terms, pts):
    """The sum of the terms at pts (..., m), a scalar for a single point.

    Each term is its exp factor times c, or else c times its first power,
    then times its other powers in axis order, each power formed by
    multiplication (``_power``); it is added to the sum in place.  Two
    scratch arrays of the batch shape, one for the term and one for a power,
    serve every term in turn, so no power outlives its term: a batch can
    hold about a million quadrature nodes.

    A single point of shape (m,) takes ``_eval_point``: the same operations
    in the same order on Python floats, which round as numpy's elementwise
    float64 ones do, so it is the batch path's value for ``pts[None]`` bit
    for bit without its per-term array calls."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        return _eval_point(terms, pts)
    shape = pts.shape[:-1]
    out = np.zeros(shape)
    term, scratch = np.empty(shape), np.empty(shape)
    for c, powers, rate in terms:
        if c == 0.0:
            continue
        factors = [(pts[..., i], e) for i, e in powers]
        if rate is not None:
            np.exp(pts @ rate, out=term)
            term *= c
        elif factors:
            (x, e), *factors = factors
            np.multiply(_power(x, e, term), c, out=term)
        else:
            out += c
            continue
        for x, e in factors:
            term *= _power(x, e, scratch)
        out += term
    return out


def _eval_point(terms, pt: np.ndarray) -> np.float64:
    """``_eval_terms`` at one point (m,).  An exp factor keeps ``np.exp`` of
    ``pt @ rate``: numpy forms that dot product for (m,) and (1, m) alike,
    where a Python sum would round differently."""
    x = pt.tolist()
    acc = 0.0
    for c, powers, rate in terms:
        if c == 0.0:
            continue
        if rate is not None:
            term = float(np.exp(pt @ rate)) * c
        elif not powers:
            acc += c
            continue
        else:
            term = None
        for i, e in powers:
            xi = v = x[i]
            if e > 1:  # as _power forms it
                v = xi * xi
                for _ in range(e - 2):
                    v *= xi
            term = v * c if term is None else term * v
        acc += term
    return np.float64(acc)


def _diff(terms, axis: int) -> list:
    """The terms of the derivative along ``axis``, by the product rule: a
    factor x_axis ** e gives e * x_axis ** (e - 1), an exp factor its rate."""
    out = []
    for c, powers, rate in terms:
        for k, (i, e) in enumerate(powers):
            if i == axis:
                lowered = ((i, e - 1),) if e > 1 else ()
                out.append((c * e, powers[:k] + lowered + powers[k + 1:], rate))
        if rate is not None and rate[axis] != 0.0:
            out.append((c * rate[axis], powers, rate))
    return out


def _support(term) -> tuple[int, ...]:
    """The sorted axes a term reads."""
    _, powers, rate = term
    read = {i for i, _ in powers}
    if rate is not None:
        read.update(int(i) for i in np.flatnonzero(rate))
    return tuple(sorted(read))


def block_field(fld: ScalarField, block, constants: bool = False) -> ScalarField:
    """The field of ``fld``'s nonzero terms whose support lies in the sorted
    axes ``block``, in their order, re-indexed to the block's own axes: a
    power's axis becomes its position in the block, an exp factor's rate
    its entries on the block.  A term that reads no axis is kept only with
    ``constants``.  Built once per field, block and ``constants``; two
    threads may both build it, and it is the same."""
    cache, key = fld._block_fields, (tuple(block), constants)
    if key not in cache:
        pos = {i: k for k, i in enumerate(block)}
        terms = []
        for c, powers, rate in fld.terms:
            support = _support((c, powers, rate))
            if c == 0.0 or not (support or constants) or not pos.keys() >= set(support):
                continue
            terms.append((c, tuple((pos[i], e) for i, e in powers),
                          None if rate is None else _freeze(rate[list(block)])))
        cache[key] = ScalarField(tuple(terms))
    return cache[key]


def _term_handles(terms: tuple) -> tuple:
    """The three derivative handles of a term list, each entry evaluated by
    the one evaluator ``_eval_terms``.

    The term list of the derivative along a sorted index tuple is formed by
    ``_diff`` in index order, on the first call of a handle of that order.
    Each nonzero symmetric entry is evaluated once and written to every
    permutation of its index; the rest stay zero."""
    derivs = {(): terms}

    def deriv(idx):
        if idx not in derivs:
            derivs[idx] = _diff(deriv(idx[:-1]), idx[-1])
        return derivs[idx]

    def derivative(order):
        entries = None

        def handle(pts):
            nonlocal entries
            if entries is None:  # two threads may both build it; it is the same
                axes = sorted({i for t in terms for i in _support(t)})
                entries = [
                    (deriv(idx), set(itertools.permutations(idx)))
                    for idx in itertools.combinations_with_replacement(axes, order)
                    if deriv(idx)
                ]
            pts = np.asarray(pts, dtype=float)
            out = np.zeros(pts.shape[:-1] + (pts.shape[-1],) * order)
            for tms, perms in entries:
                val = _eval_terms(tms, pts)
                for perm in perms:
                    out[(...,) + perm] = val
            return out

        return handle

    return derivative(1), derivative(2), derivative(3)


def _term_field(terms) -> ScalarField:
    """The field sum(c * prod(x_i ** e_i) * exp(rate . x)) of a term list.

    A term is (c, powers, rate): ``powers`` the sorted (axis, e >= 1) pairs,
    so a term without them reads no axis and fits any dimension, and
    ``rate`` a vector or None.  The coupling is the connected components of
    the supports of the nonzero terms."""
    terms = tuple(terms)
    supports = tuple(_support(t) for t in terms if t[0] != 0.0)
    return ScalarField(terms, join_coupling(supports))


def constant_field(c: float) -> ScalarField:
    return _term_field([(float(c), (), None)])


# the weight g = 1; the laplace check reuses Z(N) for a problem whose g is it
UNIT_WEIGHT = constant_field(1.0)


def polynomial_field(terms) -> ScalarField:
    """Multivariate polynomial sum(c * prod(x_i ** e_i)); ``terms`` is a
    list of (coeff, powers) pairs with one power per axis, each a
    nonnegative integer (2.0 is one, 2.5, -1 and True are not)."""
    terms = [(float(c), tuple(p)) for c, p in terms]
    if not terms:
        raise ValueError("polynomial needs at least one term")
    if any(len(p) != len(terms[0][1]) for _, p in terms):
        raise ValueError("all power tuples must have the same length")
    bad = [e for _, p in terms for e in p
           if isinstance(e, bool) or not (e >= 0 and float(e).is_integer())]
    if bad:
        raise ValueError(f"a power must be a nonnegative integer, not {bad[0]!r}")
    return _term_field(
        [(c, tuple((i, int(e)) for i, e in enumerate(p) if e), None) for c, p in terms]
    )


def linear_field(a, at=None) -> ScalarField:
    """The degree-1 polynomial field x -> a . (x - at) (``at`` defaults to
    the origin): one term per nonzero a_i, and the constant -a . at."""
    a = np.asarray(a, dtype=float)
    terms = [(float(a[i]), ((int(i), 1),), None) for i in np.flatnonzero(a)]
    if at is not None:
        terms.append((-float(a @ np.asarray(at, dtype=float)), (), None))
    return _term_field(terms)


def exponential_field(scale: float, linear, offset: float = 0.0) -> ScalarField:
    """scale * exp(linear . x + offset), one term with c = scale * e^offset."""
    return _term_field([(scale * math.exp(offset), (), _freeze(linear))])


def add_fields(f1: ScalarField, f2: Optional[ScalarField], w2: float) -> ScalarField:
    """f1 + w2 * f2: the concatenated term list, the second scaled by w2;
    f1 itself when there is nothing to add."""
    if f2 is None or w2 == 0.0:
        return f1
    terms = f1.terms + tuple((w2 * c, powers, rate) for c, powers, rate in f2.terms)
    return ScalarField(terms, join_coupling(f1.coupling, f2.coupling))


def _rotate_terms(terms, R: np.ndarray) -> list:
    """The term list of z -> sum(terms)(R z): each factor x_i = sum_j R_ij z_j
    of a monomial multiplied out, an exp factor's rate taken to rate . R,
    like terms summed and the terms that cancel to zero dropped."""
    m = R.shape[0]
    like: dict = {}
    for c, powers, rate in terms:
        poly = {(0,) * m: c}  # dense exponents -> coefficient
        for i, e in powers:
            for _ in range(e):
                product: dict = {}
                for p, a in poly.items():
                    for j in np.flatnonzero(R[i]):
                        q = p[:j] + (p[j] + 1,) + p[j + 1:]
                        product[q] = product.get(q, 0.0) + a * R[i, j]
                poly = product
        rate = None if rate is None else _freeze(rate @ R)
        for p, a in poly.items():
            sparse = tuple((j, e) for j, e in enumerate(p) if e)
            key = (sparse, None if rate is None else rate.tobytes())
            if key in like:
                a += like[key][0]
            like[key] = (a, sparse, rate)
    return [t for t in like.values() if t[0] != 0.0]


def rotated_view(fld: ScalarField, rotation: np.ndarray) -> ScalarField:
    """Box-frame view z -> fld(R z): the term list taken through the
    rotation once (``_rotate_terms``), with the coupling of its terms."""
    R = np.asarray(rotation, dtype=float)
    if np.array_equal(R, np.eye(R.shape[0])):
        return fld
    return _term_field(_rotate_terms(fld.terms, R))


@dataclass(frozen=True)
class EpsilonSchedule:
    """eps(N) = scale * N ** exponent (default 0), nonnegative and
    nonincreasing: the exponent must be negative and the scale nonnegative
    (NaN is neither).  Every decay order a theorem assumes is read from
    them."""

    scale: float = 0.0
    exponent: float = -1.0

    def __post_init__(self):
        if not self.exponent < 0:
            raise ValueError("epsilon exponent must be a negative number")
        if not self.scale >= 0:
            raise ValueError("epsilon scale must be a nonnegative number")

    def evaluate(self, n) -> float:
        return self.scale * float(n) ** self.exponent

    @property
    def sqrt_n_nonincreasing(self) -> bool:
        """Proposition 1's hypothesis "eps(N) sqrt(N) nonincreasing": the
        scale is 0 or the exponent is at most -1/2."""
        return self.scale == 0 or self.exponent <= -0.5

    @property
    def sqrt_n_vanishes(self) -> bool:
        """The CLT's hypothesis "eps(N) sqrt(N) -> 0": the scale is 0 or the
        exponent is below -1/2."""
        return self.scale == 0 or self.exponent < -0.5


@dataclass(frozen=True)
class MaximumInfo:
    """The classified limit maximum, as plain data: x*(N) is derived from
    the spec's own f(., N) (``ProblemSpec.z_star_of_N``), not stored."""

    kind: str
    x_star: np.ndarray
    neighborhood: BoxDomain
    boundary_axis: Optional[int] = None
    # the least threshold whose window fits the neighborhood around x*(N)
    # (default_n_zero), raised to an inline definition's n_zero if larger
    n_zero: int = 1

    def __post_init__(self):
        if self.kind not in (INTERIOR, BOUNDARY):
            raise ValueError(f"unknown maximum kind {self.kind!r}")
        if self.kind == BOUNDARY and self.boundary_axis is None:
            raise ValueError("boundary maximum needs boundary_axis")
        object.__setattr__(self, "x_star", _freeze(np.atleast_1d(self.x_star)))


@dataclass(frozen=True)
class Peak:
    """An exponent's local model at its maximiser z, box frame
    (``ProblemSpec.peak``): value, gradient and Hessian, arrays read-only."""

    z: np.ndarray
    value: float
    gradient: np.ndarray
    hessian: np.ndarray


@dataclass(frozen=True)
class ProblemSpec:
    """One Laplace problem: integral of g(x) exp(N f(x, N)) over the domain,
    with f(x, N) = f_limit(x) + epsilon(N) * sigma(x).  The dimension is
    the domain's, n_zero the maximum's, and x*(N) derived from f(., N).

    ``__post_init__`` takes the fields into the box frame once
    (``f_limit_box``, ``sigma_box``, ``g_box``) and makes the spec's one
    cache, empty, for the values a run reuses (``cached``).  Neither is a
    dataclass field, so a ``dataclasses.replace`` copy makes its own and
    shares nothing with this spec."""

    name: str
    domain: BoxDomain
    f_limit: ScalarField
    g: ScalarField
    maximum: MaximumInfo
    sigma: Optional[ScalarField] = None
    epsilon: EpsilonSchedule = EpsilonSchedule()
    exact_integral: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        if not self.domain.contains_box(self.maximum.neighborhood):
            raise ValueError("neighborhood must be contained in the domain")
        R = self.domain.rotation
        sigma_box = None if self.sigma is None else rotated_view(self.sigma, R)
        object.__setattr__(self, "f_limit_box", rotated_view(self.f_limit, R))
        object.__setattr__(self, "sigma_box", sigma_box)
        object.__setattr__(self, "g_box", rotated_view(self.g, R))
        object.__setattr__(self, "_cache", {})

    def cached(self, key, build: Callable[[], object]):
        """The value this spec keeps under ``key``, made by ``build()`` on
        the first call and returned as it is to every later one.  The key
        names its slot first: ("f", N) for f(., N), ("x", N, start, axis,
        tilt) for a maximizer, ("peak", N) for ``peak(N)``, "panel_nodes" for
        the oracle's node store and ("block_hessians", N, blocks, grid_res)
        for the sampler's Hessian grids.  Two threads may both build a
        value; it is the same."""
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = build()
        return got

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def n_zero(self) -> int:
        return self.maximum.n_zero

    @property
    def f_same_at_every_n(self) -> bool:
        """True when f(., N) is f_limit at every N: sigma is absent or
        epsilon's scale is 0."""
        return self.sigma is None or self.epsilon.scale == 0

    @property
    def curvature_same_at_every_n(self) -> bool:
        """True when the Hessian and third tensor of f(., N) are the same
        at every N: f(., N) is, or every term of sigma in the box frame has
        total degree <= 1 and no exp factor, so the product rule leaves no
        sigma term in a second or third derivative."""
        return self.f_same_at_every_n or all(
            rate is None and sum(e for _, e in powers) <= 1
            for _, powers, rate in self.sigma_box.terms
        )

    @property
    def z_star(self) -> np.ndarray:
        return self.domain.to_box(self.maximum.x_star)

    def z_star_of_N(self, N: int) -> np.ndarray:
        """x*(N), box frame: a fresh copy of the cached ``_maximizer_of_n``."""
        return _maximizer_of_n(self, N, self.z_star, self.maximum.boundary_axis).copy()

    def f_of_box(self, N: int) -> ScalarField:
        """f(., N) = f_limit + epsilon(N) * sigma in the box frame, at any N
        (the N > n_zero gate belongs to the certified approximations).  One
        field per N is kept, so its derivative tables are built once."""
        N = int(N)
        return self.cached(("f", N), lambda: add_fields(
            self.f_limit_box, self.sigma_box, self.epsilon.evaluate(N)))

    def peak(self, N: Optional[int] = None) -> Peak:
        """f(., N) at x*(N) with its gradient and Hessian there, built once
        per N: the one local model every layer reads.  With no N it is the
        N -> infinity model, f_limit at x*, that the limit laws read."""
        def build() -> Peak:
            f = self.f_limit_box if N is None else self.f_of_box(N)
            z = _freeze(self.z_star if N is None else self.z_star_of_N(N))
            return Peak(z, float(f.evaluate(z)), _freeze(f.gradient(z)), _freeze(f.hessian(z)))

        return self.cached(("peak", None if N is None else int(N)), build)


# ---------------------------------------------------------------------------
# numeric maximization helpers (box frame)
# ---------------------------------------------------------------------------

def locate_maximum(
    fld: ScalarField,
    box: BoxDomain,
    start,
    fixed_axes: Optional[dict[int, float]] = None,
    tilt=None,
):
    """Maximize a field over a box (box frame), optionally with some
    coordinates pinned (used for face-restricted maxima), by projected Newton
    ascent (Bertsekas, SIAM J. Control Optim. 20, 1982).  Each step holds the
    pinned axes and every axis within 1e-13 edges of a bound its gradient
    points out of.  The others take a Newton step where -H is positive
    definite on them, capped at a quarter of the smallest edge, and stop after
    one shorter than 1e-9 of that cap (the error left is of order its square);
    elsewhere a gradient step, until the gradient is within 1e-12.  Armijo
    backtracking runs along the projection arc; a full step that loses only
    round-off is taken.  Derivatives come from the field's handles.

    With a vector ``tilt`` t the maximized function is f + t . x: each
    nonzero t_i x_i is added after f's value in axis order, and t to f's
    gradient, which is how the term list of ``add_fields(f,
    linear_field(t), 1.0)`` sums, bit for bit, with no field built.

    Returns (z, value).  The masks, the step scaling, the clip and the line
    search run on Python floats, which round as numpy's elementwise float64
    operations do; the Cholesky test, the solve and the dot product g . (z_t -
    z) stay on numpy, so every z is the bits of the same loop on arrays."""
    t = [] if tilt is None else [(int(i), float(tilt[i])) for i in np.flatnonzero(tilt)]

    def value(z):
        v = float(fld.evaluate(z))
        for i, ti in t:
            v += z[i] * ti
        return v

    m = box.dimension
    fixed_axes = fixed_axes or {}
    z = np.array(start, dtype=float).tolist()
    for i, v in fixed_axes.items():
        z[i] = float(v)
    pinned = [i in fixed_axes for i in range(m)]
    lo, up = box.lower.tolist(), box.upper.tolist()
    edges = [b - a for a, b in zip(lo, up)]
    cap, f = 0.25 * min(edges), value(z)
    lower = [a + 1e-13 * e for a, e in zip(lo, edges)]
    upper = [b - 1e-13 * e for b, e in zip(up, edges)]
    for _ in range(200):
        g_np = fld.gradient(z)
        for i, ti in t:
            g_np[i] += ti
        g = g_np.tolist()
        # -1 held at the lower bound, 1 at the upper one, 0 free
        held = [0 if pinned[i] else -1 if z[i] <= lower[i] and g[i] < 0
                else 1 if z[i] >= upper[i] and g[i] > 0 else 0 for i in range(m)]
        free = [i for i in range(m) if not (pinned[i] or held[i])]
        if not any(g[i] for i in free):
            # an axis held short of a bound its gradient points out of ends
            # on the bound, where the value is higher by up to |g| 1e-13 edges
            if any(held):
                z_b = [lo[i] if h < 0 else up[i] if h > 0 else z[i] for i, h in enumerate(held)]
                f_b = value(z_b)
                if f_b > f:
                    z, f = z_b, f_b
            break
        H, g_free = fld.hessian(z), g_np
        if len(free) < m:
            H, g_free = H[free][:, free], g_np[free]
        d_free = _newton_step(-H, g_free)
        newton = d_free is not None
        if newton:
            d_free = d_free.tolist()
        else:
            if all(abs(g[i]) <= 1e-12 for i in free):
                break
            d_free = [g[i] for i in free]
        scale = min(1.0, cap / _abs_max(d_free))
        d = [0.0] * m
        for i, di in zip(free, d_free):
            d[i] = di * scale
        slack = 1e-13 * max(1.0, abs(f))  # the round-off a full step may lose
        for k in range(41):
            s = 0.5**k
            z_t = [_clip(zi + s * di, a, b) for zi, di, a, b in zip(z, d, lo, up)]
            step = [a - b for a, b in zip(z_t, z)]
            f_t, rise = value(z_t), float(g_np @ np.array(step))
            if (rise > 0 and f_t - f >= 1e-4 * rise) or (k == 0 and f_t >= f - slack):
                break
        else:
            break
        z, f = z_t, f_t
        if all(abs(v) <= (1e-9 * cap if newton else 0.0) for v in step):
            break
    return np.array(z), f


def _clip(x: float, lo: float, up: float) -> float:
    """np.clip of one float: the max with lo, then the min with up, each
    keeping x on a tie (so the sign of a zero) and NaN."""
    x = x if x > lo or x != x else lo
    return x if x < up or x != x else up


def _abs_max(v: list) -> float:
    """np.max(np.abs(v)) of a nonempty list of floats: NaN if any entry is."""
    return math.nan if any(x != x for x in v) else max(map(abs, v))


def _newton_step(K: np.ndarray, g: np.ndarray) -> Optional[np.ndarray]:
    """K^-1 g where Cholesky passes K as positive definite and the solve
    succeeds, else None.  One free axis takes Python floats, with the branch
    and the bits numpy gives a 1 x 1 system (LAPACK's potrf refuses k <= 0
    and passes NaN, and np.linalg.solve returns g / k) at a twentieth of the
    cost; two or more stay on LAPACK.  Cholesky can pass a K that is rank
    one up to rounding with a tiny pivot, which the LU solve then finds
    exactly singular: that K takes a gradient step too."""
    if len(K) == 1:
        k = float(K[0, 0])
        return None if k <= 0.0 else np.array([float(g[0]) / k])
    try:
        np.linalg.cholesky(K)
        return np.linalg.solve(K, g)
    except np.linalg.LinAlgError:
        return None


def _maximizer_of_n(spec: ProblemSpec, N: int, start: np.ndarray, axis: Optional[int],
                    tilt: Optional[np.ndarray] = None):
    """The maximizer of f(., N) + tilt . x (box frame) solved from ``start``
    with ``axis`` (if any) pinned; x*(N) is the untilted one, and is
    ``start`` itself when f(., N) is the same at every N.  Every solve is
    kept in the spec's cache under ("x", N, start, axis, tilt), N left out
    when f(., N) is the same at every N, so each distinct maximizer is
    solved once per spec."""
    same = spec.f_same_at_every_n
    if tilt is None and same:
        return start
    key = ("x", None if same else int(N), start.tobytes(), axis,
           None if tilt is None else tilt.tobytes())
    return spec.cached(key, lambda: _freeze(locate_maximum(
        spec.f_of_box(N), spec.domain, start,
        None if axis is None else {axis: start[axis]}, tilt)[0]))


# ---------------------------------------------------------------------------
# defaults for the certified neighborhood and the admissible-N threshold
# ---------------------------------------------------------------------------

def default_neighborhood(
    domain: BoxDomain,
    z_star: np.ndarray,
    boundary_axis: Optional[int] = None,
    boundary_side: Optional[int] = None,
) -> BoxDomain:
    """[max(lower, z - hw), min(upper, z + hw)] on every axis, with
    hw = min(0.25 * edge, d) and d the distance from the maximizer to the
    nearest face but the maximizing one (``boundary_side`` of
    ``boundary_axis``).  A boundary maximizer lies on its face, so there the
    box is anchored at the face."""
    z = np.asarray(z_star, dtype=float)
    lo, up = domain.lower, domain.upper
    dists = np.abs([z - lo, up - z])
    if boundary_axis is not None:
        dists[boundary_side, boundary_axis] = np.inf
    hw = np.minimum(0.25 * (up - lo), np.min(dists))
    return BoxDomain(np.maximum(lo, z - hw), np.minimum(up, z + hw), domain.rotation)


def window_radius(kind: str, N: int) -> float:
    """Radius of the shrinking window around the maximizer used by the
    remainder decompositions."""
    n = float(N)
    return n ** (-1.0 / 3.0) if kind == INTERIOR else n ** (-0.5)


def window_fits(neighborhood: BoxDomain, z_star_N, kind: str, N: int, domain: BoxDomain) -> bool:
    """Ball of the window radius around z*(N), intersected with the domain,
    must fit inside the neighborhood box."""
    r = window_radius(kind, N)
    z = np.asarray(z_star_N, dtype=float)
    for i in range(neighborhood.dimension):
        lo_need = max(z[i] - r, domain.lower[i])
        up_need = min(z[i] + r, domain.upper[i])
        if lo_need < neighborhood.lower[i] - 1e-12 or up_need > neighborhood.upper[i] + 1e-12:
            return False
    return True


def default_n_zero(
    domain: BoxDomain,
    neighborhood: BoxDomain,
    kind: str,
    z_star_of_N: Callable[[int], np.ndarray],
) -> int:
    """Smallest admissible threshold: the first N whose window fits inside
    the neighborhood, minus one (so that N > n_zero admits it).  The window
    radius and the maximizer drift both shrink with N, so exponential search
    plus bisection suffices.

    A window wider than the neighborhood on an axis where the neighborhood
    stops short of both faces of the domain fits nowhere, so such an N is
    refused without solving x*(N): a fit there needs z - r and z + r
    within the neighborhood's 1e-12 slack, so 2 r at most its width plus
    that slack and the round-off of z +- r, which the margin covers."""
    reach = math.inf
    for i in range(neighborhood.dimension):
        lo, up = neighborhood.lower[i], neighborhood.upper[i]
        if domain.lower[i] < lo - 1e-12 and domain.upper[i] > up + 1e-12:
            margin = 1e-9 * (1.0 + abs(domain.lower[i]) + abs(domain.upper[i]))
            reach = min(reach, float(up - lo) + margin)

    def fits(n: int) -> bool:
        return (2.0 * window_radius(kind, n) <= reach
                and window_fits(neighborhood, z_star_of_N(n), kind, n, domain))

    hi = 1
    while not fits(hi):
        hi *= 2
        if hi > 10**9:
            raise DomainError(f"no N <= {10**9} fits the window inside the neighborhood")
    lo = hi // 2  # lo does not fit (or hi == 1)
    while hi - lo > 1 and lo >= 1:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return max(1, hi - 1)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify_maximum(
    spec: ProblemSpec, grid_res: int = 64, neighborhood: Optional[BoxDomain] = None
) -> MaximumInfo:
    """Locate and classify the limit maximizer of f over the domain and
    package it with ``neighborhood`` (default: ``default_neighborhood``) and
    the least threshold whose window fits it.  x*(N) is solved as the
    finished spec derives it (``_maximizer_of_n`` from its z_star), into
    ``spec``'s own cache: a finished copy made with ``dataclasses.replace``
    starts with an empty one and solves x*(N) again, to the same bits.

    Raises AmbiguousMaximumError when the maximizer hugs a face but neither
    the interior nor the boundary criteria hold, and NonUniqueMaximumError
    when non-adjacent grid cells tie."""
    if grid_res < CLASSIFY_MIN_GRID_RES:
        raise ValueError(f"grid_res must be at least {CLASSIFY_MIN_GRID_RES} per axis")
    box = spec.domain
    m = box.dimension
    fld = spec.f_limit_box
    axes = box.grid_axes(grid_res)
    pts = box.grid_points(grid_res)
    vals = fld.evaluate(pts)
    if not np.all(np.isfinite(vals)):
        raise FieldEvaluationError("non-finite field value on the classification grid")
    shape = tuple(len(a) for a in axes)
    vgrid = vals.reshape(shape)
    flat_arg = int(np.argmax(vals))
    arg_idx = np.array(np.unravel_index(flat_arg, shape))
    vmax = float(vals[flat_arg])

    tied = np.argwhere(vgrid >= vmax - _TIE_TOL)
    if len(tied) > 1:
        cheb = np.max(np.abs(tied - arg_idx), axis=1)
        if np.any(cheb > 1):
            raise NonUniqueMaximumError(
                "non-adjacent grid cells tie the maximum within 1e-10"
            )

    start = pts[flat_arg]
    z, _ = locate_maximum(fld, box, start)
    cell = box.edges / grid_res

    near = []
    for j in range(m):
        if z[j] - box.lower[j] < cell[j]:
            near.append((j, 0))
        if box.upper[j] - z[j] < cell[j]:
            near.append((j, 1))

    scale = max(1.0, float(np.max(np.abs(vals))))

    def make_info(kind, z_at, axis=None, side=None):
        nb = default_neighborhood(box, z_at, axis, side) if neighborhood is None else neighborhood
        x_star = box.to_ambient(z_at)
        start = box.to_box(x_star)  # the z_star the finished spec reads

        def z_of_n(n):
            return _maximizer_of_n(spec, n, start, axis)

        info = MaximumInfo(kind, x_star, nb, axis, default_n_zero(box, nb, kind, z_of_n))
        _verify_per_n(spec, info, z_of_n, side)
        return info

    if not near:
        _check_signature(fld, z, box, scale)
        return make_info(INTERIOR, z)

    if len(near) > 1:
        raise AmbiguousMaximumError(
            "maximizer binds more than one face (corner maxima are unsupported)"
        )

    axis, side = near[0]
    face_val = box.lower[axis] if side == 0 else box.upper[axis]
    z_face = z
    if z[axis] != face_val:  # the free solve may already hold the face
        z_face, _ = locate_maximum(fld, box, z, fixed_axes={axis: face_val})

    inward = (1.0 if side == 0 else -1.0) * fld.gradient(z_face)[axis]
    if inward < -_GRAD_TOL * scale:
        # strictly decreasing into the domain: genuine boundary maximum
        _check_signature(fld, z_face, box, scale, axis)
        return make_info(BOUNDARY, z_face, axis, side)
    # not boundary-critical; accept interior only if the free maximizer is
    # clearly detached from the face and critical
    if abs(z[axis] - face_val) <= 1e-6 * box.edges[axis]:
        raise AmbiguousMaximumError(
            "maximizer within one grid cell of a face but the gradient test is inconclusive"
        )
    _check_signature(fld, z, box, scale)
    return make_info(INTERIOR, z)


def _check_signature(fld, z, box, scale, axis=None, side=None, where="the maximizer") -> None:
    """Derivative signature of a maximum at z: the gradient vanishes off the
    exponential axis ``axis`` (every axis at an interior maximum) and the
    Hessian is negative definite on the other axes.  With ``side`` (0 for
    the lower face of ``axis``, 1 for the upper) the inward derivative must
    also be strictly negative."""
    g = fld.gradient(z)
    gauss = [i for i in range(box.dimension) if i != axis]
    if np.linalg.norm(g[gauss]) > _GRAD_TOL * scale:
        raise AmbiguousMaximumError(
            f"gradient {np.linalg.norm(g[gauss]):.3e} off the exponential axis at {where}"
        )
    if side is not None and (1.0 if side == 0 else -1.0) * g[axis] >= -_GRAD_TOL * scale:
        raise AmbiguousMaximumError(f"inward derivative is not strictly negative at {where}")
    H = gauss_block(fld.hessian(z), gauss)
    if np.max(np.linalg.eigvalsh(0.5 * (H + H.T)), initial=-np.inf) >= 0:
        raise DefinitenessError(
            f"Hessian on the Gaussian axes is not negative definite at {where}"
        )


def _verify_per_n(spec: ProblemSpec, info: MaximumInfo, z_of_n, side) -> None:
    """Spot-check the classified maximum at sample N beyond its threshold:
    the drifting maximizer ``z_of_n(N)`` (box frame) stays in the
    neighborhood and keeps the kind-specific derivative signature."""
    box = spec.domain
    nb = info.neighborhood
    for n in (info.n_zero + 1, 4 * (info.n_zero + 1)):
        z_n = z_of_n(n)
        if not nb.contains_z(z_n, tol=1e-9):
            raise AmbiguousMaximumError(f"maximizer at N={n} escapes the neighborhood")
        f_n = spec.f_of_box(n)
        scale = max(1.0, abs(float(f_n.evaluate(z_n))))
        _check_signature(f_n, z_n, box, scale, info.boundary_axis, side, f"the N={n} maximizer")


def limit_axes(spec: ProblemSpec) -> tuple[Optional[int], list[int], float]:
    """The frame of the limit law at the maximum: (exponential axis,
    Gaussian axes, inward sign).

    At a boundary maximum the fluctuation is exponential along the boundary
    axis (scaled by N, measured inward: the inward sign is +1 on the lower
    face and -1 on the upper one) and Gaussian along the other axes (scaled
    by sqrt(N)).  An interior maximum is the same law with no exponential
    axis: (None, all axes, 1.0)."""
    m = spec.dimension
    if spec.maximum.kind == INTERIOR:
        return None, list(range(m)), 1.0
    axis = spec.maximum.boundary_axis
    z = spec.z_star[axis]
    lower_face = abs(z - spec.domain.lower[axis]) <= abs(z - spec.domain.upper[axis])
    return axis, [i for i in range(m) if i != axis], 1.0 if lower_face else -1.0


def gauss_block(H: np.ndarray, gauss_axes) -> np.ndarray:
    """The (..., k, k) block of a (..., m, m) array on the Gaussian axes; H
    itself when every axis is Gaussian, so a Hessian grid is not copied."""
    if len(gauss_axes) == H.shape[-1]:
        return H
    idx = np.asarray(gauss_axes, dtype=np.intp)
    return H[..., idx[:, None], idx]


def rotate_problem(spec: ProblemSpec, R) -> ProblemSpec:
    """Physically rotated copy: domain rotation composed with R and fields
    pulled back, so the box frame (and classification) is unchanged."""
    R = np.asarray(R, dtype=float)
    dom = BoxDomain(spec.domain.lower, spec.domain.upper, R @ spec.domain.rotation)
    nb = spec.maximum.neighborhood
    return ProblemSpec(
        name=spec.name + "_rotated",
        domain=dom,
        f_limit=rotated_view(spec.f_limit, R.T),
        g=rotated_view(spec.g, R.T),
        maximum=replace(
            spec.maximum,
            x_star=spec.maximum.x_star @ R.T,
            neighborhood=BoxDomain(nb.lower, nb.upper, dom.rotation),
        ),
        sigma=None if spec.sigma is None else rotated_view(spec.sigma, R.T),
        epsilon=spec.epsilon,
        exact_integral=spec.exact_integral,
    )
