"""Geometry on the belief simplex.

Beliefs are probability vectors over a finite state space, kept in full
n-coordinate form (no dropped coordinate).  Hyperplanes therefore carry an
n-vector normal; on the simplex's affine hull this is equivalent to the
usual (n-1)-dimensional representation, with the advantage that no state
index is privileged.

One nonnegative least-squares solve answers the hull question.
:func:`separating_hyperplane_sets` cuts two hulls apart by the least-distance
program, and returns a cut only when its margin, recomputed on the points,
clears the one asked for; a point is strictly outside a hull when the cut of
it, as a set of one, from the hull's points is returned.  :func:`nnls` imports
scipy at its first call, so an audit that solves nothing never imports
scipy.optimize.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# Construction tolerance for probability vectors (sum and negativity).
TOL_SUM = 1e-12
# Default geometric tolerance for membership / segment / separation tests.
TOL_GEO = 1e-9
# Most points a lattice, or the collapse checker's face samples, may hold.
MAX_POINTS = 2_000_000


def nnls(A, b) -> tuple:
    """scipy.optimize.nnls(A, b), imported at the first call, as scipy.optimize costs more than the
    rest of a cold Bayes audit: an audit that solves nothing never loads it."""
    from scipy.optimize import nnls as solve
    return solve(A, b)


class EmptyInput(ValueError):
    """Raised when an operation receives an empty point list."""


class DimensionMismatch(ValueError):
    """Matrix shapes do not line up."""


class NoStrictSeparation(ValueError):
    """Raised when no cut of two point sets clears the margin asked for on the points.

    A refusal, not a proof that the hulls meet: the least-distance solve may
    also have failed.  The caller skips the cut.
    """


def _coerce(x) -> np.ndarray:
    """Accept a Belief or a raw coordinate array; return a float64 array."""
    if isinstance(x, Belief):
        return x.coords
    return np.asarray(x, dtype=np.float64)


def _coerce_many(points: Iterable) -> np.ndarray:
    arr = np.asarray(points if isinstance(points, np.ndarray) else [_coerce(p) for p in points], dtype=np.float64)
    if arr.size == 0:
        raise EmptyInput("expected at least one point")
    return arr


@dataclass(frozen=True, eq=False)
class Belief:
    """A point of the probability simplex: n nonnegative weights summing to 1.

    Coordinates within ``TOL_SUM`` of zero are clamped to exactly zero on
    construction; anything more negative, or a sum off by more than
    ``TOL_SUM``, is rejected.
    """

    coords: np.ndarray

    def __init__(self, coords) -> None:
        arr = np.array(coords, dtype=np.float64).ravel()
        if arr.size < 1:
            raise ValueError("a belief needs at least one coordinate")
        if np.min(arr) < -TOL_SUM:
            raise ValueError(f"negative probability weight: {np.min(arr)}")
        arr = np.maximum(arr, 0.0)
        total = float(arr.sum())
        if not abs(total - 1.0) <= 1e-9:  # also rejects NaN and inf weights
            raise ValueError(f"weights must be finite and sum to 1, got {total}")
        # Tiny drift (clamping, float accumulation) is renormalized away.
        if total != 1.0:
            arr = arr / total
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def to_json(self) -> list:
        return [float(v) for v in self.coords]

    def __repr__(self) -> str:
        inner = ", ".join(f"{v:.6g}" for v in self.coords)
        return f"Belief([{inner}])"


def uniform_belief(n: int) -> Belief:
    return Belief(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class Face:
    """A face of the simplex, identified by its (sorted) support indices."""

    support: tuple

    def __post_init__(self) -> None:
        support = tuple(sorted(set(int(i) for i in self.support)))
        if not support:
            raise ValueError("a face needs a non-empty support")
        object.__setattr__(self, "support", support)

    @property
    def dim(self) -> int:
        return len(self.support) - 1


def enumerate_faces(n: int, min_dim: int = 0) -> list:
    """All faces of the (n-1)-simplex of dimension min_dim or more."""
    faces = []
    for size in range(min_dim + 1, n + 1):
        for support in itertools.combinations(range(n), size):
            faces.append(Face(support))
    return faces


@dataclass(frozen=True)
class Hyperplane:
    """The set {x : normal . x = offset}; classification is scale-invariant."""

    normal: np.ndarray
    offset: float

    def __init__(self, normal, offset: float) -> None:
        arr = np.array(normal, dtype=np.float64).ravel()
        if np.max(np.abs(arr)) == 0.0:
            raise ValueError("hyperplane normal must be non-zero")
        arr.flags.writeable = False
        object.__setattr__(self, "normal", arr)
        object.__setattr__(self, "offset", float(offset))


class SegmentLocation(NamedTuple):
    """``on_segment``'s verdicts, weights and residuals: one per row, scalars for single points."""

    on: np.ndarray
    lam: np.ndarray
    resid: np.ndarray


def on_segment(x, y, z, tol: float = TOL_GEO) -> SegmentLocation:
    """Locate z against the segment from x to y, row by row.

    x, y and z are points or stacks of rows that broadcast together.  lam
    is the least-squares mixing weight (clamped to [0, 1], 0 when x = y),
    with lam * x + (1 - lam) * y the nearest segment point; resid is its
    sup-norm distance from z, and ``on`` is resid <= tol.  lam = 1 at x and
    lam = 0 at y.  Sums and maxima run one coordinate at a time, in order,
    on whole columns: each row's values are bitwise those of its own call.
    """
    xa, ya, za = _coerce(x), _coerce(y), _coerce(z)
    cols = range(1, xa.shape[-1])
    dx = xa[..., 0] - ya[..., 0]
    denom, num = dx * dx, (za[..., 0] - ya[..., 0]) * dx
    for c in cols:  # no broadcast over short rows; in place on arrays, a single point's scalars rebound
        dx = xa[..., c] - ya[..., c]
        denom += dx * dx
        num += (za[..., c] - ya[..., c]) * dx
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = np.clip(np.where(denom > 0.0, num / denom, 0.0), 0.0, 1.0)
    rest = 1.0 - lam
    resid = abs(lam * xa[..., 0] + rest * ya[..., 0] - za[..., 0])
    for c in cols:
        off = lam * xa[..., c]
        off += rest * ya[..., c]
        off -= za[..., c]
        resid = np.maximum(resid, abs(off))
    return SegmentLocation(resid <= tol, lam, resid)


def merge_owners(points) -> np.ndarray:
    """The merge rule: each row's owner, the first kept row within TOL_GEO (sup norm) of it.

    Rows are taken in order over the last two axes of ``points`` (..., k, n);
    a row with no kept row that near is kept and owns itself.  A row holding
    NaN is near no other row.
    """
    P = np.asarray(points, dtype=np.float64)
    owners = np.empty(P.shape[:-1], dtype=np.intp)
    owners[...] = np.arange(P.shape[-2])
    if P.shape[-2] < 2:  # no pair of rows to merge
        return owners
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, never near
        near = np.abs(P[..., :, None, :] - P[..., None, :, :]).max(axis=-1) <= TOL_GEO
    near |= np.eye(P.shape[-2], dtype=bool)  # so a NaN row is near itself, and only pairs add to the count
    if np.count_nonzero(near) == owners.size:  # no row is near another
        return owners
    for *lead, i in np.argwhere(near.sum(axis=-1) > 1).tolist():  # rows near another row, in order
        own, close = owners[tuple(lead)], near[tuple(lead)][i, :i]
        kept = np.flatnonzero(close & (own[:i] == np.arange(i)))
        if kept.size:
            own[i] = kept[0]
    return owners


def separating_hyperplane_sets(above: Sequence, below: Sequence, margin: float = TOL_GEO) -> Hyperplane:
    """Strictly separate two point sets: hull(above) strictly above, hull(below) strictly below.

    One nonnegative least-squares solve of the least-distance program (Lawson and Hanson, 1974,
    ch. 23) finds the shortest (w, c) with w . a - c >= 1 for every point a above and
    c - w . b >= 1 for every point b below: with G those rows, E = [G^T; 1^T] and
    f = (0, ..., 0, 1), the residual r = E u - f of the solution u gives w proportional to r[:n]
    when r[-1] < 0.  Shifting w by -(max w + min w) / 2 gives the same cut on the simplex with
    the least sup norm; it is then scaled to sup norm 1, and the offset lies midway between the
    minimum of w . a above and the maximum of w . b below.  The hyperplane is returned only when
    half that distance, recomputed on the points, exceeds ``margin``, so the margin never rests
    on the solver.  Raises NoStrictSeparation otherwise, also when the solve fails, ValueError
    on a non-finite point, and DimensionMismatch on points of different lengths.
    """
    A, B = _coerce_many(above), _coerce_many(below)
    if B.shape[1:] != A.shape[1:]:
        raise DimensionMismatch(f"points above of length {A.shape[1]} against points below of shape {B.shape[1:]}")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("points to separate must be finite")
    n = A.shape[1]
    G = np.vstack([np.hstack([A, -np.ones((len(A), 1))]), np.hstack([-B, np.ones((len(B), 1))])])
    E = np.vstack([G.T, np.ones(len(G))])
    f = np.eye(n + 2)[-1]
    try:
        u, _ = nnls(E, f)
    except RuntimeError as err:  # no convergence
        raise NoStrictSeparation(f"the least-distance solve failed: {err}") from None
    r = E @ u - f
    w = r[:n] if r[-1] < 0.0 else np.zeros(n)
    w = w - (np.max(w) + np.min(w)) / 2.0
    scale = float(np.max(np.abs(w)))
    if not scale > 0.0:
        raise NoStrictSeparation("the least-distance program finds no cut")
    w = w / scale
    lo = float(np.min(A @ w))
    hi = float(np.max(B @ w))
    if not (lo - hi) / 2.0 > margin:
        raise NoStrictSeparation(f"margin {(lo - hi) / 2.0:.3e} on the points does not exceed required {margin:.3e}")
    return Hyperplane(w, (lo + hi) / 2.0)


def simplex_lattice(n: int, grid_size: int, max_points: int = MAX_POINTS) -> np.ndarray:
    """Barycentric lattice on the (n-1)-simplex with ``grid_size`` levels per axis.

    Coordinates are multiples of 1/(grid_size - 1), one row per point, rows
    in lexicographic order.  The resolution is halved while the lattice
    would exceed ``max_points`` (only relevant for n >= 5 at fine grids).
    The result is cached per resolution and shared by every caller, so it
    is read-only.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    res = grid_size - 1
    while math.comb(res + n - 1, n - 1) > max_points and res > 1:
        res = max(1, res // 2)
    return _lattice(n, res)


@functools.lru_cache(maxsize=4)  # at least 3: some callers cycle through three shapes
def _lattice(n: int, res: int) -> np.ndarray:
    """Stars and bars, one column at a time: a row with r units left spawns
    r + 1 children taking 0..r of them, so rows come out lexicographic."""
    if n == 2:  # the second column is 1 - t, not (res - k) / res, in the bytes reports carry
        t = np.arange(res + 1, dtype=np.float64) / res
        grid = np.column_stack([t, 1.0 - t])
    else:
        cols: list = []  # int32 counts: max_points (MAX_POINTS by default) keeps row offsets far below 2**31
        left = np.array([res], dtype=np.int32)
        for _ in range(n - 1):
            counts = left + 1
            starts = np.cumsum(counts, dtype=np.int32) - counts
            value = np.arange(counts.sum(), dtype=np.int32) - np.repeat(starts, counts)
            cols = [np.repeat(c, counts) for c in cols] + [value]
            left = np.repeat(left, counts) - value
        grid = np.empty((left.shape[0], n))
        for j, col in enumerate(cols + [left]):
            np.divide(col, res, out=grid[:, j])
    grid.setflags(write=False)
    return grid


# Low-discrepancy interior sampling used by the structural checkers.  A
# Kronecker (additive golden-ratio) sequence keyed by the face support makes
# every refutation point reproducible without carrying RNG state.

def _kronecker_alphas(dim: int) -> np.ndarray:
    # Generalized golden ratios: x = 1/phi_d, phi_d solves x**(d+1) + x = 1.
    alphas = np.empty(dim)
    for d in range(dim):
        x = 0.5
        for _ in range(64):
            x = (1.0 + x) ** (-1.0 / (d + 2))
        alphas[d] = 1.0 - x
    return alphas


@functools.lru_cache(maxsize=256)
def face_samples(face: Face, n: int, count: int) -> np.ndarray:
    """Deterministic well-spread points in the relative interior of a face.

    The sequence is keyed by the face's support so refutations are stable
    across runs; each point is mixed with weight 1e-3 toward the face
    centroid to keep samples strictly inside.  The result is cached per
    (face, n, count) and shared by every caller, so it is read-only.
    """
    support = face.support
    d = len(support) - 1
    out = np.zeros((count, n))
    if d == 0:
        out[:, support[0]] = 1.0
        out.setflags(write=False)
        return out
    alphas = _kronecker_alphas(d)
    seed = sum((i + 1) * 0.618033988749895 for i in support) % 1.0
    idx = np.arange(1, count + 1)[:, None]
    u = (seed + idx * alphas[None, :]) % 1.0
    # Sorted-uniform (stick-breaking) map from the unit cube to the simplex.
    u_sorted = np.sort(u, axis=1)
    bary = np.diff(np.concatenate([np.zeros((count, 1)), u_sorted, np.ones((count, 1))], axis=1), axis=1)
    centroid = np.full(d + 1, 1.0 / (d + 1))
    bary = (1.0 - 1e-3) * bary + 1e-3 * centroid
    out[:, list(support)] = bary
    out.setflags(write=False)
    return out
