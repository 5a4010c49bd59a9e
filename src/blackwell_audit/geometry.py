"""Geometry on the belief simplex.

Beliefs are probability vectors over a finite state space, kept in full
n-coordinate form (no dropped coordinate).  Hyperplanes therefore carry an
n-vector normal; on the simplex's affine hull this is equivalent to the
usual (n-1)-dimensional representation, with the advantage that no state
index is privileged.

One convex-weight witness, :func:`hull_gap`, reads how close two hulls
come: nonnegative least squares finds a point of each, and their sup-norm
distance is its answer.  A gap within tolerance proves the hulls meet, so
it decides hull membership (one point against a hull) and refuses strict
separation; a linear program decides separation otherwise.  Every LP goes
through :func:`solve_lp`, which hands HiGHS what
``linprog(method="highs")`` would, so its optima are linprog's, bit for bit;
HiGHS is deterministic for fixed inputs, so every witness is reproducible.
The loader :func:`_optimize` is the one place scipy is reached, at the first
LP or NNLS solve, so an audit that needs neither never imports scipy.optimize.
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


@functools.lru_cache(maxsize=None)
def _optimize() -> tuple:
    """(scipy's nnls, the private HiGHS binding under linprog, linprog's options for it),
    imported at the first solve, as scipy.optimize costs more than the rest of a cold Bayes
    audit.  TestSolveLP fails for a scipy release that moves the binding or changes the options."""
    from scipy.optimize import nnls
    from scipy.optimize._highspy import _core as binding
    options = binding.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = binding.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = binding.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False
    return nnls, binding, options


def nnls(A, b) -> tuple:
    """scipy.optimize.nnls(A, b), loaded at the first call."""
    return _optimize()[0](A, b)


class EmptyInput(ValueError):
    """Raised when an operation receives an empty point list."""


class DimensionMismatch(ValueError):
    """Matrix shapes do not line up."""


class NoStrictSeparation(ValueError):
    """Raised when the query point cannot be strictly separated from the hull.

    Signals that the caller should re-classify the point as a hull member.
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

    def is_interior(self) -> bool:
        return bool(np.all(self.coords > 0.0))

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


def _min_sup_residual(blocks: Sequence, shape: tuple, what: str) -> tuple:
    """``(w, t)``: min t over w of ``shape`` with rows summing to 1 and 0 <= w <= 1,
    subject to |G w - g| <= t entrywise for every (G, g) in ``blocks``.

    w is flattened row-major for G and returned in ``shape``.  Each block
    contributes its rows G w - t <= g, then -G w - t <= -g, in block order;
    HiGHS's optimum can depend on the row order, so callers keep theirs.
    HiGHS meets the constraints only within its feasibility tolerance
    (1e-7), so t can understate w's true residual by about that much.
    Raises RuntimeError naming ``what`` when the solve fails.
    """
    r, c = shape
    # Variables: the entries of w, then the error bound t.
    cost = np.zeros(r * c + 1)
    cost[-1] = 1.0
    A_eq = np.hstack([np.repeat(np.eye(r), c, axis=1), np.zeros((r, 1))])
    A_ub = np.vstack(
        [np.hstack([sign * G, -np.ones((G.shape[0], 1))]) for G, _ in blocks for sign in (+1.0, -1.0)]
    )
    b_ub = np.concatenate([sign * g for _, g in blocks for sign in (+1.0, -1.0)])
    ub = np.append(np.ones(r * c), np.inf)
    x, t = solve_lp(cost, A_ub, b_ub, A_eq, np.ones(r), np.zeros(r * c + 1), ub, what)
    return x[:-1].reshape(shape), t


def solve_lp(c, A_ub, b_ub, A_eq, b_eq, lb, ub, what: str) -> tuple:
    """min c . x subject to A_ub x <= b_ub, A_eq x = b_eq and lb <= x <= ub.

    Returns ``(x, fun)``, bitwise what ``linprog(method="highs")`` returns.
    Raises linprog's ValueError on non-finite coefficients, before HiGHS sees
    them, and RuntimeError naming ``what`` when the solve ends without an
    optimum or with one that breaks its bounds or rows by more than linprog allows.
    """
    for name, arr in (("c", c), ("A_ub", A_ub), ("b_ub", b_ub), ("A_eq", A_eq), ("b_eq", b_eq)):
        if not np.isfinite(arr).all():
            raise ValueError(f"Invalid input for linprog: {name} must not contain values inf, nan, or None")
    _, binding, options = _optimize()
    m, inf = len(b_ub), binding.kHighsInf
    At = np.vstack([A_ub, A_eq]).T  # rows A_ub then A_eq; column-major nonzeros, as csc_array keeps
    lp = binding.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = len(c)
    lp.num_row_ = lp.a_matrix_.num_row_ = m + len(b_eq)
    lp.a_matrix_.format_ = binding.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.append(0, np.cumsum(np.count_nonzero(At, axis=1)))
    lp.a_matrix_.index_, lp.a_matrix_.value_ = np.nonzero(At)[1], At[At != 0.0]
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = c, np.clip(lb, -inf, inf), np.clip(ub, -inf, inf)
    lp.row_lower_, lp.row_upper_ = np.append(np.full(m, -inf), b_eq), np.append(b_ub, b_eq)
    highs = binding._Highs()  # fresh per solve: a reused one carries state from solve to solve
    highs.passOptions(options)
    ran = highs.passModel(lp) != binding.HighsStatus.kError and highs.run() != binding.HighsStatus.kError
    if not ran or highs.getModelStatus() != binding.HighsModelStatus.kOptimal:
        raise RuntimeError(f"{what} LP failed: {highs.modelStatusToString(highs.getModelStatus())}")
    sol, fun = highs.getSolution(), highs.getInfo().objective_function_value
    x, rows = np.array(sol.col_value), np.array(sol.row_value)
    tol = 10.0 * math.sqrt(1e-9)  # linprog's feasibility check, for its tol of 1e-9
    if math.isnan(fun) or not (np.all(x >= lb - tol) and np.all(x <= ub + tol)
                               and np.all(b_ub - rows[:m] >= -tol) and np.all(np.abs(b_eq - rows[m:]) <= tol)):
        raise RuntimeError(f"{what} LP failed: the optimum breaks its constraints by more than {tol:.2e}")
    return x, fun


def hull_gap(above: Sequence, below: Sequence) -> float:
    """|u A - v B|_inf for the convex weights u above and v below that nonnegative least squares
    finds (Gilbert's nearest points, 1966), or inf when the solve fails, as it does on non-finite points.

    The gap bounds the hulls' distance from above: a gap <= tol proves they meet within tol, so p
    lies in hull(below) within tol when ``hull_gap([p], below) <= tol``; a larger gap proves nothing.
    Points of different lengths raise DimensionMismatch.
    """
    A, B = _coerce_many(above), _coerce_many(below)
    k, n = A.shape
    if B.shape[1:] != (n,):
        raise DimensionMismatch(f"points above of length {n} against points below of shape {B.shape[1:]}")
    try:
        w, _ = nnls(np.vstack([np.hstack([A.T, -B.T]), np.repeat(np.eye(2), (k, len(B)), axis=1)]),
                    np.append(np.zeros(n), [1.0, 1.0]))
    except (ValueError, RuntimeError):  # non-finite input, or no convergence
        return math.inf
    u, v = w[:k], w[k:]
    if not (u.sum() > 0.0 and v.sum() > 0.0):
        return math.inf
    return float(np.max(np.abs(u @ A / u.sum() - v @ B / v.sum())))


def separating_hyperplane_sets(above: Sequence, below: Sequence, margin: float = TOL_GEO) -> Hyperplane:
    """Strictly separate two point sets: hull(above) strictly above, hull(below) strictly below.

    Maximizes the two-sided margin m subject to normal . a >= offset + m for
    every point a above and normal . b <= offset - m for every point b
    below, with the normal boxed to [-1, 1]; the witness is then rescaled
    so its sup norm is 1.  Raises NoStrictSeparation when the achievable
    margin is <= ``margin``.

    Refusal is tried first, from the hulls' ``hull_gap``, the distance
    between u A and v B for convex weights u above and v below.  Every
    feasible m has 2 m <= normal . (u A - v B) <= n |u A - v B|_inf, so a
    gap <= 2 margin / n proves the refusal without the LP.  Otherwise, and
    whenever the least-squares solve fails, the LP decides.
    """
    gap = hull_gap(above, below)
    A, B = _coerce_many(above), _coerce_many(below)
    n = A.shape[1]
    if gap <= 2.0 * margin / n:
        raise NoStrictSeparation(f"the hulls meet within {gap:.3e}: no margin exceeds {margin:.3e}")
    A, B = (P[merge_owners(P) == np.arange(len(P))] for P in (A, B))  # the LP sees each merged point once
    # Variables: normal (n), offset, margin m; maximize m.
    c = np.zeros(n + 2)
    c[-1] = -1.0
    rows = [np.concatenate([-a, [1.0, 1.0]]) for a in A]
    rows += [np.concatenate([b, [-1.0, 1.0]]) for b in B]
    A_ub = np.asarray(rows)
    b_ub = np.zeros(len(rows))
    lb, ub = np.append(np.full(n, -1.0), [-2.0, 0.0]), np.append(np.ones(n), [2.0, 4.0])
    x, _ = solve_lp(c, A_ub, b_ub, np.zeros((0, n + 2)), np.zeros(0), lb, ub, "separation")
    m = float(x[-1])
    if m <= margin:
        raise NoStrictSeparation(f"achievable margin {m:.3e} does not exceed required {margin:.3e}")
    alpha = x[:n]
    beta = float(x[n])
    scale = float(np.max(np.abs(alpha)))
    return Hyperplane(alpha / scale, beta / scale)


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
