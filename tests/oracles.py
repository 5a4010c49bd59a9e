"""Reference oracles the tests check the package against.

No audit or verification calls them, so they live with the tests:
``value_function`` (the upper envelope at one belief, with its tie set),
``convexity_violations`` (a sampled chord test of a welfare profile) and
``is_mpc`` (the dilation LP, the second route to the Blackwell order)
and ``dedupe_points`` (the merge rule as one sup-norm comparison per pair).
``in_convex_hull`` (barycentric coordinates, else the hull LP) decides hull
membership for the separation tests; ``hull_gap`` (Gilbert's nearest points by
one nonnegative least-squares solve) is the reference for the auditor's
banishment test, which asks ``geometry.separating_hyperplane_sets`` for a strict
cut instead; ``garbling_residual`` (the garbling LP) for the dominance witness,
``experiments.blackwell_dominates``; ``max_margin`` (the separation LP) for
the package's cuts.  Every LP here is
``scipy.optimize.linprog(method="highs")``: the package solves none.
``sup_close`` compares beliefs in the sup norm.  ``StubbornLoopRule`` over a
``StubbornSpec`` is the collapse map row by row, the reference for
``StubbornRule``'s array map, and ``is_occasionally_coarse_by_node`` the
interval checker node by node.  ``contractive_two_state_by_error`` is lemma 3's
two-state recipe for one contractive error, the reference for the auditor's
block recipe.  ``is_occasionally_stubborn_face_by_face`` is the collapse
checker in two evaluations, walked face by face, and
``vertex_condition_every_vertex`` the vertex recipe that evaluates and tests
every vertex itself: the references for the one-pass checker and for the
recipe that reads the checker's verdict.  ``affine_chords_rebuilt`` builds
the chord rows afresh on every call, the reference for ``affine_chords``,
which reads them from a cache.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog, nnls

from blackwell_audit import distortions
from blackwell_audit.auditor import (
    ViolationCertificate,
    _Search,
    _binary,
    _distribution,
    _threshold_problem,
)
from blackwell_audit.decision import TIE_TOL, DecisionProblem, Selector, WelfareMode, welfare_batch
from blackwell_audit.distortions import (
    SUPPORT_TOL,
    CoarseVerdict,
    Distortion,
    StubbornRule,
    StubbornVerdict,
    WrongDimension,
    _CHORD_POINTS,
    evaluate_batch,
    refuse_chord_lattice,
    refuse_face_stack,
    vertex_image_ok,
)
from blackwell_audit.experiments import (
    TOL_BARY,
    BarycenterMismatch,
    DimensionMismatch,
    Experiment,
    PosteriorDistribution,
)
from blackwell_audit.geometry import TOL_GEO, Belief, Face, _coerce, _coerce_many, _lattice


def sup_close(a, b) -> bool:
    """True when two beliefs (or coordinate arrays) differ by at most TOL_GEO (1e-9) in every coordinate."""
    return bool(np.max(np.abs(_coerce(a) - _coerce(b))) <= TOL_GEO)


def dedupe_points(points: np.ndarray) -> np.ndarray:
    """Drop near-duplicate rows (sup-norm within TOL_GEO), keeping first occurrences."""
    kept: list = []
    for row in points:
        if not any(np.max(np.abs(row - k)) <= TOL_GEO for k in kept):
            kept.append(row)
    return np.asarray(kept)


class ValueResult(NamedTuple):
    payoff: float
    argmax: tuple


def value_function(p: DecisionProblem, x) -> ValueResult:
    """Best attainable expected payoff at belief x, with the actions within TIE_TOL of it."""
    scores = p.payoff @ _coerce(x)
    best = float(np.max(scores))
    argmax = tuple(int(i) for i in np.nonzero(scores >= best - TIE_TOL)[0])
    return ValueResult(best, argmax)


@dataclass(frozen=True)
class ConvexityViolation:
    x: np.ndarray
    x_prime: np.ndarray
    lam: float
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return self.lhs - self.rhs


MIX_WEIGHTS = (0.25, 0.5, 0.75)


def convexity_violations(
    p: DecisionProblem,
    d: Distortion,
    mu,
    sel: Selector,
    mode: WelfareMode,
    grid_size: int = 200,
    tol: float = 1e-9,
    seed: int = 0,
    n_pairs: Optional[int] = None,
) -> list:
    """Sampled convexity check of the welfare profile.

    Two states: every pair of scalar grid nodes.  Three or more: random
    interior pairs (seeded).  Each pair is tested at the mixing weights
    0.25 / 0.5 / 0.75; a violation is a mixture whose welfare exceeds the
    chord by more than ``tol``.
    """
    mua = _coerce(mu)
    n = mua.shape[0]
    if n == 2:
        ts = np.arange(grid_size + 1, dtype=np.float64) / grid_size
        nodes = np.column_stack([ts, 1.0 - ts])
        ii, jj = np.triu_indices(len(ts), k=1)
        A = nodes[ii]
        B = nodes[jj]
    else:
        rng = np.random.default_rng(seed)
        count = n_pairs if n_pairs is not None else 10 * grid_size
        A = rng.dirichlet(np.ones(n), size=count)
        B = rng.dirichlet(np.ones(n), size=count)
    wA = welfare_batch(p, d, mu, sel, mode, A)
    wB = welfare_batch(p, d, mu, sel, mode, B)

    found: list = []
    for lam in MIX_WEIGHTS:
        lhs = welfare_batch(p, d, mu, sel, mode, lam * A + (1.0 - lam) * B)
        rhs = lam * wA + (1.0 - lam) * wB
        for k in np.nonzero(lhs > rhs + tol)[0]:
            found.append(ConvexityViolation(A[k].copy(), B[k].copy(), lam, float(lhs[k]), float(rhs[k])))
    return found


def _min_sup_residual(blocks: Sequence, shape: tuple, what: str) -> tuple:
    """``(w, t)``: min t over w of ``shape`` with rows summing to 1 and 0 <= w <= 1,
    subject to |G w - g| <= t entrywise for every (G, g) in ``blocks``, by
    ``linprog(method="highs")``.

    w is flattened row-major for G and returned in ``shape``.  Each block
    contributes its rows G w - t <= g, then -G w - t <= -g, in block order.
    HiGHS meets the constraints only within its feasibility tolerance
    (1e-7), so t can understate w's true residual by about that much.
    Raises RuntimeError naming ``what`` when the solve fails, and linprog's
    ValueError on non-finite coefficients.
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
    bounds = np.column_stack([np.zeros(r * c + 1), np.append(np.ones(r * c), np.inf)])
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=np.ones(r), bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"{what} LP failed: {res.message}")
    return res.x[:-1].reshape(shape), res.fun


def garbling_residual(pi: Experiment, pi_prime: Experiment) -> float:
    """The garbling LP's optimum: the least sup-norm residual |pi @ M - pi_prime| over row-stochastic M.

    Blackwell (1953): zero exactly when pi_prime is a garbling of pi.  As HiGHS meets the constraints
    only within 1e-7, the optimum can read 0 where no M fits, so it is a reference, never a proof.
    """
    A, B = pi.likelihoods, pi_prime.likelihoods
    k, kp = A.shape[1], B.shape[1]
    # G = kron(A, I): row (theta, s') of G applied to the flattened M is (A M)[theta, s'].
    G = (A[:, None, :, None] * np.eye(kp)[:, None, :]).reshape(-1, k * kp)
    return float(_min_sup_residual([(G, B.ravel())], (k, kp), "garbling")[1])


def max_margin(above: Sequence, below: Sequence) -> float:
    """The separation LP's optimum: the largest m with normal . a >= offset + m for every point a
    above and normal . b <= offset - m for every point b below, the normal boxed to [-1, 1], the
    offset to [-2, 2] and m to [0, 4].  Any cut of sup norm 1 of points in the simplex is feasible,
    so its margin is at most this.  At HiGHS's default tolerances (1e-7) the optimum can read 0 for
    a margin of 1e-9, so this reference tightens both feasibility tolerances to 1e-10."""
    A, B = _coerce_many(above), _coerce_many(below)
    n = A.shape[1]
    ones_a, ones_b = np.ones((len(A), 1)), np.ones((len(B), 1))
    # Variables: normal (n), offset, margin m; maximize m.
    A_ub = np.vstack([np.hstack([-A, ones_a, ones_a]), np.hstack([B, -ones_b, ones_b])])
    bounds = np.column_stack([np.append(np.full(n, -1.0), [-2.0, 0.0]), np.append(np.ones(n), [2.0, 4.0])])
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(np.append(np.zeros(n + 1), -1.0), A_ub=A_ub, b_ub=np.zeros(len(A_ub)), bounds=bounds,
                  method="highs", options=tight)
    if res.status != 0:
        raise RuntimeError(f"separation LP failed: {res.message}")
    return float(res.x[-1])


def hull_gap(above: Sequence, below: Sequence) -> float:
    """|u A - v B|_inf for the convex weights u above and v below that nonnegative least squares
    finds (Gilbert's nearest points, 1966), or inf when the solve fails, as it does on non-finite points.

    The gap bounds the hulls' distance from above: a gap <= tol proves they meet within tol, so p
    lies in hull(below) within tol when ``hull_gap([p], below) <= tol``; a larger gap proves nothing.
    Points of different lengths raise DimensionMismatch.
    """
    A, B = _coerce_many(above), _coerce_many(below)
    if B.shape[1:] != A.shape[1:]:
        raise DimensionMismatch(f"points above of length {A.shape[1]} against points below of shape {B.shape[1:]}")
    k, n = A.shape
    try:
        w, _ = nnls(np.vstack([np.hstack([A.T, -B.T]), np.repeat(np.eye(2), (k, len(B)), axis=1)]),
                    np.append(np.zeros(n), [1.0, 1.0]))
    except (ValueError, RuntimeError):  # non-finite input, or no convergence
        return math.inf
    u, v = w[:k], w[k:]
    if not (u.sum() > 0.0 and v.sum() > 0.0):
        return math.inf
    return float(np.max(np.abs(u @ A / u.sum() - v @ B / v.sum())))


def is_mpc(rho_prime: PosteriorDistribution, rho: PosteriorDistribution, tol: float = 1e-8) -> bool:
    """True when rho_prime is a mean-preserving contraction of rho.

    Dilation (martingale-coupling) test: each support point of rho_prime
    must split into a distribution over rho's support with matching
    barycenter, and the splits must mix back to rho's probabilities.
    Works uniformly in every dimension.
    """
    if rho.n_states != rho_prime.n_states:
        raise DimensionMismatch("posterior distributions must share the state space")
    if not (np.all(np.isfinite(rho.support)) and np.all(np.isfinite(rho_prime.support))):
        raise ValueError("posterior supports must be finite")
    if np.max(np.abs(rho.barycenter.coords - rho_prime.barycenter.coords)) > max(tol, TOL_BARY):
        raise BarycenterMismatch("mean-preserving comparison requires equal barycenters")
    I, J = rho_prime.size, rho.size
    # The kernel's rows are probability vectors; row i's barycenter is
    # rho_prime's i-th support point, and the rows mix back to rho's probabilities.
    barycenters = (np.kron(np.eye(I), rho.support.T), rho_prime.support.ravel())
    mixture = (np.kron(rho_prime.probs[None, :], np.eye(J)), rho.probs)
    return bool(_min_sup_residual([barycenters, mixture], (I, J), "dilation")[1] <= tol)


# HiGHS accepts constraint violations up to its primal feasibility tolerance
# (1e-7), so the membership LP can call a point up to about that far outside
# the hull a member.  Barycentric rejection leaves points within this slack
# of tol to the LP, so both routes return the same verdict.
_LP_SLACK = 1e-6


def in_convex_hull(p, hull_points: Sequence, tol: float = TOL_GEO) -> bool:
    """True when p is reproducible as a convex combination of hull_points.

    Membership means the least sup-norm reconstruction error over convex
    weights is <= tol.  When the hull points are affinely independent,
    p's barycentric coordinates decide this in most cases, with a proof
    either way.  Dependent or duplicate points, and points whose error is
    too close to tol, go to a linear program that computes the error.
    Both routes return the same verdict.  A p whose length differs from
    the hull points' raises DimensionMismatch.
    """
    pa = _coerce(p)
    H = _coerce_many(hull_points)
    if pa.shape != H.shape[1:]:
        raise DimensionMismatch(f"point of shape {pa.shape} against hull points of length {H.shape[1]}")
    verdict = _in_hull_barycentric(pa, H, tol)
    if verdict is None:
        return _in_hull_lp(pa, H, tol)
    return verdict


def _in_hull_barycentric(pa: np.ndarray, H: np.ndarray, tol: float) -> Optional[bool]:
    """Hull membership from barycentric coordinates, or None when they cannot decide.

    With A = [H^T; 1^T] of full column rank, P its pseudo-inverse and
    w = P [p; 1], the clipped and renormalized w is a convex combination,
    so a reconstruction error <= tol proves membership.  For the other
    side, every convex v has v = w - (PA - I) v - P [p - H^T v; 0], so
    v_i >= 0 bounds the sup-norm error |p - H^T v| below by
    (-w_i - max_j |(PA - I)_ij|) / |P_i1..P_in|_1.  A lower bound above
    tol + _LP_SLACK proves p is outside, by more than the LP can miss.
    """
    k, n = H.shape
    if k > n + 1 or not (np.isfinite(H).all() and np.isfinite(pa).all()):
        return None
    A = np.vstack([H.T, np.ones(k)])
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    if s[-1] <= TOL_GEO * s[0]:
        return None  # affinely dependent: the LP decides
    P = (Vt.T / s) @ U.T
    b = np.append(pa, 1.0)
    w = P @ b
    wc = np.maximum(w, 0.0)
    total = wc.sum()
    if total > 0.0 and np.max(np.abs((wc / total) @ H - pa)) <= tol:
        return True
    slack = np.max(np.abs(P @ A - np.eye(k)), axis=1)
    lower = float(np.max((-w - slack) / np.abs(P[:, :n]).sum(axis=1)))
    if lower > tol + _LP_SLACK:
        return False
    return None


def _in_hull_lp(pa: np.ndarray, H: np.ndarray, tol: float) -> bool:
    """Hull membership by a linear program minimizing the sup-norm
    reconstruction error over convex weights."""
    return bool(_min_sup_residual([(H.T, pa)], (1, H.shape[0]), "hull membership")[1] <= tol)


def vertex_belief(n: int, i: int) -> Belief:
    e = np.zeros(n)
    e[i] = 1.0
    return Belief(e)


@dataclass(frozen=True, eq=False)
class StubbornSpec:
    """Structure data for a collapse-to-a-point rule on three or more states.

    ``identity_faces`` lists supports of faces on which the rule is the
    identity; the set is closed downward (all subfaces included), so a
    face marked correct has correct vertices as well.  ``edge_case``
    optionally names one edge containing ``x_star`` in its relative
    interior together with the vertex whose side of the edge collapses;
    the rest of that edge is the identity.  ``vertex_images`` assigns
    images to erring vertices; vertex i's must lie on the segment from
    ``x_star`` to vertex i (``vertex_image_ok``).
    """

    x_star: np.ndarray
    n: int
    vertex_images: Dict[int, np.ndarray]
    identity_faces: FrozenSet[tuple]
    edge_case: Optional[Tuple[tuple, int]]

    def __init__(
        self,
        x_star,
        vertex_images: Optional[dict] = None,
        identity_faces: Optional[Sequence] = None,
        edge_case: Optional[Tuple[Sequence, int]] = None,
    ) -> None:
        xs = Belief(x_star).coords
        n = xs.shape[0]
        if n < 3:
            raise WrongDimension("this family needs three or more states")

        closure: set = set()
        for support in identity_faces or ():
            support = tuple(sorted(int(i) for i in support))
            if not support or max(support) >= n or min(support) < 0:
                raise ValueError(f"face support out of range: {support}")
            for size in range(1, len(support) + 1):
                for sub in itertools.combinations(support, size):
                    closure.add(sub)

        ec = None
        if edge_case is not None:
            edge, extreme = edge_case
            edge = tuple(sorted(int(i) for i in edge))
            extreme = int(extreme)
            if len(edge) != 2 or extreme not in edge:
                raise ValueError("edge_case must name an edge and one of its vertices")
            if edge in closure:
                raise ValueError("the split edge cannot also be an identity face")
            on_edge = all(
                (xs[i] > SUPPORT_TOL) == (i in edge) for i in range(n)
            )
            if not on_edge:
                raise ValueError("edge_case requires the common image inside that edge")
            ec = (edge, extreme)

        imgs: Dict[int, np.ndarray] = {}
        for key, img in (vertex_images or {}).items():
            i = int(key)
            if not 0 <= i < n:
                raise ValueError(f"vertex index out of range: {i}")
            arr = Belief(img).coords
            if (i,) in closure and np.max(np.abs(arr - vertex_belief(n, i).coords)) > TOL_GEO:
                raise ValueError(f"vertex {i} belongs to an identity face; it cannot err")
            if not vertex_image_ok(xs, i, arr):
                raise ValueError(f"vertex {i} image must lie on the segment from the common image to vertex {i}")
            imgs[i] = arr

        object.__setattr__(self, "x_star", xs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vertex_images", imgs)
        object.__setattr__(self, "identity_faces", frozenset(closure))
        object.__setattr__(self, "edge_case", ec)

    def to_json(self) -> dict:
        doc: dict = {"x_star": [float(v) for v in self.x_star]}
        if self.vertex_images:
            doc["vertex_images"] = {
                str(i): [float(v) for v in img] for i, img in self.vertex_images.items()
            }
        if self.identity_faces:
            doc["identity_faces"] = sorted(list(f) for f in self.identity_faces)
        if self.edge_case:
            doc["edge_case"] = {"edge": list(self.edge_case[0]), "vertex": self.edge_case[1]}
        return doc


@dataclass(frozen=True, eq=False)
class StubbornLoopRule(Distortion):
    """Rule that collapses every erring face interior to one common belief."""

    spec: StubbornSpec
    n: int = 0
    family: str = field(default="occ-stubborn", init=False)

    def __init__(self, spec: StubbornSpec) -> None:
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "n", spec.n)

    def apply_batch(self, mu, X):
        X = np.atleast_2d(X)
        spec = self.spec
        n = self.n
        out = np.broadcast_to(spec.x_star, X.shape).copy()
        members = X > SUPPORT_TOL
        sizes = members.sum(axis=1)

        # Vertices: explicit image, else identity.
        vert_rows = np.nonzero(sizes == 1)[0]
        for r in vert_rows:
            i = int(np.argmax(X[r]))
            out[r] = spec.vertex_images.get(i, vertex_belief(n, i).coords)

        # Identity faces (closed downward, so any support match is exact).
        if spec.identity_faces:
            keys = members @ (1 << np.arange(n, dtype=np.int64))
            id_keys = {sum(1 << i for i in f) for f in spec.identity_faces}
            for r in np.nonzero((sizes > 1) & np.isin(keys, list(id_keys)))[0]:
                out[r] = X[r]

        # Split edge: the side toward the named vertex collapses, the rest is identity.
        if spec.edge_case is not None:
            (i, j), extreme = spec.edge_case
            edge_key_members = np.zeros(n, dtype=bool)
            edge_key_members[[i, j]] = True
            on_edge = (sizes == 2) & np.all(members == edge_key_members, axis=1)
            if np.any(on_edge):
                s = spec.x_star[extreme]
                coord = X[on_edge, extreme]
                collapse = (coord > s + 1e-12) & (coord < 1.0 - 1e-12)
                rows = np.nonzero(on_edge)[0]
                out[rows[~collapse]] = X[rows[~collapse]]
                # collapsing rows already hold x_star
        return out

    def to_json(self):
        doc = self.spec.to_json()
        doc["family"] = "occ-stubborn"
        return doc


def is_occasionally_coarse_by_node(
    d: Distortion, mu, grid_size: int = 200, tol: float = TOL_GEO
) -> CoarseVerdict:
    """Two-state structure test: identity interval with collapsed flanks.

    Scans the scalar grid {0, 1/g, ..., 1}.  The interval endpoints are
    fitted from the images of the innermost grid nodes (exact for
    parametric members of the family), then each node is checked against
    the region it falls in.  An endpoint indistinguishable from the grid
    boundary is reported as 0 or 1 (empty flank).
    """
    if d.n != 2:
        raise WrongDimension("interval structure is defined for two states")
    g = int(grid_size)
    if g < 2:
        raise ValueError("grid_size must be at least 2")
    ts = np.arange(g + 1, dtype=np.float64) / g
    X = np.column_stack([ts, 1.0 - ts])
    phis = evaluate_batch(d, mu, X)[:, 0]

    u_hat = float(phis[0])
    v_hat = float(phis[-1])
    a_fit = float(phis[1])
    b_fit = float(phis[-2])

    if a_fit > b_fit + tol:
        return CoarseVerdict(False, a_fit, b_fit, u_hat, v_hat, (float(ts[1]), "intervals"))

    for k in range(1, g):
        x = float(ts[k])
        phi = float(phis[k])
        if x < a_fit:
            if abs(phi - a_fit) > tol:
                return CoarseVerdict(False, a_fit, b_fit, u_hat, v_hat, (x, "c1-lower-coarse"))
        elif x > b_fit:
            if abs(phi - b_fit) > tol:
                return CoarseVerdict(False, a_fit, b_fit, u_hat, v_hat, (x, "c2-upper-coarse"))
        else:
            if abs(phi - x) > tol:
                return CoarseVerdict(False, a_fit, b_fit, u_hat, v_hat, (x, "c3-identity"))
    if u_hat > a_fit + tol:
        return CoarseVerdict(False, a_fit, b_fit, u_hat, v_hat, (0.0, "c4-vertices"))
    if v_hat < b_fit - tol:
        return CoarseVerdict(False, a_fit, b_fit, u_hat, v_hat, (1.0, "c4-vertices"))

    a_out = 0.0 if a_fit <= ts[1] + tol else a_fit
    b_out = 1.0 if b_fit >= ts[-2] - tol else b_fit
    return CoarseVerdict(True, a_out, b_out, u_hat, v_hat)


def contractive_two_state_by_error(search: _Search, x0: np.ndarray, img0) -> Optional[ViolationCertificate]:
    """Lemma 3 from the contractive error x0 with image img0: its 8 rungs are evaluated in one
    call, then the 5 sub-rungs of every rung that is no threshold step in
    another, and a two-state distribution is built only at a step that would
    charge.  A rule's map is pure, so the certificate and the budget charged
    are those of rung-by-rung calls."""
    d, mu, tol = search.d, search.mu, search.tol
    m = float(mu[0])
    z = float(x0[0])
    direction = 1.0 if z > m else -1.0
    far = 0.0 if direction > 0 else 1.0  # scalar coordinate of the opposite vertex
    binary = functools.lru_cache(maxsize=None)(functools.partial(_binary, m, far))

    def phi(t: np.ndarray) -> np.ndarray:
        return evaluate_batch(d, mu, np.stack([t, 1.0 - t], axis=1))[:, 0]

    zhat = float(img0[0])
    rungs = zhat + (z - zhat) * np.arange(1, 9) / 9.0
    rung_hats = phi(rungs)
    steps = direction * (rung_hats - zhat) > tol  # a less extreme posterior lands on a more extreme belief
    sub_rungs = (rung_hats[:, None] + (rungs - rung_hats)[:, None] * np.arange(1, 6) / 6.0)[~steps]
    sub_hats = phi(sub_rungs.ravel()).reshape(sub_rungs.shape) if sub_rungs.size else sub_rungs
    ternary = iter(zip(sub_rungs.tolist(), sub_hats.tolist()))
    for zp, zp_hat, step in zip(rungs.tolist(), rung_hats.tolist(), steps.tolist()):
        if step:
            cutoff = 0.5 * (zp_hat + zhat)
            rho_z, rho_zp = binary(z), binary(zp)
            if rho_z is None or rho_zp is None:
                continue
            search.charge()
            cert = search.try_pair(rho_z, rho_zp, _threshold_problem(direction, cutoff), "lemma3-threshold")
            if cert is not None:
                return cert
            continue
        for zpp, zpp_hat in zip(*next(ternary)):
            if direction * (zp_hat - zpp_hat) <= tol:
                continue
            # Ternary comparison: {far, zpp, z} against the binary {far, zp}.
            cutoff = 0.5 * (zp_hat + zpp_hat)
            rho_zp = binary(zp)
            if rho_zp is None:
                continue
            p = float(rho_zp.probs[1])
            if abs(z - zpp) < 1e-12:
                continue
            q_z = p * (zp - zpp) / (z - zpp)
            support = np.array([[far, 1.0 - far], [zpp, 1.0 - zpp], [z, 1.0 - z]])
            rho_hi = _distribution(support, [1.0 - p, p - q_z, q_z])
            if rho_hi is None:
                continue
            search.charge()
            cert = search.try_pair(rho_hi, rho_zp, _threshold_problem(direction, cutoff), "lemma3-ternary")
            if cert is not None:
                return cert
    return None




def is_occasionally_stubborn_face_by_face(d: Distortion, mu, tol: float = TOL_GEO) -> StubbornVerdict:
    """Structure test for three or more states.

    Samples the relative interior of every face (deterministically, keyed
    by the face), plus all vertices.  With any error present, x* is the
    image the full simplex's samples share (named even in a refutation):
    every face of dimension >= 2 whose closure errs collapses to x*; so do
    erring edges, except possibly a split edge through x*, read as
    ``StubbornRule`` reads its ``edge_case``; erring vertices meet
    ``vertex_image_ok`` at x*.  Raises WrongDimension for fewer than three
    states, or too many (``refuse_face_stack``).  The vertices and the
    face samples are evaluated in two calls, and each item walks the faces
    one by one; the verdict carries no ``failing_vertices``.
    """
    n = d.n
    if n < 3:
        raise WrongDimension("this structure test needs three or more states")
    refuse_face_stack(n)

    verts = np.eye(n)
    vert_imgs = evaluate_batch(d, mu, verts)
    vert_err = np.max(np.abs(vert_imgs - verts), axis=1) > tol

    faces, stack = distortions._face_stack(n)
    stack = stack[n:]  # the face samples, after the vertices
    stack_imgs = evaluate_batch(d, mu, stack)
    stack_errs = np.max(np.abs(stack_imgs - stack), axis=1) > tol
    face_data = []  # (face, samples, images, err mask)
    for j, face in enumerate(faces):
        part = slice(j * distortions._FACE_SAMPLES, (j + 1) * distortions._FACE_SAMPLES)
        face_data.append((face, stack[part], stack_imgs[part], stack_errs[part]))

    error_supports = [face.support for face, _, _, errs in face_data if bool(np.any(errs))]
    error_supports += [(int(i),) for i in np.nonzero(vert_err)[0]]
    if not error_supports:
        return StubbornVerdict(True, None)

    def closure_errs(face: Face) -> bool:
        return any(set(sup) <= set(face.support) for sup in error_supports)

    # x*: the full simplex is the last face, and its closure carries every error.
    interior_imgs = face_data[-1][2]
    x_star = interior_imgs[0]
    try:
        star = Belief(x_star) if np.max(np.abs(interior_imgs - x_star)) <= tol else None
    except ValueError:  # a common image off the simplex is no collapse point
        return StubbornVerdict(False, None, (face_data[-1][1][0], "item1-common-image"))

    # Item 1: erring faces of dimension >= 2 collapse to x*.
    for face, S, imgs, errs in face_data:
        if face.dim < 2 or not closure_errs(face):
            continue
        bad = ~errs | (np.max(np.abs(imgs - x_star), axis=1) > tol)
        if bad.any():
            return StubbornVerdict(False, star, (S[int(np.argmax(bad))], "item1-common-image"))

    def reads_as_split(edge: tuple, S: np.ndarray, imgs: np.ndarray) -> bool:
        """The samples read as ``StubbornRule`` reads them with x* and this split edge, for one of its
        vertices; never when ``StubbornRule`` refuses x* inside this edge."""
        try:
            splits = [StubbornRule(x_star, edge_case=(edge, k)) for k in edge]
        except ValueError:
            return False
        return any(np.max(np.abs(imgs - evaluate_batch(rule, mu, S))) <= tol for rule in splits)

    # Item 2: erring edges collapse, except possibly the split edge through x*.
    for face, S, imgs, errs in face_data:
        if face.dim != 1 or not closure_errs(face):
            continue
        dist = np.max(np.abs(imgs - x_star), axis=1)
        if not (np.all(dist <= tol) or reads_as_split(face.support, S, imgs)):
            return StubbornVerdict(False, star, (S[int(np.argmax(dist))], "item2-edge"))

    # Item 3: erring vertices map onto their segment toward x*.
    bad = vert_err & ~vertex_image_ok(x_star, np.arange(n), vert_imgs, tol)
    if bad.any():
        return StubbornVerdict(False, star, (verts[int(np.argmax(bad))], "item3-vertex"))

    return StubbornVerdict(True, star)


def vertex_condition_every_vertex(search: _Search, x_star: np.ndarray) -> Optional[ViolationCertificate]:
    """Vertex whose image fails the collapse family's vertex condition (``vertex_image_ok``), every vertex
    evaluated and tested at ``x_star``, the collapse point's Belief coordinates."""
    d, mu, tol = search.d, search.mu, search.tol
    verts = np.eye(mu.shape[0])
    vert_imgs = evaluate_batch(d, mu, verts)
    bad = ~vertex_image_ok(x_star, np.arange(mu.shape[0]), vert_imgs, tol)
    for i, e, img in zip(np.flatnonzero(bad).tolist(), verts[bad], vert_imgs[bad]):
        problem = search.cut([img], np.vstack([e[None, :], x_star[None, :], mu[None, :]]))
        if problem is None:
            continue
        # Reveal-state-i experiment versus a slightly blurred contraction of it.
        for p in (0.5 * float(mu[i]), 0.25 * float(mu[i])):
            y = (mu - p * e) / (1.0 - p)
            if np.min(y) <= 1e-9:
                continue
            rho_hi = PosteriorDistribution(np.vstack([e, y]), [p, 1.0 - p])
            z = 0.9 * e + 0.1 * y  # so mu = p e + (1 - p) y = (p / 0.9) z + (1 - p / 0.9) y
            rho_lo = _distribution(np.vstack([z, y]), [p / 0.9, 1.0 - p / 0.9])
            if rho_lo is None:
                continue
            cert = search.try_pair(rho_hi, rho_lo, problem, "vertexprop-separation")
            if cert is not None:
                return cert
    return None


def affine_chords_rebuilt(d: Distortion, mu, grid_size: int) -> tuple:
    """``affine_chords`` with its chord rows built afresh on every call: the
    coarsened resolution, the per-pair masks and steps, and z, x and y as
    separate writable arrays, evaluated in one call."""
    n = d.n
    refuse_chord_lattice(n)
    res = max(2, min(grid_size - 1, _CHORD_POINTS))  # any finer lattice has more than _CHORD_POINTS points
    while res > 2 and math.comb(res + n - 1, n - 1) > _CHORD_POINTS:
        res -= 1
    Z = _lattice(n, res)
    parts = []
    for i, j in itertools.combinations(range(n), 2):
        z = Z[(Z[:, i] > 0.0) & (Z[:, j] > 0.0)]
        s = np.minimum(z[:, i], z[:, j])
        step = np.zeros_like(z)
        step[:, i], step[:, j] = s, -s
        parts.append((z, step))
    z, step = (np.concatenate(c) for c in zip(*parts))
    x, y = z + step, z - step
    m = z.shape[0]
    imgs = evaluate_batch(d, mu, np.concatenate([z, x, y]))
    return z, x, y, imgs[:m] - 0.5 * (imgs[m : 2 * m] + imgs[2 * m :])
