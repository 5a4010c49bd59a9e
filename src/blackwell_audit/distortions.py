"""Belief-updating rules as distortion maps on the simplex.

A rule is represented by the map it induces from Bayesian posteriors to
held posteriors, parameterized by the prior.  The module provides the
classic parametric families, pointwise and pushforward evaluation, the
expansive/contractive error classification, and the structural checkers
that decide whether a rule has the shape required to never strictly
prefer less information (interval-coarse for two states, collapse-to-a-
common-point for three or more).

Two-state rules are frequently handled through the scalar convention
x = coords[0]; the vertex (1, 0) is "certainty of state 0" and plays the
role of the right endpoint 1.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from .geometry import (
    TOL_GEO,
    TOL_SUM,
    Belief,
    Face,
    _coerce,
    enumerate_faces,
    face_samples,
    on_segment,
    vertex_belief,
)
from .experiments import PosteriorDistribution, PriorNotInterior

# Coordinates above this threshold count toward a belief's support.
SUPPORT_TOL = 1e-9


class WrongDimension(ValueError):
    """Checker invoked for a state count it does not cover."""


class GridMiss(ValueError):
    """Tabulated rule queried off its grid."""


class NonFiniteImage(ValueError):
    """A rule's map returned NaN or an infinite coordinate."""


# ---------------------------------------------------------------------------
# Rule families
# ---------------------------------------------------------------------------


class Distortion:
    """Base class: a prior-parametric map from posteriors to held posteriors."""

    n: int
    family: str

    def apply_batch(self, mu: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Images of the rows of X at prior mu; called only through ``evaluate_batch``.

        mu is a float64 prior already found interior, and X a float64
        array of posteriors, one per row.  The images must be finite:
        ``evaluate_batch`` raises NonFiniteImage otherwise.
        """
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class BayesRule(Distortion):
    """The identity map: held posterior equals the Bayesian posterior."""

    n: int
    family: str = field(default="bayes", init=False)

    def apply_batch(self, mu, X):
        return X.copy()

    def to_json(self):
        return {"family": "bayes", "n": self.n}


@dataclass(frozen=True, eq=False)
class TrivialRule(Distortion):
    """Every posterior is read as the same fixed belief."""

    x_star: np.ndarray
    n: int = 0
    family: str = field(default="trivial", init=False)

    def __init__(self, x_star) -> None:
        xs = Belief(x_star).coords
        object.__setattr__(self, "x_star", xs)
        object.__setattr__(self, "n", xs.shape[0])

    def apply_batch(self, mu, X):
        return np.broadcast_to(self.x_star, X.shape).copy()

    def to_json(self):
        return {"family": "trivial", "x_star": [float(v) for v in self.x_star]}


@dataclass(frozen=True)
class CoarseRule(Distortion):
    """Two-state rule: identity on [a, b], collapse outside, bounded vertex images.

    The open interval (0, a) maps to a, the open interval (b, 1) maps to
    b, [a, b] is the identity region, and the vertices map to u <= a and
    v >= b.  Scalar coordinate convention: x = coords[0].
    """

    a: float
    b: float
    u: float
    v: float
    n: int = field(default=2, init=False)
    family: str = field(default="occ-coarse", init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.a <= self.b <= 1.0:
            raise ValueError("need 0 <= a <= b <= 1")
        if not 0.0 <= self.u <= self.a:
            raise ValueError("vertex image u must satisfy 0 <= u <= a")
        if not self.b <= self.v <= 1.0:
            raise ValueError("vertex image v must satisfy b <= v <= 1")

    def apply_scalar(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        out = np.clip(t, self.a, self.b)
        out = np.where(t <= 1e-12, self.u, out)
        out = np.where(t >= 1.0 - 1e-12, self.v, out)
        return out

    def apply_batch(self, mu, X):
        y = self.apply_scalar(X[..., 0])
        return np.stack([y, 1.0 - y], axis=-1)

    def to_json(self):
        return {"family": "occ-coarse", "a": self.a, "b": self.b, "u": self.u, "v": self.v}


@dataclass(frozen=True, eq=False)
class StubbornSpec:
    """Structure data for a collapse-to-a-point rule on three or more states.

    ``identity_faces`` lists supports of faces on which the rule is the
    identity; the set is closed downward (all subfaces included), so a
    face marked correct has correct vertices as well.  ``edge_case``
    optionally names one edge containing ``x_star`` in its relative
    interior together with the vertex whose side of the edge collapses;
    the rest of that edge is the identity.  ``vertex_images`` assigns
    images to erring vertices; each must put at least as much weight on
    its vertex state as ``x_star`` does.
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
            if arr[i] < xs[i] - TOL_GEO:
                raise ValueError(
                    f"vertex {i} image must weight state {i} at least as much as the common image"
                )
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
class StubbornRule(Distortion):
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


@dataclass(frozen=True)
class GretherRule(Distortion):
    """Over/under-reaction to evidence: held belief ~ likelihood**alpha * prior**beta.

    The likelihood is reconstructed from the Bayesian posterior via
    x/mu, so the map is x_hat(theta) ~ (x(theta)/mu(theta))**alpha *
    mu(theta)**beta, normalized.  Zero coordinates stay zero (continuous
    extension), making every vertex a fixed point.
    """

    alpha: float
    beta: float
    n: int
    family: str = field(default="grether", init=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
            raise ValueError("alpha and beta must be positive and finite")

    def apply_batch(self, mu, X):
        # Extreme exponents overflow or underflow to a non-finite image, which the gate reports.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            w = np.power(X / mu, self.alpha) * np.power(mu, self.beta)
            return w / w.sum(axis=-1, keepdims=True)

    def to_json(self):
        return {"family": "grether", "alpha": self.alpha, "beta": self.beta, "n": self.n}


@dataclass(frozen=True)
class ShrinkageRule(Distortion):
    """Conservative updating: held belief is pulled toward the prior.

    x_hat = lam * x + (1 - lam) * mu; lam = 1 is Bayes, lam = 0 reads
    everything as the prior.
    """

    lam: float
    n: int
    family: str = field(default="shrinkage", init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("shrinkage weight must lie in [0, 1]")

    def apply_batch(self, mu, X):
        return self.lam * X + (1.0 - self.lam) * mu

    def to_json(self):
        return {"family": "shrinkage", "lambda": self.lam, "n": self.n}


#: A tabulated lookup compares at most this many (row, node) pairs at once; 2^14 was the
#: fastest of 2^11 to 2^18 on 861- and 1,771-node tables (larger temporaries cost more to allocate).
_LOOKUP_CELLS = 1 << 14


@dataclass(frozen=True, eq=False)
class TabulatedRule(Distortion):
    """Rule given by a finite table of (node, image) pairs, each a belief.

    Lookup is nearest-node within ``tol`` in the sup norm (the first
    node on a tie), with no interpolation; the first query farther than
    ``tol`` from every node, or holding NaN, raises GridMiss.
    """

    nodes: np.ndarray
    images: np.ndarray
    tol: float
    n: int = 0
    family: str = field(default="tabulated", init=False)

    def __init__(self, nodes, images, tol: float) -> None:
        nd = np.asarray(nodes, dtype=np.float64)
        im = np.asarray(images, dtype=np.float64)
        if nd.shape != im.shape or nd.ndim != 2:
            raise ValueError("nodes and images must be matching 2-d arrays")
        for what, rows in (("node", nd), ("image", im)):
            sums = np.maximum(rows, 0.0).sum(axis=1)
            # The checks a Belief makes, row by row; NaN and inf fail them.
            if not (np.all(rows >= -TOL_SUM) and np.all(np.abs(sums - 1.0) <= 1e-9)):
                raise ValueError(f"every {what} of a tabulated rule must be a finite belief summing to 1")
        if not 0.0 <= float(tol) < math.inf:
            raise ValueError(f"tabulated rule tol must be finite and non-negative, got {tol}")
        object.__setattr__(self, "nodes", nd)
        object.__setattr__(self, "images", im)
        object.__setattr__(self, "tol", float(tol))
        object.__setattr__(self, "n", nd.shape[1])

    def apply_batch(self, mu, X):
        X = np.atleast_2d(X)
        out = np.empty_like(X)
        rows = max(1, _LOOKUP_CELLS // max(1, self.nodes.shape[0]))
        for lo in range(0, X.shape[0], rows):
            # Sup-norm distances (rows, nodes), one coordinate at a time; a query of another width raises ValueError.
            columns = zip(X[lo : lo + rows].T, self.nodes.T, strict=True)
            dist = functools.reduce(np.maximum, (np.abs(x[:, None] - node) for x, node in columns))
            j = np.argmin(dist, axis=1)
            nearest = dist[np.arange(j.size), j]
            miss = np.flatnonzero(~(nearest <= self.tol))  # a NaN query is a miss
            if miss.size:
                r = int(miss[0])
                x, gap = X[lo + r], nearest[r]
                raise GridMiss(f"tabulated rule queried off its nodes: {x} is {gap:.3e} from the nearest")
            out[lo : lo + rows] = self.images[j]
        return out

    @staticmethod
    def from_csv(path, n: int, tol: float) -> "TabulatedRule":
        """Load rows of 2n floats: node coordinates then image coordinates."""
        nodes = []
        images = []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                vals = [float(v) for v in row]
                if len(vals) != 2 * n:
                    raise ValueError(f"expected {2 * n} columns, got {len(vals)}")
                nodes.append(vals[:n])
                images.append(vals[n:])
        return TabulatedRule(nodes, images, tol)

    def to_json(self):
        return {
            "family": "tabulated",
            "nodes": [[float(v) for v in row] for row in self.nodes],
            "images": [[float(v) for v in row] for row in self.images],
            "tol": self.tol,
        }


# ---------------------------------------------------------------------------
# Evaluation, pushforward, classification
# ---------------------------------------------------------------------------


def evaluate(d: Distortion, mu, x) -> Belief:
    """Apply the rule's distortion map at prior mu to a single posterior."""
    X = _coerce(x)[None, :]
    out = evaluate_batch(d, mu, X)[0]
    # Families built from exact data can drift by float rounding only.
    return Belief(out)


def evaluate_batch(d: Distortion, mu, X) -> np.ndarray:
    """The rule's images of the rows of X at prior mu: the one gate to ``Distortion.apply_batch``.

    mu and X are coerced to float64 once; a prior off the interior, or one
    with a NaN or infinite coordinate, raises PriorNotInterior before the
    rule runs, and an image holding NaN or an infinite coordinate raises
    NonFiniteImage, so every caller gets finite images or an error.
    """
    mua = _coerce(mu)
    if not (mua.min() > 0.0 and mua.max() < math.inf):
        raise PriorNotInterior("rule evaluation requires a full-support prior")
    imgs = d.apply_batch(mua, np.asarray(X, dtype=np.float64))
    if not np.isfinite(imgs).all():
        raise NonFiniteImage(f"the rule's map returned a non-finite image at prior {mua.tolist()}")
    return imgs


def pushforward(d: Distortion, mu, rho_b: PosteriorDistribution) -> PosteriorDistribution:
    """Image of a posterior distribution under the rule (coincident images merge)."""
    imgs = evaluate_batch(d, mu, rho_b.support)
    return PosteriorDistribution(imgs, rho_b.probs)


@dataclass(frozen=True)
class ErrorClass:
    """Classification of a rule's mistake at one posterior.

    ``kind`` is "none", "expansive" (image off the posterior-prior
    segment) or "contractive" (image on the segment, not the posterior
    itself); ``witness_lambda`` locates a contractive image on the
    segment (1 at the posterior, 0 at the prior).
    """

    kind: str
    witness_lambda: Optional[float] = None


def classify_error(d: Distortion, mu, x, tol: float = TOL_GEO) -> ErrorClass:
    mua = _coerce(mu)
    xa = _coerce(x)
    img = evaluate_batch(d, mua, xa[None, :])[0]
    if np.max(np.abs(img - xa)) <= tol:
        return ErrorClass("none")
    hit, lam = on_segment(xa, mua, img, tol=tol)
    if hit:
        return ErrorClass("contractive", lam)
    return ErrorClass("expansive")


#: Census rows whose column-wise residual lies this close to tol are decided row-wise.
_REDECIDE = 1e-12


def classify_batch(d: Distortion, mu, X, tol: float = TOL_GEO):
    """Vectorized error census: returns (kinds, magnitudes).

    magnitudes is max|image - x| per row; a row errs when it exceeds tol.
    kinds is int8 with 0 = none, 1 = expansive, 2 = contractive.  Only the
    erring rows are located against the posterior-prior segment, column by
    column (``_segment_residual``); a row whose residual lands within
    ``_REDECIDE`` of tol is decided again by the row-wise formulas
    (``_segment_residual_rows``), so kinds never depend on the rounding of
    the column-wise sums.
    """
    mua = _coerce(mu)
    X = np.asarray(X, dtype=np.float64)
    imgs = evaluate_batch(d, mua, X)
    # Row maxima column by column: np.max(axis=1) is several times slower on few columns.
    mags = functools.reduce(np.maximum, np.abs(imgs - X).T)
    err = mags > tol
    rows = slice(None)
    if not err.all():  # on many rules every row errs, and then a gather only costs time
        rows = np.flatnonzero(err)
        X, imgs = X.take(rows, axis=0), imgs.take(rows, axis=0)  # take: far faster than X[rows]
    resid = _segment_residual(X, imgs, mua)
    near = np.flatnonzero(~(np.abs(resid - tol) > _REDECIDE))
    if near.size:
        resid[near] = _segment_residual_rows(X.take(near, axis=0), imgs.take(near, axis=0), mua)
    kinds = np.zeros(mags.shape[0], dtype=np.int8)
    kinds[rows] = 2 * (resid <= tol) + (resid > tol)  # a NaN residual stays 0
    return kinds, mags


def _segment_residual(X: np.ndarray, imgs: np.ndarray, mua: np.ndarray) -> np.ndarray:
    """Per row, the sup-norm distance from the image to its nearest point
    lam x + (1 - lam) mu of the posterior-prior segment, lam clipped to
    [0, 1]: the formulas of ``_segment_residual_rows``, evaluated in place
    on whole columns rather than broadcast over rows of a few entries."""
    XT, IT = X.T, imgs.T
    dx, di = XT[0] - mua[0], IT[0] - mua[0]
    denom, num = dx * dx, di * dx
    for c in range(1, len(mua)):
        np.subtract(XT[c], mua[c], out=dx)
        np.subtract(IT[c], mua[c], out=di)
        denom += dx * dx
        num += di * dx
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = np.where(denom > 0.0, num / np.where(denom > 0, denom, 1.0), 0.0)
    np.clip(lam, 0.0, 1.0, out=lam)
    rest = np.subtract(1.0, lam, out=denom)
    resid = np.zeros_like(lam)
    for c, m in enumerate(mua):  # dx, then di, reused as scratch columns
        np.multiply(lam, XT[c], out=dx)
        dx += np.multiply(rest, m, out=di)
        dx -= IT[c]
        np.maximum(resid, np.abs(dx, out=dx), out=resid)
    return resid


def _segment_residual_rows(X: np.ndarray, imgs: np.ndarray, mua: np.ndarray) -> np.ndarray:
    """``_segment_residual`` with row sums: the census's reference formulas."""
    dx = X - mua
    di = imgs - mua
    denom = np.sum(dx * dx, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = np.where(denom > 0.0, np.sum(di * dx, axis=1) / np.where(denom > 0, denom, 1.0), 0.0)
    lam = np.clip(lam, 0.0, 1.0)
    return np.max(np.abs(lam[:, None] * X + (1.0 - lam[:, None]) * mua - imgs), axis=1)


# ---------------------------------------------------------------------------
# Structural checkers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoarseVerdict:
    ok: bool
    a: Optional[float] = None
    b: Optional[float] = None
    u: Optional[float] = None
    v: Optional[float] = None
    refutation: Optional[tuple] = None  # (scalar x, condition id)

    def to_json(self) -> dict:
        doc = {"ok": self.ok, "a": self.a, "b": self.b, "u": self.u, "v": self.v}
        if self.refutation is not None:
            doc["refutation"] = {"x": self.refutation[0], "condition": self.refutation[1]}
        return doc


def is_occasionally_coarse(
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


@dataclass(frozen=True)
class StubbornVerdict:
    ok: bool
    x_star: Optional[Belief] = None
    refutation: Optional[tuple] = None  # (point coords, item id)

    def to_json(self) -> dict:
        doc: dict = {"ok": self.ok}
        doc["x_star"] = self.x_star.to_json() if self.x_star is not None else None
        if self.refutation is not None:
            doc["refutation"] = {
                "point": [float(v) for v in self.refutation[0]],
                "item": self.refutation[1],
            }
        return doc


@functools.lru_cache(maxsize=16)
def _face_stack(n: int, count: int) -> tuple:
    """(faces, samples): every face of dimension >= 1 and its ``face_samples``, stacked
    in face order, ``count`` rows per face; cached, read-only."""
    faces = tuple(enumerate_faces(n, min_dim=1))
    stack = np.vstack([face_samples(face, n, count) for face in faces])
    stack.setflags(write=False)
    return faces, stack


def is_occasionally_stubborn(
    d: Distortion, mu, samples_per_face: int = 24, tol: float = TOL_GEO
) -> StubbornVerdict:
    """Structure test for three or more states.

    Samples the relative interior of every face (deterministically, keyed
    by the face), plus all vertices.  With any error present, every face
    of dimension >= 2 whose closure errs must collapse its interior to
    one common point; erring edges collapse too, except possibly one edge
    through the common point that may keep its far side correct; erring
    vertices must stay at least as extreme (toward their own state) as
    the common point.
    """
    n = d.n
    if n < 3:
        raise WrongDimension("this structure test needs three or more states")

    verts = np.eye(n)
    vert_imgs = evaluate_batch(d, mu, verts)
    vert_err = np.max(np.abs(vert_imgs - verts), axis=1) > tol

    faces, stack = _face_stack(n, samples_per_face)
    stack_imgs = evaluate_batch(d, mu, stack)
    stack_errs = np.max(np.abs(stack_imgs - stack), axis=1) > tol
    face_data = []  # (face, samples, images, err mask)
    for j, face in enumerate(faces):
        part = slice(j * samples_per_face, (j + 1) * samples_per_face)
        face_data.append((face, stack[part], stack_imgs[part], stack_errs[part]))

    error_supports = [face.support for face, _, _, errs in face_data if bool(np.any(errs))]
    error_supports += [(int(i),) for i in np.nonzero(vert_err)[0]]
    if not error_supports:
        return StubbornVerdict(True, None)

    def closure_errs(face: Face) -> bool:
        return any(set(sup) <= set(face.support) for sup in error_supports)

    # Item 1: erring faces of dimension >= 2 collapse to one common image.
    x_star: Optional[np.ndarray] = None
    for face, S, imgs, errs in face_data:
        if face.dim < 2 or not closure_errs(face):
            continue
        for k in range(S.shape[0]):
            if not errs[k]:
                return StubbornVerdict(False, None, (S[k], "item1-common-image"))
            if x_star is None:
                x_star = imgs[k]
            elif np.max(np.abs(imgs[k] - x_star)) > tol:
                return StubbornVerdict(False, None, (S[k], "item1-common-image"))
    if x_star is None:
        # Errors exist but no face of dim >= 2 contains one in its closure;
        # impossible since the full simplex contains everything.
        raise AssertionError("unreachable: full simplex must carry the error")

    star = Belief(x_star)

    def star_in_edge_interior(face: Face) -> bool:
        i, j = face.support
        inside = x_star[i] > SUPPORT_TOL and x_star[j] > SUPPORT_TOL
        off = np.delete(x_star, [i, j])
        return inside and (off.size == 0 or np.max(off) <= SUPPORT_TOL)

    # Item 2: erring edges collapse, except possibly the split edge through x*.
    for face, S, imgs, errs in face_data:
        if face.dim != 1 or not closure_errs(face):
            continue
        all_star = bool(np.all(np.max(np.abs(imgs - x_star), axis=1) <= tol))
        if all_star:
            continue
        if not star_in_edge_interior(face):
            bad = int(np.argmax(np.max(np.abs(imgs - x_star), axis=1)))
            return StubbornVerdict(False, star, (S[bad], "item2-edge"))
        matched = False
        for extreme in face.support:
            ok = True
            e = verts[extreme]
            for k in range(S.shape[0]):
                loc = on_segment(e, x_star, S[k], tol=tol)
                between = loc.on and 1e-9 < loc.lam < 1.0 - 1e-9
                want = x_star if between else S[k]
                if np.max(np.abs(imgs[k] - want)) > tol:
                    ok = False
                    break
            if ok:
                matched = True
                break
        if not matched:
            bad = int(np.argmax(np.max(np.abs(imgs - x_star), axis=1)))
            return StubbornVerdict(False, star, (S[bad], "item2-edge"))

    # Item 3: erring vertices stay at least as extreme as x* toward their state.
    for i in np.nonzero(vert_err)[0]:
        if vert_imgs[i][i] < x_star[i] - tol:
            return StubbornVerdict(False, star, (verts[i], "item3-vertex"))

    return StubbornVerdict(True, star)


def is_trivial_on_interior(d: Distortion, mu, tol: float = TOL_GEO) -> bool:
    """True when 64 sampled interior posteriors share one image."""
    n = d.n
    S = face_samples(Face(tuple(range(n))), n, 64)
    imgs = evaluate_batch(d, mu, S)
    return bool(np.max(np.abs(imgs - imgs[0])) <= tol)


def is_affine(d: Distortion, mu) -> bool:
    """True when the rule's map is affine on the whole simplex.

    Fits x -> Ax + b on n + 1 affinely independent samples, then verifies
    the fit, to within 1e-8, on 128 deterministic interior samples plus
    every vertex.
    """
    n = d.n
    centroid = np.full(n, 1.0 / n)
    fit_pts = [centroid] + [0.8 * np.eye(n)[i] + 0.2 * centroid for i in range(n)]
    fit_pts = np.asarray(fit_pts)
    fit_imgs = evaluate_batch(d, mu, fit_pts)
    design = np.hstack([fit_pts, np.ones((n + 1, 1))])
    coefs, *_ = np.linalg.lstsq(design, fit_imgs, rcond=None)

    check = np.vstack(
        [
            face_samples(Face(tuple(range(n))), n, 128),
            np.eye(n),
        ]
    )
    predicted = np.hstack([check, np.ones((check.shape[0], 1))]) @ coefs
    actual = evaluate_batch(d, mu, check)
    return bool(np.max(np.abs(predicted - actual)) <= 1e-8)


# ---------------------------------------------------------------------------
# Serialization and sampling helpers
# ---------------------------------------------------------------------------


def rule_from_json(doc: dict, n: Optional[int] = None) -> Distortion:
    """Build a rule from its JSON spec; ``n`` supplies the state count when absent."""
    family = doc.get("family")
    if family == "bayes":
        return BayesRule(int(doc.get("n", n or 0)) or _need_n(n))
    if family == "trivial":
        return TrivialRule(doc["x_star"])
    if family == "occ-coarse":
        return CoarseRule(doc["a"], doc["b"], doc["u"], doc["v"])
    if family == "grether":
        return GretherRule(float(doc["alpha"]), float(doc["beta"]), int(doc.get("n", n or 0)) or _need_n(n))
    if family == "shrinkage":
        return ShrinkageRule(float(doc["lambda"]), int(doc.get("n", n or 0)) or _need_n(n))
    if family == "occ-stubborn":
        ec = None
        if "edge_case" in doc and doc["edge_case"] is not None:
            ec = (tuple(doc["edge_case"]["edge"]), int(doc["edge_case"]["vertex"]))
        spec = StubbornSpec(
            doc["x_star"],
            vertex_images=doc.get("vertex_images"),
            identity_faces=doc.get("identity_faces"),
            edge_case=ec,
        )
        return StubbornRule(spec)
    if family == "tabulated":
        return TabulatedRule(doc["nodes"], doc["images"], float(doc["tol"]))
    raise ValueError(f"unknown rule family: {family!r}")


def _need_n(n: Optional[int]) -> int:
    if n is None:
        raise ValueError("this rule family needs an explicit state count")
    return int(n)


def parse_rule(text: str, n: Optional[int] = None) -> Distortion:
    """Parse a compact rule string such as ``grether(2,1)``, a reference
    example (``occ-stubborn-a``, ``occ-stubborn-b``; three states) or inline JSON."""
    text = text.strip()
    examples = {"occ-stubborn-a": stubborn_example_a, "occ-stubborn-b": stubborn_example_b}
    if text.lower() in examples:
        return examples[text.lower()]()
    if text.startswith("{"):
        return rule_from_json(json.loads(text), n=n)
    if "(" in text:
        name, _, rest = text.partition("(")
        args = [float(v) for v in rest.rstrip(")").split(",") if v.strip()]
        name = name.strip().lower()
        if name in ("occ-coarse", "coarse"):
            return CoarseRule(*args)
        if name == "grether":
            return GretherRule(args[0], args[1] if len(args) > 1 else 1.0, _need_n(n))
        if name == "shrinkage":
            return ShrinkageRule(args[0], _need_n(n))
        if name == "trivial":
            return TrivialRule(args)
        raise ValueError(f"unknown rule shorthand: {name!r}")
    if text.lower() == "bayes":
        return BayesRule(_need_n(n))
    raise ValueError(f"cannot parse rule: {text!r}")


def _full3(x1: float, x2: float) -> list:
    return [x1, x2, 1.0 - x1 - x2]


def stubborn_example_a() -> StubbornRule:
    """Reference three-state collapse rule, trivial on every edge.

    All non-vertex beliefs are read as (1/5, 1/3, 7/15); one vertex is
    correct and the other two carry fixed images that stay more extreme
    toward their own state than the common point.
    """
    spec = StubbornSpec(
        _full3(1 / 5, 1 / 3),
        vertex_images={
            2: _full3(1 / 5, 1 / 6),
            1: _full3(3 / 10, 1 / 2),
        },
    )
    return StubbornRule(spec)


def stubborn_example_b() -> StubbornRule:
    """Reference three-state collapse rule with a split edge.

    The common point (1/2, 1/2, 0) sits inside one edge: the half of
    that edge toward the second vertex collapses onto it while the other
    half is read correctly; one full edge is correct; everything else
    collapses, and the erring vertex maps onto the segment toward the
    common point.
    """
    spec = StubbornSpec(
        _full3(1 / 2, 1 / 2),
        vertex_images={1: _full3(3 / 10, 7 / 10)},
        identity_faces=[(0, 2)],
        edge_case=((0, 1), 1),
    )
    return StubbornRule(spec)


def random_rule(family: str, n: int, rng: np.random.Generator) -> Distortion:
    """Draw a random member of a family (legal by construction for the
    structured families, strictly non-Bayesian for the erring ones)."""
    if family == "occ-coarse":
        if n != 2:
            raise WrongDimension("interval rules are two-state")
        a = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.05, 0.45))
        b = 1.0 if rng.random() < 0.25 else float(rng.uniform(0.55, 0.95))
        u = float(rng.uniform(0.0, a)) if a > 0 else 0.0
        v = float(rng.uniform(b, 1.0)) if b < 1 else 1.0
        return CoarseRule(a, b, u, v)
    if family == "occ-stubborn":
        if rng.random() < 0.35:
            # Common image inside a random edge, possibly with the split form.
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            t = float(rng.uniform(0.25, 0.75))
            xs = np.zeros(n)
            xs[i], xs[j] = t, 1.0 - t
            ec = ((i, j), int(rng.choice([i, j]))) if rng.random() < 0.6 else None
            spec_edge = ec
        else:
            xs = rng.dirichlet(np.ones(n) * 3.0)
            spec_edge = None
        vertex_images = {}
        for i in range(n):
            r = rng.random()
            if r < 0.4:
                continue  # correct vertex
            t = float(rng.uniform(0.0, 1.0))
            vertex_images[i] = t * np.eye(n)[i] + (1.0 - t) * xs
        identity = []
        if spec_edge is None and rng.random() < 0.4:
            # One entirely-correct edge (its vertices become correct too).
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            identity.append((i, j))
            vertex_images.pop(i, None)
            vertex_images.pop(j, None)
        spec = StubbornSpec(xs, vertex_images=vertex_images, identity_faces=identity, edge_case=spec_edge)
        return StubbornRule(spec)
    if family == "grether":
        lo = rng.random() < 0.5
        alpha = float(rng.uniform(0.3, 0.75)) if lo else float(rng.uniform(1.3, 3.0))
        beta = float(rng.uniform(0.6, 1.8))
        return GretherRule(alpha, beta, n)
    if family == "shrinkage":
        return ShrinkageRule(float(rng.uniform(0.15, 0.85)), n)
    if family == "trivial":
        return TrivialRule(rng.dirichlet(np.ones(n) * 2.0))
    raise ValueError(f"unknown family: {family!r}")
