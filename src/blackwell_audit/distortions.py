"""Belief-updating rules as distortion maps on the simplex.

A rule is represented by the map it induces from Bayesian posteriors to
held posteriors, parameterized by the prior.  The module provides the
classic parametric families, their one evaluation gate, the
expansive/contractive error census, and the structural checkers
that decide whether a rule has the shape required to never strictly
prefer less information (interval-coarse for two states, collapse-to-a-
common-point for three or more).

Two-state rules are frequently handled through the scalar convention
x = coords[0]; the vertex (1, 0) is "certainty of state 0" and plays the
role of the right endpoint 1.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from .geometry import (
    MAX_POINTS,
    TOL_GEO,
    TOL_SUM,
    Belief,
    Face,
    _coerce,
    _lattice,
    enumerate_faces,
    face_samples,
    on_segment,
)
from .experiments import interior_prior

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
        """Images of the rows of X at prior mu; called only by the two gates,
        ``evaluate_batch`` and ``classify_batch``.

        mu is a float64 prior already found interior, and X a read-only
        float64 array of posteriors, one per row.  A rule may return X
        itself; nobody writes into an image.  The images must be finite and
        of X's shape: both gates raise NonFiniteImage or ValueError otherwise.
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
        return X

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

    def apply_batch(self, mu, X):
        t = X[..., 0]
        y = np.clip(t, self.a, self.b)
        y = np.where(t <= 1e-12, self.u, y)
        y = np.where(t >= 1.0 - 1e-12, self.v, y)
        return np.stack([y, 1.0 - y], axis=-1)

    def to_json(self):
        return {"family": "occ-coarse", "a": self.a, "b": self.b, "u": self.u, "v": self.v}


@dataclass(frozen=True, eq=False)
class StubbornRule(Distortion):
    """Collapse rule on three or more states: every erring face interior is read as one common belief.

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
    family: str = field(default="occ-stubborn", init=False)
    # Built once for apply_batch: row i is vertex i's image, and one boolean support row for each
    # identity face of two or more vertices (bit masks in int64 would overflow from 63 states on).
    _vertex_table: np.ndarray = field(init=False, repr=False)
    _identity_supports: np.ndarray = field(init=False, repr=False)

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
                closure.update(itertools.combinations(support, size))

        ec = None
        if edge_case is not None:
            edge, extreme = edge_case
            edge = tuple(sorted(int(i) for i in edge))
            extreme = int(extreme)
            if len(edge) != 2 or extreme not in edge:
                raise ValueError("edge_case must name an edge and one of its vertices")
            if edge in closure:
                raise ValueError("the split edge cannot also be an identity face")
            if not np.array_equal(xs > SUPPORT_TOL, np.isin(range(n), edge)):
                raise ValueError("edge_case requires the common image inside that edge")
            ec = (edge, extreme)

        imgs: Dict[int, np.ndarray] = {}
        eye = np.eye(n)
        for key, img in (vertex_images or {}).items():
            i = int(key)
            if not 0 <= i < n:
                raise ValueError(f"vertex index out of range: {i}")
            arr = Belief(img).coords
            if (i,) in closure and np.max(np.abs(arr - eye[i])) > TOL_GEO:
                raise ValueError(f"vertex {i} belongs to an identity face; it cannot err")
            if not vertex_image_ok(xs, i, arr):
                raise ValueError(f"vertex {i} image must lie on the segment from the common image to vertex {i}")
            imgs[i] = arr
        table = np.array([imgs.get(i, eye[i]) for i in range(n)])

        supports = np.array([np.isin(range(n), face) for face in closure if len(face) > 1], dtype=bool)
        object.__setattr__(self, "x_star", xs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vertex_images", imgs)
        object.__setattr__(self, "identity_faces", frozenset(closure))
        object.__setattr__(self, "edge_case", ec)
        object.__setattr__(self, "_vertex_table", table)
        object.__setattr__(self, "_identity_supports", supports.reshape(-1, n))

    def apply_batch(self, mu, X):
        """x* on every row, but a vertex's image on a vertex, and the row itself on an identity face or on the
        split edge away from its vertex's side; a row's support is its coordinates above ``SUPPORT_TOL``."""
        X = np.atleast_2d(X)
        members = X > SUPPORT_TOL
        sizes = members @ np.ones(self.n)  # a product: several times faster than sum(axis=1) on few columns
        # A support lies on an identity face unless it has a member off each of them (the set is closed downward).
        identity = (sizes > 1) & ~(members @ ~self._identity_supports.T).all(axis=1)
        if self.edge_case is not None:
            (i, j), extreme = self.edge_case
            coord = X[:, extreme]
            collapse = (coord > self.x_star[extreme] + 1e-12) & (coord < 1.0 - 1e-12)
            identity |= (sizes == 2) & members[:, i] & members[:, j] & ~collapse
        out = np.where(identity[:, None], X, self.x_star)
        vertex = sizes == 1
        out[vertex] = self._vertex_table[np.argmax(X[vertex], axis=1)]
        return out

    def to_json(self):
        doc: dict = {"x_star": [float(v) for v in self.x_star]}
        if self.vertex_images:
            doc["vertex_images"] = {
                str(i): [float(v) for v in img] for i, img in self.vertex_images.items()
            }
        if self.identity_faces:
            doc["identity_faces"] = sorted(list(f) for f in self.identity_faces)
        if self.edge_case:
            doc["edge_case"] = {"edge": list(self.edge_case[0]), "vertex": self.edge_case[1]}
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

    def to_json(self):
        return {
            "family": "tabulated",
            "nodes": [[float(v) for v in row] for row in self.nodes],
            "images": [[float(v) for v in row] for row in self.images],
            "tol": self.tol,
        }


# ---------------------------------------------------------------------------
# Evaluation and the error census
# ---------------------------------------------------------------------------


def evaluate_batch(d: Distortion, mu, X) -> np.ndarray:
    """The rule's images of the rows of X at prior mu: one of the two gates to ``Distortion.apply_batch``.

    mu and X are coerced to float64 once; a prior off the interior, or one
    with a NaN or infinite coordinate, raises PriorNotInterior before the
    rule runs.  The rule gets a read-only view of X and may return it, so
    the images may be read but never written.  Images that are not an
    ndarray of X's shape raise ValueError, and an image holding NaN or an
    infinite coordinate raises NonFiniteImage, so every caller gets finite
    images or an error.
    """
    mua = interior_prior(mu, "rule evaluation")
    X = _read_only(X)
    imgs = d.apply_batch(mua, X)
    _check_shape(imgs, X)
    _check_finite(imgs, mua)
    return imgs


def _read_only(X) -> np.ndarray:
    """X as float64, through a view that no rule can write through."""
    view = np.asarray(X, dtype=np.float64).view()
    view.setflags(write=False)
    return view


def _check_shape(imgs, X: np.ndarray) -> None:
    """ValueError, before any arithmetic, unless the images are an ndarray of X's shape."""
    if not isinstance(imgs, np.ndarray):
        raise ValueError(f"the rule's map returned a {type(imgs).__name__}, not a numpy.ndarray, of images")
    if imgs.shape != X.shape:
        raise ValueError(f"the rule's map returned images of shape {imgs.shape} for posteriors of shape {X.shape}")


def _check_finite(imgs, mua: np.ndarray) -> None:
    """NonFiniteImage unless every image coordinate is finite.  A finite sum proves that they all
    are, and on the few rows of most calls it costs less than the elementwise test."""
    if not abs(np.add.reduce(imgs, axis=None)) < np.inf and not np.isfinite(imgs).all():  # NaN fails both
        raise NonFiniteImage(f"the rule's map returned a non-finite image at prior {mua.tolist()}")


#: The census walks its rows in blocks of this many float64 elements (256 KB per array),
#: so every pass over a block's images, differences and residuals stays in cache.
_CENSUS_BLOCK = 1 << 15


def classify_batch(d: Distortion, mu, X, tol: float = TOL_GEO):
    """Vectorized error census: returns (kinds, magnitudes).

    magnitudes is max|image - x| per row; a row errs when it exceeds tol.
    kinds is int8 with 0 = none, 1 = expansive, 2 = contractive.  The other
    gate to ``Distortion.apply_batch``, with ``evaluate_batch``'s guarantee:
    the prior is checked once, the rule gets read-only blocks of
    ``_CENSUS_BLOCK`` elements, and images that are not an ndarray of the
    block's shape raise ValueError.  Finiteness is read off a block's
    magnitudes, which over finite rows are finite exactly when the images
    are: a non-finite image raises NonFiniteImage, a non-finite posterior
    row ValueError.
    Only a block's erring rows, if it has any, are located against the
    posterior-prior segment, by one ``on_segment`` call: a row is
    contractive when its residual is at most tol.  Every formula is per
    row, so blocking changes no bit.
    """
    mua = interior_prior(mu, "rule evaluation")  # also when X has no rows, so no block is evaluated
    X = _read_only(X)
    kinds = np.zeros(X.shape[0], dtype=np.int8)
    mags = np.empty(X.shape[0])
    step = max(1, _CENSUS_BLOCK // X.shape[1])
    scratch = np.empty((min(step, X.shape[0]), X.shape[1]))  # every block's |image - x|
    for lo in range(0, X.shape[0], step):
        block = slice(lo, lo + step)
        Xb = X[block]
        imgs = d.apply_batch(mua, Xb)
        _check_shape(imgs, Xb)
        diff = np.subtract(imgs, Xb, out=scratch[: Xb.shape[0]])
        # Row maxima column by column: np.max(axis=1) is several times slower on few columns.
        cols, m = np.abs(diff, out=diff).T, mags[block]
        np.maximum(cols[0], cols[-1], out=m)
        for col in cols[1:-1]:
            np.maximum(m, col, out=m)
        top = m.max()
        if not top < np.inf:  # NaN or inf: find the non-finite image or row, unless a difference overflowed
            _check_finite(imgs, mua)
            bad = np.flatnonzero(~np.isfinite(Xb).all(axis=1))
            if bad.size:
                raise ValueError(f"posterior row {lo + bad[0]} is not finite: {Xb[bad[0]].tolist()}")
        if top <= tol:  # an error-free block: its kinds stay 0
            continue
        err = m > tol
        rows = slice(None)
        if not err.all():  # on many rules every row errs, and then a gather only costs time
            rows = np.flatnonzero(err)
            Xb, imgs = Xb.take(rows, axis=0), imgs.take(rows, axis=0)  # take: far faster than X[rows]
        resid = on_segment(Xb, mua, imgs).resid
        kinds[block][rows] = 2 * (resid <= tol) + (resid > tol)
    return kinds, mags


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
    X = _lattice(2, g)  # the census's cached lattice when g is its resolution
    ts = X[:, 0]
    phis = evaluate_batch(d, mu, X)[:, 0]

    u_hat = float(phis[0])
    v_hat = float(phis[-1])
    a_fit = float(phis[1])
    b_fit = float(phis[-2])

    if a_fit > b_fit + tol:
        return CoarseVerdict(False, a_fit, b_fit, u_hat, v_hat, (float(ts[1]), "intervals"))

    # Each inner node against its region's image: a below [a, b], b above it, the node itself inside.
    inner = ts[1:-1]
    held = np.where(inner < a_fit, a_fit, np.where(inner > b_fit, b_fit, inner))
    bad = np.flatnonzero(np.abs(phis[1:-1] - held) > tol)
    if bad.size:
        x = float(inner[bad[0]])
        condition = "c1-lower-coarse" if x < a_fit else "c2-upper-coarse" if x > b_fit else "c3-identity"
        return CoarseVerdict(False, a_fit, b_fit, u_hat, v_hat, (x, condition))
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
    failing_vertices: tuple = ()  # item 3's erring vertices off their segment toward x*; not reported

    def to_json(self) -> dict:
        doc: dict = {"ok": self.ok}
        doc["x_star"] = self.x_star.to_json() if self.x_star is not None else None
        if self.refutation is not None:
            doc["refutation"] = {
                "point": [float(v) for v in self.refutation[0]],
                "item": self.refutation[1],
            }
        return doc


def vertex_image_ok(x_star, i, image, tol: float = TOL_GEO):
    """The collapse family's vertex condition: vertex i's image lies on the
    segment from ``x_star`` to vertex i within max(tol, 1e-9); for an array
    of vertices i with one image row each, one verdict per row.  A correct
    vertex, whose image is the vertex itself, meets it."""
    xs = _coerce(x_star)
    return on_segment(xs, np.eye(xs.shape[0])[i], image, tol=max(tol, 1e-9)).on


#: The collapse checker samples this many points in each face of dimension >= 1.
_FACE_SAMPLES = 24


def refuse_face_stack(n: int) -> None:
    """WrongDimension when ``_FACE_SAMPLES`` samples on each of the 2^n - n - 1 faces of dimension >= 1
    exceed ``MAX_POINTS`` (from n = 17); decided before any face is built."""
    if _FACE_SAMPLES * (2 ** min(n, 64) - n - 1) > MAX_POINTS:  # past 64 states the cap is long exceeded
        raise WrongDimension(
            f"the collapse checker's {_FACE_SAMPLES} samples on each face of {n} states exceed {MAX_POINTS:,} points"
        )


@functools.lru_cache(maxsize=16)
def _face_stack(n: int) -> tuple:
    """(faces, stack): every face of dimension >= 1, and the n vertices stacked over each face's
    ``face_samples``, ``_FACE_SAMPLES`` rows per face in face order; cached, read-only."""
    faces = tuple(enumerate_faces(n, min_dim=1))
    stack = np.vstack([np.eye(n)] + [face_samples(face, n, _FACE_SAMPLES) for face in faces])
    stack.setflags(write=False)
    return faces, stack


def is_occasionally_stubborn(d: Distortion, mu, tol: float = TOL_GEO) -> StubbornVerdict:
    """Structure test for three or more states.

    Samples the relative interior of every face (deterministically, keyed
    by the face), plus all vertices, and evaluates them in one call.  With
    any error present, x* is the image the full simplex's samples share
    (named even in a refutation): every face of dimension >= 2 whose
    closure errs collapses to x*; so do erring edges, except possibly a
    split edge through x*, read as ``StubbornRule`` reads its
    ``edge_case``; erring vertices meet ``vertex_image_ok`` at x*.  Those
    that do not are found as soon as x* is, and every verdict naming x*
    carries them (``failing_vertices``).  Raises WrongDimension for fewer
    than three states, or too many (``refuse_face_stack``).
    """
    n = d.n
    if n < 3:
        raise WrongDimension("this structure test needs three or more states")
    refuse_face_stack(n)

    faces, stack = _face_stack(n)
    imgs = evaluate_batch(d, mu, stack)
    errs = np.max(np.abs(imgs - stack), axis=1) > tol
    # Each face's samples, images and error mask: views of the rows after the vertices.
    samples, face_imgs = (a[n:].reshape(len(faces), _FACE_SAMPLES, n) for a in (stack, imgs))
    face_errs = errs[n:].reshape(len(faces), _FACE_SAMPLES)
    error_supports = [face.support for face, e in zip(faces, face_errs) if e.any()]
    error_supports += [(int(i),) for i in np.flatnonzero(errs[:n])]
    if not error_supports:
        return StubbornVerdict(True, None)

    def closure_errs(face: Face) -> bool:
        return any(set(sup) <= set(face.support) for sup in error_supports)

    # x*: the full simplex is the last face, and its closure carries every error.
    x_star = imgs[-_FACE_SAMPLES]
    dist = np.max(np.abs(imgs - x_star), axis=1)
    try:
        star = Belief(x_star) if dist[-_FACE_SAMPLES:].max() <= tol else None
    except ValueError:  # a common image off the simplex is no collapse point
        return StubbornVerdict(False, None, (stack[-_FACE_SAMPLES], "item1-common-image"))
    failing = ()  # item 3's set, found as soon as x* is
    if star is not None:
        failing = tuple(np.flatnonzero(errs[:n] & ~vertex_image_ok(x_star, np.arange(n), imgs[:n], tol)).tolist())

    # Item 1: erring faces of dimension >= 2 collapse to x*.
    face_dist = dist[n:].reshape(face_errs.shape)
    bad = ~face_errs | (face_dist > tol)
    for j in np.flatnonzero(bad.any(axis=1)).tolist():
        if faces[j].dim >= 2 and closure_errs(faces[j]):
            return StubbornVerdict(False, star, (samples[j, int(np.argmax(bad[j]))], "item1-common-image"), failing)

    def reads_as_split(edge: tuple, S: np.ndarray, imgs: np.ndarray) -> bool:
        """The samples read as ``StubbornRule`` reads them with x* and this split edge, for one of its
        vertices; never when ``StubbornRule`` refuses x* inside this edge."""
        try:
            splits = [StubbornRule(x_star, edge_case=(edge, k)) for k in edge]
        except ValueError:
            return False
        return any(np.max(np.abs(imgs - evaluate_batch(rule, mu, S))) <= tol for rule in splits)

    # Item 2: erring edges collapse, except possibly the split edge through x*.
    for j in np.flatnonzero((face_dist > tol).any(axis=1)).tolist():
        face = faces[j]
        if face.dim == 1 and closure_errs(face) and not reads_as_split(face.support, samples[j], face_imgs[j]):
            return StubbornVerdict(False, star, (samples[j, int(np.argmax(face_dist[j]))], "item2-edge"), failing)

    # Item 3: erring vertices map onto their segment toward x*.
    if failing:
        return StubbornVerdict(False, star, (stack[failing[0]], "item3-vertex"), failing)
    return StubbornVerdict(True, star)


#: The chord scan's lattice has at most this many points, but never fewer
#: than the 3-level one, whose chords join two vertices.
_CHORD_POINTS = 2000
#: A map is affine when no chord's midpoint defect exceeds this (sup norm).
AFFINE_TOL = 1e-8


def refuse_chord_lattice(n: int) -> None:
    """WrongDimension, before any lattice is built, when the chord scan's coarsest lattice (levels 0, 1/2, 1)
    would hold more than 16 * ``MAX_POINTS`` coordinates, the most a SINGLE audit's may (from n = 400)."""
    if n * math.comb(n + 1, 2) > 16 * MAX_POINTS:
        raise WrongDimension(f"the chord scan's 3-level lattice of {n} states exceeds {16 * MAX_POINTS:,} coordinates")


def affine_chords(d: Distortion, mu, grid_size: int) -> tuple:
    """The rule's midpoint defects along lattice chords: (z, x, y, h), one row per chord.

    z runs over the finest lattice of at most ``grid_size`` levels and at
    most ``_CHORD_POINTS`` points, but never coarser than levels 0, 1/2, 1.
    For each pair i < j with s = min(z_i, z_j) > 0, the chord's ends are
    x, y = z +- s (e_i - e_j), and h = phi(z) - (phi(x) + phi(y)) / 2.  An
    affine map has h = 0 on every chord.  ``refuse_chord_lattice`` runs first.
    """
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


def is_affine(chords: tuple) -> bool:
    """True when no defect h of ``chords`` (``affine_chords``) exceeds ``AFFINE_TOL``."""
    return bool(np.max(np.abs(chords[3])) <= AFFINE_TOL)


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
        return StubbornRule(
            doc["x_star"],
            vertex_images=doc.get("vertex_images"),
            identity_faces=doc.get("identity_faces"),
            edge_case=ec,
        )
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

    All non-vertex beliefs are read as x* = (1/5, 1/3, 7/15); vertex 0 is
    correct, and vertices 1 and 2 map a quarter of the way from x* to
    themselves, to (3/20, 1/2, 7/20) and (3/20, 1/4, 3/5).
    """
    return StubbornRule(
        _full3(1 / 5, 1 / 3),
        vertex_images={
            2: _full3(3 / 20, 1 / 4),
            1: _full3(3 / 20, 1 / 2),
        },
    )


def stubborn_example_b() -> StubbornRule:
    """Reference three-state collapse rule with a split edge.

    The common point (1/2, 1/2, 0) sits inside one edge: the half of
    that edge toward the second vertex collapses onto it while the other
    half is read correctly; one full edge is correct; everything else
    collapses, and the erring vertex maps onto the segment toward the
    common point.
    """
    return StubbornRule(
        _full3(1 / 2, 1 / 2),
        vertex_images={1: _full3(3 / 10, 7 / 10)},
        identity_faces=[(0, 2)],
        edge_case=((0, 1), 1),
    )


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
            edge_case = ((i, j), int(rng.choice([i, j]))) if rng.random() < 0.6 else None
        else:
            xs = rng.dirichlet(np.ones(n) * 3.0)
            edge_case = None
        vertex_images = {}
        for i in range(n):
            r = rng.random()
            if r < 0.4:
                continue  # correct vertex
            t = float(rng.uniform(0.0, 1.0))
            vertex_images[i] = t * np.eye(n)[i] + (1.0 - t) * xs  # on its segment: ``vertex_image_ok``
        identity = []
        if edge_case is None and rng.random() < 0.4:
            # One entirely-correct edge (its vertices become correct too).
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            identity.append((i, j))
            vertex_images.pop(i, None)
            vertex_images.pop(j, None)
        return StubbornRule(xs, vertex_images=vertex_images, identity_faces=identity, edge_case=edge_case)
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
