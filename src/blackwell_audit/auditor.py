"""End-to-end violation search for belief-updating rules.

The auditor scans a belief grid for distortion errors and, for each one,
tries a short list of constructions that convert the error into a
machine-checkable certificate: a pair of experiments ordered by
informativeness, plus a decision problem, under which the
rule strictly prefers the less informative experiment.

Construction recipes, cheapest first
------------------------------------
SINGLE mode runs those down to ``vertexprop-separation``, DOUBLE mode the
chord; random search runs in both, only on a rule that the mode's checker
(the collapse checker, or ``is_affine``) does not accept.

* ``claim1-hyperplane``   - a banished image, one that a strict cut clearing
  ``SEP_MARGIN`` separates from the support hull, is cut from that hull
  (and the contraction's image) by a strict hyperplane; the induced
  threshold problem makes the rule act on news it should ignore.
* ``claim2-separation``   - the same cut one contraction deeper, used
  when the first contraction's image is itself banished.
* ``claim3-mixture``      - two banished images with different
  destinations, compared through a three-point mixture.
* ``lemma3-threshold`` / ``lemma3-ternary`` - two-state contraction
  recipes built from scalar threshold problems.
* ``contagion1-separation`` - contraction recipe for three or more
  states: an edge point whose image misses the prior is separated from
  the original error's contraction path.
* ``degenerate-prior``    - the prior itself is misread; a two-stage
  contraction pair exposes it.
* ``vertexprop-separation`` - a vertex image off the segment toward the
  common collapse point.
* ``chord``               - a lattice chord whose midpoint image misses the
  mean of its ends' images (``affine_chords``, which decides ``is_affine``):
  splitting the midpoint into the ends loses welfare under one action.
* ``random-search``       - randomized experiment pairs and threshold
  problems for the remaining budget.  Blocks of 8, 16, ..., 256, 256, ...
  trials, whatever the budget, come from one seeded stream in six
  generator calls each and are screened in one numpy pass on the
  posteriors the certificate would carry; only the flagged trials are
  emitted, in trial order, so the result is that of emitting every trial.

A block recipe whose one evaluation of a block of errors raises runs again
on each error alone, in dispatch order (``_one_at_a_time``).

One search object (``_Search``) holds an audit's fixed inputs and its
construction budget.  Every recipe cuts through ``_Search.cut`` (charge
one construction, separate, build the threshold problem), and every
candidate pair, from a recipe or from random search, goes through one
emission step, ``_Search.emit``: its gap is computed once by exact
expected-welfare computation, must lie below -(GAP_TOL + the selector's
tie_tol), and the certificate is kept only if it passes independent
re-verification (``verify_certificate``).  There, and in ``blackwell-audit
verify``, dominance is proved by the garbling matrix nonnegative least
squares finds, whose residual is checked; no linear program runs anywhere.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .geometry import (
    TOL_GEO,
    Belief,
    DimensionMismatch,
    Hyperplane,
    NoStrictSeparation,
    merge_owners,
    separating_hyperplane_sets,
    simplex_lattice,
)
from .experiments import (
    BarycenterMismatch,
    Experiment,
    GarblingMatrix,
    PosteriorDistribution,
    PriorNotInterior,
    bayes,
    blackwell_dominates,
    experiment_from_posteriors,
    garble,
    interior_prior,
)
from .distortions import (
    Distortion,
    GridMiss,
    NonFiniteImage,
    StubbornVerdict,
    affine_chords,
    classify_batch,
    evaluate_batch,
    is_affine,
    is_occasionally_coarse,
    is_occasionally_stubborn,
    refuse_chord_lattice,
    refuse_face_stack,
    rule_from_json,
)
from .decision import (
    DecisionProblem,
    Selector,
    SelectorPolicy,
    WelfareMode,
    expected_payoff,
)

#: A certificate's payoff gap must clear this threshold (negative side).
GAP_TOL = 1e-6
#: Minimum hyperplane margin accepted when building threshold problems.
SEP_MARGIN = 1e-7


class BudgetExhausted(RuntimeError):
    """All constructions tried within the allotted budget; no violation found."""


@dataclass(frozen=True)
class ViolationCertificate:
    """A self-contained, re-verifiable witness that a rule harms information.

    ``pi`` dominates ``pi_prime`` in the garbling order, yet the rule's
    expected welfare under ``pi`` falls short of that under ``pi_prime``
    by ``gap`` (strictly negative).  The rule's own spec is embedded so
    third parties can recompute both payoffs from scratch.
    """

    prior: Belief
    rule: Distortion
    pi: Experiment
    pi_prime: Experiment
    problem: DecisionProblem
    selector: Selector
    mode: WelfareMode
    gap: float
    recipe: str
    seed: int = 0

    def to_json(self) -> dict:
        return {
            "format": "blackwell-audit-certificate/1",
            "prior": self.prior.to_json(),
            "rule": self.rule.to_json(),
            "pi": self.pi.to_json(),
            "pi_prime": self.pi_prime.to_json(),
            "problem": self.problem.to_json(),
            "selector": self.selector.to_json(),
            "mode": self.mode.value,
            "gap": self.gap,
            "recipe": self.recipe,
            "seed": self.seed,
        }

    @staticmethod
    def from_json(doc: dict) -> "ViolationCertificate":
        prior = Belief(doc["prior"])
        gap = float(doc["gap"])
        if not math.isfinite(gap):
            raise ValueError(f"certificate gap must be finite, got {gap}")
        return ViolationCertificate(
            prior=prior,
            rule=rule_from_json(doc["rule"], n=prior.n),
            pi=Experiment.from_json(doc["pi"]),
            pi_prime=Experiment.from_json(doc["pi_prime"]),
            problem=DecisionProblem.from_json(doc["problem"]),
            selector=Selector.from_json(doc["selector"]),
            mode=WelfareMode(doc["mode"]),
            gap=gap,
            recipe=str(doc["recipe"]),
            seed=int(doc.get("seed", 0)),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


def hyperplane_problem(h: Hyperplane) -> DecisionProblem:
    """Two-action problem whose value function is max(0, normal . x - offset).

    Action 0 pays nothing in every state; action 1 pays normal[theta] -
    offset, so its expected payoff at belief x is exactly the signed
    hyperplane evaluation.
    """
    zero = np.zeros_like(h.normal)
    act = h.normal - h.offset
    return DecisionProblem(np.vstack([zero, act]), ["pass", "act"])


def _gap_cut(sel: Selector) -> float:
    """A certificate's gap must lie strictly below this.

    The selector may take any action within ``tie_tol`` of the best, so
    under Bayes W(pi) >= V(pi) - tie_tol >= V(pi') - tie_tol >= W(pi') -
    tie_tol: a gap down to -tie_tol can come from the tie-break alone.
    """
    return -(GAP_TOL + sel.tie_tol)


def verify_certificate(c: ViolationCertificate) -> Tuple[bool, Optional[str]]:
    """Independently re-check a certificate; returns (ok, reason-if-not).

    Recomputes dominance with ``blackwell_dominates`` (the garbling matrix
    nonnegative least squares finds proves it once its residual is
    checked) and both expected payoffs from the raw
    experiments (posteriors via Bayes, one welfare evaluation per support
    point, no pushforward shortcut); none of the auditor's intermediate
    state is reused.  The recomputed gap must lie below ``_gap_cut`` of
    the certificate's selector.  A prior that ``interior_prior`` refuses is
    "prior", and a rule, experiment or problem over another state count than
    the prior's is "malformed".  A rule that cannot be evaluated on the
    certificate's posteriors raises NonFiniteImage or GridMiss, as it does
    in an audit; every other failure of the recomputation is "malformed".
    """
    try:
        mu = c.prior
        interior_prior(mu, "verification")
        if any(k != mu.n for k in (c.rule.n, c.pi.n_states, c.pi_prime.n_states, c.problem.n_states)):
            return False, "malformed"
    except PriorNotInterior:
        return False, "prior"
    except Exception:
        return False, "malformed"
    if not blackwell_dominates(c.pi, c.pi_prime):
        return False, "dominance"
    try:
        rho = bayes(mu, c.pi)
        rho_p = bayes(mu, c.pi_prime)
        gap = expected_payoff(c.problem, c.rule, mu, c.selector, c.mode, rho) - expected_payoff(
            c.problem, c.rule, mu, c.selector, c.mode, rho_p
        )
    except (NonFiniteImage, GridMiss):
        raise
    except Exception:
        return False, "malformed"
    if not abs(gap - c.gap) <= 1e-9:
        return False, "gap-mismatch"
    if not gap < _gap_cut(c.selector):
        return False, "gap-too-small"
    return True, None


@dataclass(eq=False)
class _Search:
    """One audit's fixed inputs, its construction budget, and the steps every recipe shares.

    One budget unit buys one recipe ``cut``, one lemma-3 pair or one
    random-search trial; ``charge`` raises BudgetExhausted past ``limit``.
    """

    d: Distortion
    mu: np.ndarray
    sel: Selector
    mode: WelfareMode
    tol: float
    seed: int
    limit: int
    used: int = 0

    def charge(self, amount: int = 1) -> None:
        if self.used + amount > self.limit:
            raise BudgetExhausted(f"construction budget of {self.limit} exhausted")
        self.used += amount

    @property
    def remaining(self) -> int:
        return self.limit - self.used

    def cut(self, above, below) -> Optional[DecisionProblem]:
        """Charge one construction; the threshold problem of a strict cut of hull(above)
        from hull(below), or None when none clears SEP_MARGIN."""
        self.charge()
        try:
            h = separating_hyperplane_sets(above, below, margin=SEP_MARGIN)
        except NoStrictSeparation:
            return None
        return hyperplane_problem(h)

    def try_pair(
        self, rho_hi: PosteriorDistribution, rho_lo: PosteriorDistribution, problem: DecisionProblem, recipe: str
    ) -> Optional[ViolationCertificate]:
        """Materialize a candidate pair as experiments; keep it only if it verifies."""
        try:
            pi = experiment_from_posteriors(rho_hi, self.mu)
            pi_p = experiment_from_posteriors(rho_lo, self.mu)
        except (BarycenterMismatch, ValueError):
            return None
        return self.emit(pi, pi_p, problem, recipe)

    def emit(
        self, pi: Experiment, pi_p: Experiment, problem: DecisionProblem, recipe: str
    ) -> Optional[ViolationCertificate]:
        """Score a candidate pair once; the certificate if its gap clears the cut and it verifies.

        Every recipe and random search emit through here.  A rule's error
        propagates; each caller decides whether it skips the candidate.
        """
        d, mu, sel, mode = self.d, self.mu, self.sel, self.mode
        gap = expected_payoff(problem, d, mu, sel, mode, bayes(mu, pi)) - expected_payoff(
            problem, d, mu, sel, mode, bayes(mu, pi_p)
        )
        if not gap < _gap_cut(sel):
            return None
        cert = ViolationCertificate(
            prior=Belief(mu), rule=d, pi=pi, pi_prime=pi_p, problem=problem,
            selector=sel, mode=mode, gap=float(gap), recipe=recipe, seed=self.seed,
        )
        ok, _ = verify_certificate(cert)
        return cert if ok else None


# ---------------------------------------------------------------------------
# Scaffolding
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _tangent_basis(n: int) -> np.ndarray:
    """Orthonormal basis (rows) of the simplex tangent space {v : sum v = 0}; cached, read-only."""
    ones = np.ones((1, n)) / np.sqrt(n)
    proj = np.eye(n) - ones.T @ ones
    u, s, _ = np.linalg.svd(proj)
    basis = u[:, :-1].T if s[-1] < 0.5 else u.T  # last singular value is 0
    basis.setflags(write=False)
    return basis


@functools.lru_cache(maxsize=None)
def _simplex_vertices(m: int) -> np.ndarray:
    """m regular-simplex vertices in m - 1 coordinates, centred at 0; cached, read-only."""
    centered = np.eye(m) - 1.0 / m
    _, _, vt = np.linalg.svd(centered)
    flat = centered @ vt[: m - 1].T
    flat.setflags(write=False)
    return flat


def _distribution(support: np.ndarray, probs, floor: float = 1e-9) -> Optional[PosteriorDistribution]:
    """The distribution with these weights; None when one is NaN or below ``floor``, or it cannot be built."""
    probs = np.asarray(probs, dtype=np.float64)
    if not np.min(probs) >= floor:
        return None
    try:
        return PosteriorDistribution(support, probs)
    except ValueError:
        return None


#: How far ``_scaffolds`` fans an error's directions out around u.
_SPREAD = 0.9
#: Scaffold width w (eps0, eps0 / 2, eps0 / 4) halves until its points fit inside the simplex: _STEPS[w : w + 40].
_STEPS = 0.05 * np.sqrt(2.0) * 0.5 ** np.arange(42)


def _scaffolds(mu: np.ndarray, X0: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Supports (E, 3, n, n) and weights (E, 3, n) of the scaffolds of the errors X0 at three widths.

    x0's support is x0 and n-1 points mu + s * dir, whose directions average to u = (mu - x0) / |mu - x0|;
    x0 takes w0 = s / (|mu - x0| + s) and each other point (1 - w0) / (n - 1), so the mean is the prior.
    Weights are NaN where |mu - x0| < 1e-9, no step fits, or one is below ``_distribution``'s floor.  Each
    stacked product and SVD runs the routine one error's own takes, so every value is bitwise its own.
    """
    E, n = X0.shape
    U = mu - X0
    nrm = np.sqrt(np.matmul(U[:, None, :], U[:, :, None])[:, 0, 0])  # np.linalg.norm of each row
    u = U / np.where(nrm < 1e-9, 1.0, nrm)[:, None]
    dirs = u[:, None, :]
    if n > 2:
        basis = _tangent_basis(n)
        coords = np.matmul(basis, u[:, :, None])
        sq = np.maximum(np.matmul(coords.transpose(0, 2, 1), coords), 1e-300)
        perp = basis.T - u[:, :, None] * coords.transpose(0, 2, 1) / sq
        P = np.linalg.svd(perp, full_matrices=False)[0][:, :, : n - 2]  # orthonormal columns perpendicular to u
        dirs = dirs + _SPREAD * (_simplex_vertices(n - 1) @ P.transpose(0, 2, 1))
    ladder = mu + _STEPS[:, None, None] * dirs[:, None]  # (E, 42, n - 1, n)
    fits = ladder.min(axis=(2, 3)) > 1e-9
    tries = np.stack([fits[:, :40], fits[:, 1:41], fits[:, 2:]], axis=1)  # (E, 3, 40)
    first = tries.argmax(axis=2) + np.arange(3)  # (E, 3): the first step of each width that fits
    w0 = _STEPS[first] / (nrm[:, None] + _STEPS[first])
    w0[~(tries.any(axis=2) & (nrm[:, None] >= 1e-9) & (w0 >= 1e-9) & ((1.0 - w0) / (n - 1) >= 1e-9))] = np.nan
    support = np.empty((E, 3, n, n))
    support[:, :, 0], support[:, :, 1:] = X0[:, None], ladder[np.arange(E)[:, None], first]
    probs = np.empty((E, 3, n))
    probs[:, :, 0], probs[:, :, 1:] = w0, ((1.0 - w0) / (n - 1))[:, :, None]
    return support, probs


def _vertex_pulled_scaffold(
    mu: np.ndarray, x0: np.ndarray, pull: float
) -> Optional[PosteriorDistribution]:
    """Distribution on {x0} + pulled-in vertices (1 - pull) e_i + pull * mu, i != d, mean = prior.

    Wide scaffold for the contraction recipes, where the moved edge point
    must sit well off the line through the prior and the error.  Coordinate
    d gives x0 the weight w0 = (1 - pull) mu_d / (x0_d - pull mu_d) and coordinate i
    vertex i (mu_i (1 - pull (1 - w0)) - w0 x0_i) / (1 - pull); d runs from the
    coordinate farthest from the prior.
    """
    n = mu.shape[0]
    for drop in np.argsort(-np.abs(x0 - mu), kind="stable"):
        idx = [i for i in range(n) if i != drop]
        verts = (1.0 - pull) * np.eye(n)[idx] + pull * mu[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):  # x0_d = pull * mu_d: NaN or inf weights, skipped
            w0 = (1.0 - pull) * mu[drop] / (x0[drop] - pull * mu[drop])
            w = (mu[idx] * (1.0 - pull * (1.0 - w0)) - w0 * x0[idx]) / (1.0 - pull)
        rho = _distribution(np.vstack([x0[None, :], verts]), np.append(w0, w))
        if rho is not None and rho.size == n:
            return rho
    return None


def _moved(
    rho: PosteriorDistribution, gamma: float, lam: np.ndarray, moved: np.ndarray
) -> Optional[PosteriorDistribution]:
    """rho with support point 0 moved to ``moved`` = gamma * x0 + (1 - gamma) * lam @ others.

    ``lam`` holds convex weights over the other support points.  The moved
    point takes weight p0 / gamma, and other point j gives up
    lam_j * p0 * (1 - gamma) / gamma.  Splitting the moved point back into
    x0 (share gamma) and the others (shares (1 - gamma) * lam) recovers rho,
    so the result is a mean-preserving contraction of rho whatever its
    support.  None when a weight falls below 1e-12 or the distribution
    cannot be built.
    """
    p0 = float(rho.probs[0])
    probs = np.concatenate([[p0 / gamma], rho.probs[1:] - lam * (p0 * (1.0 - gamma) / gamma)])
    return _distribution(np.vstack([moved[None, :], rho.support[1:]]), probs, floor=1e-12)


def _one_at_a_time(recipe, search: _Search, X0: np.ndarray, *per_error) -> Optional[ViolationCertificate]:
    """``recipe`` on each error of X0 alone, with its rows of the ``per_error`` arrays, in dispatch order; the
    first certificate.  A block recipe whose one evaluation raised falls back to this walk, and the contagion
    recipe, which takes one error at a time, always goes through it."""
    for e in range(X0.shape[0]):
        cert = recipe(search, X0[e : e + 1], *(a[e : e + 1] for a in per_error))
        if cert is not None:
            return cert
    return None


# ---------------------------------------------------------------------------
# Expansive recipes
# ---------------------------------------------------------------------------


#: The moved points of the expansive recipe: x0p at each gamma, then x0pp at gamma / 2.
_GAMMAS = np.array([0.6, 0.35, 0.15])
_MOVES = np.concatenate([_GAMMAS, _GAMMAS / 2.0])


def _banished(img: np.ndarray, support: np.ndarray) -> bool:
    """Claim 1's premise: a strict cut of img from hull(support) clears SEP_MARGIN on the points."""
    try:
        separating_hyperplane_sets([img], support, margin=SEP_MARGIN)
    except NoStrictSeparation:
        return False
    return True


def _audit_expansive(search: _Search, X0: np.ndarray) -> Optional[ViolationCertificate]:
    """Claims 1-3 from a block of expansive errors X0 (rows, in dispatch order), planned as one array program.

    One evaluation takes every x0, scaffold point and moved point (x0p at each gamma, x0pp at gamma / 2) and
    marks the live gammas: where x0's image is that of both moved points, every branch would skip uncharged.
    Then, one error and width at a time, a width with a live gamma builds its scaffold; when x0's image is
    banished from the scaffold's hull (``_banished``), the width runs the charged branches.  If the evaluation
    raises, the block's errors are walked one at a time (``_one_at_a_time``).  A scaffold whose atoms
    ``merge_owners`` merges is built first; its moved points come from what it keeps.  An error within tol of
    the prior is skipped: ``_single_mode_recipes`` runs the misread-prior recipe once, first.
    """
    d, mu, tol = search.d, search.mu, search.tol
    E, n = X0.shape
    support, probs = _scaffolds(mu, X0)
    usable = ~np.isnan(probs[:, :, 0]) & (np.abs(X0 - mu).max(axis=1) > tol)[:, None]  # none at the prior
    merges = (merge_owners(support) != np.arange(n)).any(axis=2)
    targets, built = support[:, :, 1:].mean(axis=2), {}
    for e, w in np.argwhere(usable & merges).tolist():
        rho = built[e, w] = _distribution(support[e, w], probs[e, w])
        usable[e, w] = rho is not None
        if rho is not None:
            targets[e, w] = rho.support[1:].mean(axis=0)
    moved = _MOVES[:, None] * X0[:, None, None, :] + (1.0 - _MOVES)[:, None] * targets[:, :, None, :]
    # Rows: every x0, then each usable width's other points and moved points.
    keys = np.argwhere(usable).tolist()
    parts = [X0] + [p for e, w in keys
                    for p in (built[e, w].support[1:] if (e, w) in built else support[e, w, 1:], moved[e, w])]
    try:
        imgs = evaluate_batch(d, mu, np.concatenate(parts))
    except Exception:
        if E == 1:
            raise
        return _one_at_a_time(_audit_expansive, search, X0)
    ends = np.cumsum([p.shape[0] for p in parts])
    imgs_moved = np.full((E, 3, 6, n), np.nan)  # NaN, never live, where no width is used
    imgs_moved[usable] = imgs[ends[1::2, None] + np.arange(6)]
    off_p = np.abs(imgs_moved[:, :, :3] - imgs[:E, None, None]).max(axis=3) > tol  # x0p leaves x0's destination
    off_pp = np.abs(imgs_moved[:, :, 3:] - imgs_moved[:, :, :3]).max(axis=3) > tol  # x0pp leaves x0p's
    live = off_p | off_pp  # else one destination for all three: each branch below would skip uncharged

    for s, (e, w) in enumerate(keys):
        if not live[e, w].any():
            continue
        x0, img0, lo = X0[e], imgs[e], ends[2 * s]
        rho = built[e, w] if (e, w) in built else _distribution(support[e, w], probs[e, w])
        if rho is None or not _banished(img0, rho.support):
            continue  # no scaffold, or the image is not banished at this scaffold width
        imgs_others = imgs[lo : lo + rho.size - 1]
        even = np.full(rho.size - 1, 1.0 / (rho.size - 1))  # the target's weights over the other points
        for j in np.flatnonzero(live[e, w]).tolist():
            gamma = float(_GAMMAS[j])
            x0p, x0pp, img0p, img0pp = *moved[e, w, [j, j + 3]], *imgs_moved[e, w, [j, j + 3]]
            rho_p = _moved(rho, gamma, even, x0p)
            if rho_p is None:
                continue

            if off_p[e, w, j]:
                # A shared destination would sit on both sides: skip the cut.
                problem = search.cut([img0], np.vstack([rho.support, imgs_others, img0p[None, :]]))
                cert = problem and search.try_pair(rho, rho_p, problem, "claim1-hyperplane")
                if cert is not None:
                    return cert

            if not off_pp[e, w, j]:
                continue  # same destination: consistent with a collapse rule
            rho_pp = _moved(rho, gamma / 2.0, even, x0pp)
            if rho_pp is None:
                continue

            problem = search.cut([img0p], np.vstack([rho_p.support, imgs_others, img0pp[None, :]]))
            cert = problem and search.try_pair(rho_p, rho_pp, problem, "claim2-separation")
            if cert is not None:
                return cert

            problem = search.cut([img0pp], np.vstack([rho_p.support, imgs_others, img0p[None, :]]))
            if problem is None:
                continue
            # Mixture on {x0, x0pp, others}: collapsing the first two onto
            # x0p reproduces rho_p, making rho_p its strict contraction.
            lam = gamma / (2.0 - gamma)  # x0p = lam * x0 + (1 - lam) * x0pp
            q = float(rho_p.probs[0])
            mix_support = np.vstack([x0[None, :], x0pp[None, :], rho_p.support[1:]])
            mix_probs = np.concatenate([[q * lam, q * (1.0 - lam)], rho_p.probs[1:]])
            rho_mix = _distribution(mix_support, mix_probs, floor=0.0)
            if rho_mix is None:
                continue
            cert = search.try_pair(rho_mix, rho_p, problem, "claim3-mixture")
            if cert is not None:
                return cert
    return None


def _audit_prior_error(search: _Search) -> Optional[ViolationCertificate]:
    """The prior itself is misread: two-stage contraction pair around it; None when it is read right."""
    d, mu = search.d, search.mu
    img_mu = evaluate_batch(d, mu, mu[None, :])[0]
    drift = img_mu - mu
    if np.max(np.abs(drift)) <= search.tol:
        return None
    basis = _tangent_basis(mu.shape[0])
    # The tangent direction least aligned with the drift keeps the image separable.
    v = basis[int(np.argmin(np.abs(basis @ drift)))]
    step_bound = np.where(np.abs(v) > 1e-12, np.minimum(1.0 - mu, mu) / np.abs(v), np.inf)
    t = 0.8 * float(np.min(step_bound))
    x1 = mu + t * v
    x2 = mu - t * v
    x3 = 0.5 * (x1 + mu)
    x4 = 0.5 * (x2 + mu)
    pts = np.vstack([x1, x2, x3, x4])
    imgs = evaluate_batch(d, mu, pts)
    problem = search.cut([img_mu], np.vstack([pts[:2], imgs]))
    if problem is None:
        return None
    rho_hi = PosteriorDistribution(np.vstack([x1, x2, mu]), [0.25, 0.25, 0.5])
    rho_lo = PosteriorDistribution(np.vstack([x3, x4]), [0.5, 0.5])
    return search.try_pair(rho_hi, rho_lo, problem, "degenerate-prior")


# ---------------------------------------------------------------------------
# Contractive recipes
# ---------------------------------------------------------------------------


def _threshold_problem(direction: float, cutoff: float) -> DecisionProblem:
    """Two-state threshold problem max(0, dir * (x - cutoff)) in the scalar coordinate."""
    normal = np.array([direction, 0.0])
    return hyperplane_problem(Hyperplane(normal, direction * cutoff))


def _binary(m: float, far: float, t: float) -> Optional[PosteriorDistribution]:
    """Two-state beliefs {far, t}, given by first coordinates, with mean m: t takes (m - far) / (t - far)."""
    if t == far:
        return None
    w = (m - far) / (t - far)
    return _distribution(np.array([[far, 1.0 - far], [t, 1.0 - t]]), [1.0 - w, w])


def _audit_contractive_two_state(search: _Search, X0: np.ndarray, imgs0: np.ndarray) -> Optional[ViolationCertificate]:
    """Lemma 3 from a block of contractive errors X0 (rows, in dispatch order) with images imgs0.  Every error's
    8 rungs are evaluated in one call, then the 5 sub-rungs of every rung that is no threshold step in another;
    the step and ternary masks of the whole block pick the candidates, and a two-state distribution is built
    only at one of them.  If a call raises, the block's errors are walked one at a time (``_one_at_a_time``).
    A rule's map is pure, so the certificate and the budget charged are those of one error at a time."""
    d, mu, tol = search.d, search.mu, search.tol
    E, m = X0.shape[0], float(mu[0])

    def phi(t: np.ndarray) -> np.ndarray:  # the first coordinate of the image of each (t, 1 - t)
        return evaluate_batch(d, mu, np.stack([t.ravel(), 1.0 - t.ravel()], axis=1))[:, 0].reshape(t.shape)

    directions = np.where(X0[:, 0] > m, 1.0, -1.0)  # +1 where x0's first coordinate exceeds the prior's
    rungs = imgs0[:, :1] + (X0[:, :1] - imgs0[:, :1]) * np.arange(1, 9) / 9.0
    try:
        rung_hats = phi(rungs)
        # A step: a less extreme posterior lands on a more extreme belief.
        steps = directions[:, None] * (rung_hats - imgs0[:, :1]) > tol
        sub_rungs = rung_hats[:, :, None] + (rungs - rung_hats)[:, :, None] * np.arange(1, 6) / 6.0
        sub_hats = np.full_like(sub_rungs, np.nan)
        if not steps.all():
            sub_hats[~steps] = phi(sub_rungs[~steps])
    except Exception:
        if E == 1:
            raise
        return _one_at_a_time(_audit_contractive_two_state, search, X0, imgs0)
    # Slot 0 of a rung compares it with x0 (a threshold step), slots 1-5 with its sub-rungs (ternary comparisons).
    lows = np.concatenate([np.broadcast_to(imgs0[:, None, :1], (E, 8, 1)), sub_hats], axis=2)
    candidates = directions[:, None, None] * (rung_hats[:, :, None] - lows) > tol
    for e, k, j in np.argwhere(candidates).tolist():
        z, zp, zp_hat, low = float(X0[e, 0]), float(rungs[e, k]), float(rung_hats[e, k]), float(lows[e, k, j])
        direction = float(directions[e])
        far = 0.0 if direction > 0 else 1.0  # scalar coordinate of the opposite vertex
        rho_zp = _binary(m, far, zp)
        if j == 0:  # the binary {far, z} against the binary {far, zp}
            rho_hi, recipe = _binary(m, far, z), "lemma3-threshold"
        else:  # {far, zpp, z} against the binary {far, zp}
            zpp, recipe = float(sub_rungs[e, k, j - 1]), "lemma3-ternary"
            if rho_zp is None or abs(z - zpp) < 1e-12:
                continue
            p = float(rho_zp.probs[1])
            q_z = p * (zp - zpp) / (z - zpp)
            support = np.array([[far, 1.0 - far], [zpp, 1.0 - zpp], [z, 1.0 - z]])
            rho_hi = _distribution(support, [1.0 - p, p - q_z, q_z])
        if rho_hi is None or rho_zp is None:
            continue
        search.charge()
        cert = search.try_pair(rho_hi, rho_zp, _threshold_problem(direction, 0.5 * (zp_hat + low)), recipe)
        if cert is not None:
            return cert
    return None


#: The contagion recipe moves x0 toward each other support point, keeping these shares of x0.
_PULL_FRACS = np.array([0.8, 0.6])


def _audit_contractive_many_states(search: _Search, X0: np.ndarray, imgs0) -> Optional[ViolationCertificate]:
    """Contagion from the one contractive error X0 = [x0] with image imgs0 = [img0].  A pull's moved points
    are evaluated in one call and tested against the prior and img0 before their
    weights are solved: both skips are uncharged, so the outcome is that of
    solving them first, one point at a time."""
    d, mu, tol = search.d, search.mu, search.tol
    (x0,), (img0,) = X0, imgs0
    for pull in (0.25, 0.45):
        rho = _vertex_pulled_scaffold(mu, x0, pull)
        if rho is None:
            continue
        # x0p = frac * x0 + (1 - frac) * xs for each other support point xs, at frac 0.8 then 0.6.
        moved = _PULL_FRACS[:, None] * x0 + (1.0 - _PULL_FRACS)[:, None] * rho.support[1:, None, :]
        moved = moved.reshape(-1, mu.shape[0])
        imgs = evaluate_batch(d, mu, moved)
        # Skipped: an edge point mapped to the prior (consistent), or to img0
        # (a shared destination would sit on both sides).
        live = (np.max(np.abs(imgs - mu), axis=1) > tol) & (np.max(np.abs(imgs - img0), axis=1) > tol)
        for j in np.flatnonzero(live).tolist():
            s, f = divmod(j, _PULL_FRACS.shape[0])
            x0p, img0p = moved[j], imgs[j]
            rho_p = _moved(rho, float(_PULL_FRACS[f]), np.eye(rho.size - 1)[s], x0p)
            if rho_p is None:
                continue
            problem = search.cut([img0p, x0p, x0], [img0, mu])
            cert = problem and search.try_pair(rho, rho_p, problem, "contagion1-separation")
            if cert is not None:
                return cert
    return None


def _audit_contractive(search: _Search, X0: np.ndarray) -> Optional[ViolationCertificate]:
    """The contraction recipes for the prior's state count on contractive errors X0 (rows): on two states the
    block's rungs at once, else one error at a time.  Their images come from one call; in an audit it cannot
    raise, since the census has evaluated these rows."""
    imgs0 = evaluate_batch(search.d, search.mu, X0)
    if search.mu.shape[0] == 2:
        return _audit_contractive_two_state(search, X0, imgs0)
    return _one_at_a_time(_audit_contractive_many_states, search, X0, imgs0)


# ---------------------------------------------------------------------------
# Full audit
# ---------------------------------------------------------------------------


@dataclass
class AuditReport:
    verdict: str  # "pass" or "violation"
    certificate: Optional[ViolationCertificate]
    checker_verdicts: dict
    error_census: dict
    budget_used: int
    grid_points: int
    states: int
    prior: Belief
    mode: WelfareMode
    seed: int

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "certificate": self.certificate.to_json() if self.certificate else None,
            "checker_verdicts": self.checker_verdicts,
            "error_census": self.error_census,
            "budget_used": self.budget_used,
            "grid_points": self.grid_points,
            "states": self.states,
            "prior": self.prior.to_json(),
            "mode": self.mode.value,
            "seed": self.seed,
        }


def _vertex_condition_certificate(search: _Search, verdict: StubbornVerdict) -> Optional[ViolationCertificate]:
    """The vertices the collapse checker found off their segment toward its x* (``failing_vertices``), in
    one evaluation; none on a rule with no such vertex."""
    d, mu, failing = search.d, search.mu, list(verdict.failing_vertices)
    if not failing:
        return None
    x_star, verts = verdict.x_star.coords, np.eye(mu.shape[0])[failing]
    for i, e, img in zip(failing, verts, evaluate_batch(d, mu, verts)):
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


def _chord_certificate(search: _Search, z, x, y, h) -> Optional[ViolationCertificate]:
    """DOUBLE mode, one unit: split the midpoint z of the best chord into its ends x, y.

    With payoff g = h / max|h| for the one action, p <= min(1, min_i mu_i / z_i)
    and w = (mu - p z) / (1 - p), rho = {x: p/2, y: p/2, w: 1 - p} spreads
    rho' = {z: p, w: 1 - p} and loses exactly p (h . h) / max|h| of welfare.
    The chord that loses most is tried at 0.999 times its largest p, then half.
    """
    mu = search.mu
    size = np.max(np.abs(h), axis=1)
    p = np.minimum(1.0, np.min(np.divide(mu, z, out=np.full_like(z, np.inf), where=z > 0.0), axis=1))
    score = np.where(size > 0.0, p * np.sum(h * h, axis=1) / np.where(size > 0.0, size, 1.0), 0.0)
    c = int(np.argmax(score))
    search.charge()
    problem = DecisionProblem((h[c] / size[c])[None, :], ["act"])
    for q in (0.999 * p[c], 0.5 * p[c]):
        w = (mu - q * z[c]) / (1.0 - q)
        rho = _distribution(np.vstack([x[c], y[c], w]), [0.5 * q, 0.5 * q, 1.0 - q])
        rho_p = _distribution(np.vstack([z[c], w]), [q, 1.0 - q])
        cert = rho and rho_p and search.try_pair(rho, rho_p, problem, "chord")
        if cert is not None:
            return cert
    return None


#: Random-search blocks start at the first size and double up to the second,
#: so a certificate found in the first trials costs few extra draws.
_BLOCK_FIRST, _BLOCK_MAX = 8, 256
#: The block screen flags a trial whose screened gap lies within this of
#: ``_gap_cut``, or one of whose act scores lies within it of the
#: selector's tie threshold, and one with two posteriors of one experiment
#: this close (``bayes`` merges posteriors within TOL_GEO).  Rounding moves
#: the screened gap and scores by far less.
_SCREEN_SLACK = 1e-7


def _unit_rows(e: np.ndarray) -> np.ndarray:
    """Rows of e scaled to sum 1 exactly as numpy's Dirichlet sampler does it:
    the sum runs left to right, and the row is multiplied by its inverse."""
    acc = e[..., 0]
    for j in range(1, e.shape[-1]):
        acc = acc + e[..., j]
    return e * (1.0 / acc)[..., None]


def _draw_block(rng: np.random.Generator, n: int, size: int, take: int):
    """Draw the next ``size`` trials of the search stream; the first ``take``, grouped by shape.

    The block is six generator calls, whatever its size: signal counts
    k = integers(2, 5, size), channel counts kp = integers(1, k + 1),
    then standard exponentials (size, n, 4) for lik, (size, 4, 4) for the
    channel and (size, n) for the point, then standard normals z (size, n).
    Trial t's lik rows are the first k columns of its exponentials, its
    channel the k x kp corner, each row scaled to sum 1 (``_unit_rows``),
    so every row is Dirichlet(1).  The whole block is drawn even when fewer
    trials are taken, so trial t depends on (seed, n, t) alone.  Returns
    (groups, points, z): one (trial indices, lik stack, channel stack) per
    (k, kp), and (take, n) arrays.
    """
    k = rng.integers(2, 5, size)
    kp = rng.integers(1, k + 1)
    e_lik = rng.standard_exponential((size, n, 4))
    e_channel = rng.standard_exponential((size, 4, 4))
    e_point = rng.standard_exponential((size, n))
    z = rng.standard_normal((size, n))
    shapes, inverse = np.unique(8 * k[:take] + kp[:take], return_inverse=True)
    groups = []
    for g, shape in enumerate(shapes.tolist()):
        idx = np.flatnonzero(inverse == g)
        gk, gkp = divmod(shape, 8)
        groups.append((idx, _unit_rows(e_lik[idx, :, :gk]), _unit_rows(e_channel[idx, :gk, :gkp])))
    return groups, _unit_rows(e_point[:take]), z[:take]


def _block_posteriors(mu: np.ndarray, block):
    """Every trial's signal marginals M (size, 8) and posteriors X (size, 8, n).

    Slots 0-3 hold pi's signals and slots 4-7 pi''s; unused slots have
    M = 0.  Both are bitwise what ``bayes`` computes from the likelihoods
    of Experiment(lik) and garble(that, GarblingMatrix(channel)), which
    divide each row by its sum (numpy sums and multiplies a stack of
    equal-shape matrices one by one, as it does a single one), so the
    rule sees the certificate's beliefs.
    """
    groups, _, z = block
    size, n = z.shape
    L = np.zeros((size, n, 8))
    M = np.zeros((size, 8))
    for idx, lik, channel in groups:
        k, kp = channel.shape[1:]
        lik = lik / lik.sum(axis=-1, keepdims=True)
        lik_p = lik @ (channel / channel.sum(axis=-1, keepdims=True))
        lik_p /= lik_p.sum(axis=-1, keepdims=True)
        L[idx, :, :k] = lik
        L[idx, :, 4 : 4 + kp] = lik_p
        M[idx, :k] = mu @ lik
        M[idx, 4 : 4 + kp] = mu @ lik_p
    X = (mu[None, :, None] * L) / np.where(M > 0.0, M, 1.0)[:, None, :]
    return M, X.transpose(0, 2, 1)


def _screen(search: _Search, block) -> np.ndarray:
    """Flag the trials of a block that may be candidates; one numpy pass.

    The posteriors are the certificate's (``_block_posteriors``).  The
    rest is elementwise across the block, and differs from ``_Search.emit``'s
    arithmetic by rounding only, which ``_SCREEN_SLACK`` covers.  A trial
    stays unflagged only when its gap is surely above ``_gap_cut``: not
    near the cut, no act score near the tie threshold (SINGLE mode), no two
    posteriors of one experiment that ``bayes`` could merge, a normal not
    too small to rescale, and a selector without pins.
    """
    d, mu, sel = search.d, search.mu, search.sel
    _, points, z = block
    size = z.shape[0]
    if sel.pins:
        return np.ones(size, dtype=bool)
    M, X = _block_posteriors(mu, block)
    keep = M > 0.0
    try:
        with np.errstate(all="ignore"):
            imgs = np.zeros_like(X)
            imgs[keep] = evaluate_batch(d, mu, X[keep])
            normal = z - z.mean(axis=1, keepdims=True)
            scale = np.max(np.abs(normal), axis=1)
            normal /= np.where(scale > 0.0, scale, 1.0)[:, None]
            act = (normal - np.sum(normal * points, axis=1, keepdims=True))[:, None, :]
            score = np.sum(imgs * act, axis=2)
            if search.mode is WelfareMode.DOUBLE:
                w = np.maximum(score, 0.0)
                near = np.zeros(size, dtype=bool)
            else:
                cut = -sel.tie_tol if sel.policy is SelectorPolicy.LEX_LAST else sel.tie_tol
                w = np.where(score > cut, np.sum(X * act, axis=2), 0.0)
                near = np.any(keep & ~(np.abs(score - cut) > _SCREEN_SLACK), axis=1)
            welfare = np.where(keep, M * w, 0.0)
            gap = welfare[:, :4].sum(axis=1) - welfare[:, 4:].sum(axis=1)
            close = np.zeros(size, dtype=bool)
            for half in (slice(0, 4), slice(4, 8)):
                Xh, kh = X[:, half], keep[:, half]
                dist = np.max(np.abs(Xh[:, :, None, :] - Xh[:, None, :, :]), axis=3)
                pair = kh[:, :, None] & kh[:, None, :] & ~np.eye(4, dtype=bool)
                close |= np.any(pair & (dist <= _SCREEN_SLACK), axis=(1, 2))
    except Exception:
        # Whatever the rule raises or returns, the per-trial path meets it
        # at the trial where one-at-a-time scoring would.
        return np.ones(size, dtype=bool)
    return ~(gap > _gap_cut(sel) + _SCREEN_SLACK) | near | close | (scale < 1e-6)


def _block_trial(block, t: int):
    """Trial t's (lik, channel, point, z), each as a fresh array."""
    groups, points, z = block
    for idx, lik, channel in groups:
        j = np.flatnonzero(idx == t)
        if j.size:
            return lik[j[0]].copy(), channel[j[0]].copy(), points[t].copy(), z[t].copy()
    raise IndexError(t)


def _search_trial(
    search: _Search, lik: np.ndarray, channel: np.ndarray, point: np.ndarray, z: np.ndarray
) -> Optional[ViolationCertificate]:
    """Emit one trial's pair against its threshold problem; None unless it is a verified violation."""
    normal = z - z.mean()
    scale = float(np.max(np.abs(normal)))
    if scale < 1e-9:
        return None
    normal /= scale
    problem = hyperplane_problem(Hyperplane(normal, float(normal @ point)))
    try:
        pi = Experiment(lik)
        return search.emit(pi, garble(pi, GarblingMatrix(channel)), problem, "random-search")
    except (ValueError, BarycenterMismatch):
        return None


def _random_search(search: _Search) -> Optional[ViolationCertificate]:
    """Randomized fallback: random garbled pairs against threshold problems.

    One budget unit buys one trial, drawn from a stream seeded by the
    search's seed in blocks of a fixed schedule (``_draw_block``); the
    budget only decides how many of the last block's trials are taken.
    One numpy pass screens a block's gaps conservatively (``_screen``).
    Only the flagged trials are emitted one at a time (``_search_trial``,
    then ``_Search.emit``), in trial order, so the certificate and the
    budget charged are those of emitting every trial.  A trial whose rule
    raises ValueError is skipped.
    """
    rng = np.random.default_rng(search.seed)
    size = _BLOCK_FIRST
    while search.remaining > 0:
        take = min(size, search.remaining)
        block = _draw_block(rng, search.mu.shape[0], size, take)
        for t in np.flatnonzero(_screen(search, block)):
            cert = _search_trial(search, *_block_trial(block, int(t)))
            if cert is not None:
                search.charge(int(t) + 1)
                return cert
        search.charge(take)
        size = min(2 * size, _BLOCK_MAX)
    return None


#: Errors of each kind handed to the constructive recipes, largest first.
_MAX_DISPATCH = 16


def _single_mode_recipes(search: _Search, grid, kinds, mags, census, verdict) -> Optional[ViolationCertificate]:
    """The misread prior, the ``_MAX_DISPATCH`` largest errors of each kind, then the vertices that the collapse
    checker's verdict (None on two states) finds off their segment toward x*.

    The largest expansive error, which certifies most harmful rules, goes alone, then the other expansive
    errors as one block (``_audit_expansive``); the contractive errors go as one block.
    """
    cert = _audit_prior_error(search)
    if cert is not None:
        return cert
    for kind, kind_code, handler in (("expansive", 1, _audit_expansive), ("contractive", 2, _audit_contractive)):
        if not census[kind]:  # no row of this kind: skip the gather over the whole census
            continue
        idx = np.nonzero(kinds == kind_code)[0]
        if idx.size > _MAX_DISPATCH:  # only rows at least as large as the _MAX_DISPATCH-th largest can be dispatched
            idx = idx[mags[idx] >= np.partition(mags[idx], -_MAX_DISPATCH)[-_MAX_DISPATCH]]
        rows = grid[idx[np.lexsort((idx, -mags[idx]))][:_MAX_DISPATCH]]
        for block in (rows[:1], rows[1:]) if kind_code == 1 else (rows,):
            cert = handler(search, block) if block.shape[0] else None
            if cert is not None:
                return cert
    return None if verdict is None else _vertex_condition_certificate(search, verdict)


def audit(
    d: Distortion,
    mu,
    grid_size: int = 101,
    budget: int = 5000,
    mode: WelfareMode = WelfareMode.SINGLE,
    seed: int = 0,
    sel: Optional[Selector] = None,
    tol: float = TOL_GEO,
) -> AuditReport:
    """Scan a rule for order violations at one prior.

    Classifies every lattice belief and reports the verdict of the checker that characterizes
    harmlessness in the mode.  SINGLE mode (``occasionally_coarse`` on the g + 1 nodes i/g, g = max(lattice
    rows - 1, 100), from grid 101 on the census lattice's own nodes, or ``occasionally_stubborn``) runs the
    misread-prior recipe, the recipes for the ``_MAX_DISPATCH`` largest errors of each kind (the largest
    expansive one alone, then the others as one block planned as one array program) and the vertex recipe
    on the vertices the collapse checker found off their segment toward its x*; DOUBLE mode (``affine``, from
    the chords at ``grid_size``) runs the chord recipe on those chords.  Random search spends the rest of the
    budget only on a rule the mode's checker refutes.  Absence of a certificate is a pass, never an
    error.  A negative, infinite or NaN tol, a negative seed, or a budget below 1, infinite or NaN raises ValueError
    before the census, as do DimensionMismatch for a rule over another state count than the prior's and
    WrongDimension for too many states (``refuse_face_stack``, ``refuse_chord_lattice``);
    an error of the rule's evaluation propagates, such as NonFiniteImage or an off-node GridMiss.  A tol below
    1e-9 (``TOL_GEO``), such as 0, acts as 1e-9 in the census, the checkers and the recipes alike.
    """
    mua = interior_prior(mu, "audit")
    # A NaN or infinite tol would count every point as error-free, a negative one every point as erring.
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    tol = max(tol, TOL_GEO)  # below it, float rounding would pick an erring point's kind
    if seed < 0:  # numpy's generators take no negative seed; refused whether or not random search runs
        raise ValueError(f"seed must be non-negative, got {seed}")
    if not 1 <= budget < math.inf:  # also NaN, as the command line's --budget
        raise ValueError(f"budget must be finite and at least 1, got {budget}")
    n = mua.shape[0]
    if d.n != n:  # else the census would fail inside numpy, or a checker would name the wrong cause
        raise DimensionMismatch(f"rule is for {d.n} states, prior has {n}")
    sel = sel or Selector()
    mode = WelfareMode(mode)
    if mode is WelfareMode.DOUBLE:
        refuse_chord_lattice(n)
    elif n > 2:
        refuse_face_stack(n)

    grid = simplex_lattice(n, grid_size)
    kinds_all, mags_all = classify_batch(d, mua, grid, tol)
    erring = int(np.count_nonzero(kinds_all))  # kinds are 0, 1 or 2: one pass reads an error-free census
    expansive = int(np.count_nonzero(kinds_all == 1)) if erring else 0
    census = {"none": grid.shape[0] - erring, "expansive": expansive, "contractive": erring - expansive}

    checker_verdicts: dict = {}
    collapse: Optional[StubbornVerdict] = None  # the collapse checker's verdict, read by the vertex recipe
    if mode is WelfareMode.DOUBLE:
        chords = affine_chords(d, mua, grid_size)
        characterized = checker_verdicts["affine"] = is_affine(chords)
    else:
        if n == 2:
            structure = is_occasionally_coarse(d, mua, grid_size=max(grid.shape[0] - 1, 100), tol=tol)
            checker_verdicts["occasionally_coarse"] = structure.to_json()
        else:
            structure = collapse = is_occasionally_stubborn(d, mua, tol=tol)
            checker_verdicts["occasionally_stubborn"] = structure.to_json()
        characterized = structure.ok

    search = _Search(d, mua, sel, mode, tol, seed, int(budget))
    try:
        if mode is WelfareMode.DOUBLE:
            certificate = None if characterized else _chord_certificate(search, *chords)
        else:
            certificate = _single_mode_recipes(search, grid, kinds_all, mags_all, census, collapse)
        if certificate is None and not characterized:
            certificate = _random_search(search)
    except BudgetExhausted:
        certificate = None
    return AuditReport(
        verdict="violation" if certificate else "pass",
        certificate=certificate,
        checker_verdicts=checker_verdicts,
        error_census=census,
        budget_used=search.used,
        grid_points=grid.shape[0],
        states=n,
        prior=Belief(mua),
        mode=mode,
        seed=seed,
    )
