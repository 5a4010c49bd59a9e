"""End-to-end violation search for belief-updating rules.

The auditor scans a belief grid for distortion errors and, for each one,
tries a short list of constructions that convert the error into a
machine-checkable certificate: a pair of experiments ordered by
informativeness, plus a two-action decision problem, under which the
rule strictly prefers the less informative experiment.

Construction recipes, cheapest first
------------------------------------
* ``claim1-hyperplane``   - an off-hull image is cut from the support
  hull (and the contraction's image) by a strict hyperplane; the induced
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
* ``random-search``       - randomized experiment pairs and threshold
  problems for the remaining budget.  Blocks of 8, 16, ..., 256, 256, ...
  trials, whatever the budget, come from one seeded stream in six
  generator calls each and are screened in one numpy pass on the
  posteriors the certificate would carry; only the flagged trials are
  emitted, in trial order, so the result is that of emitting every trial.

One search object (``_Search``) holds an audit's fixed inputs and its
construction budget.  Every recipe cuts through ``_Search.cut`` (charge
one construction, separate, build the threshold problem), and every
candidate pair, from a recipe or from random search, goes through one
emission step, ``_Search.emit``: its gap is computed once by exact
expected-welfare computation, must lie below -(GAP_TOL + the selector's
tie_tol), and the certificate is kept only if it passes independent
re-verification (``verify_certificate``).  There, and in ``blackwell-audit
verify``, dominance is proved by a garbling matrix that nonnegative least
squares finds; only when none fits within tolerance does the garbling
feasibility LP decide.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .geometry import (
    TOL_GEO,
    Belief,
    Hyperplane,
    NoStrictSeparation,
    _coerce,
    in_convex_hull,
    on_segment,
    separating_hyperplane_sets,
    simplex_lattice,
)
from .experiments import (
    BarycenterMismatch,
    Experiment,
    GarblingMatrix,
    PosteriorDistribution,
    bayes,
    blackwell_dominates,
    experiment_from_posteriors,
    garble,
)
from .distortions import (
    Distortion,
    GridMiss,
    NonFiniteImage,
    classify_batch,
    classify_error,
    evaluate_batch,
    is_affine,
    is_occasionally_coarse,
    is_occasionally_stubborn,
    is_trivial_on_interior,
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

    Recomputes dominance with ``blackwell_dominates`` (a garbling found by
    nonnegative least squares proves it; failing that, the garbling
    feasibility program decides) and both expected payoffs from the raw
    experiments (posteriors via Bayes, one welfare evaluation per support
    point, no pushforward shortcut); none of the auditor's intermediate
    state is reused.  The recomputed gap must lie below ``_gap_cut`` of
    the certificate's selector.  A rule that cannot be evaluated on the
    certificate's posteriors raises NonFiniteImage or GridMiss, as it does
    in an audit; every other failure of the recomputation is "malformed".
    """
    try:
        mu = c.prior
        if not mu.is_interior():
            return False, "prior"
        if c.pi.n_states != mu.n or c.pi_prime.n_states != mu.n or c.problem.n_states != mu.n:
            return False, "malformed"
    except Exception:
        return False, "malformed"
    if not blackwell_dominates(c.pi, c.pi_prime, tol=1e-8):
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


#: How far ``_spread_directions`` fans its directions out around u.
_SPREAD = 0.9


def _spread_directions(u: np.ndarray, n: int) -> np.ndarray:
    """n-1 tangent directions averaging to u, fanned symmetrically around it."""
    if n == 2:
        return u[None, :]
    basis = _tangent_basis(n)
    coords = basis @ u
    perp = basis.T - np.outer(u, coords) / max(float(coords @ coords), 1e-300)
    pu, ps, _ = np.linalg.svd(perp, full_matrices=False)
    P = pu[:, ps > 1e-9].T[: n - 2]  # (n-2, n) orthonormal, perpendicular to u
    return u[None, :] + _SPREAD * (_simplex_vertices(n - 1) @ P)


def _fit_inside(mu: np.ndarray, dirs: np.ndarray, eps: float) -> Optional[float]:
    """The first of eps, eps/2, eps/4, ... (40 tries) keeping every mu + step * dir in the simplex, else None."""
    step = eps
    for _ in range(40):
        if np.min(mu[None, :] + step * dirs) > 1e-9:
            return step
        step *= 0.5
    return None


def _distribution(support: np.ndarray, probs, floor: float = 1e-9) -> Optional[PosteriorDistribution]:
    """The distribution with these weights; None when one is NaN or below ``floor``, or it cannot be built."""
    probs = np.asarray(probs, dtype=np.float64)
    if not np.min(probs) >= floor:
        return None
    try:
        return PosteriorDistribution(support, probs)
    except ValueError:
        return None


def _scaffolds(mu: np.ndarray, x0: np.ndarray) -> Iterator[PosteriorDistribution]:
    """Distributions on {x0} + (n-1) points mu + s * dir near the prior, mean = prior, at
    three widths from the widest; a width with no such distribution is skipped.  The
    directions average to u = (mu - x0) / |mu - x0|, so x0 takes w0 = s / (|mu - x0| + s)
    and each other point (1 - w0) / (n - 1)."""
    u = mu - x0
    nrm = float(np.linalg.norm(u))
    if nrm < 1e-9:
        return
    n = mu.shape[0]
    dirs = _spread_directions(u / nrm, n)  # the same at every width
    eps0 = 0.05 * np.sqrt(2.0)  # nearness in simplex-diameter units
    for eps in (eps0, eps0 / 2.0, eps0 / 4.0):
        step = _fit_inside(mu, dirs, eps)
        if step is None:
            continue
        w0 = step / (nrm + step)
        rho = _distribution(
            np.vstack([x0[None, :], mu[None, :] + step * dirs]), np.append(w0, np.full(n - 1, (1.0 - w0) / (n - 1)))
        )
        if rho is not None:
            yield rho


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


# ---------------------------------------------------------------------------
# Expansive recipes
# ---------------------------------------------------------------------------


def _audit_expansive(search: _Search, x0: np.ndarray) -> Optional[ViolationCertificate]:
    """Claims 1-3 from the expansive error x0.  Images decide before weights: when
    x0's image is that of both moved points of a gamma, every branch would skip
    uncharged, so the weights go unsolved and the outcome is unchanged."""
    d, mu, tol = search.d, search.mu, search.tol
    img0 = evaluate_batch(d, mu, x0[None, :])[0]
    if np.max(np.abs(x0 - mu)) <= tol:
        return _audit_prior_error(search)

    for rho in _scaffolds(mu, x0):
        others = rho.support[1:]
        if in_convex_hull(img0, rho.support, tol=1e-7):
            continue  # image not banished at this scaffold width
        imgs_others = evaluate_batch(d, mu, others)
        even = np.full(others.shape[0], 1.0 / others.shape[0])  # target's weights over others
        target = others.mean(axis=0)
        for gamma in (0.6, 0.35, 0.15):
            x0p, x0pp = (g * x0 + (1.0 - g) * target for g in (gamma, gamma / 2.0))
            img0p, img0pp = evaluate_batch(d, mu, np.vstack([x0p, x0pp]))
            if np.max(np.abs(img0p - img0)) <= tol and np.max(np.abs(img0pp - img0p)) <= tol:
                continue  # one destination for all three: each branch below would skip uncharged
            rho_p = _moved(rho, gamma, even, x0p)
            if rho_p is None:
                continue

            if np.max(np.abs(img0p - img0)) > tol:
                # A shared destination would sit on both sides: skip the cut.
                problem = search.cut([img0], np.vstack([rho.support, imgs_others, img0p[None, :]]))
                cert = problem and search.try_pair(rho, rho_p, problem, "claim1-hyperplane")
                if cert is not None:
                    return cert

            if np.max(np.abs(img0pp - img0p)) <= tol:
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


def _audit_contractive_two_state(search: _Search, x0: np.ndarray) -> Optional[ViolationCertificate]:
    """Lemma 3 from the contractive error x0: its 8 rungs, and each rung's
    5 sub-rungs, are evaluated in one call each; a rule's map is pure, so
    the certificate and the budget charged are those of rung-by-rung calls."""
    d, mu, tol = search.d, search.mu, search.tol
    m = float(mu[0])
    z = float(x0[0])
    direction = 1.0 if z > m else -1.0
    far = 0.0 if direction > 0 else 1.0  # scalar coordinate of the opposite vertex

    def phi(t: np.ndarray) -> list:
        return evaluate_batch(d, mu, np.stack([t, 1.0 - t], axis=1))[:, 0].tolist()

    (zhat,) = phi(np.array([z]))
    rho_z = _binary(m, far, z)
    rungs = zhat + (z - zhat) * np.arange(1, 9) / 9.0
    for zp, zp_hat in zip(rungs.tolist(), phi(rungs)):
        rho_zp = _binary(m, far, zp)
        if direction * (zp_hat - zhat) > tol:
            # A less extreme posterior lands on a more extreme belief.
            cutoff = 0.5 * (zp_hat + zhat)
            if rho_z is None or rho_zp is None:
                continue
            search.charge()
            cert = search.try_pair(rho_z, rho_zp, _threshold_problem(direction, cutoff), "lemma3-threshold")
            if cert is not None:
                return cert
            continue
        sub_rungs = zp_hat + (zp - zp_hat) * np.arange(1, 6) / 6.0
        for zpp, zpp_hat in zip(sub_rungs.tolist(), phi(sub_rungs)):
            if direction * (zp_hat - zpp_hat) <= tol:
                continue
            # Ternary comparison: {far, zpp, z} against the binary {far, zp}.
            cutoff = 0.5 * (zp_hat + zpp_hat)
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


def _audit_contractive_many_states(search: _Search, x0: np.ndarray) -> Optional[ViolationCertificate]:
    """Contagion from the contractive error x0.  A moved point's image is
    tested against the prior and img0 before its weights are solved: both
    skips are uncharged, so the outcome is that of solving them first."""
    d, mu, tol = search.d, search.mu, search.tol
    img0 = evaluate_batch(d, mu, x0[None, :])[0]
    for pull in (0.25, 0.45):
        rho = _vertex_pulled_scaffold(mu, x0, pull)
        if rho is None:
            continue
        for s in range(1, rho.size):
            xs = rho.support[s]
            for frac in (0.8, 0.6):
                x0p = frac * x0 + (1.0 - frac) * xs
                img0p = evaluate_batch(d, mu, x0p[None, :])[0]
                if np.max(np.abs(img0p - mu)) <= tol:
                    continue  # edge point mapped to the prior: consistent
                if np.max(np.abs(img0p - img0)) <= tol:
                    continue  # shared destination would sit on both sides
                rho_p = _moved(rho, frac, np.eye(rho.size - 1)[s - 1], x0p)
                if rho_p is None:
                    continue
                problem = search.cut([img0p, x0p, x0], [img0, mu])
                cert = problem and search.try_pair(rho, rho_p, problem, "contagion1-separation")
                if cert is not None:
                    return cert
    return None


def _audit_contractive(search: _Search, x0: np.ndarray) -> Optional[ViolationCertificate]:
    """The contraction recipes for the prior's state count."""
    recipes = _audit_contractive_two_state if search.mu.shape[0] == 2 else _audit_contractive_many_states
    return recipes(search, x0)


def _audit_one_error(kind: str, d: Distortion, mu, x0, budget: int, sel, mode, tol: float, seed: int):
    """Check that x0 carries a ``kind`` error, then run that kind's recipes under ``budget``."""
    search = _Search(d, _coerce(mu), sel or Selector(), WelfareMode(mode), tol, seed, int(budget))
    x0a = _coerce(x0)
    if classify_error(d, search.mu, x0a, tol).kind != kind:
        raise ValueError(f"x0 must carry an error of kind {kind!r}")
    recipes = _audit_expansive if kind == "expansive" else _audit_contractive
    try:
        cert = recipes(search, x0a)
    except BudgetExhausted:
        cert = None
    if cert is None:
        raise BudgetExhausted("no construction produced a verified certificate")
    return cert


def audit_expansive(
    d: Distortion,
    mu,
    x0,
    budget: int = 200,
    sel: Optional[Selector] = None,
    mode: WelfareMode = WelfareMode.SINGLE,
    tol: float = TOL_GEO,
    seed: int = 0,
) -> ViolationCertificate:
    """Certificate synthesis from one expansive error; raises BudgetExhausted."""
    return _audit_one_error("expansive", d, mu, x0, budget, sel, mode, tol, seed)


def audit_contractive(
    d: Distortion,
    mu,
    x0,
    budget: int = 200,
    sel: Optional[Selector] = None,
    mode: WelfareMode = WelfareMode.SINGLE,
    tol: float = TOL_GEO,
    seed: int = 0,
) -> ViolationCertificate:
    """Certificate synthesis from one contractive error; raises BudgetExhausted."""
    return _audit_one_error("contractive", d, mu, x0, budget, sel, mode, tol, seed)


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


def _vertex_condition_certificate(search: _Search, x_star: np.ndarray) -> Optional[ViolationCertificate]:
    """Erring vertex whose image leaves the segment toward the collapse point."""
    d, mu, tol = search.d, search.mu, search.tol
    n = mu.shape[0]
    verts = np.eye(n)
    vert_imgs = evaluate_batch(d, mu, verts)
    for i in range(n):
        e = verts[i]
        img = vert_imgs[i]
        if np.max(np.abs(img - e)) <= tol:
            continue
        if on_segment(x_star, e, img, tol=max(tol, 1e-9)).on:
            continue
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

    Classifies every lattice belief, dispatches the ``_MAX_DISPATCH``
    largest errors of each kind to the constructive recipes, checks
    erring vertices against the collapse-point segment condition, and
    spends any budget left on randomized search.  One budget unit buys
    one recipe cut, one lemma-3 pair or one random-search trial.  Absence of a certificate is a pass
    (with structural checker verdicts attached), never an error.  An error
    of the rule's evaluation propagates, such as NonFiniteImage or an
    off-node GridMiss.
    """
    mua = _coerce(mu)
    n = mua.shape[0]
    if not (mua.min() > 0.0 and mua.max() < math.inf):
        raise ValueError("audit requires a full-support prior")
    sel = sel or Selector()
    mode = WelfareMode(mode)

    grid = simplex_lattice(n, grid_size)
    kinds_all = np.empty(grid.shape[0], dtype=np.int8)
    mags_all = np.empty(grid.shape[0])
    chunk = 500_000
    for lo in range(0, grid.shape[0], chunk):
        part = slice(lo, lo + chunk)
        kinds_all[part], mags_all[part] = classify_batch(d, mua, grid[part], tol)
    census = {
        "none": int(np.sum(kinds_all == 0)),
        "expansive": int(np.sum(kinds_all == 1)),
        "contractive": int(np.sum(kinds_all == 2)),
    }

    checker_verdicts: dict = {}
    if n == 2:
        checker_verdicts["occasionally_coarse"] = is_occasionally_coarse(
            d, mua, grid_size=max(grid_size, 100), tol=max(tol, 1e-9)
        ).to_json()
    else:
        stubborn = is_occasionally_stubborn(d, mua, tol=max(tol, 1e-9))
        checker_verdicts["occasionally_stubborn"] = stubborn.to_json()
    checker_verdicts["trivial_on_interior"] = is_trivial_on_interior(d, mua, tol=max(tol, 1e-9))
    checker_verdicts["affine"] = is_affine(d, mua)

    search = _Search(d, mua, sel, mode, tol, seed, int(budget))
    certificate: Optional[ViolationCertificate] = None

    def report(cert: Optional[ViolationCertificate]) -> AuditReport:
        return AuditReport(
            verdict="violation" if cert else "pass",
            certificate=cert,
            checker_verdicts=checker_verdicts,
            error_census=census,
            budget_used=search.used,
            grid_points=grid.shape[0],
            states=n,
            prior=Belief(mua),
            mode=mode,
            seed=seed,
        )

    try:
        # A misread prior is the degenerate starting point.
        certificate = _audit_prior_error(search)
        if certificate is not None:
            return report(certificate)

        for kind_code, handler in ((1, _audit_expansive), (2, _audit_contractive)):
            idx = np.nonzero(kinds_all == kind_code)[0]
            if idx.size == 0:
                continue
            order = idx[np.lexsort((idx, -mags_all[idx]))][:_MAX_DISPATCH]
            for gi in order:
                certificate = handler(search, grid[gi])
                if certificate is not None:
                    return report(certificate)

        # Vertex images must stay on the segment toward the collapse point.
        if n >= 3:
            star = stubborn.x_star.coords if stubborn.x_star is not None else None
            if star is None and checker_verdicts["trivial_on_interior"]:
                star = evaluate_batch(d, mua, mua[None, :])[0]
            if star is not None:
                certificate = _vertex_condition_certificate(search, star)
                if certificate is not None:
                    return report(certificate)

        certificate = _random_search(search)
    except BudgetExhausted:
        certificate = None
    return report(certificate)
