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
  problems for the remaining budget.  Trials are drawn in blocks from
  one seeded stream and screened in one numpy pass on the posteriors the
  certificate would carry; only the trials the conservative screen flags
  are emitted, one at a time and in trial order, so the result is that
  of emitting every trial.

Every candidate pair, from a recipe or from random search, goes through
one emission step: its gap is computed once by exact expected-welfare
computation, must lie below -(GAP_TOL + the selector's tie_tol), and the
certificate is kept only if it passes independent re-verification.
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
    Hyperplane,
    NoStrictSeparation,
    _coerce,
    in_convex_hull,
    on_segment,
    separating_hyperplane,
    separating_hyperplane_sets,
    simplex_lattice,
)
from .experiments import (
    BarycenterMismatch,
    Experiment,
    GarblingMatrix,
    InfeasibleWeights,
    NotAffinelyIndependent,
    PosteriorDistribution,
    TargetOutsideOppositeHull,
    bayes,
    blackwell_dominates,
    bring_point_in,
    experiment_from_posteriors,
    garble,
)
from .distortions import (
    Distortion,
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


class _Budget:
    """Counts candidate constructions; raises when the allowance runs out."""

    def __init__(self, limit: int) -> None:
        self.limit = int(limit)
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        if self.used + amount > self.limit:
            raise BudgetExhausted(f"construction budget of {self.limit} exhausted")
        self.used += amount

    @property
    def remaining(self) -> int:
        return self.limit - self.used


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

    Recomputes dominance with the garbling feasibility program and both
    expected payoffs from the raw experiments (posteriors via Bayes, one
    welfare evaluation per support point, no pushforward shortcut); none
    of the auditor's intermediate state is reused.  The recomputed gap
    must lie below ``_gap_cut`` of the certificate's selector.
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
    except Exception:
        return False, "malformed"
    if not abs(gap - c.gap) <= 1e-9:
        return False, "gap-mismatch"
    if not gap < _gap_cut(c.selector):
        return False, "gap-too-small"
    return True, None


def _try_pair(
    d: Distortion,
    mu: np.ndarray,
    sel: Selector,
    mode: WelfareMode,
    rho_hi: PosteriorDistribution,
    rho_lo: PosteriorDistribution,
    problem: DecisionProblem,
    recipe: str,
    seed: int,
) -> Optional[ViolationCertificate]:
    """Materialize a candidate pair as experiments; keep it only if it verifies."""
    try:
        pi = experiment_from_posteriors(rho_hi, mu)
        pi_p = experiment_from_posteriors(rho_lo, mu)
    except (BarycenterMismatch, ValueError):
        return None
    return _emit(d, mu, sel, mode, pi, pi_p, problem, recipe, seed)


def _emit(
    d: Distortion,
    mu: np.ndarray,
    sel: Selector,
    mode: WelfareMode,
    pi: Experiment,
    pi_p: Experiment,
    problem: DecisionProblem,
    recipe: str,
    seed: int,
) -> Optional[ViolationCertificate]:
    """Score a candidate pair once; the certificate if its gap clears the cut and it verifies.

    Every recipe and random search emit through here.  A rule's error
    propagates; each caller decides whether it skips the candidate.
    """
    gap = expected_payoff(problem, d, mu, sel, mode, bayes(mu, pi)) - expected_payoff(
        problem, d, mu, sel, mode, bayes(mu, pi_p)
    )
    if not gap < _gap_cut(sel):
        return None
    cert = ViolationCertificate(
        prior=Belief(mu),
        rule=d,
        pi=pi,
        pi_prime=pi_p,
        problem=problem,
        selector=sel,
        mode=mode,
        gap=float(gap),
        recipe=recipe,
        seed=seed,
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


def _spread_directions(u: np.ndarray, n: int, kappa: float = 0.9) -> np.ndarray:
    """n-1 tangent directions averaging to u, fanned symmetrically around it."""
    if n == 2:
        return u[None, :]
    basis = _tangent_basis(n)
    coords = basis @ u
    perp = basis.T - np.outer(u, coords) / max(float(coords @ coords), 1e-300)
    pu, ps, _ = np.linalg.svd(perp, full_matrices=False)
    P = pu[:, ps > 1e-9].T[: n - 2]  # (n-2, n) orthonormal, perpendicular to u
    return u[None, :] + kappa * (_simplex_vertices(n - 1) @ P)


def _fit_inside(mu: np.ndarray, dirs: np.ndarray, eps: float) -> np.ndarray:
    """Scale the step down until every mu + step * dir stays inside the simplex."""
    step = eps
    for _ in range(40):
        pts = mu[None, :] + step * dirs
        if np.min(pts) > 1e-9:
            return pts
        step *= 0.5
    raise InfeasibleWeights("could not fit scaffold inside the simplex")


def _plausible(support: np.ndarray, mu: np.ndarray) -> Optional[PosteriorDistribution]:
    """Unique positive weights giving the support barycenter mu, if any."""
    A = np.vstack([support.T, np.ones((1, support.shape[0]))])
    b = np.concatenate([mu, [1.0]])
    w, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.max(np.abs(A @ w - b)) > 1e-9 or np.min(w) < 1e-9:
        return None
    try:
        return PosteriorDistribution(support, w)
    except ValueError:
        return None


def _scaffold(mu: np.ndarray, x0: np.ndarray, eps: float) -> Optional[PosteriorDistribution]:
    """Distribution on {x0} + (n-1) points near the prior, mean = prior."""
    u = mu - x0
    nrm = float(np.linalg.norm(u))
    if nrm < 1e-9:
        return None
    dirs = _spread_directions(u / nrm, mu.shape[0])
    try:
        pts = _fit_inside(mu, dirs, eps)
    except InfeasibleWeights:
        return None
    return _plausible(np.vstack([x0[None, :], pts]), mu)


def _vertex_pulled_scaffold(
    mu: np.ndarray, x0: np.ndarray, pull: float
) -> Optional[PosteriorDistribution]:
    """Distribution on {x0} + pulled-in vertices, mean = prior.

    Wide scaffold for the contraction recipes, where the moved edge point
    must sit well off the line through the prior and the error.
    """
    n = mu.shape[0]
    for drop in np.argsort(-np.abs(x0 - mu), kind="stable"):
        idx = [i for i in range(n) if i != drop]
        verts = (1.0 - pull) * np.eye(n)[idx] + pull * mu[None, :]
        rho = _plausible(np.vstack([x0[None, :], verts]), mu)
        if rho is not None and rho.size == n:
            return rho
    return None


def _moved(rho: PosteriorDistribution, gamma: float, target: np.ndarray) -> Optional[PosteriorDistribution]:
    """bring_point_in on support point 0, or None when no weights keep the barycenter."""
    try:
        return bring_point_in(rho, 0, gamma, target)
    except (InfeasibleWeights, NotAffinelyIndependent, TargetOutsideOppositeHull, ValueError):
        return None


# ---------------------------------------------------------------------------
# Expansive recipes
# ---------------------------------------------------------------------------


def _audit_expansive(
    d: Distortion,
    mu: np.ndarray,
    x0: np.ndarray,
    budget: _Budget,
    sel: Selector,
    mode: WelfareMode,
    tol: float,
    seed: int,
) -> Optional[ViolationCertificate]:
    """Claims 1-3 from the expansive error x0.  Images decide before weights: when
    x0's image is that of both moved points of a gamma, every branch would skip
    uncharged, so the weights go unsolved and the outcome is unchanged."""
    img0 = evaluate_batch(d, mu, x0[None, :])[0]
    if np.max(np.abs(x0 - mu)) <= tol:
        return _audit_prior_error(d, mu, budget, sel, mode, tol, seed)

    eps0 = 0.05 * np.sqrt(2.0)  # nearness in simplex-diameter units
    for eps in (eps0, eps0 / 2.0, eps0 / 4.0):
        rho = _scaffold(mu, x0, eps)
        if rho is None:
            continue
        others = rho.support[1:]
        if in_convex_hull(img0, rho.support, tol=1e-7):
            continue  # image not banished at this scaffold width
        imgs_others = evaluate_batch(d, mu, others)
        target = others.mean(axis=0)
        for gamma in (0.6, 0.35, 0.15):
            x0p, x0pp = (g * x0 + (1.0 - g) * target for g in (gamma, gamma / 2.0))
            img0p, img0pp = evaluate_batch(d, mu, np.vstack([x0p, x0pp]))
            if np.max(np.abs(img0p - img0)) <= tol and np.max(np.abs(img0pp - img0p)) <= tol:
                continue  # one destination for all three: each branch below would skip uncharged
            rho_p = _moved(rho, gamma, target)
            if rho_p is None:
                continue

            if np.max(np.abs(img0p - img0)) > tol:
                # A shared destination would sit on both sides: skip the cut.
                budget.charge()
                hull_set = np.vstack([rho.support, imgs_others, img0p[None, :]])
                try:
                    h = separating_hyperplane(img0, hull_set, margin=SEP_MARGIN)
                    cert = _try_pair(
                        d, mu, sel, mode, rho, rho_p, hyperplane_problem(h), "claim1-hyperplane", seed
                    )
                    if cert is not None:
                        return cert
                except NoStrictSeparation:
                    pass

            if np.max(np.abs(img0pp - img0p)) <= tol:
                continue  # same destination: consistent with a collapse rule
            rho_pp = _moved(rho, gamma / 2.0, target)
            if rho_pp is None:
                continue

            budget.charge()
            kite = np.vstack([rho_p.support, imgs_others, img0pp[None, :]])
            try:
                h = separating_hyperplane(img0p, kite, margin=SEP_MARGIN)
                cert = _try_pair(
                    d, mu, sel, mode, rho_p, rho_pp, hyperplane_problem(h), "claim2-separation", seed
                )
                if cert is not None:
                    return cert
            except NoStrictSeparation:
                pass

            budget.charge()
            base = np.vstack([rho_p.support, imgs_others, img0p[None, :]])
            try:
                h = separating_hyperplane(img0pp, base, margin=SEP_MARGIN)
            except NoStrictSeparation:
                continue
            # Mixture on {x0, x0pp, others}: collapsing the first two onto
            # x0p reproduces rho_p, making rho_p its strict contraction.
            lam = gamma / (2.0 - gamma)  # x0p = lam * x0 + (1 - lam) * x0pp
            q = float(rho_p.probs[0])
            mix_support = np.vstack([x0[None, :], x0pp[None, :], rho_p.support[1:]])
            mix_probs = np.concatenate([[q * lam, q * (1.0 - lam)], rho_p.probs[1:]])
            try:
                rho_mix = PosteriorDistribution(mix_support, mix_probs)
            except ValueError:
                continue
            cert = _try_pair(
                d, mu, sel, mode, rho_mix, rho_p, hyperplane_problem(h), "claim3-mixture", seed
            )
            if cert is not None:
                return cert
    return None


def _audit_prior_error(
    d: Distortion,
    mu: np.ndarray,
    budget: _Budget,
    sel: Selector,
    mode: WelfareMode,
    tol: float,
    seed: int,
) -> Optional[ViolationCertificate]:
    """The prior itself is misread: two-stage contraction pair around it."""
    img_mu = evaluate_batch(d, mu, mu[None, :])[0]
    drift = img_mu - mu
    if np.max(np.abs(drift)) <= tol:
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
    budget.charge()
    try:
        h = separating_hyperplane(img_mu, np.vstack([pts[:2], imgs]), margin=SEP_MARGIN)
    except NoStrictSeparation:
        return None
    rho_hi = PosteriorDistribution(np.vstack([x1, x2, mu]), [0.25, 0.25, 0.5])
    rho_lo = PosteriorDistribution(np.vstack([x3, x4]), [0.5, 0.5])
    return _try_pair(d, mu, sel, mode, rho_hi, rho_lo, hyperplane_problem(h), "degenerate-prior", seed)


# ---------------------------------------------------------------------------
# Contractive recipes
# ---------------------------------------------------------------------------


def _threshold_problem(direction: float, cutoff: float) -> DecisionProblem:
    """Two-state threshold problem max(0, dir * (x - cutoff)) in the scalar coordinate."""
    normal = np.array([direction, 0.0])
    return hyperplane_problem(Hyperplane(normal, direction * cutoff))


def _audit_contractive_two_state(
    d: Distortion,
    mu: np.ndarray,
    x0: np.ndarray,
    budget: _Budget,
    sel: Selector,
    mode: WelfareMode,
    tol: float,
    seed: int,
) -> Optional[ViolationCertificate]:
    """Lemma 3 from the contractive error x0: its 8 rungs, and each rung's
    5 sub-rungs, are evaluated in one call each; a rule's map is pure, so
    the certificate and the budget charged are those of rung-by-rung calls."""
    m = float(mu[0])
    z = float(x0[0])
    direction = 1.0 if z > m else -1.0
    far = 0.0 if direction > 0 else 1.0  # scalar coordinate of the opposite vertex

    def belief(t: float) -> np.ndarray:
        return np.array([t, 1.0 - t])

    def phi(t: np.ndarray) -> list:
        return evaluate_batch(d, mu, np.stack([t, 1.0 - t], axis=1))[:, 0].tolist()

    (zhat,) = phi(np.array([z]))
    rungs = zhat + (z - zhat) * np.arange(1, 9) / 9.0
    for zp, zp_hat in zip(rungs.tolist(), phi(rungs)):
        if direction * (zp_hat - zhat) > tol:
            # A less extreme posterior lands on a more extreme belief.
            cutoff = 0.5 * (zp_hat + zhat)
            rho_hi = _plausible(np.vstack([belief(far), belief(z)]), mu)
            rho_lo = _plausible(np.vstack([belief(far), belief(zp)]), mu)
            if rho_hi is None or rho_lo is None:
                continue
            budget.charge()
            cert = _try_pair(
                d, mu, sel, mode, rho_hi, rho_lo,
                _threshold_problem(direction, cutoff), "lemma3-threshold", seed,
            )
            if cert is not None:
                return cert
            continue
        sub_rungs = zp_hat + (zp - zp_hat) * np.arange(1, 6) / 6.0
        for zpp, zpp_hat in zip(sub_rungs.tolist(), phi(sub_rungs)):
            if direction * (zp_hat - zpp_hat) <= tol:
                continue
            # Ternary comparison: {far, zpp, z} against the binary {far, zp}.
            cutoff = 0.5 * (zp_hat + zpp_hat)
            rho_lo = _plausible(np.vstack([belief(far), belief(zp)]), mu)
            if rho_lo is None:
                continue
            p = float(rho_lo.probs[1])
            if abs(z - zpp) < 1e-12:
                continue
            q_z = p * (zp - zpp) / (z - zpp)
            q_zpp = p - q_z
            if min(q_z, q_zpp) < 1e-9:
                continue
            try:
                rho_hi = PosteriorDistribution(
                    np.vstack([belief(far), belief(zpp), belief(z)]), [1.0 - p, q_zpp, q_z]
                )
            except ValueError:
                continue
            budget.charge()
            cert = _try_pair(
                d, mu, sel, mode, rho_hi, rho_lo,
                _threshold_problem(direction, cutoff), "lemma3-ternary", seed,
            )
            if cert is not None:
                return cert
    return None


def _audit_contractive_many_states(
    d: Distortion,
    mu: np.ndarray,
    x0: np.ndarray,
    budget: _Budget,
    sel: Selector,
    mode: WelfareMode,
    tol: float,
    seed: int,
) -> Optional[ViolationCertificate]:
    """Contagion from the contractive error x0.  A moved point's image is
    tested against the prior and img0 before its weights are solved: both
    skips are uncharged, so the outcome is that of solving them first."""
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
                rho_p = _moved(rho, frac, xs)
                if rho_p is None:
                    continue
                budget.charge()
                try:
                    h = separating_hyperplane_sets(
                        [img0p, x0p, x0], [img0, mu], margin=SEP_MARGIN
                    )
                except NoStrictSeparation:
                    continue
                cert = _try_pair(
                    d, mu, sel, mode, rho, rho_p, hyperplane_problem(h),
                    "contagion1-separation", seed,
                )
                if cert is not None:
                    return cert
    return None


def _audit_contractive(d: Distortion, mu: np.ndarray, x0: np.ndarray, *rest):
    """The contraction recipes for mu's state count; ``rest`` is (budget, sel, mode, tol, seed)."""
    recipes = _audit_contractive_two_state if mu.shape[0] == 2 else _audit_contractive_many_states
    return recipes(d, mu, x0, *rest)


def _audit_one_error(kind: str, d: Distortion, mu, x0, budget: int, sel, mode, tol: float, seed: int):
    """Check that x0 carries a ``kind`` error, then run that kind's recipes under ``budget``."""
    mua = _coerce(mu)
    x0a = _coerce(x0)
    sel = sel or Selector()
    mode = WelfareMode(mode)
    if classify_error(d, mua, x0a, tol).kind != kind:
        raise ValueError(f"x0 must carry an error of kind {kind!r}")
    recipes = _audit_expansive if kind == "expansive" else _audit_contractive
    try:
        cert = recipes(d, mua, x0a, _Budget(budget), sel, mode, tol, seed)
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


def _vertex_condition_certificate(
    d: Distortion,
    mu: np.ndarray,
    x_star: np.ndarray,
    budget: _Budget,
    sel: Selector,
    mode: WelfareMode,
    tol: float,
    seed: int,
) -> Optional[ViolationCertificate]:
    """Erring vertex whose image leaves the segment toward the collapse point."""
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
        budget.charge()
        try:
            h = separating_hyperplane(
                img, np.vstack([e[None, :], x_star[None, :], mu[None, :]]), margin=SEP_MARGIN
            )
        except NoStrictSeparation:
            continue
        # Reveal-state-i experiment versus a slightly blurred contraction of it.
        for p in (0.5 * float(mu[i]), 0.25 * float(mu[i])):
            y = (mu - p * e) / (1.0 - p)
            if np.min(y) <= 1e-9:
                continue
            rho_hi = PosteriorDistribution(np.vstack([e, y]), [p, 1.0 - p])
            z = 0.9 * e + 0.1 * y
            rho_lo = _plausible(np.vstack([z, y]), mu)
            if rho_lo is None:
                continue
            cert = _try_pair(
                d, mu, sel, mode, rho_hi, rho_lo, hyperplane_problem(h),
                "vertexprop-separation", seed,
            )
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


def _draw_block(rng: np.random.Generator, n: int, size: int):
    """The next ``size`` trials of the search stream, grouped by shape.

    Each trial draws its numbers in the one-trial-at-a-time order: signal
    count k, lik as n Dirichlet(1^k) rows, channel count kp, channel as k
    Dirichlet(1^kp) rows, point as one Dirichlet(1^n) row, then n standard
    normals z.  A Dirichlet(1^m) row is m standard exponentials scaled to
    sum 1, and the channel's and the point's exponentials are adjacent, so
    they come from one call.  Returns (groups, points, z): one (trial
    indices, lik stack, channel stack) per (k, kp), and (size, n) arrays.
    """
    shapes, e_lik, e_rest, z = [], [], [], []
    for _ in range(size):
        k = int(rng.integers(2, 5))
        e_lik.append(rng.standard_exponential((n, k)))
        kp = int(rng.integers(1, k + 1))
        e_rest.append(rng.standard_exponential(k * kp + n))
        z.append(rng.standard_normal(n))
        shapes.append((k, kp))
    members: dict = {}
    for t, shape in enumerate(shapes):
        members.setdefault(shape, []).append(t)
    groups = []
    points = np.empty((size, n))
    for (k, kp), idx in sorted(members.items()):
        rest = np.array([e_rest[t] for t in idx])
        channel = _unit_rows(rest[:, : k * kp].reshape(len(idx), k, kp))
        points[idx] = _unit_rows(rest[:, k * kp :])
        groups.append((idx, _unit_rows(np.array([e_lik[t] for t in idx])), channel))
    return groups, points, np.array(z)


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
        idx = np.array(idx)
        lik = lik / lik.sum(axis=-1, keepdims=True)
        lik_p = lik @ (channel / channel.sum(axis=-1, keepdims=True))
        lik_p /= lik_p.sum(axis=-1, keepdims=True)
        L[idx, :, :k] = lik
        L[idx, :, 4 : 4 + kp] = lik_p
        M[idx, :k] = mu @ lik
        M[idx, 4 : 4 + kp] = mu @ lik_p
    X = (mu[None, :, None] * L) / np.where(M > 0.0, M, 1.0)[:, None, :]
    return M, X.transpose(0, 2, 1)


def _screen(
    d: Distortion,
    mu: np.ndarray,
    sel: Selector,
    mode: WelfareMode,
    block,
) -> np.ndarray:
    """Flag the trials of a block that may be candidates; one numpy pass.

    The posteriors are the certificate's (``_block_posteriors``).  The
    rest is elementwise across the block, and differs from ``_emit``'s
    arithmetic by rounding only, which ``_SCREEN_SLACK`` covers.  A trial
    stays unflagged only when its gap is surely above ``_gap_cut``: not
    near the cut, no act score near the tie threshold (SINGLE mode), no two
    posteriors of one experiment that ``bayes`` could merge, a normal not
    too small to rescale, and a selector without pins.
    """
    _, points, z = block
    size = z.shape[0]
    if sel.pins:
        return np.ones(size, dtype=bool)
    M, X = _block_posteriors(mu, block)
    keep = M > 0.0
    try:
        with np.errstate(all="ignore"):
            imgs = np.zeros_like(X)
            imgs[keep] = d.apply_batch(mu, X[keep])
            normal = z - z.mean(axis=1, keepdims=True)
            scale = np.max(np.abs(normal), axis=1)
            normal /= np.where(scale > 0.0, scale, 1.0)[:, None]
            act = (normal - np.sum(normal * points, axis=1, keepdims=True))[:, None, :]
            score = np.sum(imgs * act, axis=2)
            if mode is WelfareMode.DOUBLE:
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
        if t in idx:
            j = idx.index(t)
            return lik[j].copy(), channel[j].copy(), points[t].copy(), z[t].copy()
    raise IndexError(t)


def _search_trial(
    d: Distortion,
    mu: np.ndarray,
    sel: Selector,
    mode: WelfareMode,
    seed: int,
    lik: np.ndarray,
    channel: np.ndarray,
    point: np.ndarray,
    z: np.ndarray,
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
        return _emit(d, mu, sel, mode, pi, garble(pi, GarblingMatrix(channel)), problem, "random-search", seed)
    except (ValueError, BarycenterMismatch):
        return None


def _random_search(
    d: Distortion,
    mu: np.ndarray,
    budget: _Budget,
    sel: Selector,
    mode: WelfareMode,
    seed: int,
) -> Optional[ViolationCertificate]:
    """Randomized fallback: random garbled pairs against threshold problems.

    One trial per budget unit, drawn from a stream seeded by ``seed``.
    Trials come in blocks (``_draw_block``), and one numpy pass screens a
    block's gaps conservatively (``_screen``).  Only the flagged trials
    are emitted one at a time (``_search_trial``, then ``_emit``), in trial
    order, so the certificate and the budget charged are those of
    emitting every trial.  A trial whose rule raises ValueError is skipped.
    """
    n = mu.shape[0]
    rng = np.random.default_rng(seed)
    size = _BLOCK_FIRST
    while budget.remaining > 0:
        size = min(size, budget.remaining)
        block = _draw_block(rng, n, size)
        for t in np.flatnonzero(_screen(d, mu, sel, mode, block)):
            cert = _search_trial(d, mu, sel, mode, seed, *_block_trial(block, int(t)))
            if cert is not None:
                budget.charge(int(t) + 1)
                return cert
        budget.charge(size)
        size = min(2 * size, _BLOCK_MAX)
    return None


def audit(
    d: Distortion,
    mu,
    grid_size: int = 101,
    budget: int = 5000,
    mode: WelfareMode = WelfareMode.SINGLE,
    seed: int = 0,
    sel: Optional[Selector] = None,
    tol: float = TOL_GEO,
    samples_per_face: int = 24,
    max_dispatch: int = 16,
) -> AuditReport:
    """Scan a rule for order violations at one prior.

    Classifies every lattice belief, dispatches detected errors to the
    constructive recipes (largest error first), checks erring vertices
    against the collapse-point segment condition, and spends any
    budget on randomized search.  Absence of a certificate is a pass
    (with structural checker verdicts attached), never an error.  An error
    raised by the rule's map propagates, such as an off-node GridMiss.
    """
    mua = _coerce(mu)
    n = mua.shape[0]
    if np.min(mua) <= 0.0:
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
        checker_verdicts["occasionally_stubborn"] = is_occasionally_stubborn(
            d, mua, samples_per_face=samples_per_face, tol=max(tol, 1e-9)
        ).to_json()
    checker_verdicts["trivial_on_interior"] = is_trivial_on_interior(d, mua, tol=max(tol, 1e-9))
    checker_verdicts["affine"] = is_affine(d, mua)

    tracker = _Budget(budget)
    certificate: Optional[ViolationCertificate] = None

    def report(cert: Optional[ViolationCertificate]) -> AuditReport:
        return AuditReport(
            verdict="violation" if cert else "pass",
            certificate=cert,
            checker_verdicts=checker_verdicts,
            error_census=census,
            budget_used=tracker.used,
            grid_points=grid.shape[0],
            states=n,
            prior=Belief(mua),
            mode=mode,
            seed=seed,
        )

    try:
        # A misread prior is the degenerate starting point.
        if classify_error(d, mua, mua, tol).kind != "none":
            certificate = _audit_prior_error(d, mua, tracker, sel, mode, tol, seed)
            if certificate is not None:
                return report(certificate)

        for kind_code, handler in ((1, _audit_expansive), (2, _audit_contractive)):
            idx = np.nonzero(kinds_all == kind_code)[0]
            if idx.size == 0:
                continue
            order = idx[np.lexsort((idx, -mags_all[idx]))][:max_dispatch]
            for gi in order:
                certificate = handler(d, mua, grid[gi], tracker, sel, mode, tol, seed)
                if certificate is not None:
                    return report(certificate)

        # Vertex images must stay on the segment toward the collapse point.
        star = None
        sv = checker_verdicts.get("occasionally_stubborn")
        if sv and sv.get("x_star") is not None:
            star = np.asarray(sv["x_star"], dtype=np.float64)
        elif checker_verdicts["trivial_on_interior"] and n >= 3:
            star = evaluate_batch(d, mua, mua[None, :])[0]
        if star is not None and n >= 3:
            certificate = _vertex_condition_certificate(d, mua, star, tracker, sel, mode, tol, seed)
            if certificate is not None:
                return report(certificate)

        certificate = _random_search(d, mua, tracker, sel, mode, seed)
    except BudgetExhausted:
        certificate = None
    return report(certificate)
