"""Reference oracles the tests check the package against.

No audit or verification calls them, so they live with the tests:
``value_function`` (the upper envelope at one belief, with its tie set),
``convexity_violations`` (a sampled chord test of a welfare profile) and
``is_mpc`` (the dilation LP, the second route to the Blackwell order)
and ``dedupe_points`` (the merge rule as one sup-norm comparison per pair).
``sup_close`` compares beliefs in the sup norm.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from blackwell_audit.decision import TIE_TOL, DecisionProblem, Selector, WelfareMode, welfare_batch
from blackwell_audit.distortions import Distortion
from blackwell_audit.experiments import TOL_BARY, BarycenterMismatch, DimensionMismatch, PosteriorDistribution
from blackwell_audit.geometry import TOL_GEO, _coerce, _min_sup_residual


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
    return bool(_min_sup_residual([barycenters, mixture], (I, J), "dilation") <= tol)

