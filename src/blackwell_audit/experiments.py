"""Statistical experiments, Bayesian updating, and the Blackwell order.

An experiment is a row-stochastic likelihood matrix (one row per state,
one column per signal).  Updating it at an interior prior produces a
finite-support distribution over posterior beliefs whose barycenter is
the prior.  Informativeness is decided by garbling feasibility between
likelihood matrices: the garbling matrix nonnegative least squares finds
proves it once its residual is checked.
The auditor builds its contractions itself: it moves one support point
toward a known convex combination of the others, which fixes the new
weights in closed form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    TOL_SUM,
    Belief,
    DimensionMismatch,
    _coerce,
    merge_owners,
    nnls,
)

# Barycenter agreement required of Bayes-plausible posterior distributions.
TOL_BARY = 1e-10
# Sup-norm residual within which a row-stochastic M proves pi @ M = pi_prime.
TOL_GARBLING = 1e-8


class PriorNotInterior(ValueError):
    """The prior must put strictly positive weight on every state."""


class BarycenterMismatch(ValueError):
    """Posterior distribution's mean disagrees with the stated prior."""


def interior_prior(prior, what: str) -> np.ndarray:
    """The prior as a float64 array; PriorNotInterior unless every coordinate
    is positive and finite (a NaN coordinate fails both tests)."""
    mu = _coerce(prior)
    if not (mu.min() > 0.0 and mu.max() < np.inf):
        raise PriorNotInterior(f"{what} requires a full-support prior")
    return mu


def _check_rows_stochastic(matrix: np.ndarray, what: str) -> np.ndarray:
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
        raise ValueError(f"{what} must be a non-empty 2-d matrix")
    if np.min(matrix) < -TOL_SUM:
        raise ValueError(f"{what} has a negative entry: {np.min(matrix)}")
    matrix = np.maximum(matrix, 0.0)
    sums = matrix.sum(axis=1)
    deviation = np.max(np.abs(sums - 1.0))
    if not deviation <= 1e-9:  # also rejects NaN and inf entries
        raise ValueError(f"{what} rows must be finite and sum to 1 (max deviation {deviation:.2e})")
    return matrix / sums[:, None]


@functools.lru_cache(maxsize=64)
def _default_labels(signals: int) -> tuple:
    """("s0", "s1", ...): one tuple per signal count, shared by every experiment that names none."""
    return tuple(f"s{j}" for j in range(signals))


@dataclass(frozen=True, eq=False)
class Experiment:
    """A signal structure: likelihoods[theta, s] = P(signal s | state theta)."""

    likelihoods: np.ndarray
    signal_labels: tuple

    def __init__(self, likelihoods, signal_labels: Optional[Sequence] = None) -> None:
        arr = np.array(likelihoods, dtype=np.float64)
        arr = _check_rows_stochastic(arr, "likelihood matrix")
        if signal_labels is None:
            signal_labels = _default_labels(arr.shape[1])
        else:
            signal_labels = tuple(str(s) for s in signal_labels)
            if len(signal_labels) != arr.shape[1]:
                raise DimensionMismatch("one label per signal required")
        arr.flags.writeable = False
        object.__setattr__(self, "likelihoods", arr)
        object.__setattr__(self, "signal_labels", signal_labels)

    @property
    def n_states(self) -> int:
        return self.likelihoods.shape[0]

    @property
    def n_signals(self) -> int:
        return self.likelihoods.shape[1]

    def to_json(self) -> dict:
        return {
            "likelihoods": [[float(v) for v in row] for row in self.likelihoods],
            "signals": list(self.signal_labels),
        }

    @staticmethod
    def from_json(doc: dict) -> "Experiment":
        return Experiment(doc["likelihoods"], doc.get("signals"))


@dataclass(frozen=True, eq=False)
class PosteriorDistribution:
    """Finite-support distribution over posterior beliefs.

    The support is an (atoms, states) array, taken as it is, or a sequence
    of Beliefs or coordinate arrays.  On construction, zero-probability
    atoms are dropped and the rest merged by ``merge_owners`` (a point
    within TOL_GEO, sup norm, of an earlier kept point joins the first such
    point, probabilities summed), so the support is always pairwise
    distinct.  The barycenter is cached.
    """

    support: np.ndarray
    probs: np.ndarray
    barycenter: Belief

    def __init__(self, support, probs) -> None:
        if not isinstance(support, np.ndarray):
            support = [_coerce(p) for p in support]
        pts = np.asarray(support, dtype=np.float64)
        pr = np.asarray(probs, dtype=np.float64).ravel()
        if pts.ndim != 2 or pts.shape[0] != pr.shape[0] or pr.size == 0:
            raise DimensionMismatch("one probability per support point required")
        if np.min(pr) < -TOL_SUM:
            raise ValueError(f"negative probability: {np.min(pr)}")
        pr = np.maximum(pr, 0.0)
        if not abs(pr.sum() - 1.0) <= 1e-9:  # also rejects NaN and inf
            raise ValueError(f"probabilities must be finite and sum to 1, got {pr.sum()}")
        rows = np.flatnonzero(pr > 0.0)
        if rows.size == 0:
            raise ValueError("distribution needs at least one positive-probability atom")
        owners = merge_owners(pts[rows])  # NaN rows stay apart; Belief rejects them below
        kept = np.flatnonzero(owners == np.arange(rows.size))
        sup, pra = pts[rows[kept]], np.bincount(owners, weights=pr[rows])[kept]
        pra = pra / pra.sum()
        sup.flags.writeable = False
        pra.flags.writeable = False
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "probs", pra)
        object.__setattr__(self, "barycenter", Belief(pra @ sup))

    @property
    def size(self) -> int:
        return self.support.shape[0]

    @property
    def n_states(self) -> int:
        return self.support.shape[1]


@dataclass(frozen=True, eq=False)
class GarblingMatrix:
    """Row-stochastic post-processing of signals: entries[s, s'] = P(s' | s)."""

    entries: np.ndarray

    def __init__(self, entries) -> None:
        arr = np.array(entries, dtype=np.float64)
        arr = _check_rows_stochastic(arr, "garbling matrix")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)


def bayes(prior, experiment: Experiment) -> PosteriorDistribution:
    """Bayesian posterior distribution of an experiment at an interior prior.

    Signal s arrives with probability sum_theta prior[theta] *
    likelihood[theta, s]; zero-probability signals are dropped and
    coincident posteriors merged.  The barycenter equals the prior.
    """
    mu = interior_prior(prior, "bayes")
    if mu.shape[0] != experiment.n_states:
        raise DimensionMismatch("prior length must match the experiment's state count")
    marginal = mu @ experiment.likelihoods
    keep = marginal > 0.0
    posts = (mu[:, None] * experiment.likelihoods[:, keep]) / marginal[keep][None, :]
    return PosteriorDistribution(posts.T, marginal[keep])


def experiment_from_posteriors(rho: PosteriorDistribution, prior) -> Experiment:
    """Inverse of :func:`bayes`: build an experiment realizing a posterior distribution.

    One signal per support point, likelihood[theta, j] = probs[j] *
    support[j, theta] / prior[theta].  Requires the barycenter to match
    the (interior) prior, which is exactly what makes the rows stochastic.
    """
    mu = interior_prior(prior, "reconstruction")
    if np.max(np.abs(rho.barycenter.coords - mu)) > TOL_BARY:
        raise BarycenterMismatch(
            f"barycenter {rho.barycenter.coords} != prior {mu}"
        )
    lik = (rho.probs[None, :] * rho.support.T) / mu[:, None]
    # Row sums equal barycenter/prior ratios; renormalize the residual drift.
    return Experiment(lik / lik.sum(axis=1)[:, None])


def garble(experiment: Experiment, m: GarblingMatrix) -> Experiment:
    """Degrade an experiment by post-processing its signals through m."""
    if m.entries.shape[0] != experiment.n_signals:
        raise DimensionMismatch(
            f"garbling expects {experiment.n_signals} rows, got {m.entries.shape[0]}"
        )
    return Experiment(experiment.likelihoods @ m.entries)


def blackwell_dominates(pi: Experiment, pi_prime: Experiment) -> bool:
    """True when a garbling matrix proves pi_prime a garbling of pi (pi weakly more informative).

    Blackwell (1953): pi dominates exactly when some row-stochastic M gives
    pi @ M = pi_prime, and such an M is the proof.  M is solved by
    nonnegative least squares, clipped at 0 with its rows renormalized, and
    accepted only if max|pi @ M - pi_prime| <= TOL_GARBLING.  False when it
    misses or the solve fails: a refusal, not a proof that pi does not
    dominate.
    """
    if pi.n_states != pi_prime.n_states:
        raise DimensionMismatch("experiments must share the state space")
    A = pi.likelihoods
    B = pi_prime.likelihoods
    k, kp = A.shape[1], B.shape[1]
    # G = kron(A, I): row (theta, s') of G applied to the flattened M is (A M)[theta, s'].
    G = (A[:, None, :, None] * np.eye(kp)[:, None, :]).reshape(-1, k * kp)
    row_sums = np.repeat(np.eye(k), kp, axis=1)  # applied to the flattened M: M's row sums
    try:
        m, _ = nnls(np.vstack([G, row_sums]), np.append(B.ravel(), np.ones(k)))
    except (ValueError, RuntimeError):  # non-finite input, or no convergence
        return False
    M = np.maximum(m, 0.0).reshape(k, kp)
    sums = M.sum(axis=1, keepdims=True)
    return bool(np.all(sums > 0.0) and np.max(np.abs(A @ (M / sums) - B)) <= TOL_GARBLING)
