"""Finite decision problems and welfare under distorted updating.

A decision problem is a payoff matrix over (action, state).  The value
function is the upper envelope of the action payoff lines over the
belief simplex.  Welfare evaluates the action a rule-following agent
actually picks: the action optimal at the held (distorted) posterior,
scored either at the true Bayesian posterior (the single-mistake
convention used throughout) or at the held posterior again
(double-mistake).  Respecting the informativeness order is equivalent to
convexity of the welfare profile.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import _coerce
from .distortions import Distortion, evaluate_batch
from .experiments import BarycenterMismatch, PosteriorDistribution

#: Default slack when collecting the set of optimal actions.
TIE_TOL = 1e-10
#: A selector's pin applies to held beliefs within this sup-norm distance.
PIN_TOL = 1e-9


class WelfareMode(str, enum.Enum):
    """How a mistaken action is scored: at the true posterior, or at the held one."""

    SINGLE = "single"
    DOUBLE = "double"


@dataclass(frozen=True, eq=False)
class DecisionProblem:
    """Payoff matrix u[action, state] over a finite action set."""

    payoff: np.ndarray
    action_labels: tuple

    def __init__(self, payoff, action_labels: Optional[Sequence] = None) -> None:
        arr = np.array(payoff, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("payoff must be a non-empty 2-d matrix")
        if not np.all(np.isfinite(arr)):
            raise ValueError("payoff entries must be finite")
        if action_labels is None:
            action_labels = tuple(f"a{i}" for i in range(arr.shape[0]))
        else:
            action_labels = tuple(str(a) for a in action_labels)
            if len(action_labels) != arr.shape[0]:
                raise ValueError("one label per action required")
        arr.flags.writeable = False
        object.__setattr__(self, "payoff", arr)
        object.__setattr__(self, "action_labels", action_labels)

    @property
    def n_actions(self) -> int:
        return self.payoff.shape[0]

    @property
    def n_states(self) -> int:
        return self.payoff.shape[1]

    def to_json(self) -> dict:
        return {
            "payoff": [[float(v) for v in row] for row in self.payoff],
            "actions": list(self.action_labels),
        }

    @staticmethod
    def from_json(doc: dict) -> "DecisionProblem":
        return DecisionProblem(doc["payoff"], doc.get("actions"))


def quadratic_loss_problem(n_actions: int = 101) -> DecisionProblem:
    """Two-state quadratic-loss problem on an action grid of [0, 1].

    u(a, state j) = -(a - target_j)**2 + 0.3 with targets (1, 0).  In
    the scalar convention x = coords[0] the value function is
    -x(1-x) + 0.3, attained at a = x (exactly on-grid whenever x is a
    multiple of the action step).
    """
    targets = np.array([1.0, 0.0])
    grid = np.linspace(0.0, 1.0, n_actions)
    payoff = -((grid[:, None] - targets[None, :]) ** 2) + 0.3
    return DecisionProblem(payoff, [f"{a:g}" for a in grid])


class SelectorPolicy(str, enum.Enum):
    LEX_FIRST = "lex-first"
    LEX_LAST = "lex-last"
    PINNED = "pinned"


@dataclass(frozen=True)
class Selector:
    """Consistent action choice: a function of the held posterior alone.

    Ties (scores within ``tie_tol`` of the best) break lexicographically,
    or through explicit pins: (belief coordinates, action index) pairs
    matched within ``PIN_TOL``, falling back to lex-first.  A pin whose
    action is not one of the problem's is ignored.
    """

    policy: SelectorPolicy = SelectorPolicy.LEX_FIRST
    tie_tol: float = TIE_TOL
    pins: tuple = ()

    def __post_init__(self) -> None:
        # A certificate's gap must clear -tie_tol; a negative one would let a gap of 0 pass.
        if not 0.0 <= self.tie_tol < math.inf:
            raise ValueError(f"tie_tol must be finite and non-negative, got {self.tie_tol}")

    def to_json(self) -> dict:
        doc: dict = {"policy": self.policy.value, "tie_tol": self.tie_tol}
        if self.pins:
            doc["pins"] = [
                {"belief": [float(v) for v in b], "action": int(a)} for b, a in self.pins
            ]
        return doc

    @staticmethod
    def from_json(doc: dict) -> "Selector":
        pins = tuple(
            (tuple(entry["belief"]), int(entry["action"])) for entry in doc.get("pins", ())
        )
        return Selector(SelectorPolicy(doc.get("policy", "lex-first")), doc.get("tie_tol", TIE_TOL), pins)


def value_batch(p: DecisionProblem, X: np.ndarray) -> np.ndarray:
    return np.max(np.asarray(X) @ p.payoff.T, axis=-1)


def _select_batch(p: DecisionProblem, sel: Selector, X_hat: np.ndarray) -> np.ndarray:
    scores = X_hat @ p.payoff.T
    best = scores.max(axis=1, keepdims=True)
    ties = scores >= best - sel.tie_tol
    if sel.policy is SelectorPolicy.LEX_LAST:
        rev = ties[:, ::-1]
        choice = p.n_actions - 1 - rev.argmax(axis=1)
    else:
        choice = ties.argmax(axis=1)
    if sel.policy is SelectorPolicy.PINNED and sel.pins:
        for r in range(X_hat.shape[0]):
            for coords, action in sel.pins:
                if (
                    0 <= action < p.n_actions
                    and ties[r, action]
                    and np.max(np.abs(np.asarray(coords) - X_hat[r])) <= PIN_TOL
                ):
                    choice[r] = action
                    break
    return choice.astype(np.int64)


def welfare_batch(
    p: DecisionProblem,
    d: Distortion,
    mu,
    sel: Selector,
    mode: WelfareMode,
    X,
) -> np.ndarray:
    """Per row x of X, the payoff of the action chosen at the distorted belief: single-mistake
    scores it at the true posterior x, double-mistake at the image (the value function there)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    imgs = evaluate_batch(d, mu, X)
    if WelfareMode(mode) is WelfareMode.DOUBLE:
        return value_batch(p, imgs)
    actions = _select_batch(p, sel, imgs)
    return np.einsum("ij,ij->i", p.payoff[actions], X)


def expected_payoff(
    p: DecisionProblem,
    d: Distortion,
    mu,
    sel: Selector,
    mode: WelfareMode,
    rho_b: PosteriorDistribution,
) -> float:
    """Ex-ante welfare of an experiment, via its Bayesian posterior distribution."""
    mua = _coerce(mu)
    if np.max(np.abs(rho_b.barycenter.coords - mua)) > 1e-8:
        raise BarycenterMismatch("posterior distribution is not plausible for this prior")
    w = welfare_batch(p, d, mu, sel, mode, rho_b.support)
    return float(rho_b.probs @ w)

