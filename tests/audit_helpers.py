"""Direct entry points into the auditor's recipes and random search, shared by the tests."""

from typing import Optional

import numpy as np

from blackwell_audit.auditor import (
    BudgetExhausted,
    ViolationCertificate,
    _audit_contractive,
    _audit_expansive,
    _random_search,
    _Search,
)
from blackwell_audit.decision import DecisionProblem, Selector, SelectorPolicy, WelfareMode, expected_payoff
from blackwell_audit.distortions import BayesRule, classify_batch
from blackwell_audit.experiments import Experiment, bayes
from blackwell_audit.geometry import TOL_GEO, Belief


def one_error(kind, d, mu, x0, budget, sel=None, tol=TOL_GEO, seed=0) -> ViolationCertificate:
    """SINGLE mode's recipes for the ``kind`` error at x0; raises BudgetExhausted when none certifies."""
    search = _Search(d, np.asarray(mu, dtype=np.float64), sel or Selector(), WelfareMode.SINGLE, tol, seed, budget)
    x0 = np.asarray(x0, dtype=np.float64)
    kinds, _ = classify_batch(d, search.mu, x0[None, :], tol)  # one row: 1 expansive, 2 contractive
    if kinds[0] != {"expansive": 1, "contractive": 2}[kind]:
        raise ValueError(f"x0 must carry an error of kind {kind!r}")
    cert = (_audit_expansive if kind == "expansive" else _audit_contractive)(search, x0[None, :])
    if cert is None:
        raise BudgetExhausted("no construction produced a verified certificate")
    return cert


def adversary(d, mu, budget, sel=None, mode=WelfareMode.SINGLE, seed=0) -> Optional[ViolationCertificate]:
    """Random search run directly on a rule with a whole budget, whether or not an audit would run it.

    An audit skips random search on a rule its mode's checker accepts, so a
    soundness test calls this with the rule, prior, seed and budget the audit got.
    """
    search = _Search(d, np.asarray(mu, dtype=np.float64), sel or Selector(), WelfareMode(mode), TOL_GEO, seed, budget)
    return _random_search(search)


def forged_bayes_certificate() -> ViolationCertificate:
    """A certificate that accuses Bayes, with its true gap of -2e-5, at the uniform two-state prior.

    pi is uninformative, so every garbling of it has equal rows, while pi_prime's rows differ by
    4e-8 in each column: every garbling misses pi_prime by at least 2e-8, twice TOL_GARBLING.
    The garbling LP's optimum still reads 0, within HiGHS's feasibility tolerance of 1e-7.
    """
    mu, rule, sel = np.array([0.5, 0.5]), BayesRule(2), Selector(SelectorPolicy.LEX_FIRST)
    pi = Experiment([[1.0], [1.0]])
    pi_prime = Experiment([[0.5 + 2e-8, 0.5 - 2e-8], [0.5 - 2e-8, 0.5 + 2e-8]])
    problem = DecisionProblem([[0.0, 0.0], [1000.0, -1000.0]])
    gap = expected_payoff(problem, rule, mu, sel, WelfareMode.SINGLE, bayes(mu, pi)) - expected_payoff(
        problem, rule, mu, sel, WelfareMode.SINGLE, bayes(mu, pi_prime)
    )
    return ViolationCertificate(
        prior=Belief(mu), rule=rule, pi=pi, pi_prime=pi_prime, problem=problem,
        selector=sel, mode=WelfareMode.SINGLE, gap=gap, recipe="random-search",
    )
