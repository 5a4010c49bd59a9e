"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the acceptance
lines as they complete.  Every tolerance is pinned here, not deferred.
"""

import json
import time

import numpy as np
import pytest

from blackwell_audit.geometry import Belief, Hyperplane, uniform_belief
from blackwell_audit.experiments import (
    Experiment,
    GarblingMatrix,
    bayes,
    blackwell_dominates,
    garble,
)
from blackwell_audit.distortions import (
    BayesRule,
    CoarseRule,
    GretherRule,
    ShrinkageRule,
    affine_chords,
    evaluate_batch,
    is_affine,
    is_occasionally_coarse,
    is_occasionally_stubborn,
    random_rule,
    stubborn_example_a,
    stubborn_example_b,
)
from blackwell_audit.decision import (
    DecisionProblem,
    Selector,
    WelfareMode,
    _select_batch,
    expected_payoff,
    quadratic_loss_problem,
    welfare_batch,
)
from blackwell_audit.auditor import (
    audit,
    hyperplane_problem,
    verify_certificate,
)
from audit_helpers import adversary
from oracles import convexity_violations, is_mpc, value_function
from blackwell_audit.cli import EXIT_INVALID_CERT, EXIT_OK, main as cli_main

SEL = Selector()
MU2 = (0.5, 0.5)
MU3 = (1 / 3, 1 / 3, 1 / 3)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_interior_prior(rng, n):
    return Belief(0.8 * rng.dirichlet(np.ones(n) * 2.0) + 0.2 / n)


class TestCriterion1BayesSoundness:
    def test_bayes_is_never_accused(self):
        rng = np.random.default_rng(101)
        t0 = time.time()
        certificates = 0
        convexity_hits = 0
        for n in (2, 3, 4):
            rule = BayesRule(n)
            for _ in range(5):
                prior = random_interior_prior(rng, n)
                seed = int(rng.integers(1 << 30))
                rep = audit(rule, prior, grid_size=201, budget=5000, seed=seed)
                certificates += rep.certificate is not None
                certificates += adversary(rule, prior.coords, 5000, SEL, seed=seed) is not None
                assert rep.error_census["expansive"] == 0
                assert rep.error_census["contractive"] == 0
                assert rep.budget_used == 0  # accepted by the checker: no search in the audit
                for _ in range(20):
                    payoff = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 7)), n))
                    problem = DecisionProblem(payoff)
                    hits = convexity_violations(
                        problem, rule, prior, SEL, WelfareMode.SINGLE,
                        grid_size=201, tol=1e-9, seed=int(rng.integers(1 << 30)), n_pairs=600,
                    )
                    convexity_hits += len(hits)
        elapsed = time.time() - t0
        ok = certificates == 0 and convexity_hits == 0 and elapsed <= 60.0
        _report(
            1, ok,
            f"audit(Bayes) and 5000 random-search trials, n=2,3,4 x5 priors: {certificates} certificates, "
            f"{convexity_hits} convexity violations, {elapsed:.1f}s (limit 60s)",
        )


class TestCriterion2TwoStateSufficiency:
    def test_interval_rule_welfare_shape(self):
        rule = CoarseRule(0.3, 0.7, 0.2, 0.8)
        problem = quadratic_loss_problem()
        xs = np.arange(1001) / 1000.0
        grid = np.column_stack([xs, 1.0 - xs])
        w = welfare_batch(problem, rule, MU2, SEL, WelfareMode.SINGLE, grid)

        def action_line(anchor):
            idx = _select_batch(problem, SEL, np.array([[anchor, 1.0 - anchor]]))[0]
            row = problem.payoff[idx]
            return lambda x: row[0] * x + row[1] * (1.0 - x)

        pieces = {
            "low-vertex": action_line(0.2),
            "low": action_line(0.3),
            "high": action_line(0.7),
            "high-vertex": action_line(0.8),
        }
        worst = 0.0
        for x, wx in zip(xs, w):
            if x == 0.0:
                expect = pieces["low-vertex"](x)
            elif x < 0.3:
                expect = pieces["low"](x)
            elif x <= 0.7:
                expect = value_function(problem, (x, 1.0 - x)).payoff
            elif x < 1.0:
                expect = pieces["high"](x)
            else:
                expect = pieces["high-vertex"](x)
            worst = max(worst, abs(wx - expect))
        shape_ok = worst <= 1e-9

        hits = convexity_violations(
            problem, rule, MU2, SEL, WelfareMode.SINGLE, grid_size=1000, tol=1e-9
        )
        rep = audit(rule, MU2, grid_size=201, budget=5000, seed=2)
        # The checker accepts the rule, so the audit spends nothing; the adversary runs apart.
        searched = adversary(rule, MU2, 5000, SEL, seed=2)
        ok = shape_ok and not hits and rep.verdict == "pass" and rep.budget_used == 0 and searched is None
        _report(
            2, ok,
            f"five-piece welfare match (worst dev {worst:.2e} <= 1e-9), "
            f"{len(hits)} convexity violations, audit {rep.verdict}, "
            f"5000 random-search trials {'certify' if searched else 'pass'}",
        )


def _random_threshold_problem(rng, n):
    point = rng.dirichlet(np.ones(n))
    normal = rng.normal(size=n)
    normal -= normal.mean()
    normal /= np.max(np.abs(normal))
    return hyperplane_problem(Hyperplane(normal, float(normal @ point)))


def _vertex_revealing_experiment(rng, n):
    """A random experiment whose first signal only state i sends, so one posterior is vertex i."""
    i = int(rng.integers(n))
    k = int(rng.integers(2, 6))
    q = float(rng.uniform(0.1, 0.9))
    rest = rng.dirichlet(np.ones(k - 1), size=n)
    rest[i] *= 1.0 - q
    return Experiment(np.column_stack([np.eye(n)[i] * q, rest]))


class TestCriterion3ThreeStateSufficiency:
    def test_reference_collapse_rules_survive_sweeps(self):
        t0 = time.time()
        rng = np.random.default_rng(103)
        rules = {"trivial-on-edges": stubborn_example_a(), "split-edge": stubborn_example_b()}
        checker_ok = all(
            is_occasionally_stubborn(rule, MU3).ok for rule in rules.values()
        )

        def gap(rule, pi, pi_p, problem):
            return expected_payoff(problem, rule, MU3, SEL, WelfareMode.SINGLE, bayes(MU3, pi)) - \
                expected_payoff(problem, rule, MU3, SEL, WelfareMode.SINGLE, bayes(MU3, pi_p))

        worst_gap = 0.0
        for rule in rules.values():
            for _ in range(500):
                k = int(rng.integers(2, 6))
                pi = Experiment(rng.dirichlet(np.ones(k), size=3))
                m = GarblingMatrix(rng.dirichlet(np.ones(int(rng.integers(1, k + 1))), size=k))
                worst_gap = min(worst_gap, gap(rule, pi, garble(pi, m), _random_threshold_problem(rng, 3)))
        # Dirichlet likelihoods never put a posterior on a vertex; these pairs do.
        for rule in rules.values():
            for _ in range(300):
                pi = _vertex_revealing_experiment(rng, 3)
                k = pi.n_signals
                m = GarblingMatrix(rng.dirichlet(np.ones(int(rng.integers(1, k + 1))), size=k))
                worst_gap = min(worst_gap, gap(rule, pi, garble(pi, m), _random_threshold_problem(rng, 3)))
        elapsed = time.time() - t0
        ok = checker_ok and worst_gap >= -1e-6 and elapsed <= 120.0
        _report(
            3, ok,
            f"both reference rules pass the structure check, worst sweep gap "
            f"{worst_gap:.2e} over 2x500 contraction pairs and 2x300 vertex-revealing pairs, "
            f"{elapsed:.1f}s (limit 120s)",
        )


def _grether_oracle_two_states(tol=1e-6):
    """Hand-rolled search for a negative-gap pair, independent of the library.

    Binary experiments on a 101x101 likelihood grid at the fifty-fifty
    prior, two-action threshold problems on a 101-point cutoff grid, and
    the over-reaction map phi(x) = x^2 / (x^2 + (1-x)^2) written out
    directly.  Dominance between binary experiments at a fixed prior is
    interval nesting of the posterior supports.
    """
    steps = np.arange(101) / 100.0
    A, B = np.meshgrid(steps, steps, indexing="ij")
    a, b = A.ravel(), B.ravel()
    s1 = 0.5 * (a + b)
    s2 = 1.0 - s1
    good = (s1 > 1e-9) & (s2 > 1e-9)
    a, b, s1, s2 = a[good], b[good], s1[good], s2[good]
    x_hi_raw = 0.5 * a / s1
    x_lo_raw = 0.5 * (1.0 - a) / s2
    x_hi = np.maximum(x_hi_raw, x_lo_raw)
    x_lo = np.minimum(x_hi_raw, x_lo_raw)
    p_hi = np.where(x_hi_raw >= x_lo_raw, s1, s2)
    p_lo = 1.0 - p_hi

    def phi(x):
        return x**2 / (x**2 + (1.0 - x) ** 2)

    f_hi, f_lo = phi(x_hi), phi(x_lo)
    for c in steps:
        contrib_hi = np.where(f_hi > c, x_hi - c, 0.0)
        contrib_lo = np.where(f_lo > c, x_lo - c, 0.0)
        E = p_hi * contrib_hi + p_lo * contrib_lo
        for lo in range(0, E.size, 512):
            hi = min(lo + 512, E.size)
            nested = (
                (x_lo[lo:hi, None] <= x_lo[None, :])
                & (x_hi[lo:hi, None] >= x_hi[None, :])
            )
            gaps = E[lo:hi, None] - E[None, :]
            bad = nested & (gaps < -tol)
            if np.any(bad):
                i_off, j = np.argwhere(bad)[0]
                return float(gaps[i_off, j]), float(c)
    return None, None


class TestCriterion4ExpansiveNecessity:
    def test_overreaction_rule_fails_with_oracle_agreement(self):
        rep2 = audit(GretherRule(2.0, 1.0, 2), MU2, grid_size=201, budget=5000, seed=4)
        ok2 = (
            rep2.verdict == "violation"
            and rep2.certificate.gap <= -1e-6
            and verify_certificate(rep2.certificate)[0]
        )
        rep3 = audit(GretherRule(2.0, 1.0, 3), MU3, grid_size=101, budget=5000, seed=4)
        ok3 = (
            rep3.verdict == "violation"
            and rep3.certificate.gap <= -1e-6
            and verify_certificate(rep3.certificate)[0]
        )
        oracle_gap, oracle_cutoff = _grether_oracle_two_states()
        oracle_ok = oracle_gap is not None and oracle_gap < 0 and rep2.certificate.gap < 0
        _report(
            4, ok2 and ok3 and oracle_ok,
            f"certificates: n=2 gap {rep2.certificate.gap:.2e} ({rep2.certificate.recipe}), "
            f"n=3 gap {rep3.certificate.gap:.2e} ({rep3.certificate.recipe}); "
            f"grid oracle agrees on sign (gap {oracle_gap:.2e} at cutoff {oracle_cutoff})",
        )


class TestCriterion5ContractiveNecessity:
    def test_conservative_rule_fails_once_but_not_twice(self):
        rep2 = audit(ShrinkageRule(0.5, 2), MU2, grid_size=201, budget=5000, seed=5)
        ok2 = (
            rep2.verdict == "violation"
            and rep2.certificate.recipe in ("lemma3-threshold", "lemma3-ternary")
            and verify_certificate(rep2.certificate)[0]
        )
        rep3 = audit(ShrinkageRule(0.5, 3), MU3, grid_size=101, budget=5000, seed=5)
        ok3 = (
            rep3.verdict == "violation"
            and rep3.certificate.recipe == "contagion1-separation"
            and verify_certificate(rep3.certificate)[0]
        )
        rng = np.random.default_rng(105)
        double_hits = 0
        for n, mu in ((2, MU2), (3, MU3)):
            rule = ShrinkageRule(0.5, n)
            for _ in range(50):
                problem = DecisionProblem(rng.uniform(-1, 1, size=(int(rng.integers(2, 6)), n)))
                double_hits += len(
                    convexity_violations(
                        problem, rule, mu, SEL, WelfareMode.DOUBLE,
                        grid_size=100, tol=1e-9, seed=int(rng.integers(1 << 30)), n_pairs=400,
                    )
                )
        affine_ok = all(is_affine(affine_chords(ShrinkageRule(0.5, n), mu, 21)) for n, mu in ((2, MU2), (3, MU3)))
        ok = ok2 and ok3 and double_hits == 0 and affine_ok
        _report(
            5, ok,
            f"single-mistake certificates via {rep2.certificate.recipe} / {rep3.certificate.recipe}; "
            f"{double_hits} double-mistake convexity violations over 100 problems; affine check passes",
        )


class TestCriterion6CheckerAuditorAlignment:
    def test_fifty_rules_per_family(self):
        rng = np.random.default_rng(106)
        disagreements = []
        counts = {}
        for family in ("occ-coarse", "occ-stubborn", "grether", "shrinkage", "trivial"):
            for k in range(50):
                if family == "occ-coarse":
                    n = 2
                elif family == "occ-stubborn":
                    n = 3 if k % 2 == 0 else 4
                else:
                    n = 2 + k % 2
                rule = random_rule(family, n, rng)
                mu = uniform_belief(n)
                if n == 2:
                    refuted = not is_occasionally_coarse(rule, mu, grid_size=150, tol=1e-9).ok
                else:
                    refuted = not is_occasionally_stubborn(rule, mu, tol=1e-9).ok
                seed = int(rng.integers(1 << 30))
                rep = audit(rule, mu, grid_size=101 if n == 2 else 41, budget=250, seed=seed)
                found = rep.verdict == "violation"
                if not refuted and adversary(rule, mu.coords, 250, SEL, seed=seed) is not None:
                    disagreements.append((family, n, k, refuted, "random-search"))
                counts[family] = counts.get(family, 0) + int(found)
                if found != refuted:
                    disagreements.append((family, n, k, refuted, found))
        ok = not disagreements
        _report(
            6, ok,
            f"250 rules audited, certificate counts by family {counts}, "
            f"{len(disagreements)} disagreements" + (f": {disagreements[:3]}" if disagreements else ""),
        )


class TestCriterion7OracleEquivalence:
    def test_garbling_feasibility_matches_contraction_test(self):
        rng = np.random.default_rng(107)
        mismatches = 0
        for trial in range(200):
            n = 2 + trial % 2
            mu = random_interior_prior(rng, n)
            pi = Experiment(rng.dirichlet(np.ones(int(rng.integers(2, 5))), size=n))
            m = GarblingMatrix(
                rng.dirichlet(np.ones(int(rng.integers(1, 4))), size=pi.n_signals)
            )
            pi_p = garble(pi, m)
            rho = bayes(mu, pi)
            rho_p = bayes(mu, pi_p)
            if blackwell_dominates(pi, pi_p) != is_mpc(rho_p, rho, tol=1e-8):
                mismatches += 1
            if blackwell_dominates(pi_p, pi) != is_mpc(rho, rho_p, tol=1e-8):
                mismatches += 1
        _report(7, mismatches == 0, f"400 comparisons across 200 random triples, {mismatches} mismatches")


class TestCriterion8DeterminismAndPortability:
    def test_certificates_reproduce_and_tampering_is_rejected(self, tmp_path):
        rule_arg = "grether(2,1)"
        args = [
            "audit", "--states", "3", "--prior", "uniform", "--rule", rule_arg,
            "--grid", "61", "--budget", "400", "--seed", "11",
        ]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        code1 = cli_main(args + ["--out", str(out1)])
        code2 = cli_main(args + ["--out", str(out2)])
        cert1 = tmp_path / "r1.certificate.json"
        cert2 = tmp_path / "r2.certificate.json"
        identical = cert1.read_bytes() == cert2.read_bytes() and out1.read_bytes() == out2.read_bytes()

        accepted = cli_main(["verify", str(cert1)]) == EXIT_OK

        doc = json.loads(cert1.read_text())
        tampered = []
        swapped = dict(doc)
        swapped["pi"], swapped["pi_prime"] = doc["pi_prime"], doc["pi"]
        forged = dict(doc)
        forged["gap"] = -1.0
        perturbed = json.loads(cert1.read_text())
        perturbed["problem"]["payoff"][1][0] += 0.05
        for name, bad in (("swapped", swapped), ("forged", forged), ("perturbed", perturbed)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(bad))
            tampered.append(cli_main(["verify", str(path)]) == EXIT_INVALID_CERT)

        ok = code1 == code2 == 3 and identical and accepted and all(tampered)
        _report(
            8, ok,
            f"fixed seed reproduces byte-identical certificates ({identical}); "
            f"verifier accepts the emitted certificate and rejects all 3 tamperings",
        )
