"""Auditor: recipe constructions, certificates, verification, determinism."""

import json
from typing import Optional

import numpy as np
import pytest

from blackwell_audit import auditor
from blackwell_audit.geometry import (
    Belief,
    Hyperplane,
    NoStrictSeparation,
    in_convex_hull,
    separating_hyperplane,
    separating_hyperplane_sets,
    simplex_lattice,
)
from blackwell_audit.experiments import (
    BarycenterMismatch,
    Experiment,
    GarblingMatrix,
    InfeasibleWeights,
    NotAffinelyIndependent,
    PosteriorDistribution,
    TargetOutsideOppositeHull,
    bayes,
    bring_point_in,
    experiment_from_posteriors,
    garble,
)
from blackwell_audit.decision import TIE_TOL, Selector, SelectorPolicy, WelfareMode, expected_payoff, value_function
from blackwell_audit.distortions import (
    BayesRule,
    CoarseRule,
    Distortion,
    GretherRule,
    GridMiss,
    ShrinkageRule,
    TabulatedRule,
    TrivialRule,
    classify_batch,
    evaluate_batch,
    random_rule,
    stubborn_example_a,
    stubborn_example_b,
)
from blackwell_audit.auditor import (
    GAP_TOL,
    SEP_MARGIN,
    AuditReport,
    BudgetExhausted,
    ViolationCertificate,
    _Budget,
    _SCREEN_SLACK,
    _audit_contractive_many_states,
    _audit_contractive_two_state,
    _audit_expansive,
    _audit_prior_error,
    _block_posteriors,
    _block_trial,
    _draw_block,
    _gap_cut,
    _plausible,
    _random_search,
    _scaffold,
    _screen,
    _simplex_vertices,
    _tangent_basis,
    _threshold_problem,
    _try_pair,
    _vertex_pulled_scaffold,
    audit,
    audit_contractive,
    audit_expansive,
    hyperplane_problem,
    verify_certificate,
)

MU2 = (0.5, 0.5)
MU3 = (1 / 3, 1 / 3, 1 / 3)


class TestHyperplaneProblem:
    def test_two_state_payoffs(self):
        p = hyperplane_problem(Hyperplane((1, 0), 0.5))
        assert np.allclose(p.payoff, [[0.0, 0.0], [0.5, -0.5]])

    def test_kink_has_both_actions_optimal(self):
        h = Hyperplane((1, 0, 0), 0.4)
        p = hyperplane_problem(h)
        res = value_function(p, (0.4, 0.3, 0.3))
        assert set(res.argmax) == {0, 1}

    def test_value_is_signed_evaluation(self):
        p = hyperplane_problem(Hyperplane((1, 0, 0), 0.4))
        assert value_function(p, (0.7, 0.2, 0.1)).payoff == pytest.approx(0.3)


class TestAuditExpansive:
    def test_grether_two_states(self):
        cert = audit_expansive(GretherRule(2.0, 1.0, 2), MU2, (0.7, 0.3), budget=100)
        assert cert.recipe == "claim1-hyperplane"
        assert cert.gap <= -1e-6
        ok, reason = verify_certificate(cert)
        assert ok, reason

    def test_grether_three_states(self):
        cert = audit_expansive(GretherRule(2.0, 1.0, 3), MU3, (0.6, 0.2, 0.2), budget=100)
        assert cert.gap <= -1e-6
        assert verify_certificate(cert)[0]

    def test_collapse_rule_exhausts_budget(self):
        rule = stubborn_example_a()
        with pytest.raises(BudgetExhausted):
            audit_expansive(rule, MU3, (0.25, 0.4, 0.35), budget=60)

    def test_rejects_non_expansive_point(self):
        with pytest.raises(ValueError):
            audit_expansive(GretherRule(2.0, 1.0, 2), MU2, (0.5, 0.5), budget=10)


class TestAuditContractive:
    def test_shrinkage_two_states(self):
        cert = audit_contractive(ShrinkageRule(0.5, 2), MU2, (0.9, 0.1), budget=100)
        assert cert.recipe in ("lemma3-threshold", "lemma3-ternary")
        assert cert.gap <= -1e-6
        assert verify_certificate(cert)[0]

    def test_shrinkage_three_states(self):
        cert = audit_contractive(ShrinkageRule(0.5, 3), MU3, (0.6, 0.3, 0.1), budget=100)
        assert cert.recipe == "contagion1-separation"
        assert cert.gap <= -1e-6
        assert verify_certificate(cert)[0]

    def test_mirrored_side(self):
        cert = audit_contractive(ShrinkageRule(0.5, 2), MU2, (0.1, 0.9), budget=100)
        assert cert.gap <= -1e-6

    def test_surviving_fixed_point_family(self):
        # Identity up to 0.6, frozen at 0.6 beyond: the shape the
        # contraction recipes cannot (and must not) refute.
        rule = CoarseRule(0.0, 0.6, 0.0, 0.6)
        with pytest.raises(BudgetExhausted):
            audit_contractive(rule, MU2, (0.8, 0.2), budget=60)

    def test_rejects_non_contractive_point(self):
        with pytest.raises(ValueError):
            audit_contractive(BayesRule(2), MU2, (0.7, 0.3), budget=10)


class TestFullAudit:
    def test_bayes_passes_with_empty_census(self):
        rep = audit(BayesRule(3), MU3, grid_size=41, budget=300, seed=1)
        assert rep.verdict == "pass"
        assert rep.error_census["expansive"] == 0
        assert rep.error_census["contractive"] == 0
        assert rep.certificate is None

    @pytest.mark.parametrize("policy", [SelectorPolicy.LEX_FIRST, SelectorPolicy.LEX_LAST])
    def test_bayes_passes_whatever_the_tie_tolerance(self, policy):
        # Any action within tie_tol of the best may be taken, so a gap of
        # -tie_tol is no violation; random search must not accuse Bayes.
        sel = Selector(policy, tie_tol=0.05)
        for n in (2, 3):
            for seed in range(6):
                mu = np.random.default_rng(seed).dirichlet(np.full(n, 4.0))
                rep = audit(BayesRule(n), mu, grid_size=41, budget=300, seed=seed, sel=sel)
                assert rep.verdict == "pass", (n, seed)

    def test_grether_three_states_violates(self):
        # Continuous, non-trivial, non-Bayesian: must fail at any interior prior.
        rep = audit(GretherRule(2.0, 1.0, 3), MU3, grid_size=61, budget=500, seed=1)
        assert rep.verdict == "violation"
        assert verify_certificate(rep.certificate)[0]
        assert not rep.checker_verdicts["occasionally_stubborn"]["ok"]

    def test_coarse_rule_passes_and_checker_confirms(self):
        rep = audit(CoarseRule(0.3, 0.7, 0.2, 0.8), MU2, grid_size=101, budget=300, seed=1)
        assert rep.verdict == "pass"
        cv = rep.checker_verdicts["occasionally_coarse"]
        assert cv["ok"] and cv["a"] == pytest.approx(0.3) and cv["b"] == pytest.approx(0.7)

    def test_split_edge_rule_passes(self):
        rep = audit(stubborn_example_b(), MU3, grid_size=41, budget=300, seed=1)
        assert rep.verdict == "pass"
        assert rep.checker_verdicts["occasionally_stubborn"]["ok"]

    def test_trivial_rule_passes(self):
        rep = audit(TrivialRule((0.5, 0.2, 0.3)), MU3, grid_size=41, budget=300, seed=1)
        assert rep.verdict == "pass"
        assert rep.checker_verdicts["trivial_on_interior"]

    def test_tabulated_rule_queried_off_its_nodes_raises(self):
        # Identity on the 11-level lattice; the checkers' face samples fall off its nodes.
        nodes = simplex_lattice(3, 11)
        with pytest.raises(GridMiss):
            audit(TabulatedRule(nodes, nodes, tol=1e-9), MU3, grid_size=11)

    def test_misread_prior_is_caught(self):
        # Identity except the prior itself drifts: the two-stage
        # contraction recipe must produce a certificate.
        class PriorDrift(BayesRule):
            def apply_batch(self, mu, X):
                out = super().apply_batch(mu, X)
                mua = np.asarray(mu, dtype=np.float64)
                at_prior = np.max(np.abs(np.asarray(X) - mua), axis=-1) < 1e-9
                out[at_prior] = [0.6, 0.2, 0.2]
                return out

        rep = audit(PriorDrift(3), MU3, grid_size=31, budget=300, seed=1)
        assert rep.verdict == "violation"
        assert rep.certificate.recipe == "degenerate-prior"
        assert verify_certificate(rep.certificate)[0]

    def test_illegal_vertex_image_is_caught(self):
        # Collapse rule whose vertex image strays off the segment toward
        # the collapse point: a violation must surface (whichever recipe
        # gets there first).
        class BadVertex(TrivialRule):
            def apply_batch(self, mu, X):
                out = super().apply_batch(mu, X)
                X = np.asarray(X, dtype=np.float64)
                vertex0 = np.abs(X[..., 1] - 1.0) < 1e-12
                out[vertex0] = [0.5, 0.1, 0.4]
                return out

        rule = BadVertex((0.2, 0.4, 0.4))
        rep = audit(rule, MU3, grid_size=31, budget=400, seed=1)
        assert rep.verdict == "violation"
        assert verify_certificate(rep.certificate)[0]

    def test_vertex_construction_directly(self):
        # The reference trivial-on-edges rule carries vertex images that
        # are more extreme than the collapse point but off its segment;
        # the dedicated vertex construction turns that into a certificate.
        from blackwell_audit.auditor import _Budget, _vertex_condition_certificate

        rule = stubborn_example_a()
        star = np.array([0.2, 1 / 3, 1 - 0.2 - 1 / 3])
        cert = _vertex_condition_certificate(
            rule, np.asarray(MU3), star, _Budget(50), Selector(), WelfareMode.SINGLE, 1e-9, 0
        )
        assert cert is not None
        assert cert.recipe == "vertexprop-separation"
        assert verify_certificate(cert)[0]


class TestVerifyCertificate:
    @pytest.fixture()
    def cert(self):
        return audit_expansive(GretherRule(2.0, 1.0, 2), MU2, (0.7, 0.3), budget=100)

    def test_emitted_certificates_verify(self, cert):
        assert verify_certificate(cert) == (True, None)

    def test_swapped_experiments_fail_dominance(self, cert):
        swapped = ViolationCertificate(
            prior=cert.prior, rule=cert.rule, pi=cert.pi_prime, pi_prime=cert.pi,
            problem=cert.problem, selector=cert.selector, mode=cert.mode,
            gap=cert.gap, recipe=cert.recipe, seed=cert.seed,
        )
        ok, reason = verify_certificate(swapped)
        assert not ok and reason == "dominance"

    def test_forged_gap_detected(self, cert):
        forged = ViolationCertificate(
            prior=cert.prior, rule=cert.rule, pi=cert.pi, pi_prime=cert.pi_prime,
            problem=cert.problem, selector=cert.selector, mode=cert.mode,
            gap=-1.0, recipe=cert.recipe, seed=cert.seed,
        )
        ok, reason = verify_certificate(forged)
        assert not ok and reason == "gap-mismatch"

    def test_gap_within_tie_tolerance_is_no_violation(self):
        # Lex-last acts on any score >= -tie_tol, so Bayes can lose up to
        # tie_tol by splitting the prior across that threshold: act scores
        # -0.049 and -0.071 against -0.06 at the prior give a gap of -0.0245.
        mu = np.array([0.5, 0.5])
        split = PosteriorDistribution([[0.5055, 0.4945], [0.4945, 0.5055]], [0.5, 0.5])
        pi, pi_p = experiment_from_posteriors(split, mu), Experiment(np.ones((2, 1)))
        problem = hyperplane_problem(Hyperplane((1.0, -1.0), 0.06))
        sel = Selector(SelectorPolicy.LEX_LAST, tie_tol=0.05)
        gap = expected_payoff(problem, BayesRule(2), mu, sel, WelfareMode.SINGLE, bayes(mu, pi)) - expected_payoff(
            problem, BayesRule(2), mu, sel, WelfareMode.SINGLE, bayes(mu, pi_p)
        )
        assert -0.05 < gap < -GAP_TOL
        cert = ViolationCertificate(
            prior=Belief(mu), rule=BayesRule(2), pi=pi, pi_prime=pi_p, problem=problem,
            selector=sel, mode=WelfareMode.SINGLE, gap=gap, recipe="random-search",
        )
        assert verify_certificate(cert) == (False, "gap-too-small")

    def test_json_round_trip_verifies(self, cert):
        back = ViolationCertificate.from_json(json.loads(cert.dumps()))
        assert verify_certificate(back)[0]
        assert back.dumps() == cert.dumps()


class TestDeterminism:
    def test_same_seed_same_certificate_bytes(self):
        a = audit(GretherRule(2.0, 1.0, 3), MU3, grid_size=41, budget=300, seed=7)
        b = audit(GretherRule(2.0, 1.0, 3), MU3, grid_size=41, budget=300, seed=7)
        assert a.certificate is not None
        assert a.certificate.dumps() == b.certificate.dumps()
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)

    def test_random_search_respects_seed(self):
        # A rule only the randomized fallback can catch here: welfare jump
        # far from the coarse grid's dispatch points.
        rule = ShrinkageRule(0.5, 2)
        a = audit(rule, MU2, grid_size=101, budget=400, seed=3)
        b = audit(rule, MU2, grid_size=101, budget=400, seed=3)
        assert a.verdict == b.verdict == "violation"
        assert a.certificate.dumps() == b.certificate.dumps()


def _reference_random_search(d, mu, budget, sel, mode, seed):
    """The one-trial-at-a-time random search that block screening replaced."""
    n = mu.shape[0]
    rng = np.random.default_rng(seed)
    while budget.remaining > 0:
        budget.charge()
        k = int(rng.integers(2, 5))
        lik = rng.dirichlet(np.ones(k), size=n)
        kp = int(rng.integers(1, k + 1))
        channel = rng.dirichlet(np.ones(kp), size=k)
        lik_p = lik @ channel
        point = rng.dirichlet(np.ones(n))
        normal = rng.normal(size=n)
        normal -= normal.mean()
        scale = float(np.max(np.abs(normal)))
        if scale < 1e-9:
            continue
        normal /= scale
        problem = hyperplane_problem(Hyperplane(normal, float(normal @ point)))
        try:
            gap = expected_payoff(problem, d, mu, sel, mode, bayes(mu, Experiment(lik))) - expected_payoff(
                problem, d, mu, sel, mode, bayes(mu, Experiment(lik_p))
            )
        except (ValueError, BarycenterMismatch):
            continue
        if gap > -GAP_TOL:
            continue
        pi = Experiment(lik)
        pi_p = garble(pi, GarblingMatrix(channel))
        gap = expected_payoff(problem, d, mu, sel, mode, bayes(mu, pi)) - expected_payoff(
            problem, d, mu, sel, mode, bayes(mu, pi_p)
        )
        if gap > -GAP_TOL:
            continue
        cert = ViolationCertificate(
            prior=Belief(mu), rule=d, pi=pi, pi_prime=pi_p, problem=problem,
            selector=sel, mode=mode, gap=float(gap), recipe="random-search", seed=seed,
        )
        ok, _ = verify_certificate(cert)
        if ok:
            return cert
    return None


class TestRandomSearchBlocks:
    # Harmful families twice per cycle, so that enough cases end in a certificate.
    FAMILIES = (
        "grether", "shrinkage", "occ-coarse", "occ-stubborn",
        "grether", "shrinkage", "trivial", "bayes",
    )
    # 1, then ends inside the first, second, fourth and fifth block (8, 16, 32, 64, 128).
    BUDGETS = (1, 5, 19, 70, 150)

    @staticmethod
    def _case(i):
        rng = np.random.default_rng(5000 + i)
        family = TestRandomSearchBlocks.FAMILIES[i % 8]
        n = 2 if family == "occ-coarse" else int(rng.integers(3, 5)) if family == "occ-stubborn" else int(rng.integers(2, 5))
        rule = BayesRule(n) if family == "bayes" else random_rule(family, n, rng)
        mu = rng.dirichlet(np.full(n, 4.0))
        mode = (WelfareMode.SINGLE, WelfareMode.DOUBLE)[int(rng.integers(2))]
        kind = int(rng.integers(3))
        tie_tol = (TIE_TOL, 0.05)[int(rng.integers(2))]
        if kind == 0:
            sel = Selector(tie_tol=tie_tol)
        elif kind == 1:
            sel = Selector(SelectorPolicy.LEX_LAST, tie_tol=tie_tol)
        else:
            sel = Selector(SelectorPolicy.PINNED, pins=((tuple(rng.dirichlet(np.ones(n))), 1),))
        budget = TestRandomSearchBlocks.BUDGETS[int(rng.integers(len(TestRandomSearchBlocks.BUDGETS)))]
        if kind == 2:
            budget = min(budget, 19)  # pinned selectors score every trial one at a time
        return rule, mu, sel, mode, budget, int(rng.integers(1 << 30))

    def test_matches_one_trial_at_a_time(self):
        # 750 cases keep at least 100 certificates now that gaps within tie_tol are refused.
        certs = 0
        for i in range(750):
            rule, mu, sel, mode, budget, seed = self._case(i)
            want_budget, got_budget = _Budget(budget), _Budget(budget)
            want = _reference_random_search(rule, mu, want_budget, sel, mode, seed)
            got = _random_search(rule, mu, got_budget, sel, mode, seed)
            case = (i, rule.family, mode.value, sel.policy.value, budget)
            assert (got is None) == (want is None), case
            if want is not None:
                certs += 1
                assert got.dumps() == want.dumps(), case
            assert got_budget.used == want_budget.used, case
        assert certs >= 100


    def test_block_draws_and_posteriors_are_bitwise_the_per_trial_ones(self):
        for n in (2, 3, 4, 5):
            mu = np.random.default_rng(n).dirichlet(np.full(n, 4.0))
            block = _draw_block(np.random.default_rng(100 + n), n, 200)
            stream = np.random.default_rng(100 + n)
            M, X = _block_posteriors(mu, block)
            for t in range(200):
                lik, channel, point, z = _block_trial(block, t)
                # Replay the one-trial-at-a-time draws.
                k = int(stream.integers(2, 5))
                assert np.array_equal(lik, stream.dirichlet(np.ones(k), size=n))
                kp = int(stream.integers(1, k + 1))
                assert np.array_equal(channel, stream.dirichlet(np.ones(kp), size=k))
                assert np.array_equal(point, stream.dirichlet(np.ones(n)))
                assert np.array_equal(z, stream.normal(size=n))
                pi = Experiment(lik)
                pi_p = garble(pi, GarblingMatrix(channel))
                for slots, L in ((slice(0, 4), pi.likelihoods), (slice(4, 8), pi_p.likelihoods)):
                    m = mu @ L
                    assert np.array_equal(M[t, slots], np.pad(m, (0, 4 - m.size)))
                    assert np.array_equal(X[t, slots][: m.size], ((mu[:, None] * L) / m[None, :]).T)


class TestRandomSearchScreen:
    """The block screen flags every trial near one of its cuts.

    Random trials almost never land there, so these trials are built by
    hand: two states, prior (1/2, 1/2), normal (1, -1), and a point p0
    that sets the offset 2 p0 - 1, so the act score at x is x0 - x1 - offset.
    """

    MU = np.array([0.5, 0.5])
    Z = np.array([1.0, -1.0])

    def _flagged(self, rule, sel, mode, lik, channel, p0):
        block = ([([0], lik[None], channel[None])], np.array([[p0, 1.0 - p0]]), self.Z[None, :])
        return bool(_screen(rule, self.MU, sel, mode, block)[0])

    def test_act_score_near_tie_threshold(self):
        # Signal 0's posterior x = (7/9, 2/9); pi' is uninformative.
        lik, channel = np.array([[0.7, 0.3], [0.2, 0.8]]), np.ones((2, 1))
        x = self.MU * lik[:, 0] / (self.MU @ lik[:, 0])
        cases = ((Selector(), TIE_TOL), (Selector(SelectorPolicy.LEX_LAST), -TIE_TOL), (Selector(tie_tol=0.05), 0.05))
        for sel, cut in cases:
            for delta, flagged in ((-0.5 * _SCREEN_SLACK, True), (0.5 * _SCREEN_SLACK, True), (-1e-3, False), (1e-3, False)):
                offset = x[0] - x[1] - (cut + delta)
                p0 = (1.0 + offset) / 2.0
                assert self._flagged(BayesRule(2), sel, WelfareMode.SINGLE, lik, channel, p0) == flagged, (sel, delta)

    def test_gap_just_above_the_cut(self):
        rule = GretherRule(2.0, 1.0, 2)
        lik = np.array([[0.62, 0.38], [0.06, 0.94]])
        channel = np.array([[0.54, 0.46], [0.47, 0.53]])

        pi = Experiment(lik)
        pi_p = garble(pi, GarblingMatrix(channel))

        def gap(p0):  # the emission step's exact gap; continuous in p0, and free of the selector, in DOUBLE mode
            problem = hyperplane_problem(Hyperplane(self.Z, float(self.Z @ [p0, 1.0 - p0])))
            return expected_payoff(problem, rule, self.MU, Selector(), WelfareMode.DOUBLE, bayes(self.MU, pi)) - expected_payoff(
                problem, rule, self.MU, Selector(), WelfareMode.DOUBLE, bayes(self.MU, pi_p)
            )

        for sel in (Selector(), Selector(tie_tol=0.05)):
            cut = _gap_cut(sel)
            lo, hi = 0.08, 0.98
            assert gap(lo) < cut < gap(hi)
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if gap(mid) < cut + 0.5 * _SCREEN_SLACK else (lo, mid)
            assert cut < gap(hi) < cut + _SCREEN_SLACK
            assert self._flagged(rule, sel, WelfareMode.DOUBLE, lik, channel, hi)
            assert not self._flagged(rule, sel, WelfareMode.DOUBLE, lik, channel, 0.98)
        # A gap the tie tolerance explains (about -0.025 here) is no candidate.
        assert cut + 1e-3 < gap(0.228) < -GAP_TOL
        assert not self._flagged(rule, sel, WelfareMode.DOUBLE, lik, channel, 0.228)

    def test_posteriors_bayes_could_merge(self):
        # Signals 0 and 1 of pi give the same posterior; pi' is uninformative.
        lik, channel = np.array([[0.3, 0.3, 0.4], [0.1, 0.1, 0.8]]), np.ones((3, 1))
        assert self._flagged(BayesRule(2), Selector(), WelfareMode.DOUBLE, lik, channel, 0.3)
        lik[0, :2] = (0.25, 0.35)
        assert not self._flagged(BayesRule(2), Selector(), WelfareMode.DOUBLE, lik, channel, 0.3)


# The recipes as they were when every moved point's weights were solved
# before its image was looked at; kept verbatim as the reference order.


def _moved_point(rho: PosteriorDistribution, x0: np.ndarray, gamma: float, target: np.ndarray):
    """bring_point_in, with the moved point's coordinates returned alongside."""
    moved = gamma * x0 + (1.0 - gamma) * target
    try:
        rho_new = bring_point_in(rho, 0, gamma, target)
    except (InfeasibleWeights, NotAffinelyIndependent, TargetOutsideOppositeHull, ValueError):
        return None, moved
    return rho_new, moved


def _weights_first_expansive(
    d: Distortion,
    mu: np.ndarray,
    x0: np.ndarray,
    budget: _Budget,
    sel: Selector,
    mode: WelfareMode,
    tol: float,
    seed: int,
) -> Optional[ViolationCertificate]:
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
            rho_p, x0p = _moved_point(rho, x0, gamma, target)
            if rho_p is None:
                continue
            img0p = evaluate_batch(d, mu, x0p[None, :])[0]

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

            rho_pp, x0pp = _moved_point(rho, x0, gamma / 2.0, target)
            if rho_pp is None:
                continue
            img0pp = evaluate_batch(d, mu, x0pp[None, :])[0]
            if np.max(np.abs(img0pp - img0p)) <= tol:
                continue  # same destination: consistent with a collapse rule

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



def _weights_first_two_state(
    d: Distortion,
    mu: np.ndarray,
    x0: np.ndarray,
    budget: _Budget,
    sel: Selector,
    mode: WelfareMode,
    tol: float,
    seed: int,
) -> Optional[ViolationCertificate]:
    m = float(mu[0])
    z = float(x0[0])
    direction = 1.0 if z > m else -1.0
    far = 0.0 if direction > 0 else 1.0  # scalar coordinate of the opposite vertex

    def belief(t: float) -> np.ndarray:
        return np.array([t, 1.0 - t])

    def phi(t: float) -> float:
        return float(evaluate_batch(d, mu, belief(t)[None, :])[0][0])

    zhat = phi(z)
    for k in range(1, 9):
        zp = zhat + (z - zhat) * k / 9.0
        zp_hat = phi(zp)
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
        for j in range(1, 6):
            zpp = zp_hat + (zp - zp_hat) * j / 6.0
            zpp_hat = phi(zpp)
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



def _weights_first_many_states(
    d: Distortion,
    mu: np.ndarray,
    x0: np.ndarray,
    budget: _Budget,
    sel: Selector,
    mode: WelfareMode,
    tol: float,
    seed: int,
) -> Optional[ViolationCertificate]:
    img0 = evaluate_batch(d, mu, x0[None, :])[0]
    for pull in (0.25, 0.45):
        rho = _vertex_pulled_scaffold(mu, x0, pull)
        if rho is None:
            continue
        for s in range(1, rho.size):
            xs = rho.support[s]
            for frac in (0.8, 0.6):
                rho_p, x0p = _moved_point(rho, x0, frac, xs)
                if rho_p is None:
                    continue
                img0p = evaluate_batch(d, mu, x0p[None, :])[0]
                if np.max(np.abs(img0p - mu)) <= tol:
                    continue  # edge point mapped to the prior: consistent
                if np.max(np.abs(img0p - img0)) <= tol:
                    continue  # shared destination would sit on both sides
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


class TestImagesBeforeWeights:
    """The recipes look at a moved point's image before solving its weights.

    Every branch the image check skips ended in an uncharged ``continue``
    in the weights-first order above, so each recipe must return the same
    certificate bytes and charge the same budget, or raise the same error.
    """

    FAMILIES = ("bayes", "tabulated", "grether", "shrinkage", "trivial", "occ-coarse", "occ-stubborn")

    @staticmethod
    def _rule(family, n, rng):
        if family == "bayes":
            return BayesRule(n)
        if family == "tabulated":
            # Nearest-node lookup with a sup-norm reach of 1 answers every query.
            nodes = simplex_lattice(n, 7)
            inner = random_rule(("grether", "shrinkage", "occ-coarse" if n == 2 else "occ-stubborn")[int(rng.integers(3))], n, rng)
            return TabulatedRule(nodes, evaluate_batch(inner, np.full(n, 1.0 / n), nodes), tol=1.0)
        if family in ("occ-coarse", "occ-stubborn"):
            family = "occ-coarse" if n == 2 else "occ-stubborn"
        return random_rule(family, n, rng)

    @classmethod
    def _case(cls, i):
        rng = np.random.default_rng(7000 + i)
        family = cls.FAMILIES[i % len(cls.FAMILIES)]
        n = 2 + (i // len(cls.FAMILIES)) % 3
        rule = cls._rule(family, n, rng)
        mu = rng.dirichlet(np.full(n, 4.0))
        tol = (1e-9, 1e-6)[int(rng.integers(2))]
        grid = simplex_lattice(n, 21 if n == 2 else 9)
        kinds, mags = classify_batch(rule, mu, grid, tol)
        # The largest errors of each kind, as the audit dispatches them, plus two lattice points at random.
        picks = [idx[np.argsort(-mags[idx], kind="stable")][:2] for idx in (np.flatnonzero(kinds == 1), np.flatnonzero(kinds == 2))]
        picks.append(rng.choice(grid.shape[0], size=2, replace=False))
        points = grid[np.concatenate(picks)]
        mode = (WelfareMode.SINGLE, WelfareMode.DOUBLE)[int(rng.integers(2))]
        kind = int(rng.integers(3))
        if kind == 0:
            sel = Selector()
        elif kind == 1:
            sel = Selector(SelectorPolicy.LEX_LAST)
        else:
            pin = evaluate_batch(rule, mu, points[:1])[0]
            sel = Selector(SelectorPolicy.PINNED, pins=((tuple(pin), int(rng.integers(2))),))
        budget = (1, 4, 50, 50)[int(rng.integers(4))]  # 50 covers every charge a recipe can make; 1 and 4 can run out
        return rule, mu, points, sel, mode, tol, budget, int(rng.integers(1 << 30))

    @staticmethod
    def _outcome(recipe, rule, mu, x0, budget, sel, mode, tol, seed):
        tracker = _Budget(budget)
        try:
            cert = recipe(rule, mu, x0, tracker, sel, mode, tol, seed)
        except Exception as exc:  # the error's type is part of the outcome
            return type(exc), tracker.used
        return (cert.dumps() if cert is not None else None), tracker.used

    def test_matches_the_weights_first_order(self, monkeypatch):
        failed_solves = []

        def counted(*args, **kwargs):
            try:
                return bring_point_in(*args, **kwargs)
            except Exception:
                failed_solves.append(args)
                raise

        monkeypatch.setattr(auditor, "bring_point_in", counted)
        certs, exhausted, families = 0, 0, set()
        for i in range(84):
            rule, mu, points, sel, mode, tol, budget, seed = self._case(i)
            pairs = [(_audit_expansive, _weights_first_expansive)]
            if mu.shape[0] == 2:
                pairs.append((_audit_contractive_two_state, _weights_first_two_state))
            else:
                pairs.append((_audit_contractive_many_states, _weights_first_many_states))
            for x0 in points:
                for recipe, reference in pairs:
                    got = self._outcome(recipe, rule, mu, x0, budget, sel, mode, tol, seed)
                    want = self._outcome(reference, rule, mu, x0, budget, sel, mode, tol, seed)
                    assert got == want, (i, rule.family, mu.shape[0], recipe.__name__, x0.tolist())
                    certs += isinstance(want[0], str)
                    exhausted += want[0] is BudgetExhausted
                    families.add((rule.family, mu.shape[0]))
        # The mix reaches certificates, spent budgets, weight solves that
        # fail after the images differ, and every family at each state count.
        assert certs >= 50 and exhausted >= 20
        assert len(failed_solves) >= 20
        assert len(families) == 5 * 3 + 3, sorted(families)  # occ-coarse at n = 2, occ-stubborn at n = 3 and 4


class TestCachedBases:
    def test_read_only_and_equal_to_a_fresh_computation(self):
        for n in range(2, 7):
            ones = np.ones((1, n)) / np.sqrt(n)
            u, s, _ = np.linalg.svd(np.eye(n) - ones.T @ ones)
            fresh_basis = u[:, :-1].T if s[-1] < 0.5 else u.T
            centered = np.eye(n) - 1.0 / n
            _, _, vt = np.linalg.svd(centered)
            fresh_vertices = centered @ vt[: n - 1].T
            for cached, fresh in ((_tangent_basis(n), fresh_basis), (_simplex_vertices(n), fresh_vertices)):
                assert cached is not None and cached.tobytes() == fresh.tobytes() and cached.shape == fresh.shape
                with pytest.raises(ValueError):
                    cached[0, 0] = 1.0
