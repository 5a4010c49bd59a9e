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
    separating_hyperplane_sets,
    simplex_lattice,
)
from blackwell_audit.experiments import (
    BarycenterMismatch,
    Experiment,
    GarblingMatrix,
    PosteriorDistribution,
    bayes,
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
    _SCREEN_SLACK,
    _Search,
    _audit_contractive_many_states,
    _audit_contractive_two_state,
    _audit_expansive,
    _audit_prior_error,
    _binary,
    _block_posteriors,
    _block_trial,
    _draw_block,
    _gap_cut,
    _random_search,
    _scaffolds,
    _screen,
    _simplex_vertices,
    _spread_directions,
    _tangent_basis,
    _threshold_problem,
    _vertex_condition_certificate,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prior_is_refused_before_the_census(self, bad):
        with pytest.raises(ValueError, match="full-support prior"):
            audit(BayesRule(3), (bad, 0.5, 0.5), grid_size=11)

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

    def test_collapse_point_falls_back_to_the_prior_image(self, monkeypatch):
        # Constant on the open simplex, the identity on its boundary, except that face
        # {0, 1, 2} reads beliefs with x0 > 1/2 as one point: checker item 1 fails
        # without naming x*, yet the rule is trivial on the interior, so the vertex
        # stage must take x* = phi(mu).
        class InteriorConstant(Distortion):
            n = 4

            def apply_batch(self, mu, X):
                out = X.copy()
                out[np.all(X > 0.0, axis=1)] = (0.1, 0.2, 0.3, 0.4)
                face = np.all(X[:, :3] > 0.0, axis=1) & (X[:, 3] == 0.0) & (X[:, 0] > 0.5)
                out[face] = (0.6, 0.3, 0.1, 0.0)
                return out

        stars = []

        def spy(search, x_star):
            stars.append(np.array(x_star))
            return vertex_stage(search, x_star)

        vertex_stage = auditor._vertex_condition_certificate
        monkeypatch.setattr(auditor, "_vertex_condition_certificate", spy)
        rep = audit(InteriorConstant(), np.full(4, 0.25), grid_size=21, budget=400, seed=1)
        stubborn = rep.checker_verdicts["occasionally_stubborn"]
        assert not stubborn["ok"] and stubborn["x_star"] is None
        assert stubborn["refutation"]["item"] == "item1-common-image"
        assert rep.checker_verdicts["trivial_on_interior"]
        assert rep.verdict == "pass"
        assert len(stars) == 1 and stars[0].tolist() == [0.1, 0.2, 0.3, 0.4]

    def test_vertex_construction_directly(self):
        # The reference trivial-on-edges rule carries vertex images that
        # are more extreme than the collapse point but off its segment;
        # the dedicated vertex construction turns that into a certificate.
        from blackwell_audit.auditor import _Search, _vertex_condition_certificate

        rule = stubborn_example_a()
        star = np.array([0.2, 1 / 3, 1 - 0.2 - 1 / 3])
        cert = _vertex_condition_certificate(
            _Search(rule, np.asarray(MU3), Selector(), WelfareMode.SINGLE, 1e-9, 0, 50), star
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


def _dirichlet_rows(e: np.ndarray) -> np.ndarray:
    """Rows of standard exponentials scaled to sum 1 as numpy's Dirichlet sampler
    does it: a left-to-right sum, then a product with its inverse."""
    acc = e[..., 0].copy()
    for j in range(1, e.shape[-1]):
        acc += e[..., j]
    return e * (1.0 / acc)[..., None]


def _stream_block(rng: np.random.Generator, n: int, size: int) -> list:
    """One block of the documented search stream, six generator calls, as each
    trial's (lik, channel, point, z): the first k columns of its likelihood
    exponentials, the k x kp corner of its channel exponentials."""
    k = rng.integers(2, 5, size)
    kp = rng.integers(1, k + 1)
    e_lik = rng.standard_exponential((size, n, 4))
    e_channel = rng.standard_exponential((size, 4, 4))
    e_point = rng.standard_exponential((size, n))
    z = rng.standard_normal((size, n))
    lik = {m: _dirichlet_rows(e_lik[:, :, :m]) for m in (2, 3, 4)}
    channel = {(m, mp): _dirichlet_rows(e_channel[:, :m, :mp]) for m in (2, 3, 4) for mp in range(1, m + 1)}
    points = _dirichlet_rows(e_point)
    return [(lik[k[t]][t], channel[k[t], kp[t]][t], points[t], z[t]) for t in range(size)]


def _reference_random_search(d, mu, budget, sel, mode, seed):
    """Random search scored one trial at a time on the documented stream: blocks
    of 8, 16, ..., 256, 256, ... whatever the budget, the trials taken in order."""
    n = mu.shape[0]
    rng = np.random.default_rng(seed)
    size = 8
    while budget.remaining > 0:
        trials = _stream_block(rng, n, size)
        for lik, channel, point, z in trials[: budget.remaining]:
            budget.charge()
            normal = z - z.mean()
            scale = float(np.max(np.abs(normal)))
            if scale < 1e-9:
                continue
            normal /= scale
            problem = hyperplane_problem(Hyperplane(normal, float(normal @ point)))
            try:
                pi = Experiment(lik)
                pi_p = garble(pi, GarblingMatrix(channel))
                gap = expected_payoff(problem, d, mu, sel, mode, bayes(mu, pi)) - expected_payoff(
                    problem, d, mu, sel, mode, bayes(mu, pi_p)
                )
            except (ValueError, BarycenterMismatch):
                continue
            if gap > -GAP_TOL:
                continue
            cert = ViolationCertificate(
                prior=Belief(mu), rule=d, pi=pi, pi_prime=pi_p, problem=problem,
                selector=sel, mode=mode, gap=float(gap), recipe="random-search", seed=seed,
            )
            if verify_certificate(cert)[0]:
                return cert
        size = min(2 * size, 256)
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
            want_budget, got_budget = (_Search(rule, mu, sel, mode, 1e-9, seed, budget) for _ in range(2))
            want = _reference_random_search(rule, mu, want_budget, sel, mode, seed)
            got = _random_search(got_budget)
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
            block = _draw_block(np.random.default_rng(100 + n), n, 200, 200)
            head = _draw_block(np.random.default_rng(100 + n), n, 200, 137)
            trials = _stream_block(np.random.default_rng(100 + n), n, 200)
            M, X = _block_posteriors(mu, block)
            for t in range(200):
                lik, channel, point, z = _block_trial(block, t)
                # Replay the six documented calls, one trial at a time.
                want = trials[t]
                for got, expected in zip((lik, channel, point, z), want):
                    assert np.array_equal(got, expected), (n, t)
                if t < 137:  # a block taken in part holds the same trials
                    for got, expected in zip(_block_trial(head, t), want):
                        assert np.array_equal(got, expected), (n, t)
                pi = Experiment(lik)
                pi_p = garble(pi, GarblingMatrix(channel))
                for slots, L in ((slice(0, 4), pi.likelihoods), (slice(4, 8), pi_p.likelihoods)):
                    m = mu @ L
                    assert np.array_equal(M[t, slots], np.pad(m, (0, 4 - m.size)))
                    assert np.array_equal(X[t, slots][: m.size], ((mu[:, None] * L) / m[None, :]).T)
            with pytest.raises(IndexError):
                _block_trial(head, 137)

    def test_prefix_stable_in_the_budget(self):
        # Budgets ending inside the first, second, third and fifth block (8, 16, 32, 64, 128),
        # each with the number of trials before that block.
        before_last = {3: 0, 13: 8, 40: 24, 130: 120}
        budgets = tuple(before_last)
        families = ("grether", "shrinkage", "occ-coarse", "occ-stubborn", "trivial", "bayes")
        shared = in_last = 0
        for i in range(96):
            rng = np.random.default_rng(9000 + i)
            family = families[i % 6]
            n = 2 if family == "occ-coarse" else int(rng.integers(3, 5)) if family == "occ-stubborn" else int(rng.integers(2, 5))
            rule = BayesRule(n) if family == "bayes" else random_rule(family, n, rng)
            mu = rng.dirichlet(np.full(n, 4.0))
            mode = (WelfareMode.SINGLE, WelfareMode.DOUBLE)[i // 6 % 2]
            seed = int(rng.integers(1 << 30))
            runs = {}
            for b in budgets:
                search = _Search(rule, mu, Selector(), mode, 1e-9, seed, b)
                cert = _random_search(search)
                runs[b] = (None if cert is None else cert.dumps(), search.used)
            for j, b in enumerate(budgets):
                for b_long in budgets[j + 1 :]:
                    cert, used = runs[b_long]
                    case = (i, family, n, mode.value, b, b_long)
                    if cert is not None and used <= b:
                        assert runs[b] == runs[b_long], case
                        shared += 1
                        in_last += used > before_last[b]
                    else:
                        assert runs[b][0] is None, case
        assert shared >= 60 and in_last >= 25, (shared, in_last)


class TestRandomSearchScreen:
    """The block screen flags every trial near one of its cuts.

    Random trials almost never land there, so these trials are built by
    hand: two states, prior (1/2, 1/2), normal (1, -1), and a point p0
    that sets the offset 2 p0 - 1, so the act score at x is x0 - x1 - offset.
    """

    MU = np.array([0.5, 0.5])
    Z = np.array([1.0, -1.0])

    def _flagged(self, rule, sel, mode, lik, channel, p0):
        block = ([(np.array([0]), lik[None], channel[None])], np.array([[p0, 1.0 - p0]]), self.Z[None, :])
        return bool(_screen(_Search(rule, self.MU, sel, mode, 1e-9, 0, 1), block)[0])

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
# before its image was looked at; kept verbatim as the reference order,
# except that their distributions take the closed-form weights the recipes do.


def _moved_point(rho: PosteriorDistribution, x0: np.ndarray, gamma: float, lam: np.ndarray, target: np.ndarray):
    """auditor._moved, with the moved point's coordinates returned alongside."""
    moved = gamma * x0 + (1.0 - gamma) * target
    return auditor._moved(rho, gamma, lam, moved), moved


def _weights_first_expansive(search: _Search, x0: np.ndarray) -> Optional[ViolationCertificate]:
    d, mu, tol = search.d, search.mu, search.tol
    img0 = evaluate_batch(d, mu, x0[None, :])[0]
    if np.max(np.abs(x0 - mu)) <= tol:
        return _audit_prior_error(search)

    for rho in _scaffolds(mu, x0):
        others = rho.support[1:]
        if in_convex_hull(img0, rho.support, tol=1e-7):
            continue  # image not banished at this scaffold width
        imgs_others = evaluate_batch(d, mu, others)
        even = np.full(others.shape[0], 1.0 / others.shape[0])
        target = others.mean(axis=0)
        for gamma in (0.6, 0.35, 0.15):
            rho_p, x0p = _moved_point(rho, x0, gamma, even, target)
            if rho_p is None:
                continue
            img0p = evaluate_batch(d, mu, x0p[None, :])[0]

            if np.max(np.abs(img0p - img0)) > tol:
                # A shared destination would sit on both sides: skip the cut.
                search.charge()
                hull_set = np.vstack([rho.support, imgs_others, img0p[None, :]])
                try:
                    h = separating_hyperplane_sets([img0], hull_set, margin=SEP_MARGIN)
                    cert = search.try_pair(rho, rho_p, hyperplane_problem(h), "claim1-hyperplane")
                    if cert is not None:
                        return cert
                except NoStrictSeparation:
                    pass

            rho_pp, x0pp = _moved_point(rho, x0, gamma / 2.0, even, target)
            if rho_pp is None:
                continue
            img0pp = evaluate_batch(d, mu, x0pp[None, :])[0]
            if np.max(np.abs(img0pp - img0p)) <= tol:
                continue  # same destination: consistent with a collapse rule

            search.charge()
            kite = np.vstack([rho_p.support, imgs_others, img0pp[None, :]])
            try:
                h = separating_hyperplane_sets([img0p], kite, margin=SEP_MARGIN)
                cert = search.try_pair(rho_p, rho_pp, hyperplane_problem(h), "claim2-separation")
                if cert is not None:
                    return cert
            except NoStrictSeparation:
                pass

            search.charge()
            base = np.vstack([rho_p.support, imgs_others, img0p[None, :]])
            try:
                h = separating_hyperplane_sets([img0pp], base, margin=SEP_MARGIN)
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
            cert = search.try_pair(rho_mix, rho_p, hyperplane_problem(h), "claim3-mixture")
            if cert is not None:
                return cert
    return None



def _weights_first_two_state(search: _Search, x0: np.ndarray) -> Optional[ViolationCertificate]:
    d, mu, tol = search.d, search.mu, search.tol
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
            rho_hi = _binary(m, far, z)
            rho_lo = _binary(m, far, zp)
            if rho_hi is None or rho_lo is None:
                continue
            search.charge()
            cert = search.try_pair(rho_hi, rho_lo, _threshold_problem(direction, cutoff), "lemma3-threshold")
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
            rho_lo = _binary(m, far, zp)
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
            search.charge()
            cert = search.try_pair(rho_hi, rho_lo, _threshold_problem(direction, cutoff), "lemma3-ternary")
            if cert is not None:
                return cert
    return None



def _weights_first_many_states(search: _Search, x0: np.ndarray) -> Optional[ViolationCertificate]:
    d, mu, tol = search.d, search.mu, search.tol
    img0 = evaluate_batch(d, mu, x0[None, :])[0]
    for pull in (0.25, 0.45):
        rho = _vertex_pulled_scaffold(mu, x0, pull)
        if rho is None:
            continue
        for s in range(1, rho.size):
            xs = rho.support[s]
            for frac in (0.8, 0.6):
                rho_p, x0p = _moved_point(rho, x0, frac, np.eye(rho.size - 1)[s - 1], xs)
                if rho_p is None:
                    continue
                img0p = evaluate_batch(d, mu, x0p[None, :])[0]
                if np.max(np.abs(img0p - mu)) <= tol:
                    continue  # edge point mapped to the prior: consistent
                if np.max(np.abs(img0p - img0)) <= tol:
                    continue  # shared destination would sit on both sides
                search.charge()
                try:
                    h = separating_hyperplane_sets(
                        [img0p, x0p, x0], [img0, mu], margin=SEP_MARGIN
                    )
                except NoStrictSeparation:
                    continue
                cert = search.try_pair(rho, rho_p, hyperplane_problem(h), "contagion1-separation")
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
        tracker = _Search(rule, mu, sel, mode, tol, seed, budget)
        try:
            cert = recipe(tracker, x0)
        except Exception as exc:  # the error's type is part of the outcome
            return type(exc), tracker.used
        return (cert.dumps() if cert is not None else None), tracker.used

    def test_matches_the_weights_first_order(self, monkeypatch):
        failed_solves = []
        moved = auditor._moved

        def counted(*args):
            out = moved(*args)
            if out is None:
                failed_solves.append(args)
            return out

        monkeypatch.setattr(auditor, "_moved", counted)
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


# Before the recipes took their weights in closed form, every scaffold, the
# two-state pairs and the vertex recipe's contraction solved them with this
# least-squares fit; kept verbatim, with the scaffold builders that used it,
# as the reference.


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


def _fit_inside_points(mu: np.ndarray, dirs: np.ndarray, eps: float) -> Optional[np.ndarray]:
    """Scale the step down until every mu + step * dir stays inside the simplex; None if it never does."""
    step = eps
    for _ in range(40):
        pts = mu[None, :] + step * dirs
        if np.min(pts) > 1e-9:
            return pts
        step *= 0.5
    return None


def _solved_scaffolds(mu: np.ndarray, x0: np.ndarray):
    u = mu - x0
    nrm = float(np.linalg.norm(u))
    if nrm < 1e-9:
        return
    dirs = _spread_directions(u / nrm, mu.shape[0])  # the same at every width
    eps0 = 0.05 * np.sqrt(2.0)  # nearness in simplex-diameter units
    for eps in (eps0, eps0 / 2.0, eps0 / 4.0):
        pts = _fit_inside_points(mu, dirs, eps)
        if pts is None:
            continue
        rho = _plausible(np.vstack([x0[None, :], pts]), mu)
        if rho is not None:
            yield rho


def _solved_vertex_pulled_scaffold(mu: np.ndarray, x0: np.ndarray, pull: float) -> Optional[PosteriorDistribution]:
    n = mu.shape[0]
    for drop in np.argsort(-np.abs(x0 - mu), kind="stable"):
        idx = [i for i in range(n) if i != drop]
        verts = (1.0 - pull) * np.eye(n)[idx] + pull * mu[None, :]
        rho = _plausible(np.vstack([x0[None, :], verts]), mu)
        if rho is not None and rho.size == n:
            return rho
    return None


class TestClosedFormWeights:
    """Each recipe distribution's closed-form weights against the least-squares fit.

    On priors with every coordinate at least 1e-6, a builder must skip
    exactly the candidates the fit skipped, keep bitwise-equal supports,
    give weights within 1e-9 of the fit's, and have the prior as its
    barycentre within 1e-15.
    """

    @staticmethod
    def _prior(rng, n):
        while True:
            mu = rng.dirichlet(np.full(n, (0.3, 1.0, 4.0)[int(rng.integers(3))]))
            if np.min(mu) >= 1e-6:
                return mu

    @staticmethod
    def _points(rng, n):
        """A random belief, a lattice point and a vertex."""
        grid = simplex_lattice(n, 11)
        return [rng.dirichlet(np.ones(n)), grid[int(rng.integers(grid.shape[0]))], np.eye(n)[int(rng.integers(n))]]

    @staticmethod
    def _assert_same(got, want, mu):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.support.shape == want.support.shape and got.support.tobytes() == want.support.tobytes()
            assert np.max(np.abs(got.probs - want.probs)) <= 1e-9
            assert np.max(np.abs(got.probs @ got.support - mu)) <= 1e-15

    def test_scaffolds(self):
        # At x0 = mu there is no scaffold, and every drop of the vertex-pulled one gives x0 all the weight.
        built, later_drop, none = 0, 0, 0
        for i in range(300):
            rng = np.random.default_rng(9000 + i)
            n = 2 + i % 4
            mu = self._prior(rng, n)
            for x0 in self._points(rng, n) + [mu.copy()]:
                got, want = list(_scaffolds(mu, x0)), list(_solved_scaffolds(mu, x0))
                assert len(got) == len(want), (i, x0.tolist())
                for g, w in zip(got, want):
                    self._assert_same(g, w, mu)
                built += len(got)
                first = int(np.argmax(np.abs(x0 - mu)))  # the first coordinate dropped
                for pull in (0.25, 0.45):
                    got = _vertex_pulled_scaffold(mu, x0, pull)
                    self._assert_same(got, _solved_vertex_pulled_scaffold(mu, x0, pull), mu)
                    none += got is None
                    later_drop += got is not None and bool(np.any(got.support[1:, first] != pull * mu[first]))
        assert built >= 2500 and later_drop >= 500 and none >= 500, (built, later_drop, none)

    def test_two_state_ladder(self):
        # z, the 8 rungs toward its image and each rung's 5 sub-rungs, as the lemma-3 recipe walks them.
        pairs, skipped = 0, 0
        for i in range(60):
            rng = np.random.default_rng(9700 + i)
            mu = self._prior(rng, 2)
            rule = random_rule(("grether", "shrinkage", "occ-coarse")[i % 3], 2, rng)
            m = float(mu[0])
            for x0 in self._points(rng, 2):
                z = float(x0[0])
                far = 0.0 if z > m else 1.0
                zhat = float(evaluate_batch(rule, mu, x0[None, :])[0, 0])
                rungs = zhat + (z - zhat) * np.arange(1, 9) / 9.0
                ts = [z] + rungs.tolist()
                for zp, zp_hat in zip(rungs, evaluate_batch(rule, mu, np.stack([rungs, 1.0 - rungs], axis=1))[:, 0]):
                    ts += (zp_hat + (zp - zp_hat) * np.arange(1, 6) / 6.0).tolist()
                for t in ts:
                    got = _binary(m, far, t)
                    self._assert_same(got, _plausible(np.vstack([np.array([far, 1.0 - far]), np.array([t, 1.0 - t])]), mu), mu)
                    pairs += got is not None
                    skipped += got is None
        assert pairs >= 8000 and skipped >= 100, (pairs, skipped)

    def test_vertex_recipe(self):
        # Every vertex of a shrinkage rule errs; a random collapse point is
        # off every vertex's segment, and every cut is granted, so the recipe
        # builds its contraction at both values of p for every vertex.
        pairs = 0
        for i in range(150):
            rng = np.random.default_rng(9900 + i)
            n = 3 + i % 3
            mu = self._prior(rng, n)
            search = _Search(ShrinkageRule(0.5, n), mu, Selector(), WelfareMode.SINGLE, 1e-9, 0, 1000)
            tried = []
            search.cut = lambda above, below: hyperplane_problem(Hyperplane(np.ones(n), 0.5))
            search.try_pair = lambda rho_hi, rho_lo, problem, recipe: tried.append(rho_lo)
            assert _vertex_condition_certificate(search, rng.dirichlet(np.ones(n))) is None
            want = []
            for k in range(n):
                e = np.eye(n)[k]
                for p in (0.5 * float(mu[k]), 0.25 * float(mu[k])):
                    y = (mu - p * e) / (1.0 - p)
                    if np.min(y) > 1e-9:
                        want.append(_plausible(np.vstack([0.9 * e + 0.1 * y, y]), mu))
            assert len(tried) == len(want) == 2 * n
            for got, ref in zip(tried, want):
                self._assert_same(got, ref, mu)
            pairs += len(tried)
        assert pairs == 2 * sum(3 + i % 3 for i in range(150))


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
