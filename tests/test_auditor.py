"""Auditor: recipe constructions, certificates, verification, determinism."""

import dataclasses
import functools
import json
import re
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audit_helpers import adversary, forged_bayes_certificate, one_error
from oracles import (
    contractive_two_state_by_error,
    hull_gap,
    is_occasionally_stubborn_face_by_face,
    max_margin,
    value_function,
    vertex_condition_every_vertex,
)
from blackwell_audit import auditor, cli, distortions, geometry
from blackwell_audit.geometry import (
    TOL_GEO,
    Belief,
    DimensionMismatch,
    Hyperplane,
    NoStrictSeparation,
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
from blackwell_audit.decision import TIE_TOL, Selector, SelectorPolicy, WelfareMode, expected_payoff
from blackwell_audit.distortions import (
    BayesRule,
    CoarseRule,
    CoarseVerdict,
    Distortion,
    GretherRule,
    NonFiniteImage,
    GridMiss,
    ShrinkageRule,
    StubbornRule,
    StubbornVerdict,
    TabulatedRule,
    TrivialRule,
    affine_chords,
    classify_batch,
    evaluate_batch,
    is_affine,
    is_occasionally_stubborn,
    random_rule,
    stubborn_example_a,
    stubborn_example_b,
    vertex_image_ok,
)
from blackwell_audit.auditor import (
    GAP_TOL,
    SEP_MARGIN,
    _MAX_DISPATCH,
    _MOVES,
    AuditReport,
    BudgetExhausted,
    ViolationCertificate,
    _SCREEN_SLACK,
    _Search,
    _SPREAD,
    _audit_contractive,
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
    _search_trial,
    _simplex_vertices,
    _single_mode_recipes,
    _tangent_basis,
    _threshold_problem,
    _vertex_condition_certificate,
    _vertex_pulled_scaffold,
    audit,
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
        cert = one_error("expansive", GretherRule(2.0, 1.0, 2), MU2, (0.7, 0.3), budget=100)
        assert cert.recipe == "claim1-hyperplane"
        assert cert.gap <= -1e-6
        ok, reason = verify_certificate(cert)
        assert ok, reason

    def test_grether_three_states(self):
        cert = one_error("expansive", GretherRule(2.0, 1.0, 3), MU3, (0.6, 0.2, 0.2), budget=100)
        assert cert.gap <= -1e-6
        assert verify_certificate(cert)[0]

    def test_collapse_rule_exhausts_budget(self):
        rule = stubborn_example_a()
        with pytest.raises(BudgetExhausted):
            one_error("expansive", rule, MU3, (0.25, 0.4, 0.35), budget=60)

    def test_rejects_non_expansive_point(self):
        with pytest.raises(ValueError):
            one_error("expansive", GretherRule(2.0, 1.0, 2), MU2, (0.5, 0.5), budget=10)


class TestAuditContractive:
    def test_shrinkage_two_states(self):
        cert = one_error("contractive", ShrinkageRule(0.5, 2), MU2, (0.9, 0.1), budget=100)
        assert cert.recipe in ("lemma3-threshold", "lemma3-ternary")
        assert cert.gap <= -1e-6
        assert verify_certificate(cert)[0]

    def test_shrinkage_three_states(self):
        cert = one_error("contractive", ShrinkageRule(0.5, 3), MU3, (0.6, 0.3, 0.1), budget=100)
        assert cert.recipe == "contagion1-separation"
        assert cert.gap <= -1e-6
        assert verify_certificate(cert)[0]

    def test_mirrored_side(self):
        cert = one_error("contractive", ShrinkageRule(0.5, 2), MU2, (0.1, 0.9), budget=100)
        assert cert.gap <= -1e-6

    def test_surviving_fixed_point_family(self):
        # Identity up to 0.6, frozen at 0.6 beyond: the shape the
        # contraction recipes cannot (and must not) refute.
        rule = CoarseRule(0.0, 0.6, 0.0, 0.6)
        with pytest.raises(BudgetExhausted):
            one_error("contractive", rule, MU2, (0.8, 0.2), budget=60)

    def test_rejects_non_contractive_point(self):
        with pytest.raises(ValueError):
            one_error("contractive", BayesRule(2), MU2, (0.7, 0.3), budget=10)


class _OffSegmentVertices(TrivialRule):
    """Every belief read as x* = (1/5, 1/3, 7/15), except that vertex 0 is
    read correctly and vertices 1 and 2 carry the images (3/10, 1/2, 1/5)
    and (1/5, 1/6, 19/30): more extreme than x* toward their own state, off
    their segments toward x*."""

    IMAGES = {0: (1.0, 0.0, 0.0), 1: (0.3, 0.5, 0.2), 2: (0.2, 1 / 6, 1 - 0.2 - 1 / 6)}

    def __init__(self):
        super().__init__((0.2, 1 / 3, 1 - 0.2 - 1 / 3))

    def apply_batch(self, mu, X):
        out = super().apply_batch(mu, X)
        for i, img in self.IMAGES.items():
            out[X[:, i] > 1.0 - 1e-12] = img
        return out


class _InteriorConstant(Distortion):
    """Four states: (0.1, 0.2, 0.3, 0.4) on the open simplex, the identity on its boundary, except that
    face {0, 1, 2} reads beliefs with x0 > 1/2 as (0.6, 0.3, 0.1, 0)."""

    n = 4

    def apply_batch(self, mu, X):
        out = X.copy()
        out[np.all(X > 0.0, axis=1)] = (0.1, 0.2, 0.3, 0.4)
        face = np.all(X[:, :3] > 0.0, axis=1) & (X[:, 3] == 0.0) & (X[:, 0] > 0.5)
        out[face] = (0.6, 0.3, 0.1, 0.0)
        return out


def _with_vertex_image(x_star, i, image):
    """The trivial rule at x_star, except that vertex i maps to image."""

    class OneVertex(TrivialRule):
        def apply_batch(self, mu, X):
            out = super().apply_batch(mu, X)
            out[X[:, i] > 1.0 - 1e-12] = image
            return out

    return OneVertex(x_star)


class _PriorDrift(BayesRule):
    """Bayes, except that the prior itself is read as (0.6, 0.2, 0.2)."""

    def apply_batch(self, mu, X):
        out = super().apply_batch(mu, X).copy()  # Bayes returns X, which is read-only
        at_prior = np.max(np.abs(np.asarray(X) - mu), axis=-1) < 1e-9
        out[at_prior] = [0.6, 0.2, 0.2]
        return out


def _no_search(monkeypatch):
    def refuse(search):
        raise AssertionError("random search ran on a rule the checker accepts")

    monkeypatch.setattr(auditor, "_random_search", refuse)


class TestFullAudit:
    def test_bayes_passes_with_empty_census(self):
        rep = audit(BayesRule(3), MU3, grid_size=41, budget=300, seed=1)
        assert rep.verdict == "pass"
        assert rep.error_census["expansive"] == 0
        assert rep.error_census["contractive"] == 0
        assert rep.certificate is None
        # The checker accepts Bayes, so the audit spends nothing; the adversary runs apart.
        assert rep.budget_used == 0 and adversary(BayesRule(3), MU3, 300, seed=1) is None

    def test_error_free_census_dispatches_no_error(self, monkeypatch):
        # Bayes on a 1.37-million-row lattice: no row errs, so no error handler runs.
        def refuse(search, x0):
            raise AssertionError("an error recipe ran on an error-free census")

        monkeypatch.setattr(auditor, "_audit_expansive", refuse)
        monkeypatch.setattr(auditor, "_audit_contractive", refuse)
        rep = audit(BayesRule(4), (0.1, 0.2, 0.3, 0.4), grid_size=201, budget=5000)
        assert rep.verdict == "pass" and rep.budget_used == 0
        assert rep.error_census == {"none": rep.grid_points, "expansive": 0, "contractive": 0}

    @pytest.mark.parametrize("policy", [SelectorPolicy.LEX_FIRST, SelectorPolicy.LEX_LAST])
    def test_bayes_passes_whatever_the_tie_tolerance(self, policy):
        # Any action within tie_tol of the best may be taken, so a gap of
        # -tie_tol is no violation; random search must not accuse Bayes.
        # The checker accepts Bayes, so the audit spends nothing; the adversary runs apart.
        sel = Selector(policy, tie_tol=0.05)
        for n in (2, 3):
            for seed in range(6):
                mu = np.random.default_rng(seed).dirichlet(np.full(n, 4.0))
                rep = audit(BayesRule(n), mu, grid_size=41, budget=300, seed=seed, sel=sel)
                assert rep.verdict == "pass" and rep.budget_used == 0, (n, seed)
                assert adversary(BayesRule(n), mu, 300, sel, seed=seed) is None, (n, seed)

    def test_grether_three_states_violates(self):
        # Continuous, non-trivial, non-Bayesian: must fail at any interior prior.
        rep = audit(GretherRule(2.0, 1.0, 3), MU3, grid_size=61, budget=500, seed=1)
        assert rep.verdict == "violation"
        assert verify_certificate(rep.certificate)[0]
        assert not rep.checker_verdicts["occasionally_stubborn"]["ok"]

    def test_coarse_rule_passes_and_checker_confirms(self):
        rule = CoarseRule(0.3, 0.7, 0.2, 0.8)
        rep = audit(rule, MU2, grid_size=101, budget=300, seed=1)
        assert rep.verdict == "pass"
        cv = rep.checker_verdicts["occasionally_coarse"]
        assert cv["ok"] and cv["a"] == pytest.approx(0.3) and cv["b"] == pytest.approx(0.7)
        assert rep.budget_used == 0 and adversary(rule, MU2, 300, seed=1) is None

    def test_split_edge_rule_passes(self, monkeypatch):
        # The census-driven recipes spend a unit here; random search spends none.
        _no_search(monkeypatch)
        rep = audit(stubborn_example_b(), MU3, grid_size=41, budget=300, seed=1)
        assert rep.verdict == "pass"
        assert rep.checker_verdicts["occasionally_stubborn"]["ok"]
        assert adversary(stubborn_example_b(), MU3, 300, seed=1) is None

    def test_trivial_rule_passes(self, monkeypatch):
        _no_search(monkeypatch)
        rule = TrivialRule((0.5, 0.2, 0.3))
        rep = audit(rule, MU3, grid_size=41, budget=300, seed=1)
        assert rep.verdict == "pass"
        assert set(rep.checker_verdicts) == {"occasionally_stubborn"}
        assert rep.checker_verdicts["occasionally_stubborn"]["ok"]  # x* is the constant image
        assert adversary(rule, MU3, 300, seed=1) is None

    def test_two_state_checker_scans_at_most_the_lattice(self, monkeypatch):
        # max(lattice rows - 1, 100) levels: from grid 101 on, the scan's nodes i/g are the census lattice's,
        # also past the lattice's 2,000,000-row cap, where it halves its resolution.
        seen = []

        def spy(d, mu, grid_size, tol):
            seen.append(grid_size)
            return CoarseVerdict(True, 0.0, 1.0, 0.0, 1.0)

        monkeypatch.setattr(auditor, "is_occasionally_coarse", spy)
        try:
            for grid_size in (11, 101, 2_000_000, 10**8):
                assert audit(BayesRule(2), MU2, grid_size=grid_size, budget=10).verdict == "pass"
        finally:
            geometry._lattice.cache_clear()  # release the two lattices of 1.5 M rows and more
        assert seen == [100, 100, 1_999_999, 1_562_499]

    def test_a_tolerance_below_the_floor_acts_as_the_floor(self):
        # A shrinkage rule's images lie on the posterior-prior segment up to rounding: at tol 0 the census
        # used to file 313 of these 861 rows as expansive on residuals of order 1e-17.
        rule, mu = ShrinkageRule(0.5, 3), [0.2, 0.3, 0.5]
        rep = audit(rule, mu, grid_size=41, tol=0.0)
        assert rep.error_census["expansive"] == 0
        assert rep.to_json() == audit(rule, mu, grid_size=41, tol=TOL_GEO).to_json()

    def test_tabulated_rule_queried_off_its_nodes_raises(self):
        # Identity on the 11-level lattice; the checkers' face samples fall off its nodes.
        nodes = simplex_lattice(3, 11)
        with pytest.raises(GridMiss):
            audit(TabulatedRule(nodes, nodes, tol=1e-9), MU3, grid_size=11)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_prior_is_refused_before_the_census(self, bad):
        with pytest.raises(ValueError, match="full-support prior"):
            audit(BayesRule(3), (bad, 0.5, 0.5), grid_size=11)

    @pytest.mark.parametrize("rule, mode", [(GretherRule(2.0, 1.0, 5), WelfareMode.SINGLE),
                                            (GretherRule(2.0, 1.0, 2), WelfareMode.SINGLE),
                                            (BayesRule(4), WelfareMode.DOUBLE)])
    def test_rule_of_another_state_count_is_refused_before_the_census(self, monkeypatch, rule, mode):
        # On a three-state prior the five-state rule's census failed inside numpy, the two-state
        # rule met the collapse checker's WrongDimension, and the Bayes rule passed.
        monkeypatch.setattr(auditor, "classify_batch", lambda *args: pytest.fail("the census ran"))
        with pytest.raises(DimensionMismatch, match=f"^rule is for {rule.n} states, prior has 3$"):
            audit(rule, MU3, grid_size=21, mode=mode)

    @pytest.mark.parametrize(
        "rule, mu, sel",
        [(GretherRule(2.0, 1.0, 2), MU2, Selector(tie_tol=0.05)), (GretherRule(2.0, 1.0, 3), MU3, Selector())],
    )
    def test_negative_seed_is_refused_before_the_census(self, monkeypatch, rule, mu, sel):
        # Only random search draws from the seed: the first audit reached it and raised
        # numpy's error, while claim1-hyperplane certified the second with seed -1.
        monkeypatch.setattr(auditor, "classify_batch", lambda *args: pytest.fail("the census ran"))
        with pytest.raises(ValueError, match="seed must be non-negative"):
            audit(rule, mu, grid_size=101, budget=1000, seed=-1, sel=sel)

    @pytest.mark.parametrize("budget", [0, -3, 0.5, np.nan, np.inf])
    def test_budget_below_one_is_refused_before_the_census(self, monkeypatch, budget):
        # A budget of -3 stopped the first recipe and passed a rule the census found 855 expansive errors in;
        # an infinite one raised OverflowError after the census.
        monkeypatch.setattr(auditor, "classify_batch", lambda *args: pytest.fail("the census ran"))
        with pytest.raises(ValueError, match="budget must be finite and at least 1"):
            audit(GretherRule(2.0, 1.0, 3), MU3, grid_size=41, budget=budget)

    def test_misread_prior_is_caught(self):
        # Identity except the prior itself drifts: the two-stage
        # contraction recipe must produce a certificate.
        rep = audit(_PriorDrift(3), MU3, grid_size=31, budget=300, seed=1)
        assert rep.verdict == "violation"
        assert rep.certificate.recipe == "degenerate-prior"
        assert verify_certificate(rep.certificate)[0]

    def test_misread_prior_recipe_runs_once(self, monkeypatch):
        # The prior is the census's one error, an expansive one, and is dispatched: the recipe,
        # made to fail, must not run again there, where it could only charge its cut again.
        calls = []
        monkeypatch.setattr(auditor, "_audit_prior_error", lambda search: calls.append(search.used))
        rep = audit(_PriorDrift(3), MU3, grid_size=31, budget=300, seed=1)
        assert rep.error_census == {"none": 495, "expansive": 1, "contractive": 0}
        assert calls == [0] and rep.certificate is None and rep.budget_used == 0

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

    def test_refuting_checker_names_the_collapse_point(self, monkeypatch):
        # Constant on the open simplex, the identity on its boundary, except that face
        # {0, 1, 2} reads beliefs with x0 > 1/2 as one point: checker item 1 fails, yet
        # it names x* = (0.1, 0.2, 0.3, 0.4), the image the open simplex shares, and the
        # vertex stage takes that x*.
        stars = []

        def spy(search, verdict):
            stars.append(np.array(verdict.x_star.coords))
            return vertex_stage(search, verdict)

        vertex_stage = auditor._vertex_condition_certificate
        monkeypatch.setattr(auditor, "_vertex_condition_certificate", spy)
        rep = audit(_InteriorConstant(), np.full(4, 0.25), grid_size=21, budget=400, seed=1)
        stubborn = rep.checker_verdicts["occasionally_stubborn"]
        assert not stubborn["ok"] and stubborn["x_star"] == [0.1, 0.2, 0.3, 0.4]
        assert stubborn["refutation"]["item"] == "item1-common-image"
        assert rep.verdict == "pass"
        assert len(stars) == 1 and stars[0].tolist() == [0.1, 0.2, 0.3, 0.4]

    def test_vertex_construction_directly(self):
        # Vertex images more extreme than the collapse point toward their
        # state, but off their segments (the reference trivial-on-edges rule
        # once had these); the dedicated vertex construction turns that into
        # a certificate.
        rule = _OffSegmentVertices()
        verdict = is_occasionally_stubborn(rule, MU3, tol=1e-9)
        assert verdict.x_star.to_json() == [0.2, 1 / 3, 1 - 0.2 - 1 / 3] and verdict.failing_vertices == (1, 2)
        cert = _vertex_condition_certificate(
            _Search(rule, np.asarray(MU3), Selector(), WelfareMode.SINGLE, 1e-9, 0, 50), verdict
        )
        assert cert is not None
        assert cert.recipe == "vertexprop-separation"
        assert verify_certificate(cert)[0]


class TestCollapseCharacterization:
    """A rule the checker characterizes as harmless never gets a verified certificate."""

    @staticmethod
    def _single_cases():
        rng = np.random.default_rng(1500)
        for family, n in (("occ-stubborn", 3), ("occ-stubborn", 4), ("occ-coarse", 2), ("trivial", 3), ("trivial", 4)):
            for _ in range(10):
                yield random_rule(family, n, rng), rng.dirichlet(np.full(n, 4.0)), int(rng.integers(1 << 30))
        for k in range(10):
            rule = (stubborn_example_a, stubborn_example_b)[k % 2]()
            yield rule, rng.dirichlet(np.full(3, 4.0)), k

    def test_single_mode(self, monkeypatch):
        # The audit skips random search on an accepted rule; the adversary
        # runs apart, with the audit's whole budget.
        _no_search(monkeypatch)
        for rule, mu, seed in self._single_cases():
            rep = audit(rule, mu, grid_size=101 if rule.n == 2 else 41, budget=300, seed=seed)
            verdicts = rep.checker_verdicts
            structure = verdicts["occasionally_coarse" if rule.n == 2 else "occasionally_stubborn"]
            assert structure["ok"], (rule.to_json(), verdicts)
            assert "affine" not in verdicts
            assert rep.verdict == "pass" and rep.certificate is None, (rule.to_json(), rep.certificate.recipe)
            assert adversary(rule, mu, 300, seed=seed) is None, rule.to_json()

    def test_double_mode_reports_affine_only(self, monkeypatch):
        _no_search(monkeypatch)
        rng = np.random.default_rng(1501)
        for k in range(18):
            n = 2 + k % 3
            family = ("shrinkage", "trivial", "bayes")[k // 3 % 3]
            rule = BayesRule(n) if family == "bayes" else random_rule(family, n, rng)
            mu = rng.dirichlet(np.full(n, 4.0))
            rep = audit(rule, mu, grid_size=41, budget=300, mode=WelfareMode.DOUBLE, seed=k)
            assert rep.checker_verdicts == {"affine": True} and rep.certificate is None, (k, rule.to_json())
            assert rep.budget_used == 0, (k, rule.to_json())
            assert adversary(rule, mu, 300, mode=WelfareMode.DOUBLE, seed=k) is None, (k, rule.to_json())

    def test_double_mode_runs_no_single_mode_checker(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a SINGLE-mode characterization or recipe ran in DOUBLE mode")

        for name in (
            "is_occasionally_coarse", "is_occasionally_stubborn", "_vertex_condition_certificate",
            "_audit_prior_error", "_audit_expansive", "_audit_contractive",
        ):
            monkeypatch.setattr(auditor, name, refuse)
        for rule in (CoarseRule(0.3, 0.7, 0.2, 0.8), stubborn_example_a(), TrivialRule((0.1, 0.2, 0.3, 0.4))):
            mu = np.full(rule.n, 1.0 / rule.n)
            rep = audit(rule, mu, grid_size=41, budget=50, mode=WelfareMode.DOUBLE)
            assert rep.checker_verdicts == {"affine": rule.family == "trivial"}
            assert (rep.certificate is None) == (rule.family == "trivial")

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(data=st.data())
    def test_specs_the_vertex_condition_accepts(self, data):
        # Collapse rules drawn from the vertex condition's accepted set: a
        # common point x*, each vertex correct or at t e_i + (1 - t) x*, and
        # optionally one identity edge.
        n = data.draw(st.integers(3, 4))
        weights = np.array(data.draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
        x_star = weights / weights.sum()
        images = {}
        for i in range(n):
            t = data.draw(st.none() | st.floats(0.0, 1.0))
            if t is not None:
                images[i] = t * np.eye(n)[i] + (1.0 - t) * x_star
        edge = data.draw(st.none() | st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)]))
        if edge is not None:
            images = {i: img for i, img in images.items() if i not in edge}
        assert all(vertex_image_ok(x_star, i, img) for i, img in images.items())
        rule = StubbornRule(x_star, vertex_images=images, identity_faces=[edge] if edge else None)
        mu = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
        mu /= mu.sum()
        v = is_occasionally_stubborn(rule, mu, tol=1e-9)
        assert v.ok and np.allclose(v.x_star.coords, x_star, atol=1e-12), v.to_json()
        seed = data.draw(st.integers(0, 1000))
        with pytest.MonkeyPatch.context() as mp:
            _no_search(mp)
            rep = audit(rule, mu, grid_size=31, budget=150, seed=seed)
        assert rep.verdict == "pass" and rep.certificate is None, rep.certificate.to_json()
        assert adversary(rule, mu, 150, seed=seed) is None, rule.to_json()

    def test_off_segment_vertex_is_refuted_and_certified(self):
        # Vertex i's image leaves its segment [x*, e_i] along v, which is
        # orthogonal to e_i - x* and points away from the prior, so a
        # hyperplane cuts the image from e_i, x* and the prior.
        rng = np.random.default_rng(1502)
        cases = [(_OffSegmentVertices(), np.asarray(MU3))]
        for k in range(12):
            n = 3 + k % 2
            x_star = rng.dirichlet(np.full(n, 3.0))
            mu = rng.dirichlet(np.full(n, 4.0))
            i = int(rng.integers(n))
            e = np.eye(n)[i]
            t = float(rng.uniform(0.2, 0.8))
            s = t * e + (1.0 - t) * x_star
            v = x_star - mu
            v -= (v @ (e - x_star)) / ((e - x_star) @ (e - x_star)) * (e - x_star)
            v /= np.max(np.abs(v))
            cases.append((_with_vertex_image(x_star, i, s + 0.5 * np.min(s) * v), mu))
        recipes = set()
        for rule, mu in cases:
            v = is_occasionally_stubborn(rule, mu, tol=1e-9)
            assert not v.ok and v.refutation[1] == "item3-vertex"
            assert np.array_equal(v.x_star.coords, rule.x_star)
            rep = audit(rule, mu, grid_size=41, budget=300, seed=3)
            assert rep.verdict == "violation" and verify_certificate(rep.certificate) == (True, None)
            recipes.add(rep.certificate.recipe)
        assert "vertexprop-separation" in recipes, recipes

    def test_trivial_interior_does_not_spare_random_search(self, monkeypatch):
        # A rule constant on the interior whose vertex image leaves its segment is
        # refuted by the collapse checker, so it gets random search when the recipes miss.
        reached = []
        monkeypatch.setattr(auditor, "_vertex_condition_certificate", lambda search, verdict: None)
        monkeypatch.setattr(auditor, "_random_search", lambda search: reached.append(search.used))
        rep = audit(_OffSegmentVertices(), MU3, grid_size=41, budget=300, seed=3)
        assert not rep.checker_verdicts["occasionally_stubborn"]["ok"]
        assert reached == [rep.budget_used], reached


class _VertexMoved(Distortion):
    """The inner rule, except that vertex i maps to image."""

    def __init__(self, inner: Distortion, i: int, image: np.ndarray) -> None:
        self.inner, self.i, self.image, self.n, self.family = inner, i, image, inner.n, inner.family

    def apply_batch(self, mu, X):
        out = np.array(self.inner.apply_batch(mu, X))
        out[X[:, self.i] > 1.0 - 1e-12] = self.image
        return out

    def to_json(self):
        return {"inner": self.inner.to_json(), "vertex": self.i, "image": self.image.tolist()}


class _OffSimplexInterior(TrivialRule):
    """The trivial rule at a point, except that the open simplex is read as one point summing to 1.1."""

    def apply_batch(self, mu, X):
        out = super().apply_batch(mu, X)
        out[np.all(X > 0.0, axis=1)] = np.full(self.n, 1.1 / self.n)
        return out


class TestCollapseOnePass:
    """The collapse checker evaluates one stack once, and the vertex recipe evaluates only the vertices
    that the checker's verdict names; both agree with the references they replaced."""

    @staticmethod
    def _cases():
        """(rule, prior, tol): at least 300 ``random_rule`` draws, the same rules with a vertex moved off its
        segment toward x*, and rules whose common image is no belief or is shared by the open simplex only."""
        rng = np.random.default_rng(3100)
        for k in range(320):
            family, n = ("occ-stubborn", "trivial", "grether", "shrinkage")[k % 4], 3 + k // 4 % 4
            rule, mu, tol = random_rule(family, n, rng), rng.dirichlet(np.full(n, 4.0)), (1e-9, 1e-6)[k // 16 % 2]
            yield rule, mu, tol
            if family in ("occ-stubborn", "trivial"):
                i, t = int(rng.integers(n)), float(rng.uniform(0.2, 0.8))
                e, x_star = np.eye(n)[i], rule.x_star
                s = t * e + (1.0 - t) * x_star
                v = x_star - mu  # away from the prior, orthogonal to the segment: a cut exists
                v -= (v @ (e - x_star)) / ((e - x_star) @ (e - x_star)) * (e - x_star)
                image = rng.dirichlet(np.ones(3)) @ np.array([e, x_star, mu])  # inside the hull that no cut leaves
                if np.min(s) > 0.0 and k % 8 < 4:
                    image = s + 0.5 * np.min(s) * v / np.max(np.abs(v))
                yield _VertexMoved(rule, i, image), mu, tol
        for tol in (1e-9, 1e-6):
            yield _InteriorConstant(), np.full(4, 0.25), tol
            yield _OffSimplexInterior((0.2, 0.3, 0.5)), np.asarray(MU3), tol
            yield _OffSegmentVertices(), np.asarray(MU3), tol

    @staticmethod
    def _outcome(run, search):
        try:
            cert = run(search)
        except Exception as exc:
            return type(exc), search.used
        return (None if cert is None else cert.dumps()), search.used

    def test_matches_the_references(self):
        items, recipes = {}, {"tried": 0, "failing": 0, "certified": 0}
        for rule, mu, tol in self._cases():
            got = is_occasionally_stubborn(rule, mu, tol=max(tol, 1e-9))
            want = is_occasionally_stubborn_face_by_face(rule, mu, tol=max(tol, 1e-9))
            assert got.to_json() == want.to_json(), (rule.to_json(), tol)
            item = want.refutation[1] if want.refutation else "ok"
            items[item] = items.get(item, 0) + 1
            if item == "item3-vertex":
                assert got.failing_vertices[0] == int(np.argmax(want.refutation[0]))
            if got.x_star is None:
                continue  # the audit runs no vertex recipe
            for budget in (1, 30):
                searches = [_Search(rule, mu, Selector(), WelfareMode.SINGLE, tol, 0, budget) for _ in range(2)]
                result = self._outcome(lambda search: _vertex_condition_certificate(search, got), searches[0])
                reference = self._outcome(lambda search: vertex_condition_every_vertex(search, got.x_star.coords), searches[1])
                assert result == reference, (rule.to_json(), tol, budget)
                recipes["tried"] += 1
                recipes["failing"] += bool(got.failing_vertices)
                recipes["certified"] += isinstance(result[0], str)
        assert sum(items.values()) >= 480 and min(items.values()) >= 10, items
        assert set(items) == {"ok", "item1-common-image", "item2-edge", "item3-vertex"}, items
        assert recipes["tried"] >= 600 and 100 <= recipes["certified"] <= recipes["failing"] - 100, recipes

    def test_one_evaluation_each(self, monkeypatch):
        # The checker evaluates its rule once, plus once per split rule it tries; the recipe evaluates
        # nothing on an accepted rule, and otherwise only the failing vertices, in one call.
        calls = []

        def spy(d, mu, X):
            calls.append((d, np.array(X)))
            return evaluate_batch(d, mu, X)

        monkeypatch.setattr(distortions, "evaluate_batch", spy)
        monkeypatch.setattr(auditor, "evaluate_batch", spy)
        rng = np.random.default_rng(3101)
        rules = [stubborn_example_a(), stubborn_example_b(), _OffSegmentVertices(), GretherRule(2.0, 1.0, 3), _InteriorConstant()]
        rules += [random_rule(("occ-stubborn", "trivial")[k % 2], 3 + k % 3, rng) for k in range(12)]
        splits = failing = spared = 0
        for rule in rules:
            mu = rng.dirichlet(np.full(rule.n, 4.0))
            calls.clear()
            verdict = is_occasionally_stubborn(rule, mu, tol=1e-9)
            assert [X.shape[0] for d, X in calls if d is rule] == [distortions._face_stack(rule.n)[1].shape[0]]
            others = [d for d, _ in calls if d is not rule]
            assert all(isinstance(d, StubbornRule) and d.edge_case for d in others) and len(set(map(id, others))) == len(others)
            splits += len(others)
            if verdict.x_star is None:
                continue
            calls.clear()
            _vertex_condition_certificate(_Search(rule, mu, Selector(), WelfareMode.SINGLE, 1e-9, 0, 30), verdict)
            recipe_calls = [X for d, X in calls if d is rule]
            if verdict.failing_vertices:
                assert len(recipe_calls) == 1 and np.array_equal(recipe_calls[0], np.eye(rule.n)[list(verdict.failing_vertices)])
                failing += 1
            else:
                assert recipe_calls == [], verdict.to_json()
                spared += 1
        assert splits >= 2 and failing >= 1 and spared >= 12, (splits, failing, spared)


class TestDoubleMode:
    """DOUBLE mode: a rule is harmless exactly when its map is affine, and
    the chords that decide ``affine`` give a non-affine rule its certificate."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(1600)
        for family, n in (("grether", 2), ("grether", 3), ("grether", 4), ("occ-coarse", 2), ("occ-stubborn", 3), ("occ-stubborn", 4)):
            for _ in range(6):
                yield random_rule(family, n, rng), rng.dirichlet(np.full(n, 4.0))
        for k in range(6):
            yield (stubborn_example_a, stubborn_example_b)[k % 2](), rng.dirichlet(np.full(3, 4.0))

    def test_every_non_affine_rule_gets_a_chord_certificate_in_one_unit(self):
        certified = 0
        for rule, mu in self._cases():
            rep = audit(rule, mu, grid_size=41, budget=1, mode=WelfareMode.DOUBLE)
            if rep.checker_verdicts["affine"]:
                assert rep.certificate is None and rep.budget_used == 0, rule.to_json()
                continue
            cert = rep.certificate
            assert cert is not None and cert.recipe == "chord" and rep.budget_used == 1, rule.to_json()
            assert verify_certificate(cert) == (True, None)
            assert verify_certificate(ViolationCertificate.from_json(json.loads(cert.dumps()))) == (True, None)
            # The gap is -q (h . h) / max|h| at q = 0.999 p or p / 2 of the best chord.
            z, _, _, h = auditor.affine_chords(rule, mu, 41)
            p = np.minimum(1.0, np.min(np.divide(mu, z, out=np.full_like(z, np.inf), where=z > 0.0), axis=1))
            size = np.max(np.abs(h), axis=1)
            best = np.max(p * np.sum(h * h, axis=1) / np.where(size > 0.0, size, np.inf))
            assert min(abs(cert.gap + 0.999 * best), abs(cert.gap + 0.5 * best)) <= 1e-12, (cert.gap, best)
            certified += 1
        assert certified >= 40, certified

    def test_kink_between_the_21_levels_is_found_at_the_audit_grid(self):
        # The rule clips (0, 0.02) to 0.02 and (0.98, 1) to 0.98: affine on
        # every chord of the 21-level lattice, not on the audit's 101 levels.
        rule = CoarseRule(0.02, 0.98, 0.0, 1.0)
        assert is_affine(affine_chords(rule, MU2, 21))
        rep = audit(rule, MU2, grid_size=101, budget=1, mode=WelfareMode.DOUBLE)
        assert rep.checker_verdicts == {"affine": False}
        assert rep.certificate.recipe == "chord" and verify_certificate(rep.certificate) == (True, None)

    def test_grether_at_a_small_budget_is_a_violation(self):
        # The SINGLE recipes once spent 348 units here without a certificate.
        rep = audit(GretherRule(2.0, 1.0, 2), MU2, grid_size=51, budget=200, mode=WelfareMode.DOUBLE)
        assert rep.checker_verdicts == {"affine": False}
        assert rep.verdict == "violation" and rep.certificate.recipe == "chord" and rep.budget_used == 1
        assert verify_certificate(rep.certificate) == (True, None)


class TestVerifyCertificate:
    @pytest.fixture()
    def cert(self):
        return one_error("expansive", GretherRule(2.0, 1.0, 2), MU2, (0.7, 0.3), budget=100)

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

    def test_forged_bayes_certificate_fails_dominance(self):
        # Only dominance fails: the gap is the pair's true gap, well below the cut.
        forged = forged_bayes_certificate()
        assert forged.gap == pytest.approx(-2e-5, rel=1e-6)
        assert verify_certificate(forged) == (False, "dominance")

    def test_rule_of_another_state_count_is_malformed(self, cert):
        # Grether maps never read n: a two-state certificate whose rule claimed 3 or 7 states verified.
        for n in (3, 7):
            assert verify_certificate(dataclasses.replace(cert, rule=GretherRule(2.0, 1.0, n))) == (False, "malformed")
            doc = json.loads(cert.dumps())
            doc["rule"]["n"] = n
            assert verify_certificate(ViolationCertificate.from_json(doc)) == (False, "malformed")

    def test_prior_off_the_interior_is_refused(self, cert):
        for prior in ((1.0, 0.0), (0.0, 1.0)):
            assert verify_certificate(dataclasses.replace(cert, prior=Belief(prior))) == (False, "prior")

    def test_json_round_trip_verifies(self, cert):
        back = ViolationCertificate.from_json(json.loads(cert.dumps()))
        assert verify_certificate(back)[0]
        assert back.dumps() == cert.dumps()


def _two_state_table(reads: dict) -> TabulatedRule:
    """Two states: the identity on the 11 levels i/10, except that each first coordinate t in ``reads`` (a
    node of its own where it is no level) is read as reads[t].  A query takes its nearest node's image."""
    ts = np.union1d(np.arange(11) / 10, list(reads))
    images = np.array([reads.get(t, t) for t in ts.tolist()])
    return TabulatedRule(np.stack([ts, 1.0 - ts], axis=1), np.stack([images, 1.0 - images], axis=1), tol=1.0)


#: At the prior (1/2, 1/2) and grid 11 the census's one error is x0 = 0.9, read as 0.95.  Its widest scaffold
#: adds 0.45; at gamma 0.6 its moved points are x0p = 0.72 and x0pp = 0.585, each a node of the table.  With
#: x0p read as 0.97, the image of x0 lies between the others and claim 1 has no cut.  With x0pp read as 0.6,
#: claim 2 cuts 0.97 off, and the pair acts at x0p.  With x0pp read as 0.99, claim 2 has no cut either, and
#: claim 3 cuts 0.99 off: the mixture acts at x0pp, which lies well inside the pass side.
_CLAIM2_TABLE = _two_state_table({0.9: 0.95, 0.72: 0.97, 0.585: 0.6})
_CLAIM3_TABLE = _two_state_table({0.9: 0.95, 0.72: 0.97, 0.585: 0.99})


#: A recipe, and a rule, prior and audit arguments whose audit it certifies.
_RECIPE_AUDITS = [
    ("claim1-hyperplane", GretherRule(2.0, 1.0, 3), MU3, dict(grid_size=61, budget=500, seed=1)),
    ("claim2-separation", _CLAIM2_TABLE, MU2, dict(grid_size=11, budget=10)),
    ("claim3-mixture", _CLAIM3_TABLE, MU2, dict(grid_size=11, budget=10)),
    # The row 0.1 reads 0.3, while the rungs between them read their nearest level: a threshold step.
    ("lemma3-threshold", _two_state_table({0.1: 0.3}), MU2, dict(grid_size=11, budget=10)),
    ("lemma3-ternary", ShrinkageRule(0.5, 2), MU2, dict(grid_size=101, budget=100)),
    ("contagion1-separation", ShrinkageRule(0.5, 3), MU3, dict(grid_size=41, budget=100)),
    ("degenerate-prior", _PriorDrift(3), MU3, dict(grid_size=31, budget=300, seed=1)),
    ("vertexprop-separation", _OffSegmentVertices(), MU3, dict(grid_size=41, budget=300, seed=3)),
    ("chord", GretherRule(2.0, 1.0, 2), MU2, dict(grid_size=51, budget=200, mode=WelfareMode.DOUBLE)),
    ("random-search", GretherRule(2.0, 1.0, 2), MU2, dict(grid_size=101, budget=1000, sel=Selector(tie_tol=0.05))),
]


class TestEveryRecipe:
    """Each recipe of the ``auditor`` docstring's list certifies some rule through ``audit``."""

    def test_covers_the_docstring_list(self):
        listed = re.findall(r"^\* ``([\w-]+)``(?: / ``([\w-]+)``)?", auditor.__doc__, re.M)
        assert sorted(filter(None, sum(listed, ()))) == sorted(case[0] for case in _RECIPE_AUDITS)

    @pytest.mark.parametrize("recipe, rule, mu, kwargs", _RECIPE_AUDITS, ids=[case[0] for case in _RECIPE_AUDITS])
    def test_certifies_through_the_audit(self, recipe, rule, mu, kwargs):
        rep = audit(rule, mu, **kwargs)
        assert rep.verdict == "violation" and rep.certificate.recipe == recipe
        assert verify_certificate(rep.certificate) == (True, None)

    def test_claim3_at_a_wide_scaffold_verifies_on_the_command_line(self, tmp_path):
        rule_file, out = tmp_path / "rule.json", tmp_path / "r.json"
        rule_file.write_text(json.dumps(_CLAIM3_TABLE.to_json()))
        argv = ["audit", "--states", "2", "--rule", str(rule_file), "--grid", "11", "--budget", "10", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_VIOLATION
        cert = ViolationCertificate.from_json(json.loads((tmp_path / "r.certificate.json").read_text()))
        assert cert.recipe == "claim3-mixture" and verify_certificate(cert) == (True, None)
        # The moved point x0p keeps weight 0.185 in the less informative distribution, and the gap is far
        # below the cut: no rounding-level mixture.
        assert np.min(bayes(np.asarray(MU2), cert.pi_prime).probs) > 0.1 and cert.gap < -0.05
        assert cli.main(["verify", str(tmp_path / "r.certificate.json")]) == cli.EXIT_OK


class TestDeterminism:
    def test_same_seed_same_certificate_bytes(self):
        a = audit(GretherRule(2.0, 1.0, 3), MU3, grid_size=41, budget=300, seed=7)
        b = audit(GretherRule(2.0, 1.0, 3), MU3, grid_size=41, budget=300, seed=7)
        assert a.certificate is not None
        assert a.certificate.dumps() == b.certificate.dumps()
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)

    def test_random_search_respects_seed(self):
        # At tie_tol 0.05 no recipe clears the cut for this rule; random search does.
        rule, sel = GretherRule(2.0, 1.0, 2), Selector(tie_tol=0.05)
        a = audit(rule, MU2, grid_size=101, budget=1000, seed=0, sel=sel)
        b = audit(rule, MU2, grid_size=101, budget=1000, seed=0, sel=sel)
        assert a.verdict == b.verdict == "violation"
        assert a.certificate.recipe == "random-search"
        assert a.certificate.dumps() == b.certificate.dumps()
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


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

    @staticmethod
    def _outcome(run, search):
        """The certificate bytes and budget charged of ``run(search)``, or the type of the error it raised."""
        try:
            cert = run(search)
        except Exception as exc:
            return type(exc)
        return (None if cert is None else cert.dumps()), search.used

    def test_a_rule_failing_on_a_band_falls_back_to_one_trial_at_a_time(self, monkeypatch):
        # The rule fails on posteriors with x0 in (0.40, 0.45), which random trials reach: the screen flags
        # the whole block, and each trial is scored alone.  A NaN image is skipped as its trial (NonFiniteImage
        # is a ValueError); any other error propagates.  Both must match one trial at a time.
        fallbacks = []
        screen = auditor._screen

        def spy(search, block):
            flags = screen(search, block)
            fallbacks.append(bool(flags.all()))
            return flags

        monkeypatch.setattr(auditor, "_screen", spy)
        outcomes = {}
        for k in range(8):
            rng = np.random.default_rng(7700 + k)
            n = 2 + k % 2
            mu, mode = rng.dirichlet(np.full(n, 4.0)), (WelfareMode.SINGLE, WelfareMode.DOUBLE)[k // 2 % 2]
            inner = random_rule(("grether", "shrinkage")[k % 2], n, rng)
            for fail in ("nan", "raise"):
                rule = _FailingOnBand(inner, fail)
                seed = int(rng.integers(1 << 30))
                searches = [_Search(rule, mu, Selector(), mode, 1e-9, seed, 70) for _ in range(2)]
                got = self._outcome(_random_search, searches[0])
                want = self._outcome(lambda s: _reference_random_search(rule, mu, s, Selector(), mode, seed), searches[1])
                assert got == want, (k, fail)
                outcomes.setdefault(fail, []).append(got if isinstance(got, type) else got[0] is not None)
        assert sum(fallbacks) >= 16, fallbacks
        assert outcomes["raise"].count(RuntimeError) >= 4 and sum(v is True for v in outcomes["nan"]) >= 2, outcomes

    def test_a_trial_with_a_flat_normal_is_skipped_uncharged(self):
        # z with equal coordinates has no normal: _search_trial returns None and charges nothing.
        search = _Search(GretherRule(2.0, 1.0, 3), np.array([0.2, 0.3, 0.5]), Selector(), WelfareMode.SINGLE, 1e-9, 0, 10)
        lik, channel = np.array([[0.6, 0.4], [0.3, 0.7], [0.5, 0.5]]), np.eye(2)
        assert _search_trial(search, lik, channel, np.array([0.2, 0.3, 0.5]), np.full(3, 0.7)) is None
        assert search.used == 0


class _FailingOnBand(Distortion):
    """The inner rule, except on posteriors with x0 in (0.40, 0.45): a NaN image there, or a RuntimeError."""

    def __init__(self, inner: Distortion, fail: str) -> None:
        self.inner, self.fail, self.n, self.family = inner, fail, inner.n, inner.family

    def apply_batch(self, mu, X):
        imgs = np.array(self.inner.apply_batch(mu, X))
        band = (X[:, 0] > 0.40) & (X[:, 0] < 0.45)
        if band.any() and self.fail == "raise":
            raise RuntimeError("the rule cannot read this posterior")
        imgs[band] = np.nan
        return imgs

    def to_json(self):
        return self.inner.to_json()


# The recipes as they were when every moved point's weights were solved
# before its image was looked at; kept verbatim as the reference order,
# except that their distributions take the closed-form weights the recipes do.
# Their scaffolds are built one error at a time, with the closed-form weights,
# as the auditor built them before it planned a block of errors as arrays.


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


def _one_error_scaffolds(mu: np.ndarray, x0: np.ndarray):
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
        rho = auditor._distribution(
            np.vstack([x0[None, :], mu[None, :] + step * dirs]), np.append(w0, np.full(n - 1, (1.0 - w0) / (n - 1)))
        )
        if rho is not None:
            yield rho


def _moved_point(rho: PosteriorDistribution, x0: np.ndarray, gamma: float, lam: np.ndarray, target: np.ndarray):
    """auditor._moved, with the moved point's coordinates returned alongside."""
    moved = gamma * x0 + (1.0 - gamma) * target
    return auditor._moved(rho, gamma, lam, moved), moved


def banished(img: np.ndarray, support: np.ndarray) -> bool:
    """Claim 1's premise, restated: a strict cut of img from hull(support) clears SEP_MARGIN."""
    try:
        separating_hyperplane_sets([img], support, margin=SEP_MARGIN)
    except NoStrictSeparation:
        return False
    return True


def _weights_first_expansive(search: _Search, x0: np.ndarray) -> Optional[ViolationCertificate]:
    d, mu, tol = search.d, search.mu, search.tol
    img0 = evaluate_batch(d, mu, x0[None, :])[0]
    if np.max(np.abs(x0 - mu)) <= tol:
        return None  # a misread prior: its recipe runs once, before any error is dispatched

    for rho in _one_error_scaffolds(mu, x0):
        others = rho.support[1:]
        if not banished(img0, rho.support):
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

        # Banishment tests of the recipe under test ("got") and of the reference ("want"): True for a skip.
        hulls = {"got": [], "want": []}

        def hull_spy(side, test):
            def spy(img, support):
                out = test(img, support)
                hulls[side].append(not out)
                return out

            return spy

        monkeypatch.setattr(auditor, "_moved", counted)
        monkeypatch.setattr(auditor, "_banished", hull_spy("got", auditor._banished))
        monkeypatch.setitem(globals(), "banished", hull_spy("want", banished))
        certs, exhausted, families = 0, 0, set()
        live_hull_skips, dead_hull_passes = 0, 0
        for i in range(84):
            rule, mu, points, sel, mode, tol, budget, seed = self._case(i)
            contractive = _weights_first_two_state if mu.shape[0] == 2 else _weights_first_many_states
            pairs = [(_audit_expansive, _weights_first_expansive), (_audit_contractive, contractive)]
            for x0 in points:
                for recipe, reference in pairs:
                    hulls["got"].clear()
                    hulls["want"].clear()
                    got = self._outcome(recipe, rule, mu, x0[None, :], budget, sel, mode, tol, seed)
                    want = self._outcome(reference, rule, mu, x0, budget, sel, mode, tol, seed)
                    assert got == want, (i, rule.family, mu.shape[0], recipe.__name__, x0.tolist())
                    certs += isinstance(want[0], str)
                    exhausted += want[0] is BudgetExhausted
                    families.add((rule.family, mu.shape[0]))
                    # Both orders stop at the same width, and the recipe tests the hull
                    # only at a width with a live gamma: a width with none that the
                    # reference's hull test let through is one verdict fewer.
                    live_hull_skips += hulls["got"].count(True)
                    dead_hull_passes += hulls["want"].count(False) - hulls["got"].count(False)
        # The mix reaches certificates, spent budgets, weight solves that
        # fail after the images differ, and every family at each state count.
        assert certs >= 50 and exhausted >= 20
        assert len(failed_solves) >= 20
        assert len(families) == 5 * 3 + 3, sorted(families)  # occ-coarse at n = 2, occ-stubborn at n = 3 and 4
        # Widths with a live gamma that the hull test skips, and widths with
        # none that it would have let through.
        assert live_hull_skips >= 20 and dead_hull_passes >= 20, (live_hull_skips, dead_hull_passes)

    def test_characterized_passes_decide_every_skip_from_images(self, monkeypatch):
        # A collapse rule with correct vertices sends every erring point and
        # every moved point to x*, and an interval rule's contractive rungs
        # and sub-rungs all land on its interval's end: no hull test, no
        # two-state distribution.
        hulls, binaries, real = [], [], auditor._banished
        monkeypatch.setattr(auditor, "_banished", lambda *a: hulls.append(a) or real(*a))
        monkeypatch.setattr(auditor, "_binary", lambda *a: binaries.append(a) or _binary(*a))
        rng = np.random.default_rng(31)
        expansive = contractive = 0
        for n in (3, 4):
            for _ in range(3):
                rules = (TrivialRule(rng.dirichlet(np.full(n, 2.0))), StubbornRule(rng.dirichlet(np.full(n, 3.0))))
                for rule in rules:
                    for mu in (np.full(n, 1.0 / n), rng.dirichlet(np.full(n, 4.0))):
                        rep = audit(rule, mu, grid_size=41, budget=250)
                        assert rep.verdict == "pass" and rep.checker_verdicts["occasionally_stubborn"]["ok"]
                        expansive += rep.error_census["expansive"] > 0
        for _ in range(12):
            rule = random_rule("occ-coarse", 2, rng)
            for mu in (np.full(2, 0.5), rng.dirichlet(np.full(2, 4.0))):
                rep = audit(rule, mu, grid_size=101, budget=250)
                assert rep.verdict == "pass" and rep.checker_verdicts["occasionally_coarse"]["ok"]
                contractive += rep.error_census["contractive"] > 0
        assert not hulls and not binaries
        assert expansive == 24 and contractive >= 12, (expansive, contractive)

    def test_banishment_decides_as_the_nearest_points_gap(self, monkeypatch):
        # At every width the recipe tests, on the mix above, the strict cut banishes x0's image
        # exactly when the nearest points of the image and the scaffold's hull lie over 1e-7 apart.
        tests, real = [], auditor._banished

        def spy(img, support):
            tests.append((np.array(img), np.array(support), real(img, support)))
            return tests[-1][2]

        monkeypatch.setattr(auditor, "_banished", spy)
        for i in range(84):
            rule, mu, points, sel, mode, tol, budget, seed = self._case(i)
            for x0 in points:
                self._outcome(_audit_expansive, rule, mu, x0[None, :], budget, sel, mode, tol, seed)
        for img, support, banished_ in tests:
            assert banished_ == (hull_gap([img], support) > 1e-7), (img.tolist(), support.tolist())
        skips = sum(not banished_ for *_, banished_ in tests)
        assert skips >= 20 and len(tests) - skips >= 20, (skips, len(tests))



class TestHarmlessCuts:
    """A harmless rule's recipe cuts cannot succeed: criterion 6's harmless families, at the
    benchmark's grids and budget, pass, and every recipe cut (``_Search.cut``) is refused.  A banishment
    test is no recipe cut: on a collapse rule the separation it asks for may be granted."""

    @pytest.mark.parametrize("family, n", [("occ-coarse", 2), ("occ-stubborn", 3), ("occ-stubborn", 4),
                                           ("trivial", 3), ("trivial", 4)])
    def test_harmless_audit_refuses_every_cut(self, monkeypatch, family, n):
        cuts, granted = [], []
        real_cut = _Search.cut

        def cut(search, above, below):
            problem = real_cut(search, above, below)
            cuts.append(1)
            if problem is not None:
                granted.append(problem)
            return problem

        monkeypatch.setattr(_Search, "cut", cut)
        rng = np.random.default_rng(21)
        for k in range(12):
            rule = random_rule(family, n, rng)
            sel = Selector(SelectorPolicy.LEX_LAST) if k % 2 else Selector()
            mu = np.full(n, 1.0 / n) if k < 8 else rng.dirichlet(np.full(n, 4.0))
            rep = audit(rule, mu, grid_size=101 if n == 2 else 41, budget=250, seed=int(rng.integers(1 << 30)), sel=sel)
            assert rep.verdict == "pass", (family, n, k)
        assert not granted, granted
        assert n == 2 or len(cuts) >= 12, len(cuts)


class TestHarmfulCuts:
    """The cuts of the first 120 audits of the benchmark's harmful-certify mix (grether and
    shrinkage draws at n = 2, 3, 4, seed 1), the banishment tests' included: every one returned
    clears SEP_MARGIN on its points, and every hyperplane problem built has max |payoff| <= 2."""

    @staticmethod
    @functools.lru_cache(maxsize=1)
    def traffic() -> tuple:
        """(the cuts returned, as (above, below, hyperplane, margin), the hyperplane problems built, the reports)."""
        cuts, problems, reports = [], [], []
        real_cut, real_problem = auditor.separating_hyperplane_sets, auditor.hyperplane_problem

        def cut(above, below, margin):
            h = real_cut(above, below, margin=margin)
            cuts.append((np.array(above, dtype=float), np.array(below, dtype=float), h, margin))
            return h

        def problem(h):
            problems.append(real_problem(h))
            return problems[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(auditor, "separating_hyperplane_sets", cut)
            patch.setattr(auditor, "hyperplane_problem", problem)
            mix = [(family, n) for n in (2, 3, 4) for family in ("grether", "shrinkage")]
            for i in range(120):
                family, n = mix[i % len(mix)]
                rng = np.random.default_rng([1, i])
                rule = random_rule(family, n, rng)
                reports.append(audit(rule, np.full(n, 1.0 / n), grid_size=101 if n == 2 else 41, budget=250,
                                     seed=int(rng.integers(1 << 30))))
        return cuts, problems, reports

    def test_every_cut_clears_its_margin_on_the_points(self):
        cuts, _, reports = self.traffic()
        assert all(rep.verdict == "violation" for rep in reports)
        assert len(cuts) >= 80, len(cuts)
        for above, below, h, margin in cuts:
            assert margin == SEP_MARGIN and np.max(np.abs(h.normal)) == 1.0
            assert np.min(above @ h.normal - h.offset) > margin and np.max(below @ h.normal - h.offset) < -margin

    def test_every_cut_is_near_the_lp_optimum(self):
        # Without the normal's centring these margins fall to 0.76 of the LP's (0.84 in the median).
        cuts, _, _ = self.traffic()
        ratios = [(np.min(a @ h.normal) - np.max(b @ h.normal)) / 2.0 / max_margin(a, b) for a, b, h, _ in cuts]
        assert min(ratios) >= 0.9 and np.median(ratios) >= 0.99, (min(ratios), np.median(ratios))

    def test_every_hyperplane_problem_pays_at_most_two(self):
        _, problems, reports = self.traffic()
        assert len(problems) >= 80, len(problems)
        for problem in problems + [rep.certificate.problem for rep in reports]:
            assert np.max(np.abs(problem.payoff)) <= 2.0


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
            X0 = np.array(self._points(rng, n) + [mu.copy()])
            for x0, supports, weights in zip(X0, *_scaffolds(mu, X0)):  # the four errors as one block
                got = [auditor._distribution(support, probs) for support, probs in zip(supports, weights)]
                got, want = [rho for rho in got if rho is not None], list(_solved_scaffolds(mu, x0))
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
        # Every vertex of a shrinkage rule errs; the verdict names every vertex
        # off its segment toward a random collapse point, and every cut is
        # granted, so the recipe builds its contraction at both values of p
        # for every vertex.
        pairs = 0
        for i in range(150):
            rng = np.random.default_rng(9900 + i)
            n = 3 + i % 3
            mu = self._prior(rng, n)
            search = _Search(ShrinkageRule(0.5, n), mu, Selector(), WelfareMode.SINGLE, 1e-9, 0, 1000)
            tried = []
            search.cut = lambda above, below: hyperplane_problem(Hyperplane(np.ones(n), 0.5))
            search.try_pair = lambda rho_hi, rho_lo, problem, recipe: tried.append(rho_lo)
            verdict = StubbornVerdict(False, Belief(rng.dirichlet(np.ones(n))), None, tuple(range(n)))
            assert _vertex_condition_certificate(search, verdict) is None
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


class TestDispatchSelection:
    @pytest.mark.parametrize("family", ["grether", "shrinkage", "occ-stubborn"])
    def test_same_rows_and_order_as_the_full_sort(self, monkeypatch, family):
        # Magnitudes rounded to two decimals tie across many rows; the partition must keep every tied row.
        rng = np.random.default_rng(17)
        dispatched = []
        monkeypatch.setattr(auditor, "_audit_prior_error", lambda search: None)

        def spy(search, block, code):
            dispatched.extend((code, int(x[0])) for x in block)  # the rows of each block, in order

        for code, name in ((1, "_audit_expansive"), (2, "_audit_contractive")):
            monkeypatch.setattr(auditor, name, functools.partial(spy, code=code))
        for n, grid_size in ((3, 7), (3, 41), (4, 41), (4, 101)):
            grid = simplex_lattice(n, grid_size)
            rows = np.arange(grid.shape[0], dtype=np.float64)[:, None]  # the handlers see row numbers
            for decimals in (2, 17):
                d, mu = random_rule(family, n, rng), rng.dirichlet(np.ones(n) * 4.0)
                kinds, mags = classify_batch(d, mu, grid)
                mags = np.round(mags, decimals)
                dispatched.clear()
                census = {"expansive": np.count_nonzero(kinds == 1), "contractive": np.count_nonzero(kinds == 2)}
                assert _single_mode_recipes(None, rows, kinds, mags, census, None) is None
                expected = []
                for code in (1, 2):
                    idx = np.flatnonzero(kinds == code)
                    expected += [(code, int(i)) for i in idx[np.lexsort((idx, -mags[idx]))][:_MAX_DISPATCH]]
                assert dispatched == expected
                assert len(expected) == min(_MAX_DISPATCH, np.count_nonzero(kinds == 1)) + min(_MAX_DISPATCH, np.count_nonzero(kinds == 2))

    def test_two_state_rows_are_the_rows_phi_builds(self):
        # The two-state recipe reads the rule at rows (t, 1 - t), and _audit_contractive
        # hands it the image of the lattice row instead: the two rows must be one.
        for grid_size in (2, 3, 11, 41, 100, 101, 201, 1001, 4097):
            grid = simplex_lattice(2, grid_size)
            t = grid[:, 0]
            assert grid.tobytes() == np.stack([t, 1.0 - t], axis=1).tobytes()


def _points_first_expansive(search: _Search, x0: np.ndarray) -> Optional[ViolationCertificate]:
    """``_weights_first_expansive`` after one evaluation of every point of x0's recipe: x0, then per scaffold
    width its other points and moved points, none for an error at the prior.  An error of the rule is raised
    before any branch runs, as ``_audit_expansive`` raises it for a block of one."""
    points = [x0[None, :]]
    if np.max(np.abs(x0 - search.mu)) > search.tol:
        for rho in _one_error_scaffolds(search.mu, x0):
            target = rho.support[1:].mean(axis=0)
            points += [rho.support[1:], _MOVES[:, None] * x0 + (1.0 - _MOVES)[:, None] * target]
    evaluate_batch(search.d, search.mu, np.concatenate(points))
    return _weights_first_expansive(search, x0)


def _error_by_error(search: _Search, grid, kinds, mags, census, star, trail: list) -> Optional[ViolationCertificate]:
    """``_single_mode_recipes`` handing over one error at a time to the references above, the expansive
    one points first, and the vertex condition to its reference at the collapse point ``star``; ``trail``
    gets the (kind code, dispatch position) of every error handed over."""
    cert = _audit_prior_error(search)
    if cert is not None:
        return cert
    contractive = _weights_first_two_state if search.mu.shape[0] == 2 else _weights_first_many_states
    for code, recipe in ((1, _points_first_expansive), (2, contractive)):
        idx = np.flatnonzero(kinds == code)
        for k, gi in enumerate(idx[np.lexsort((idx, -mags[idx]))][:_MAX_DISPATCH]):
            trail.append((code, k))
            cert = recipe(search, grid[gi])
            if cert is not None:
                return cert
    return None if star is None else vertex_condition_every_vertex(search, star.coords)


def _rows(X: np.ndarray) -> tuple:
    """The rows of X as a tuple of tuples, for comparing logged blocks."""
    return tuple(map(tuple, X.tolist()))


class _NonFiniteAt(Distortion):
    """The inner rule, except that its image of each of the given points is NaN."""

    def __init__(self, inner: Distortion, points: np.ndarray) -> None:
        self.inner, self.points, self.n, self.family = inner, points, inner.n, inner.family

    def apply_batch(self, mu, X):
        imgs = self.inner.apply_batch(mu, X)
        imgs[np.any(np.all(X[:, None, :] == self.points[None, :, :], axis=2), axis=1)] = np.nan
        return imgs

    def to_json(self):
        return self.inner.to_json()


class _ClippedShrinkage(Distortion):
    """Two states: the scalar coordinate reads lo below a, is clipped to b above b and is shrunk by lam toward
    the prior's between them.  Clipped to [a, b] (lo = a), its largest contractive errors are clipped
    ones, whose rungs and sub-rungs all land on a or b and never certify; the shrunk errors after them do."""

    def __init__(self, a: float, b: float, lam: float, lo: float) -> None:
        self.a, self.b, self.lam, self.lo, self.n, self.family = a, b, lam, lo, 2, "clipped-shrinkage"

    @classmethod
    def draw(cls, rng: np.random.Generator, m: float, step: bool = False) -> "_ClippedShrinkage":
        """A rule at prior coordinate m in (0.15, 0.85), clipped to an interval that leaves one to four lattice
        rows (grid 101) near each vertex erring by more than the shrunk rows at that end.  With ``step``, the
        rows below a read a belief nearer the prior than the shrunk row at a: their rungs past a are threshold
        steps, a less extreme posterior landing on a more extreme belief."""
        lam = float(rng.uniform(0.3, 0.7))
        up, down = (rng.integers(1, 5, size=2) + 0.5) / 100
        # A clipped row t > b errs by t - b, the shrunk row at b by (1 - lam)(b - m): the first is larger
        # exactly for t > 1 - up.  Likewise below a, for t < down.
        b = float((1.0 + (1.0 - lam) * m - up) / (2.0 - lam))
        a = float((down + (1.0 - lam) * m) / (2.0 - lam))
        lo = float(rng.uniform(m + lam * (a - m), m)) if step else a
        return cls(a, b, lam, lo)

    def apply_batch(self, mu, X):
        t = X[:, 0]
        y = np.where(t < self.a, self.lo, np.where(t > self.b, self.b, self.lam * t + (1.0 - self.lam) * mu[0]))
        return np.stack([y, 1.0 - y], axis=1)

    def to_json(self):
        return {"family": self.family, "a": self.a, "b": self.b, "lambda": self.lam, "lo": self.lo}


class TestWholeDispatch:
    """``_single_mode_recipes`` hands the first expansive error over alone and
    plans the others as one block; it must return the certificate bytes,
    charge the budget and raise the error of handing every error over alone
    to the references, the expansive one evaluating its points first."""

    @staticmethod
    def _outcome(run, rule, mu, sel, tol, budget, *args):
        search = _Search(rule, mu, sel, WelfareMode.SINGLE, tol, 0, budget)
        try:
            cert = run(search, *args)
        except Exception as exc:  # the error's type is part of the outcome
            return type(exc), search.used
        return (cert.dumps() if cert is not None else None), search.used

    def _compare(self, rule, mu, sel, tol, budget):
        """The outcome, which both orders must share; the last error the reference handed over;
        the expansive errors in dispatch order."""
        n = mu.shape[0]
        grid = simplex_lattice(n, 101 if n == 2 else 41)
        kinds, mags = classify_batch(rule, mu, grid, tol)
        census = {"expansive": int(np.count_nonzero(kinds == 1)), "contractive": int(np.count_nonzero(kinds == 2))}
        verdict = None if n == 2 else is_occasionally_stubborn(rule, mu, tol=max(tol, 1e-9))
        star = None if verdict is None else verdict.x_star
        trail = []
        got = self._outcome(_single_mode_recipes, rule, mu, sel, tol, budget, grid, kinds, mags, census, verdict)
        want = self._outcome(_error_by_error, rule, mu, sel, tol, budget, grid, kinds, mags, census, star, trail)
        assert got == want, (rule.to_json(), mu.tolist(), sel, tol, budget, trail[-1:])
        expansive = np.flatnonzero(kinds == 1)
        return want, (trail or [None])[-1], grid[expansive[np.lexsort((expansive, -mags[expansive]))]]

    @staticmethod
    def _from_block(result, last) -> bool:
        """A certificate that an expansive error after the first one made."""
        from_expansive = isinstance(result, str) and json.loads(result)["recipe"].startswith("claim")
        return from_expansive and last[0] == 1 and last[1] >= 1

    @staticmethod
    def _walk_log(monkeypatch, recipe: str) -> list:
        """As they happen: the rows of every block handed to the auditor's ``recipe`` (``_rows``), and
        "raise" for every evaluation of the auditor's that raises NonFiniteImage."""
        log, handed = [], getattr(auditor, recipe)

        def spy_recipe(search, X0, *args):
            log.append(_rows(X0))
            return handed(search, X0, *args)

        def spy(*args):
            try:
                return evaluate_batch(*args)
            except NonFiniteImage:
                log.append("raise")
                raise

        monkeypatch.setattr(auditor, recipe, spy_recipe)
        monkeypatch.setattr(auditor, "evaluate_batch", spy)
        return log

    @staticmethod
    def _walk(rows: np.ndarray, last: int, raised: bool) -> list:
        """The log of a dispatch whose expansive block fails: the first error alone; the block of the others,
        whose evaluation raises; then each of them alone up to error ``last``, whose own evaluation raises
        when ``raised``."""
        log = [_rows(rows[:1])]
        if last >= 1:
            log += [_rows(rows[1:_MAX_DISPATCH]), "raise"] + [_rows(rows[e : e + 1]) for e in range(1, last + 1)]
        return log + ["raise"] * raised

    def test_matches_the_error_by_error_order(self, monkeypatch):
        log = self._walk_log(monkeypatch, "_audit_expansive")
        later, failed_later, exhausted, certs, passes = 0, 0, 0, 0, 0
        for i in range(120):
            rng = np.random.default_rng(12000 + i)
            n = (2, 2, 3, 4)[i % 4]
            # Two-state Grether rules under LEX_LAST are often certified by a later expansive error.
            family = ("grether", "shrinkage", "occ-coarse" if n == 2 else "occ-stubborn")[0 if i % 4 == 0 else i // 4 % 3]
            rule, mu = random_rule(family, n, rng), rng.dirichlet(np.full(n, 4.0))
            policy = (SelectorPolicy.LEX_FIRST, SelectorPolicy.LEX_LAST)[1 if i % 4 == 0 else int(rng.integers(2))]
            sel = Selector(policy, tie_tol=(1e-10, 0.01, 0.05)[int(rng.integers(3))])
            tol = (1e-9, 1e-6)[int(rng.integers(2))]
            budget = (3, 10, 40)[int(rng.integers(3))]  # each can run out inside the block
            (result, _), last, rows = self._compare(rule, mu, sel, tol, budget)
            certs += isinstance(result, str)
            passes += result is None
            exhausted += result is BudgetExhausted and last is not None and last[0] == 1 and last[1] >= 2
            if self._from_block(result, last):
                later += 1
                # The same rule failing at the scaffold points of the last dispatched
                # error that no error up to the certifying one has: the block's one
                # evaluation raises, the errors are handed over alone up to the
                # certifying one, and the certificate must still come.
                tried = [rho.support[1:] for x0 in rows[: last[1] + 1] for rho in _one_error_scaffolds(mu, x0)]
                last_x0 = rows[min(rows.shape[0], _MAX_DISPATCH) - 1]
                failing = [p for rho in _one_error_scaffolds(mu, last_x0) for p in rho.support[1:]]
                failing = [p for p in failing if not any(np.any(np.all(t == p, axis=1)) for t in tried)]
                if failing:
                    log.clear()
                    kept = self._compare(_NonFiniteAt(rule, np.array(failing)), mu, sel, tol, budget)[0][0] == result
                    assert log == self._walk(rows, last[1], raised=False), (i, log)
                    failed_later += kept
        assert later >= 2 and failed_later >= 2 and exhausted >= 5 and certs >= 30 and passes >= 20, (
            later, failed_later, exhausted, certs, passes
        )

    def test_a_contractive_block_past_its_first_error(self):
        # Clipped errors lead each two-state contractive block and never certify:
        # certificates and spent budgets come from a later error of the block.
        later, exhausted = 0, 0
        for i in range(24):
            rng = np.random.default_rng(12800 + i)
            m = float(rng.uniform(0.15, 0.85))
            rule, mu = _ClippedShrinkage.draw(rng, m), np.array([m, 1.0 - m])
            policy = (SelectorPolicy.LEX_FIRST, SelectorPolicy.LEX_LAST)[int(rng.integers(2))]
            sel = Selector(policy, tie_tol=(1e-10, 0.01, 0.05)[int(rng.integers(3))])
            tol, budget = (1e-9, 1e-6)[int(rng.integers(2))], (3, 10, 40)[int(rng.integers(3))]
            (result, _), last, _ = self._compare(rule, mu, sel, tol, budget)
            past = last is not None and last[0] == 2 and last[1] >= 1
            later += past and isinstance(result, str) and json.loads(result)["recipe"].startswith("lemma3")
            exhausted += past and result is BudgetExhausted
        assert later >= 3 and exhausted >= 3, (later, exhausted)

    def test_an_image_that_fails_at_a_later_error(self, monkeypatch):
        log = self._walk_log(monkeypatch, "_audit_expansive")
        # The block's one evaluation raises NonFiniteImage at the points of the last
        # scaffold width of the third dispatched error; the errors are handed over
        # alone, and the third one's evaluation raises before any of its widths runs
        # a branch, as the points-first reference does.  The reference's earlier
        # widths reach their branches when x0's image is off that scaffold, and a tie
        # tolerance of 10 lets nothing certify.
        raised = 0
        for i in range(12):
            rng = np.random.default_rng(12500 + i)
            n = 2 + i % 3
            inner, mu = random_rule("grether", n, rng), rng.dirichlet(np.full(n, 4.0))
            rows = self._compare(inner, mu, Selector(), 1e-9, 1)[2]
            scaffolds = list(_one_error_scaffolds(mu, rows[2])) if rows.shape[0] >= 3 else []
            img = evaluate_batch(inner, mu, rows[2:3])[0]
            if len(scaffolds) < 2 or not banished(img, scaffolds[-1].support):
                continue
            log.clear()
            rule = _NonFiniteAt(inner, scaffolds[-1].support[1:])
            (result, _), last, _ = self._compare(rule, mu, Selector(tie_tol=10.0), 1e-9, 10_000)
            if result is NonFiniteImage and last == (1, 2):
                assert log == self._walk(rows, 2, raised=True), (i, log)
                raised += 1
        assert raised >= 8, raised

    def test_a_block_with_scaffolds_that_merge_atoms(self, monkeypatch):
        # A prior coordinate near 1e-9 fits the scaffold points only at steps so small
        # that PosteriorDistribution merges atoms within TOL_GEO.  The block's one
        # evaluation must take, bitwise, the rows each error's own scaffolds give: every
        # x0, then per width the points the support keeps and the moved points they make.
        evaluated = []

        def spy(d, mu, X):
            evaluated.append(np.array(X))
            return evaluate_batch(d, mu, X)

        monkeypatch.setattr(auditor, "evaluate_batch", spy)
        merged = 0
        for i in range(30):
            rng = np.random.default_rng(13000 + i)
            n = 3 + i % 2
            mu = rng.dirichlet(np.full(n, 4.0))
            mu[i % n] = 10 ** rng.uniform(-9.5, -8)
            mu /= mu.sum()
            rule = random_rule(("grether", "shrinkage", "occ-stubborn")[i % 3], n, rng)
            grid = simplex_lattice(n, 11)
            support, probs = _scaffolds(mu, grid)
            near = np.max(np.abs(support[:, :, :, None] - support[:, :, None]), axis=4) <= TOL_GEO
            merging = np.flatnonzero((~np.isnan(probs[:, :, 0]) & (np.count_nonzero(near, axis=(2, 3)) > n)).any(axis=1))
            block = grid[np.concatenate([merging[:8], rng.choice(grid.shape[0], 8, replace=False)])]
            want = [block]
            for x0 in block:
                for rho in _one_error_scaffolds(mu, x0):
                    target = rho.support[1:].mean(axis=0)
                    want += [rho.support[1:], _MOVES[:, None] * x0 + (1.0 - _MOVES)[:, None] * target]
                    merged += rho.size < n

            def one_at_a_time(search, X0):
                return next((c for c in (_weights_first_expansive(search, x0) for x0 in X0) if c is not None), None)

            evaluated.clear()
            got = self._outcome(_audit_expansive, rule, mu, Selector(), 1e-9, 60, block)
            assert evaluated[0].tobytes() == np.concatenate(want).tobytes(), i
            assert got == self._outcome(one_at_a_time, rule, mu, Selector(), 1e-9, 60, block), i
        assert merged >= 100, merged


class TestContractiveBlock:
    """On two states ``_audit_contractive`` plans its whole block; it must return the certificate bytes,
    charge the budget and raise the error of ``oracles.contractive_two_state_by_error`` run one error at a
    time, with two evaluations for the block's rungs and sub-rungs when nothing raises."""

    FAMILIES = ("grether", "shrinkage", "occ-coarse", "clipped")

    @classmethod
    def _block(cls, i):
        """Case i's rule, prior, tol and dispatched contractive rows, largest first; its generator."""
        rng = np.random.default_rng(14000 + i)
        m = float(rng.uniform(0.15, 0.85))
        mu, family = np.array([m, 1.0 - m]), cls.FAMILIES[i % 4]
        if family == "clipped":  # half of them with threshold steps
            rule = _ClippedShrinkage.draw(rng, m, step=bool(rng.integers(2)))
        else:
            rule = random_rule(family, 2, rng)
        tol = (1e-9, 1e-6)[i // 4 % 2]
        grid = simplex_lattice(2, 101)
        kinds, mags = classify_batch(rule, mu, grid, tol)
        idx = np.flatnonzero(kinds == 2)
        return rule, mu, tol, grid[idx[np.lexsort((idx, -mags[idx]))][:_MAX_DISPATCH]], rng

    @staticmethod
    def _by_error(search, X0, trail: list):
        for x0, img0 in zip(X0, evaluate_batch(search.d, search.mu, X0)):
            trail.append(x0)
            cert = contractive_two_state_by_error(search, x0, img0)
            if cert is not None:
                return cert
        return None

    def _compare(self, rule, mu, sel, tol, budget, X0):
        """The outcome, which the block and the reference must share; how many errors the reference handed over."""
        trail = []
        got = TestWholeDispatch._outcome(_audit_contractive, rule, mu, sel, tol, budget, X0)
        want = TestWholeDispatch._outcome(self._by_error, rule, mu, sel, tol, budget, X0, trail)
        assert got == want, (rule.to_json(), mu.tolist(), sel, tol, budget, X0[:, 0].tolist())
        return want, len(trail)

    @staticmethod
    def _ladder(rule, mu, x0, tol):
        """The rows of x0's rungs and of the sub-rungs of its non-step rungs, as the reference builds them."""
        z, zhat = float(x0[0]), float(evaluate_batch(rule, mu, x0[None, :])[0, 0])
        rungs = zhat + (z - zhat) * np.arange(1, 9) / 9.0
        hats = evaluate_batch(rule, mu, np.stack([rungs, 1.0 - rungs], axis=1))[:, 0]
        steps = (1.0 if z > float(mu[0]) else -1.0) * (hats - zhat) > tol
        subs = (hats[:, None] + (rungs - hats)[:, None] * np.arange(1, 6) / 6.0)[~steps].ravel()
        return np.stack([rungs, 1.0 - rungs], axis=1), np.stack([subs, 1.0 - subs], axis=1)

    def test_matches_the_per_error_reference(self):
        outcomes, blocks = set(), 0
        for i in range(288):
            rule, mu, tol, X0, _ = self._block(i)
            if not X0.shape[0]:
                continue
            policy = (SelectorPolicy.LEX_FIRST, SelectorPolicy.LEX_LAST)[i // 8 % 2]
            sel = Selector(policy, tie_tol=(1e-10, 0.01, 0.05)[i // 16 % 3])
            (result, _), _ = self._compare(rule, mu, sel, tol, (1, 3, 10, 40)[i // 48 % 4], X0)
            outcomes.add((self.FAMILIES[i % 4], json.loads(result)["recipe"] if isinstance(result, str) else result))
            blocks += 1
        # Every family but the interval rules certifies and runs out of budget, the clipped rules also at a
        # threshold step; the interval rules always pass.
        want = {(f, r) for f in ("grether", "shrinkage", "clipped") for r in ("lemma3-ternary", BudgetExhausted)}
        want |= {("clipped", "lemma3-threshold"), ("occ-coarse", None)}
        assert blocks >= 200 and want <= outcomes, (blocks, sorted(map(str, outcomes)))

    def test_a_failing_evaluation_raises_where_the_reference_does(self, monkeypatch):
        # NaN at the rung points, then at the sub-rung points, of the first, third and
        # last dispatched error: the block's batched call raises, the errors are handed
        # over alone up to the one that certifies or raises, and the outcome is the
        # reference's.
        log = TestWholeDispatch._walk_log(monkeypatch, "_audit_contractive_two_state")
        raised, certified_first, fell_back = 0, 0, 0
        for i in range(24):
            inner, mu, tol, X0, rng = self._block(i)
            E = X0.shape[0]
            rows = np.concatenate([X0] + [self._ladder(inner, mu, x0, tol)[0] for x0 in X0])
            for k in sorted({0, 2, E - 1} & set(range(E))):
                rungs, sub_rungs = self._ladder(inner, mu, X0[k], tol)
                # Sub-rungs that are no rung or error of the block: only the block's second call meets them.
                sub_rungs = sub_rungs[~np.all(sub_rungs[:, None] == rows[None], axis=2).any(axis=1)]
                for points in (rungs, sub_rungs):
                    if not points.shape[0]:
                        continue
                    log.clear()
                    sel = Selector(tie_tol=(1e-10, 0.05)[int(rng.integers(2))])
                    (result, _), handed = self._compare(_NonFiniteAt(inner, points), mu, sel, tol, 40, X0)
                    raised += result is NonFiniteImage
                    certified_first += isinstance(result, str) and k >= 1
                    # The block, whose rungs or sub-rungs raise; then, unless it is one error, each
                    # error alone up to the one that certifies or, with its own call, raises.
                    walk = [_rows(X0[e : e + 1]) for e in range(handed)] + ["raise"] * (result is NonFiniteImage)
                    assert log == [_rows(X0), "raise"] + (walk if E > 1 else []), (i, k, log)
                    fell_back += E > 1
        assert raised >= 40 and certified_first >= 10 and fell_back >= 80, (raised, certified_first, fell_back)

    @pytest.mark.parametrize("size", [1, 2, 15, 16])
    def test_a_block_makes_at_most_three_evaluations(self, monkeypatch, size):
        calls = []

        def spy(d, mu, X):
            calls.append(X.shape[0])
            return evaluate_batch(d, mu, X)

        monkeypatch.setattr(auditor, "evaluate_batch", spy)
        blocks, whole = 0, 0
        for i in range(48):
            rule, mu, tol, X0, _ = self._block(i)
            if X0.shape[0] < size:
                continue
            calls.clear()
            TestWholeDispatch._outcome(_audit_contractive, rule, mu, Selector(), tol, 40, X0[:size])
            # X0's images, every rung, then every sub-rung of a non-step rung
            assert calls[:2] == [size, 8 * size] and len(calls) <= 3, (i, calls)
            blocks += 1
            whole += len(calls) == 3
        assert blocks >= 30 and whole >= 30, (blocks, whole)
