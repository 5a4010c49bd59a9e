"""Decision problems, welfare in both mistake conventions, convexity scans."""

import numpy as np
import pytest

from blackwell_audit.decision import (
    DecisionProblem,
    Selector,
    SelectorPolicy,
    WelfareMode,
    _select_batch,
    expected_payoff,
    quadratic_loss_problem,
    welfare_batch,
)
from blackwell_audit.distortions import (
    BayesRule,
    CoarseRule,
    GretherRule,
    ShrinkageRule,
)
from blackwell_audit.experiments import (
    BarycenterMismatch,
    Experiment,
    PosteriorDistribution,
    bayes,
)
from oracles import convexity_violations, value_function

MU2 = (0.5, 0.5)
SEL = Selector()


def binary_symmetric(accuracy: float) -> Experiment:
    """Two states, two signals, P(correct signal | state) = accuracy."""
    return Experiment(np.array([[accuracy, 1.0 - accuracy], [1.0 - accuracy, accuracy]]))


def choose(p, sel, x_hat) -> int:
    """The selector's choice at one held belief: ``_select_batch`` on one row."""
    return int(_select_batch(p, sel, np.array([x_hat], dtype=np.float64))[0])


def welfare_at(p, d, mu, sel, mode, x) -> float:
    """Welfare at one posterior: ``welfare_batch`` on one row."""
    return float(welfare_batch(p, d, mu, sel, mode, [x])[0])


class TestValueFunction:
    def test_quadratic_loss_center(self):
        p = quadratic_loss_problem()
        res = value_function(p, (0.5, 0.5))
        assert res.payoff == pytest.approx(0.05, abs=1e-12)
        assert p.action_labels[res.argmax[0]] == "0.5"

    def test_single_action(self):
        p = DecisionProblem([[1.0, -1.0]])
        assert value_function(p, (0.7, 0.3)).payoff == pytest.approx(0.4)

    def test_tie_set(self):
        p = DecisionProblem([[0.0, 0.0], [0.5, -0.5]])
        res = value_function(p, (0.5, 0.5))
        assert res.argmax == (0, 1)

    def test_selector_policies_at_tie(self):
        p = DecisionProblem([[0.0, 0.0], [0.5, -0.5]])
        assert choose(p, Selector(SelectorPolicy.LEX_FIRST), (0.5, 0.5)) == 0
        assert choose(p, Selector(SelectorPolicy.LEX_LAST), (0.5, 0.5)) == 1
        pinned = Selector(SelectorPolicy.PINNED, pins=(((0.5, 0.5), 1),))
        assert choose(p, pinned, (0.5, 0.5)) == 1
        assert choose(p, pinned, (0.9, 0.1)) == 1  # unique optimum anyway

    @pytest.mark.parametrize("action", [5, -1])
    def test_pin_naming_no_action_is_ignored(self, action):
        p = DecisionProblem([[0.0, 0.0], [0.5, -0.5]])
        pinned = Selector(SelectorPolicy.PINNED, pins=(((0.5, 0.5), action),))
        assert choose(p, pinned, (0.5, 0.5)) == 0  # lex-first, as without the pin
        X = np.array([[0.5, 0.5], [0.9, 0.1]])
        assert _select_batch(p, pinned, X).tolist() == _select_batch(p, Selector(), X).tolist() == [0, 1]

    @pytest.mark.parametrize(
        "sel",
        [
            Selector(),
            Selector(SelectorPolicy.LEX_LAST, tie_tol=0.05),
            Selector(SelectorPolicy.PINNED),
            Selector(SelectorPolicy.PINNED, tie_tol=1e-6, pins=(((0.5, 0.5), 1), ((0.25, 0.75), 0))),
        ],
        ids=["lex-first", "lex-last", "pinned-no-pins", "pinned"],
    )
    def test_selector_json_round_trip(self, sel):
        assert Selector.from_json(sel.to_json()) == sel


class TestWelfare:
    def test_bayes_equals_value_function(self):
        p = quadratic_loss_problem()
        rng = np.random.default_rng(21)
        for _ in range(200):
            x = rng.dirichlet(np.ones(2))
            v = value_function(p, x).payoff
            for mode in (WelfareMode.SINGLE, WelfareMode.DOUBLE):
                assert welfare_at(p, BayesRule(2), MU2, SEL, mode, x) == pytest.approx(v, abs=1e-12)

    def test_coarse_rule_hand_computed(self):
        p = quadratic_loss_problem()
        rule = CoarseRule(0.3, 0.7, 0.2, 0.8)
        x = (0.1, 0.9)
        # Held belief 0.3 picks action 0.3; scoring it at the true belief:
        # -(0.09 * 0.9 + 0.49 * 0.1) + 0.3 = 0.17.
        assert welfare_at(p, rule, MU2, SEL, WelfareMode.SINGLE, x) == pytest.approx(0.17, abs=1e-12)
        # Double mistake re-scores at the held belief: V(0.3) = 0.09.
        assert welfare_at(p, rule, MU2, SEL, WelfareMode.DOUBLE, x) == pytest.approx(0.09, abs=1e-12)

    def test_single_mistake_never_beats_value(self):
        # A possibly suboptimal action scored at the true belief.
        rng = np.random.default_rng(22)
        rules = [ShrinkageRule(0.5, 3), GretherRule(2.0, 1.0, 3), BayesRule(3)]
        count = 0
        while count < 1000:
            p = DecisionProblem(rng.uniform(-1, 1, size=(int(rng.integers(1, 6)), 3)))
            mu = rng.dirichlet(np.ones(3))
            x = rng.dirichlet(np.ones(3))
            rule = rules[count % len(rules)]
            w = welfare_at(p, rule, mu, SEL, WelfareMode.SINGLE, x)
            assert w <= value_function(p, x).payoff + 1e-12
            count += 1

    def test_batch_matches_scalar(self):
        p = quadratic_loss_problem(n_actions=11)
        rule = ShrinkageRule(0.7, 2)
        X = np.random.default_rng(3).dirichlet(np.ones(2), size=40)
        batch = welfare_batch(p, rule, MU2, SEL, WelfareMode.SINGLE, X)
        for k in range(40):
            assert batch[k] == pytest.approx(welfare_at(p, rule, MU2, SEL, WelfareMode.SINGLE, X[k]))


class TestExpectedPayoff:
    def test_point_mass_at_prior(self):
        p = quadratic_loss_problem()
        point_mass = PosteriorDistribution([MU2], [1.0])
        assert expected_payoff(p, BayesRule(2), MU2, SEL, WelfareMode.SINGLE, point_mass) == pytest.approx(0.05)

    def test_bayes_values_information(self):
        p = quadratic_loss_problem()
        sharp = bayes(MU2, binary_symmetric(0.9))
        blurred = bayes(MU2, binary_symmetric(0.6))
        hi = expected_payoff(p, BayesRule(2), MU2, SEL, WelfareMode.SINGLE, sharp)
        lo = expected_payoff(p, BayesRule(2), MU2, SEL, WelfareMode.SINGLE, blurred)
        assert hi >= lo

    def test_barycenter_guard(self):
        p = quadratic_loss_problem()
        rho = PosteriorDistribution([(0.9, 0.1), (0.1, 0.9)], [0.7, 0.3])
        with pytest.raises(BarycenterMismatch):
            expected_payoff(p, BayesRule(2), MU2, SEL, WelfareMode.SINGLE, rho)


def brute_force_convexity_gap(w_values, xs):
    """Independent scan: worst chord violation over all grid triples."""
    worst = 0.0
    arg = None
    for i in range(len(xs)):
        for j in range(i + 2, len(xs)):
            for k in range(i + 1, j):
                lam = (xs[k] - xs[j]) / (xs[i] - xs[j])
                chord = lam * w_values[i] + (1 - lam) * w_values[j]
                gap = w_values[k] - chord
                if gap > worst:
                    worst, arg = gap, (xs[i], xs[j], xs[k])
    return worst, arg


class TestConvexityViolations:
    def test_bayes_profile_is_convex(self):
        p = quadratic_loss_problem(n_actions=21)
        out = convexity_violations(p, BayesRule(2), MU2, SEL, WelfareMode.SINGLE, grid_size=100)
        assert out == []

    def test_coarse_rule_profile_is_convex(self):
        p = quadratic_loss_problem()
        rule = CoarseRule(0.3, 0.7, 0.2, 0.8)
        out = convexity_violations(p, rule, MU2, SEL, WelfareMode.SINGLE, grid_size=200, tol=1e-9)
        assert out == []

    def test_shrinkage_with_kink_between_prior_and_posterior(self):
        # Threshold at 0.65: the rule acts only once the true state load
        # passes 0.8, producing a jump the chord test catches.  A direct
        # scan over the welfare profile confirms the violation first.
        p = DecisionProblem([[0.0, 0.0], [0.35, -0.65]])
        rule = ShrinkageRule(0.5, 2)
        xs = np.arange(201) / 200.0
        grid = np.column_stack([xs, 1.0 - xs])
        w = welfare_batch(p, rule, MU2, SEL, WelfareMode.SINGLE, grid)
        worst, arg = brute_force_convexity_gap(w, xs)
        assert worst > 1e-3, "oracle scan expected a convexity break"
        out = convexity_violations(p, rule, MU2, SEL, WelfareMode.SINGLE, grid_size=200, tol=1e-9)
        assert out
        assert max(v.gap for v in out) == pytest.approx(worst, rel=0.5)

    def test_double_mistake_affine_rule_stays_convex(self):
        rng = np.random.default_rng(23)
        rule = ShrinkageRule(0.5, 2)
        for _ in range(20):
            p = DecisionProblem(rng.uniform(-1, 1, size=(3, 2)))
            out = convexity_violations(p, rule, MU2, SEL, WelfareMode.DOUBLE, grid_size=60, tol=1e-9)
            assert out == []


class TestFivePieceProfile:
    def test_coarse_welfare_matches_piecewise_form(self):
        # Linear below a (action frozen at a), the value function between,
        # linear above b, and its own chords at the vertices.
        p = quadratic_loss_problem()
        rule = CoarseRule(0.3, 0.7, 0.2, 0.8)
        xs = np.arange(1001) / 1000.0
        grid = np.column_stack([xs, 1.0 - xs])
        w = welfare_batch(p, rule, MU2, SEL, WelfareMode.SINGLE, grid)

        def action_line(anchor):
            a_idx = choose(p, SEL, (anchor, 1.0 - anchor))
            row = p.payoff[a_idx]
            return lambda x: row[0] * x + row[1] * (1.0 - x)

        low = action_line(0.3)
        high = action_line(0.7)
        lo_vertex = action_line(0.2)
        hi_vertex = action_line(0.8)
        for x, wx in zip(xs, w):
            if x == 0.0:
                expect = lo_vertex(0.0)
            elif x < 0.3:
                expect = low(x)
            elif x <= 0.7:
                expect = value_function(p, (x, 1.0 - x)).payoff
            elif x < 1.0:
                expect = high(x)
            else:
                expect = hi_vertex(1.0)
            assert wx == pytest.approx(expect, abs=1e-9)
