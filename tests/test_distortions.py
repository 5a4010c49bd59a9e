"""Rule families, error classification, and the structural checkers."""

import json

import numpy as np
import pytest

from blackwell_audit import distortions
from blackwell_audit.distortions import (
    BayesRule,
    CoarseRule,
    Distortion,
    GretherRule,
    GridMiss,
    NonFiniteImage,
    ShrinkageRule,
    StubbornRule,
    StubbornSpec,
    TabulatedRule,
    TrivialRule,
    WrongDimension,
    classify_batch,
    classify_error,
    evaluate,
    evaluate_batch,
    is_affine,
    is_occasionally_coarse,
    is_occasionally_stubborn,
    is_trivial_on_interior,
    parse_rule,
    pushforward,
    random_rule,
    rule_from_json,
    stubborn_example_a,
    stubborn_example_b,
)
from blackwell_audit.geometry import TOL_GEO, _coerce, simplex_lattice
from blackwell_audit.experiments import PosteriorDistribution, PriorNotInterior, is_mpc
from blackwell_audit.decision import (
    DecisionProblem,
    Selector,
    WelfareMode,
    expected_payoff,
)

MU2 = (0.5, 0.5)
MU3 = (1 / 3, 1 / 3, 1 / 3)


class TestEvaluate:
    def test_bayes_identity(self):
        rng = np.random.default_rng(0)
        X = rng.dirichlet(np.ones(3), size=20)
        assert np.allclose(evaluate_batch(BayesRule(3), MU3, X), X)

    def test_grether_overreaction(self):
        img = evaluate(GretherRule(2.0, 1.0, 2), MU2, (0.7, 0.3))
        assert img.coords[0] == pytest.approx(0.49 / 0.58, abs=1e-12)
        assert img.coords[1] == pytest.approx(0.09 / 0.58, abs=1e-12)

    def test_grether_fixes_vertices(self):
        for n in (2, 3):
            rule = GretherRule(2.0, 1.5, n)
            mu = np.full(n, 1.0 / n)
            for i in range(n):
                e = np.eye(n)[i]
                assert evaluate(rule, mu, e).allclose(e)

    def test_coarse_piecewise_cases(self):
        rule = CoarseRule(0.3, 0.7, 0.2, 0.8)
        assert evaluate(rule, MU2, (0.1, 0.9)).allclose((0.3, 0.7))
        assert evaluate(rule, MU2, (0.5, 0.5)).allclose((0.5, 0.5))
        assert evaluate(rule, MU2, (0.0, 1.0)).allclose((0.2, 0.8))
        assert evaluate(rule, MU2, (1.0, 0.0)).allclose((0.8, 0.2))
        assert evaluate(rule, MU2, (0.95, 0.05)).allclose((0.7, 0.3))

    def test_coarse_parameter_validation(self):
        with pytest.raises(ValueError):
            CoarseRule(0.7, 0.3, 0.2, 0.8)
        with pytest.raises(ValueError):
            CoarseRule(0.3, 0.7, 0.5, 0.8)

    def test_shrinkage_pull(self):
        img = evaluate(ShrinkageRule(0.5, 2), MU2, (0.9, 0.1))
        assert img.allclose((0.7, 0.3))

    def test_trivial_constant(self):
        rule = TrivialRule((0.2, 0.3, 0.5))
        assert evaluate(rule, MU3, (0.9, 0.05, 0.05)).allclose((0.2, 0.3, 0.5))

    def test_requires_interior_prior(self):
        with pytest.raises(PriorNotInterior):
            evaluate(BayesRule(2), (1.0, 0.0), (0.5, 0.5))
        for bad in (np.nan, np.inf, -np.inf):  # the Bayes map would hand the query back
            with pytest.raises(PriorNotInterior):
                evaluate_batch(BayesRule(3), [bad, 0.5, 0.5], [[0.2, 0.3, 0.5]])

    def test_grether_rejects_non_finite_parameters(self):
        for alpha, beta in ((float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0), (2.0, float("inf"))):
            with pytest.raises(ValueError):
                GretherRule(alpha, beta, 3)

    @pytest.mark.parametrize("family", ["bayes", "occ-coarse", "occ-stubborn", "grether", "shrinkage", "trivial", "tabulated"])
    def test_batch_invariant(self, family):
        # Random search screens a block of posteriors with one apply_batch
        # call; each row's image must not depend on the other rows, on the
        # batch size or on the memory layout.
        rng = np.random.default_rng(sum(map(ord, family)))
        for _ in range(20):
            n = 2 if family == "occ-coarse" else int(rng.integers(3, 6))
            X = rng.dirichlet(np.ones(n), size=40)
            X[:n] = np.eye(n)  # vertices
            for r in range(n, 2 * n + 6):  # faces: one to n - 1 coordinates zeroed
                X[r, rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = 0.0
                X[r] /= X[r].sum()
            if family == "bayes":
                rule = BayesRule(n)
            elif family == "tabulated":
                rule = TabulatedRule(X, rng.dirichlet(np.ones(n), size=len(X)), tol=1e-12)
            else:
                rule = random_rule(family, n, rng)
            mu = rng.dirichlet(np.full(n, 3.0))
            rows = np.vstack([rule.apply_batch(mu, X[r : r + 1]) for r in range(len(X))])
            assert np.array_equal(rule.apply_batch(mu, X), rows)
            assert np.array_equal(rule.apply_batch(mu, np.asfortranarray(X)), rows)

    def test_gate_hands_families_float64_and_checks_the_prior_first(self):
        seen = []

        class Spy(Distortion):
            n = 2

            def apply_batch(self, mu, X):
                seen.append((mu.dtype, X.dtype))
                return X.copy()

        assert evaluate_batch(Spy(), [0.5, 0.5], [[1, 0], [0, 1]]).dtype == np.float64
        assert evaluate(Spy(), (0.5, 0.5), (1, 0)).allclose((1.0, 0.0))
        assert seen == [(np.float64, np.float64)] * 2
        with pytest.raises(PriorNotInterior):
            evaluate_batch(Spy(), (1, 0), [[0.5, 0.5]])
        assert len(seen) == 2  # the rule never ran

    @pytest.mark.parametrize("alpha,beta", [(2.0, 800.0), (1000.0, 1.0)])
    def test_non_finite_images_raise_at_the_gate(self, alpha, beta):
        # mu**800 underflows to 0/0 everywhere; (x/mu)**1000 overflows where x/mu > 1.
        X = simplex_lattice(3, 41)
        with pytest.raises(NonFiniteImage):
            evaluate_batch(GretherRule(alpha, beta, 3), MU3, X)
        with pytest.raises(NonFiniteImage):
            classify_batch(GretherRule(alpha, beta, 3), MU3, X)

    def test_tabulated_lookup_and_miss(self):
        rule = TabulatedRule([(0.25, 0.75), (0.75, 0.25)], [(0.3, 0.7), (0.7, 0.3)], tol=0.05)
        assert evaluate(rule, MU2, (0.26, 0.74)).allclose((0.3, 0.7))
        with pytest.raises(GridMiss):
            evaluate(rule, MU2, (0.5, 0.5))


def _row_loop_lookup(rule: TabulatedRule, X: np.ndarray) -> np.ndarray:
    """TabulatedRule.apply_batch as it was, one row at a time; kept as the reference."""
    X = np.atleast_2d(X)
    out = np.empty_like(X)
    for r, x in enumerate(X):
        dist = np.max(np.abs(rule.nodes - x), axis=1)
        j = int(np.argmin(dist))
        if dist[j] > rule.tol:
            raise GridMiss(f"tabulated rule queried off its nodes: {x} is {dist[j]:.3e} from the nearest")
        out[r] = rule.images[j]
    return out


class TestTabulatedLookup:
    """The chunked nearest-node search picks the row loop's node, bitwise, and
    raises the loop's GridMiss at the first off-node row, whatever the chunk size.
    A row holding NaN, which the loop answered with the first node's image,
    raises GridMiss naming that row."""

    @staticmethod
    def _queries(rng, nodes, tol):
        """Nodes, points near nodes, midpoints of node pairs (ties) and random
        beliefs, split into those within tol of a node and those beyond."""
        n = nodes.shape[1]
        i, j = rng.integers(len(nodes), size=(2, 300))
        near = nodes[i] + rng.uniform(-0.5, 0.5, size=(300, n)) * tol
        pool = np.vstack([nodes[i], near, 0.5 * (nodes[i] + nodes[j]), rng.dirichlet(np.ones(n), size=300)])
        dist = np.max(np.abs(pool[:, None, :] - nodes[None, :, :]), axis=2)
        nearest = dist.min(axis=1)
        ties = np.sum(dist == nearest[:, None], axis=1) > 1
        return pool[nearest <= tol], pool[nearest > tol], int(np.sum(ties & (nearest <= tol)))

    def test_matches_the_row_loop(self, monkeypatch):
        rng = np.random.default_rng(41)
        for n in (2, 3, 4):
            lattice = simplex_lattice(n, 9)
            nodes = lattice[rng.random(len(lattice)) < 0.7]  # the gaps leave beliefs off every node
            tol = 0.6 / 8  # a midpoint of two neighbouring nodes is 0.5 / 8 from both
            rule = TabulatedRule(nodes, rng.dirichlet(np.ones(n), size=len(nodes)), tol)
            on, off, ties = self._queries(rng, nodes, tol)
            assert len(on) >= 1000 and len(off) >= 100 and ties >= 50, (n, len(on), len(off), ties)
            for cells in (distortions._LOOKUP_CELLS, 7 * len(nodes), 1):
                monkeypatch.setattr(distortions, "_LOOKUP_CELLS", cells)
                assert rule.apply_batch(None, on).tobytes() == _row_loop_lookup(rule, on).tobytes()
                with_nan = np.vstack([on[:5], np.full(n, np.nan), on[5:10]])  # a NaN query is near no node
                with pytest.raises(GridMiss) as got:
                    rule.apply_batch(None, with_nan)
                assert str(got.value) == f"tabulated rule queried off its nodes: {with_nan[5]} is nan from the nearest"
                for _ in range(10):
                    batch = np.vstack([on[rng.integers(len(on), size=40)], off[rng.integers(len(off), size=3)]])
                    batch = batch[rng.permutation(len(batch))]
                    with pytest.raises(GridMiss) as want:
                        _row_loop_lookup(rule, batch)
                    with pytest.raises(GridMiss) as got:
                        rule.apply_batch(None, batch)
                    assert str(got.value) == str(want.value)
            with pytest.raises(ValueError):
                rule.apply_batch(None, np.full((2, n + 1), 1.0 / (n + 1)))


class TestStubbornFamily:
    def test_example_a_pointwise(self):
        rule = stubborn_example_a()
        assert evaluate(rule, MU3, (0.4, 0.4, 0.2)).allclose((0.2, 1 / 3, 1 - 0.2 - 1 / 3))
        assert evaluate(rule, MU3, (1, 0, 0)).allclose((1, 0, 0))
        assert evaluate(rule, MU3, (0, 1, 0)).allclose((0.3, 0.5, 0.2))
        assert evaluate(rule, MU3, (0, 0, 1)).allclose((0.2, 1 / 6, 1 - 0.2 - 1 / 6))
        # Edges collapse too.
        assert evaluate(rule, MU3, (0.5, 0.5, 0)).allclose((0.2, 1 / 3, 1 - 0.2 - 1 / 3))

    def test_example_b_pointwise(self):
        rule = stubborn_example_b()
        star = (0.5, 0.5, 0.0)
        assert evaluate(rule, MU3, (0.2, 0.3, 0.5)).allclose(star)
        # Split edge: collapse toward the second vertex, identity beyond.
        assert evaluate(rule, MU3, (0.3, 0.7, 0.0)).allclose(star)
        assert evaluate(rule, MU3, (0.7, 0.3, 0.0)).allclose((0.7, 0.3, 0.0))
        # The fully-correct edge.
        assert evaluate(rule, MU3, (0.4, 0.0, 0.6)).allclose((0.4, 0.0, 0.6))
        # Remaining edge collapses.
        assert evaluate(rule, MU3, (0.0, 0.4, 0.6)).allclose(star)
        assert evaluate(rule, MU3, (0, 1, 0)).allclose((0.3, 0.7, 0.0))

    def test_spec_validation(self):
        with pytest.raises(WrongDimension):
            StubbornSpec((0.5, 0.5))
        with pytest.raises(ValueError):
            # Vertex of an identity face cannot carry an error image.
            StubbornSpec(
                (0.2, 0.3, 0.5),
                vertex_images={0: (0.5, 0.2, 0.3)},
                identity_faces=[(0, 1)],
            )
        with pytest.raises(ValueError):
            # Vertex image less extreme than the common point.
            StubbornSpec((0.6, 0.2, 0.2), vertex_images={0: (0.4, 0.3, 0.3)})
        with pytest.raises(ValueError):
            # Split edge must contain the common point.
            StubbornSpec((0.2, 0.3, 0.5), edge_case=((0, 1), 0))


class TestPushforward:
    def test_bayes_identity(self):
        rho = PosteriorDistribution([(0.7, 0.3), (0.3, 0.7)], [0.5, 0.5])
        out = pushforward(BayesRule(2), MU2, rho)
        assert np.allclose(out.support, rho.support)
        assert np.allclose(out.probs, rho.probs)

    def test_trivial_collapses_everything(self):
        rho = PosteriorDistribution([(0.7, 0.3), (0.3, 0.7)], [0.5, 0.5])
        out = pushforward(TrivialRule((0.4, 0.6)), MU2, rho)
        assert out.size == 1
        assert out.probs[0] == pytest.approx(1.0)

    def test_grether_two_points(self):
        rho = PosteriorDistribution([(0.7, 0.3), (0.3, 0.7)], [0.5, 0.5])
        out = pushforward(GretherRule(2.0, 1.0, 2), MU2, rho)
        assert out.support[0][0] == pytest.approx(0.49 / 0.58)
        assert out.support[1][0] == pytest.approx(0.09 / 0.58)

    def test_mass_and_support_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            pts = rng.dirichlet(np.ones(3), size=k)
            rho = PosteriorDistribution(pts, rng.dirichlet(np.ones(k)))
            out = pushforward(ShrinkageRule(0.3, 3), MU3, rho)
            assert out.probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert out.size <= rho.size


class TestClassifyError:
    def test_bayes_everywhere_none(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            n = int(rng.integers(2, 5))
            mu = rng.dirichlet(np.ones(n))
            x = rng.dirichlet(np.ones(n))
            assert classify_error(BayesRule(n), mu, x).kind == "none"

    def test_shrinkage_contractive_with_witness(self):
        rng = np.random.default_rng(7)
        rule = ShrinkageRule(0.5, 3)
        for _ in range(500):
            mu = rng.dirichlet(np.ones(3))
            x = rng.dirichlet(np.ones(3))
            if np.max(np.abs(x - mu)) < 1e-6:
                continue
            err = classify_error(rule, mu, x)
            assert err.kind == "contractive"
            assert err.witness_lambda == pytest.approx(0.5, abs=1e-7)

    def test_grether_expansive(self):
        err = classify_error(GretherRule(2.0, 1.0, 2), MU2, (0.7, 0.3))
        assert err.kind == "expansive"

    def test_image_at_prior_counts_as_contractive(self):
        err = classify_error(TrivialRule((0.5, 0.5)), MU2, (0.9, 0.1))
        assert err.kind == "contractive"
        assert err.witness_lambda == pytest.approx(0.0, abs=1e-9)


def _reference_classify_batch(d, mu, X, tol=TOL_GEO):
    """The census that located every row against its segment; returns (kinds, images, lambdas)."""
    mua = _coerce(mu)
    X = np.asarray(X, dtype=np.float64)
    imgs = evaluate_batch(d, mua, X)
    err = np.max(np.abs(imgs - X), axis=1) > tol
    dx = X - mua
    di = imgs - mua
    denom = np.sum(dx * dx, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = np.where(denom > 0.0, np.sum(di * dx, axis=1) / np.where(denom > 0, denom, 1.0), 0.0)
    lam = np.clip(lam, 0.0, 1.0)
    resid = np.max(np.abs(lam[:, None] * X + (1.0 - lam[:, None]) * mua - imgs), axis=1)
    kinds = np.zeros(X.shape[0], dtype=np.int8)
    kinds[err & (resid <= tol)] = 2
    kinds[err & (resid > tol)] = 1
    return kinds, imgs, lam


class TestClassifyBatch:
    # (family, n, which lattice rows err): "none", "all" or "some".
    CASES = [
        ("bayes", 2, "none"), ("bayes", 3, "none"), ("bayes", 4, "none"),
        ("shrinkage", 3, "all"), ("shrinkage", 4, "all"), ("trivial", 3, "all"),
        ("grether", 2, "some"), ("grether", 3, "some"), ("grether", 4, "some"), ("grether", 5, "some"),
        ("occ-coarse", 2, "some"), ("occ-stubborn", 3, "some"), ("occ-stubborn", 4, "some"),
    ]

    @staticmethod
    def _draws(family, n, share, tol, seed, count=3):
        """``count`` (rule, prior) pairs at Dirichlet(4) priors whose lattice rows err as ``share`` says."""
        rng = np.random.default_rng(seed)
        X = simplex_lattice(n, {2: 201, 3: 61, 4: 31, 5: 11}[n])
        out = []
        while len(out) < count:
            d = BayesRule(n) if family == "bayes" else random_rule(family, n, rng)
            mu = rng.dirichlet(np.ones(n) * 4.0)
            erring = np.mean(np.max(np.abs(evaluate_batch(d, mu, X) - X), axis=1) > tol)
            if {"none": erring == 0.0, "all": erring == 1.0, "some": 0.0 < erring < 1.0}[share]:
                out.append((d, mu, X))
        return out

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    @pytest.mark.parametrize("family,n,share", CASES)
    def test_bitwise_equal_to_reference(self, family, n, share, tol):
        for d, mu, X in self._draws(family, n, share, tol, seed=self.CASES.index((family, n, share))):
            kinds, mags = classify_batch(d, mu, X, tol)
            ref_kinds, imgs, _ = _reference_classify_batch(d, mu, X, tol)
            assert kinds.dtype == np.int8
            assert kinds.tobytes() == ref_kinds.tobytes()
            assert mags.tobytes() == np.max(np.abs(imgs - X), axis=1).tobytes()

    def test_residuals_near_tolerance_match_reference(self):
        # Contractive images pushed off their segment by 0.3 to 3 times tol.
        tol = 1e-6
        X = simplex_lattice(3, 21)
        mu = np.array([0.2, 0.3, 0.5])
        offsets = np.geomspace(0.3, 3.0, X.shape[0])[:, None] * tol * np.array([0.5, -1.0, 0.5])
        rule = TabulatedRule(X, 0.6 * X + 0.4 * mu + offsets, tol=1e-12)
        kinds, mags = classify_batch(rule, mu, X, tol)
        ref_kinds, imgs, _ = _reference_classify_batch(rule, mu, X, tol)
        assert kinds.tobytes() == ref_kinds.tobytes()
        assert mags.tobytes() == np.max(np.abs(imgs - X), axis=1).tobytes()
        assert np.sum(kinds == 1) > 10 and np.sum(kinds == 2) > 10

    @pytest.mark.parametrize("shift", [-5e-13, 0.0, 5e-13])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_tolerance_at_a_row_residual_is_decided_row_wise(self, monkeypatch, n, shift):
        # tol is one erring row's exact row-wise residual, so that row is contractive.  The
        # column-wise residual, also when shifted by a rounding-sized amount, must not decide it.
        X = simplex_lattice(n, {3: 41, 4: 21, 5: 11}[n])
        mu = np.arange(1.0, n + 1.0) / (n * (n + 1) / 2)
        rule = GretherRule(0.6, 1.3, n)  # under-reacts: images fall short of x, off the segment
        _, imgs, lam = _reference_classify_batch(rule, mu, X, 0.0)
        resid = np.max(np.abs(lam[:, None] * X + (1.0 - lam[:, None]) * mu - imgs), axis=1)
        mags = np.max(np.abs(imgs - X), axis=1)
        row = int(np.flatnonzero((resid > 1e-6) & (mags > 2.0 * resid))[0])
        tol = float(resid[row])
        real_columns = distortions._segment_residual
        monkeypatch.setattr(distortions, "_segment_residual", lambda *a: real_columns(*a) + shift)
        redecided = []
        real_rows = distortions._segment_residual_rows
        monkeypatch.setattr(distortions, "_segment_residual_rows", lambda *a: redecided.append(len(a[0])) or real_rows(*a))
        kinds, _ = classify_batch(rule, mu, X, tol)
        ref_kinds, _, _ = _reference_classify_batch(rule, mu, X, tol)
        assert kinds[row] == 2 and redecided
        assert kinds.tobytes() == ref_kinds.tobytes()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_images_match_reference(self, bad):
        # A non-finite image has no error class: the census raises rather than count it as none.
        X = simplex_lattice(3, 11)
        images = X.copy()
        images[::7, 0] = bad
        images[::5] = 0.5 * images[::5] + 0.5 * np.array([0.2, 0.3, 0.5])

        class Fixed(Distortion):  # a table cannot hold such images: it checks its rows
            n = 3

            def apply_batch(self, mu, X):
                return images.copy()

        for mu in ((0.2, 0.3, 0.5), (0.5, 0.3, 0.2)):
            with pytest.raises(NonFiniteImage):
                classify_batch(Fixed(), mu, X)


class TestCoarseChecker:
    def test_bayes_degenerate_intervals(self):
        v = is_occasionally_coarse(BayesRule(2), MU2, grid_size=200)
        assert v.ok and v.a == 0.0 and v.b == 1.0

    def test_family_recovery(self):
        v = is_occasionally_coarse(CoarseRule(0.3, 0.7, 0.2, 0.8), MU2, grid_size=200)
        assert v.ok
        assert v.a == pytest.approx(0.3, abs=1e-12)
        assert v.b == pytest.approx(0.7, abs=1e-12)
        assert v.u == pytest.approx(0.2) and v.v == pytest.approx(0.8)

    def test_grether_refuted_in_identity_region(self):
        v = is_occasionally_coarse(GretherRule(2.0, 1.0, 2), MU2, grid_size=200)
        assert not v.ok
        assert v.refutation[1] == "c3-identity"

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            is_occasionally_coarse(BayesRule(3), MU3)

    def test_family_members_always_pass(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            rule = random_rule("occ-coarse", 2, rng)
            mu = rng.uniform(0.15, 0.85)
            assert is_occasionally_coarse(rule, (mu, 1 - mu), grid_size=150).ok

    def test_vertex_condition_refutes(self):
        class BadVertex(CoarseRule):
            def apply_scalar(self, t):
                out = super().apply_scalar(t)
                return np.where(np.asarray(t) >= 1.0 - 1e-12, 0.5, out)

        rule = BadVertex(0.3, 0.7, 0.2, 0.8)
        v = is_occasionally_coarse(rule, MU2, grid_size=200)
        assert not v.ok and v.refutation[1] == "c4-vertices"


class TestStubbornChecker:
    def test_reference_rule_a(self):
        v = is_occasionally_stubborn(stubborn_example_a(), MU3, samples_per_face=24)
        assert v.ok
        assert v.x_star.allclose((0.2, 1 / 3, 1 - 0.2 - 1 / 3))

    def test_reference_rule_b(self):
        v = is_occasionally_stubborn(stubborn_example_b(), MU3, samples_per_face=24)
        assert v.ok
        assert v.x_star.allclose((0.5, 0.5, 0.0))

    def test_bayes_vacuous(self):
        v = is_occasionally_stubborn(BayesRule(3), MU3)
        assert v.ok and v.x_star is None

    def test_grether_refuted_on_interior(self):
        v = is_occasionally_stubborn(GretherRule(2.0, 1.0, 3), MU3)
        assert not v.ok and v.refutation[1] == "item1-common-image"

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            is_occasionally_stubborn(BayesRule(2), MU2)

    def test_family_members_always_pass(self):
        rng = np.random.default_rng(9)
        for k in range(50):
            n = 3 if k % 2 == 0 else 4
            rule = random_rule("occ-stubborn", n, rng)
            mu = np.full(n, 1.0 / n)
            v = is_occasionally_stubborn(rule, mu, samples_per_face=16)
            assert v.ok, (k, rule.spec.to_json(), v.to_json())

    def test_identity_interior_with_erring_vertex_refuted(self):
        # A correct interior cannot absorb a vertex error: the whole face
        # would have to collapse.
        class VertexOnly(BayesRule):
            def apply_batch(self, mu, X):
                out = super().apply_batch(mu, X)
                vertex = np.abs(np.asarray(X)[..., 0] - 1.0) < 1e-12
                out[vertex] = [0.6, 0.2, 0.2]
                return out

        v = is_occasionally_stubborn(VertexOnly(3), MU3)
        assert not v.ok and v.refutation[1] == "item1-common-image"


class TestTrivialAndAffine:
    def test_trivial_detection(self):
        assert is_trivial_on_interior(TrivialRule((0.2, 0.3, 0.5)), MU3)
        assert not is_trivial_on_interior(BayesRule(3), MU3)
        assert is_trivial_on_interior(stubborn_example_a(), MU3)

    def test_affine_families(self):
        assert is_affine(ShrinkageRule(0.5, 3), MU3)
        assert is_affine(BayesRule(3), MU3)
        assert is_affine(TrivialRule((0.2, 0.3, 0.5)), MU3)
        assert not is_affine(GretherRule(2.0, 1.0, 3), MU3)
        assert not is_affine(CoarseRule(0.3, 0.7, 0.2, 0.8), MU2)

    def test_affine_rules_never_lose_from_double_mistakes(self):
        # Affinity makes the twice-mistaken welfare profile convex, so no
        # contraction can beat the original distribution.
        from blackwell_audit.auditor import _moved

        rng = np.random.default_rng(10)
        sel = Selector()
        checked = 0
        while checked < 100:
            n = 2 + checked % 2
            rule = ShrinkageRule(0.5, n)
            assert is_affine(rule, np.full(n, 1.0 / n))
            payoff = rng.uniform(-1, 1, size=(int(rng.integers(2, 6)), n))
            problem = DecisionProblem(payoff)
            pts = rng.dirichlet(np.ones(n), size=n)
            w = rng.dirichlet(np.ones(n))
            rho = PosteriorDistribution(pts, w)
            mu = rho.barycenter
            if not mu.is_interior(1e-6) or rho.size < n:
                continue
            if checked % 2 == 0:
                contracted = PosteriorDistribution([mu.coords], [1.0])
            else:
                others = np.delete(rho.support, 0, axis=0)
                lam = rng.dirichlet(np.ones(others.shape[0]))
                contracted = _moved(rho, 0.7, lam, 0.7 * rho.support[0] + 0.3 * (lam @ others))
                if contracted is None:
                    continue
            assert is_mpc(contracted, rho, tol=1e-8)
            hi = expected_payoff(problem, rule, mu, sel, WelfareMode.DOUBLE, rho)
            lo = expected_payoff(problem, rule, mu, sel, WelfareMode.DOUBLE, contracted)
            assert hi >= lo - 1e-9
            checked += 1


class TestSerialization:
    def test_json_round_trips(self):
        rules = [
            BayesRule(3),
            TrivialRule((0.2, 0.3, 0.5)),
            CoarseRule(0.3, 0.7, 0.2, 0.8),
            GretherRule(2.0, 1.0, 3),
            ShrinkageRule(0.5, 4),
            stubborn_example_b(),
        ]
        rng = np.random.default_rng(3)
        for rule in rules:
            doc = json.loads(json.dumps(rule.to_json()))
            back = rule_from_json(doc, n=rule.n)
            X = rng.dirichlet(np.ones(rule.n), size=16)
            mu = np.full(rule.n, 1.0 / rule.n)
            assert np.allclose(evaluate_batch(rule, mu, X), evaluate_batch(back, mu, X))

    def test_parse_shorthand(self):
        assert isinstance(parse_rule("bayes", n=3), BayesRule)
        g = parse_rule("grether(2,1)", n=3)
        assert g.alpha == 2.0 and g.beta == 1.0
        c = parse_rule("occ-coarse(0.3,0.7,0.2,0.8)", n=2)
        assert (c.a, c.b, c.u, c.v) == (0.3, 0.7, 0.2, 0.8)
        s = parse_rule("shrinkage(0.5)", n=3)
        assert s.lam == 0.5
        t = parse_rule("trivial(0.2,0.3,0.5)", n=3)
        assert t.x_star[2] == pytest.approx(0.5)

    def test_parse_inline_json(self):
        rule = parse_rule('{"family": "grether", "alpha": 2.0, "beta": 1.0}', n=2)
        assert isinstance(rule, GretherRule)

    @pytest.mark.parametrize(
        "nodes, images, tol",
        [
            ([(0.25, 0.75)], [(-0.25, 1.25)], 0.05),  # image leaves the simplex, sum 1
            ([(0.25, 0.75)], [(0.3, 0.8)], 0.05),  # image sums to 1.1
            ([(0.25, 0.75)], [(np.nan, 0.7)], 0.05),
            ([(0.25, 0.75)], [(np.inf, -np.inf)], 0.05),
            ([(np.nan, 0.75)], [(0.3, 0.7)], 0.05),
            ([(1.5, -0.5)], [(0.3, 0.7)], 0.05),  # node leaves the simplex
            ([(0.25, 0.75)], [(0.3, 0.7)], -0.01),
            ([(0.25, 0.75)], [(0.3, 0.7)], np.inf),
            ([(0.25, 0.75)], [(0.3, 0.7)], np.nan),
        ],
    )
    def test_tabulated_table_must_hold_beliefs(self, nodes, images, tol):
        with pytest.raises(ValueError):
            TabulatedRule(nodes, images, tol)

    def test_tabulated_table_takes_what_a_belief_takes(self):
        rule = TabulatedRule([(1.0 + 1e-13, -1e-13)], [(0.3, 0.7 + 1e-10)], 0.0)
        assert evaluate_batch(rule, MU2, [(1.0 + 1e-13, -1e-13)]).tolist() == [[0.3, 0.7 + 1e-10]]

    def test_tabulated_json_reads_no_file(self, tmp_path):
        path = tmp_path / "rule.csv"
        path.write_text("0.25,0.75,0.3,0.7\n")
        with pytest.raises(KeyError):
            rule_from_json({"family": "tabulated", "csv": str(path), "tol": 0.05}, n=2)

    def test_tabulated_csv_round_trip(self, tmp_path):
        path = tmp_path / "rule.csv"
        path.write_text("# node, image\n0.25,0.75,0.3,0.7\n0.75,0.25,0.7,0.3\n")
        rule = TabulatedRule.from_csv(path, n=2, tol=0.05)
        assert evaluate(rule, MU2, (0.75, 0.25)).allclose((0.7, 0.3))
