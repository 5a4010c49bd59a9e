"""Rule families, error classification, and the structural checkers."""

import csv
import itertools
import json
import re

import numpy as np
import pytest

from blackwell_audit import distortions, geometry
from blackwell_audit.distortions import (
    BayesRule,
    CoarseRule,
    Distortion,
    GretherRule,
    GridMiss,
    NonFiniteImage,
    ShrinkageRule,
    StubbornRule,
    TabulatedRule,
    TrivialRule,
    WrongDimension,
    SUPPORT_TOL,
    classify_batch,
    evaluate_batch,
    affine_chords,
    is_affine,
    is_occasionally_coarse,
    is_occasionally_stubborn,
    parse_rule,
    random_rule,
    rule_from_json,
    stubborn_example_a,
    stubborn_example_b,
)
from blackwell_audit.geometry import TOL_GEO, _coerce, enumerate_faces, face_samples, on_segment, simplex_lattice
from blackwell_audit.experiments import PosteriorDistribution, PriorNotInterior
from blackwell_audit.auditor import audit
from blackwell_audit.decision import (
    DecisionProblem,
    Selector,
    WelfareMode,
    expected_payoff,
)
from oracles import StubbornLoopRule, StubbornSpec, is_mpc, is_occasionally_coarse_by_node, sup_close


def tabulated_from_csv(path, n: int, tol: float) -> TabulatedRule:
    """Load rows of 2n floats: node coordinates then image coordinates."""
    nodes = []
    images = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            vals = [float(v) for v in row]
            if len(vals) != 2 * n:
                raise ValueError(f"expected {2 * n} columns, got {len(vals)}")
            nodes.append(vals[:n])
            images.append(vals[n:])
    return TabulatedRule(nodes, images, tol)


MU2 = (0.5, 0.5)
MU3 = (1 / 3, 1 / 3, 1 / 3)


def image(d, mu, x) -> np.ndarray:
    """The rule's image of one posterior x: ``evaluate_batch`` on one row."""
    return evaluate_batch(d, mu, [x])[0]


def kind(d, mu, x) -> int:
    """The census's kind of one posterior x: ``classify_batch`` on one row (0 none, 1 expansive, 2 contractive)."""
    return int(classify_batch(d, mu, [x])[0][0])


class TestEvaluate:
    def test_bayes_identity(self):
        rng = np.random.default_rng(0)
        X = rng.dirichlet(np.ones(3), size=20)
        imgs = evaluate_batch(BayesRule(3), MU3, X)
        assert np.array_equal(imgs, X) and np.shares_memory(imgs, X)
        assert not imgs.flags.writeable and X.flags.writeable  # the image is read-only, the caller's X is not

    def test_grether_overreaction(self):
        img = image(GretherRule(2.0, 1.0, 2), MU2, (0.7, 0.3))
        assert img[0] == pytest.approx(0.49 / 0.58, abs=1e-12)
        assert img[1] == pytest.approx(0.09 / 0.58, abs=1e-12)

    def test_grether_fixes_vertices(self):
        for n in (2, 3):
            rule = GretherRule(2.0, 1.5, n)
            mu = np.full(n, 1.0 / n)
            for i in range(n):
                e = np.eye(n)[i]
                assert sup_close(image(rule, mu, e), e)

    def test_coarse_piecewise_cases(self):
        rule = CoarseRule(0.3, 0.7, 0.2, 0.8)
        assert sup_close(image(rule, MU2, (0.1, 0.9)), (0.3, 0.7))
        assert sup_close(image(rule, MU2, (0.5, 0.5)), (0.5, 0.5))
        assert sup_close(image(rule, MU2, (0.0, 1.0)), (0.2, 0.8))
        assert sup_close(image(rule, MU2, (1.0, 0.0)), (0.8, 0.2))
        assert sup_close(image(rule, MU2, (0.95, 0.05)), (0.7, 0.3))

    def test_coarse_parameter_validation(self):
        with pytest.raises(ValueError):
            CoarseRule(0.7, 0.3, 0.2, 0.8)
        with pytest.raises(ValueError):
            CoarseRule(0.3, 0.7, 0.5, 0.8)

    def test_shrinkage_pull(self):
        assert sup_close(image(ShrinkageRule(0.5, 2), MU2, (0.9, 0.1)), (0.7, 0.3))

    def test_trivial_constant(self):
        rule = TrivialRule((0.2, 0.3, 0.5))
        assert sup_close(image(rule, MU3, (0.9, 0.05, 0.05)), (0.2, 0.3, 0.5))

    def test_requires_interior_prior(self):
        with pytest.raises(PriorNotInterior):
            image(BayesRule(2), (1.0, 0.0), (0.5, 0.5))
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
                seen.append((mu.dtype, X.dtype, X.flags.writeable))
                return X.copy()

        assert evaluate_batch(Spy(), [0.5, 0.5], [[1, 0], [0, 1]]).dtype == np.float64
        assert sup_close(image(Spy(), (0.5, 0.5), (1, 0)), (1.0, 0.0))
        assert seen == [(np.float64, np.float64, False)] * 2
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

    @pytest.mark.parametrize("wrong", [lambda X: X[:, :1], lambda X: X[0]], ids=["one-column", "one-row"])
    def test_images_of_the_wrong_shape_raise_at_both_gates(self, wrong):
        class WrongShape(Distortion):
            n, family = 3, "wrong-shape"

            def apply_batch(self, mu, X):
                return np.array(wrong(X))

        X = simplex_lattice(3, 11)
        shapes = re.escape(f"images of shape {np.shape(wrong(X))} for posteriors of shape {X.shape}")
        for run in (
            lambda: evaluate_batch(WrongShape(), MU3, X),
            lambda: classify_batch(WrongShape(), MU3, X),
            lambda: audit(WrongShape(), MU3, grid_size=11, budget=10),
        ):
            with pytest.raises(ValueError, match=shapes) as raised:
                run()
            assert raised.type is ValueError

    @pytest.mark.parametrize("kind", [list, tuple])
    def test_images_that_are_no_array_raise_at_both_gates(self, kind):
        # Images of the right shape, but not an ndarray: the census would crash on them deep inside.
        class ListRule(Distortion):
            n, family = 3, "list-images"

            def apply_batch(self, mu, X):
                return kind(map(list, X))

        X = simplex_lattice(3, 11)
        for run in (
            lambda: evaluate_batch(ListRule(), MU3, X),
            lambda: classify_batch(ListRule(), MU3, X),
            lambda: audit(ListRule(), [0.2, 0.3, 0.5], grid_size=21),
        ):
            with pytest.raises(ValueError, match=f"returned a {kind.__name__}, not a numpy.ndarray") as raised:
                run()
            assert raised.type is ValueError

    def test_tabulated_lookup_and_miss(self):
        rule = TabulatedRule([(0.25, 0.75), (0.75, 0.25)], [(0.3, 0.7), (0.7, 0.3)], tol=0.05)
        assert sup_close(image(rule, MU2, (0.26, 0.74)), (0.3, 0.7))
        with pytest.raises(GridMiss):
            image(rule, MU2, (0.5, 0.5))


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
        assert sup_close(image(rule, MU3, (0.4, 0.4, 0.2)), (0.2, 1 / 3, 1 - 0.2 - 1 / 3))
        assert sup_close(image(rule, MU3, (1, 0, 0)), (1, 0, 0))
        # Erring vertices sit a quarter of the way from x* to themselves.
        assert sup_close(image(rule, MU3, (0, 1, 0)), (3 / 20, 1 / 2, 7 / 20))
        assert sup_close(image(rule, MU3, (0, 0, 1)), (3 / 20, 1 / 4, 3 / 5))
        # Edges collapse too.
        assert sup_close(image(rule, MU3, (0.5, 0.5, 0)), (0.2, 1 / 3, 1 - 0.2 - 1 / 3))

    def test_example_b_pointwise(self):
        rule = stubborn_example_b()
        star = (0.5, 0.5, 0.0)
        assert sup_close(image(rule, MU3, (0.2, 0.3, 0.5)), star)
        # Split edge: collapse toward the second vertex, identity beyond.
        assert sup_close(image(rule, MU3, (0.3, 0.7, 0.0)), star)
        assert sup_close(image(rule, MU3, (0.7, 0.3, 0.0)), (0.7, 0.3, 0.0))
        # The fully-correct edge.
        assert sup_close(image(rule, MU3, (0.4, 0.0, 0.6)), (0.4, 0.0, 0.6))
        # Remaining edge collapses.
        assert sup_close(image(rule, MU3, (0.0, 0.4, 0.6)), star)
        assert sup_close(image(rule, MU3, (0, 1, 0)), (0.3, 0.7, 0.0))

    def test_spec_validation(self):
        with pytest.raises(WrongDimension):
            StubbornRule((0.5, 0.5))
        with pytest.raises(ValueError):
            # Vertex of an identity face cannot carry an error image.
            StubbornRule(
                (0.2, 0.3, 0.5),
                vertex_images={0: (0.5, 0.2, 0.3)},
                identity_faces=[(0, 1)],
            )
        with pytest.raises(ValueError):
            # Vertex image less extreme than the common point.
            StubbornRule((0.6, 0.2, 0.2), vertex_images={0: (0.4, 0.3, 0.3)})
        with pytest.raises(ValueError, match="must lie on the segment"):
            # More extreme than the common point toward state 1, but off the segment to vertex 1.
            StubbornRule((0.2, 1 / 3, 1 - 0.2 - 1 / 3), vertex_images={1: (0.3, 0.5, 0.2)})
        # On the segment, endpoints included.
        StubbornRule((0.2, 0.3, 0.5), vertex_images={0: (1.0, 0.0, 0.0), 1: (0.2, 0.3, 0.5), 2: (0.1, 0.15, 0.75)})
        with pytest.raises(ValueError):
            # Split edge must contain the common point.
            StubbornRule((0.2, 0.3, 0.5), edge_case=((0, 1), 0))

    @staticmethod
    def _rows(rng, rule) -> list:
        """Batches for the array map: lattice rows, face samples, vertices, empty and one-row
        batches, points at the split edge's thresholds and coordinates at SUPPORT_TOL +- 1 ulp."""
        n = rule.n
        lattice = simplex_lattice(n, 7)
        samples = np.vstack([face_samples(face, n, 5) for face in enumerate_faces(n, min_dim=1)])
        batches = [lattice, samples, np.eye(n), np.empty((0, n)), lattice[:1], samples[-1:]]
        if rule.edge_case is not None:
            (i, j), extreme = rule.edge_case
            s = rule.x_star[extreme]
            cuts = [s, s + 1e-12, s - 1e-12, 1.0 - 1e-12, 1.0]
            cuts += [np.nextafter(c, side) for c in cuts for side in (0.0, 2.0)]
            edge = np.zeros((len(cuts), n))
            edge[:, extreme] = cuts
            edge[:, i + j - extreme] = 1.0 - edge[:, extreme]
            batches.append(edge)
        near = np.vstack([lattice, samples])[rng.integers(len(lattice) + len(samples), size=200)]
        cols = rng.integers(n, size=len(near))
        near[np.arange(len(near)), cols] = rng.choice(
            [SUPPORT_TOL, np.nextafter(SUPPORT_TOL, 0.0), np.nextafter(SUPPORT_TOL, 1.0)], size=len(near)
        )
        batches.append(near)
        return batches

    def test_array_map_matches_the_row_loop(self):
        # The array map against the per-row loop (``oracles.StubbornLoopRule``), bitwise.
        rng = np.random.default_rng(25)
        specs = []
        for n in (3, 4, 5, 6):
            for _ in range(25):
                r = random_rule("occ-stubborn", n, rng)
                specs.append(dict(x_star=r.x_star, vertex_images=r.vertex_images, identity_faces=r.identity_faces,
                                  edge_case=r.edge_case))
        for n in (4, 5):  # identity 2-faces, and identity vertices whose images lie within TOL_GEO of them
            xs = rng.dirichlet(np.full(n, 3.0))
            near_vertex = (1.0 - 5e-10) * np.eye(n) + 5e-10 * xs  # row i: vertex i's image, 5e-10 from it
            erring = {0: near_vertex[0], 3: 0.5 * (np.eye(n)[3] + xs)}
            specs.append(dict(x_star=xs, identity_faces=[(0, 1, 2)], vertex_images=erring))
            correct = {2: near_vertex[2], 1: np.eye(n)[1]}
            specs.append(dict(x_star=xs, identity_faces=[(0, 1, 2), (1, 3)], vertex_images=correct))
        for n, (i, j) in ((3, (0, 1)), (4, (1, 3)), (5, (2, 4))):  # split edges at both vertices
            xs = np.zeros(n)
            xs[i], xs[j] = 0.375, 0.625
            for extreme in (i, j):
                erring = {extreme: 0.5 * (np.eye(n)[extreme] + xs)}
                specs.append(dict(x_star=xs, edge_case=((i, j), extreme), vertex_images=erring))
                others = [(k,) for k in range(n) if k not in (i, j)]
                specs.append(dict(x_star=xs, edge_case=((j, i), extreme), identity_faces=others))
        splits = 0
        for spec in specs:
            rule, loop = StubbornRule(**spec), StubbornLoopRule(StubbornSpec(**spec))
            assert rule.to_json() == loop.to_json()
            mu = rng.dirichlet(np.full(rule.n, 2.0))
            splits += rule.edge_case is not None
            for X in self._rows(rng, rule):
                got, want = rule.apply_batch(mu, X), loop.apply_batch(mu, X)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (spec, X)
        assert splits >= 25


def pushforward(d, mu, rho):
    """Image of a posterior distribution under the rule (coincident images merge)."""
    return PosteriorDistribution(evaluate_batch(d, mu, rho.support), rho.probs)


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
            assert kind(BayesRule(n), mu, x) == 0

    def test_shrinkage_contractive(self):
        rng = np.random.default_rng(7)
        rule = ShrinkageRule(0.5, 3)
        for _ in range(500):
            mu = rng.dirichlet(np.ones(3))
            x = rng.dirichlet(np.ones(3))
            if np.max(np.abs(x - mu)) < 1e-6:
                continue
            assert kind(rule, mu, x) == 2

    def test_grether_expansive(self):
        assert kind(GretherRule(2.0, 1.0, 2), MU2, (0.7, 0.3)) == 1

    def test_image_at_prior_counts_as_contractive(self):
        assert kind(TrivialRule((0.5, 0.5)), MU2, (0.9, 0.1)) == 2


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

    # One census block per state count.
    GRIDS = {2: 201, 3: 61, 4: 31, 5: 11}
    # Several blocks per state count, the last one short.
    SEVERAL = {2: 100_000, 3: 301, 4: 61, 5: 31}

    @staticmethod
    def _draws(family, n, share, tol, seed, count=3, grids=GRIDS):
        """``count`` (rule, prior) pairs at Dirichlet(4) priors whose lattice rows err as ``share`` says."""
        rng = np.random.default_rng(seed)
        X = simplex_lattice(n, grids[n])
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
        for grids in (self.GRIDS, self.SEVERAL):
            rows = simplex_lattice(n, grids[n]).shape[0]
            step, blocks = self._blocks(n, rows)
            assert blocks == 1 if grids is self.GRIDS else blocks >= 2 and rows % step
            for d, mu, X in self._draws(family, n, share, tol, seed=self.CASES.index((family, n, share)), grids=grids):
                kinds, mags = classify_batch(d, mu, X, tol)
                ref_kinds, imgs, _ = _reference_classify_batch(d, mu, X, tol)
                assert kinds.dtype == np.int8
                assert kinds.tobytes() == ref_kinds.tobytes()
                assert mags.tobytes() == np.max(np.abs(imgs - X), axis=1).tobytes()

    @pytest.mark.parametrize("family,n,share", CASES)
    def test_audit_census_counts_the_reference_kinds(self, family, n, share):
        # The census is taken before any recipe runs; at budget 1 the recipes stop at once.
        [(d, mu, X)] = self._draws(family, n, share, TOL_GEO, seed=self.CASES.index((family, n, share)), count=1)
        census = audit(d, mu, grid_size=self.GRIDS[n], budget=1).error_census
        ref_kinds, _, _ = _reference_classify_batch(d, mu, X)
        assert census == {kind: int(np.count_nonzero(ref_kinds == k)) for k, kind in enumerate(("none", "expansive", "contractive"))}

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

    # Past seven states numpy's row sums round otherwise than the census's column sums.
    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 9, 12])
    def test_tolerance_at_a_row_residual_is_decided_row_wise(self, n, which):
        self._decide_at_a_row_residual(simplex_lattice(n, {3: 41, 4: 21, 5: 11, 8: 5, 9: 5, 12: 4}[n]), which)

    @staticmethod
    def _decide_at_a_row_residual(X, which):
        """Census X with tol at the exact residual of erring row number ``which``,
        so that row is contractive: on the erring rows, kinds are those of
        ``on_segment``'s residuals, ties included.  Returns the row."""
        n = X.shape[1]
        mu = np.arange(1.0, n + 1.0) / (n * (n + 1) / 2)
        rule = GretherRule(0.6, 1.3, n)  # under-reacts: images fall short of x, off the segment
        imgs = evaluate_batch(rule, mu, X)
        resid = on_segment(X, mu, imgs).resid
        mags = np.max(np.abs(imgs - X), axis=1)
        row = int(np.flatnonzero((resid > 1e-6) & (mags > resid))[which])  # erring at tol = its residual
        tol = float(resid[row])
        kinds, _ = classify_batch(rule, mu, X, tol)
        err = mags > tol
        assert kinds[row] == 2 and on_segment(X[row], mu, imgs[row]).resid == tol
        assert np.count_nonzero(kinds == 1) and np.count_nonzero(kinds == 2)
        assert kinds[err].tobytes() == np.where(resid[err] <= tol, 2, 1).astype(np.int8).tobytes()
        assert not kinds[~err].any()
        if n <= 7:  # numpy's row sums are the column sums here
            assert kinds.tobytes() == _reference_classify_batch(rule, mu, X, tol)[0].tobytes()
        return row

    # Lattices of 3, 5 and 8 census blocks (n = 3 at grid 201 is only 20,301 rows: two blocks).
    BLOCKED = [(3, 301), (4, 61), (5, 31)]

    @staticmethod
    def _blocks(n, rows):
        """The census's block length and count on ``rows`` lattice rows of n states."""
        step = distortions._CENSUS_BLOCK // n
        return step, -(-rows // step)

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    @pytest.mark.parametrize("family", ["grether", "shrinkage", "occ-stubborn"])
    @pytest.mark.parametrize("n,grid_size", BLOCKED)
    def test_several_blocks_bitwise_equal_to_reference(self, n, grid_size, family, tol):
        X = simplex_lattice(n, grid_size)
        step, blocks = self._blocks(n, X.shape[0])
        assert blocks >= 3
        rng = np.random.default_rng(grid_size)
        for _ in range(2):
            d, mu = random_rule(family, n, rng), rng.dirichlet(np.ones(n) * 4.0)
            kinds, mags = classify_batch(d, mu, X, tol)
            ref_kinds, imgs, _ = _reference_classify_batch(d, mu, X, tol)
            assert all(np.any(kinds[lo : lo + step]) for lo in range(0, X.shape[0], step))
            assert kinds.tobytes() == ref_kinds.tobytes()
            assert mags.tobytes() == np.max(np.abs(imgs - X), axis=1).tobytes()

    @pytest.mark.parametrize("which", [-1, -2, -3])
    @pytest.mark.parametrize("n,grid_size", BLOCKED)
    def test_tolerance_at_a_row_residual_in_the_last_block(self, n, grid_size, which):
        X = simplex_lattice(n, grid_size)
        step, blocks = self._blocks(n, X.shape[0])
        assert blocks >= 3 and self._decide_at_a_row_residual(X, which) >= (blocks - 1) * step

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("n,grid_size", BLOCKED)
    def test_non_finite_image_in_the_last_block_raises(self, n, grid_size, bad):
        X = simplex_lattice(n, grid_size)
        _, blocks = self._blocks(n, X.shape[0])
        last = X[-1].copy()
        calls = []

        class LastRowBad(Distortion):  # shrinks toward the prior; only the lattice's last row is non-finite
            def apply_batch(self, mu, X):
                calls.append(len(X))
                out = 0.5 * X + 0.5 * mu
                out[np.all(X == last, axis=1), 0] = bad
                return out

        with pytest.raises(NonFiniteImage):
            classify_batch(LastRowBad(), np.ones(n) / n, X)
        assert len(calls) == blocks >= 3

    @staticmethod
    def _census_counting_segments(monkeypatch, d, mu, X, tol):
        """Census X against the reference; returns the reference kinds and the
        number of ``on_segment`` calls, which must be one per block that
        holds an erring row."""
        calls = []
        real = distortions.on_segment
        monkeypatch.setattr(distortions, "on_segment", lambda *a: calls.append(len(a[0])) or real(*a))
        kinds, mags = classify_batch(d, mu, X, tol)
        ref_kinds, imgs, _ = _reference_classify_batch(d, mu, X, tol)
        assert kinds.tobytes() == ref_kinds.tobytes()
        assert mags.tobytes() == np.max(np.abs(imgs - X), axis=1).tobytes()
        step, _ = TestClassifyBatch._blocks(X.shape[1], X.shape[0])
        erring_blocks = sum(bool(np.any(ref_kinds[lo : lo + step])) for lo in range(0, X.shape[0], step))
        assert len(calls) == erring_blocks
        return ref_kinds, len(calls)

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    @pytest.mark.parametrize("n,grid_size", BLOCKED)
    def test_bayes_on_several_blocks_locates_no_row(self, monkeypatch, n, grid_size, tol):
        X = simplex_lattice(n, grid_size)
        assert self._blocks(n, X.shape[0])[1] >= 3
        mu = np.random.default_rng(grid_size).dirichlet(np.ones(n) * 4.0)
        kinds, calls = self._census_counting_segments(monkeypatch, BayesRule(n), mu, X, tol)
        assert calls == 0 and not kinds.any()

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    @pytest.mark.parametrize("n,grid_size", BLOCKED)
    def test_error_free_blocks_between_erring_ones(self, monkeypatch, n, grid_size, tol):
        # The lattice is sorted by its first coordinate, so these rows lie in the first and in the last block.
        X = simplex_lattice(n, grid_size)
        step, blocks = self._blocks(n, X.shape[0])
        low, high = X[step - 1, 0], X[(blocks - 1) * step, 0]

        class EndsErr(Distortion):  # shrinks the low rows toward the prior, rolls the high ones, keeps the rest
            def apply_batch(self, mu, X):
                out = X.copy()
                lo, hi = X[:, 0] < low, X[:, 0] > high
                out[lo] = 0.5 * X[lo] + 0.5 * mu
                out[hi] = np.roll(X[hi], 1, axis=1)
                return out

        mu = np.random.default_rng(grid_size).dirichlet(np.ones(n) * 4.0)
        kinds, calls = self._census_counting_segments(monkeypatch, EndsErr(), mu, X, tol)
        assert calls == 2 and blocks >= 3
        assert kinds[:step].any() and kinds[(blocks - 1) * step :].any()
        assert not kinds[step : (blocks - 1) * step].any()
        assert np.count_nonzero(kinds == 1) and np.count_nonzero(kinds == 2)

    @pytest.mark.parametrize("n,grid_size", BLOCKED)
    def test_non_finite_image_after_error_free_blocks_raises(self, n, grid_size):
        # Every row but the last is its own image, so each block is error-free: the gate must run before the skip.
        X = simplex_lattice(n, grid_size)
        _, blocks = self._blocks(n, X.shape[0])
        calls = []

        class LastRowBad(Distortion):
            def apply_batch(self, mu, X):
                calls.append(len(X))
                out = X.copy()
                if len(calls) == blocks:  # the last block ends with the lattice's last row
                    out[-1, 0] = np.nan
                return out

        with pytest.raises(NonFiniteImage):
            classify_batch(LastRowBad(), np.ones(n) / n, X)
        assert len(calls) == blocks >= 3

    @pytest.mark.parametrize("n,grid_size", BLOCKED)
    def test_one_prior_check_and_one_call_per_block(self, monkeypatch, n, grid_size):
        X = simplex_lattice(n, grid_size)
        before = X.tobytes()
        step, blocks = self._blocks(n, X.shape[0])
        checks, calls = [], []
        real = distortions.interior_prior
        monkeypatch.setattr(distortions, "interior_prior", lambda *a: checks.append(a) or real(*a))

        class Spy(BayesRule):
            def apply_batch(self, mu, X):
                calls.append((len(X), X.flags.writeable))
                return super().apply_batch(mu, X)

        kinds, mags = classify_batch(Spy(n), np.full(n, 1.0 / n), X)
        assert len(checks) == 1
        assert calls == [(min(step, X.shape[0] - lo), False) for lo in range(0, X.shape[0], step)]
        assert len(calls) == blocks >= 3
        assert X.tobytes() == before
        assert not kinds.any() and not mags.any()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_posterior_row_raises(self, bad):
        # A trivial rule's images are finite, so only the row's own magnitude is not; it has no error class.
        X = simplex_lattice(3, 301).copy()
        row = X.shape[0] - 2  # in the last block
        X[row, 0] = bad
        with pytest.raises(ValueError, match=f"posterior row {row} is not finite") as raised:
            classify_batch(TrivialRule([0.2, 0.3, 0.5]), MU3, X)
        assert raised.type is ValueError
        with pytest.raises(ValueError, match="posterior row 0 is not finite"):
            classify_batch(TrivialRule([0.2, 0.3, 0.5]), MU3, [[bad, 0.0, 0.0]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0.0])
    def test_prior_checked_on_an_empty_census(self, bad):
        kinds, mags = classify_batch(BayesRule(3), MU3, np.empty((0, 3)))
        assert kinds.shape == mags.shape == (0,)
        with pytest.raises(PriorNotInterior):
            classify_batch(BayesRule(3), [bad, 0.5, 0.5], np.empty((0, 3)))

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
            def apply_batch(self, mu, X):
                out = super().apply_batch(mu, X)
                return np.where(X[..., :1] >= 1.0 - 1e-12, 0.5, out)

        rule = BadVertex(0.3, 0.7, 0.2, 0.8)
        v = is_occasionally_coarse(rule, MU2, grid_size=200)
        assert not v.ok and v.refutation[1] == "c4-vertices"

    def test_verdicts_match_the_node_loop(self):
        # The array pass against the node-by-node loop (``oracles.is_occasionally_coarse_by_node``):
        # equal verdicts, refuting node and condition included, on family members and noisy copies.
        class Noisy(Distortion):
            n = 2

            def __init__(self, base, eps, cut):
                self.base, self.eps, self.cut = base, eps, cut

            def apply_batch(self, mu, X):  # noise of size eps from x = cut on
                y = self.base.apply_batch(mu, X)[:, 0] + self.eps * (X[:, 0] >= self.cut) * np.sin(997.0 * X[:, 0])
                return np.stack([y, 1.0 - y], axis=-1)

        rng = np.random.default_rng(26)
        seen = {}
        for trial in range(60):
            family = ("occ-coarse", "grether", "shrinkage", "trivial")[trial % 4]
            base = random_rule(family, 2, rng)
            mu = rng.uniform(0.15, 0.85)
            for eps in (0.0, 3e-10, 2e-9, 1e-6):
                rule = Noisy(base, eps, rng.uniform(0.05, 0.95)) if eps else base
                for grid_size in (100, 101, 150):
                    for tol in (1e-9, 1e-6):
                        got = is_occasionally_coarse(rule, (mu, 1 - mu), grid_size, tol)
                        assert got == is_occasionally_coarse_by_node(rule, (mu, 1 - mu), grid_size, tol)
                        key = got.refutation[1] if got.refutation else "ok"
                        seen[key] = seen.get(key, 0) + 1
        assert all(seen.get(key, 0) >= 20 for key in ("ok", "c1-lower-coarse", "c2-upper-coarse", "c3-identity")), seen


class TestStubbornChecker:
    def test_reference_rule_a(self):
        v = is_occasionally_stubborn(stubborn_example_a(), MU3)
        assert v.ok
        assert sup_close(v.x_star, (0.2, 1 / 3, 1 - 0.2 - 1 / 3))

    def test_reference_rule_b(self):
        v = is_occasionally_stubborn(stubborn_example_b(), MU3)
        assert v.ok
        assert sup_close(v.x_star, (0.5, 0.5, 0.0))

    @pytest.mark.parametrize("edge", [(0, 1), (1, 2)])
    def test_an_edge_no_split_rule_reads_is_refuted(self, edge):
        # Example b splits edge (0, 1) at x* = (1/2, 1/2, 0): its side toward vertex 1 collapses.
        # Reading that edge's points with 0.5 < x_1 < 0.7 correctly moves the split; reading
        # edge (1, 2)'s points with 0.3 < x_1 < 0.5 correctly splits an edge x* is not inside.
        base, other = stubborn_example_b(), 3 - sum(edge)
        lo, hi = (0.5, 0.7) if edge == (0, 1) else (0.3, 0.5)

        class MovedSplit(Distortion):
            n = 3

            def apply_batch(self, mu, X):
                out = base.apply_batch(mu, X)
                band = (X[:, other] == 0.0) & (X[:, 1] > lo) & (X[:, 1] < hi)
                out[band] = X[band]
                return out

        v = is_occasionally_stubborn(MovedSplit(), MU3)
        assert not v.ok and v.refutation[1] == "item2-edge" and v.refutation[0][other] == 0.0
        assert sup_close(v.x_star, (0.5, 0.5, 0.0))

    def test_a_common_image_off_the_simplex_is_refuted(self):
        # Every interior point is read as (0.5, 0.6, 0), which sums to 1.1: there is no collapse point.
        class OffSimplex(BayesRule):
            def apply_batch(self, mu, X):
                out = super().apply_batch(mu, X).copy()  # Bayes returns X, which is read-only
                out[np.all(X > 0.0, axis=1)] = (0.5, 0.6, 0.0)
                return out

        rule = OffSimplex(3)
        v = is_occasionally_stubborn(rule, MU3)
        first = distortions._face_stack(3)[1][-distortions._FACE_SAMPLES]  # the full simplex's first sample
        assert not v.ok and v.x_star is None and v.refutation[1] == "item1-common-image"
        assert v.refutation[0].tobytes() == first.tobytes()
        rep = audit(rule, MU3, grid_size=11, budget=300)
        assert rep.checker_verdicts["occasionally_stubborn"] == v.to_json()

    def test_bayes_vacuous(self):
        v = is_occasionally_stubborn(BayesRule(3), MU3)
        assert v.ok and v.x_star is None

    def test_grether_refuted_on_interior(self):
        v = is_occasionally_stubborn(GretherRule(2.0, 1.0, 3), MU3)
        assert not v.ok and v.refutation[1] == "item1-common-image"

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            is_occasionally_stubborn(BayesRule(2), MU2)

    def test_sample_count_past_the_cap_is_refused_before_any_face(self, monkeypatch):
        # count * (2^n - n - 1) points: 1,572,456 at n = 16 and 24 per face, 3,145,296 at n = 17.
        def refuse(*args, **kwargs):
            raise AssertionError("a face list was built")

        monkeypatch.setattr(distortions, "enumerate_faces", refuse)
        distortions.refuse_face_stack(16)
        for n in (17, 10**9):
            with pytest.raises(WrongDimension, match=f"24 samples on each face of {n} states exceed 2,000,000"):
                distortions.refuse_face_stack(n)
        with pytest.raises(WrongDimension):
            is_occasionally_stubborn(BayesRule(17), np.full(17, 1 / 17))
        with pytest.raises(WrongDimension):
            audit(BayesRule(17), np.full(17, 1 / 17), grid_size=11)

    def test_family_members_always_pass(self):
        rng = np.random.default_rng(9)
        for k in range(50):
            n = 3 if k % 2 == 0 else 4
            rule = random_rule("occ-stubborn", n, rng)
            mu = np.full(n, 1.0 / n)
            v = is_occasionally_stubborn(rule, mu)
            assert v.ok, (k, rule.to_json(), v.to_json())

    def test_identity_interior_with_erring_vertex_refuted(self):
        # A correct interior cannot absorb a vertex error: the whole face
        # would have to collapse.
        class VertexOnly(BayesRule):
            def apply_batch(self, mu, X):
                out = super().apply_batch(mu, X).copy()  # Bayes returns X, which is read-only
                vertex = np.abs(np.asarray(X)[..., 0] - 1.0) < 1e-12
                out[vertex] = [0.6, 0.2, 0.2]
                return out

        v = is_occasionally_stubborn(VertexOnly(3), MU3)
        assert not v.ok and v.refutation[1] == "item1-common-image"


class TestTrivialAndAffine:
    def test_trivial_rules_meet_the_structure_checkers(self):
        # Every trivial rule is a collapse rule (n >= 3) or an interval rule with a point interval (n = 2).
        assert is_occasionally_stubborn(TrivialRule((0.2, 0.3, 0.5)), MU3).ok
        assert is_occasionally_coarse(TrivialRule((0.4, 0.6)), MU2).ok
        rng = np.random.default_rng(10)
        for k in range(100):
            n = 2 + k % 4
            rule, mu = random_rule("trivial", n, rng), rng.dirichlet(np.full(n, 3.0))
            check = is_occasionally_coarse if n == 2 else is_occasionally_stubborn
            assert check(rule, mu).ok, rule.to_json()

    def test_affine_families(self):
        assert is_affine(affine_chords(ShrinkageRule(0.5, 3), MU3, 21))
        assert is_affine(affine_chords(BayesRule(3), MU3, 21))
        assert is_affine(affine_chords(TrivialRule((0.2, 0.3, 0.5)), MU3, 21))
        assert not is_affine(affine_chords(GretherRule(2.0, 1.0, 3), MU3, 21))
        assert not is_affine(affine_chords(CoarseRule(0.3, 0.7, 0.2, 0.8), MU2, 21))

    def test_chord_count_is_bounded_and_never_empty(self):
        # One evaluation of 3 rows per chord: midpoint and both ends, at
        # is_affine's 21 levels and at an audit's finest grid alike.
        for n, grid_size in itertools.product((2, 3, 4, 5, 6, 7, 8, 70), (21, 201)):
            rows = []

            class Spy(BayesRule):
                def apply_batch(self, mu, X):
                    rows.append(X.shape[0])
                    return super().apply_batch(mu, X)

            z, x, y, h = affine_chords(Spy(n), np.full(n, 1.0 / n), grid_size)
            assert len(rows) == 1 and rows[0] == 3 * z.shape[0], (n, rows)
            assert n * (n - 1) // 2 <= z.shape[0] <= 12_000, (n, grid_size, z.shape[0])
            assert np.max(np.abs(x + y - 2.0 * z)) <= 1e-15 and np.max(np.abs(h)) <= 1e-15
            assert np.all(x >= 0.0) and np.all(y >= 0.0) and np.any(x != z, axis=1).all()

    def test_coarsening_starts_at_the_point_cap(self, monkeypatch):
        # A lattice of res + 1 levels has at least res + 1 points, so coarsening starts at
        # res = _CHORD_POINTS whatever the grid: at most 2,000 steps at grid 10^6, not about 10^6.
        steps = []
        real = distortions.math.comb
        monkeypatch.setattr(distortions.math, "comb", lambda *a: steps.append(a) or real(*a))
        mu = np.full(3, 1.0 / 3)
        z = affine_chords(BayesRule(3), mu, 10**6)[0]
        assert len(steps) <= distortions._CHORD_POINTS
        assert z.tobytes() == affine_chords(BayesRule(3), mu, distortions._CHORD_POINTS + 1)[0].tobytes()

    def test_chord_lattice_past_the_cap_is_refused_before_any_lattice(self, monkeypatch):
        # n * C(n + 1, 2) coordinates on levels 0, 1/2, 1: 31,840,200 at n = 399, 32,080,000 at n = 400.
        def refuse(*args, **kwargs):
            raise AssertionError("a lattice was built")

        distortions.refuse_chord_lattice(399)
        for module in (distortions, geometry):
            monkeypatch.setattr(module, "_lattice", refuse)
        for n in (400, 10**9):
            with pytest.raises(WrongDimension, match=f"3-level lattice of {n} states exceeds 32,000,000 coordinates"):
                distortions.refuse_chord_lattice(n)
        mu = np.full(400, 1 / 400)
        with pytest.raises(WrongDimension):
            affine_chords(BayesRule(400), mu, 21)
        with pytest.raises(WrongDimension):
            audit(BayesRule(400), mu, grid_size=11, mode=WelfareMode.DOUBLE)

    def test_near_bayes_grether_is_not_affine(self):
        # alpha = 1 leaves only the prior's extra power 1e-7, which moves a
        # chord's midpoint by 1.4e-8; the least-squares fit once called it affine.
        rule, mu = GretherRule(1.0, 1.0 + 1e-7, 4), np.array([0.206, 0.342, 0.26, 0.192])
        assert 1e-8 < np.max(np.abs(affine_chords(rule, mu, 21)[3])) < 2e-8
        assert not is_affine(affine_chords(rule, mu, 21))
        assert is_affine(affine_chords(rule, np.full(4, 0.25), 21))  # at the uniform prior it is Bayes

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
            assert is_affine(affine_chords(rule, np.full(n, 1.0 / n), 21))
            payoff = rng.uniform(-1, 1, size=(int(rng.integers(2, 6)), n))
            problem = DecisionProblem(payoff)
            pts = rng.dirichlet(np.ones(n), size=n)
            w = rng.dirichlet(np.ones(n))
            rho = PosteriorDistribution(pts, w)
            mu = rho.barycenter
            if not mu.coords.min() > 1e-6 or rho.size < n:
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
        rule = tabulated_from_csv(path, n=2, tol=0.05)
        assert sup_close(image(rule, MU2, (0.75, 0.25)), (0.7, 0.3))
