"""Experiments, Bayesian updating, garbling, and contraction tests."""

import numpy as np
import pytest

from blackwell_audit.auditor import _moved
from blackwell_audit.geometry import TOL_GEO, Belief
from blackwell_audit.experiments import (
    BarycenterMismatch,
    DimensionMismatch,
    Experiment,
    GarblingMatrix,
    PosteriorDistribution,
    PriorNotInterior,
    bayes,
    blackwell_dominates,
    experiment_from_posteriors,
    garble,
)
from oracles import garbling_residual, is_mpc, sup_close


def binary_symmetric(accuracy: float) -> Experiment:
    """Two states, two signals, P(correct signal | state) = accuracy."""
    return Experiment(np.array([[accuracy, 1.0 - accuracy], [1.0 - accuracy, accuracy]]))


def random_belief(rng, n):
    return rng.dirichlet(np.ones(n))


def random_experiment(rng, n, k):
    return Experiment(rng.dirichlet(np.ones(k), size=n))


class TestConstruction:
    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            Experiment([[0.5, 0.4], [0.5, 0.5]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Experiment([[bad, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            GarblingMatrix([[1.0, 0.0], [bad, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            PosteriorDistribution([(bad, 0.5), (0.2, 0.8)], [0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            PosteriorDistribution([(0.5, 0.5), (0.2, 0.8)], [bad, 0.5])

    def test_signal_labels(self):
        e = Experiment([[1.0]], signal_labels=["null"])
        assert e.signal_labels == ("null",)

    def test_default_labels_are_shared(self):
        # Experiments that name no signals share one label tuple per signal count; the JSON is unchanged.
        a = Experiment([[0.5, 0.25, 0.25, 0.0], [0.0, 0.5, 0.25, 0.25]])
        b = Experiment(np.eye(4))
        assert a.signal_labels is b.signal_labels
        assert a.to_json()["signals"] == ["s0", "s1", "s2", "s3"]
        assert Experiment.from_json(a.to_json()).to_json() == a.to_json()
        assert Experiment([[1.0, 0.0]]).signal_labels == ("s0", "s1")

    def test_posteriors_merge_duplicates(self):
        rho = PosteriorDistribution([(0.5, 0.5), (0.5, 0.5), (0.2, 0.8)], [0.3, 0.3, 0.4])
        assert rho.size == 2
        assert rho.probs[0] == pytest.approx(0.6)

    def test_merge_matches_the_pairwise_loop(self):
        # Reference: the merge as one sup-norm comparison per pair, each atom joining the first kept atom near it.
        def merged(support, probs):
            pts, pr = np.asarray(support, dtype=np.float64), np.asarray(probs, dtype=np.float64)
            kept, kept_pr = [], []
            for row, p in zip(pts, pr):
                if p <= 0.0:
                    continue
                for i, k in enumerate(kept):
                    if np.max(np.abs(row - k)) <= TOL_GEO:
                        kept_pr[i] += p
                        break
                else:
                    kept.append(row.copy())
                    kept_pr.append(p)
            sup, pra = np.asarray(kept), np.asarray(kept_pr)
            pra = pra / pra.sum()
            return sup, pra, Belief(pra @ sup).coords

        rng = np.random.default_rng(16)
        chains = 0
        for _ in range(3000):
            n, k = int(rng.integers(2, 6)), int(rng.integers(1, 9))
            pts = rng.dirichlet(np.ones(n), size=k)
            for j in range(k):
                if rng.random() < 0.3:  # a near copy of another atom: within, or just beyond, TOL_GEO
                    copy = np.abs(pts[int(rng.integers(k))] + rng.uniform(-2 * TOL_GEO, 2 * TOL_GEO, n))
                    pts[j] = copy / copy.sum()
            w = rng.dirichlet(np.ones(k))
            if k > 1 and rng.random() < 0.2:
                w[int(rng.integers(k))] = 0.0
                w /= w.sum()
            rho = PosteriorDistribution(pts, w)
            sup, pra, bary = merged(pts, w)
            assert np.array_equal(rho.support, sup) and np.array_equal(rho.probs, pra)
            assert np.array_equal(rho.barycenter.coords, bary)
            chains += rho.size < np.count_nonzero(w)
        assert chains >= 300

    def test_array_support_matches_a_list_of_beliefs(self):
        # An (atoms, states) array is taken as it is; the same points as Beliefs go one by one.
        rng = np.random.default_rng(19)
        merges, dropped = 0, 0
        for _ in range(2000):
            n, k = int(rng.integers(2, 6)), int(rng.integers(1, 9))
            beliefs = [Belief(p) for p in rng.dirichlet(np.ones(n), size=k)]
            for j in range(k):
                if rng.random() < 0.3:  # a near copy of another atom: within, or just beyond, TOL_GEO
                    copy = np.abs(beliefs[int(rng.integers(k))].coords + rng.uniform(-2 * TOL_GEO, 2 * TOL_GEO, n))
                    beliefs[j] = Belief(copy / copy.sum())
            w = rng.dirichlet(np.ones(k))
            if k > 1 and rng.random() < 0.2:
                w[int(rng.integers(k))] = 0.0
                w /= w.sum()
            pts = np.array([b.coords for b in beliefs])
            got, want = PosteriorDistribution(pts, w), PosteriorDistribution(beliefs, w)
            for a, b in ((got.support, want.support), (got.probs, want.probs), (got.barycenter.coords, want.barycenter.coords)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert pts.flags.writeable and not got.support.flags.writeable  # the caller's array is not kept
            merges += got.size < np.count_nonzero(w)
            dropped += np.count_nonzero(w) < k
        assert merges >= 200 and dropped >= 200, (merges, dropped)
        for flat in (np.array([0.5, 0.5]), [0.5, 0.5]):  # 1-D: one coordinate per atom
            with pytest.raises(DimensionMismatch):
                PosteriorDistribution(flat, [0.5, 0.5])
        with pytest.raises(DimensionMismatch):
            PosteriorDistribution(np.empty((0, 2)), [])

    def test_posteriors_drop_zero_mass(self):
        rho = PosteriorDistribution([(1, 0), (0, 1), (0.5, 0.5)], [0.5, 0.5, 0.0])
        assert rho.size == 2

    def test_barycenter_cached(self):
        rho = PosteriorDistribution([(0.8, 0.2), (0.2, 0.8)], [0.5, 0.5])
        assert sup_close(rho.barycenter, (0.5, 0.5))


class TestBayes:
    def test_symmetric_binary(self):
        rho = bayes((0.5, 0.5), binary_symmetric(0.8))
        assert rho.size == 2
        assert sorted(rho.support[:, 0]) == pytest.approx([0.2, 0.8])
        assert np.allclose(rho.probs, 0.5)

    def test_fully_informative(self):
        rho = bayes((1 / 3, 1 / 3, 1 / 3), Experiment(np.eye(3)))
        assert rho.size == 3
        assert np.allclose(rho.support, np.eye(3))
        assert np.allclose(rho.probs, 1 / 3)

    def test_hand_computed_asymmetric(self):
        rho = bayes((0.5, 0.5), Experiment([[0.9, 0.1], [0.3, 0.7]]))
        assert rho.support[0] == pytest.approx([0.75, 0.25])
        assert rho.support[1] == pytest.approx([0.125, 0.875])
        assert rho.probs == pytest.approx([0.6, 0.4])

    def test_boundary_prior_rejected(self):
        with pytest.raises(PriorNotInterior):
            bayes((1.0, 0.0), binary_symmetric(0.8))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prior_meets_one_gate(self, bad):
        # Every entry point refuses the prior before any arithmetic on it.
        from blackwell_audit.auditor import audit
        from blackwell_audit.distortions import BayesRule, evaluate_batch

        prior = (bad, 0.5, 0.5)
        rho = PosteriorDistribution(np.eye(3), [1 / 3] * 3)
        calls = {
            "bayes": lambda: bayes(prior, Experiment(np.eye(3))),
            "reconstruction": lambda: experiment_from_posteriors(rho, prior),
            "rule evaluation": lambda: evaluate_batch(BayesRule(3), prior, np.eye(3)),
            "audit": lambda: audit(BayesRule(3), prior, grid_size=11),
        }
        for what, call in calls.items():
            with pytest.raises(PriorNotInterior, match=f"^{what} requires a full-support prior$"):
                call()

    def test_martingale_property(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            mu = random_belief(rng, n)
            exp = random_experiment(rng, n, int(rng.integers(1, 6)))
            rho = bayes(mu, exp)
            assert np.max(np.abs(rho.barycenter.coords - mu)) < 1e-10


class TestExperimentFromPosteriors:
    def test_inverts_symmetric_binary(self):
        rho = PosteriorDistribution([(0.8, 0.2), (0.2, 0.8)], [0.5, 0.5])
        exp = experiment_from_posteriors(rho, (0.5, 0.5))
        assert np.allclose(np.sort(exp.likelihoods[0]), [0.2, 0.8])

    def test_point_mass_gives_null_experiment(self):
        exp = experiment_from_posteriors(PosteriorDistribution([(0.5, 0.5)], [1.0]), (0.5, 0.5))
        assert exp.n_signals == 1
        assert np.allclose(exp.likelihoods, 1.0)

    def test_round_trip_through_bayes(self):
        rho = PosteriorDistribution([(0.75, 0.25), (0.125, 0.875)], [0.6, 0.4])
        exp = experiment_from_posteriors(rho, (0.5, 0.5))
        assert np.allclose(exp.likelihoods, [[0.9, 0.1], [0.3, 0.7]])
        back = bayes((0.5, 0.5), exp)
        assert np.allclose(np.sort(back.support[:, 0]), [0.125, 0.75])

    def test_barycenter_mismatch(self):
        rho = PosteriorDistribution([(0.8, 0.2), (0.2, 0.8)], [0.5, 0.5])
        with pytest.raises(BarycenterMismatch):
            experiment_from_posteriors(rho, (0.6, 0.4))

    def test_random_round_trips(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 4))
            mu = random_belief(rng, n)
            exp = random_experiment(rng, n, int(rng.integers(2, 5)))
            rho = bayes(mu, exp)
            back = bayes(mu, experiment_from_posteriors(rho, mu))
            assert back.size == rho.size
            # Signal order is preserved, so supports match row by row.
            assert np.max(np.abs(back.support - rho.support)) < 1e-9
            assert np.max(np.abs(back.probs - rho.probs)) < 1e-9


class TestGarble:
    def test_identity(self):
        exp = binary_symmetric(0.8)
        out = garble(exp, GarblingMatrix(np.eye(2)))
        assert np.allclose(out.likelihoods, exp.likelihoods)

    def test_rank_one_kills_information(self):
        exp = binary_symmetric(0.8)
        out = garble(exp, GarblingMatrix([[0.5, 0.5], [0.5, 0.5]]))
        rho = bayes((0.5, 0.5), out)
        assert rho.size == 1
        assert sup_close(rho.barycenter, (0.5, 0.5))

    def test_symmetric_channel_accuracy(self):
        out = garble(binary_symmetric(0.8), GarblingMatrix([[0.75, 0.25], [0.25, 0.75]]))
        assert np.allclose(out.likelihoods, binary_symmetric(0.65).likelihoods)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            garble(binary_symmetric(0.8), GarblingMatrix(np.eye(3)))


class TestBlackwellDominates:
    def test_perfect_information_dominates(self):
        assert blackwell_dominates(Experiment(np.eye(2)), binary_symmetric(0.8))
        assert blackwell_dominates(Experiment(np.eye(3)), Experiment(np.ones((3, 1))))

    def test_garbling_and_its_refutation(self):
        sharp = binary_symmetric(0.8)
        blurred = binary_symmetric(0.65)
        assert blackwell_dominates(sharp, blurred)
        assert not blackwell_dominates(blurred, sharp)

    def test_reflexive(self):
        exp = Experiment([[0.9, 0.1], [0.3, 0.7]])
        assert blackwell_dominates(exp, exp)

    def test_the_lp_optimum_alone_proves_nothing(self):
        # An uninformative pi garbles only into experiments with equal rows.  Moving d from one
        # entry of a row to another makes a column's rows differ by d, so every garbling misses
        # pi_prime by at least d / 2 > TOL_GARBLING, while the LP's optimum can still read 0.
        from blackwell_audit import experiments

        optima = []
        rng = np.random.default_rng(31)
        for _ in range(200):
            n, k, kp = (int(v) for v in rng.integers((2, 1, 2), (5, 4, 5)))
            pi = Experiment(np.tile(rng.dirichlet(np.ones(k)), (n, 1)))
            B = np.tile(rng.dirichlet(np.full(kp, 5.0)), (n, 1))
            d = 10.0 ** rng.uniform(np.log10(2.5e-8), -7)
            i, j = rng.choice(kp, size=2, replace=False)
            B[int(rng.integers(n)), [i, j]] += (d, -d)
            pi_prime = Experiment(B)
            spread = pi_prime.likelihoods.max(axis=0) - pi_prime.likelihoods.min(axis=0)
            assert spread.max() / 2.0 > experiments.TOL_GARBLING
            assert not blackwell_dominates(pi, pi_prime), (pi.likelihoods, pi_prime.likelihoods)
            optima.append(garbling_residual(pi, pi_prime))
        assert sum(t <= experiments.TOL_GARBLING for t in optima) >= 100, optima


class TestDominanceWitness:
    """The least-squares garbling witness alone proves dominance; without it, dominance is refused."""

    @staticmethod
    def _pairs(rng, count):
        """(pi, garble, non-garble, perturbed garble) draws; the perturbation is 1e-10 to 1e-7."""
        for _ in range(count):
            n, k, kp = (int(v) for v in rng.integers((2, 1, 1), (5, 6, 6)))
            pi = Experiment(rng.dirichlet(np.ones(k) * rng.choice([0.2, 1.0, 5.0]), size=n))
            m = GarblingMatrix(rng.dirichlet(np.ones(kp) * rng.choice([0.2, 1.0, 5.0]), size=k))
            pi_g = garble(pi, m)
            other = Experiment(rng.dirichlet(np.ones(kp), size=n))
            bumped = pi_g.likelihoods + 10.0 ** rng.uniform(-10, -7) * rng.choice([-1.0, 1.0], size=(n, kp))
            bumped = np.maximum(bumped, 0.0)
            yield pi, pi_g, other, Experiment(bumped / bumped.sum(axis=1, keepdims=True))

    def test_witness_never_accepts_what_the_lp_rejects(self):
        # The reference: the garbling LP's optimum (``oracles.garbling_residual``) within TOL_GARBLING.
        from blackwell_audit import experiments

        proved = {"garble": 0, "other": 0, "bumped": 0}
        rng = np.random.default_rng(2026)
        for pi, pi_g, other, bumped in self._pairs(rng, 300):
            for kind, b in (("garble", pi_g), ("other", other), ("bumped", bumped)):
                for x, y in ((pi, b), (b, pi)):
                    if blackwell_dominates(x, y):
                        proved[kind] += 1
                        assert garbling_residual(x, y) <= experiments.TOL_GARBLING, (kind, x.likelihoods, y.likelihoods)
        assert proved["garble"] >= 300 and proved["bumped"] >= 200 and proved["other"] >= 50, proved

    def test_every_exact_garble_is_proved(self):
        rng = np.random.default_rng(77)
        for pi, pi_g, _, _ in self._pairs(rng, 400):
            assert blackwell_dominates(pi, pi_g)
        assert blackwell_dominates(Experiment(np.eye(4)), Experiment(np.ones((4, 1))))

    def test_a_failed_witness_refuses(self, monkeypatch):
        # With no least-squares witness there is no proof, even for a true garbling.
        from blackwell_audit import experiments

        def fail(*args, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(experiments, "nnls", fail)
        assert not blackwell_dominates(binary_symmetric(0.8), binary_symmetric(0.65))
        assert not blackwell_dominates(binary_symmetric(0.65), binary_symmetric(0.8))


class TestIsMpc:
    def test_collapse_to_mean(self):
        rho = PosteriorDistribution([(1, 0), (0, 1)], [0.5, 0.5])
        assert is_mpc(PosteriorDistribution([(0.5, 0.5)], [1.0]), rho)

    def test_point_outside_support_hull(self):
        rho = PosteriorDistribution([(0.6, 0.4), (0.4, 0.6)], [0.5, 0.5])
        rho_wide = PosteriorDistribution([(0.9, 0.1), (0.1, 0.9)], [0.5, 0.5])
        assert not is_mpc(rho_wide, rho)

    def test_explicit_ternary_dilation(self):
        # Splitting (1/2,1/2,0) back onto the first two vertices recovers
        # the uniform distribution on all three.
        rho = PosteriorDistribution(np.eye(3), [1 / 3, 1 / 3, 1 / 3])
        rho_prime = PosteriorDistribution([(0.5, 0.5, 0), (0, 0, 1)], [2 / 3, 1 / 3])
        assert is_mpc(rho_prime, rho)
        assert not is_mpc(rho, rho_prime)

    def test_barycenter_mismatch(self):
        a = PosteriorDistribution([(0.8, 0.2), (0.2, 0.8)], [0.5, 0.5])
        b = PosteriorDistribution([(0.9, 0.1), (0.3, 0.7)], [0.5, 0.5])
        with pytest.raises(BarycenterMismatch):
            is_mpc(a, b)

    def test_garbling_induces_contraction(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(2, 4))
            mu = random_belief(rng, n)
            exp = random_experiment(rng, n, int(rng.integers(2, 5)))
            m = GarblingMatrix(rng.dirichlet(np.ones(int(rng.integers(1, 4))), size=exp.n_signals))
            rho = bayes(mu, exp)
            rho_g = bayes(mu, garble(exp, m))
            assert is_mpc(rho_g, rho, tol=1e-8)


def move_point(rho, gamma, lam):
    """auditor._moved on support point 0, toward lam @ (the other support points)."""
    lam = np.asarray(lam, dtype=float)
    moved = gamma * rho.support[0] + (1.0 - gamma) * (lam @ rho.support[1:])
    return _moved(rho, gamma, lam, moved)


class TestBringPointIn:
    """Moving support point 0 toward the others' hull with closed-form weights."""

    def test_infeasible_at_barycenter_crossing(self):
        rho = PosteriorDistribution([(1, 0), (0, 1)], [0.5, 0.5])
        assert move_point(rho, 0.5, [1.0]) is None

    def test_two_state_weights(self):
        rho = PosteriorDistribution([(1, 0), (0, 1)], [0.5, 0.5])
        out = move_point(rho, 0.6, [1.0])
        assert out.support[0] == pytest.approx([0.6, 0.4])
        assert out.probs == pytest.approx([5 / 6, 1 / 6])
        assert is_mpc(out, rho)

    def test_continuity_near_identity(self):
        rho = PosteriorDistribution([(0.9, 0.1), (0.1, 0.9)], [0.5, 0.5])
        out = move_point(rho, 0.999, [1.0])
        assert np.max(np.abs(out.support[0] - rho.support[0])) < 1e-2
        assert abs(out.probs[0] - 0.5) < 1e-2

    def test_ternary_linear_solve(self):
        rho = PosteriorDistribution(np.eye(3), [1 / 3, 1 / 3, 1 / 3])
        out = move_point(rho, 0.5, [0.5, 0.5])
        assert out.support[0] == pytest.approx([0.5, 0.25, 0.25])
        # On an affinely independent support the weights are the unique solution of the 4x3 system.
        A = np.vstack([out.support.T, np.ones(3)])
        assert np.allclose(A @ out.probs, [1 / 3, 1 / 3, 1 / 3, 1.0])
        assert out.probs == pytest.approx([2 / 3, 1 / 6, 1 / 6])
        assert is_mpc(out, rho)

    def test_affinely_dependent_support(self):
        # Three collinear points on the two-state simplex: the weights are not unique, the closed form still holds.
        rho = PosteriorDistribution([(0.9, 0.1), (0.5, 0.5), (0.1, 0.9)], [0.25, 0.5, 0.25])
        for lam in ([0.5, 0.5], [1.0, 0.0], [0.0, 1.0]):
            out = move_point(rho, 0.7, lam)
            assert out is not None and out.probs[0] == pytest.approx(0.25 / 0.7)
            assert is_mpc(out, rho, tol=1e-9)
            experiment_from_posteriors(out, rho.barycenter)  # barycentre within TOL_BARY

    def test_random_contractions_are_mpcs(self):
        # Targets of both kinds the recipes use (even weights, one other point) and Dirichlet weights,
        # on supports up to two points larger than affinely independent ones can be.
        rng = np.random.default_rng(14)
        done, dependent, kinds = 0, 0, set()
        while done < 50:
            n = int(rng.integers(2, 5))
            k = int(rng.integers(2, n + 3))
            pts = rng.dirichlet(np.ones(n), size=k)
            w = rng.dirichlet(np.ones(k))
            rho = PosteriorDistribution(pts, w)
            kind = int(rng.integers(3))
            if kind == 0:
                lam = np.full(rho.size - 1, 1.0 / (rho.size - 1))
            elif kind == 1:
                lam = np.eye(rho.size - 1)[int(rng.integers(rho.size - 1))]
            else:
                lam = rng.dirichlet(np.ones(rho.size - 1))
            out = move_point(rho, float(rng.uniform(0.5, 0.95)), lam)
            if out is None:
                continue
            assert sup_close(out.barycenter, rho.barycenter)
            assert is_mpc(out, rho, tol=1e-8)
            experiment_from_posteriors(out, rho.barycenter)
            done += 1
            dependent += rho.size > n
            kinds.add(kind)
        assert dependent >= 10 and kinds == {0, 1, 2}


class TestDominanceMpcEquivalence:
    def test_equivalence_on_garbled_pairs(self):
        rng = np.random.default_rng(15)
        for _ in range(60):
            n = int(rng.integers(2, 4))
            mu = random_belief(rng, n)
            pi = random_experiment(rng, n, int(rng.integers(2, 5)))
            m = GarblingMatrix(rng.dirichlet(np.ones(int(rng.integers(1, 4))), size=pi.n_signals))
            pi_p = garble(pi, m)
            forward = blackwell_dominates(pi, pi_p)
            assert forward == is_mpc(bayes(mu, pi_p), bayes(mu, pi), tol=1e-8)
            backward = blackwell_dominates(pi_p, pi)
            assert backward == is_mpc(bayes(mu, pi), bayes(mu, pi_p), tol=1e-8)
