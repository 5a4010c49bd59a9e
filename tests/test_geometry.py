"""Simplex geometry: segments, rank tests, hull membership, separation."""

import itertools
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import blackwell_audit
from blackwell_audit import geometry
from blackwell_audit.experiments import (
    Experiment,
    GarblingMatrix,
    PosteriorDistribution,
    bayes,
    blackwell_dominates,
    garble,
    is_mpc,
)
from blackwell_audit.geometry import (
    Belief,
    DimensionMismatch,
    Face,
    NoStrictSeparation,
    enumerate_faces,
    face_samples,
    _in_hull_barycentric,
    _in_hull_lp,
    in_convex_hull,
    on_segment,
    separating_hyperplane_sets,
    simplex_lattice,
    solve_lp,
    uniform_belief,
    vertex_belief,
)


def random_belief(rng, n):
    return rng.dirichlet(np.ones(n))


class TestBelief:
    def test_validates_sum(self):
        with pytest.raises(ValueError):
            Belief([0.5, 0.4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Belief([bad, 0.5, 0.5])

    def test_clamps_tiny_negative(self):
        b = Belief([1.0 + 1e-13, -1e-13])
        assert b.coords[1] == 0.0

    def test_rejects_real_negative(self):
        with pytest.raises(ValueError):
            Belief([1.1, -0.1])

    def test_face_support(self):
        assert Belief([0.5, 0.0, 0.5]).face().support == (0, 2)
        assert vertex_belief(4, 2).face().support == (2,)

    def test_immutable(self):
        b = uniform_belief(3)
        with pytest.raises(ValueError):
            b.coords[0] = 0.9


class TestOnSegment:
    def test_interior_point_two_states(self):
        hit = on_segment((1, 0), (0, 1), (0.3, 0.7))
        assert hit.on
        assert hit.lam == pytest.approx(0.3, abs=1e-12)

    def test_distinct_vertices_three_states(self):
        assert not on_segment((1, 0, 0), (0, 1, 0), (0, 0, 1)).on

    def test_oracle_computed_mixture(self):
        # Oracle: the point is built directly as 0.625 x + 0.375 y.
        x = np.array([0.6, 0.3, 0.1])
        y = np.array([1 / 3, 1 / 3, 1 / 3])
        z = 0.625 * x + 0.375 * y
        assert np.allclose(z, [0.5, 0.3125, 0.1875])
        hit = on_segment(x, y, z)
        assert hit.on
        assert hit.lam == pytest.approx(0.625, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_endpoints(self, seed, n):
        rng = np.random.default_rng(seed)
        x, y = random_belief(rng, n), random_belief(rng, n)
        at_x = on_segment(x, y, x)
        at_y = on_segment(x, y, y)
        assert at_x.on and at_x.lam == pytest.approx(1.0, abs=1e-9)
        assert at_y.on and at_y.lam == pytest.approx(0.0, abs=1e-9)


def hull_membership_bruteforce(p, hull, steps=64, tol=1e-9):
    """Grid search over convex weights; independent of the LP route.

    Every weight vector whose first k - 1 entries are multiples of 1/steps
    is tried at once; returns the verdict and the grid's least sup-norm
    residual.
    """
    hull = np.asarray(hull, dtype=float)
    k = hull.shape[0]
    axes = np.meshgrid(*[np.arange(steps + 1) / steps] * (k - 1), indexing="ij")
    head = np.stack([a.ravel() for a in axes], axis=1)
    head = head[head.sum(axis=1) <= 1 + 1e-12]
    w = np.hstack([head, 1.0 - head.sum(axis=1, keepdims=True)])
    best = float(np.min(np.max(np.abs(w @ hull - p), axis=1)))
    return best <= tol, best


class TestConvexHull:
    def test_barycenter_inside(self):
        assert in_convex_hull((1 / 3, 1 / 3, 1 / 3), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_vertex_outside_segment(self):
        assert not in_convex_hull((1, 0, 0), [(0.5, 0.5, 0), (0, 0, 1)])

    def test_three_point_system(self):
        # Oracle: weights (0.5, 0.5, 0) solve the system exactly.
        hull = [(0.2, 0.2, 0.6), (0.5, 0.5, 0.0), (0.3, 0.4, 0.3)]
        p = 0.5 * np.array(hull[0]) + 0.5 * np.array(hull[1])
        assert np.allclose(p, [0.35, 0.35, 0.30])
        assert in_convex_hull(p, hull)

    def test_length_mismatch_rejected(self):
        from blackwell_audit import experiments

        assert experiments.DimensionMismatch is DimensionMismatch
        with pytest.raises(DimensionMismatch):
            in_convex_hull((0.5, 0.5), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(DimensionMismatch):
            in_convex_hull((0.2, 0.2, 0.2, 0.4), [(1, 0, 0), (0, 1, 0)])

    def test_duplicate_hull_points_allowed(self):
        assert in_convex_hull((0.5, 0.5), [(1, 0), (1, 0), (0, 1)])

    def test_agrees_with_bruteforce(self):
        rng = np.random.default_rng(20240817)
        for _ in range(60):
            n = int(rng.integers(2, 4))
            k = int(rng.integers(2, 5))
            hull = [random_belief(rng, n) for _ in range(k)]
            if rng.random() < 0.5:
                w = rng.dirichlet(np.ones(k))
                p = w @ np.asarray(hull)
            else:
                p = random_belief(rng, n)
            lp_says = in_convex_hull(p, hull, tol=1e-7)
            brute_says, dist = hull_membership_bruteforce(p, hull, steps=64)
            if brute_says:
                assert lp_says, f"brute force found weights (resid {dist:.2e}) but LP said no"
            if not lp_says:
                # Grid resolution 1/64 cannot certify absence; check the LP's
                # optimum is genuinely far relative to the grid error.
                assert dist > 1e-7 or brute_says is False


class TestHullFastPath:
    """Barycentric membership must return the LP's verdict on every input."""

    @staticmethod
    def hull_queries(rng, n, k, facet_offset):
        hull = rng.dirichlet(np.ones(n), size=k)
        yield "inside", rng.dirichlet(np.ones(k)) @ hull, hull
        yield "outside", rng.dirichlet(np.ones(n)), hull
        if k >= 2:
            # Just across (or just inside) the facet opposite hull[0].
            f = rng.dirichlet(np.ones(k - 1)) @ hull[1:]
            u = f - hull[0]
            yield "facet", f + facet_offset * u / np.max(np.abs(u)), hull
        if rng.random() < 0.25:
            dup = np.vstack([hull, hull[int(rng.integers(k))]])
            yield "dependent-inside", rng.dirichlet(np.ones(k + 1)) @ dup, dup
            yield "dependent-outside", rng.dirichlet(np.ones(n)), dup

    def test_matches_lp_on_seeded_hulls(self):
        rng = np.random.default_rng(20261018)
        decided = total = 0
        for trial in range(1000):
            n = 2 + trial % 4
            k = int(rng.integers(1, n + 1))
            tol = (1e-9, 1e-7)[trial % 2]
            offset = (1e-6, -1e-6, tol, -tol)[(trial // 2) % 4]
            for kind, p, hull in self.hull_queries(rng, n, k, offset):
                fast = _in_hull_barycentric(p, hull, tol)
                lp = _in_hull_lp(p, hull, tol)
                assert in_convex_hull(p, hull, tol) == lp, (kind, n, k, tol, offset)
                if kind == "inside":
                    assert fast is True, (n, k)
                if kind.startswith("dependent"):
                    assert fast is None
                decided += fast is not None
                total += 1
        # The LP must stay the exception, not the rule.
        assert decided >= 0.6 * total

    def test_nan_query_raises_lp_error(self):
        hull = [(1, 0, 0), (0, 1, 0)]
        with pytest.raises(ValueError, match="b_ub must not contain values inf, nan"):
            in_convex_hull((np.nan, 0.5, 0.5), hull)


class TestSolveLP:
    """solve_lp against scipy's linprog, the reference: bitwise equal optima,
    and a RuntimeError naming the LP wherever linprog reports a failure."""

    @staticmethod
    def assert_matches_linprog(c, A_ub, b_ub, A_eq, b_eq, lb, ub) -> int:
        """Solve one LP both ways and compare; return linprog's status."""
        ref = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                      bounds=np.column_stack([lb, ub]), method="highs")
        if ref.status != 0:
            with pytest.raises(RuntimeError, match="^probe LP failed: "):
                solve_lp(c, A_ub, b_ub, A_eq, b_eq, lb, ub, "probe")
            return ref.status
        x, fun = solve_lp(c, A_ub, b_ub, A_eq, b_eq, lb, ub, "probe")
        assert x.tobytes() == ref.x.tobytes()
        assert fun == ref.fun
        return 0

    @staticmethod
    def separate(A, B):
        try:
            separating_hyperplane_sets(A, B)
        except NoStrictSeparation:
            pass

    def instances(self, rng):
        """Seeded calls into every LP builder of the package."""
        for trial in range(40):
            n = 2 + trial % 3
            k = int(rng.integers(1, 5))
            hull = rng.dirichlet(np.ones(n), size=k)
            dup = np.vstack([hull, hull[int(rng.integers(k))]])  # a duplicate point
            mid = np.vstack([hull, hull.mean(axis=0)])  # an affinely dependent point
            for H in (hull, dup, mid):
                for p in (rng.dirichlet(np.ones(len(H))) @ H, rng.dirichlet(np.ones(n))):
                    yield lambda p=p, H=H: _in_hull_lp(p, H, 1e-9)
                    yield lambda p=p, H=H: self.separate(p[None, :], H)
            upper = rng.dirichlet(np.ones(n), size=int(rng.integers(2, 4)))
            yield lambda A=upper, B=hull: self.separate(A, B)

            pi = Experiment(rng.dirichlet(np.ones(int(rng.integers(2, 4))), size=n))
            m = GarblingMatrix(rng.dirichlet(np.ones(int(rng.integers(1, 4))), size=pi.n_signals))
            other = Experiment(rng.dirichlet(np.ones(pi.n_signals), size=n))
            for a, b in ((pi, garble(pi, m)), (garble(pi, m), pi), (pi, other)):
                yield lambda a=a, b=b: blackwell_dominates(a, b)
            mu = rng.dirichlet(np.ones(n))
            rho, rho_g = bayes(mu, pi), bayes(mu, garble(pi, m))
            yield lambda a=rho_g, b=rho: is_mpc(a, b)
            yield lambda a=rho, b=rho_g: is_mpc(a, b)

    def test_bitwise_equal_to_linprog_on_every_builder(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append((args[-1], args[:-1]))
            return solve_lp(*args)

        monkeypatch.setattr(geometry, "solve_lp", spy)
        for build in self.instances(np.random.default_rng(20261018)):
            build()
        monkeypatch.undo()
        seen = {}
        for what, args in calls:
            assert self.assert_matches_linprog(*args) == 0, what
            seen[what] = seen.get(what, 0) + 1
        assert set(seen) == {"hull membership", "separation", "garbling", "dilation"}
        assert min(seen.values()) >= 50, seen

    def test_failures_raise_where_linprog_fails(self):
        one, no_rows, no_rhs = np.ones((1, 2)), np.zeros((0, 2)), np.zeros(0)
        free_above = (np.zeros(2), np.full(2, np.inf))
        # Infeasible: x0 + x1 <= -1 with x >= 0.
        assert self.assert_matches_linprog(np.ones(2), one, [-1.0], no_rows, no_rhs, *free_above) == 2
        # Infeasible through the equality rows: x0 + x1 = 3 with x <= 1.
        assert self.assert_matches_linprog(np.ones(2), no_rows, no_rhs, one, [3.0], np.zeros(2), np.ones(2)) == 2
        # Unbounded: minimize -x0 with x0 free above.
        assert self.assert_matches_linprog(np.array([-1.0, 0.0]), -one, [0.0], no_rows, no_rhs, *free_above) in (3, 4)
        rng = np.random.default_rng(5)
        statuses = set()
        for _ in range(60):
            n = int(rng.integers(2, 5))
            rows = int(rng.integers(1, 5))
            lb = np.where(rng.random(n) < 0.3, -np.inf, -1.0)
            ub = np.where(rng.random(n) < 0.3, np.inf, 1.0)
            statuses.add(self.assert_matches_linprog(
                rng.normal(size=n), rng.normal(size=(rows, n)), rng.normal(size=rows),
                rng.normal(size=(1, n)), rng.normal(size=1), lb, ub,
            ))
        assert 0 in statuses and len(statuses) > 1, statuses

    @pytest.mark.parametrize("shift", [1e-3, -1e-3])
    @pytest.mark.parametrize("field", ["col_value", "row_value"])
    def test_optimum_off_its_constraints_is_refused(self, monkeypatch, field, shift):
        """linprog's check after the solve refuses HiGHS's solution moved by
        ``shift``: off a bound of w = (1, 0) or of the error t, or off its rows."""
        real = geometry._highs._Highs

        class Moved:
            def __init__(self):
                self.highs = real()

            def __getattr__(self, name):
                return getattr(self.highs, name)

            def getSolution(self):
                sol = self.highs.getSolution()
                setattr(sol, field, [v + shift for v in getattr(sol, field)])
                return sol

        monkeypatch.setattr(geometry._highs, "_Highs", Moved)
        with pytest.raises(RuntimeError, match="^hull membership LP failed: the optimum breaks"):
            _in_hull_lp(np.array([1.0, 0.0]), np.eye(2), 1e-9)

    def test_non_finite_input_raises_linprog_error(self):
        good = (np.ones(2), np.ones((1, 2)), np.ones(1), np.ones((1, 2)), np.ones(1), np.zeros(2), np.ones(2))
        for slot, name in enumerate(("c", "A_ub", "b_ub", "A_eq", "b_eq")):
            for bad in (np.nan, np.inf, -np.inf):
                args = [a.copy() for a in good]
                args[slot].flat[0] = bad
                with pytest.raises(ValueError, match=f"{name} must not contain values inf, nan"):
                    solve_lp(*args, "probe")


class TestHostileInput:
    """NaN and infinite coordinates end in ValueError, never a crashed process.

    The calls run in a child interpreter, so a crash inside the solver fails
    this test instead of killing the test run.  The child turns a
    RuntimeWarning into an error, as the pytest configuration does."""

    SCRIPT = textwrap.dedent("""
        import sys
        import numpy as np
        from blackwell_audit.geometry import (
            Belief, in_convex_hull, separating_hyperplane_sets)
        from blackwell_audit.auditor import audit
        from blackwell_audit.distortions import BayesRule, TabulatedRule, evaluate_batch
        from blackwell_audit.experiments import PosteriorDistribution, is_mpc

        def hand_built(support, probs, barycenter):
            # The constructor rejects a non-finite barycenter, so set the fields directly.
            rho = object.__new__(PosteriorDistribution)
            for name, value in (("support", np.array(support, dtype=float)),
                                ("probs", np.array(probs, dtype=float)), ("barycenter", Belief(barycenter))):
                object.__setattr__(rho, name, value)
            return rho

        bad = float(sys.argv[1])
        q = (bad, 0.5, 0.5)
        vertices = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        centre = (1 / 3, 1 / 3, 1 / 3)
        spread = PosteriorDistribution(vertices, [1 / 3] * 3)
        cases = {
            "in_convex_hull query": lambda: in_convex_hull(q, vertices),
            "in_convex_hull hull point": lambda: in_convex_hull(centre, [q] + vertices[1:]),
            "separating_hyperplane_sets single point above": lambda: separating_hyperplane_sets([q], vertices),
            "separating_hyperplane_sets above": lambda: separating_hyperplane_sets([q, centre], vertices[:2]),
            "separating_hyperplane_sets below": lambda: separating_hyperplane_sets([centre], [q] + vertices[1:]),
            "is_mpc contraction": lambda: is_mpc(hand_built([q, centre], [0.5, 0.5], centre), spread),
            "is_mpc dilation": lambda: is_mpc(spread, hand_built([q, centre], [0.5, 0.5], centre)),
            "evaluate_batch prior": lambda: evaluate_batch(BayesRule(3), q, [centre]),
            "audit prior": lambda: audit(BayesRule(3), q, grid_size=11),
            "tabulated rule query": lambda: evaluate_batch(TabulatedRule([centre], [centre], 0.1), centre, [q]),
        }
        for name, call in cases.items():
            try:
                call()
            except ValueError:
                print(name, "ValueError")
            else:
                print(name, "returned")
    """)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coordinates_raise_value_error(self, bad):
        src = os.path.dirname(os.path.dirname(blackwell_audit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-W", "error::RuntimeWarning", "-c", self.SCRIPT, bad]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 10, done.stdout
        assert all(line.endswith(" ValueError") for line in lines), done.stdout


class TestSeparatingHyperplane:
    def test_witness_contract_three_states(self):
        p = (0.9, 0.05, 0.05)
        hull = [(0.2, 0.2, 0.6), (0.6, 0.2, 0.2), (0.2, 0.6, 0.2)]
        h = separating_hyperplane_sets([p], hull)
        assert np.max(np.abs(h.normal)) == pytest.approx(1.0)
        assert h.value(p) > 0
        assert all(h.value(q) < 0 for q in hull)

    def test_two_state_direction(self):
        h = separating_hyperplane_sets([(1, 0)], [(0.5, 0.5)])
        assert h.value((1, 0)) > 0
        assert h.value((0.5, 0.5)) < 0

    def test_interior_point_has_no_witness(self):
        with pytest.raises(NoStrictSeparation):
            separating_hyperplane_sets([(1 / 3, 1 / 3, 1 / 3)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_set_separation(self):
        h = separating_hyperplane_sets([(0.8, 0.1, 0.1), (0.7, 0.2, 0.1)], [(0.2, 0.4, 0.4)])
        assert h.value((0.8, 0.1, 0.1)) > 0 and h.value((0.7, 0.2, 0.1)) > 0
        assert h.value((0.2, 0.4, 0.4)) < 0

    def test_shared_point_inseparable(self):
        shared = (0.4, 0.3, 0.3)
        with pytest.raises(NoStrictSeparation):
            separating_hyperplane_sets([shared, (0.8, 0.1, 0.1)], [shared, (0.1, 0.5, 0.4)])

    def test_round_trip_on_random_instances(self):
        # Membership and separation must agree, and every witness must
        # re-evaluate strictly on both sides.
        rng = np.random.default_rng(7)
        for trial in range(1000):
            n = 2 + trial % 4
            k = int(rng.integers(1, 7))
            hull = [random_belief(rng, n) for _ in range(k)]
            p = random_belief(rng, n)
            if in_convex_hull(p, hull, tol=1e-9):
                with pytest.raises(NoStrictSeparation):
                    separating_hyperplane_sets([p], hull, margin=1e-9)
            else:
                h = separating_hyperplane_sets([p], hull, margin=1e-9)
                assert h.value(p) > 0
                assert max(h.value(q) for q in hull) < 0


class TestLattice:
    def test_two_state_grid(self):
        grid = simplex_lattice(2, 5)
        assert grid.shape == (5, 2)
        assert np.allclose(grid.sum(axis=1), 1.0)

    def test_three_state_count(self):
        # Resolution r lattice has C(r + 2, 2) points.
        grid = simplex_lattice(3, 11)
        assert grid.shape[0] == 66
        assert np.allclose(grid.sum(axis=1), 1.0)
        assert np.min(grid) >= 0.0

    def test_contains_vertices(self):
        grid = simplex_lattice(4, 6)
        for i in range(4):
            assert np.any(np.all(np.abs(grid - np.eye(4)[i]) < 1e-12, axis=1))

    def test_max_points_cap(self):
        grid = simplex_lattice(5, 201, max_points=50_000)
        assert grid.shape[0] <= 50_000

    @staticmethod
    def _reference(n, grid_size, max_points=2_000_000):
        """The meshgrid-and-filter (n <= 4) and combinations (n >= 5) builder."""
        res = grid_size - 1

        def count(r):
            from math import comb

            return comb(r + n - 1, n - 1)

        while count(res) > max_points and res > 1:
            res = max(1, res // 2)

        if n == 2:
            t = np.arange(res + 1, dtype=np.float64) / res
            return np.column_stack([t, 1.0 - t])

        if n <= 4:
            axes = np.meshgrid(*([np.arange(res + 1, dtype=np.int32)] * (n - 1)), indexing="ij")
            flat = np.column_stack([a.ravel() for a in axes])
            keep = flat.sum(axis=1) <= res
            flat = flat[keep]
            last = res - flat.sum(axis=1)
            grid = np.column_stack([flat, last]).astype(np.float64) / res
            return grid

        rows = []
        for combo in itertools.combinations(range(res + n - 1), n - 1):
            prev = -1
            parts = []
            for c in combo:
                parts.append(c - prev - 1)
                prev = c
            parts.append(res + n - 2 - prev)
            rows.append(parts)
        return np.asarray(rows, dtype=np.float64) / res

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bitwise_equal_to_reference(self, n):
        # A cap of 500 points halves the resolution at grid 41 for every n >= 3.
        cases = [(g, 2_000_000) for g in (2, 3, 11, 21)] + [(41, 500)]
        for grid_size, max_points in cases:
            grid = simplex_lattice(n, grid_size, max_points=max_points)
            ref = self._reference(n, grid_size, max_points)
            assert grid.shape == ref.shape
            assert grid.tobytes() == ref.tobytes(), (n, grid_size, max_points)
        if n <= 4:
            for grid_size in (41, 201):
                assert simplex_lattice(n, grid_size).tobytes() == self._reference(n, grid_size).tobytes()

    def test_read_only_and_shared(self):
        grid = simplex_lattice(3, 41)
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 0.5
        # Both resolve to resolution 20: the cache is keyed by it, not by the arguments.
        assert simplex_lattice(3, 21) is simplex_lattice(3, 41, max_points=300)
        assert simplex_lattice(3, 21).shape[0] == 231


class TestFaces:
    def test_enumeration_count(self):
        # 2**n - 1 faces in total.
        assert len(enumerate_faces(3)) == 7
        assert len(enumerate_faces(3, min_dim=1)) == 4

    def test_face_samples_stay_interior(self):
        face = Face((0, 2))
        pts = face_samples(face, 4, 32)
        assert pts.shape == (32, 4)
        assert np.allclose(pts[:, [1, 3]], 0.0)
        assert np.all(pts[:, [0, 2]] > 0)
        assert np.allclose(pts.sum(axis=1), 1.0)

    def test_face_samples_deterministic(self):
        a = face_samples(Face((0, 1, 2)), 3, 16)
        b = face_samples(Face((0, 1, 2)), 3, 16)
        assert np.array_equal(a, b)

    def test_face_samples_cached_read_only(self):
        a = face_samples(Face((0, 2)), 4, 24)
        assert a is face_samples(Face((2, 0)), 4, 24)  # one entry per (face, n, count)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.5
        assert np.array_equal(a, face_samples.__wrapped__(Face((0, 2)), 4, 24))
        assert a is not face_samples(Face((0, 2)), 4, 25)
        vertex = face_samples(Face((1,)), 3, 4)
        assert not vertex.flags.writeable and vertex is face_samples(Face((1,)), 3, 4)
