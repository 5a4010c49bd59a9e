"""Simplex geometry: segments, rank tests, hull membership, separation."""

import itertools
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blackwell_audit
from blackwell_audit import auditor, geometry
from blackwell_audit.distortions import GretherRule
from blackwell_audit.geometry import (
    TOL_GEO,
    Belief,
    DimensionMismatch,
    Face,
    NoStrictSeparation,
    enumerate_faces,
    face_samples,
    merge_owners,
    on_segment,
    separating_hyperplane_sets,
    simplex_lattice,
    uniform_belief,
)
from oracles import dedupe_points, in_convex_hull, max_margin


def random_belief(rng, n):
    return rng.dirichlet(np.ones(n))


def side(h, x) -> float:
    """The hyperplane's signed evaluation normal . x - offset."""
    return float(h.normal @ np.asarray(x, dtype=np.float64) - h.offset)


def margin_on(h, above, below) -> float:
    """The hyperplane's margin, recomputed on the points: the least of side(h, a) over the points a above
    and -side(h, b) over the points b below."""
    return min(min(side(h, a) for a in above), min(-side(h, b) for b in below))


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

    @pytest.mark.parametrize("n", [2, 3, 5, 9])
    def test_rows_are_single_calls_and_the_census_formulas(self, n):
        # Points on, near and off their segments, some segments degenerate (x = y); y is one
        # point shared by every row, as the census passes the prior, or one point per row.
        rng = np.random.default_rng(n)
        X, Y = rng.dirichlet(np.ones(n), size=(2, 300))
        X[:20] = Y[:20]
        lam = rng.uniform(-0.2, 1.2, size=(300, 1))
        noise = rng.choice([0.0, 1e-10, 1e-6], size=(300, 1)) * rng.normal(size=(300, n))
        Z = lam * X + (1.0 - lam) * Y + noise
        for y in (Y, Y[0]):
            got = on_segment(X, y, Z)
            Yr = np.broadcast_to(y, X.shape)
            for r in range(len(X)):
                one = on_segment(X[r], Yr[r], Z[r])
                assert (one.on, one.lam.tobytes(), one.resid.tobytes()) == (
                    got.on[r], got.lam[r].tobytes(), got.resid[r].tobytes())
            # The census's formulas, with column sums: one coordinate at a time, in order.
            dx, dz = X - Yr, Z - Yr
            denom, num = dx[:, 0] * dx[:, 0], dz[:, 0] * dx[:, 0]
            for c in range(1, n):
                denom, num = denom + dx[:, c] * dx[:, c], num + dz[:, c] * dx[:, c]
            with np.errstate(invalid="ignore", divide="ignore"):
                ref = np.where(denom > 0.0, num / np.where(denom > 0, denom, 1.0), 0.0)
            ref = np.clip(ref, 0.0, 1.0)
            resid = np.max(np.abs(ref[:, None] * X + (1.0 - ref[:, None]) * Yr - Z), axis=1)
            assert got.lam.tobytes() == ref.tobytes() and got.resid.tobytes() == resid.tobytes()
            assert np.array_equal(got.on, resid <= TOL_GEO) and 0 < np.count_nonzero(got.on) < len(X)


def near_copies(rng, points):
    """Each point followed by copies at sup distances 0.4e-9 to 2.5e-9 from it, along a
    direction in the simplex's plane; two copies 0.6e-9 and 1.2e-9 out make a chain whose
    end is near the middle copy only.  Rows are shuffled."""
    rows = []
    for p in points:
        d = rng.normal(size=p.shape[0])
        d -= d.mean()
        d /= np.max(np.abs(d))
        rows += [p] + [p + t * 1e-9 * d for t in (0.6, 1.2, rng.uniform(0.4, 2.5))]
    return np.asarray(rows)[rng.permutation(len(rows))]


class TestMergeRule:
    """``merge_owners`` against the pairwise loop (``oracles.dedupe_points``): a row within
    TOL_GEO of an earlier kept row joins the first such row."""

    def test_owners_match_the_pairwise_loop(self):
        rng = np.random.default_rng(24)
        merged = 0
        for trial in range(120):
            n = 2 + trial % 4
            P = near_copies(rng, rng.dirichlet(np.ones(n), size=int(rng.integers(1, 4))))
            owners = merge_owners(P)
            kept = owners == np.arange(len(P))
            assert P[kept].tobytes() == dedupe_points(P).tobytes()
            near = np.max(np.abs(P[:, None] - P[None, kept]), axis=2) <= TOL_GEO
            assert np.array_equal(owners, np.flatnonzero(kept)[np.argmax(near, axis=1)])
            merged += np.count_nonzero(~kept)
            stack = np.stack([P, P[::-1], rng.permutation(P)])  # stacked: each slice as its own call
            assert np.array_equal(merge_owners(stack), [merge_owners(S) for S in stack])
        assert merged >= 200

    def test_one_row_owns_itself(self):
        for P in ([[0.2, 0.8]], [[np.nan, 0.5, 0.5]], [[[0.3, 0.7]], [[0.3, 0.7]]], np.empty((0, 3))):
            owners = merge_owners(P)
            assert owners.dtype == np.intp and owners.shape == np.shape(P)[:-1] and not owners.any()

    def test_separation_of_near_copies_is_that_of_the_rows_the_pairwise_loop_keeps(self):
        # Near copies lie within 2.5e-9 of the rows the pairwise loop keeps, so the cut of all rows
        # and the cut of the kept rows clear the same margin within that, and neither clears
        # more than the separation LP's optimum on the kept rows.
        rng = np.random.default_rng(2410)
        for trial in range(40):
            n = 2 + trial % 4
            i = trial % n
            # Coordinate i is at least 0.7 above and at most 0.45 below.
            top = 0.7 * np.eye(n)[i] + 0.3 * rng.dirichlet(np.ones(n), size=int(rng.integers(1, 3)))
            rest = rng.dirichlet(np.ones(n), size=int(rng.integers(1, 4)))
            rest[:, i] = 0.0
            s = rng.uniform(0.0, 0.45, size=(len(rest), 1))
            above = near_copies(rng, top)
            below = near_copies(rng, s * np.eye(n)[i] + (1.0 - s) * rest / rest.sum(axis=1, keepdims=True))
            A, B = dedupe_points(above), dedupe_points(below)
            assert len(A) < len(above) and len(B) < len(below)
            m, m_kept = margin_on(separating_hyperplane_sets(above, below), above, below), margin_on(
                separating_hyperplane_sets(A, B), A, B)
            assert TOL_GEO < m <= max_margin(A, B) + 1e-13 and abs(m - m_kept) <= 2.5e-9
            assert m_kept <= max_margin(A, B) + 1e-13


class TestHostileInput:
    """NaN and infinite coordinates, and an audit tolerance outside [0, inf), end
    in ValueError, never a crashed process or a wrong verdict.

    The coordinate calls run in a child interpreter, so a crash inside the
    solver fails this test instead of killing the test run.  The child turns a
    RuntimeWarning into an error, as the pytest configuration does."""

    SCRIPT = textwrap.dedent("""
        import sys
        import numpy as np
        from blackwell_audit.geometry import (
            Belief, separating_hyperplane_sets)
        from blackwell_audit.auditor import audit
        from blackwell_audit.distortions import BayesRule, TabulatedRule, evaluate_batch
        from blackwell_audit.experiments import Experiment, PosteriorDistribution, bayes, experiment_from_posteriors
        from oracles import is_mpc

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
            "separating_hyperplane_sets single point above": lambda: separating_hyperplane_sets([q], vertices),
            "separating_hyperplane_sets above": lambda: separating_hyperplane_sets([q, centre], vertices[:2]),
            "separating_hyperplane_sets below": lambda: separating_hyperplane_sets([centre], [q] + vertices[1:]),
            "is_mpc contraction": lambda: is_mpc(hand_built([q, centre], [0.5, 0.5], centre), spread),
            "is_mpc dilation": lambda: is_mpc(spread, hand_built([q, centre], [0.5, 0.5], centre)),
            "bayes prior": lambda: bayes(q, Experiment(np.eye(3))),
            "experiment_from_posteriors prior": lambda: experiment_from_posteriors(spread, q),
            "evaluate_batch prior": lambda: evaluate_batch(BayesRule(3), q, [centre]),
            "audit prior": lambda: audit(BayesRule(3), q, grid_size=11),
            "tabulated rule query": lambda: evaluate_batch(TabulatedRule([centre], [centre], 0.1), centre, [q]),
        }
        for name, call in cases.items():
            try:
                out = call()
            except ValueError:
                print(name, "ValueError")
            else:
                print(name, "returned", out)
    """)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_coordinates_raise_value_error(self, bad):
        src = os.path.dirname(os.path.dirname(blackwell_audit.__file__))
        paths = [src, os.path.dirname(__file__), os.environ.get("PYTHONPATH", "")]  # the package, then oracles
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        argv = [sys.executable, "-W", "error::RuntimeWarning", "-c", self.SCRIPT, bad]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 10, done.stdout
        assert all(line.endswith(" ValueError") for line in lines), done.stdout

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_hostile_audit_tolerance_raises_value_error(self, monkeypatch, tol):
        # With a NaN or infinite tol no point errs and a harmful rule passes; with a negative one every point errs.
        def refuse(*args):
            raise AssertionError("the census ran under a hostile tol")

        monkeypatch.setattr(auditor, "classify_batch", refuse)
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            auditor.audit(GretherRule(2, 1, 3), (1 / 3, 1 / 3, 1 / 3), grid_size=41, budget=200, tol=tol)

    def test_zero_audit_tolerance_still_audits(self):
        rep = auditor.audit(GretherRule(2, 1, 3), (1 / 3, 1 / 3, 1 / 3), grid_size=41, budget=200, tol=0.0)
        assert rep.verdict == "violation" and auditor.verify_certificate(rep.certificate)[0]


class TestSeparatingHyperplane:
    def test_witness_contract_three_states(self):
        p = (0.9, 0.05, 0.05)
        hull = [(0.2, 0.2, 0.6), (0.6, 0.2, 0.2), (0.2, 0.6, 0.2)]
        h = separating_hyperplane_sets([p], hull)
        assert np.max(np.abs(h.normal)) == pytest.approx(1.0)
        assert side(h, p) > 0
        assert all(side(h, q) < 0 for q in hull)

    def test_two_state_direction(self):
        h = separating_hyperplane_sets([(1, 0)], [(0.5, 0.5)])
        assert side(h, (1, 0)) > 0
        assert side(h, (0.5, 0.5)) < 0

    def test_interior_point_has_no_witness(self):
        with pytest.raises(NoStrictSeparation):
            separating_hyperplane_sets([(1 / 3, 1 / 3, 1 / 3)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_set_separation(self):
        h = separating_hyperplane_sets([(0.8, 0.1, 0.1), (0.7, 0.2, 0.1)], [(0.2, 0.4, 0.4)])
        assert side(h, (0.8, 0.1, 0.1)) > 0 and side(h, (0.7, 0.2, 0.1)) > 0
        assert side(h, (0.2, 0.4, 0.4)) < 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            separating_hyperplane_sets([(0.5, 0.5)], [(1, 0, 0), (0, 1, 0)])
        with pytest.raises(DimensionMismatch):
            separating_hyperplane_sets([(1, 0, 0), (0.5, 0.5, 0)], [(0.5, 0.5)])

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
                assert side(h, p) > 0
                assert max(side(h, q) for q in hull) < 0



class TestSeparationWitness:
    """One least-distance solve cuts or refuses, and its margin is checked on the points."""

    MARGINS = (geometry.TOL_GEO, auditor.SEP_MARGIN)

    @staticmethod
    def _pairs(rng, count):
        """(kind, above, below) draws with n = 2-5 and one or several points above: an above
        point inside hull(below), a point shared and repeated, points 1e-9 to 1e-6 off
        hull(below)'s extreme point along a direction in the simplex's plane, on either side,
        and disjoint hulls."""
        for _ in range(count):
            n = int(rng.integers(2, 6))
            below = rng.dirichlet(np.ones(n) * rng.choice([0.3, 1.0, 5.0]), size=int(rng.integers(1, n + 3)))
            others = rng.dirichlet(np.ones(n), size=int(rng.integers(0, 3)))
            inside = rng.dirichlet(np.ones(len(below))) @ below
            yield "meet", np.vstack([others, inside]), below
            j = int(rng.integers(len(below)))
            yield "duplicate", np.vstack([below[j], others, below[j]]), np.vstack([below, below[j]])
            d = rng.normal(size=n)
            d -= d.mean()
            shift = 10.0 ** rng.uniform(-9, -6) * rng.choice([-1.0, 1.0]) * d / np.max(np.abs(d))
            edge = below[int(np.argmax(below @ d))]  # a point of hull(below) extreme along d
            yield "near", edge + shift * np.arange(1, int(rng.integers(2, 4)))[:, None], below
            # Coordinate i is at least 0.6 above and at most 0.5 below.
            i = int(rng.integers(n))
            rest = rng.dirichlet(np.ones(n), size=len(below))
            rest[:, i] = 0.0
            s = rng.uniform(0.0, 0.5, size=(len(below), 1))
            far = s * np.eye(n)[i] + (1.0 - s) * rest / rest.sum(axis=1, keepdims=True)
            t = rng.uniform(0.6, 1.0, size=(1 + len(others), 1))
            top = t * np.eye(n)[i] + (1.0 - t) * rng.dirichlet(np.ones(n), size=len(t))
            yield "disjoint", top, far

    def test_meeting_hulls_are_refused_and_no_cut_passes_the_lp_optimum(self):
        # Every cut returned clears its margin on the points, and no more than the separation LP's
        # optimum (``oracles.max_margin``) allows.
        refused = dict.fromkeys(("meet", "duplicate", "near", "disjoint"), 0)
        separated = dict(refused)
        for kind, above, below in self._pairs(np.random.default_rng(2027), 150):
            for margin in self.MARGINS:
                try:
                    h = separating_hyperplane_sets(above, below, margin)
                except NoStrictSeparation:
                    refused[kind] += 1
                else:
                    separated[kind] += 1
                    assert margin < margin_on(h, above, below) <= max_margin(above, below) + 1e-13, (kind, margin)
                    assert np.max(np.abs(h.normal)) == 1.0
        assert refused["meet"] == refused["duplicate"] == 300 and separated["disjoint"] == 300, (refused, separated)
        assert refused["near"] >= 100 and separated["near"] >= 100, (refused, separated)

    def test_the_cut_is_centred_and_near_the_lp_optimum(self):
        # Shifting the normal by -(max + min) / 2 keeps the cut on the simplex and gives it the
        # least sup norm, so scaled to sup norm 1 it clears more: without the shift, these
        # margins fall to 0.68 of the LP's (0.85 in the median).
        ratios = []
        for kind, above, below in self._pairs(np.random.default_rng(2027), 150):
            if kind == "disjoint":
                h = separating_hyperplane_sets(above, below)
                assert abs(np.max(h.normal) + np.min(h.normal)) <= 1e-15
                ratios.append(margin_on(h, above, below) / max_margin(above, below))
        assert min(ratios) >= 0.75 and np.median(ratios) >= 0.9, (min(ratios), np.median(ratios))

    def test_repeated_and_reordered_points_keep_the_cut(self):
        # The least-distance residual is unique, whatever the order or the repeats of its columns.
        rng = np.random.default_rng(12)
        for kind, above, below in self._pairs(np.random.default_rng(2027), 60):
            A2 = np.vstack([above, above[::-1]])[rng.permutation(2 * len(above))]
            B2 = np.vstack([below, below])[rng.permutation(2 * len(below))]
            if kind in ("meet", "duplicate"):
                for pair in ((above, below), (A2, B2)):
                    with pytest.raises(NoStrictSeparation):
                        separating_hyperplane_sets(*pair)
            elif kind == "disjoint":
                h, h2 = separating_hyperplane_sets(above, below), separating_hyperplane_sets(A2, B2)
                assert np.max(np.abs(h.normal - h2.normal)) <= 1e-12 and abs(h.offset - h2.offset) <= 1e-12

    def test_a_point_inside_the_hull_below_is_refused(self):
        for kind, above, below in self._pairs(np.random.default_rng(77), 200):
            if kind in ("meet", "duplicate"):
                for margin in self.MARGINS:
                    with pytest.raises(NoStrictSeparation):
                        separating_hyperplane_sets(above, below, margin)
        with pytest.raises(NoStrictSeparation):
            separating_hyperplane_sets([(0.5, 0.5)], [(1, 0), (0, 1)])

    def test_a_failed_solve_refuses(self, monkeypatch):
        # No cut without the least-distance solve, even between sets that are far apart.
        def fail(*args, **kwargs):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(geometry, "nnls", fail)
        with pytest.raises(NoStrictSeparation, match="^the least-distance solve failed"):
            separating_hyperplane_sets([(1 / 3, 1 / 3, 1 / 3)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        with pytest.raises(NoStrictSeparation, match="^the least-distance solve failed"):
            separating_hyperplane_sets([(0.9, 0.05, 0.05)], [(0.2, 0.2, 0.6), (0.2, 0.6, 0.2)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_raises_value_error(self, bad):
        # The finite points meet, so a witness that dropped the bad point would refuse.
        centre, vertices = np.full(3, 1 / 3), np.eye(3)
        q = np.array([bad, 0.5, 0.5])
        for above, below in (([q], vertices), ([centre, q], vertices), ([centre], np.vstack([vertices, q]))):
            with pytest.raises(ValueError, match="^points to separate must be finite$") as err:
                separating_hyperplane_sets(above, below)
            assert not isinstance(err.value, NoStrictSeparation)


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

    @staticmethod
    def _stars_and_bars(n, res):
        """The int64 stars-and-bars builder that divided one stacked array by res."""
        if n == 2:
            t = np.arange(res + 1, dtype=np.float64) / res
            return np.column_stack([t, 1.0 - t])
        cols: list = []
        left = np.array([res])
        for _ in range(n - 1):
            counts = left + 1
            value = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
            cols = [np.repeat(c, counts) for c in cols] + [value]
            left = np.repeat(left, counts) - value
        return np.column_stack(cols + [left]) / res

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bitwise_equal_to_stars_and_bars(self, n):
        # A cap of 100,000 points leaves grid 201 at resolution 200 for n = 3 and halves it to 12 for n = 6 to 8.
        for grid_size in (2, 3, 8, 11, 21, 201):
            res = grid_size - 1
            while math.comb(res + n - 1, n - 1) > 100_000 and res > 1:
                res = max(1, res // 2)
            grid = simplex_lattice(n, grid_size, max_points=100_000)
            ref = self._stars_and_bars(n, res)
            assert grid.dtype == ref.dtype and grid.shape == ref.shape
            assert grid.tobytes() == ref.tobytes(), (n, grid_size)

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
