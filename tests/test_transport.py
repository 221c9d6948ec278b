"""Tests for the discrete optimal-transport core.

Expected values come from independent oracles computed here: brute-force
enumeration over all matchings for small equal-weight clouds, and the
translation argument (shifting a cloud by v moves every unit of mass by
|v|, which is optimal for quadratic cost).
"""

import itertools
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import min_weight_full_bipartite_matching
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from vptwin import fields, transport
from vptwin.errors import MassMismatchError, TransportError
from vptwin.transport import WeightedCloud, coupling_cost, ordered_sum, squared_norms, w2_exact

from oracles import (
    UnboundedTree,
    displacement_interpolate,
    geodesic_linf_check,
    ledger_sum,
    load_plan,
    loop_sum,
    merge_coincident,
    row_sum_loop,
)

RNG_SEED = 20240811


def brute_force_w2(a: WeightedCloud, b: WeightedCloud) -> float:
    """Minimum over all permutations for equal-count equal-weight clouds."""
    assert a.n == b.n <= 8
    assert np.allclose(a.weights, a.weights[0]) and np.allclose(b.weights, a.weights[0])
    perms = np.array(list(itertools.permutations(range(b.n))))
    diff = a.points[:, None, :] - b.points[None, :, :]
    pair = (diff * diff).sum(axis=2)
    return float(np.sqrt(a.weights[0] * pair[np.arange(a.n), perms].sum(axis=1).min()))


def random_cloud(rng, n, d=3, mass=1.0, uniform=True):
    pts = rng.normal(size=(n, d))
    if uniform:
        w = np.full(n, mass / n)
    else:
        w = rng.random(n) + 0.1
        w *= mass / w.sum()
    return WeightedCloud(pts, w)


SQUARED_NORM_DIMS = (1, 2, 3, 6, 8, 11, 17)


class TestSquaredNorms:
    @pytest.mark.parametrize("d", SQUARED_NORM_DIMS)
    def test_matches_column_order_loop(self, d):
        rng = np.random.default_rng(RNG_SEED + d)
        gap = rng.normal(size=(64, d)) * np.exp(8.0 * rng.normal(size=(64, d)))
        gap[::5, 0] = -0.0
        assert squared_norms(gap).tobytes() == row_sum_loop(gap).tobytes()

    @pytest.mark.parametrize("columns", range(1, 7))
    @pytest.mark.parametrize("layout", ["c", "f", "view"])
    def test_reused_buffers_keep_the_per_column_bits(self, columns, layout):
        # every product after the first column goes through one shared
        # buffer, whatever the gap's memory layout: C order, Fortran order,
        # or a strided view into a wider array
        rng = np.random.default_rng(RNG_SEED + columns)
        wide = rng.normal(size=(40, 2 * columns)) * np.exp(6.0 * rng.normal(size=(40, 2 * columns)))
        gap = {
            "c": np.ascontiguousarray(wide[:, :columns]),
            "f": np.asfortranarray(wide[:, :columns]),
            "view": wide[:, ::2],
        }[layout]
        before = gap.copy()
        got = squared_norms(gap)
        assert got.tobytes() == row_sum_loop(gap).tobytes()
        assert np.array_equal(gap, before)
        assert not np.shares_memory(got, gap)


class TestOrderedSum:
    @staticmethod
    def terms(rng, n):
        # wide exponents and cancellation, where any other order moves bits
        x = rng.normal(size=n) * np.exp(10.0 * rng.normal(size=n))
        return np.concatenate([x, -x[: n // 3]])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000, 4099])
    def test_equals_left_to_right_loop(self, n):
        x = self.terms(np.random.default_rng(RNG_SEED + n), n)
        want = loop_sum(x)
        got = ordered_sum(x.copy())
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))

    def test_differs_from_a_reordered_sum(self):
        # the loop oracle does see order: reversing the terms moves the bits
        x = self.terms(np.random.default_rng(RNG_SEED), 1000)
        assert ordered_sum(x.copy()) != ordered_sum(x[::-1].copy())

    def test_no_terms_is_positive_zero(self):
        for empty in (np.zeros(0), np.zeros((0, 3)), np.zeros((4, 0))):
            got = ordered_sum(empty)
            assert got == 0.0 and math.copysign(1.0, got) == 1.0

    def test_single_negative_zero_is_kept(self):
        got = ordered_sum(np.array([-0.0]))
        assert got == 0.0 and math.copysign(1.0, got) == -1.0

    def test_non_contiguous_view_sums_its_c_order(self):
        rng = np.random.default_rng(RNG_SEED)
        base = self.terms(rng, 600).reshape(40, 20)
        view = base.T[::2]  # (10, 40), neither C- nor F-contiguous
        assert not view.flags.c_contiguous and not view.flags.f_contiguous
        keep = base.copy()
        assert ordered_sum(view) == ordered_sum(np.ascontiguousarray(view)) == loop_sum(view)
        assert np.array_equal(base, keep)  # summed through a copy

    def test_writes_running_sums_into_its_scratch(self):
        x = np.array([1.0, 2.0, 3.0])
        assert ordered_sum(x) == 6.0
        assert x.tolist() == [1.0, 3.0, 6.0]

    def test_totals_go_through_it(self):
        rng = np.random.default_rng(RNG_SEED)
        w = rng.random(999) + 1e-3
        x = rng.normal(size=(999, 3))
        cloud = WeightedCloud(x, w)
        keep = cloud.weights.copy()
        assert cloud.total_mass == loop_sum(w)
        assert np.array_equal(cloud.weights, keep)
        assert coupling_cost(w, x) == ledger_sum(w, x)


class TestW2Exact:
    def test_identical_clouds(self):
        rng = np.random.default_rng(RNG_SEED)
        a = random_cloud(rng, 17)
        d, plan = w2_exact(a, a)
        assert d == 0.0
        assert np.array_equal(plan.src, plan.tgt)

    def test_two_point_translate(self):
        a = WeightedCloud([[0, 0, 0], [1, 0, 0]], [0.5, 0.5])
        b = WeightedCloud(a.points + [0.1, 0, 0], a.weights)
        d, plan = w2_exact(a, b)
        assert d == pytest.approx(0.1, rel=1e-12)
        assert d == pytest.approx(brute_force_w2(a, b), rel=1e-12)
        assert plan.cost == pytest.approx(d * d, rel=1e-12)

    def test_100_point_translate(self):
        # translation map is optimal for quadratic cost: distance = |v| at unit mass
        rng = np.random.default_rng(RNG_SEED)
        a = random_cloud(rng, 100)
        b = WeightedCloud(a.points + [0.3, 0, 0], a.weights)
        d, _ = w2_exact(a, b)
        assert d == pytest.approx(0.3, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            a = random_cloud(rng, n)
            b = WeightedCloud(rng.normal(size=(n, 3)), a.weights)
            d, plan = w2_exact(a, b)
            assert d == pytest.approx(brute_force_w2(a, b), abs=1e-12)
            row, col = plan.marginals()
            np.testing.assert_allclose(row, a.weights, rtol=1e-12)
            np.testing.assert_allclose(col, b.weights, rtol=1e-12)

    def test_unequal_weights_against_split_points(self):
        # a weight-2w point is the same measure as two coincident weight-w
        # points, so the LP route must match the assignment route
        rng = np.random.default_rng(RNG_SEED)
        pts = rng.normal(size=(3, 3))
        a_lp = WeightedCloud(pts, [0.5, 0.25, 0.25])
        a_eq = WeightedCloud(np.vstack([pts[0], pts]), [0.25] * 4)
        b = random_cloud(rng, 4, mass=1.0)
        d_lp, plan = w2_exact(a_lp, b)
        d_eq, _ = w2_exact(a_eq, b)
        assert d_lp == pytest.approx(d_eq, rel=1e-9)
        assert np.all(plan.mass >= 0)
        assert plan.solver == "lp"

    def test_metric_properties(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(10):
            a = random_cloud(rng, 6)
            b = WeightedCloud(rng.normal(size=(6, 3)), a.weights)
            c = WeightedCloud(rng.normal(size=(6, 3)), a.weights)
            dab, _ = w2_exact(a, b)
            dba, _ = w2_exact(b, a)
            dac, _ = w2_exact(a, c)
            dbc, _ = w2_exact(b, c)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dac <= dab + dbc + 1e-9
            assert w2_exact(a, a)[0] == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(RNG_SEED)
        a = random_cloud(rng, 12)
        b = random_cloud(rng, 12)
        v = np.array([1.7, -0.4, 2.2])
        d0, _ = w2_exact(a, b)
        d1, _ = w2_exact(
            WeightedCloud(a.points + v, a.weights), WeightedCloud(b.points + v, b.weights)
        )
        assert d1 == pytest.approx(d0, rel=1e-12)

    def test_mass_mismatch_rejected(self):
        a = WeightedCloud([[0, 0, 0]], [1.0])
        b = WeightedCloud([[0, 0, 0]], [1.0 + 1e-6])
        with pytest.raises(MassMismatchError):
            w2_exact(a, b)

    def test_size_guard(self):
        n = transport.MAX_ASSIGNMENT_SIDE + 1
        pts = np.zeros((n, 3))
        pts[:, 0] = np.arange(n)
        a = WeightedCloud(pts, np.full(n, 1.0 / n))
        with pytest.raises(TransportError):
            w2_exact(a, WeightedCloud(a.points + [0.5, 0, 0], a.weights))

    def test_lp_entry_guard(self):
        n = 700  # unequal sizes force the LP route; 700*700 > guard
        rng = np.random.default_rng(RNG_SEED)
        a = random_cloud(rng, n)
        b = random_cloud(rng, n - 1)
        with pytest.raises(TransportError):
            w2_exact(a, b)


def dense_w2(a: WeightedCloud, b: WeightedCloud):
    """The dense assignment path alone: cdist + linear_sum_assignment."""
    rows, cols = linear_sum_assignment(cdist(a.points, b.points, "sqeuclidean"))
    plan = transport.TransportPlan(rows, cols, a.weights[rows], a, b)
    return math.sqrt(max(plan.cost, 0.0)), plan


def assert_same_bits(got, want):
    (d_got, p_got), (d_want, p_want) = got, want
    assert np.array_equal(p_got.src, p_want.src)
    assert np.array_equal(p_got.tgt, p_want.tgt)
    assert np.array_equal(p_got.mass, p_want.mass)
    assert d_got == d_want


@pytest.fixture
def tree_queries(monkeypatch):
    """Records (query dimension, k, distance_upper_bound, share of
    neighbours left unfound) of every KD-tree query w2_exact makes."""
    queries = []

    class RecordingTree(cKDTree):
        def query(self, x, k=1, distance_upper_bound=np.inf, **kwargs):
            dist, idx = super().query(x, k=k, distance_upper_bound=distance_upper_bound, **kwargs)
            queries.append((np.shape(x)[1], k, distance_upper_bound, np.isinf(dist).mean()))
            return dist, idx

    monkeypatch.setattr(transport, "cKDTree", RecordingTree)
    return queries


@pytest.fixture
def lsa_calls(monkeypatch):
    """Records every linear_sum_assignment call w2_exact makes."""
    calls = []

    def counting(cost_matrix):
        calls.append(cost_matrix.shape)
        return linear_sum_assignment(cost_matrix)

    # the dense tier imports it from scipy.optimize at each use
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counting)
    return calls


# sources 0 and 1 share their nearest target before and after the move by
# the barycentre gap; the sorted pairing is the unique optimal plan
COLLIDING_X = [[0, 0, 0], [1, 0, 0], [10, 0, 0]]
COLLIDING_Y = [[0.9, 0, 0], [5, 0, 0], [10, 0, 0]]


# two sources whose index pairing is optimal by a margin below the rounding
# of their translates a million units from the origin
ROUNDED_X = [[1000005.7815820737, 1000003.8649541371, 0.0],
             [1000005.7716226762, 1000003.8476102506, 0.0]]
ROUNDED_Y = [[1000006.3172284394, 1000004.7908961577, 0.0],
             [1000006.334572326, 1000004.7809367601, 0.0]]


def uniform(points):
    points = np.asarray(points, dtype=np.float64)
    return WeightedCloud(points, np.full(points.shape[0], 1.0 / points.shape[0]))


class TestNearestNeighbourShortcut:
    @pytest.mark.parametrize("d", [3, 6])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_near_translation_bitwise_equals_dense(self, lsa_calls, d, shuffle):
        rng = np.random.default_rng(RNG_SEED)
        n = 2048
        x = rng.normal(size=(n, d))
        y = x + 1e-3 * rng.normal(size=d) + 1e-5 * rng.normal(size=(n, d))
        if shuffle:
            y = y[rng.permutation(n)]
        a, b = uniform(x), uniform(y)
        got = w2_exact(a, b)
        assert lsa_calls == []
        assert got[1].solver == "nearest"
        if shuffle:
            assert not np.array_equal(got[1].tgt, np.arange(n))
        assert_same_bits(got, dense_w2(a, b))

    @pytest.mark.parametrize("d", [3, 6])
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_rigid_translation_past_half_the_spacing(self, lsa_calls, d, shuffle):
        # moved by many closest-pair spacings, the nearest-target map is no
        # permutation; moved back by the barycentre gap, it is the pairing
        rng = np.random.default_rng(RNG_SEED + d)
        n = 2048
        x = rng.normal(size=(n, d))
        shift = 0.2 * rng.normal(size=d)
        y = x + shift
        spacing = cKDTree(x).query(x, k=2)[0][:, 1].min()
        assert math.hypot(*shift) > 0.5 * spacing
        assert np.unique(cKDTree(y).query(x)[1]).size < n
        if shuffle:
            y = y[rng.permutation(n)]
        a, b = uniform(x), uniform(y)
        got = w2_exact(a, b)
        assert lsa_calls == []
        assert got[1].solver == "nearest"
        assert_same_bits(got, dense_w2(a, b))

    @pytest.mark.parametrize("shift", [1e3, 1e8, 1e12])
    def test_far_translation_is_served_bitwise_or_refused(self, shift):
        # moved back by the barycentre gap, every source point is nearest
        # its own partner, but C's entries near 3 shift^2 carry rounding
        # the 1e-6 jitter cannot beat: past 1e8 the dense solve returns
        # another permutation, which the tier must not contradict
        rng = np.random.default_rng(RNG_SEED)
        x = rng.normal(size=(512, 3))
        a, b = uniform(x), uniform(x + shift + 1e-6 * rng.normal(size=x.shape))
        dense = dense_w2(a, b)
        if shift >= 1e8:
            assert not np.array_equal(dense[1].tgt, np.arange(512))
        sigma = transport._nearest_neighbour_permutation(a, b, cKDTree(b.points))
        assert sigma is None or np.array_equal(sigma, dense[1].tgt)
        got = w2_exact(a, b)
        assert (got[1].solver == "nearest") == (sigma is not None)
        assert_same_bits(got, dense)

    def test_translation_rounding_is_allowed_for(self):
        # a pair a million units out, turned almost square to its targets:
        # x_i + c rounds by up to 6e-11 per coordinate there, more than the
        # margin, and both rounded translates land nearest the other target
        a, b = uniform(ROUNDED_X), uniform(ROUNDED_Y)
        dense = dense_w2(a, b)
        moved = a.points + (b.points - a.points).sum(axis=0) / 2
        assert np.array_equal(cKDTree(b.points).query(moved)[1], 1 - dense[1].tgt)
        assert transport._nearest_neighbour_permutation(a, b, cKDTree(b.points)) is None
        assert_same_bits(w2_exact(a, b), dense)

    def test_colliding_nearest_neighbours_fall_back(self, lsa_calls):
        # the far pair adds no gap, so the barycentre gap (1.633, 0, 0)
        # moves sources 0 and 1 to 1.633 and 2.633, both nearest target 0;
        # the optimum is unique, so the sparse tier serves it
        a = uniform(COLLIDING_X)
        b = uniform(COLLIDING_Y)
        got = w2_exact(a, b)
        assert got[1].solver == "sparse"
        assert lsa_calls == []
        assert_same_bits(got, dense_w2(a, b))
        assert got[0] == pytest.approx(brute_force_w2(a, b), rel=1e-12)

    def test_exact_tie_falls_back(self, lsa_calls):
        # targets 0-4 sit half a spacing past their sources, target 5 three
        # and a half: the barycentre gap is exactly 1, so each translated
        # source but the last lies halfway between two targets. On a line
        # the sorted pairing is the unique optimal plan
        line = np.zeros((6, 3))
        line[:, 0] = np.arange(6)
        moved = line.copy()
        moved[:, 0] += [0.5, 0.5, 0.5, 0.5, 0.5, 3.5]
        a, b = uniform(line), uniform(moved)
        got = w2_exact(a, b)
        assert got[1].solver == "sparse"
        assert lsa_calls == []
        assert np.array_equal(got[1].tgt, np.arange(6))
        assert_same_bits(got, dense_w2(a, b))
        assert got[0] == pytest.approx(math.sqrt(5 / 6 * 0.25 + 3.5**2 / 6), rel=1e-12)

    @pytest.mark.parametrize(
        "gap, dense_calls, solver", [(1e-12, [], "sparse"), (1e-6, [], "nearest")]
    )
    def test_near_tie_inside_margin_falls_back(self, lsa_calls, gap, dense_calls, solver):
        # the target pair is turned almost square to the source pair, so no
        # translation separates them: moved by the barycentre gap, source 0
        # is nearest to target 0, target 1 only 2 `gap` farther in squared
        # distance. The map is a permutation either way, the margin alone
        # decides whether the shortcut serves it (the optimum is unique, so
        # the sparse tier serves it otherwise)
        a = uniform([[0, 0, 0], [1, 0, 0]])
        b = uniform([[-gap, 0.4, 0], [gap, -0.4, 0]])
        got = w2_exact(a, b)
        assert got[1].solver == solver
        assert lsa_calls == dense_calls
        assert_same_bits(got, dense_w2(a, b))

    def test_underflowing_distances_fall_back(self, lsa_calls):
        # squared distances near 1e-320 are subnormal: clear by the margin,
        # but too coarse for a relative rounding bound
        a = uniform([[0, 0, 0], [4e-160, 0, 0]])
        b = uniform([[1e-160, 0, 0], [3e-160, 0, 0]])
        got = w2_exact(a, b)
        assert lsa_calls == [(2, 2)]
        assert got[1].solver == "dense"
        assert_same_bits(got, dense_w2(a, b))

    def test_duplicate_source_points_fall_back(self, lsa_calls):
        # the two coincident sources can swap targets at equal cost: a tie
        a = uniform([[0, 0, 0], [0, 0, 0], [3, 0, 0]])
        b = uniform([[0.1, 0, 0], [0, 0.3, 0], [3, 0, 0]])
        got = w2_exact(a, b)
        assert lsa_calls == [(3, 3)]
        assert got[1].solver == "dense"
        assert_same_bits(got, dense_w2(a, b))
        assert got[0] == pytest.approx(brute_force_w2(a, b), rel=1e-12)

    def test_single_point(self, lsa_calls):
        a = uniform([[1.0, 2.0, 3.0]])
        b = WeightedCloud(a.points + [0.5, 0, 0], a.weights)
        got = w2_exact(a, b)
        assert lsa_calls == []
        assert got[1].solver == "nearest"
        assert got[0] == 0.5
        assert_same_bits(got, dense_w2(a, b))

    def test_size_guard_before_any_tree(self, monkeypatch):
        def no_tree(*args, **kwargs):
            raise AssertionError("KD-tree built past the size guard")

        monkeypatch.setattr(transport, "cKDTree", no_tree)
        n = transport.MAX_ASSIGNMENT_SIDE + 1
        pts = np.zeros((n, 3))
        pts[:, 0] = np.arange(n)
        a = uniform(pts)
        with pytest.raises(TransportError, match="exact-solver guard"):
            w2_exact(a, WeightedCloud(a.points + [0.5, 0, 0], a.weights))


class TestSparseTier:
    """The certified sparse tier between the shortcut and the dense solve."""

    def test_exact_tie_reaches_dense(self, lsa_calls):
        # both pairings of these unit-square corners cost 2
        a = uniform([[0, 0, 0], [1, 1, 0]])
        b = uniform([[1, 0, 0], [0, 1, 0]])
        got = w2_exact(a, b)
        assert lsa_calls == [(2, 2)]
        assert got[1].solver == "dense"
        assert_same_bits(got, dense_w2(a, b))
        assert got[0] == pytest.approx(brute_force_w2(a, b), rel=1e-12)

    def test_near_tie_inside_theta_reaches_dense(self, lsa_calls):
        # the two pairings differ by 2e-14 in cost, inside the margin theta
        a = uniform([[0, 0, 0], [1, 1, 0]])
        b = uniform([[1, 0, 0], [0, 1 + 1e-14, 0]])
        got = w2_exact(a, b)
        assert lsa_calls == [(2, 2)]
        assert got[1].solver == "dense"
        assert_same_bits(got, dense_w2(a, b))

    def test_duplicate_points_reach_dense(self, lsa_calls):
        # coincident pairs in both clouds: their targets can swap at no cost
        a = uniform([[0, 0, 0], [2, 0, 0], [2, 0, 0], [5, 0, 0]])
        b = uniform([[0.2, 0, 0], [2.5, 0, 0], [2.5, 0, 0], [5.1, 0, 0]])
        got = w2_exact(a, b)
        assert lsa_calls == [(4, 4)]
        assert got[1].solver == "dense"
        assert_same_bits(got, dense_w2(a, b))
        assert got[0] == pytest.approx(brute_force_w2(a, b), rel=1e-12)

    def test_coincident_clouds_reach_dense(self, lsa_calls):
        # every candidate pair costs 0: no nonzero weight for the matching
        a = uniform(np.ones((3, 3)))
        got = w2_exact(a, a)
        assert lsa_calls == [(3, 3)]
        assert got[1].solver == "dense"
        assert got[0] == 0.0

    def test_jittered_translation_builds_no_cost_matrix(self, monkeypatch, lsa_calls):
        def no_cdist(*args, **kwargs):
            raise AssertionError("n x n cost matrix built")

        monkeypatch.setattr(transport, "cdist", no_cdist)
        rng = np.random.default_rng(RNG_SEED)
        n = 2048
        x = rng.normal(size=(n, 3))
        a, b = uniform(x), uniform(x + 0.01 * rng.normal(size=(n, 3)))
        got = w2_exact(a, b)
        assert got[1].solver == "sparse"
        assert lsa_calls == []
        monkeypatch.undo()
        assert_same_bits(got, dense_w2(a, b))

    def test_violated_pairs_join_a_second_round(self, monkeypatch, lsa_calls, tree_queries):
        # an optimal pair outside the 8 nearest targets: the first round's
        # duals violate it, the bounded lifted query still finds it, and the
        # second round's graph holds it
        solves = []

        def counting(graph):
            solves.append(graph.nnz)
            return min_weight_full_bipartite_matching(graph)

        monkeypatch.setattr(transport, "min_weight_full_bipartite_matching", counting)
        rng = np.random.default_rng(162)
        x = rng.normal(size=(24, 3))
        a, b = uniform(x), uniform(x + 0.3 * rng.normal(size=(24, 3)))
        got = w2_exact(a, b)
        assert got[1].solver == "sparse"
        assert len(solves) == 2 and solves[1] > solves[0]
        lifted = [bound for dim, k, bound, _ in tree_queries if dim == 4]
        assert len(lifted) == 2 and all(np.isfinite(lifted))
        assert lsa_calls == []
        assert_same_bits(got, dense_w2(a, b))

    def test_no_full_matching_on_neighbours_reaches_dense(self, monkeypatch, lsa_calls):
        # independent samples: the nearest-target graph has no full matching
        def no_solve(graph):
            raise AssertionError("sparse matching solved")

        monkeypatch.setattr(transport, "min_weight_full_bipartite_matching", no_solve)
        rng = np.random.default_rng(RNG_SEED)
        a, b = uniform(rng.normal(size=(64, 3))), uniform(rng.normal(size=(64, 3)))
        got = w2_exact(a, b)
        assert lsa_calls == [(64, 64)]
        assert got[1].solver == "dense"

    def test_non_optimal_candidate_is_refused(self, monkeypatch, lsa_calls):
        # a matching solver returning a worse pairing: its duals have a
        # negative cycle, so the certificate fails
        monkeypatch.setattr(
            transport, "min_weight_full_bipartite_matching",
            lambda g: (np.arange(3), np.array([1, 0, 2])),
        )
        a, b = uniform(COLLIDING_X), uniform(COLLIDING_Y)
        got = w2_exact(a, b)
        assert lsa_calls == [(3, 3)]
        assert got[1].solver == "dense"
        assert np.array_equal(got[1].tgt, [0, 1, 2])

    def test_more_near_tight_targets_than_neighbours_refuses(self, monkeypatch, lsa_calls):
        # source 0 sits at the centre of 12 unit-sphere targets, its own
        # 2e-13 nearer; sources 1-11 sit on theirs, and a far source 12
        # carries the opposite gap, so the barycentre gap is zero to
        # rounding. The optimum is unique, but row 0 has 11 near-tight
        # pairs and the lifted query sees 8: the k-th neighbour refusal,
        # inside the bound, sends it to dense
        rng = np.random.default_rng(RNG_SEED)
        y = rng.normal(size=(13, 3))
        y /= np.sqrt(squared_norms(y))[:, None]
        y[0] *= 1 - 1e-13
        y[12] = [8.0, 0.0, 0.0]
        x = y.copy()
        x[0] = 0.0
        x[12] = y[12] + y[0]
        solves, duals = [], []
        column_duals = transport._column_duals

        def counting(graph):
            solves.append(graph.nnz)
            return min_weight_full_bipartite_matching(graph)

        def recording(*args):
            duals.append(column_duals(*args))
            return duals[-1]

        def no_components(*args, **kwargs):
            raise AssertionError("strong-component test reached")

        monkeypatch.setattr(transport, "min_weight_full_bipartite_matching", counting)
        monkeypatch.setattr(transport, "_column_duals", recording)
        monkeypatch.setattr(transport, "connected_components", no_components)
        a, b = uniform(x), uniform(y)
        got = w2_exact(a, b)
        assert len(solves) == 1 and duals[0] is not None
        assert lsa_calls == [(13, 13)]
        assert got[1].solver == "dense"
        assert np.array_equal(got[1].tgt, np.arange(13))
        assert_same_bits(got, dense_w2(a, b))

    def test_infeasible_duals_are_refused(self, monkeypatch, lsa_calls):
        # zero column duals are feasible only for the nearest-neighbour map
        # of the untranslated clouds, here not a permutation; the lifted
        # check finds the violated pair in both rounds
        monkeypatch.setattr(transport, "_column_duals", lambda src, dst, weight, n: np.zeros(n))
        a, b = uniform(COLLIDING_X), uniform(COLLIDING_Y)
        got = w2_exact(a, b)
        assert lsa_calls == [(3, 3)]
        assert got[1].solver == "dense"


def unbounded(call, *args):
    """call(*args) with every KD-tree that transport builds searched without
    a radius."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "cKDTree", UnboundedTree)
        return call(*args)


def assert_bound_changes_nothing(a, b):
    """Each certificate tier gives the same sigma, or the same refusal, with
    its pruned queries as with unbounded ones; w2_exact names the same
    solver either way, and both give the dense solve's bits."""
    for tier in (transport._nearest_neighbour_permutation, transport._sparse_permutation):
        got = tier(a, b, cKDTree(b.points))
        want = unbounded(tier, a, b, UnboundedTree(b.points))
        assert (got is None) == (want is None)
        assert want is None or np.array_equal(got, want)
    got, want, dense = w2_exact(a, b), unbounded(w2_exact, a, b), dense_w2(a, b)
    assert got[1].solver == want[1].solver
    assert_same_bits(got, dense)
    assert_same_bits(want, dense)


@st.composite
def index_aligned_pairs(draw):
    """Twin-shaped pairs, y_i a shifted and jittered x_i, for d = 3 and 6
    and n from 1 to 1024 (2048 is seeded below); zero shift and jitter is a
    twin's step 0, a shift of 3 leaves no source point near its partner
    until the nearest tier moves it by the barycentre gap, and a shuffle
    leaves the index pairing meaningless, so the radius is large."""
    d = draw(st.sampled_from([3, 6]))
    n = draw(st.sampled_from([1, 2, 3, 8, 9, 64, 256, 1024]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, d))
    shift = draw(st.sampled_from([0.0, 1e-3, 0.3, 3.0])) * rng.normal(size=d)
    y = x + shift + draw(st.sampled_from([0.0, 1e-5, 1e-3, 1e-2, 0.1])) * rng.normal(size=(n, d))
    if draw(st.booleans()):
        y = y[rng.permutation(n)]
    return uniform(x), uniform(y)


class TestBoundedCertificateQueries:
    """The pruned nearest-tier and lifted queries decide as unbounded ones."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(index_aligned_pairs())
    def test_same_decisions_as_unbounded(self, pair):
        assert_bound_changes_nothing(*pair)

    @pytest.mark.parametrize("d", [3, 6])
    @pytest.mark.parametrize("kind", ["aligned", "shuffled", "step 0"])
    def test_seeded_2048_point_pairs(self, d, kind):
        rng = np.random.default_rng(RNG_SEED + d)
        x = rng.normal(size=(2048, d))
        y = x if kind == "step 0" else x + 1e-3 + 1e-2 * rng.normal(size=x.shape)
        if kind == "shuffled":
            y = y[rng.permutation(2048)]
        assert_bound_changes_nothing(uniform(x), uniform(y))

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-151])
    @pytest.mark.parametrize("ratio", [1 - 1e-3, 1 + 1e-3, 2 - 1e-3, 2.0, 2 + 1e-3, 3.0])
    def test_near_ties_at_the_margin(self, scale, ratio):
        # the two gaps, scale and -scale, cancel, so the barycentre gap is
        # exactly zero. Each source's partner lies at squared distance
        # scale^2, its second target at (1 + ratio NN_MARGIN) scale^2: the
        # margin test reads it at ratio 1; at scale 1e-151 the floor refuses
        second = -scale * math.sqrt(1 + ratio * transport.NN_MARGIN)
        a = uniform([[0, 0, 0], [second + scale, 0, 0]])
        b = uniform([[scale, 0, 0], [second, 0, 0]])
        assert_bound_changes_nothing(a, b)

    @pytest.mark.parametrize(
        "offset", [-0.5, -0.2, -1e-3, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-3, 0.5]
    )
    def test_second_targets_at_the_radius(self, tree_queries, offset):
        # a rigid move by c, except that sources 0 and 2 carry opposite 1e-6
        # jitters; target 1 sits r = (1 + offset) R from source 0 once it is
        # moved, R the radius of the nearest-tier query, and source 1 sits
        # on target 1 once moved. Neither R nor the barycentre gap depends
        # on r, and below R the margin test against theta refuses
        c, jitter = np.array([0.5, 0.0, 0.0]), np.array([1e-6, 0.0, 0.0])

        def pair(r):
            x = np.array([[0.0, 0.0, 0.0], [0.0, r, 0.0], [100.0, 0.0, 0.0]])
            y = x + c + [jitter, [0.0, 0.0, 0.0], -jitter]
            y[1] = x[0] + c + [0.0, r, 0.0]
            x[1] = y[1] - c
            return uniform(x), uniform(y)

        def nearest_tier_radius(a, b):
            tree_queries.clear()
            transport._nearest_neighbour_permutation(a, b, transport.cKDTree(b.points))
            return tree_queries[0][2]

        radius = nearest_tier_radius(*pair(1.0))
        a, b = pair((1 + offset) * radius)
        assert nearest_tier_radius(a, b) == radius
        assert_bound_changes_nothing(a, b)

    @pytest.mark.parametrize("ulps", range(-3, 4))
    @pytest.mark.parametrize("gap", [0.0, 1e-160, 0.5 * math.sqrt(transport.NN_FLOOR)])
    def test_gaps_at_the_floor_scale(self, ulps, gap):
        # source 0's second target lies ulps steps from sqrt(NN_FLOOR) away,
        # where the floor test flips; its pairing gap is below the floor,
        # and a third pair far off carries the opposite gap, so the
        # barycentre gap is exactly zero
        r = math.sqrt(transport.NN_FLOOR)
        r += ulps * np.spacing(r)
        a = uniform([[0, 0, 0], [-r, 0, 0], [0, 100 * r, 0]])
        b = uniform([[gap, 0, 0], [-r, 0, 0], [-gap, 100 * r, 0]])
        assert_bound_changes_nothing(a, b)

    def test_both_queries_carry_a_finite_bound(self, tree_queries):
        # a twin-shaped phase-space pair (nearest tier) and position pair
        # (sparse tier): the nearest-tier and lifted queries are pruned and
        # leave most far neighbours unfound; the candidate query is not
        rng = np.random.default_rng(RNG_SEED)
        n = 2048
        x = rng.normal(size=(n, 3))
        a, b = uniform(x), uniform(x + 0.01 * rng.normal(size=(n, 3)))
        v, shift = 0.3 * rng.normal(size=(n, 3)), np.array([1e-2, 0.0, 0.0])
        phase_a = uniform(np.hstack([x + 0.5 * v, v]))
        phase_b = uniform(np.hstack([x + 0.5 * (v + shift), v + shift]))
        assert w2_exact(phase_a, phase_b)[1].solver == "nearest"
        assert tree_queries == [(6, 2, tree_queries[0][2], tree_queries[0][3])]
        assert np.isfinite(tree_queries[0][2]) and tree_queries[0][3] > 0.4
        tree_queries.clear()
        assert w2_exact(a, b)[1].solver == "sparse"
        by_kind = {(dim, k): (bound, unfound) for dim, k, bound, unfound in tree_queries}
        assert len(tree_queries) == 3 and set(by_kind) == {(3, 2), (3, 8), (4, 8)}
        assert by_kind[(3, 8)][0] == np.inf
        for kind in ((3, 2), (4, 8)):
            bound, unfound = by_kind[kind]
            assert np.isfinite(bound) and unfound > 0


_COORD = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def jittered_pair(rng, n, d):
    """A Gaussian cloud and its shuffled, jittered translate."""
    x = rng.normal(size=(n, d))
    shift = rng.choice([0.0, 0.3, 1.0]) * rng.normal(size=d)
    y = x + shift + rng.choice([1e-3, 1e-2, 0.1, 0.5]) * rng.normal(size=(n, d))
    return x, y[rng.permutation(n)]


@st.composite
def equal_weight_pairs(draw):
    """Small pairs with hypothesis-drawn coordinates (brute force applies),
    and pairs of 16-256 points, more than the sparse tier's neighbours,
    drawn from a seeded generator."""
    d = draw(st.sampled_from([3, 6]))
    if draw(st.booleans()):
        n = draw(st.integers(1, 8))
        x = draw(arrays(np.float64, (n, d), elements=_COORD))
        kind = draw(st.sampled_from(["independent", "translate", "duplicates", "seeded"]))
        if kind == "seeded":
            # continuous draws, free of the simple floats' exact ties, so
            # the nearest and sparse certificates get small inputs too
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            x, y = jittered_pair(rng, n, d)
            return uniform(x), uniform(y)
        if kind == "independent":
            y = draw(arrays(np.float64, (n, d), elements=_COORD))
        else:
            y = x + draw(arrays(np.float64, (d,), elements=st.floats(-1, 1)))
            if kind == "duplicates":
                x[draw(st.integers(0, n - 1))] = x[0]
                y[draw(st.integers(0, n - 1))] = y[-1]
        y = y[draw(st.permutations(range(n)))]
        return uniform(x), uniform(y)
    n = draw(st.integers(16, 256))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["jitter", "lattice", "duplicates"]))
    if kind == "lattice":
        # integer points moved by half a spacing: many exact ties
        x = rng.integers(0, 6, size=(n, d)).astype(np.float64)
        y = x + 0.5 * rng.integers(-1, 2, size=d)
    else:
        x = rng.normal(size=(n, d))
        shift = draw(st.sampled_from([0.0, 0.1, 0.3, 1.0])) * rng.normal(size=d)
        y = x + shift + draw(st.sampled_from([0.0, 1e-3, 1e-2, 0.1])) * rng.normal(size=(n, d))
        if kind == "duplicates":
            x[rng.integers(0, n, size=n // 8)] = x[0]
    if draw(st.booleans()):
        y = y[rng.permutation(n)]
    return uniform(x), uniform(y)


class TestW2ExactProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(equal_weight_pairs())
    def test_minimal_and_bitwise_equal_to_dense(self, pair):
        a, b = pair
        got = w2_exact(a, b)
        assert_same_bits(got, dense_w2(a, b))
        if a.n <= 8:
            assert got[0] == pytest.approx(brute_force_w2(a, b), rel=1e-12, abs=1e-12)


# two coincident sources (rows 0 and 7): on the shifted float costs of the
# sparse tier's complete 8-point graph, scipy's LAPJVsp once cycled forever
TIED_ROWS_X = [
    [0.6823056332801525, -0.05178315946440964, 0.6983104279019247],
    [1.1775635949170362, -0.5806565709799528, -0.6225126752730572],
    [1.6979164082116558, -0.11233238071222634, -0.49478670076888653],
    [0.34622401906746525, 0.15530362550111151, 1.758027928237901],
    [-0.855477014195624, 1.1251478182552408, 1.3316468376946873],
    [0.2240618317695799, -0.1628059932106169, 1.533348888227754],
    [2.541987856126637, -1.1809831518372602, 0.9273383616943175],
    [0.6823056332801525, -0.05178315946440964, 0.6983104279019247],
]
TIED_ROWS_Y = [
    [1.908209967746969, -1.2541903242430688, 0.05943299785746148],
    [1.6307504909910142, -0.4551321128753618, -1.0660890720919545],
    [-1.1469296131785494, -1.1649346033738295, -0.12566253674146088],
    [-0.3870159774336502, 0.7503985664118092, 1.2552653577206585],
    [3.762792516549832, -1.7867234769296596, 1.62317350132948],
    [0.5072605229856614, -0.43442133642536396, 2.3783149645218464],
    [0.19530763405809745, 0.3314453949425439, 1.4017963877690482],
    [2.5744806684258044, 0.46449637489714446, -0.13794565635403888],
]


class TestSmallPairs:
    @pytest.mark.parametrize("nudge", [False, True], ids=["coincident", "one-ulp-apart"])
    def test_tied_rows_end_the_matching(self, nudge):
        # in a child process, so a matching that never returns fails the
        # test at the timeout instead of stalling the suite
        code = (
            "import numpy as np\n"
            "from vptwin.transport import WeightedCloud, w2_exact\n"
            f"x = np.array({TIED_ROWS_X!r})\n"
            f"y = np.array({TIED_ROWS_Y!r})\n"
            f"if {nudge}: x[7] = np.nextafter(x[7], 10.0)\n"
            "w = np.full(8, 1 / 8)\n"
            "d, plan = w2_exact(WeightedCloud(x, w), WeightedCloud(y, w))\n"
            "print(d.hex(), plan.solver, *plan.tgt)\n"
        )
        src = os.path.dirname(os.path.dirname(transport.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        a, b = uniform(TIED_ROWS_X), uniform(TIED_ROWS_Y)
        if nudge:
            a.points[7] = np.nextafter(a.points[7], 10.0)
        d, plan = dense_w2(a, b)
        assert out.stdout.split() == [d.hex(), "dense", *map(str, plan.tgt)]

    def test_seeded_sweep_reaches_every_tier(self):
        rng = np.random.default_rng(RNG_SEED)
        served = {"nearest": 0, "sparse": 0, "dense": 0}
        for k in range(120):
            n, d = int(rng.integers(1, 9)), int(rng.choice([3, 6]))
            x, y = jittered_pair(rng, n, d)
            if k % 3 == 1:
                x[rng.integers(0, n)] = x[0]  # coincident sources: a tie
            elif k % 3 == 2:
                y[rng.integers(0, n)] = np.nextafter(y[-1], 10.0)  # a near-tie
            a, b = uniform(x), uniform(y)
            got = w2_exact(a, b)
            served[got[1].solver] += 1
            assert_same_bits(got, dense_w2(a, b))
            assert got[0] == pytest.approx(brute_force_w2(a, b), rel=1e-12, abs=1e-12)
        assert min(served.values()) >= 1, served


class TestLazyImports:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        # only the dense and LP tiers need it, and it holds about 9.5 MB
        code = "import sys, vptwin.cli; print('scipy.optimize' in sys.modules)"
        src = os.path.dirname(os.path.dirname(transport.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert out.stdout.strip() == "False"


class TestDisplacement:
    def test_endpoints_reproduce_clouds(self):
        rng = np.random.default_rng(RNG_SEED)
        a = random_cloud(rng, 10)
        b = WeightedCloud(rng.normal(size=(10, 3)), a.weights)
        _, plan = w2_exact(a, b)
        s1 = merge_coincident(displacement_interpolate(plan, 1.0))
        s2 = merge_coincident(displacement_interpolate(plan, 2.0))
        for got, want in ((s1, merge_coincident(a)), (s2, merge_coincident(b))):
            np.testing.assert_allclose(got.points, want.points, atol=1e-12)
            np.testing.assert_allclose(got.weights, want.weights, rtol=1e-12)

    def test_midpoint_of_two_points(self):
        a = WeightedCloud([[0.0, 0.0, 0.0]], [1.0])
        b = WeightedCloud([[2.0, 0.0, 0.0]], [1.0])
        _, plan = w2_exact(a, b)
        mid = displacement_interpolate(plan, 1.5)
        np.testing.assert_allclose(mid.points, [[1.0, 0.0, 0.0]])
        assert mid.total_mass == pytest.approx(1.0)

    def test_kinetic_energy_constant_in_theta(self):
        rng = np.random.default_rng(RNG_SEED)
        a = random_cloud(rng, 20)
        b = WeightedCloud(rng.normal(size=(20, 3)), a.weights)
        d, plan = w2_exact(a, b)
        # sum m |p(theta + h) - p(theta)|^2 / h^2 over consecutive samples
        thetas = np.linspace(1, 2, 11)
        path = [displacement_interpolate(plan, t).points for t in thetas]
        for p0, p1, t0, t1 in zip(path, path[1:], thetas, thetas[1:]):
            energy = coupling_cost(plan.mass, p1 - p0) / (t1 - t0) ** 2
            assert energy == pytest.approx(d * d, rel=1e-12)

    def test_theta_out_of_range(self):
        a = WeightedCloud([[0, 0, 0]], [1.0])
        _, plan = w2_exact(a, a)
        for theta in (0.99, 2.01, -1.0):
            with pytest.raises(ValueError):
                displacement_interpolate(plan, theta)


class TestGeodesicLinf:
    def test_identical_clouds_ratio_one(self):
        rng = np.random.default_rng(RNG_SEED)
        a = random_cloud(rng, 500, mass=1.0)
        _, plan = w2_exact(a, a)
        spec = fields.GridSpec(8.0, 16)
        rep = geodesic_linf_check(plan, np.linspace(1, 2, 11), spec)
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)

    def test_undersampled_cloud_is_inconclusive(self):
        rng = np.random.default_rng(RNG_SEED)
        a = random_cloud(rng, 30)
        b = WeightedCloud(rng.normal(size=(30, 3)), a.weights)
        _, plan = w2_exact(a, b)
        spec = fields.GridSpec(10.0, 24)
        rep = geodesic_linf_check(plan, np.linspace(1, 2, 5), spec, smoothing_cells=0.5)
        assert rep.status == "inconclusive"


class TestPlanInvariants:
    def test_negative_mass_rejected(self):
        a = WeightedCloud([[0, 0, 0]], [1.0])
        with pytest.raises(ValueError):
            transport.TransportPlan([0], [0], [-1.0], a, a)

    def test_marginal_violation_rejected(self):
        a = WeightedCloud([[0, 0, 0], [1, 0, 0]], [0.5, 0.5])
        with pytest.raises(ValueError):
            transport.TransportPlan([0, 1], [0, 1], [0.5, 0.4], a, a)

    def test_cost_matches_recomputation(self):
        rng = np.random.default_rng(RNG_SEED)
        a = random_cloud(rng, 9)
        b = WeightedCloud(rng.normal(size=(9, 3)), a.weights)
        d, plan = w2_exact(a, b)
        disp = plan.displacements
        manual = float(np.sum(plan.mass * np.einsum("ij,ij->i", disp, disp)))
        assert plan.cost == pytest.approx(manual, rel=1e-12)


class TestIO:
    def test_cloud_roundtrip(self, tmp_path):
        rng = np.random.default_rng(RNG_SEED)
        for d in (3, 6):
            c = WeightedCloud(rng.normal(size=(7, d)), rng.random(7) + 0.1)
            p = tmp_path / f"cloud{d}.txt"
            transport.save_cloud(c, p)
            got = transport.load_cloud(p)
            np.testing.assert_array_equal(got.points, c.points)
            np.testing.assert_array_equal(got.weights, c.weights)

    def test_plan_roundtrip(self, tmp_path):
        rng = np.random.default_rng(RNG_SEED)
        a = random_cloud(rng, 6)
        b = WeightedCloud(rng.normal(size=(6, 3)), a.weights)
        _, plan = w2_exact(a, b)
        p = tmp_path / "plan.txt"
        transport.save_plan(plan, p)
        got = load_plan(p, a, b)
        np.testing.assert_array_equal(got.src, plan.src)
        np.testing.assert_array_equal(got.tgt, plan.tgt)
        np.testing.assert_array_equal(got.mass, plan.mass)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.data())
    def test_cloud_roundtrip_generated(self, data):
        # finite coordinates of any magnitude (subnormals and -0.0 too) and
        # positive finite weights come back bit for bit
        d = data.draw(st.sampled_from([3, 6]))
        n = data.draw(st.integers(1, 6))
        points = data.draw(arrays(
            np.float64, (n, d), elements=st.floats(allow_nan=False, allow_infinity=False)
        ))
        weights = data.draw(arrays(
            np.float64, n,
            elements=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        ))
        cloud = WeightedCloud(points, weights)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cloud.txt")
            transport.save_cloud(cloud, path)
            got = transport.load_cloud(path)
        assert got.points.shape == (n, d)
        assert got.points.tobytes() == cloud.points.tobytes()
        assert got.weights.tobytes() == cloud.weights.tobytes()

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("3\n0 0 0 1\n")
        with pytest.raises(ValueError):
            transport.load_cloud(p)


class TestWeightedCloudInvariants:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            WeightedCloud([[0, 0, 0]], [0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            WeightedCloud([[np.inf, 0, 0]], [1.0])

    def test_total_mass(self):
        rng = np.random.default_rng(RNG_SEED)
        w = rng.random(50) + 0.1
        c = WeightedCloud(rng.normal(size=(50, 3)), w)
        assert c.total_mass == pytest.approx(w.sum(), rel=1e-12)
