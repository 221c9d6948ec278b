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
from scipy.spatial.distance import cdist

from vptwin import fields, transport
from vptwin.errors import MassMismatchError, TransportError
from vptwin.transport import (
    WeightedCloud,
    displacement_interpolate,
    geodesic_linf_check,
    squared_norms,
    w2_exact,
)

from oracles import load_plan, merge_coincident

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


# the two lanes of squared_norms for d columns, each summed in list order:
# whole groups of eight back to front, the rest front to back
SQUARED_NORM_LANES = {
    1: ([0], []),
    2: ([0], [1]),
    3: ([0, 2], [1]),
    6: ([0, 2, 4], [1, 3, 5]),
    8: ([6, 4, 2, 0], [7, 5, 3, 1]),
    11: ([6, 4, 2, 0, 8, 10], [7, 5, 3, 1, 9]),
    17: ([6, 4, 2, 0, 14, 12, 10, 8, 16], [7, 5, 3, 1, 15, 13, 11, 9]),
}


def row_sum_loop(gap):
    """Per row: the even lane plus the odd lane, each summed from 0.0."""
    even, odd = SQUARED_NORM_LANES[gap.shape[1]]
    out = []
    for row in gap.tolist():
        lanes = [0.0, 0.0]
        for lane, cols in enumerate((even, odd)):
            for k in cols:
                lanes[lane] += row[k] * row[k]
        out.append(lanes[0] + lanes[1])
    return np.array(out)


class TestSquaredNorms:
    @pytest.mark.parametrize("d", sorted(SQUARED_NORM_LANES))
    def test_matches_documented_order(self, d):
        rng = np.random.default_rng(RNG_SEED + d)
        gap = rng.normal(size=(64, d)) * np.exp(8.0 * rng.normal(size=(64, d)))
        gap[::5, 0] = -0.0
        assert squared_norms(gap).tobytes() == row_sum_loop(gap).tobytes()

    def test_gaps_add_in_argument_order(self):
        rng = np.random.default_rng(RNG_SEED)
        x, v = rng.normal(size=(2, 50, 3)) * np.exp(6.0 * rng.normal(size=(2, 50, 3)))
        want = row_sum_loop(x) + row_sum_loop(v)
        assert squared_norms(x, v).tobytes() == want.tobytes()


class TestW2Exact:
    def test_identical_clouds(self):
        rng = np.random.default_rng(RNG_SEED)
        a = random_cloud(rng, 17)
        d, plan = w2_exact(a, a)
        assert d == 0.0
        assert np.array_equal(plan.src, plan.tgt)

    def test_two_point_translate(self):
        a = WeightedCloud([[0, 0, 0], [1, 0, 0]], [0.5, 0.5])
        b = a.translate([0.1, 0, 0])
        d, plan = w2_exact(a, b)
        assert d == pytest.approx(0.1, rel=1e-12)
        assert d == pytest.approx(brute_force_w2(a, b), rel=1e-12)
        assert plan.cost == pytest.approx(d * d, rel=1e-12)

    def test_100_point_translate(self):
        # translation map is optimal for quadratic cost: distance = |v| at unit mass
        rng = np.random.default_rng(RNG_SEED)
        a = random_cloud(rng, 100)
        b = a.translate([0.3, 0, 0])
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
        d1, _ = w2_exact(a.translate(v), b.translate(v))
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
            w2_exact(a, a.translate([0.5, 0, 0]))

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
def lsa_calls(monkeypatch):
    """Records every linear_sum_assignment call w2_exact makes."""
    calls = []

    def counting(cost_matrix):
        calls.append(cost_matrix.shape)
        return linear_sum_assignment(cost_matrix)

    # the dense tier imports it from scipy.optimize at each use
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counting)
    return calls


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

    def test_colliding_nearest_neighbours_fall_back(self, lsa_calls):
        # both source points are nearest to target 0; the optimum is unique,
        # so the sparse tier serves it
        a = uniform([[0, 0, 0], [1, 0, 0]])
        b = uniform([[0.9, 0, 0], [5, 0, 0]])
        got = w2_exact(a, b)
        assert got[1].solver == "sparse"
        assert lsa_calls == []
        assert_same_bits(got, dense_w2(a, b))
        assert got[0] == pytest.approx(brute_force_w2(a, b), rel=1e-12)

    def test_exact_tie_falls_back(self, lsa_calls):
        # every interior point of the line is equidistant from two targets,
        # but the translation is the unique optimal plan
        line = np.zeros((6, 3))
        line[:, 0] = np.arange(6)
        a = uniform(line)
        b = a.translate([0.5, 0, 0])
        got = w2_exact(a, b)
        assert got[1].solver == "sparse"
        assert lsa_calls == []
        assert np.array_equal(got[1].tgt, np.arange(6))
        assert_same_bits(got, dense_w2(a, b))
        assert got[0] == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize(
        "gap, dense_calls, solver", [(1e-12, [], "sparse"), (1e-6, [], "nearest")]
    )
    def test_near_tie_inside_margin_falls_back(self, lsa_calls, gap, dense_calls, solver):
        # source 0 is nearest to target 0, target 1 only `gap` farther; the
        # map is a permutation either way, the margin alone decides whether
        # the shortcut serves it (the optimum is unique, so the sparse tier
        # serves it otherwise)
        a = uniform([[0, 0, 0], [1, 0, 0]])
        b = uniform([[-0.4, 0, 0], [0.4 + gap, 0, 0]])
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
        b = a.translate([0.5, 0, 0])
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
            w2_exact(a, a.translate([0.5, 0, 0]))


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

    def test_violated_pairs_join_a_second_round(self, monkeypatch, lsa_calls):
        # an optimal pair outside the 8 nearest targets: the first round's
        # duals violate it, the second round's graph holds it
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
        # a matching solver returning the worse pairing: its duals have a
        # negative cycle, so the certificate fails
        monkeypatch.setattr(
            transport, "min_weight_full_bipartite_matching", lambda g: (np.arange(2), np.array([1, 0]))
        )
        a = uniform([[0, 0, 0], [1, 0, 0]])
        b = uniform([[0.9, 0, 0], [5, 0, 0]])
        got = w2_exact(a, b)
        assert lsa_calls == [(2, 2)]
        assert got[1].solver == "dense"
        assert np.array_equal(got[1].tgt, [0, 1])

    def test_infeasible_duals_are_refused(self, monkeypatch, lsa_calls):
        # zero column duals are feasible only for the nearest-neighbour map;
        # the lifted check finds the violated pair in both rounds
        monkeypatch.setattr(transport, "_column_duals", lambda src, dst, weight, n: np.zeros(n))
        a = uniform([[0, 0, 0], [1, 0, 0]])
        b = uniform([[0.9, 0, 0], [5, 0, 0]])
        got = w2_exact(a, b)
        assert lsa_calls == [(2, 2)]
        assert got[1].solver == "dense"


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
        s1 = merge_coincident(displacement_interpolate(plan, 1.0).cloud)
        s2 = merge_coincident(displacement_interpolate(plan, 2.0).cloud)
        for got, want in ((s1, merge_coincident(a)), (s2, merge_coincident(b))):
            np.testing.assert_allclose(got.points, want.points, atol=1e-12)
            np.testing.assert_allclose(got.weights, want.weights, rtol=1e-12)

    def test_midpoint_of_two_points(self):
        a = WeightedCloud([[0.0, 0.0, 0.0]], [1.0])
        b = WeightedCloud([[2.0, 0.0, 0.0]], [1.0])
        _, plan = w2_exact(a, b)
        mid = displacement_interpolate(plan, 1.5)
        np.testing.assert_allclose(mid.cloud.points, [[1.0, 0.0, 0.0]])
        assert mid.cloud.total_mass == pytest.approx(1.0)
        assert mid.kinetic_energy == pytest.approx(4.0, rel=1e-12)

    def test_kinetic_energy_constant_in_theta(self):
        rng = np.random.default_rng(RNG_SEED)
        a = random_cloud(rng, 20)
        b = WeightedCloud(rng.normal(size=(20, 3)), a.weights)
        d, plan = w2_exact(a, b)
        for theta in np.linspace(1, 2, 11):
            s = displacement_interpolate(plan, theta)
            assert s.kinetic_energy == pytest.approx(d * d, rel=1e-12)

    def test_theta_out_of_range(self):
        a = WeightedCloud([[0, 0, 0]], [1.0])
        _, plan = w2_exact(a, a)
        for theta in (0.99, 2.01, -1.0):
            with pytest.raises(ValueError):
                displacement_interpolate(plan, theta)


def lattice_block(lo, hi, spacing, mass):
    """Regular lattice filling [lo, hi]^3 with equal weights (uniform block)."""
    ax = [np.arange(lo[i] + spacing / 2, hi[i], spacing) for i in range(3)]
    g = np.meshgrid(*ax, indexing="ij")
    pts = np.stack([c.ravel() for c in g], axis=1)
    return WeightedCloud(pts, np.full(len(pts), mass / len(pts)))


class TestGeodesicLinf:
    def test_identical_clouds_ratio_one(self):
        rng = np.random.default_rng(RNG_SEED)
        a = random_cloud(rng, 500, mass=1.0)
        _, plan = w2_exact(a, a)
        spec = fields.GridSpec((0, 0, 0), 8.0, 16)
        rep = geodesic_linf_check(plan, np.linspace(1, 2, 11), spec)
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)

    def test_translated_blocks(self):
        # translating a cloud by v is the optimal quadratic-cost map, so the
        # identity matching is an optimal plan and serves as the oracle path
        spec = fields.GridSpec((0, 0, 0), 8.0, 64)
        h = spec.h[0]
        a = lattice_block([-1.5, -1.0, -1.0], [-0.5, 0.0, 0.0], h / 2, 1.0)
        b = a.translate([1.7, 0.9, 0.6])
        idx = np.arange(a.n)
        plan = transport.TransportPlan(idx, idx, a.weights, a, b)
        rep = geodesic_linf_check(plan, np.linspace(1, 2, 11), spec)
        assert rep.status == "pass"
        assert rep.ratio <= 1.1

    def test_separated_gaussians(self):
        rng = np.random.default_rng(RNG_SEED)
        n = 16384
        a = WeightedCloud(rng.normal(size=(n, 3)) - [1.0, 0, 0], np.full(n, 1.0 / n))
        b = a.translate([2.0, 0, 0])
        idx = np.arange(n)
        plan = transport.TransportPlan(idx, idx, a.weights, a, b)
        spec = fields.GridSpec((0, 0, 0), 16.0, 64)
        rep = geodesic_linf_check(plan, np.linspace(1, 2, 11), spec)
        assert rep.status == "pass"
        assert rep.ratio <= 1.1

    def test_undersampled_cloud_is_inconclusive(self):
        rng = np.random.default_rng(RNG_SEED)
        a = random_cloud(rng, 30)
        b = WeightedCloud(rng.normal(size=(30, 3)), a.weights)
        _, plan = w2_exact(a, b)
        spec = fields.GridSpec((0, 0, 0), 10.0, 24)
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
