"""Discrete quadratic-cost optimal transport between weighted point clouds.

Exact solve uses the assignment algorithm when both clouds have equal size
and uniform weights, and a transportation LP (HiGHS) otherwise. The
assignment path has three tiers, each returning the permutation
linear_sum_assignment would return (see w2_exact):

- nearest: every source point's strict nearest target, when these form a
  permutation (certified by the duals u_i = c_{i sigma(i)}, v = 0);
- sparse: a min-weight matching on the k-nearest-target graph, certified
  optimal over all n^2 pairs by column duals and one lifted KD-tree query,
  and unique by a strong-component test on the near-tight edges;
- dense: cdist + linear_sum_assignment, when neither certificate holds.

The first two build no n x n cost matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import (
    connected_components,
    maximum_bipartite_matching,
    min_weight_full_bipartite_matching,
)
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import MassMismatchError, TransportError

MAX_ASSIGNMENT_SIDE = 4096  # dense n x n cost matrix guard
MAX_LP_ENTRIES = 400_000  # n*m guard for the general transportation LP
MASS_RTOL = 1e-9
MARGINAL_RTOL = 1e-9  # plan marginal error allowed, relative to the total mass
# nearest-neighbour shortcut of w2_exact: relative margin between first and
# second squared neighbour distance, and the floor of the second one
NN_MARGIN = 1e-9
NN_FLOOR = 1e-300
# sparse tier of w2_exact: candidate targets per source point (also the
# lifted neighbours its dual check examines), and the dual tolerance eta in
# units of n * eps * (dual scale)
SPARSE_NEIGHBOURS = 8
ETA_ULPS = 64


# --------------------------------------------------------------------------
# domain types


@dataclass(frozen=True, eq=False)
class WeightedCloud:
    """Weighted point cloud in R^d (d = 3 spatial, d = 6 phase space)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.ascontiguousarray(np.atleast_2d(self.points), dtype=np.float64)
        weights = np.ascontiguousarray(np.atleast_1d(self.weights), dtype=np.float64)
        if points.ndim != 2 or weights.ndim != 1 or points.shape[0] != weights.shape[0]:
            raise ValueError("points must be (n, d) with matching (n,) weights")
        if not np.all(np.isfinite(points)):
            raise ValueError("non-finite coordinates")
        if not np.all(weights > 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be strictly positive and finite")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]

    @property
    def total_mass(self):
        return ordered_sum(self.weights.copy())


def ordered_sum(terms):
    """The sum of a float64 array, added left to right in C order from
    the first term; +0.0 when there are none.

    The running sums are written into terms (np.add.accumulate with
    out=), so the caller hands over scratch it owns; a non-contiguous
    array is summed through a C-order copy instead. Every total in the
    package goes through here, so no result depends on the order in
    which numpy would reduce.
    """
    flat = terms.reshape(-1)
    if flat.size == 0:
        return 0.0
    return float(np.add.accumulate(flat, out=flat)[-1])


def squared_norms(*gaps):
    """Per row sum_k |d_k,i|^2 over one or more (n, d) gap arrays: each
    gap's row adds its squares in column order, and the gaps add in
    argument order."""
    sq = None
    for gap in gaps:
        row = gap[:, 0] * gap[:, 0]
        for k in range(1, gap.shape[1]):
            row += gap[:, k] * gap[:, k]
        sq = row if sq is None else sq + row
    return sq


def coupling_cost(weights, *gaps):
    """Quadratic cost sum_i w_i sum_k |d_k,i|^2 of a coupling, summed by
    ordered_sum.

    Every ledger sum goes through here: the plan cost, T1, T2 and the
    crossing detector's rms; Q and S of a twin pairing sum the same
    terms (certify.compute_gaps).
    """
    sq = squared_norms(*gaps)
    sq *= weights
    return ordered_sum(sq)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Discrete coupling: entries (source index, target index, mass)."""

    src: np.ndarray
    tgt: np.ndarray
    mass: np.ndarray
    source: WeightedCloud
    target: WeightedCloud
    # the solver path that produced the plan: "nearest", "sparse", "dense"
    # or "lp"; None for plans built or loaded by hand
    solver: str | None = None

    def __post_init__(self):
        src = np.ascontiguousarray(self.src, dtype=np.int64)
        tgt = np.ascontiguousarray(self.tgt, dtype=np.int64)
        mass = np.ascontiguousarray(self.mass, dtype=np.float64)
        if not (src.shape == tgt.shape == mass.shape) or src.ndim != 1:
            raise ValueError("src, tgt, mass must be equal-length 1-d arrays")
        if np.any(mass < 0):
            raise ValueError("plan masses must be nonnegative")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "tgt", tgt)
        object.__setattr__(self, "mass", mass)
        row, col = self.marginals()
        scale = self.source.total_mass
        err = max(
            np.abs(row - self.source.weights).max(initial=0.0),
            np.abs(col - self.target.weights).max(initial=0.0),
        )
        if err > MARGINAL_RTOL * scale:
            raise ValueError(
                f"plan marginals violate cloud weights: max error {err:.3e} "
                f"(allowed {MARGINAL_RTOL * scale:.3e})"
            )

    def marginals(self):
        row = np.bincount(self.src, weights=self.mass, minlength=self.source.n)
        col = np.bincount(self.tgt, weights=self.mass, minlength=self.target.n)
        return row, col

    @property
    def displacements(self):
        return self.target.points[self.tgt] - self.source.points[self.src]

    @property
    def cost(self):
        """Total quadratic cost sum mass * |x - y|^2 (recomputed, exact)."""
        return coupling_cost(self.mass, self.displacements)


# --------------------------------------------------------------------------
# exact solver


def _check_mass(a, b):
    ma, mb = a.total_mass, b.total_mass
    if abs(ma - mb) > MASS_RTOL * max(ma, mb):
        raise MassMismatchError(f"total masses differ: {ma!r} vs {mb!r}")
    if a.d != b.d:
        raise TransportError(f"dimension mismatch: {a.d} vs {b.d}")


def _uniform_equal_weights(a, b):
    wa, wb = a.weights, b.weights
    return (
        a.n == b.n
        and np.all(np.abs(wa - wa[0]) <= 1e-12 * wa[0])
        and np.all(np.abs(wb - wa[0]) <= 1e-12 * wa[0])
    )


def _nearest_neighbour_permutation(a, tree):
    """The strict nearest-neighbour map of a into tree's points if it is a permutation.

    Returns the target index of every source point, or None when some
    source point has no clear nearest target (second neighbour within the
    margin) or two source points share their nearest target.
    """
    dist, idx = tree.query(a.points, k=2)
    sq = dist * dist  # a one-point target reports its missing second as inf
    nearest = idx[:, 0]
    clear = np.all((sq[:, 0] * (1.0 + NN_MARGIN) < sq[:, 1]) & (sq[:, 1] >= NN_FLOOR))
    if clear and np.unique(nearest).size == a.n:
        return nearest
    return None


def _pair_costs(x, y, rows, cols):
    return squared_norms(x[rows] - y[cols])


def _column_duals(src, dst, weight, n):
    """Column duals v <= 0 by Bellman-Ford, or None on a negative cycle.

    The source is virtual, joined to every column by a zero arc, and each
    (src, dst, weight) is an arc between columns, so v_dst <= v_src +
    weight on every arc. Relaxation still moving after n sweeps means a
    negative cycle.
    """
    v = np.zeros(n)
    for _ in range(n):
        relaxed = v.copy()
        np.minimum.at(relaxed, dst, v[src] + weight)
        if np.array_equal(relaxed, v):
            return v
        v = relaxed
    return None


def _sparse_permutation(a, b, tree):
    """The unique optimal permutation of a into b, certified without the n x n matrix.

    Returns sigma, or None when any step of the certificate (see w2_exact)
    fails: the neighbour edges admit no full matching, the duals do not
    settle, the scale is below NN_FLOOR, a pair still violates dual
    feasibility after the second round, a source point has more near-tight
    targets than the lifted query sees, or the near-tight pairs close an
    alternating cycle.
    """
    x, y, n = a.points, b.points, a.n
    k = min(SPARSE_NEIGHBOURS, n)
    idx = tree.query(x, k=k)[1].reshape(n, k)
    knn = sparse.csr_matrix((np.ones(n * k), idx.ravel(), np.arange(0, n * k + 1, k)), (n, n))
    if np.any(maximum_bipartite_matching(knn, perm_type="column") < 0):
        return None
    row_of = np.repeat(np.arange(n), k)  # source index of each of the k per row
    own = np.flatnonzero(~np.any(idx == np.arange(n)[:, None], axis=1))
    rows = np.concatenate([row_of, own])
    cols = np.concatenate([idx.ravel(), own])
    x_lift = np.column_stack([x, np.zeros(n)])
    for second_round in (False, True):
        cost = _pair_costs(x, y, rows, cols)
        if not cost.max() > 0:
            return None
        # the matching runs on integer weights in [top, 2 top], so each of
        # its sums of at most n weights is exact: on the float costs,
        # scipy's LAPJVsp can cycle forever when two rows tie to within an
        # ulp. The shift keeps weights nonzero and is common to all full
        # matchings; sigma is only a candidate, certified below on the costs
        top = math.floor(2.0**51 / n)
        weight = np.rint(cost / cost.max() * top) + top
        graph = sparse.csr_matrix((weight, (rows, cols)), (n, n))
        sigma = min_weight_full_bipartite_matching(graph)[1]
        # each candidate edge (i, j) off the plan is the column arc
        # sigma(i) -> j of weight c_ij - c_{i sigma(i)}
        on_plan = cols == sigma[rows]
        plan_cost = np.empty(n)
        plan_cost[rows[on_plan]] = cost[on_plan]
        off = ~on_plan
        v = _column_duals(sigma[rows[off]], cols[off], cost[off] - plan_cost[rows[off]], n)
        if v is None:
            return None
        u = plan_cost - v[sigma]
        scale = u.max() - v.min()
        if scale < NN_FLOOR:
            return None
        eta = ETA_ULPS * n * np.finfo(np.float64).eps * scale
        theta = 2 * n * eta
        # |(x_i, 0) - (y_j, sqrt(-v_j))|^2 = c_ij - v_j: the k lifted
        # neighbours of x_i are the pairs of least reduced cost c_ij - u_i - v_j
        near = cKDTree(np.column_stack([y, np.sqrt(-v)])).query(x_lift, k=k)[1].ravel()
        reduced = _pair_costs(x, y, row_of, near) - u[row_of] - v[near]
        if k < n and np.any(reduced.reshape(n, k)[:, -1] <= theta):
            return None
        bad = reduced < -eta
        if not bad.any():
            break
        if second_round:
            return None
        rows = np.concatenate([rows, row_of[bad]])
        cols = np.concatenate([cols, near[bad]])
    tight = (reduced <= theta) & (near != sigma[row_of])
    owner = np.empty(n, dtype=np.int64)
    owner[sigma] = np.arange(n)
    arcs = sparse.csr_matrix(
        (np.ones(np.count_nonzero(tight)), (row_of[tight], owner[near[tight]])), (n, n)
    )
    if connected_components(arcs, directed=True, connection="strong")[0] != n:
        return None
    return sigma


def w2_exact(a: WeightedCloud, b: WeightedCloud):
    """Exact Wasserstein-2 distance and optimal plan.

    Returns (distance, plan) with distance**2 == plan.cost; plan.solver
    names the path that ran. Raises MassMismatchError / TransportError
    instead of ever returning a silent approximation.

    Equal-size uniform-weight clouds take the assignment path, whose tiers
    all return the permutation linear_sum_assignment returns on the cdist
    matrix C, so plan and cost are bitwise the dense path's.

    nearest: a KD-tree gives the two nearest targets of every source
    point. If each nearest target is strictly nearer than the second one,
    by a relative margin NN_MARGIN on squared distance, and the nearest
    targets are pairwise distinct, the nearest-neighbour map sigma is
    returned. Every row of C then has its strict minimum at sigma(i), so
    sigma is its unique optimal assignment, certified by the feasible
    duals u_i = c_{i sigma(i)}, v_j = 0 (c_ij - u_i - v_j >= 0, with
    equality on the plan), and it is the permutation linear_sum_assignment
    returns. The margin covers the rounding gap between KD-tree and cdist
    squared distances, at most about (d + 2) eps relative, i.e. below
    1e-14 for d <= 6; NN_FLOOR keeps the second distance clear of
    underflow, where relative bounds fail.

    sparse: the candidate graph holds the SPARSE_NEIGHBOURS nearest targets
    of every source point plus the index pairing i -> i; it is used only
    if the neighbour edges alone admit a full matching (otherwise the
    matching must run through long index-pairing edges, which is slower
    than the dense solve). min_weight_full_bipartite_matching gives a
    candidate sigma on the graph from the costs rounded to integers, whose
    sums are exact (on float costs with rows tied to an ulp it can cycle
    forever), Bellman-Ford the column duals v <= 0 on the true costs, and
    u_i = c_{i sigma(i)} - v_{sigma(i)}. Dual feasibility c_ij - u_i - v_j
    >= -eta is checked over all n^2 pairs by one KD-tree query in d + 1
    dimensions against the lifted targets (y_j, sqrt(-v_j)), whose squared
    distance to (x_i, 0) is c_ij - v_j; pairs that violate it join the
    graph for one more round. sigma is accepted only if the near-tight
    pairs off the plan (reduced cost <= theta) close no alternating cycle:
    the arcs i -> sigma^-1(j) must have n singleton strong components.
    Rounding: let s = max(u) + max(-v). It bounds u_i, -v_j and every
    c_ij whose reduced cost is near theta, so with eta = ETA_ULPS n eps s
    and theta = 2 n eta the rounding of the computed costs and of the
    lifted distances, within (d + 3) eps s of exact, is far below eta
    (the Bellman-Ford sums, up to n eps s, are why eta grows with n). Any
    other permutation tau differs from sigma on alternating cycles; each
    cycle holds a pair of reduced cost above theta, and every other pair
    costs at least -eta. The duals cancel over both permutations, so on C
    cost(tau) - cost(sigma) >= theta - n eta = ETA_ULPS n^2 eps s. The
    shortest augmenting paths of linear_sum_assignment compare reduced
    costs of that same size, so their double-precision error is
    O(n^2 eps s) on the total cost, well inside that gap, and they cannot
    return tau. Ties and near-ties inside theta, duplicate points and a
    scale s below NN_FLOOR therefore fall through to the dense solve.

    dense: cdist + linear_sum_assignment. Unequal or non-uniform weights
    take the transportation LP. Minimality on every path is also checked
    against brute-force enumeration in the tests.
    """
    _check_mass(a, b)
    if _uniform_equal_weights(a, b):
        plan = _assignment_plan(a, b)
    else:
        plan = _lp_plan(a, b)
    return math.sqrt(max(plan.cost, 0.0)), plan


def _assignment_plan(a, b):
    if a.n > MAX_ASSIGNMENT_SIDE:
        raise TransportError(
            f"cloud sides {a.n} exceed the exact-solver guard {MAX_ASSIGNMENT_SIDE}"
        )
    tree = cKDTree(b.points)
    rows = np.arange(a.n)
    solver, cols = "nearest", _nearest_neighbour_permutation(a, tree)
    if cols is None:
        solver, cols = "sparse", _sparse_permutation(a, b, tree)
    if cols is None:
        # imported here: scipy.optimize holds about 9.5 MB of RSS, and most
        # runs never reach the dense or LP tier
        from scipy.optimize import linear_sum_assignment

        solver = "dense"
        rows, cols = linear_sum_assignment(cdist(a.points, b.points, "sqeuclidean"))
    return TransportPlan(rows, cols, a.weights[rows], a, b, solver=solver)


def _lp_plan(a, b):
    n, m = a.n, b.n
    if n * m > MAX_LP_ENTRIES:
        raise TransportError(
            f"general transportation LP guard exceeded: {n}x{m} > {MAX_LP_ENTRIES}"
        )
    c = cdist(a.points, b.points, "sqeuclidean").ravel()
    # row-sum constraints (n) plus column sums (m), last column constraint
    # dropped (redundant given equal masses)
    rows_i = np.repeat(np.arange(n), m)
    cols_i = np.tile(n + np.arange(m), n)
    var = np.arange(n * m)
    keep = cols_i < n + m - 1
    data = np.ones(n * m)
    A = sparse.coo_matrix(
        (
            np.concatenate([data, data[keep]]),
            (np.concatenate([rows_i, cols_i[keep]]), np.concatenate([var, var[keep]])),
        ),
        shape=(n + m - 1, n * m),
    ).tocsr()
    rhs = np.concatenate([a.weights, b.weights[:-1]])
    from scipy.optimize import linprog  # at first use, as in _assignment_plan

    res = linprog(c, A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    if not res.success:
        raise TransportError(f"transportation LP failed: {res.message}")
    x = res.x.reshape(n, m)
    src, tgt = np.nonzero(x > 0)
    return TransportPlan(src, tgt, x[src, tgt], a, b, solver="lp")


# --------------------------------------------------------------------------
# cloud / plan text I/O
#
# cloud format: header "d count", then one row per point,
#   d = 3: "x y z w";  d = 6: "x y z vx vy vz w"
# plan format: header "count", then "i j mass" triples.


def save_cloud(cloud: WeightedCloud, path):
    with open(path, "w") as fh:
        fh.write(f"{cloud.d} {cloud.n}\n")
        for p, w in zip(cloud.points, cloud.weights):
            coords = " ".join(f"{c:.17g}" for c in p)
            fh.write(f"{coords} {w:.17g}\n")


def load_cloud(path) -> WeightedCloud:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected header 'd count'")
        d, n = int(header[0]), int(header[1])
        if d < 1 or n < 1:
            raise ValueError(f"{path}: header 'd count' needs d >= 1 and count >= 1")
        data = np.loadtxt(fh, ndmin=2)
    if data.shape != (n, d + 1):
        raise ValueError(f"{path}: expected {n} rows of {d + 1} columns, got {data.shape}")
    return WeightedCloud(data[:, :d], data[:, d])


def save_plan(plan: TransportPlan, path):
    with open(path, "w") as fh:
        fh.write(f"{plan.src.size}\n")
        for i, j, m in zip(plan.src, plan.tgt, plan.mass):
            fh.write(f"{i} {j} {m:.17g}\n")
