"""Discrete quadratic-cost optimal transport between weighted point clouds.

Exact solve uses the assignment algorithm when both clouds have equal size
and uniform weights, and a transportation LP (HiGHS) otherwise. The
assignment path has two tiers, each returning the permutation
linear_sum_assignment would return (see w2_exact):

- nearest: every source point's strict nearest target once the source is
  moved by the barycentre gap, when these form a permutation whose margin
  the dense solve resolves (certified by the duals of the translated
  problem, which differs from C by a row and a column term);
- dense: cdist + linear_sum_assignment, when that certificate fails.

The nearest tier builds no n x n cost matrix. Its certificate query
searches only to just past the largest index-pairing gap after the
translation, which every translated source point's nearest target lies
within, and keeps every decision of the unbounded query (see w2_exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import MassMismatchError, TransportError

MAX_ASSIGNMENT_SIDE = 4096  # dense n x n cost matrix guard
MAX_LP_ENTRIES = 400_000  # n*m guard for the general transportation LP
MASS_RTOL = 1e-9
MARGINAL_RTOL = 1e-9  # plan marginal error allowed, relative to the total mass
# nearest tier of w2_exact: relative margin between first and second
# squared neighbour distance (also the relative slack of its query radius),
# the floor of the second one, and the rounding allowance eta in units of
# n * eps * (cost scale); each row must clear theta = 2 n eta
NN_MARGIN = 1e-9
NN_FLOOR = 1e-300
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


def squared_norms(gap):
    """Per row sum_k |d_k,i|^2 of an (n, d) gap array, the squares added in
    column order. The products after the first column all go through one
    buffer, so no column allocates a temporary."""
    sq = gap[:, 0] * gap[:, 0]
    prod = np.empty_like(sq)
    for k in range(1, gap.shape[1]):
        sq += np.multiply(gap[:, k], gap[:, k], out=prod)
    return sq


def coupling_cost(weights, gap):
    """Quadratic cost sum_i w_i sum_k |d_k,i|^2 of a coupling, summed by
    ordered_sum.

    Every ledger sum goes through here: the plan cost, T1, T2 and the
    crossing detector's rms; Q and S of a twin pairing sum the same
    terms (certify.compute_gaps).
    """
    sq = squared_norms(gap)
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
    # the solver path that produced the plan: "nearest", "dense" or "lp";
    # None for plans built or loaded by hand
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


def _check_pair(a, b):
    ma, mb = a.total_mass, b.total_mass
    if abs(ma - mb) > MASS_RTOL * max(ma, mb):
        raise MassMismatchError(f"total masses differ: {ma!r} vs {mb!r}")
    if a.d != b.d:
        raise TransportError(f"dimension mismatch: {a.d} vs {b.d}")
    # no squared cost |x - y|^2 <= 4 d top^2, and no sum of n of them or
    # of n coordinates (a plan cost, a barycentre), may overflow
    top = max(float(np.abs(a.points).max()), float(np.abs(b.points).max()))
    if not math.isfinite(4.0 * a.d * max(a.n, b.n) * top * top):
        raise TransportError(
            f"coordinates up to {top:.3g} in magnitude would overflow the squared costs"
        )


def _uniform_equal_weights(a, b):
    wa, wb = a.weights, b.weights
    return (
        a.n == b.n
        and np.all(np.abs(wa - wa[0]) <= 1e-12 * wa[0])
        and np.all(np.abs(wb - wa[0]) <= 1e-12 * wa[0])
    )


def _nearest_neighbour_permutation(a, b, tree):
    """The strict nearest-neighbour map of a + c into b (tree over
    b.points), c the barycentre gap, if it is a permutation that the dense
    solve on the untranslated costs returns too.

    Returns the target index of every source point, or None when some
    translated source point has no clear nearest target (second neighbour
    within the margin, or within theta of the first once the rounding of
    the translation is allowed for) or two source points share their
    nearest target. The query stops just past the largest translated
    index-pairing gap, by 2 t + sqrt(theta) (see w2_exact).
    """
    n, eps = a.n, np.finfo(np.float64).eps
    c = np.array([ordered_sum(gap) for gap in (b.points - a.points).T]) / n
    z = a.points + c
    g = squared_norms(b.points - z).max()
    t = eps * math.sqrt(squared_norms(z).max())
    proj = sum(b.points[:, k] * c[k] for k in range(a.d))  # c.y_j, in column order
    scale = (math.hypot(*c) + math.sqrt(g)) ** 2 + 4.0 * (proj.max() - proj.min())
    theta = 2 * n * ETA_ULPS * n * eps * scale
    reach = (1.0 + 2.0 * NN_MARGIN) * (math.sqrt(max(g, NN_FLOOR)) + 2.0 * t + math.sqrt(theta))
    dist, idx = tree.query(z, k=2, distance_upper_bound=reach)
    # a second neighbour beyond reach, or missing from a one-point target,
    # reports inf, which clears every test below
    kappa = (a.d + 2) * eps
    lo = dist[:, 1] * (1.0 - kappa) - t
    hi = dist[:, 0] * (1.0 + kappa) + t
    sq = dist * dist
    clear = np.all(
        (sq[:, 0] * (1.0 + NN_MARGIN) < sq[:, 1])
        & (sq[:, 1] >= NN_FLOOR)
        & (lo > hi)
        & ((lo - hi) * (lo + hi) > theta)
    )
    nearest = idx[:, 0]
    if clear and np.bincount(nearest).max() == 1:
        return nearest
    return None


def w2_exact(a: WeightedCloud, b: WeightedCloud):
    """Exact Wasserstein-2 distance and optimal plan.

    Returns (distance, plan) with distance**2 == plan.cost; plan.solver
    names the path that ran. Raises MassMismatchError / TransportError
    instead of ever returning a silent approximation.

    Equal-size uniform-weight clouds take the assignment path, whose two
    tiers both return the permutation linear_sum_assignment returns on the
    cdist matrix C, so plan and cost are bitwise the dense path's.

    nearest: the quadratic assignment is translation-covariant. For any
    vector c, |x_i + c - y_j|^2 = c_ij + (2 c.x_i + |c|^2) - 2 c.y_j, a row
    term plus a column term, so the translated problem C' has the optimal
    permutations of C, and C' - u' - v' with duals u', v' is C - u - v with
    u_i = u'_i - 2 c.x_i - |c|^2 + K and v_j = v'_j + 2 c.y_j - K. The tier
    takes c as the barycentre gap, the mean of y_i - x_i, and gives a
    KD-tree the two nearest targets of every z_i = fl(x_i + c), at
    distances d1 <= d2 as the tree computes them. sigma(i) is the first.
    It is returned when the nearest targets are pairwise distinct and every
    row passes three tests:
    (1) d2^2 >= NN_FLOOR and d1^2 (1 + NN_MARGIN) < d2^2. The floor keeps
    the second distance clear of underflow, where relative bounds fail;
    the margin keeps every row's order far from the tree's rounding.
    (2) lo > hi and (3) lo^2 - hi^2 > theta, with hi = d1 (1 + kappa) + t
    and lo = d2 (1 - kappa) - t. Here kappa = (d + 2) eps bounds the
    tree's relative rounding of a distance, and t = eps max_i |z_i| bounds
    the translation's rounding: |fl(x_i + c) - (x_i + c)| <= u |x_i + c|
    per coordinate (u = eps / 2), so at most eps |z_i| in norm. In exact
    arithmetic x_i + c then lies within hi of y_sigma(i) and at least lo
    from every other target. So with u'_i = c'_{i sigma(i)}, v' = 0 and
    K = max_j 2 c.y_j, the duals of C satisfy v <= 0, are tight on sigma,
    and leave every pair off sigma a reduced cost above lo^2 - hi^2 >
    theta. Any other permutation tau differs from sigma on alternating
    cycles of at least two pairs off sigma each, and the duals cancel over
    both permutations, so on C cost(tau) - cost(sigma) > 2 theta: sigma is
    C's unique optimal permutation. theta = 2 n eta, with eta = ETA_ULPS n
    eps s at the untranslated cost scale s = (|c| + sqrt(g))^2 + 4 (max_j
    c.y_j - min_j c.y_j), where g = max_i |y_i - z_i|^2 is the largest
    translated index-pairing gap. s bounds max(u) + max(-v) of these duals,
    and so u_i, -v_j and every c_ij whose reduced cost is near theta: each
    c_{i sigma(i)} <= (|c| + d1)^2, d1 <= sqrt(g), and max(-v) = 2 (max_j
    c.y_j - min_j c.y_j). The shortest augmenting paths of
    linear_sum_assignment on C compare reduced costs of that size, so their
    double-precision error is O(n^2 eps s) on the total cost, well inside a
    gap of at least ETA_ULPS n^2 eps s, and they cannot return tau: they
    return sigma. Ties and near-ties inside theta, duplicate points and a
    second distance below NN_FLOOR therefore fall through to the dense
    solve. Test (3) is what ties the tier to the dense solve's bits: on a
    cloud moved by 1e8 with 1e-6 jitter, C's entries near 1e16 carry
    rounding of order 1, and the tier refuses.
    The KD-tree query stops at R = (1 + 2 NN_MARGIN) (sqrt(max(g,
    NN_FLOOR)) + 2 t + sqrt(theta)). Each z_i's own partner lies within R,
    so its nearest target is always found. A found second neighbour is the
    second-nearest of all targets, at the distance an unbounded query
    reports. An unfound one reports inf, which passes every test, and it
    passes them unbounded too. Its distance is at least R up to scipy's
    rounding: scipy squares R again internally (within 2 ulps of R^2) and
    keeps a neighbour only when its squared distance is strictly below
    that. So d2^2 exceeds (1 + NN_MARGIN) d1^2 (d1^2 is at most g up to
    rounding, or below NN_FLOOR) and NN_FLOOR itself, and lo - hi >= R (1
    - kappa - 2 eps) - sqrt(g) (1 + kappa)^2 - 2 t > sqrt(theta), where
    the factor 1 + 2 NN_MARGIN leaves room for every rounding of
    order kappa; so lo^2 - hi^2 > theta. The margin multiplies the floor
    too, so an unfound second neighbour clears NN_FLOOR by the same
    margin. So the bounded query gives the same sigma or the same refusal
    as an unbounded one.

    dense: cdist + linear_sum_assignment, when the nearest certificate
    fails. Unequal or non-uniform weights take the transportation LP.
    Minimality on every path is also checked against brute-force
    enumeration in the tests.
    """
    _check_pair(a, b)
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
    rows = np.arange(a.n)
    solver, cols = "nearest", _nearest_neighbour_permutation(a, b, cKDTree(b.points))
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
