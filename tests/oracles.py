"""Test-side readers and reference code that the package itself never calls.

The package writes grids and plans but reads neither back, and it has no
use for grid masses, cell-center grids, merged clouds, fixed external
fields, the pairwise potential energy or the displacement interpolant; the
tests need them as oracles. The loop sums below add one Python float at a time, in
the order that transport.ordered_sum and squared_norms write out. The
geodesic sup-norm check lives here because it is not an exact inequality
on the grid (the deposit of the interpolant can peak a little above both
endpoints), so it is an acceptance criterion rather than a verdict.
UnboundedTree is the reference for w2_exact's pruned certificate
queries: the same KD-tree, searched without a radius.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from vptwin.fields import FOUR_PI, GridDensity, GridField, GridSpec, deposit_cic
from vptwin.transport import TransportPlan, WeightedCloud, ordered_sum

# geodesic_linf_check: an endpoint sup-norm moving by more than this
# fraction under 2x grid refinement makes the check inconclusive
STABILITY_RTOL = 0.5


def loop_sum(terms):
    """The terms of an array added left to right in C order, from the
    first term; 0.0 for none."""
    terms = np.asarray(terms).ravel().tolist()
    if not terms:
        return 0.0
    acc = terms[0]
    for term in terms[1:]:
        acc += term
    return acc


def row_sum_loop(*gaps):
    """Per row: each gap's squares added in column order from the first,
    then the gaps' row sums added in argument order."""
    out = []
    for rows in zip(*(gap.tolist() for gap in gaps)):
        total = None
        for row in rows:
            acc = row[0] * row[0]
            for c in row[1:]:
                acc += c * c
            total = acc if total is None else total + acc
        out.append(total)
    return np.array(out)


def ledger_sum(weights, *gaps):
    """transport.coupling_cost in its written order: w_i times each row's
    squared norm (row_sum_loop), summed by loop_sum."""
    return loop_sum(np.asarray(weights) * row_sum_loop(*gaps))


class UnboundedTree(cKDTree):
    """A cKDTree whose query ignores distance_upper_bound: every query
    searches all points, as w2_exact's certificate queries did before
    they were pruned."""

    def query(self, x, k=1, distance_upper_bound=np.inf, **kwargs):
        return super().query(x, k=k, **kwargs)


def grid_mass(rho: GridDensity) -> float:
    """The mass of a deposited density: its cells summed in C order by
    transport.ordered_sum, times the cell volume."""
    return ordered_sum(rho.values.copy()) * rho.spec.cell_volume


def grid_points(spec: GridSpec):
    """Cell-center coordinates of ``spec``, shape dims + (3,)."""
    ax = [spec.lo[a] + (np.arange(spec.n) + 0.5) * spec.h for a in range(3)]
    return np.stack(np.meshgrid(*ax, indexing="ij"), axis=-1)


def merge_coincident(cloud: WeightedCloud, decimals=12) -> WeightedCloud:
    """Sum weights of points equal after rounding; canonical lexicographic order."""
    key = np.round(cloud.points, decimals)
    uniq, inv = np.unique(key, axis=0, return_inverse=True)
    w = np.bincount(inv, weights=cloud.weights, minlength=uniq.shape[0])
    return WeightedCloud(uniq, w)


def load_plan(path, source: WeightedCloud, target: WeightedCloud) -> TransportPlan:
    """Read a transport.save_plan file back against its two clouds."""
    with open(path) as fh:
        n = int(fh.readline())
        data = np.loadtxt(fh, ndmin=2)
    if data.shape[0] != n:
        raise ValueError(f"{path}: expected {n} entries, got {data.shape[0]}")
    return TransportPlan(
        data[:, 0].astype(np.int64), data[:, 1].astype(np.int64), data[:, 2], source, target
    )


def load_grid(basepath):
    """Read a fields.save_grid pair <basepath>.bin + <basepath>.json back."""
    basepath = str(basepath)
    with open(basepath + ".json") as fh:
        side = json.load(fh)
    (edge,), (n,) = set(side["box_edge"]), set(side["dims"])  # a cube's three equal values
    assert side["box_center"] == [0.0] * 3  # every grid is origin-centred
    spec = GridSpec(edge, n)
    raw = np.fromfile(basepath + ".bin", dtype="<f8")
    if side["kind"] == "density":
        return GridDensity(spec, raw.reshape(spec.dims))
    return GridField(spec, raw.reshape(spec.dims + (3,)))


class FrozenFieldEvaluator:
    """Fixed external field from a callable points -> (n, 3) values."""

    def __init__(self, fn):
        self.fn = fn

    def refresh(self, ensemble):
        pass

    def accel(self, points):
        return np.asarray(self.fn(np.atleast_2d(points)), dtype=np.float64)


def potential_energy_direct(ensemble, softening, epsilon) -> float:
    """Pairwise softened interaction energy consistent with DirectSumEvaluator.

    U = (epsilon/2) sum_{i != j} w_i w_j / (4 pi sqrt(r_ij^2 + s^2)); the total
    H = kinetic + U is conserved by the softened direct-sum dynamics.
    """
    x = ensemble.x
    w = ensemble.w
    diff = x[:, None, :] - x[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff) + softening**2
    inv = 1.0 / (FOUR_PI * np.sqrt(r2))
    np.fill_diagonal(inv, 0.0)
    return 0.5 * epsilon * float(w @ inv @ w)


def displacement_interpolate(plan: TransportPlan, theta: float) -> WeightedCloud:
    """Point (2 - theta) x + (theta - 1) y with the entry's mass, theta in [1, 2].

    Endpoints reproduce the source/target clouds as measures (up to merging
    coincident points).
    """
    if not 1.0 <= theta <= 2.0:
        raise ValueError(f"theta must lie in [1, 2], got {theta}")
    pts = (2.0 - theta) * plan.source.points[plan.src] + (theta - 1.0) * plan.target.points[
        plan.tgt
    ]
    return WeightedCloud(pts, plan.mass.copy())


@dataclass(frozen=True)
class GeodesicLinfReport:
    thetas: np.ndarray
    sup_norms: np.ndarray
    endpoint_sup: float
    ratio: float
    tolerance: float
    status: str  # 'pass' | 'fail' | 'inconclusive'


def _smoothed_sup(cloud, spec, smoothing_cells):
    values = deposit_cic(cloud.points, cloud.weights, spec)
    if smoothing_cells > 0:
        from scipy.ndimage import gaussian_filter

        values = gaussian_filter(values, sigma=smoothing_cells, mode="constant")
    return float(values.max())


def geodesic_linf_check(plan, thetas, spec, smoothing_cells=1.5, tolerance=0.10):
    """Deposited sup-norm along the displacement path vs the endpoint maximum.

    Point masses have no sup-norm, so every sample is deposited with CIC
    plus a small Gaussian smoothing (in cells) before taking the max; the
    same pipeline is applied to the endpoints. If either endpoint sup-norm
    moves by more than STABILITY_RTOL under 2x grid refinement the result
    is 'inconclusive' (grid too coarse) rather than pass/fail.
    """
    thetas = np.asarray(sorted(thetas), dtype=np.float64)
    sups = np.array(
        [_smoothed_sup(displacement_interpolate(plan, t), spec, smoothing_cells) for t in thetas]
    )
    ends = (plan.source, plan.target)
    coarse = [_smoothed_sup(c, spec, smoothing_cells) for c in ends]
    end_sup = max(coarse)
    ratio = float(sups.max() / end_sup)
    fine = GridSpec(spec.edge, 2 * spec.n)
    stable = all(
        abs(_smoothed_sup(c, fine, smoothing_cells) - sup) <= STABILITY_RTOL * sup
        for c, sup in zip(ends, coarse)
    )
    if not stable:
        status = "inconclusive"
    else:
        status = "pass" if ratio <= 1.0 + tolerance else "fail"
    return GeodesicLinfReport(thetas, sups, end_sup, ratio, tolerance, status)
