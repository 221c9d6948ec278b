"""Test-side readers and reference helpers that the package itself never calls.

The package writes grids and plans but reads neither back, and it has no
use for cell-center grids or merged clouds; the tests need all four as
oracles.
"""

import json

import numpy as np

from vptwin.fields import GridDensity, GridField, GridSpec
from vptwin.transport import TransportPlan, WeightedCloud


def grid_points(spec: GridSpec):
    """Cell-center coordinates of ``spec``, shape dims + (3,)."""
    ax = [spec.lo[a] + (np.arange(spec.dims[a]) + 0.5) * spec.h[a] for a in range(3)]
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
    spec = GridSpec(tuple(side["box_center"]), tuple(side["box_edge"]), tuple(side["dims"]))
    raw = np.fromfile(basepath + ".bin", dtype="<f8")
    if side["kind"] == "density":
        return GridDensity(spec, raw.reshape(spec.dims), side["epsilon_sign"])
    return GridField(spec, raw.reshape(spec.dims + (3,)))
