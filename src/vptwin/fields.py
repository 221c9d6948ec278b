"""Free-space Poisson fields on uniform 3-d grids.

The solvers take no sign: they solve Delta Psi = rho, i.e.

    grad Psi(x) = sum_j w_j (x - y_j) / (4 pi (|x - y_j|^2 + s^2)^{3/2})

with Plummer softening length s; the field evaluators of dynamics apply
the run's force-law sign epsilon (+1 repulsive, -1 attractive). The grid
solver convolves cell masses with the same kernel using
zero-padded (domain-doubled) FFTs, so boundaries are free-space. The
doubled-domain transforms are pruned axis by axis (Hockney & Eastwood,
Computer Simulation Using Particles, 1988, sec. 6-5): no 1-D line that is
all zeros on input or cropped away on output is transformed. The solve is
linear, so it also takes the signed DensityDifference of two densities:
one solve gives the difference of their fields, Prop. 3.1's left side.

The per-step kernels avoid fresh scratch memory: a new multi-megabyte
temporary is faulted in page by page on every call, which cost about as
much as the transforms. The grid solve writes all its transforms through
numpy.fft's out= into a per-thread workspace that stays mapped,
2 (2n)^2 (n+1) x 16 bytes per n^3 grid shape (4.4 MB at 32^3, 35 MB at
64^3). A twin solves on two threads, so it keeps two workspaces per grid
shape; the kernel spectra are shared and built once. The CIC deposit
fills one array of corner cells and one of shares and adds them with one
ordered bincount, interpolation gathers through flat cell indices, and
the direct sum works on cache-sized blocks of (source, target) planes in
one reused buffer. No output bit depends on any of this, nor on which
thread runs a solve.

Every sum here adds in an order written in the code; the README's
manifest notes state what the output bits still depend on.
"""

from __future__ import annotations

import json
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EscapeError, OutOfDomainError, SingularityError
from .transport import ordered_sum, squared_norms

FOUR_PI = 4.0 * np.pi
DIRECT_PAIRS = 1 << 15  # target-source pairs per block of solve_field_direct


class TruncationWarning(UserWarning):
    """Density support touches the box boundary; truncation error unbounded."""


# --------------------------------------------------------------------------
# grid geometry


@dataclass(frozen=True)
class GridSpec:
    """Uniform cubic grid of n^3 cell centers about the origin.

    The box spans [-edge/2, edge/2] on each axis with n cells of size
    h = edge / n; grid values live at cell centers lo + (i + 1/2) h.
    """

    edge: float
    n: int

    def __post_init__(self):
        if np.ndim(self.edge) or np.ndim(self.n):
            raise ValueError("GridSpec is an n^3 cube: one edge and one n")
        if not (self.edge > 0 and self.n >= 2):
            raise ValueError("edge must be positive and n >= 2")
        object.__setattr__(self, "edge", float(self.edge))
        object.__setattr__(self, "n", int(self.n))

    @property
    def h(self):
        return self.edge / self.n

    @property
    def dims(self):
        """The array shape (n, n, n)."""
        return (self.n,) * 3

    @property
    def lo(self):
        return np.full(3, -0.5 * self.edge)

    @property
    def hi(self):
        return np.full(3, 0.5 * self.edge)

    @property
    def cell_volume(self):
        return self.h * self.h * self.h


@dataclass(frozen=True)
class GridDensity:
    """Deposited density rho on a GridSpec (values per cell, mass/volume)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.shape != self.spec.dims:
            raise ValueError(f"values shape {values.shape} != dims {self.spec.dims}")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite and nonnegative")
        object.__setattr__(self, "values", values)

    @property
    def sup_norm(self):
        return float(self.values.max(initial=0.0))

    def touches_boundary(self):
        """Whether the support reaches the outer cell layer of the box."""
        v = self.values
        return bool(
            v[0].any() or v[-1].any()
            or v[:, 0].any() or v[:, -1].any()
            or v[:, :, 0].any() or v[:, :, -1].any()
        )


@dataclass(frozen=True)
class DensityDifference:
    """The signed charge rho1 - rho2 of two densities on one grid.

    The grid solve is linear, so solve_field_grid of this charge is
    grad Psi_1 - grad Psi_2 from one solve: the left side of Prop. 3.1.
    It touches the boundary where either density does. The two can cancel
    on the outer cell layer, but each one's truncation error is still in
    the difference of their fields, so its solve still warns.
    """

    rho1: GridDensity
    rho2: GridDensity

    def __post_init__(self):
        if self.rho1.spec != self.rho2.spec:
            raise ValueError("densities on grids of different geometry")

    @property
    def spec(self):
        return self.rho1.spec

    @property
    def values(self):
        """rho1 - rho2, a new array on each access: the solve reads it
        once, so the difference lives only until it is scaled."""
        return self.rho1.values - self.rho2.values

    def touches_boundary(self):
        return self.rho1.touches_boundary() or self.rho2.touches_boundary()


@dataclass(frozen=True)
class GridField:
    """Vector field grad Psi sampled at cell centers, trilinear interpolation."""

    spec: GridSpec
    values: np.ndarray  # dims + (3,)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.shape != self.spec.dims + (3,):
            raise ValueError(f"field shape {values.shape} != dims + (3,)")
        object.__setattr__(self, "values", values)

    def interpolate(self, points):
        """Trilinear interpolation at arbitrary points inside the box."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        idx, frac, outside = _cic_coords(points, self.spec)
        if outside.size:
            raise OutOfDomainError(points[outside].tolist())
        rows = self.values.reshape(-1, 3)
        out = np.zeros((points.shape[0], 3))
        for flat, wx, wy, wz in _cic_corners(idx, frac, self.spec):
            out += (wx * wy * wz)[:, None] * rows.take(flat, axis=0)
        return out


# --------------------------------------------------------------------------
# cloud-in-cell deposition


def _cic_coords(points, spec):
    """Lower corner index, fractional offset and out-of-box rows for CIC."""
    n = spec.n
    u = (points - spec.lo) / spec.h - 0.5
    outside = np.nonzero(
        np.any((u < -1e-12) | (u > n - 1 + 1e-12), axis=1)
    )[0]
    # clipped before the cast, so a far escape casts no huge float
    i0 = np.floor(np.clip(u, 0, n - 2)).astype(np.int64)
    frac = np.clip(u - i0, 0.0, 1.0)
    return i0, frac, outside


def check_in_box(points, spec):
    """Raise EscapeError naming the rows of ``points`` that deposit_cic
    would refuse: those outside the cell-center lattice of ``spec``."""
    outside = _cic_coords(np.atleast_2d(points), spec)[2]
    if outside.size:
        raise EscapeError(outside.tolist())


def _cic_corners(idx, frac, spec):
    """The 8 CIC corners of each point, x-major: for each, the flat C-order
    cell index and the three per-axis weights (wx, wy, wz)."""
    n = spec.n
    base = (idx[:, 0] * n + idx[:, 1]) * n + idx[:, 2]
    for cx in (0, 1):
        wx = (1.0 - frac[:, 0]) if cx == 0 else frac[:, 0]
        for cy in (0, 1):
            wy = (1.0 - frac[:, 1]) if cy == 0 else frac[:, 1]
            for cz in (0, 1):
                wz = (1.0 - frac[:, 2]) if cz == 0 else frac[:, 2]
                yield base + ((cx * n + cy) * n + cz), wx, wy, wz


def deposit_cic(points, weights, spec):
    """Cloud-in-cell deposit of a weighted point set onto a GridSpec.

    Mass is conserved exactly (partition of unity); a point exactly at a
    cell center deposits its full weight into that cell. Points outside
    the cell-center lattice raise EscapeError with the offending indices.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    idx, frac, outside = _cic_coords(points, spec)
    if outside.size:
        raise EscapeError(outside.tolist())
    # the 8 corners' cells and shares, corner after corner, so that bincount
    # (which adds in input order) sums each cell's shares in the same
    # sequence as one scatter-add per corner would
    n = points.shape[0]
    cells = np.empty(8 * n, np.int64)
    shares = np.empty(8 * n)
    for k, (flat, wx, wy, wz) in enumerate(_cic_corners(idx, frac, spec)):
        cells[k * n : (k + 1) * n] = flat
        share = np.multiply(weights, wx, out=shares[k * n : (k + 1) * n])
        share *= wy
        share *= wz
    values = np.bincount(cells, shares, minlength=math.prod(spec.dims)).reshape(spec.dims)
    values /= spec.cell_volume
    return values


# --------------------------------------------------------------------------
# direct-sum solver


def solve_field_direct(points, weights, targets, softening=0.0):
    """Exact pairwise grad Psi at target points (no mesh error).

    The order of every sum is fixed: r^2 = (dx dx + dz dz) + dy dy + s^2
    per pair, and each component of a target's field adds its source
    terms w (4 pi r^2 r)^-1 d one by one in source order from +0.0; the
    blocking does not change it. With zero softening a target sitting
    exactly on a source raises SingularityError.
    """
    s2 = float(softening) ** 2
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if not (np.all(np.isfinite(points)) and np.all(np.isfinite(targets))):
        raise ValueError("non-finite source or target coordinates")
    n = points.shape[0]
    out = np.empty((targets.shape[0], 3))
    # a block of targets whose pair planes stay cache-sized; each target's
    # sum over the sources is the same whatever the block
    block = max(1, DIRECT_PAIRS // max(1, n))
    planes = np.empty((5, min(block, targets.shape[0]) * n))
    for a in range(0, targets.shape[0], block):
        t = targets[a : a + block]
        m = t.shape[0]
        # (source, target) planes: the differences, r^2, and scratch
        dx, dy, dz, r2, tmp = (p[: n * m].reshape(n, m) for p in planes)
        diff = (dx, dy, dz)
        for k, d in enumerate(diff):
            np.subtract(t[:, k], points[:, k, None], out=d)
        np.multiply(dx, dx, out=r2)
        r2 += np.multiply(dz, dz, out=tmp)
        r2 += np.multiply(dy, dy, out=tmp)
        r2 += s2
        if s2 == 0.0:
            sing = r2 == 0.0
            if np.any(sing):
                raise SingularityError(
                    f"{np.count_nonzero(sing)} target(s) coincide with unsoftened sources"
                )
        # w / ((4 pi r^2) r), left in r2
        np.sqrt(r2, out=tmp)
        r2 *= FOUR_PI
        r2 *= tmp
        np.divide(weights[:, None], r2, out=r2)
        # the j == i term of a self-field has zero numerator, so softened
        # self-interaction vanishes automatically
        for k, d in enumerate(diff):
            d *= r2
            if m > 1:
                # row after row from +0.0: sequential in source order, for
                # an axis-0 reduce of a C-order plane; pinned bit for bit
                # by tests/test_fields.py against a loop in source order
                out[a : a + m, k] = np.add.reduce(d, axis=0)
            else:
                # one column would reduce pairwise; accumulate is sequential
                out[a, k] = np.add.accumulate(np.concatenate(([0.0], d[:, 0])))[-1]
    return out


# --------------------------------------------------------------------------
# grid solver (Hockney domain doubling)

_KERNEL_CACHE = {}
_KERNEL_LOCK = threading.Lock()


def _kernel_fft(spec, softening_length):
    """The cached kernel spectra for (grid, softening). Built once: a thread
    that asks while another builds waits for that build, and builds of
    different kernels never overlap, so only one build's scratch is live."""
    key = (spec.n, spec.h, float(softening_length))
    with _KERNEL_LOCK:
        kfft = _KERNEL_CACHE.get(key)
        if kfft is None:
            kfft = _KERNEL_CACHE[key] = _build_kernel(spec, softening_length)
    return kfft


def _build_kernel(spec, softening_length):
    """The three rfftn spectra of the doubled-domain softened kernel."""
    n = spec.n
    pad = (2 * n,) * 3
    k = np.arange(2 * n)
    c = np.where(k <= n, k, k - 2 * n).astype(np.float64)
    c[n] = 0.0  # ambiguous +-n offset never reaches the cropped region
    c *= spec.h
    rx, ry, rz = np.meshgrid(c, c, c, indexing="ij", sparse=True)
    r2 = rx**2 + ry**2 + rz**2 + softening_length**2
    denom = FOUR_PI * r2
    denom *= np.sqrt(r2)
    del r2
    nonzero = denom > 0  # 0 only unsoftened, where all offsets are 0
    kfft = []
    # one full-size real component at a time, so at most one is live
    for rc in (rx, ry, rz):
        kern = np.divide(rc, denom, out=np.zeros(pad), where=nonzero)
        kfft.append(np.fft.rfftn(kern))
        del kern
    return kfft


def solve_field_grid(rho, softening) -> GridField:
    """grad Psi from a grid charge via zero-padded kernel convolution.

    ``rho`` is a GridDensity, or the signed DensityDifference of two; the
    solve is linear, so the latter's field is the difference of theirs.
    ``softening`` is the resolved length, from the run plan
    (harness.ScenarioConfig.field_solves). Free-space boundaries; if the
    density support touches the outer cell layer a TruncationWarning is
    issued.

    The doubled-domain convolution runs one axis at a time and skips the
    zero half on input and the cropped half on output. The axis order is
    fixed to the one numpy's rfftn/irfftn use (forward 2, 1, 0; inverse
    0, 1, 2): every retained line then sees the same 1-D arithmetic as
    the full-domain transform, so the output bits equal numpy's full
    rfftn/irfftn.

    Every transform writes with out= into this thread's workspace for the
    grid shape, 2 (2n)^2 (n+1) x 16 bytes kept mapped between calls
    (4.4 MB at 32^3, 35 MB at 64^3): fresh buffers re-fault every page on
    every call, which took about as long as the transforms. A call
    allocates only the scaled mass and the field, 32 n^3 bytes (and a
    DensityDifference's values, gone once scaled); the returned field
    never shares memory with the workspace.
    """
    spec = rho.spec
    if rho.touches_boundary():
        warnings.warn(
            "density support touches the box boundary; free-space truncation "
            "error is uncontrolled",
            TruncationWarning,
            stacklevel=2,
        )
    # fetch (on a first call, build) the kernel before the workspace: built
    # with this call's buffers live, it left peak RSS ~3 MB higher
    kfft = _kernel_fft(spec, softening)
    n = spec.n
    mf, prod = _workspace(n)
    # forward, in place in mf: only the n^2 lines of the mass are non-zero
    # along axis 2, only n(n+1) along axis 1 after that
    np.fft.rfft(rho.values * spec.cell_volume, 2 * n, axis=2, out=mf[:n, :n])
    mf[:n, n:] = 0
    np.fft.fft(mf[:n], axis=1, out=mf[:n])
    mf[n:] = 0
    np.fft.fft(mf, axis=0, out=mf)
    # the last inverse writes its real lines into the half of prod that
    # the axis-0 crop leaves unused
    real = prod[n:].view(np.float64)[:, :n, : 2 * n]
    values = np.empty(spec.dims + (3,))
    for c, kf in enumerate(kfft):
        # inverse, in place in prod: crop after each axis, so later axes
        # transform only the lines that survive into the physical box
        np.multiply(mf, kf, out=prod)
        np.fft.ifft(prod, axis=0, out=prod)
        np.fft.ifft(prod[:n], axis=1, out=prod[:n])
        np.fft.irfft(prod[:n, :n], 2 * n, axis=2, out=real)
        values[..., c] = real[..., :n]
    return GridField(spec, values)


_WORKSPACES = threading.local()


def _workspace(n):
    """This thread's two complex doubled-domain spectra (mf, prod) for an
    n^3 grid, kept between solves so that each solve writes into pages
    already mapped instead of faulting in fresh ones."""
    by_n = getattr(_WORKSPACES, "by_n", None)
    if by_n is None:
        by_n = _WORKSPACES.by_n = {}
    buffers = by_n.get(n)
    if buffers is None:
        shape = (2 * n, 2 * n, n + 1)
        buffers = by_n[n] = (np.empty(shape, complex), np.empty(shape, complex))
    return buffers


def field_l2_diff(diff: GridField) -> float:
    """L2 norm over the box of a field difference, (sum |d|^2 h^3)^{1/2},
    the squares summed by transport.ordered_sum in C order. The difference
    is one field: the solve of a DensityDifference."""
    return math.sqrt(ordered_sum(np.square(diff.values)) * diff.spec.cell_volume)


# --------------------------------------------------------------------------
# log-Lipschitz modulus


LOGLIP_S_MAX = 0.5  # the largest separation; <= 1/2 keeps the log factor positive
LOGLIP_SEPARATIONS = 16
LOGLIP_PAIRS = 32  # sampled pairs per separation


def loglip_modulus(evaluate, region_lo, region_hi, s_min, seed):
    """Empirical sup of |F(x)-F(y)| / (|x-y| log(1/|x-y|)) over sampled pairs.

    LOGLIP_SEPARATIONS separations are log-spaced in [s_min, LOGLIP_S_MAX];
    at each, LOGLIP_PAIRS base points are seeded uniform draws inside the
    region, shrunk so both ends of each pair stay inside.
    """
    s_max = LOGLIP_S_MAX
    region_lo = np.asarray(region_lo, dtype=np.float64)
    region_hi = np.asarray(region_hi, dtype=np.float64)
    if not 0 < s_min < s_max:
        raise ValueError(f"need 0 < s_min < {s_max}")
    if np.any(region_hi - region_lo <= 2 * s_max):
        raise ValueError("region too small for the requested separations")
    rng = np.random.default_rng(seed)
    seps = np.geomspace(s_min, s_max, LOGLIP_SEPARATIONS)
    best = -1.0
    for s in seps:
        x = rng.uniform(region_lo + s_max, region_hi - s_max, size=(LOGLIP_PAIRS, 3))
        d = rng.normal(size=(LOGLIP_PAIRS, 3))
        d /= np.sqrt(squared_norms(d))[:, None]
        y = x + s * d
        num = np.sqrt(squared_norms(evaluate(x) - evaluate(y)))
        ratios = num / (s * np.log(1.0 / s))
        best = max(best, float(ratios.max()))  # a NaN ratio drops its separation
    if best < 0.0:
        raise ValueError("no valid sample pairs")
    return best


# --------------------------------------------------------------------------
# grid I/O: flat little-endian float64 binary + JSON sidecar


def save_grid(obj, basepath, epsilon_sign=None):
    """Write <basepath>.bin (little-endian float64, C order) and <basepath>.json;
    a density's sidecar records the run's epsilon_sign, which it does not hold."""
    basepath = str(basepath)
    if isinstance(obj, GridDensity):
        kind, comps, extra = "density", 1, {"epsilon_sign": epsilon_sign}
    elif isinstance(obj, GridField):
        kind, comps, extra = "field", 3, {}
    else:
        raise TypeError("save_grid expects GridDensity or GridField")
    sidecar = {
        "kind": kind,
        "dims": list(obj.spec.dims),
        "box_center": [0.0] * 3,
        "box_edge": [obj.spec.edge] * 3,
        "h": [obj.spec.h] * 3,
        "components": comps,
        **extra,
    }
    obj.values.astype("<f8").tofile(basepath + ".bin")
    with open(basepath + ".json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=1)
        fh.write("\n")
