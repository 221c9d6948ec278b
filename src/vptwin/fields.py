"""Free-space Poisson fields on uniform 3-d grids.

The potential convention is Delta Psi = epsilon * rho, i.e.

    grad Psi(x) = epsilon * sum_j w_j (x - y_j) / (4 pi (|x - y_j|^2 + s^2)^{3/2})

with Plummer softening length s. epsilon = +1 is the repulsive
(electrostatic) sign, epsilon = -1 the attractive (gravitational) one.
The grid solver convolves cell masses with the same kernel using
zero-padded (domain-doubled) FFTs, so boundaries are free-space. The
doubled-domain transforms are pruned axis by axis (Hockney & Eastwood,
Computer Simulation Using Particles, 1988, sec. 6-5): no 1-D line that is
all zeros on input or cropped away on output is transformed.

The per-step kernels avoid fresh scratch memory: a new multi-megabyte
temporary is faulted in page by page on every call, which cost about as
much as the transforms. The grid solve writes all its transforms but the
last inverse through numpy.fft's out= into a per-thread workspace that
stays mapped, 2 (2n)^2 (n+1) x 16 bytes per n^3 grid shape (4.4 MB at
32^3, 35 MB at 64^3). A twin solves on two threads, one per branch, so it
keeps two workspaces per grid shape; the kernel spectra are shared and
built once. The CIC deposit is one ordered bincount, interpolation
gathers through flat cell indices, and the direct sum works on
cache-sized blocks of (source, target) planes in one reused buffer. No
output bit depends on any of this, nor on which thread runs a solve.

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
    """Uniform Cartesian grid of cell centers.

    The box spans [center - edge/2, center + edge/2] per axis with ``dims``
    cells; grid values live at cell centers lo + (i + 1/2) h.
    """

    center: tuple
    edge: tuple
    dims: tuple

    def __post_init__(self):
        center = tuple(float(c) for c in np.atleast_1d(self.center))
        edge = np.atleast_1d(self.edge)
        if edge.size == 1:
            edge = np.repeat(edge, 3)
        edge = tuple(float(e) for e in edge)
        dims = np.atleast_1d(self.dims)
        if dims.size == 1:
            dims = np.repeat(dims, 3)
        dims = tuple(int(n) for n in dims)
        if len(center) != 3 or len(edge) != 3 or len(dims) != 3:
            raise ValueError("GridSpec is 3-d: center, edge, dims must have length 3")
        if any(e <= 0 for e in edge) or any(n < 2 for n in dims):
            raise ValueError("edge lengths must be positive and dims >= 2")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "dims", dims)

    @property
    def h(self):
        return np.asarray(self.edge) / np.asarray(self.dims)

    @property
    def lo(self):
        return np.asarray(self.center) - 0.5 * np.asarray(self.edge)

    @property
    def hi(self):
        return np.asarray(self.center) + 0.5 * np.asarray(self.edge)

    @property
    def cell_volume(self):
        return float(np.prod(self.h))


@dataclass(frozen=True)
class GridDensity:
    """Deposited density rho on a GridSpec (values per cell, mass/volume)."""

    spec: GridSpec
    values: np.ndarray
    epsilon_sign: int = 1

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.shape != self.spec.dims:
            raise ValueError(f"values shape {values.shape} != dims {self.spec.dims}")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite and nonnegative")
        if self.epsilon_sign not in (1, -1):
            raise ValueError("epsilon_sign must be +1 or -1")
        object.__setattr__(self, "values", values)

    @property
    def mass(self):
        return ordered_sum(self.values.copy()) * self.spec.cell_volume

    @property
    def sup_norm(self):
        return float(self.values.max(initial=0.0))


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
# Plummer softening |x-y|^2 -> |x-y|^2 + s^2; s = 0 is the exact kernel


def check_softening(length):
    """``length`` as a float; ValueError unless it is finite and >= 0."""
    length = float(length)
    if not (math.isfinite(length) and length >= 0.0):
        raise ValueError(f"softening length must be finite and >= 0, got {length!r}")
    return length


def resolve_softening(spec, softening=None):
    """The softening length on ``spec``: half its smallest cell size (the
    deposition scale) when ``softening`` is None, else check_softening."""
    if softening is None:
        return 0.5 * float(np.min(spec.h))
    return check_softening(softening)


# --------------------------------------------------------------------------
# cloud-in-cell deposition


def _cic_coords(points, spec):
    """Lower corner index, fractional offset and out-of-box rows for CIC."""
    dims = np.asarray(spec.dims)
    u = (points - spec.lo) / spec.h - 0.5
    outside = np.nonzero(
        np.any((u < -1e-12) | (u > dims - 1 + 1e-12), axis=1)
    )[0]
    i0 = np.clip(np.floor(u).astype(np.int64), 0, dims - 2)
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
    _, ny, nz = spec.dims
    base = (idx[:, 0] * ny + idx[:, 1]) * nz + idx[:, 2]
    for cx in (0, 1):
        wx = (1.0 - frac[:, 0]) if cx == 0 else frac[:, 0]
        for cy in (0, 1):
            wy = (1.0 - frac[:, 1]) if cy == 0 else frac[:, 1]
            for cz in (0, 1):
                wz = (1.0 - frac[:, 2]) if cz == 0 else frac[:, 2]
                yield base + ((cx * ny + cy) * nz + cz), wx, wy, wz


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
    corners = list(_cic_corners(idx, frac, spec))
    # bincount adds in input order, so each cell sums its corner shares in
    # the same sequence as one scatter-add per corner would
    values = np.bincount(
        np.concatenate([flat for flat, *_ in corners]),
        np.concatenate([weights * wx * wy * wz for _, wx, wy, wz in corners]),
        minlength=math.prod(spec.dims),
    ).reshape(spec.dims)
    values /= spec.cell_volume
    return values


# --------------------------------------------------------------------------
# direct-sum solver


def solve_field_direct(points, weights, targets, softening=0.0, epsilon_sign=1):
    """Exact pairwise grad Psi at target points (no mesh error).

    The order of every sum is fixed: r^2 = (dx dx + dz dz) + dy dy + s^2
    per pair, and each component of a target's field adds its source
    terms w (4 pi r^2 r)^-1 d one by one in source order from +0.0; the
    blocking does not change it. With zero softening a target sitting
    exactly on a source raises SingularityError.
    """
    s2 = check_softening(softening) ** 2
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
    out *= epsilon_sign
    return out


# --------------------------------------------------------------------------
# grid solver (Hockney domain doubling)

_KERNEL_CACHE = {}
_KERNEL_LOCK = threading.Lock()


def _kernel_fft(spec, softening_length):
    """The cached kernel spectra for (grid, softening). Built once: a thread
    that asks while another builds waits for that build, and builds of
    different kernels never overlap, so only one build's scratch is live."""
    key = (spec.dims, tuple(spec.h.tolist()), float(softening_length))
    with _KERNEL_LOCK:
        kfft = _KERNEL_CACHE.get(key)
        if kfft is None:
            kfft = _KERNEL_CACHE[key] = _build_kernel(spec, softening_length)
    return kfft


def _build_kernel(spec, softening_length):
    """The three rfftn spectra of the doubled-domain softened kernel."""
    pad = tuple(2 * n for n in spec.dims)
    coords = []
    for a in range(3):
        k = np.arange(pad[a])
        c = np.where(k <= spec.dims[a], k, k - pad[a]).astype(np.float64)
        c[spec.dims[a]] = 0.0  # ambiguous +-n offset never reaches the cropped region
        coords.append(c * spec.h[a])
    rx, ry, rz = np.meshgrid(*coords, indexing="ij", sparse=True)
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


def solve_field_grid(rho: GridDensity, softening=None) -> GridField:
    """grad Psi from a grid density via zero-padded kernel convolution.

    The softening is resolve_softening(rho.spec, softening), by default
    half the smallest cell size. Free-space boundaries; if the density
    support touches the outer cell layer a TruncationWarning is issued.

    The doubled-domain convolution runs one axis at a time and skips the
    zero half on input and the cropped half on output. The axis order is
    fixed to the one numpy's rfftn/irfftn use (forward 2, 1, 0; inverse
    0, 1, 2): every retained line then sees the same 1-D arithmetic as
    the full-domain transform, so the output bits equal numpy's full
    rfftn/irfftn.

    Every transform but the last inverse writes with out= into this
    thread's workspace for the grid shape, 2 (2nx)(2ny)(nz+1) x 16 bytes
    kept mapped between calls (4.4 MB at 32^3, 35 MB at 64^3): fresh
    buffers re-fault every page on every call, which took about as long as
    the transforms. A call allocates only the scaled mass, one component's
    irfft output and the field, 48 n^3 bytes; the returned field never
    shares memory with the workspace.
    """
    spec = rho.spec
    softening = resolve_softening(spec, softening)
    if _support_touches_boundary(rho.values):
        warnings.warn(
            "density support touches the box boundary; free-space truncation "
            "error is uncontrolled",
            TruncationWarning,
            stacklevel=2,
        )
    # fetch (on a first call, build) the kernel before the workspace: built
    # with this call's buffers live, it left peak RSS ~3 MB higher
    kfft = _kernel_fft(spec, softening)
    nx, ny, nz = spec.dims
    mf, prod = _workspace(spec.dims)
    # forward, in place in mf: only the nx*ny lines of the mass are non-zero
    # along axis 2, only nx*(nz+1) along axis 1 after that
    np.fft.rfft(rho.values * spec.cell_volume, 2 * nz, axis=2, out=mf[:nx, :ny])
    mf[:nx, ny:] = 0
    np.fft.fft(mf[:nx], axis=1, out=mf[:nx])
    mf[nx:] = 0
    np.fft.fft(mf, axis=0, out=mf)
    values = np.empty(spec.dims + (3,))
    for c, kf in enumerate(kfft):
        # inverse, in place in prod: crop after each axis, so later axes
        # transform only the lines that survive into the physical box
        np.multiply(mf, kf, out=prod)
        np.fft.ifft(prod, axis=0, out=prod)
        np.fft.ifft(prod[:nx], axis=1, out=prod[:nx])
        values[..., c] = np.fft.irfft(prod[:nx, :ny], 2 * nz, axis=2)[..., :nz]
    values *= rho.epsilon_sign
    return GridField(spec, values)


_WORKSPACES = threading.local()


def _workspace(dims):
    """This thread's two complex doubled-domain spectra (mf, prod) for a
    grid of ``dims``, kept between solves so that each solve writes into
    pages already mapped instead of faulting in fresh ones."""
    by_dims = getattr(_WORKSPACES, "by_dims", None)
    if by_dims is None:
        by_dims = _WORKSPACES.by_dims = {}
    buffers = by_dims.get(dims)
    if buffers is None:
        nx, ny, nz = dims
        shape = (2 * nx, 2 * ny, nz + 1)
        buffers = by_dims[dims] = (np.empty(shape, complex), np.empty(shape, complex))
    return buffers


def _support_touches_boundary(values):
    return bool(
        values[0].any() or values[-1].any()
        or values[:, 0].any() or values[:, -1].any()
        or values[:, :, 0].any() or values[:, :, -1].any()
    )


def field_l2_diff(f1: GridField, f2: GridField) -> float:
    """L2 norm over the box of the field difference, (sum |d|^2 h^3)^{1/2},
    the squares summed by transport.ordered_sum in C order."""
    if f1.spec != f2.spec:
        raise ValueError("field grids have different geometry")
    d = f1.values - f2.values
    return math.sqrt(ordered_sum(np.square(d, out=d)) * f1.spec.cell_volume)


# --------------------------------------------------------------------------
# log-Lipschitz modulus


def loglip_modulus(
    evaluate,
    region_lo,
    region_hi,
    s_min,
    s_max=0.5,
    n_separations=16,
    pairs_per_separation=32,
    seed=0,
):
    """Empirical sup of |F(x)-F(y)| / (|x-y| log(1/|x-y|)) over sampled pairs.

    Separations are log-spaced in [s_min, s_max] (s_max <= 1/2 so the log
    factor stays positive); base points are seeded uniform draws inside the
    region, shrunk so both ends of each pair stay inside.
    """
    region_lo = np.asarray(region_lo, dtype=np.float64)
    region_hi = np.asarray(region_hi, dtype=np.float64)
    if not 0 < s_min < s_max <= 0.5:
        raise ValueError("need 0 < s_min < s_max <= 1/2")
    if np.any(region_hi - region_lo <= 2 * s_max):
        raise ValueError("region too small for the requested separations")
    rng = np.random.default_rng(seed)
    seps = np.geomspace(s_min, s_max, n_separations)
    best = -1.0
    for s in seps:
        x = rng.uniform(region_lo + s_max, region_hi - s_max, size=(pairs_per_separation, 3))
        d = rng.normal(size=(pairs_per_separation, 3))
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


def save_grid(obj, basepath):
    """Write <basepath>.bin (little-endian float64, C order) and <basepath>.json."""
    basepath = str(basepath)
    if isinstance(obj, GridDensity):
        kind, comps, extra = "density", 1, {"epsilon_sign": obj.epsilon_sign}
    elif isinstance(obj, GridField):
        kind, comps, extra = "field", 3, {}
    else:
        raise TypeError("save_grid expects GridDensity or GridField")
    sidecar = {
        "kind": kind,
        "dims": list(obj.spec.dims),
        "box_center": list(obj.spec.center),
        "box_edge": list(obj.spec.edge),
        "h": obj.spec.h.tolist(),
        "components": comps,
        **extra,
    }
    obj.values.astype("<f8").tofile(basepath + ".bin")
    with open(basepath + ".json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=1)
        fh.write("\n")
