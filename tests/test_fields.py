"""Tests for field solvers, deposition geometry and the log-Lipschitz probe.

Oracles used here: the closed-form point-mass kernel, a Gauss-Legendre
quadrature of the kernel over a uniform ball (checked against the enclosed
mass formula |F| = r / (4 pi) for a unit-mass unit ball), and the direct
pairwise sum as ground truth for the grid solver.
"""

import itertools
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from vptwin import fields
from vptwin.errors import OutOfDomainError, SingularityError
from vptwin.fields import (
    FOUR_PI,
    GridDensity,
    GridField,
    GridSpec,
    TruncationWarning,
    deposit_cic,
    field_l2_diff,
    loglip_modulus,
    solve_field_direct,
    solve_field_grid,
)

from oracles import grid_points, loop_sum

RNG_SEED = 424242


def kernel_oracle(source, weight, target):
    """Single-source field from the closed-form kernel."""
    d = np.asarray(target, dtype=float) - np.asarray(source, dtype=float)
    r = np.linalg.norm(d)
    return weight * d / (FOUR_PI * r**3)


def ball_field_quadrature(r_target, n_quad=96):
    """Field magnitude at radius r inside a unit-mass uniform unit ball.

    Gauss-Legendre in radius and polar angle, analytic in azimuth, for the
    z-component of the kernel integral with the target at (0, 0, r). The
    integrable 1/|x-y|^2 singularity keeps plain quadrature a few-digit
    oracle, which is enough to confirm the enclosed-mass formula r/(4 pi)
    independently.
    """
    rho = 3.0 / FOUR_PI
    u, wu = np.polynomial.legendre.leggauss(n_quad)
    mu, wmu = np.polynomial.legendre.leggauss(n_quad)  # cos(theta) in [-1, 1]
    total = 0.0
    # the integrand is singular on the shell s = r_target; splitting the
    # radial interval there keeps Gauss-Legendre accurate
    for a, b in ((0.0, r_target), (r_target, 1.0)):
        s = 0.5 * (b - a) * (u + 1.0) + a
        ws = 0.5 * (b - a) * wu
        S, M = np.meshgrid(s, mu, indexing="ij")
        WS, WM = np.meshgrid(ws, wmu, indexing="ij")
        # source at radius S, polar cosine M; target on the z axis.
        # azimuthal integral of the kernel z-component is 2 pi by symmetry.
        dz = r_target - S * M
        d2 = S**2 + r_target**2 - 2.0 * S * M * r_target
        integrand = rho * S**2 * dz / (FOUR_PI * np.maximum(d2, 1e-300) ** 1.5)
        total += float(2.0 * np.pi * np.sum(WS * WM * integrand))
    return total


def direct_sum_loop(points, weights, targets, softening):
    """solve_field_direct in its documented order, one target at a time:
    r^2 = (dx dx + dz dz) + dy dy + s^2, then each component summed from
    +0.0 over the sources in source order."""
    out = np.empty((len(targets), 3))
    for i, t in enumerate(targets):
        d = t - points
        r2 = (d[:, 0] * d[:, 0] + d[:, 2] * d[:, 2]) + d[:, 1] * d[:, 1] + softening**2
        inv = weights / (FOUR_PI * r2 * np.sqrt(r2))
        for k in range(3):
            acc = 0.0
            for term in (inv * d[:, k]).tolist():
                acc += term
            out[i, k] = acc
    return out


def ball_lattice(spacing, radius=1.0):
    """Lattice sample of the uniform unit-mass ball (cell-volume weights)."""
    ax = np.arange(-radius + spacing / 2, radius, spacing)
    g = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.stack([c.ravel() for c in g], axis=1)
    inside = np.einsum("ij,ij->i", pts, pts) <= radius**2
    pts = pts[inside]
    w = np.full(len(pts), 3.0 / FOUR_PI * spacing**3)
    w *= 1.0 / w.sum()  # renormalize lattice staircase to unit mass
    return pts, w


def cic_corner_weights(frac):
    """The 8 (cx, cy, cz) CIC corners, x-major, with their per-axis weights."""
    for cx, cy, cz in itertools.product((0, 1), repeat=3):
        yield (cx, cy, cz), [frac[:, a] if c else 1.0 - frac[:, a]
                             for a, c in enumerate((cx, cy, cz))]


def deposit_scatter_reference(points, weights, spec):
    """CIC deposit as one scatter-add (np.add.at) per corner, x-major."""
    idx, frac, _ = fields._cic_coords(points, spec)
    values = np.zeros(spec.dims)
    for (cx, cy, cz), (wx, wy, wz) in cic_corner_weights(frac):
        cell = (idx[:, 0] + cx, idx[:, 1] + cy, idx[:, 2] + cz)
        np.add.at(values, cell, weights * wx * wy * wz)
    return values / spec.cell_volume


def interpolate_fancy_reference(field, points):
    """Trilinear interpolation gathering through three index arrays."""
    idx, frac, _ = fields._cic_coords(points, field.spec)
    out = np.zeros((points.shape[0], 3))
    for (cx, cy, cz), (wx, wy, wz) in cic_corner_weights(frac):
        cell = (idx[:, 0] + cx, idx[:, 1] + cy, idx[:, 2] + cz)
        out += (wx * wy * wz)[:, None] * field.values[cell]
    return out


def solve_auto(rho):
    """solve_field_grid at the run plan's "auto" softening, half a cell."""
    return solve_field_grid(rho, 0.5 * rho.spec.h)


def reordering_probe(n=3001):
    """An odd cube with a non-dyadic cell size (9 cells of 0.3) and a point
    set that exposes summation-order changes: non-dyadic random weights,
    points exactly on cell centers and points on the last cell-center
    plane of each axis."""
    rng = np.random.default_rng(RNG_SEED)
    spec = GridSpec(2.7, 9)
    first, last = spec.lo + 0.5 * spec.h, spec.hi - 0.5 * spec.h
    pts = rng.uniform(first, last, size=(n, 3))
    on_center = rng.integers(0, spec.dims, size=(200, 3))
    pts[:200] = spec.lo + (on_center + 0.5) * spec.h
    for a in range(3):
        pts[200 + 100 * a : 300 + 100 * a, a] = last[a]
    w = rng.random(n) / n
    return spec, pts, w


class TestDirectSum:
    def test_point_mass_kernel(self):
        src = np.array([[0.3, -0.2, 0.1]])
        w = np.array([0.7])
        targets = src[0] + np.array(
            [[1, 0, 0], [-2, 0, 0], [0, 0.5, 0], [0, -1, 0], [0, 0, 3], [0, 0, -0.25]],
            dtype=float,
        )
        got = solve_field_direct(src, w, targets)
        want = np.array([kernel_oracle(src[0], w[0], t) for t in targets])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_linearity_in_weights(self):
        rng = np.random.default_rng(RNG_SEED)
        src = rng.normal(size=(20, 3))
        w = rng.random(20) + 0.1
        t = np.array([[3.0, 1.0, -2.0]])
        f1 = solve_field_direct(src, w, t)
        f2 = solve_field_direct(src, 2.0 * w, t)
        np.testing.assert_allclose(f2, 2.0 * f1, rtol=1e-14)

    def test_superposition(self):
        rng = np.random.default_rng(RNG_SEED)
        src = rng.normal(size=(10, 3))
        w = rng.random(10) + 0.1
        t = np.array([[2.5, -1.0, 0.5]])
        whole = solve_field_direct(src, w, t)
        parts = solve_field_direct(src[:4], w[:4], t) + solve_field_direct(
            src[4:], w[4:], t
        )
        np.testing.assert_allclose(whole, parts, rtol=1e-13)

    def test_translation_equivariance(self):
        rng = np.random.default_rng(RNG_SEED)
        src = rng.normal(size=(15, 3))
        w = rng.random(15) + 0.1
        t = rng.normal(size=(4, 3)) + 5.0
        v = np.array([1.3, -0.7, 2.1])
        f0 = solve_field_direct(src, w, t)
        f1 = solve_field_direct(src + v, w, t + v)
        np.testing.assert_allclose(f1, f0, rtol=1e-12, atol=1e-15)

    def test_singularity_raises_without_softening(self):
        src = np.array([[1.0, 2.0, 3.0]])
        with pytest.raises(SingularityError):
            solve_field_direct(src, [1.0], src)

    def test_softened_self_field_is_zero(self):
        src = np.array([[1.0, 2.0, 3.0]])
        got = solve_field_direct(src, [1.0], src, softening=0.1)
        np.testing.assert_array_equal(got, np.zeros((1, 3)))

    def test_softening_reduces_magnitude(self):
        src = np.zeros((1, 3))
        t = np.array([[0.5, 0, 0]])
        hard = solve_field_direct(src, [1.0], t)
        soft = solve_field_direct(src, [1.0], t, softening=0.3)
        assert np.linalg.norm(soft) < np.linalg.norm(hard)

    @pytest.mark.parametrize("n_sources", [3, 300])
    @pytest.mark.parametrize("pairs", [1, 7, 1 << 15, 1 << 22])
    def test_blocking_leaves_bits_unchanged(self, monkeypatch, n_sources, pairs):
        rng = np.random.default_rng(RNG_SEED)
        src = rng.normal(size=(n_sources, 3))
        w = rng.random(n_sources) / 7.0
        t = rng.normal(size=(401, 3))
        want = solve_field_direct(src, w, t, softening=0.05)
        monkeypatch.setattr(fields, "DIRECT_PAIRS", pairs)
        got = solve_field_direct(src, w, t, softening=0.05)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_sources", [1, 3, 300])
    @pytest.mark.parametrize("pairs", [1, 7, 1 << 15])
    def test_matches_sequential_loop(self, monkeypatch, n_sources, pairs):
        # pairs = 1 makes every block one target, pairs = 7 leaves a
        # one-target last block for 3 sources and blocks of one for 300
        rng = np.random.default_rng(RNG_SEED)
        src = rng.normal(size=(n_sources, 3))
        src[:, 0] = 0.0
        t = np.vstack([rng.normal(size=(6, 3)), src[:4]])  # self-field rows last
        # x-differences -0.0 - 0.0: every x term is -0.0, and the sum is +0.0
        t[:2, 0] = -0.0
        t[2, 1] = -0.0
        w = rng.random(n_sources) / 3.0
        monkeypatch.setattr(fields, "DIRECT_PAIRS", pairs)
        got = solve_field_direct(src, w, t, softening=0.05)
        want = direct_sum_loop(src, w, t, 0.05)
        assert got.tobytes() == want.tobytes()
        assert not np.any(np.signbit(got[:2, 0]))  # +0.0, not -0.0

    @pytest.mark.parametrize("pairs", [7, 1 << 15])
    def test_singularity_in_last_block_raises(self, monkeypatch, pairs):
        rng = np.random.default_rng(RNG_SEED)
        src = rng.normal(size=(5, 3))
        t = np.vstack([rng.normal(size=(10, 3)) + 9.0, src[2:3]])
        monkeypatch.setattr(fields, "DIRECT_PAIRS", pairs)
        with pytest.raises(SingularityError):
            solve_field_direct(src, np.ones(5), t)


class TestBallInterior:
    def test_quadrature_confirms_enclosed_mass_formula(self):
        for r in (0.2, 0.5, 0.8):
            assert ball_field_quadrature(r) == pytest.approx(r / FOUR_PI, rel=5e-3)

    def test_lattice_ball_matches_quadrature(self):
        pts, w = ball_lattice(0.05)
        targets = np.array([[0.2, 0, 0], [0, 0.5, 0], [0, 0, 0.8]])
        got = solve_field_direct(pts, w, targets)
        for t, f in zip(targets, got):
            r = np.linalg.norm(t)
            radial = float(f @ (t / r))  # grad Psi of Delta Psi = rho points outward
            assert radial == pytest.approx(ball_field_quadrature(r), rel=0.02)
            # transverse component vanishes by symmetry
            assert np.linalg.norm(f - radial * t / r) <= 0.02 * abs(radial)


class TestDeposit:
    def test_point_at_cell_center(self):
        spec = GridSpec(4.0, 8)
        p = spec.lo + (np.array([3, 4, 5]) + 0.5) * spec.h
        vals = deposit_cic(p[None, :], [1.0], spec)
        assert vals[3, 4, 5] == pytest.approx(1.0 / spec.cell_volume, rel=1e-12)
        assert np.count_nonzero(vals) == 1

    def test_mass_conservation(self):
        rng = np.random.default_rng(RNG_SEED)
        spec = GridSpec(6.0, 12)
        pts = rng.uniform(-2, 2, size=(500, 3))
        w = rng.random(500) + 0.1
        vals = deposit_cic(pts, w, spec)
        assert vals.sum() * spec.cell_volume == pytest.approx(w.sum(), rel=1e-12)

    def test_uniform_subbox_mean_density(self):
        rng = np.random.default_rng(RNG_SEED)
        spec = GridSpec(8.0, 16)
        n = 1_000_000
        pts = rng.uniform(-2, 2, size=(n, 3))
        w = np.full(n, 1.0 / n)
        vals = deposit_cic(pts, w, spec)
        # interior of the filled sub-box [-2,2]^3: expect 1/64 per volume
        interior = vals[7:9, 7:9, 7:9]
        np.testing.assert_allclose(interior, 1.0 / 64.0, rtol=0.05)

    def test_escape_reports_indices(self):
        # the last row is on the box face, half a cell outside the lattice
        # of cell centers that CIC needs
        spec = GridSpec(2.0, 4)
        pts = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [0.0, -9.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(fields.EscapeError) as exc:
            deposit_cic(pts, np.ones(4), spec)
        assert exc.value.indices == [1, 2, 3]

    def test_far_escape_warns_nothing(self):
        # the lattice coordinate of a point at 1e300 is far past int64
        spec = GridSpec(2.0, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fields.EscapeError) as exc:
                deposit_cic(np.array([[0.0, 0.0, 0.0], [1e300, 0.0, 0.0]]), np.ones(2), spec)
        assert exc.value.indices == [1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_is_outside(self, bad):
        # every comparison with nan is false, so a nan row must be refused
        # by what it fails to satisfy, not by what it exceeds
        spec = GridSpec(2.0, 4)
        pts = np.array([[0.0, 0.0, 0.0], [0.0, bad, 0.0]])
        field = GridField(spec, np.zeros(spec.dims + (3,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fields.EscapeError) as dep:
                deposit_cic(pts, np.ones(2), spec)
            with pytest.raises(OutOfDomainError) as interp:
                field.interpolate(pts)
        assert dep.value.indices == [1]
        assert len(interp.value.points) == 1

    def test_deposit_and_interpolate_refuse_the_same_rows(self):
        # row 7 moves one cell and stays on the lattice of cell centers;
        # row 40 moves onto the box face, half a cell outside it
        spec, pts, w = reordering_probe()
        pts[[7, 40]] += spec.h
        pts[40, 1] = spec.lo[1]
        field = GridField(spec, np.zeros(spec.dims + (3,)))
        with pytest.raises(fields.EscapeError) as dep:
            deposit_cic(pts, w, spec)
        with pytest.raises(OutOfDomainError) as interp:
            field.interpolate(pts)
        assert dep.value.indices == [40]
        assert interp.value.points == pts[[40]].tolist()

    def test_bitwise_equals_one_scatter_add_per_corner(self):
        # non-dyadic weights round differently under any other summation
        # order or weight grouping, and a wrong flat stride moves mass
        spec, pts, w = reordering_probe()
        got = deposit_cic(pts, w, spec)
        assert np.array_equal(got, deposit_scatter_reference(pts, w, spec))

    def test_scratch_per_particle(self):
        # the 8 corners' cells and shares (128 B) and the cell coordinates
        # they are built from: harness._particle_memory counts 224 B
        spec = GridSpec(10.0, 16)
        n = 50_000
        pts = np.random.default_rng(RNG_SEED).uniform(-4, 4, size=(n, 3))
        w = np.full(n, 1.0 / n)
        deposit_cic(pts, w, spec)
        tracemalloc.start()
        try:
            vals = deposit_cic(pts, w, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - vals.nbytes <= 224 * n


class TestGridSolver:
    def test_zero_density_zero_field(self):
        spec = GridSpec(4.0, 16)
        f = solve_auto(GridDensity(spec, np.zeros(spec.dims)))
        np.testing.assert_array_equal(f.values, 0.0)

    def test_matches_direct_sum_at_cell_centers(self):
        # same kernel, same softening: the FFT convolution is exact at
        # cell centers up to roundoff
        rng = np.random.default_rng(RNG_SEED)
        spec = GridSpec(6.0, 12)
        pts = rng.uniform(-1.5, 1.5, size=(300, 3))
        w = rng.random(300) + 0.1
        rho = GridDensity(spec, deposit_cic(pts, w, spec))
        soft = 0.5 * spec.h
        grid_f = solve_field_grid(rho, soft)
        centers = grid_points(spec).reshape(-1, 3)
        mass = (rho.values * spec.cell_volume).reshape(-1)
        keep = mass > 0
        direct = solve_field_direct(centers[keep], mass[keep], centers, softening=soft)
        scale = np.abs(direct).max()
        np.testing.assert_allclose(grid_f.values.reshape(-1, 3), direct, atol=1e-12 * scale)

    def test_ball_interior_against_analytic(self):
        spec = GridSpec(6.0, 64)
        pts, w = ball_lattice(0.04)
        rho = GridDensity(spec, deposit_cic(pts, w, spec))
        f = solve_auto(rho)
        targets = np.array([[0.35, 0, 0], [0, -0.6, 0], [0, 0, 0.5]])
        got = f.interpolate(targets)
        for t, g in zip(targets, got):
            r = np.linalg.norm(t)
            radial = float(g @ (t / r))
            assert radial == pytest.approx(r / FOUR_PI, rel=0.03)

    def test_refinement_convergence(self):
        # with the softening held fixed across meshes, the deposited and
        # interpolated grid field converges to the direct particle sum
        rng = np.random.default_rng(RNG_SEED)
        n = 20000
        pts = rng.normal(scale=0.5, size=(n, 3))
        w = np.full(n, 1.0 / n)
        targets = rng.uniform(-0.8, 0.8, size=(40, 3))
        soft = 0.3
        errs = []
        for dims in (16, 32, 64):
            spec = GridSpec(8.0, dims)
            rho = GridDensity(spec, deposit_cic(pts, w, spec))
            got = solve_field_grid(rho, soft).interpolate(targets)
            want = solve_field_direct(pts, w, targets, softening=soft)
            errs.append(np.abs(got - want).max() / np.abs(want).max())
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 0.02

    # odd and even n, non-dyadic cell sizes 0.3, 7/12 and 6/33
    @pytest.mark.parametrize("edge, n", [(2.7, 9), (7.0, 12), (6.0, 33)])
    @pytest.mark.parametrize("half_cells", [0.0, 0.5])
    def test_pruned_solve_bitwise_equals_full_domain_transform(self, edge, n, half_cells):
        rng = np.random.default_rng(RNG_SEED)
        spec = GridSpec(edge, n)
        soft = half_cells * spec.h
        vals = np.zeros(spec.dims)
        vals[1:-1, 1:-1, 1:-1] = rng.random((n - 2,) * 3)
        rho = GridDensity(spec, vals)
        before = rho.values.copy()
        got = solve_field_grid(rho, soft).values
        np.testing.assert_array_equal(rho.values, before)

        # reference: the full doubled-domain transforms, as numpy walks them
        mass = vals * spec.cell_volume
        pad = (2 * n,) * 3
        mf = np.fft.rfftn(mass, s=pad, axes=(0, 1, 2))
        comps = [
            np.fft.irfftn(mf * kf, s=pad, axes=(0, 1, 2))[:n, :n, :n]
            for kf in fields._kernel_fft(spec, soft)
        ]
        want = np.stack(comps, axis=-1)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("softening", [0.0, 0.15625, 0.3])
    def test_kernel_spectra_bitwise_equal_full_array_formula(self, softening):
        # softening 0 leaves denom = 0 where every offset is 0 (the origin
        # and the zeroed +-n offsets), and the kernel is 0 there
        spec = GridSpec(5.0, 32)
        fields._KERNEL_CACHE.clear()
        got = fields._kernel_fft(spec, softening)
        fields._KERNEL_CACHE.clear()

        # reference: all three real kernels built at once as full arrays
        coords = []
        for a in range(3):
            k = np.arange(64)
            c = np.where(k <= 32, k, k - 64).astype(np.float64)
            c[32] = 0.0
            coords.append(c * spec.h)
        rx, ry, rz = np.meshgrid(*coords, indexing="ij", sparse=True)
        r2 = rx**2 + ry**2 + rz**2 + softening**2
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = fields.FOUR_PI * r2 * np.sqrt(r2)
            kern = [
                np.where(denom > 0, rc / denom, 0.0)
                for rc in (rx + 0 * r2, ry + 0 * r2, rz + 0 * r2)
            ]
        assert (denom == 0).sum() == (8 if softening == 0 else 0)
        for g, k in zip(got, kern):
            assert np.array_equal(g, np.fft.rfftn(k))

    def test_truncation_warning_on_boundary_support(self):
        spec = GridSpec(2.0, 8)
        vals = np.zeros(spec.dims)
        vals[0, 4, 4] = 1.0
        with pytest.warns(TruncationWarning):
            solve_auto(GridDensity(spec, vals))

    def test_interior_support_no_warning(self):
        import warnings

        spec = GridSpec(2.0, 8)
        vals = np.zeros(spec.dims)
        vals[4, 4, 4] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            solve_auto(GridDensity(spec, vals))


def interior_density(spec, seed):
    rng = np.random.default_rng(seed)
    vals = np.zeros(spec.dims)
    vals[1:-1, 1:-1, 1:-1] = rng.random(tuple(n - 2 for n in spec.dims))
    return GridDensity(spec, vals)


class TestSolveWorkspace:
    """solve_field_grid reuses one set of transform buffers per thread and
    grid shape; no result may depend on, or share memory with, them."""

    CUBE = GridSpec(4.0, 32)
    ODD = GridSpec(2.7, 9)  # odd n, non-dyadic h

    def test_warm_solve_allocates_only_the_mass_and_the_field(self):
        # every transform writes into the workspace: a warm 32^3 solve
        # allocates the scaled mass and the field, 32 n^3 B (1 MiB) at most.
        # An irfft output of its own (0.5 MiB) on top of the field, or a
        # copy of one doubled-domain spectrum (2.16 MB), exceeds the limit
        rho = interior_density(self.CUBE, 7)
        solve_auto(rho)
        tracemalloc.start()
        try:
            solve_auto(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 32**3

    def test_field_survives_later_solves(self):
        first = solve_auto(interior_density(self.CUBE, 1))
        kept = first.values.copy()
        solve_auto(interior_density(self.CUBE, 2))
        assert np.array_equal(first.values, kept)
        for buf in fields._workspace(self.CUBE.n):
            assert not np.shares_memory(first.values, buf)

    def test_interleaved_grids_repeat_first_call_bits(self):
        rho_c, rho_o = interior_density(self.CUBE, 3), interior_density(self.ODD, 4)
        want_c = solve_auto(rho_c).values.copy()
        want_o = solve_auto(rho_o).values.copy()
        for _ in range(2):
            assert np.array_equal(solve_auto(rho_c).values, want_c)
            assert np.array_equal(solve_auto(rho_o).values, want_o)

    def test_concurrent_threads_equal_sequential_bits(self):
        rhos = [interior_density(self.CUBE, 5), interior_density(self.CUBE, 6)]
        want = [solve_auto(rho).values for rho in rhos]
        got = [[], []]
        start = threading.Barrier(2)

        def solve(k):
            start.wait(timeout=60)
            for _ in range(3):
                got[k].append(solve_auto(rhos[k]).values)

        # two threads only: each gets its own workspace
        threads = [threading.Thread(target=solve, args=(k,)) for k in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
        for k in (0, 1):
            assert len(got[k]) == 3
            assert all(np.array_equal(v, want[k]) for v in got[k])

    def test_concurrent_first_requests_build_one_kernel(self, monkeypatch):
        # both branches of a twin ask for the same kernel on their first
        # solve; a thread that asks during a build waits for it. More
        # threads than cores, each asking for three new kernels in its own
        # order, with a short switch interval
        cache, builds = {}, []
        build = fields._build_kernel

        def slow_build(spec, softening):
            builds.append(softening)
            time.sleep(0.05)  # long enough for the other threads to ask
            return build(spec, softening)

        monkeypatch.setattr(fields, "_KERNEL_CACHE", cache)
        monkeypatch.setattr(fields, "_build_kernel", slow_build)
        lengths = [0.25, 0.5, 0.75]
        got = [None] * 4
        start = threading.Barrier(len(got))

        def ask(k):
            start.wait(timeout=60)
            order = lengths[k % 3 :] + lengths[: k % 3]
            got[k] = {s: fields._kernel_fft(self.ODD, s) for s in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(k,)) for k in range(len(got))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(builds) == lengths
        assert len(cache) == len(lengths)
        for s in lengths:
            assert len({id(g[s]) for g in got}) == 1

def signed_pair(spec, seed):
    """Two interior densities on ``spec`` with different supports."""
    return interior_density(spec, seed), interior_density(spec, seed + 1)


class TestSignedSolve:
    """solve_field_grid of a DensityDifference: the field of rho1 - rho2
    from one solve, which the twin ledger's Prop. 3.1 left side reads."""

    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("softening", ["auto", 0.3])
    def test_equals_difference_of_two_solves(self, n, softening):
        # the solve is linear; the two routes differ in rounding only
        spec = GridSpec(5.0, n)
        if softening == "auto":
            softening = 0.5 * spec.h
        rho1, rho2 = signed_pair(spec, n)
        got = solve_field_grid(fields.DensityDifference(rho1, rho2), softening)
        want = solve_field_grid(rho1, softening).values - solve_field_grid(rho2, softening).values
        assert got.spec == spec
        scale = np.sqrt(np.sum(want**2))
        assert scale > 0
        assert np.sqrt(np.sum((got.values - want) ** 2)) <= 1e-12 * scale

    def test_sign_follows_the_order_of_the_densities(self):
        spec = GridSpec(4.0, 12)
        rho1, rho2 = signed_pair(spec, 3)
        ab = solve_auto(fields.DensityDifference(rho1, rho2)).values
        ba = solve_auto(fields.DensityDifference(rho2, rho1)).values
        assert np.array_equal(ab, -ba)


class TestSignedSolveTruncation:
    """The difference's solve warns where either density touches the outer
    cell layer, even where the two cancel there."""

    SPEC = GridSpec(2.0, 8)

    def density(self, *cells):
        vals = np.zeros(self.SPEC.dims)
        vals[4, 4, 4] = 1.0
        for cell in cells:
            vals[cell] = 0.5
        return GridDensity(self.SPEC, vals)

    def solve(self, rho1, rho2):
        return solve_auto(fields.DensityDifference(rho1, rho2))

    def test_warns_when_only_rho2_touches(self):
        with pytest.warns(TruncationWarning):
            self.solve(self.density(), self.density((7, 3, 2)))
        with pytest.warns(TruncationWarning):
            self.solve(self.density((2, 3, 0)), self.density())

    def test_warns_when_the_boundary_cells_cancel(self):
        rho1 = self.density((0, 4, 4))
        rho2 = GridDensity(self.SPEC, rho1.values.copy())
        rho2.values[3, 3, 3] = 2.0
        diff = fields.DensityDifference(rho1, rho2)
        assert not np.any(diff.values[0])
        with pytest.warns(TruncationWarning):
            solve_auto(diff)

    def test_interior_pair_no_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            self.solve(self.density(), self.density((3, 5, 2)))


class TestFieldL2:
    """field_l2_diff, the norm of one difference field."""

    def test_known_constant_field(self):
        spec = GridSpec(4.0, 8)
        vals = np.zeros(spec.dims + (3,))
        vals[..., 0] = 2.0
        # |d| = 2 everywhere over volume 64: sqrt(4 * 64) = 16
        assert field_l2_diff(GridField(spec, vals)) == pytest.approx(16.0, rel=1e-12)

    def test_summed_in_c_order(self):
        # the squares add left to right in C order (cells x-major, then
        # the three components)
        spec = GridSpec(10.0, 8)
        rng = np.random.default_rng(0)
        d = rng.standard_normal(spec.dims + (3,)) * np.exp(
            6.0 * rng.standard_normal(spec.dims + (3,)))
        want = math.sqrt(loop_sum(d * d) * spec.cell_volume)
        assert field_l2_diff(GridField(spec, d)) == want
        assert field_l2_diff(GridField(spec, -d)) == want

    def test_leaves_the_field_alone(self):
        spec = GridSpec(4.0, 8)
        f = GridField(spec, np.random.default_rng(RNG_SEED).normal(size=spec.dims + (3,)))
        kept = f.values.copy()
        field_l2_diff(f)
        assert np.array_equal(f.values, kept)

    def test_no_per_element_list(self):
        # a float list of the terms alone takes 4x the field's bytes (an
        # 8-byte pointer and a 24-byte float per element)
        spec = GridSpec(8.0, 32)
        f = GridField(spec, np.random.default_rng(RNG_SEED).normal(size=spec.dims + (3,)))
        tracemalloc.start()
        try:
            assert field_l2_diff(f) > 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * f.values.nbytes


class TestInterpolation:
    def test_exact_at_cell_centers(self):
        rng = np.random.default_rng(RNG_SEED)
        spec = GridSpec(4.0, 8)
        f = GridField(spec, rng.normal(size=spec.dims + (3,)))
        centers = grid_points(spec).reshape(-1, 3)
        np.testing.assert_allclose(
            f.interpolate(centers), f.values.reshape(-1, 3), rtol=1e-13
        )

    def test_linear_field_reproduced(self):
        # trilinear interpolation is exact for affine fields
        spec = GridSpec(4.0, 8)
        centers = grid_points(spec)
        vals = np.stack(
            [2.0 * centers[..., 0] - 1.0, centers[..., 1], -centers[..., 2]], axis=-1
        )
        f = GridField(spec, vals)
        rng = np.random.default_rng(RNG_SEED)
        pts = rng.uniform(-1.5, 1.5, size=(50, 3))
        want = np.stack([2.0 * pts[:, 0] - 1.0, pts[:, 1], -pts[:, 2]], axis=-1)
        np.testing.assert_allclose(f.interpolate(pts), want, atol=1e-12)

    def test_outside_hull_raises(self):
        spec = GridSpec(4.0, 8)
        f = GridField(spec, np.zeros(spec.dims + (3,)))
        with pytest.raises(OutOfDomainError):
            f.interpolate([[2.1, 0.0, 0.0]])

    def test_bitwise_equals_fancy_index_reference(self):
        spec, pts, _ = reordering_probe()
        rng = np.random.default_rng(RNG_SEED + 1)
        f = GridField(spec, rng.normal(size=spec.dims + (3,)))
        assert np.array_equal(f.interpolate(pts), interpolate_fancy_reference(f, pts))


class TestLoglip:
    def test_zero_field(self):
        const = loglip_modulus(
            lambda x: np.zeros_like(x), [-1, -1, -1], [3, 3, 3], s_min=1e-3, seed=0
        )
        assert const == 0.0

    def test_linear_field_exact_value(self):
        # |F(x)-F(y)| = |x-y| for the identity field, so the ratio is
        # 1/log(1/s), maximized at the largest separation
        const = loglip_modulus(lambda x: x, [-2, -2, -2], [2, 2, 2], s_min=1e-3, seed=0)
        assert const == pytest.approx(1.0 / np.log(2.0), rel=1e-12)

    def test_stable_under_more_samples(self, monkeypatch):
        def f(x):
            return np.sin(x) + 0.5 * x

        lo, hi = [-2, -2, -2], [2, 2, 2]
        monkeypatch.setattr(fields, "LOGLIP_PAIRS", 64)
        base = loglip_modulus(f, lo, hi, s_min=1e-3, seed=1)
        monkeypatch.setattr(fields, "LOGLIP_PAIRS", 256)
        dense = loglip_modulus(f, lo, hi, s_min=1e-3, seed=2)
        assert dense == pytest.approx(base, rel=0.2)

    def test_rejects_bad_separation_range(self):
        with pytest.raises(ValueError):
            loglip_modulus(lambda x: x, [-1, -1, -1], [1, 1, 1], s_min=0.6, seed=0)


class TestGridSpecValidation:
    def test_cube_of_one_cell_size(self):
        spec = GridSpec(2.7, 9)
        assert (spec.edge, spec.n, spec.dims) == (2.7, 9, (9, 9, 9))
        assert spec.h == 2.7 / 9
        np.testing.assert_array_equal(spec.lo, [-1.35, -1.35, -1.35])
        # h * h * h: the bits of the product over three equal cell sizes
        assert spec.cell_volume == float(np.prod(np.full(3, spec.h)))
        np.testing.assert_array_equal(spec.hi - spec.lo, [2.7, 2.7, 2.7])

    @pytest.mark.parametrize(
        "edge, n",
        [((4.0, 4.0, 4.0), 8), ((4.0, 2.0, 3.0), 8), (4.0, (8, 8, 8)), (4.0, (5, 7, 9)),
         ((4.0,), 8)],
    )
    def test_per_axis_edge_or_n_refused(self, edge, n):
        with pytest.raises(ValueError, match="n\\^3 cube"):
            GridSpec(edge, n)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(4.0, 1)
        with pytest.raises(ValueError):
            GridSpec(-4.0, 8)

    def test_density_negative_rejected(self):
        spec = GridSpec(4.0, 4)
        vals = np.zeros(spec.dims)
        vals[0, 0, 0] = -1e-12
        with pytest.raises(ValueError):
            GridDensity(spec, vals)
