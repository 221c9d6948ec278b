"""Acceptance suite: one test per top-level criterion, each printing a
single PASS/FAIL line (run with -s to see them).

The criteria re-verify, at the integration level, properties whose unit
oracles live in the per-module test files: brute-force OT minima, the
field-stability ratio across the bundled scenario suite, the geodesic
sup-norm bound, the feasible-plan inequalities, the differential
inequality with its Osgood envelope, the vanishing-perturbation witness,
field and dynamics ground truths, and byte-level determinism.
"""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from vptwin import fields, harness, presets, transport
from vptwin.certify import check_gronwall, osgood_contain, osgood_envelope
from vptwin.dynamics import (
    DirectSumEvaluator,
    FlowState,
    GridFieldEvaluator,
    ParticleEnsemble,
    step_leapfrog,
)
from vptwin.fields import FOUR_PI, GridDensity, GridSpec, deposit_cic
from vptwin.harness import run_twin_config
from vptwin.transport import TransportPlan, WeightedCloud, coupling_cost

from oracles import (
    FrozenFieldEvaluator,
    displacement_interpolate,
    geodesic_linf_check,
    grid_mass,
)

PRESET_NAMES = list(presets.PRESET_NAMES)


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


class TestAcceptance:
    def test_criterion_01_ot_oracle_equivalence(self):
        # the 10 s budget is the solver's: the brute-force oracle is not timed
        elapsed = 0.0
        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 9))
            w = np.full(n, 1.0 / n)
            a = WeightedCloud(rng.normal(size=(n, 3)), w)
            b = WeightedCloud(rng.normal(size=(n, 3)), w)
            t0 = time.perf_counter()
            d, _ = transport.w2_exact(a, b)
            elapsed += time.perf_counter() - t0
            best = min(
                float(
                    np.sum(w[:, None] * (a.points - b.points[list(p)]) ** 2)
                )
                for p in itertools.permutations(range(n))
            )
            worst = max(worst, abs(d - math.sqrt(best)))
        report(
            "1 (OT oracle equivalence)",
            worst <= 1e-12 and elapsed < 10.0,
            f"max |exact - brute force| = {worst:.2e}, {elapsed:.1f} s",
        )

    def test_criterion_02_prop31_suite(self, preset_twin):
        worst = 0.0
        n_rows = 0
        for name in PRESET_NAMES:
            for r in preset_twin(name).records:
                if r.prop31_rhs is None or r.field_l2_diff is None:
                    continue
                n_rows += 1
                if r.prop31_rhs > 0:
                    worst = max(worst, r.field_l2_diff / r.prop31_rhs)
                elif r.field_l2_diff > 1e-12:
                    worst = math.inf
        report(
            "2 (field stability ratio over bundled suite)",
            n_rows > 0 and worst <= 1.05,
            f"max ratio {worst:.4f} over {n_rows} checked steps in {len(PRESET_NAMES)} scenarios",
        )

    def test_criterion_03_geodesic_sup_norm(self):
        thetas = np.linspace(1.0, 2.0, 11)

        # block fixture: two disjoint uniform blocks translated onto each other
        spec = GridSpec(8.0, 64)
        h = spec.h
        ax = np.arange(-1.5 + h / 4, -0.5, h / 2)
        ay = np.arange(-1.0 + h / 4, 0.0, h / 2)
        g = np.meshgrid(ax, ay, ay, indexing="ij")
        pts = np.stack([c.ravel() for c in g], axis=1)
        block = WeightedCloud(pts, np.full(len(pts), 1.0 / len(pts)))

        # blob fixture: separated isotropic Gaussian samples
        rng = np.random.default_rng(3003)
        n = 16384
        blob = WeightedCloud(rng.normal(size=(n, 3)) - [1.0, 0, 0], np.full(n, 1.0 / n))

        ok = True
        details = []
        energy_rel = 0.0
        for name, cloud, shift, grid in (
            ("block", block, np.array([1.7, 0.9, 0.6]), spec),
            ("blob", blob, np.array([2.0, 0.0, 0.0]), GridSpec(16.0, 64)),
        ):
            # a translation is the optimal map, so the identity matching is
            # an optimal plan and W2^2 = M |shift|^2
            idx = np.arange(cloud.n)
            target = WeightedCloud(cloud.points + shift, cloud.weights)
            plan = TransportPlan(idx, idx, cloud.weights, cloud, target)
            rep = geodesic_linf_check(plan, thetas, grid)
            ok = ok and rep.status == "pass" and rep.ratio <= 1.10
            details.append(f"{name}: ratio {rep.ratio:.3f}")
            # kinetic energy sum m |p(theta + d) - p(theta)|^2 / d^2 of each
            # step between consecutive samples: constant in theta, equal W2^2
            w2_sq = cloud.total_mass * float(shift @ shift)
            path = [displacement_interpolate(plan, t).points for t in thetas]
            energy = [
                coupling_cost(plan.mass, p1 - p0) / (t1 - t0) ** 2
                for p0, p1, t0, t1 in zip(path, path[1:], thetas, thetas[1:])
            ]
            energy_rel = max(energy_rel, max(abs(e - w2_sq) for e in energy) / w2_sq)
        report(
            "3 (geodesic sup-norm bound)",
            ok and energy_rel <= 1e-12,
            ", ".join(details) + f"; kinetic energy vs W2^2 within {energy_rel:.1e}",
        )

    def test_criterion_04_feasible_plan_inequalities(self, preset_twin):
        worst = -math.inf
        n_rows = 0
        for name in PRESET_NAMES:
            for r in preset_twin(name).records:
                if r.W2_rho is None:
                    continue
                n_rows += 1
                q2 = 2.0 * r.Q_sub
                worst = max(worst, r.W2_rho**2 - q2, r.W2_phase**2 - q2)
        report(
            "4 (W2^2 <= 2Q at subsampled steps)",
            n_rows > 0 and worst <= 1e-9,
            f"max excess {worst:.2e} over {n_rows} rows",
        )

    def test_criterion_05_gronwall_and_envelope(self, preset_twin):
        details = []
        ok = True
        base_cfg = presets.bundled("gaussian-blob")
        for tag, records in (
            ("dt", preset_twin("gaussian-blob").records),
            ("dt/2", run_twin_config(replace(base_cfg, dt=base_cfg.dt / 2)).records),
        ):
            rep = check_gronwall(records)
            contain = osgood_contain(records, max(rep.C_final, 1e-12))
            ok = ok and all(rep.per_step_ok[1:]) and contain.passed
            details.append(
                f"{tag}: max excess {rep.max_excess:.2e} Q at {len(records) - 1} steps, "
                f"C = {rep.C_final:.3g}, contained {contain.n_contained}/{contain.n_checked}"
            )
        report("5 (differential inequality + envelope)", ok, "; ".join(details))

    def test_criterion_06_osgood_closed_form(self):
        def rk4(C, q0, t_final, n_steps):
            y = float(q0)
            h = t_final / n_steps
            f = lambda y: C * y * (1.0 + math.log(1.0 / y))
            for _ in range(n_steps):
                k1 = f(y)
                k2 = f(y + 0.5 * h * k1)
                k3 = f(y + 0.5 * h * k2)
                k4 = f(y + h * k3)
                y += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            return y

        worst = 0.0
        for C in (0.5, 1.0, 2.0):
            for q0 in (1e-8, 1e-4, 1e-1):
                for t in (0.5, 1.0, 2.5, 5.0):
                    y = osgood_envelope(C, q0, t)
                    y_rk = rk4(C, q0, t, 25000)
                    worst = max(worst, abs(y - y_rk) / y_rk)
        fixed_dev = max(
            abs(osgood_envelope(1.0, math.e, t) - math.e) / math.e
            for t in np.linspace(0, 5, 11)
        )
        report(
            "6 (Osgood closed form vs integrator)",
            worst <= 1e-6 and fixed_dev <= 1e-12,
            f"max rel gap {worst:.1e}, fixed-point deviation {fixed_dev:.1e}",
        )

    def test_criterion_07_vanishing_perturbation(self):
        deltas = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        base = replace(presets.bundled("gaussian-blob"), ot_stride=0)
        ok = True
        details = []
        for dt in (base.dt, base.dt / 2):
            sup_q = []
            for d in sorted(deltas):
                cfg = replace(base, dt=dt, twin_delta=d)
                sup_q.append(max(r.Q for r in run_twin_config(cfg).records))
            monotone = bool(np.all(np.diff(sup_q) > 0))
            ok = ok and monotone
            details.append(f"dt={dt:g}: sup Q {['%.2e' % q for q in sup_q]}")
        # free-streaming control against the closed form
        fs = presets.bundled("free-streaming")
        fs_records = run_twin_config(replace(fs, ot_stride=0)).records
        want = 0.5 * fs.twin_delta**2 * (1.0 + fs.t_final**2)
        fs_gap = abs(max(r.Q for r in fs_records) - want) / want
        ok = ok and fs_gap <= 1e-12
        report(
            "7 (vanishing perturbation witness)",
            ok,
            "; ".join(details) + f"; free-streaming control gap {fs_gap:.1e}",
        )

    def test_criterion_08_field_validation(self):
        # point-mass kernel at the six unit-axis targets, with either sign
        src = ParticleEnsemble(np.zeros((1, 3)), np.zeros((1, 3)), np.ones(1))
        targets = np.array(
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
            dtype=float,
        )
        kern_err = 0.0
        for eps in (1, -1):
            direct = DirectSumEvaluator(0.0, eps)
            direct.refresh(src)
            got = direct.accel(targets)
            want = eps * targets / FOUR_PI
            kern_err = max(kern_err, float(np.abs(got - want).max()))

        # uniform-ball interior profile on a 64^3 grid
        spacing = 0.04
        axp = np.arange(-1 + spacing / 2, 1, spacing)
        g = np.meshgrid(axp, axp, axp, indexing="ij")
        pts = np.stack([c.ravel() for c in g], axis=1)
        pts = pts[np.einsum("ij,ij->i", pts, pts) <= 1.0]
        w = np.full(len(pts), 1.0 / len(pts))
        spec = GridSpec(6.0, 64)
        rho = GridDensity(spec, deposit_cic(pts, w, spec))
        f = fields.solve_field_grid(rho, 0.5 * spec.h)
        ball_err = 0.0
        for t in ([0.35, 0, 0], [0, -0.6, 0], [0, 0, 0.5]):
            t = np.asarray(t)
            r = np.linalg.norm(t)
            radial = float(f.interpolate(t[None])[0] @ (t / r))
            ball_err = max(ball_err, abs(radial - r / FOUR_PI) / (r / FOUR_PI))

        # grid pipeline vs direct particle sum in relative L2 over targets
        rng = np.random.default_rng(8008)
        n = 20000
        gp = rng.normal(scale=0.6, size=(n, 3))
        gw = np.full(n, 1.0 / n)
        gspec = GridSpec(8.0, 64)
        soft = 0.3
        grho = GridDensity(gspec, deposit_cic(gp, gw, gspec))
        probes = rng.uniform(-1.0, 1.0, size=(200, 3))
        got = fields.solve_field_grid(grho, soft).interpolate(probes)
        want = fields.solve_field_direct(gp, gw, probes, softening=soft)
        l2_rel = float(np.linalg.norm(got - want) / np.linalg.norm(want))
        report(
            "8 (field solver validation)",
            kern_err <= 1e-12 and ball_err <= 0.03 and l2_rel <= 0.02,
            f"kernel err {kern_err:.1e}, ball profile err {100 * ball_err:.2f}%, "
            f"grid-vs-direct L2 {100 * l2_rel:.2f}%",
        )

    def test_criterion_09_dynamics_validation(self):
        # frozen-field reversibility
        rng = np.random.default_rng(9009)
        ens = ParticleEnsemble(
            rng.normal(scale=0.5, size=(64, 3)),
            rng.normal(scale=0.3, size=(64, 3)),
            np.full(64, 1.0 / 64),
        )
        x0, v0 = ens.x.copy(), ens.v.copy()
        fn = lambda p: np.stack(
            [-0.3 * p[:, 0], 0.1 * p[:, 1], -0.2 * p[:, 2]], axis=-1
        )
        flow = FlowState(ens, FrozenFieldEvaluator(fn), dt=0.01)
        for _ in range(100):
            step_leapfrog(flow)
        flow.dt = -flow.dt
        for _ in range(100):
            step_leapfrog(flow)
        rev_err = max(
            float(np.abs(flow.ensemble.x - x0).max()),
            float(np.abs(flow.ensemble.v - v0).max()),
        )

        # harmonic-oscillator period from successive downward zero crossings
        period = 2.0 * math.pi * math.sqrt(FOUR_PI)
        dt = period / 1000
        osc = ParticleEnsemble(
            np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 3)), np.ones(1)
        )
        oflow = FlowState(osc, FrozenFieldEvaluator(lambda p: -p / FOUR_PI), dt=dt)
        crossings = []
        prev_x, prev_t = osc.x[0, 0], 0.0
        while len(crossings) < 2 and oflow.ensemble.t < 2.0 * period:
            step_leapfrog(oflow)
            x, t = oflow.ensemble.x[0, 0], oflow.ensemble.t
            if prev_x > 0 >= x:
                crossings.append(prev_t + (t - prev_t) * prev_x / (prev_x - x))
            prev_x, prev_t = x, t
        period_err = abs((crossings[1] - crossings[0]) - period) / period

        # deposited mass conservation along a self-consistent run
        rng = np.random.default_rng(9010)
        blob = ParticleEnsemble(
            rng.normal(scale=0.6, size=(512, 3)),
            rng.normal(scale=0.3, size=(512, 3)),
            np.full(512, 1.0 / 512),
        )
        spec = GridSpec(12.0, 16)
        evaluator = GridFieldEvaluator(spec, 0.5 * spec.h, 1)
        bflow = FlowState(blob, evaluator, dt=0.02)
        mass_err = abs(grid_mass(evaluator.density) - 1.0)
        for _ in range(50):
            step_leapfrog(bflow)
            mass_err = max(mass_err, abs(grid_mass(evaluator.density) - 1.0))
        report(
            "9 (dynamics validation)",
            rev_err <= 1e-10 and period_err <= 0.005 and mass_err <= 1e-12,
            f"reversibility {rev_err:.1e}, period err {100 * period_err:.3f}%, "
            f"mass drift {mass_err:.1e}",
        )

    def test_criterion_10_determinism(self, tmp_path):
        cfg = presets.bundled("free-streaming")

        def digest(outdir):
            harness.emit_twin(cfg, outdir)
            h = hashlib.sha256()
            h.update(open(os.path.join(outdir, "records.csv"), "rb").read())
            return h.hexdigest()

        d1 = digest(str(tmp_path / "r1"))
        d2 = digest(str(tmp_path / "r2"))

        # rerun in a fresh interpreter with a different thread-count setting
        script = (
            "from vptwin import harness, presets; import hashlib, sys;"
            "cfg = presets.bundled('free-streaming');"
            f"harness.emit_twin(cfg, {str(tmp_path / 'r3')!r});"
            f"print(hashlib.sha256(open({str(tmp_path / 'r3/records.csv')!r}, 'rb').read()).hexdigest())"
        )
        env = dict(os.environ)
        env.update(
            OMP_NUM_THREADS="2", OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="2",
        )
        d3 = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
        report(
            "10 (byte-identical determinism)",
            d1 == d2 == d3,
            f"records.csv sha256 {d1[:16]}... across rerun and 2-thread subprocess",
        )
