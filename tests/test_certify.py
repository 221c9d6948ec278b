"""Tests for the inequality-chain certification layer.

Oracles: closed-form free streaming for Q(t) and the differential
inequality, an independent RK4 integration (and complex-step derivative)
for the Osgood envelope, grid quadrature as a second discretization of the
T2 integral, and translation optimality for the field-stability sweep.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from vptwin import certify
from vptwin.certify import (
    StabilityRecord,
    check_gronwall,
    compute_T1_T2,
    compute_gaps,
    osgood_contain,
    osgood_envelope,
    prop31_ratio,
    prop31_sides,
)
from vptwin.dynamics import DirectSumEvaluator, ParticleEnsemble
from vptwin.fields import (
    DensityDifference,
    GridDensity,
    GridSpec,
    deposit_cic,
    solve_field_grid,
)
from vptwin.transport import WeightedCloud, coupling_cost, squared_norms, w2_exact

from oracles import ledger_sum

RNG_SEED = 90210
E = math.e


def paired_ensembles(rng, n=64):
    x = rng.normal(size=(n, 3))
    v = rng.normal(size=(n, 3))
    w = np.full(n, 1.0 / n)
    a = ParticleEnsemble(x, v, w)
    b = ParticleEnsemble(
        x + 0.1 * rng.normal(size=(n, 3)), v + 0.1 * rng.normal(size=(n, 3)), w
    )
    return a, b


class TestComputeGaps:
    def test_identical_twins_zero(self):
        rng = np.random.default_rng(RNG_SEED)
        a, _ = paired_ensembles(rng)
        assert compute_gaps(a, a.copy()) == (0.0, 0.0, 0.0)

    def test_unit_pair_definition(self):
        a = ParticleEnsemble(np.zeros((1, 3)), np.zeros((1, 3)), np.ones(1))
        b = ParticleEnsemble(np.array([[1.0, 0, 0]]), np.array([[0.0, 2.0, 0]]), np.ones(1))
        q, s, gap = compute_gaps(a, b)
        assert (q, s) == (2.5, 1.0)
        assert gap == pytest.approx(math.sqrt(5.0), rel=1e-15)

    def test_free_streaming_formula(self):
        # velocity shift delta under zero field: gap grows linearly, so
        # Q(t) = 1/2 M |dv|^2 (1 + t^2)
        rng = np.random.default_rng(RNG_SEED)
        n = 32
        x = rng.normal(size=(n, 3))
        v = rng.normal(size=(n, 3))
        w = np.full(n, 1.0 / n)
        dv = np.array([1e-2, 0.0, 0.0])
        for t in (0.0, 0.7, 2.0):
            a = ParticleEnsemble(x + t * v, v, w)
            b = ParticleEnsemble(x + t * (v + dv), v + dv, w)
            want = 0.5 * 1e-4 * (1.0 + t * t)
            assert compute_gaps(a, b)[0] == pytest.approx(want, rel=1e-12)

    def test_one_pass_bitwise_equals_separate_sums(self):
        # Q and S as coupling_cost sums them, max_gap from the same norms,
        # and both sums in the ledger's written order
        rng = np.random.default_rng(RNG_SEED)
        a, b = paired_ensembles(rng, n=1000)
        b.x *= np.exp(4.0 * rng.normal(size=b.x.shape))
        dx, dv = a.x - b.x, a.v - b.v
        want = (
            0.5 * coupling_cost(a.w, dx, dv),
            coupling_cost(a.w, dx),
            float(np.sqrt(squared_norms(dx, dv).max())),
        )
        assert compute_gaps(a, b) == want
        assert want[:2] == (0.5 * ledger_sum(a.w, dx, dv), ledger_sum(a.w, dx))

    def test_misaligned_weights_rejected(self):
        a = ParticleEnsemble(np.zeros((2, 3)), np.zeros((2, 3)), np.array([0.5, 0.5]))
        b = ParticleEnsemble(np.zeros((2, 3)), np.zeros((2, 3)), np.array([0.6, 0.4]))
        with pytest.raises(ValueError):
            compute_gaps(a, b)


class TestT1T2:
    def test_identical_everything_zero(self):
        rng = np.random.default_rng(RNG_SEED)
        a, _ = paired_ensembles(rng)
        f = lambda p: 0.3 * np.atleast_2d(p)
        t1, t2 = compute_T1_T2(a, a.copy(), f(a.x), f(a.x), f)
        assert t1 == 0.0 and t2 == 0.0

    def test_same_field_different_positions(self):
        rng = np.random.default_rng(RNG_SEED)
        a, b = paired_ensembles(rng)
        f = lambda p: 0.3 * np.atleast_2d(p)
        t1, t2 = compute_T1_T2(a, b, f(a.x), f(b.x), f)
        assert t2 == 0.0
        assert t1 > 0.0

    def test_t2_against_grid_quadrature(self):
        # particle sum of |F2 - F1|^2 over rho1 vs the grid quadrature of
        # the same integral: two discretizations of one quantity
        rng = np.random.default_rng(RNG_SEED)
        n = 40000
        spec = GridSpec((0, 0, 0), 8.0, 32)
        x1 = rng.normal(scale=0.6, size=(n, 3))
        x2 = x1 + np.array([0.3, 0.0, 0.0])
        w = np.full(n, 1.0 / n)
        rho1 = GridDensity(spec, deposit_cic(x1, w, spec))
        rho2 = GridDensity(spec, deposit_cic(x2, w, spec))
        f1 = solve_field_grid(rho1)
        f2 = solve_field_grid(rho2)
        ens1 = ParticleEnsemble(x1, np.zeros_like(x1), w)
        ens2 = ParticleEnsemble(x2, np.zeros_like(x2), w)
        _, t2 = compute_T1_T2(
            ens1, ens2, f1.interpolate(x1), f2.interpolate(x2), f2.interpolate
        )
        diff = f1.values - f2.values
        quad = float(
            np.sum(rho1.values * np.einsum("...k,...k->...", diff, diff))
            * spec.cell_volume
        )
        assert t2 == pytest.approx(quad, rel=0.05)

    @staticmethod
    def three_evaluations(ens_a, ens_b, field_a, field_b):
        # the definition, evaluating all three field values at their points
        # and summing in the ledger's written order
        d1 = field_b(ens_a.x) - field_b(ens_b.x)
        d2 = field_b(ens_a.x) - field_a(ens_a.x)
        return ledger_sum(ens_a.w, d1), ledger_sum(ens_a.w, d2)

    def test_cached_values_bitwise_equal_grid_interpolation(self):
        rng = np.random.default_rng(RNG_SEED)
        a, b = paired_ensembles(rng, n=256)
        spec = GridSpec((0, 0, 0), 10.0, 16)
        fa = solve_field_grid(GridDensity(spec, deposit_cic(a.x, a.w, spec)))
        fb = solve_field_grid(GridDensity(spec, deposit_cic(b.x, b.w, spec)))
        got = compute_T1_T2(a, b, fa.interpolate(a.x), fb.interpolate(b.x), fb.interpolate)
        assert got == self.three_evaluations(a, b, fa.interpolate, fb.interpolate)
        assert got[0] > 0.0 and got[1] > 0.0

    def test_cached_values_bitwise_equal_direct_sum(self):
        rng = np.random.default_rng(RNG_SEED)
        a, b = paired_ensembles(rng, n=256)
        ev_a = DirectSumEvaluator(0.1)
        ev_b = DirectSumEvaluator(0.2)
        ev_a.refresh(a)
        ev_b.refresh(b)
        got = compute_T1_T2(a, b, ev_a.accel(a.x), ev_b.accel(b.x), ev_b.accel)
        assert got == self.three_evaluations(a, b, ev_a.accel, ev_b.accel)
        assert got[0] > 0.0 and got[1] > 0.0


class TestProp31:
    """prop31_sides and prop31_ratio, the two functionals the twin ledger
    and certify_records apply, over the field of a density difference
    solved from known densities."""

    def ball_cloud(self, rng, n=2048):
        u = rng.random(n)
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        pts = u[:, None] ** (1.0 / 3.0) * d
        return WeightedCloud(pts, np.full(n, 1.0 / n))

    @staticmethod
    def density(cloud, spec):
        return GridDensity(spec, deposit_cic(cloud.points, cloud.weights, spec))

    @staticmethod
    def sides(rho1, rho2, w2):
        diff = solve_field_grid(DensityDifference(rho1, rho2))
        return prop31_sides(rho1, rho2, diff, w2)

    def test_identical_densities(self):
        rng = np.random.default_rng(RNG_SEED)
        spec = GridSpec((0, 0, 0), 6.0, 24)
        c = self.ball_cloud(rng)
        rho = self.density(c, spec)
        w2, _ = w2_exact(c, c)
        lhs, rhs = self.sides(rho, rho, w2)
        assert (lhs, rhs) == (0.0, 0.0)
        assert prop31_ratio(lhs, rhs) == 0.0

    def test_translate_sweep(self):
        # W2 between a cloud and its translate is exactly |delta|, so the
        # rhs is known; lhs / |delta| should be stable as delta shrinks
        rng = np.random.default_rng(RNG_SEED)
        spec = GridSpec((0, 0, 0), 6.0, 32)
        c = self.ball_cloud(rng)
        rho1 = self.density(c, spec)
        slopes = []
        for delta in (0.4, 0.2, 0.1, 0.05):
            rho2 = self.density(WeightedCloud(c.points + [delta, 0.0, 0.0], c.weights), spec)
            lhs, rhs = self.sides(rho1, rho2, delta)
            assert rhs == math.sqrt(max(rho1.sup_norm, rho2.sup_norm)) * delta
            ratio = prop31_ratio(lhs, rhs)
            assert ratio <= 1.0 + certify.PROP31_TOL, f"delta={delta}: ratio {ratio}"
            slopes.append(lhs / delta)
        slopes = np.array(slopes)
        assert np.ptp(slopes) <= 0.25 * slopes.mean()

    def test_lhs_is_the_norm_of_the_two_fields_difference(self):
        # one solve of rho1 - rho2 against the difference of two solves:
        # the same norm up to rounding
        rng = np.random.default_rng(RNG_SEED)
        spec = GridSpec((0, 0, 0), 6.0, 16)
        c = self.ball_cloud(rng, n=512)
        rho1 = self.density(c, spec)
        rho2 = self.density(WeightedCloud(c.points * 1.1, c.weights), spec)
        lhs, _ = self.sides(rho1, rho2, 0.1)
        d = solve_field_grid(rho1).values - solve_field_grid(rho2).values
        assert lhs == pytest.approx(math.sqrt(np.sum(d * d) * spec.cell_volume), rel=1e-12)

    def test_zero_rhs_with_nonzero_lhs_flagged(self):
        # W2 = 0 with a field difference is inconsistent: the ratio is inf
        # and the prop31 verdict FAILs, whatever the other rows say
        assert prop31_ratio(certify.PROP31_ZERO_TOL, 0.0) == 0.0
        assert prop31_ratio(2 * certify.PROP31_ZERO_TOL, 0.0) == math.inf
        recs = free_streaming_records(1e-3)
        for r, diff, rhs in ((recs[0], 1e-3, 0.0), (recs[10], 0.1, 0.2)):
            r.W2_rho, r.W2_phase = 0.0, 0.0
            r.Q_sub, r.S_sub = r.Q, r.S
            r.field_l2_diff, r.prop31_rhs = diff, rhs
        result = certify.certify_records(recs)
        assert result.prop31_max_ratio == math.inf
        assert result.verdicts["prop31"] is False and not result.passed
        assert result.verdicts["lemma_w2"] and result.verdicts["gronwall"]

    def test_grid_mismatch_rejected(self):
        # densities on boxes of different geometry have no common L2 norm
        # to compare; their difference is refused rather than guessed
        r1 = GridDensity(GridSpec((0, 0, 0), 4.0, 8), np.zeros((8, 8, 8)))
        r2 = GridDensity(GridSpec((0, 0, 0), 5.0, 8), np.zeros((8, 8, 8)))
        with pytest.raises(ValueError, match="different geometry"):
            self.sides(r1, r2, 0.0)


def ledger_row(ens_a, ens_b, step=0, t=0.0):
    """An exact-OT ledger row of a twin pair, as the twin observer builds it
    (the whole pair is the subsample; no field columns are needed here)."""
    w2_rho, _ = w2_exact(ens_a.position_cloud(), ens_b.position_cloud())
    w2_phase, _ = w2_exact(ens_a.phase_cloud(), ens_b.phase_cloud())
    q, s, _ = compute_gaps(ens_a, ens_b)
    return StabilityRecord(
        step=step, t=t, Q=q, S=s, W2_rho=w2_rho, W2_phase=w2_phase, Q_sub=q, S_sub=s,
        field_l2_diff=0.0, prop31_rhs=0.0,
    )


def certify_pair(ens_a, ens_b):
    """certify_records over three uniformly spaced copies of one pair's row."""
    recs = [ledger_row(ens_a, ens_b, step=k, t=0.1 * k) for k in range(3)]
    return recs[0], certify.certify_records(recs)


class TestLemmaW2:
    """The feasible-plan bounds W2_rho^2 <= S and W2_phase^2 <= 2Q, as
    certify_records applies them to rows built from w2_exact and the
    paired costs."""

    def test_identical_positions(self):
        rng = np.random.default_rng(RNG_SEED)
        a, _ = paired_ensembles(rng)
        row, result = certify_pair(a, a.copy())
        assert row.W2_rho == 0.0 and row.S == 0.0 and row.Q == 0.0
        assert result.verdicts["lemma_w2"] and result.verdicts["remark_phase"]
        assert result.lemma_max_w2rho_excess == 0.0

    def test_swapped_pair_strict_inequality(self):
        # twins swap two particles: the identity pairing pays the swap cost
        # but the optimal plan re-pairs, so W2_rho^2 < S strictly
        x = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        a = ParticleEnsemble(x, np.zeros((2, 3)), np.array([0.5, 0.5]))
        b = ParticleEnsemble(x[::-1].copy(), np.zeros((2, 3)), np.array([0.5, 0.5]))
        row, result = certify_pair(a, b)
        assert row.W2_rho == pytest.approx(0.0, abs=1e-12)
        assert row.S == pytest.approx(1.0, rel=1e-12)
        assert result.verdicts["lemma_w2"] and result.verdicts["remark_phase"]
        assert result.lemma_max_w2rho_excess == pytest.approx(-1.0, rel=1e-12)

    def test_random_snapshot(self):
        rng = np.random.default_rng(RNG_SEED)
        a, b = paired_ensembles(rng, n=256)
        row, result = certify_pair(a, b)
        assert result.verdicts["lemma_w2"] and result.verdicts["remark_phase"]
        assert result.lemma_max_w2rho_excess == row.W2_rho**2 - row.S < 0.0


def free_streaming_records(delta, t_final=2.0, dt=0.05, mass=1.0):
    """Analytic record series for a velocity-shift twin under zero field."""
    steps = int(round(t_final / dt))
    out = []
    for k in range(steps + 1):
        t = k * dt
        q = 0.5 * mass * delta**2 * (1.0 + t * t)
        s = mass * (delta * t) ** 2
        out.append(
            StabilityRecord(
                step=k, t=t, Q=q, T1=0.0, T2=0.0, S=s, max_gap=delta * math.hypot(1, t)
            )
        )
    return out


class TestGronwall:
    def test_free_streaming_inequality_holds(self):
        # dQ/dt = M d^2 t <= Q = 1/2 M d^2 (1 + t^2) since (t - 1)^2 >= 0
        rep = check_gronwall(free_streaming_records(1e-2))
        assert rep.n_checked == rep.n_steps
        assert rep.fraction_satisfied == 1.0

    def test_uniform_field_difference_within_proved_bound(self):
        # F_A - F_B = c everywhere, F_B uniform: dv = c t, dx = c t^2 / 2,
        # T1 = 0 and T2 = M |c|^2. Early on dQ/dt ~ sqrt(2Q) sqrt(T2), the
        # equality case of Cauchy-Schwarz: the bound cannot be any tighter,
        # and the unproved form Q + sqrt(Q (T1 + T2)) fails here
        c2, dt = 1e-4, 0.05
        recs = []
        for k in range(41):
            t = k * dt
            recs.append(StabilityRecord(
                step=k, t=t, Q=0.5 * c2 * (t**4 / 4 + t**2), T2=c2,
                S=c2 * t**4 / 4, max_gap=math.sqrt(c2) * t * math.hypot(1, t / 2),
            ))
        rep = check_gronwall(recs)
        assert rep.n_checked == 40 and rep.fraction_satisfied == 1.0
        # every centered difference breaks it (the last, one-sided, does not)
        assert not any(r.dQdt <= r.Q + math.sqrt(r.Q * r.T2) for r in recs[1:-1])

    def test_identical_twins_all_skipped(self):
        recs = [StabilityRecord(step=k, t=0.05 * k, Q=0.0) for k in range(10)]
        rep = check_gronwall(recs)
        assert rep.n_checked == 0
        assert rep.skipped_steps == list(range(10))
        assert rep.fraction_satisfied == 1.0

    @pytest.mark.parametrize(
        "times, message",
        [
            ("perturbed", "not uniformly spaced"),
            ("equal", "do not strictly increase"),
            ("reversed", "do not strictly increase"),
        ],
        ids=["perturbed", "equal", "reversed"],
    )
    def test_non_uniform_spacing_rejected(self, times, message):
        # equal times once divided by zero into C_final = inf, and reversed
        # ones passed on the window (0.5, 0.0)
        recs = free_streaming_records(1e-2)
        if times == "perturbed":
            recs[3].t += 0.01
        elif times == "equal":
            for r in recs:
                r.t = 0.0
        else:
            for r, t in zip(recs, [r.t for r in reversed(recs)]):
                r.t = t
        with pytest.raises(ValueError, match=message):
            check_gronwall(recs)

    def test_window_tracks_small_gaps(self):
        recs = free_streaming_records(0.2, t_final=4.0, dt=0.1)
        rep = check_gronwall(recs)
        # max_gap = 0.2 sqrt(1 + t^2) crosses 1/e at t ~ 1.54
        assert rep.window[0] == 0.0
        assert rep.window[1] == pytest.approx(1.5, abs=0.1 + 1e-12)

    def test_fitted_envelope_constant_contains_free_streaming(self):
        recs = free_streaming_records(1e-3)
        rep = check_gronwall(recs)
        assert rep.C_T1 == 0.0  # T1 identically zero
        assert rep.C_final > 0.0
        contain = osgood_contain(recs, rep.C_final)
        assert contain.passed


def rk4_osgood(C, Q0, t_final, n_steps):
    """Independent RK4 oracle for y' = C y (1 + log(1/y))."""
    y = float(Q0)
    h = t_final / n_steps

    def f(y):
        return C * y * (1.0 + math.log(1.0 / y))

    for _ in range(n_steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return y


class TestOsgoodEnvelope:
    def test_initial_value_exact(self):
        for q0 in (1e-8, 1e-3, 0.5, 2.0):
            assert osgood_envelope(1.0, q0, 0.0) == pytest.approx(q0, rel=1e-14)

    def test_fixed_point_at_e(self):
        for t in np.linspace(0, 5, 11):
            assert osgood_envelope(1.3, E, t) == pytest.approx(E, rel=1e-12)

    def test_frozen_dynamics_at_c_zero(self):
        for t in (0.0, 1.0, 4.0):
            assert osgood_envelope(0.0, 0.37, t) == pytest.approx(0.37, rel=1e-14)

    def test_zero_initial_condition_stays_zero(self):
        np.testing.assert_array_equal(
            osgood_envelope(2.0, 0.0, np.linspace(0, 5, 7)), 0.0
        )

    def test_matches_rk4_oracle(self):
        y = osgood_envelope(1.0, 1e-6, 1.0)
        y_rk = rk4_osgood(1.0, 1e-6, 1.0, 10000)
        assert y == pytest.approx(y_rk, rel=1e-6)

    def test_matches_rk4_across_parameter_grid(self):
        for C in (0.5, 1.0, 2.0):
            for q0 in (1e-8, 1e-4, 1e-1):
                for t in (0.5, 2.0, 5.0):
                    y = osgood_envelope(C, q0, t)
                    y_rk = rk4_osgood(C, q0, t, 20000)
                    assert y == pytest.approx(y_rk, rel=1e-6), (C, q0, t)

    def test_ode_residual_small(self):
        # complex-step derivative of the closed form is exact to roundoff,
        # so the residual isolates any formula error
        C, q0 = 1.2, 1e-4
        h = 1e-25
        for t in np.linspace(0.0, 5.0, 21):
            y = np.exp(1.0 - (1.0 - np.log(q0)) * np.exp(-C * (t + 1j * h)))
            dy = y.imag / h
            yv = y.real
            residual = dy - C * yv * (1.0 + np.log(1.0 / yv))
            assert abs(residual) <= 1e-9 * max(abs(dy), 1e-300)

    def test_monotone_in_q0(self):
        t = 1.7
        vals = [osgood_envelope(1.0, q0, t) for q0 in (1e-8, 1e-6, 1e-3, 0.1, 1.0)]
        assert np.all(np.diff(vals) > 0)

    def test_pointwise_vanishing_as_q0_to_zero(self):
        # decay in Q0 is doubly exponential in t, so the witness is checked
        # at fixed t with a deep Q0 sweep
        for t, floor in ((1.0, 1e-4), (3.0, 0.5)):
            vals = [osgood_envelope(1.0, q0, t) for q0 in (1e-2, 1e-4, 1e-8, 1e-16)]
            assert np.all(np.diff(vals) < 0)
            assert vals[-1] < floor

    def test_above_fixed_point_matches_rk4(self):
        # z = log y solves the linear z' = C (1 - z), so the closed form
        # also holds for Q0 > e, where the drift is negative
        for C in (0.5, 2.0):
            for q0 in (5.0, 1e3):
                for t in (1.0, 5.0):
                    y = osgood_envelope(C, q0, t)
                    y_rk = rk4_osgood(C, q0, t, 20000)
                    assert y == pytest.approx(y_rk, rel=1e-12), (C, q0, t)
        q0 = 5.0
        vals = osgood_envelope(1.0, q0, np.linspace(0, 5, 6))
        assert vals[0] == pytest.approx(q0, rel=1e-8)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals >= E - 1e-9)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            osgood_envelope(-1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            osgood_envelope(1.0, -0.5, 0.0)

    def test_cli_import_does_not_load_an_integrator(self):
        code = (
            "import sys, vptwin.cli, vptwin.harness; "
            "print('scipy.integrate' in sys.modules)"
        )
        # the child imports the vptwin package this test run imports
        src = os.path.dirname(os.path.dirname(certify.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.stdout.strip() == "False"


class TestOsgoodContain:
    def test_containment_of_subcritical_series(self):
        recs = free_streaming_records(1e-3)
        rep = check_gronwall(recs)
        contain = osgood_contain(recs, rep.C_final)
        assert contain.passed
        assert contain.Q0 == pytest.approx(recs[0].Q, rel=1e-12)

    def test_violation_detected(self):
        recs = free_streaming_records(1e-3)
        contain = osgood_contain(recs, C=1e-6)  # envelope nearly frozen
        assert not contain.passed
        assert contain.max_excess > 0

    def test_all_zero_series_trivially_contained(self):
        recs = [StabilityRecord(step=k, t=0.1 * k, Q=0.0) for k in range(5)]
        assert osgood_contain(recs, C=1.0).passed


class TestCertifyRecords:
    def test_free_streaming_series_passes(self):
        recs = free_streaming_records(1e-3)
        result = certify.certify_records(recs)
        assert result.passed
        assert result.verdicts["gronwall"] is True
        assert result.verdicts["osgood_containment"] is True
        # no exact-OT columns in the analytic series
        assert result.verdicts["prop31"] is None
        assert any("overall: PASS" in line for line in result.summary_lines)

    def test_identical_twin_series_passes(self):
        recs = [StabilityRecord(step=k, t=0.05 * k, Q=0.0) for k in range(10)]
        result = certify.certify_records(recs)
        assert result.passed

    def test_summary_labels_name_their_numbers(self):
        # W2_rho^2 - S_sub = -0.09 and W2_rho^2 - 2 Q_sub = -1.84: the
        # lemma line prints the larger, the excess over min(S_sub, 2Q_sub)
        recs = free_streaming_records(1e-3)
        r = recs[2]
        r.W2_rho, r.W2_phase, r.Q_sub, r.S_sub = 0.4, 1.0, 1.0, 0.25
        r.field_l2_diff, r.prop31_rhs = 0.1, 0.2
        lines = certify.certify_records(recs).summary_lines
        assert lines[:4] == [
            "lemma_w2: W2_rho^2 - min(S_sub, 2Q_sub) max excess -9.000e-02 -> PASS",
            "remark_phase: W2_phase^2 - 2Q_sub max excess -1.000e+00 -> PASS",
            "prop31: max ratio 0.5000 (tol 1 + 0.05) -> PASS",
            "gronwall: dQ/dt <= Q + sqrt(2Q)(sqrt(T1)+sqrt(T2)) at 41/41 checked steps "
            "(100.0%, need >= 99%) -> PASS",
        ]

    @pytest.mark.parametrize("column", certify.OT_ROW_COLUMNS)
    def test_ot_row_missing_column_rejected(self, column):
        # a complete exact-OT row on step 0 of free streaming, less one column
        recs = free_streaming_records(1e-3)
        r = recs[0]
        r.W2_rho, r.W2_phase = 0.0, 1e-3
        r.Q_sub, r.S_sub = r.Q, r.S
        r.field_l2_diff, r.prop31_rhs = 0.0, 0.0
        setattr(r, column, None)
        with pytest.raises(ValueError, match=f"step 0: exact-OT row .* {column}"):
            certify.certify_records(recs)
