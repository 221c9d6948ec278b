"""Tests for the particle flow: stepping, twin runs, cold-flow diagnostics.

Oracles: closed-form free streaming, the harmonic interior field of a
unit-mass ball (angular frequency 1/sqrt(4 pi)) cross-checked by an RK4
integration at small step, and conservation laws of the softened pairwise
dynamics.
"""

import threading
import time

import numpy as np
import pytest

from vptwin import dynamics
from vptwin.dynamics import (
    CrossingDetector,
    DirectSumEvaluator,
    FlowState,
    GridFieldEvaluator,
    ParticleEnsemble,
    TwinError,
    ZeroFieldEvaluator,
    cell_velocity_dispersion,
    run_twin,
    step_leapfrog,
)
from vptwin.errors import DivergenceError, EscapeError, OutOfDomainError, SingularityError
from vptwin.fields import FOUR_PI, GridSpec
from vptwin.transport import coupling_cost

from oracles import FrozenFieldEvaluator, potential_energy_direct

RNG_SEED = 777


def random_ensemble(rng, n=64):
    return ParticleEnsemble(
        rng.normal(scale=0.5, size=(n, 3)),
        rng.normal(scale=0.3, size=(n, 3)),
        np.full(n, 1.0 / n),
    )


def no_observer(step, flow_a, flow_b):
    """run_twin's observer where a test reads only the final flows."""


def harmonic_field(points):
    """Interior field of the attractive unit-mass unit ball: -x / (4 pi)."""
    return -np.atleast_2d(points) / FOUR_PI


def rk4_harmonic(x0, v0, t_final, n_steps):
    """Independent RK4 oracle for x'' = -x / (4 pi)."""
    x, v = float(x0), float(v0)
    h = t_final / n_steps
    for _ in range(n_steps):
        k1x, k1v = v, -x / FOUR_PI
        k2x, k2v = v + 0.5 * h * k1v, -(x + 0.5 * h * k1x) / FOUR_PI
        k3x, k3v = v + 0.5 * h * k2v, -(x + 0.5 * h * k2x) / FOUR_PI
        k4x, k4v = v + h * k3v, -(x + h * k3x) / FOUR_PI
        x += h * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
        v += h * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0
    return x, v


class TestFreeStreaming:
    def test_positions_follow_straight_lines(self):
        rng = np.random.default_rng(RNG_SEED)
        ens = random_ensemble(rng)
        x0, v0 = ens.x.copy(), ens.v.copy()
        flow = FlowState(ens, ZeroFieldEvaluator(), dt=0.05)
        for _ in range(40):
            step_leapfrog(flow)
        t = flow.ensemble.t
        assert t == pytest.approx(2.0, rel=1e-12)
        np.testing.assert_allclose(flow.ensemble.x, x0 + t * v0, atol=1e-12)
        np.testing.assert_array_equal(flow.ensemble.v, v0)


class TestReversibility:
    def test_frozen_field_forward_backward(self):
        rng = np.random.default_rng(RNG_SEED)
        ens = random_ensemble(rng)
        x0, v0 = ens.x.copy(), ens.v.copy()

        def fn(p):
            return np.stack([-0.3 * p[:, 0], 0.1 * p[:, 1], -0.2 * p[:, 2]], axis=-1)

        flow = FlowState(ens, FrozenFieldEvaluator(fn), dt=0.01)
        for _ in range(100):
            step_leapfrog(flow)
        flow.dt = -flow.dt
        for _ in range(100):
            step_leapfrog(flow)
        np.testing.assert_allclose(flow.ensemble.x, x0, atol=1e-10)
        np.testing.assert_allclose(flow.ensemble.v, v0, atol=1e-10)


class TestHarmonicOscillator:
    period = 2.0 * np.pi * np.sqrt(FOUR_PI)

    def run_leapfrog(self, dt, t_final):
        ens = ParticleEnsemble(
            np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 3)), np.array([1.0])
        )
        flow = FlowState(ens, FrozenFieldEvaluator(harmonic_field), dt=dt)
        n = int(round(t_final / dt))
        for _ in range(n):
            step_leapfrog(flow)
        return float(flow.ensemble.x[0, 0]), float(flow.ensemble.v[0, 0])

    def test_rk4_oracle_agrees_with_closed_form(self):
        omega = 1.0 / np.sqrt(FOUR_PI)
        x, v = rk4_harmonic(1.0, 0.0, self.period, 1000)
        assert x == pytest.approx(np.cos(omega * self.period), abs=1e-9)
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_one_period_returns_home(self):
        dt = self.period / 1000
        x, v = self.run_leapfrog(dt, self.period)
        x_rk, v_rk = rk4_harmonic(1.0, 0.0, self.period, 1000)
        assert x == pytest.approx(x_rk, abs=5e-3)
        assert abs(x - 1.0) <= 5e-3  # closed form: back to the start

    def test_second_order_convergence(self):
        t_final = self.period / 4
        want = np.cos((1.0 / np.sqrt(FOUR_PI)) * t_final)
        errs = []
        for n in (100, 200, 400):
            x, _ = self.run_leapfrog(t_final / n, t_final)
            errs.append(abs(x - want))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


class TestConservation:
    def test_momentum_conserved_direct_sum(self):
        rng = np.random.default_rng(RNG_SEED)
        ens = random_ensemble(rng, n=48)
        p0 = ens.w @ ens.v
        flow = FlowState(ens, DirectSumEvaluator(softening=0.1, epsilon=-1), dt=0.02)
        for _ in range(50):
            step_leapfrog(flow)
        np.testing.assert_allclose(ens.w @ flow.ensemble.v, p0, atol=1e-14)

    def test_energy_drift_small(self):
        rng = np.random.default_rng(RNG_SEED)
        ens = random_ensemble(rng, n=48)
        soft = 0.2

        def energy(e):
            return 0.5 * coupling_cost(e.w, e.v) + potential_energy_direct(e, soft, -1)

        e0 = energy(ens)
        flow = FlowState(ens, DirectSumEvaluator(softening=soft, epsilon=-1), dt=0.02)
        for _ in range(100):
            step_leapfrog(flow)
        e1 = energy(flow.ensemble)
        assert abs(e1 - e0) <= 0.01 * abs(e0)


class TestMonokinetic:
    def test_cold_repulsive_cloud_expands(self):
        rng = np.random.default_rng(RNG_SEED)
        pts = rng.normal(scale=0.3, size=(200, 3))
        ens = ParticleEnsemble(pts, np.zeros_like(pts), np.full(200, 1.0 / 200))
        assert np.all(ens.v == 0)
        flow = FlowState(ens, DirectSumEvaluator(softening=0.1, epsilon=1), dt=0.01)
        step_leapfrog(flow)
        com = np.average(flow.ensemble.x, axis=0, weights=flow.ensemble.w)
        radial = np.einsum(
            "ij,ij->i", flow.ensemble.v, flow.ensemble.x - com
        )
        assert np.mean(radial > 0) > 0.95  # repulsion drives net outflow

    def test_hubble_flow_exact_under_zero_field(self):
        rng = np.random.default_rng(RNG_SEED)
        pts = rng.normal(size=(100, 3))
        H = 0.3
        ens = ParticleEnsemble(pts.copy(), H * pts, np.full(100, 1.0 / 100))
        flow = FlowState(ens, ZeroFieldEvaluator(), dt=0.02)
        for _ in range(50):
            step_leapfrog(flow)
        t = flow.ensemble.t
        np.testing.assert_allclose(flow.ensemble.x, (1.0 + H * t) * pts, atol=1e-12)


class TestDispersionAndCrossing:
    def test_monokinetic_flow_has_zero_dispersion(self):
        rng = np.random.default_rng(RNG_SEED)
        pts = rng.normal(size=(500, 3))
        ens = ParticleEnsemble(pts, 0.4 * pts, np.full(500, 1.0 / 500))
        spec = GridSpec(10.0, 8)
        # linear shear inside one cell still counts as dispersion, so use a
        # grid coarse enough that the signal stays well under the two-stream
        # level tested below
        assert cell_velocity_dispersion(ens, spec) < 0.4

    def test_two_streams_in_one_cell(self):
        x = np.array([[0.1, 0.0, 0.0], [0.12, 0.0, 0.0]])
        v = np.array([[0.7, 0.0, 0.0], [-0.7, 0.0, 0.0]])
        ens = ParticleEnsemble(x, v, np.array([0.5, 0.5]))
        spec = GridSpec(8.0, 4)
        assert cell_velocity_dispersion(ens, spec) == pytest.approx(0.7, rel=1e-12)

    def test_warm_flow_disarms_detector(self, monkeypatch):
        monkeypatch.setattr(dynamics, "CROSSING_THRESHOLD", 0.1)
        rng = np.random.default_rng(RNG_SEED)
        ens = random_ensemble(rng, n=500)
        spec = GridSpec(8.0, 8)
        det = CrossingDetector(spec)
        for _ in range(5):
            det.observe(ens)
        assert det.crossing_time is None

    def crossing_time_at(self, dt):
        from vptwin.harness import ScenarioConfig
        from vptwin.scenarios import sample_initial

        cfg = ScenarioConfig(
            scenario="two-blob",
            epsilon=-1,
            n_particles=2048,
            grid_dims=32,
            box_edge=10.0,
            dt=dt,
            t_final=1.0,
            seed=21,
            sigma_x=0.15,
            blob_separation=1.6,
            approach_speed=0.8,
        )
        ens = sample_initial(cfg)
        spec = cfg.grid_spec
        det = CrossingDetector(spec)
        flow = FlowState(ens, GridFieldEvaluator(spec, 0.5 * spec.h, cfg.epsilon), dt=dt)
        det.observe(flow.ensemble)
        while flow.ensemble.t < cfg.t_final - 1e-12 and det.crossing_time is None:
            step_leapfrog(flow)
            det.observe(flow.ensemble)
        return det.crossing_time

    @staticmethod
    def merger_twin(delta, **overrides):
        from vptwin.harness import ScenarioConfig, run_twin_config

        base = dict(
            scenario="two-blob",
            epsilon=-1,
            field_mode="direct",
            n_particles=512,
            grid_dims=32,
            box_edge=10.0,
            dt=0.02,
            twin_kind="velocity-shift",
            twin_delta=delta,
            ot_stride=0,
            seed=1301,
        )
        return run_twin_config(ScenarioConfig(**dict(base, **overrides)))

    # a shift of 0.1 is left out: over the run it carries B a whole cell
    # across the fixed bins, which moves B's crossing to 0.42
    @pytest.mark.parametrize("delta", [1e-2, -1e-2])
    def test_velocity_shift_does_not_move_crossing(self, delta):
        # a uniform velocity shift of B changes neither its cell dispersion
        # nor its rms speed about the mean velocity, so the approaching
        # blobs cross at the same step in both branches
        result = self.merger_twin(
            delta, sigma_x=0.15, blob_separation=1.6, approach_speed=0.8, t_final=0.6
        )
        assert result.crossing_time_a == pytest.approx(0.48)
        assert result.crossing_time_b == result.crossing_time_a

    def test_cold_merger_from_rest_reports_no_crossing(self):
        # after one step from rest v ~ a dt: the dispersion over the rms
        # speed is the field's variation within a cell, which is no crossing
        result = self.merger_twin(1e-2, sigma_x=0.35, t_final=0.4)
        assert (result.crossing_time_a, result.crossing_time_b) == (None, None)

    def test_start_is_not_read(self, monkeypatch):
        calls = []
        real = dynamics.cell_velocity_dispersion
        monkeypatch.setattr(
            dynamics, "cell_velocity_dispersion", lambda e, s: calls.append(e.t) or real(e, s)
        )
        ens = random_ensemble(np.random.default_rng(RNG_SEED))
        det = CrossingDetector(GridSpec(8.0, 8))
        det.observe(ens)
        assert calls == []
        det.observe(ens)
        assert len(calls) == 1

    def test_crossing_time_stable_under_dt_refinement(self):
        coarse = self.crossing_time_at(0.02)
        fine = self.crossing_time_at(0.005)
        assert coarse is not None and fine is not None
        assert coarse == pytest.approx(fine, rel=0.02)


class TestTwinRuns:
    def test_identical_twins_bitwise_equal(self):
        rng = np.random.default_rng(RNG_SEED)
        sample = random_ensemble(rng, n=128)
        spec = GridSpec(12.0, 16)
        fa, fb = run_twin(
            sample, sample.copy(), GridFieldEvaluator(spec, 0.5 * spec.h, 1),
            GridFieldEvaluator(spec, 0.5 * spec.h, 1), 0.02, 20, no_observer,
        )
        np.testing.assert_array_equal(fa.ensemble.x, fb.ensemble.x)
        np.testing.assert_array_equal(fa.ensemble.v, fb.ensemble.v)

    def test_perturbation_applied_to_branch_b_only(self):
        # the caller shifts its copy of B; run_twin advances the two
        # ensembles it is handed, in place
        rng = np.random.default_rng(RNG_SEED)
        ens_a = random_ensemble(rng, n=64)
        ens_b = ens_a.copy()
        ens_b.v[:, 0] += 1e-3
        v0_a = ens_a.v.copy()
        fa, fb = run_twin(
            ens_a, ens_b, ZeroFieldEvaluator(), ZeroFieldEvaluator(), 0.05, 10, no_observer
        )
        assert fa.ensemble is ens_a and fb.ensemble is ens_b
        np.testing.assert_array_equal(fa.ensemble.v, v0_a)
        np.testing.assert_allclose(
            fb.ensemble.v[:, 0] - fa.ensemble.v[:, 0], 1e-3, rtol=1e-12
        )

    def test_observer_called_every_step(self):
        rng = np.random.default_rng(RNG_SEED)
        sample = random_ensemble(rng, n=16)
        seen = []
        run_twin(
            sample,
            sample.copy(),
            ZeroFieldEvaluator(),
            ZeroFieldEvaluator(),
            0.05,
            7,
            observer=lambda k, a, b: seen.append(k),
        )
        assert seen == list(range(8))

    def test_branch_failure_labeled(self):
        rng = np.random.default_rng(RNG_SEED)
        sample = random_ensemble(rng, n=32)
        spec = GridSpec(1.0, 4)  # box too small: branch A escapes
        with pytest.raises(TwinError) as exc:
            run_twin(
                sample, sample.copy(), GridFieldEvaluator(spec, 0.5 * spec.h, 1),
                ZeroFieldEvaluator(), 0.05, 10, no_observer,
            )
        assert exc.value.branch == "A"
        assert isinstance(exc.value.cause, EscapeError)

    def test_determinism_across_reruns(self):
        def one():
            rng = np.random.default_rng(RNG_SEED)
            sample = random_ensemble(rng, n=256)
            spec = GridSpec(12.0, 16)
            fa, _ = run_twin(
                sample, sample.copy(),
                GridFieldEvaluator(spec, 0.5 * spec.h, 1),
                GridFieldEvaluator(spec, 0.5 * spec.h, 1), 0.02, 15, no_observer,
            )
            return fa.ensemble.x.copy(), fa.ensemble.v.copy()

        x1, v1 = one()
        x2, v2 = one()
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(v1, v2)


class FailingEvaluator(ZeroFieldEvaluator):
    """Zero field whose refresh in step ``fail_step`` (0 is the set-up)
    raises DivergenceError after ``delay`` seconds."""

    def __init__(self, fail_step, delay=0.0):
        self.fail_step = fail_step
        self.delay = delay
        self.refreshes = 0

    def refresh(self, ensemble):
        step = self.refreshes
        self.refreshes += 1
        if step == self.fail_step:
            time.sleep(self.delay)
            raise DivergenceError(step)


class TestConcurrentBranches:
    """Branch B steps on a helper thread; errors keep the serial order."""

    def run(self, evaluator_a, evaluator_b, n_steps=6):
        seen = []
        sample = random_ensemble(np.random.default_rng(RNG_SEED), n=16)
        with pytest.raises(TwinError) as exc:
            run_twin(
                sample, sample.copy(), evaluator_a, evaluator_b, 0.05, n_steps,
                observer=lambda k, a, b: seen.append(k),
            )
        return exc.value, seen

    @pytest.mark.parametrize("step", [0, 3])
    def test_both_fail_in_one_step_names_a(self, step):
        # B fails at once, A only later: A's error is still the one raised
        err, seen = self.run(FailingEvaluator(step, delay=0.2), FailingEvaluator(step))
        assert err.branch == "A"
        assert isinstance(err.cause, DivergenceError)
        assert seen == list(range(step))

    @pytest.mark.parametrize("step", [0, 3])
    def test_only_b_fails_names_b_and_skips_the_observer(self, step):
        err, seen = self.run(ZeroFieldEvaluator(), FailingEvaluator(step))
        assert err.branch == "B"
        assert seen == list(range(step))

    def test_no_branch_left_running_after_a_fails(self):
        # A fails once B's slow step has started; run_twin raises only
        # after that step is done
        started, done = threading.Event(), threading.Event()

        class FailOnceBStarted(ZeroFieldEvaluator):
            def refresh(self, ensemble):
                if ensemble.t > 0.075:
                    assert started.wait(timeout=60)
                    raise DivergenceError(2)

        class SlowZero(ZeroFieldEvaluator):
            def refresh(self, ensemble):
                if ensemble.t > 0.075:
                    started.set()
                    time.sleep(0.2)
                    done.set()

        err, seen = self.run(FailOnceBStarted(), SlowZero())
        assert err.branch == "A"
        assert done.is_set()
        assert seen == [0, 1]

    def test_b_runs_on_the_helper_beside_a(self):
        # A waits until B has started, so B cannot be left for this thread
        started = threading.Event()
        where = {}

        def work_a():
            assert started.wait(timeout=60)
            where["A"] = threading.get_ident()
            return "a"

        def work_b():
            started.set()
            where["B"] = threading.get_ident()
            return "b"

        assert dynamics.run_pair(work_a, work_b) == ("a", "b")
        assert where["A"] == threading.get_ident() != where["B"]

    def test_b_runs_here_when_the_helper_is_busy(self):
        release = threading.Event()
        blocker = dynamics._HELPER.submit(release.wait, 60)
        try:
            where = []
            got = dynamics.run_pair(lambda: 1, lambda: where.append(threading.get_ident()))
            assert got == (1, None)
            assert where == [threading.get_ident()]
        finally:
            release.set()
            blocker.result(timeout=60)


class TestEvaluateInHalves:
    """The cross field in two row halves, one per thread, is the whole call."""

    def evaluator(self, kind, softening=0.2):
        # 100 sources: a direct-sum block of 327 targets, so a second half
        # starting at row 2048 starts mid-block of the whole call
        sources = random_ensemble(np.random.default_rng(RNG_SEED), n=100)
        if kind == "direct":
            evaluator = DirectSumEvaluator(softening, -1)
        else:
            evaluator = GridFieldEvaluator(GridSpec(6.0, 16), softening, 1)
        evaluator.refresh(sources)
        return evaluator, sources

    @pytest.mark.parametrize("n", [2, 3, 257, 4097])
    @pytest.mark.parametrize("kind", ["direct", "grid"])
    def test_bitwise_equal_to_the_whole_call(self, kind, n):
        # n = 2: each half is one target, solve_field_direct's accumulate
        # branch, where the whole call reduces a two-column plane
        evaluator, _ = self.evaluator(kind)
        targets = np.random.default_rng(n).normal(scale=0.6, size=(n, 3))
        whole = evaluator.accel(targets)
        halves = dynamics.evaluate_in_halves(evaluator.accel, targets)
        assert halves.shape == whole.shape == (n, 3)
        assert halves.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("rows", [(1, 6), (6,), (1,)], ids=["both", "second", "first"])
    def test_out_of_box_error_is_the_whole_calls(self, rows):
        # a half would name only its own points
        evaluator, _ = self.evaluator("grid")
        targets = np.random.default_rng(RNG_SEED).normal(scale=0.5, size=(8, 3))
        targets[list(rows)] += 10.0
        with pytest.raises(OutOfDomainError) as whole:
            evaluator.accel(targets)
        with pytest.raises(OutOfDomainError) as split:
            dynamics.evaluate_in_halves(evaluator.accel, targets)
        assert str(split.value) == str(whole.value)
        assert split.value.points == whole.value.points == targets[list(rows)].tolist()

    def test_singular_target_error_is_the_whole_calls(self):
        # unsoftened: two targets on sources in each half, four in the whole
        evaluator, sources = self.evaluator("direct", softening=0.0)
        targets = sources.x[[0, 1, 2, 3]]
        with pytest.raises(SingularityError) as whole:
            evaluator.accel(targets)
        with pytest.raises(SingularityError) as split:
            dynamics.evaluate_in_halves(evaluator.accel, targets)
        assert str(split.value) == str(whole.value)
        assert str(whole.value) == "4 target(s) coincide with unsoftened sources"


class TestEvaluatorSign:
    """The solvers solve Delta Psi = rho; each evaluator applies epsilon."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda eps: GridFieldEvaluator(GridSpec(8.0, 16), 0.25, eps),
            lambda eps: DirectSumEvaluator(0.1, eps),
        ],
        ids=["grid", "direct"],
    )
    def test_attractive_accel_is_exactly_minus_the_repulsive(self, make):
        ens = random_ensemble(np.random.default_rng(RNG_SEED), n=128)
        points = np.vstack([ens.x, np.zeros((1, 3))])
        accel = {}
        for eps in (1, -1):
            evaluator = make(eps)
            evaluator.refresh(ens)
            accel[eps] = evaluator.accel(points)
        assert np.any(accel[1] != 0)
        assert accel[-1].tobytes() == (-1 * accel[1]).tobytes()


class TestStepMechanics:
    def test_zero_dt_rejected(self):
        rng = np.random.default_rng(RNG_SEED)
        with pytest.raises(ValueError):
            FlowState(random_ensemble(rng, n=4), ZeroFieldEvaluator(), dt=0.0)

    def test_copy_shares_only_the_weights(self):
        # nothing writes w after sampling, so a twin's branches and its
        # snapshots keep one weight array
        rng = np.random.default_rng(RNG_SEED)
        ens = random_ensemble(rng, n=8)
        twin = ens.copy()
        assert twin.w is ens.w
        assert not np.shares_memory(twin.x, ens.x)
        assert not np.shares_memory(twin.v, ens.v)
        np.testing.assert_array_equal(twin.x, ens.x)
        np.testing.assert_array_equal(twin.v, ens.v)
        assert twin.t == ens.t
