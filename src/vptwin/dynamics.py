"""Characteristic flow of the Vlasov-Poisson system.

Particles follow dX/dt = xi, dxi/dt = grad Psi(t, X) with a kick-drift-kick
leapfrog; the field is refreshed from a cloud-in-cell deposit after each
drift (grid mode), from softened direct summation (direct mode), or held
at zero / frozen for control runs. Twin runs advance two flows from the
identical initial sample, branch B on a helper thread beside branch A.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import fields
from .errors import DivergenceError, TwinError, VptwinError
from .fields import GridDensity, GridSpec, deposit_cic
from .transport import WeightedCloud, coupling_cost


@dataclass
class ParticleEnsemble:
    """Weighted phase-space point cloud representing f(t)."""

    x: np.ndarray  # (N, 3) positions
    v: np.ndarray  # (N, 3) velocities
    w: np.ndarray  # (N,) weights
    t: float = 0.0
    epsilon_sign: int = 1

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        self.v = np.ascontiguousarray(self.v, dtype=np.float64)
        self.w = np.ascontiguousarray(self.w, dtype=np.float64)
        if self.x.shape != self.v.shape or self.x.shape[0] != self.w.shape[0]:
            raise ValueError("inconsistent ensemble array shapes")
        if np.any(self.w <= 0):
            raise ValueError("weights must be strictly positive")

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def total_mass(self):
        return float(self.w.sum())

    def copy(self):
        return ParticleEnsemble(
            self.x.copy(), self.v.copy(), self.w.copy(), self.t, self.epsilon_sign
        )

    def position_cloud(self) -> WeightedCloud:
        return WeightedCloud(self.x, self.w)

    def phase_cloud(self) -> WeightedCloud:
        return WeightedCloud(np.hstack([self.x, self.v]), self.w)


def deposit(ensemble: ParticleEnsemble, spec: GridSpec) -> GridDensity:
    """CIC deposit of the ensemble; realizes the position push-forward of f0."""
    values = deposit_cic(ensemble.x, ensemble.w, spec)
    return GridDensity(spec, values, ensemble.epsilon_sign)


# --------------------------------------------------------------------------
# field evaluators (acceleration sources)


class ZeroFieldEvaluator:
    """Free streaming: grad Psi identically zero."""

    def refresh(self, ensemble):
        pass

    def accel(self, points):
        return np.zeros((np.atleast_2d(points).shape[0], 3))


class FrozenFieldEvaluator:
    """Fixed external field from a callable points -> (n, 3) values."""

    def __init__(self, fn):
        self.fn = fn

    def refresh(self, ensemble):
        pass

    def accel(self, points):
        return np.asarray(self.fn(np.atleast_2d(points)), dtype=np.float64)


class GridFieldEvaluator:
    """Deposit -> free-space grid solve -> trilinear force interpolation."""

    def __init__(self, spec: GridSpec, softening=None):
        self.spec = spec
        self.softening = fields.resolve_softening(spec, softening)
        self.density = None
        self.field = None

    def refresh(self, ensemble):
        self.density = deposit(ensemble, self.spec)
        self.field = fields.solve_field_grid(self.density, softening=self.softening)

    def accel(self, points):
        return self.field.interpolate(points)


class DirectSumEvaluator:
    """Softened pairwise summation over the ensemble itself (no mesh)."""

    def __init__(self, softening):
        self.softening = fields.check_softening(softening)
        if self.softening == 0.0:
            raise ValueError("direct self-field needs positive softening")
        self._sources = None
        self._weights = None
        self._epsilon = 1

    def refresh(self, ensemble):
        self._sources = ensemble.x.copy()
        self._weights = ensemble.w
        self._epsilon = ensemble.epsilon_sign

    def accel(self, points):
        return fields.solve_field_direct(
            self._sources,
            self._weights,
            points,
            softening=self.softening,
            epsilon_sign=self._epsilon,
        )


# --------------------------------------------------------------------------
# leapfrog stepping


@dataclass
class FlowState:
    """One flow: ensemble + field evaluator + cached acceleration."""

    ensemble: ParticleEnsemble
    evaluator: object
    dt: float
    step_count: int = 0
    accel: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.dt == 0:
            raise ValueError("dt must be nonzero")
        self.evaluator.refresh(self.ensemble)
        self.accel = self.evaluator.accel(self.ensemble.x)


def step_leapfrog(state: FlowState) -> FlowState:
    """One kick-drift-kick step; refreshes the field after the drift.

    Time-reversible: with a frozen (or zero) field, negating dt undoes the
    step exactly up to round-off. Raises DivergenceError on non-finite
    coordinates; an EscapeError of the field refresh propagates.
    """
    ens = state.ensemble
    dt = state.dt
    v_half = ens.v + 0.5 * dt * state.accel
    ens.x += dt * v_half
    ens.t += dt
    state.evaluator.refresh(ens)
    accel = state.evaluator.accel(ens.x)
    ens.v = v_half + 0.5 * dt * accel
    state.accel = accel
    state.step_count += 1
    if not (np.all(np.isfinite(ens.x)) and np.all(np.isfinite(ens.v))):
        raise DivergenceError(state.step_count)
    return state


def reverse_dt(state: FlowState):
    """Flip the integration direction in place (for reversibility tests)."""
    state.dt = -state.dt


# --------------------------------------------------------------------------
# twin runs

# one helper thread for the life of the process, so the grid workspaces
# it keeps (fields._workspace is per thread) are mapped once, not per run
_HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="vptwin-branch-b")


def run_pair(work_a, work_b):
    """(work_a(), work_b()), with work_b on the helper thread while this
    thread runs work_a.

    If the helper has not started work_b by the time work_a is done, this
    thread runs it: on a loaded machine the helper can take milliseconds
    to wake, and the result is the same on either thread. Both have
    finished when this returns or raises. If both raise, work_a's error
    is raised, as if the two had run one after the other. The two must
    share no mutable state; pocketfft, numpy's ufuncs and cKDTree release
    the GIL, so two independent branches overlap on two cores.
    """
    future = _HELPER.submit(work_b)
    try:
        a = work_a()
    except BaseException:
        if not future.cancel():
            future.exception()  # waits for work_b without raising its error
        raise
    if future.cancel():
        return a, work_b()
    return a, future.result()


def _in_branch(branch, work, *args):
    """work(*args), a package error re-raised as TwinError naming branch."""
    try:
        return work(*args)
    except VptwinError as err:
        raise TwinError(branch, err) from err


def run_twin(
    sample: ParticleEnsemble,
    evaluator_a,
    evaluator_b,
    dt: float,
    n_steps: int,
    observer=None,
    perturb_b=None,
):
    """Advance two flows from the identical particle sample.

    perturb_b, if given, mutates branch B's copy of the sample at t = 0
    (e.g. a velocity shift). observer(step, flow_a, flow_b) is called after
    initialization (step 0) and after every step. Identical evaluators and
    no perturbation give bitwise-identical trajectories. A package error
    in a branch's set-up or steps is raised as TwinError naming the branch
    (branch A when both fail in one step), and the observer is not called
    for that step.

    Branch B's set-up and steps run on the helper thread beside branch
    A's (run_pair); the observer runs once both are done. Each branch does
    the same arithmetic on whichever thread runs it, so every result bit
    is the same whatever the thread scheduling.
    """
    ens_a, ens_b = sample.copy(), sample.copy()
    if perturb_b is not None:
        perturb_b(ens_b)
    flows = run_pair(
        lambda: _in_branch("A", FlowState, ens_a, evaluator_a, dt),
        lambda: _in_branch("B", FlowState, ens_b, evaluator_b, dt),
    )
    if observer is not None:
        observer(0, *flows)
    for k in range(1, n_steps + 1):
        run_pair(
            lambda: _in_branch("A", step_leapfrog, flows[0]),
            lambda: _in_branch("B", step_leapfrog, flows[1]),
        )
        if observer is not None:
            observer(k, *flows)
    return flows


# --------------------------------------------------------------------------
# monokinetic mode


def monokinetic_init(
    density_cloud: WeightedCloud, velocity, epsilon_sign=1
) -> ParticleEnsemble:
    """Ensemble whose empirical f is rho(x) delta(xi - v(x)).

    velocity is either a callable x -> v(x) or an (N, 3) array; an array
    assigning different velocities to identical positions is rejected
    (v must be single-valued on the support).
    """
    x = density_cloud.points
    if x.shape[1] != 3:
        raise ValueError("monokinetic density cloud must be spatial (d = 3)")
    if callable(velocity):
        v = np.asarray(velocity(x), dtype=np.float64)
    else:
        v = np.ascontiguousarray(velocity, dtype=np.float64)
        _, inv = np.unique(x, axis=0, return_inverse=True)
        for g in range(inv.max() + 1):
            rows = np.nonzero(inv == g)[0]
            if rows.size > 1 and not np.allclose(v[rows], v[rows[0]], rtol=0, atol=1e-12):
                raise ValueError("velocity spec is multivalued on coincident positions")
    if v.shape != x.shape:
        raise ValueError("velocity array shape must match positions")
    return ParticleEnsemble(x.copy(), v, density_cloud.weights.copy(), 0.0, epsilon_sign)


def cell_velocity_dispersion(ensemble: ParticleEnsemble, spec: GridSpec) -> float:
    """Max over cells of the mass-weighted velocity standard deviation.

    Nearest-grid-point binning; a cold (monokinetic) flow stays near zero
    until particle crossing, when cells pick up both streams.
    """
    dims = np.asarray(spec.dims)
    u = np.clip(np.rint((ensemble.x - spec.lo) / spec.h - 0.5).astype(np.int64), 0, dims - 1)
    flat = np.ravel_multi_index((u[:, 0], u[:, 1], u[:, 2]), spec.dims)
    ncell = int(np.prod(spec.dims))
    msum = np.bincount(flat, weights=ensemble.w, minlength=ncell)
    occupied = msum > 0
    var = np.zeros(ncell)
    for c in range(3):
        s1 = np.bincount(flat, weights=ensemble.w * ensemble.v[:, c], minlength=ncell)
        s2 = np.bincount(flat, weights=ensemble.w * ensemble.v[:, c] ** 2, minlength=ncell)
        mean = np.where(occupied, s1 / np.where(occupied, msum, 1.0), 0.0)
        var += np.where(occupied, s2 / np.where(occupied, msum, 1.0) - mean**2, 0.0)
    return float(np.sqrt(np.clip(var, 0.0, None).max(initial=0.0)))


class CrossingDetector:
    """Reports the first time cold-flow particle crossing is seen.

    Crossing is flagged when the max per-cell velocity dispersion exceeds
    threshold_factor times the current rms speed. Heuristic: it reports,
    it does not stop the run.
    """

    def __init__(self, spec: GridSpec, threshold_factor=0.3):
        self.spec = spec
        self.threshold_factor = threshold_factor
        self.crossing_time = None
        self._first = True
        self._disabled = False

    def observe(self, ensemble: ParticleEnsemble):
        if self._disabled or self.crossing_time is not None:
            return
        disp = cell_velocity_dispersion(ensemble, self.spec)
        rms = float(np.sqrt(coupling_cost(ensemble.w, ensemble.v) / ensemble.total_mass))
        triggered = rms > 0 and disp > self.threshold_factor * rms
        if self._first:
            self._first = False
            if triggered:
                # already dispersed at start: not a cold flow, nothing to report
                self._disabled = True
            return
        if triggered:
            self.crossing_time = ensemble.t


# --------------------------------------------------------------------------
# conserved-quantity monitors


def kinetic_energy(ensemble: ParticleEnsemble) -> float:
    return 0.5 * coupling_cost(ensemble.w, ensemble.v)


def potential_energy_direct(ensemble: ParticleEnsemble, softening) -> float:
    """Pairwise softened interaction energy consistent with DirectSumEvaluator.

    U = (eps/2) sum_{i != j} w_i w_j / (4 pi sqrt(r_ij^2 + s^2)); the total
    H = kinetic + U is conserved by the softened direct-sum dynamics.
    """
    x = ensemble.x
    w = ensemble.w
    diff = x[:, None, :] - x[None, :, :]
    r2 = np.einsum("ijk,ijk->ij", diff, diff) + softening**2
    inv = 1.0 / (fields.FOUR_PI * np.sqrt(r2))
    np.fill_diagonal(inv, 0.0)
    return 0.5 * ensemble.epsilon_sign * float(w @ inv @ w)


def momentum(ensemble: ParticleEnsemble):
    return (ensemble.w[:, None] * ensemble.v).sum(axis=0)
