"""Characteristic flow of the Vlasov-Poisson system.

Particles follow dX/dt = xi, dxi/dt = epsilon grad Psi(t, X) with
Delta Psi = rho and a kick-drift-kick leapfrog; each evaluator applies the
run's sign epsilon. The field is refreshed from a cloud-in-cell deposit
after each drift (grid mode), from softened direct summation (direct
mode), or held at zero for control runs. Twin runs advance the two
ensembles they are handed, branch B on a helper thread beside branch A.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import fields
from .errors import DivergenceError, TwinError, VptwinError
from .fields import GridDensity, GridSpec, deposit_cic
from .transport import WeightedCloud, coupling_cost, ordered_sum


@dataclass
class ParticleEnsemble:
    """Weighted phase-space point cloud representing f(t)."""

    x: np.ndarray  # (N, 3) positions
    v: np.ndarray  # (N, 3) velocities
    w: np.ndarray  # (N,) weights
    t: float = 0.0

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
        return ordered_sum(self.w.copy())

    def copy(self):
        """New x and v arrays; the weights are shared, since nothing writes
        w after sampling."""
        return ParticleEnsemble(self.x.copy(), self.v.copy(), self.w, self.t)

    def position_cloud(self) -> WeightedCloud:
        return WeightedCloud(self.x, self.w)

    def phase_cloud(self) -> WeightedCloud:
        return WeightedCloud(np.hstack([self.x, self.v]), self.w)


def deposit(ensemble: ParticleEnsemble, spec: GridSpec) -> GridDensity:
    """CIC deposit of the ensemble; realizes the position push-forward of f0."""
    values = deposit_cic(ensemble.x, ensemble.w, spec)
    return GridDensity(spec, values)


# --------------------------------------------------------------------------
# field evaluators (acceleration sources)


class ZeroFieldEvaluator:
    """Free streaming: grad Psi identically zero."""

    def refresh(self, ensemble):
        pass

    def accel(self, points):
        return np.zeros((np.atleast_2d(points).shape[0], 3))


class GridFieldEvaluator:
    """Deposit -> free-space grid solve -> trilinear interpolation, times epsilon."""

    def __init__(self, spec: GridSpec, softening, epsilon):
        self.spec = spec
        self.softening = softening
        self.epsilon = epsilon
        self.density = None
        self.field = None

    def refresh(self, ensemble):
        self.density = deposit(ensemble, self.spec)
        self.field = fields.solve_field_grid(self.density, self.softening)

    def accel(self, points):
        return self.epsilon * self.field.interpolate(points)


class DirectSumEvaluator:
    """Softened pairwise summation over the ensemble itself (no mesh), times
    epsilon. The length is positive (ScenarioConfig.validate); with zero
    softening the first self-field raises SingularityError."""

    def __init__(self, softening, epsilon):
        self.softening = softening
        self.epsilon = epsilon
        self._sources = None
        self._weights = None

    def refresh(self, ensemble):
        self._sources = ensemble.x.copy()
        self._weights = ensemble.w

    def accel(self, points):
        field = fields.solve_field_direct(self._sources, self._weights, points, self.softening)
        return self.epsilon * field


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


def evaluate_in_halves(evaluate, points):
    """evaluate(points), the first half of the rows on this thread and the
    second on the helper (run_pair), joined in order.

    Both field evaluators compute each row on its own (solve_field_direct
    sums a target in source order whatever its block, and interpolation
    is per point), so every bit is that of the whole call. If a half
    raises, the whole call is made again, so the error is the one it
    raises and names all the rows at fault. Not for use inside work run
    by run_pair: the one helper would wait on itself.
    """
    mid = len(points) // 2
    try:
        lo, hi = run_pair(lambda: evaluate(points[:mid]), lambda: evaluate(points[mid:]))
    except Exception:
        return evaluate(points)
    return np.concatenate((lo, hi))


def _in_branch(branch, work, *args):
    """work(*args), a package error re-raised as TwinError naming branch."""
    try:
        return work(*args)
    except VptwinError as err:
        raise TwinError(branch, err) from err


def run_twin(
    ens_a: ParticleEnsemble,
    ens_b: ParticleEnsemble,
    evaluator_a,
    evaluator_b,
    dt: float,
    n_steps: int,
    observer,
):
    """Advance the two ensembles in place, flow A from ens_a and flow B
    from ens_b; they must share no array.

    The caller owns both ensembles and the difference between them (e.g.
    a velocity shift of B); nothing is copied here. observer(step, flow_a,
    flow_b) is called after initialization (step 0) and after every step.
    Equal ensembles and identical evaluators give bitwise-identical
    trajectories. A package error in a branch's set-up or steps is raised
    as TwinError naming the branch (branch A when both fail in one step),
    and the observer is not called for that step.

    Branch B's set-up and steps run on the helper thread beside branch
    A's (run_pair); the observer runs once both are done. Each branch does
    the same arithmetic on whichever thread runs it, so every result bit
    is the same whatever the thread scheduling.
    """
    flows = run_pair(
        lambda: _in_branch("A", FlowState, ens_a, evaluator_a, dt),
        lambda: _in_branch("B", FlowState, ens_b, evaluator_b, dt),
    )
    observer(0, *flows)
    for k in range(1, n_steps + 1):
        run_pair(
            lambda: _in_branch("A", step_leapfrog, flows[0]),
            lambda: _in_branch("B", step_leapfrog, flows[1]),
        )
        observer(k, *flows)
    return flows


# --------------------------------------------------------------------------
# cold-flow diagnostics

CROSSING_THRESHOLD = 0.3  # the per-cell dispersion, over the rms speed, that flags crossing


def cell_velocity_dispersion(ensemble: ParticleEnsemble, spec: GridSpec) -> float:
    """Max over cells of the mass-weighted velocity standard deviation.

    Nearest-grid-point binning; a cold (monokinetic) flow stays near zero
    until particle crossing, when cells pick up both streams.
    """
    n = spec.n
    u = np.clip(np.rint((ensemble.x - spec.lo) / spec.h - 0.5).astype(np.int64), 0, n - 1)
    flat = np.ravel_multi_index((u[:, 0], u[:, 1], u[:, 2]), spec.dims)
    ncell = n**3
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
    CROSSING_THRESHOLD times the current rms speed. Both are taken of the
    velocities about the mass-weighted mean velocity, so a uniform shift
    of every velocity changes neither; a per-cell E[v^2] - E[v]^2 of a
    cold flow with a bulk velocity would otherwise be rounding noise.
    The start is not read: one step from rest gives v ~ a dt, whose ratio
    is the field's variation within a cell. A flow dispersed at its first
    step's reading is taken as warm (or already past crossing): no report.
    Heuristic: it reports, it does not stop the run.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.crossing_time = None
        self._readings = 0
        self._disabled = False

    def observe(self, ensemble: ParticleEnsemble):
        self._readings += 1
        if self._readings == 1 or self._disabled or self.crossing_time is not None:
            return
        w, mass = ensemble.w, ensemble.total_mass
        mean = [ordered_sum(w * ensemble.v[:, c]) / mass for c in range(3)]
        relative = ParticleEnsemble(ensemble.x, ensemble.v - mean, w, ensemble.t)
        disp = cell_velocity_dispersion(relative, self.spec)
        rms = float(np.sqrt(coupling_cost(w, relative.v) / mass))
        if rms > 0 and disp > CROSSING_THRESHOLD * rms:
            if self._readings == 2:
                self._disabled = True  # not a cold flow after its first step
            else:
                self.crossing_time = ensemble.t
