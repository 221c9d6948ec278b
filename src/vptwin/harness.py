"""Scenario configuration, twin-run orchestration, and file emission.

Config files are plain "key = value" text ('#' comments allowed). The keys
and their parsers are read off the ScenarioConfig fields; unknown keys are
rejected with their line number. Output contains no timestamps; the
README's manifest notes state the determinism contract.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from . import certify, dynamics, fields, scenarios, transport
from .certify import RECORD_COLUMNS, StabilityRecord
from .errors import ConfigError, EscapeError, TwinError

# --------------------------------------------------------------------------
# configuration schema

MAX_STEPS = 1_000_000  # t_final / dt beyond this is a config error, not a run
MAX_GRID_SOLVE_BYTES = 1 << 30  # the same for a run's grid solves, and for its particles


def _parse_softening(s):
    s = str(s).strip()
    return "auto" if s == "auto" else float(s)


@dataclass
class ScenarioConfig:
    scenario: str = "gaussian-blob"
    epsilon: int = 1
    n_particles: int = 4096
    grid_dims: int = 32
    box_edge: float = 8.0
    dt: float = 0.02
    t_final: float = 2.0
    softening: object = "auto"  # 'auto' -> h/2 (field_solves)
    seed: int = 1
    field_mode: str = "grid"  # grid | direct | none
    twin_kind: str = "none"  # none | velocity-shift | resolution | softening
    twin_delta: float = 0.0
    twin_grid_dims_b: int = 64
    ot_stride: int = 10  # 0 disables exact-OT columns
    ot_subsample: int = 512
    snapshot_stride: int = 0  # twin: steps 0, s, 2s, ... (0: none)
    sigma_x: float = 0.6
    sigma_v: float = 0.3
    ball_radius: float = 1.0
    blob_separation: float = 2.0
    hubble_rate: float = 0.3
    beam_speed: float = 1.0
    approach_speed: float = 0.0

    def validate(self):
        for f in dc_fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite")
        if self.scenario not in scenarios.SCENARIO_NAMES:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.epsilon not in (1, -1):
            raise ConfigError("epsilon must be 1 or -1")
        if self.n_particles < 2:
            raise ConfigError("n_particles must be >= 2")
        if self.grid_dims < 2:
            raise ConfigError("grid_dims must be >= 2")
        if self.twin_kind == "resolution" and self.twin_grid_dims_b < 2:
            raise ConfigError("twin_grid_dims_b must be >= 2 with twin_kind = resolution")
        if self.dt <= 0 or self.t_final <= 0:
            raise ConfigError("dt and t_final must be positive")
        if self.box_edge <= 0:
            raise ConfigError("box_edge must be positive")
        if self.field_mode not in ("grid", "direct", "none"):
            raise ConfigError("field_mode must be grid, direct or none")
        if self.twin_kind not in ("none", "velocity-shift", "resolution", "softening"):
            raise ConfigError(f"unknown twin_kind {self.twin_kind!r}")
        for name in ("seed", "snapshot_stride", "sigma_x", "sigma_v", "ball_radius"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        # one rule for the softening of both flows. B's differs from A's only
        # where twin_delta sets it (a softening twin) or where auto resolves
        # on B's grid, to a positive length
        solve_a, solve_b = self.field_solves()
        direct = self.field_mode == "direct"
        for name, length in (("softening", solve_a[1]), ("twin_delta", solve_b[1])):
            if length < 0 or (direct and length == 0):
                raise ConfigError(
                    f"{name} = {length!r}: a softening length must be "
                    + ("> 0 with field_mode = direct" if direct else ">= 0")
                )
        # the solves divide by the cell volume h^3 and by the kernel's
        # 4 pi r^3 at r^2 = 3 box_edge^2 + s^2 (the box diagonal, softened)
        def finite(spec, s):
            r2 = 3.0 * self.box_edge * self.box_edge + s * s
            denom = fields.FOUR_PI * r2 * math.sqrt(r2)
            return math.isfinite(spec.cell_volume) and math.isfinite(denom)

        for name, (spec, length) in (("softening", solve_a), ("twin_delta", solve_b)):
            if not finite(spec, length):
                if not finite(spec, 0.0):
                    name, length = "box_edge", self.box_edge
                raise ConfigError(
                    f"{name} = {length!r}: a field solve's cell volume or kernel "
                    "denominator 4 pi (3 box_edge^2 + s^2)^(3/2) overflows"
                )
        # a twin whose two flows start equal and read the same field is the
        # identity control, which is twin_kind = none
        same_field = {
            "none": True, "direct": solve_a[1] == solve_b[1], "grid": solve_a == solve_b
        }
        if self.twin_kind in ("resolution", "softening") and same_field[self.field_mode]:
            raise ConfigError(
                f"twin_kind = {self.twin_kind} with field_mode = {self.field_mode}"
                ": the two flows cannot differ (twin_kind = none is the identical twin)"
            )
        # and a velocity shift must stand above the positions' round-off
        # (certify.ROUNDOFF_RTOL states the rule), which also refuses zero
        floor = certify.MIN_SHIFT_PER_EDGE * self.box_edge
        if self.twin_kind == "velocity-shift" and abs(self.twin_delta) < floor:
            raise ConfigError(
                f"twin_delta = {self.twin_delta!r}: a velocity shift below {floor:.3g} "
                f"({certify.MIN_SHIFT_PER_EDGE:.3g} box_edge) is lost in the positions' round-off"
            )
        if self.ot_stride < 0 or self.ot_subsample < 1:
            raise ConfigError("ot_stride must be >= 0 and ot_subsample >= 1")
        side = min(self.ot_subsample, self.n_particles)
        if self.ot_stride > 0 and side > transport.MAX_ASSIGNMENT_SIDE:
            raise ConfigError(
                f"ot_subsample: {side} OT points exceed the exact-solver guard "
                f"{transport.MAX_ASSIGNMENT_SIDE}"
            )
        # the ratio, not n_steps: round() overflows when dt is subnormal
        if self.t_final / self.dt > MAX_STEPS:
            raise ConfigError(
                f"t_final / dt = {self.t_final / self.dt:.3g} steps, more than {MAX_STEPS}"
            )
        if self.n_steps < 2:  # certify needs three records: steps 0, 1 and 2
            raise ConfigError(f"t_final / dt rounds to {self.n_steps} step(s), fewer than 2")
        grid, kernels = self._grid_memory()
        grid_keys = ["grid_dims"]
        if self.twin_kind == "resolution":
            grid_keys.append("twin_grid_dims_b")
        particles, kept = self._particle_memory()
        particle_keys = ["n_particles", "snapshot_stride"] if kept else ["n_particles"]
        for need, keys, what, detail in (
            (grid, grid_keys, "grid solves", f"{len(kernels)} kernel(s) and two threads"),
            (particles, particle_keys, "particle arrays", f"{kept} kept snapshot(s)"),
        ):
            if need > MAX_GRID_SOLVE_BYTES:
                sizes = ", ".join(f"{key} = {getattr(self, key)}" for key in keys)
                raise ConfigError(
                    f"{sizes}: the {what} of a run, with {detail}, need about "
                    f"{need / 2**20:.0f} MiB, more than the "
                    f"{MAX_GRID_SOLVE_BYTES >> 20} MiB cap"
                )
        return self

    def field_solves(self):
        """The (spec, softening) of flow A's and flow B's field solves; the
        one place that picks a solve's grid and softening, and B's from
        twin_kind. "auto" is h/2 on the solve's grid (the deposition scale).
        The diagnostics (densities, Prop. 3.1's difference, a direct-sum
        probe's rho_A) solve with A's, the operator A steps with. An
        explicit length is returned unchecked, for validate to name."""

        def solve(spec, softening=self.softening):
            return spec, 0.5 * spec.h if softening == "auto" else float(softening)

        a = solve(self.grid_spec)
        b = a
        if self.twin_kind == "resolution":
            b = solve(fields.GridSpec(self.box_edge, self.twin_grid_dims_b))
        elif self.twin_kind == "softening":
            b = solve(self.grid_spec, self.twin_delta)
        return a, b

    def _grid_memory(self):
        """(bytes, kernels): the most a run holds for its grid solves, and
        the (n, softening) of each kernel it keeps.

        A kernel (fields._kernel_fft) is three (2n)^2 (n+1) complex spectra
        per distinct (grid, softening), kept for the run: both flows' on a
        grid run, else flow A's, which the diagnostics solve with. Per grid
        shape, each of a twin's two threads keeps a workspace of two spectra
        and has one solve in flight: the scaled mass (8 n^3 B) and the field
        (24 n^3 B); every transform writes into the workspace (a density
        difference, 8 n^3 B, is gone once scaled). The run also keeps the
        two flows' fields and densities (64 n^3 B), the diagnostics'
        difference field (24 n^3 B), and on a direct-sum run the probe's
        solve of rho_A (24 n^3 B). A kernel build's scratch, full (2n)^3
        arrays denom (float64), mask (bool) and one kernel (float64) plus
        one spectrum's rfftn intermediate, adds to what the run keeps by
        then: two spectra of its own for the first build, everything for a
        later one (builds never overlap). On top, the malloc arena of a
        twin's second thread may keep freed blocks up to glibc's trim
        threshold, twice the largest block it has unmapped: two spectra of
        the largest grid, at most 2 x 32 MiB.
        """

        def spectrum(n):
            return (2 * n) ** 2 * (n + 1) * 16

        a, b = self.field_solves()
        solves = [a, b] if self.field_mode == "grid" else [a]
        kernels = {(spec.n, softening) for spec, softening in solves}
        shapes = {n for n, _ in kernels}
        kept = 176 if self.field_mode == "direct" else 152
        keep = sum(3 * spectrum(n) for n, _ in kernels) + sum(
            4 * spectrum(n) + kept * n**3 for n in shapes
        )
        scratch = max(17 * (2 * n) ** 3 + spectrum(n) for n, _ in kernels)
        before = keep if len(kernels) > 1 else 3 * spectrum(self.grid_dims)
        arena = 2 * min(spectrum(max(shapes)), 32 << 20)
        return max(keep, before + scratch) + arena, kernels

    def _particle_memory(self):
        """(bytes, snapshots): the most a twin holds in per-particle arrays,
        and how many snapshots it keeps. Per particle: both flows' x and v,
        the weights they share and both accelerations (152 B), and on each
        of two threads a step's half-kick velocity (24 B) and CIC deposit
        scratch (224 B under tracemalloc: the 8 corners' cells and shares,
        128 B, and the cell coordinates they are built from); 96 B per kept
        snapshot of both ensembles' x and v, which share the weights too.
        The observer runs once both steps are done and holds less than
        their scratch: T1/T2, with its cross field in two halves and their
        concatenation (48 B), peaks under 200 B under tracemalloc, beside
        a direct sum's fixed-size block planes on each thread."""
        kept = self.n_steps // self.snapshot_stride + 1 if self.snapshot_stride else 0
        return self.n_particles * (152 + 2 * 248 + 96 * kept), kept

    @property
    def grid_spec(self):
        return fields.GridSpec(self.box_edge, self.grid_dims)

    @property
    def n_steps(self):
        return int(round(self.t_final / self.dt))


# one parser per config key, read off the ScenarioConfig annotations
# (strings under `from __future__ import annotations`)
_PARSERS = {"int": int, "float": float, "str": str}
_SCHEMA = {
    f.name: _parse_softening if f.name == "softening" else _PARSERS[f.type]
    for f in dc_fields(ScenarioConfig)
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse key = value config text; unknown keys raise with line numbers."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _SCHEMA[key](val)
        except (ValueError, TypeError) as err:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {err}") from err
    return ScenarioConfig(**values).validate()


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return parse_config(text)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Canonical text form; parse(serialize(cfg)) == cfg."""
    lines = []
    for f in dc_fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, float):
            v = f"{v:.17g}"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# record CSV (column order is a frozen compatibility contract)


def _fmt(v):
    if v is None:
        return ""
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _bad_cell(v):
    """Why v cannot stand in a ledger cell, or None. A nan would slip past
    the verdict's max(), and every column is a time, count, norm or sum of
    squares: a negative Q has no excess over the one-step bound and would
    pass the gronwall check unseen. -0.0 is zero."""
    if not math.isfinite(v):
        return "non-finite value"
    if v < 0:
        return "negative value"
    return None


def write_records(path, records):
    for r in records:
        for col in RECORD_COLUMNS:
            v = getattr(r, col)
            bad = None if v is None else _bad_cell(v)
            if bad:
                raise ValueError(f"{bad} in column {col} at step {r.step}")
    with open(path, "w") as fh:
        fh.write(",".join(RECORD_COLUMNS) + "\n")
        for r in records:
            fh.write(",".join(_fmt(getattr(r, col)) for col in RECORD_COLUMNS) + "\n")


def read_records(path):
    """The records of a write_records CSV; a malformed cell, or one that
    write_records refuses, raises ValueError naming its line and column."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header != RECORD_COLUMNS:
            raise ValueError(f"{path}: unexpected record columns {header}")
        records = []
        for lineno, line in enumerate(fh, start=2):
            cells = line.rstrip("\n").split(",")
            if len(cells) != len(header):
                raise ValueError(
                    f"{path}: line {lineno}: {len(cells)} cells, expected {len(header)}"
                )
            kwargs = {}
            for col, cell in zip(header, cells):
                try:
                    if cell == "":
                        kwargs[col] = None
                    else:
                        kwargs[col] = int(cell) if col == "step" else float(cell)
                        bad = _bad_cell(kwargs[col])
                        if bad:
                            raise ValueError(f"{bad} {cell!r}")
                except ValueError as err:
                    raise ValueError(f"{path}: line {lineno}: column {col}: {err}") from err
            records.append(StabilityRecord(**kwargs))
    return records


# --------------------------------------------------------------------------
# evaluators and twin observer


def _make_evaluator(cfg, spec, softening):
    """The field of one flow, from its field_solves entry and the run's sign."""
    if cfg.field_mode == "none":
        return dynamics.ZeroFieldEvaluator()
    if cfg.field_mode == "direct":
        return dynamics.DirectSumEvaluator(softening, cfg.epsilon)
    return dynamics.GridFieldEvaluator(spec, softening, cfg.epsilon)


@dataclass
class TwinResult:
    records: list
    snapshots: dict  # step -> (ensemble A copy, ensemble B copy)
    crossing_time_a: float
    crossing_time_b: float


class _TwinObserver:
    """Assembles one StabilityRecord per step; exact-OT extras on a stride.
    It deposits and solves with flow A's grid and softening (field_solves)."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        (self.spec, self.softening), _ = cfg.field_solves()
        self.records = []
        self.snapshots = {}
        self.crossing_a = dynamics.CrossingDetector(self.spec)
        self.crossing_b = dynamics.CrossingDetector(self.spec)
        n = cfg.n_particles
        m = min(cfg.ot_subsample, n)
        self.sub_idx = np.linspace(0, n - 1, m).astype(np.int64)
        self.sub_scale = n / m  # keeps the subsample total mass equal to M

    def __call__(self, step, flow_a, flow_b):
        cfg = self.cfg
        ens_a, ens_b = flow_a.ensemble, flow_b.ensemble
        q, s, max_gap = certify.compute_gaps(ens_a, ens_b)
        rec = StabilityRecord(step=step, t=ens_a.t, Q=q, S=s, max_gap=max_gap)

        rho_a = self._density(flow_a, "A")
        rho_b = self._density(flow_b, "B")
        rec.sup_rho1 = rho_a.sup_norm
        rec.sup_rho2 = rho_b.sup_norm

        if cfg.field_mode != "none":
            # T1/T2's cross field F_B(X_A), in two row halves on the two threads
            rec.T1, rec.T2 = certify.compute_T1_T2(
                ens_a, ens_b, flow_a.accel, flow_b.accel,
                lambda x: dynamics.evaluate_in_halves(flow_b.evaluator.accel, x),
            )

        stride = cfg.ot_stride
        if stride > 0 and (step % stride == 0 or step == cfg.n_steps):
            self._stride_extras(rec, flow_a, flow_b, rho_a, rho_b)

        self.crossing_a.observe(ens_a)
        self.crossing_b.observe(ens_b)
        if cfg.snapshot_stride > 0 and step % cfg.snapshot_stride == 0:
            self.snapshots[step] = (ens_a.copy(), ens_b.copy())
        self.records.append(rec)

    def _density(self, flow, branch):
        """The flow's density on flow A's grid: the evaluator's own deposit
        of this step when it has one on that grid, else a new one.
        A particle outside that grid fails the twin run in this branch."""
        rho = getattr(flow.evaluator, "density", None)
        if rho is not None and rho.spec == self.spec:
            return rho
        try:
            return dynamics.deposit(flow.ensemble, self.spec)
        except EscapeError as err:
            raise TwinError(branch, err) from err

    def _subsample(self, ens):
        """The flow's OT subsample, its weights scaled to keep the mass M."""
        idx = self.sub_idx
        return dynamics.ParticleEnsemble(
            ens.x[idx], ens.v[idx], ens.w[idx] * self.sub_scale, ens.t
        )

    def _stride_extras(self, rec, flow_a, flow_b, rho_a, rho_b):
        # one subsampled pair gives both the paired costs and the W2 clouds,
        # so every feasible-plan check compares like with like
        sub_a, sub_b = self._subsample(flow_a.ensemble), self._subsample(flow_b.ensemble)
        rec.Q_sub, rec.S_sub, _ = certify.compute_gaps(sub_a, sub_b)

        def transports():
            w2_rho, _ = transport.w2_exact(sub_a.position_cloud(), sub_b.position_cloud())
            w2_phase, _ = transport.w2_exact(sub_a.phase_cloud(), sub_b.phase_cloud())
            return w2_rho, w2_phase, self._loglip(flow_a, rho_a)

        def difference():
            diff = fields.DensityDifference(rho_a, rho_b)
            return fields.solve_field_grid(diff, self.softening)

        # side by side (perfbench's tracer keeps one span stack: only these
        # two, the branch steps and the two halves of T1/T2's cross field
        # may overlap): the one solve of Prop. 3.1's left side, the longest
        # single work, on the helper, and both W2 problems and the probe of
        # flow A's field on this thread
        (rec.W2_rho, rec.W2_phase, rec.loglip_C), diff_field = dynamics.run_pair(
            transports, difference
        )
        rec.field_l2_diff = fields.field_l2_diff(diff_field)
        rec.prop31_rhs = certify.prop31_rhs(rec.sup_rho1, rec.sup_rho2, rec.W2_rho)

    def _loglip(self, flow_a, rho_a):
        """loglip_modulus of flow A's field, the accel it steps with, on
        the cell-center hull of flow A's grid (a grid field's trilinear
        interpolation is only defined there), or None where its separations
        do not fit. On a direct-sum flow it reads a grid solve of rho_A with
        A's softening instead, made on the first evaluation
        (loglip_modulus refuses before it evaluates, so a coarse grid never
        solves it): perfbench's layer table expects merger-direct to
        interpolate a grid field."""
        field_a = None

        def solved(points):
            nonlocal field_a
            if field_a is None:
                field_a = fields.solve_field_grid(rho_a, self.softening)
            return field_a.interpolate(points)

        evaluate = solved if self.cfg.field_mode == "direct" else flow_a.evaluator.accel
        h = self.spec.h
        try:
            return fields.loglip_modulus(
                evaluate,
                self.spec.lo + 0.5 * h,
                self.spec.hi - 0.5 * h,
                s_min=h,
                seed=self.cfg.seed,
            )
        except ValueError:
            return None


def run_twin_config(cfg: ScenarioConfig) -> TwinResult:
    """Sample f0 as branch A, copy it as branch B (shifted for a
    velocity-shift twin), and run both."""
    cfg.validate()
    ens_a = scenarios.sample_initial(cfg)
    ens_b = ens_a.copy()
    if cfg.twin_kind == "velocity-shift":
        ens_b.v += (cfg.twin_delta, 0.0, 0.0)
    eval_a, eval_b = (_make_evaluator(cfg, *s) for s in cfg.field_solves())
    obs = _TwinObserver(cfg)
    dynamics.run_twin(ens_a, ens_b, eval_a, eval_b, cfg.dt, cfg.n_steps, obs)
    return TwinResult(
        obs.records, obs.snapshots, obs.crossing_a.crossing_time, obs.crossing_b.crossing_time
    )


# --------------------------------------------------------------------------
# output files and manifest


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(outdir, cfg, filenames):
    entries = []
    for name in sorted(filenames):
        p = os.path.join(outdir, name)
        entries.append({"name": name, "sha256": _sha256(p), "bytes": os.path.getsize(p)})
    manifest = {"config": serialize_config(cfg), "files": entries}
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _save_snapshot(outdir, tag, step, ens, written):
    name = f"snapshot_{tag}{step:06d}.txt"
    transport.save_cloud(ens.phase_cloud(), os.path.join(outdir, name))
    written.append(name)


def emit_twin(cfg: ScenarioConfig, outdir) -> str:
    """cli twin: paired snapshots + the StabilityRecord CSV + manifest."""
    result = run_twin_config(cfg)
    os.makedirs(outdir, exist_ok=True)
    written = ["config.txt", "records.csv"]
    with open(os.path.join(outdir, "config.txt"), "w") as fh:
        fh.write(serialize_config(cfg))
    write_records(os.path.join(outdir, "records.csv"), result.records)
    for step in sorted(result.snapshots):
        ens_a, ens_b = result.snapshots[step]
        _save_snapshot(outdir, "a_", step, ens_a, written)
        _save_snapshot(outdir, "b_", step, ens_b, written)
    notes = {
        "crossing_time_a": result.crossing_time_a,
        "crossing_time_b": result.crossing_time_b,
    }
    with open(os.path.join(outdir, "run_notes.json"), "w") as fh:
        json.dump(notes, fh, sort_keys=True, indent=1)
        fh.write("\n")
    written.append("run_notes.json")
    return write_manifest(outdir, cfg, written)


def emit_certification(records, outdir):
    """cli certify: certification CSV (records + flags) and summary text.

    The verdict depends on the records alone: the Prop. 3.1 threshold is
    certify.PROP31_TOL and every record is certified. The gronwall_ok and
    envelope columns are certify's per-record results, written as given:
    gronwall_ok is empty on the first record and, on every other, 1 or 0
    as the leapfrog step into that record keeps the one-step bound on Q."""
    result = certify.certify_records(records)
    os.makedirs(outdir, exist_ok=True)
    cert_path = os.path.join(outdir, "certification.csv")
    with open(cert_path, "w") as fh:
        fh.write(",".join(RECORD_COLUMNS + ["gronwall_ok", "envelope"]) + "\n")
        for r, ok, y in zip(records, result.gronwall.per_step_ok, result.containment.envelope):
            fh.write(
                ",".join(_fmt(getattr(r, col)) for col in RECORD_COLUMNS)
                + f",{'' if ok is None else int(ok)},{_fmt(y)}\n"
            )
    summary_path = os.path.join(outdir, "summary.txt")
    with open(summary_path, "w") as fh:
        for line in result.summary_lines:
            fh.write(line + "\n")
    return result, cert_path, summary_path


def _read_manifest(path):
    """The write_manifest object at ``path``; ValueError names what it
    lacks: a string config, or a files list of name/bytes/sha256 entries."""
    with open(path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest is not a JSON object")
    for key, kind in (("config", str), ("files", list)):
        if not isinstance(manifest.get(key), kind):
            raise ValueError(f"{path}: manifest lacks a {kind.__name__} {key!r}")
    for k, entry in enumerate(manifest["files"]):
        entry = entry if isinstance(entry, dict) else {}
        missing = [
            key for key, kind in (("name", str), ("bytes", int), ("sha256", str))
            if not isinstance(entry.get(key), kind)
        ]
        if missing:
            raise ValueError(f"{path}: files[{k}] lacks {', '.join(missing)}")
    return manifest


def _listed_file(srcdir, entries, name):
    """The path of ``name`` next to the manifest if the manifest lists it,
    else None; ValueError if its size or sha256 differs from that entry."""
    entry = entries.get(name)
    if entry is None:
        return None
    path = os.path.join(srcdir, name)
    if os.path.getsize(path) != entry["bytes"] or _sha256(path) != entry["sha256"]:
        raise ValueError(f"{path}: size or sha256 differs from its manifest entry")
    return path


def emit_report(manifest_path, outdir):
    """cli report: consolidated text report + plot-ready CSV tables. The
    records.csv and run_notes.json next to the manifest are read only if
    the manifest lists them, and only if their size and sha256 match
    those entries."""
    manifest = _read_manifest(manifest_path)
    srcdir = os.path.dirname(os.path.abspath(manifest_path))
    lines = ["consolidated run report", "", "config:", manifest["config"], "files:"]
    for entry in manifest["files"]:
        lines.append(f"  {entry['name']}  {entry['bytes']} B  sha256 {entry['sha256']}")
    entries = {e["name"]: e for e in manifest["files"]}
    table = None
    rec_path = _listed_file(srcdir, entries, "records.csv")
    if rec_path is not None:
        records = read_records(rec_path)
        result = certify.certify_records(records)
        lines += ["", "certification:"] + ["  " + ln for ln in result.summary_lines]
        table = ["t,Q,T1,T2,W2_rho,W2_phase"] + [
            ",".join(_fmt(v) for v in (r.t, r.Q, r.T1, r.T2, r.W2_rho, r.W2_phase))
            for r in records
        ]
    notes_path = _listed_file(srcdir, entries, "run_notes.json")
    if notes_path is not None:
        with open(notes_path) as fh:
            notes = json.load(fh)
        lines += ["", "cold-flow crossing:"]
        for branch in "AB":
            key = f"crossing_time_{branch.lower()}"
            t = notes.get(key, "") if isinstance(notes, dict) else ""
            if t is not None and not isinstance(t, float):
                raise ValueError(f"{notes_path}: {key} is neither a time nor null")
            lines.append(f"  branch {branch}: " + ("none seen" if t is None else f"t = {t!r}"))
    os.makedirs(outdir, exist_ok=True)
    if table is not None:
        with open(os.path.join(outdir, "q_table.csv"), "w") as fh:
            fh.write("\n".join(table) + "\n")
    report_path = os.path.join(outdir, "report.txt")
    with open(report_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return report_path
