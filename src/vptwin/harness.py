"""Scenario configuration, twin-run orchestration, and file emission.

Config files are plain "key = value" text ('#' comments allowed). The keys
and their parsers are read off the ScenarioConfig fields; unknown keys are
rejected with their line number. Output contains no timestamps,
so reruns of one config + seed are byte-identical on the same machine and
library build, at any thread count. A twin runs branch B on a helper
thread beside branch A (dynamics.run_pair); each branch does the same
arithmetic as alone, so no byte depends on thread scheduling. Across
builds the bytes may move where two computations follow the library's
order of operations: the FFT of the grid solve (pocketfft), and the one
coupling-cost sum, transport.coupling_cost, an np.sum behind Q, S, Q_sub,
S_sub, T1, T2, the W2 costs and the crossing detector's rms speed. The other sums state
their order in the code: the direct sum and the per-row squared norms
add in a written-out order, and field_l2_diff is summed correctly
rounded, so it depends on the field bits alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, fields as dc_fields, replace

import numpy as np

from . import certify, dynamics, fields, scenarios, transport
from .certify import RECORD_COLUMNS, StabilityRecord
from .errors import ConfigError, EscapeError, TwinError

# --------------------------------------------------------------------------
# configuration schema

MAX_STEPS = 1_000_000  # t_final / dt beyond this is a config error, not a run
MAX_GRID_SOLVE_BYTES = 1 << 30  # the same for the memory of a run's grid solves


def _parse_vec3(s):
    parts = [float(p) for p in str(s).replace(",", " ").split()]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise ValueError("expected 1 or 3 numbers")
    return tuple(parts)


def _parse_softening(s):
    s = str(s).strip()
    return "auto" if s == "auto" else float(s)


@dataclass
class ScenarioConfig:
    scenario: str = "gaussian-blob"
    epsilon: int = 1
    n_particles: int = 4096
    grid_dims: int = 32
    box_center: tuple = (0.0, 0.0, 0.0)
    box_edge: float = 8.0
    dt: float = 0.02
    t_final: float = 2.0
    softening: object = "auto"  # 'auto' -> h/2 (fields.resolve_softening)
    seed: int = 1
    field_mode: str = "grid"  # grid | direct | none
    twin_kind: str = "none"  # none | velocity-shift | resolution | softening
    twin_delta: float = 0.0
    twin_grid_dims_b: int = 64
    ot_stride: int = 10  # 0 disables exact-OT columns
    ot_subsample: int = 512
    snapshot_stride: int = 0  # 0 -> endpoints only
    crossing_threshold: float = 0.3
    sup_rho_ceiling: float = 0.0  # 0 disables the bounded-density flag
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
            if any(isinstance(c, float) and not math.isfinite(c)
                   for c in (v if isinstance(v, tuple) else (v,))):
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
        if self.dt <= 0 or self.t_final <= 0 or not self.dt < self.t_final:
            raise ConfigError("need 0 < dt < t_final")
        if self.box_edge <= 0:
            raise ConfigError("box_edge must be positive")
        if self.field_mode not in ("grid", "direct", "none"):
            raise ConfigError("field_mode must be grid, direct or none")
        if self.twin_kind not in ("none", "velocity-shift", "resolution", "softening"):
            raise ConfigError(f"unknown twin_kind {self.twin_kind!r}")
        # one rule for the softening of both flows; a softening twin runs B
        # at twin_delta
        softenings = [("softening", self.softening)]
        if self.twin_kind == "softening":
            softenings.append(("twin_delta", self.twin_delta))
        direct = self.field_mode == "direct"
        for name, length in softenings:
            if length != "auto" and (length < 0 or (direct and length == 0)):
                raise ConfigError(
                    f"{name} = {length!r}: a softening length must be "
                    + ("> 0 with field_mode = direct" if direct else ">= 0")
                )
        need, kernels = self._grid_memory()
        if need > MAX_GRID_SOLVE_BYTES:
            sizes = [f"grid_dims = {self.grid_dims}"]
            if self.twin_kind == "resolution":
                sizes.append(f"twin_grid_dims_b = {self.twin_grid_dims_b}")
            raise ConfigError(
                f"{', '.join(sizes)}: the grid solves of a run, with {kernels} "
                f"kernel(s) and two threads, need about {need / 2**20:.0f} MiB, "
                f"more than the {MAX_GRID_SOLVE_BYTES >> 20} MiB cap"
            )
        if self.crossing_threshold <= 0:
            raise ConfigError("crossing_threshold must be positive")
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
        return self

    def _grid_memory(self):
        """(bytes, kernels): the most a run holds for its grid solves, and
        how many kernels it keeps.

        A kernel (fields._kernel_fft) is three (2n)^2 (n+1) complex spectra
        per distinct (grid, softening), kept for the run; the diagnostic
        solves use h/2 on grid_dims whatever the flows use. Per grid shape,
        each of a twin's two threads keeps a workspace of two spectra and
        has one solve in flight: the scaled mass (8 n^3 B), the rfft output
        (a quarter spectrum), the irfft output (16 n^3 B) and the field
        (24 n^3 B). The run also keeps the two flows' fields and densities
        and the two diagnostic fields, 112 n^3 B. A kernel build's scratch,
        full (2n)^3 arrays denom (float64), mask (bool) and one kernel
        (float64) plus one spectrum's rfftn intermediate, adds to what the
        run keeps by then: two spectra of its own for the first build,
        everything for a later one (builds never overlap).
        """

        def spectrum(n):
            return (2 * n) ** 2 * (n + 1) * 16

        spec = self.grid_spec
        kernels = {(self.grid_dims, fields.resolve_softening(spec))}
        if self.field_mode == "grid":
            kernels.add((self.grid_dims, self.softening_length(spec)))
            if self.twin_kind == "resolution":
                spec_b = fields.GridSpec(self.box_center, self.box_edge, self.twin_grid_dims_b)
                kernels.add((self.twin_grid_dims_b, self.softening_length(spec_b)))
            elif self.twin_kind == "softening":
                kernels.add((self.grid_dims, float(self.twin_delta)))
        shapes = {n for n, _ in kernels}
        keep = sum(3 * spectrum(n) for n, _ in kernels) + sum(
            9 * spectrum(n) // 2 + 208 * n**3 for n in shapes
        )
        scratch = max(17 * (2 * n) ** 3 + spectrum(n) for n, _ in kernels)
        before = keep if len(kernels) > 1 else 3 * spectrum(self.grid_dims)
        return max(keep, before + scratch), len(kernels)

    @property
    def grid_spec(self):
        return fields.GridSpec(self.box_center, self.box_edge, self.grid_dims)

    @property
    def n_steps(self):
        return int(round(self.t_final / self.dt))

    def softening_length(self, spec):
        auto = self.softening == "auto"
        return fields.resolve_softening(spec, None if auto else self.softening)


# one parser per config key, read off the ScenarioConfig annotations
# (strings under `from __future__ import annotations`)
_PARSERS = {"int": int, "float": float, "str": str, "tuple": _parse_vec3}
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
        if isinstance(v, tuple):
            v = " ".join(f"{c:.17g}" for c in v)
        elif isinstance(v, float):
            v = f"{v:.17g}"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# record CSV (column order is a frozen compatibility contract)


def _fmt(v):
    if v is None:
        return ""
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def write_records(path, records):
    for r in records:
        for col in RECORD_COLUMNS:
            v = getattr(r, col)
            if v is not None and not np.isfinite(v):
                raise ValueError(f"non-finite value in column {col} at step {r.step}")
    with open(path, "w") as fh:
        fh.write(",".join(RECORD_COLUMNS) + "\n")
        for r in records:
            fh.write(",".join(_fmt(getattr(r, col)) for col in RECORD_COLUMNS) + "\n")


def read_records(path):
    """The records of a write_records CSV; a malformed or non-finite cell
    raises ValueError naming its line and column."""
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
                    elif col == "step":
                        kwargs[col] = int(cell)
                    else:
                        kwargs[col] = float(cell)
                        # a nan would slip past the verdict's max()
                        if not math.isfinite(kwargs[col]):
                            raise ValueError(f"non-finite value {cell!r}")
                except ValueError as err:
                    raise ValueError(f"{path}: line {lineno}: column {col}: {err}") from err
            records.append(StabilityRecord(**kwargs))
    return records


# --------------------------------------------------------------------------
# evaluators and twin observer


def _make_evaluator(cfg, variant_b=False):
    spec = cfg.grid_spec
    mode = cfg.field_mode
    softening = cfg.softening_length(spec)
    if variant_b and cfg.twin_kind == "resolution":
        spec = fields.GridSpec(cfg.box_center, cfg.box_edge, cfg.twin_grid_dims_b)
        softening = cfg.softening_length(spec)
    if variant_b and cfg.twin_kind == "softening":
        softening = cfg.twin_delta
    if mode == "none":
        return dynamics.ZeroFieldEvaluator()
    if mode == "direct":
        return dynamics.DirectSumEvaluator(softening)
    return dynamics.GridFieldEvaluator(spec, softening=softening)


def _perturbation(cfg):
    if cfg.twin_kind == "velocity-shift":
        shift = np.array([cfg.twin_delta, 0.0, 0.0])

        def perturb(ens):
            ens.v += shift

        return perturb
    return None


@dataclass
class TwinResult:
    config: ScenarioConfig
    records: list
    snapshots: dict  # step -> (ensemble A copy, ensemble B copy)
    crossing_time_a: float
    crossing_time_b: float
    sup_rho_flagged: bool


class _TwinObserver:
    """Assembles one StabilityRecord per step; exact-OT extras on a stride."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.spec = cfg.grid_spec  # common diagnostics grid
        self.records = []
        self.snapshots = {}
        self.sup_rho_flagged = False
        self.crossing_a = dynamics.CrossingDetector(self.spec, cfg.crossing_threshold)
        self.crossing_b = dynamics.CrossingDetector(self.spec, cfg.crossing_threshold)
        n = cfg.n_particles
        m = min(cfg.ot_subsample, n)
        self.sub_idx = np.linspace(0, n - 1, m).astype(np.int64)
        self.sub_scale = n / m  # keeps the subsample total mass equal to M

    def __call__(self, step, flow_a, flow_b):
        cfg = self.cfg
        ens_a, ens_b = flow_a.ensemble, flow_b.ensemble
        rec = StabilityRecord(
            step=step,
            t=ens_a.t,
            Q=certify.compute_Q(ens_a, ens_b),
            S=certify.compute_S(ens_a, ens_b),
            max_gap=certify.compute_max_gap(ens_a, ens_b),
        )

        rho_a = self._density(flow_a, "A")
        rho_b = self._density(flow_b, "B")
        rec.sup_rho1 = rho_a.sup_norm
        rec.sup_rho2 = rho_b.sup_norm
        if cfg.sup_rho_ceiling > 0 and max(rec.sup_rho1, rec.sup_rho2) > cfg.sup_rho_ceiling:
            self.sup_rho_flagged = True

        if cfg.field_mode != "none":
            rec.T1, rec.T2 = certify.compute_T1_T2(
                ens_a, ens_b, flow_a.accel, flow_b.accel, flow_b.evaluator.accel
            )

        stride = cfg.ot_stride
        if stride > 0 and (step % stride == 0 or step == cfg.n_steps):
            self._stride_extras(rec, ens_a, ens_b, rho_a, rho_b)

        self.crossing_a.observe(ens_a)
        self.crossing_b.observe(ens_b)
        if cfg.snapshot_stride > 0 and step % cfg.snapshot_stride == 0:
            self.snapshots[step] = (ens_a.copy(), ens_b.copy())
        self.records.append(rec)

    def _density(self, flow, branch):
        """The flow's density on the diagnostics grid: the evaluator's own
        deposit of this step when it has one on that grid, else a new one.
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
            ens.x[idx], ens.v[idx], ens.w[idx] * self.sub_scale, ens.t, ens.epsilon_sign
        )

    def _stride_extras(self, rec, ens_a, ens_b, rho_a, rho_b):
        # one subsampled pair gives both the paired costs and the W2 clouds,
        # so every feasible-plan check compares like with like
        sub_a, sub_b = self._subsample(ens_a), self._subsample(ens_b)
        rec.Q_sub = certify.compute_Q(sub_a, sub_b)
        rec.S_sub = certify.compute_S(sub_a, sub_b)
        # the two W2 problems, then the two diagnostic solves, run side by
        # side (perfbench's tracer keeps one span stack: only these pairs
        # and the branch steps may overlap)
        (rec.W2_rho, _), (rec.W2_phase, _) = dynamics.run_pair(
            lambda: transport.w2_exact(sub_a.position_cloud(), sub_b.position_cloud()),
            lambda: transport.w2_exact(sub_a.phase_cloud(), sub_b.phase_cloud()),
        )
        field_a, field_b = dynamics.run_pair(
            lambda: fields.solve_field_grid(rho_a), lambda: fields.solve_field_grid(rho_b)
        )
        rec.field_l2_diff, rec.prop31_rhs = certify.prop31_sides(
            rho_a, rho_b, field_a, field_b, rec.W2_rho
        )

        h_min = float(np.min(self.spec.h))
        try:
            # trilinear interpolation is only defined on the cell-center hull
            rec.loglip_C = fields.loglip_modulus(
                field_a.interpolate,
                self.spec.lo + 0.5 * self.spec.h,
                self.spec.hi - 0.5 * self.spec.h,
                s_min=h_min,
                seed=self.cfg.seed,
            )
        except ValueError:
            rec.loglip_C = None


def run_twin_config(cfg: ScenarioConfig) -> TwinResult:
    """Sample f0, build both twin variants, run, and post-process dQ/dt."""
    cfg.validate()
    sample = scenarios.sample_initial(cfg)
    eval_a = _make_evaluator(cfg)
    eval_b = _make_evaluator(cfg, variant_b=True)
    obs = _TwinObserver(cfg)
    dynamics.run_twin(
        sample,
        eval_a,
        eval_b,
        cfg.dt,
        cfg.n_steps,
        observer=obs,
        perturb_b=_perturbation(cfg),
    )
    certify.fill_dQdt(obs.records)
    return TwinResult(
        cfg,
        obs.records,
        obs.snapshots,
        obs.crossing_a.crossing_time,
        obs.crossing_b.crossing_time,
        obs.sup_rho_flagged,
    )


# --------------------------------------------------------------------------
# single-flow simulation


@dataclass
class SimResult:
    config: ScenarioConfig
    ensemble: dynamics.ParticleEnsemble
    snapshots: dict
    crossing_time: float


def run_simulation(cfg: ScenarioConfig) -> SimResult:
    """Advance one flow. A particle that leaves the grid box raises
    EscapeError at that step: the final density deposit could not take it,
    and the direct and zero fields deposit nothing on their own."""
    cfg.validate()
    spec = cfg.grid_spec
    ens = scenarios.sample_initial(cfg)
    evaluator = _make_evaluator(cfg)
    flow = dynamics.FlowState(ens, evaluator, cfg.dt)
    fields.check_in_box(ens.x, spec)
    crossing = dynamics.CrossingDetector(spec, cfg.crossing_threshold)
    snapshots = {0: ens.copy()}
    crossing.observe(ens)
    for k in range(1, cfg.n_steps + 1):
        dynamics.step_leapfrog(flow)
        fields.check_in_box(ens.x, spec)
        crossing.observe(ens)
        if cfg.snapshot_stride > 0 and k % cfg.snapshot_stride == 0:
            snapshots[k] = ens.copy()
    snapshots[cfg.n_steps] = ens.copy()
    return SimResult(cfg, ens, snapshots, crossing.crossing_time)


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


def emit_simulation(cfg: ScenarioConfig, outdir) -> str:
    """cli simulate: snapshots plus final density/field dumps + manifest."""
    result = run_simulation(cfg)
    os.makedirs(outdir, exist_ok=True)
    written = ["config.txt"]
    with open(os.path.join(outdir, "config.txt"), "w") as fh:
        fh.write(serialize_config(cfg))
    for step in sorted(result.snapshots):
        _save_snapshot(outdir, "", step, result.snapshots[step], written)
    spec = cfg.grid_spec
    rho = dynamics.deposit(result.ensemble, spec)
    fields.save_grid(rho, os.path.join(outdir, "density_final"))
    written += ["density_final.bin", "density_final.json"]
    if cfg.field_mode != "none":
        grid_field = fields.solve_field_grid(rho, softening=cfg.softening_length(spec))
        fields.save_grid(grid_field, os.path.join(outdir, "field_final"))
        written += ["field_final.bin", "field_final.json"]
    return write_manifest(outdir, cfg, written)


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
        "sup_rho_flagged": result.sup_rho_flagged,
    }
    with open(os.path.join(outdir, "run_notes.json"), "w") as fh:
        json.dump(notes, fh, sort_keys=True, indent=1)
        fh.write("\n")
    written.append("run_notes.json")
    return write_manifest(outdir, cfg, written)


def emit_certification(records, outdir):
    """cli certify: certification CSV (records + flags) and summary text.

    The verdict depends on the records alone: the Prop. 3.1 threshold is
    certify.PROP31_TOL and every record is certified."""
    result = certify.certify_records(records)
    contain = result.containment
    os.makedirs(outdir, exist_ok=True)
    cert_path = os.path.join(outdir, "certification.csv")
    with open(cert_path, "w") as fh:
        fh.write(",".join(RECORD_COLUMNS + ["gronwall_ok", "envelope"]) + "\n")
        for r, ok in zip(records, result.gronwall.per_step_ok):
            y = ""
            if contain.Q0 > 0:
                env = certify.osgood_envelope(contain.C, contain.Q0, r.t - contain.t0)
                y = _fmt(float(env))
            fh.write(
                ",".join(_fmt(getattr(r, col)) for col in RECORD_COLUMNS)
                + f",{'' if ok is None else int(ok)},{y}\n"
            )
    summary_path = os.path.join(outdir, "summary.txt")
    with open(summary_path, "w") as fh:
        for line in result.summary_lines:
            fh.write(line + "\n")
    return result, cert_path, summary_path


def emit_report(manifest_path, outdir):
    """cli report: consolidated text report + plot-ready CSV tables."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    srcdir = os.path.dirname(os.path.abspath(manifest_path))
    lines = ["consolidated run report", "", "config:", manifest["config"], "files:"]
    for entry in manifest["files"]:
        lines.append(f"  {entry['name']}  {entry['bytes']} B  sha256 {entry['sha256']}")
    rec_path = os.path.join(srcdir, "records.csv")
    table = None
    if os.path.exists(rec_path):
        records = read_records(rec_path)
        result = certify.certify_records(records)
        lines += ["", "certification:"] + ["  " + ln for ln in result.summary_lines]
        table = ["t,Q,T1,T2,W2_rho,W2_phase"] + [
            ",".join(_fmt(v) for v in (r.t, r.Q, r.T1, r.T2, r.W2_rho, r.W2_phase))
            for r in records
        ]
    os.makedirs(outdir, exist_ok=True)
    if table is not None:
        with open(os.path.join(outdir, "q_table.csv"), "w") as fh:
            fh.write("\n".join(table) + "\n")
    report_path = os.path.join(outdir, "report.txt")
    with open(report_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return report_path


def with_overrides(cfg: ScenarioConfig, **kwargs) -> ScenarioConfig:
    return replace(cfg, **kwargs).validate()
