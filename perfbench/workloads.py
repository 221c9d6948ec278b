"""Workload definitions of the twin-verdict benchmark.

Each workload is a full vptwin config (every key the run depends on is
spelled out, so a later change to the bundled presets cannot silently
change the benchmark). The rationale and the layer-metric predictions
live next to this file in README.md.

The benchmark's --seed picks the config's `seed` from a fixed set of
REFERENCE_SEEDS values per workload, because the correctness gate
compares the run against reference series stored for exactly those
configs (reference/<workload>.json, written by make_reference.py).
"""

from __future__ import annotations

REFERENCE_SEEDS = 8

# twin runs, velocity-shift twin with delta = 1e-2 throughout
WORKLOADS = {
    # preset:gaussian-blob as bundled: the grid-field path dominates
    "blob-grid": dict(
        scenario="gaussian-blob",
        epsilon=1,
        field_mode="grid",
        n_particles=4096,
        grid_dims=32,
        box_edge=10.0,
        sigma_x=0.6,
        sigma_v=0.3,
        dt=0.02,
        t_final=2.0,
        twin_kind="velocity-shift",
        twin_delta=1e-2,
        ot_stride=10,
        ot_subsample=512,
        seed=11,
    ),
    # preset:free-streaming with exact OT of the whole ensemble every step
    "stream-ot": dict(
        scenario="free-streaming",
        epsilon=1,
        field_mode="none",
        n_particles=2048,
        grid_dims=32,
        box_edge=16.0,
        sigma_x=0.6,
        sigma_v=0.3,
        dt=0.02,
        t_final=2.0,
        twin_kind="velocity-shift",
        twin_delta=1e-2,
        ot_stride=1,
        ot_subsample=2048,
        seed=14,
    ),
    # preset:two-blob (attractive, cold) with the softened direct sum
    "merger-direct": dict(
        scenario="two-blob",
        epsilon=-1,
        field_mode="direct",
        n_particles=512,
        grid_dims=32,
        box_edge=10.0,
        sigma_x=0.35,
        blob_separation=2.0,
        dt=0.02,
        t_final=2.0,
        twin_kind="velocity-shift",
        twin_delta=1e-2,
        ot_stride=10,
        ot_subsample=512,
        seed=13,
    ),
}


def config_seed(workload: str, seed: int) -> int:
    """The vptwin `seed` a benchmark --seed maps to for this workload."""
    return WORKLOADS[workload]["seed"] * 100 + seed % REFERENCE_SEEDS


def config_text(workload: str, seed: int) -> str:
    """The config file a user would write for this workload and seed."""
    values = dict(WORKLOADS[workload], seed=config_seed(workload, seed))
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def n_steps(workload: str) -> int:
    w = WORKLOADS[workload]
    return int(round(w["t_final"] / w["dt"]))


def ot_steps(workload: str) -> list:
    """Steps whose exact-OT columns must be filled (the stride plus the end)."""
    stride, last = WORKLOADS[workload]["ot_stride"], n_steps(workload)
    return [k for k in range(last + 1) if k % stride == 0 or k == last]
