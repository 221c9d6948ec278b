"""Bundled scenario configurations.

Five desk-scale scenarios spanning repulsive/attractive signs, kinetic and
monokinetic flows, and an analytic free-streaming control. All use the
velocity-shift twin perturbation by default; resolution twins are built by
overriding twin_kind.
"""

from __future__ import annotations

from .harness import ScenarioConfig

# what every preset shares; each preset below names only what it changes
# from this base and the ScenarioConfig defaults
_BASE = dict(box_edge=10.0, twin_kind="velocity-shift", twin_delta=1e-2)

_PRESETS = {
    "gaussian-blob": dict(scenario="gaussian-blob", seed=11),
    "uniform-ball": dict(scenario="uniform-ball", sigma_v=0.2, seed=12),
    "two-blob": dict(scenario="two-blob", epsilon=-1, sigma_x=0.35, seed=13),
    "free-streaming": dict(
        scenario="free-streaming", field_mode="none", n_particles=2048, box_edge=16.0, seed=14
    ),
    "hubble": dict(scenario="hubble", box_edge=12.0, seed=15),
}

PRESET_NAMES = tuple(_PRESETS)


def bundled(name: str) -> ScenarioConfig:
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return ScenarioConfig(**{**_BASE, **_PRESETS[name]}).validate()
