"""Bundled initial-condition samplers.

Every sampler draws a seeded pseudo-random equal-weight sample of the
initial phase-space distribution with unit total mass, so twin runs can
share the identical particle sample by construction.
"""

from __future__ import annotations

import numpy as np

from .dynamics import ParticleEnsemble

SCENARIO_NAMES = (
    "gaussian-blob",
    "uniform-ball",
    "two-blob",
    "free-streaming",
    "hubble",
    "two-stream",
)


def _uniform_ball(rng, n, radius):
    u = rng.random(n)
    r = radius * u ** (1.0 / 3.0)
    d = rng.normal(size=(n, 3))
    # the one norm left to numpy's order: another order would move every
    # uniform-ball and hubble trajectory (tests/test_layout.py allows it)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return r[:, None] * d


def sample_initial(cfg) -> ParticleEnsemble:
    """Build the initial ensemble for a ScenarioConfig."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_particles
    w = np.full(n, 1.0 / n)
    name = cfg.scenario
    if name in ("gaussian-blob", "free-streaming"):  # one sample; presets differ in field_mode
        x = rng.normal(scale=cfg.sigma_x, size=(n, 3))
        v = rng.normal(scale=cfg.sigma_v, size=(n, 3))
    elif name == "uniform-ball":
        x = _uniform_ball(rng, n, cfg.ball_radius)
        v = rng.normal(scale=cfg.sigma_v, size=(n, 3))
    elif name == "two-blob":
        half = n // 2
        off = np.array([0.5 * cfg.blob_separation, 0.0, 0.0])
        x = rng.normal(scale=cfg.sigma_x, size=(n, 3))
        x[:half] -= off
        x[half:] += off
        v = np.zeros((n, 3))  # cold merger, optional approach drift
        v[:half, 0] += cfg.approach_speed
        v[half:, 0] -= cfg.approach_speed
    elif name == "hubble":
        x = _uniform_ball(rng, n, cfg.ball_radius)
        v = cfg.hubble_rate * x  # monokinetic: one velocity per position
    elif name == "two-stream":
        half = n // 2
        x = rng.normal(scale=cfg.sigma_x, size=(n, 3))
        v = rng.normal(scale=cfg.sigma_v, size=(n, 3))
        v[:half, 0] += cfg.beam_speed
        v[half:, 0] -= cfg.beam_speed
    else:
        raise ValueError(f"unknown scenario {name!r}")
    return ParticleEnsemble(x, v, w)
