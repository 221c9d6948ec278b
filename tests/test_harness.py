"""Tests for configuration, orchestration, file emission and the CLI.

The free-streaming twin has the closed form Q(t) = 1/2 M delta^2 (1 + t^2),
which pins the whole pipeline (sampling, twin alignment, records, CSV)
against an analytic oracle.
"""

import hashlib
import json
import math
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from vptwin import certify, cli, dynamics, errors, fields, harness, presets, scenarios, transport
from vptwin.certify import RECORD_COLUMNS, StabilityRecord
from vptwin.errors import ConfigError, OutOfDomainError, SingularityError
from vptwin.harness import (
    ScenarioConfig,
    parse_config,
    read_records,
    run_twin_config,
    serialize_config,
    write_records,
)

from oracles import load_plan


def small_config(**overrides):
    base = dict(
        scenario="gaussian-blob",
        n_particles=256,
        grid_dims=16,
        box_edge=10.0,
        dt=0.05,
        t_final=0.25,
        ot_stride=0,
        seed=5,
    )
    base.update(overrides)
    return ScenarioConfig(**base).validate()


def _validates(cfg):
    try:
        cfg.validate()
    except ConfigError:
        return False
    return True


_REAL = st.floats(allow_nan=False, allow_infinity=False)
_NON_NEGATIVE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-3, max_value=1e3)
_SMALL_INT = st.integers(0, 1000)

# valid configs over every key; the filter drops the draws validate
# refuses (a negative softening, zero softening in direct mode, a shift
# on a twin_kind = none run, a velocity shift below the round-off floor).
# n_particles <= 8192 and dt >= 0.01 (at most 1001 kept snapshots) keep
# every draw inside the particle-memory cap
VALID_CONFIGS = st.builds(
    ScenarioConfig,
    scenario=st.sampled_from(scenarios.SCENARIO_NAMES),
    epsilon=st.sampled_from([1, -1]),
    n_particles=st.integers(2, 8192),
    grid_dims=st.integers(2, 139),
    box_edge=_POSITIVE,
    dt=st.floats(1e-2, 1.0),
    t_final=st.floats(1.5, 10.0),
    softening=st.one_of(st.just("auto"), st.floats(0.0, 10.0)),
    seed=st.integers(0, 2**63),
    field_mode=st.sampled_from(["grid", "direct", "none"]),
    twin_kind=st.sampled_from(["none", "velocity-shift"]),
    twin_delta=st.one_of(st.just(0.0), _REAL),
    ot_stride=_SMALL_INT,
    ot_subsample=st.integers(1, 4096),
    snapshot_stride=_SMALL_INT,
    sigma_x=_NON_NEGATIVE,
    sigma_v=_NON_NEGATIVE,
    ball_radius=_NON_NEGATIVE,
    blob_separation=_REAL,
    hubble_rate=_REAL,
    beam_speed=_REAL,
    approach_speed=_REAL,
).filter(_validates)

# every ledger column is non-negative (write_records refuses the rest)
RECORD_LISTS = st.lists(
    st.builds(
        StabilityRecord,
        step=st.integers(0, 10**6),
        t=_NON_NEGATIVE,
        Q=_NON_NEGATIVE,
        **{col: st.one_of(st.none(), _NON_NEGATIVE) for col in RECORD_COLUMNS[3:]},
    ),
    max_size=5,
)


class TestConfigParsing:
    def test_roundtrip_identity(self):
        cfg = small_config(twin_kind="velocity-shift", twin_delta=3e-3)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert serialize_config(again) == serialize_config(cfg)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(VALID_CONFIGS)
    def test_roundtrip_identity_generated(self, cfg):
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert serialize_config(again) == serialize_config(cfg)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nscenario = hubble  # trailing\nseed = 9\n")
        assert cfg.scenario == "hubble"
        assert cfg.seed == 9

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3.*unknown key"):
            parse_config("scenario = hubble\nseed = 1\ntypo_key = 4\n")

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 1.*dt"):
            parse_config("dt = fast\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words\n")

    def test_validation_failures(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scenario="nonesuch").validate()
        with pytest.raises(ConfigError):
            ScenarioConfig(dt=2.0, t_final=1.0).validate()
        with pytest.raises(ConfigError):
            ScenarioConfig(epsilon=2).validate()
        with pytest.raises(ConfigError):
            ScenarioConfig(n_particles=1).validate()

    @pytest.mark.parametrize("dt, t_final, steps", [(0.4, 0.5, 1), (0.5, 0.5, 1), (2.0, 1.0, 0)])
    def test_fewer_than_two_steps_refused(self, dt, t_final, steps):
        # certify needs the three records of steps 0, 1 and 2
        with pytest.raises(ConfigError, match=rf"t_final / dt rounds to {steps} step\(s\)"):
            ScenarioConfig(dt=dt, t_final=t_final).validate()

    def test_two_steps_admitted(self):
        assert small_config(dt=0.25, t_final=0.5).n_steps == 2

    @pytest.mark.parametrize(
        "line",
        [
            "box_edge = 0",
            "box_edge = -8",
            "box_edge = nan",
            "box_edge = inf",
            "softening = nan",
            "softening = inf",
            "softening = -inf",
            "t_final = inf",
            "snapshot_stride = -3",
            "seed = -1",
            "sigma_x = -0.6",
            "sigma_v = -0.3",
            "ball_radius = -1",
        ],
    )
    def test_non_finite_or_non_positive_rejected(self, line):
        with pytest.raises(ConfigError, match=line.split()[0]):
            parse_config(line + "\n")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("dt = 1e-300\n", "dt"),
            ("dt = 1e-320\n", "dt"),
            ("n_particles = 4100\not_subsample = 5000\not_stride = 1\n", "ot_subsample"),
            ("grid_dims = 1\n", "grid_dims"),
            ("grid_dims = 256\n", "grid_dims"),
            ("n_particles = 1000000000000\n", "n_particles"),
            ("n_particles = 110000\nsnapshot_stride = 1\n", "snapshot_stride"),
            # an identity twin that names a shift would run with none
            ("n_particles = 256\ngrid_dims = 16\nt_final = 0.2\ndt = 0.05\not_stride = 0\n"
             "twin_delta = 0.01\n", "twin_delta"),
            ("field_mode = none\ntwin_kind = none\ntwin_delta = -0.5\n", "twin_delta"),
        ],
    )
    def test_unrunnable_size_rejected(self, text, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(text)

    def test_size_guards_admit_their_limits(self):
        limit = transport.MAX_ASSIGNMENT_SIDE
        small_config(n_particles=limit + 4, ot_subsample=limit, ot_stride=1)
        small_config(n_particles=limit + 4, ot_subsample=limit + 4, ot_stride=0)
        small_config(dt=2.0 / harness.MAX_STEPS, t_final=2.0)
        small_config(grid_dims=2)

    # one (2n)^2 (n+1) complex spectrum, and the scratch of one kernel build
    # beyond its kept spectra: (2n)^3 cells of denom (8 B), mask (1 B) and
    # one kernel (8 B), plus one spectrum's rfftn intermediate
    @staticmethod
    def spectrum(n):
        return (2 * n) ** 2 * (n + 1) * 16

    def scratch(self, n):
        return 17 * (2 * n) ** 3 + self.spectrum(n)

    def arena(self, n):
        # what the second thread's malloc arena may keep freed: glibc's trim
        # threshold, twice the largest block unmapped, at most 2 x 32 MiB
        return 2 * min(self.spectrum(n), 32 << 20)

    def per_shape(self, n, probe_solves_a=False):
        # on each of two threads a workspace (two spectra) and one solve in
        # flight (8 + 24 n^3 B); the flows' fields and densities and the
        # diagnostics' difference field, 88 n^3 B; and field A, 24 n^3 B,
        # where the probe solves it (a direct-sum run)
        return 2 * (2 * self.spectrum(n) + 32 * n**3) + (112 if probe_solves_a else 88) * n**3

    def assert_guard_boundary(self, need, key, largest, **overrides):
        # ``need(n)`` is the estimate with ``key`` = n; ``largest`` is admitted
        # and largest + 1 is refused with its own figure
        cap = harness.MAX_GRID_SOLVE_BYTES
        assert max(n for n in range(2, 400) if need(n) <= cap) == largest
        small_config(**overrides, **{key: largest})
        mib = f"{need(largest + 1) / 2**20:.0f} MiB"
        with pytest.raises(ConfigError, match=f"{key} = {largest + 1}: .*about {mib}"):
            small_config(**overrides, **{key: largest + 1})

    def one_kernel(self, n, probe_solves_a=False):
        # the first kernel build peaks with only its own spectra kept
        return max(
            3 * self.spectrum(n) + self.per_shape(n, probe_solves_a),
            3 * self.spectrum(n) + self.scratch(n),
        ) + self.arena(n)

    def test_grid_memory_guard_states_the_estimate(self):
        # one kernel, flow A's, which B and the diagnostics solve with too.
        # The kernel and both workspaces alone, 7 spectra, are 1156 MiB at
        # n = 139, the limit when one solve was counted
        assert 7 * self.spectrum(139) / 2**20 > 1155
        self.assert_guard_boundary(self.one_kernel, "grid_dims", 118)
        self.assert_guard_boundary(
            self.one_kernel, "grid_dims", 118, twin_kind="velocity-shift", twin_delta=0.01
        )
        # a direct twin's one kernel is flow A's softening on grid_dims, and
        # the probe solves field A with it
        self.assert_guard_boundary(
            lambda n: self.one_kernel(n, True), "grid_dims", 117, field_mode="direct"
        )

    def test_grid_memory_guard_counts_every_kernel(self):
        # an explicit softening is the one kernel of both flows and of the
        # diagnostics, whatever its length
        self.assert_guard_boundary(self.one_kernel, "grid_dims", 118, softening=0.1)
        self.assert_guard_boundary(
            self.one_kernel, "grid_dims", 118, softening=0.2, twin_kind="velocity-shift",
            twin_delta=0.01,
        )

    @pytest.mark.parametrize("twin_kind", ["none", "velocity-shift"])
    @pytest.mark.parametrize("field_mode", ["grid", "direct", "none"])
    def test_grid_memory_is_one_kernel_for_every_admitted_twin(self, field_mode, twin_kind):
        # the estimate counts one kernel whatever the twin and its
        # softening's length; only a direct-sum run adds the probe's solve
        twin = dict(twin_kind=twin_kind, twin_delta=0.01 if twin_kind != "none" else 0.0)
        for n in (2, 8, 64, 117):
            want = self.one_kernel(n, probe_solves_a=field_mode == "direct")
            for softening in ("auto", 0.0 if field_mode != "direct" else 0.1, 0.2):
                cfg = small_config(grid_dims=n, field_mode=field_mode, softening=softening,
                                   **twin)
                assert cfg._grid_memory() == want, (n, softening)

    @pytest.mark.parametrize("softening", ["auto", 0.2])
    @pytest.mark.parametrize("twin_kind", ["none", "velocity-shift"])
    @pytest.mark.parametrize("field_mode", ["grid", "direct", "none"])
    def test_grid_memory_guard_counts_the_kernels_a_run_builds(
        self, monkeypatch, field_mode, twin_kind, softening
    ):
        # the guard and the solves read one plan; a run on an empty kernel
        # cache builds exactly the one kernel the guard counts, the
        # field_solve's (the cache key is (n, h, softening))
        cache = {}
        monkeypatch.setattr(fields, "_KERNEL_CACHE", cache)
        cfg = small_config(
            n_particles=128,
            grid_dims=8,
            field_mode=field_mode,
            twin_kind=twin_kind,
            twin_delta=0.01 if twin_kind == "velocity-shift" else 0.0,
            softening=softening,
            ot_stride=1,
            ot_subsample=64,
            t_final=0.1,
        )
        run_twin_config(cfg)
        spec, length = cfg.field_solve()
        assert list(cache) == [(spec.n, spec.h, length)]

    def test_field_solve_picks_the_grid_and_softening(self):
        # one (spec, softening) pair for the run; 16^3 cells of 0.625 make
        # auto 0.3125
        spec = small_config().grid_spec
        assert small_config().field_solve() == (spec, 0.3125)
        assert small_config(softening=0.2).field_solve() == (spec, 0.2)
        assert small_config(softening=0).field_solve() == (spec, 0.0)

    def test_particle_memory_guard_states_the_estimate(self):
        # 152 B kept and 2 x 248 B of step scratch per particle, plus 96 B
        # per kept twin snapshot; small_config runs 5 steps, so
        # snapshot_stride = 2 keeps steps 0, 2 and 4
        cap = harness.MAX_GRID_SOLVE_BYTES
        for stride, kept, sizes in ((0, 0, ""), (2, 3, ", snapshot_stride = 2")):
            per_particle = 648 + 96 * kept
            largest = cap // per_particle
            small_config(n_particles=largest, snapshot_stride=stride)
            mib = f"{(largest + 1) * per_particle / 2**20:.0f} MiB"
            with pytest.raises(
                ConfigError,
                match=f"n_particles = {largest + 1}{sizes}: .*{kept} kept .*about {mib}",
            ):
                small_config(n_particles=largest + 1, snapshot_stride=stride)

    @pytest.mark.parametrize(
        "key",
        ["dim", "prop31_tol", "geodesic_tol", "box_center", "crossing_threshold",
         "sup_rho_ceiling", "twin_grid_dims_b"],
    )
    def test_removed_keys_are_unknown(self, key, tmp_path, capsys):
        with pytest.raises(ConfigError, match=f"line 1: unknown key {key!r}"):
            parse_config(f"{key} = 3\n")
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 3\n")
        assert cli.main(["twin", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["resolution", "softening"])
    def test_removed_twin_kinds_are_unknown(self, kind):
        # a twin is two flows of one equation: no twin_kind changes B's
        # grid or softening
        for text in (f"twin_kind = {kind}\n", f"twin_kind = {kind}\ntwin_delta = 0.3\n"):
            with pytest.raises(ConfigError, match=f"unknown twin_kind {kind!r}"):
                parse_config(text)

    @pytest.mark.parametrize("mode", ["grid", "direct", "none"])
    def test_shift_needs_a_velocity_shift_twin(self, mode):
        # twin_delta moves B's velocities only on a velocity-shift twin;
        # on an identity twin it would run, and certify, with no shift
        head = f"field_mode = {mode}\ntwin_kind = none\n"
        for delta in (0.01, -0.5, 1e-300):
            with pytest.raises(
                ConfigError,
                match=f"twin_delta = {delta!r}: .*needs twin_kind = velocity-shift, not none",
            ):
                parse_config(head + f"twin_delta = {delta!r}\n")
        assert parse_config(head + "twin_delta = 0\n").twin_delta == 0.0
        assert parse_config(head + "twin_delta = -0.0\n").twin_kind == "none"

    def test_readme_example_is_the_gaussian_blob_preset(self):
        # the README's Configuration example parses, to the bundled preset
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1]
        example = section.split("```\n", 2)[1]
        assert parse_config(example) == presets.bundled("gaussian-blob")

    @pytest.mark.parametrize(
        "text",
        ["softening = -0.5\n", "field_mode = direct\nsoftening = 0\n"],
    )
    def test_softening_rule_refuses_a_bad_length(self, text):
        with pytest.raises(ConfigError, match="softening = .*softening length must be"):
            parse_config(text)

    def test_softening_rule_admits_its_limits(self):
        parse_config("softening = 0\n")
        parse_config("field_mode = direct\nsoftening = 0.1\n")
        # a velocity-shift twin reads twin_delta as a velocity, of any sign
        parse_config("field_mode = direct\ntwin_kind = velocity-shift\ntwin_delta = -0.5\n")

    def test_twins_that_can_differ_admitted(self):
        # the identity control, and twins whose B starts shifted from A
        for mode in ("grid", "direct", "none"):
            parse_config(f"field_mode = {mode}\ntwin_kind = none\n")
            parse_config(f"field_mode = {mode}\ntwin_kind = velocity-shift\ntwin_delta = -1e-6\n")

    @pytest.mark.parametrize("mode", ["grid", "direct", "none"])
    def test_velocity_shift_below_round_off_floor_rejected(self, mode):
        # the smallest shift is a share of box_edge (8 by default), of
        # either sign; it refuses the zero shift, whose flows cannot differ
        floor = certify.MIN_SHIFT_PER_EDGE * 8.0
        head = f"field_mode = {mode}\ntwin_kind = velocity-shift\n"
        for delta in (floor, -floor):
            parse_config(f"{head}twin_delta = {delta!r}\n")
        for delta in (floor * (1 - 1e-12), -1e-8, 0.0, -0.0):
            with pytest.raises(ConfigError, match=f"twin_delta = {delta!r}: a velocity shift"):
                parse_config(f"{head}twin_delta = {delta!r}\n")
        with pytest.raises(ConfigError, match="twin_delta = 0.0: a velocity shift"):
            parse_config(head)

    def test_replaced_config_validates(self):
        cfg = small_config()
        assert replace(cfg, seed=77).validate().seed == 77
        with pytest.raises(ConfigError):
            replace(cfg, dt=-1.0).validate()


class TestRecordsCSV:
    def make_records(self):
        return [
            StabilityRecord(step=0, t=0.0, Q=0.5, T1=0.1, W2_rho=0.01, Q_sub=0.5),
            StabilityRecord(step=1, t=0.05, Q=0.6),
        ]

    def test_roundtrip_preserves_values_and_nones(self, tmp_path):
        p = tmp_path / "records.csv"
        recs = self.make_records()
        write_records(p, recs)
        got = read_records(p)
        assert len(got) == 2
        assert got[0].W2_rho == 0.01
        assert got[1].W2_rho is None
        for col in RECORD_COLUMNS:
            assert getattr(got[0], col) == getattr(recs[0], col)

    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(RECORD_LISTS)
    def test_roundtrip_generated(self, tmp_path, recs):
        # finite values of any magnitude and empty cells, column by column
        p = tmp_path / "records.csv"
        write_records(p, recs)
        got = read_records(p)
        for col in RECORD_COLUMNS:
            assert [getattr(r, col) for r in got] == [getattr(r, col) for r in recs], col

    def test_header_is_frozen_contract(self, tmp_path):
        p = tmp_path / "records.csv"
        write_records(p, self.make_records())
        header = p.read_text().splitlines()[0]
        assert header == ",".join(RECORD_COLUMNS)

    def test_non_finite_rejected(self, tmp_path):
        recs = self.make_records()
        recs[1].Q = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            write_records(tmp_path / "bad.csv", recs)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,0.0,1.5", "3 cells"),
            ("1,0.05,0.6" + "," * (len(RECORD_COLUMNS) - 2), f"{len(RECORD_COLUMNS) + 1} cells"),
            ("1,0.05,abc" + "," * (len(RECORD_COLUMNS) - 3), "column Q"),
        ],
        ids=["short", "long", "non-numeric"],
    )
    def test_malformed_row_rejected(self, tmp_path, row, message):
        # a short, long or non-numeric row is never read as default values
        p = tmp_path / "records.csv"
        write_records(p, self.make_records())
        text = p.read_text().splitlines()
        text[2] = row
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match=rf"records\.csv: line 3: {message}"):
            read_records(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_cell_rejected_on_read(self, tmp_path, cell):
        # float() parses these, but write_records never writes them
        p = tmp_path / "records.csv"
        write_records(p, self.make_records())
        text = p.read_text().splitlines()
        text[2] = text[2].replace("0.59999999999999998", cell)
        p.write_text("\n".join(text) + "\n")
        with pytest.raises(ValueError, match=r"records\.csv: line 3: column Q: non-finite"):
            read_records(p)

    @pytest.mark.parametrize("col", RECORD_COLUMNS)
    def test_negative_cell_rejected(self, tmp_path, col):
        # no twin run writes one: a negative Q has no excess over the
        # one-step bound, so it would pass the gronwall check unseen
        recs = self.make_records()
        setattr(recs[1], col, -1)
        with pytest.raises(ValueError, match=f"negative value in column {col} at step"):
            write_records(tmp_path / "bad.csv", recs)
        p = tmp_path / "records.csv"
        write_records(p, self.make_records())
        lines = p.read_text().splitlines()
        cells = lines[2].split(",")
        cells[RECORD_COLUMNS.index(col)] = "-1" if col == "step" else "-1e-300"
        lines[2] = ",".join(cells)
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"records\.csv: line 3: column {col}: negative"):
            read_records(p)

    def test_negative_zero_is_read(self, tmp_path):
        recs = self.make_records()
        recs[1].Q, recs[1].T1 = -0.0, -0.0
        p = tmp_path / "records.csv"
        write_records(p, recs)
        got = read_records(p)
        assert (got[1].Q, got[1].T1) == (0.0, 0.0)

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "weird.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_records(p)


class TestTwinRuns:
    def test_identical_twin_zero_q(self):
        result = run_twin_config(small_config(twin_kind="none"))
        assert all(r.Q == 0.0 for r in result.records)
        assert all(r.max_gap == 0.0 for r in result.records)

    def test_free_streaming_matches_closed_form(self):
        delta = 1e-2
        cfg = small_config(
            scenario="free-streaming",
            field_mode="none",
            box_edge=16.0,
            twin_kind="velocity-shift",
            twin_delta=delta,
            t_final=1.0,
        )
        result = run_twin_config(cfg)
        for r in result.records:
            want = 0.5 * delta**2 * (1.0 + r.t**2)
            assert r.Q == pytest.approx(want, rel=1e-12)
            assert r.T1 == 0.0 and r.T2 == 0.0

    def test_velocity_shift_twin_q_starts_at_half_delta_sq(self):
        delta = 5e-3
        cfg = small_config(twin_kind="velocity-shift", twin_delta=delta)
        result = run_twin_config(cfg)
        assert result.records[0].Q == pytest.approx(0.5 * delta**2, rel=1e-12)

    def test_velocity_shift_twin_branches_start_from_the_sample(self):
        # branch A starts at the sample, branch B at the sample plus delta along x
        delta = 5e-3
        cfg = small_config(twin_kind="velocity-shift", twin_delta=delta, snapshot_stride=5)
        sample = scenarios.sample_initial(cfg)
        ens_a, ens_b = run_twin_config(cfg).snapshots[0]
        for ens in (ens_a, ens_b):
            np.testing.assert_array_equal(ens.x, sample.x)
            np.testing.assert_array_equal(ens.w, sample.w)
        np.testing.assert_array_equal(ens_a.v, sample.v)
        np.testing.assert_array_equal(ens_b.v, sample.v + [delta, 0.0, 0.0])

    def test_envelope_column_is_the_per_row_envelope(self, tmp_path):
        # certify evaluates the envelope once over all record times; the
        # column must equal, bit for bit, the envelope anchored at the first
        # positive-Q record and evaluated row by row, rows before it included
        dt, delta = 1e-3, 1e-2
        records = []
        for k in range(20001):
            t = k * dt
            q, s = (0.5 * delta**2 * (1.0 + t * t), (delta * t) ** 2) if k > 2 else (0.0, 0.0)
            records.append(StabilityRecord(step=k, t=t, Q=q, S=s, max_gap=delta))
        result, cert_path, _ = harness.emit_certification(records, tmp_path / "cert")
        contain = result.containment
        first = records[3]
        assert contain.Q0 == first.Q and contain.C > 0.0
        with open(cert_path) as fh:
            column = [line.rstrip("\n").split(",")[-1] for line in fh][1:]
        assert len(column) == len(records)
        for r, cell in zip(records, column):
            assert float(cell) == float(certify.osgood_envelope(contain.C, first.Q, r.t - first.t))

    def test_ot_stride_populates_exact_columns(self):
        cfg = small_config(
            twin_kind="velocity-shift",
            twin_delta=1e-2,
            ot_stride=2,
            ot_subsample=64,
        )
        result = run_twin_config(cfg)
        strided = [r for r in result.records if r.W2_rho is not None]
        assert {r.step for r in strided} == {0, 2, 4, 5}
        for r in strided:
            assert r.W2_phase**2 <= 2.0 * r.Q_sub + 1e-9
            assert r.W2_rho**2 <= r.S_sub + 1e-9

    def test_boosted_twin_keeps_every_w2_on_the_nearest_tier(self, monkeypatch):
        # a velocity-shift twin streams rigidly apart: by the end B's
        # positions sit delta t past A's, more than half the closest-pair
        # spacing, yet every W2 is served by the translated nearest tier
        calls = []
        w2_exact = transport.w2_exact

        def recording(a, b):
            got = w2_exact(a, b)
            calls.append((a, b, got[1].solver))
            return got

        monkeypatch.setattr(transport, "w2_exact", recording)
        cfg = small_config(scenario="free-streaming", field_mode="none", box_edge=16.0,
                           t_final=0.5, twin_kind="velocity-shift", twin_delta=0.1,
                           ot_stride=1, ot_subsample=256)
        run_twin_config(cfg)
        assert len(calls) == 2 * (cfg.n_steps + 1)
        assert {solver for _, _, solver in calls} == {"nearest"}
        x = calls[0][0].points
        spacing = cKDTree(x).query(x, k=2)[0][:, 1].min()
        a, b, _ = calls[-2]
        assert a.d == 3
        assert math.hypot(*(b.points - a.points).mean(axis=0)) > 0.5 * spacing

    def test_observer_reuses_flow_fields_and_densities(self, monkeypatch):
        # per recorded step: each flow solves its n target rows and
        # deposits once, and T1/T2 adds the cross field F_B(X_A) at the n
        # rows of X_A (in two halves); nothing else re-solves. Counted in
        # target rows and deposits, since the halves are two calls
        counts = {"rows": 0, "deposit": 0}
        solve, deposit = fields.solve_field_direct, dynamics.deposit
        lock = threading.Lock()

        def counting_solve(points, weights, targets, *args, **kwargs):
            with lock:
                counts["rows"] += len(targets)
            return solve(points, weights, targets, *args, **kwargs)

        def counting_deposit(*args, **kwargs):
            counts["deposit"] += 1
            return deposit(*args, **kwargs)

        monkeypatch.setattr(fields, "solve_field_direct", counting_solve)
        monkeypatch.setattr(dynamics, "deposit", counting_deposit)
        cfg = small_config(
            field_mode="direct", n_particles=64, twin_kind="velocity-shift", twin_delta=1e-2
        )
        result = run_twin_config(cfg)
        steps = len(result.records)
        assert steps == cfg.n_steps + 1
        assert counts == {"rows": 3 * cfg.n_particles * steps, "deposit": 2 * steps}
        assert all(r.T1 > 0.0 for r in result.records[1:])

    @pytest.mark.parametrize(
        "overrides, per_ot_row",
        [
            # h = 0.375 below, h = 1 >= 1/2 for none-coarse (the probe
            # refuses before it evaluates); the probe reads flow A's accel
            (dict(box_edge=6.0, twin_kind="velocity-shift", twin_delta=1e-2), 1),
            (dict(box_edge=6.0, softening=0.2, twin_kind="velocity-shift",
                  twin_delta=1e-2), 1),
            (dict(scenario="free-streaming", field_mode="none", box_edge=6.0,
                  twin_kind="velocity-shift", twin_delta=1e-2), 1),
            (dict(scenario="free-streaming", field_mode="none", box_edge=16.0,
                  twin_kind="velocity-shift", twin_delta=1e-2), 1),
            # a direct-sum flow's probe solves rho_A with flow A's grid and softening
            (dict(scenario="two-blob", epsilon=-1, field_mode="direct", sigma_x=0.35,
                  box_edge=6.0, twin_kind="velocity-shift", twin_delta=1e-2), 2),
            # an identity twin solves as many, of a zero difference
            (dict(box_edge=6.0), 1),
            (dict(scenario="two-blob", epsilon=-1, field_mode="direct", sigma_x=0.35,
                  box_edge=6.0), 2),
        ],
        ids=["grid", "grid-own-softening", "none", "none-coarse", "direct", "grid-identity",
             "direct-identity"],
    )
    def test_observer_grid_solves_per_ot_row(self, monkeypatch, overrides, per_ot_row):
        # fields.solve_field_grid calls made while the observer records a
        # step: none off the OT stride, per_ot_row on it (one of
        # rho_A - rho_B, and the probe's on a direct-sum run)
        calls, per_step = [], {}
        solve, observe = fields.solve_field_grid, harness._TwinObserver.__call__

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        def counting_observe(self, step, flow_a, flow_b):
            before = len(calls)
            observe(self, step, flow_a, flow_b)
            per_step[step] = len(calls) - before

        monkeypatch.setattr(fields, "solve_field_grid", counting_solve)
        monkeypatch.setattr(harness._TwinObserver, "__call__", counting_observe)
        cfg = small_config(n_particles=128, ot_stride=2, ot_subsample=64, **overrides)
        records = run_twin_config(cfg).records
        ot_rows = {r.step for r in records if r.W2_rho is not None}
        assert ot_rows == {0, 2, 4, 5}
        assert per_step == {k: per_ot_row if k in ot_rows else 0 for k in range(6)}
        # loglip_modulus is called on every OT row; it fills loglip_C where
        # its separations fit, h < 1/2
        fits = cfg.grid_spec.h < 0.5
        assert [r.loglip_C is not None for r in records if r.step in ot_rows] == [fits] * 4

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(box_edge=6.0),
            dict(box_edge=6.0, softening=0.2),
            dict(scenario="two-blob", epsilon=-1, field_mode="direct", sigma_x=0.35,
                 box_edge=6.0),
            dict(scenario="free-streaming", field_mode="none", box_edge=16.0),
            dict(box_edge=6.0, twin_kind="none", twin_delta=0.0),
            dict(scenario="two-blob", epsilon=-1, field_mode="direct", sigma_x=0.35,
                 box_edge=6.0, twin_kind="none", twin_delta=0.0),
        ],
        ids=["grid", "grid-own-softening", "direct", "none", "grid-identity",
             "direct-identity"],
    )
    def test_records_do_not_depend_on_the_helper_thread(self, monkeypatch, tmp_path,
                                                        overrides):
        # both works of every run_pair on the calling thread, one after the
        # other: the same records.csv bytes
        twin = dict(twin_kind="velocity-shift", twin_delta=1e-2) | overrides
        cfg = small_config(n_particles=128, ot_stride=2, ot_subsample=64, **twin)
        harness.emit_twin(cfg, tmp_path / "threaded")
        monkeypatch.setattr(dynamics, "run_pair", lambda work_a, work_b: (work_a(), work_b()))
        harness.emit_twin(cfg, tmp_path / "serial")
        threaded, serial = ((tmp_path / d / "records.csv").read_bytes()
                            for d in ("threaded", "serial"))
        assert threaded == serial


class TestLedgerConsistency:
    """Every ledger column equals certify's function of the step's ensembles."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(scenario="free-streaming", field_mode="none", box_edge=16.0, seed=1),
            dict(
                scenario="two-blob",
                epsilon=-1,
                field_mode="direct",
                sigma_x=0.35,
                t_final=0.5,
                seed=3,
            ),
        ],
        ids=["free-streaming", "direct-two-blob"],
    )
    def test_whole_ensemble_subsample_gives_q_and_s(self, overrides):
        cfg = small_config(
            n_particles=256,
            twin_kind="velocity-shift",
            twin_delta=1e-2,
            ot_stride=1,
            ot_subsample=256,
            **overrides,
        )
        records = run_twin_config(cfg).records
        assert all(r.W2_rho is not None for r in records)
        for r in records:
            assert (r.Q_sub, r.S_sub) == (r.Q, r.S), f"step {r.step}"

    def test_columns_equal_certify_functions_of_snapshots(self):
        cfg = small_config(
            n_particles=256,
            twin_kind="velocity-shift",
            twin_delta=1e-2,
            t_final=0.5,
            ot_stride=5,
            ot_subsample=64,
            snapshot_stride=5,
        )
        result = run_twin_config(cfg)
        idx = np.linspace(0, cfg.n_particles - 1, cfg.ot_subsample).astype(np.int64)
        scale = cfg.n_particles / cfg.ot_subsample
        assert sorted(result.snapshots) == [0, 5, 10]
        for step, (ens_a, ens_b) in result.snapshots.items():
            r = result.records[step]
            assert (r.Q, r.S, r.max_gap) == certify.compute_gaps(ens_a, ens_b)
            sub_a, sub_b = (
                dynamics.ParticleEnsemble(e.x[idx], e.v[idx], e.w[idx] * scale)
                for e in (ens_a, ens_b)
            )
            assert (r.Q_sub, r.S_sub) == certify.compute_gaps(sub_a, sub_b)[:2]
            w2_rho, _ = transport.w2_exact(sub_a.position_cloud(), sub_b.position_cloud())
            w2_phase, _ = transport.w2_exact(sub_a.phase_cloud(), sub_b.phase_cloud())
            assert (r.W2_rho, r.W2_phase) == (w2_rho, w2_phase)
            # the diagnostics deposit and solve with the run's pair
            spec, softening = cfg.field_solve()
            rho_a, rho_b = (dynamics.deposit(e, spec) for e in (ens_a, ens_b))
            diff = fields.solve_field_grid(fields.DensityDifference(rho_a, rho_b), softening)
            assert r.field_l2_diff == fields.field_l2_diff(diff)
            assert r.prop31_rhs == certify.prop31_rhs(rho_a.sup_norm, rho_b.sup_norm, w2_rho)

    @pytest.mark.parametrize("softening", ["auto", 0.2])
    @pytest.mark.parametrize(
        "twin",
        [dict(twin_kind="none"), dict(twin_kind="velocity-shift", twin_delta=0.1)],
        ids=["identity", "velocity-shift"],
    )
    @pytest.mark.parametrize(
        "scenario",
        [dict(scenario="gaussian-blob"), dict(scenario="two-blob", epsilon=-1, sigma_x=0.35)],
        ids=["gaussian-blob", "two-blob"],
    )
    def test_prop31_solves_with_the_softening_the_flows_step_with(
        self, monkeypatch, scenario, twin, softening
    ):
        # every grid twin has one kernel, its field_solve's: Prop. 3.1's
        # difference is under the operator both flows step with, and so
        # Loeper's T2 step, T2 <= sup rho_A |grad Psi_A - grad Psi_B|_L2^2
        # (Jensen on the CIC weights the deposit and the interpolation
        # share), holds up to round-off on every OT row
        cache = {}
        monkeypatch.setattr(fields, "_KERNEL_CACHE", cache)
        cfg = small_config(
            softening=softening, t_final=0.5, ot_stride=5, ot_subsample=64, snapshot_stride=5,
            **scenario, **twin,
        )
        result = run_twin_config(cfg)
        spec, length = cfg.field_solve()
        assert list(cache) == [(spec.n, spec.h, length)]
        rows = [r for r in result.records if r.field_l2_diff is not None]
        assert [r.step for r in rows] == sorted(result.snapshots) == [0, 5, 10]
        for r in rows:
            ens_a, ens_b = result.snapshots[r.step]
            rho_a, rho_b = (dynamics.deposit(e, spec) for e in (ens_a, ens_b))
            diff = fields.solve_field_grid(fields.DensityDifference(rho_a, rho_b), length)
            assert r.field_l2_diff == fields.field_l2_diff(diff)
            assert r.T2 <= r.sup_rho1 * r.field_l2_diff**2 * (1 + 1e-9), f"step {r.step}"

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(twin_kind="velocity-shift", twin_delta=1e-2),
            dict(twin_kind="velocity-shift", twin_delta=1e-2, softening=0.2),
            dict(scenario="two-blob", epsilon=-1, field_mode="direct", sigma_x=0.35,
                 twin_kind="velocity-shift", twin_delta=1e-2),
            dict(scenario="two-blob", epsilon=-1, field_mode="direct", sigma_x=0.35,
                 softening=0.2, twin_kind="velocity-shift", twin_delta=1e-2),
            dict(scenario="free-streaming", field_mode="none", twin_kind="velocity-shift",
                 twin_delta=1e-2),
            dict(twin_kind="none"),
            dict(scenario="two-blob", epsilon=-1, field_mode="direct", sigma_x=0.35,
                 twin_kind="none"),
        ],
        ids=["grid", "grid-own-softening", "direct", "direct-own-softening", "none",
             "grid-identity", "direct-identity"],
    )
    def test_loglip_is_the_probe_of_flow_a_field(self, overrides):
        # the probe samples the field flow A steps with: loglip_C equals the
        # probe of a fresh evaluator of A's kind refreshed on the snapshot,
        # bit for bit, on the cell-center hull of the run's grid (h < 1/2);
        # a direct-sum flow's stands in as a grid solve with the run's
        # softening, which runs unsigned: the modulus is the same bits
        # under either sign
        cfg = small_config(n_particles=128, box_edge=6.0, t_final=0.5, ot_stride=5,
                           ot_subsample=64, snapshot_stride=5, **overrides)
        spec = cfg.grid_spec
        plan = replace(cfg, field_mode="grid") if cfg.field_mode == "direct" else cfg
        result = run_twin_config(cfg)
        for step, (ens_a, _) in result.snapshots.items():
            evaluator = harness._make_evaluator(plan)
            evaluator.refresh(ens_a)
            want = fields.loglip_modulus(
                evaluator.accel, spec.lo + 0.5 * spec.h, spec.hi - 0.5 * spec.h,
                s_min=spec.h, seed=cfg.seed,
            )
            assert result.records[step].loglip_C == want
            if cfg.field_mode == "none":
                assert want == 0.0


class TestEmission:
    def test_twin_keeps_snapshots_at_multiples_of_the_stride(self, tmp_path):
        # 10 steps: stride 0 keeps none, stride 3 keeps 0, 3, 6, 9 (not 10)
        for stride, steps in ((0, []), (3, [0, 3, 6, 9])):
            out = tmp_path / str(stride)
            cfg = small_config(n_particles=64, t_final=0.5, snapshot_stride=stride)
            harness.emit_twin(cfg, out)
            names = sorted(p.name for p in out.glob("snapshot_*"))
            assert names == [f"snapshot_{b}_{k:06d}.txt" for b in "ab" for k in steps]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_config(
            twin_kind="velocity-shift", twin_delta=1e-2, ot_stride=2, ot_subsample=64
        )
        m1 = harness.emit_twin(cfg, tmp_path / "a")
        m2 = harness.emit_twin(cfg, tmp_path / "b")
        assert open(m1).read() == open(m2).read()

    def test_manifest_lists_every_written_file(self, tmp_path):
        cfg = small_config(snapshot_stride=2, twin_kind="velocity-shift", twin_delta=1e-2)
        out = tmp_path / "run"
        manifest = json.load(open(harness.emit_twin(cfg, out)))
        written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert [e["name"] for e in manifest["files"]] == written
        for entry in manifest["files"]:
            data = (out / entry["name"]).read_bytes()
            assert entry["bytes"] == len(data)
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()
        assert manifest["config"] == (out / "config.txt").read_text()

    @pytest.mark.parametrize("mode", ["grid", "direct"])
    def test_twin_steps_with_the_run_sign(self, mode):
        # one kick-drift-kick step moves x by dt v + dt^2/2 a(x): the field
        # part of the move changes sign with epsilon, the sample does not
        moved = {}
        for eps in (1, -1):
            cfg = small_config(
                field_mode=mode, softening=0.1, epsilon=eps, t_final=0.1, snapshot_stride=1
            )
            snapshots = run_twin_config(cfg).snapshots
            start, end = snapshots[0][0], snapshots[1][0]
            moved[eps] = (start.x, start.v, end.x - start.x - cfg.dt * start.v)
        (x_rep, v_rep, kick_rep), (x_att, v_att, kick_att) = moved[1], moved[-1]
        np.testing.assert_array_equal(x_rep, x_att)
        np.testing.assert_array_equal(v_rep, v_att)
        assert np.abs(kick_rep).max() > 1e-6
        np.testing.assert_allclose(kick_att, -kick_rep, rtol=0, atol=1e-13)

    def test_free_streaming_single_particle_positions(self, tmp_path):
        cfg = ScenarioConfig(
            scenario="free-streaming",
            field_mode="none",
            n_particles=2,
            grid_dims=16,
            box_edge=16.0,
            dt=0.1,
            t_final=0.5,
            snapshot_stride=5,
            seed=3,
        ).validate()
        result = run_twin_config(cfg)
        start, _ = result.snapshots[0]
        end, _ = result.snapshots[cfg.n_steps]
        np.testing.assert_allclose(end.x, start.x + 0.5 * start.v, atol=1e-14)

    # the beams reach the box's edge cells the step before they leave
    @pytest.mark.filterwarnings("ignore::vptwin.fields.TruncationWarning")
    @pytest.mark.parametrize("mode", ["direct", "grid"])
    def test_twin_stops_at_the_escape_step(self, mode, monkeypatch):
        # fast counter-streaming beams leave the box part-way through; a
        # grid flow's own deposit stops the run, and on the direct sum,
        # which deposits nothing, the observer's deposit of each step does
        cfg = ScenarioConfig(
            scenario="two-stream",
            field_mode=mode,
            softening=0.1,
            n_particles=32,
            grid_dims=8,
            box_edge=4.0,
            sigma_x=0.2,
            beam_speed=5.0,
            dt=0.05,
            t_final=1.0,
            seed=3,
        ).validate()
        spec = cfg.grid_spec
        half_lattice = 0.5 * (spec.edge - spec.h)
        inside_after = {}  # per branch: the two branches step on two threads
        real_step = dynamics.step_leapfrog

        def counting_step(state):
            try:
                return real_step(state)
            finally:  # a grid flow raises after its drift
                offset = np.abs(state.ensemble.x)  # the box is centred on the origin
                inside = bool(np.all(offset <= half_lattice))
                inside_after.setdefault(id(state), []).append(inside)

        monkeypatch.setattr(dynamics, "step_leapfrog", counting_step)
        with pytest.raises(errors.TwinError) as exc:
            run_twin_config(cfg)
        assert isinstance(exc.value.cause, errors.EscapeError)
        assert len(inside_after) == 2
        runs = sorted(inside_after.values(), key=len)
        escape = len(runs[-1])
        assert 1 < escape < cfg.n_steps
        # a grid branch raises in its own step, so the other branch's step
        # of the escape may never start; on the direct sum both finish it
        lengths = [len(steps) for steps in runs]
        assert lengths == [escape, escape] or (mode == "grid" and lengths[0] == escape - 1)
        for steps in runs:
            assert steps[: escape - 1] == [True] * (escape - 1)
            assert steps[escape - 1 :] in ([False], [])


# every package error class, with the exit code and stderr prefix the CLI
# gives it
EXIT_TABLE = [
    (errors.VptwinError("x"), cli.EXIT_CHECK, "error"),
    (errors.ConfigError("x"), cli.EXIT_USAGE, "config error"),
    (errors.TransportError("x"), cli.EXIT_USAGE, "error"),
    (errors.MassMismatchError("x"), cli.EXIT_USAGE, "error"),
    (errors.NumericalFailure("x"), cli.EXIT_DIVERGED, "numerical failure"),
    (errors.EscapeError([3]), cli.EXIT_DIVERGED, "numerical failure"),
    (errors.OutOfDomainError([[9.0, 0.0, 0.0]]), cli.EXIT_DIVERGED, "numerical failure"),
    (errors.SingularityError("x"), cli.EXIT_DIVERGED, "numerical failure"),
    (errors.DivergenceError(4), cli.EXIT_DIVERGED, "numerical failure"),
    (errors.TwinError("B", errors.DivergenceError(4)), cli.EXIT_DIVERGED, "numerical failure"),
]


class TestCLI:
    # a field-free twin that runs in milliseconds
    FREE_TWIN = (
        "scenario = free-streaming\nfield_mode = none\nn_particles = 64\n"
        "grid_dims = 16\nbox_edge = 16\ndt = 0.05\nt_final = 0.25\n"
        "twin_kind = velocity-shift\ntwin_delta = 0.01\not_stride = 0\nseed = 8\n"
    )

    def write_cfg(self, tmp_path, text):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        return str(p)

    def test_bad_config_exits_usage(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "bogus_key = 1\n")
        assert cli.main(["twin", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # config text, and the key or value its error must name
    UNRUNNABLE = [
        ("dt = 1e-300\n", "t_final / dt"),
        ("n_particles = 4100\not_subsample = 5000\not_stride = 1\n", "ot_subsample"),
        ("grid_dims = 1\n", "grid_dims"),
        ("grid_dims = 256\n", "grid_dims"),
        ("n_particles = 1000000000000\n", "n_particles"),
        ("snapshot_stride = -3\n", "snapshot_stride"),
        ("seed = -1\n", "seed"),
        ("sigma_x = -0.6\n", "sigma_x"),
        ("sigma_v = -0.3\n", "sigma_v"),
        ("scenario = uniform-ball\nball_radius = -1\n", "ball_radius"),
        ("twin_kind = velocity-shift\ntwin_delta = 0\n", "twin_delta"),
        # an identity twin that names a shift would certify with none
        ("n_particles = 256\ngrid_dims = 16\nt_final = 0.2\ndt = 0.05\not_stride = 0\n"
         "twin_delta = 0.01\n", "twin_delta"),
        # a twin is two flows of one equation: no second grid or softening
        ("twin_kind = resolution\n", "'resolution'"),
        ("twin_kind = softening\ntwin_delta = 0.3\n", "'softening'"),
        ("twin_grid_dims_b = 24\n", "'twin_grid_dims_b'"),
    ]

    @pytest.mark.parametrize(
        "text, named", UNRUNNABLE, ids=[text for text, _ in UNRUNNABLE]
    )
    def test_unrunnable_size_exits_usage(self, tmp_path, capsys, text, named):
        cfg = self.write_cfg(tmp_path, text)
        assert cli.main(["twin", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error") and named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "field_mode = direct\nsoftening = 0\n",
            "softening = -0.5\n",
        ],
    )
    def test_bad_softening_exits_usage_before_writing(self, tmp_path, capsys, text):
        cfg = self.write_cfg(tmp_path, text)
        assert cli.main(["twin", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
        assert "softening length must be" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            ("softening = 1e200\n", "softening"),
            ("field_mode = direct\nsoftening = 1e200\n", "softening"),
            ("box_edge = 1e160\n", "box_edge"),
            ("box_edge = 1e110\n", "box_edge"),
        ],
    )
    def test_overflowing_length_exits_usage_before_writing(self, tmp_path, capsys, text, key):
        # a cell volume h^3 or a kernel denominator past the float range
        cfg = self.write_cfg(tmp_path, text)
        assert cli.main(["twin", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} = ") and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_ot_parser_modes(self, tmp_path, capsys):
        # exact W2 is the only mode, so there is no switch to select it
        pa = tmp_path / "a.txt"
        transport.save_cloud(transport.WeightedCloud([[0, 0, 0], [1, 0, 0]], [0.5, 0.5]), pa)
        assert cli.main(["ot", str(pa), str(pa), "--exact"]) == cli.EXIT_USAGE
        assert "--exact" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--sinkhorn"], ["--reg", "1e-2"], ["--tol", "1e-9"]])
    def test_ot_has_no_entropic_flags(self, tmp_path, capsys, flag):
        # the uncertified Sinkhorn solver and its options are gone
        pa = tmp_path / "a.txt"
        transport.save_cloud(transport.WeightedCloud([[0, 0, 0], [1, 0, 0]], [0.5, 0.5]), pa)
        plan = tmp_path / "plan.txt"
        argv = ["ot", str(pa), str(pa), "--plan-out", str(plan)] + flag
        assert cli.main(argv) == cli.EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not plan.exists()

    def test_direct_twin_escape_exits_diverged(self, tmp_path, capsys):
        # the direct sum has no box: the observer's deposit of a branch
        # stops the run
        cfg = self.write_cfg(
            tmp_path,
            "scenario = two-stream\nfield_mode = direct\nsoftening = 0.1\n"
            "n_particles = 32\ngrid_dims = 8\nbox_edge = 4.0\nsigma_x = 0.2\n"
            "beam_speed = 5.0\ndt = 0.05\nt_final = 1.0\nseed = 3\n",
        )
        out = tmp_path / "o"
        assert cli.main(["twin", cfg, "--out", str(out)]) == cli.EXIT_DIVERGED
        assert "outside the grid box" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_subcommand_exits_usage(self):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_simulate_is_not_a_command(self, tmp_path, capsys):
        # twin is the one run path: a single-flow run is an identity twin
        cfg = self.write_cfg(tmp_path, self.FREE_TWIN)
        out = tmp_path / "o"
        assert cli.main(["simulate", cfg, "--out", str(out)]) == cli.EXIT_USAGE
        assert "invalid choice: 'simulate'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, named",
        [
            (None, "No such file"),
            ("{}", "'config'"),
            ('{"config": "", "files": [{"name": "records.csv", "sha256": "0"}]}', "bytes"),
            ('{"config": "", "files": ["records.csv"]}', "name, bytes, sha256"),
            ('{"config": ""}', "'files'"),
            ("[]", "not a JSON object"),
            ("{", "Expecting"),
        ],
        ids=["missing", "empty", "no-bytes", "bare-name", "no-files", "list", "bad-json"],
    )
    def test_report_on_missing_manifest_leaves_no_directory(self, tmp_path, capsys, text, named):
        manifest = tmp_path / "manifest.json"
        if text is not None:
            manifest.write_text(text)
        out = tmp_path / "o"
        assert cli.main(["report", str(manifest), "--out", str(out)]) == cli.EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_failed_twin_leaves_no_directory(self, tmp_path, capsys):
        # the blob escapes the 0.5-wide box at once: exit 3 before any file
        cfg = self.write_cfg(
            tmp_path,
            "scenario = gaussian-blob\nn_particles = 64\ngrid_dims = 8\n"
            "box_edge = 0.5\ndt = 0.01\nt_final = 0.1\n"
            "twin_kind = velocity-shift\ntwin_delta = 0.01\n",
        )
        out = tmp_path / "o"
        assert cli.main(["twin", cfg, "--out", str(out)]) == cli.EXIT_DIVERGED
        assert "outside the grid box" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "error",
        [
            OutOfDomainError([[9.0, 0.0, 0.0]]),
            SingularityError("1 target(s) coincide with unsoftened sources"),
        ],
        ids=["out-of-domain", "singularity"],
    )
    def test_field_errors_exit_diverged(self, tmp_path, capsys, monkeypatch, error):
        def failing(cfg):
            raise error

        monkeypatch.setattr(harness, "run_twin_config", failing)
        cfg = self.write_cfg(tmp_path, "scenario = free-streaming\nfield_mode = none\n")
        out = tmp_path / "o"
        assert cli.main(["twin", cfg, "--out", str(out)]) == cli.EXIT_DIVERGED
        assert f"numerical failure: {error}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "error, code, prefix", EXIT_TABLE, ids=[type(row[0]).__name__ for row in EXIT_TABLE]
    )
    def test_each_error_class_owns_its_exit_code(
        self, tmp_path, capsys, monkeypatch, error, code, prefix
    ):
        def failing(cfg):
            raise error

        monkeypatch.setattr(harness, "run_twin_config", failing)
        cfg = self.write_cfg(tmp_path, "scenario = free-streaming\nfield_mode = none\n")
        assert cli.main(["twin", cfg, "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == f"{prefix}: {error}\n"

    def test_exit_table_covers_every_error_class(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        want = {errors.VptwinError, *subclasses(errors.VptwinError)}
        assert {type(row[0]) for row in EXIT_TABLE} == want

    @pytest.mark.parametrize("flag", [["--prop31-tol", "0.5"], ["--window", "0", "1"]])
    def test_certify_has_no_tuning_flags(self, tmp_path, capsys, flag):
        recs = [StabilityRecord(step=k, t=0.05 * k, Q=0.0) for k in range(6)]
        p = tmp_path / "records.csv"
        write_records(p, recs)
        out = tmp_path / "c"
        assert cli.main(["certify", str(p), "--out", str(out)] + flag) == cli.EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_escape_without_field_names_its_branch(self, tmp_path, capsys):
        # no evaluator deposits with field_mode = none: the observer's
        # deposit on the diagnostics grid is the one that sees the escape
        cfg = self.write_cfg(
            tmp_path,
            "scenario = free-streaming\nfield_mode = none\nn_particles = 64\n"
            "grid_dims = 8\nbox_edge = 0.5\ndt = 0.01\nt_final = 0.1\n"
            "twin_kind = velocity-shift\ntwin_delta = 0.01\n",
        )
        out = tmp_path / "o"
        assert cli.main(["twin", cfg, "--out", str(out)]) == cli.EXIT_DIVERGED
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: twin branch A failed: ")
        assert "outside the grid box" in err
        assert not out.exists()

    def test_twin_and_certify_pipeline(self, tmp_path, capsys):
        cfg = self.write_cfg(
            tmp_path,
            "scenario = free-streaming\nfield_mode = none\nn_particles = 128\n"
            "grid_dims = 16\nbox_edge = 16\ndt = 0.05\nt_final = 0.5\n"
            "twin_kind = velocity-shift\ntwin_delta = 0.01\n"
            "ot_stride = 5\not_subsample = 64\nseed = 8\n",
        )
        out = str(tmp_path / "twin")
        assert cli.main(["twin", cfg, "--out", out]) == cli.EXIT_PASS
        code = cli.main(["certify", f"{out}/records.csv", "--out", str(tmp_path / "cert")])
        captured = capsys.readouterr().out
        assert code == cli.EXIT_PASS
        assert "overall: PASS" in captured

    def test_certify_zero_q_records(self, tmp_path, capsys):
        recs = [StabilityRecord(step=k, t=0.05 * k, Q=0.0) for k in range(6)]
        p = tmp_path / "records.csv"
        write_records(p, recs)
        assert cli.main(["certify", str(p), "--out", str(tmp_path / "c")]) == cli.EXIT_PASS

    def test_certify_failing_records_exit_code(self, tmp_path):
        # Q exploding far faster than its own differential inequality allows
        recs = [
            StabilityRecord(step=k, t=0.05 * k, Q=math.exp(30 * 0.05 * k) * 1e-6)
            for k in range(20)
        ]
        p = tmp_path / "records.csv"
        write_records(p, recs)
        assert cli.main(["certify", str(p), "--out", str(tmp_path / "c")]) == cli.EXIT_CHECK

    def test_certify_incomplete_ot_row_exits_usage(self, tmp_path, capsys):
        # W2_rho without its subsample columns: certifying it against the
        # full ensemble's Q would compare different measures
        recs = [StabilityRecord(step=k, t=0.05 * k, Q=1e-4, S=1e-4) for k in range(6)]
        recs[0].W2_rho = 1e-3
        p = tmp_path / "records.csv"
        write_records(p, recs)
        out = tmp_path / "c"
        assert cli.main(["certify", str(p), "--out", str(out)]) == cli.EXIT_USAGE
        assert "step 0: exact-OT row" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def one_ot_row_records(path):
        """A passing free-streaming records file with one complete exact-OT
        row, step 10 on line 12 (Prop. 3.1 ratio 1/2)."""
        delta = 1e-2
        recs = []
        for k in range(21):
            t = 0.05 * k
            q, s = 0.5 * delta**2 * (1 + t * t), (delta * t) ** 2
            recs.append(StabilityRecord(step=k, t=t, Q=q, S=s, max_gap=delta * math.hypot(1, t)))
        r = recs[10]
        r.Q_sub, r.S_sub = r.Q, r.S
        r.W2_rho, r.W2_phase = 0.9 * math.sqrt(r.S), 0.9 * math.sqrt(2 * r.Q)
        r.sup_rho1, r.sup_rho2 = 4.0, 1.0
        r.field_l2_diff, r.prop31_rhs = r.W2_rho, 2.0 * r.W2_rho
        write_records(path, recs)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_certify_non_finite_cell_exits_usage(self, tmp_path, capsys, cell):
        # a nan in W2_rho and field_l2_diff on the exact-OT row used to drop
        # out of every max() and PASS
        p = tmp_path / "records.csv"
        self.one_ot_row_records(p)
        assert cli.main(["certify", str(p), "--out", str(tmp_path / "ok")]) == cli.EXIT_PASS
        lines = p.read_text().splitlines()
        cells = lines[11].split(",")
        for col in ("W2_rho", "field_l2_diff"):
            cells[RECORD_COLUMNS.index(col)] = cell
        lines[11] = ",".join(cells)
        p.write_text("\n".join(lines) + "\n")
        out = tmp_path / "c"
        capsys.readouterr()
        assert cli.main(["certify", str(p), "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"line 12: column W2_rho: non-finite value '{cell}'" in err
        assert not out.exists()

    def test_certify_negated_q_exits_usage(self, tmp_path, capsys):
        # a twin's records with every Q negated used to skip every dQ/dt
        # step and certify PASS on none checked
        cfg = self.write_cfg(tmp_path, self.FREE_TWIN)
        assert cli.main(["twin", cfg, "--out", str(tmp_path / "twin")]) == cli.EXIT_PASS
        p = tmp_path / "twin" / "records.csv"
        col = RECORD_COLUMNS.index("Q")
        lines = p.read_text().splitlines()
        for k in range(1, len(lines)):
            cells = lines[k].split(",")
            cells[col] = "-" + cells[col]
            lines[k] = ",".join(cells)
        p.write_text("\n".join(lines) + "\n")
        out = tmp_path / "c"
        capsys.readouterr()
        assert cli.main(["certify", str(p), "--out", str(out)]) == cli.EXIT_USAGE
        assert "line 2: column Q: negative value" in capsys.readouterr().err
        assert not out.exists()

    def test_certify_old_dqdt_ledger_exits_usage(self, tmp_path, capsys):
        # the 17-column ledger of earlier releases carried a dQdt column as
        # its 4th cell, which the verdict never read
        p = tmp_path / "records.csv"
        self.one_ot_row_records(p)
        lines = p.read_text().splitlines()
        old = []
        for k, line in enumerate(lines):
            cells = line.split(",")
            cells.insert(3, "dQdt" if k == 0 else "0.5")
            old.append(",".join(cells))
        assert len(old[0].split(",")) == 17
        p.write_text("\n".join(old) + "\n")
        out = tmp_path / "c"
        capsys.readouterr()
        assert cli.main(["certify", str(p), "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "unexpected record columns" in err and "'dQdt'" in err
        assert not out.exists()

    def test_certify_tampered_prop31_rhs_exits_usage(self, tmp_path, capsys):
        # certify recomputes the Prop. 3.1 right side from sup_rho1, sup_rho2
        # and W2_rho: a larger stored value would turn the FAIL of a field
        # difference 1.5 times the true bound into a PASS
        p = tmp_path / "records.csv"
        self.one_ot_row_records(p)
        lines = p.read_text().splitlines()
        cells = lines[11].split(",")
        stored = float(cells[RECORD_COLUMNS.index("prop31_rhs")])
        cells[RECORD_COLUMNS.index("field_l2_diff")] = repr(1.5 * stored)
        honest = lines[:11] + [",".join(cells)] + lines[12:]
        p.write_text("\n".join(honest) + "\n")
        assert cli.main(["certify", str(p), "--out", str(tmp_path / "fail")]) == cli.EXIT_CHECK
        cells[RECORD_COLUMNS.index("prop31_rhs")] = repr(2.0 * stored)
        p.write_text("\n".join(lines[:11] + [",".join(cells)] + lines[12:]) + "\n")
        out = tmp_path / "c"
        capsys.readouterr()
        assert cli.main(["certify", str(p), "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "step 10: prop31_rhs" in err and "sqrt(max(sup_rho1, sup_rho2)) * W2_rho" in err
        assert not out.exists()

    def test_ot_identical_and_fixture(self, tmp_path, capsys):
        a = transport.WeightedCloud([[0, 0, 0], [1, 0, 0]], [0.5, 0.5])
        b = transport.WeightedCloud(a.points + [0.1, 0, 0], a.weights)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        transport.save_cloud(a, pa)
        transport.save_cloud(b, pb)
        assert cli.main(["ot", str(pa), str(pa)]) == cli.EXIT_PASS
        assert float(capsys.readouterr().out) == 0.0
        assert cli.main(["ot", str(pa), str(pb)]) == cli.EXIT_PASS
        assert float(capsys.readouterr().out) == pytest.approx(0.1, rel=1e-12)

    def test_ot_plan_out(self, tmp_path, capsys):
        a = transport.WeightedCloud([[0, 0, 0], [1, 0, 0]], [0.5, 0.5])
        b = transport.WeightedCloud(a.points + [0.1, 0, 0], a.weights)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        transport.save_cloud(a, pa)
        transport.save_cloud(b, pb)
        plan_path = tmp_path / "plan.txt"
        cli.main(["ot", str(pa), str(pb), "--plan-out", str(plan_path)])
        capsys.readouterr()
        plan = load_plan(plan_path, a, b)
        assert plan.cost == pytest.approx(0.01, rel=1e-12)

    def test_ot_mass_mismatch_exits_usage(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        transport.save_cloud(transport.WeightedCloud([[0, 0, 0], [1, 0, 0]], [0.5, 0.5]), pa)
        transport.save_cloud(transport.WeightedCloud([[0, 0, 0], [1, 0, 0]], [0.5, 0.6]), pb)
        assert cli.main(["ot", str(pa), str(pb)]) == cli.EXIT_USAGE
        assert "total masses differ" in capsys.readouterr().err

    @pytest.mark.parametrize("top", [1e308, 1e160])
    def test_ot_refuses_overflowing_coordinates(self, tmp_path, capsys, top):
        # each cloud sums and squares to a finite number, but a squared
        # cost |x - y|^2 would not: refused before any tier runs, with no
        # numpy overflow warning
        p = tmp_path / "c.txt"
        transport.save_cloud(
            transport.WeightedCloud([[top, -top, 0], [-top, top, 0]], [0.5, 0.5]), p
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["ot", str(p), str(p)]) == cli.EXIT_USAGE
        assert caught == []
        assert capsys.readouterr().err == (
            f"error: coordinates up to {top:.3g} in magnitude would overflow the squared costs\n"
        )

    @pytest.mark.parametrize("text", ["0 2\n0.5\n0.5\n", "3 0\n", "3 -1\n"],
                             ids=["no-dimension", "no-points", "negative-count"])
    def test_ot_rejects_an_empty_cloud_header(self, tmp_path, capsys, text):
        # refused from the header, before numpy reads the rows: no
        # traceback from the KD-tree, no loadtxt warning
        p = tmp_path / "c.txt"
        p.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["ot", str(p), str(p)]) == cli.EXIT_USAGE
        assert caught == []
        assert capsys.readouterr().err == (
            f"error: {p}: header 'd count' needs d >= 1 and count >= 1\n"
        )

    def test_report_from_twin_manifest(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, self.FREE_TWIN)
        out = str(tmp_path / "twin")
        assert cli.main(["twin", cfg, "--out", out]) == cli.EXIT_PASS
        rep_out = str(tmp_path / "rep")
        assert cli.main(["report", f"{out}/manifest.json", "--out", rep_out]) == cli.EXIT_PASS
        text = open(f"{rep_out}/report.txt").read()
        assert "certification:" in text
        assert "overall: PASS" in text
        assert (tmp_path / "rep" / "q_table.csv").exists()

    @staticmethod
    def edit_last_q(path):
        # the last row's Q with its last digit changed: same size, and still
        # a records file that certifies
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[-1].split(",")
        cells[2] = cells[2][:-1] + str((int(cells[2][-1]) + 1) % 10)
        path.write_text("".join(lines[:-1]) + ",".join(cells))

    @pytest.mark.parametrize("change", ["append", "edit"])
    def test_report_refuses_records_unlike_its_manifest_entry(self, tmp_path, capsys, change):
        cfg = self.write_cfg(tmp_path, self.FREE_TWIN)
        out = tmp_path / "twin"
        assert cli.main(["twin", cfg, "--out", str(out)]) == cli.EXIT_PASS
        if change == "append":
            with open(out / "records.csv", "ab") as fh:
                fh.write(b"\n")
        else:
            self.edit_last_q(out / "records.csv")
        rep_out = tmp_path / "rep"
        assert cli.main(["report", str(out / "manifest.json"), "--out", str(rep_out)]) == (
            cli.EXIT_USAGE
        )
        assert "records.csv: size or sha256 differs" in capsys.readouterr().err
        assert not rep_out.exists()

    def test_one_step_twin_exits_usage_before_writing(self, tmp_path, capsys):
        # one step leaves two records, and certify needs three
        text = self.FREE_TWIN.replace("dt = 0.05\nt_final = 0.25", "dt = 0.4\nt_final = 0.5")
        out = tmp_path / "o"
        assert cli.main(["twin", self.write_cfg(tmp_path, text), "--out", str(out)]) == (
            cli.EXIT_USAGE
        )
        assert "t_final / dt rounds to 1 step(s)" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def rewrite_notes(out, text):
        """Replace run_notes.json and re-hash the manifest over it."""
        (out / "run_notes.json").write_text(text)
        manifest = json.loads((out / "manifest.json").read_text())
        names = [e["name"] for e in manifest["files"] if e["name"] != "manifest.json"]
        harness.write_manifest(str(out), parse_config(manifest["config"]), names)

    def test_report_shows_each_branch_crossing(self, tmp_path):
        cfg = self.write_cfg(tmp_path, self.FREE_TWIN)
        out = tmp_path / "twin"
        assert cli.main(["twin", cfg, "--out", str(out)]) == cli.EXIT_PASS

        def report():
            rep_out = tmp_path / "rep"
            assert cli.main(["report", str(out / "manifest.json"), "--out", str(rep_out)]) == (
                cli.EXIT_PASS
            )
            text = (rep_out / "report.txt").read_text()
            return text[text.index("cold-flow crossing:"):].splitlines()

        # free streaming never crosses
        assert report() == ["cold-flow crossing:", "  branch A: none seen", "  branch B: none seen"]
        self.rewrite_notes(out, '{"crossing_time_a": 0.48, "crossing_time_b": null}\n')
        assert report() == ["cold-flow crossing:", "  branch A: t = 0.48", "  branch B: none seen"]

    @pytest.mark.parametrize(
        "change, named",
        [
            ("append", "run_notes.json: size or sha256 differs"),
            ("edit", "run_notes.json: size or sha256 differs"),
            ("string", "crossing_time_a is neither a time nor null"),
            ("list", "crossing_time_a is neither a time nor null"),
        ],
    )
    def test_report_refuses_notes_unlike_its_manifest_or_malformed(
        self, tmp_path, capsys, change, named
    ):
        cfg = self.write_cfg(tmp_path, self.FREE_TWIN)
        out = tmp_path / "twin"
        assert cli.main(["twin", cfg, "--out", str(out)]) == cli.EXIT_PASS
        notes = out / "run_notes.json"
        if change == "append":
            with open(notes, "ab") as fh:
                fh.write(b"\n")
        elif change == "edit":
            # a time of the same size: only the sha256 tells
            notes.write_text(notes.read_text().replace("null", "1e-1", 1))
        elif change == "string":
            self.rewrite_notes(out, '{"crossing_time_a": "0.48", "crossing_time_b": null}\n')
        else:
            self.rewrite_notes(out, "[]\n")
        rep_out = tmp_path / "rep"
        assert cli.main(["report", str(out / "manifest.json"), "--out", str(rep_out)]) == (
            cli.EXIT_USAGE
        )
        assert named in capsys.readouterr().err
        assert not rep_out.exists()

    def test_preset_names_resolve(self):
        for name in presets.PRESET_NAMES:
            assert presets.bundled(name).scenario in name or name == "hubble"
        with pytest.raises(KeyError):
            presets.bundled("not-a-preset")

    def test_preset_configs_match_golden(self):
        # every preset, key by key, in the canonical text form
        want = json.loads((Path(__file__).parent / "golden" / "presets.json").read_text())
        assert sorted(want) == sorted(presets.PRESET_NAMES)
        for name in presets.PRESET_NAMES:
            assert serialize_config(presets.bundled(name)) == want[name], name


class TestProvedGronwallBound:
    @pytest.mark.parametrize("field_mode", ["grid", "direct"])
    def test_shift_twin_certifies_through_the_cli(self, field_mode, tmp_path, capsys):
        # a two-blob velocity-shift twin, both flows under one operator:
        # certify reports the one-step leapfrog bound held at every step
        cfg = replace(presets.bundled("two-blob"), ot_stride=0, t_final=1.0,
                      n_particles=1024, field_mode=field_mode)
        harness.emit_twin(cfg, tmp_path / "twin")
        records = str(tmp_path / "twin" / "records.csv")
        assert cli.main(["certify", records, "--out", str(tmp_path / "cert")]) == cli.EXIT_PASS
        assert "gronwall: Q_n+1 - Q_n <= leapfrog bound at every step: " in (
            capsys.readouterr().out
        )
        recs = read_records(records)
        assert len(recs) == 51 and all(r.Q > 0 for r in recs)


GOLDEN_FIXTURES = {
    "identity": dict(
        scenario="gaussian-blob",
        n_particles=256,
        grid_dims=16,
        box_edge=10.0,
        dt=0.05,
        t_final=0.25,
        twin_kind="none",
        ot_stride=0,
        snapshot_stride=5,
        seed=101,
    ),
    "free-streaming": dict(
        scenario="free-streaming",
        field_mode="none",
        n_particles=256,
        grid_dims=16,
        box_edge=16.0,
        dt=0.05,
        t_final=0.5,
        twin_kind="velocity-shift",
        twin_delta=1e-2,
        ot_stride=5,
        ot_subsample=64,
        snapshot_stride=5,
        seed=102,
    ),
    "blob": dict(
        scenario="gaussian-blob",
        n_particles=512,
        grid_dims=16,
        box_edge=10.0,
        dt=0.05,
        t_final=0.5,
        twin_kind="velocity-shift",
        twin_delta=1e-2,
        ot_stride=5,
        ot_subsample=128,
        snapshot_stride=5,
        seed=103,
    ),
    # the softened direct sum: its bytes pin the summation order of
    # fields.solve_field_direct and of the direct-mode T1/T2 fields
    "direct": dict(
        scenario="two-blob",
        epsilon=-1,
        field_mode="direct",
        n_particles=256,
        grid_dims=16,
        box_edge=10.0,
        sigma_x=0.35,
        dt=0.05,
        t_final=0.5,
        twin_kind="velocity-shift",
        twin_delta=1e-2,
        ot_stride=5,
        ot_subsample=128,
        snapshot_stride=5,
        seed=104,
    ),
}


# identity twins (twin_kind = none) whose branch A pins what no twin golden
# does: the CIC deposit, the kernel build and the grid solve at a non-dyadic
# cell size (a 15^3 grid on a 9.0 edge gives h = 0.6), and on the direct sum
# (epsilon = -1) the sign the field is written with. Beside each config, the
# sha256 of A's two snapshot files, of the <f8 bytes of the deposit of A's
# last state on A's grid, and of epsilon times the grid solve of that
# deposit with A's softening
FLOW_A_FIXTURES = {
    "grid": (
        dict(
            scenario="gaussian-blob",
            n_particles=256,
            grid_dims=15,
            box_edge=9.0,
            dt=0.05,
            t_final=0.25,
            snapshot_stride=5,
            seed=105,
        ),
        {
            "snapshot_a_000000.txt": "79da36188a48810ae86a60fe4654c3c78b3980456a851cb23e940ce9dab6e0fd",
            "snapshot_a_000005.txt": "4494660de705a2b819623a8dd18e99155ac5606b88af3f80f74a3e8591802df1",
            "density": "03cbcc46940cb7b20927063d63f88caec4d352241a9d819da961c4a0e5577379",
            "field": "b494898593dbf4492c5a895d9c51727b6b09ddf8840dd0473d204b60db3e493a",
        },
    ),
    "direct": (
        dict(
            scenario="two-blob",
            epsilon=-1,
            field_mode="direct",
            n_particles=128,
            grid_dims=16,
            box_edge=10.0,
            sigma_x=0.35,
            dt=0.05,
            t_final=0.25,
            snapshot_stride=5,
            seed=106,
        ),
        {
            "snapshot_a_000000.txt": "d1749e14bd7415a82d3ec52860bba21425ccc0050f753da5abae1df117c8bea6",
            "snapshot_a_000005.txt": "0e5fb9d72f628a7e686017f83734fa1da6413ceab67eff496e2640861abf53e7",
            "density": "5c0cb786a66dead2b4dbd6aa78800cc0486f0907f56bbbeb7f7624a847ef7977",
            "field": "0cea3ad558056e82c90ac0a239423683b6048ac0bee2e86751d1d1b5c798f151",
        },
    ),
}


def manifest_diff(got, want):
    """Which files of two manifests differ in sha256 or bytes, and the config."""
    got_files = {f["name"]: f for f in got["files"]}
    want_files = {f["name"]: f for f in want["files"]}
    config = "differs" if got["config"] != want["config"] else "same"
    lines = [f"config: {config}"]
    for name in sorted(got_files.keys() | want_files.keys()):
        g, w = got_files.get(name, {}), want_files.get(name, {})
        for key in ("sha256", "bytes"):
            if g.get(key) != w.get(key):
                lines.append(f"{name}: {key} pinned {w.get(key)}, got {g.get(key)}")
    return "\n".join(lines)


class TestGoldenFixtures:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FIXTURES))
    def test_manifest_matches_golden(self, name, tmp_path):
        import pathlib

        golden_path = pathlib.Path(__file__).parent / "golden" / f"{name}.json"
        cfg = ScenarioConfig(**GOLDEN_FIXTURES[name]).validate()
        manifest_path = harness.emit_twin(cfg, tmp_path / name)
        got = json.load(open(manifest_path))
        want = json.load(open(golden_path))
        assert got == want, manifest_diff(got, want)

    @pytest.mark.parametrize("name", sorted(GOLDEN_FIXTURES))
    def test_certification_matches_golden(self, name, tmp_path):
        # the verdict's own bytes: certification.csv and summary.txt as
        # emit_certification writes them from the fixture's records, in a
        # manifest of the certify directory (identity has no exact-OT rows)
        import pathlib

        golden_path = pathlib.Path(__file__).parent / "golden" / f"{name}-certify.json"
        cfg = ScenarioConfig(**GOLDEN_FIXTURES[name]).validate()
        harness.emit_twin(cfg, tmp_path / "twin")
        records = read_records(tmp_path / "twin" / "records.csv")
        harness.emit_certification(records, tmp_path / "cert")
        manifest_path = harness.write_manifest(
            tmp_path / "cert", cfg, ["certification.csv", "summary.txt"]
        )
        got = json.load(open(manifest_path))
        want = json.load(open(golden_path))
        assert got == want, manifest_diff(got, want)

    @pytest.mark.parametrize("name", sorted(FLOW_A_FIXTURES))
    def test_flow_a_matches_pinned_bytes(self, name, tmp_path):
        fixture, pinned = FLOW_A_FIXTURES[name]
        cfg = ScenarioConfig(**fixture).validate()
        harness.emit_twin(cfg, tmp_path)
        got = {
            snap: hashlib.sha256((tmp_path / snap).read_bytes()).hexdigest()
            for snap in ("snapshot_a_000000.txt", "snapshot_a_000005.txt")
        }
        # A's last state, read back from its last snapshot (%.17g round-trips)
        last = transport.load_cloud(tmp_path / "snapshot_a_000005.txt")
        ens = dynamics.ParticleEnsemble(last.points[:, :3], last.points[:, 3:], last.weights)
        spec, softening = cfg.field_solve()
        rho = dynamics.deposit(ens, spec)
        field = cfg.epsilon * fields.solve_field_grid(rho, softening).values
        for key, values in (("density", rho.values), ("field", field)):
            got[key] = hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()
        assert got == pinned
