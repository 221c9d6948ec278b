"""Numerical certification of the twin-stability inequality chain.

Checks, per recorded step of a twin run:
  - Q(t) = 1/2 sum_i w_i |Xi_1,i - Xi_2,i|^2 and its measured dQ/dt,
  - the field-stability estimate  ||grad Psi_1 - grad Psi_2||_L2
      <= max(sup rho_1, sup rho_2)^(1/2) * W2(rho_1, rho_2), up to the
      factor 1 + PROP31_TOL,
  - the feasible-plan bounds  W2_rho^2 <= S <= 2Q and W2_phase^2 <= 2Q,
  - the differential inequality dQ/dt <= Q + sqrt(2Q) (sqrt(T1) + sqrt(T2))
    in the form the leapfrog keeps exactly over each step n -> n+1 (the
    one-step bound of check_gronwall), up to ROUNDOFF_RTOL Q,
  - a fitted envelope  dQ/dt <= C Q (1 + log(1/Q))  and its closed-form
    solution  y(t) = exp(1 - (1 - log Q0) e^{-Ct}),  the uniqueness
    witness (y -> 0 pointwise as Q0 -> 0).

certify_records returns one row per check, in summary order, each named
by its summary.txt label; osgood_contain evaluates the envelope once over
all record times, and that array is the certification file's envelope
column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields

import numpy as np

# nothing here calls solve_field_grid; the import stays because
# perfbench/tracer.py wraps certify.solve_field_grid by name
from .fields import solve_field_grid
from .transport import coupling_cost, ordered_sum, squared_norms

E = math.e
PROP31_TOL = 0.05  # Prop. 3.1 passes while lhs <= (1 + PROP31_TOL) rhs
PROP31_ZERO_TOL = 1e-12  # a field difference above this with W2 = 0 is inconsistent
INEQ_TOL = 1e-9  # solver round-off allowed in the W2 <= feasible-plan checks
# round-off allowed in the one-step bound on Q, as a share of max(Q_n, Q_n+1).
# A rigid twin without a field meets the bound with equality in exact
# arithmetic, so its excess is round-off, from two sources held to half each:
# the left-to-right sums over n particles (4 n 2^-53 of Q, 7.4e-10 at the
# memory cap's 1,657,008; measured 8.7e-14 on stream-ot, 1.1e-12 at 32768),
# and the drift's rounding of positions, up to 1.5 2^-53 box_edge a
# coordinate: 6 sqrt(3) 2^-53 box_edge / |twin_delta| of Q for a velocity
# shift, so the config refuses shifts below MIN_SHIFT_PER_EDGE box_edge
# (measured: 2e-10 Q at a shift of 1e-8 on a 16-unit box). A field twin's
# kicks round its velocities too, inside the bound's own slack
ROUNDOFF_RTOL = 1e-7
MIN_SHIFT_PER_EDGE = 2.0**-48 / ROUNDOFF_RTOL
SPACING_RTOL = 1e-9  # relative spread of record time steps still called uniform
CONTAIN_RTOL = 1e-9  # Q / y - 1 still counted as contained by the envelope


# --------------------------------------------------------------------------
# per-step ledger


@dataclass
class StabilityRecord:
    """One row of the twin-run ledger. None marks quantities not measured
    at that step (exact-OT columns are filled on a subsampled stride)."""

    step: int
    t: float
    Q: float
    dQdt: float = None
    T1: float = 0.0
    T2: float = 0.0
    S: float = 0.0  # sum w |X1 - X2|^2 (position gap)
    max_gap: float = 0.0  # max_i |Xi1_i - Xi2_i| (phase space)
    sup_rho1: float = None
    sup_rho2: float = None
    W2_rho: float = None
    W2_phase: float = None
    Q_sub: float = None  # Q restricted to the OT subsample (same indices)
    S_sub: float = None
    field_l2_diff: float = None
    prop31_rhs: float = None
    loglip_C: float = None


RECORD_COLUMNS = [f.name for f in dc_fields(StabilityRecord)]
GRONWALL_COLUMNS = ("step", "t", "Q", "S", "T1", "T2", "max_gap")  # read on every row
# what certify_records reads on every exact-OT row besides W2_rho; the
# harness writes them all there (sup_rho1 and sup_rho2 on every row)
OT_ROW_COLUMNS = (
    "W2_phase", "Q_sub", "S_sub", "field_l2_diff", "prop31_rhs", "sup_rho1", "sup_rho2"
)


# --------------------------------------------------------------------------
# elementary functionals


def _check_aligned(ens_a, ens_b):
    if ens_a.n != ens_b.n or not np.array_equal(ens_a.w, ens_b.w):
        raise ValueError("twin ensembles are not index-aligned on the shared sample")


def compute_gaps(ens_a, ens_b):
    """(Q, S, max_gap) of a twin pair from one pass over its gaps.

    Q = 1/2 sum_i w_i |Xi_1,i - Xi_2,i|^2 is half the weighted squared
    phase-space gap, S = sum_i w_i |X_1,i - X_2,i|^2 the cost of the index
    pairing of positions, and max_gap the largest phase-space gap. Q and S
    are coupling_cost's sums of the same terms, bit for bit.
    """
    _check_aligned(ens_a, ens_b)
    dx = ens_a.x - ens_b.x
    sx = squared_norms(dx)
    gap2 = sx + squared_norms(ens_a.v - ens_b.v)
    max_gap = float(np.sqrt(gap2.max(initial=0.0)))
    sx *= ens_a.w
    s = ordered_sum(sx)
    gap2 *= ens_a.w
    return 0.5 * ordered_sum(gap2), s, max_gap


def compute_T1_T2(ens_a, ens_b, fa_at_a, fb_at_b, field_b):
    """T1 = sum w |F_B(X_A) - F_B(X_B)|^2, T2 = sum w |F_B(X_A) - F_A(X_A)|^2.

    fa_at_a = F_A(X_A) and fb_at_b = F_B(X_B) are (n, 3) arrays, the flows'
    own accelerations; field_b is a callable points -> (n, 3) evaluating
    grad Psi_2, called once for the cross term F_B(X_A).
    """
    _check_aligned(ens_a, ens_b)
    fb_at_a = np.asarray(field_b(ens_a.x))
    t1 = coupling_cost(ens_a.w, fb_at_a - fb_at_b)
    t2 = coupling_cost(ens_a.w, fb_at_a - fa_at_a)
    return t1, t2


# --------------------------------------------------------------------------
# field stability check


def prop31_rhs(sup_rho1, sup_rho2, w2):
    """The right side of the field-stability estimate,
    max(sup rho1, sup rho2)^{1/2} * w2. Its left side is
    fields.field_l2_diff of the solve of DensityDifference(rho1, rho2)."""
    return math.sqrt(max(sup_rho1, sup_rho2)) * w2


def prop31_ratio(lhs, rhs):
    """lhs / rhs; with rhs = 0 it is 0 if lhs <= PROP31_ZERO_TOL, else inf."""
    if rhs > 0:
        return lhs / rhs
    return math.inf if lhs > PROP31_ZERO_TOL else 0.0


# --------------------------------------------------------------------------
# the Gronwall chain, one leapfrog step at a time


def fill_dQdt(records):
    """Centered-difference dQ/dt (one-sided at the ends), in place."""
    t = np.array([r.t for r in records])
    q = np.array([r.Q for r in records])
    dq = np.gradient(q, t)
    for r, v in zip(records, dq):
        r.dQdt = float(v)
    return records


@dataclass
class GronwallReport:
    max_excess: float  # largest (Q_n+1 - Q_n - bound) / max(Q_n, Q_n+1) over the steps
    window: tuple  # (t_start, t_end) where max_gap <= 1/e, or None
    C_T1: float  # smallest C with T1 <= (C/4) S log^2 S on the window
    C_final: float  # smallest C with dQ/dt <= C Q (1 + log(1/Q))
    per_step_ok: list  # per record: None on the first, else whether the step into it holds


def check_gronwall(records) -> GronwallReport:
    """Verify the one-step bound on Q that the kick-drift-kick leapfrog
    keeps exactly, at every step n -> n+1, and fit the envelope constants
    on the small-gap window.

    With dx, dv the twin gaps, |.| the w-weighted L2 norm and G = sqrt(T1)
    + sqrt(T2) >= |F_A(X_A) - F_B(X_B)| (Minkowski on the split of
    compute_T1_T2), the step's half kick, drift and half kick give
    |dv_n| = V = sqrt(2Q_n - S_n), |dv_n+1/2| <= V_h = V + (dt/2) G_n and
        Q_n+1 - Q_n <= dt sqrt(S_n) V_h + (dt^2/2) V_h^2
                       + (dt/2) V_h (G_n + G_n+1) + (dt^2/8) G_n+1^2,
    an equality for a rigid twin without a field. A step fails where
    Q_n+1 - Q_n exceeds the bound by more than ROUNDOFF_RTOL max(Q_n,
    Q_n+1); a step between two zero gaps has no excess.

    Requires records of consecutive steps, uniformly spaced in strictly
    increasing time, each with every GRONWALL_COLUMNS cell and S <= 2Q
    (compute_gaps sums 2Q from terms no smaller than S's), else ValueError
    names the step. The validity window is where the max particle gap
    stays <= 1/e (the smallness regime of the concavity step); constants
    are fitted there on the finite-difference dQ/dt (fill_dQdt).
    """
    if len(records) < 3:
        raise ValueError("need at least 3 uniformly spaced records")
    for r in records:
        missing = [c for c in GRONWALL_COLUMNS if getattr(r, c) is None]
        if missing or r.S > 2.0 * r.Q:
            raise ValueError(f"step {r.step}: " + (
                f"lacks {', '.join(missing)}" if missing else f"S = {r.S!r} exceeds 2Q"
            ))
    t = np.array([r.t for r in records])
    dts = np.diff(t)
    if not dts[0] > 0:
        raise ValueError("record times do not strictly increase")
    if np.any(np.abs(dts - dts[0]) > SPACING_RTOL * dts[0]):
        raise ValueError("records are not uniformly spaced in time")
    if any(b.step != a.step + 1 for a, b in zip(records, records[1:])):
        raise ValueError("records are not consecutive steps")
    fill_dQdt(records)
    q = np.array([r.Q for r in records])
    s = np.array([r.S for r in records])
    g = np.array([math.sqrt(r.T1) + math.sqrt(r.T2) for r in records])
    v_h = np.sqrt(2.0 * q[:-1] - s[:-1]) + 0.5 * dts * g[:-1]
    bound = dts * (
        np.sqrt(s[:-1]) * v_h + 0.5 * dts * v_h**2
        + 0.5 * v_h * (g[:-1] + g[1:]) + 0.125 * dts * g[1:] ** 2
    )
    scale = np.maximum(q[:-1], q[1:])
    excess = np.divide(np.diff(q) - bound, scale, out=np.zeros_like(scale), where=scale > 0)
    per_ok = [None] + (excess <= ROUNDOFF_RTOL).tolist()
    gaps = np.array([r.max_gap for r in records])
    in_window = gaps <= 1.0 / E
    window = None
    if np.any(in_window):
        idx = np.nonzero(in_window)[0]
        window = (float(t[idx[0]]), float(t[idx[-1]]))
    c_t1 = 0.0
    c_final = 0.0
    for i, r in enumerate(records):
        if not in_window[i] or r.Q <= 0.0:
            continue
        if 0.0 < r.S < 1.0 / E:
            denom = r.S * math.log(r.S) ** 2
            if denom > 0:
                c_t1 = max(c_t1, 4.0 * r.T1 / denom)
        if r.Q <= 1.0 / E and r.dQdt is not None and r.dQdt > 0:
            c_final = max(c_final, r.dQdt / (r.Q * (1.0 + math.log(1.0 / r.Q))))
    return GronwallReport(float(excess.max()), window, c_t1, c_final, per_ok)


# --------------------------------------------------------------------------
# Osgood envelope


def osgood_envelope(C, Q0, t):
    """The solution y(t) = exp(1 - (1 - log Q0) e^{-Ct}) of y' = C y (1 +
    log(1/y)), y(0) = Q0, at times t (scalar or array).

    With z = log y the ODE is linear, z' = C (1 - z), so the closed form is
    exact for every Q0 > 0: it rises toward the fixed point e from below,
    stays at e, and decays toward it from above. Q0 = 0 gives the
    identically-zero solution (uniqueness).
    """
    if C < 0:
        raise ValueError("C must be nonnegative")
    if Q0 < 0:
        raise ValueError("Q0 must be nonnegative")
    t = np.asarray(t, dtype=np.float64)
    if Q0 == 0.0:
        return np.zeros_like(t)
    return np.exp(1.0 - (1.0 - math.log(Q0)) * np.exp(-C * t))


@dataclass
class OsgoodContainReport:
    C: float
    Q0: float
    n_checked: int
    n_contained: int
    passed: bool
    max_excess: float  # max over steps of Q / y - 1
    envelope: list  # y at every record time, or None per record if Q = 0 throughout


def osgood_contain(records, C) -> OsgoodContainReport:
    """Check measured Q(t) <= y(t) for the envelope anchored at the first
    positive-Q record. Comparison-principle containment: if the fitted C
    dominates dQ/dt / (Q (1 + log 1/Q)) pointwise, Q stays under y."""
    q = np.array([r.Q for r in records])
    pos = q > 0.0
    if not pos.any():
        return OsgoodContainReport(C, 0.0, 0, 0, True, 0.0, [None] * len(records))
    first = records[int(np.argmax(pos))]
    y = osgood_envelope(C, first.Q, np.array([r.t for r in records]) - first.t)
    excess = q[pos] / y[pos] - 1.0
    n, n_ok = int(np.count_nonzero(pos)), int(np.count_nonzero(excess <= CONTAIN_RTOL))
    return OsgoodContainReport(C, first.Q, n, n_ok, n_ok == n, float(excess.max()), list(y))


# --------------------------------------------------------------------------
# whole-run certification


@dataclass
class Check:
    """One row of the verdict: the check, named by its summary.txt label;
    the statistic it compares with its threshold; the outcome; the summary
    text between label and outcome; and the lines printed after it."""

    name: str
    statistic: float
    passed: bool
    text: str
    notes: tuple = ()


@dataclass
class CertificationResult:
    checks: list  # Check rows in summary order; no transport rows without exact-OT rows
    gronwall: GronwallReport
    containment: OsgoodContainReport
    summary_lines: list
    passed: bool


def certify_records(records) -> CertificationResult:
    """Run the full inequality-chain certification over a record series.

    A row with W2_rho set is an exact-OT row and must carry every column in
    OT_ROW_COLUMNS, else ValueError names the step and the missing columns.
    Prop. 3.1 is judged on prop31_rhs recomputed from sup_rho1, sup_rho2
    and W2_rho; a stored prop31_rhs that differs raises ValueError naming
    the step, so an edited cell cannot turn a FAIL into a PASS.
    The feasible-plan checks (W2_rho^2 <= S_sub, W2_rho^2 <= 2 Q_sub,
    W2_phase^2 <= 2 Q_sub) compare the exact-OT columns against the paired
    costs of the same subsample, so they are exact inequalities up to
    solver round-off.
    """
    checks = []
    ot_rows = [r for r in records if r.W2_rho is not None]
    prop_ratio = 0.0
    lemma_excess = remark_excess = -np.inf
    for r in ot_rows:
        missing = [c for c in OT_ROW_COLUMNS if getattr(r, c) is None]
        if missing:
            raise ValueError(
                f"step {r.step}: exact-OT row (W2_rho set) lacks {', '.join(missing)}"
            )
        rhs = prop31_rhs(r.sup_rho1, r.sup_rho2, r.W2_rho)
        if r.prop31_rhs != rhs:
            raise ValueError(
                f"step {r.step}: prop31_rhs {r.prop31_rhs!r} differs from "
                f"sqrt(max(sup_rho1, sup_rho2)) * W2_rho = {rhs!r}"
            )
        q2 = 2.0 * r.Q_sub
        lemma_excess = max(lemma_excess, r.W2_rho**2 - r.S_sub, r.W2_rho**2 - q2)
        remark_excess = max(remark_excess, r.W2_phase**2 - q2)
        prop_ratio = max(prop_ratio, prop31_ratio(r.field_l2_diff, rhs))
    if ot_rows:
        checks += [
            Check("lemma_w2", lemma_excess, bool(lemma_excess <= INEQ_TOL),
                  f"W2_rho^2 - min(S_sub, 2Q_sub) max excess {lemma_excess:.3e}"),
            Check("remark_phase", remark_excess, bool(remark_excess <= INEQ_TOL),
                  f"W2_phase^2 - 2Q_sub max excess {remark_excess:.3e}"),
            Check("prop31", prop_ratio, bool(prop_ratio <= 1.0 + PROP31_TOL),
                  f"max ratio {prop_ratio:.4f} (tol 1 + {PROP31_TOL})"),
        ]

    gron = check_gronwall(records)
    checks.append(Check(
        "gronwall", gron.max_excess, bool(gron.max_excess <= ROUNDOFF_RTOL),
        f"Q_n+1 - Q_n <= leapfrog bound at every step: max excess {gron.max_excess:.3e} Q "
        f"(tol {ROUNDOFF_RTOL:g} Q)",
        (f"fitted constants: C_T1 = {gron.C_T1:.4g}, C_final = {gron.C_final:.4g}; "
         f"small-gap window = {gron.window}",),
    ))
    contain = osgood_contain(records, max(gron.C_final, 1e-12))
    checks.append(Check(
        "osgood", contain.max_excess, contain.passed,
        f"Q(t) <= envelope(C = {contain.C:.4g}, Q0 = {contain.Q0:.3e}) at "
        f"{contain.n_contained}/{contain.n_checked} steps",
        ("identical twins (Q = 0 throughout): chain trivially satisfied",)
        if all(r.Q == 0.0 for r in records) else (),
    ))

    lines = [] if ot_rows else ["no exact-OT rows recorded; transport checks skipped"]
    for c in checks:
        lines += [f"{c.name}: {c.text} -> {'PASS' if c.passed else 'FAIL'}", *c.notes]
    passed = all(c.passed for c in checks)
    lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
    return CertificationResult(checks, gron, contain, lines, passed)
