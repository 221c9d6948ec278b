"""Numerical certification of the twin-stability inequality chain.

Checks, per recorded step of a twin run:
  - Q(t) = 1/2 sum_i w_i |Xi_1,i - Xi_2,i|^2 and its measured dQ/dt,
  - the field-stability estimate  ||grad Psi_1 - grad Psi_2||_L2
      <= max(sup rho_1, sup rho_2)^(1/2) * W2(rho_1, rho_2), up to the
      factor 1 + PROP31_TOL,
  - the feasible-plan bounds  W2_rho^2 <= S <= 2Q and W2_phase^2 <= 2Q,
  - the differential inequality  dQ/dt <= Q + sqrt(2Q) (sqrt(T1) + sqrt(T2)),
  - a fitted envelope  dQ/dt <= C Q (1 + log(1/Q))  and its closed-form
    solution  y(t) = exp(1 - (1 - log Q0) e^{-Ct}),  the uniqueness
    witness (y -> 0 pointwise as Q0 -> 0).

osgood_envelope is the one evaluation of that envelope: the containment
check and the envelope column of the certification file both call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dc_fields

import numpy as np

# nothing here calls solve_field_grid; the import stays because
# perfbench/tracer.py wraps certify.solve_field_grid by name
from .fields import GridDensity, field_l2_diff, solve_field_grid
from .transport import coupling_cost, ordered_sum, squared_norms

E = math.e
PROP31_TOL = 0.05  # Prop. 3.1 passes while lhs <= (1 + PROP31_TOL) rhs
PROP31_ZERO_TOL = 1e-12  # a field difference above this with W2 = 0 is inconsistent
INEQ_TOL = 1e-9  # solver round-off allowed in the W2 <= feasible-plan checks
GRONWALL_MIN_FRACTION = 0.99  # share of checked steps the dQ/dt check must hold at
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
# written with W2_rho on every exact-OT row (harness._TwinObserver._stride_extras)
OT_ROW_COLUMNS = ("W2_phase", "Q_sub", "S_sub", "field_l2_diff", "prop31_rhs")


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


def prop31_sides(rho1: GridDensity, rho2: GridDensity, diff_field, w2):
    """(lhs, rhs) of the field-stability estimate: lhs = ||diff_field||_L2
    over the box, where diff_field = grad Psi_1 - grad Psi_2 is the solve
    of DensityDifference(rho1, rho2), and rhs = max(sup rho1, sup rho2)^{1/2}
    * w2."""
    return field_l2_diff(diff_field), math.sqrt(max(rho1.sup_norm, rho2.sup_norm)) * w2


def prop31_ratio(lhs, rhs):
    """lhs / rhs; with rhs = 0 it is 0 if lhs <= PROP31_ZERO_TOL, else inf."""
    if rhs > 0:
        return lhs / rhs
    return math.inf if lhs > PROP31_ZERO_TOL else 0.0


# --------------------------------------------------------------------------
# finite differences and the Gronwall chain


def fill_dQdt(records):
    """Centered-difference dQ/dt (one-sided at the ends), in place."""
    if len(records) < 2:
        return records
    t = np.array([r.t for r in records])
    q = np.array([r.Q for r in records])
    dq = np.gradient(q, t)
    for r, v in zip(records, dq):
        r.dQdt = float(v)
    return records


def _fd_tolerance(t, q):
    """Centered-difference error bound 2 dt^2 * |Q'''| with Q''' from the series."""
    dt = t[1] - t[0]
    if len(q) >= 5:
        d3 = np.abs(np.gradient(np.gradient(np.gradient(q, t), t), t))
        # local window max smooths the noisy triple difference
        k = 2
        est = np.array([d3[max(0, i - k) : i + k + 1].max() for i in range(len(q))])
    else:
        est = np.zeros_like(q)
    floor = 1e-14 * max(np.abs(q).max(initial=0.0), 1e-300)
    return 2.0 * dt**2 * est + floor


@dataclass
class GronwallReport:
    n_steps: int
    n_checked: int
    n_satisfied: int
    fraction_satisfied: float
    window: tuple  # (t_start, t_end) where max_gap <= 1/e, or None
    C_T1: float  # smallest C with T1 <= (C/4) S log^2 S on the window
    C_final: float  # smallest C with dQ/dt <= C Q (1 + log(1/Q))
    per_step_ok: list
    skipped_steps: list


def check_gronwall(records) -> GronwallReport:
    """Verify dQ/dt <= Q + sqrt(2Q) (sqrt(T1) + sqrt(T2)) + FD tolerance per
    step and fit the empirical envelope constants on the small-gap window.

    The bound is the one the argument proves. With dx, dv the twin gaps,
    dQ/dt = sum w (dx.dv + dv.(F_A(X_A) - F_B(X_B))). AM-GM bounds the
    first term by Q. Split F_A(X_A) - F_B(X_B) = d1 - d2 with d1 = F_B(X_A)
    - F_B(X_B) and d2 = F_B(X_A) - F_A(X_A) (compute_T1_T2); Cauchy-Schwarz
    and Minkowski bound the second term by sqrt(2Q) (sqrt(T1) + sqrt(T2)).

    Requires records uniformly spaced in strictly increasing time. Steps
    with Q = 0 are skipped and listed. The validity window is where the max
    particle gap stays <= 1/e (the smallness regime of the concavity step);
    constants are fitted there.
    """
    if len(records) < 3:
        raise ValueError("need at least 3 uniformly spaced records")
    t = np.array([r.t for r in records])
    dts = np.diff(t)
    if not dts[0] > 0:
        raise ValueError("record times do not strictly increase")
    if np.any(np.abs(dts - dts[0]) > SPACING_RTOL * dts[0]):
        raise ValueError("records are not uniformly spaced in time")
    fill_dQdt(records)
    q = np.array([r.Q for r in records])
    tol = _fd_tolerance(t, q)
    per_ok = []
    skipped = []
    n_sat = 0
    n_checked = 0
    for i, r in enumerate(records):
        if r.Q <= 0.0:
            skipped.append(r.step)
            per_ok.append(None)
            continue
        bound = r.Q + math.sqrt(2.0 * r.Q) * (math.sqrt(r.T1) + math.sqrt(r.T2)) + tol[i]
        ok = r.dQdt <= bound
        per_ok.append(ok)
        n_checked += 1
        n_sat += ok
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
    frac = n_sat / n_checked if n_checked else 1.0
    return GronwallReport(
        len(records), n_checked, n_sat, frac, window, c_t1, c_final, per_ok, skipped
    )


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
    t0: float
    n_checked: int
    n_contained: int
    passed: bool
    max_excess: float  # max over steps of Q / y - 1


def osgood_contain(records, C) -> OsgoodContainReport:
    """Check measured Q(t) <= y(t) for the envelope anchored at the first
    positive-Q record. Comparison-principle containment: if the fitted C
    dominates dQ/dt / (Q (1 + log 1/Q)) pointwise, Q stays under y."""
    pos = [r for r in records if r.Q > 0.0]
    if not pos:
        return OsgoodContainReport(C, 0.0, 0.0, 0, 0, True, 0.0)
    t0 = pos[0].t
    q0 = pos[0].Q
    n_ok = 0
    max_excess = -np.inf
    for r in pos:
        y = float(osgood_envelope(C, q0, r.t - t0))
        excess = r.Q / y - 1.0
        max_excess = max(max_excess, excess)
        n_ok += excess <= CONTAIN_RTOL
    return OsgoodContainReport(C, q0, t0, len(pos), n_ok, n_ok == len(pos), max_excess)


# --------------------------------------------------------------------------
# whole-run certification


@dataclass
class CertificationResult:
    verdicts: dict  # check name -> bool (or None if not applicable)
    gronwall: GronwallReport
    containment: OsgoodContainReport
    prop31_max_ratio: float
    lemma_max_w2rho_excess: float
    remark_max_w2phase_excess: float
    summary_lines: list
    passed: bool


def certify_records(records) -> CertificationResult:
    """Run the full inequality-chain certification over a record series.

    A row with W2_rho set is an exact-OT row and must carry every column in
    OT_ROW_COLUMNS, else ValueError names the step and the missing columns.
    The feasible-plan checks (W2_rho^2 <= S_sub, W2_rho^2 <= 2 Q_sub,
    W2_phase^2 <= 2 Q_sub) compare the exact-OT columns against the paired
    costs of the same subsample, so they are exact inequalities up to
    solver round-off.
    """
    verdicts = {}
    lines = []

    ot_rows = [r for r in records if r.W2_rho is not None]
    for r in ot_rows:
        missing = [c for c in OT_ROW_COLUMNS if getattr(r, c) is None]
        if missing:
            raise ValueError(
                f"step {r.step}: exact-OT row (W2_rho set) lacks {', '.join(missing)}"
            )
    prop_ratio = 0.0
    lemma_excess = -np.inf
    remark_excess = -np.inf
    for r in ot_rows:
        q2 = 2.0 * r.Q_sub
        lemma_excess = max(lemma_excess, r.W2_rho**2 - r.S_sub, r.W2_rho**2 - q2)
        remark_excess = max(remark_excess, r.W2_phase**2 - q2)
        prop_ratio = max(prop_ratio, prop31_ratio(r.field_l2_diff, r.prop31_rhs))
    if ot_rows:
        verdicts["lemma_w2"] = bool(lemma_excess <= INEQ_TOL)
        verdicts["remark_phase"] = bool(remark_excess <= INEQ_TOL)
        verdicts["prop31"] = bool(prop_ratio <= 1.0 + PROP31_TOL)
        lines.append(
            f"lemma_w2: W2_rho^2 - min(S_sub, 2Q_sub) max excess {lemma_excess:.3e} "
            f"-> {'PASS' if verdicts['lemma_w2'] else 'FAIL'}"
        )
        lines.append(
            f"remark_phase: W2_phase^2 - 2Q_sub max excess {remark_excess:.3e} "
            f"-> {'PASS' if verdicts['remark_phase'] else 'FAIL'}"
        )
        lines.append(
            f"prop31: max ratio {prop_ratio:.4f} (tol 1 + {PROP31_TOL}) "
            f"-> {'PASS' if verdicts['prop31'] else 'FAIL'}"
        )
    else:
        verdicts["lemma_w2"] = verdicts["remark_phase"] = verdicts["prop31"] = None
        lines.append("no exact-OT rows recorded; transport checks skipped")

    gron = check_gronwall(records)
    verdicts["gronwall"] = bool(gron.fraction_satisfied >= GRONWALL_MIN_FRACTION)
    lines.append(
        f"gronwall: dQ/dt <= Q + sqrt(2Q)(sqrt(T1)+sqrt(T2)) at "
        f"{gron.n_satisfied}/{gron.n_checked} checked steps "
        f"({100 * gron.fraction_satisfied:.1f}%, need >= {100 * GRONWALL_MIN_FRACTION:.0f}%) "
        f"-> {'PASS' if verdicts['gronwall'] else 'FAIL'}"
    )
    lines.append(
        f"fitted constants: C_T1 = {gron.C_T1:.4g}, C_final = {gron.C_final:.4g}; "
        f"small-gap window = {gron.window}"
    )

    contain = osgood_contain(records, max(gron.C_final, 1e-12))
    verdicts["osgood_containment"] = contain.passed
    lines.append(
        f"osgood: Q(t) <= envelope(C = {contain.C:.4g}, Q0 = {contain.Q0:.3e}) at "
        f"{contain.n_contained}/{contain.n_checked} steps "
        f"-> {'PASS' if contain.passed else 'FAIL'}"
    )

    all_q_zero = all(r.Q == 0.0 for r in records)
    if all_q_zero:
        lines.append("identical twins (Q = 0 throughout): chain trivially satisfied")

    applicable = [v for v in verdicts.values() if v is not None]
    passed = all(applicable)
    lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
    return CertificationResult(
        verdicts,
        gron,
        contain,
        prop_ratio,
        lemma_excess if ot_rows else 0.0,
        remark_excess if ot_rows else 0.0,
        lines,
        passed,
    )
