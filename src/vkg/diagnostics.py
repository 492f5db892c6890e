"""Inequality monitors, decay fits, and bootstrap thresholds.

The decay-rate inequalities carry unspecified constants, so the checks
report the dimensionless ratio of the measured left side to its energy
envelope; the falsifiable content is that the run-wide ratio stays
bounded across the slice window (variation below a configured factor),
not any particular constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .commuted import MultiIndex, _mi_str
from .energies import EnergyReport, SliceQuantities


@dataclass(frozen=True)
class InequalityRecord:
    name: str
    tau: float
    lhs: float            # worst measured left side (envelope applied)
    envelope: float       # energy factor on the right side
    ratio: float
    location: tuple[float, ...]   # y of the worst node
    vacuous: bool = False


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    stderr: float
    residual: float
    window: tuple[float, float]
    npoints: int


def decay_fit(times, values, window: tuple[float, float]) -> DecayFit:
    """Least-squares slope of log(value) against log(time) in the window."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = (t >= window[0]) & (t <= window[1]) & (v > 0) & (t > 0)
    if int(np.sum(mask)) < 5:
        raise ValueError("decay fit needs at least 5 positive points in window")
    lt = np.log(t[mask])
    lv = np.log(v[mask])
    A = np.column_stack([lt, np.ones_like(lt)])
    coef, res, *_ = np.linalg.lstsq(A, lv, rcond=None)
    fitted = A @ coef
    dof = max(len(lt) - 2, 1)
    s2 = float(np.sum((lv - fitted) ** 2)) / dof
    var = s2 * np.linalg.inv(A.T @ A)[0, 0]
    return DecayFit(float(coef[0]), math.sqrt(max(var, 0.0)),
                    float(np.sqrt(np.mean((lv - fitted) ** 2))),
                    window, int(np.sum(mask)))


# ---------------------------------------------------------------------------
# Klainerman-Sobolev monitors
# ---------------------------------------------------------------------------

VACUOUS_FLOOR = 1e-300


def _worst(name: str, sq: SliceQuantities, vals: np.ndarray,
           energy: float) -> InequalityRecord:
    """Record of the largest node value; the first node wins a tie."""
    i = int(np.argmax(vals))
    lhs = float(vals[i])
    return InequalityRecord(name, sq.tau, lhs, energy, lhs / energy,
                            tuple(sq.y[i]))


def ks_check_f(sq: SliceQuantities, report: EnergyReport,
               k: int) -> InequalityRecord:
    """Velocity-average decay against the order-n energy envelope.

    ratio = max over nodes of int |f|/(v^0)^k dv * t^(n-1+k) tau^(1-k),
    divided by Ehat_n(f)(tau).
    """
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    n = sq.n
    energy = report.Ehat_N_f
    name = f"ks_f_k{k}"
    if energy < VACUOUS_FLOOR:
        return InequalityRecord(name, sq.tau, 0.0, energy, 0.0, (), True)
    lhs = sq.integrate_v(np.abs(sq.f[()]) / sq.v0 ** k)
    vals = lhs * np.float_power(sq.t, n - 1 + k) * sq.tau ** (1 - k)
    return _worst(name, sq, vals, energy)


def ks_check_phi(sq: SliceQuantities, report: EnergyReport
                 ) -> tuple[InequalityRecord, InequalityRecord]:
    """Field and field-gradient decay against E_{floor(n/2)+1}^(1/2).

    Envelopes: t^(n/2) for |phi| and t^(n/2-1) tau for |d phi|.
    """
    n = sq.n
    energy = math.sqrt(max(report.E_N_phi, 0.0))
    if energy < VACUOUS_FLOOR:
        rec = InequalityRecord("ks_phi", sq.tau, 0.0, energy, 0.0, (), True)
        dec = InequalityRecord("ks_dphi", sq.tau, 0.0, energy, 0.0, (), True)
        return rec, dec
    val_p = np.abs(sq.phi[()]) * np.float_power(sq.t, n / 2)
    dnorm = np.sqrt(np.float_power(sq.phi_dt[()], 2)
                    + sum(np.float_power(sq.phi_grad[()][:, d], 2)
                          for d in range(n)))
    val_d = dnorm * np.float_power(sq.t, n / 2 - 1) * sq.tau
    return (_worst("ks_phi", sq, val_p, energy),
            _worst("ks_dphi", sq, val_d, energy))


def l2_estimate_check(sq: SliceQuantities, A: MultiIndex, eps: float,
                      delta: float) -> InequalityRecord:
    """Weighted L2 norm of the velocity average against eps^2 tau^(2delta-n).

    Reports int (t/tau) (int |Zhat_A f| dv)^2 dmu * tau^(n-2delta)/eps^2.
    """
    n = sq.n
    intf = sq.integrate_v(np.abs(sq.f[A]))
    lhs = sq.integrate((sq.t / sq.tau) * np.float_power(intf, 2))
    env = eps ** 2 * sq.tau ** (2 * delta - n)
    name = f"l2_{_mi_str(A)}"
    if lhs < VACUOUS_FLOOR:
        return InequalityRecord(name, sq.tau, lhs, env, 0.0, (), True)
    return InequalityRecord(name, sq.tau, lhs, env, lhs / env, ())


def ratio_variation(records: list[InequalityRecord]) -> float:
    """Max/min of the nonvacuous ratios; the boundedness figure of merit."""
    ratios = [r.ratio for r in records if not r.vacuous and r.ratio > 0]
    if not ratios:
        return 1.0
    return max(ratios) / min(ratios)


def ratio_variations(records: list[InequalityRecord]) -> dict[str, float]:
    """`ratio_variation` of each record name's group, in name order."""
    by_name: dict[str, list[InequalityRecord]] = {}
    for r in records:
        by_name.setdefault(r.name, []).append(r)
    return {name: ratio_variation(rs) for name, rs in sorted(by_name.items())}


# ---------------------------------------------------------------------------
# Bootstrap monitor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapStatus:
    tau: float
    margin_phi: float      # E_N(phi) / (2 eps)
    margin_f: float        # Ehat_{N,1}(f) / (2 eps tau^delta)
    crossed: bool


def delta_rule(eps: float, mode: str = "free") -> float:
    """Threshold exponent: 0 in the weak-coupling regimes, eps^(1/4) in
    the dimension-four rule."""
    if mode == "free":
        return 0.0
    if mode == "n4":
        return eps ** 0.25
    raise ValueError(f"unknown delta mode {mode!r}")


def bootstrap_monitor(reports: list[EnergyReport], eps: float,
                      delta: float) -> list[BootstrapStatus]:
    """Threshold margins per slice; a margin >= 1 is a crossing."""
    out = []
    for rep in reports:
        m_phi = rep.E_N_phi / (2 * eps)
        m_f = rep.Ehat_N1_f / (2 * eps * rep.tau ** delta)
        out.append(BootstrapStatus(rep.tau, m_phi, m_f,
                                   m_phi >= 1.0 or m_f >= 1.0))
    return out


def first_crossing(statuses: list[BootstrapStatus]) -> float | None:
    for st in statuses:
        if st.crossed:
            return st.tau
    return None
