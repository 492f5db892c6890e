"""Checks and reference runs shared by `vkg verify`, the acceptance suite
and the sweep scripts.  A check returns ``(name, ok, detail)``, and `line`
formats it as the ``[PASS] suite: name (detail)`` line both print.
"""

from __future__ import annotations

import numpy as np

from . import algebra, energies
from .solver import RunResult, SimConfig, run


def line(suite: str, name: str, ok: bool, detail: str) -> str:
    return f"[{'PASS' if ok else 'FAIL'}] {suite}: {name} ({detail})"


def structure_constants(n: int):
    """Antisymmetry and Jacobi identity of the structure constants, exact."""
    return (f"structure constants n={n}",
            algebra.structure_constant_defects(n) == 0, "exact")


def mass_conservation(result: RunResult):
    """Relative mass drift per unit time below 1e-8."""
    span = result.times[-1] - result.times[0]
    drift = abs(result.mass[-1] - result.mass[0]) / result.mass[0] / span
    return "mass conservation", drift < 1e-8, f"mass drift {drift:.2e}/t"


def positivity(result: RunResult):
    """The most negative f of the run, relative to sup f, below 1e-14."""
    negativity = -float(np.min(result.min_f)) / float(np.max(result.sup_f))
    return ("positivity", negativity < 1e-14,
            f"negativity {negativity:.2e}·sup")


def density_lower_bounds(slices_q: list[energies.SliceQuantities]):
    """Every node's Vlasov and Klein-Gordon lower-bound slacks are >= 0."""
    total = bad = 0
    for sq in slices_q:
        for s in energies.density_samples(sq):
            total += 1
            bad += min(s.slacks_f) < 0.0 or s.slack_kg < 0.0
    return ("lower bounds", total > 0 and bad == 0,
            f"nonnegative slack at {total - bad}/{total} nodes "
            f"across {len(slices_q)} slices")


def free_kg_slice_energies(nx: int, dt: float,
                           taus: tuple[float, ...] = (6.5, 8.0, 10.0, 12.0)
                           ) -> np.ndarray:
    """Order-0 field energy on each slice of a lightcone-truncated
    free-field run.  The massive field stays inside the light cone of its
    data, so every slice holds the same energy up to scheme error."""
    cfg = SimConfig(n=1, mode="free_kg", x_extent=30.0, nx=nx, vmax=1.0,
                    nv=8, dt=dt, t0=6.0, t_end=28.0, epsilon=1e-3,
                    phi_amplitude=2e-5, phi_width=0.4, taus=taus,
                    rmax=25.0, rmax_mode="lightcone", support_radius=2.4,
                    slice_resolution=60)
    res = run(cfg)
    return np.array([energies.energy_report(
        energies.evaluate_slice(res.slices[tau], 0), 0).E_N_phi
        for tau in taus])


def relative_deviation(E: np.ndarray) -> float:
    """Worst relative deviation of a slice-energy series from its first."""
    return float(np.max(np.abs(E - E[0])) / E[0])


def mms_errors(nx: int, dt: float, nv: int = 160, span: float = 1.0,
               n: int = 1) -> tuple[float, float]:
    """Sup-norm errors (phi, f) of the manufactured-solution run in n
    dimensions from t = 1 to 1 + span, on x in [-8, 8] and v in [-3, 3]
    for n = 1 and on the smaller box x in [-4, 4], v in [-2, 2] for
    n = 2."""
    x_extent, vmax = (8.0, 3.0) if n == 1 else (4.0, 2.0)
    return run(SimConfig(n=n, mode="mms", x_extent=x_extent, nx=nx,
                         vmax=vmax, nv=nv, dt=dt, t0=1.0, t_end=1.0 + span,
                         epsilon=1e-3, taus=())).mms_error
