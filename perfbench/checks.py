"""Correctness checks on one pipeline run's outputs.

Every check is either an independent computation (the FFT solution of the
free Klein-Gordon equation, the quadrature node counts) or a property the
method must have (f = 0 stays 0, positivity, mass never grows, nonnegative
slacks, conserved free-field energy, radial data have no rotation energy).
None compares against a stored output of the program.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vkg import algebra, energies, geometry, solver

ENERGY_CONSERVATION_MAX = 1e-4   # acceptance criterion 06a's bound
FFT_REL_ERROR_MAX = 1e-3         # measured about 7e-6
MASS_DRIFT_MAX = 1e-8            # per unit time, as in `vkg verify solver`
POSITIVITY_FLOOR = 1e-14         # times max f, as in `vkg verify solver`
MASS_GROWTH_MAX = 1e-12          # roundoff, relative to the initial mass
ROT_ENERGY_RATIO_MAX = 1e-2      # measured about 1.4e-4


@dataclass
class Outputs:
    """What the checks read from one run, extracted from the program's
    return values and artifacts."""

    exit_code: int
    cfg: object                      # the run's vkg.solver.SimConfig
    times: np.ndarray
    mass: np.ndarray
    min_f: np.ndarray
    sup_f: np.ndarray
    node_counts: dict[float, int]
    fblock_absmax: float
    phiblocks: list                  # (t_levels, x_axes, phiblock) per node
    slacks: np.ndarray               # (samples, 4): three f slacks, one KG
    energy_id: list[float]           # order-0 field energy per slice
    energy_rot: list[float]          # rot_12 field energy per slice (n = 2)
    digests: dict[str, str]


def artifact_digests(outdir: Path) -> dict[str, str]:
    """SHA-256 of every artifact; the manifest without its timings."""
    out = {}
    for p in sorted(outdir.iterdir()):
        data = p.read_bytes()
        if p.name == "manifest.json":
            doc = json.loads(data)
            doc.pop("timings", None)
            data = json.dumps(doc, sort_keys=True).encode()
        out[p.name] = hashlib.sha256(data).hexdigest()
    return out


def collect(exit_code: int, pipeline_return, outdir: Path) -> Outputs:
    """Outputs of `vkg.cli.run_pipeline` plus the written artifacts."""
    result, slices_q, reports, _, _ = pipeline_return
    nodes = [nd for tau in sorted(result.slices)
             for nd in result.slices[tau].nodes]
    slacks = [list(s.slacks_f) + [s.slack_kg]
              for sq in slices_q for s in energies.density_samples(sq)]
    rot = [A for A in reports[0].breakdown_phi
           if len(A) == 1 and A[0].kind == algebra.ROT] if reports else []
    return Outputs(
        exit_code=exit_code,
        cfg=result.config,
        times=result.times.copy(), mass=result.mass.copy(),
        min_f=result.min_f.copy(), sup_f=result.sup_f.copy(),
        node_counts={tau: len(s.nodes) for tau, s in result.slices.items()},
        fblock_absmax=max((float(np.max(np.abs(nd.fblock))) for nd in nodes),
                          default=0.0),
        phiblocks=[(nd.t_levels, nd.x_axes, nd.phiblock.copy())
                   for nd in nodes] if result.config.n == 1 else [],
        slacks=np.array(slacks).reshape(-1, 4),
        energy_id=[rep.breakdown_phi[()] for rep in reports],
        energy_rot=[sum(abs(rep.breakdown_phi[A]) for A in rot)
                    for rep in reports] if rot else [],
        digests=artifact_digests(outdir))


# ---------------------------------------------------------------------------
# Checks: each returns (passed, detail)
# ---------------------------------------------------------------------------


def exit_code_zero(o: Outputs):
    return o.exit_code == 0, f"exit code {o.exit_code}"


def node_counts(o: Outputs):
    cfg = o.cfg
    want = {tau: len(geometry.build_slice_quadrature(
                tau, cfg.n, solver.slice_rmax(cfg, tau),
                cfg.slice_resolution).radii)
            for tau in cfg.taus}
    return o.node_counts == want, f"captured {o.node_counts}, quadrature {want}"


def f_identically_zero(o: Outputs):
    worst = max(float(np.max(np.abs(o.sup_f))), float(np.max(np.abs(o.min_f))),
                o.fblock_absmax)
    return worst == 0.0, f"max |f| {worst:.3g}"


def f_nonnegative(o: Outputs):
    floor = -POSITIVITY_FLOOR * float(np.max(o.sup_f))
    worst = float(np.min(o.min_f))
    return worst >= floor, f"min f {worst:.3g} (floor {floor:.3g})"


def mass_nonincreasing(o: Outputs):
    growth = float(np.max(np.diff(o.mass))) / o.mass[0]
    return growth <= MASS_GROWTH_MAX, f"largest one-step growth {growth:.3g}"


def mass_drift(o: Outputs):
    span = o.times[-1] - o.times[0]
    drift = abs(o.mass[-1] - o.mass[0]) / o.mass[0] / span
    return drift < MASS_DRIFT_MAX, f"{drift:.3g} per unit time"


def slacks_nonnegative(o: Outputs):
    worst = float(np.min(o.slacks)) if o.slacks.size else math.nan
    return o.slacks.size > 0 and worst >= 0.0, \
        f"min slack {worst:.3g} over {len(o.slacks)} nodes"


def energy_conserved(o: Outputs):
    e = np.array(o.energy_id)
    defect = float(np.max(np.abs(e - e[0])) / e[0])
    return len(e) >= 2 and defect < ENERGY_CONSERVATION_MAX, \
        f"relative defect {defect:.3g} over {len(e)} slices"


def rot_energy_small(o: Outputs):
    if not o.energy_rot:
        return False, "no rotation energy reported"
    ratio = max(r / e for r, e in zip(o.energy_rot, o.energy_id))
    return ratio < ROT_ENERGY_RATIO_MAX, f"E_rot / E_id {ratio:.3g}"


def kg_fft_solution(cfg, refine: int = 3):
    """Free 1-D Klein-Gordon field from the run's initial data, solved
    spectrally on a periodic grid `refine` times finer than the solver's.

    phi_hat(k, t) = phi_hat(k, t0) cos(w (t - t0)), w = sqrt(1 + k^2), as
    pi = d_t phi starts at zero.  Returns (fine grid, t -> phi(t)).
    """
    amp = cfg.phi_amplitude if cfg.phi_amplitude >= 0 else cfg.epsilon
    h = 2.0 * cfg.x_extent / (cfg.nx * refine)
    x = -cfg.x_extent + (np.arange(cfg.nx * refine) + 0.5) * h
    phi0_hat = np.fft.rfft(amp * np.exp(-x ** 2 / (2 * cfg.phi_width ** 2)))
    omega = np.sqrt(1.0 + (2 * np.pi * np.fft.rfftfreq(x.size, h)) ** 2)
    return x, lambda t: np.fft.irfft(phi0_hat * np.cos(omega * (t - cfg.t0)),
                                     x.size)


def phi_matches_fft(o: Outputs):
    """One fine-grid field at a time, kept only at the blocks' points."""
    if not o.phiblocks:
        return False, "no captured phi blocks"
    x, phi_at = kg_fft_solution(o.cfg)
    h = x[1] - x[0]
    exact = [np.empty_like(block, dtype=float) for _, _, block in o.phiblocks]
    rows = {}                        # t -> [(block, row, fine-grid indices)]
    for k, (t_levels, x_axes, _) in enumerate(o.phiblocks):
        idx = np.rint((x_axes[0] - x[0]) / h).astype(int)
        for r, t in enumerate(t_levels):
            rows.setdefault(float(t), []).append((k, r, idx))
    for t in sorted(rows):
        field = phi_at(t)
        for k, r, idx in rows[t]:
            exact[k][r] = field[idx]
    err = max(float(np.max(np.abs(b[2] - e)))
              for b, e in zip(o.phiblocks, exact))
    scale = max(float(np.max(np.abs(e))) for e in exact)
    rel = err / scale
    return rel < FFT_REL_ERROR_MAX, \
        f"relative error {rel:.3g} over {len(o.phiblocks)} blocks"


CHECKS = {
    "coupled_small": (exit_code_zero, node_counts, f_nonnegative,
                      mass_nonincreasing, slacks_nonnegative),
    "free_kg": (exit_code_zero, node_counts, f_identically_zero,
                energy_conserved, phi_matches_fft),
    "n2_coupled": (exit_code_zero, node_counts, mass_drift, f_nonnegative,
                   slacks_nonnegative, rot_energy_small),
}


def run_checks(workload: str, o: Outputs) -> list[tuple[str, bool, str]]:
    return [(fn.__name__, bool(ok), detail)
            for fn in CHECKS[workload] for ok, detail in [fn(o)]]


def repeat_checks(digests: dict[str, str], exit_code: int,
                  reference: dict[str, str]) -> list[tuple[str, bool, str]]:
    """Checks on a repetition: exit code 0 and artifacts byte-identical to
    the reference run's."""
    changed = sorted(k for k in digests.keys() | reference.keys()
                     if digests.get(k) != reference.get(k))
    return [("repeat_exit_code_zero", exit_code == 0, f"exit code {exit_code}"),
            ("repeat_artifacts_identical", not changed,
             f"differing: {changed}" if changed else "byte-identical")]
