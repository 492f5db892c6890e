"""The one table of checks: every check of `vkg verify` and every
acceptance criterion is a row of `SUITES`, and the sweep scripts share its
reference runs.

A row is called as ``row(runs, main)`` and yields ``(name, ok, detail)``
checks.  ``runs`` is the caller's cache over the pipeline of `vkg.cli`:
``runs(settings)`` returns its ``(result, slices, reports, records,
statuses)`` and runs each `RunSettings` once per `vkg verify` invocation
or test session, and is the only way a row gets a run.  ``main`` is the
`vkg` command line, through which criterion 11 runs `simulate`.  `line`
formats the ``[PASS] suite: name (detail)`` line both runners print.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from . import (algebra, commuted, diagnostics, energies, fdtools, geometry,
               report)
from .config import ENV_PREFIX, ConfigError, RunSettings, load_settings
from .solver import RunResult, SimConfig

# the shipped configs of the source tree; an install may not have them
CONFIGS = Path(__file__).resolve().parents[2] / "configs"


def line(suite: str, name: str, ok: bool, detail: str) -> str:
    return f"[{'PASS' if ok else 'FAIL'}] {suite}: {name} ({detail})"


def _shipped(name: str) -> Path:
    path = CONFIGS / name
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return path


def _settings(name: str) -> RunSettings:
    """A shipped config as written, without environment overrides."""
    return load_settings(_shipped(name).read_text(), environ={})


# ---------------------------------------------------------------------------
# checks with two callers
# ---------------------------------------------------------------------------


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


def lower_bounds(slices_q: list[energies.SliceQuantities]):
    """Every node's Vlasov and Klein-Gordon lower-bound slacks are >= 0."""
    total = bad = 0
    for sq in slices_q:
        for s in energies.density_samples(sq):
            total += 1
            bad += min(s.slacks_f) < 0.0 or s.slack_kg < 0.0
    return ("lower bounds", total > 0 and bad == 0,
            f"nonnegative slack at {total - bad}/{total} nodes "
            f"across {len(slices_q)} slices")


# ---------------------------------------------------------------------------
# reference runs with two callers
# ---------------------------------------------------------------------------


def free_kg_run(nx: int, dt: float,
                taus: tuple[float, ...] = (6.5, 8.0, 10.0, 12.0)
                ) -> RunSettings:
    """A lightcone-truncated free-field run, its slices evaluated at order
    1.  The massive field stays inside the light cone of its data, so
    every slice holds the same order-0 field energy up to scheme error."""
    return RunSettings(sim=SimConfig(
        n=1, mode="free_kg", x_extent=30.0, nx=nx, vmax=1.0, nv=8, dt=dt,
        t0=6.0, t_end=28.0, epsilon=1e-3, phi_amplitude=2e-5,
        phi_width=0.4, taus=taus, rmax=25.0, rmax_mode="lightcone",
        support_radius=2.4, slice_resolution=60, energy_order=1))


def energy_deviation(reports: list[energies.EnergyReport]) -> float:
    """Worst relative deviation of the order-0 field energy of the slices
    of a pipeline run from that of its first slice."""
    E = np.array([rep.breakdown_phi[()] for rep in reports])
    return float(np.max(np.abs(E - E[0])) / E[0])


def mms_run(nx: int, dt: float, nv: int = 160, span: float = 1.0,
            n: int = 1) -> RunSettings:
    """The manufactured-solution run in n dimensions from t = 1 to 1 + span
    on x in [-8, 8], v in [-3, 3] (n = 1) or x in [-4, 4], v in [-2, 2]
    (n = 2); its result's mms_error is the final sup errors (phi, f)."""
    x_extent, vmax = (8.0, 3.0) if n == 1 else (4.0, 2.0)
    return RunSettings(sim=SimConfig(
        n=n, mode="mms", x_extent=x_extent, nx=nx, vmax=vmax, nv=nv, dt=dt,
        t0=1.0, t_end=1.0 + span, epsilon=1e-3, taus=()))


# ---------------------------------------------------------------------------
# the quick suites of `vkg verify all`
# ---------------------------------------------------------------------------

# the small coupled run the solver and energies suites share
SMALL_RUN = RunSettings(sim=SimConfig(
    n=1, mode="coupled", x_extent=12.0, nx=240, vmax=4.0, nv=48, dt=0.04,
    t0=4.0, t_end=9.0, epsilon=1e-3, taus=(4.5, 6.0), rmax=5.0,
    support_radius=2.4))

# criterion 07's contained support: the velocity grid holds the Gaussian
# tail, whose outflow would otherwise show up as mass drift
CONTAINED_RUN = RunSettings(sim=SimConfig(
    n=1, mode="coupled", x_extent=14.0, nx=280, vmax=3.0, nv=72, dt=0.04,
    t0=2.0, t_end=8.0, epsilon=1e-3, taus=(), f_width_x=0.5,
    f_width_v=0.3))


def structure_constants_n1_to_4(runs, main):
    for n in (1, 2, 3, 4):
        yield structure_constants(n)


def slice_volumes(runs, main):
    for n, res in ((1, 4000), (2, 400)):
        q = geometry.build_slice_quadrature(2.0, n, 3.0, res)
        vol = float(q.weights.sum())
        ref = geometry.truncated_slice_volume(2.0, 3.0, n)
        err = abs(vol - ref) / ref
        yield f"slice volume n={n}", err < 1e-3, f"rel err {err:.2e}"


def small_run_solver(runs, main):
    result = runs(SMALL_RUN)[0]
    yield mass_conservation(result)
    yield positivity(result)
    yield ("slice capture",
           all(len(s.nodes) > 0 for s in result.slices.values()),
           "nodes fired")


def small_run_energies(runs, main):
    _, slices_q, reports, _, _ = runs(SMALL_RUN)
    yield lower_bounds(slices_q)
    yield ("hierarchy monotone",
           not any(rep.Ehat_N1_f < rep.Ehat_N_f * (1 - 1e-12)
                   for rep in reports),
           "Ehat_{N,1} >= Ehat_N")


# ---------------------------------------------------------------------------
# the acceptance criteria, in order; each pins its tolerances and
# wall-time gate
# ---------------------------------------------------------------------------


def algebra_exactness(runs, main):
    t0 = time.perf_counter()
    ok = all(structure_constants(n)[1] for n in (1, 2, 3, 4))
    elapsed = time.perf_counter() - t0
    yield ("algebra exactness", ok and elapsed < 1.0,
           f"antisymmetry+Jacobi exact for n=1..4 in {elapsed:.2f}s")


def free_commutation(runs, main):
    """[T, Zhat] f = 0: the FD residual is either at the roundoff floor
    (generators the scheme represents exactly) or contracts at 4 +- 20%
    across three step sizes."""
    t0 = time.perf_counter()
    failures = []
    for n in (1, 2):
        func = fdtools.gaussian_test_function(n, seed=0)
        pts = fdtools.sample_points(n, m=30, seed=2)
        for g in algebra.generators(n):
            res = [fdtools.verify_commuted_vlasov(
                (g,), n, func, None, pts, h=h).coarse
                for h in (2e-3, 1e-3, 5e-4)]
            if max(res) < 1e-12:
                continue
            ratios = (res[0] / res[1], res[1] / res[2])
            if not all(3.2 <= r <= 4.8 for r in ratios):
                failures.append((n, str(g), ratios))
    elapsed = time.perf_counter() - t0
    yield ("free transport commutation", not failures and elapsed < 30.0,
           f"all generators n=1,2 Richardson 4±20% in {elapsed:.1f}s"
           + (f"; failures {failures}" if failures else ""))


def commuted_vlasov(runs, main):
    t0 = time.perf_counter()
    failures = []
    for n, m in ((1, 20), (2, 12)):
        func = fdtools.gaussian_test_function(n, seed=0)
        phi = fdtools.gaussian_field(n, seed=1)
        pts = fdtools.sample_points(n, m=m, seed=2)
        gens = algebra.generators(n)
        for A in itertools.chain(
                ((g,) for g in gens), itertools.product(gens, gens)):
            st = fdtools.verify_commuted_vlasov(tuple(A), n, func, phi, pts)
            if not st.second_order:
                failures.append((n, tuple(map(str, A)), st))
    # structural index bounds, exhaustively to order 3
    for n in (1, 2):
        gens = algebra.generators(n)
        for order in (1, 2, 3):
            for A in itertools.product(gens, repeat=order):
                if not commuted.check_index_bounds(
                        commuted.derive_commuted_vlasov(A, n)):
                    failures.append(("bounds", tuple(map(str, A))))
    elapsed = time.perf_counter() - t0
    yield ("commuted transport equations", not failures and elapsed < 120.0,
           f"|A|<=2 numeric n=1,2 + |A|<=3 index bounds in {elapsed:.1f}s")


def _over_v0(func: fdtools.PointFunc, n: int, k: int) -> fdtools.PointFunc:
    """The test function divided by (v^0)^k."""
    def weighted(pts):
        v = pts[:, 1 + n:]
        return func(pts) / np.sqrt(1.0 + np.sum(v * v, axis=1)) ** k
    return weighted


def moment_exchange(runs, main):
    """Z_a int f/(v^0)^k dv through the commuted velocity average of
    f/(v^0)^k: for a boost the lift's Zhat_a (v^0)^-k = -k v^i/(v^0)^(k+1)
    and the derived weight u_i = v^i/v^0 leave the (1 - k) correction."""
    t0 = time.perf_counter()
    failures = []
    for n, m in ((1, 321), (2, 141)):
        func = fdtools.gaussian_test_function(n, seed=0)
        tx = fdtools.sample_points(n, m=6, seed=2)[:, :1 + n]
        for g in algebra.generators(n):
            for k in (0, 1):
                st = fdtools.verify_commuted_kg(
                    (g,), n, _over_v0(func, n, k), tx, vmax=11.0, m=m)
                if not st.second_order:
                    failures.append((n, str(g), k, st))
    elapsed = time.perf_counter() - t0
    yield ("moment exchange identities", not failures and elapsed < 60.0,
           f"all generators k=0,1 n=1,2 O(h^2) in {elapsed:.1f}s")


def density_lower_bounds(runs, main):
    _, ok, detail = lower_bounds(runs(_settings("n1-coupled-small.conf"))[1])
    yield "density lower bounds", ok, detail


def balance_laws(runs, main):
    # (a) free-field energy conservation at default resolution
    dev = energy_deviation(runs(_settings("n1-free-kg.conf"))[2])
    # (b) second-order convergence of the deviation on a scaled run
    ratio = (energy_deviation(runs(free_kg_run(2400, 0.02))[2])
             / energy_deviation(runs(free_kg_run(4800, 0.01))[2]))
    # (c) kinetic balance inequality on the coupled reference
    _, slices_c, reports_c, _, _ = runs(_settings("n1-coupled-small.conf"))
    slack = energies.vlasov_energy_inequality_slack(slices_c, reports_c, ())
    yield ("balance laws",
           dev < 1e-4 and 3.25 <= ratio <= 4.92 and slack >= -1e-6,
           f"E_0 deviation {dev:.2e} < 1e-4, refinement ratio {ratio:.2f} "
           f"(order {math.log2(ratio):.2f}), kinetic slack {slack:.2e}")


def conservation_and_mms(runs, main):
    res = runs(CONTAINED_RUN)[0]
    checks = [mass_conservation(res), positivity(res)]
    coarse = runs(mms_run(640, 0.005))[0].mms_error
    fine = runs(mms_run(1280, 0.0025))[0].mms_error
    orders = tuple(math.log2(c / f) for c, f in zip(coarse, fine))
    yield ("conservation and manufactured solutions",
           all(check[1] for check in checks)
           and all(1.7 <= p <= 2.3 for p in orders),
           ", ".join(detail for _, _, detail in checks)
           + f", orders phi {orders[0]:.2f} f {orders[1]:.2f}")


def dispersive_decay(runs, main):
    t0 = time.perf_counter()
    settings = _settings("n1-free-kg-decay.conf")
    res = runs(settings)[0]
    fit = diagnostics.decay_fit(res.times, res.sup_phi,
                                settings.decay_window)
    elapsed = time.perf_counter() - t0
    yield ("dispersive decay",
           -0.6 <= fit.exponent <= -0.4 and elapsed < 300.0,
           f"sup|phi| ~ t^{fit.exponent:.4f} ± {fit.stderr:.1e} "
           f"over t in {settings.decay_window} in {elapsed:.0f}s")


def klainerman_sobolev_boundedness(runs, main):
    t0 = time.perf_counter()
    worsts = {}
    for name in ("n1-free-transport.conf", "n1-free-kg-ks.conf"):
        records = runs(_settings(name))[3]
        worsts[name] = max(
            v for k, v in diagnostics.ratio_variations(records).items()
            if k.startswith("ks_"))
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{k}: {v:.2f}" for k, v in worsts.items())
    yield ("decay-envelope boundedness",
           all(w < 5.0 for w in worsts.values()) and elapsed < 300.0,
           f"worst ratio variation {detail} (< 5) in {elapsed:.0f}s")


def bootstrap_monitor(runs, main):
    _, _, reports, _, statuses = runs(_settings("n1-coupled-small.conf"))
    crossing = diagnostics.first_crossing(statuses)
    margins = max(max(s.margin_phi, s.margin_f) for s in statuses)
    # injected fault: an energy report breaching the threshold must trip
    eps = 1e-3
    fault = energies.EnergyReport(reports[0].tau, reports[0].order,
                                  E_N_phi=3 * eps, Ehat_N_f=0.0,
                                  Ehat_N1_f=3 * eps, breakdown_phi={},
                                  breakdown_f={}, breakdown_fw={})
    tripped = diagnostics.bootstrap_monitor([fault], eps)[0].crossed
    trip_tau = diagnostics.first_crossing(
        diagnostics.bootstrap_monitor([fault], eps))
    yield ("bootstrap monitor",
           crossing is None and margins < 1.0 and tripped
           and trip_tau == reports[0].tau,
           f"no crossing (max margin {margins:.3f}); "
           f"injected fault trips at tau={trip_tau}")


@contextlib.contextmanager
def _without_overrides():
    """No VKG_* variable in effect inside; the environment is restored
    afterwards."""
    saved = {k: os.environ.pop(k) for k in list(os.environ)
             if k.startswith(ENV_PREFIX)}
    try:
        yield
    finally:
        os.environ.update(saved)


def determinism(runs, main):
    """Two `vkg simulate` runs of the shipped small coupled config as
    written, whose own stdout is not shown, write the same artifacts."""
    conf = _shipped("n1-coupled-small.conf")
    with tempfile.TemporaryDirectory() as tmp, _without_overrides(), \
            contextlib.redirect_stdout(io.StringIO()):
        out1, out2 = Path(tmp) / "a", Path(tmp) / "b"
        code1 = main(["simulate", str(conf), "--out", str(out1)])
        code2 = main(["simulate", str(conf), "--out", str(out2)])
        same = report.same_outputs(out1, out2)
    yield ("determinism", code1 == 0 and code2 == 0 and all(same.values()),
           f"{sum(same.values())}/{len(same)} artifacts byte-identical "
           "(manifest compared without timings)")


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

# `vkg verify all` runs every suite but acceptance
SUITES = {
    "algebra": (structure_constants_n1_to_4,),
    "geometry": (slice_volumes,),
    "solver": (small_run_solver,),
    "energies": (small_run_energies,),
    "acceptance": (algebra_exactness, free_commutation, commuted_vlasov,
                   moment_exchange, density_lower_bounds, balance_laws,
                   conservation_and_mms, dispersive_decay,
                   klainerman_sobolev_boundedness, bootstrap_monitor,
                   determinism),
}


def rows(suite: str) -> list:
    """(label, row) for each row of a suite, the label being what its
    lines print before the colon: the acceptance criteria are numbered."""
    if suite != "acceptance":
        return [(suite, row) for row in SUITES[suite]]
    return [(f"acceptance {i:02d}", row)
            for i, row in enumerate(SUITES[suite], 1)]
