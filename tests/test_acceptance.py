"""End-to-end acceptance checks.

Each test covers one release criterion, prints a single PASS/FAIL line
in the form `vkg verify` uses, and pins its tolerances.  The checks and
reference runs that `vkg verify` and the sweep scripts also use live in
`vkg.criteria`.  Reference runs are shared through session fixtures;
the suite takes about a minute.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from vkg import algebra, commuted, criteria, diagnostics, energies, fdtools
from vkg.cli import main, run_pipeline
from vkg.config import load_settings
from vkg.solver import SimConfig, run

from run_outputs import same_outputs

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _line(num: int, name: str, ok: bool, detail: str):
    print(criteria.line(f"acceptance {num:02d}", name, ok, detail))


def _load(name: str):
    return load_settings((CONFIGS / name).read_text(), environ={})


# ---------------------------------------------------------------------------
# shared reference runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def coupled_reference():
    """Small-data coupled run with the full diagnostic pipeline."""
    return run_pipeline(_load("n1-coupled-small.conf"))


@pytest.fixture(scope="session")
def free_kg_reference():
    """Lightcone-truncated free-field run for the conservation check."""
    return run_pipeline(_load("n1-free-kg.conf"))


def test_criterion_01_algebra_exactness():
    t0 = time.perf_counter()
    ok = all(criteria.structure_constants(n)[1] for n in (1, 2, 3, 4))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _line(1, "algebra exactness", ok,
          f"antisymmetry+Jacobi exact for n=1..4 in {elapsed:.2f}s")
    assert ok


def test_criterion_02_free_commutation():
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
    ok = not failures and elapsed < 30.0
    _line(2, "free transport commutation", ok,
          f"all generators n=1,2 Richardson 4±20% in {elapsed:.1f}s"
          + (f"; failures {failures}" if failures else ""))
    assert ok, failures


def test_criterion_03_commuted_vlasov():
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
    ok = not failures and elapsed < 120.0
    _line(3, "commuted transport equations", ok,
          f"|A|<=2 numeric n=1,2 + |A|<=3 index bounds in {elapsed:.1f}s")
    assert ok, failures[:5]


def test_criterion_04_moment_exchange():
    t0 = time.perf_counter()
    failures = []
    for n, m in ((1, 321), (2, 141)):
        func = fdtools.gaussian_test_function(n, seed=0)
        tx = fdtools.sample_points(n, m=6, seed=2)[:, :1 + n]
        for g in algebra.generators(n):
            for k in (0, 1):
                st = fdtools.moment_exchange_check(func, g, k, tx,
                                                   vmax=11.0, m=m)
                if not st.second_order:
                    failures.append((n, str(g), k, st))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _line(4, "moment exchange identities", ok,
          f"all generators k=0,1 n=1,2 O(h^2) in {elapsed:.1f}s")
    assert ok, failures


def test_criterion_05_density_lower_bounds(coupled_reference):
    _, ok, detail = criteria.density_lower_bounds(coupled_reference[1])
    _line(5, "density lower bounds", ok, detail)
    assert ok


def test_criterion_06_balance_laws(coupled_reference, free_kg_reference):
    # (a) free-field energy conservation at default resolution
    _, slices_kg, _, _, _ = free_kg_reference
    dev = criteria.relative_deviation(np.array(
        [energies.energy_report(sq, 0).E_N_phi for sq in slices_kg]))
    # (b) second-order convergence of the deviation on a scaled run
    ratio = (criteria.relative_deviation(
        criteria.free_kg_slice_energies(2400, 0.02))
        / criteria.relative_deviation(
            criteria.free_kg_slice_energies(4800, 0.01)))
    # (c) kinetic balance inequality on the coupled reference
    _, slices_c, reports_c, _, _ = coupled_reference
    slack = energies.vlasov_energy_inequality_slack(slices_c, reports_c, ())
    ok = dev < 1e-4 and 3.25 <= ratio <= 4.92 and slack >= -1e-6
    _line(6, "balance laws", ok,
          f"E_0 deviation {dev:.2e} < 1e-4, refinement ratio {ratio:.2f} "
          f"(order {math.log2(ratio):.2f}), kinetic slack {slack:.2e}")
    assert ok


def test_criterion_07_conservation_and_mms():
    # contained support: the velocity grid must hold the full Gaussian
    # tail, otherwise truncation outflow (not scheme error) shows up as
    # mass drift at the tail amplitude
    cfg = SimConfig(n=1, mode="coupled", x_extent=14.0, nx=280, vmax=3.0,
                    nv=72, dt=0.04, t0=2.0, t_end=8.0, epsilon=1e-3,
                    taus=(), f_width_x=0.5, f_width_v=0.3)
    res = run(cfg)
    checks = [criteria.mass_conservation(res), criteria.positivity(res)]
    coarse = criteria.mms_errors(640, 0.005)
    fine = criteria.mms_errors(1280, 0.0025)
    orders = tuple(math.log2(c / f) for c, f in zip(coarse, fine))
    ok = (all(check[1] for check in checks)
          and all(1.7 <= p <= 2.3 for p in orders))
    _line(7, "conservation and manufactured solutions", ok,
          ", ".join(detail for _, _, detail in checks)
          + f", orders phi {orders[0]:.2f} f {orders[1]:.2f}")
    assert ok


def test_criterion_08_dispersive_decay():
    t0 = time.perf_counter()
    settings = _load("n1-free-kg-decay.conf")
    res = run(settings.sim)
    fit = diagnostics.decay_fit(res.times, res.sup_phi,
                                settings.decay_window)
    elapsed = time.perf_counter() - t0
    ok = -0.6 <= fit.exponent <= -0.4 and elapsed < 300.0
    _line(8, "dispersive decay", ok,
          f"sup|phi| ~ t^{fit.exponent:.4f} ± {fit.stderr:.1e} "
          f"over t in {settings.decay_window} in {elapsed:.0f}s")
    assert ok


def test_criterion_09_klainerman_sobolev_boundedness():
    t0 = time.perf_counter()
    worsts = {}
    for name in ("n1-free-transport.conf", "n1-free-kg-ks.conf"):
        settings = _load(name)
        _, _, _, records, _ = run_pipeline(settings)
        worsts[name] = max(
            v for k, v in diagnostics.ratio_variations(records).items()
            if k.startswith("ks_"))
    elapsed = time.perf_counter() - t0
    ok = all(w < 5.0 for w in worsts.values()) and elapsed < 300.0
    detail = ", ".join(f"{k}: {v:.2f}" for k, v in worsts.items())
    _line(9, "decay-envelope boundedness", ok,
          f"worst ratio variation {detail} (< 5) in {elapsed:.0f}s")
    assert ok


def test_criterion_10_bootstrap_monitor(coupled_reference):
    _, _, reports, _, statuses = coupled_reference
    crossing = diagnostics.first_crossing(statuses)
    margins = max(max(s.margin_phi, s.margin_f) for s in statuses)
    # injected fault: an energy report breaching the threshold must trip
    eps = 1e-3
    fault = energies.EnergyReport(reports[0].tau, reports[0].order,
                                  E_N_phi=3 * eps, Ehat_N_f=0.0,
                                  Ehat_N1_f=3 * eps, breakdown_phi={},
                                  breakdown_f={}, breakdown_fw={})
    tripped = diagnostics.bootstrap_monitor([fault], eps, 0.0)[0].crossed
    trip_tau = diagnostics.first_crossing(
        diagnostics.bootstrap_monitor([fault], eps, 0.0))
    ok = crossing is None and margins < 1.0 and tripped \
        and trip_tau == reports[0].tau
    _line(10, "bootstrap monitor", ok,
          f"no crossing (max margin {margins:.3f}); "
          f"injected fault trips at tau={trip_tau}")
    assert ok


def test_criterion_11_determinism(tmp_path):
    conf = str(CONFIGS / "n1-coupled-small.conf")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = main(["simulate", conf, "--out", str(out1)])
    code2 = main(["simulate", conf, "--out", str(out2)])
    same = same_outputs(out1, out2)
    ok = code1 == 0 and code2 == 0 and all(same.values())
    _line(11, "determinism", ok,
          f"{sum(same.values())}/{len(same)} artifacts byte-identical "
          "(manifest compared without timings)")
    assert ok
