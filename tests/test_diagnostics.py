"""Monitor tests: decay fits, Klainerman-Sobolev style ratio checks,
and the bootstrap threshold logic, mostly on synthetic inputs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_energies import node_phi, node_rows, one_node_slices, random_slice
from vkg import energies, report
from vkg.commuted import _mi_str, multi_indices_up_to
from vkg.diagnostics import (BootstrapStatus, DecayFit, InequalityRecord,
                             bootstrap_monitor, decay_fit, delta_rule,
                             first_crossing, ks_check_f, ks_check_phi,
                             l2_estimate_check, ratio_variation)
from vkg.energies import EnergyReport, energy_report, evaluate_slice
from vkg.solver import SimConfig, run


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(p=st.floats(-3.0, 1.0), c=st.floats(0.1, 100.0))
def test_decay_fit_recovers_exact_power_law(p, c):
    t = np.linspace(2.0, 40.0, 120)
    fit = decay_fit(t, c * t ** p, (2.0, 40.0))
    assert abs(fit.exponent - p) < 1e-10
    assert fit.stderr < 1e-10
    assert fit.residual < 1e-10


def test_decay_fit_constant_series_gives_zero():
    t = np.linspace(1.0, 10.0, 50)
    fit = decay_fit(t, np.full_like(t, 3.7), (1.0, 10.0))
    assert abs(fit.exponent) < 1e-12


def test_decay_fit_amplitude_invariant():
    t = np.linspace(2.0, 30.0, 80)
    v = t ** -0.5 * (1 + 0.05 * np.sin(t))
    a = decay_fit(t, v, (3.0, 25.0))
    b = decay_fit(t, 1e6 * v, (3.0, 25.0))
    assert abs(a.exponent - b.exponent) < 1e-12
    assert a.npoints == b.npoints


def test_decay_fit_window_restricts_points():
    t = np.linspace(1.0, 20.0, 100)
    fit = decay_fit(t, t ** -1.0, (5.0, 10.0))
    assert fit.window == (5.0, 10.0)
    assert fit.npoints == int(np.sum((t >= 5.0) & (t <= 10.0)))


def test_decay_fit_rejects_thin_or_nonpositive_data():
    t = np.linspace(1.0, 10.0, 50)
    with pytest.raises(ValueError):
        decay_fit(t, t ** -1.0, (9.7, 10.0))
    with pytest.raises(ValueError):
        decay_fit(t, np.zeros_like(t), (1.0, 10.0))


# ---------------------------------------------------------------------------
# thresholds and crossings
# ---------------------------------------------------------------------------

def test_delta_rule_modes():
    assert delta_rule(1e-3, "free") == 0.0
    assert delta_rule(1e-4, "n4") == pytest.approx(0.1)
    with pytest.raises(ValueError):
        delta_rule(1e-3, "quartic")


def _report(tau, e_phi, ehat, ehat_w):
    return EnergyReport(tau, 1, e_phi, ehat, ehat_w, {}, {}, {})


def test_bootstrap_margins_and_crossing():
    eps = 1e-3
    reports = [_report(2.0, 1e-4, 0.0, 1e-4),
               _report(4.0, 1e-4, 0.0, 3e-3)]
    st0, st1 = bootstrap_monitor(reports, eps, delta=0.0)
    assert st0.margin_phi == pytest.approx(0.05)
    assert st0.margin_f == pytest.approx(0.05)
    assert not st0.crossed
    assert st1.margin_f == pytest.approx(1.5)
    assert st1.crossed
    assert first_crossing([st0, st1]) == 4.0
    assert first_crossing([st0]) is None


def test_bootstrap_tau_delta_weakens_f_threshold():
    reports = [_report(9.0, 0.0, 0.0, 2.5e-3)]
    eps = 1e-3
    hard = bootstrap_monitor(reports, eps, delta=0.0)[0]
    soft = bootstrap_monitor(reports, eps, delta=0.5)[0]
    assert hard.crossed
    assert soft.margin_f == pytest.approx(hard.margin_f / 3.0)
    assert not soft.crossed


def test_ratio_variation():
    recs = [InequalityRecord("x", 2.0, 1.0, 1.0, 0.5, ()),
            InequalityRecord("x", 3.0, 1.0, 1.0, 2.0, ()),
            InequalityRecord("x", 4.0, 0.0, 1.0, 0.0, (), vacuous=True)]
    assert ratio_variation(recs) == pytest.approx(4.0)
    assert ratio_variation([recs[2]]) == 1.0


# ---------------------------------------------------------------------------
# slice-based checks on a small run
# ---------------------------------------------------------------------------

CFG = SimConfig(n=1, mode="coupled", x_extent=12.0, nx=240, vmax=2.0, nv=48,
                dt=0.04, t0=2.0, t_end=6.0, epsilon=1e-3,
                taus=(3.0, 4.0), rmax=3.5, slice_resolution=12,
                f_width_x=0.5, f_width_v=0.3)


@pytest.fixture(scope="module")
def coupled_pair():
    res = run(CFG)
    sls = [evaluate_slice(res.slices[tau], 1) for tau in CFG.taus]
    return res, sls


def test_ks_f_ratio_invariant_under_amplitude(coupled_pair):
    """Both sides of the velocity-average check are linear in f, so the
    ratio must not depend on the data amplitude."""
    import dataclasses
    from vkg.energies import energy_report
    _, sls = coupled_pair
    rep = energy_report(sls[0], 1)
    base = ks_check_f(sls[0], rep, k=1)
    res2 = run(dataclasses.replace(CFG, f_amplitude=3e-3, taus=(3.0,),
                                   t_end=6.0))
    sq2 = evaluate_slice(res2.slices[3.0], 1)
    rep2 = energy_report(sq2, 1)
    scaled = ks_check_f(sq2, rep2, k=1)
    assert scaled.ratio == pytest.approx(base.ratio, rel=2e-2)


def test_ks_records_shape(coupled_pair):
    from vkg.energies import energy_report
    _, sls = coupled_pair
    for sq in sls:
        rep = energy_report(sq, 1)
        for k in (0, 1):
            rec = ks_check_f(sq, rep, k)
            assert rec.name == f"ks_f_k{k}"
            assert rec.tau == sq.tau
            assert rec.lhs > 0 and rec.envelope > 0
            assert rec.ratio == pytest.approx(rec.lhs / rec.envelope)
            assert len(rec.location) == 1
        rp, rd = ks_check_phi(sq, rep)
        assert rp.name == "ks_phi" and rd.name == "ks_dphi"
        assert rp.ratio > 0 and rd.ratio > 0
    with pytest.raises(ValueError):
        ks_check_f(sls[0], energy_report(sls[0], 1), k=2)


def test_l2_check_quadratic_in_amplitude(coupled_pair):
    import dataclasses
    from vkg.energies import energy_report
    _, sls = coupled_pair
    base = l2_estimate_check(sls[0], (), CFG.epsilon, 0.0)
    res2 = run(dataclasses.replace(CFG, f_amplitude=2e-3, taus=(3.0,),
                                   t_end=6.0))
    sq2 = evaluate_slice(res2.slices[3.0], 1)
    scaled = l2_estimate_check(sq2, (), CFG.epsilon, 0.0)
    assert scaled.lhs == pytest.approx(4 * base.lhs, rel=2e-2)
    assert base.envelope == CFG.epsilon ** 2 * sls[0].tau ** -1


def test_zero_data_checks_are_vacuous():
    import dataclasses
    from vkg.energies import energy_report
    cfg = dataclasses.replace(CFG, mode="free_kg", phi_amplitude=0.0,
                              taus=(3.0,), t_end=6.0)
    res = run(cfg)
    sq = evaluate_slice(res.slices[3.0], 1)
    rep = energy_report(sq, 1)
    assert ks_check_f(sq, rep, 0).vacuous
    assert ks_check_phi(sq, rep)[0].vacuous
    assert l2_estimate_check(sq, (), 1e-3, 0.0).vacuous


# ---------------------------------------------------------------------------
# node-by-node references: the per-node loops that the stacked monitors
# replaced, on rows of the stacked arrays with Python floats; the first
# node wins a tie, as with the strict > below
# ---------------------------------------------------------------------------

def ref_ks_check_f(sq, report, k):
    n, energy = sq.n, report.Ehat_N_f
    vg = np.meshgrid(*sq.v_axes, indexing="ij")
    v0 = np.sqrt(1.0 + sum(v ** 2 for v in vg))
    worst, loc = -1.0, ()
    for i, t, y, _ in node_rows(sq):
        lhs = float(np.sum(np.abs(sq.f[()][i]) / v0 ** k)) * sq.dv ** n
        val = lhs * t ** (n - 1 + k) * sq.tau ** (1 - k)
        if val > worst:
            worst, loc = val, y
    return InequalityRecord(f"ks_f_k{k}", sq.tau, worst, energy,
                            worst / energy, loc)


def ref_ks_check_phi(sq, report):
    n = sq.n
    energy = math.sqrt(max(report.E_N_phi, 0.0))
    worst_p, worst_d = -1.0, -1.0
    loc_p, loc_d = (), ()
    for i, t, y, _ in node_rows(sq):
        phi, dtphi, grad = node_phi(sq, (), i)
        val_p = abs(phi) * t ** (n / 2)
        dnorm = math.sqrt(dtphi ** 2 + sum(g ** 2 for g in grad))
        val_d = dnorm * t ** (n / 2 - 1) * sq.tau
        if val_p > worst_p:
            worst_p, loc_p = val_p, y
        if val_d > worst_d:
            worst_d, loc_d = val_d, y
    return (InequalityRecord("ks_phi", sq.tau, worst_p, energy,
                             worst_p / energy, loc_p),
            InequalityRecord("ks_dphi", sq.tau, worst_d, energy,
                             worst_d / energy, loc_d))


def ref_l2_estimate_check(sq, A, eps, delta):
    n = sq.n
    vals = []
    for i, t, _, _ in node_rows(sq):
        intf = float(np.sum(np.abs(sq.f[A][i]))) * sq.dv ** n
        vals.append((t / sq.tau) * intf ** 2)
    lhs = sq.integrate(np.array(vals))
    env = eps ** 2 * sq.tau ** (2 * delta - n)
    return InequalityRecord(f"l2_{_mi_str(A)}", sq.tau, lhs, env, lhs / env,
                            ())


@pytest.mark.parametrize("n,count", [(1, 40), (2, 5)])
def test_monitors_equal_node_loop(n, count, coupled_pair):
    data = random_slice(n, count)
    # more nodes than one STACK_CELLS stack holds
    assert len(data.nodes) * data.nodes[0].fblock.size > energies.STACK_CELLS
    slices = [(evaluate_slice(data, 1), 1)]
    if n == 1:
        slices += [(sq, 1) for sq in coupled_pair[1]]
    # one-node slices of values whose squares differ from x * x
    slices += [(sq, 0) for sq in one_node_slices(n, 100, hard_f=True)]
    for sq, order in slices:
        rep = energy_report(sq, order)
        for k in (0, 1):
            rec = ks_check_f(sq, rep, k)
            assert not rec.vacuous
            assert rec == ref_ks_check_f(sq, rep, k)
        assert ks_check_phi(sq, rep) == ref_ks_check_phi(sq, rep)
        for A in multi_indices_up_to(n, order):
            for delta in (0.0, 0.25):
                assert l2_estimate_check(sq, A, 1e-3, delta) \
                    == ref_l2_estimate_check(sq, A, 1e-3, delta)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_records_csv_round_shape():
    recs = [InequalityRecord("ks_phi", 2.0, 1.5, 3.0, 0.5, (1.25,)),
            InequalityRecord("l2_", 3.0, 0.0, 1.0, 0.0, (), vacuous=True)]
    text = report.inequalities_csv(recs)
    lines = text.strip().split("\n")
    assert lines[0] == "name,tau,lhs,envelope,ratio,location,vacuous"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "ks_phi"
    assert lines[2].endswith(",1")


def test_fits_csv_sorted_by_name():
    fits = {"sup_phi": DecayFit(-0.5, 1e-3, 1e-2, (2.0, 10.0), 40),
            "sup_f": DecayFit(-1.0, 1e-3, 1e-2, (2.0, 10.0), 40)}
    lines = report.decay_csv(fits).strip().split("\n")
    assert lines[0].startswith("series,exponent")
    assert [ln.split(",")[0] for ln in lines[1:]] == ["sup_f", "sup_phi"]
