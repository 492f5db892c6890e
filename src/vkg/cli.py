"""Command-line entry point.

Subcommands: simulate, derive, verify, ks-check, decay-fit, slice-dump.
Exit codes: 0 success, 2 usage/config error, 3 runtime error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import commuted, criteria, diagnostics, energies, geometry, report
from .config import ConfigError, RunSettings, load_settings, settings_echo
from .solver import SYMBOLIC_CAP, SimConfig, SolverError, run


# ---------------------------------------------------------------------------
# Shared pipeline: run a config and evaluate every diagnostic slice
# ---------------------------------------------------------------------------


def run_pipeline(settings: RunSettings):
    cfg = settings.sim
    result = run(cfg)
    slices_q = []
    reports = []
    for tau in sorted(result.slices):
        sq = energies.evaluate_slice(result.slices[tau], cfg.energy_order)
        slices_q.append(sq)
        reports.append(energies.energy_report(sq, cfg.energy_order))
    records = []
    eps = cfg.epsilon
    delta = diagnostics.delta_rule(eps, settings.delta_mode)
    for sq, rep in zip(slices_q, reports):
        # the decay envelopes use the low-order energies: order n for
        # velocity averages, floor(n/2)+1 for the field
        rep_f = energies.energy_report(sq, min(cfg.n, cfg.energy_order))
        rep_phi = energies.energy_report(
            sq, min(cfg.n // 2 + 1, cfg.energy_order))
        records.append(diagnostics.ks_check_f(sq, rep_f, 0))
        records.append(diagnostics.ks_check_f(sq, rep_f, 1))
        records.extend(diagnostics.ks_check_phi(sq, rep_phi))
        for A in commuted.multi_indices_up_to(cfg.n, 1):
            records.append(diagnostics.l2_estimate_check(sq, A, eps, delta))
    statuses = diagnostics.bootstrap_monitor(reports, eps, delta)
    return result, slices_q, reports, records, statuses


def _load_settings_path(path: str) -> RunSettings:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    return load_settings(p.read_text())


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    settings = _load_settings_path(args.config)
    outdir = Path(args.out) if args.out else Path(
        Path(args.config).stem + ".out")
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    result, slices_q, reports, records, statuses = run_pipeline(settings)
    t_diag = time.perf_counter()

    outputs = []

    def emit(name: str, text: str):
        p = outdir / name
        p.write_text(text)
        outputs.append(p)

    emit("energies.csv", report.energies_csv(reports))
    emit("energies.json", report.energies_json(reports))
    emit("inequalities.csv", report.inequalities_csv(records))
    emit("bootstrap.csv", report.bootstrap_csv(statuses))
    emit("series.csv", report.series_csv(result))

    fits = {}
    lo, hi = settings.decay_window
    for name, vals in (("sup_phi", result.sup_phi), ("sup_f", result.sup_f)):
        try:
            fits[name] = diagnostics.decay_fit(result.times, vals, (lo, hi))
        except ValueError:
            pass
    if fits:
        emit("decay.csv", report.decay_csv(fits))

    taus = np.array([rep.tau for rep in reports])
    if len(taus) >= 2:
        emit("energy_vs_tau.svg", report.svg_plot(
            {"E_phi": (taus, np.array([r.E_N_phi for r in reports])),
             "Ehat_f": (taus, np.array([r.Ehat_N_f for r in reports]))},
            "tau", "slice energy"))
    emit("decay.svg", report.svg_plot(
        {"sup |phi|": (result.times, result.sup_phi),
         "sup f": (result.times, result.sup_f)},
        "log10 t", "log10 sup", loglog=True))

    crossing = diagnostics.first_crossing(statuses)
    variations = diagnostics.ratio_variations(records)
    bounded = all(v <= settings.ratio_variation_max
                  for v in variations.values())
    summary = {
        "bootstrap_crossing": crossing,
        "ratio_variation": variations,
        "ratio_bounded": bounded,
        "decay_exponents": {k: f.exponent for k, f in sorted(fits.items())},
        "warnings": list(result.warnings),
        "passed": crossing is None and bounded,
    }
    timings = {"solve_seconds": result.wall_seconds,
               "diagnostics_seconds": t_diag - t0 - result.wall_seconds,
               "total_seconds": time.perf_counter() - t0}
    report.write_manifest(outdir / "manifest.json", settings_echo(settings),
                          outputs, timings, summary)
    print(f"wrote {len(outputs) + 1} artifacts to {outdir}")
    if not summary["passed"]:
        print("monitor failures:", json.dumps(summary, indent=1,
                                              sort_keys=True))
        return 4
    return 0


# ---------------------------------------------------------------------------
# derive
# ---------------------------------------------------------------------------


def cmd_derive(args) -> int:
    if args.order > SYMBOLIC_CAP:
        raise ConfigError(f"order {args.order} exceeds cap {SYMBOLIC_CAP}")
    # commuting the Vlasov equation with the empty multi-index is trivial
    lowest = 1 if args.target == "vlasov" else 0
    if args.order < lowest:
        raise ConfigError(f"order {args.order} is below {lowest} for "
                          f"target {args.target}")
    indices = commuted.all_multi_indices(args.n, args.order)
    if args.target == "vlasov":
        rhs = {A: commuted.derive_commuted_vlasov(A, args.n) for A in indices}
        to_json, to_text = (commuted.vlasov_rhs_to_json,
                            commuted.vlasov_rhs_to_text)
    else:
        rhs = {A: commuted.derive_commuted_kg(A, args.n) for A in indices}
        to_json, to_text = commuted.kg_rhs_to_json, commuted.kg_rhs_to_text
    if args.format == "json":
        doc = {commuted._mi_str(A): json.loads(to_json(r))
               for A, r in rhs.items()}
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        for A in indices:
            print(to_text(rhs[A]))
            print()
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_algebra(small_run):
    return [criteria.structure_constants(n) for n in (1, 2, 3, 4)]


def _suite_geometry(small_run):
    for n, res in ((1, 4000), (2, 400)):
        q = geometry.build_slice_quadrature(2.0, n, 3.0, res)
        vol = float(q.weights.sum())
        ref = geometry.truncated_slice_volume(2.0, 3.0, n)
        err = abs(vol - ref) / ref
        yield f"slice volume n={n}", err < 1e-3, f"rel err {err:.2e}"


def _small_run():
    return run_pipeline(RunSettings(sim=SimConfig(
        n=1, mode="coupled", x_extent=12.0, nx=240, vmax=4.0, nv=48,
        dt=0.04, t0=4.0, t_end=9.0, epsilon=1e-3, taus=(4.5, 6.0),
        rmax=5.0, support_radius=2.4)))


def _suite_solver(small_run):
    result = small_run()[0]
    return [criteria.mass_conservation(result), criteria.positivity(result),
            ("slice capture", all(len(s.nodes) > 0
                                  for s in result.slices.values()),
             "nodes fired")]


def _suite_energies(small_run):
    _, slices_q, reports, _, _ = small_run()
    mono = not any(rep.Ehat_N1_f < rep.Ehat_N_f * (1 - 1e-12)
                   for rep in reports)
    return [criteria.density_lower_bounds(slices_q),
            ("hierarchy monotone", mono, "Ehat_{N,1} >= Ehat_N")]


_SUITES = {
    "algebra": _suite_algebra,
    "geometry": _suite_geometry,
    "solver": _suite_solver,
    "energies": _suite_energies,
}


def cmd_verify(args) -> int:
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    # the solver and energies suites share one small run
    small_run = functools.cache(_small_run)
    failed = 0
    results = []
    for name in suites:
        for check, ok, detail in _SUITES[name](small_run):
            results.append({"suite": name, "check": check, "ok": bool(ok),
                            "detail": detail})
            print(criteria.line(name, check, ok, detail))
            failed += not ok
    if args.log:
        Path(args.log).write_text(json.dumps(results, indent=1) + "\n")
    return 4 if failed else 0


# ---------------------------------------------------------------------------
# ks-check / decay-fit / slice-dump
# ---------------------------------------------------------------------------


def cmd_ks_check(args) -> int:
    settings = _load_settings_path(args.config)
    if not settings.sim.taus:
        raise ConfigError("ks-check needs slices: taus is empty, so there"
                          " are no ks records to check")
    _, _, _, records, _ = run_pipeline(settings)
    sys.stdout.write(report.inequalities_csv(records))
    worst = max(diagnostics.ratio_variations(records).values())
    print(f"# worst ratio variation {worst:.6g} "
          f"(max {settings.ratio_variation_max})")
    return 4 if worst > settings.ratio_variation_max else 0


def cmd_decay_fit(args) -> int:
    p = Path(args.series)
    if not p.is_file():
        raise ConfigError(f"series file not found: {args.series}")
    rows = report.read_csv(p)
    for column in ("t", args.column):
        if not rows or column not in rows[0]:
            raise ConfigError(f"column {column!r} not present in series")
    t = np.array([float(r["t"]) for r in rows])
    v = np.array([float(r[args.column]) for r in rows])
    fit = diagnostics.decay_fit(t, v, (args.window[0], args.window[1]))
    print(f"{args.column}: exponent {fit.exponent:.6f} "
          f"+- {fit.stderr:.2e} (residual {fit.residual:.2e}, "
          f"{fit.npoints} points)")
    return 0


def cmd_slice_dump(args) -> int:
    settings = _load_settings_path(args.config)
    cfg = settings.sim
    result = run(cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for tau in sorted(result.slices):
        sq = energies.evaluate_slice(result.slices[tau], 0)
        fstack = sq.f[()]
        phistack = np.column_stack([sq.phi[()], sq.phi_dt[()],
                                    sq.phi_grad[()]])
        ystack = np.column_stack([sq.y, sq.t, sq.weight])
        for tag, arr in (("f", fstack), ("phi", phistack), ("nodes", ystack)):
            path = outdir / f"slice_tau{tau:g}_{tag}.bin"
            report.write_binary_grid(path, arr)
            written.append(path)
    print(f"wrote {len(written)} dumps to {outdir}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vkg",
        description="hyperboloidal Vlasov-Klein-Gordon toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a config and write artifacts")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("derive", help="dump commuted-equation coefficients")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--n", type=int, default=1, choices=(1, 2, 3, 4))
    p.add_argument("--target", choices=("vlasov", "kg"), default="vlasov")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("verify", help="run built-in verification suites")
    p.add_argument("suite", choices=tuple(_SUITES) + ("all",))
    p.add_argument("--log", default=None, help="write JSON result log")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ks-check", help="decay-envelope monitors for a config")
    p.add_argument("config")
    p.set_defaults(func=cmd_ks_check)

    p = sub.add_parser("decay-fit", help="log-log slope of a series column")
    p.add_argument("series", help="series.csv from a simulate run")
    p.add_argument("--column", default="sup_phi")
    p.add_argument("--window", type=float, nargs=2, default=(10.0, 100.0))
    p.set_defaults(func=cmd_decay_fit)

    p = sub.add_parser("slice-dump", help="binary dumps of slice data")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_slice_dump)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ValueError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # run rejects what cannot fit before allocating; this is what
        # that estimate does not cover
        print(f"runtime error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
