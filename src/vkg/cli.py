"""Command-line entry point.

Subcommands: simulate, derive, verify, decay-fit.
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

from . import commuted, criteria, diagnostics, energies, report
from .config import (ConfigError, RunSettings, check_decay_window,
                     load_settings, settings_echo)
from .solver import SYMBOLIC_CAP, SolverError, run


# ---------------------------------------------------------------------------
# Shared pipeline: run a config and evaluate every diagnostic slice
# ---------------------------------------------------------------------------


def run_pipeline(settings: RunSettings):
    cfg = settings.sim
    result = run(cfg)
    order, eps = cfg.energy_order, cfg.epsilon
    # a finite state can still square to slice energies past the largest
    # float: one line names the slice, and no numpy warning comes before it
    with np.errstate(all="ignore"):
        slices_q = [energies.evaluate_slice(result.slices[tau], order)
                    for tau in sorted(result.slices)]
        reports = [energies.energy_report(sq, order) for sq in slices_q]
        statuses = diagnostics.bootstrap_monitor(reports, eps)
        for rep, st in zip(reports, statuses):
            if not np.isfinite([rep.E_N_phi, rep.Ehat_N_f, rep.Ehat_N1_f,
                                st.margin_phi, st.margin_f]).all():
                raise SolverError("the slice energies or bootstrap margins "
                                  f"at tau={rep.tau} are not finite")
        records = []
        for sq, rep in zip(slices_q, reports):
            records.append(diagnostics.ks_check_f(sq, rep, 0))
            records.append(diagnostics.ks_check_f(sq, rep, 1))
            records.extend(diagnostics.ks_check_phi(sq, rep))
            for A in commuted.multi_indices_up_to(cfg.n, 1):
                records.append(diagnostics.l2_estimate_check(sq, A, eps))
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
    derive, to_doc, to_text = (
        (commuted.derive_commuted_vlasov, commuted.vlasov_rhs_doc,
         commuted.vlasov_rhs_to_text) if args.target == "vlasov" else
        (commuted.derive_commuted_kg, commuted.kg_rhs_doc,
         commuted.kg_rhs_to_text))
    rhs = {A: derive(A, args.n) for A in indices}
    if args.format == "json":
        print(json.dumps({commuted.mi_str(A): to_doc(r)
                          for A, r in rhs.items()}, indent=1, sort_keys=True))
    else:
        for A in indices:
            print(to_text(rhs[A]))
            print()
    return 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    suites = ([s for s in criteria.SUITES if s != "acceptance"]
              if args.suite == "all" else [args.suite])
    # rows that share a reference run share it within this invocation
    runs = functools.cache(run_pipeline)
    failed = 0
    results = []
    for suite in suites:
        for label, row in criteria.rows(suite):
            for check, ok, detail in row(runs, main):
                results.append({"suite": label, "check": check,
                                "ok": bool(ok), "detail": detail})
                print(criteria.line(label, check, ok, detail))
                failed += not ok
    if args.log:
        Path(args.log).write_text(json.dumps(results, indent=1) + "\n")
    return 4 if failed else 0


# ---------------------------------------------------------------------------
# decay-fit
# ---------------------------------------------------------------------------


def cmd_decay_fit(args) -> int:
    check_decay_window(*args.window)
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
    p.add_argument("suite", choices=tuple(criteria.SUITES) + ("all",))
    p.add_argument("--log", default=None, help="write JSON result log")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decay-fit", help="log-log slope of a series column")
    p.add_argument("series", help="series.csv from a simulate run")
    p.add_argument("--column", default="sup_phi")
    p.add_argument("--window", type=float, nargs=2, default=(10.0, 100.0))
    p.set_defaults(func=cmd_decay_fit)
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
