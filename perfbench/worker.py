"""One benchmark process: a set-up sample, or a run's pipeline repetitions.

    python3 perfbench/worker.py setup CONFIG OUTDIR
    python3 perfbench/worker.py pipeline WORKLOAD CONFIG OUTDIR SECONDS TRACE BUDGET

VKG_* overrides arrive in the environment.  `setup` prints the
perf_counter reading at the first solver step.  `pipeline` runs
`vkg simulate` once as a checked warm-up, then repeats it for SECONDS
(at least MIN_REPS times), checking every repetition's artifacts against
the warm-up's.  With TRACE=1 every repetition is an untraced/traced pair.
It starts no repetition after the first that would end more than BUDGET
seconds after the worker started.  It prints one JSON line.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 2


def add_vkg_path():
    """Import vkg from the checkout's sources, never from elsewhere."""
    if not (ROOT / "src" / "vkg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no vkg sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


def import_vkg():
    add_vkg_path()
    from vkg import cli
    return cli


def simulate(cli, config: str, outdir: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["simulate", config, "--out", str(outdir)])


class FirstStep(Exception):
    pass


def setup_sample(config: str, outdir: Path) -> float:
    cli = import_vkg()
    from vkg import solver

    def stop(*args, **kwargs):
        raise FirstStep

    for name in ("step", "advect", "field_substep"):
        if hasattr(solver, name):
            setattr(solver, name, stop)
    try:
        simulate(cli, config, outdir)
    except FirstStep:
        return time.perf_counter()
    raise RuntimeError("the pipeline ended without a solver step")


def warm_up(cli, workload: str, config: str, outdir: Path):
    """Checked first run: returns its outputs, the check results, and the
    peak RSS in KiB when the solver returned (None without `cli.run`) and
    when `vkg simulate` returned, before the checks add their own memory.

    The checks need what `cli.run_pipeline` returns, so it must exist."""
    import checks

    captured = {}
    run, run_pipeline = getattr(cli, "run", None), cli.run_pipeline

    def run_and_measure(*args, **kwargs):
        out = run(*args, **kwargs)
        captured["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return out

    def keep(settings):
        captured["ret"] = run_pipeline(settings)
        return captured["ret"]

    cli.run_pipeline = keep
    if run:
        cli.run = run_and_measure
    try:
        code = simulate(cli, config, outdir)
        captured["simulate_rss_kib"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
    finally:
        cli.run_pipeline = run_pipeline
        if run:
            cli.run = run
    if "ret" not in captured:
        sys.exit(f"perfbench: {workload} pipeline failed (exit {code})")
    outputs = checks.collect(code, captured.pop("ret"), outdir)
    return (outputs, checks.run_checks(workload, outputs),
            captured.get("rss_kib"), captured["simulate_rss_kib"])


def timed(cli, config: str, outdir: Path) -> tuple[float, int, float]:
    gc.collect()
    start = time.perf_counter()
    code = simulate(cli, config, outdir)
    end = time.perf_counter()
    return end - start, code, end


def pipeline(workload: str, config: str, outdir: Path, seconds: float,
             trace: bool, budget: float) -> dict:
    end_by = time.perf_counter() + budget
    cli = import_vkg()
    import checks
    import tracing

    outputs, results, solver_rss_kib, rss_kib = warm_up(cli, workload, config,
                                                        outdir)
    digests = outputs.digests
    del outputs
    walls, traced_walls, layers = [], [], []
    tracer = None
    start = time.perf_counter()
    rep_s = 0.0                      # duration of the last repetition
    while True:
        now = time.perf_counter()
        if len(walls) >= MIN_REPS and now - start >= seconds:
            break
        if walls and now + rep_s > end_by:
            break                    # the next repetition would overrun
        wall, code, _ = timed(cli, config, outdir)
        walls.append(wall)
        results += checks.repeat_checks(checks.artifact_digests(outdir),
                                        code, digests)
        if trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                wall, code, end = timed(cli, config, outdir)
            finally:
                tracer.remove()
            traced_walls.append(wall)
            results += checks.repeat_checks(checks.artifact_digests(outdir),
                                            code, digests)
            size = sum(p.stat().st_size for p in outdir.iterdir())
            layers.append(tracing.rep_metrics(tracer, end, size))
        rep_s = time.perf_counter() - now
    doc = {"walls": walls, "traced_walls": traced_walls, "checks": results,
           "peak_rss_mb": rss_kib / 1024}
    if trace:
        layer = tracing.summarize(layers, tracer.hooked, walls, traced_walls)
        if solver_rss_kib is not None:
            layer["solver.peak_rss_mb"] = {"value": solver_rss_kib / 1024,
                                           "unit": "MiB"}
        doc.update(layers=layer, absent=tracer.absent, spans=tracer.dump())
    return doc


def main(argv: list[str]) -> None:
    if argv[0] == "setup":
        print(json.dumps({"first_step": setup_sample(argv[1], Path(argv[2]))}))
    else:
        workload, config, outdir, seconds, trace, budget = argv[1:7]
        print(json.dumps(pipeline(workload, config, Path(outdir),
                                  float(seconds), trace == "1",
                                  float(budget))))


if __name__ == "__main__":
    main(sys.argv[1:])
