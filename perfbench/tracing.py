"""Per-layer spans recorded from outside the program.

The tracer replaces module attributes of vkg with wrappers that record a
span (name, start, end, parent, attributes) around each call, and puts the
originals back on `remove`.  A hook whose target no longer exists is
listed in `absent`, and the metrics that need it are left out.
"""

from __future__ import annotations

import inspect
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent, attrs]
        self.hooked: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def hook(self, module, attr: str, name: str, attrs=None, on_return=None):
        """Wrap module.attr in spans called `name`; `attrs` maps the call's
        arguments, and `on_return` its result, to span attributes."""
        target = getattr(module, attr, None)
        if not callable(target):
            self.absent.append(f"{module.__name__}.{attr}")
            return

        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1,
                    attrs(args, kwargs) if attrs else {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = target(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_return:
                span[4].update(on_return(out))
            return out

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, target))
        self.hooked.add(name)

    def remove(self):
        for module, attr, target in reversed(self._undo):
            setattr(module, attr, target)
        self._undo.clear()

    def dump(self) -> list:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[s[0], s[1] - t0, s[2] - t0, s[3], s[4]] for s in self.spans]


def _advect_attrs(args, kwargs) -> dict:
    """Cells moved, and whether `axis` is a velocity axis (the kick)."""
    g = args[0]
    axis = kwargs["axis"] if "axis" in kwargs else args[2]
    return {"cells": g.size, "velocity": axis % g.ndim >= g.ndim // 2}


def _run_result(result) -> dict:
    """Counters of a RunResult: nodes, block bytes, cells and steps."""
    try:
        nodes = [nd for s in result.slices.values() for nd in s.nodes]
        cfg = result.config
        return {"nodes": len(nodes),
                "block_bytes": sum(nd.fblock.nbytes + nd.phiblock.nbytes
                                   for nd in nodes),
                "cells": (cfg.nx * cfg.nv) ** cfg.n,
                "steps": len(result.times) - 1}
    except AttributeError:
        return {}


def install(tracer: Tracer):
    """Hook every layer boundary the pipeline crosses."""
    from vkg import cli, diagnostics, energies, solver

    tracer.hook(cli, "load_settings", "config.load")
    tracer.hook(cli, "run_pipeline", "cli.run_pipeline")
    tracer.hook(cli, "run", "solver.run", on_return=_run_result)
    tracer.hook(solver, "build_slice_quadrature", "geometry.quadrature")
    tracer.hook(solver, "step", "solver.step")
    tracer.hook(solver, "advect", "solver.advect", attrs=_advect_attrs)
    tracer.hook(solver, "field_substep", "solver.field_substep")
    tracer.hook(energies, "evaluate_slice", "energies.evaluate_slice",
                attrs=lambda a, k: {"nodes": len(a[0].nodes)})
    tracer.hook(energies, "energy_report", "energies.energy_report")
    monitors = [name for name, fn in inspect.getmembers(diagnostics,
                                                        inspect.isfunction)
                if fn.__module__ == diagnostics.__name__
                and not name.startswith("_") and not name.endswith("_csv")]
    for name in monitors:
        tracer.hook(diagnostics, name, "diagnostics.monitors")
    if not monitors:
        tracer.absent.append("vkg.diagnostics monitors")


# name -> (unit, span names it needs)
LAYER_METRICS = {
    "solver.run_s": ("s", ("solver.run",)),
    "solver.cell_steps_per_s": ("1/s", ("solver.run",)),
    "solver.advect_x_s": ("s", ("solver.advect",)),
    "solver.advect_x_calls": ("count", ("solver.advect",)),
    "solver.advect_v_s": ("s", ("solver.advect",)),
    "solver.advect_v_calls": ("count", ("solver.advect",)),
    "solver.advect_mcells_per_s": ("Mcell/s", ("solver.advect",)),
    "solver.field_substep_s": ("s", ("solver.field_substep",)),
    "solver.field_substep_calls": ("count", ("solver.field_substep",)),
    "solver.step_self_s": ("s", ("solver.step",)),
    "solver.run_self_s": ("s", ("solver.run", "solver.step")),
    "solver.nodes_captured": ("count", ("solver.run",)),
    "solver.node_block_mb": ("MiB", ("solver.run",)),
    "solver.peak_rss_mb": ("MiB", ()),           # from the warm-up
    "energies.evaluate_slice_s": ("s", ("energies.evaluate_slice",)),
    "energies.evaluate_slice_calls": ("count", ("energies.evaluate_slice",)),
    "energies.nodes_per_s": ("1/s", ("energies.evaluate_slice",)),
    "energies.energy_report_s": ("s", ("energies.energy_report",)),
    "energies.energy_report_calls": ("count", ("energies.energy_report",)),
    "diagnostics.monitors_s": ("s", ("diagnostics.monitors",)),
    "report.artifacts_s": ("s", ("cli.run_pipeline",)),
    "report.artifact_bytes": ("B", ()),
    "config.load_s": ("s", ("config.load",)),
    "geometry.quadrature_s": ("s", ("geometry.quadrature",)),
    "trace.wall_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}


def rep_metrics(tracer: Tracer, rep_end: float, artifact_bytes: int) -> dict:
    """Layer metrics of one traced repetition that ended at `rep_end`."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    def outermost(i):
        p = spans[i][3]
        while p >= 0 and spans[p][0] != spans[i][0]:
            p = spans[p][3]
        return p < 0

    def select(name, **match):
        return [i for i, s in enumerate(spans) if s[0] == name
                and all(s[4].get(k) == v for k, v in match.items())
                and outermost(i)]

    def total(ids):
        return sum(spans[i][2] - spans[i][1] for i in ids)

    def self_time(ids):
        return total(ids) - sum(child_time[i] for i in ids)

    def attr_sum(ids, key):
        return sum(spans[i][4][key] for i in ids)

    run = select("solver.run")
    steps = select("solver.step")
    adv_x = select("solver.advect", velocity=False)
    adv_v = select("solver.advect", velocity=True)
    field = select("solver.field_substep")
    evaluate = select("energies.evaluate_slice")
    reports = select("energies.energy_report")
    pipeline = select("cli.run_pipeline")
    advect_s = total(adv_x + adv_v)
    m = {
        "solver.run_s": total(run),
        "solver.advect_x_s": total(adv_x),
        "solver.advect_x_calls": len(adv_x),
        "solver.advect_v_s": total(adv_v),
        "solver.advect_v_calls": len(adv_v),
        "solver.advect_mcells_per_s":
            attr_sum(adv_x + adv_v, "cells") / advect_s / 1e6
            if advect_s else 0.0,
        "solver.field_substep_s": total(field),
        "solver.field_substep_calls": len(field),
        "solver.step_self_s": self_time(steps),
        "solver.run_self_s": self_time(run),
        "energies.evaluate_slice_s": total(evaluate),
        "energies.evaluate_slice_calls": len(evaluate),
        "energies.nodes_per_s": attr_sum(evaluate, "nodes") / total(evaluate)
        if evaluate else 0.0,
        "energies.energy_report_s": total(reports),
        "energies.energy_report_calls": len(reports),
        "diagnostics.monitors_s": total(select("diagnostics.monitors")),
        "report.artifacts_s": rep_end - spans[pipeline[-1]][2]
        if pipeline else 0.0,
        "report.artifact_bytes": artifact_bytes,
        "config.load_s": total(select("config.load")),
        "geometry.quadrature_s": total(select("geometry.quadrature")),
    }
    if run and "nodes" in spans[run[-1]][4]:
        r = spans[run[-1]][4]
        m.update({
            "solver.cell_steps_per_s": r["cells"] * r["steps"] / total(run),
            "solver.nodes_captured": r["nodes"],
            "solver.node_block_mb": r["block_bytes"] / 2 ** 20,
        })
    return m


def summarize(per_rep: list[dict], hooked: set[str], walls: list[float],
              traced_walls: list[float]) -> dict:
    """Median of each layer metric over the traced repetitions, in the
    printed form; metrics whose hooks are absent are left out."""
    out = {}
    for name, (unit, needs) in LAYER_METRICS.items():
        if name == "trace.wall_s":
            value = statistics.median(traced_walls)
        elif name == "trace.overhead_s":
            value = statistics.median(traced_walls) - statistics.median(walls)
        elif all(g in hooked for g in needs) and all(name in m for m in per_rep):
            median = statistics.median_low if unit in ("count", "B") \
                else statistics.median
            value = median(m[name] for m in per_rep)
        else:
            continue
        out[name] = {"value": value, "unit": unit}
    return out
