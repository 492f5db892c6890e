"""Self-test of the workload checks.

    python3 perfbench/selftest.py [WORKLOAD ...]

Runs each workload's pipeline once (seed 1), requires every check to pass
on the real outputs, then corrupts one output at a time and requires the
check that guards it to fail.  Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

import numpy as np

import run
import worker
from workloads import WORKLOADS, seeded_overrides

worker.add_vkg_path()
import checks  # noqa: E402


def _set(array, index, value):
    array[index] = value


def _negate_largest_slack(o):
    i, j = np.unravel_index(np.argmax(o.slacks), o.slacks.shape)
    o.slacks[i, j] = -o.slacks[i, j]


def _flip_phiblock(o):
    k = len(o.phiblocks) // 2
    t_levels, x_axes, block = o.phiblocks[k]
    o.phiblocks[k] = (t_levels, x_axes, -block)


def _drop_node(o):
    tau = min(o.node_counts)
    o.node_counts[tau] -= 1


# check -> corruption of the outputs it guards
CORRUPTIONS = {
    "exit_code_zero": lambda o: setattr(o, "exit_code", 4),
    "node_counts": _drop_node,
    "f_identically_zero": lambda o: _set(o.sup_f, len(o.sup_f) // 2, 1e-30),
    "f_nonnegative": lambda o: _set(o.min_f, len(o.min_f) // 2,
                                    -1e-6 * float(np.max(o.sup_f))),
    "mass_nonincreasing": lambda o: _set(o.mass, len(o.mass) // 2,
                                         o.mass[len(o.mass) // 2] * (1 + 1e-9)),
    "mass_drift": lambda o: _set(o.mass, -1, o.mass[-1] * (1 + 1e-6)),
    "slacks_nonnegative": _negate_largest_slack,
    "energy_conserved": lambda o: _set(o.energy_id, -1,
                                       o.energy_id[-1] * (1 + 2e-4)),
    "phi_matches_fft": _flip_phiblock,
    "rot_energy_small": lambda o: _set(o.energy_rot, 0, 0.05 * o.energy_id[0]),
}


def selftest(name: str) -> int:
    wl = WORKLOADS[name]
    config = str(run.ROOT / wl.config)
    for key in [k for k in os.environ if k.startswith("VKG_")]:
        del os.environ[key]
    os.environ.update(seeded_overrides(wl, run.nominal_values(
        run.ROOT / wl.config), 1))
    outdir = run.OUT / f"selftest-{name}"
    try:
        outputs, results, _, _ = worker.warm_up(worker.import_vkg(), name,
                                                config, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    bad = 0
    for check, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name} clean {check}: {detail}")
        bad += not ok
    for fn in checks.CHECKS[name]:
        corrupt = copy.deepcopy(outputs)
        CORRUPTIONS[fn.__name__](corrupt)
        ok, detail = fn(corrupt)
        print(f"[{'FAIL' if ok else 'PASS'}] {name} corrupted "
              f"{fn.__name__} rejected: {detail}")
        bad += bool(ok)
    digests = dict(outputs.digests, **{"energies.csv": "0" * 64})
    for check, ok, detail in checks.repeat_checks(digests, 4,
                                                  outputs.digests):
        print(f"[{'FAIL' if ok else 'PASS'}] {name} corrupted {check} "
              f"rejected: {detail}")
        bad += ok
    return bad


def main(argv: list[str]) -> int:
    bad = sum(selftest(name) for name in argv or sorted(WORKLOADS))
    print(f"{bad} check(s) misbehaved" if bad else "all checks behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
