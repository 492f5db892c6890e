"""Benchmark workloads: which config each one runs and how a seed varies it.

A seed scales the initial-data amplitudes by a factor in [0.9, 1.1] and
the widths by a factor in [0.97, 1.03].  Neither changes the grid, the
step count or the slice nodes, and every seed keeps the monitors passing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    config: str                                  # relative to the checkout
    overrides: dict[str, str] = field(default_factory=dict)
    amplitudes: tuple[str, ...] = ()
    widths: tuple[str, ...] = ()


WORKLOADS = {
    # the reference small-data run, config as shipped
    "coupled_small": Workload(
        "configs/n1-coupled-small.conf",
        amplitudes=("f_amplitude", "phi_amplitude"),
        widths=("f_width_x", "f_width_v", "phi_width")),
    # free field (f = 0) cut to two early slices; the box is narrowed to
    # |x| <= 30 at the shipped dx, still far outside the light cone of
    # the data over t in [6, 8.7]
    "free_kg": Workload(
        "configs/n1-free-kg.conf",
        overrides={"t_end": "8.7", "taus": "6.5,7", "x_extent": "30",
                   "nx": "4800", "slice_resolution": "30"},
        amplitudes=("phi_amplitude",),
        widths=("phi_width",)),
    # the only 4-D phase space: memory, 4-D transport and rotations
    "n2_coupled": Workload(
        "perfbench/n2-coupled.conf",
        amplitudes=("f_amplitude", "phi_amplitude"),
        widths=("f_width_x", "f_width_v", "phi_width")),
}


def seeded_overrides(workload: Workload, nominal: dict, seed: int
                     ) -> dict[str, str]:
    """VKG_* environment overrides for one seed.

    ``nominal`` holds the parsed values of the workload's config file.
    """
    rng = random.Random(seed)
    values = dict(workload.overrides)
    for key in workload.amplitudes:
        values[key] = repr(nominal[key] * rng.uniform(0.9, 1.1))
    for key in workload.widths:
        values[key] = repr(nominal[key] * rng.uniform(0.97, 1.03))
    return {"VKG_" + k.upper(): v for k, v in sorted(values.items())}
