"""Run artifacts: CSV and JSON tables, and the manifest that hashes them."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

from .commuted import mi_str
from .diagnostics import BootstrapStatus, DecayFit, InequalityRecord
from .energies import EnergyReport
from .solver import RunResult


# ---------------------------------------------------------------------------
# CSV and JSON tables
# ---------------------------------------------------------------------------


def csv_text(header: list[str], rows) -> str:
    """CSV text of the header row and then the rows, each row ending in a
    newline."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def series_csv(result: RunResult) -> str:
    return csv_text(["t", "sup_phi", "sup_f", "min_f", "mass"], (
        [f"{t:.9g}", f"{p:.17g}", f"{hi:.17g}", f"{lo:.17g}", f"{m:.17g}"]
        for t, p, hi, lo, m in zip(result.times, result.sup_phi,
                                   result.sup_f, result.min_f, result.mass)))


def bootstrap_csv(statuses: list[BootstrapStatus]) -> str:
    return csv_text(["tau", "margin_phi", "margin_f", "crossed"], (
        [f"{st.tau:.9g}", f"{st.margin_phi:.17g}", f"{st.margin_f:.17g}",
         int(st.crossed)] for st in statuses))


def inequalities_csv(records: list[InequalityRecord]) -> str:
    return csv_text(
        ["name", "tau", "lhs", "envelope", "ratio", "location", "vacuous"], (
            [r.name, f"{r.tau:.9g}", f"{r.lhs:.17g}", f"{r.envelope:.17g}",
             f"{r.ratio:.17g}", ";".join(f"{c:.9g}" for c in r.location),
             int(r.vacuous)] for r in records))


def decay_csv(fits: dict[str, DecayFit]) -> str:
    return csv_text(["series", "exponent", "stderr", "residual", "window_lo",
                     "window_hi", "npoints"], (
        [name, f"{f.exponent:.17g}", f"{f.stderr:.17g}", f"{f.residual:.17g}",
         f"{f.window[0]:.9g}", f"{f.window[1]:.9g}", f.npoints]
        for name, f in sorted(fits.items())))


def energies_csv(reports: list[EnergyReport]) -> str:
    return csv_text(["tau", "order", "multi_index", "E_phi", "Ehat_f",
                     "Ehat_f_weighted"], (
        [f"{rep.tau:.9g}", len(A), mi_str(A), f"{rep.breakdown_phi[A]:.17g}",
         f"{rep.breakdown_f[A]:.17g}", f"{rep.breakdown_fw[A]:.17g}"]
        for rep in reports
        for A in sorted(rep.breakdown_f, key=lambda a: (len(a), mi_str(a)))))


def energies_json(reports: list[EnergyReport]) -> str:
    doc = [{"tau": rep.tau, "order": rep.order, "E_N_phi": rep.E_N_phi,
            "Ehat_N_f": rep.Ehat_N_f, "Ehat_N1_f": rep.Ehat_N1_f}
           for rep in reports]
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def read_csv(path: Path) -> list[dict[str, str]]:
    """The rows of a CSV file with a header row, as column -> text."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


def content_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(path: Path, config_echo: dict, outputs: list[Path],
                   timings: dict[str, float], summary: dict):
    """Written last: its presence marks a completed run."""
    doc = {
        "schema": config_echo.get("schema", 1),
        "config": config_echo,
        "outputs": {p.name: content_hash(p) for p in sorted(outputs)},
        "timings": timings,
        "summary": summary,
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def same_outputs(a: Path, b: Path) -> dict[str, bool]:
    """Per file name in either run directory: whether both runs wrote the
    same file.  Artifacts are compared byte for byte and manifest.json
    without its `timings` block, the only wall-clock-dependent field; a
    file that one run did not write differs."""
    same = {}
    for name in sorted({p.name for d in (a, b) for p in d.iterdir()}):
        if not ((a / name).is_file() and (b / name).is_file()):
            same[name] = False
        elif name == "manifest.json":
            docs = [json.loads((d / name).read_text()) for d in (a, b)]
            for doc in docs:
                doc.pop("timings")
            same[name] = docs[0] == docs[1]
        else:
            same[name] = (a / name).read_bytes() == (b / name).read_bytes()
    return same
