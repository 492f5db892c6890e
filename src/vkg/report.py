"""Run artifacts: CSV and JSON tables, manifests, raw binary dumps, and
dependency-free SVG plots."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import struct
from pathlib import Path

import numpy as np

from .commuted import _mi_str
from .diagnostics import BootstrapStatus, DecayFit, InequalityRecord
from .energies import EnergyReport
from .solver import RunResult

BINARY_MAGIC = b"VKG1"


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
        [f"{rep.tau:.9g}", len(A), _mi_str(A), f"{rep.breakdown_phi[A]:.17g}",
         f"{rep.breakdown_f[A]:.17g}", f"{rep.breakdown_fw[A]:.17g}"]
        for rep in reports
        for A in sorted(rep.breakdown_f, key=lambda a: (len(a), _mi_str(a)))))


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
# Manifests and binary dumps
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


def write_binary_grid(path: Path, array: np.ndarray):
    """Little-endian layout: magic 'VKG1', ndim, dims (u32), f64 payload
    in row-major order."""
    arr = np.ascontiguousarray(array, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes())


def read_binary_grid(path: Path | str) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != BINARY_MAGIC:
        raise ValueError("bad magic")
    ndim = struct.unpack_from("<I", raw, 4)[0]
    dims = struct.unpack_from(f"<{ndim}I", raw, 8)
    return np.frombuffer(raw, dtype="<f8",
                         offset=8 + 4 * ndim).reshape(dims).copy()


# ---------------------------------------------------------------------------
# SVG plots (no timestamps, no external runtime)
# ---------------------------------------------------------------------------

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _ticks(lo: float, hi: float, log: bool):
    if log:
        lo_e = math.floor(lo)
        hi_e = math.ceil(hi)
        step = max(1, (hi_e - lo_e) // 6)
        return [float(e) for e in range(int(lo_e), int(hi_e) + 1, step)]
    span = hi - lo or 1.0
    step = 10 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    out = []
    while start <= hi + 1e-12 * span:
        out.append(start)
        start += step
    return out


def svg_plot(series: dict[str, tuple[np.ndarray, np.ndarray]],
             xlabel: str, ylabel: str, loglog: bool = False) -> str:
    """Polyline plot; with loglog both axes are log10-scaled."""
    pts = {}
    for name, (x, y) in series.items():
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if loglog:
            mask = (x > 0) & (y > 0)
            x, y = np.log10(x[mask]), np.log10(y[mask])
        pts[name] = (x, y)
    xs = np.concatenate([p[0] for p in pts.values()])
    ys = np.concatenate([p[1] for p in pts.values()])
    if len(xs) == 0:
        xs = ys = np.array([0.0, 1.0])
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def sx(x):
        return _ML + (x - x0) / (x1 - x0) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y0) / (y1 - y0) * (_H - _MT - _MB)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}"'
           f' height="{_H - _MT - _MB}" fill="none" stroke="black"/>']
    for tx in _ticks(x0, x1, loglog):
        if not (x0 <= tx <= x1):
            continue
        label = f"1e{int(tx)}" if loglog else f"{tx:.4g}"
        out.append(f'<line x1="{sx(tx):.1f}" y1="{_H - _MB}" x2="{sx(tx):.1f}"'
                   f' y2="{_H - _MB + 5}" stroke="black"/>')
        out.append(f'<text x="{sx(tx):.1f}" y="{_H - _MB + 18}" font-size="11"'
                   f' text-anchor="middle">{label}</text>')
    for ty in _ticks(y0, y1, loglog):
        if not (y0 <= ty <= y1):
            continue
        label = f"1e{int(ty)}" if loglog else f"{ty:.4g}"
        out.append(f'<line x1="{_ML - 5}" y1="{sy(ty):.1f}" x2="{_ML}"'
                   f' y2="{sy(ty):.1f}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{sy(ty):.1f}" font-size="11"'
                   f' text-anchor="end" dominant-baseline="middle">{label}</text>')
    out.append(f'<text x="{(_ML + _W - _MR) / 2}" y="{_H - 12}" font-size="13"'
               f' text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="16" y="{(_MT + _H - _MB) / 2}" font-size="13"'
               f' text-anchor="middle" transform="rotate(-90 16'
               f' {(_MT + _H - _MB) / 2})">{ylabel}</text>')
    for k, (name, (x, y)) in enumerate(sorted(pts.items())):
        color = _COLORS[k % len(_COLORS)]
        path = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}"'
                   f' stroke-width="1.5"/>')
        out.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16 + 14 * k}"'
                   f' font-size="12" text-anchor="end"'
                   f' fill="{color}">{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
