"""Command-line surface: exit codes, artifact layout, manifest hashing,
determinism, the report helpers, and the scripts' --help and sweeps."""

import argparse
import hashlib
import json
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from vkg import algebra, cli, commuted, criteria, solver
from vkg.cli import main
from vkg.config import ConfigError, load_settings
from vkg.report import content_hash, same_outputs

SMALL_CONF = """\
schema = 1
n = 1
mode = coupled
x_extent = 12.0
nx = 240
vmax = 2.0
nv = 48
dt = 0.04
t0 = 2.0
t_end = 6.0
epsilon = 1e-3
f_amplitude = 2e-6
phi_amplitude = 4e-4
f_width_x = 0.5
f_width_v = 0.3
taus = 3.0, 4.0
rmax = 3.5
slice_resolution = 12
decay_window_lo = 2.5
decay_window_hi = 6.0
ratio_variation_max = 1000
"""


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    conf = base / "small.conf"
    conf.write_text(SMALL_CONF)
    out = base / "run1"
    code = main(["simulate", str(conf), "--out", str(out)])
    return conf, out, code


ARTIFACTS = ("energies.csv", "energies.json", "inequalities.csv",
             "bootstrap.csv", "series.csv", "decay.csv", "manifest.json")


def test_simulate_exit_and_artifacts(small_run):
    _, out, code = small_run
    assert code == 0
    for name in ARTIFACTS:
        assert (out / name).is_file(), name


def test_manifest_hashes_match_files(small_run):
    _, out, _ = small_run
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["summary"]["passed"] is True
    assert doc["summary"]["bootstrap_crossing"] is None
    assert doc["config"]["nx"] == 240
    assert set(doc["outputs"]) == set(ARTIFACTS) - {"manifest.json"}
    for name, digest in doc["outputs"].items():
        assert hashlib.sha256(
            (out / name).read_bytes()).hexdigest() == digest


def test_simulate_deterministic_modulo_timings(small_run, tmp_path):
    conf, out, _ = small_run
    out2 = tmp_path / "run2"
    assert main(["simulate", str(conf), "--out", str(out2)]) == 0
    assert same_outputs(out, out2) == dict.fromkeys(ARTIFACTS, True)


def test_missing_config_exits_2(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.conf")]) == 2


def test_unknown_key_exits_2(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("schema = 1\nnxx = 3\n")
    assert main(["simulate", str(conf)]) == 2


def test_cfl_violation_exits_3(tmp_path):
    conf = tmp_path / "cfl.conf"
    conf.write_text("schema = 1\nnx = 100\nx_extent = 1.0\ndt = 0.1\ntaus =\n")
    assert main(["simulate", str(conf), "--out", str(tmp_path / "o")]) == 3


def test_node_window_off_the_grid_exits_3_before_stepping(
        tmp_path, monkeypatch, capsys):
    # valid keys, but the outermost slice nodes sit within six cells of
    # the box edge, so their capture windows would leave the grid
    conf = tmp_path / "edge.conf"
    conf.write_text("schema = 1\nn = 1\nx_extent = 6.0\nnx = 120\n"
                    "nv = 16\ndt = 0.05\nt0 = 2.0\nt_end = 8.0\n"
                    "taus = 5.0\nrmax = 5.9\nslice_resolution = 20\n")
    steps = []
    monkeypatch.setattr(solver, "step", lambda *a: steps.append(a))
    assert main(["simulate", str(conf), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "slice node at y=(-5.9,) too close to the grid boundary" in err
    assert "Traceback" not in err
    assert steps == []


@pytest.mark.parametrize("key,value", [
    ("dt", "0"), ("dt", "nan"), ("nx", "0"), ("nv", "0"),
    ("x_extent", "-1"), ("vmax", "inf"), ("epsilon", "0"),
    ("f_width_x", "0"), ("f_width_v", "0"), ("phi_width", "-0.5"),
    ("t_end", "2.0"), ("energy_order", "-1"), ("energy_order", "0"),
    ("energy_order", "5"),
    ("f_amplitude", "nan"), ("phi_amplitude", "inf"), ("rmax", "nan"),
    ("rmax", "-1"), ("support_radius", "nan"),
    ("taus", "nan"), ("taus", "3.0, 3.0"),
    # np.gradient(edge_order=2) needs three points per axis: nv = 1 and
    # nx = 1 ended in an IndexError traceback, nv = 2 exited 3 only after
    # the whole run
    ("nx", "1"), ("nx", "2"), ("nv", "1"), ("nv", "2"),
    # squares that overflow: an OverflowError traceback from the
    # Laplacian's dx ** 2, and a late NaN conversion
    ("x_extent", "1e300"), ("vmax", "1e300"),
    # (t_end - t0) / dt overflows: an OverflowError traceback from the
    # step count
    ("dt", "5e-324"),
    # lines that once named no key: "dimension 3 unsupported" and
    # "unknown rmax mode 'bogus'"
    ("n", "3"), ("n", "0"), ("mode", "bogus"), ("rmax_mode", "bogus"),
    # an int past the largest float: an OverflowError traceback
    pytest.param("nx", str(10 ** 400), id="nx-10**400"),
    pytest.param("nv", str(10 ** 400), id="nv-10**400")])
def test_invalid_override_exits_3(key, value, tmp_path, monkeypatch, capsys):
    conf = tmp_path / "small.conf"
    conf.write_text(SMALL_CONF)
    monkeypatch.setenv("VKG_" + key.upper(), value)
    steps = []
    monkeypatch.setattr(solver, "step", lambda *a: steps.append(a))
    assert main(["simulate", str(conf), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert re.search(rf"\b{key}\b", err) and "Traceback" not in err
    assert steps == []


@pytest.mark.parametrize("key", ["cfl_safety", "boundary_floor",
                                 "f_center_v", "bc", "delta_mode"])
def test_removed_key_in_config_exits_2(key, tmp_path, capsys):
    # these were settings once; a file that still sets one is refused
    conf = tmp_path / "old.conf"
    conf.write_text(SMALL_CONF + f"{key} = 0.5\n")
    assert main(["simulate", str(conf), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"unknown key {key!r}" in err and "Traceback" not in err


def test_nonsense_run_setting_exits_2(tmp_path, monkeypatch, capsys):
    # a NaN decay window once ran to exit 0 and silently dropped decay.csv
    conf = tmp_path / "small.conf"
    conf.write_text(SMALL_CONF)
    monkeypatch.setenv("VKG_DECAY_WINDOW_LO", "nan")
    assert main(["simulate", str(conf), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "decay window" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("env,message", [
    # 1.75e10 steps: the series alone would outgrow physical memory
    ({"VKG_DT": "1e-9"}, "the series of 1.75e+10 steps"),
    # the step count is printed like the GiB figures beside it, not as a
    # 202-digit integer
    ({"VKG_T0": "-1e200"}, "the series of 2.22e+201 steps"),
    # dv is about 3e148 against f_width_v = 0.35: f underflows to zero
    ({"VKG_VMAX": "1e150"}, "the initial f of amplitude 2e-06 is zero on"
     " every cell"),
    # the mass overflows; numpy's overflow warning must not reach stderr,
    # nor stop the run as an error under warnings-as-errors
    ({"VKG_F_AMPLITUDE": "1e306"}, "non-finite state at t=4.0"),
    # x^2 / (2 w^2) overflows to inf, so the Gaussian is zero on every
    # cell; the overflow used to warn, or raise under warnings-as-errors
    ({"VKG_PHI_WIDTH": "1e-160"}, "the initial phi of amplitude 0.0004 is"
     " zero on every cell"),
    ({"VKG_F_WIDTH_V": "1e-160"}, "the initial f of amplitude 2e-06 is zero"
     " on every cell"),
    # slice times whose squares overflow ended in an OverflowError
    # traceback: at tau ** 2 in the slice's top time, in lightcone mode at
    # tau ** 2 in slice_rmax, and at rmax ** 2 in the top time
    ({"VKG_TAUS": "1e160"}, "taus squared overflows, got 1e+160"),
    ({"VKG_TAUS": "1e160", "VKG_RMAX_MODE": "lightcone",
      "VKG_SUPPORT_RADIUS": "2.4"}, "taus squared overflows, got 1e+160"),
    ({"VKG_T_END": "1e300", "VKG_TAUS": "1e155"},
     "taus squared overflows, got 1e+155"),
    ({"VKG_RMAX": "1e160"}, "slice tau=5.0 needs t up to 1000"),
    # slice_rmax squares t0 - support_radius in lightcone mode: an
    # OverflowError traceback
    ({"VKG_RMAX_MODE": "lightcone", "VKG_SUPPORT_RADIUS": "-1e200"},
     "t0 - support_radius squared overflows in lightcone mode, got 1e+200"),
    ({"VKG_RMAX_MODE": "lightcone", "VKG_SUPPORT_RADIUS": "-1e155"},
     "t0 - support_radius squared overflows in lightcone mode, got 1e+155"),
    # epsilon squared is 0 and the L2 envelopes divide by it: a
    # ZeroDivisionError traceback; a subnormal square gave NaN ratios
    ({"VKG_EPSILON": "1e-200"}, "epsilon squared underflows, got 1e-200"),
    ({"VKG_EPSILON": "1e-160"}, "epsilon squared underflows, got 1e-160"),
    # and an infinite square: an OverflowError traceback at eps ** 2
    ({"VKG_EPSILON": "1e300"}, "epsilon squared overflows, got 1e+300"),
    ({"VKG_EPSILON": "1e155"}, "epsilon squared overflows, got 1e+155"),
    # the slice quadrature raised "resolution=1 < 2", which names no key
    ({"VKG_SLICE_RESOLUTION": "1"}, "slice_resolution must be at least 2, "
     "got 1"),
    ({"VKG_SLICE_RESOLUTION": "0"}, "slice_resolution must be at least 2, "
     "got 0"),
    ({"VKG_SLICE_RESOLUTION": "-3"}, "slice_resolution must be at least 2, "
     "got -3"),
    # the Laplacian's stencil overflows on the initial phi: numpy's
    # overflow warnings printed before the exit-3 line
    ({"VKG_PHI_AMPLITUDE": "1e307"}, "phi_amplitude times the Laplacian's "
     "64 n / (12 dx^2) overflows, got 1e+307 at dx=0.1"),
    ({"VKG_PHI_AMPLITUDE": "1e308"}, "phi_amplitude times the Laplacian's "
     "64 n / (12 dx^2) overflows, got 1e+308 at dx=0.1"),
    # mms_forcing's exponent |v|^2 / 2 f_width_v^2 overflows, and its
    # divisors f_width_x^2 and f_width_v^2 underflow to zero: numpy's
    # warnings, then a line that named no key
    ({"VKG_MODE": "mms", "VKG_VMAX": "1e154"}, "vmax squared, summed over 1 "
     "axes, over 2 f_width_v^2 overflows in mms mode, got 1e+154"),
    ({"VKG_MODE": "mms", "VKG_F_WIDTH_X": "1e-170"}, "f_width_x squared "
     "underflows in mms mode, got 1e-170"),
    ({"VKG_MODE": "mms", "VKG_F_WIDTH_X": "1e-308"}, "f_width_x squared "
     "underflows in mms mode, got 1e-308"),
    ({"VKG_MODE": "mms", "VKG_F_WIDTH_V": "1e-170"}, "f_width_v squared "
     "underflows in mms mode, got 1e-170"),
    ({"VKG_MODE": "mms", "VKG_F_WIDTH_V": "1e-308"}, "f_width_v squared "
     "underflows in mms mode, got 1e-308"),
    # and so does |x|^2 / 2 f_width_x^2
    ({"VKG_MODE": "mms", "VKG_X_EXTENT": "1e154", "VKG_PHI_WIDTH": "10",
      "VKG_F_WIDTH_X": "0.5"}, "x_extent squared, summed over 1 axes, over "
     "2 f_width_x^2 overflows in mms mode, got 1e+154")],
    ids=["dt", "t0", "vmax", "f_amplitude", "phi_width", "f_width_v", "taus",
         "taus_lightcone", "t_end_taus", "rmax", "support_radius_lightcone",
         "support_radius_lightcone_155", "epsilon", "epsilon_160",
         "epsilon_300", "epsilon_155", "slice_resolution_1",
         "slice_resolution_0", "slice_resolution_minus_3",
         "phi_amplitude_1e307", "phi_amplitude_1e308", "mms_vmax_1e154",
         "mms_f_width_x_1e-170", "mms_f_width_x_1e-308",
         "mms_f_width_v_1e-170", "mms_f_width_v_1e-308", "mms_x_extent"])
def test_run_the_grid_cannot_take_exits_3_before_stepping(
        env, message, tmp_path, monkeypatch, capsys):
    conf = Path(__file__).resolve().parent.parent / "configs" \
        / "n1-coupled-small.conf"
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    steps = []
    monkeypatch.setattr(solver, "step", lambda *a: steps.append(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", str(conf), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("runtime error: ")
    assert message in err and len(err) < 300
    assert steps == []


def test_slice_nodes_beyond_memory_exit_3_before_they_are_built(
        tmp_path, monkeypatch, capsys):
    # 10^8 rings took the process down (exit 137) while it built about
    # 0.56 KiB per node; the nodes are counted from the resolution alone
    # and refused before the quadrature is built
    conf = Path(__file__).resolve().parent.parent / "configs" \
        / "n1-coupled-small.conf"
    monkeypatch.setenv("VKG_SLICE_RESOLUTION", str(10 ** 12))

    def spy(*args):
        raise AssertionError("the slice quadrature was built")

    monkeypatch.setattr(solver, "build_slice_quadrature", spy)
    code = main(["simulate", str(conf), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("runtime error: ")
    # five slices of 2 r + 1 nodes
    assert "1e+13 slice nodes" in err and "physical memory" in err


TINY_N2_CONF = """\
schema = 1
n = 2
mode = coupled
x_extent = 4.0
nx = 8
vmax = 2.0
nv = 6
dt = 0.1
t0 = 2.0
t_end = 2.5
taus =
"""


@pytest.mark.parametrize("key", ["x_extent", "vmax"])
def test_n2_sum_of_squares_overflow_exits_3_before_stepping(
        key, tmp_path, monkeypatch, capsys):
    # each square is finite but |x|^2 or |v|^2 sums two of them: numpy's
    # overflow warning, or under warnings-as-errors a traceback
    conf = tmp_path / "tiny.conf"
    conf.write_text(TINY_N2_CONF)
    monkeypatch.setenv("VKG_" + key.upper(), "1.3e154")
    steps = []
    monkeypatch.setattr(solver, "step", lambda *a: steps.append(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", str(conf), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == (f"runtime error: {key} squared, summed over 2 axes, "
                   "overflows, got 1.3e+154\n")
    assert steps == []


@pytest.mark.parametrize("key", ["f_width_x", "f_width_v", "phi_width"])
@pytest.mark.parametrize("conf_text,value", [
    (SMALL_CONF, "1e200"), (SMALL_CONF, "1e308"), (TINY_N2_CONF, "1e200")],
    ids=["n1-1e200", "n1-1e308", "n2-1e200"])
def test_width_square_overflow_exits_3_before_stepping(
        key, conf_text, value, tmp_path, monkeypatch, capsys):
    # the initial Gaussians divide by 2 w^2, a Python float power: an
    # OverflowError traceback and exit 1
    conf = tmp_path / "w.conf"
    conf.write_text(conf_text)
    monkeypatch.setenv("VKG_" + key.upper(), value)
    steps = []
    monkeypatch.setattr(solver, "step", lambda *a: steps.append(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", str(conf), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == (f"runtime error: {key} squared overflows, "
                   f"got {float(value)}\n")
    assert steps == []


# one slice of 2 rings of 64 nodes each, 10 steps of 16^2 x 6^2 cells
TINY_N2_SLICE_CONF = """\
schema = 1
n = 2
mode = coupled
x_extent = 4.0
nx = 16
vmax = 2.0
nv = 6
dt = 0.1
t0 = 2.0
t_end = 3.0
taus = 2.4
rmax = 1.0
slice_resolution = 2
energy_order = 1
"""


@pytest.mark.parametrize("key,value,message", [
    # every n = 2 node weight dr dtheta (tau / t) r underflows to zero, so
    # the quadrature dropped every node: an IndexError traceback
    ("rmax", "1e-170", "slice tau=2.4 has n = 2 node weights that underflow"
     " at rmax=1e-170 over slice_resolution=2"),
    ("rmax", "1e-308", "slice tau=2.4 has n = 2 node weights that underflow"
     " at rmax=1e-308 over slice_resolution=2"),
    # the Laplacian's stencil overflows on the initial phi: numpy's
    # overflow warnings printed before the exit-3 line
    ("phi_amplitude", "1e307", "phi_amplitude times the Laplacian's "
     "64 n / (12 dx^2) overflows, got 1e+307 at dx=0.5"),
    ("phi_amplitude", "1e308", "phi_amplitude times the Laplacian's "
     "64 n / (12 dx^2) overflows, got 1e+308 at dx=0.5")],
    ids=["rmax-1e-170", "rmax-1e-308", "phi_amplitude-1e307",
         "phi_amplitude-1e308"])
def test_n2_quantity_the_run_cannot_form_exits_3_before_stepping(
        key, value, message, tmp_path, monkeypatch, capsys):
    conf = tmp_path / "tiny.conf"
    conf.write_text(TINY_N2_SLICE_CONF)
    monkeypatch.setenv("VKG_" + key.upper(), value)
    steps = []
    monkeypatch.setattr(solver, "step", lambda *a: steps.append(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", str(conf), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3
    assert err == f"runtime error: {message}\n"
    assert re.search(rf"\b{key}\b", err)
    assert steps == []


@pytest.mark.parametrize("conf_text,rmax", [
    (TINY_N2_SLICE_CONF, "1e-100"), (SMALL_CONF, "1e-170"),
    (SMALL_CONF, "1e-308")], ids=["n2-1e-100", "n1-1e-170", "n1-1e-308"])
def test_tiny_slice_radius_still_runs(conf_text, rmax, tmp_path,
                                      monkeypatch):
    # the n = 2 node weights stay normal at 1e-100, and the n = 1 weights
    # do not shrink with rmax
    conf = tmp_path / "r.conf"
    conf.write_text(conf_text)
    monkeypatch.setenv("VKG_RMAX", rmax)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", str(conf), "--out",
                     str(tmp_path / "o")]) == 0


def test_n2_laplacian_overflow_prints_one_line(tmp_path):
    # at the default warning filters, the command itself: numpy's overflow
    # warnings from the Laplacian used to print before the exit-3 line
    conf = tmp_path / "tiny.conf"
    conf.write_text(TINY_N2_SLICE_CONF)
    env = dict(os.environ, PYTHONPATH=str(Path(solver.__file__).parents[1]),
               VKG_PHI_AMPLITUDE="1e308")
    proc = subprocess.run([sys.executable, "-m", "vkg.cli", "simulate",
                           str(conf), "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == ("runtime error: phi_amplitude times the "
                           "Laplacian's 64 n / (12 dx^2) overflows, got "
                           "1e+308 at dx=0.5\n")


OVERFLOW_LINE = ("runtime error: the slice energies or bootstrap margins "
                 "at tau=3.0 are not finite\n")


@pytest.mark.parametrize("amplitude", ["1e154", "3e154", "1e155"])
def test_overflowing_slice_energies_end_without_traceback(
        amplitude, tmp_path, monkeypatch, capsys):
    # the state stays finite but the slice energies or their bootstrap
    # margins pass the largest float: 1e154 wrote inf margins and exited
    # 4, drawing 3e154 as an SVG plot ended in an OverflowError
    # traceback, and 1e155 wrote NaN energies and passed with exit 0
    conf = tmp_path / "small.conf"
    conf.write_text(SMALL_CONF)
    monkeypatch.setenv("VKG_F_AMPLITUDE", amplitude)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", str(conf), "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err == OVERFLOW_LINE


def test_overflowing_slice_energies_print_one_line(tmp_path):
    # at the default warning filters, the command itself: numpy's overflow
    # warnings used to print before the run ended
    conf = tmp_path / "small.conf"
    conf.write_text(SMALL_CONF)
    env = dict(os.environ, PYTHONPATH=str(Path(solver.__file__).parents[1]),
               VKG_F_AMPLITUDE="1e155")
    proc = subprocess.run([sys.executable, "-m", "vkg.cli", "simulate",
                           str(conf), "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == OVERFLOW_LINE


def test_mms_phi_width_fourth_power_overflow_exits_3_before_stepping(
        tmp_path, monkeypatch, capsys):
    # the manufactured forcing's Laplacian takes phi_width ** 4, a Python
    # float power: an OverflowError traceback and exit 1
    conf = tmp_path / "small.conf"
    conf.write_text(SMALL_CONF)
    monkeypatch.setenv("VKG_MODE", "mms")
    monkeypatch.setenv("VKG_PHI_WIDTH", "1e80")
    steps = []
    monkeypatch.setattr(solver, "step", lambda *a: steps.append(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", str(conf), "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err == (
        "runtime error: phi_width to the fourth power overflows in mms "
        "mode, got 1e+80\n")
    assert steps == []


@pytest.mark.parametrize("width", ["1e-100", "1e-80", "2e-77"])
def test_mms_phi_width_fourth_power_underflow_prints_one_line(width,
                                                              tmp_path):
    # at the default warning filters, the command itself: the manufactured
    # forcing's |x|^2 / phi_width^4 divided by zero (1e-100), by a
    # subnormal (1e-80) or overflowed (2e-77), and numpy's warnings printed
    # four lines before the exit-3 message
    conf = Path(__file__).resolve().parent.parent / "configs" \
        / "n1-coupled-small.conf"
    env = dict(os.environ, PYTHONPATH=str(Path(solver.__file__).parents[1]),
               VKG_MODE="mms", VKG_PHI_WIDTH=width)
    proc = subprocess.run([sys.executable, "-m", "vkg.cli", "simulate",
                           str(conf), "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr == ("runtime error: phi_width is too small in mms "
                           "mode: |x|^2 / phi_width^4 overflows, got "
                           f"{float(width)}\n")


@pytest.mark.parametrize("key", ["VKG_PHI_WIDTH", "VKG_F_WIDTH_V"])
def test_width_floats_cannot_hold_prints_one_line(key, tmp_path):
    # at the default warning filters, the command itself: numpy's overflow
    # warning used to print its message and source line before the exit-3
    # message
    conf = Path(__file__).resolve().parent.parent / "configs" \
        / "n1-coupled-small.conf"
    env = dict(os.environ, PYTHONPATH=str(Path(solver.__file__).parents[1]))
    env[key] = "1e-160"
    proc = subprocess.run([sys.executable, "-m", "vkg.cli", "simulate",
                           str(conf), "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("runtime error: the initial ")


@pytest.mark.parametrize("case", ["nan_in_step_2", "f_amplitude_1e307"])
def test_non_finite_state_exits_3(case, tmp_path, monkeypatch, capsys):
    # a NaN that an advect call of the second step puts into f stops the
    # run at the end of that step; an amplitude whose mass overflows to
    # inf (it used to run every step, then fail in the SVG writer) stops
    # it at the initial state
    conf = tmp_path / "small.conf"
    conf.write_text(SMALL_CONF)
    steps = []
    real_step, real_advect = solver.step, solver.advect

    def step_spy(*args):
        steps.append(args)
        real_step(*args)

    def advect_nan(*args, **kwargs):
        out = real_advect(*args, **kwargs)
        if len(steps) == 2:
            out[(7,) * out.ndim] = np.nan
        return out

    monkeypatch.setattr(solver, "step", step_spy)
    if case == "nan_in_step_2":
        monkeypatch.setattr(solver, "advect", advect_nan)
    else:
        monkeypatch.setenv("VKG_F_AMPLITUDE", "1e307")
    out = tmp_path / "o"
    assert main(["simulate", str(conf), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "non-finite state at t=" in err and "Traceback" not in err
    assert len(steps) == (2 if case == "nan_in_step_2" else 0)
    assert not any(out.iterdir())


@pytest.mark.parametrize("key,value,message", [
    ("energy_order", "0", "energy_order must be in [1, 4]"),
    ("taus", "3.0, 4.0, 3.0", "taus must be distinct")])
def test_simulate_rejects_config_before_stepping(
        key, value, message, tmp_path, monkeypatch, capsys):
    # energy_order = 0 left the order-1 L2 checks without their
    # quantities; a repeated tau collected each of its nodes twice
    conf = tmp_path / "small.conf"
    conf.write_text(SMALL_CONF)
    monkeypatch.setenv("VKG_" + key.upper(), value)
    steps = []
    monkeypatch.setattr(solver, "step", lambda *a: steps.append(a))
    assert main(["simulate", str(conf), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert steps == []


def test_run_larger_than_memory_exits_3_before_allocating(
        tmp_path, monkeypatch, capsys):
    # 2000^2 x 300^2 cells: one f alone would take 2.6 TiB
    conf = tmp_path / "huge.conf"
    conf.write_text("schema = 1\nn = 2\nnx = 2000\nnv = 300\n"
                    "x_extent = 20.0\ndt = 0.01\nt0 = 2.0\nt_end = 2.1\n"
                    "taus =\n")
    allocated = []
    monkeypatch.setattr(solver, "initial_states",
                        lambda *a: allocated.append(a))
    assert main(["simulate", str(conf), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "more than the" in err and "physical memory" in err
    assert "Traceback" not in err
    assert allocated == []


def test_memory_error_exits_3(tmp_path, monkeypatch, capsys):
    conf = tmp_path / "small.conf"
    conf.write_text(SMALL_CONF)

    def no_memory(cfg):
        raise MemoryError("Unable to allocate 2.62 TiB")

    monkeypatch.setattr(cli, "run", no_memory)
    assert main(["simulate", str(conf), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "out of memory: Unable to allocate" in err
    assert "Traceback" not in err


def test_derive_json_and_text(capsys):
    assert main(["derive", "--order", "1", "--n", "1", "--target", "vlasov",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"d_t", "d_x1", "boost_1"}
    assert main(["derive", "--order", "1", "--n", "1", "--target", "kg",
                 "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "boost_1" in text
    assert main(["derive", "--order", "0", "--target", "kg"]) == 0


def test_derive_n4_json_obeys_index_bounds(capsys):
    assert main(["derive", "--n", "4", "--order", "1",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc) == 15
    gens = {str(g): g for g in algebra.generators(4)}
    for name, entry in doc.items():
        rhs = commuted.derive_commuted_vlasov((gens[name],), 4)
        assert commuted.vlasov_rhs_doc(rhs) == entry
        assert commuted.check_index_bounds(rhs), name


def test_derive_n5_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["derive", "--n", "5", "--order", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 5" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("order,message", [
    ("5", "exceeds cap 4"), ("-1", "is below 1"), ("0", "is below 1")],
    ids=["5", "-1", "0"])
def test_derive_cap_exits_2(order, message, capsys):
    assert main(["derive", "--order", order, "--n", "1"]) == 2
    assert f"config error: order {order} {message}" in capsys.readouterr().err


def test_verify_algebra_suite(capsys, tmp_path):
    log = tmp_path / "log.json"
    assert main(["verify", "algebra", "--log", str(log)]) == 0
    assert "PASS" in capsys.readouterr().out
    doc = json.loads(log.read_text())
    assert all(item["ok"] for item in doc)


def test_verify_all_runs_the_solver_once(capsys, monkeypatch):
    calls = []

    def counting_run(cfg):
        calls.append(cfg)
        return solver.run(cfg)

    monkeypatch.setattr(cli, "run", counting_run)
    assert main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] solver: mass conservation" in out
    assert "[PASS] energies: lower bounds" in out
    assert len(calls) == 1


def test_verify_failure_exits_4(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(criteria, "positivity",
                        lambda result: ("positivity", False, "forced"))
    log = tmp_path / "log.json"
    assert main(["verify", "all", "--log", str(log)]) == 4
    assert "[FAIL] solver: positivity (forced)" in capsys.readouterr().out
    doc = json.loads(log.read_text())
    assert [item["check"] for item in doc if not item["ok"]] == ["positivity"]


def _stub_row(ok):
    def row(runs, main):
        yield "stub", ok, "forced"
    return row


def test_verify_failing_table_row_exits_4(capsys, monkeypatch, tmp_path):
    monkeypatch.setitem(criteria.SUITES, "acceptance",
                        (_stub_row(True), _stub_row(False)))
    log = tmp_path / "log.json"
    assert main(["verify", "acceptance", "--log", str(log)]) == 4
    assert capsys.readouterr().out == (
        "[PASS] acceptance 01: stub (forced)\n"
        "[FAIL] acceptance 02: stub (forced)\n")
    doc = json.loads(log.read_text())
    assert [(item["suite"], item["ok"]) for item in doc] == [
        ("acceptance 01", True), ("acceptance 02", False)]


def test_verify_row_solver_error_exits_3(capsys, monkeypatch):
    def row(runs, main):
        raise solver.SolverError("forced")
        yield

    monkeypatch.setitem(criteria.SUITES, "acceptance", (row,))
    assert main(["verify", "acceptance"]) == 3
    assert capsys.readouterr().err == "runtime error: forced\n"


@pytest.mark.parametrize("row", [
    criteria.density_lower_bounds, criteria.balance_laws,
    criteria.dispersive_decay, criteria.klainerman_sobolev_boundedness,
    criteria.bootstrap_monitor, criteria.determinism],
    ids=lambda row: row.__name__)
def test_verify_rows_without_configs_exit_2(row, capsys, monkeypatch,
                                            tmp_path):
    # an install without the source tree's configs/ directory
    monkeypatch.setattr(criteria, "CONFIGS", tmp_path)
    monkeypatch.setitem(criteria.SUITES, "acceptance", (row,))
    assert main(["verify", "acceptance"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(
        f"config error: config file not found: {tmp_path}")


def test_rows_get_every_run_through_runs(monkeypatch):
    # criteria 07 and 08 called solver.run themselves, past the cache
    assert not hasattr(criteria, "run")

    def no_run(cfg):
        raise AssertionError("a row ran the solver itself")

    monkeypatch.setattr(solver, "run", no_run)
    monkeypatch.setattr(cli, "run", no_run)
    asked = []

    def fake_runs(settings):
        # a t^(-1/2) field, exact mass and second-order mms errors
        asked.append(settings)
        t = np.linspace(1.0, 101.0, 201)
        ones = np.ones_like(t)
        error = (settings.sim.nx ** -2.0,) * 2
        return (solver.RunResult(settings.sim, {}, t, t ** -0.5, ones,
                                 0 * t, ones, [], 0.0, error),
                [], [], [], [])

    checks = [check for row in (criteria.conservation_and_mms,
                                criteria.dispersive_decay)
              for check in row(fake_runs, None)]
    assert [ok for _, ok, _ in checks] == [True, True]
    assert asked == [criteria.CONTAINED_RUN, criteria.mms_run(640, 0.005),
                     criteria.mms_run(1280, 0.0025),
                     criteria._settings("n1-free-kg-decay.conf")]


@pytest.mark.parametrize("key,value", [("VKG_DT", "0"), ("VKG_NX", "160")])
def test_determinism_row_runs_the_config_as_written(key, value, tmp_path,
                                                    monkeypatch):
    # criterion 11 read VKG_* overrides: dt = 0 failed it with two runtime
    # errors, and another nx silently checked another run
    (tmp_path / "n1-coupled-small.conf").write_text(SMALL_CONF)
    monkeypatch.setattr(criteria, "CONFIGS", tmp_path)
    monkeypatch.setenv(key, value)
    before = dict(os.environ)
    seen = []

    def spy(argv):
        seen.append({k: v for k, v in os.environ.items()
                     if k.startswith("VKG_")})
        return main(argv)

    assert list(criteria.determinism(None, spy)) == [(
        "determinism", True, "7/7 artifacts byte-identical (manifest "
        "compared without timings)")]
    assert seen == [{}, {}]
    assert dict(os.environ) == before


def test_decay_fit_command(small_run, tmp_path, capsys):
    _, out, _ = small_run
    assert main(["decay-fit", str(out / "series.csv"), "--column", "sup_phi",
                 "--window", "2.5", "6.0"]) == 0
    assert "exponent" in capsys.readouterr().out
    assert main(["decay-fit", str(out / "series.csv"), "--column", "bogus",
                 "--window", "2.5", "6.0"]) == 2
    assert main(["decay-fit", str(out / "nope.csv")]) == 2
    no_t = tmp_path / "no_t.csv"
    no_t.write_text("x,sup_phi\n1,2\n")
    assert main(["decay-fit", str(no_t)]) == 2
    assert "column 't'" in capsys.readouterr().err


@pytest.mark.parametrize("window", [("10", "5"), ("5", "5"), ("nan", "6"),
                                    ("2.5", "inf")],
                         ids=["inverted", "empty", "nan", "inf"])
def test_decay_fit_bad_window_exits_2(window, small_run, capsys):
    # an inverted window used to exit 3 for too few points; the command
    # refuses it with the message of the config keys
    _, out, _ = small_run
    with pytest.raises(ConfigError) as want:
        load_settings(f"schema = 1\ndecay_window_lo = {window[0]}\n"
                      f"decay_window_hi = {window[1]}", environ={})
    assert main(["decay-fit", str(out / "series.csv"),
                 "--window", *window]) == 2
    assert capsys.readouterr().err == f"config error: {want.value}\n"


@pytest.mark.parametrize("argv", [["ks-check", "x.conf"],
                                  ["slice-dump", "x.conf", "--out", "d"]])
def test_removed_subcommand_is_a_usage_error(argv, capsys):
    # the first printed what simulate writes to inequalities.csv and
    # summary.ratio_bounded; the second wrote dumps that nothing read
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_parser_offers_one_subcommand_per_question():
    subparsers, = (a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == {"simulate", "derive", "verify",
                                       "decay-fit"}


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------

def test_content_hash_is_sha256(tmp_path):
    p = tmp_path / "x.txt"
    p.write_bytes(b"abc")
    assert content_hash(p) == hashlib.sha256(b"abc").hexdigest()


# ---------------------------------------------------------------------------
# scripts
# ---------------------------------------------------------------------------

SCRIPTS = sorted((Path(__file__).resolve().parent.parent
                  / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_0(path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(path), "--help"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("name,argv,first", [
    ("mms_convergence.py", ["--n", "2", "--levels", "1"], ["16", "12"]),
    ("energy_conservation.py",
     ["--levels", "1", "--nx0", "1200", "--dt0", "0.04"], ["1200", "0.0400"])],
    ids=["mms_convergence.py", "energy_conservation.py"])
def test_sweep_script_runs_one_level(name, argv, first, monkeypatch, capsys):
    # the sweeps build their runs with vkg.criteria and run them through
    # the pipeline; one level prints one data row under the header
    path = SCRIPTS[0].parent / name
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    runpy.run_path(str(path), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    header = next(i for i, text in enumerate(lines)
                  if text.split()[0] == "nx")
    row, = lines[header + 1:]
    assert row.split()[:2] == first
    # the orders (or ratio) of a first level print as '-'
    assert all(np.isfinite(float(v)) for v in row.split()[2:] if v != "-")
