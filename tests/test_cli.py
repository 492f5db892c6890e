"""Command-line surface: exit codes, artifact layout, manifest hashing,
determinism, and the binary/SVG report helpers."""

import hashlib
import json
import struct

import numpy as np
import pytest

from vkg import cli, solver
from vkg.cli import main
from vkg.report import (content_hash, read_binary_grid, svg_plot,
                        write_binary_grid)

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
             "bootstrap.csv", "series.csv", "decay.csv",
             "energy_vs_tau.svg", "decay.svg", "manifest.json")


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
    for name in ARTIFACTS[:-1]:
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name
    a = json.loads((out / "manifest.json").read_text())
    b = json.loads((out2 / "manifest.json").read_text())
    a.pop("timings"), b.pop("timings")
    assert a == b


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
    ("t_end", "2.0"), ("energy_order", "-1"), ("energy_order", "5"),
    ("cfl_safety", "nan"), ("cfl_safety", "0"), ("f_amplitude", "nan"),
    ("phi_amplitude", "inf"), ("f_center_v", "nan"), ("rmax", "nan"),
    ("rmax", "-1"), ("support_radius", "nan"), ("boundary_floor", "nan"),
    ("taus", "nan")])
def test_invalid_override_exits_3(key, value, tmp_path, monkeypatch, capsys):
    conf = tmp_path / "small.conf"
    conf.write_text(SMALL_CONF)
    monkeypatch.setenv("VKG_" + key.upper(), value)
    assert main(["simulate", str(conf), "--out", str(tmp_path / "o")]) == 3
    assert key in capsys.readouterr().err


def test_derive_json_and_text(capsys):
    assert main(["derive", "--order", "1", "--n", "1", "--target", "vlasov",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"d_t", "d_x1", "boost_1"}
    assert main(["derive", "--order", "1", "--n", "1", "--target", "kg",
                 "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "boost_1" in text


def test_derive_cap_exits_2(capsys):
    assert main(["derive", "--order", "5", "--n", "1"]) == 2
    assert "cap" in capsys.readouterr().err


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


def test_decay_fit_command(small_run, capsys):
    _, out, _ = small_run
    assert main(["decay-fit", str(out / "series.csv"), "--column", "sup_phi",
                 "--window", "2.5", "6.0"]) == 0
    assert "exponent" in capsys.readouterr().out
    assert main(["decay-fit", str(out / "series.csv"), "--column", "bogus",
                 "--window", "2.5", "6.0"]) == 2
    assert main(["decay-fit", str(out / "nope.csv")]) == 2


def test_slice_dump_roundtrip(small_run, tmp_path, capsys):
    conf, _, _ = small_run
    out = tmp_path / "dump"
    assert main(["slice-dump", str(conf), "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == [f"slice_tau{t}_{tag}.bin" for t in (3, 4)
                     for tag in ("f", "nodes", "phi")]
    nodes = read_binary_grid(out / "slice_tau3_nodes.bin")
    f = read_binary_grid(out / "slice_tau3_f.bin")
    assert nodes.shape == (2 * 12 + 1, 3)        # y, t*, weight
    assert f.shape == (2 * 12 + 1, 48)
    # every node sits on the tau = 3 hyperboloid
    assert np.allclose(nodes[:, 1] ** 2 - nodes[:, 0] ** 2, 9.0)
    assert np.all(nodes[:, 2] > 0)


# ---------------------------------------------------------------------------
# report helpers
# ---------------------------------------------------------------------------

def test_binary_grid_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    for shape in ((7,), (5, 4), (3, 4, 2)):
        arr = rng.normal(size=shape)
        p = tmp_path / "grid.bin"
        write_binary_grid(p, arr)
        back = read_binary_grid(p)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)
    raw = p.read_bytes()
    assert raw[:4] == b"VKG1"
    assert struct.unpack_from("<I", raw, 4)[0] == 3  # ndim of last write


def test_binary_grid_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"XXXX" + b"\0" * 16)
    with pytest.raises(ValueError):
        read_binary_grid(p)


def test_content_hash_is_sha256(tmp_path):
    p = tmp_path / "x.txt"
    p.write_bytes(b"abc")
    assert content_hash(p) == hashlib.sha256(b"abc").hexdigest()


def test_svg_plot_deterministic_and_clean():
    x = np.linspace(1.0, 10.0, 20)
    a = svg_plot({"s": (x, x ** -0.5)}, "t", "v", loglog=True)
    b = svg_plot({"s": (x, x ** -0.5)}, "t", "v", loglog=True)
    assert a == b
    assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
    assert "polyline" in a
    for word in ("date", "time", "2026"):
        assert word not in a
