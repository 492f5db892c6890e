"""Configuration parsing: schema gate, typo detection, environment
overrides, and the manifest echo."""

import dataclasses
import re
from pathlib import Path

import pytest

from vkg.config import (KEYS, ConfigError, RunSettings, apply_env_overrides,
                        load_settings, parse_config, settings_echo)
from vkg.solver import SimConfig

GOOD = """\
# small coupled run
schema = 1
n = 1
mode = coupled          # trailing comments are fine
nx = 200
x_extent = 10.0
dt = 0.04
taus = 3.0, 4.5, 6.0
decay_window_lo = 5
decay_window_hi = 50
"""


def test_parse_basics_and_comments():
    values = parse_config(GOOD)
    assert values["nx"] == 200 and isinstance(values["nx"], int)
    assert values["x_extent"] == 10.0
    assert values["mode"] == "coupled"
    assert values["taus"] == (3.0, 4.5, 6.0)


def test_empty_taus_allowed():
    assert parse_config("taus =")["taus"] == ()


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 2: unknown key 'nxx'"):
        parse_config("schema = 1\nnxx = 3")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key 'nx'"):
        parse_config("nx = 3\nnx = 4")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 1: expected key = value"):
        parse_config("just words\n")


def test_bad_value_reports_key():
    with pytest.raises(ConfigError, match="bad value for 'nx'"):
        parse_config("nx = many")


def test_schema_required():
    with pytest.raises(ConfigError, match="schema = 1"):
        load_settings("nx = 100\ndt = 0.01", environ={})
    with pytest.raises(ConfigError, match="schema = 1"):
        load_settings("schema = 2\nnx = 100", environ={})


def test_load_settings_roundtrip():
    s = load_settings(GOOD, environ={})
    assert s.sim.nx == 200
    assert s.sim.taus == (3.0, 4.5, 6.0)
    assert s.decay_window == (5.0, 50.0)
    assert s.ratio_variation_max == 5.0  # default


@pytest.mark.parametrize("lines,match", [
    ("delta_mode = quartic", "delta_mode"),
    ("decay_window_lo = nan", "decay window"),
    ("decay_window_hi = inf", "decay window"),
    ("decay_window_hi = -1", "decay window"),
    ("decay_window_lo = 5\ndecay_window_hi = 5", "decay window"),
    ("ratio_variation_max = nan", "ratio_variation_max"),
    ("ratio_variation_max = inf", "ratio_variation_max"),
    ("ratio_variation_max = 0", "ratio_variation_max"),
    ("ratio_variation_max = -2", "ratio_variation_max"),
], ids=["delta_mode", "window_lo_nan", "window_hi_inf", "window_inverted",
        "window_empty", "ratio_nan", "ratio_inf", "ratio_zero",
        "ratio_negative"])
def test_bad_delta_mode(lines, match):
    # run settings that make no sense are refused with the config errors
    with pytest.raises(ConfigError, match=match):
        load_settings(f"schema = 1\n{lines}", environ={})


def test_env_overrides_take_precedence():
    env = {"VKG_NX": "640", "VKG_TAUS": "2.0,3.0", "VKG_DT": "0.01"}
    s = load_settings(GOOD, environ=env)
    assert s.sim.nx == 640
    assert s.sim.taus == (2.0, 3.0)
    assert s.sim.dt == 0.01


def test_env_override_bad_value():
    with pytest.raises(ConfigError, match="env VKG_NX"):
        apply_env_overrides({}, environ={"VKG_NX": "abc"})


def test_unrelated_env_ignored():
    out = apply_env_overrides({"nx": 5}, environ={"NX": "9", "VKGNX": "9"})
    assert out == {"nx": 5}


def test_settings_echo_is_flat_and_complete():
    s = load_settings(GOOD, environ={})
    echo = settings_echo(s)
    assert echo["schema"] == 1
    assert echo["nx"] == 200
    assert echo["taus"] == [3.0, 4.5, 6.0]   # JSON-friendly
    assert echo["decay_window_hi"] == 50.0
    # every value must be JSON-serializable
    import json
    json.dumps(echo)


REMOVED = ("cfl_safety", "boundary_floor", "f_center_v", "bc", "delta_mode")


def test_key_table_is_the_declared_fields():
    """Each key's name, type and default live in SimConfig and
    RunSettings; the table has one parser per field, by declared type."""
    names = [f.name for f in dataclasses.fields(SimConfig)] + [
        f.name for f in dataclasses.fields(RunSettings) if f.name != "sim"]
    assert list(KEYS) == ["schema"] + names
    assert len(names) == 24
    assert KEYS["nx"] is int and KEYS["dt"] is float
    assert KEYS["mode"] is str and KEYS["decay_window_lo"] is float
    assert not set(REMOVED) & set(KEYS)
    defaults = settings_echo(load_settings("schema = 1", environ={}))
    assert defaults == {"schema": 1, "taus": []} | {
        f.name: f.default for f in dataclasses.fields(SimConfig)
        if f.name != "taus"} | {
        f.name: f.default for f in dataclasses.fields(RunSettings)
        if f.name != "sim"}


def test_removed_keys_env_overrides_are_ignored():
    env = {"VKG_" + key.upper(): "nan" for key in REMOVED}
    assert apply_env_overrides({"nx": 5}, environ=env) == {"nx": 5}
    echo = settings_echo(load_settings(GOOD, environ=env))
    assert echo == settings_echo(load_settings(GOOD, environ={}))


def test_readme_lists_exactly_the_keys():
    readme = (Path(__file__).resolve().parent.parent
              / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    table = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
    assert sorted(table) == sorted(KEYS)
    for key in REMOVED:
        assert key not in readme
