"""Flat key=value run configuration with a versioned schema.

The keys are the fields of SimConfig and RunSettings: their names, types
and defaults are declared there and nowhere else.  Unknown keys are hard
errors so typos in long parameter sweeps fail fast.  Every key can be
overridden from the environment through VKG_<KEY> (uppercased), which
takes precedence over the file.
"""

from __future__ import annotations

import dataclasses
import math
import os
import typing
from dataclasses import dataclass

from .solver import SimConfig

SCHEMA_VERSION = 1
ENV_PREFIX = "VKG_"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunSettings:
    sim: SimConfig
    decay_window_lo: float = 10.0      # t window of the decay fits
    decay_window_hi: float = 100.0
    ratio_variation_max: float = 5.0

    @property
    def decay_window(self) -> tuple[float, float]:
        return self.decay_window_lo, self.decay_window_hi


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",")) if raw else ()


# each key's parser, by its declared type
_PARSERS = {int: int, float: float, str: str, tuple[float, ...]: _floats}

_SIM_KEYS = typing.get_type_hints(SimConfig)

# every key a config file may set, with its parser
KEYS = {"schema": int} | {
    name: _PARSERS[hint] for name, hint in (
        _SIM_KEYS | typing.get_type_hints(RunSettings)).items()
    if name != "sim"}


def parse_config(text: str) -> dict:
    """Parse key = value lines; '#' starts a comment."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, raw = body.partition("=")
        key = key.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = KEYS[key](raw.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}")
    return out


def apply_env_overrides(values: dict, environ=None) -> dict:
    environ = os.environ if environ is None else environ
    out = dict(values)
    for key, parse in KEYS.items():
        env_key = ENV_PREFIX + key.upper()
        if env_key in environ:
            try:
                out[key] = parse(environ[env_key].strip())
            except ValueError as exc:
                raise ConfigError(f"env {env_key}: bad value: {exc}")
    return out


def check_decay_window(lo: float, hi: float):
    """Refuse a decay-fit window that is not a finite, nonempty [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError("the decay window needs finite decay_window_lo < "
                          f"decay_window_hi, got {lo} and {hi}")


def load_settings(text: str, environ=None) -> RunSettings:
    values = apply_env_overrides(parse_config(text), environ)
    if values.pop("schema", None) != SCHEMA_VERSION:
        raise ConfigError(
            f"config must declare schema = {SCHEMA_VERSION}")
    sim = SimConfig(**{k: v for k, v in values.items() if k in _SIM_KEYS})
    settings = RunSettings(
        sim, **{k: v for k, v in values.items() if k not in _SIM_KEYS})
    check_decay_window(*settings.decay_window)
    if not (math.isfinite(settings.ratio_variation_max)
            and settings.ratio_variation_max > 0):
        raise ConfigError("ratio_variation_max must be positive and finite, "
                          f"got {settings.ratio_variation_max}")
    return settings


def settings_echo(settings: RunSettings) -> dict:
    """Flat dictionary of the effective configuration, for the manifest."""
    echo = dataclasses.asdict(settings)
    echo = {"schema": SCHEMA_VERSION} | echo.pop("sim") | echo
    echo["taus"] = list(echo["taus"])
    return echo
