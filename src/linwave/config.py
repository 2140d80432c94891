"""Run configuration: a strict flat ``section.key = value`` text format.

Unknown keys are fatal and parse errors carry line numbers.  Example::

    background.kind = kasner
    background.p = 2/3, 2/3, -1/3
    lattice.n = 3
    lattice.nmax = 4
    initial.generator = random-smooth
    initial.seed = 7
    evolve.t0 = 1.0
    evolve.t1 = 2.0
    evolve.dt = 1e-3
    evolve.samples = 11
    output.dir = runs/kasner
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .slices import kasner_exponents

BACKGROUND_KINDS = ("minkowski-torus", "kasner")
GENERATORS = ("random-smooth", "gauge-producing", "standing-wave", "snapshot")

# key -> (type tag, default); None default means required only when used
SCHEMA = {
    "background.kind": ("str", "minkowski-torus"),
    "background.n": ("int", 3),
    "background.p": ("floats", None),
    "lattice.nmax": ("int", 8),
    "initial.generator": ("str", "random-smooth"),
    "initial.seed": ("int", 0),
    "initial.snapshot": ("str", None),
    "evolve.t0": ("float", None),
    "evolve.t1": ("float", None),
    "evolve.dt": ("float", None),  # omitted = exact propagator (Minkowski)
    "evolve.samples": ("int", 11),
    "evolve.sobolev": ("float", 0.0),
    "evolve.J": ("int", 1),
    "output.dir": ("str", "."),
    "tolerance.gauge": ("float", None),
    "tolerance.constraint": ("float", None),
}


class ConfigError(ValueError):
    """Raised on malformed or invalid configuration input."""


@dataclass
class RunConfig:
    """A validated evolution-run configuration."""

    values: dict = dc_field(default_factory=dict)

    def get(self, key: str):
        if key not in SCHEMA:
            raise KeyError(key)
        return self.values.get(key, SCHEMA[key][1])


def _parse_float(text: str) -> float:
    """Floats, allowing exact rationals like 2/3 for Kasner exponents."""
    text = text.strip()
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def _parse_value(key: str, raw: str, lineno: int, path):
    kind = SCHEMA[key][0]
    try:
        if kind == "int":
            return int(raw.strip())
        if kind == "float":
            return _parse_float(raw)
        if kind == "floats":
            return tuple(_parse_float(p) for p in raw.split(","))
        return raw.strip()
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc


def parse_config(text: str, path="<string>") -> RunConfig:
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'section.key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, lineno, path)
    cfg = RunConfig(values)
    _validate(cfg, path)
    return cfg


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cfg = parse_config(path.read_text(), str(path))
    snap = cfg.values.get("initial.snapshot")
    if snap is not None:
        target = Path(snap)
        if not target.is_absolute():
            target = path.parent / target
        if not Path(f"{target}.json").exists():
            raise ConfigError(f"{path}: initial.snapshot {snap!r} does not exist")
        cfg.values["initial.snapshot"] = str(target)
    return cfg


def _validate(cfg: RunConfig, path) -> None:
    for key in ("evolve.t0", "evolve.t1", "evolve.dt", "evolve.sobolev"):
        value = cfg.get(key)
        if value is not None and not np.isfinite(value):
            raise ConfigError(f"{path}: {key} must be finite, got {value}")
    kind = cfg.get("background.kind")
    if kind not in BACKGROUND_KINDS:
        raise ConfigError(
            f"{path}: background.kind must be one of {BACKGROUND_KINDS}, got {kind!r}"
        )
    n = cfg.get("background.n")
    if kind == "minkowski-torus" and n not in (2, 3):
        raise ConfigError(f"{path}: background.n must be 2 or 3, got {n}")
    if kind == "kasner":
        p = cfg.get("background.p")
        if p is None:
            raise ConfigError(f"{path}: kasner background requires background.p")
        try:
            kasner_exponents(p)
        except ValueError:
            need = (f"satisfy sum p = sum p^2 = 1, got {p}" if np.shape(p) == (3,)
                    else "be a triple")
            raise ConfigError(f"{path}: background.p must {need}") from None
        t0 = cfg.get("evolve.t0")
        if t0 is not None and t0 <= 0:
            raise ConfigError(f"{path}: evolve.t0 must be positive on kasner")
        if cfg.get("evolve.dt") is None:
            raise ConfigError(f"{path}: kasner evolution requires evolve.dt")
    if cfg.get("lattice.nmax") < 1:
        raise ConfigError(f"{path}: lattice.nmax must be >= 1")
    gen = cfg.get("initial.generator")
    if gen not in GENERATORS:
        raise ConfigError(
            f"{path}: initial.generator must be one of {GENERATORS}, got {gen!r}"
        )
    if gen == "snapshot" and cfg.values.get("initial.snapshot") is None:
        raise ConfigError(f"{path}: generator 'snapshot' requires initial.snapshot")
    dt = cfg.get("evolve.dt")
    if dt is not None and dt <= 0:
        raise ConfigError(f"{path}: evolve.dt must be positive")
    if cfg.get("evolve.samples") < 2:
        raise ConfigError(f"{path}: evolve.samples must be >= 2")
    if cfg.get("evolve.J") not in (0, 1):
        raise ConfigError(f"{path}: evolve.J must be 0 or 1")
