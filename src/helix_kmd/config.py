"""Experiment configuration: INI-style sections with strict validation.

Unknown keys are rejected and numeric ranges are checked against module
preconditions before any computation starts, so a malformed run dies
with exit code 2 and no partial artifacts.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

FORMAT_VERSION = 1


def _parse_float(tok: str) -> float:
    """Floats, plus 'e^-40' meaning exp(-40) for log-scale sweeps."""
    tok = tok.strip()
    if tok.startswith("e^"):
        return math.exp(float(tok[2:]))
    return float(tok)


def _parse_float_list(tok: str) -> list[float]:
    return [_parse_float(t) for t in tok.split(",") if t.strip()]


_SCHEMAS: dict[str, dict[str, str]] = {
    "kmd": {
        "n_filaments": "int",
        "modes": "int",
        "kappa": "floats",
        "alpha_core": "floats",
        "dt": "float",
        "t_final": "float",
        "stride": "int",
        "collision_threshold": "float",
    },
    "config": {
        "variant": "str",
        "r": "float",
        "h": "float",
        "n_outer": "int",
        "periods": "int",
        "kappa0": "float",
    },
    "stream": {
        "epsilon": "floats",
        "r": "float",
        "h": "float",
        "n": "int",
        "alpha": "float",
        "delta": "float",
        "nu_bar": "float",
        "a_decay": "float",
        "grid.rho_min": "float",
        "grid.rho_max": "float",
        "grid.radial": "int",
        "grid.angular": "int",
        "out_grid.extent": "float",
        "out_grid.n": "int",
    },
    "grid": {
        "extent": "float",
        "nx": "int",
        "ny": "int",
        "nz": "int",
    },
}

_CONVERTERS = {
    "int": int,
    "float": _parse_float,
    "floats": _parse_float_list,
    "str": str,
}


@dataclass
class ExperimentConfig:
    """Validated key-value sections of one experiment file."""

    sections: dict = field(default_factory=dict)
    source_bytes: bytes = b""
    format_version: int = FORMAT_VERSION

    def section(self, name: str) -> dict:
        return self.sections.get(name, {})

    def require(self, name: str, *keys: str) -> dict:
        """Section `name`, which must exist and hold every one of `keys`."""
        if name not in self.sections:
            raise ConfigError(f"missing required section [{name}]")
        for key in keys:
            if key not in self.sections[name]:
                raise ConfigError(f"missing required key '{key}' in section [{name}]")
        return self.sections[name]

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)


_GRID_FIELDS = {"grid.rho_min": "rho_min", "grid.rho_max": "rho_max",
                "grid.radial": "n_radial", "grid.angular": "n_angular"}


def grid_spec(stream: dict):
    """The `[stream]` polar grid; keys left out keep PolarGridSpec's defaults."""
    from .elliptic import PolarGridSpec

    return PolarGridSpec(**{f: stream[k] for k, f in _GRID_FIELDS.items() if k in stream})


def _validate(sections: dict) -> None:
    kmd = sections.get("kmd")
    if kmd:
        if kmd.get("dt", 1.0) <= 0.0:
            raise ConfigError("[kmd] dt must be positive")
        if kmd.get("t_final", 1.0) <= 0.0:
            raise ConfigError("[kmd] t_final must be positive")
        if kmd.get("stride", 1) < 1:
            raise ConfigError("[kmd] stride must be >= 1")
        if kmd.get("modes", 64) < 2 or (kmd.get("modes", 64) & (kmd.get("modes", 64) - 1)):
            raise ConfigError("[kmd] modes must be a power of two")
        if "kappa" in kmd and any(k == 0.0 for k in kmd["kappa"]):
            raise ConfigError("[kmd] circulations must be nonzero")
    cfg = sections.get("config")
    if cfg:
        variants = {"StraightPolygon", "PolygonHelix", "PolygonWithCenter"}
        if cfg.get("variant") not in variants:
            raise ConfigError(f"[config] variant must be one of {sorted(variants)}")
        if cfg.get("r", 1.0) <= 0.0 or cfg.get("h", 1.0) == 0.0:
            raise ConfigError("[config] need r > 0 and h != 0")
        if cfg.get("n_outer", 2) < 2:
            raise ConfigError("[config] n_outer must be >= 2")
        if cfg.get("periods", 1) < 1:
            raise ConfigError("[config] periods must be >= 1")
    stream = sections.get("stream")
    if stream:
        eps = stream.get("epsilon", [])
        if not eps:
            raise ConfigError("[stream] epsilon list must be nonempty")
        if any(not 0.0 < e < math.exp(-1.0) for e in eps):
            raise ConfigError("[stream] epsilon values must lie in (0, e^-1)")
        if stream.get("r", 1.0) <= 0.0 or stream.get("h", 1.0) == 0.0:
            raise ConfigError("[stream] need r > 0 and h != 0")
        if stream.get("n", 2) < 2:
            raise ConfigError("[stream] n must be >= 2")
        grid = grid_spec(stream)
        if grid.n_radial < 4 or grid.n_angular < 1:
            raise ConfigError("[stream] need grid.radial >= 4 and grid.angular >= 1")
        if not 0.0 < grid.rho_min < grid.rho_max:
            raise ConfigError("[stream] need 0 < grid.rho_min < grid.rho_max")
        if stream.get("out_grid.n", 1) < 1:
            raise ConfigError("[stream] out_grid.n must be >= 1")
    if any(sections.get("grid", {}).get(k, 1) < 1 for k in ("nx", "ny", "nz")):
        raise ConfigError("[grid] nx, ny and nz must be >= 1")


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw = path.read_bytes()
    parser = configparser.ConfigParser()
    try:
        parser.read_string(raw.decode("utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    sections: dict = {}
    for name in parser.sections():
        if name not in _SCHEMAS:
            raise ConfigError(f"unknown section [{name}]")
        schema = _SCHEMAS[name]
        out = {}
        for key, value in parser.items(name):
            if key not in schema:
                raise ConfigError(f"unknown key '{key}' in section [{name}]")
            try:
                out[key] = _CONVERTERS[schema[key]](value)
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for [{name}] {key}: {value}") from exc
        sections[name] = out
    _validate(sections)
    return ExperimentConfig(sections=sections, source_bytes=raw)
