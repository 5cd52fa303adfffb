"""Flat key=value config files for sweeps and capacity grids.

The format is deliberately plain: one ``key = value`` per line, ``#``
comments, blank lines ignored.  Units live in the key names (``*_db``,
``*_frames``) so a config diff is self-explanatory.  Unknown keys are
errors, reported with the file name and line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .channel import SNR_CONVENTIONS
from .receiver import MAX_FRAMES, SCHEMES

GRID_CONVENTIONS = SNR_CONVENTIONS + ("eb_n0_overall", "eb_n0_stream1")


class ConfigError(ValueError):
    """Bad config file; message carries path and the 1-based line number of
    the offending key (``line`` is None when the key is absent)."""

    def __init__(self, path: str, line: int | None, message: str):
        self.path = path
        self.line = line
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class SweepConfig:
    scheme: str
    snr_grid_db: tuple
    snr_convention: str = "es_n0_complex"
    code1: str = ""
    code2: str = ""
    code2_repeat: int = 1
    symbol_energy: float = 1.0
    stop_min_frame_errors: int = 100
    stop_max_frames: int = 1_000_000
    master_seed: int = 1
    max_bp_iterations: int = 50
    uncoded_block_bits: int = 4096
    out: str = ""
    source: str = field(default="", compare=False)


@dataclass(frozen=True)
class CapacityConfig:
    snr_grid_db: tuple
    symbol_energy: float = 1.0
    quadrature_tol_bits: float = 1e-6
    out: str = ""
    source: str = field(default="", compare=False)


def read_kv_file(path) -> dict:
    """Parse ``key = value`` lines into {key: (value, lineno)}."""
    path = str(path)
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(path, lineno, f"expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if not key:
                raise ConfigError(path, lineno, "empty key")
            if key in out:
                raise ConfigError(path, lineno, f"duplicate key {key!r}")
            out[key] = (value, lineno)
    return out


def _take(kv: dict, path: str, key: str, conv, default=None, required=False):
    if key not in kv:
        if required:
            raise ConfigError(path, None, f"missing required key {key!r}")
        return default
    value, lineno = kv.pop(key)
    try:
        return conv(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(path, lineno, f"bad value for {key!r}: {exc}") from None


def _grid(value: str) -> tuple:
    toks = [t for t in value.replace(",", " ").split() if t]
    if not toks:
        raise ValueError("empty SNR grid")
    return tuple(float(t) for t in toks)


def _reject_unknown(kv: dict, path: str):
    if kv:
        key, (_, lineno) = next(iter(kv.items()))
        raise ConfigError(path, lineno, f"unknown key {key!r}")


def _checker(kv: dict, path: str):
    """``require(ok, key, message)``: raise at ``key``'s line unless ``ok``."""
    lines = {key: lineno for key, (_, lineno) in kv.items()}

    def require(ok, key: str, message: str):
        if not ok:
            raise ConfigError(path, lines.get(key), message)

    return require


def _positive(x: float) -> bool:
    return x > 0 and math.isfinite(x)


def load_sweep_config(path) -> SweepConfig:
    path = str(path)
    kv = read_kv_file(path)
    require = _checker(kv, path)
    scheme = _take(kv, path, "scheme", str, required=True)
    require(scheme in SCHEMES, "scheme", f"scheme must be one of {SCHEMES}, got {scheme!r}")
    cfg = SweepConfig(
        scheme=scheme,
        snr_grid_db=_take(kv, path, "snr_grid_db", _grid, required=True),
        snr_convention=_take(kv, path, "snr_convention", str, default="es_n0_complex"),
        code1=_take(kv, path, "code1", str, default=""),
        code2=_take(kv, path, "code2", str, default=""),
        code2_repeat=_take(kv, path, "code2_repeat", int, default=1),
        symbol_energy=_take(kv, path, "symbol_energy", float, default=1.0),
        stop_min_frame_errors=_take(kv, path, "stop_min_frame_errors", int, default=100),
        stop_max_frames=_take(kv, path, "stop_max_frames", int, default=1_000_000),
        master_seed=_take(kv, path, "master_seed", int, default=1),
        max_bp_iterations=_take(kv, path, "max_bp_iterations", int, default=50),
        uncoded_block_bits=_take(kv, path, "uncoded_block_bits", int, default=4096),
        out=_take(kv, path, "out", str, default=""),
        source=path,
    )
    _reject_unknown(kv, path)
    require(cfg.snr_convention in GRID_CONVENTIONS, "snr_convention",
            f"snr_convention must be one of {GRID_CONVENTIONS}")
    if cfg.scheme in ("dmm_realistic", "dmm_genie"):
        require(cfg.code1 and cfg.code2, "scheme",
                f"scheme {cfg.scheme} requires code1 and code2")
    if cfg.scheme == "bpsk_baseline":
        require(cfg.code1, "scheme", "scheme bpsk_baseline requires code1")
    for key in ("code2_repeat", "stop_min_frame_errors", "stop_max_frames",
                "max_bp_iterations", "uncoded_block_bits"):
        require(getattr(cfg, key) >= 1, key, f"{key} must be >= 1")
    require(cfg.stop_max_frames <= MAX_FRAMES, "stop_max_frames",
            "stop_max_frames must be <= 2**32 (a frame index is one 32-bit seed word)")
    require(cfg.master_seed >= 0, "master_seed", "master_seed must be >= 0")
    require(_positive(cfg.symbol_energy), "symbol_energy",
            "symbol_energy must be positive and finite")
    return cfg


def load_capacity_config(path) -> CapacityConfig:
    path = str(path)
    kv = read_kv_file(path)
    require = _checker(kv, path)
    cfg = CapacityConfig(
        snr_grid_db=_take(kv, path, "snr_grid_db", _grid, required=True),
        symbol_energy=_take(kv, path, "symbol_energy", float, default=1.0),
        quadrature_tol_bits=_take(kv, path, "quadrature_tol_bits", float, default=1e-6),
        out=_take(kv, path, "out", str, default=""),
        source=path,
    )
    _reject_unknown(kv, path)
    for key in ("symbol_energy", "quadrature_tol_bits"):
        require(_positive(getattr(cfg, key)), key, f"{key} must be positive and finite")
    return cfg
