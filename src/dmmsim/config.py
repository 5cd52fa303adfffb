"""Flat key=value config files for sweeps and capacity grids.

The format is deliberately plain: one ``key = value`` per line, ``#``
comments, blank lines ignored.  Units live in the key names (``*_db``,
``*_frames``) so a config diff is self-explanatory.  Unknown keys are
errors, reported with the file name and line number; so are code keys that
the scheme does not send, or that do not resolve to a code of the right
length, a ``code2_repeat`` other than 1 for a scheme without ``code2``, and
an SNR grid value whose noise variance leaves the float range.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

from .builtin_codes import resolve_code
from .channel import GRID_CONVENTIONS, require_positive, resolve_grid_snr, snr_to_sigma2
from .linear_code import extend_repetition
from .receiver import MAX_FRAMES, SCHEME_CODES, SCHEMES


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
    code1: str = ""
    code2: str = ""
    code2_repeat: int = 1
    snr_convention: str = "es_n0_complex"
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


def _defaulted(cls, kv: dict, path: str) -> dict:
    """Keyword values for each field of ``cls`` with a default, ``source``
    aside, in field order: the key's value converted by the type of the
    default, or the default itself when the key is absent."""
    return {f.name: _take(kv, path, f.name, type(f.default), default=f.default)
            for f in fields(cls) if f.default is not MISSING and f.name != "source"}


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


def _require_positive(require, cfg, *keys):
    """Raise at the line of the first of ``keys`` whose value
    ``require_positive`` rejects."""
    for key in keys:
        try:
            require_positive(**{key: getattr(cfg, key)})
        except ValueError as exc:
            require(False, key, str(exc))


def _check_grid(require, grid, sigma2_of):
    """Raise at the ``snr_grid_db`` line for the first grid value whose
    noise variance ``sigma2_of`` cannot compute (it leaves the float range)."""
    for snr in grid:
        try:
            sigma2_of(snr)
        except ValueError:
            require(False, "snr_grid_db", f"snr_grid_db must be small enough in magnitude "
                    f"for a positive, finite sigma2, got {snr}")


def _sweep_code(cfg: SweepConfig, key: str):
    """The code a sweep sends as ``key`` (``code1`` or ``code2``), None when
    the config names none; code2 is repeated ``code2_repeat`` times."""
    ref = getattr(cfg, key)
    if not ref:
        return None
    code = resolve_code(ref)
    if key == "code2" and cfg.code2_repeat > 1:
        code = extend_repetition(code, cfg.code2_repeat)
    return code


def sweep_codes(cfg: SweepConfig):
    """``(code1, code2)``, the codes a sweep sends, each None when the config
    names none."""
    return _sweep_code(cfg, "code1"), _sweep_code(cfg, "code2")


def load_sweep_config(path) -> SweepConfig:
    path = str(path)
    kv = read_kv_file(path)
    require = _checker(kv, path)
    scheme = _take(kv, path, "scheme", str, required=True)
    require(scheme in SCHEMES, "scheme", f"scheme must be one of {SCHEMES}, got {scheme!r}")
    cfg = SweepConfig(
        scheme=scheme,
        snr_grid_db=_take(kv, path, "snr_grid_db", _grid, required=True),
        **_defaulted(SweepConfig, kv, path),
        source=path,
    )
    _reject_unknown(kv, path)
    require(all(map(math.isfinite, cfg.snr_grid_db)), "snr_grid_db",
            "snr_grid_db must be finite")
    require(cfg.snr_convention in GRID_CONVENTIONS, "snr_convention",
            f"snr_convention must be one of {GRID_CONVENTIONS}")
    sent = SCHEME_CODES[cfg.scheme]
    require(all(getattr(cfg, key) for key in sent), "scheme",
            f"scheme {cfg.scheme} requires {' and '.join(sent)}")
    for key in ("code1", "code2"):
        require(key in sent or not getattr(cfg, key), key,
                f"{key} is not sent by scheme {cfg.scheme}")
    require("code2" in sent or cfg.code2_repeat == 1, "code2_repeat",
            f"code2_repeat must be 1 for scheme {cfg.scheme}, which sends no code2")
    for key in ("code2_repeat", "stop_min_frame_errors", "stop_max_frames",
                "max_bp_iterations", "uncoded_block_bits"):
        require(getattr(cfg, key) >= 1, key, f"{key} must be >= 1")
    require(cfg.stop_max_frames <= MAX_FRAMES, "stop_max_frames",
            "stop_max_frames must be <= 2**32 (a frame index is one 32-bit seed word)")
    require(cfg.master_seed >= 0, "master_seed", "master_seed must be >= 0")
    _require_positive(require, cfg, "symbol_energy")
    codes = []
    for key in ("code1", "code2"):
        try:
            codes.append(_sweep_code(cfg, key))
        except (ValueError, OSError) as exc:
            require(False, key, f"{key}: {exc}")
    code1, code2 = codes
    if code2 is not None:
        require(code1.n == code2.n, "code2",
                f"code2 length {code2.n // cfg.code2_repeat} x code2_repeat "
                f"{cfg.code2_repeat} must equal code1 length {code1.n}")
    # each grid value as run_point reads it, at the rates of the codes sent
    rate1 = 1.0 if code1 is None else code1.rate
    rate2 = 0.0 if code2 is None else code2.rate
    _check_grid(require, cfg.snr_grid_db, lambda snr: resolve_grid_snr(
        snr, cfg.snr_convention, cfg.symbol_energy, rate1, rate1 + rate2))
    return cfg


def load_capacity_config(path) -> CapacityConfig:
    path = str(path)
    kv = read_kv_file(path)
    require = _checker(kv, path)
    cfg = CapacityConfig(
        snr_grid_db=_take(kv, path, "snr_grid_db", _grid, required=True),
        **_defaulted(CapacityConfig, kv, path),
        source=path,
    )
    _reject_unknown(kv, path)
    require(all(map(math.isfinite, cfg.snr_grid_db)), "snr_grid_db",
            "snr_grid_db must be finite")
    _require_positive(require, cfg, "symbol_energy", "quadrature_tol_bits")
    _check_grid(require, cfg.snr_grid_db, lambda snr: snr_to_sigma2(snr, cfg.symbol_energy))
    return cfg
