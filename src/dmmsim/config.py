"""Flat key=value config files for sweeps and capacity grids.

The format is deliberately plain: one ``key = value`` per line, ``#``
comments, blank lines ignored.  Units live in the key names (``*_db``,
``*_frames``) so a config diff is self-explanatory.  Both kinds are read by
one reader, :func:`_read`, from their dataclass's fields: a field without a
default is a required key, and a value is converted by the type its field
is annotated with.  Errors are reported with the file name and the line of
the offending key.

A sweep's keys are ``run_point``'s arguments under other names:
:data:`RUN_ARGS` maps one to the other, and :func:`run_args` turns a sweep
and a grid value into ``run_point``'s keywords.  The loader checks each
grid value with ``receiver.resolve_point``, the rule set ``run_point``
checks its own arguments with, and reports a broken rule at its key's
line.  It checks itself only what no run reads: code keys that the scheme
does not send or that do not resolve to a code, a ``code2_repeat`` other
than 1 for a scheme without ``code2``, and ``code2_repeat``,
``max_bp_iterations`` and ``uncoded_block_bits`` >= 1 for every scheme (the
CSV echoes them).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

from .builtin_codes import resolve_code
from .channel import require_positive, snr_to_sigma2
from .linear_code import extend_repetition
from .receiver import SCHEME_CODES, resolve_point


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
    """Parse ``key = value`` lines into {key: (value, lineno)}.  A leading
    UTF-8 byte-order mark is not part of the first key."""
    path = str(path)
    out: dict = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
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


def _grid(value: str) -> tuple:
    toks = [t for t in value.replace(",", " ").split() if t]
    if not toks:
        raise ValueError("empty SNR grid")
    return tuple(float(t) for t in toks)


#: how a key's value is read, by the type its field is annotated with
_CONVERTERS = {"str": str, "int": int, "float": float, "tuple": _grid}


def _checker(kv: dict, path: str):
    """``require(ok, key, message)``: raise at ``key``'s line unless ``ok``."""
    lines = {key: lineno for key, (_, lineno) in kv.items()}

    def require(ok, key: str, message: str):
        if not ok:
            raise ConfigError(path, lines.get(key), message)

    return require


def _read(cls, path):
    """``(config, require)``: the ``cls`` that the file at ``path`` holds,
    and the :func:`_checker` of its keys.

    Each field of ``cls`` but ``source`` is a key.  A key whose field has
    no default is required, an absent one takes its field's default, and a
    value is converted by :data:`_CONVERTERS` of its field's type.  A key
    that no field names is an error at its line."""
    path = str(path)
    kv = read_kv_file(path)
    require = _checker(kv, path)
    values = {}
    for f in fields(cls):
        if f.name == "source":
            continue
        if f.name not in kv:
            require(f.default is not MISSING, f.name, f"missing required key {f.name!r}")
            continue
        value, _ = kv.pop(f.name)
        try:
            values[f.name] = _CONVERTERS[f.type](value)
        except ValueError as exc:
            require(False, f.name, f"bad value for {f.name!r}: {exc}")
    for key in kv:  # no field took it
        require(False, key, f"unknown key {key!r}")
    return cls(**values, source=path), require


#: the ``run_point`` argument each sweep key sets; the grid sets ``snr_db``
#: one value at a time, and ``scheme``, ``code1`` and ``code2`` are named
#: alike in both
RUN_ARGS = {"snr_grid_db": "snr_db", "snr_convention": "snr_convention",
            "symbol_energy": "es", "master_seed": "seed",
            "stop_min_frame_errors": "min_frame_errors", "stop_max_frames": "max_frames",
            "max_bp_iterations": "max_iter", "uncoded_block_bits": "uncoded_block_bits"}
_KEYS = {arg: key for key, arg in RUN_ARGS.items()}


def run_args(cfg: SweepConfig, snr_db: float) -> dict:
    """``run_point``'s keyword arguments for grid value ``snr_db`` of ``cfg``."""
    return {arg: snr_db if key == "snr_grid_db" else getattr(cfg, key)
            for key, arg in RUN_ARGS.items()}


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
    """The sweep the file at ``path`` holds; each grid value is checked by
    ``receiver.resolve_point`` on the codes the file names."""
    cfg, require = _read(SweepConfig, path)
    for key in ("code2_repeat", "max_bp_iterations", "uncoded_block_bits"):
        value = getattr(cfg, key)
        require(value >= 1, key, f"{key} must be >= 1, got {value}")
    codes = []
    for key in ("code1", "code2"):
        try:
            codes.append(_sweep_code(cfg, key))
        except (ValueError, OSError) as exc:
            require(False, key, f"{key}: {exc}")

    def require_arg(ok, arg, problem):
        key = _KEYS.get(arg, arg)
        require(ok, key, f"{key} {problem}")

    for snr_db in cfg.snr_grid_db:
        resolve_point(require_arg, cfg.scheme, *codes, **run_args(cfg, snr_db))
    sent = SCHEME_CODES[cfg.scheme]
    for key in ("code1", "code2"):
        require(key in sent or not getattr(cfg, key), key,
                f"{key} is not sent by scheme {cfg.scheme}")
    require("code2" in sent or cfg.code2_repeat == 1, "code2_repeat",
            f"code2_repeat must be 1 for scheme {cfg.scheme}, which sends no code2")
    return cfg


def load_capacity_config(path) -> CapacityConfig:
    """The capacity grid the file at ``path`` holds: ``symbol_energy`` and
    ``quadrature_tol_bits`` positive and finite, and each grid value giving
    a positive, finite sigma2."""
    cfg, require = _read(CapacityConfig, path)
    for key in ("symbol_energy", "quadrature_tol_bits"):
        try:
            require_positive(**{key: getattr(cfg, key)})
        except ValueError as exc:
            require(False, key, str(exc))
    for snr in cfg.snr_grid_db:
        try:
            snr_to_sigma2(snr, cfg.symbol_energy)
        except ValueError:
            require(False, "snr_grid_db", f"snr_grid_db must be finite and small enough in "
                    f"magnitude for a positive, finite sigma2, got {snr}")
    return cfg
