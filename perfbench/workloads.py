"""The benchmark's workloads and the checks on their CSV output.

Every workload is a fixed amount of work built from the seed alone: sweeps
stop on frame count only (``stop_min_frame_errors`` is out of reach), all
use ``es_n0_complex`` and unit symbol energy, and one run repeats the same
work unit, so every repetition must print the same CSV body.

An operation is one sweep point or one capacity grid point.  It fails when
the call that produces it raises, when its row differs from the golden row
(default seed), or when it breaks an invariant that holds for every seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from dmmsim import cli
from dmmsim.config import CapacityConfig, SweepConfig

DEFAULT_SEED = 1
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

WATERFALL_FRAMES = 768
SHORT_FRAMES = 1024
HIGH_SNR_DB = 3.0


def _sweep(scheme: str, snr_db: float, frames: int, seed: int, **codes) -> SweepConfig:
    return SweepConfig(
        scheme=scheme, snr_grid_db=(snr_db,), snr_convention="es_n0_complex",
        symbol_energy=1.0, stop_min_frame_errors=frames + 1,
        stop_max_frames=frames, master_seed=seed, **codes,
    )


def _waterfall(seed: int) -> list[SweepConfig]:
    return [_sweep("dmm_realistic", -1.3, WATERFALL_FRAMES, seed,
                   code1="ldpc_r12_n2048", code2="ldpc_r14_n512", code2_repeat=4)]


def _short(seed: int) -> list[SweepConfig]:
    return [
        _sweep("dmm_realistic", HIGH_SNR_DB, SHORT_FRAMES, seed,
               code1="ldpc_r12_n256", code2="ldpc_r14_n64", code2_repeat=4),
        _sweep("bpsk_baseline", HIGH_SNR_DB, SHORT_FRAMES, seed, code1="ldpc_r12_n256"),
        _sweep("uncoded", HIGH_SNR_DB, SHORT_FRAMES, seed, uncoded_block_bits=256),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    codes: tuple = ()          # builtin codes resolved during set-up
    sweeps: object = None      # seed -> list of one-point SweepConfigs
    capacity: CapacityConfig | None = None
    max_coded_fer: float = 1.0


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="waterfall_n2048",
            codes=("ldpc_r12_n2048", "ldpc_r14_n512"),
            sweeps=_waterfall,
            max_coded_fer=0.5,
        ),
        Workload(
            name="short_high_snr_n256",
            codes=("ldpc_r12_n256", "ldpc_r14_n64"),
            sweeps=_short,
            max_coded_fer=0.05,
        ),
        Workload(
            name="capacity_grid",
            capacity=CapacityConfig(snr_grid_db=tuple(float(s) for s in range(-10, 11)),
                                    symbol_energy=1.0, quadrature_tol_bits=1e-6),
        ),
    )
}


@dataclass
class RepResult:
    """One repetition of a workload's work unit."""

    header: tuple
    rows: list                 # one CSV row per operation; None where it raised
    items: int                 # frames simulated, or grid points evaluated
    work_s: float              # wall time of run_sweep / run_capacity calls
    emit_s: float = 0.0        # wall time of cli.write_csv for the body
    op_s: list = field(default_factory=list)  # wall time of each run_sweep call
    body: str = ""
    errors: list = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.body.encode()).hexdigest()


def run_once(wl: Workload, seed: int) -> RepResult:
    """The workload's work unit through the public entry points, untraced."""
    if wl.capacity is not None:
        t0 = time.perf_counter()
        try:
            rows = cli.run_capacity(wl.capacity)
        except Exception as exc:  # every grid point of the call failed
            traceback.print_exc()
            rows = [None] * len(wl.capacity.snr_grid_db)
            errors = [f"run_capacity raised {exc!r}"]
        else:
            errors = []
        rep = RepResult(cli.CAPACITY_COLUMNS, rows, len(rows), time.perf_counter() - t0,
                        errors=errors)
    else:
        rep = RepResult(cli.SWEEP_COLUMNS, [], 0, 0.0)
        for cfg in wl.sweeps(seed):
            t0 = time.perf_counter()
            try:
                (row,), _ = cli.run_sweep(cfg, threads=1)
            except Exception as exc:
                traceback.print_exc()
                row = None
                rep.errors.append(f"run_sweep({cfg.scheme}) raised {exc!r}")
            rep.op_s.append(time.perf_counter() - t0)
            rep.rows.append(row)
            rep.items += cfg.stop_max_frames
        rep.work_s = sum(rep.op_s)
    buf = io.StringIO()
    t0 = time.perf_counter()
    cli.write_csv(buf, [], rep.header, [r for r in rep.rows if r is not None])
    rep.emit_s = time.perf_counter() - t0
    rep.body = buf.getvalue()
    return rep


def body_lines(rep: RepResult) -> list:
    """CSV line of each operation, None for operations that raised."""
    written = iter(rep.body.splitlines()[1:])
    return [None if r is None else next(written) for r in rep.rows]


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def golden_applies(wl: Workload, seed: int) -> bool:
    """Capacity rows do not depend on the seed; sweep rows only match at the default seed."""
    return wl.capacity is not None or seed == DEFAULT_SEED


def _q(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _row_problems(wl: Workload, cfg: SweepConfig, row: tuple) -> list:
    """Invariants of a one-point sweep row that hold for every seed."""
    col = dict(zip(cli.SWEEP_COLUMNS, row))
    out = []
    if col["frames"] != cfg.stop_max_frames or col["stop_reason"] != "max_frames":
        out.append(f"stopped at {col['frames']} frames ({col['stop_reason']})")
    for bits, errs in (("bits1", "bit_errors1"), ("bits2", "bit_errors2"),
                       ("beta_symbols", "beta_errors"), ("frames", "frame_errors")):
        if not 0 <= col[errs] <= col[bits]:
            out.append(f"{errs}={col[errs]} outside 0..{bits}={col[bits]}")
    if cfg.scheme == "uncoded":
        # independent bits: BER must sit within 6 sigma of Q(sqrt(2 Es/N0))
        p = _q(math.sqrt(2.0 * 10.0 ** (cfg.snr_grid_db[0] / 10.0)))
        tol = 6.0 * math.sqrt(p * (1.0 - p) / col["bits1"])
        if abs(col["ber1"] - p) > tol:
            out.append(f"uncoded BER {col['ber1']:.6g} not within {tol:.2g} of {p:.6g}")
    elif col["fer"] > wl.max_coded_fer:
        out.append(f"FER {col['fer']:.4g} above {wl.max_coded_fer}")
    return out


def check_rep(wl: Workload, seed: int, rep: RepResult, reference: RepResult | None,
              golden: dict) -> set:
    """Indices of failed operations in ``rep``; reasons go to ``rep.errors``."""
    lines = body_lines(rep)
    want = golden[wl.name]["rows"] if golden_applies(wl, seed) else None
    ref_lines = body_lines(reference) if reference is not None else None
    cfgs = wl.sweeps(seed) if wl.sweeps else None
    failed = set()
    for i, line in enumerate(lines):
        problems = []
        if line is None:
            problems.append("raised")
        else:
            if want is not None and line != want[i]:
                problems.append("row differs from golden row")
            if ref_lines is not None and line != ref_lines[i]:
                problems.append("row differs from the first repetition")
            if cfgs is not None:
                problems += _row_problems(wl, cfgs[i], rep.rows[i])
        if problems:
            failed.add(i)
            rep.errors.append(f"op {i}: " + "; ".join(problems))
    return failed
