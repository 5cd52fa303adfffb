"""Command-line front end.

Verbs:

* ``sweep <config>``    BER/FER sweep over an SNR grid, CSV out.
* ``capacity <config>`` mutual-information curves and the composite-vs-joint
  audit columns, CSV out.
* ``codeinfo <alist>``  inspect a parity-check matrix file.

Flags ``--seed``, ``--threads`` and ``--out`` override the config file; the
environment variables ``DMMSIM_SEED``, ``DMMSIM_THREADS`` and ``DMMSIM_OUT``
sit between the two (flag beats environment beats file).

CSV layout: ``#``-prefixed metadata lines (config echo, versions, wall
times, timestamp), one header row, one data row per grid point in grid
order.  Everything volatile lives in the comments, so re-running the same
config reproduces the non-comment body byte for byte regardless of thread
count.  Floats are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys
import time

import numpy as np

from . import __version__ as _version
from .builtin_codes import resolve_code
from .channel import GAUSSIAN_METHOD
from .config import (
    CapacityConfig,
    ConfigError,
    SweepConfig,
    load_capacity_config,
    load_sweep_config,
)
from .linear_code import AlistFormatError, extend_repetition, gf2_matmul, load_alist
from .mutual_info import mi_axis_and_joint, mi_bpsk, mi_qpsk
from .receiver import run_point

ENV_PREFIX = "DMMSIM_"

SWEEP_SCHEMA = "sweep-v1"
SWEEP_COLUMNS = (
    "scheme", "code1", "code2", "snr_convention", "snr_db",
    "es_n0_db", "eb_n0_stream1_db", "eb_n0_overall_db",
    "sigma2_per_dim", "symbol_energy",
    "rate1", "rate2", "rate_overall",
    "master_seed", "max_bp_iterations",
    "stop_min_frame_errors", "stop_max_frames",
    "frames", "frame_errors", "fer", "fer_lo95", "fer_hi95",
    "bits1", "bit_errors1", "ber1", "ber1_lo95", "ber1_hi95",
    "bits2", "bit_errors2", "ber2", "ber2_lo95", "ber2_hi95",
    "bits_total", "bit_errors_total",
    "ber_overall", "ber_overall_lo95", "ber_overall_hi95",
    "beta_symbols", "beta_errors", "beta_error_rate",
    "stop_reason",
)

CAPACITY_SCHEMA = "capacity-v1"
CAPACITY_COLUMNS = (
    "snr_db", "mi_bpsk", "mi_qpsk", "mi_x2_axis",
    "composite_abr", "joint_mi_4point", "composite_minus_joint",
)


def fmt(value) -> str:
    """One CSV cell; floats at 17 significant digits for exact round-trips."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(stream, metadata: list, header: tuple, rows: list,
              trailing_comments: list | None = None) -> None:
    for line in metadata:
        stream.write(f"# {line}\n")
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(fmt(v) for v in row) + "\n")
    for line in trailing_comments or []:
        stream.write(f"# {line}\n")


def _env_default(name: str, conv, fallback):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    return conv(raw)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_codes(cfg: SweepConfig):
    code1 = resolve_code(cfg.code1) if cfg.code1 else None
    code2 = None
    if cfg.code2:
        code2 = resolve_code(cfg.code2)
        if cfg.code2_repeat > 1:
            code2 = extend_repetition(code2, cfg.code2_repeat)
    return code1, code2


def _sweep_one(cfg: SweepConfig, code1, code2, snr_db: float, seed: int):
    res = run_point(
        cfg.scheme, code1, code2,
        snr_db=snr_db,
        snr_convention=cfg.snr_convention,
        es=cfg.symbol_energy,
        seed=seed,
        min_frame_errors=cfg.stop_min_frame_errors,
        max_frames=cfg.stop_max_frames,
        max_iter=cfg.max_bp_iterations,
        uncoded_block_bits=cfg.uncoded_block_bits,
    )
    fer_ci = res.fer_ci
    b1_ci = res.ber1_ci
    b2_ci = res.ber2_ci
    bo_ci = res.ber_overall_ci
    row = (
        res.scheme, res.code1_name, res.code2_name, res.snr_convention, res.snr_db,
        res.es_n0_db, res.eb_n0_stream1_db, res.eb_n0_overall_db,
        res.sigma2, res.es,
        res.rate1, res.rate2, res.rate_overall,
        res.seed, res.max_iter,
        cfg.stop_min_frame_errors, cfg.stop_max_frames,
        res.frames, res.frame_errors, res.fer, fer_ci[0], fer_ci[1],
        res.bits1, res.errors1, res.ber1, b1_ci[0], b1_ci[1],
        res.bits2, res.errors2, res.ber2, b2_ci[0], b2_ci[1],
        res.bits1 + res.bits2, res.errors1 + res.errors2,
        res.ber_overall, bo_ci[0], bo_ci[1],
        res.beta_symbols, res.beta_errors,
        res.beta_errors / res.beta_symbols if res.beta_symbols else float("nan"),
        res.stop_reason,
    )
    return row, res.wall_time_s


def _pool_worker(args):
    return _sweep_one(*args)


def run_sweep(cfg: SweepConfig, seed: int | None = None, threads: int = 1):
    """All grid points of a sweep, in grid order.  Returns (rows, walltimes)."""
    code1, code2 = _sweep_codes(cfg)
    use_seed = cfg.master_seed if seed is None else seed
    jobs = [(cfg, code1, code2, snr, use_seed) for snr in cfg.snr_grid_db]
    if threads > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_pool_worker, jobs))
    else:
        results = [_sweep_one(*job) for job in jobs]
    rows = [r for r, _ in results]
    walltimes = [w for _, w in results]
    return rows, walltimes


def _sweep_metadata(cfg: SweepConfig, seed, threads) -> list:
    meta = [
        f"dmmsim {_version} schema={SWEEP_SCHEMA}",
        f"numpy {np.__version__}",
        f"noise: per-real-dimension sigma2; {GAUSSIAN_METHOD}",
        "llr sign: positive favours bit 0",
        f"config: {cfg.source or '(inline)'}",
    ]
    meta += [
        f"config {k} = {getattr(cfg, k)}"
        for k in (
            "scheme", "code1", "code2", "code2_repeat", "snr_convention",
            "symbol_energy", "stop_min_frame_errors", "stop_max_frames",
            "master_seed", "max_bp_iterations", "uncoded_block_bits",
        )
    ]
    meta.append(f"effective seed = {cfg.master_seed if seed is None else seed}")
    meta.append(f"threads = {threads}")
    return meta


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def run_capacity(cfg: CapacityConfig):
    """MI curves on the grid: polarity/QPSK/axis/joint and the composite audit.

    The axis and joint columns share one quadrature of the four-point H(Y)
    per grid point."""
    rows = []
    tol = cfg.quadrature_tol_bits
    es = cfg.symbol_energy
    for snr in cfg.snr_grid_db:
        bpsk = mi_bpsk(snr, es, tol=tol).value
        qpsk = mi_qpsk(snr, es, tol=tol).value
        axis, joint = (r.value for r in mi_axis_and_joint(snr, es, tol=tol))
        composite = bpsk + axis
        rows.append((snr, bpsk, qpsk, axis, composite, joint, composite - joint))
    return rows


def _capacity_metadata(cfg: CapacityConfig) -> list:
    return [
        f"dmmsim {_version} schema={CAPACITY_SCHEMA}",
        f"numpy {np.__version__}",
        "mi in bits per channel use; es_n0_complex convention",
        f"config: {cfg.source or '(inline)'}",
        f"config symbol_energy = {cfg.symbol_energy}",
        f"config quadrature_tol_bits = {cfg.quadrature_tol_bits}",
    ]


# ---------------------------------------------------------------------------
# codeinfo
# ---------------------------------------------------------------------------

def run_codeinfo(path: str, stream) -> None:
    code = load_alist(path)
    h = code.parity
    col_deg = h.sum(axis=0)
    row_deg = h.sum(axis=1)
    ok = not np.any(gf2_matmul(code.generator, h.T))
    stream.write(f"file: {path}\n")
    stream.write(f"n (columns / code length): {code.n}\n")
    stream.write(f"m (rows / checks): {h.shape[0]}\n")
    stream.write(f"k (info bits): {code.k}\n")
    stream.write(f"rate: {code.k / code.n:.6f}\n")
    stream.write(f"column degrees: min {col_deg.min()} max {col_deg.max()} "
                 f"mean {col_deg.mean():.3f}\n")
    stream.write(f"row degrees: min {row_deg.min()} max {row_deg.max()} "
                 f"mean {row_deg.mean():.3f}\n")
    stream.write(f"G H^T = 0: {'yes' if ok else 'NO'}\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmmsim",
        description="Link-level simulator and mutual-information audit for the "
                    "rotation-keyed two-stream BPSK scheme.",
        epilog="Environment overrides: DMMSIM_SEED, DMMSIM_THREADS, DMMSIM_OUT "
               "(a command-line flag beats the environment, which beats the config).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sweep = sub.add_parser("sweep", help="run a BER/FER sweep from a config file")
    sweep.add_argument("config")
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--threads", type=int, default=None)
    sweep.add_argument("--out", default=None)

    cap = sub.add_parser("capacity", help="tabulate MI curves from a grid config")
    cap.add_argument("config")
    cap.add_argument("--out", default=None)

    info = sub.add_parser("codeinfo", help="inspect an alist parity-check file")
    info.add_argument("alist")
    return parser


def _resolve_out(flag_value, cfg_value: str):
    out = flag_value if flag_value is not None else _env_default("OUT", str, None)
    if out is None:
        out = cfg_value or None
    return out


def _emit(out_path, metadata, header, rows, trailing):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            write_csv(fh, metadata, header, rows, trailing)
    else:
        write_csv(sys.stdout, metadata, header, rows, trailing)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "sweep":
            cfg = load_sweep_config(args.config)
            seed = args.seed if args.seed is not None else _env_default("SEED", int, None)
            threads = args.threads if args.threads is not None else _env_default("THREADS", int, 1)
            t0 = time.time()
            rows, walltimes = run_sweep(cfg, seed=seed, threads=threads)
            meta = _sweep_metadata(cfg, seed, threads)
            meta.append(f"generated: {time.strftime('%Y-%m-%dT%H:%M:%S%z')}")
            trailing = [
                f"walltime point={i} snr_db={snr} {wt:.3f}s"
                for i, (snr, wt) in enumerate(zip(cfg.snr_grid_db, walltimes))
            ]
            trailing.append(f"walltime total {time.time() - t0:.3f}s")
            _emit(_resolve_out(args.out, cfg.out), meta, SWEEP_COLUMNS, rows, trailing)
        elif args.verb == "capacity":
            cfg = load_capacity_config(args.config)
            t0 = time.time()
            rows = run_capacity(cfg)
            meta = _capacity_metadata(cfg)
            meta.append(f"generated: {time.strftime('%Y-%m-%dT%H:%M:%S%z')}")
            trailing = [f"walltime total {time.time() - t0:.3f}s"]
            _emit(_resolve_out(args.out, cfg.out), meta, CAPACITY_COLUMNS, rows, trailing)
        else:
            run_codeinfo(args.alist, sys.stdout)
    except (ConfigError, AlistFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
