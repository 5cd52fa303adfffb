"""Command-line front end.

Verbs:

* ``sweep <config>``    BER/FER sweep over an SNR grid, CSV out.
* ``capacity <config>`` mutual-information curves and the composite-vs-joint
  audit columns, CSV out.
* ``codeinfo <alist>``  inspect a parity-check matrix file.

Flags ``--seed``, ``--threads`` and ``--out`` override the config file; the
environment variables ``DMMSIM_SEED``, ``DMMSIM_THREADS`` and ``DMMSIM_OUT``
sit between the two (flag beats environment beats file).  An empty path from
``--out`` or ``DMMSIM_OUT`` is an error naming its source; an empty ``out``
in the config file means stdout, as does no output setting at all.

CSV layout: ``#``-prefixed metadata lines (config echo, versions, wall
times, timestamp), one header row, one data row per grid point in grid
order.  Everything volatile lives in the comments, so re-running the same
config reproduces the non-comment body byte for byte regardless of thread
count.  Floats are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import os
import sys
import time

import numpy as np

from . import __version__ as _version
from . import receiver
from .channel import GAUSSIAN_METHOD
from .config import (
    CapacityConfig,
    ConfigError,
    SweepConfig,
    load_capacity_config,
    load_sweep_config,
    run_args,
    sweep_codes,
)
from .linear_code import AlistFormatError, load_alist
from .mutual_info import mi_axis_and_joint, mi_bpsk, mi_qpsk

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


class UsageError(ValueError):
    """Bad command-line flag or environment override; the message names it."""


def _setting(args, name: str, conv):
    """``(value, where)`` of a run setting: the ``--name`` flag, else the
    ``DMMSIM_NAME`` environment variable, else ``(None, None)``.  An empty
    value, or one that ``conv`` rejects, is a usage error naming its source."""
    raw, where = getattr(args, name, None), f"--{name}"
    if raw is None:
        where = ENV_PREFIX + name.upper()
        raw = os.environ.get(where)
        if raw is None:
            return None, None
    try:
        if raw != "":
            return conv(raw), where
    except ValueError:
        pass
    raise UsageError(f"{where}: bad value {raw!r}")


def _metadata(cfg, schema: str, *notes: str) -> list:
    """The leading ``#`` lines of a CSV: versions, the verb's notes and an
    echo of every config field but the grid, the output path and the source
    (the grid is in the rows, the source on its own line)."""
    return [
        f"dmmsim {_version} schema={schema}",
        f"numpy {np.__version__}",
        *notes,
        f"config: {cfg.source or '(inline)'}",
        *(f"config {f.name} = {getattr(cfg, f.name)}" for f in dataclasses.fields(cfg)
          if f.name not in ("snr_grid_db", "out", "source")),
    ]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _sweep_one(cfg: SweepConfig, code1, code2, snr_db: float):
    res = receiver.run_point(cfg.scheme, code1, code2, **run_args(cfg, snr_db))
    row = (
        res.scheme, res.code1_name, res.code2_name, res.snr_convention, res.snr_db,
        res.es_n0_db, res.eb_n0_stream1_db, res.eb_n0_overall_db,
        res.sigma2, res.es,
        res.rate1, res.rate2, res.rate_overall,
        res.seed, res.max_iter,
        cfg.stop_min_frame_errors, cfg.stop_max_frames,
        res.frames, res.frame_errors, res.fer, *res.fer_ci,
        res.bits1, res.errors1, res.ber1, *res.ber1_ci,
        res.bits2, res.errors2, res.ber2, *res.ber2_ci,
        res.bits1 + res.bits2, res.errors1 + res.errors2,
        res.ber_overall, *res.ber_overall_ci,
        res.beta_symbols, res.beta_errors,
        res.beta_errors / res.beta_symbols if res.beta_symbols else float("nan"),
        res.stop_reason,
    )
    return row, res.wall_time_s


def _pool_worker(job):
    cfg, snr_db = job
    return _sweep_one(cfg, *sweep_codes(cfg), snr_db)


def run_sweep(cfg: SweepConfig, threads: int = 1):
    """All grid points of a sweep, in grid order.  Returns (rows, walltimes).

    ``threads`` > 1 runs the grid points on a process pool of at most one
    worker per point.  A pool job is the config and one grid value, not the
    codes (1.2 MB at n = 2048): a worker resolves them through the code
    caches, which a forked worker inherits warm from the resolution here.
    A point decodes its batches on one thread per usable CPU; in a pool of
    N workers each decodes on its share, usable CPUs // N (at least one),
    so the workers do not oversubscribe the CPUs."""
    code1, code2 = sweep_codes(cfg)
    workers = min(threads, len(cfg.snr_grid_db))
    if workers > 1:
        jobs = [(cfg, snr) for snr in cfg.snr_grid_db]
        share = max(1, receiver._usable_cpus() // workers)
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=receiver._share_cpus,
                initargs=(share,)) as pool:
            results = list(pool.map(_pool_worker, jobs))
    else:
        results = [_sweep_one(cfg, code1, code2, snr) for snr in cfg.snr_grid_db]
    rows = [r for r, _ in results]
    walltimes = [w for _, w in results]
    return rows, walltimes


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def _capacity_row(cfg: CapacityConfig, snr: float) -> tuple:
    tol = cfg.quadrature_tol_bits
    es = cfg.symbol_energy
    bpsk = mi_bpsk(snr, es, tol=tol).value
    qpsk = mi_qpsk(snr, es, tol=tol).value
    axis, joint = (r.value for r in mi_axis_and_joint(snr, es, tol=tol))
    composite = bpsk + axis
    return (snr, bpsk, qpsk, axis, composite, joint, composite - joint)


def run_capacity(cfg: CapacityConfig):
    """MI curves on the grid: polarity/QPSK/axis/joint and the composite audit.

    The axis and joint columns share one quadrature of the four-point H(Y)
    per grid point.

    Grid points are independent, so they run as the batches of
    :func:`receiver._in_frame_order`: queued in grid order on a pool of one
    thread per further usable CPU, and evaluated by the calling thread too,
    at most one thread per point in all.  Threads pay because numpy
    releases the interpreter lock inside the quadrature's ufuncs.  While the
    next row is not done, the calling thread evaluates the first queued
    point no pool thread has started, so a point at 256 nodes, which costs
    several times one at 64, holds up only its own thread, and the calling
    thread's ``mutual_info`` scratch arrays stay warm from one call to the
    next; the pool's threads end with the call.  The rows come back in grid
    order, and an error is the first failing point's in grid order.  No bit
    of a row depends on the thread count: ``mutual_info`` carries no value
    from one call to the next (its only mutable state is each thread's own
    scratch arrays), shares only its read-only Gauss-Hermite tables across
    threads, and sets its floating-point error state per call, which numpy
    keeps per thread.
    """
    point = functools.partial(_capacity_row, cfg)
    workers = max(1, min(receiver._usable_cpus(), len(cfg.snr_grid_db)))
    return list(receiver._in_frame_order(point, cfg.snr_grid_db, workers))


# ---------------------------------------------------------------------------
# codeinfo
# ---------------------------------------------------------------------------

def run_codeinfo(path: str, stream) -> None:
    code = load_alist(path)  # BinaryCode checks G H^T = 0 as it derives G
    h = code.parity
    col_deg = h.sum(axis=0)
    row_deg = h.sum(axis=1)
    stream.write(f"file: {path}\n")
    stream.write(f"n (columns / code length): {code.n}\n")
    stream.write(f"m (rows / checks): {h.shape[0]}\n")
    stream.write(f"k (info bits): {code.k}\n")
    stream.write(f"rate: {code.k / code.n:.6f}\n")
    stream.write(f"column degrees: min {col_deg.min()} max {col_deg.max()} "
                 f"mean {col_deg.mean():.3f}\n")
    stream.write(f"row degrees: min {row_deg.min()} max {row_deg.max()} "
                 f"mean {row_deg.mean():.3f}\n")
    stream.write("G H^T = 0: yes\n")


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


def _resolve_out(args, cfg) -> str | None:
    """The output path (None for stdout).  It is checked here, so a bad path
    fails before the run, naming the setting it came from: its directory
    must exist, and the path must be neither a directory nor a file the run
    reads, the config file or a code file it names."""
    out, where = _setting(args, "out", str)
    if out is None:
        out, where = cfg.out or None, f"{cfg.source}: out"
    if out and not os.path.isdir(os.path.dirname(out) or "."):
        raise UsageError(f"{where}: no directory {os.path.dirname(out)!r} for {out!r}")
    if out and os.path.isdir(out):
        raise UsageError(f"{where}: {out!r} is a directory, not a file")
    if out and os.path.exists(out):
        for what, path in (("the config file", cfg.source),
                           ("code1's alist file", getattr(cfg, "code1", "")),
                           ("code2's alist file", getattr(cfg, "code2", ""))):
            if path and os.path.exists(path) and os.path.samefile(out, path):
                raise UsageError(f"{where}: {out!r} is {what}, not an output file")
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
        if args.verb == "codeinfo":
            run_codeinfo(args.alist, sys.stdout)
            return 0
        if args.verb == "sweep":
            cfg = load_sweep_config(args.config)
            seed, where = _setting(args, "seed", int)
            if seed is not None and seed < 0:
                raise UsageError(f"{where} must be >= 0, got {seed}")
            threads, where = _setting(args, "threads", int)
            if threads is not None and threads < 1:
                raise UsageError(f"{where} must be >= 1, got {threads}")
            threads = threads or 1
            run_cfg = cfg if seed is None else dataclasses.replace(cfg, master_seed=seed)
            out = _resolve_out(args, cfg)
            t0 = time.time()
            rows, walltimes = run_sweep(run_cfg, threads=threads)
            meta = _metadata(cfg, SWEEP_SCHEMA,
                             f"noise: per-real-dimension sigma2; {GAUSSIAN_METHOD}",
                             "llr sign: positive favours bit 0")
            meta += [f"effective seed = {run_cfg.master_seed}", f"threads = {threads}"]
            header = SWEEP_COLUMNS
            trailing = [
                f"walltime point={i} snr_db={snr} {wt:.3f}s"
                for i, (snr, wt) in enumerate(zip(cfg.snr_grid_db, walltimes))
            ]
        else:
            cfg = load_capacity_config(args.config)
            out = _resolve_out(args, cfg)
            t0 = time.time()
            rows = run_capacity(cfg)
            meta = _metadata(cfg, CAPACITY_SCHEMA,
                             "mi in bits per channel use; es_n0_complex convention")
            header, trailing = CAPACITY_COLUMNS, []
        meta.append(f"generated: {time.strftime('%Y-%m-%dT%H:%M:%S%z')}")
        trailing.append(f"walltime total {time.time() - t0:.3f}s")
        _emit(out, meta, header, rows, trailing)
    except (ConfigError, AlistFormatError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
