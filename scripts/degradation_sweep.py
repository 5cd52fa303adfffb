#!/usr/bin/env python3
"""Degradation of the polarity stream when the rotation pattern is rebuilt
from decoded data instead of handed over error-free.

Runs genie and realistic receivers over an SNR grid for the rate-1/8 (K=2)
and rate-1/16 (K=4) repetition-extended axis codes on the length-2048
pairing, and prints the interpolated SNR penalty at a target BER.  Each
(K, mode) is one ``dmmsim sweep``: this writes its config as
``degradation_k{K}_{mode}.cfg`` and the sweep writes
``degradation_k{K}_{mode}.csv`` (sweep-v1) next to it, so
``dmmsim sweep <cfg> --seed <seed>`` reruns any of them and
``DMMSIM_THREADS`` spreads each grid over worker processes.

Expect roughly 20-40 minutes at the default settings; shrink --max-frames
or the grid for a faster, noisier picture.
"""

import argparse
import csv
import pathlib
import sys

from dmmsim.cli import main as cli_main
from dmmsim.receiver import snr_at_ber

CODE1 = "ldpc_r12_n2048"
BASES = {2: "ldpc_r14_n1024", 4: "ldpc_r14_n512"}
MODES = ("dmm_genie", "dmm_realistic")


def read_rows(path) -> list:
    """The data rows of a sweep CSV, as dicts keyed by column name."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def run(args) -> int:
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for k_rep, base_name in BASES.items():
        crossings = {}
        for mode in MODES:
            stem = outdir / f"degradation_k{k_rep}_{mode}"
            cfg = stem.with_suffix(".cfg")
            cfg.write_text(
                f"scheme = {mode}\n"
                f"code1 = {CODE1}\n"
                f"code2 = {base_name}\n"
                f"code2_repeat = {k_rep}\n"
                f"snr_grid_db = {' '.join(str(g) for g in args.grid)}\n"
                f"stop_min_frame_errors = {args.min_frame_errors}\n"
                f"stop_max_frames = {args.max_frames}\n"
            )
            out = stem.with_suffix(".csv")
            rc = cli_main(["sweep", str(cfg), "--out", str(out), "--seed", str(args.seed)])
            if rc != 0:
                return rc
            rows = read_rows(out)
            for row in rows:
                print(f"K={k_rep} {mode:14s} {float(row['snr_db']):+.2f} dB: "
                      f"ber1={float(row['ber1']):.3e} ber2={float(row['ber2']):.3e} "
                      f"frames={row['frames']}", flush=True)
            crossings[mode] = snr_at_ber([float(row["snr_db"]) for row in rows],
                                         [float(row["ber1"]) for row in rows],
                                         args.target_ber)
        g, r = crossings["dmm_genie"], crossings["dmm_realistic"]
        if g is not None and r is not None:
            print(f"K={k_rep}: genie@{args.target_ber:g}={g:.3f} dB, "
                  f"realistic@{args.target_ber:g}={r:.3f} dB, "
                  f"penalty={r - g:+.4f} dB")
        else:
            print(f"K={k_rep}: target BER {args.target_ber:g} not bracketed "
                  f"by the grid; widen it")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=float, nargs="+",
                    default=[-1.8, -1.5, -1.3, -1.0, -0.8])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--min-frame-errors", type=int, default=100)
    ap.add_argument("--max-frames", type=int, default=20_000)
    ap.add_argument("--target-ber", type=float, default=1e-4)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args(argv)
    if not 0.0 < args.target_ber < 1.0:  # before the sweeps, not after them
        ap.error("--target-ber must be in (0, 1)")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
