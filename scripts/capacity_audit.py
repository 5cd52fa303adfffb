#!/usr/bin/env python3
"""Tabulate the separated-stream rate sum next to the joint four-point MI,
then show what the published gain claims would do to the record gap.

The axis-stream term is the mutual information a receiver can actually
extract from the rotation bit, so by the chain rule the composite equals the
joint MI; any claimed surplus shows up in the composite_minus_joint column
of the CSV as a measured number instead of an assertion.
"""

import argparse
import math
import pathlib
import sys

from dmmsim.cli import main as cli_main
from dmmsim.mutual_info import CLAIMED_GAIN_DB, RECORD_GAP_DB

#: Most grid points one run may ask for; at tens of milliseconds per point
#: this is well over half an hour of quadrature.
MAX_POINTS = 100_000


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=float, default=-10.0)
    ap.add_argument("--hi", type=float, default=10.0)
    ap.add_argument("--step", type=float, default=1.0)
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args(argv)
    for name in ("lo", "hi", "step"):
        if not math.isfinite(getattr(args, name)):
            ap.error(f"--{name} must be finite")
    if args.step <= 0:
        ap.error("--step must be > 0")
    if args.lo > args.hi:
        ap.error("--lo must be <= --hi")
    if args.lo + args.step == args.lo:
        ap.error("--step must be larger than the float spacing at --lo")
    # the grid is lo + i*step for every i that stays within 1e-9 of hi
    span = (args.hi + 1e-9 - args.lo) / args.step
    if not span < MAX_POINTS:  # also catches a span that overflowed to inf
        ap.error(f"--step must be large enough for at most {MAX_POINTS} grid points")
    grid = [round(args.lo + i * args.step, 10) for i in range(math.floor(span) + 1)]
    if len(set(grid)) < len(grid):
        ap.error("--step must be large enough that rounding to 10 decimals keeps "
                 "the grid points apart")

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = outdir / "capacity_grid.cfg"
    cfg.write_text(
        f"snr_grid_db = {' '.join(str(g) for g in grid)}\n"
        "quadrature_tol_bits = 1e-6\n"
    )
    out = outdir / "capacity_audit.csv"
    rc = cli_main(["capacity", str(cfg), "--out", str(out)])
    if rc != 0:
        return rc
    print(f"wrote {out}")

    for gain in CLAIMED_GAIN_DB:
        print(f"gain {gain:+.4f} dB -> gap to the record {RECORD_GAP_DB:.4f} dB "
              f"becomes {RECORD_GAP_DB - gain:+.4f} dB "
              "(extrapolated bookkeeping, not a capacity statement)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
