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

from dmmsim import gap_report
from dmmsim.cli import main as cli_main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lo", type=float, default=-10.0)
    ap.add_argument("--hi", type=float, default=10.0)
    ap.add_argument("--step", type=float, default=1.0)
    ap.add_argument("--measured-gain-db", type=float, default=0.0,
                    help="gain measured by your own sweeps (dB); default 0")
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args(argv)
    # the grid loop below ends only on a finite, increasing grid
    for name in ("lo", "hi", "step"):
        if not math.isfinite(getattr(args, name)):
            ap.error(f"--{name} must be finite")
    if args.step <= 0:
        ap.error("--step must be > 0")
    if args.lo > args.hi:
        ap.error("--lo must be <= --hi")

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = []
    v = args.lo
    while v <= args.hi + 1e-9:
        grid.append(round(v, 10))
        v += args.step
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

    for gain in (args.measured_gain_db, 0.052, 0.52):
        rec = gap_report(gain)
        print(f"gain {gain:+.4f} dB -> gap to the record "
              f"{rec.record_gap_db:.4f} dB becomes {rec.gap_db:+.4f} dB "
              f"({rec.note})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
