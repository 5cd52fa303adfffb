"""Rewrite golden.json from the current program at the default seed.

Usage: ``python3 perfbench/record_golden.py``.  Only a change that declares
new arithmetic may re-record: the golden rows, CSV-body digests and BP
iteration counts are the regression oracle for every other change.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, GOLDEN_PATH, WORKLOADS, body_lines, run_once  # noqa: E402

golden = {}
for name, wl in WORKLOADS.items():
    rep = run_once(wl, DEFAULT_SEED)
    if rep.errors:
        sys.exit(f"{name}: {rep.errors}")
    entry = {"seed": DEFAULT_SEED, "body_sha256": rep.digest, "rows": body_lines(rep)}
    if wl.sweeps is not None:
        cfgs = wl.sweeps(DEFAULT_SEED)
        max_iter = max(cfg.max_bp_iterations for cfg in cfgs)
        bp = {"bp1": tracing.BpCounters(max_iter), "bp2": tracing.BpCounters(max_iter)}
        for cfg in cfgs:
            tracing.traced_sweep(tracing.Tracer(), cfg, bp)
        entry["bp_counters"] = {k: c.to_json() for k, c in bp.items()}
    golden[name] = entry
    print(name, rep.digest)

with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
    json.dump(golden, fh, indent=1)
    fh.write("\n")
