"""dmmsim benchmark: end-to-end rates, cold set-up, and a traced per-layer run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload waterfall_n2048 --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py`` and described in ``BENCHMARK.json``.
Each run is a fresh interpreter, so code construction is cold.

``--trace 0`` times the workload's work unit (``cli.run_sweep`` with
``threads=1`` or ``cli.run_capacity``) repeatedly for ``--seconds`` seconds
(at least three times) and reports medians.  ``setup_s`` is the median of
several fresh interpreters that import dmmsim and resolve the workload's
codes (``setup_probe.py``).

``--trace 1`` runs the same work untraced and through the traced replica in
``tracing.py`` (at least twice), checks that the replica's error totals and
the BP iteration counts match, and reports per-layer self times.  A
``*_ms_per_frame`` figure is a stage's self time over all frames of the
workload, so the stages and ``receiver.overhead`` add up to the traced time
per frame.  A per-layer metric whose stage the workload never runs reads 0.

Every output row is checked: against the golden rows in ``golden.json`` at
the default seed (capacity rows at any seed, since they do not depend on
it), against the first repetition, and against seed-independent invariants.
The last stdout line is the JSON result; the line before it and
``perfbench_out/BENCH_<workload>_seed<seed>_trace<t>.json`` hold the
details: provenance, CSV-body digest, BP counters, spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench_out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

MIN_REPS = 3
MIN_TRACED_REPS = 2
# cold set-ups per run: at least SETUP_MIN, more while they fit in SETUP_BUDGET_S
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 3.0
SUBPROCESS_TIMEOUT_S = 120

PER_FRAME_STAGES = (
    "channel.data", "channel.noise", "linear_code.encode", "linear_code.reencode",
    "modem.map", "modem.llr2", "modem.llr1", "linear_code.bp1", "linear_code.bp2",
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _provenance(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _cold_setup_s(codes) -> float:
    """Seconds from spawning a fresh interpreter to its codes being resolved."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, str(PROBE), *codes], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
    return float(out.stdout.split()[-1]) - t0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure(wl, seed, seconds, golden):
    """Untraced run: returns (metrics, details, attempted, failed)."""
    from dmmsim.builtin_codes import builtin_code
    from workloads import check_rep, golden_applies, run_once

    setup = []
    while len(setup) < SETUP_MIN or (len(setup) < SETUP_MAX and sum(setup) < SETUP_BUDGET_S):
        setup.append(_cold_setup_s(wl.codes))
    for name in wl.codes:
        builtin_code(name)

    reps, failed = [], 0
    t0 = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - t0 < seconds:
        rep = run_once(wl, seed)
        failed += len(check_rep(wl, seed, rep, reps[0] if reps else None, golden))
        reps.append(rep)

    digest = reps[0].digest
    want = golden[wl.name]["body_sha256"] if golden_applies(wl, seed) else None
    if want is not None and digest != want:
        reps[0].errors.append(f"CSV body digest {digest} != golden {want}")
    setup_s = statistics.median(setup)
    work_s = statistics.median(r.work_s for r in reps)
    rate = statistics.median(r.items / r.work_s for r in reps)
    metrics = {
        "throughput_per_s": rate,
        "setup_s": setup_s,
        "time_to_result_s": setup_s + work_s + statistics.median(r.emit_s for r in reps),
        "peak_rss_mb": _peak_rss_mb(),
    }
    details = {
        "reps": len(reps),
        ("grid_points_per_s" if wl.capacity else "frames_per_s"): rate,
        "items_per_rep": reps[0].items,
        "csv_body_sha256": digest,
        "golden_sha256": want,
        "setup_s_samples": setup,
        "work_s_samples": [r.work_s for r in reps],
        "errors": [e for r in reps for e in r.errors],
    }
    return metrics, details, sum(len(r.rows) for r in reps), failed


def measure_traced(wl, seed, seconds, golden):
    """Traced run: returns (metrics, details, attempted, failed, tracer)."""
    import tracing
    from dmmsim.builtin_codes import builtin_code
    from workloads import DEFAULT_SEED, check_rep, run_once

    tr = tracing.Tracer()
    for name in wl.codes:
        with tr.span(f"builtin_codes.build.{name}"):
            builtin_code(name)

    reps, failed, counters = [], 0, []
    untraced_s = traced_s = 0.0
    scheme_s, scheme_frames = defaultdict(float), defaultdict(int)
    t0 = time.perf_counter()
    while len(reps) < MIN_TRACED_REPS or time.perf_counter() - t0 < seconds:
        rep = run_once(wl, seed)
        failed += len(check_rep(wl, seed, rep, reps[0] if reps else None, golden))
        reps.append(rep)
        untraced_s += rep.work_s
        tr.rep = len(reps)
        t1 = time.perf_counter()
        if wl.capacity is not None:
            tracing.check_capacity_rows(tracing.traced_capacity(tr, wl.capacity), rep.rows)
        else:
            max_iter = max(cfg.max_bp_iterations for cfg in wl.sweeps(seed))
            bp = {"bp1": tracing.BpCounters(max_iter), "bp2": tracing.BpCounters(max_iter)}
            for cfg, row, op_s in zip(wl.sweeps(seed), rep.rows, rep.op_s):
                totals = tracing.traced_sweep(tr, cfg, bp)
                if row is not None:  # a raising operation is already counted as failed
                    tracing.check_sweep_totals(cfg, row, totals)
                scheme_s[cfg.scheme] += op_s
                scheme_frames[cfg.scheme] += cfg.stop_max_frames
            counters.append({k: c.to_json() for k, c in bp.items()})
            if counters[-1] != counters[0]:
                raise tracing.ReplicaMismatch("BP counters differ between repetitions")
        traced_s += time.perf_counter() - t1

    if counters and seed == DEFAULT_SEED and counters[0] != golden[wl.name]["bp_counters"]:
        reps[0].errors.append("BP counters differ from golden counters")
        failed += 1

    items = sum(r.items for r in reps)
    self_s = tr.self_seconds()
    metrics = {"trace.overhead_ratio": traced_s / untraced_s}
    for name in wl.codes:
        metrics[f"builtin_codes.build_s.{name}"] = self_s[f"builtin_codes.build.{name}"]
    for stage in PER_FRAME_STAGES:
        if stage in self_s:
            metrics[f"{stage}_ms_per_frame"] = 1e3 * self_s[stage] / items
    if "receiver.run_point" in self_s:
        metrics["receiver.overhead_ms_per_frame"] = 1e3 * self_s["receiver.run_point"] / items
    for scheme, secs in scheme_s.items():
        metrics[f"receiver.run_point_ms_per_frame.{scheme}"] = 1e3 * secs / scheme_frames[scheme]
    for curve in tracing.MI_CURVES:
        if f"mutual_info.{curve}" in self_s:
            metrics[f"mutual_info.{curve}_ms_per_point"] = (
                1e3 * self_s[f"mutual_info.{curve}"] / items)
    for stream, c in (counters[0].items() if counters else ()):
        decoded = sum(c["hist"].values())
        if not decoded:
            continue
        iters = sum(int(i) * n for i, n in c["hist"].items())
        metrics[f"linear_code.{stream}_iters_mean"] = iters / decoded
        metrics[f"linear_code.{stream}_nonconverged_ratio"] = c["nonconverged"] / decoded
        metrics[f"linear_code.{stream}_us_per_iteration"] = (
            1e6 * self_s[f"linear_code.{stream}"] / (iters * len(reps)))

    details = {
        "reps": len(reps),
        "untraced_items_per_s": items / untraced_s,
        "traced_items_per_s": items / traced_s,
        "csv_body_sha256": reps[0].digest,
        "bp_counters": counters[0] if counters else None,
        "self_s": self_s,
        "errors": [e for r in reps for e in r.errors],
    }
    return metrics, details, sum(len(r.rows) for r in reps), failed, tr


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "dmmsim" / "__init__.py").is_file():
        print(f"perfbench: no dmmsim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dmmsim

    if Path(dmmsim.__file__).resolve().parent != SRC / "dmmsim":
        print(f"perfbench: imported dmmsim from {dmmsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS, load_golden

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    golden = load_golden()

    tracer = None
    try:
        if args.trace:
            metrics, details, attempted, failed, tracer = measure_traced(
                wl, args.seed, args.seconds, golden)
        else:
            metrics, details, attempted, failed = measure(wl, args.seed, args.seconds, golden)
        mismatch = None
    except tracing.ReplicaMismatch as exc:
        print(f"perfbench: REPLICA MISMATCH: {exc}", file=sys.stderr)
        metrics, details, attempted, failed, mismatch = {}, {}, 1, 1, str(exc)

    undeclared = set(metrics) - {m["name"] for m in declared}
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    correct = failed == 0 and mismatch is None and not details.get("errors")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in declared},
    }
    report = {"provenance": _provenance(args), "failed_ops_ratio": failed / attempted,
              "replica_mismatch": mismatch, **details, **result}
    for err in report.get("errors", []):
        print(f"perfbench: {err}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({**report, "spans": tracer.to_json() if tracer else None}, fh, indent=1)
    print("perfbench: " + json.dumps(report))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
