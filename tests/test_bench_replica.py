"""The benchmark's traced replica of the receiver must match run_sweep, and
the capacity grid must reproduce the benchmark's golden rows.

``perfbench/tracing.py`` rebuilds the batch pipeline from public functions
to time each stage, and fails loudly when its error totals drift from
``run_point``'s.  This runs that comparison on a short sweep of every
traced scheme, so a receiver change that breaks the replica fails here, and
the same for the traced capacity rows against ``run_capacity``.
The capacity rows do not depend on the seed, and the full golden grid
(21 points) takes about 0.8 s on a 2-vCPU Xeon with numpy 2.4, so it is
checked here byte for byte.  So are the two sweep workloads at the golden
seed: the n = 256 high-SNR sweeps take about 0.3 s and the n = 2048
waterfall point about 3-6 s on the same machine.
"""

import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dmmsim import cli
from dmmsim.config import CapacityConfig, SweepConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"
FRAMES = 128  # two batches

CASES = [
    # scheme, codes, expected frame errors, expected rotation errors
    ("dmm_realistic", dict(code1="ldpc_r12_n256", code2="ldpc_r14_n64", code2_repeat=4),
     24, 784),
    ("bpsk_baseline", dict(code1="ldpc_r12_n256"), 21, 0),
    ("uncoded", dict(uncoded_block_bits=256), 128, 0),
]


@pytest.fixture(scope="module")
def perfbench():
    """Import a module from ``perfbench/`` by name."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module


@pytest.mark.parametrize("scheme,codes,frame_errors,beta_errors", CASES,
                         ids=[c[0] for c in CASES])
def test_traced_replica_matches_run_sweep(perfbench, scheme, codes, frame_errors,
                                          beta_errors):
    tracing = perfbench("tracing")
    cfg = SweepConfig(scheme=scheme, snr_grid_db=(-1.0,), stop_min_frame_errors=FRAMES + 1,
                      stop_max_frames=FRAMES, master_seed=3, **codes)
    (row,), _ = cli.run_sweep(cfg)
    counters = {s: tracing.BpCounters(cfg.max_bp_iterations) for s in ("bp1", "bp2")}
    totals = tracing.traced_sweep(tracing.Tracer(), cfg, counters)
    tracing.check_sweep_totals(cfg, row, totals)
    # the comparison is not vacuous: there are errors to disagree about
    assert totals["frames"] == FRAMES
    assert totals["frame_errors"] == frame_errors
    assert totals["beta_errors"] == beta_errors


def test_traced_capacity_replica_matches_run_capacity(perfbench):
    tracing = perfbench("tracing")
    cfg = CapacityConfig(snr_grid_db=(-3.0, 0.0, 4.0))
    tr = tracing.Tracer()
    rows = tracing.traced_capacity(tr, cfg)
    tracing.check_capacity_rows(rows, cli.run_capacity(cfg))
    # one span per curve and grid point
    curves = [name for name, *_ in tr.spans if name.startswith("mutual_info.")]
    assert curves == [f"mutual_info.{c}" for c in tracing.MI_CURVES] * 3


def test_capacity_grid_matches_golden_rows(perfbench):
    workloads = perfbench("workloads")
    golden = workloads.load_golden()["capacity_grid"]
    rows = cli.run_capacity(workloads.WORKLOADS["capacity_grid"].capacity)
    buf = io.StringIO()
    cli.write_csv(buf, [], cli.CAPACITY_COLUMNS, rows)
    body = buf.getvalue()
    assert body.splitlines()[1:] == golden["rows"]
    assert hashlib.sha256(body.encode()).hexdigest() == golden["body_sha256"]


@pytest.mark.parametrize("name", ["short_high_snr_n256", "waterfall_n2048"])
def test_sweep_workload_matches_golden_rows(perfbench, name):
    workloads = perfbench("workloads")
    golden = workloads.load_golden()[name]
    rep = workloads.run_once(workloads.WORKLOADS[name], golden["seed"])
    assert not rep.errors
    assert rep.body.splitlines()[1:] == golden["rows"]
    assert rep.digest == golden["body_sha256"]


def test_setup_path_imports_no_cli_and_no_executor():
    # the benchmark's cold set-up imports dmmsim and resolves builtin codes;
    # the package loads no submodule of its own, and the codes load only
    # what they import, so setup_s pays for no receiver, MI, CLI or executor
    probe = ("import json, sys\n"
             "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'dmmsim')\n"
             "import dmmsim\n"
             "alone = loaded()\n"
             "from dmmsim.builtin_codes import builtin_code\n"
             "print(json.dumps([alone, loaded(), 'concurrent.futures' in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True, timeout=60)
    assert json.loads(out.stdout) == [
        ["dmmsim"], ["dmmsim", "dmmsim.builtin_codes", "dmmsim.linear_code"], False]
