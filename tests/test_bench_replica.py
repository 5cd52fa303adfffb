"""The benchmark's traced replica of the receiver must match run_sweep, and
the capacity grid must reproduce the benchmark's golden rows.

``perfbench/tracing.py`` rebuilds the batch pipeline from public functions
to time each stage, and fails loudly when its error totals drift from
``run_point``'s.  This runs that comparison on a short sweep of every
traced scheme, so a receiver change that breaks the replica fails here.
The capacity rows do not depend on the seed, and the full golden grid
(21 points) takes about 0.8 s on a 2-vCPU Xeon with numpy 2.4, so it is
checked here byte for byte.
"""

import hashlib
import importlib
import io
from pathlib import Path

import pytest

from dmmsim import cli
from dmmsim.config import SweepConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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


def test_capacity_grid_matches_golden_rows(perfbench):
    workloads = perfbench("workloads")
    golden = workloads.load_golden()["capacity_grid"]
    rows = cli.run_capacity(workloads.WORKLOADS["capacity_grid"].capacity)
    buf = io.StringIO()
    cli.write_csv(buf, [], cli.CAPACITY_COLUMNS, rows)
    body = buf.getvalue()
    assert body.splitlines()[1:] == golden["rows"]
    assert hashlib.sha256(body.encode()).hexdigest() == golden["body_sha256"]
