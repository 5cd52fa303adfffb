"""Traced replica of the simulator's batch pipeline and the capacity grid.

The replica rebuilds ``receiver._dmm_batch``, ``_bpsk_batch`` and
``_uncoded_batch`` from public functions with the same frame keying and
batch size, and wraps each call into a package module in an in-memory span.
It must reproduce ``run_sweep``'s error totals exactly; if it does not, it
measures a different program and the run fails.

Spans are ``(name, start_ns, end_ns, parent, rep)``; a span's self time is
its duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import contextlib
import math
import time
from collections import defaultdict

import numpy as np

from dmmsim import channel, cli, linear_code, modem, mutual_info, receiver
from dmmsim.builtin_codes import resolve_code

# same work unit as the receiver, so per-batch costs match what run_point pays
BATCH_FRAMES = getattr(receiver, "_BATCH_FRAMES", 64)

MI_CURVES = ("mi_bpsk", "mi_qpsk", "mi_axis", "mi_joint_4point")


class ReplicaMismatch(RuntimeError):
    """The traced replica disagrees with the program it replicates."""


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans = []
        self.rep = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1,
               self.rep]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def self_seconds(self) -> dict:
        """Total self time per span name, in seconds."""
        children = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        totals = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0, start
            for c_start, c_end in sorted(children[i]):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] += (end - start - covered) / 1e9
        return dict(totals)

    def to_json(self) -> list:
        return [{"name": n, "start_ns": s, "end_ns": e, "parent": p, "rep": r}
                for n, s, e, p, r in self.spans]


class BpCounters:
    """Convergence flags and iteration counts returned by decode_soft_batch."""

    def __init__(self, max_iter: int):
        self.hist = np.zeros(max_iter + 1, dtype=np.int64)
        self.nonconverged = 0

    def add(self, converged: np.ndarray, iterations: np.ndarray) -> None:
        self.hist += np.bincount(iterations, minlength=self.hist.size)
        self.nonconverged += int(np.count_nonzero(~converged))

    def to_json(self) -> dict:
        return {"hist": {str(i): int(c) for i, c in enumerate(self.hist) if c},
                "nonconverged": self.nonconverged}


def _data(tr, cfg, indices, *ks):
    with tr.span("channel.data"):
        words = [np.empty((indices.size, k), dtype=np.uint8) for k in ks]
        for j, i in enumerate(indices):
            rng = channel.block_rng(cfg.seed, int(i), stream=receiver.DATA_STREAM)
            for w, k in zip(words, ks):
                w[j] = rng.integers(0, 2, size=k, dtype=np.uint8)
    return words


def _noise(tr, cfg, indices, n):
    with tr.span("channel.noise"):
        noise = np.empty((indices.size, n), dtype=np.complex128)
        for j, i in enumerate(indices):
            noise[j] = channel.noise_block(cfg, int(i), n)
    return noise


def _uncoded_batch(tr, cfg, indices, block_bits):
    (bits,) = _data(tr, cfg, indices, block_bits)
    noise = _noise(tr, cfg, indices, block_bits)
    with tr.span("modem.map"):
        y = modem.map_bpsk(bits, cfg.es) + noise
    errors = np.count_nonzero((y.real < 0).astype(np.uint8) != bits, axis=1)
    return errors, np.zeros_like(errors), np.zeros_like(errors)


def _bpsk_batch(tr, code1, cfg, indices, max_iter, counters):
    (c1,) = _data(tr, cfg, indices, code1.k)
    noise = _noise(tr, cfg, indices, code1.n)
    with tr.span("linear_code.encode"):
        v1 = linear_code.encode(code1, c1)
    with tr.span("modem.map"):
        y = noise + modem.map_bpsk(v1, cfg.es)
    with tr.span("modem.llr1"):
        llr1 = 2.0 * math.sqrt(cfg.es) * y.real / cfg.sigma2
    with tr.span("linear_code.bp1"):
        c1_hat, conv, iters = linear_code.decode_soft_batch(code1, llr1, max_iter=max_iter)
    counters["bp1"].add(conv, iters)
    errors = np.count_nonzero(c1_hat != c1, axis=1)
    return errors, np.zeros_like(errors), np.zeros_like(errors)


def _dmm_batch(tr, code1, code2, cfg, indices, max_iter, counters):
    c1, c2 = _data(tr, cfg, indices, code1.k, code2.k)
    noise = _noise(tr, cfg, indices, code1.n)
    with tr.span("linear_code.encode"):
        v1 = linear_code.encode(code1, c1)
        v2 = linear_code.encode(code2, c2)
    with tr.span("modem.map"):
        beta = modem.beta_from_bits(v2)
        y = modem.rotate(modem.map_bpsk(v1, cfg.es), beta) + noise
    with tr.span("modem.llr2"):
        llr2 = modem.llr_v2(y, modem.Constellation.quadrature_pair(cfg.es), cfg.sigma2)
    with tr.span("linear_code.bp2"):
        c2_hat, conv2, iters2 = linear_code.decode_soft_batch(code2, llr2, max_iter=max_iter)
    with tr.span("linear_code.reencode"):
        beta_hat = modem.beta_from_bits(linear_code.encode(code2, c2_hat))
    with tr.span("modem.llr1"):
        llr1 = modem.derotate_and_llr_v1(y, beta_hat, cfg.es, cfg.sigma2)
    with tr.span("linear_code.bp1"):
        c1_hat, conv1, iters1 = linear_code.decode_soft_batch(code1, llr1, max_iter=max_iter)
    counters["bp1"].add(conv1, iters1)
    counters["bp2"].add(conv2, iters2)
    return (np.count_nonzero(c1_hat != c1, axis=1),
            np.count_nonzero(c2_hat != c2, axis=1),
            np.count_nonzero(beta_hat != beta, axis=1))


def traced_sweep(tr: Tracer, cfg, counters: dict) -> dict:
    """Error totals of a one-point sweep that stops on frame count only."""
    (snr_db,) = cfg.snr_grid_db
    code1 = resolve_code(cfg.code1) if cfg.code1 else None
    code2 = resolve_code(cfg.code2) if cfg.code2 else None
    if code2 is not None and cfg.code2_repeat > 1:
        code2 = linear_code.extend_repetition(code2, cfg.code2_repeat)
    totals = dict.fromkeys(("frames", "frame_errors", "bit_errors1", "bit_errors2",
                            "beta_errors"), 0)
    with tr.span("cli.run_sweep"), tr.span("receiver.run_point"):
        sigma2 = channel.snr_to_sigma2(snr_db, cfg.symbol_energy, cfg.snr_convention)
        ch = channel.ChannelConfig(sigma2=sigma2, seed=cfg.master_seed, es=cfg.symbol_energy)
        for start in range(0, cfg.stop_max_frames, BATCH_FRAMES):
            idx = np.arange(start, min(start + BATCH_FRAMES, cfg.stop_max_frames),
                            dtype=np.int64)
            if cfg.scheme == "uncoded":
                e1, e2, eb = _uncoded_batch(tr, ch, idx, cfg.uncoded_block_bits)
            elif cfg.scheme == "bpsk_baseline":
                e1, e2, eb = _bpsk_batch(tr, code1, ch, idx, cfg.max_bp_iterations, counters)
            elif cfg.scheme == "dmm_realistic":
                e1, e2, eb = _dmm_batch(tr, code1, code2, ch, idx, cfg.max_bp_iterations,
                                        counters)
            else:
                raise ValueError(f"no traced replica for scheme {cfg.scheme!r}")
            totals["frames"] += idx.size
            totals["frame_errors"] += int(np.count_nonzero(e1 + e2))
            totals["bit_errors1"] += int(e1.sum())
            totals["bit_errors2"] += int(e2.sum())
            totals["beta_errors"] += int(eb.sum())
    return totals


def traced_capacity(tr: Tracer, cfg) -> list:
    """Replica of cli.run_capacity with one span per MI curve evaluation."""
    rows = []
    with tr.span("cli.run_capacity"):
        for snr in cfg.snr_grid_db:
            vals = {}
            for curve in MI_CURVES:
                with tr.span(f"mutual_info.{curve}"):
                    vals[curve] = getattr(mutual_info, curve)(
                        snr, cfg.symbol_energy, tol=cfg.quadrature_tol_bits).value
            composite = vals["mi_bpsk"] + vals["mi_axis"]
            rows.append((snr, vals["mi_bpsk"], vals["mi_qpsk"], vals["mi_axis"], composite,
                         vals["mi_joint_4point"], composite - vals["mi_joint_4point"]))
    return rows


def check_sweep_totals(cfg, row: tuple, totals: dict) -> None:
    """Fail loudly when the replica's totals differ from run_sweep's row."""
    col = dict(zip(cli.SWEEP_COLUMNS, row))
    diff = {k: (v, col[k]) for k, v in totals.items() if col[k] != v}
    if diff:
        raise ReplicaMismatch(
            f"traced replica of {cfg.scheme} differs from run_point "
            f"(replica, run_point): {diff}")


def check_capacity_rows(rows: list, reference: list) -> None:
    if rows != reference:
        raise ReplicaMismatch("traced capacity replica differs from run_capacity")
