"""Two-stage receiver and Monte-Carlo sweep engine.

One frame is M channel symbols; each symbol carries one bit of the first
codeword (BPSK polarity) and one bit of the second (quarter-turn rotation).
The receiver stores the whole frame because every symbol is used twice:

1. axis-bit soft information -> decode the second stream;
2. re-encode the decoded info word to rebuild the rotation pattern;
3. derotate the stored symbols, demap polarity -> decode the first stream.

:func:`_receive_batch` is the only receiver.  Genie mode (the idealised
error-free rotation estimate) derotates by the true pattern; realistic
mode, which ``dmm_realistic`` alone asks for, redoes only the frames whose
rebuilt pattern is wrong, so one pass gives both modes on the same frames.
The quarter-turn derotation is exact, so genie polarity LLRs are
bit-identical to a plain BPSK link observing the same (isometrically
re-expressed) noise.
``bpsk_baseline`` is the same receiver with no axis stream, and ``uncoded``
additionally has no code and decides polarity by hard sign.  Frames come
in from :func:`_frame_batch`.

Frames are keyed by index: data bits come from stream 1 and channel noise
from stream 0 of a counter-based generator, so results do not depend on
batch size, worker count, or execution order.  A batch works out its
frames' Philox keys at once and re-keys one generator per frame; the
streams are those of ``channel.block_rng``.

The bits are those of ``Generator.integers(0, 2, dtype=uint8)``, one call
per info word, drawn at the cost of the draws alone.  That call is Lemire's
bounded draw (Lemire, ACM TOMACS 2019), which for a range of 2 never rejects
and keeps the top bit of each byte of its uint32s, low byte first; a uint32
is the low half of a uint64 first, then its high half.  So word w is bytes
``[4*s_w, 4*s_w + k_w)`` of the frame's little-endian uint64 stream, shifted
right by 7, where ``s_w`` counts the ``ceil(k/4)`` uint32s of each earlier
word, and a frame's words are one ``random_raw`` call.  ``integers`` costs
8-10 us a call whatever k is, ``random_raw`` about 1.2 us.  The first frame
of every batch is drawn through ``integers`` as well, and a mismatch raises
RuntimeError naming the numpy version, so the rule is checked on the numpy
installed.  The generator is re-keyed from Python lists (the state setter
reads a list in ~0.4 us, a uint64 array in ~1.3 us), and each frame's
noise is drawn into its row of the batch's float draws, scaled there and
returned as their complex view (``channel.noise_from_draws``, which
``noise_block`` assembles through as well), so no second buffer and no
``re + 1j*im`` pass are made.  A noise part keeps its draw's sign, -0.0
included, where ``re + 1j*im`` would turn some -0.0 parts into +0.0 (a
draw is -0.0 with probability 2**-53; see ``noise_from_draws``).  On a
2-vCPU Xeon with numpy 2.4, interleaved in one process, this and the
cheaper ``frame_keys`` took a 64-frame batch at n = 256 from 18.5 to
13.1 us per frame (medians of 12 rounds), and a 16-frame batch at
n = 2048 from 111 to 78 us.

The link stages around the decoders write into the batch's own arrays:
:func:`_receive_batch` adds ``modem.symbol_parts``, the one definition of
the four-point map, into the real and imaginary parts of the noise, and
``modem.llr_v1`` selects the stream-1 LLRs by the axis bits the receiver
already holds, into one array, with no angle array.  Both are bitwise
the complex forms ``noise + dmm_map(v1, v2)`` and
``derotate_and_llr_v1(y, beta_from_bits(v2))``.

A batch holds up to ``_BATCH_FRAMES`` frames and ``_BATCH_SYMBOLS`` symbols
(:func:`_batches`): 64 frames up to n = 512, 16 at n = 2048, 8 for 4096-bit
uncoded blocks.  The bound holds down what a batch allocates (a realistic
16-frame batch at n = 2048 traces 2.8 MiB on a fresh thread, 2.15 of it
stream-1 BP, which keeps one message array and its gather or successor
live), and so a point's page faults and peak RSS: a serial 768-frame point
at n = 2048 took 1.2k, 35k and 80-89k minor faults and 44, 49 and 60 MiB
peak RSS on 16-, 32- and 64-frame batches (2-vCPU Xeon, numpy 2.4, before
BP kept one message array), and larger batches ran no faster, also with
glibc's trim and mmap thresholds at 256 MiB, where the faults fell to
0.3k-3.8k.

A point's batches run on one thread per usable CPU (:func:`_usable_cpus`;
in a worker of ``sweep --threads N``'s process pool, that worker's share of
it), through :func:`_in_frame_order`, which ``cli.run_capacity`` also runs
its grid points through, one point per batch.  The batches are queued in
frame order on a thread pool of one thread fewer, at most
``_WINDOW_PER_THREAD`` per thread from the next result read, and while that
result is not done the calling thread decodes the first queued batch no
thread has started, so a slow batch holds up only its own thread.  numpy
releases the interpreter lock inside BP's ufuncs, so the threads overlap.
The stop rule reads the results in frame order; once it stops the queued
batches are cancelled, and a batch drawn past the stopping frame is
discarded, its result or error unread, so a point's result does not depend
on the thread count.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import math
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import linear_code, modem
from .channel import (GRID_CONVENTIONS, ChannelConfig, esn0_to_ebn0, frame_keys,
                      noise_from_draws, require_positive, resolve_grid_snr)

DATA_STREAM = 1  # channel noise occupies stream 0 of each frame's generator

#: the codes each scheme sends, by argument (and config key) name
SCHEME_CODES = {"dmm_realistic": ("code1", "code2"), "dmm_genie": ("code1", "code2"),
                "bpsk_baseline": ("code1",), "uncoded": ()}
SCHEMES = tuple(SCHEME_CODES)

#: the rows of a batch's per-frame counts (:func:`_receive_batch`), which
#: :func:`_fold` sums into :class:`SimResult`'s fields of the same names
_COUNTS = ("errors1", "errors1_genie", "errors2", "beta_errors")

# A batch, the internal work unit, holds at most _BATCH_FRAMES frames and
# _BATCH_SYMBOLS symbols, which bounds what it allocates and so a point's
# page faults and peak RSS (module docstring); results do not depend on its
# size.
_BATCH_FRAMES = 64
_BATCH_SYMBOLS = 1 << 15
MAX_FRAMES = 2**32  # a frame index is one 32-bit SeedSequence spawn-key word

#: how many batches past the next one the stop rule reads may be started,
#: per decoding thread (:func:`_in_frame_order`)
_WINDOW_PER_THREAD = 2

#: the threads :func:`run_point` decodes on in a worker process of a sweep's
#: process pool, set there by :func:`_share_cpus`; None (every usable CPU)
#: elsewhere
_cpu_share = None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count.  :func:`run_point` and
    ``cli.run_capacity`` size their threads by it."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share_cpus(share: int) -> None:
    """Process-pool initializer: this worker decodes a point on ``share``
    threads, its part of the usable CPUs."""
    global _cpu_share
    _cpu_share = share


# ---------------------------------------------------------------------------
# Point-level Monte-Carlo
# ---------------------------------------------------------------------------

def wilson_interval(k: int, n: int):
    """Wilson score 95% interval for a binomial proportion."""
    z = 1.96  # the normal quantile of a two-sided 95% interval
    if n == 0:
        return (math.nan, math.nan)
    center = (k + z * z / 2.0) / (n + z * z)
    half = z * math.sqrt(k * (n - k) / n + z * z / 4.0) / (n + z * z)
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class SimResult:
    """One SNR point of a sweep with full provenance.  ``errors1_genie`` is
    the genie receiver's ``errors1`` on the same frames.  Only
    ``dmm_realistic`` rebuilds the rotations, so for every other scheme
    ``errors1_genie`` is ``errors1`` itself and ``beta_errors`` is 0."""

    scheme: str
    code1_name: str
    code2_name: str
    rate1: float
    rate2: float
    rate_overall: float
    snr_db: float
    snr_convention: str
    es_n0_db: float
    eb_n0_stream1_db: float
    eb_n0_overall_db: float
    es: float
    sigma2: float
    seed: int
    max_iter: int
    frames: int
    frame_errors: int
    bits1: int
    errors1: int
    errors1_genie: int
    bits2: int
    errors2: int
    beta_symbols: int
    beta_errors: int
    stop_reason: str
    wall_time_s: float

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames if self.frames else math.nan

    @property
    def ber1(self) -> float:
        return self.errors1 / self.bits1 if self.bits1 else math.nan

    @property
    def ber2(self) -> float:
        return self.errors2 / self.bits2 if self.bits2 else math.nan

    @property
    def ber_overall(self) -> float:
        total = self.bits1 + self.bits2
        return (self.errors1 + self.errors2) / total if total else math.nan

    @property
    def ber1_ci(self):
        return wilson_interval(self.errors1, self.bits1)

    @property
    def ber2_ci(self):
        return wilson_interval(self.errors2, self.bits2)

    @property
    def ber_overall_ci(self):
        return wilson_interval(self.errors1 + self.errors2, self.bits1 + self.bits2)

    @property
    def fer_ci(self):
        return wilson_interval(self.frame_errors, self.frames)


def _fold(batches, min_frame_errors, max_frames):
    """Sum the per-frame counts of ``batches``, (len(_COUNTS), B) arrays in
    frame order, up to the frame the stop rule ends on.

    A frame is in error when either stream has a bit error.  The frames
    taken end at frame ``max_frames`` or at the first frame that brings the
    frame errors to ``min_frame_errors``, whichever comes first; when both
    rules fire on the same frame, the reason is ``max_frames``.  Returns the
    totals by count name, the frames and frame errors taken, and the stop
    reason (None if the batches ran out first).
    """
    totals = np.zeros(len(_COUNTS), dtype=np.int64)
    frames = frame_errors = 0
    reason = None
    for counts in batches:
        in_error = (counts[_COUNTS.index("errors1")] + counts[_COUNTS.index("errors2")]) > 0
        through = frame_errors + np.cumsum(in_error)  # frame errors through each frame
        take = min(in_error.size, max_frames - frames)
        take = min(take, int(np.searchsorted(through[:take], min_frame_errors)) + 1)
        totals += counts[:, :take].sum(axis=1)
        frames += take
        frame_errors += int(np.count_nonzero(in_error[:take]))
        if frames == max_frames or frame_errors >= min_frame_errors:
            reason = "max_frames" if frames == max_frames else "min_frame_errors"
            break
    return dict(zip(_COUNTS, totals.tolist())), frames, frame_errors, reason


def _raise(ok, name: str, problem: str) -> None:
    """The ``require`` of :func:`run_point`: ValueError naming the argument."""
    if not ok:
        raise ValueError(f"{name} {problem}")


def resolve_point(require, scheme: str, code1, code2, *, snr_db, snr_convention, es, seed,
                  min_frame_errors, max_frames, max_iter, uncoded_block_bits):
    """Check the arguments of one :func:`run_point` point and resolve them.

    This is the one rule set of a point: ``run_point`` checks its arguments
    here, and ``config.load_sweep_config`` each grid value of a sweep.  A
    broken rule is reported as ``require(False, name, problem)``, ``name``
    the argument's and ``problem`` the phrase that follows it ("must be >=
    1, got 0"); ``require`` raises.  A code the scheme does not send is
    ignored, and ``uncoded_block_bits`` is read only when no code is sent.

    Returns ``(code1, code2, k1, k2, n, es_n0_db, rate1, rate2, channel)``:
    the codes sent (None for one not sent), the info bits per frame of
    each stream, the frame length in symbols, the grid value as complex
    Es/N0 in dB, the streams' rates and the point's ``ChannelConfig``.
    """
    require(scheme in SCHEMES, "scheme", f"must be one of {SCHEMES}, got {scheme!r}")
    codes = {"code1": code1, "code2": code2}
    sent = SCHEME_CODES[scheme]
    require(all(codes[key] is not None for key in sent), "scheme",
            f"{scheme} needs {' and '.join(sent)}")
    code1, code2 = (codes[key] if key in sent else None for key in codes)
    if code2 is not None:
        require(code2.n == code1.n, "code2", f"length {code2.n} must equal code1 length "
                f"{code1.n} (one symbol carries one bit of each)")
    require(1 <= max_frames <= MAX_FRAMES, "max_frames",
            f"must be in [1, 2**32], got {max_frames}")
    require(min_frame_errors >= 1, "min_frame_errors", f"must be >= 1, got {min_frame_errors}")
    if code1 is None:
        require(uncoded_block_bits >= 1, "uncoded_block_bits",
                f"must be >= 1, got {uncoded_block_bits}")
    else:
        require(max_iter >= 1, "max_iter", f"must be >= 1, got {max_iter}")
    require(seed >= 0, "seed", f"must be >= 0, got {seed}")
    try:
        require_positive(es=es)
    except ValueError as exc:
        require(False, "es", str(exc).removeprefix("es "))
    require(snr_convention in GRID_CONVENTIONS, "snr_convention",
            f"must be one of {GRID_CONVENTIONS}, got {snr_convention!r}")
    rate1 = 1.0 if code1 is None else code1.rate
    rate2 = 0.0 if code2 is None else code2.rate
    try:
        es_n0_db, sigma2 = resolve_grid_snr(snr_db, snr_convention, es, rate1, rate1 + rate2)
    except ValueError:
        require(False, "snr_db", f"must be finite and small enough in magnitude for a "
                f"positive, finite sigma2, got {snr_db}")
    n = uncoded_block_bits if code1 is None else code1.n
    k1 = n if code1 is None else code1.k
    k2 = 0 if code2 is None else code2.k
    return (code1, code2, k1, k2, n, es_n0_db, rate1, rate2,
            ChannelConfig(sigma2=sigma2, seed=seed, es=es))


def run_point(scheme: str, code1=None, code2=None, *, snr_db: float,
              snr_convention: str = "es_n0_complex", es: float = 1.0,
              seed: int = 0, min_frame_errors: int = 100,
              max_frames: int = 1_000_000, max_iter: int = 50,
              uncoded_block_bits: int = 4096) -> SimResult:
    """Monte-Carlo one SNR point until ``min_frame_errors`` frames are in
    error or ``max_frames`` frames have been simulated, whichever is first.

    The arguments are checked by :func:`resolve_point`, and a broken rule
    raises ValueError naming its argument.  The result is fully determined
    by the arguments; batch size and worker scheduling cannot change it.
    The batches run on one thread per usable CPU (:func:`_in_frame_order`),
    and the stop rule reads them in frame order.
    """
    code1, code2, k1, k2, n_sym, es_n0_db, rate1, rate2, cfg = resolve_point(
        _raise, scheme, code1, code2, snr_db=snr_db, snr_convention=snr_convention, es=es,
        seed=seed, min_frame_errors=min_frame_errors, max_frames=max_frames,
        max_iter=max_iter, uncoded_block_bits=uncoded_block_bits)
    rate_overall = rate1 + rate2
    ks = (k1,) if code2 is None else (k1, k2)

    def receive(idx):
        # frames, noise and LLRs go with their batch
        counts, _ = _receive_batch(code1, code2, cfg,
                                   *_frame_batch(cfg, idx, n_sym, ks), max_iter,
                                   realistic=scheme == "dmm_realistic")
        return counts

    t0 = time.perf_counter()
    workers = _cpu_share or _usable_cpus()
    # closed on the stop, which ends the window's threads before run_point returns
    with contextlib.closing(_in_frame_order(receive, _batches(max_frames, n_sym),
                                            workers)) as results:
        totals, frames, frame_errors, stop_reason = _fold(results, min_frame_errors,
                                                          max_frames)

    return SimResult(
        scheme=scheme,
        code1_name="" if code1 is None else code1.name or "code1",
        code2_name="" if code2 is None else code2.name or "code2",
        rate1=rate1, rate2=rate2, rate_overall=rate_overall,
        snr_db=snr_db, snr_convention=snr_convention,
        es_n0_db=es_n0_db,
        eb_n0_stream1_db=esn0_to_ebn0(es_n0_db, rate1),
        eb_n0_overall_db=esn0_to_ebn0(es_n0_db, rate_overall),
        es=es, sigma2=cfg.sigma2, seed=seed, max_iter=max_iter,
        frames=frames, frame_errors=frame_errors, **totals,
        bits1=frames * k1, bits2=frames * k2,
        beta_symbols=0 if code2 is None else frames * n_sym,
        stop_reason=stop_reason,
        wall_time_s=time.perf_counter() - t0,
    )


def _frame_batch(cfg, indices, n, ks):
    """Info words and channel noise of a batch of frames, keyed by index.

    Frame i draws one info word per length in ``ks``, in that order, from
    stream DATA_STREAM of block i, and its n noise samples from stream 0:
    the streams of ``block_rng`` and ``noise_block``.  The batch's Philox
    keys are worked out at once by ``frame_keys``, and one generator is
    re-keyed from their Python lists per frame and stream (counter 0, empty
    buffer) instead of being built anew.  A frame's info words are the top
    bits of the bytes of one ``random_raw`` draw, the bytes
    ``integers(0, 2, dtype=uint8)`` reads (module docstring); the first
    frame of the batch is drawn both ways, and a mismatch raises
    RuntimeError.  A frame's 2n standard normals are drawn into its row of
    the batch's (B, 2n) draws, which ``noise_from_draws`` scales in place
    and returns as their complex view, bitwise ``noise_block``'s, signed
    zeros included.  Returns (list of (B, k) uint8 arrays, (B, n) complex
    noise).
    """
    keys = frame_keys(cfg.seed, indices).tolist()
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    key = {"counter": [0, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": key,
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,  # empty
             "has_uint32": 0, "uinteger": 0}
    # word w starts at byte 4 * s_w, s_w the uint32s the earlier words drew
    starts = np.cumsum([0, *(4 * -(-k // 4) for k in ks)])
    raw = np.empty((indices.size, -(-int(starts[-1]) // 8)), dtype=np.uint64)
    z = np.empty((indices.size, 2 * n))
    for j, frame in enumerate(keys):
        key["key"] = frame[DATA_STREAM]
        bitgen.state = state
        raw[j] = bitgen.random_raw(raw.shape[1])
        key["key"] = frame[0]
        bitgen.state = state
        rng.standard_normal(out=z[j])
    data = raw.astype("<u8", copy=False).view(np.uint8)
    words = [data[:, s:s + k] >> 7 for s, k in zip(starts, ks)]
    key["key"] = keys[0][DATA_STREAM]
    bitgen.state = state
    for w in words:
        if not np.array_equal(w[0], rng.integers(0, 2, size=w.shape[1], dtype=np.uint8)):
            raise RuntimeError(
                f"numpy {np.__version__}: Generator.integers(0, 2, dtype=uint8) no "
                f"longer returns the top bits of its generator's bytes")
    return words, noise_from_draws(z, cfg.sigma2)


def _in_frame_order(work, batches, workers):
    """``work(batch)`` for each of ``batches``, yielded in batch order, on
    the calling thread and a pool of ``workers - 1`` threads.

    The batches are queued on the pool in order, topped up before each
    result is read to ``_WINDOW_PER_THREAD * workers`` batches from that
    result's, so none starts further ahead and few results wait to be read.
    While the next result is not done, the caller takes the first queued
    batch no thread has started, so a slow batch holds up only its own
    thread and at most ``workers`` batches decode at once.  A batch's
    exception is raised at its turn, as in a serial loop.  Closing the
    generator (``run_point`` does on its stop) cancels the queued batches,
    waits for those in flight and discards them unread, results and
    exceptions alike.  One worker decodes serially on the caller, drawing
    no batch past the last one read.
    """
    if workers == 1:
        yield from map(work, batches)
        return
    window = _WINDOW_PER_THREAD * workers
    source = iter(batches)
    pending = collections.deque()  # [batch, future] in batch order
    pool = ThreadPoolExecutor(workers - 1, thread_name_prefix="dmmsim-batch")
    try:
        while True:
            pending.extend([batch, pool.submit(work, batch)]
                           for batch in itertools.islice(source, window - len(pending)))
            if not pending:
                return
            while not pending[0][1].done():
                # cancel() succeeds only on a batch no thread has started
                entry = next((entry for entry in pending if entry[1].cancel()), None)
                if entry is None:
                    break  # every queued batch has started: wait for the next
                entry[1] = _ran(work, entry[0])
            yield pending.popleft()[1].result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _ran(work, batch) -> Future:
    """A done future holding ``work(batch)``'s result or exception."""
    future = Future()
    try:
        future.set_result(work(batch))
    except Exception as exc:  # raised when the batch's turn comes
        future.set_exception(exc)
    return future


def _batches(count, n):
    """Frame indices 0..count-1 in arrays of up to ``_BATCH_FRAMES`` frames
    and ``_BATCH_SYMBOLS`` symbols of length-``n`` frames (at least one)."""
    size = max(1, min(_BATCH_FRAMES, _BATCH_SYMBOLS // n))
    for start in range(0, count, size):
        yield np.arange(start, min(start + size, count), dtype=np.int64)


def _receive_batch(code1, code2, cfg, words, noise, max_iter, *, realistic=False):
    """Transmit and receive a batch of frames: the info words ``words``
    (stream 1, then stream 2) over the (B, n) channel noise ``noise``.

    Stream 2 is decoded first.  Stream 1 is decoded derotated by the true
    rotations (genie).  With ``realistic``, stream 2 is also re-encoded, and
    stream 1 decoded again derotated by the rebuilt rotations only on the
    frames with rotation errors: on the others the two select the same
    samples, and BP decodes a row alike in any batch.
    Without ``code2`` there is no axis stream: every symbol stays on the real
    axis (``bpsk_baseline``).  Without ``code1`` the polarity bits are sent
    uncoded and decided by the sign of their LLR (``uncoded``).
    The batch consumes ``noise``: the received symbols are built in its
    array, ``modem.symbol_parts`` added into its real and imaginary parts
    (bitwise ``noise + dmm_map(v1, v2)``: a complex sum adds the parts).
    The stream-1 LLRs are ``modem.llr_v1`` of the received symbols and the
    (true or rebuilt) axis bits, viewed as bool.
    Returns the per-frame counts, rows named by ``_COUNTS`` (without
    ``realistic``, ``errors1`` is the genie's and ``beta_errors`` 0), and
    the (B, n) genie stream-1 LLRs.
    """
    c1 = words[0]
    v1 = c1 if code1 is None else linear_code.encode(code1, c1)
    v2 = 0 if code2 is None else linear_code.encode(code2, words[1])
    y = noise
    re, im = modem.symbol_parts(v1, v2, cfg.es)
    np.add(y.real, re, out=y.real)
    np.add(y.imag, im, out=y.imag)
    del re, im  # freed before the decodes

    counts = np.zeros((len(_COUNTS), len(noise)), dtype=np.int64)
    rows = dict(zip(_COUNTS, counts))  # views, filled in place
    if code2 is not None:
        llr2 = modem.llr_v2(y, modem.Constellation.quadrature_pair(cfg.es), cfg.sigma2)
        c2_hat, _, _ = linear_code.decode_soft_batch(code2, llr2, max_iter=max_iter)
        del llr2  # freed before stream-1 BP, the batch's peak
        rows["errors2"][:] = np.count_nonzero(c2_hat != words[1], axis=1)
        if realistic:
            v2_hat = linear_code.encode(code2, c2_hat)
            rows["beta_errors"][:] = np.count_nonzero(v2_hat != v2, axis=1)

    axis = None if code2 is None else v2.view(bool)  # codeword bits are 0 or 1
    llr1 = modem.llr_v1(y, axis, cfg.es, cfg.sigma2)
    rows["errors1"][:] = rows["errors1_genie"][:] = _stream1_errors(code1, llr1, c1, max_iter)
    if rows["beta_errors"].any():
        wrong = np.flatnonzero(rows["beta_errors"])
        llr1_hat = modem.llr_v1(y[wrong], v2_hat[wrong].view(bool), cfg.es, cfg.sigma2)
        rows["errors1"][wrong] = _stream1_errors(code1, llr1_hat, c1[wrong], max_iter)
    return counts, llr1


def _stream1_errors(code1, llr1, c1, max_iter):
    """Per-frame bit errors of the stream-1 LLRs decoded by ``code1`` (by sign if None)."""
    if code1 is None:
        c1_hat = llr1 < 0
    else:
        c1_hat, _, _ = linear_code.decode_soft_batch(code1, llr1, max_iter=max_iter)
    return np.count_nonzero(c1_hat != c1, axis=1)


# ---------------------------------------------------------------------------
# Curve utilities
# ---------------------------------------------------------------------------

def snr_at_ber(snr_db: np.ndarray, ber: np.ndarray, target: float):
    """SNR at which a monotone BER curve crosses ``target``.

    Linear interpolation of log10(BER) against dB.  Returns None when the
    curve does not bracket the target; a target outside (0, 1) is a
    ValueError.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be a BER in (0, 1), got {target}")
    snr_db = np.asarray(snr_db, dtype=np.float64)
    ber = np.asarray(ber, dtype=np.float64)
    keep = ber > 0
    snr_db, ber = snr_db[keep], ber[keep]
    if snr_db.size < 2:
        return None
    order = np.argsort(snr_db)
    snr_db, ber = snr_db[order], np.log10(ber[order])
    t = math.log10(target)
    for a in range(snr_db.size - 1):
        lo, hi = sorted((ber[a], ber[a + 1]))
        if lo <= t <= hi and ber[a] != ber[a + 1]:
            frac = (t - ber[a]) / (ber[a + 1] - ber[a])
            return float(snr_db[a] + frac * (snr_db[a + 1] - snr_db[a]))
    return None
