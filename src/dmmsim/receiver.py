"""Two-stage receiver and Monte-Carlo sweep engine.

One frame is M channel symbols; each symbol carries one bit of the first
codeword (BPSK polarity) and one bit of the second (quarter-turn rotation).
The receiver stores the whole frame because every symbol is used twice:

1. axis-bit soft information -> decode the second stream;
2. re-encode the decoded info word to rebuild the rotation pattern
   (realistic mode) or take the true pattern (genie mode);
3. derotate the stored symbols, demap polarity -> decode the first stream.

Genie mode models the idealised error-free rotation estimate.  Because the
quarter-turn derotation is implemented exactly, a genie-aided frame yields
polarity LLRs that are bit-identical to a plain BPSK link observing the
same (isometrically re-expressed) noise, which is what
:func:`paired_genie_vs_bpsk` exercises.

All four schemes run through one batched pipeline, :func:`_receive_batch`:
``bpsk_baseline`` is the same receiver with no axis stream, and
``uncoded`` additionally has no code and decides polarity by hard sign.

Frames are keyed by index: data bits come from stream 1 and channel noise
from stream 0 of a counter-based generator, so results do not depend on
batch size, worker count, or execution order.  A batch works out its
frames' Philox keys at once and re-keys one generator per frame; the
streams are those of ``channel.block_rng``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import linear_code, modem
from .channel import (
    GAUSSIAN_METHOD,
    ChannelConfig,
    ebn0_to_esn0,
    esn0_to_ebn0,
    frame_keys,
    sigma2_to_snr_db,
    snr_to_sigma2,
)

DATA_STREAM = 1  # channel noise occupies stream 0 of each frame's generator

SCHEMES = ("dmm_realistic", "dmm_genie", "bpsk_baseline", "uncoded")

_BATCH_FRAMES = 64  # internal work unit; results are batch-size invariant
MAX_FRAMES = 2**32  # a frame index is one 32-bit SeedSequence spawn-key word


# ---------------------------------------------------------------------------
# Point-level Monte-Carlo
# ---------------------------------------------------------------------------

def wilson_interval(k: int, n: int, z: float = 1.96):
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return (math.nan, math.nan)
    center = (k + z * z / 2.0) / (n + z * z)
    half = z * math.sqrt(k * (n - k) / n + z * z / 4.0) / (n + z * z)
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class SimResult:
    """One SNR point of a sweep with full provenance."""

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
    bits2: int
    errors2: int
    beta_symbols: int
    beta_errors: int
    stop_reason: str
    wall_time_s: float
    gaussian_method: str = GAUSSIAN_METHOD

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
        return wilson_interval(self.errors2, self.bits2) if self.bits2 else (math.nan, math.nan)

    @property
    def ber_overall_ci(self):
        return wilson_interval(self.errors1 + self.errors2, self.bits1 + self.bits2)

    @property
    def fer_ci(self):
        return wilson_interval(self.frame_errors, self.frames)


def _resolve_point(snr_db, convention, es, rate1, rate_overall):
    """Interpret a grid value under the declared convention.

    Returns (es_n0_db in the complex reading, sigma2).  The per-dim reading
    changes sigma2 only; Eb/N0 readings are rate-shifted complex Es/N0.
    """
    if convention == "es_n0_complex":
        return snr_db, snr_to_sigma2(snr_db, es, "es_n0_complex")
    if convention == "es_n0_per_dim":
        sigma2 = snr_to_sigma2(snr_db, es, "es_n0_per_dim")
        return sigma2_to_snr_db(sigma2, es, "es_n0_complex"), sigma2
    if convention == "eb_n0_stream1":
        es_n0 = ebn0_to_esn0(snr_db, rate1)
        return es_n0, snr_to_sigma2(es_n0, es, "es_n0_complex")
    if convention == "eb_n0_overall":
        es_n0 = ebn0_to_esn0(snr_db, rate_overall)
        return es_n0, snr_to_sigma2(es_n0, es, "es_n0_complex")
    raise ValueError(f"unknown SNR convention {convention!r}")


def _accumulate(stop_min_fe, stop_max_frames, frames_done, fe_done, frame_err_flags):
    """How many frames of this batch count, and why we stop (or None).

    When both rules fire on the same frame, the reason is ``max_frames``.
    """
    take = len(frame_err_flags)
    reason = None
    cum = fe_done + np.cumsum(frame_err_flags)
    hit = np.nonzero(cum >= stop_min_fe)[0]
    if hit.size:
        take = min(take, int(hit[0]) + 1)
        reason = "min_frame_errors"
    if frames_done + take >= stop_max_frames:
        take = stop_max_frames - frames_done
        reason = "max_frames"
    return take, reason


def run_point(scheme: str, code1=None, code2=None, *, snr_db: float,
              snr_convention: str = "es_n0_complex", es: float = 1.0,
              seed: int = 0, min_frame_errors: int = 100,
              max_frames: int = 1_000_000, max_iter: int = 50,
              uncoded_block_bits: int = 4096) -> SimResult:
    """Monte-Carlo one SNR point until ``min_frame_errors`` frames are in
    error or ``max_frames`` frames have been simulated, whichever is first.

    The result is fully determined by the arguments; batch size and worker
    scheduling cannot change it.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")
    if not 1 <= max_frames <= MAX_FRAMES:
        raise ValueError(f"max_frames must be in [1, 2**32], got {max_frames}")
    if min_frame_errors < 1:
        raise ValueError(f"min_frame_errors must be >= 1, got {min_frame_errors}")
    if scheme == "uncoded" and uncoded_block_bits < 1:
        raise ValueError(f"uncoded_block_bits must be >= 1, got {uncoded_block_bits}")
    dmm = scheme in ("dmm_realistic", "dmm_genie")
    if dmm:
        if code1 is None or code2 is None:
            raise ValueError(f"{scheme} needs code1 and code2")
        if code1.n != code2.n:
            raise ValueError(
                f"codeword lengths must match (one symbol carries one bit of each): "
                f"{code1.n} != {code2.n}"
            )
        rate1, rate2 = code1.rate, code2.rate
    elif scheme == "bpsk_baseline":
        if code1 is None:
            raise ValueError("bpsk_baseline needs code1")
        rate1, rate2 = code1.rate, 0.0
    else:
        rate1, rate2 = 1.0, 0.0
    rate_overall = rate1 + rate2
    polarity_code = None if scheme == "uncoded" else code1
    axis_code = code2 if dmm else None
    n_sym = uncoded_block_bits if polarity_code is None else code1.n

    es_n0_db, sigma2 = _resolve_point(snr_db, snr_convention, es, rate1, rate_overall)
    cfg = ChannelConfig(sigma2=sigma2, seed=seed, es=es)

    t0 = time.perf_counter()
    frames = fe = errors1 = errors2 = beta_errors = 0
    stop_reason = "max_frames"

    while frames < max_frames:
        idx = np.arange(frames, min(frames + _BATCH_FRAMES, max_frames), dtype=np.int64)
        e1, e2, berr = _receive_batch(polarity_code, axis_code, cfg, idx, n_sym,
                                      max_iter, genie=(scheme == "dmm_genie"))
        bflags = (e1 + e2) > 0
        take, reason = _accumulate(min_frame_errors, max_frames, frames, fe, bflags)
        frames += take
        fe += int(np.sum(bflags[:take]))
        errors1 += int(np.sum(e1[:take]))
        errors2 += int(np.sum(e2[:take]))
        beta_errors += int(np.sum(berr[:take]))
        if reason is not None:
            stop_reason = reason
            break

    k1 = n_sym if polarity_code is None else code1.k
    k2 = code2.k if dmm else 0
    return SimResult(
        scheme=scheme,
        code1_name=(code1.name or "code1") if code1 is not None else "",
        code2_name=(code2.name or "code2") if k2 else "",
        rate1=rate1, rate2=rate2, rate_overall=rate_overall,
        snr_db=snr_db, snr_convention=snr_convention,
        es_n0_db=es_n0_db,
        eb_n0_stream1_db=esn0_to_ebn0(es_n0_db, rate1),
        eb_n0_overall_db=esn0_to_ebn0(es_n0_db, rate_overall),
        es=es, sigma2=sigma2, seed=seed, max_iter=max_iter,
        frames=frames, frame_errors=fe,
        bits1=frames * k1, errors1=errors1,
        bits2=frames * k2, errors2=errors2,
        beta_symbols=frames * n_sym if dmm else 0,
        beta_errors=beta_errors,
        stop_reason=stop_reason,
        wall_time_s=time.perf_counter() - t0,
    )


def _frame_batch(cfg, indices, n, ks):
    """Info words and channel noise of a batch of frames, keyed by index.

    Frame i draws one info word per length in ``ks``, in that order, from
    stream DATA_STREAM of block i, and its n noise samples from stream 0:
    the streams of ``block_rng`` and ``noise_block``.  The batch's Philox
    keys are worked out at once by ``frame_keys``, and one generator is
    re-keyed per frame and stream (counter 0, empty buffer) instead of being
    built anew.  Returns (list of (B, k) uint8 arrays, (B, n) complex noise).
    """
    keys = frame_keys(cfg.seed, indices)
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    key = {"counter": np.zeros(4, dtype=np.uint64), "key": None}
    state = {"bit_generator": "Philox", "state": key,
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,  # empty
             "has_uint32": 0, "uinteger": 0}
    words = [np.empty((indices.size, k), dtype=np.uint8) for k in ks]
    noise = np.empty((indices.size, n), dtype=np.complex128)
    z = np.empty(2 * n)  # one reused row: a (B, 2n) buffer costs memory, not time
    scale = math.sqrt(cfg.sigma2)
    for j in range(indices.size):
        key["key"] = keys[j, DATA_STREAM]
        bitgen.state = state
        for w in words:
            w[j] = rng.integers(0, 2, size=w.shape[1], dtype=np.uint8)
        key["key"] = keys[j, 0]
        bitgen.state = state
        rng.standard_normal(out=z)
        z *= scale
        noise[j] = z[0::2] + 1j * z[1::2]
    return words, noise


def _receive_batch(code1, code2, cfg, indices, n, max_iter, genie: bool):
    """Transmit and receive a batch of frames of n symbols each.

    Without ``code2`` there is no axis stream: every symbol stays on the real
    axis (``bpsk_baseline``).  Without ``code1`` the polarity bits are sent
    uncoded and decided by the sign of their LLR (``uncoded``).
    Returns per-frame (stream-1 bit errors, stream-2 bit errors, rotation
    errors).
    """
    k1 = n if code1 is None else code1.k
    words, noise = _frame_batch(cfg, indices, n, (k1,) if code2 is None else (k1, code2.k))
    c1 = words[0]
    v1 = c1 if code1 is None else linear_code.encode(code1, c1)
    v2 = v2_hat = 0 if code2 is None else linear_code.encode(code2, words[1])
    y = modem.dmm_map(v1, v2, cfg.es) + noise

    errors2 = beta_errors = np.zeros(indices.size, dtype=np.int64)
    if code2 is not None:
        llr2 = modem.llr_v2(y, modem.Constellation.quadrature_pair(cfg.es), cfg.sigma2)
        c2_hat, _, _ = linear_code.decode_soft_batch(code2, llr2, max_iter=max_iter)
        errors2 = np.count_nonzero(c2_hat != words[1], axis=1)
        if not genie:
            v2_hat = linear_code.encode(code2, c2_hat)
            beta_errors = np.count_nonzero(v2_hat != v2, axis=1)

    llr1 = modem.derotate_and_llr_v1(y, modem.beta_from_bits(v2_hat), cfg.es, cfg.sigma2)
    if code1 is None:
        c1_hat = llr1 < 0
    else:
        c1_hat, _, _ = linear_code.decode_soft_batch(code1, llr1, max_iter=max_iter)
    return np.count_nonzero(c1_hat != c1, axis=1), errors2, beta_errors


# ---------------------------------------------------------------------------
# Exact genie/BPSK pairing and curve utilities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairedRun:
    """Genie-aided stream-1 LLRs next to a plain BPSK link fed the same
    noise realization (re-expressed through the same derotation isometry)."""

    llr_genie: np.ndarray
    llr_bpsk: np.ndarray
    errors_genie: np.ndarray
    errors_bpsk: np.ndarray


def paired_genie_vs_bpsk(code1, code2, cfg: ChannelConfig, frames: int,
                         max_iter: int = 50) -> PairedRun:
    """Run ``frames`` frames through both links with shared noise.

    The genie receiver sees y = Rot(x1) + n and derotates exactly; the BPSK
    link sees x1 + Rot^{-1}(n), the same noise realization expressed in the
    derotated frame.  Rotation is an isometry, so the two LLR streams should
    agree bit for bit; any difference is an implementation defect.  Frames
    are decoded in batches of ``_BATCH_FRAMES``.
    """
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    parts = [_paired_batch(code1, code2, cfg, np.arange(i, min(i + _BATCH_FRAMES, frames)),
                           max_iter)
             for i in range(0, frames, _BATCH_FRAMES)]
    return PairedRun(*(np.concatenate(field) for field in zip(*parts)))


def _paired_batch(code1, code2, cfg, indices, max_iter):
    """Genie and BPSK LLRs and error counts of one batch of frames."""
    (c1, c2), n = _frame_batch(cfg, indices, code1.n, (code1.k, code2.k))
    v1 = linear_code.encode(code1, c1)
    v2 = linear_code.encode(code2, c2)
    beta = modem.beta_from_bits(v2)

    y = modem.dmm_map(v1, v2, cfg.es) + n
    llr_genie = modem.derotate_and_llr_v1(y, beta, cfg.es, cfg.sigma2)
    y_bpsk = modem.map_bpsk(v1, cfg.es) + modem.rotate(n, -beta)
    llr_bpsk = modem.derotate_and_llr_v1(y_bpsk, 0.0, cfg.es, cfg.sigma2)

    g_hat, _, _ = linear_code.decode_soft_batch(code1, llr_genie, max_iter=max_iter)
    b_hat, _, _ = linear_code.decode_soft_batch(code1, llr_bpsk, max_iter=max_iter)
    return (llr_genie, llr_bpsk, np.count_nonzero(g_hat != c1, axis=1),
            np.count_nonzero(b_hat != c1, axis=1))


def snr_at_ber(snr_db: np.ndarray, ber: np.ndarray, target: float):
    """SNR at which a monotone BER curve crosses ``target``.

    Linear interpolation of log10(BER) against dB.  Returns None when the
    curve does not bracket the target.
    """
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
