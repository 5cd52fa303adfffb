"""Complex AWGN channel with reproducible per-block noise streams.

Conventions used throughout the package:

* ``sigma2`` is the noise variance per REAL dimension.  A complex noise
  sample is ``n_re + 1j*n_im`` with ``n_re, n_im ~ N(0, sigma2)`` independent.
* ``es_n0_complex`` (the default) reads N0 as the total complex-noise power,
  so ``sigma2 = Es / (2 * 10**(es_n0_db / 10))``.  This is the bookkeeping
  under which uncoded antipodal signalling has BER ``Q(sqrt(2 Es/N0))``.
* ``es_n0_per_dim`` reads N0 as the per-dimension variance itself,
  ``sigma2 = Es / 10**(es_n0_db / 10)``; the scalar-channel reading.

Both conventions are exposed because published SNR axes do not always say
which one they use; every result record is stamped with the convention it
was produced under.

Noise is drawn from a counter-based Philox generator keyed by
``(seed, block_index, stream)``.  Trial *i* therefore sees the same noise no
matter how many workers run a sweep or in which order blocks complete.
:func:`block_rng` and :func:`noise_block` define one block's streams;
:func:`frame_keys` works out the same Philox keys for a whole batch of
blocks at once, so a batch can re-key one generator per block instead of
building a new one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

SNR_CONVENTIONS = ("es_n0_complex", "es_n0_per_dim")

#: How Gaussian variates are produced; stamped into result metadata.
GAUSSIAN_METHOD = "philox+ziggurat(numpy.standard_normal)"


@dataclass(frozen=True)
class ChannelConfig:
    """Noise level, symbol energy and the master seed of the noise streams."""

    sigma2: float
    seed: int
    es: float = 1.0

    def __post_init__(self):
        if not (self.sigma2 > 0 and math.isfinite(self.sigma2)):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not (self.es > 0 and math.isfinite(self.es)):
            raise ValueError(f"es must be positive and finite, got {self.es}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def block_rng(seed: int, block_index: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for one (seed, block, stream) triple.

    Streams with distinct triples are statistically independent; the same
    triple always reproduces the same variates regardless of call order.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index, stream))
    return np.random.Generator(np.random.Philox(ss))


# numpy.random.SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFF_FFFF
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715
_STREAMS = 2  # noise on stream 0, data bits on stream 1


def _hashmix(value, const):
    """SeedSequence's hashmix: (mixed value, next hash constant)."""
    value = value ^ const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words."""
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def frame_keys(seed: int, indices) -> np.ndarray:
    """Philox keys of blocks ``indices`` on streams 0 and 1.

    Returns a (B, 2, 2) uint64 array whose ``[b, s]`` row equals
    ``SeedSequence(entropy=seed, spawn_key=(indices[b], s)).generate_state(2,
    np.uint64)``, the key of ``block_rng(seed, indices[b], s)``.  The seed's
    part of the SeedSequence hash runs once, in Python ints; the spawn-key
    words and the output mix run for all blocks at once, in uint64 arrays
    masked to 32 bits.  Each index must be one spawn-key word, i.e. lie in
    [0, 2**32).
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    indices = np.asarray(indices)
    if indices.ndim != 1:
        raise ValueError(f"indices must be one-dimensional, got shape {indices.shape}")
    if indices.size and (indices.min() < 0 or indices.max() > _MASK32):
        raise ValueError("block indices must lie in [0, 2**32)")

    # the seed's 32-bit words, zero-padded to the pool size (a spawn key follows)
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    words += [0] * (_POOL_WORDS - len(words))
    pool, const = [], _INIT_A
    for word in words[:_POOL_WORDS]:
        h, const = _hashmix(word, const)
        pool.append(h)
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                h, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    for word in words[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            h, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], h)

    # spawn-key word 0: the block index, for every block at once
    index_words = indices.astype(np.uint64)
    for dst in range(_POOL_WORDS):
        h, const = _hashmix(index_words, const)
        pool[dst] = _mix(pool[dst], h)

    keys = np.empty((indices.size, _STREAMS, 2), dtype=np.uint64)
    for stream in range(_STREAMS):
        # spawn-key word 1, then generate_state's four words, paired little-endian
        stream_const, out_const, state = const, _INIT_B, []
        for dst in range(_POOL_WORDS):
            h, stream_const = _hashmix(stream, stream_const)
            word = _mix(pool[dst], h) ^ out_const
            out_const = out_const * _MULT_B & _MASK32
            word = word * out_const & _MASK32
            state.append(word ^ word >> 16)
        keys[:, stream, 0] = state[0] | state[1] << 32
        keys[:, stream, 1] = state[2] | state[3] << 32
    return keys


def noise_block(cfg: ChannelConfig, block_index: int, n: int) -> np.ndarray:
    """Complex AWGN vector of length ``n`` for the given block index."""
    z = block_rng(cfg.seed, block_index, stream=0).standard_normal(2 * n)
    z *= math.sqrt(cfg.sigma2)
    return z[0::2] + 1j * z[1::2]


def snr_to_sigma2(es_n0_db: float, es: float = 1.0,
                  convention: str = "es_n0_complex") -> float:
    """Per-real-dimension noise variance for a symbol-SNR value in dB."""
    if not (es > 0 and math.isfinite(es)):
        raise ValueError(f"es must be positive and finite, got {es}")
    if not math.isfinite(es_n0_db):
        raise ValueError(f"es_n0_db must be finite, got {es_n0_db}")
    n0 = es / 10.0 ** (es_n0_db / 10.0)
    if convention == "es_n0_complex":
        return n0 / 2.0
    if convention == "es_n0_per_dim":
        return n0
    raise ValueError(f"unknown SNR convention {convention!r}; pick one of {SNR_CONVENTIONS}")


def sigma2_to_snr_db(sigma2: float, es: float = 1.0,
                     convention: str = "es_n0_complex") -> float:
    """Inverse of :func:`snr_to_sigma2`."""
    if not (sigma2 > 0 and math.isfinite(sigma2)):
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    if convention == "es_n0_complex":
        n0 = 2.0 * sigma2
    elif convention == "es_n0_per_dim":
        n0 = sigma2
    else:
        raise ValueError(f"unknown SNR convention {convention!r}; pick one of {SNR_CONVENTIONS}")
    return 10.0 * math.log10(es / n0)


def ebn0_to_esn0(eb_n0_db: float, rate: float) -> float:
    """Es/N0 in dB from Eb/N0 in dB at the given info rate."""
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return eb_n0_db + 10.0 * math.log10(rate)


def esn0_to_ebn0(es_n0_db: float, rate: float) -> float:
    """Eb/N0 in dB from Es/N0 in dB at the given info rate."""
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return es_n0_db - 10.0 * math.log10(rate)
