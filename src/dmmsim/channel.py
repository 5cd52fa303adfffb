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
was produced under.  A sweep's grid may also be in Eb/N0 per stream-1 or
overall info bit; :func:`resolve_grid_snr` reads all four conventions.
Symbol energy, noise variance, rates and tolerances must be positive and
finite, as :func:`require_positive`, the package's one such check, enforces.

Noise is drawn from a counter-based Philox generator keyed by
``(seed, block_index, stream)``.  Trial *i* therefore sees the same noise no
matter how many workers run a sweep or in which order blocks complete.
:func:`block_rng` and :func:`noise_block` define one block's streams;
:func:`frame_keys` works out the same Philox keys for a whole batch of
blocks at once, so a batch can re-key one generator per block instead of
building a new one.  It takes the seed's half of the SeedSequence hash from
numpy (``SeedSequence(seed).pool``) and runs only the spawn-key half itself.
Both turn their standard-normal draws into complex noise through
:func:`noise_from_draws`, which keeps each draw's sign, -0.0 included.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

SNR_CONVENTIONS = ("es_n0_complex", "es_n0_per_dim")
#: the conventions a sweep's grid SNR values may be declared in
GRID_CONVENTIONS = SNR_CONVENTIONS + ("eb_n0_overall", "eb_n0_stream1")

#: How Gaussian variates are produced; stamped into result metadata.
GAUSSIAN_METHOD = "philox+ziggurat(numpy.standard_normal)"


def require_positive(**values: float) -> None:
    """Raise ValueError naming the first of ``values`` that is not positive
    and finite."""
    for name, value in values.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class ChannelConfig:
    """Noise level, symbol energy and the master seed of the noise streams."""

    sigma2: float
    seed: int
    es: float = 1.0

    def __post_init__(self):
        require_positive(sigma2=self.sigma2, es=self.es)
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
_STREAMS = (0, 1)  # noise on stream 0, data bits on stream 1


def _hashmix(value, const):
    """SeedSequence's hashmix: (mixed value, next hash constant), in Python
    ints or elementwise in uint64 arrays."""
    value = value ^ const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words."""
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _steps(const, mult, count):
    """A hash constant and the ``count`` constants it steps through."""
    out = [const]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


#: generate_state's output constants, one per pool word, and the one after
_OUT_CONSTS = np.array(_steps(_INIT_B, _MULT_B, _POOL_WORDS), dtype=np.uint64)[:, None, None]


def frame_keys(seed: int, indices) -> np.ndarray:
    """Philox keys of blocks ``indices`` on streams 0 and 1.

    Returns a (B, 2, 2) uint64 array whose ``[b, s]`` row equals
    ``SeedSequence(entropy=seed, spawn_key=(indices[b], s)).generate_state(2,
    np.uint64)``, the key of ``block_rng(seed, indices[b], s)``.  The hash
    mixes the seed's words into its pool before the spawn key's, so the pool
    after the seed is ``SeedSequence(seed).pool``, and the hash constant has
    then stepped 4 times to fill the pool, 12 to mix it and 4 per seed word
    past the pool's 4.  The constants the spawn key's 8 hashes use are known
    from there on, so the index word is hashed into all four pool words at
    once, in (4, B) uint64 arrays masked to 32 bits; the stream word, one
    of two values, is hashed in Python ints; and the output mix runs on a
    (4, B, 2) array of pool word, block and stream.
    Each index must be one spawn-key word, i.e. lie in [0, 2**32).
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    indices = np.asarray(indices)
    if indices.ndim != 1:
        raise ValueError(f"indices must be one-dimensional, got shape {indices.shape}")
    if indices.size and (indices.min() < 0 or indices.max() > _MASK32):
        raise ValueError("block indices must lie in [0, 2**32)")

    extra_words = max(0, -(-seed.bit_length() // 32) - _POOL_WORDS)
    consts = _steps(_INIT_A * pow(_MULT_A, 16 + 4 * extra_words, 1 << 32) & _MASK32,
                    _MULT_A, 2 * _POOL_WORDS)
    pool = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]

    # spawn-key word 0, the block index: pool word along the rows, block
    # along the columns
    h, _ = _hashmix(indices.astype(np.uint64),
                    np.array(consts[:_POOL_WORDS], dtype=np.uint64)[:, None])
    pool = _mix(pool, h)[..., None]
    # spawn-key word 1, the stream; then generate_state's four words,
    # paired little-endian
    h = np.array([[_hashmix(s, c)[0] for s in _STREAMS] for c in consts[_POOL_WORDS:-1]],
                 dtype=np.uint64)
    word = _mix(pool, h[:, None]) ^ _OUT_CONSTS[:-1]
    word = word * _OUT_CONSTS[1:] & _MASK32
    word ^= word >> 16
    return np.stack((word[0] | word[1] << 32, word[2] | word[3] << 32), axis=-1)


def noise_from_draws(z: np.ndarray, sigma2: float) -> np.ndarray:
    """Complex AWGN from standard-normal draws ``z``, real and imaginary
    parts interleaved along its contiguous last axis: ``z`` is scaled by
    sqrt(sigma2) in place and returned as its complex view.

    Sample i is the pair of draws 2i and 2i+1 as they are, signed zeros
    included.  Assembling ``re + 1j*im`` differs in one case only: its
    complex sum turns a -0.0 imaginary part into +0.0, and a -0.0 real part
    too unless the imaginary part's sign bit is set.  A draw is -0.0 only
    when the ziggurat's 52 magnitude bits are zero and its sign bit is set,
    probability 2**-53.  :func:`noise_block` and the receiver's batches
    both assemble here, so they agree to the bit.  No LLR reads the sign of
    a zero noise part: the polarity LLR multiplies the other part by 0.0,
    and the axis LLR takes ``|y - p|``.
    """
    z *= math.sqrt(sigma2)
    return z.view(np.complex128)


def noise_block(cfg: ChannelConfig, block_index: int, n: int) -> np.ndarray:
    """Complex AWGN vector of length ``n`` for the given block index: the
    first 2n standard normals of the block's stream 0, assembled by
    :func:`noise_from_draws`."""
    z = block_rng(cfg.seed, block_index, stream=0).standard_normal(2 * n)
    return noise_from_draws(z, cfg.sigma2)


def snr_to_sigma2(es_n0_db: float, es: float = 1.0,
                  convention: str = "es_n0_complex") -> float:
    """Per-real-dimension noise variance for a symbol-SNR value in dB."""
    require_positive(es=es)
    if not math.isfinite(es_n0_db):
        raise ValueError(f"es_n0_db must be finite, got {es_n0_db}")
    if convention not in SNR_CONVENTIONS:
        raise ValueError(f"unknown SNR convention {convention!r}; pick one of {SNR_CONVENTIONS}")
    try:
        n0 = es / 10.0 ** (es_n0_db / 10.0)
    except (OverflowError, ZeroDivisionError):  # 10**(dB/10) beyond the float range
        n0 = math.nan
    sigma2 = n0 / 2.0 if convention == "es_n0_complex" else n0
    if not (sigma2 > 0 and math.isfinite(sigma2)):
        raise ValueError(f"es_n0_db = {es_n0_db} dB at es = {es} gives no positive, "
                         f"finite sigma2")
    return sigma2


def sigma2_to_snr_db(sigma2: float, es: float = 1.0,
                     convention: str = "es_n0_complex") -> float:
    """Inverse of :func:`snr_to_sigma2`."""
    require_positive(sigma2=sigma2, es=es)
    if convention not in SNR_CONVENTIONS:
        raise ValueError(f"unknown SNR convention {convention!r}; pick one of {SNR_CONVENTIONS}")
    n0 = 2.0 * sigma2 if convention == "es_n0_complex" else sigma2
    return 10.0 * math.log10(es / n0)


def ebn0_to_esn0(eb_n0_db: float, rate: float) -> float:
    """Es/N0 in dB from Eb/N0 in dB at the given info rate."""
    require_positive(rate=rate)
    return eb_n0_db + 10.0 * math.log10(rate)


def esn0_to_ebn0(es_n0_db: float, rate: float) -> float:
    """Eb/N0 in dB from Es/N0 in dB at the given info rate."""
    require_positive(rate=rate)
    return es_n0_db - 10.0 * math.log10(rate)


def resolve_grid_snr(snr_db, convention, es, rate1, rate_overall):
    """Read a grid value in one of :data:`GRID_CONVENTIONS`, at info rates
    ``rate1`` (stream 1) and ``rate_overall`` (both streams) per symbol.

    Returns (es_n0_db in the complex reading, sigma2).  The per-dim reading
    changes sigma2 only; Eb/N0 readings are rate-shifted complex Es/N0.
    """
    if convention == "es_n0_complex":
        return snr_db, snr_to_sigma2(snr_db, es, "es_n0_complex")
    if convention == "es_n0_per_dim":
        sigma2 = snr_to_sigma2(snr_db, es, "es_n0_per_dim")
        return sigma2_to_snr_db(sigma2, es, "es_n0_complex"), sigma2
    if convention in ("eb_n0_stream1", "eb_n0_overall"):
        es_n0 = ebn0_to_esn0(snr_db, rate1 if convention == "eb_n0_stream1" else rate_overall)
        return es_n0, snr_to_sigma2(es_n0, es, "es_n0_complex")
    raise ValueError(f"unknown SNR convention {convention!r}; pick one of {GRID_CONVENTIONS}")
