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
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class SnrPoint:
    """One operating point: symbol SNR plus the info rate used for Eb/N0.

    ``rate`` is in information bits per channel symbol (code rate times bits
    per symbol), so ``eb_n0_db = es_n0_db - 10 log10(rate)``.
    """

    es_n0_db: float
    rate: float = 1.0

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    @property
    def eb_n0_db(self) -> float:
        return self.es_n0_db - 10.0 * math.log10(self.rate)


def block_rng(seed: int, block_index: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for one (seed, block, stream) triple.

    Streams with distinct triples are statistically independent; the same
    triple always reproduces the same variates regardless of call order.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block_index, stream))
    return np.random.Generator(np.random.Philox(ss))


def noise_block(cfg: ChannelConfig, block_index: int, n: int) -> np.ndarray:
    """Complex AWGN vector of length ``n`` for the given block index."""
    z = block_rng(cfg.seed, block_index, stream=0).standard_normal(2 * n)
    z *= math.sqrt(cfg.sigma2)
    return z[0::2] + 1j * z[1::2]


def transmit(block: np.ndarray, cfg: ChannelConfig, block_index: int = 0) -> np.ndarray:
    """y = x + n, with n fully determined by (cfg.seed, block_index)."""
    block = np.asarray(block, dtype=np.complex128)
    return block + noise_block(cfg, block_index, block.size)


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
