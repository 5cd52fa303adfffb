"""Bit-to-symbol maps for the rotation-keyed two-stream constellation.

One complex symbol carries two code bits.  The first bit selects antipodal
BPSK polarity; the second selects a rotation of the whole BPSK pair by a
quarter turn, so the transmitted point is one of four:

    ===========  =====  ==============
    (bit1, bit2)  angle  symbol
    ===========  =====  ==============
    (0, 0)        0      (+sqrt(Es), 0)
    (1, 0)        0      (-sqrt(Es), 0)
    (0, 1)        pi/2   (0, +sqrt(Es))
    (1, 1)        pi/2   (0, -sqrt(Es))
    ===========  =====  ==============

Pairing bit1=0 with the positive imaginary axis makes derotation by -pi/2
map the imaginary-axis pair back onto standard BPSK with no polarity flip.

Quarter-turn rotations are implemented as exact multiplications by the unit
constants 1, 1j, -1, -1j, which IEEE-754 evaluates without rounding; the
mapper and the receiver's derotate-then-demap step select by the axis bit
and are bitwise equal to the :func:`rotate`-based forms.

:class:`Constellation` is the package's only finite-input type, a set of
equally likely points: the axis demapper reads its points and axis labels,
and ``mutual_info`` integrates over its points.

LLR sign convention everywhere: positive LLR means bit 0 is more likely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2.0

_EXACT_PHASORS = (
    (0.0, 1.0 + 0.0j),
    (HALF_PI, 1.0j),
    (-HALF_PI, -1.0j),
    (math.pi, -1.0 + 0.0j),
    (-math.pi, -1.0 + 0.0j),
)


@dataclass(frozen=True)
class Constellation:
    """Finite signal set of equally likely complex points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128).ravel()
        if pts.size < 2:
            raise ValueError("need at least two constellation points")
        if not np.all(np.isfinite(pts.view(np.float64))):
            raise ValueError("constellation points must be finite")
        object.__setattr__(self, "points", pts)

    @classmethod
    def bpsk(cls, es: float = 1.0) -> "Constellation":
        a = math.sqrt(es)
        return cls([a, -a])

    @classmethod
    def qpsk(cls, es: float = 1.0) -> "Constellation":
        a = math.sqrt(es / 2.0)
        return cls([a + 1j * a, -a + 1j * a, -a - 1j * a, a - 1j * a])

    @classmethod
    def quadrature_pair(cls, es: float = 1.0) -> "Constellation":
        """The rotation-keyed four-point set: +re, +im, -re, -im, each at energy es."""
        a = math.sqrt(es)
        return cls([a, 1j * a, -a, -1j * a])

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.points.imag == 0.0))

    @property
    def axis_labels(self) -> np.ndarray:
        """Second-stream bit carried by each point (0 = real axis pair)."""
        return demod_v2_hard(self.points)


def map_bpsk(bits, es: float = 1.0) -> np.ndarray:
    """Antipodal map: bit 0 -> +sqrt(es), bit 1 -> -sqrt(es), on the real axis."""
    if not es > 0:
        raise ValueError(f"es must be positive, got {es}")
    bits = np.asarray(bits)
    return (1.0 - 2.0 * bits.astype(np.float64)) * math.sqrt(es) + 0.0j


def beta_from_bits(bits) -> np.ndarray:
    """Rotation angle keyed by the second-stream bit: 0 -> 0, 1 -> pi/2."""
    return np.asarray(bits, dtype=np.float64) * HALF_PI


def _phasor(beta) -> np.ndarray:
    beta = np.asarray(beta, dtype=np.float64)
    out = np.exp(1j * beta)
    # Quarter-turn angles get the exactly representable unit constants.
    for angle, unit in _EXACT_PHASORS:
        out = np.where(beta == angle, unit, out)
    return out


def rotate(z, beta) -> np.ndarray:
    """Rotate complex samples by ``beta`` radians (scalar or per-sample array).

    Multiples of pi/2 are applied exactly (component swap/negate semantics);
    other angles use the unit phasor exp(1j*beta).
    """
    return np.asarray(z, dtype=np.complex128) * _phasor(beta)


def dmm_map(v1, v2, es: float = 1.0) -> np.ndarray:
    """Map one bit pair (or arrays of pairs) onto the four-point set."""
    s = map_bpsk(v1, es)
    return np.where(np.asarray(v2, dtype=bool), s * 1j, s)


def demod_v2_hard(y) -> np.ndarray:
    """Hard decision on the axis bit: 1 iff the point is nearest the
    imaginary-axis pair, that is ``|im(y)| > |re(y)|``; exact ties go to 0.
    """
    y = np.asarray(y, dtype=np.complex128)
    return (np.abs(y.imag) > np.abs(y.real)).astype(np.uint8)


def log_sum_exp(terms, shape=()) -> np.ndarray:
    """ln of the sum of exp(t) over the exponent arrays ``terms``, taken one
    at a time in order; ``shape`` is the shape of an empty sum.

    A chain of ``np.logaddexp`` into one accumulator, each step one long
    array op: over the rows of a (points, ...) array of exponents it is
    bitwise ``np.logaddexp.reduce`` over that leading axis (a ufunc reduce
    applies its operator in order, and ``logaddexp`` is symmetric in its
    arguments), and ``terms`` may be a generator that refills one buffer
    per term, since a term is folded in before the next is asked for.  The
    reduce starts from the identity, and ``logaddexp(-inf, v)`` is
    ``v + 0.0``, which turns -0.0 into 0.0; so does the chain.
    """
    terms = iter(terms)
    first = next(terms, None)
    if first is None:
        return np.full(shape, -np.inf)  # the reduce's identity
    acc = np.add(first, 0.0, out=np.empty_like(first))  # an array even for a 0-d term
    for t in terms:
        np.logaddexp(acc, t, out=acc)
    return acc


def llr_v2(y, constellation: Constellation, sigma2: float) -> np.ndarray:
    """Soft axis-bit information: ln of the real-axis-pair likelihood over the
    imaginary-axis-pair likelihood under Gaussian noise.

    Evaluated with log-sum-exp so widely separated exponents cannot underflow
    to a 0/0.  With points in both classes an LLR is finite unless a squared
    distance overflowed, which raises ``ValueError``; a class without points
    gives its defined infinite LLR.
    """
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    y = np.asarray(y, dtype=np.complex128)
    pts = constellation.points
    labels = constellation.axis_labels
    real_pair, imag_pair = np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)
    # an overflowing squared distance is left to the finite check below
    with np.errstate(over="ignore", invalid="ignore"):
        # -|y - s_k|^2 / (2 sigma2), one row per point
        expo = -np.abs(y - pts.reshape(pts.shape + (1,) * y.ndim)) ** 2 / (2.0 * sigma2)
        llr = (log_sum_exp((expo[j] for j in real_pair), y.shape)
               - log_sum_exp((expo[j] for j in imag_pair), y.shape))
    if real_pair.size and imag_pair.size and not np.isfinite(llr).all():
        raise ValueError(f"axis LLRs are not finite at sigma2 = {sigma2:.3g}: "
                         f"a squared distance to a point overflows")
    return llr


def derotate_and_llr_v1(y, beta_hat, es: float, sigma2: float) -> np.ndarray:
    """Undo the estimated rotation and demap the polarity bit.

    After derotation the symbol is ordinary BPSK in the real dimension, so
    the per-bit information is ``2 sqrt(es) Re(y') / sigma2``.  Rotation
    preserves amplitudes, so no SNR is lost in this step.

    ``beta_hat`` must be 0 or pi/2 per symbol, so derotation selects Re(y)
    or Im(y).
    """
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    axis = beta_hat == HALF_PI
    if not np.all(axis | (beta_hat == 0.0)):
        raise ValueError("beta_hat must be 0 or pi/2 for every symbol")
    y = np.asarray(y, dtype=np.complex128)
    # subtracting the other component times 0.0 gives zeros the sign that the
    # complex product with the unit constant 1 or -1j would give them
    y_back = np.where(axis, y.imag - y.real * 0.0, y.real - y.imag * 0.0)
    return 2.0 * math.sqrt(es) * y_back / sigma2
