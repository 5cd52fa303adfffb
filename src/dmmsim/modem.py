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
constants 1, 1j, -1, -1j, which IEEE-754 evaluates without rounding.  The
map and the derotate-then-demap step select by the axis bit instead and
are bitwise equal to the :func:`rotate`-based forms, signed zeros
included: :func:`symbol_parts` is the one definition of the map (the
real and imaginary parts that :func:`dmm_map` assembles and the receiver
adds into its noise), and :func:`llr_v1` the one derotation (selected by
axis bits; :func:`derotate_and_llr_v1` reads the bits off the angles).

:class:`Constellation` is the package's only finite-input type, a set of
equally likely points: the axis demapper reads its points and axis labels,
and ``mutual_info`` integrates over its points.

:func:`_log_density` is the package's one Gaussian-mixture kernel: the
axis demapper folds each axis class of a block of received samples
through it, and ``mutual_info``'s quadrature the whole set at its nodes.
It works in scratch arrays of the calling thread (:func:`_scratch`),
which both callers share and reuse across blocks and calls; every element
is written before it is read, so no value passes from one call to the
next, and each call sets its own ``np.errstate``, which numpy keeps per
thread, so the functions are safe to call from several threads at once.

LLR sign convention everywhere: positive LLR means bit 0 is more likely.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .channel import require_positive

HALF_PI = math.pi / 2.0

_EXACT_PHASORS = (
    (0.0, 1.0 + 0.0j),
    (HALF_PI, 1.0j),
    (-HALF_PI, -1.0j),
    (math.pi, -1.0 + 0.0j),
    (-math.pi, -1.0 + 0.0j),
)

#: The axis LLR is evaluated in blocks of this many values of ``y``: a call
#: holds every class point's exponents of one block, not of the whole batch.
_LLR_BLOCK = 2 ** 13


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
        require_positive(es=es)
        a = math.sqrt(es)
        return cls([a, -a])

    @classmethod
    def qpsk(cls, es: float = 1.0) -> "Constellation":
        require_positive(es=es)
        a = math.sqrt(es / 2.0)
        return cls([a + 1j * a, -a + 1j * a, -a - 1j * a, a - 1j * a])

    @classmethod
    def quadrature_pair(cls, es: float = 1.0) -> "Constellation":
        """The rotation-keyed four-point set: +re, +im, -re, -im, each at energy es."""
        require_positive(es=es)
        a = math.sqrt(es)
        return cls([a, 1j * a, -a, -1j * a])

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.points.imag == 0.0))

    @property
    def axis_labels(self) -> np.ndarray:
        """Second-stream bit carried by each point (0 = real axis pair)."""
        return demod_v2_hard(self.points)


def _amplitudes(bits, es: float) -> np.ndarray:
    """The polarity amplitudes ``(1 - 2 bits) sqrt(es)`` of ``bits``: bit 0
    -> +sqrt(es), bit 1 -> -sqrt(es), as a new float array."""
    require_positive(es=es)
    a = np.array(bits, dtype=np.float64)
    a *= 2.0
    np.subtract(1.0, a, out=a)
    a *= math.sqrt(es)
    return a


def map_bpsk(bits, es: float = 1.0) -> np.ndarray:
    """Antipodal map: bit 0 -> +sqrt(es), bit 1 -> -sqrt(es), on the real axis."""
    return _amplitudes(bits, es) + 0.0j


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


def symbol_parts(v1, v2, es: float = 1.0):
    """The real and imaginary parts of the four-point symbols of bit pairs
    ``(v1, v2)``, two new float arrays of their broadcast shape:
    ``re = a * (1 - v2)`` and ``im = a * v2 + 0.0``, ``a`` the polarity
    amplitude +-sqrt(es) of :func:`map_bpsk`.

    This is the one definition of the map.  :func:`dmm_map` assembles its
    symbols from these parts, and the receiver adds them into the real and
    imaginary parts of its noise in place.  The zeros carry the signs of the
    quarter-turn product ``map_bpsk(v1) * 1j``: a rotated symbol's real part
    is ``a * 0.0``, -0.0 for v1 = 1, and an unrotated one's imaginary part
    is +0.0.
    """
    v1, v2 = np.broadcast_arrays(v1, v2)
    re = _amplitudes(v1, es)
    im = re * v2
    im += 0.0
    re *= 1.0 - v2
    return re, im


def dmm_map(v1, v2, es: float = 1.0) -> np.ndarray:
    """Map one bit pair (or arrays of pairs) onto the four-point set: the
    complex symbols whose parts are :func:`symbol_parts`."""
    re, im = symbol_parts(v1, v2, es)
    s = np.empty(re.shape, dtype=np.complex128)
    s.real = re
    s.imag = im
    return s


def demod_v2_hard(y) -> np.ndarray:
    """Hard decision on the axis bit: 1 iff the point is nearest the
    imaginary-axis pair, that is ``|im(y)| > |re(y)|``; exact ties go to 0.
    """
    y = np.asarray(y, dtype=np.complex128)
    return (np.abs(y.imag) > np.abs(y.real)).astype(np.uint8)


_THREAD = threading.local()


def _scratch(name: str, shape: tuple, dtype) -> np.ndarray:
    """A ``shape`` view on this thread's scratch array ``name``, grown when
    too small and otherwise reused across blocks and calls.  Callers write
    every element before they read it, so no value passes between calls."""
    size = math.prod(shape)
    buf = getattr(_THREAD, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype)
        setattr(_THREAD, name, buf)
    return buf[:size].reshape(shape)


def _dim(points: np.ndarray) -> int:
    """1 for points on the line (float), 2 for points in the plane (complex)."""
    return 1 if points.dtype.kind == "f" else 2


def _log_density(y: np.ndarray, points: np.ndarray, sigma2: float, out: np.ndarray,
                 neg: np.ndarray | None = None, offsets: tuple | None = None) -> None:
    """Write into ``out`` the log-sum-exp at ``y`` (any shape) of each point's
    exponent ``(a - |y - p|^2 / (2 sigma2)) - c...`` for ``offsets = (a,
    c...)``; the default offsets ``(ln(1/P), (dim/2) ln(2 pi sigma2))`` make
    it the log density of the mixture over equally likely ``points``.  The
    distances go point by point through a block-sized scratch array and the
    rest one ufunc call per step on a (points, *y.shape) scratch array, then
    a chain of ``np.logaddexp`` from ``x0 + 0.0`` in point order, bitwise
    the ``np.logaddexp.reduce`` over the point axis (a ufunc reduce applies
    its operator in order from the identity, and ``logaddexp(-inf, v)`` is
    ``v + 0.0``).  A squared distance that overflows gives -inf without a
    warning; callers check.

    ``neg``, if given, gets the log-sum-exp at ``-y`` from the same
    exponents, which needs ``points[P//2:] == -points[:P//2]``: then
    ``|(-y) - p[l]|`` is ``|y - p[l + P/2]|`` to the bit, so the chain that
    starts at point P/2 and wraps round is the one in point order at -y."""
    if offsets is None:
        offsets = (math.log(1.0 / points.size),
                   0.5 * _dim(points) * math.log(2.0 * math.pi * sigma2))
    expo = _scratch("expo", (points.size, *y.shape), np.float64)
    kind = np.result_type(y, points)  # float on the line, complex in the plane
    diff = _scratch("diff" + kind.char, y.shape, kind)
    with np.errstate(over="ignore", invalid="ignore"):
        for p, e in zip(points, expo):
            np.subtract(y, p, out=diff)
            np.abs(diff, out=e)
        np.square(expo, out=expo)
        np.divide(expo, 2.0 * sigma2, out=expo)
        np.subtract(offsets[0], expo, out=expo)
        for c in offsets[1:]:
            np.subtract(expo, c, out=expo)
        for o, first in ((out, 0), (neg, points.size // 2)):
            if o is not None:
                np.add(expo[first], 0.0, out=o)
                for e in (*expo[first + 1:], *expo[:first]):
                    np.logaddexp(o, e, out=o)


def llr_v2(y, constellation: Constellation, sigma2: float) -> np.ndarray:
    """Soft axis-bit information: ln of the real-axis-pair likelihood over the
    imaginary-axis-pair likelihood under Gaussian noise.

    Each class's log-sum-exp is one :func:`_log_density` of its points with
    exponents ``0.0 - |y - p| ** 2 / (2 sigma2)``, on blocks of
    ``_LLR_BLOCK`` values of ``y`` in this thread's scratch arrays: a chain
    of ``np.logaddexp`` from ``x0 + 0.0`` in point order, bitwise
    ``np.logaddexp.reduce`` over the class's points, so widely separated
    exponents cannot underflow to a 0/0, and no bit depends on the block
    size.  With points in both classes an LLR is finite unless a squared
    distance overflowed, which raises ``ValueError``; a class without points
    gives its defined infinite LLR for every ``y``.
    """
    require_positive(sigma2=sigma2)
    y = np.asarray(y, dtype=np.complex128)
    labels = constellation.axis_labels
    num, den = (constellation.points[labels == label] for label in (0, 1))
    if not (num.size and den.size):
        return np.full(y.shape, np.inf if num.size else -np.inf)
    llr = np.empty(y.shape)
    ys, flat = y.reshape(-1), llr.reshape(-1)
    with np.errstate(invalid="ignore"):  # -inf - -inf is left to the check below
        for s in range(0, y.size, _LLR_BLOCK):
            block, out = ys[s:s + _LLR_BLOCK], flat[s:s + _LLR_BLOCK]
            den_sum = _scratch("den_sum", block.shape, np.float64)
            _log_density(block, num, sigma2, out, offsets=(0.0,))
            _log_density(block, den, sigma2, den_sum, offsets=(0.0,))
            np.subtract(out, den_sum, out=out)
    if not np.isfinite(llr).all():
        raise ValueError(f"axis LLRs are not finite at sigma2 = {sigma2:.3g}: "
                         f"a squared distance to a point overflows")
    return llr


def llr_v1(y, axis, es: float, sigma2: float) -> np.ndarray:
    """Polarity LLRs of received symbols ``y`` derotated by their axis bits.

    A quarter-turn derotation selects a part of each symbol: Re(y) where
    ``axis`` is false, Im(y) where it is true (``axis`` a bool array
    broadcast against ``y``, or None for symbols all on the real axis).
    Each LLR is ``2 sqrt(es) sel / sigma2``, the BPSK LLR of the selected
    part ``sel``, computed in that order into one new array.  Rotation
    preserves amplitudes, so no SNR is lost in this step.
    """
    require_positive(es=es, sigma2=sigma2)
    y = np.asarray(y, dtype=np.complex128)
    shape = np.broadcast_shapes(y.shape, np.shape(axis))
    # subtracting the other part times 0.0 gives zeros the sign that the
    # complex product with the unit constant 1 or -1j would give them
    llr = np.multiply(y.imag, 0.0, out=np.empty(shape))
    np.subtract(y.real, llr, out=llr)
    if axis is not None:
        sel = np.multiply(y.real, 0.0, out=np.empty(shape))
        np.subtract(y.imag, sel, out=sel)
        np.copyto(llr, sel, where=axis)
    llr *= 2.0 * math.sqrt(es)
    llr /= sigma2
    return llr


def derotate_and_llr_v1(y, beta_hat, es: float, sigma2: float) -> np.ndarray:
    """Undo the estimated rotation ``beta_hat`` and demap the polarity bit:
    :func:`llr_v1` with the axis bits the angles stand for.

    ``beta_hat`` must be 0 or pi/2 per symbol, the angles of
    :func:`beta_from_bits`.
    """
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    axis = beta_hat == HALF_PI
    if not np.all(axis | (beta_hat == 0.0)):
        raise ValueError("beta_hat must be 0 or pi/2 for every symbol")
    return llr_v1(y, axis, es, sigma2)
