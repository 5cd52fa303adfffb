"""Mutual information of finite signal sets over AWGN, and the composite
achievable-rate audit for the two-stream scheme.

The input is a :class:`~dmmsim.modem.Constellation`, the same type the
receiver demaps against, and like the demapper this module takes its points
to be equally likely.  The received-signal density is a Gaussian mixture
over its points.  I(X;Y) is evaluated as H(Y) - H(N), with H(Y) integrated
by adaptive Gauss-Hermite quadrature (node count doubled until the estimate
moves by less than ``tol`` bits, which must be positive and finite).  One
code path serves both dimensions: a real-axis-only set is carried as float
points and integrated on the line against one-dimensional noise entropy,
anything else as complex points in the plane against the two-dimensional
noise entropy, so one-dimensional and complex bookkeeping never mix.

Quadrature shares what it can within a call, and memoizes nothing across
calls.  The Gauss-Hermite nodes and weights of each node count (64, 128,
256) are computed on first use and checked to be symmetric to the bit; they
and the plane's tensor-grid weights are then shared as read-only arrays.
One kernel, :func:`dmmsim.modem._log_density`, the one the axis demapper
folds its classes through, computes the mixture's log density for every
path: every point's exponents of a block of ``y`` at once (the distances
point by point, then one ufunc call per step on a (points, *y.shape)
array), folded by a chain of ``np.logaddexp`` in point order, bitwise the
``np.logaddexp.reduce`` over a point axis.  On the line
``y`` is one point's nodes (at most 256) in one piece; in the plane the
tensor grid is evaluated in blocks of whole rows of about ``_BLOCK_NODES``
nodes, into one grid-sized array of log densities whose weighted sum is
still one ``np.sum`` over the grid.  The grid around -p is p's turned half
a turn, exactly, so for a set that lists each point's opposite P/2 places
later (QPSK, the four-point set) one pass over p's grid folds the same
exponents twice: in point order for the log density at each node, and from
point P/2 on for the one at its negation, a node of -p's grid, which goes
into a second grid-sized array.  The working set is those arrays, the
weights, one block of all points' exponents and one block of distances,
and no bit of a value depends on the block size.
An axis pair {p, -p} evaluates half of p's grid; the other half is its
mirror image across the pair's axis, and -p's grid is p's reversed.  The
block and grid arrays are scratch arrays of the calling thread
(:func:`dmmsim.modem._scratch`, shared with the axis demapper), reused
across blocks and calls, and every element is written before it is read.
Quadrature raises ``ValueError`` naming Es/N0 and sigma2 when a squared
distance overflows (noise variances near the float range).
:func:`mi_axis_and_joint` gives the axis and joint four-point values from
one quadrature of the four-point H(Y), which both subtract from;
:func:`mi_axis` is its first value, and :func:`mi_joint_4point` equals its
second bit for bit.
MI values and entropies are never cached: asking twice integrates twice.

The functions are safe to call from several threads at once, and a value
does not depend on what other threads compute, nor on earlier calls: the
only mutable state is each thread's own scratch arrays in ``modem``, which
carry no value from one call to the next, the cached ``_gauss_hermite``
arrays are read-only, and each call sets its own ``np.errstate``, which
numpy keeps per thread.

The composite rate of the two-stream scheme is the polarity-stream term
(:func:`mi_bpsk`) plus the axis-stream term (:func:`mi_axis`).  The axis
term is defined as the mutual information between the axis bit and the
received point under the full four-point signal set with the polarity bit
uniform: exactly the channel the first receiver stage sees.  By the chain
rule this composite can never exceed the joint four-point mutual
information.  :func:`dmmsim.cli.run_capacity` writes the sum as the
``composite_abr`` column, next to ``joint_mi_4point`` and their difference
``composite_minus_joint``, which makes the "summing the separated streams
beats the joint channel" claim an inspectable number rather than an
assertion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import require_positive, snr_to_sigma2
from .modem import Constellation, _dim, _log_density, _scratch

LN2 = math.log(2.0)

#: Smallest published gap, in dB, between an implemented antipodal-input
#: coding system and the antipodal-input mutual-information limit.
RECORD_GAP_DB = 0.0045

#: The published gain claim for the scheme audited here is internally
#: inconsistent by a factor of ten; both readings are carried verbatim.
CLAIMED_GAIN_DB = (0.052, 0.52)

#: Quadrature refuses an offset whose rounding at the point coordinates
#: (half an ulp) exceeds this fraction of the offset.
_RESOLUTION = 1e-6

#: The plane's log density is evaluated in blocks of whole rows of about
#: this many nodes (at least one row): a call holds every point's distances
#: of one block, not of the whole grid.
_BLOCK_NODES = 8192


@dataclass(frozen=True)
class MiResult:
    """Mutual information estimate in bits per channel use.

    ``value`` lies in [0, log2 of the number of inputs (or labels)], the
    entropy of equally likely inputs: quadrature errors can step outside
    that range, and are clamped back into it.  ``est_error`` is at least
    ``tol``, and above ``tol`` when the node cap stopped convergence.
    """

    value: float
    est_error: float


def awgn_entropy(sigma2: float) -> float:
    """Differential entropy, in bits, of N(0, sigma2) in one real dimension."""
    require_positive(sigma2=sigma2)
    return math.log2(math.sqrt(2.0 * math.pi * math.e * sigma2))


def _clamp(value, size: int) -> float:
    """``value`` clamped into [0, log2(size)], the entropy in bits of ``size``
    equally likely inputs; a value that is not finite raises instead of
    passing through."""
    if not math.isfinite(value):
        raise ValueError(f"mutual information estimate is not finite: {value}")
    return float(min(max(value, 0.0), math.log2(size)))


# ---------------------------------------------------------------------------
# Gaussian-mixture entropies
# ---------------------------------------------------------------------------

@functools.cache
def _gauss_hermite(nodes: int):
    """Gauss-Hermite nodes ``t`` and weights ``w`` for ``nodes`` points, and
    the plane's tensor-grid weights ``w2[i, j] = w[i] * w[j]``, computed on
    first use and shared read-only after that.  The plane quadrature mirrors
    axis pairs, which needs the nodes antisymmetric and the weights
    symmetric to the bit: a table that is not raises RuntimeError."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    if not (np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])):
        raise RuntimeError(
            f"numpy {np.__version__}: hermgauss({nodes}) no longer returns nodes and "
            f"weights that are symmetric to the bit")
    w2 = w[:, None] * w[None, :]
    for arr in (t, w, w2):
        arr.flags.writeable = False
    return t, w, w2


def _entropy(points: np.ndarray, sigma2: float, nodes: int) -> float:
    """H(Y) in bits by Gauss-Hermite quadrature around each point, on the line
    or on the tensor grid in the plane."""
    t, w, w2 = _gauss_hermite(nodes)
    scale = math.sqrt(2.0 * sigma2)
    # an offset added to a point is rounded to the point's ulp; the nodes are
    # sorted and symmetric, so the two middle ones give the smallest offset
    half_ulp = 0.5 * np.spacing(np.abs(np.ascontiguousarray(points).view(np.float64))).max()
    if half_ulp > _RESOLUTION * scale * t[nodes // 2]:
        raise ValueError(f"quadrature cannot resolve the noise at {_where(points, sigma2)}: "
                         f"half an ulp of a point coordinate exceeds {_RESOLUTION:g} of the "
                         f"smallest {nodes}-node Gauss-Hermite offset")
    offs = scale * t
    if _dim(points) == 1:
        sums, norm = _line_sums(points, sigma2, offs, w), math.sqrt(math.pi)
    else:
        sums, norm = _plane_sums(points, sigma2, offs, w2), math.pi
    pk = 1.0 / points.size
    acc = 0.0
    with np.errstate(invalid="ignore"):  # 0 * -inf where a squared distance overflowed
        for s in sums:
            acc += pk * float(s)
    if not math.isfinite(acc):
        raise _overflow(points, sigma2)
    return -acc / norm / LN2


def _line_sums(points: np.ndarray, sigma2: float, offs: np.ndarray, w: np.ndarray):
    """``w @ logp`` over the nodes ``xk + offs`` around each point ``xk``, in
    point order, the log densities written into one scratch array."""
    logp = _scratch("logp", offs.shape, np.float64)
    for xk in points:
        _log_density(xk + offs, points, sigma2, logp)
        yield w @ logp


def _plane_sums(points: np.ndarray, sigma2: float, offs: np.ndarray, w2: np.ndarray):
    """``sum(w2 * logp)`` over the tensor grid ``xk + offs[i] + 1j * offs[j]``
    around each point ``xk``, in point order, each one pairwise sum over a
    contiguous grid as if taken in one piece.  The log densities of a grid
    are written into one grid-sized scratch array.  The grid around -p is
    the grid around p turned half a turn, to the bit, since the nodes are
    antisymmetric.  So for a set with ``points[P//2:] == -points[:P//2]``,
    one pass over p[k]'s grid fills its log densities and, through a view
    reversed on both axes, those at the negated nodes, which are
    p[k + P/2]'s grid, into a second grid-sized scratch array: P/2 passes
    instead of P.  An axis pair {p, -p} goes further: the log density is
    symmetric across the pair's own axis, so half of p's grid is evaluated,
    the other half is its mirror copy, and -p's grid is p's reversed.  Any
    other set takes a whole grid per point."""
    nodes = offs.size
    logp = _scratch("logp", (nodes, nodes), np.float64)
    pairs = points.size // 2
    if points.size % 2 or not np.array_equal(points[pairs:], -points[:pairs]):
        for xk in points:
            _fill_plane(logp, points, sigma2, xk.real + offs, xk.imag + offs)
            yield np.sum(np.multiply(w2, logp, out=logp))
        return
    p = points[0]
    if pairs > 1 or (p.real != 0.0 and p.imag != 0.0):
        # -xk's grid, filled through a view turned half a turn
        logn = _scratch("logn", (nodes, nodes), np.float64)
        opposite = []
        for xk in points[:pairs]:
            _fill_plane(logp, points, sigma2, xk.real + offs, xk.imag + offs, logn[::-1, ::-1])
            yield np.sum(np.multiply(w2, logp, out=logp))
            opposite.append(np.sum(np.multiply(w2, logn, out=logn)))
        yield from opposite
        return
    half = (nodes + 1) // 2
    if p.imag == 0.0:  # on the real axis: column j mirrors column nodes-1-j
        # the half grid is filled contiguously in the second grid's scratch:
        # numpy buffers a ufunc writing into a block of columns, and copies
        # between interleaved columns of one array through a temporary
        left = _scratch("logn", (nodes, half), np.float64)
        _fill_plane(left, points, sigma2, p.real + offs, p.imag + offs[:half])
        logp[:, :half] = left
        logp[:, half:] = left[:, :nodes - half][:, ::-1]
    else:  # on the imaginary axis: row i mirrors row nodes-1-i
        _fill_plane(logp[:half], points, sigma2, p.real + offs[:half], p.imag + offs)
        logp[half:] = logp[:nodes - half][::-1]
    yield np.sum(np.multiply(w2, logp, out=logp))
    # the weights are symmetric too, so -p's products are p's reversed
    logn = _scratch("logn", (nodes, nodes), np.float64)
    logn[:] = logp[::-1, ::-1]
    yield np.sum(logn)


def _fill_plane(logp: np.ndarray, points: np.ndarray, sigma2: float, re: np.ndarray,
                im: np.ndarray, neg: np.ndarray | None = None) -> None:
    """Write into ``logp[i, j]`` the log density at ``re[i] + 1j * im[j]``,
    and into ``neg[i, j]``, if given, the one at its negation (see
    :func:`_log_density`), in blocks of whole rows of about ``_BLOCK_NODES``
    nodes built in a scratch array."""
    rows = max(1, _BLOCK_NODES // im.size)
    for r in range(0, re.size, rows):
        y = _scratch("y", (min(rows, re.size - r), im.size), np.complex128)
        y.real = re[r:r + rows, None]
        y.imag = im
        _log_density(y, points, sigma2, logp[r:r + rows],
                     None if neg is None else neg[r:r + rows])


def _where(points: np.ndarray, sigma2: float) -> str:
    """The operating point of a quadrature, for its error messages."""
    es_n0_db = 10.0 * math.log10(float(np.mean(np.abs(points) ** 2)) / (2.0 * sigma2))
    return f"Es/N0 = {es_n0_db:.4g} dB (sigma2 = {sigma2:.3g})"


def _overflow(points: np.ndarray, sigma2: float) -> ValueError:
    """The error of a quadrature whose mixture went non-finite because a
    squared distance overflowed."""
    return ValueError(f"quadrature cannot integrate the mixture at {_where(points, sigma2)}: "
                      f"a squared distance to a point overflows")


def _mixture_entropy(points, sigma2, tol: float):
    """Double the node count from 64 until successive estimates differ by
    < tol or 256 nodes are used (numpy's Gauss-Hermite weights are NaN beyond
    256).  Returns (last estimate, last change)."""
    nodes = 64
    prev = _entropy(points, sigma2, nodes)
    while nodes < 256:
        nodes *= 2
        cur = _entropy(points, sigma2, nodes)
        delta = abs(cur - prev)
        if delta < tol:
            break
        prev = cur
    return cur, delta


# ---------------------------------------------------------------------------
# Mutual information
# ---------------------------------------------------------------------------

def _quad_joint(h_y, pts, sigma2: float, tol: float) -> MiResult:
    """I(X;Y) = H(Y) - H(N) from ``h_y`` = (H(Y), its last change)."""
    value, err = h_y
    h_n = awgn_entropy(sigma2) * _dim(pts)
    return MiResult(value=_clamp(value - h_n, pts.size), est_error=float(max(err, tol)))


def mi_awgn(inp: Constellation, sigma2: float, *, tol: float = 1e-6) -> MiResult:
    """I(X;Y) in bits per channel use for equally likely inputs over AWGN.

    ``sigma2`` is per real dimension.  Real-axis inputs are integrated on the
    line against one-dimensional noise entropy; otherwise in the plane
    against the two-dimensional noise entropy.
    """
    require_positive(sigma2=sigma2, tol=tol)
    pts = inp.points.real if inp.is_real else inp.points
    return _quad_joint(_mixture_entropy(pts, sigma2, tol), pts, sigma2, tol)


# ---------------------------------------------------------------------------
# Named curves (symbol SNR in dB, complex-N0 convention)
# ---------------------------------------------------------------------------

def mi_bpsk(es_n0_db: float, es: float = 1.0, *, tol: float = 1e-6) -> MiResult:
    sigma2 = snr_to_sigma2(es_n0_db, es)
    return mi_awgn(Constellation.bpsk(es), sigma2, tol=tol)


def mi_qpsk(es_n0_db: float, es: float = 1.0, *, tol: float = 1e-6) -> MiResult:
    sigma2 = snr_to_sigma2(es_n0_db, es)
    return mi_awgn(Constellation.qpsk(es), sigma2, tol=tol)


def mi_axis(es_n0_db: float, es: float = 1.0, *, tol: float = 1e-6) -> MiResult:
    """Information carried by the axis bit of the four-point rotated set:
    I(B;Y) = H(Y) - H(Y|B), the points inside each axis pair acting as
    self-interference to a receiver that decides the axis first."""
    return mi_axis_and_joint(es_n0_db, es, tol=tol)[0]


def mi_joint_4point(es_n0_db: float, es: float = 1.0, *, tol: float = 1e-6) -> MiResult:
    """Joint information of the full four-point rotated set (both bits)."""
    sigma2 = snr_to_sigma2(es_n0_db, es)
    return mi_awgn(Constellation.quadrature_pair(es), sigma2, tol=tol)


def mi_axis_and_joint(es_n0_db: float, es: float = 1.0, *, tol: float = 1e-6):
    """``(mi_axis, mi_joint_4point)`` by quadrature, from one evaluation of
    the four-point H(Y): both are H(Y) minus a conditional entropy.  H(Y|B)
    averages the entropies of the real and the imaginary axis pair, each
    with weight 1/2."""
    sigma2 = snr_to_sigma2(es_n0_db, es)
    require_positive(sigma2=sigma2, tol=tol)
    c = Constellation.quadrature_pair(es)
    labels = c.axis_labels
    h_y = _mixture_entropy(c.points, sigma2, tol)
    h_cond, err = 0.0, h_y[1]
    for lab in (0, 1):
        h_b, err_b = _mixture_entropy(c.points[labels == lab], sigma2, tol)
        h_cond += 0.5 * h_b
        err += 0.5 * err_b
    axis = MiResult(value=_clamp(h_y[0] - h_cond, 2), est_error=float(max(err, tol)))
    return axis, _quad_joint(h_y, c.points, sigma2, tol)
