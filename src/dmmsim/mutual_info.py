"""Mutual information of finite signal sets over AWGN, and the composite
achievable-rate audit for the two-stream scheme.

The input is a :class:`~dmmsim.modem.Constellation`, the same type the
receiver demaps against, and like the demapper this module takes its points
to be equally likely.  The received-signal density is a Gaussian mixture
over its points.  I(X;Y) is evaluated as H(Y) - H(N), with H(Y) integrated
either by adaptive Gauss-Hermite quadrature (node count doubled until the
estimate moves by less than ``tol`` bits) or by seeded Monte-Carlo sampling
with a confidence interval.  One code path serves both dimensions: a
real-axis-only set is carried as float points and integrated on the line
against one-dimensional noise entropy, anything else as complex points in
the plane against the two-dimensional noise entropy, so one-dimensional and
complex bookkeeping never mix.

Quadrature shares what it can within a call, and memoizes nothing
across calls.  The Gauss-Hermite nodes and weights of each node count
(64, 128, 256) are computed on first use and then shared as read-only
arrays.  The mixture is streamed over its points: each point's exponents
are computed into one reused array like ``y`` and folded into a chain of
``np.logaddexp`` (:func:`~dmmsim.modem.log_sum_exp`) before the next
point's, bitwise the ``np.logaddexp.reduce`` over a point axis it
replaces, so one point's term is alive at a time.  In the plane the
tensor grid is evaluated in blocks of whole rows of about
``_BLOCK_NODES`` nodes into one grid-sized array of log densities, whose
weighted sum is still one ``np.sum`` over the grid: the working set is
that array, the weights and one block, and no bit of a value depends on
the block size.  Quadrature raises ``ValueError`` naming Es/N0 and sigma2
when a squared distance overflows (noise variances near the float range).
:func:`mi_axis_and_joint` gives the axis and joint four-point values from
one quadrature of the four-point H(Y), which both subtract from;
:func:`mi_axis` by quadrature is its first value, and
:func:`mi_joint_4point` equals its second bit for bit.
MI values and entropies are never cached: asking twice integrates twice.

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

from .channel import snr_to_sigma2
from .modem import Constellation, log_sum_exp

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

#: The plane's tensor grid is evaluated in blocks of whole rows of about
#: this many nodes (at least one row): a quadrature holds the offsets and
#: distances of one block, not of the whole grid.
_BLOCK_NODES = 8192


@dataclass(frozen=True)
class MiResult:
    """Mutual information estimate in bits per channel use.

    ``value`` lies in [0, log2 of the number of inputs (or labels)], the
    entropy of equally likely inputs: quadrature and sampling errors can
    step outside that range, and are clamped back into it.  ``est_error``
    is a 95% half-width for Monte-Carlo; for quadrature it is at least
    ``tol``, and above ``tol`` when the node cap stopped convergence.
    """

    value: float
    method: str
    est_error: float


def awgn_entropy(sigma2: float) -> float:
    """Differential entropy, in bits, of N(0, sigma2) in one real dimension."""
    _check(sigma2)
    return math.log2(math.sqrt(2.0 * math.pi * math.e * sigma2))


def _check(sigma2: float, method: str = "quadrature") -> None:
    if not (sigma2 > 0 and math.isfinite(sigma2)):
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    if method not in ("quadrature", "monte_carlo"):
        raise ValueError(f"unknown method {method!r}; use 'quadrature' or 'monte_carlo'")


def _clamp(value, size: int) -> float:
    """``value`` clamped into [0, log2(size)], the entropy in bits of ``size``
    equally likely inputs; a value that is not finite raises instead of
    passing through."""
    if not math.isfinite(value):
        raise ValueError(f"mutual information estimate is not finite: {value}")
    return float(min(max(value, 0.0), math.log2(size)))


def _dim(points: np.ndarray) -> int:
    """1 for points on the line (float), 2 for points in the plane (complex)."""
    return 1 if points.dtype.kind == "f" else 2


# ---------------------------------------------------------------------------
# Gaussian-mixture entropies
# ---------------------------------------------------------------------------

@functools.cache
def _gauss_hermite(nodes: int):
    """Gauss-Hermite nodes and weights for ``nodes`` points, computed on first
    use and shared read-only after that."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def _exponents(y: np.ndarray, points: np.ndarray, sigma2: float):
    """Each point's mixture exponent
    ``ln(1/P) - |y - p|^2 / (2 sigma2) - (dim/2) ln(2 pi sigma2)``, in point
    order, written into one buffer like ``y`` that the next point refills."""
    diff = np.empty(y.shape, np.result_type(y, points))
    expo = np.empty(y.shape)
    log_w = math.log(1.0 / points.size)
    two_sigma2 = 2.0 * sigma2
    norm = 0.5 * _dim(points) * math.log(2.0 * math.pi * sigma2)
    for p in points:
        np.subtract(y, p, out=diff)
        np.abs(diff, out=expo)
        np.square(expo, out=expo)
        np.divide(expo, two_sigma2, out=expo)
        np.subtract(log_w, expo, out=expo)
        np.subtract(expo, norm, out=expo)
        yield expo


def _log_mixture(y: np.ndarray, points: np.ndarray, sigma2: float) -> np.ndarray:
    """Log density of the received point over equally likely ``points``; real
    ``points`` mean the line.  The points are streamed into the log-sum-exp
    chain, so one point's exponents are alive at a time.  A squared distance
    that overflows gives -inf without a warning; callers check."""
    with np.errstate(over="ignore", invalid="ignore"):
        return log_sum_exp(_exponents(y, points, sigma2), y.shape)


def _entropy(points: np.ndarray, sigma2: float, nodes: int) -> float:
    """H(Y) in bits by Gauss-Hermite quadrature around each point, on the line
    or on the tensor grid in the plane."""
    t, w = _gauss_hermite(nodes)
    scale = math.sqrt(2.0 * sigma2)
    # an offset added to a point is rounded to the point's ulp; the nodes are
    # sorted and symmetric, so the two middle ones give the smallest offset
    half_ulp = 0.5 * np.spacing(np.abs(np.ascontiguousarray(points).view(np.float64))).max()
    if half_ulp > _RESOLUTION * scale * t[nodes // 2]:
        raise ValueError(f"quadrature cannot resolve the noise at {_where(points, sigma2)}: "
                         f"half an ulp of a point coordinate exceeds {_RESOLUTION:g} of the "
                         f"smallest {nodes}-node Gauss-Hermite offset")
    if _dim(points) == 1:
        offs = scale * t
        weigh, norm = (lambda xk: w @ _log_mixture(xk + offs, points, sigma2)), math.sqrt(math.pi)
    else:
        w2 = w[:, None] * w[None, :]
        weigh, norm = (lambda xk: _weigh_plane(xk, w2, t, scale, points, sigma2)), math.pi
    pk = 1.0 / points.size
    acc = 0.0
    with np.errstate(invalid="ignore"):  # 0 * -inf where a squared distance overflowed
        for xk in points:
            acc += pk * float(weigh(xk))
    if not math.isfinite(acc):
        raise ValueError(f"quadrature cannot integrate the mixture at {_where(points, sigma2)}: "
                         f"a squared distance to a point overflows")
    return -acc / norm / LN2


def _weigh_plane(xk, w2: np.ndarray, t: np.ndarray, scale: float, points: np.ndarray,
                 sigma2: float):
    """``sum(w2 * logp)`` over the tensor grid of offsets around ``xk``, the
    log density evaluated in blocks of whole rows into one grid-sized array,
    so the sum is one pairwise sum over the grid as if taken in one piece."""
    nodes = t.size
    rows = max(1, _BLOCK_NODES // nodes)
    logp = np.empty((nodes, nodes))
    for r in range(0, nodes, rows):
        offs = scale * (t[r:r + rows, None] + 1j * t[None, :])
        logp[r:r + rows] = _log_mixture(xk + offs, points, sigma2)
    return np.sum(np.multiply(w2, logp, out=logp))


def _where(points: np.ndarray, sigma2: float) -> str:
    """The operating point of a quadrature, for its error messages."""
    es_n0_db = 10.0 * math.log10(float(np.mean(np.abs(points) ** 2)) / (2.0 * sigma2))
    return f"Es/N0 = {es_n0_db:.4g} dB (sigma2 = {sigma2:.3g})"


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
# Monte-Carlo sampling
# ---------------------------------------------------------------------------

def _mc_draw(points, sigma2: float, samples: int, seed: int):
    """Seeded draw of transmitted point indices and received samples, the
    samples in the points' own dimension."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    # explicit equal weights: without ``p``, ``choice`` reads another stream
    idx = rng.choice(points.size, size=samples, p=np.full(points.size, 1.0 / points.size))
    x = points[idx]
    if _dim(x) == 1:
        return idx, x + rng.standard_normal(samples) * math.sqrt(sigma2)
    noise = rng.standard_normal(2 * samples) * math.sqrt(sigma2)
    return idx, x + noise[0::2] + 1j * noise[1::2]


def _mc_result(log_ratio: np.ndarray, size: int) -> MiResult:
    """Mean of per-sample log-likelihood ratios (nats) with a 95% half-width,
    for ``size`` equally likely inputs."""
    samples = log_ratio / LN2
    half = 1.96 * float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
    return MiResult(value=_clamp(np.mean(samples), size), method="monte_carlo",
                    est_error=half)


# ---------------------------------------------------------------------------
# Mutual information
# ---------------------------------------------------------------------------

def _quad_joint(h_y, pts, sigma2: float, tol: float) -> MiResult:
    """I(X;Y) = H(Y) - H(N) from ``h_y`` = (H(Y), its last change)."""
    value, err = h_y
    h_n = awgn_entropy(sigma2) * _dim(pts)
    return MiResult(value=_clamp(value - h_n, pts.size), method="quadrature",
                    est_error=float(max(err, tol)))


def mi_awgn(inp: Constellation, sigma2: float, method: str = "quadrature", *,
            tol: float = 1e-6, mc_samples: int = 200_000, seed: int = 0) -> MiResult:
    """I(X;Y) in bits per channel use for equally likely inputs over AWGN.

    ``sigma2`` is per real dimension.  Real-axis inputs are integrated on the
    line against one-dimensional noise entropy; otherwise in the plane
    against the two-dimensional noise entropy.
    """
    _check(sigma2, method)
    pts = inp.points.real if inp.is_real else inp.points
    if method == "quadrature":
        return _quad_joint(_mixture_entropy(pts, sigma2, tol), pts, sigma2, tol)
    idx, y = _mc_draw(pts, sigma2, mc_samples, seed)
    log_cond = (
        -np.abs(y - pts[idx]) ** 2 / (2.0 * sigma2)
        - 0.5 * _dim(pts) * math.log(2.0 * math.pi * sigma2)
    )
    return _mc_result(log_cond - _log_mixture(y, pts, sigma2), pts.size)


# ---------------------------------------------------------------------------
# Named curves (symbol SNR in dB, complex-N0 convention)
# ---------------------------------------------------------------------------

def mi_bpsk(es_n0_db: float, es: float = 1.0, **kw) -> MiResult:
    sigma2 = snr_to_sigma2(es_n0_db, es)
    return mi_awgn(Constellation.bpsk(es), sigma2, **kw)


def mi_qpsk(es_n0_db: float, es: float = 1.0, **kw) -> MiResult:
    sigma2 = snr_to_sigma2(es_n0_db, es)
    return mi_awgn(Constellation.qpsk(es), sigma2, **kw)


def mi_axis(es_n0_db: float, es: float = 1.0, *, method: str = "quadrature",
            tol: float = 1e-6, mc_samples: int = 200_000, seed: int = 0) -> MiResult:
    """Information carried by the axis bit of the four-point rotated set:
    I(B;Y) = H(Y) - H(Y|B), the points inside each axis pair acting as
    self-interference to a receiver that decides the axis first."""
    if method == "quadrature":
        return mi_axis_and_joint(es_n0_db, es, tol=tol)[0]
    sigma2 = snr_to_sigma2(es_n0_db, es)
    _check(sigma2, method)
    c = Constellation.quadrature_pair(es)
    labels = c.axis_labels
    idx, y = _mc_draw(c.points, sigma2, mc_samples, seed)
    b = labels[idx]
    log_cond = np.empty(mc_samples)
    for lab in (0, 1):
        rows = b == lab
        log_cond[rows] = _log_mixture(y[rows], c.points[labels == lab], sigma2)
    return _mc_result(log_cond - _log_mixture(y, c.points, sigma2), 2)


def mi_joint_4point(es_n0_db: float, es: float = 1.0, **kw) -> MiResult:
    """Joint information of the full four-point rotated set (both bits)."""
    sigma2 = snr_to_sigma2(es_n0_db, es)
    return mi_awgn(Constellation.quadrature_pair(es), sigma2, **kw)


def mi_axis_and_joint(es_n0_db: float, es: float = 1.0, *, tol: float = 1e-6):
    """``(mi_axis, mi_joint_4point)`` by quadrature, from one evaluation of
    the four-point H(Y): both are H(Y) minus a conditional entropy.  H(Y|B)
    averages the entropies of the real and the imaginary axis pair, each
    with weight 1/2."""
    sigma2 = snr_to_sigma2(es_n0_db, es)
    _check(sigma2)
    c = Constellation.quadrature_pair(es)
    labels = c.axis_labels
    h_y = _mixture_entropy(c.points, sigma2, tol)
    h_cond, err = 0.0, h_y[1]
    for lab in (0, 1):
        h_b, err_b = _mixture_entropy(c.points[labels == lab], sigma2, tol)
        h_cond += 0.5 * h_b
        err += 0.5 * err_b
    axis = MiResult(value=_clamp(h_y[0] - h_cond, 2), method="quadrature",
                    est_error=float(max(err, tol)))
    return axis, _quad_joint(h_y, c.points, sigma2, tol)
