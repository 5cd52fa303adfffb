"""Mutual information of finite signal sets over AWGN, and the composite
achievable-rate audit for the two-stream scheme.

The input is a :class:`~dmmsim.modem.Constellation`, the same type the
receiver demaps against.  The received-signal density is a Gaussian mixture
over its points.  I(X;Y) is evaluated as H(Y) - H(N), with H(Y) integrated
either by adaptive Gauss-Hermite quadrature (node count doubled until the
estimate moves by less than ``tol`` bits) or by seeded Monte-Carlo sampling
with a confidence interval.  One code path serves both dimensions: a
real-axis-only set is carried as float points and integrated on the line
against one-dimensional noise entropy, anything else as complex points in
the plane against the two-dimensional noise entropy, so one-dimensional and
complex bookkeeping never mix.  Points with zero prior are dropped first;
they add nothing to the mixture.

Quadrature shares what it can within a call, and memoizes nothing
across calls.  The Gauss-Hermite nodes and weights of each node count
(64, 128, 256) are computed on first use and then shared as read-only
arrays.  The mixture's exponents are point-major: the short point axis
leads, so each point's term is one long array like ``y``, and the
log-sum-exp over the points is a chain of ``np.logaddexp`` over that
leading axis (:func:`~dmmsim.modem.log_sum_exp`), bitwise the
``np.logaddexp.reduce`` it replaces.  :func:`mi_axis_and_joint` gives
the axis and joint four-point values from one quadrature of the four-point
H(Y), which both subtract from; each equals its separate call bit for bit.
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


@dataclass(frozen=True)
class MiResult:
    """Mutual information estimate in bits per channel use.

    ``value`` lies in [0, H(X)], H(X) the entropy of the input (or label)
    priors: quadrature and sampling errors can step outside that range, and
    are clamped back into it.  ``est_error`` is a 95% half-width for
    Monte-Carlo; for quadrature it is at least ``tol``, and above ``tol``
    when the node cap stopped convergence.
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


def _clamp(value, probs: np.ndarray) -> float:
    """``value`` clamped into [0, H(X)], H(X) in bits for these priors; a
    value that is not finite raises instead of passing through."""
    if not math.isfinite(value):
        raise ValueError(f"mutual information estimate is not finite: {value}")
    p = probs[probs > 0]
    return float(min(max(value, 0.0), -np.sum(p * np.log2(p))))


def _support(inp: Constellation):
    """The points with positive prior (float if the set is real), their
    priors, and the mask that kept them.  A zero-prior point contributes
    nothing to a mixture, so dropping it changes no bit."""
    keep = inp.probs > 0
    pts = inp.points.real if inp.is_real else inp.points
    return pts[keep], inp.probs[keep], keep


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


def _log_mixture(y: np.ndarray, points: np.ndarray, probs: np.ndarray,
                 sigma2: float) -> np.ndarray:
    """Log density of the received point; real ``points`` mean the line.  The
    exponents are point-major, one array like ``y`` per point."""
    lead = points.shape + (1,) * y.ndim
    expo = (
        np.log(probs).reshape(lead)
        - np.abs(y - points.reshape(lead)) ** 2 / (2.0 * sigma2)
        - 0.5 * _dim(points) * math.log(2.0 * math.pi * sigma2)
    )
    return log_sum_exp(expo, range(points.size))


def _entropy(points: np.ndarray, probs: np.ndarray, sigma2: float, nodes: int) -> float:
    """H(Y) in bits by Gauss-Hermite quadrature around each point, on the line
    or on the tensor grid in the plane."""
    t, w = _gauss_hermite(nodes)
    scale = math.sqrt(2.0 * sigma2)
    # a node offset below half an ulp of a point's coordinate rounds onto the
    # point, and the estimate goes wrong without a sign; the nodes are sorted
    # and symmetric, so the two middle ones are the first to collapse
    coords = np.ascontiguousarray(points).view(np.float64)[:, None]
    if (coords + scale * t[nodes // 2 - 1:nodes // 2 + 1] == coords).any():
        es_n0_db = 10.0 * math.log10(float(probs @ np.abs(points) ** 2) / (2.0 * sigma2))
        raise ValueError(f"quadrature cannot resolve the noise at Es/N0 = {es_n0_db:.4g} dB "
                         f"(sigma2 = {sigma2:.3g}): a {nodes}-node Gauss-Hermite offset "
                         f"rounds onto a point")
    if _dim(points) == 1:
        offs = scale * t
        weigh, norm = (lambda logp: w @ logp), math.sqrt(math.pi)
    else:
        offs = scale * (t[:, None] + 1j * t[None, :])
        w2 = w[:, None] * w[None, :]
        weigh, norm = (lambda logp: np.sum(w2 * logp)), math.pi
    acc = 0.0
    for pk, xk in zip(probs, points):
        acc += pk * float(weigh(_log_mixture(xk + offs, points, probs, sigma2)))
    return -acc / norm / LN2


def _mixture_entropy(points, probs, sigma2, tol: float):
    """Double the node count from 64 until successive estimates differ by
    < tol or 256 nodes are used (numpy's Gauss-Hermite weights are NaN beyond
    256).  Returns (last estimate, last change)."""
    nodes = 64
    prev = _entropy(points, probs, sigma2, nodes)
    while nodes < 256:
        nodes *= 2
        cur = _entropy(points, probs, sigma2, nodes)
        delta = abs(cur - prev)
        if delta < tol:
            break
        prev = cur
    return cur, delta


# ---------------------------------------------------------------------------
# Monte-Carlo sampling
# ---------------------------------------------------------------------------

def _mc_draw(points, probs, sigma2: float, samples: int, seed: int):
    """Seeded draw of transmitted point indices and received samples, the
    samples in the points' own dimension."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    idx = rng.choice(points.size, size=samples, p=probs)
    x = points[idx]
    if _dim(x) == 1:
        return idx, x + rng.standard_normal(samples) * math.sqrt(sigma2)
    noise = rng.standard_normal(2 * samples) * math.sqrt(sigma2)
    return idx, x + noise[0::2] + 1j * noise[1::2]


def _mc_result(log_ratio: np.ndarray, probs: np.ndarray) -> MiResult:
    """Mean of per-sample log-likelihood ratios (nats) with a 95% half-width,
    for an input with priors ``probs``."""
    samples = log_ratio / LN2
    half = 1.96 * float(np.std(samples, ddof=1)) / math.sqrt(samples.size)
    return MiResult(value=_clamp(np.mean(samples), probs), method="monte_carlo",
                    est_error=half)


# ---------------------------------------------------------------------------
# Mutual information
# ---------------------------------------------------------------------------

def _quad_joint(h_y, pts, probs, sigma2: float, tol: float) -> MiResult:
    """I(X;Y) = H(Y) - H(N) from ``h_y`` = (H(Y), its last change)."""
    value, err = h_y
    h_n = awgn_entropy(sigma2) * _dim(pts)
    return MiResult(value=_clamp(value - h_n, probs), method="quadrature",
                    est_error=float(max(err, tol)))


def _quad_label(h_y, classes, p_label, sigma2: float, tol: float) -> MiResult:
    """I(B;Y) = H(Y) - H(Y|B) from ``h_y`` = (H(Y), its last change) and the
    label classes."""
    value, err_total = h_y
    h_cond = 0.0
    for b, (cls_pts, cls_probs) in enumerate(classes):
        h_b, err_b = _mixture_entropy(cls_pts, cls_probs, sigma2, tol)
        h_cond += p_label[b] * h_b
        err_total += p_label[b] * err_b
    return MiResult(value=_clamp(value - h_cond, p_label), method="quadrature",
                    est_error=float(max(err_total, tol)))


def _label_classes(inp: Constellation, labels):
    """Validate one 0/1 label per point and split the supported points into
    the two label classes.  Returns (points, priors, labels, label priors,
    [(class points, class priors) for label 0 and 1])."""
    labels = np.asarray(labels, dtype=np.uint8).ravel()
    if labels.shape != inp.points.shape or not set(np.unique(labels)) <= {0, 1}:
        raise ValueError("labels must be one 0/1 value per point")
    if len(set(np.unique(labels))) < 2:
        raise ValueError("both label values must occur")
    pts, probs, keep = _support(inp)
    labels = labels[keep]
    p_label = np.array([probs[labels == b].sum() for b in (0, 1)])
    if not np.all(p_label > 0):
        raise ValueError("both label values must have positive prior")
    # each label class as a mixture of its own points
    classes = [(pts[labels == b], probs[labels == b] / p_label[b]) for b in (0, 1)]
    return pts, probs, labels, p_label, classes


def mi_awgn(inp: Constellation, sigma2: float, method: str = "quadrature", *,
            tol: float = 1e-6, mc_samples: int = 200_000, seed: int = 0) -> MiResult:
    """I(X;Y) in bits per channel use for a finite input over AWGN.

    ``sigma2`` is per real dimension.  Real-axis inputs are integrated on the
    line against one-dimensional noise entropy; otherwise in the plane
    against the two-dimensional noise entropy.
    """
    _check(sigma2, method)
    pts, probs, _ = _support(inp)
    if method == "quadrature":
        return _quad_joint(_mixture_entropy(pts, probs, sigma2, tol), pts, probs,
                           sigma2, tol)
    idx, y = _mc_draw(pts, probs, sigma2, mc_samples, seed)
    log_cond = (
        -np.abs(y - pts[idx]) ** 2 / (2.0 * sigma2)
        - 0.5 * _dim(pts) * math.log(2.0 * math.pi * sigma2)
    )
    return _mc_result(log_cond - _log_mixture(y, pts, probs, sigma2), probs)


def mi_binary_label(inp: Constellation, labels, sigma2: float,
                    method: str = "quadrature", *, tol: float = 1e-6,
                    mc_samples: int = 200_000, seed: int = 0) -> MiResult:
    """I(B;Y) where B is a binary label attached to each constellation point.

    This is the information available to a receiver that must decide the
    label before knowing anything else; the remaining points inside a label
    class act as self-interference.  Both label values need positive prior.
    """
    _check(sigma2, method)
    pts, probs, labels, p_label, classes = _label_classes(inp, labels)
    if method == "quadrature":
        return _quad_label(_mixture_entropy(pts, probs, sigma2, tol), classes, p_label,
                           sigma2, tol)
    idx, y = _mc_draw(pts, probs, sigma2, mc_samples, seed)
    b = labels[idx]
    log_cond = np.empty(mc_samples)
    for lab, (cls_pts, cls_probs) in enumerate(classes):
        rows = b == lab
        log_cond[rows] = _log_mixture(y[rows], cls_pts, cls_probs, sigma2)
    return _mc_result(log_cond - _log_mixture(y, pts, probs, sigma2), p_label)


# ---------------------------------------------------------------------------
# Named curves (symbol SNR in dB, complex-N0 convention)
# ---------------------------------------------------------------------------

def mi_bpsk(es_n0_db: float, es: float = 1.0, **kw) -> MiResult:
    sigma2 = snr_to_sigma2(es_n0_db, es)
    return mi_awgn(Constellation.bpsk(es), sigma2, **kw)


def mi_qpsk(es_n0_db: float, es: float = 1.0, **kw) -> MiResult:
    sigma2 = snr_to_sigma2(es_n0_db, es)
    return mi_awgn(Constellation.qpsk(es), sigma2, **kw)


def mi_axis(es_n0_db: float, es: float = 1.0, **kw) -> MiResult:
    """Information carried by the axis bit of the four-point rotated set."""
    sigma2 = snr_to_sigma2(es_n0_db, es)
    c = Constellation.quadrature_pair(es)
    return mi_binary_label(c, c.axis_labels, sigma2, **kw)


def mi_joint_4point(es_n0_db: float, es: float = 1.0, **kw) -> MiResult:
    """Joint information of the full four-point rotated set (both bits)."""
    sigma2 = snr_to_sigma2(es_n0_db, es)
    return mi_awgn(Constellation.quadrature_pair(es), sigma2, **kw)


def mi_axis_and_joint(es_n0_db: float, es: float = 1.0, *, tol: float = 1e-6):
    """``(mi_axis, mi_joint_4point)`` by quadrature, from one evaluation of
    the four-point H(Y): both are H(Y) minus a conditional entropy, so each
    value equals the separate call's bit for bit."""
    sigma2 = snr_to_sigma2(es_n0_db, es)
    _check(sigma2)
    c = Constellation.quadrature_pair(es)
    pts, probs, _, p_label, classes = _label_classes(c, c.axis_labels)
    h_y = _mixture_entropy(pts, probs, sigma2, tol)
    return (_quad_label(h_y, classes, p_label, sigma2, tol),
            _quad_joint(h_y, pts, probs, sigma2, tol))
