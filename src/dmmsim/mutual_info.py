"""Mutual information of finite signal sets over AWGN, and the composite
achievable-rate audit for the two-stream scheme.

The received-signal density is a Gaussian mixture over the constellation
points.  I(X;Y) is evaluated as H(Y) - H(N), with H(Y) integrated either by
adaptive Gauss-Hermite quadrature (node count doubled until the estimate
moves by less than ``tol`` bits) or by seeded Monte-Carlo sampling with a
confidence interval.  Real-axis-only sets use the scalar channel; anything
two-dimensional uses the planar integral and the matching two-dimensional
noise entropy, so one-dimensional and complex bookkeeping never mix.

The composite rate of the two-stream scheme is the polarity-stream term
plus the axis-stream term.  The axis term is defined as the mutual
information between the axis bit and the received point under the full
four-point signal set with the polarity bit uniform: exactly the channel
the first receiver stage sees.  By the chain rule this composite can never
exceed the joint four-point mutual information; emitting both side by side
makes the "summing the separated streams beats the joint channel" claim an
inspectable number rather than an assertion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import snr_to_sigma2

LN2 = math.log(2.0)

#: Smallest published gap, in dB, between an implemented antipodal-input
#: coding system and the antipodal-input mutual-information limit.
RECORD_GAP_DB = 0.0045

#: The published gain claim for the scheme audited here is internally
#: inconsistent by a factor of ten; both readings are carried verbatim.
CLAIMED_GAIN_DB = (0.052, 0.52)


@dataclass(frozen=True)
class DiscreteInput:
    """Finite channel input: constellation points and their priors."""

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128).ravel()
        if pts.size < 2:
            raise ValueError("need at least two constellation points")
        if not np.all(np.isfinite(pts.view(np.float64))):
            raise ValueError("constellation points must be finite")
        pr = np.asarray(self.probs, dtype=np.float64).ravel()
        if pr.shape != pts.shape:
            raise ValueError("probs must match points")
        if np.any(pr < 0) or abs(pr.sum() - 1.0) > 1e-12:
            raise ValueError("probs must be nonnegative and sum to 1 within 1e-12")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "probs", pr)

    @classmethod
    def uniform(cls, points) -> "DiscreteInput":
        points = np.asarray(points, dtype=np.complex128).ravel()
        return cls(points=points, probs=np.full(points.size, 1.0 / points.size))

    @classmethod
    def bpsk(cls, es: float = 1.0) -> "DiscreteInput":
        a = math.sqrt(es)
        return cls.uniform([a, -a])

    @classmethod
    def qpsk(cls, es: float = 1.0) -> "DiscreteInput":
        a = math.sqrt(es / 2.0)
        return cls.uniform([a + 1j * a, -a + 1j * a, -a - 1j * a, a - 1j * a])

    @classmethod
    def quadrature_pair(cls, es: float = 1.0) -> "DiscreteInput":
        """The rotation-keyed four-point set: +re, +im, -re, -im."""
        a = math.sqrt(es)
        return cls.uniform([a, 1j * a, -a, -1j * a])

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.points.imag == 0.0))


@dataclass(frozen=True)
class MiResult:
    """Mutual information estimate in bits per channel use.

    ``est_error`` is a 95% half-width for Monte-Carlo; for quadrature it is at
    least ``tol``, and above ``tol`` when the node cap stopped convergence.
    """

    value: float
    method: str
    est_error: float


def awgn_entropy(sigma2: float) -> float:
    """Differential entropy, in bits, of N(0, sigma2) in one real dimension."""
    if not (sigma2 > 0 and math.isfinite(sigma2)):
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    return math.log2(math.sqrt(2.0 * math.pi * math.e * sigma2))


# ---------------------------------------------------------------------------
# Gaussian-mixture entropies
# ---------------------------------------------------------------------------

def _log_mixture_1d(y: np.ndarray, points: np.ndarray, probs: np.ndarray,
                    sigma2: float) -> np.ndarray:
    expo = (
        np.log(probs)
        - (y[..., None] - points) ** 2 / (2.0 * sigma2)
        - 0.5 * math.log(2.0 * math.pi * sigma2)
    )
    return np.logaddexp.reduce(expo, axis=-1)


def _log_mixture_2d(y: np.ndarray, points: np.ndarray, probs: np.ndarray,
                    sigma2: float) -> np.ndarray:
    expo = (
        np.log(probs)
        - np.abs(y[..., None] - points) ** 2 / (2.0 * sigma2)
        - math.log(2.0 * math.pi * sigma2)
    )
    return np.logaddexp.reduce(expo, axis=-1)


def _entropy_1d(points: np.ndarray, probs: np.ndarray, sigma2: float,
                nodes: int) -> float:
    t, w = np.polynomial.hermite.hermgauss(nodes)
    offs = math.sqrt(2.0 * sigma2) * t
    acc = 0.0
    for pk, xk in zip(probs, points.real):
        logp = _log_mixture_1d(xk + offs, points.real, probs, sigma2)
        acc += pk * float(w @ logp)
    return -acc / math.sqrt(math.pi) / LN2


def _entropy_2d(points: np.ndarray, probs: np.ndarray, sigma2: float,
                nodes: int) -> float:
    t, w = np.polynomial.hermite.hermgauss(nodes)
    scale = math.sqrt(2.0 * sigma2)
    offs = scale * (t[:, None] + 1j * t[None, :])
    w2 = w[:, None] * w[None, :]
    acc = 0.0
    for pk, xk in zip(probs, points):
        logp = _log_mixture_2d(xk + offs, points, probs, sigma2)
        acc += pk * float(np.sum(w2 * logp))
    return -acc / math.pi / LN2


def _adaptive(f, tol: float, start: int = 64, cap: int = 256):
    """Double the node count until successive estimates differ by < tol or
    ``cap`` nodes are used (numpy's Gauss-Hermite weights are NaN beyond 256).
    Returns (last estimate, last change)."""
    nodes = start
    prev = f(nodes)
    while nodes < cap:
        nodes *= 2
        cur = f(nodes)
        delta = abs(cur - prev)
        if delta < tol:
            break
        prev = cur
    return cur, delta


def _mixture_entropy(points, probs, sigma2, *, real: bool, tol: float):
    if real:
        return _adaptive(lambda k: _entropy_1d(points, probs, sigma2, k), tol)
    return _adaptive(lambda k: _entropy_2d(points, probs, sigma2, k), tol)


# ---------------------------------------------------------------------------
# Mutual information
# ---------------------------------------------------------------------------

def mi_awgn(inp: DiscreteInput, sigma2: float, method: str = "quadrature", *,
            tol: float = 1e-6, mc_samples: int = 200_000, seed: int = 0) -> MiResult:
    """I(X;Y) in bits per channel use for a finite input over AWGN.

    ``sigma2`` is per real dimension.  Real-axis inputs are integrated on the
    line against one-dimensional noise entropy; otherwise in the plane
    against the two-dimensional noise entropy.
    """
    if not (sigma2 > 0 and math.isfinite(sigma2)):
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    real = inp.is_real
    if method == "quadrature":
        h_y, err = _mixture_entropy(inp.points, inp.probs, sigma2, real=real, tol=tol)
        h_n = awgn_entropy(sigma2) * (1 if real else 2)
        return MiResult(value=h_y - h_n, method="quadrature", est_error=max(err, tol))
    if method == "monte_carlo":
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        idx = rng.choice(inp.points.size, size=mc_samples, p=inp.probs)
        x = inp.points[idx]
        if real:
            y = x.real + rng.standard_normal(mc_samples) * math.sqrt(sigma2)
            log_cond = (
                -((y - x.real) ** 2) / (2.0 * sigma2)
                - 0.5 * math.log(2.0 * math.pi * sigma2)
            )
            log_marg = _log_mixture_1d(y, inp.points.real, inp.probs, sigma2)
        else:
            noise = rng.standard_normal(2 * mc_samples) * math.sqrt(sigma2)
            y = x + noise[0::2] + 1j * noise[1::2]
            log_cond = (
                -np.abs(y - x) ** 2 / (2.0 * sigma2)
                - math.log(2.0 * math.pi * sigma2)
            )
            log_marg = _log_mixture_2d(y, inp.points, inp.probs, sigma2)
        samples = (log_cond - log_marg) / LN2
        half = 1.96 * float(np.std(samples, ddof=1)) / math.sqrt(mc_samples)
        return MiResult(value=float(np.mean(samples)), method="monte_carlo",
                        est_error=half)
    raise ValueError(f"unknown method {method!r}; use 'quadrature' or 'monte_carlo'")


def mi_binary_label(inp: DiscreteInput, labels, sigma2: float,
                    method: str = "quadrature", *, tol: float = 1e-6,
                    mc_samples: int = 200_000, seed: int = 0) -> MiResult:
    """I(B;Y) where B is a binary label attached to each constellation point.

    This is the information available to a receiver that must decide the
    label before knowing anything else; the remaining points inside a label
    class act as self-interference.
    """
    if not (sigma2 > 0 and math.isfinite(sigma2)):
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")
    labels = np.asarray(labels, dtype=np.uint8).ravel()
    if labels.shape != inp.points.shape or not set(np.unique(labels)) <= {0, 1}:
        raise ValueError("labels must be one 0/1 value per point")
    if len(set(np.unique(labels))) < 2:
        raise ValueError("both label values must occur")
    real = inp.is_real
    p_label = np.array([inp.probs[labels == b].sum() for b in (0, 1)])

    if method == "quadrature":
        h_y, err = _mixture_entropy(inp.points, inp.probs, sigma2, real=real, tol=tol)
        h_cond = 0.0
        err_total = err
        for b in (0, 1):
            sel = labels == b
            h_b, err_b = _mixture_entropy(
                inp.points[sel], inp.probs[sel] / p_label[b], sigma2,
                real=real, tol=tol,
            )
            h_cond += p_label[b] * h_b
            err_total += p_label[b] * err_b
        return MiResult(value=h_y - h_cond, method="quadrature",
                        est_error=max(err_total, tol))
    if method == "monte_carlo":
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        idx = rng.choice(inp.points.size, size=mc_samples, p=inp.probs)
        x = inp.points[idx]
        b = labels[idx]
        log_mix = _log_mixture_1d if real else _log_mixture_2d
        if real:
            y = x.real + rng.standard_normal(mc_samples) * math.sqrt(sigma2)
        else:
            noise = rng.standard_normal(2 * mc_samples) * math.sqrt(sigma2)
            y = x + noise[0::2] + 1j * noise[1::2]
        pts = inp.points.real if real else inp.points
        log_marg = log_mix(y, pts, inp.probs, sigma2)
        log_cond = np.empty(mc_samples)
        for lab in (0, 1):
            sel_pts = labels == lab
            rows = b == lab
            log_cond[rows] = log_mix(
                y[rows], pts[sel_pts], inp.probs[sel_pts] / p_label[lab], sigma2
            )
        samples = (log_cond - log_marg) / LN2
        half = 1.96 * float(np.std(samples, ddof=1)) / math.sqrt(mc_samples)
        return MiResult(value=float(np.mean(samples)), method="monte_carlo",
                        est_error=half)
    raise ValueError(f"unknown method {method!r}; use 'quadrature' or 'monte_carlo'")


# ---------------------------------------------------------------------------
# Named curves (symbol SNR in dB, complex-N0 convention)
# ---------------------------------------------------------------------------

def mi_bpsk(es_n0_db: float, es: float = 1.0, **kw) -> MiResult:
    sigma2 = snr_to_sigma2(es_n0_db, es)
    return mi_awgn(DiscreteInput.bpsk(es), sigma2, **kw)


def mi_qpsk(es_n0_db: float, es: float = 1.0, **kw) -> MiResult:
    sigma2 = snr_to_sigma2(es_n0_db, es)
    return mi_awgn(DiscreteInput.qpsk(es), sigma2, **kw)


def mi_axis(es_n0_db: float, es: float = 1.0, **kw) -> MiResult:
    """Information carried by the axis bit of the four-point rotated set."""
    sigma2 = snr_to_sigma2(es_n0_db, es)
    return mi_binary_label(
        DiscreteInput.quadrature_pair(es), [0, 1, 0, 1], sigma2, **kw
    )


def mi_joint_4point(es_n0_db: float, es: float = 1.0, **kw) -> MiResult:
    """Joint information of the full four-point rotated set (both bits)."""
    sigma2 = snr_to_sigma2(es_n0_db, es)
    return mi_awgn(DiscreteInput.quadrature_pair(es), sigma2, **kw)


def composite_abr(es1_n0_db: float, es2_n0_db: float, es: float = 1.0,
                  **kw) -> float:
    """Polarity-stream MI plus axis-stream MI, in bits per channel use.

    Evaluates the sum-of-separated-streams rate at (possibly different)
    per-stream SNRs.  With equal SNRs this is, by the chain rule, exactly
    the joint four-point MI; reporting it next to the joint value turns the
    claimed surplus into a measurable difference.
    """
    return mi_bpsk(es1_n0_db, es, **kw).value + mi_axis(es2_n0_db, es, **kw).value


@dataclass(frozen=True)
class GapRecord:
    """Recomputed distance to the antipodal-input limit for a measured gain.

    ``gap_db = RECORD_GAP_DB - measured_gain_db``: the published-record gap
    minus whatever gain the harness actually measured.  The claimed gains and
    the gap derived from them are carried for comparison only; none of these
    numbers is a statement about channel capacity.
    """

    measured_gain_db: float
    gap_db: float
    record_gap_db: float
    claimed_gain_db: tuple
    claimed_gap_db: tuple
    note: str = "extrapolated bookkeeping, not a capacity statement"


def gap_report(measured_gain_db: float) -> GapRecord:
    return GapRecord(
        measured_gain_db=measured_gain_db,
        gap_db=RECORD_GAP_DB - measured_gain_db,
        record_gap_db=RECORD_GAP_DB,
        claimed_gain_db=CLAIMED_GAIN_DB,
        claimed_gap_db=tuple(RECORD_GAP_DB - g for g in CLAIMED_GAIN_DB),
    )
