"""Independent reference implementations used to check the package.

Most of these avoid the package's own numerics: plain formulas,
exhaustive enumeration, or scipy quadrature.  The ``*_reference`` functions
are earlier versions of package code, kept verbatim so that a faster
rewrite can be checked bit for bit.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import erfc

from dmmsim.channel import block_rng, noise_block
from dmmsim.receiver import DATA_STREAM


def q_function(x):
    """Gaussian tail probability."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def bpsk_ber_theory(eb_n0_db):
    """Uncoded antipodal-signalling bit error rate over AWGN."""
    return q_function(np.sqrt(2.0 * 10.0 ** (np.asarray(eb_n0_db, dtype=float) / 10.0)))


def gf2_encode_reference(generator, info):
    """Plain-python GF(2) vector-matrix product."""
    k, n = len(generator), len(generator[0])
    out = [0] * n
    for j in range(n):
        s = 0
        for i in range(k):
            s ^= int(info[i]) & int(generator[i][j])
        out[j] = s
    return np.array(out, dtype=np.uint8)


def all_codewords(code):
    """Every codeword of a small code, indexed by the integer info word."""
    k = code.k
    infos = ((np.arange(2 ** k)[:, None] >> np.arange(k)[None, :]) & 1).astype(np.uint8)
    cws = (infos.astype(np.float64) @ code.generator.astype(np.float64)) % 2
    return infos, cws.astype(np.uint8)


def ml_decode_batch(code, llrs):
    """Exhaustive maximum-likelihood decoding of LLR rows.

    The ML codeword maximizes sum_m (1 - 2 v_m) * llr_m; ties resolve to the
    lowest info index, which matches how argmax breaks ties.
    """
    infos, cws = all_codewords(code)
    signs = 1.0 - 2.0 * cws.astype(np.float64)
    scores = np.asarray(llrs, dtype=np.float64) @ signs.T
    best = np.argmax(scores, axis=-1)
    return infos[best], cws[best]


def bp_reference(parity, llr, max_iter):
    """Sum-product decoding on an edge list, with ``np.add.reduceat`` sums.

    This is the decoder the package shipped before its fixed-degree
    layout, kept as the reference the package must match bit for bit.
    Edges are variable-major; a stable permutation regroups them
    check-major.  Returns (hard codewords, converged flags, iteration
    counts) for the rows of ``llr``.
    """
    llr_max, tanh_cap = 30.0, 1.0 - 1e-13
    m, n = parity.shape
    check_of, var_of = np.nonzero(parity)
    order = np.lexsort((check_of, var_of))  # variable-major
    var_of_edge = var_of[order]
    check_of_edge = check_of[order]
    var_starts = np.concatenate(([0], np.cumsum(np.bincount(var_of_edge, minlength=n))[:-1]))
    perm_to_check = np.argsort(check_of_edge, kind="stable")
    perm_from_check = np.argsort(perm_to_check, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(check_of_edge, minlength=m))[:-1]))
    var_of_edge_c = var_of_edge[perm_to_check]
    edge_check = check_of_edge[perm_to_check]

    b = llr.shape[0]
    bits = np.zeros((b, n), dtype=np.uint8)
    converged = np.zeros(b, dtype=bool)
    iterations = np.full(b, max_iter, dtype=np.int64)
    rows = np.arange(b)
    base = np.clip(llr, -llr_max, llr_max)
    lq = np.clip(base[:, var_of_edge], -llr_max, llr_max)

    for it in range(1, max_iter + 1):
        t = np.tanh(lq[:, perm_to_check] / 2.0)
        zero = t == 0.0
        log_abs = np.log(np.where(zero, 1.0, np.abs(t)))
        neg = (t < 0.0).astype(np.int64)

        log_sum = np.add.reduceat(log_abs, starts, axis=1)[:, edge_check]
        zero_sum = np.add.reduceat(zero.astype(np.int64), starts, axis=1)[:, edge_check]
        neg_sum = np.add.reduceat(neg, starts, axis=1)[:, edge_check]

        ext_prod = np.exp(log_sum - log_abs)
        ext_prod[(zero_sum - zero) > 0] = 0.0
        ext_prod[((neg_sum - neg) % 2) == 1] *= -1.0
        lr_c = 2.0 * np.arctanh(np.clip(ext_prod, -tanh_cap, tanh_cap))
        lr = lr_c[:, perm_from_check]

        post = base + np.add.reduceat(lr, var_starts, axis=1)
        lq = np.clip(post[:, var_of_edge] - lr, -llr_max, llr_max)

        new_bits = (post < 0).astype(np.uint8)
        par = np.add.reduceat(new_bits[:, var_of_edge_c].astype(np.int64), starts, axis=1)
        ok = ~np.any(par % 2, axis=1) & np.any(post != 0.0, axis=1)

        bits[rows] = new_bits
        if np.any(ok):
            done = rows[ok]
            iterations[done] = it
            converged[done] = True
            keep = ~ok
            if not np.any(keep):
                break
            rows = rows[keep]
            base = base[keep]
            lq = lq[keep]

    return bits, converged, iterations


def frame_batch_reference(cfg, indices, n, ks):
    """Info words and channel noise of a batch of frames, keyed by index.

    The receiver's frame generator before it keyed whole batches at once:
    a new ``block_rng`` per frame for the data and ``noise_block`` for the
    noise.  Returns (list of (B, k) uint8 arrays, (B, n) complex noise).
    """
    words = [np.empty((indices.size, k), dtype=np.uint8) for k in ks]
    noise = np.empty((indices.size, n), dtype=np.complex128)
    for j, i in enumerate(indices):
        rng = block_rng(cfg.seed, int(i), stream=DATA_STREAM)
        for w in words:
            w[j] = rng.integers(0, 2, size=w.shape[1], dtype=np.uint8)
        noise[j] = noise_block(cfg, int(i), n)
    return words, noise


def llr_v2_bruteforce(y, points, labels, sigma2):
    """Axis-bit LLR by direct evaluation of the four Gaussian likelihoods."""
    y = complex(y)
    num = sum(
        math.exp(-abs(y - p) ** 2 / (2.0 * sigma2))
        for p, lab in zip(points, labels) if lab == 0
    )
    den = sum(
        math.exp(-abs(y - p) ** 2 / (2.0 * sigma2))
        for p, lab in zip(points, labels) if lab == 1
    )
    return math.log(num / den)


def nearest_point_labels(y, points, labels):
    """Label of the nearest point to each sample; exact ties go to the
    earliest point in the listed order."""
    y = np.asarray(y, dtype=np.complex128)
    d2 = np.abs(y[..., None] - np.asarray(points, dtype=np.complex128)) ** 2
    return np.asarray(labels)[np.argmin(d2, axis=-1)]


def llr_v2_reference(y, points, labels, sigma2):
    """Axis-bit LLRs as the package computed them before its column-chained
    log-sum-exp: a ``np.logaddexp.reduce`` over boolean-masked copies of the
    per-point exponents.  ``labels`` is the axis label of each point."""
    y = np.asarray(y, dtype=np.complex128)
    labels = np.asarray(labels)
    expo = -np.abs(y[..., None] - points) ** 2 / (2.0 * sigma2)
    num = np.logaddexp.reduce(expo[..., labels == 0], axis=-1)
    den = np.logaddexp.reduce(expo[..., labels == 1], axis=-1)
    return num - den


def _dim(points):
    return 1 if points.dtype.kind == "f" else 2


def log_mixture_reference(y, points, probs, sigma2):
    """Log density of the received point under the Gaussian mixture over
    ``points`` (real points mean the line), with a ``np.logaddexp.reduce``
    over the points.

    This and :func:`mixture_entropy_reference` are the mixture code the
    package shipped before it cached its Gauss-Hermite tables and chained
    its log-sum-exp over columns; the package must match them bit for bit.
    """
    expo = (
        np.log(probs)
        - np.abs(y[..., None] - points) ** 2 / (2.0 * sigma2)
        - 0.5 * _dim(points) * math.log(2.0 * math.pi * sigma2)
    )
    return np.logaddexp.reduce(expo, axis=-1)


def _entropy_reference(points, probs, sigma2, nodes):
    t, w = np.polynomial.hermite.hermgauss(nodes)
    scale = math.sqrt(2.0 * sigma2)
    if _dim(points) == 1:
        offs = scale * t
        weigh, norm = (lambda logp: w @ logp), math.sqrt(math.pi)
    else:
        offs = scale * (t[:, None] + 1j * t[None, :])
        w2 = w[:, None] * w[None, :]
        weigh, norm = (lambda logp: np.sum(w2 * logp)), math.pi
    acc = 0.0
    for pk, xk in zip(probs, points):
        acc += pk * float(weigh(log_mixture_reference(xk + offs, points, probs, sigma2)))
    return -acc / norm / math.log(2.0)


def mixture_entropy_reference(points, probs, sigma2, tol):
    """H(Y) in bits of the Gaussian mixture by adaptive Gauss-Hermite
    quadrature (a fresh ``hermgauss`` table per evaluation): the node count
    doubles from 64 until successive estimates differ by < tol or 256 nodes
    are used.  Returns (last estimate, last change)."""
    nodes = 64
    prev = _entropy_reference(points, probs, sigma2, nodes)
    while nodes < 256:
        nodes *= 2
        cur = _entropy_reference(points, probs, sigma2, nodes)
        delta = abs(cur - prev)
        if delta < tol:
            break
        prev = cur
    return cur, delta


def mi_bpsk_quad_oracle(es, sigma2):
    """BPSK mutual information by scipy adaptive quadrature (bits/use).

    Independent of the package's Gauss-Hermite path: integrates the mixture
    entropy with scipy.integrate.quad on the real line.
    """
    a = math.sqrt(es)

    def mix_pdf(y):
        c = 1.0 / math.sqrt(2.0 * math.pi * sigma2)
        return 0.5 * c * (
            math.exp(-((y - a) ** 2) / (2.0 * sigma2))
            + math.exp(-((y + a) ** 2) / (2.0 * sigma2))
        )

    def integrand(y):
        p = mix_pdf(y)
        return -p * math.log2(p) if p > 0 else 0.0

    lim = a + 12.0 * math.sqrt(sigma2)
    h_y, _ = integrate.quad(integrand, -lim, lim, limit=400)
    h_n = math.log2(math.sqrt(2.0 * math.pi * math.e * sigma2))
    return h_y - h_n


def two_proportion_z(k1, n1, k2, n2):
    """Two-proportion z statistic (pooled)."""
    p1, p2 = k1 / n1, k2 / n2
    pool = (k1 + k2) / (n1 + n2)
    se = math.sqrt(pool * (1.0 - pool) * (1.0 / n1 + 1.0 / n2))
    if se == 0.0:
        return 0.0
    return (p1 - p2) / se
