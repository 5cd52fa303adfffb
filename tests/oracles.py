"""Independent reference implementations used to check the package.

Most of these avoid the package's own numerics: plain formulas,
exhaustive enumeration, or scipy quadrature.  The ``*_reference`` functions
are the definitions the package's fast kernels must match bit for bit, one
per kernel: an edge-list decoder with ``np.add.reduceat`` sums, a new
generator per frame, elimination on one byte per bit, and mixtures and
LLRs as a ``np.logaddexp.reduce`` over the point axis.  A rewrite is
checked against the definitional reference; a snapshot of replaced code
stays only while it is the one check of some input.

:func:`mc_info_reference` is the Monte-Carlo estimate of mutual
information, a seeded sampling of the mixture densities that the
package's Gauss-Hermite values must agree with within both error bars.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import erfc

from dmmsim import linear_code, modem
from dmmsim.channel import block_rng, noise_block
from dmmsim.linear_code import RankDeficiencyError
from dmmsim.receiver import DATA_STREAM, _frame_batch


def q_function(x):
    """Gaussian tail probability."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))


def bpsk_ber_theory(eb_n0_db):
    """Uncoded antipodal-signalling bit error rate over AWGN."""
    return q_function(np.sqrt(2.0 * 10.0 ** (np.asarray(eb_n0_db, dtype=float) / 10.0)))


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2).  Accumulates in float64 (exact below 2^53).

    The package's encode product before the table encode, kept verbatim.
    """
    prod = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
    return (prod % 2.0).astype(np.uint8)


def gf2_rref_reference(a: np.ndarray):
    """Reduced row echelon form over GF(2).

    Returns ``(rref, pivot_cols)``.  Pivoting takes the first nonzero column
    left to right, so the result is deterministic.

    The package's elimination on uint8 rows, one bit per byte, before it
    moved to packed words; kept verbatim but for its name.
    """
    r = np.array(a, dtype=np.uint8, copy=True) & 1
    rows, cols = r.shape
    pivots = []
    rank = 0
    for col in range(cols):
        hot = np.nonzero(r[rank:, col])[0]
        if hot.size == 0:
            continue
        pivot = rank + hot[0]
        if pivot != rank:
            r[[rank, pivot]] = r[[pivot, rank]]
        others = np.nonzero(r[:, col])[0]
        others = others[others != rank]
        if others.size:
            r[others] ^= r[rank]
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    return r, np.array(pivots, dtype=np.int64)


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


def generator_from_parity_reference(h: np.ndarray, name: str = ""):
    """Systematic (up to column choice) generator for a parity-check matrix.

    Gaussian elimination over GF(2), pivoting on the first nonzero column.
    The non-pivot columns carry the info bits.  Raises RankDeficiencyError
    when the rows of H are dependent.

    This is the function the package used to build a code from H before
    ``BinaryCode`` derived its generator itself, kept verbatim but for its
    return value: (generator, parity, info_positions), the arrays it handed
    to the code object.
    """
    h = np.asarray(h, dtype=np.uint8) & 1
    m, n = h.shape
    rref, pivots = gf2_rref_reference(h)
    if len(pivots) < m:
        raise RankDeficiencyError(achieved_rank=len(pivots), rows=m)
    free = np.setdiff1d(np.arange(n), pivots)
    k = free.size
    g = np.zeros((k, n), dtype=np.uint8)
    g[np.arange(k), free] = 1
    # codeword constraint: bits at pivot columns equal rref[:, free] @ info
    g[:, pivots] = rref[:, free].T
    return g, h, free


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


def paired_batch_reference(code1, code2, cfg, indices, max_iter):
    """Genie and BPSK LLRs and error counts of one batch of frames.

    The genie/BPSK pairing as a second copy of the receiver, before both of
    its sides became calls of ``receiver._receive_batch``.
    """
    (c1, c2), n = _frame_batch(cfg, indices, code1.n, (code1.k, code2.k))
    v1 = linear_code.encode(code1, c1)
    v2 = linear_code.encode(code2, c2)
    beta = modem.beta_from_bits(v2)

    y = modem.dmm_map(v1, v2, cfg.es) + n
    llr_genie = modem.derotate_and_llr_v1(y, beta, cfg.es, cfg.sigma2)
    y_bpsk = modem.map_bpsk(v1, cfg.es) + modem.rotate(n, -beta)
    llr_bpsk = modem.derotate_and_llr_v1(y_bpsk, 0.0, cfg.es, cfg.sigma2)

    g_hat, _, _ = linear_code.decode_soft_batch(code1, llr_genie, max_iter=max_iter)
    b_hat, _, _ = linear_code.decode_soft_batch(code1, llr_bpsk, max_iter=max_iter)
    return (llr_genie, llr_bpsk, np.count_nonzero(g_hat != c1, axis=1),
            np.count_nonzero(b_hat != c1, axis=1))


def realistic_batch_reference(code1, code2, cfg, indices, max_iter):
    """Realistic stream-1, stream-2 and rotation errors of one batch of frames.

    The realistic receiver by its definition: decode stream 2, re-encode
    the decoded word, derotate every frame by the rebuilt rotations and
    decode stream 1 on all of them.
    """
    (c1, c2), n = _frame_batch(cfg, indices, code1.n, (code1.k, code2.k))
    v2 = linear_code.encode(code2, c2)
    y = modem.dmm_map(linear_code.encode(code1, c1), v2, cfg.es) + n
    llr2 = modem.llr_v2(y, modem.Constellation.quadrature_pair(cfg.es), cfg.sigma2)
    c2_hat, _, _ = linear_code.decode_soft_batch(code2, llr2, max_iter=max_iter)
    v2_hat = linear_code.encode(code2, c2_hat)
    llr1 = modem.derotate_and_llr_v1(y, modem.beta_from_bits(v2_hat), cfg.es, cfg.sigma2)
    c1_hat, _, _ = linear_code.decode_soft_batch(code1, llr1, max_iter=max_iter)
    return (np.count_nonzero(c1_hat != c1, axis=1), np.count_nonzero(c2_hat != c2, axis=1),
            np.count_nonzero(v2_hat != v2, axis=1))


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


def entropy_reference(points, probs, sigma2, nodes):
    """H(Y) in bits of the Gaussian mixture by ``nodes``-point Gauss-Hermite
    quadrature around each point."""
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
    prev = entropy_reference(points, probs, sigma2, nodes)
    while nodes < 256:
        nodes *= 2
        cur = entropy_reference(points, probs, sigma2, nodes)
        delta = abs(cur - prev)
        if delta < tol:
            break
        prev = cur
    return cur, delta


def mc_info_reference(points, classes, sigma2, samples, seed):
    """I(C;Y) in bits for the labels ``classes`` (0, 1, ...) of equally likely
    ``points`` (real points mean the line), by seeded Monte-Carlo sampling:
    the mean of ln p(y|c) - ln p(y) over the samples, a class's density
    being the mixture over its own points.  Returns (value clamped to
    [0, log2 classes], 95% half-width).

    Independent of the package's quadrature: it checks the Gauss-Hermite
    values within their error bounds.  The draw is one Philox stream:
    ``choice`` with explicit equal weights, then the normals, one per
    sample on the line and interleaved re/im pairs in the plane.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    idx = rng.choice(points.size, size=samples, p=np.full(points.size, 1.0 / points.size))
    if _dim(points) == 1:
        y = points[idx] + rng.standard_normal(samples) * math.sqrt(sigma2)
    else:
        noise = rng.standard_normal(2 * samples) * math.sqrt(sigma2)
        y = points[idx] + noise[0::2] + 1j * noise[1::2]
    drawn = classes[idx]
    log_cond = np.empty(samples)
    size = int(classes.max()) + 1
    for c in range(size):
        own, rows = points[classes == c], drawn == c
        log_cond[rows] = log_mixture_reference(y[rows], own, np.full(own.size, 1.0 / own.size),
                                               sigma2)
    log_y = log_mixture_reference(y, points, np.full(points.size, 1.0 / points.size), sigma2)
    bits = (log_cond - log_y) / math.log(2.0)
    half = 1.96 * float(np.std(bits, ddof=1)) / math.sqrt(samples)
    return float(min(max(np.mean(bits), 0.0), math.log2(size))), half


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
