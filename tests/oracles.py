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

from dmmsim import linear_code, modem
from dmmsim.channel import block_rng, frame_keys, noise_block
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


def frame_batch_rekeyed_reference(cfg, indices, n, ks):
    """Info words and channel noise of a batch of frames, keyed by index.

    The receiver's frame generator before it drew a frame's info words from
    one ``random_raw`` call and its noise into one batch buffer: per frame
    one ``integers`` call per word and a per-row noise assembly, on one
    re-keyed generator.  Returns (list of (B, k) uint8 arrays, (B, n)
    complex noise).
    """
    keys = frame_keys(cfg.seed, indices)
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    key = {"counter": np.zeros(4, dtype=np.uint64), "key": None}
    state = {"bit_generator": "Philox", "state": key,
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,  # empty
             "has_uint32": 0, "uinteger": 0}
    words = [np.empty((indices.size, k), dtype=np.uint8) for k in ks]
    noise = np.empty((indices.size, n), dtype=np.complex128)
    z = np.empty(2 * n)  # one reused row: a (B, 2n) buffer costs memory, not time
    scale = math.sqrt(cfg.sigma2)
    for j in range(indices.size):
        key["key"] = keys[j, DATA_STREAM]
        bitgen.state = state
        for w in words:
            w[j] = rng.integers(0, 2, size=w.shape[1], dtype=np.uint8)
        key["key"] = keys[j, 0]
        bitgen.state = state
        rng.standard_normal(out=z)
        z *= scale
        noise[j] = z[0::2] + 1j * z[1::2]
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


# ---------------------------------------------------------------------------
# Short-axis-last kernels: BP messages check-major, mixture exponents
# point-last.  The package's code before it moved the short axis first, kept
# verbatim but for its names; the package must match them bit for bit.
# ---------------------------------------------------------------------------

class BpGraphCheckMajorReference:
    """Fixed-degree, check-major view of a parity-check matrix for BP.

    Edge slots form an (m, dc) grid, dc the largest check degree: row i holds
    the variables of check i in ascending order, padded at the end.  The
    variable side is an (n, dv) grid of slot indices, dv the largest variable
    degree, each row in ascending check order and padded at the end with slot
    ``m * dc``, one past the grid.  ``parity`` is a uint8 0/1 matrix.  All
    arrays are immutable after construction.
    """

    def __init__(self, parity: np.ndarray):
        m, n = parity.shape
        # check-major, ascending variable; a 0/1 byte is a bool, which numpy
        # scans far faster than uint8
        check_of, var_of = np.divmod(np.flatnonzero(parity.view(bool)), n)
        deg_v = np.bincount(var_of, minlength=n)
        if np.any(deg_v == 0):
            raise ValueError("parity-check matrix has an unconnected column")
        deg_c = np.bincount(check_of, minlength=m)
        if np.any(deg_c == 0):
            raise ValueError("parity-check matrix has an empty row")
        dc, dv = int(deg_c.max()), int(deg_v.max())
        self.check_shape = (m, dc)
        self.var_shape = (n, dv)

        edge = np.arange(check_of.size)
        slot = check_of * dc + edge - (np.cumsum(deg_c) - deg_c)[check_of]
        self.var_of_slot = np.zeros(m * dc, dtype=np.intp)
        self.var_of_slot[slot] = var_of
        # padded check slots, or None for a code with one check degree
        self.pad_slots = None
        if slot.size < m * dc:
            self.pad_slots = np.ones(m * dc, dtype=bool)
            self.pad_slots[slot] = False

        by_var = np.argsort(var_of, kind="stable")  # ascending check per variable
        v = var_of[by_var]
        self.slot_of_var = np.full(n * dv, m * dc, dtype=np.intp)
        self.slot_of_var[v * dv + edge - (np.cumsum(deg_v) - deg_v)[v]] = slot[by_var]

    def annihilates(self, generator: np.ndarray) -> bool:
        """Whether every row of ``generator`` satisfies every check (G H^T = 0).

        Each check XORs the bit-packed generator columns of its variables;
        padded slots contribute nothing.
        """
        m, dc = self.check_shape
        cols = np.packbits(generator.T, axis=1)  # (n, ceil(k/8))
        at_slot = cols[self.var_of_slot]
        if self.pad_slots is not None:
            at_slot[self.pad_slots] = 0
        return not np.bitwise_xor.reduce(at_slot.reshape(m, dc, -1), axis=1).any()


def degree_sum_last_axis_reference(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, associated as ``np.add.reduceat`` does: the
    first term plus numpy's sum of the rest, which adds fewer than eight
    terms left to right (spelled out below, as numpy is slow on a short
    axis) and more in its pairwise order."""
    if 2 < x.shape[-1] <= 8:
        rest = x[..., 1] + x[..., 2]
        for j in range(3, x.shape[-1]):
            rest += x[..., j]
        return x[..., 0] + rest
    return x[..., 0] + x[..., 1:].sum(axis=-1)


def fold_last_axis_reference(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc`` chained left to right along the last axis (XOR for a parity,
    multiply for a product of signs); numpy's ``reduce`` is slow on a short
    axis."""
    acc = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        ufunc(acc, x[..., j], out=acc)
    return acc


def bp_batch_check_major_reference(graph, llr: np.ndarray, max_iter: int):
    """Sum-product decoding of a batch of LLR rows.

    Check updates use the tanh product in log-magnitude/sign form with
    explicit zero counting, so exact-zero messages (erasures) propagate as
    exact zeros instead of being floored to small values.  A frame converges
    when its hard decision satisfies every check and its posterior carries
    any information at all; a total erasure therefore reports max-iter.

    Returns (hard codewords, converged flags, iteration counts).
    """
    LLR_MAX, _TANH_CAP = linear_code.LLR_MAX, linear_code._TANH_CAP
    _degree_sum, _fold = degree_sum_last_axis_reference, fold_last_axis_reference
    b = llr.shape[0]
    m, dc = graph.check_shape
    n, dv = graph.var_shape
    slots = m * dc

    bits = np.zeros((b, n), dtype=np.uint8)
    converged = np.zeros(b, dtype=bool)
    iterations = np.full(b, max_iter, dtype=np.int64)

    # rows still iterating; converged rows are dropped from the working set
    rows = np.arange(b)
    base = np.clip(llr, -LLR_MAX, LLR_MAX)
    lq = np.clip(base[:, graph.var_of_slot], -LLR_MAX, LLR_MAX)

    for it in range(1, max_iter + 1):
        # check update on the (rows, m, dc) grid, in place where a message
        # is not read again
        t = np.tanh(np.divide(lq, 2.0, out=lq), out=lq)
        if graph.pad_slots is not None:
            t[:, graph.pad_slots] = 1.0  # log-magnitude 0, not zero, not negative
        t = t.reshape(-1, m, dc)
        zero = t == 0.0
        erasures = zero.any()  # exact-zero messages are rare; skip their bookkeeping
        # each edge's sign as -1.0 or 1.0; +-0.0 counts as non-negative
        sgn = np.copysign(1.0, t)
        mag = np.abs(t, out=t)
        if erasures:
            sgn[zero] = 1.0
            mag = np.where(zero, 1.0, mag)
        log_abs = np.log(mag, out=mag)
        ext = np.exp(np.subtract(_degree_sum(log_abs)[..., None], log_abs, out=log_abs),
                     out=log_abs)
        if erasures:  # another edge of the check is an erasure
            ext = np.where(np.count_nonzero(zero, axis=-1)[..., None] > zero, 0.0, ext)
        # the sign of the check's other edges: the edge's own sign times the
        # check's product; every factor is exactly +-1.0, so an odd sign
        # turns 0.0 into -0.0 just as a multiply by -1.0 does
        sgn *= _fold(np.multiply, sgn)[..., None]
        ext *= sgn
        del sgn  # freed before the messages are allocated: no extra peak memory
        ext = np.arctanh(np.clip(ext, -_TANH_CAP, _TANH_CAP, out=ext), out=ext)
        # one trailing 0.0 column: the message of every padded variable slot
        lr = np.empty((rows.size, slots + 1))
        lr[:, slots] = 0.0
        np.multiply(2.0, ext.reshape(-1, slots), out=lr[:, :slots])

        # variable update and posterior; the syndrome reads the posterior
        # gathered to the check slots
        post = base + _degree_sum(np.take(lr, graph.slot_of_var, axis=1).reshape(-1, n, dv))
        lq = np.take(post, graph.var_of_slot, axis=1)
        on_check = lq < 0
        if graph.pad_slots is not None:
            on_check &= ~graph.pad_slots
        syndrome = _fold(np.bitwise_xor, on_check.reshape(-1, m, dc))
        ok = ~np.any(syndrome, axis=1) & np.any(post != 0.0, axis=1)
        lq -= lr[:, :slots]
        np.clip(lq, -LLR_MAX, LLR_MAX, out=lq)

        bits[rows] = post < 0
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


def log_sum_exp_last_axis_reference(x: np.ndarray, cols) -> np.ndarray:
    """ln of the sum of exp(x[..., j]) over the columns ``cols`` of a short
    last axis.

    A left-to-right chain of ``np.logaddexp`` over column views: bitwise
    ``np.logaddexp.reduce(x[..., cols], axis=-1)`` (a ufunc reduce applies
    its operator in order, and ``logaddexp`` is symmetric in its arguments),
    without the copy and without the reduce's slow loop over a 2- or 4-wide
    axis.  The reduce starts from the identity, and ``logaddexp(-inf, v)``
    is ``v + 0.0``, which turns -0.0 into 0.0; so does the chain.
    """
    if len(cols) == 0:
        return np.full(x.shape[:-1], -np.inf)  # the reduce's identity
    acc = x[..., cols[0]] + 0.0
    for j in cols[1:]:
        acc = np.logaddexp(acc, x[..., j])
    return acc


def log_mixture_last_axis_reference(y: np.ndarray, points: np.ndarray, probs: np.ndarray,
                                    sigma2: float) -> np.ndarray:
    """Log density of the received point; real ``points`` mean the line."""
    expo = (
        np.log(probs)
        - np.abs(y[..., None] - points) ** 2 / (2.0 * sigma2)
        - 0.5 * _dim(points) * math.log(2.0 * math.pi * sigma2)
    )
    return log_sum_exp_last_axis_reference(expo, range(points.size))


# ---------------------------------------------------------------------------
# The slot-major decoder before its check-side sign step became a bool
# parity: each edge's sign as a copysign +-1.0, the check's product of signs
# as a multiply fold.  The package's code, kept verbatim but for its name
# and its degree-axis helpers, which are the last-axis references above;
# the package must match it bit for bit.
# ---------------------------------------------------------------------------

def bp_batch_copysign_reference(graph, llr: np.ndarray, max_iter: int):
    """Sum-product decoding of a batch of LLR rows.

    Check updates use the tanh product in log-magnitude/sign form with
    explicit zero counting, so exact-zero messages (erasures) propagate as
    exact zeros instead of being floored to small values.  A frame converges
    when its hard decision satisfies every check and its posterior carries
    any information at all; a total erasure therefore reports max-iter.

    Returns (hard codewords, converged flags, iteration counts).
    """
    LLR_MAX, _TANH_CAP = linear_code.LLR_MAX, linear_code._TANH_CAP
    # the package's degree-axis sum and fold of the time, spelled with the
    # last-axis references on the degree axis moved last
    def _degree_sum(x):
        return degree_sum_last_axis_reference(np.ascontiguousarray(np.moveaxis(x, 1, -1)))

    def _fold(ufunc, x):
        return fold_last_axis_reference(ufunc, np.moveaxis(x, 1, -1))

    b = llr.shape[0]
    slots = graph.var_of_slot.size

    bits = np.zeros(llr.shape, dtype=np.uint8)
    converged = np.zeros(b, dtype=bool)
    iterations = np.full(b, max_iter, dtype=np.int64)

    # rows still iterating; converged rows are dropped from the working set
    rows = np.arange(b)
    base = np.clip(llr, -LLR_MAX, LLR_MAX)
    lq = np.clip(base[:, graph.var_of_slot], -LLR_MAX, LLR_MAX)

    for it in range(1, max_iter + 1):
        # check update on the (rows, dc, m) grid, in place where a message
        # is not read again
        t = np.tanh(np.divide(lq, 2.0, out=lq), out=lq)
        if graph.pad_slots is not None:
            t[:, graph.pad_slots] = 1.0  # log-magnitude 0, not zero, not negative
        t = t.reshape(-1, *graph.check_shape)
        zero = t == 0.0
        erasures = zero.any()  # exact-zero messages are rare; skip their bookkeeping
        # each edge's sign as -1.0 or 1.0; +-0.0 counts as non-negative
        sgn = np.copysign(1.0, t)
        mag = np.abs(t, out=t)
        if erasures:
            sgn[zero] = 1.0
            mag = np.where(zero, 1.0, mag)
        log_abs = np.log(mag, out=mag)
        ext = np.exp(np.subtract(_degree_sum(log_abs)[:, None], log_abs, out=log_abs),
                     out=log_abs)
        if erasures:  # another edge of the check is an erasure
            ext = np.where(np.count_nonzero(zero, axis=1)[:, None] > zero, 0.0, ext)
        # the sign of the check's other edges: the edge's own sign times the
        # check's product; every factor is exactly +-1.0, so an odd sign
        # turns 0.0 into -0.0 just as a multiply by -1.0 does
        sgn *= _fold(np.multiply, sgn)[:, None]
        ext *= sgn
        del sgn  # freed before the messages are allocated: no extra peak memory
        ext = np.arctanh(np.clip(ext, -_TANH_CAP, _TANH_CAP, out=ext), out=ext)
        # one trailing 0.0 column: the message of every padded variable slot
        lr = np.empty((rows.size, slots + 1))
        lr[:, slots] = 0.0
        np.multiply(2.0, ext.reshape(-1, slots), out=lr[:, :slots])

        # variable update and posterior; the syndrome reads the posterior
        # gathered to the check slots
        post = base + _degree_sum(
            np.take(lr, graph.slot_of_var, axis=1).reshape(-1, *graph.var_shape))
        lq = np.take(post, graph.var_of_slot, axis=1)
        on_check = lq < 0
        if graph.pad_slots is not None:
            on_check &= ~graph.pad_slots
        syndrome = _fold(np.bitwise_xor, on_check.reshape(-1, *graph.check_shape))
        ok = ~np.any(syndrome, axis=1) & np.any(post != 0.0, axis=1)
        lq -= lr[:, :slots]
        np.clip(lq, -LLR_MAX, LLR_MAX, out=lq)

        bits[rows] = post < 0
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
