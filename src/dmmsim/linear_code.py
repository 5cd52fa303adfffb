"""GF(2) linear block codes: generator-matrix encoding, batched sum-product
belief-propagation decoding, repetition-extended low-rate codes, and the
alist interchange format for sparse parity-check matrices.

Bit vectors are plain numpy arrays with values in {0, 1}; LLR vectors are
float arrays with the package-wide sign convention (positive favours bit 0).

The BP decoder keeps its messages check-major in a fixed-degree layout: a
batch of check-side messages is a (B, m, dc) array and the variable side a
(B, n, dv) array, dc and dv the largest check and variable degrees.  Codes
with more than one degree are padded after the real edges of each row with
neutral entries (log-magnitude 0, no zero, no sign on the check side, a 0.0
message on the variable side), so the same reshape reductions serve every
code.  The sums keep ``np.add.reduceat``'s association, so a regular code,
or any code whose padded rows are at most eight wide, decodes to the bits
of an edge-list decoder with ``reduceat`` sums; wider padded rows may round
differently in the last bit.

Code objects are immutable after construction.  Decoding allocates its own
message buffers per call, so codes can be shared freely across workers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

#: Message/input clip used by the BP decoder.  tanh(LLR_MAX/2) is still
#: strictly inside (-1, 1) in float64, which keeps the check update finite.
LLR_MAX = 30.0

_TANH_CAP = 1.0 - 1e-13  # keeps arctanh finite for degree-1 checks


class AlistFormatError(ValueError):
    """Malformed alist file; message carries path and 1-based line number."""


class RankDeficiencyError(ValueError):
    """Parity-check matrix with linearly dependent rows."""

    def __init__(self, achieved_rank: int, rows: int):
        self.achieved_rank = achieved_rank
        self.rows = rows
        super().__init__(
            f"parity-check matrix is rank deficient: rank {achieved_rank} < {rows} rows"
        )


# ---------------------------------------------------------------------------
# GF(2) linear algebra
# ---------------------------------------------------------------------------

def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2).  Accumulates in float64 (exact below 2^53)."""
    prod = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
    return (prod % 2.0).astype(np.uint8)


def gf2_rref(a: np.ndarray):
    """Reduced row echelon form over GF(2).

    Returns ``(rref, pivot_cols)``.  Pivoting takes the first nonzero column
    left to right, so the result is deterministic.
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


def gf2_rank(a: np.ndarray) -> int:
    return len(gf2_rref(a)[1])


def gf2_inv(a: np.ndarray) -> np.ndarray:
    """Inverse of a square GF(2) matrix."""
    a = np.asarray(a, dtype=np.uint8)
    k = a.shape[0]
    if a.shape != (k, k):
        raise ValueError(f"matrix must be square, got {a.shape}")
    aug = np.concatenate([a & 1, np.eye(k, dtype=np.uint8)], axis=1)
    rref, pivots = gf2_rref(aug)
    if len(pivots) < k or np.any(pivots[:k] != np.arange(k)):
        raise ValueError("matrix is singular over GF(2)")
    return rref[:, k:]


# ---------------------------------------------------------------------------
# Code objects
# ---------------------------------------------------------------------------

class _BpGraph:
    """Fixed-degree, check-major view of a parity-check matrix for BP.

    Edge slots form an (m, dc) grid, dc the largest check degree: row i holds
    the variables of check i in ascending order, padded at the end.  The
    variable side is an (n, dv) grid of slot indices, dv the largest variable
    degree, each row in ascending check order and padded at the end with slot
    ``m * dc``, one past the grid.  All arrays are immutable after
    construction.
    """

    def __init__(self, parity: np.ndarray):
        m, n = parity.shape
        check_of, var_of = np.nonzero(parity)  # check-major, ascending variable
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
        cols = np.ascontiguousarray(np.packbits(generator, axis=0).T)  # (n, ceil(k/8))
        at_slot = cols[self.var_of_slot]
        if self.pad_slots is not None:
            at_slot[self.pad_slots] = 0
        return not np.bitwise_xor.reduce(at_slot.reshape(m, dc, -1), axis=1).any()


@dataclass(frozen=True)
class BinaryCode:
    """A binary linear block code given by its generator matrix.

    ``generator`` is k x n over GF(2) with full row rank.  ``parity`` is the
    optional m x n check matrix satisfying G H^T = 0; BP decoding requires it.
    ``info_positions``, when given, are n-indices where the codeword equals
    the info word (systematic placement, possibly permuted).
    """

    generator: np.ndarray
    parity: np.ndarray | None = None
    name: str = ""
    info_positions: np.ndarray | None = None
    _graph: _BpGraph | None = field(default=None, repr=False, compare=False)
    _recovery: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        g = np.ascontiguousarray(np.asarray(self.generator, dtype=np.uint8) & 1)
        object.__setattr__(self, "generator", g)
        k, n = g.shape
        if k == 0 or n == 0 or k >= n:
            raise ValueError(f"generator must be k x n with 0 < k < n, got {g.shape}")
        if self.parity is not None:
            h = np.ascontiguousarray(np.asarray(self.parity, dtype=np.uint8) & 1)
            if h.shape[1] != n:
                raise ValueError(
                    f"parity width {h.shape[1]} does not match code length {n}"
                )
            graph = _BpGraph(h)
            if not graph.annihilates(g):
                raise ValueError("generator and parity are inconsistent: G H^T != 0")
            object.__setattr__(self, "parity", h)
            object.__setattr__(self, "_graph", graph)
        if self.info_positions is not None:
            pos = np.asarray(self.info_positions, dtype=np.int64)
            if pos.shape != (k,):
                raise ValueError("info_positions must list one column per info bit")
            if not np.array_equal(g[:, pos], np.eye(k, dtype=np.uint8)):
                raise ValueError("generator columns at info_positions must be identity")
            object.__setattr__(self, "info_positions", pos)
            object.__setattr__(self, "_recovery", (pos, None))
        else:
            rref, pivots = gf2_rref(g)
            if len(pivots) < k:
                raise ValueError(f"generator rows are dependent: rank {len(pivots)} < {k}")
            ainv = gf2_inv(g[:, pivots])
            object.__setattr__(self, "_recovery", (pivots, ainv))

    @property
    def k(self) -> int:
        return self.generator.shape[0]

    @property
    def n(self) -> int:
        return self.generator.shape[1]

    @property
    def rate(self) -> float:
        return self.k / self.n

    def info_from_codeword(self, codeword: np.ndarray) -> np.ndarray:
        """Recover the info word from a (possibly batched) codeword."""
        cols, ainv = self._recovery
        picked = np.asarray(codeword, dtype=np.uint8)[..., cols]
        if ainv is None:
            return picked
        return gf2_matmul(picked, ainv)


@dataclass(frozen=True)
class RepetitionExtendedCode:
    """Lower-rate code built by repeating every code bit of a base code.

    Copies of bit m occupy the adjacent output positions
    [m*k_rep, (m+1)*k_rep); AWGN is memoryless so block placement costs
    nothing and keeps the expansion map trivial.
    """

    base: BinaryCode
    k_rep: int

    def __post_init__(self):
        if self.k_rep < 1:
            raise ValueError(f"k_rep must be >= 1, got {self.k_rep}")

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def n(self) -> int:
        return self.base.n * self.k_rep

    @property
    def rate(self) -> float:
        return self.base.rate / self.k_rep

    @property
    def name(self) -> str:
        return f"{self.base.name or 'code'}x{self.k_rep}"

    def expansion_map(self) -> np.ndarray:
        """(base length, k_rep) array of output indices per base code bit."""
        return np.arange(self.n, dtype=np.int64).reshape(self.base.n, self.k_rep)


def extend_repetition(base: BinaryCode, k_rep: int) -> RepetitionExtendedCode:
    """Repeat each code bit of ``base`` k_rep times (rate divides by k_rep)."""
    return RepetitionExtendedCode(base=base, k_rep=k_rep)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def encode(code, info: np.ndarray) -> np.ndarray:
    """Codeword(s) for info word(s); last axis must equal code.k."""
    info = np.asarray(info, dtype=np.uint8)
    if info.shape[-1] != code.k:
        raise ValueError(f"info length {info.shape[-1]} != code dimension {code.k}")
    if isinstance(code, RepetitionExtendedCode):
        inner = gf2_matmul(info, code.base.generator)
        return np.repeat(inner, code.k_rep, axis=-1)
    return gf2_matmul(info, code.generator)


# ---------------------------------------------------------------------------
# Belief-propagation decoding
# ---------------------------------------------------------------------------

def _degree_sum(x: np.ndarray) -> np.ndarray:
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


def _parity(x: np.ndarray) -> np.ndarray:
    """XOR of a boolean array along its last axis."""
    acc = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        acc ^= x[..., j]
    return acc


def _bp_batch(graph: _BpGraph, llr: np.ndarray, max_iter: int):
    """Sum-product decoding of a batch of LLR rows.

    Check updates use the tanh product in log-magnitude/sign form with
    explicit zero counting, so exact-zero messages (erasures) propagate as
    exact zeros instead of being floored to small values.  A frame converges
    when its hard decision satisfies every check and its posterior carries
    any information at all; a total erasure therefore reports max-iter.

    Returns (hard codewords, converged flags, iteration counts).
    """
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
        neg = t < 0.0
        mag = np.abs(t, out=t)
        if erasures:
            mag = np.where(zero, 1.0, mag)
        log_abs = np.log(mag, out=mag)
        ext = np.exp(np.subtract(_degree_sum(log_abs)[..., None], log_abs, out=log_abs),
                     out=log_abs)
        if erasures:  # another edge of the check is an erasure
            ext = np.where(np.count_nonzero(zero, axis=-1)[..., None] > zero, 0.0, ext)
        # the other signs of the check are odd: multiply by -1.0, so 0.0 -> -0.0
        ext *= 1.0 - 2.0 * (_parity(neg)[..., None] ^ neg)
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
        ok = ~np.any(_parity(on_check.reshape(-1, m, dc)), axis=1) & np.any(post != 0.0, axis=1)
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


def decode_soft_batch(code, llrs: np.ndarray, max_iter: int = 50):
    """Sum-product decode a batch; rows of ``llrs`` are independent frames.

    A row decodes the same in any batch, including a batch of one.  For a
    repetition-extended code the copies of each base bit are independent
    observations of it, so their LLRs add before BP on the base code.
    Early exit per row on a zero syndrome; inputs and messages are clipped
    at +-LLR_MAX, and a row whose posterior is identically zero carries no
    decision, so a total erasure reports ``max_iter`` without converging.
    Messages live in the fixed-degree, check-major layout described in the
    module docstring; bits, flags and iteration counts equal those of the
    edge-list ``reduceat`` decoder kept as ``tests/oracles.bp_reference``.
    Returns (info bits (B, k), converged (B,), iterations (B,)).
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.ndim != 2 or llrs.shape[1] != code.n:
        raise ValueError(f"expected (B, {code.n}) LLRs, got {llrs.shape}")
    if isinstance(code, RepetitionExtendedCode):
        llrs = llrs.reshape(llrs.shape[0], code.base.n, code.k_rep).sum(axis=2)
        inner = code.base
    else:
        inner = code
    if inner.parity is None:
        raise ValueError("BP decoding requires a code with a parity-check matrix")
    bits, conv, iters = _bp_batch(inner._graph, llrs, max_iter)
    return inner.info_from_codeword(bits), conv, iters


# ---------------------------------------------------------------------------
# Parity -> generator and the alist interchange format
# ---------------------------------------------------------------------------

def generator_from_parity(h: np.ndarray, name: str = "") -> BinaryCode:
    """Systematic (up to column choice) generator for a parity-check matrix.

    Gaussian elimination over GF(2), pivoting on the first nonzero column.
    The non-pivot columns carry the info bits.  Raises RankDeficiencyError
    when the rows of H are dependent.
    """
    h = np.asarray(h, dtype=np.uint8) & 1
    m, n = h.shape
    rref, pivots = gf2_rref(h)
    if len(pivots) < m:
        raise RankDeficiencyError(achieved_rank=len(pivots), rows=m)
    free = np.setdiff1d(np.arange(n), pivots)
    k = free.size
    g = np.zeros((k, n), dtype=np.uint8)
    g[np.arange(k), free] = 1
    # codeword constraint: bits at pivot columns equal rref[:, free] @ info
    g[:, pivots] = rref[:, free].T
    return BinaryCode(generator=g, parity=h, name=name, info_positions=free)


def load_alist(path, name: str | None = None) -> BinaryCode:
    """Read a parity-check matrix in alist format and derive its generator.

    Field order: ``n m``, max degrees, column degrees, row degrees, then one
    adjacency line per column and per row with 1-based indices (zero padding
    tolerated).  The code is named ``name``, or by default after the file.
    """
    path = str(path)
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()

    def ints(lineno: int, expect: int | None = None) -> list[int]:
        if lineno >= len(lines):
            raise AlistFormatError(f"{path}:{lineno + 1}: unexpected end of file")
        try:
            vals = [int(tok) for tok in lines[lineno].split()]
        except ValueError:
            raise AlistFormatError(f"{path}:{lineno + 1}: non-integer token") from None
        if expect is not None and len(vals) != expect:
            raise AlistFormatError(
                f"{path}:{lineno + 1}: expected {expect} values, got {len(vals)}"
            )
        return vals

    if not lines or not lines[0].split():
        raise AlistFormatError(f"{path}:1: empty file")
    n, m = ints(0, 2)
    if n <= 0 or m <= 0:
        raise AlistFormatError(f"{path}:1: non-positive dimensions {n} x {m}")
    ints(1, 2)  # declared max degrees; actual lists are authoritative
    col_deg = ints(2, n)
    row_deg = ints(3, m)

    h = np.zeros((m, n), dtype=np.uint8)
    for j in range(n):
        lineno = 4 + j
        entries = [v for v in ints(lineno) if v != 0]
        if len(entries) != col_deg[j]:
            raise AlistFormatError(
                f"{path}:{lineno + 1}: column {j + 1} lists {len(entries)} rows, "
                f"degree says {col_deg[j]}"
            )
        for v in entries:
            if not 1 <= v <= m:
                raise AlistFormatError(
                    f"{path}:{lineno + 1}: row index {v} out of range 1..{m}"
                )
            if h[v - 1, j]:
                raise AlistFormatError(
                    f"{path}:{lineno + 1}: duplicate entry for row {v}"
                )
            h[v - 1, j] = 1
    for i in range(m):
        lineno = 4 + n + i
        entries = [v for v in ints(lineno) if v != 0]
        cols = np.nonzero(h[i])[0] + 1
        if sorted(entries) != sorted(cols.tolist()) or len(entries) != row_deg[i]:
            raise AlistFormatError(
                f"{path}:{lineno + 1}: row {i + 1} adjacency disagrees with columns"
            )

    return generator_from_parity(h, name=name or os.path.basename(path))


def save_alist(code_or_parity, path) -> None:
    """Write a parity-check matrix in canonical padded alist form.

    Adjacency lines are padded with 0 to the maximum degree, entries in
    ascending order, single spaces, trailing newline: load followed by save
    reproduces a canonical file byte for byte.
    """
    if isinstance(code_or_parity, BinaryCode):
        h = code_or_parity.parity
        if h is None:
            raise ValueError("code has no parity-check matrix to save")
    else:
        h = np.asarray(code_or_parity, dtype=np.uint8) & 1
    m, n = h.shape
    col_lists = [list(np.nonzero(h[:, j])[0] + 1) for j in range(n)]
    row_lists = [list(np.nonzero(h[i, :])[0] + 1) for i in range(m)]
    max_col = max(len(c) for c in col_lists)
    max_row = max(len(r) for r in row_lists)

    def pad(vals: list[int], width: int) -> str:
        return " ".join(str(v) for v in vals + [0] * (width - len(vals)))

    out = [f"{n} {m}", f"{max_col} {max_row}",
           " ".join(str(len(c)) for c in col_lists),
           " ".join(str(len(r)) for r in row_lists)]
    out += [pad(c, max_col) for c in col_lists]
    out += [pad(r, max_row) for r in row_lists]
    with open(str(path), "w", encoding="ascii") as fh:
        fh.write("\n".join(out) + "\n")
