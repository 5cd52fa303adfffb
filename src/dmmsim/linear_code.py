"""GF(2) linear block codes, each defined by its parity-check matrix H: a
systematic generator derived from H, generator-matrix encoding, batched
sum-product belief-propagation decoding, repetition-extended low-rate codes,
and a reader of the alist interchange format for sparse parity-check
matrices (``scripts/write_builtin_alists.py`` writes it).

Bit vectors are plain numpy arrays with values in {0, 1}; LLR vectors are
float arrays with the package-wide sign convention (positive favours bit 0).

The GF(2) arithmetic runs on bit-packed rows: bit j of a row is bit j % 64
of little-endian ``uint64`` word j // 64, the last word zero-padded, so one
XOR adds 64 columns.  Row reduction eliminates whole words, and a code keeps
its generator as a 4-bit Four-Russians table (every XOR combination of each
group of four generator rows, ``(ceil(k/4), 16, ceil(n/64))`` words, about
1 MiB at n = 2048, k = 1024), so encoding is a table gather and an XOR
reduction.  Both give the bits of a plain GF(2) product, with no floating
point involved.

The BP decoder keeps its messages slot-major in a fixed-degree layout: a
batch of check-side messages is a (B, dc, m) array, slot j of every check
together, and the variable side a (B, dv, n) array, dc and dv the largest
check and variable degrees.  The short degree axis sits before the long
check or variable axis, so every sum, parity and broadcast over a check's
edges is one or a few long array operations: a fold over the degree axis
is one ``ufunc.reduce`` along axis 1, which numpy runs as long
element-wise passes over the slots.  Codes with more than one degree are
padded after the real edges of each check or variable with neutral
entries (log-magnitude 0, no zero, no sign on the check side, a 0.0
message on the variable side), so the same reductions serve every code.
The sums keep ``np.add.reduceat``'s association and its bits but for the
sign of a zero sum (see ``_degree_sum``), a sign that no decision reads.  So
a regular code, or any code whose padded degrees are at most eight, decodes
to the bits of an edge-list decoder with ``reduceat`` sums; wider padded
checks or variables may round differently in the last bit.

Code objects are immutable after construction.  Decoding allocates its own
message buffers per call, so codes can be shared freely across workers.  A
decode keeps one (B, dc, m) message array live, updated in place, and at most
one more edge-sized float array beside it, the variable side's gather of it
or the next messages: a 16-frame batch at n = 2048 traces 2.15 MiB on a
fresh thread (see ``_bp_batch``).
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

#: the word type of packed rows; little-endian, so its bytes unpack in bit order
_WORD = np.dtype("<u8")
_BIT = [np.uint64(1) << np.uint64(b) for b in range(64)]


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """0/1 rows packed into words, bit j of a row at bit j % 64 of word j // 64."""
    rows, cols = bits.shape
    out = np.zeros((rows, -(-cols // 64) * 8), dtype=np.uint8)
    out[:, :-(-cols // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return out.view(_WORD)


def _unpack_rows(words: np.ndarray, cols: int) -> np.ndarray:
    """The first ``cols`` bits of each row of packed words, as uint8 0/1."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=cols, bitorder="little")


def gf2_rref(a: np.ndarray):
    """Reduced row echelon form over GF(2).

    Returns ``(rref, pivot_cols)``: ``rref`` is a uint8 0/1 array shaped like
    ``a`` (taken mod 2).  Pivoting takes the first nonzero column left to
    right, so the result is deterministic.

    Rows are reduced as packed words (see the module docstring): a column is
    read with one mask on its word, and the pivot row is swapped and XORed
    into every other row holding the pivot bit a whole row at a time.  The
    RREF of a matrix is unique, so this is the result of a bit-by-bit
    elimination (kept as ``tests/oracles.gf2_rref_reference``).
    """
    bits = np.asarray(a, dtype=np.uint8) & 1
    rows, cols = bits.shape
    r = _pack_rows(bits)
    words = [r[:, w] for w in range(r.shape[1])]
    pivots = []
    rank = 0
    for col in range(cols):
        hot = (words[col >> 6] & _BIT[col & 63]).nonzero()[0]
        i = hot.searchsorted(rank)
        if i == hot.size:
            continue
        pivot = hot[i]
        row = r[pivot].copy()  # zero before the pivot column
        if pivot != rank:
            r[pivot] = r[rank]
            hot[i] = rank
        reduced = r.take(hot, axis=0)
        reduced ^= row  # the pivot's slot too: it is overwritten next
        r[hot] = reduced
        r[rank] = row
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    return _unpack_rows(r, cols), np.array(pivots, dtype=np.int64)


def gf2_rank(a: np.ndarray) -> int:
    return len(gf2_rref(a)[1])


# ---------------------------------------------------------------------------
# Code objects
# ---------------------------------------------------------------------------

class _BpGraph:
    """Fixed-degree, slot-major view of a parity-check matrix for BP.

    Edge slots form a (dc, m) grid, dc the largest check degree: column i
    holds the variables of check i in ascending order, padded at the end,
    so slot j of check i is ``j * m + i``.  The variable side is a (dv, n)
    grid of slot indices, dv the largest variable degree, each column in
    ascending check order and padded at the end with slot ``dc * m``, one
    past the grid.  ``pad_slots`` and ``var_pad`` mark the padded check and
    variable slots, each None for a side with one degree.  All arrays are
    immutable after construction.
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
        self.check_shape = (dc, m)
        self.var_shape = (dv, n)

        edge = np.arange(check_of.size)
        slot = (edge - (np.cumsum(deg_c) - deg_c)[check_of]) * m + check_of
        self.var_of_slot = np.zeros(dc * m, dtype=np.intp)
        self.var_of_slot[slot] = var_of
        # padded check slots, or None for a code with one check degree
        self.pad_slots = None
        if slot.size < dc * m:
            self.pad_slots = np.ones(dc * m, dtype=bool)
            self.pad_slots[slot] = False

        by_var = np.argsort(var_of, kind="stable")  # ascending check per variable
        v = var_of[by_var]
        self.slot_of_var = np.full(dv * n, dc * m, dtype=np.intp)
        self.slot_of_var[(edge - (np.cumsum(deg_v) - deg_v)[v]) * n + v] = slot[by_var]
        # padded variable slots, or None for a code with one variable degree
        self.var_pad = None
        if slot.size < dv * n:
            self.var_pad = self.slot_of_var == dc * m

    def dense(self) -> np.ndarray:
        """The m x n uint8 0/1 parity-check matrix: a 1 at each real slot's
        (check, variable)."""
        dc, m = self.check_shape
        checks = np.tile(np.arange(m), dc)  # slot j * m + i is on check i
        real = slice(None) if self.pad_slots is None else ~self.pad_slots
        h = np.zeros((m, self.var_shape[1]), dtype=np.uint8)
        h[checks[real], self.var_of_slot[real]] = 1
        return h

    def annihilates(self, generator: np.ndarray) -> bool:
        """Whether every row of ``generator`` satisfies every check (G H^T = 0).

        Each check XORs the bit-packed generator columns of its variables;
        padded slots contribute nothing.
        """
        cols = np.packbits(generator.T, axis=1)  # (n, ceil(k/8))
        at_slot = cols[self.var_of_slot]
        if self.pad_slots is not None:
            at_slot[self.pad_slots] = 0
        return not np.bitwise_xor.reduce(at_slot.reshape(*self.check_shape, -1), axis=0).any()


@dataclass(frozen=True, init=False, eq=False)
class BinaryCode:
    """A binary linear block code defined by its parity-check matrix.

    ``parity`` is m x n over GF(2) with full row rank, 0 < m < n.  The k x n
    generator is derived from it by Gaussian elimination, pivoting on the
    first nonzero column: the n - m non-pivot columns, ``info_positions``,
    carry the info word unchanged, and each pivot column is the parity bit
    its row of the reduced H determines.  Raises RankDeficiencyError when
    the rows of H are dependent.  ``encode`` reads the generator from its
    4-bit table (see ``_nibble_table``), built here once.

    A code keeps neither matrix dense (4 MiB of bytes at n = 2048):
    ``parity`` is rebuilt from the BP graph's edges and ``generator`` from
    the encode table, on each access.  Codes compare and hash by identity.
    """

    name: str
    info_positions: np.ndarray
    _graph: _BpGraph = field(repr=False)
    _encode_table: np.ndarray = field(repr=False)

    def __init__(self, parity: np.ndarray, name: str = ""):
        h = np.ascontiguousarray(np.asarray(parity, dtype=np.uint8) & 1)
        m, n = h.shape
        if not 0 < m < n:
            raise ValueError(f"parity must be m x n with 0 < m < n, got {h.shape}")
        rref, pivots = gf2_rref(h)
        if len(pivots) < m:
            raise RankDeficiencyError(achieved_rank=len(pivots), rows=m)
        is_free = np.ones(n, dtype=bool)
        is_free[pivots] = False
        free = np.flatnonzero(is_free)
        # G by columns, one row per code bit: unit vectors at the info
        # positions and, at each pivot, the codeword constraint (the bit
        # equals its row of rref[:, free] @ info)
        g_cols = np.zeros((n, free.size), dtype=np.uint8)
        g_cols[free, np.arange(free.size)] = 1
        g_cols[pivots] = rref[:, free]
        graph = _BpGraph(h)
        # a safety check on gf2_rref: every derived generator row satisfies H
        if not graph.annihilates(g_cols.T):
            raise ValueError("generator and parity are inconsistent: G H^T != 0")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "info_positions", free)
        object.__setattr__(self, "_graph", graph)
        object.__setattr__(self, "_encode_table", _nibble_table(g_cols.T))

    @property
    def parity(self) -> np.ndarray:
        """The m x n uint8 0/1 parity-check matrix, a new array each time."""
        return self._graph.dense()

    @property
    def generator(self) -> np.ndarray:
        """The k x n uint8 0/1 generator, a new array each time: row 4i + j
        is entry [i, 1 << j] of the encode table."""
        table = self._encode_table
        rows = table[:, [1 << j for j in range(4)]].reshape(-1, table.shape[2])
        return _unpack_rows(rows[:self.k], self.n)

    @property
    def k(self) -> int:
        return self.info_positions.size

    @property
    def n(self) -> int:
        return self._graph.var_shape[1]

    @property
    def rate(self) -> float:
        return self.k / self.n

    def info_from_codeword(self, codeword: np.ndarray) -> np.ndarray:
        """Recover the info word from a (possibly batched) codeword."""
        return np.asarray(codeword, dtype=np.uint8)[..., self.info_positions]


@dataclass(frozen=True)
class RepetitionExtendedCode:
    """Lower-rate code built by repeating every code bit of a base code.

    Copies of bit m occupy the adjacent output positions
    [m*k_rep, (m+1)*k_rep); AWGN is memoryless so block placement costs
    nothing.
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


def extend_repetition(base: BinaryCode, k_rep: int) -> RepetitionExtendedCode:
    """Repeat each code bit of ``base`` k_rep times (rate divides by k_rep)."""
    return RepetitionExtendedCode(base=base, k_rep=k_rep)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

#: the value of each bit of a group of four info bits in its table index
_NIBBLE = np.array([1, 2, 4, 8], dtype=np.uint8)
#: table words gathered per XOR reduction in ``encode`` (512 KiB)
_ENCODE_CHUNK_WORDS = 1 << 16


def _nibble_table(generator: np.ndarray) -> np.ndarray:
    """The Four-Russians table of a k x n generator, (ceil(k/4), 16, ceil(n/64))
    packed words: entry [i, v] is the XOR of the rows 4i + j for each set bit
    j of v, rows past k being zero."""
    k, n = generator.shape
    rows = np.zeros((-(-k // 4) * 4, -(-n // 64)), dtype=_WORD)
    rows[:k] = _pack_rows(generator)
    rows = rows.reshape(-1, 4, rows.shape[1])
    table = np.zeros((rows.shape[0], 16, rows.shape[2]), dtype=_WORD)
    for j in range(4):
        table[:, 1 << j:2 << j] = table[:, :1 << j] ^ rows[:, j, None]
    return table


def encode(code, info: np.ndarray) -> np.ndarray:
    """Codeword(s) for info word(s); last axis must equal code.k.

    Info values count mod 2.  Each group of four info bits picks one entry of
    the code's table, and a codeword is the XOR of its picks, reduced a chunk
    of groups at a time so the gathered words stay near 512 KiB, then
    unpacked to uint8 bits.  A repetition-extended code encodes its base code
    and repeats each bit.
    """
    info = np.asarray(info, dtype=np.uint8)
    if info.shape[-1] != code.k:
        raise ValueError(f"info length {info.shape[-1]} != code dimension {code.k}")
    base = code.base if isinstance(code, RepetitionExtendedCode) else code
    table = base._encode_table
    groups, _, words = table.shape
    flat = info.reshape(-1, code.k)
    bits = np.zeros((flat.shape[0], groups * 4), dtype=np.uint8)
    np.bitwise_and(flat, 1, out=bits[:, :code.k])
    picks = bits.reshape(-1, groups, 4) @ _NIBBLE
    acc = np.zeros((flat.shape[0], words), dtype=_WORD)
    step = max(1, _ENCODE_CHUNK_WORDS // max(1, flat.shape[0] * words))
    for start in range(0, groups, step):
        part = slice(start, start + step)
        acc ^= np.bitwise_xor.reduce(table[np.arange(groups)[part], picks[:, part]], axis=1)
    codeword = _unpack_rows(acc, base.n).reshape(info.shape[:-1] + (base.n,))
    if base is not code:
        return np.repeat(codeword, code.k_rep, axis=-1)
    return codeword


# ---------------------------------------------------------------------------
# Belief-propagation decoding
# ---------------------------------------------------------------------------

def _degree_sum(x: np.ndarray) -> np.ndarray:
    """Sum over axis 1, associated as ``np.add.reduceat`` does: the first
    term plus numpy's sum of the rest, which adds fewer than eight terms left
    to right and more in its pairwise order.  Along the non-contiguous axis 1,
    ``np.add.reduce`` adds left to right in one call, from the start value
    -0.0: -0.0 + a is a to the bit, while numpy's default start +0.0 would
    turn a sum of -0.0 terms into +0.0.  numpy sums pairwise only along a
    contiguous axis, so the other widths sum a copy with the degree axis
    last.  That sum gives ``reduceat``'s bits with one exception: at widths
    1, 2 and above eight, a column of -0.0 terms sums to +0.0, where
    ``reduceat`` keeps -0.0.  The first term is added in place into the sum
    of the rest, which is the result."""
    if 2 < x.shape[1] <= 8:
        rest = np.add.reduce(x[:, 1:], axis=1, initial=-0.0)
    else:
        rest = np.moveaxis(x[:, 1:], 1, -1).copy().sum(axis=-1)
    return np.add(x[:, 0], rest, out=rest)


def _check_update(graph: _BpGraph, msg: np.ndarray) -> None:
    """Turn the variable-to-check messages ``msg`` (rows, slots) into the
    check-to-variable messages, in place.

    The tanh product runs in log-magnitude/sign form with explicit zero
    counting, so exact-zero messages (erasures) propagate as exact zeros
    instead of being floored to small values.  Every step writes into
    ``msg``; the only other arrays are one byte per edge (signs and, when an
    exact zero exists, its mask) and one (rows, m) degree sum.
    """
    np.tanh(np.multiply(msg, 0.5, out=msg), out=msg)  # msg / 2, exactly
    if graph.pad_slots is not None:
        msg[:, graph.pad_slots] = 1.0  # log-magnitude 0, not zero, not negative
    t = msg.reshape(-1, *graph.check_shape)
    neg = np.less(t, 0.0)  # each edge's sign; +-0.0 counts as non-negative
    np.absolute(t, out=t)
    # exact-zero messages are rare; skip their bookkeeping
    zero = None if np.minimum.reduce(t, axis=None) else np.equal(t, 0.0)
    if zero is not None:
        np.copyto(t, 1.0, where=zero)
    np.log(t, out=t)
    np.exp(np.subtract(_degree_sum(t)[:, None], t, out=t), out=t)
    if zero is not None:  # another edge of the check is an erasure
        np.copyto(t, 0.0, where=np.count_nonzero(zero, axis=1)[:, None] > zero)
    # the sign of the check's other edges: the parity of the check's negative
    # edges XOR the edge's own, one byte per edge.  It is applied as a
    # multiply by exactly +-1, so an odd sign turns 0.0 into -0.0; np.where
    # or where= took ~45x as long on random masks.  The +-1 factors stay
    # int8, which the multiply casts in buffered chunks, so no edge-sized
    # float array is allocated for them.
    neg ^= np.bitwise_xor.reduce(neg, axis=1)[:, None]
    t *= 1 - 2 * neg.view(np.int8)
    np.arctanh(t.clip(-_TANH_CAP, _TANH_CAP, out=t), out=t)
    np.multiply(2.0, t, out=t)


def _bp_batch(graph: _BpGraph, llr: np.ndarray, max_iter: int):
    """Sum-product decoding of a batch of LLR rows.

    Check updates follow ``_check_update``.  A frame converges when its hard
    decision satisfies every check and its posterior carries any
    information at all; a total erasure therefore reports max-iter.

    Each iteration is a fixed, short list of long array operations: every
    fold over a degree axis is one ``ufunc.reduce``, ufuncs and array
    methods are called directly rather than through numpy's module-level
    wrappers (``np.clip``, ``np.take``, ``np.any``), and a row's hard bits
    are written once, when it leaves the working set (at convergence or at
    ``max_iter``).  numpy releases the interpreter lock inside each
    call, so fewer and longer calls let batches on other threads overlap.

    One message array of (rows, slots) floats is live at a time.  The check
    update runs in it, the variable side's gather of it is freed once
    summed, and the next variable-to-check messages, gathered from the
    posterior, replace it.  So a decode holds at most two edge-sized float
    arrays, the messages and their gather or successor, besides its
    (rows, n) clipped input, posterior and degree sum.

    Returns (hard codewords, converged flags, iteration counts).
    """
    b = llr.shape[0]
    real_slots = None if graph.pad_slots is None else ~graph.pad_slots

    bits = np.zeros(llr.shape, dtype=np.uint8)
    converged = np.zeros(b, dtype=bool)
    iterations = np.full(b, max_iter, dtype=np.int64)
    if not b:  # an empty batch has no message to reduce
        return bits, converged, iterations

    # rows still iterating; converged rows are dropped from the working set
    rows = np.arange(b)
    base = llr.clip(-LLR_MAX, LLR_MAX)
    if np.isnan(np.add.reduce(base, axis=None)):  # clipped LLRs sum to NaN iff one is
        bad = np.flatnonzero(np.isnan(base).any(axis=1))[0]
        raise ValueError(f"LLR row {bad} holds NaN, which BP cannot decode")
    msg = base.take(graph.var_of_slot, axis=1)

    for it in range(1, max_iter + 1):
        _check_update(graph, msg)

        # variable update and posterior: a padded variable slot points one
        # past the grid, which the gather clips and then sets to a 0.0
        # message
        gather = msg.take(graph.slot_of_var, axis=1, mode="clip")
        if graph.var_pad is not None:
            gather[:, graph.var_pad] = 0.0
        post = _degree_sum(gather.reshape(-1, *graph.var_shape))
        del gather
        np.add(base, post, out=post)
        # the posterior gathered to the check slots: the syndrome reads its
        # signs, and less the check-to-variable messages it is the next
        # variable-to-check messages
        succ = post.take(graph.var_of_slot, axis=1)
        on_check = np.less(succ, 0.0)
        if real_slots is not None:
            on_check &= real_slots
        unsatisfied = np.logical_or.reduce(
            np.bitwise_xor.reduce(on_check.reshape(-1, *graph.check_shape), axis=1), axis=1)
        del on_check
        # informative and not unsatisfied
        ok = np.greater(np.logical_or.reduce(post, axis=1), unsatisfied)
        msg = np.subtract(succ, msg, out=succ)
        del succ
        msg.clip(-LLR_MAX, LLR_MAX, out=msg)

        if it == max_iter:
            converged[rows[ok]] = True
            bits[rows] = np.less(post, 0.0)
        elif np.logical_or.reduce(ok):
            done = rows[ok]
            bits[done] = np.less(post[ok], 0.0)
            iterations[done] = it
            converged[done] = True
            keep = ~ok
            if not np.logical_or.reduce(keep):
                break
            del post  # freed before the working set shrinks
            rows = rows[keep]
            base = base[keep]
            msg = msg[keep]
            continue
        del post  # freed before the next gather

    return bits, converged, iterations


def decode_soft_batch(code, llrs: np.ndarray, max_iter: int = 50):
    """Sum-product decode a batch; rows of ``llrs`` are independent frames.

    A row decodes the same in any batch, including a batch of one and an
    empty one.  For a repetition-extended code the copies of each base bit
    are independent observations of it, so their LLRs add before BP on the
    base code; an infinite copy adds as +-LLR_MAX, so copies of +inf and
    -inf cancel instead of summing to NaN.
    Early exit per row on a zero syndrome; inputs and messages are clipped
    at +-LLR_MAX, and a row whose posterior is identically zero carries no
    decision, so a total erasure reports ``max_iter`` without converging.
    A NaN input has no sign to decide by: it raises ValueError naming its row.
    Messages live in the fixed-degree, slot-major layout described in the
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
        llrs = np.nan_to_num(llrs, nan=np.nan, posinf=LLR_MAX, neginf=-LLR_MAX)
        llrs = llrs.reshape(llrs.shape[0], code.base.n, code.k_rep).sum(axis=2)
        inner = code.base
    else:
        inner = code
    bits, conv, iters = _bp_batch(inner._graph, llrs, max_iter)
    return inner.info_from_codeword(bits), conv, iters


# ---------------------------------------------------------------------------
# The alist interchange format
# ---------------------------------------------------------------------------

def load_alist(path, name: str | None = None) -> BinaryCode:
    """Read a parity-check matrix in alist format as a code.

    Field order: ``n m``, max degrees, column degrees, row degrees, then one
    adjacency line per column and per row with 1-based indices (zero padding
    tolerated).  The code is named ``name``, or by default after the file.
    """
    path = str(path)
    with open(path, "rb") as fh:
        return _parse_alist(fh.read(), path, name)


def _parse_alist(data: bytes, path: str, name: str | None = None) -> BinaryCode:
    """The code in the alist file contents ``data``, which must be ASCII;
    errors name ``path`` and, where they have one, the 1-based line."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        # its line as the parser counts lines: the bytes before it are ASCII,
        # and it starts or continues their last line
        lineno = len((data[:exc.start] + b"x").decode("ascii").splitlines())
        raise AlistFormatError(
            f"{path}:{lineno}: non-ASCII byte 0x{data[exc.start]:02x}") from None
    lines = text.splitlines()

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

    # the 1-based columns of each row, ascending, as the column lines give them
    row_cols = [[] for _ in range(m)]
    for j in range(1, n + 1):
        lineno = 3 + j
        entries = [v for v in ints(lineno) if v != 0]
        if len(entries) != col_deg[j - 1]:
            raise AlistFormatError(
                f"{path}:{lineno + 1}: column {j} lists {len(entries)} rows, "
                f"degree says {col_deg[j - 1]}"
            )
        for v in entries:
            if not 1 <= v <= m:
                raise AlistFormatError(
                    f"{path}:{lineno + 1}: row index {v} out of range 1..{m}"
                )
            cols = row_cols[v - 1]
            if cols and cols[-1] == j:
                raise AlistFormatError(
                    f"{path}:{lineno + 1}: duplicate entry for row {v}"
                )
            cols.append(j)
    for i in range(m):
        lineno = 4 + n + i
        entries = [v for v in ints(lineno) if v != 0]
        if sorted(entries) != row_cols[i] or len(entries) != row_deg[i]:
            raise AlistFormatError(
                f"{path}:{lineno + 1}: row {i + 1} adjacency disagrees with columns"
            )

    h = np.zeros((m, n), dtype=np.uint8)
    h[np.repeat(np.arange(m), [len(cols) for cols in row_cols]),
      np.concatenate(row_cols, dtype=np.intp) - 1] = 1
    try:  # rank, an empty row or column, or m >= n
        return BinaryCode(h, name=name or os.path.basename(path))
    except ValueError as exc:
        raise AlistFormatError(f"{path}: {exc}") from exc

