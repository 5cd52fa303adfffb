import functools
import hashlib
import importlib
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmmsim.builtin_codes import BUILTIN_CODE_NAMES, builtin_code
from dmmsim.channel import ChannelConfig, snr_to_sigma2
from dmmsim.linear_code import (
    LLR_MAX,
    AlistFormatError,
    BinaryCode,
    RankDeficiencyError,
    RepetitionExtendedCode,
    _bp_batch,
    _degree_sum,
    decode_soft_batch,
    encode,
    extend_repetition,
    gf2_rank,
    gf2_rref,
    load_alist,
)
from dmmsim.receiver import _frame_batch, _receive_batch, run_point

from oracles import (
    all_codewords,
    bp_reference,
    generator_from_parity_reference,
    gf2_encode_reference,
    gf2_matmul,
    gf2_rref_reference,
    ml_decode_batch,
)

DATA = __file__.rsplit("/", 1)[0] + "/data"

# the PEG construction, fixture parameters and alist writer live in the
# script that writes the shipped alist files
with pytest.MonkeyPatch.context() as _mp:
    _mp.syspath_prepend(str(Path(__file__).resolve().parent.parent / "scripts"))
    write_builtin_alists = importlib.import_module("write_builtin_alists")
save_alist = write_builtin_alists.save_alist


# ---------------------------------------------------------------------------
# GF(2) algebra
# ---------------------------------------------------------------------------

def test_rref_identity_pivots():
    r, piv = gf2_rref(np.eye(4, dtype=np.uint8))
    assert np.array_equal(r, np.eye(4, dtype=np.uint8))
    assert list(piv) == [0, 1, 2, 3]


def test_rank_and_inverse():
    a = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 0]], dtype=np.uint8)
    assert gf2_rank(a) == 3
    assert gf2_rank(np.array([[1, 1], [1, 1]], dtype=np.uint8)) == 1


def _assert_rref_matches_reference(a):
    r, piv = gf2_rref(a)
    want_r, want_piv = gf2_rref_reference(a)
    assert r.dtype == want_r.dtype and r.shape == want_r.shape
    assert r.tobytes() == want_r.tobytes()
    assert piv.dtype == want_piv.dtype and piv.tobytes() == want_piv.tobytes()


WORD_EDGE_WIDTHS = [1, 63, 64, 65, 128, 129]


@settings(max_examples=150, deadline=None)
@given(cols=st.one_of(st.sampled_from(WORD_EDGE_WIDTHS), st.integers(1, 300)),
       shape=st.sampled_from(["tall", "square", "wide"]),
       density=st.floats(0.05, 0.5),
       duplicates=st.integers(0, 4),
       zero_cols=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rref_matches_reference(cols, shape, density, duplicates, zero_cols, seed):
    # the packed elimination gives the bitwise one's RREF and pivots, byte
    # for byte, across word edges, shapes, densities and dependent rows
    rows = {"tall": cols + 1 + cols // 2, "square": cols, "wide": max(1, cols // 3)}[shape]
    rng = np.random.default_rng(seed)
    a = (rng.random((rows, cols)) < density).astype(np.uint8)
    for _ in range(duplicates):  # rank-deficient: one row copied onto another
        src, dst = rng.integers(0, rows, 2)
        a[dst] = a[src]
    a[:, rng.integers(0, cols, zero_cols)] = 0  # all-zero columns
    _assert_rref_matches_reference(a)


@pytest.mark.parametrize("cols", WORD_EDGE_WIDTHS + [300])
def test_rref_word_edges_and_values_mod_2(cols):
    # the last column of a word and the first of the next; entries count mod 2
    rng = np.random.default_rng(cols)
    a = rng.integers(0, 4, (cols // 2 + 1, cols)) * (rng.random((cols // 2 + 1, cols)) < 0.3)
    a[0, cols - 1] = 1
    a[-1, :] = 2
    _assert_rref_matches_reference(a)
    _assert_rref_matches_reference(a.astype(np.uint8).T)
    _assert_rref_matches_reference(np.zeros((3, cols), dtype=np.uint8))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 70), extra=st.integers(1, 70), duplicates=st.integers(0, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_code_construction_matches_reference(m, extra, duplicates, seed):
    # generator and info positions, or the achieved rank of a dependent H
    rng = np.random.default_rng(seed)
    h = (rng.random((m, m + extra)) < 0.2).astype(np.uint8)
    h[np.arange(m), rng.permutation(m + extra)[:m]] = 1
    h[rng.integers(0, m, m + extra), np.arange(m + extra)] = 1
    for _ in range(duplicates):
        src, dst = rng.integers(0, m, 2)
        h[dst] = h[src]
    try:
        g, _, free = generator_from_parity_reference(h)
    except RankDeficiencyError as want:
        with pytest.raises(RankDeficiencyError) as got:
            BinaryCode(h)
        assert (got.value.achieved_rank, got.value.rows) == (want.achieved_rank, want.rows)
        return
    try:
        code = BinaryCode(h)
    except ValueError as exc:  # an all-zero row or column has no BP graph
        assert "unconnected column" in str(exc) or "empty row" in str(exc)
        return
    assert code.generator.tobytes() == g.tobytes()
    assert code.info_positions.tobytes() == free.tobytes()


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


#: SHA-256 of (generator, parity, info_positions), each over dtype, shape and
#: bytes, as the elimination on one byte per bit derived them
BUILTIN_DIGESTS = {
    "hamming_7_4": (
        "7277485dbb736ed393582a1cb3a7a83d89f0a8a8ff2e58cc7f586723497c7e18",
        "d0ecf940003fe133b8a1ce90a1a30326f2ac37ea6caccf0a9c1eddcdc53f494d",
        "3f1501c990e3706b3f6adf43458e40f435f21269fb1f09fbef1619ce2a24979d",
    ),
    "ldpc_r12_n2048": (
        "6c968a113489d79dca3928209a54953dd3009ac6ea445b2baa05a6ffb68318fa",
        "01af6caafd7e272c757504f15f0947f3d1a1cd6014e1f61463f2690534c82f35",
        "77e58f0d2a6359bbaf724e599c8db9968528b15767f557361b93aa858cbde712",
    ),
    "ldpc_r12_n24": (
        "a143922e99d01b22ce5dff4514619ef571c59cd8e3a507bc7a465c06756c4a7f",
        "efc0ab674a851b7b52b26dcbfb18fa0928d8b75caf4162e4bc6e28f79179a6dd",
        "7b8245e39de8a33e3837b6aef539ba15af37c76f0e139ddc2ce48c0f780e5674",
    ),
    "ldpc_r12_n256": (
        "7fda233c1a6248d500cfae8d57708fb365016992cfbba52519b5bf6d690d8549",
        "430d441af407d22d961686bc2a595bd9f46369ae73363ca44c57ad29d3ed5fbb",
        "d2f23b640a9cdd68e8d0c28e8ce4b3904fb40acf11b349c90406b8a19cf5ad25",
    ),
    "ldpc_r14_n1024": (
        "41f3c50594a37d9923e7e8eef1afac54536b5af7da4819e8c73047ce04d1ad8e",
        "0ab5e34fa65b2630bc665a71d016d6a93b85ee8b08c365b09e39283868259090",
        "c15b3ab2ca77518477927217164b6548e2f3cd8560c1211eebfd504e2e89e5cc",
    ),
    "ldpc_r14_n512": (
        "453fd22f9c89c4558b0162cb81b56cf6fb06ee63a188e22adc4222b962b0c7ca",
        "20db0499ad24197743df896e2f28de75acc61187ba81d6b7821e36bc4e5fc331",
        "442bba2bfa9e52187b9bae5124b9e126a112354f682de869cf558502674cd898",
    ),
    "ldpc_r14_n64": (
        "193722d28de94451e49c7934bd11ea4905bd1bd703df27238cafd7aa97cbb2cc",
        "576b0527f06935d4bbe3cbc162ff316486ff06938b4d972f78345f1c0a81bbd1",
        "10db045fea5001290eadf5066b95f1c1a899c3c11735bc998a6696a1785ceb15",
    ),
}


@pytest.mark.parametrize("name", BUILTIN_CODE_NAMES)
def test_builtin_code_arrays_unchanged(name):
    code = builtin_code(name)
    got = tuple(_digest(getattr(code, f)) for f in ("generator", "parity", "info_positions"))
    assert got == BUILTIN_DIGESTS[name]
    assert code.generator.flags.c_contiguous


def test_code_keeps_no_dense_matrix():
    # ldpc_r12_n2048 keeps its encode table (1 MiB) and BP graph (0.1 MB),
    # not its dense H and G (4 MiB of bytes), which it rebuilds on access
    path = resources.files("dmmsim").joinpath("codes", "ldpc_r12_n2048.alist")
    tracemalloc.start()
    try:
        code = load_alist(path)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 1.5e6
    assert code.parity.shape == (1024, 2048) and code.generator.shape == (1024, 2048)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def test_encode_identity_generator():
    # H = [I | I] asks c_j = c_{j+3}: info in the last three bits, G = [I | I]
    eye = np.eye(3, dtype=np.uint8)
    code = BinaryCode(np.concatenate([eye, eye], axis=1))
    assert np.array_equal(code.generator, np.concatenate([eye, eye], axis=1))
    assert list(code.info_positions) == [3, 4, 5]
    assert np.array_equal(encode(code, [1, 0, 1]), [1, 0, 1, 1, 0, 1])


def test_encode_all_zero_info(hamming):
    assert not encode(hamming, np.zeros(hamming.k, dtype=np.uint8)).any()


def test_encode_hand_example():
    # single parity check c0 + c1 + c2 = 0: pivot column 0, info in bits 1
    # and 2, G = [[1,1,0],[1,0,1]]; hand GF(2) multiply: [1,1] @ G = [0,1,1]
    code = BinaryCode(np.array([[1, 1, 1]], dtype=np.uint8))
    assert np.array_equal(code.generator, [[1, 1, 0], [1, 0, 1]])
    assert np.array_equal(encode(code, [1, 1]), [0, 1, 1])
    assert np.array_equal(encode(code, [0, 1]), [1, 0, 1])


def test_encode_against_reference(toy_code):
    rng = np.random.default_rng(0)
    for _ in range(20):
        info = rng.integers(0, 2, toy_code.k, dtype=np.uint8)
        assert np.array_equal(encode(toy_code, info),
                              gf2_encode_reference(toy_code.generator, info))


def test_encode_length_mismatch(hamming):
    with pytest.raises(ValueError):
        encode(hamming, np.zeros(hamming.k + 1, dtype=np.uint8))
    # the table has room for k rounded up to four bits; that is no licence
    for code in (hamming, extend_repetition(hamming, 3), builtin_code("ldpc_r12_n2048")):
        for shape in ((code.k - 1,), (code.k + 1,), (5, code.k + 1), (2, 3, code.k - 1)):
            with pytest.raises(ValueError, match=rf"info length {shape[-1]} != code dimension"):
                encode(code, np.zeros(shape, dtype=np.uint8))


def _matmul_encode(code, info):
    """``encode`` as it was: a float64 GF(2) product with the generator."""
    info = np.asarray(info, dtype=np.uint8)
    if isinstance(code, RepetitionExtendedCode):
        return np.repeat(gf2_matmul(info, code.base.generator), code.k_rep, axis=-1)
    return gf2_matmul(info, code.generator)


@pytest.mark.parametrize("name", BUILTIN_CODE_NAMES + ("toy_6_3", "ldpc_r14_n64x4"))
def test_encode_matches_matmul(name, toy_code):
    # the table encode gives the float product's bits for every batch shape,
    # and info values reduce mod 2 as they did there
    code = _reference_code(name, toy_code)
    rng = np.random.default_rng(11)
    for lead in ((), (1,), (13,), (2, 3)):
        info = rng.choice(np.array([0, 1, 2, 3, 255], dtype=np.uint8), lead + (code.k,))
        got, want = encode(code, info), _matmul_encode(code, info)
        assert got.dtype == want.dtype and got.shape == want.shape == lead + (code.n,)
        assert got.tobytes() == want.tobytes()
    bits = rng.integers(0, 2, (64, code.k), dtype=np.uint8)
    assert np.array_equal(encode(code, bits), _matmul_encode(code, bits))
    assert np.array_equal(encode(code, bits.astype(np.int64).tolist()),
                          _matmul_encode(code, bits))


@settings(max_examples=60)
@given(st.integers(0, 2 ** 12 - 1), st.integers(0, 2 ** 12 - 1))
def test_encode_linearity(code24, a, b):
    k = code24.k
    ia = ((a >> np.arange(k)) & 1).astype(np.uint8)
    ib = ((b >> np.arange(k)) & 1).astype(np.uint8)
    assert np.array_equal(encode(code24, ia ^ ib),
                          encode(code24, ia) ^ encode(code24, ib))


@settings(max_examples=40)
@given(st.integers(0, 2 ** 12 - 1))
def test_codeword_in_nullspace(code24, a):
    info = ((a >> np.arange(code24.k)) & 1).astype(np.uint8)
    cw = encode(code24, info)
    assert not gf2_matmul(cw[None, :], code24.parity.T).any()


# ---------------------------------------------------------------------------
# repetition extension
# ---------------------------------------------------------------------------

def test_extend_repetition_rates(code64_r14):
    assert extend_repetition(code64_r14, 2).rate == pytest.approx(1 / 8)
    assert extend_repetition(code64_r14, 4).rate == pytest.approx(1 / 16)


def test_extend_repetition_identity(code64_r14):
    rep = extend_repetition(code64_r14, 1)
    info = np.arange(code64_r14.k) % 2
    assert np.array_equal(encode(rep, info), encode(code64_r14, info))


def test_extend_repetition_block_order(hamming):
    rep = extend_repetition(hamming, 3)
    info = np.array([1, 0, 1, 1], dtype=np.uint8)
    assert np.array_equal(encode(rep, info), np.repeat(encode(hamming, info), 3))
    counts = np.bincount(encode(rep, info))
    assert counts.sum() == rep.n


def test_extend_repetition_invalid(hamming):
    with pytest.raises(ValueError):
        extend_repetition(hamming, 0)


def test_codes_compare_and_hash_by_identity(hamming):
    # equality used to compare info_positions arrays: == between two codes of
    # one name raised "truth value of an array is ambiguous", hash() TypeError
    twin = BinaryCode(hamming.parity, name=hamming.name)
    assert hamming == hamming and hamming != twin
    assert len({hamming, twin, hamming}) == 2
    rep = extend_repetition(hamming, 2)
    assert rep == extend_repetition(hamming, 2) and rep != extend_repetition(twin, 2)
    assert hash(rep) == hash(extend_repetition(hamming, 2))


# ---------------------------------------------------------------------------
# BP decoding
# ---------------------------------------------------------------------------

def test_decode_noiseless(code24):
    rng = np.random.default_rng(1)
    info = rng.integers(0, 2, code24.k, dtype=np.uint8)
    llr = (1.0 - 2.0 * encode(code24, info)) * 30.0
    est, conv, iters = decode_soft_batch(code24, llr[None, :])
    assert np.array_equal(est[0], info)
    assert conv[0] and iters[0] <= 1


def test_decode_single_flip_matches_ml(code24):
    # all-zero codeword, correct bits saturated, one bit flipped hard:
    # BP must correct every flip position and agree with exhaustive ML
    from dmmsim.linear_code import LLR_MAX

    llrs = np.full((code24.n, code24.n), LLR_MAX)
    np.fill_diagonal(llrs, -15.0)  # row pos flips bit pos
    est, conv, _ = decode_soft_batch(code24, llrs)
    ml_info, _ = ml_decode_batch(code24, llrs)
    assert np.all(conv)
    assert not est.any()
    assert np.array_equal(est, ml_info)


def test_decode_total_erasure(hamming):
    est, conv, iters = decode_soft_batch(hamming, np.zeros((1, hamming.n)))
    assert not conv[0]
    assert iters[0] == 50


def test_decode_rejects_nan_llrs(hamming, code64_r14):
    # a NaN row used to come back converged after one iteration, all zeros
    llrs = np.full((3, hamming.n), 3.0)
    llrs[1, 4] = math.nan
    with pytest.raises(ValueError, match="LLR row 1 holds NaN"):
        decode_soft_batch(hamming, llrs)
    rep = extend_repetition(code64_r14, 2)
    llrs = np.full((2, rep.n), -2.0)
    llrs[1, 7] = math.nan
    with pytest.raises(ValueError, match="LLR row 1 holds NaN"):
        decode_soft_batch(rep, llrs)
    # infinite LLRs are clipped to +-LLR_MAX and stay legal
    bits, conv, _ = decode_soft_batch(hamming, np.full((1, hamming.n), math.inf))
    assert conv[0] and not bits.any()
    # so are a repeated bit's copies of +inf and -inf, which once summed to
    # NaN: an infinite copy adds as +-LLR_MAX.  A NaN beside one is refused
    from dmmsim.linear_code import LLR_MAX

    llrs = np.full((3, rep.n), 4.0)
    llrs[1, :2] = math.inf, -math.inf
    llrs[2, 3] = -math.inf
    got = decode_soft_batch(rep, llrs)
    want = decode_soft_batch(rep, llrs.clip(-LLR_MAX, LLR_MAX))
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    llrs[2, 2] = math.nan
    with pytest.raises(ValueError, match="LLR row 2 holds NaN"):
        decode_soft_batch(rep, llrs)


def test_decode_empty_batch(code64_r14):
    # no frames decode to no bits, flags or counts, as encode returns no words
    for code in (code64_r14, extend_repetition(code64_r14, 3)):
        bits, conv, iters = decode_soft_batch(code, np.empty((0, code.n)))
        assert bits.shape == (0, code.k) and bits.dtype == np.uint8
        assert conv.shape == iters.shape == (0,)
        assert conv.dtype == bool and iters.dtype == np.int64
        assert encode(code, bits).shape == (0, code.n)


def test_decode_rejects_nonpositive_max_iter(hamming):
    # zero iterations used to return all-zero words without an error
    llrs = np.full((2, hamming.n), 3.0)
    for max_iter in (0, -1):
        with pytest.raises(ValueError, match="max_iter"):
            decode_soft_batch(hamming, llrs, max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter"):
        run_point("bpsk_baseline", hamming, snr_db=10.0, max_frames=8, max_iter=0)
    bits, conv, iters = decode_soft_batch(hamming, llrs, max_iter=1)
    assert not bits.any() and conv.all() and np.array_equal(iters, [1, 1])


def test_decode_batch_matches_single(code24):
    # row i of a batch decodes exactly like a batch of one holding row i
    rng = np.random.default_rng(3)
    infos = rng.integers(0, 2, (16, code24.k), dtype=np.uint8)
    llrs = (1.0 - 2.0 * encode(code24, infos)) * 4.0
    llrs += rng.normal(0, 2.0, llrs.shape)
    batch_info, conv, iters = decode_soft_batch(code24, llrs)
    for i in range(16):
        single, conv1, iters1 = decode_soft_batch(code24, llrs[i:i + 1])
        assert np.array_equal(batch_info[i], single[0])
        assert conv[i] == conv1[0]
        assert iters[i] == iters1[0]


def _irregular_code():
    """Checks of degree 1 to 14 and variables of degree 1 to 10: padding on
    both sides of the graph, and rows wider than eight on both sides."""
    rng = np.random.default_rng(12)
    h = (rng.random((20, 40)) < 0.15).astype(np.uint8)
    h[np.arange(20), np.arange(20)] = 1
    h[:, 20:] = 0
    h[np.arange(1, 20), 21 + np.arange(19)] = 1
    h[1, 20] = 1
    h[0] = 0
    h[0, 5] = 1  # a degree-1 check
    h[2, 0] = 1
    h[1, 2:12] = 1  # a wide check
    return BinaryCode(h, name="irregular_20_40")


@pytest.mark.parametrize("width", range(1, 17))
def test_degree_sum_matches_reduceat(width):
    # axis 1 is the degree axis; irregular_20_40 has checks of degree up to
    # 14, so widths past eight take numpy's pairwise order
    def reduceat(x):
        # each (row, column)'s terms together
        edges = np.moveaxis(x, 1, -1).reshape(x.shape[0], -1)
        return np.add.reduceat(edges, np.arange(0, x.shape[2] * width, width), axis=1)

    rng = np.random.default_rng(width)
    x = rng.normal(size=(3, width, 50)) * 10.0 ** rng.uniform(-3, 3, (3, width, 50))
    want = reduceat(x)
    assert np.array_equal(_degree_sum(x).view(np.int64), want.view(np.int64))
    assert np.array_equal(_degree_sum(x[:1]).view(np.int64), want[:1].view(np.int64))
    # zeros of both signs: bit for bit but for one sign.  An all -0.0 column
    # that goes through numpy's sum of a contiguous copy (widths 1, 2 and
    # past eight) comes out 0.0, where reduceat keeps -0.0
    x[0, :, :5] = -0.0
    x[1, :, :5] = 0.0
    x[2, :width // 2, :5] = -0.0
    got, want = _degree_sum(x), reduceat(x)
    assert np.array_equal(got, want)
    assert np.all(np.signbit(want[0, :5]))
    sign_differs = np.zeros(want.shape, dtype=bool)
    sign_differs[0, :5] = not 2 < width <= 8
    assert np.array_equal(got.view(np.int64) != want.view(np.int64), sign_differs)


@pytest.mark.parametrize("width", [1, 2, 4, 6, 14])
def test_fold_matches_ufunc_reduce(width):
    # the decoder folds a syndrome and a sign parity with one XOR reduce
    # along axis 1: the bits of the chained fold, left to right; and so is
    # a product of signs, to the bit
    rng = np.random.default_rng(width)
    bits = rng.random((3, width, 40)) < 0.5
    got = np.bitwise_xor.reduce(bits, axis=1)
    assert got.dtype == bool
    assert np.array_equal(got, functools.reduce(np.bitwise_xor, np.moveaxis(bits, 1, 0)))
    signs = np.where(rng.random((3, width, 40)) < 0.5, -1.0, 1.0)
    prod = np.multiply.reduce(signs, axis=1)
    want = functools.reduce(np.multiply, np.moveaxis(signs, 1, 0))
    assert np.array_equal(prod.view(np.int64), want.view(np.int64))


def _degree_two_code():
    """Every check ties two variables: a path, a star and a path (k = 3), so
    the largest check degree is 2 and variables have degree 1 to 3."""
    ties = [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (4, 7), (8, 9), (9, 10), (10, 11)]
    h = np.zeros((len(ties), 12), dtype=np.uint8)
    for check, pair in enumerate(ties):
        h[check, pair] = 1
    return BinaryCode(h, name="degree_two_12")


def _reference_code(name, toy_code):
    if name in BUILTIN_CODE_NAMES:
        return builtin_code(name)
    return {
        "toy_6_3": lambda: toy_code,
        "hamming74.alist": lambda: load_alist(f"{DATA}/hamming74.alist"),
        "ldpc_r14_n64x4": lambda: extend_repetition(builtin_code("ldpc_r14_n64"), 4),
        "ldpc_r14_n512x4": lambda: extend_repetition(builtin_code("ldpc_r14_n512"), 4),
        "irregular_20_40": _irregular_code,
        "degree_two_12": _degree_two_code,
    }[name]()


def _reference_decode(code, rows, max_iter):
    """``decode_soft_batch`` by the reduceat decoder of ``tests/oracles``."""
    inner = code.base if hasattr(code, "base") else code
    if inner is not code:
        rows = rows.reshape(rows.shape[0], inner.n, code.k_rep).sum(axis=2)
    bits, conv, iters = bp_reference(inner.parity, rows, max_iter)
    return inner.info_from_codeword(bits), conv, iters


@pytest.mark.parametrize("name", ["ldpc_r12_n2048", "irregular_20_40", "toy_6_3"])
def test_one_flipped_generator_bit_is_inconsistent(name, toy_code):
    # G H^T = 0 is checked through the sparse H; padded check slots (the
    # irregular code) must add nothing, and any single flipped bit is caught
    code = _reference_code(name, toy_code)
    assert (code._graph.pad_slots is not None) == (name == "irregular_20_40")
    assert code._graph.annihilates(code.generator)
    k, n = code.generator.shape
    for row, col in ((0, 0), (k - 1, n - 1), (k // 2, n // 3)):
        bad = code.generator.copy()
        bad[row, col] ^= 1
        assert gf2_matmul(bad, code.parity.T).any()
        assert not code._graph.annihilates(bad)


@pytest.mark.parametrize("name", BUILTIN_CODE_NAMES + (
    "toy_6_3", "hamming74.alist", "irregular_20_40"))
def test_derived_generator_matches_reference(name, toy_code):
    # BinaryCode derives the generator and info positions that the old
    # parity -> generator function built, bit for bit
    code = _reference_code(name, toy_code)
    g, h, free = generator_from_parity_reference(code.parity)
    assert np.array_equal(code.generator, g) and code.generator.dtype == g.dtype
    assert np.array_equal(code.parity, h) and code.parity.dtype == h.dtype
    assert np.array_equal(code.info_positions, free)
    assert code.info_positions.dtype == np.int64
    again = BinaryCode(code.parity.astype(np.int64), name=code.name)
    for field in ("generator", "parity", "info_positions"):
        assert np.array_equal(getattr(again, field), getattr(code, field))


@pytest.mark.parametrize("name", BUILTIN_CODE_NAMES + (
    "toy_6_3", "hamming74.alist", "ldpc_r14_n64x4", "irregular_20_40"))
def test_decode_matches_reference(name, toy_code):
    # the fixed-degree decoder gives the reduceat decoder's bits, flags and
    # iteration counts exactly, on noisy frames at several SNRs and on edge rows
    code = _reference_code(name, toy_code)
    rng = np.random.default_rng(7)
    cw = encode(code, rng.integers(0, 2, (6, code.k), dtype=np.uint8))
    llrs = np.concatenate([2.0 * ((1.0 - 2.0 * cw) + rng.normal(0, s, cw.shape)) / s ** 2
                           for s in (0.5, 0.8, 1.0, 1.3)])
    llrs[1, ::5] = 0.0  # exact zeros among the inputs, of both signs
    llrs[1, 2::5] = -0.0
    llrs[2] = 0.0  # total erasure
    llrs[3] = np.where(llrs[3] < 0, -LLR_MAX, LLR_MAX)  # saturated
    llrs[4] *= 1e3  # far beyond the clip
    llrs[5] = -0.0

    cases = [(llrs, 50), (llrs, 1), (llrs, 3)] + [(llrs[i:i + 1], 50) for i in (0, 2, 3, 20)]
    for rows, max_iter in cases:
        got = decode_soft_batch(code, rows, max_iter=max_iter)
        want = _reference_decode(code, rows, max_iter)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("name", [
    "ldpc_r12_n2048", "ldpc_r14_n512x4", "irregular_20_40", "degree_two_12"])
def test_decode_zero_free_batches_match_reference(name, toy_code):
    # multi-row batches without an exact zero anywhere, which the decoder
    # signs without its erasure bookkeeping: noisy rows at Es/N0 -1.5..0 dB
    # per base-code bit (a repetition code's k_rep copies add 10 log10 k_rep
    # dB, so its symbols sit that much lower) and a saturated row, decoded to
    # the reduceat decoder's bits, flags and iteration counts
    code = _reference_code(name, toy_code)
    inner = code.base if hasattr(code, "base") else code
    assert (inner._graph.check_shape[0] == 2) == (name == "degree_two_12")
    assert (inner._graph.pad_slots is not None) == (name == "irregular_20_40")
    rng = np.random.default_rng(11)
    es_n0_db = np.array([-1.5, -1.0, -0.5, 0.0]) - 10.0 * np.log10(code.n // inner.n)
    sigma2 = np.repeat(0.5 * 10.0 ** (-es_n0_db / 10.0), 3)[:, None]
    cw = encode(code, rng.integers(0, 2, (sigma2.size, code.k), dtype=np.uint8))
    llrs = 2.0 * ((1.0 - 2.0 * cw) + rng.normal(0.0, np.sqrt(sigma2), cw.shape)) / sigma2
    llrs[4] = np.where(llrs[4] < 0, -LLR_MAX, LLR_MAX)
    assert np.all(llrs != 0.0)

    mixed = False
    for max_iter in (50, 3, 1):
        got = decode_soft_batch(code, llrs, max_iter=max_iter)
        for g, w in zip(got, _reference_decode(code, llrs, max_iter)):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        mixed |= 0 < np.count_nonzero(got[1]) < len(llrs)
    if name.startswith("ldpc"):
        assert mixed  # converged and non-converged rows in one batch


@pytest.mark.parametrize("name", BUILTIN_CODE_NAMES + ("irregular_20_40", "degree_two_12"))
def test_slot_major_graph_transposes_check_major_reference(name, toy_code):
    # check i lists its variables in ascending order, and slot j of it is
    # j * m + i; each variable lists the slots of its checks in ascending
    # check order.  Short lists are padded at the end: with variable 0 on the
    # check side, and with slot dc * m, one past the grid, on the variable side
    code = _reference_code(name, toy_code)
    inner = code.base if hasattr(code, "base") else code
    graph, h = inner._graph, inner.parity
    m, n = h.shape
    vars_of_check = [np.flatnonzero(row) for row in h]
    checks_of_var = [np.flatnonzero(col) for col in h.T]
    dc, dv = max(map(len, vars_of_check)), max(map(len, checks_of_var))
    assert graph.check_shape == (dc, m) and graph.var_shape == (dv, n)

    var_of_slot = np.zeros((dc, m), dtype=np.intp)
    pad_slots = np.ones((dc, m), dtype=bool)
    for i, cols in enumerate(vars_of_check):
        var_of_slot[:cols.size, i] = cols
        pad_slots[:cols.size, i] = False
    assert np.array_equal(graph.var_of_slot, var_of_slot.ravel())
    if pad_slots.any():
        assert np.array_equal(graph.pad_slots, pad_slots.ravel())
    else:
        assert graph.pad_slots is None

    slot_of_var = np.full((dv, n), dc * m, dtype=np.intp)
    for v, checks in enumerate(checks_of_var):
        slot_of_var[:checks.size, v] = [
            np.searchsorted(vars_of_check[i], v) * m + i for i in checks]
    assert np.array_equal(graph.slot_of_var, slot_of_var.ravel())
    if (slot_of_var == dc * m).any():
        assert np.array_equal(graph.var_pad, slot_of_var.ravel() == dc * m)
    else:
        assert graph.var_pad is None


@pytest.mark.parametrize("name", BUILTIN_CODE_NAMES + (
    "ldpc_r14_n64x4", "irregular_20_40", "degree_two_12"))
def test_slot_major_decode_matches_check_major_reference(name, toy_code):
    # the slot-major decoder gives the bits, flags and iteration counts of
    # the edge-list reduceat decoder, whose sums run check-major, on noisy
    # rows, inputs with exact zeros of both signs, a total erasure, saturated
    # rows, and a zero-free batch.  A row's hard bits are written when it
    # leaves the batch, so the batches hold rows that converge at different
    # iterations and rows still iterating at max_iter
    code = _reference_code(name, toy_code)
    inner = code.base if hasattr(code, "base") else code
    rng = np.random.default_rng(19)
    cw = encode(code, rng.integers(0, 2, (15, code.k), dtype=np.uint8))
    sigma = np.repeat([0.6, 0.8, 1.0, 1.2, 1.4], 3)[:, None] * math.sqrt(code.n // inner.n)
    llrs = 2.0 * ((1.0 - 2.0 * cw) + rng.normal(0.0, sigma, cw.shape)) / sigma ** 2
    # a repetition code's copies add before BP, as decode_soft_batch adds them
    llrs = llrs.reshape(len(llrs), inner.n, -1).sum(axis=2)
    zero_free = llrs.copy()
    llrs[1, ::3] = 0.0
    llrs[1, 1::3] = -0.0
    llrs[2] = 0.0
    llrs[3] = -0.0
    llrs[4] = np.where(llrs[4] < 0, -LLR_MAX, LLR_MAX)
    llrs[5] *= 1e3
    assert np.all(zero_free != 0.0)
    h = inner.parity
    for rows in (llrs, zero_free, llrs[2:3]):
        for max_iter in (1, 2, 3, 50):
            got = _bp_batch(inner._graph, rows, max_iter)
            for g, w in zip(got, bp_reference(h, rows, max_iter)):
                assert g.dtype == w.dtype and np.array_equal(g, w)
    _, converged, iterations = _bp_batch(inner._graph, zero_free, 50)
    assert len(set(iterations[converged])) >= 2
    assert not _bp_batch(inner._graph, llrs, 3)[1].all()


@pytest.mark.parametrize("erasures", [False, True])
def test_bp_batch_working_set_is_bounded(erasures):
    # a 16-frame batch of criterion-6 stream-1 LLRs (ldpc_r12_n2048 at
    # -1.3 dB, genie derotation), decoded on a fresh thread, traces 2.15 MiB:
    # one (16, 6, 1024) message array (0.75 MiB) and its gather or its
    # successor, besides the (16, 2048) clipped input, posterior and degree
    # sum.  Exact zeros on every 7th bit take the erasure branch, which works
    # in the message array too
    code1 = builtin_code("ldpc_r12_n2048")
    code2 = extend_repetition(builtin_code("ldpc_r14_n512"), 4)
    cfg = ChannelConfig(sigma2=snr_to_sigma2(-1.3, 1.0), seed=1, es=1.0)
    words, noise = _frame_batch(cfg, np.arange(16), code1.n, (code1.k, code2.k))
    _, llr1 = _receive_batch(code1, code2, cfg, words, noise, 50)
    if erasures:
        llr1[:, ::7] = 0.0
    tracemalloc.start()
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            _, converged, _ = pool.submit(_bp_batch, code1._graph, llr1, 50).result(timeout=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * 2 ** 20
    assert converged.all() == (not erasures)  # erased rows run to max_iter


def test_builtin_names_are_peg_fixtures_and_hamming():
    # the shipped files are the registry: one per PEG fixture, plus Hamming
    assert BUILTIN_CODE_NAMES == tuple(sorted(
        ("hamming_7_4", *write_builtin_alists.PEG_FIXTURES)))


@pytest.mark.parametrize("name", sorted(write_builtin_alists.PEG_FIXTURES))
def test_builtin_alist_matches_peg(name, tmp_path):
    # each shipped alist is what PEG grows for its name, written canonically
    shipped = resources.files("dmmsim").joinpath("codes", f"{name}.alist").read_bytes()
    save_alist(write_builtin_alists.fixture_parity(name), tmp_path / "peg.alist")
    assert (tmp_path / "peg.alist").read_bytes() == shipped
    code = builtin_code(name)
    assert code.name == name
    save_alist(code.parity, tmp_path / "again.alist")
    assert (tmp_path / "again.alist").read_bytes() == shipped


def test_builtin_hamming_alist_matches_literal(tmp_path):
    # the shipped file is the textbook (7,4) Hamming H, written canonically
    h = np.array([[1, 0, 1, 0, 1, 0, 1],
                  [0, 1, 1, 0, 0, 1, 1],
                  [0, 0, 0, 1, 1, 1, 1]], dtype=np.uint8)
    shipped = resources.files("dmmsim").joinpath("codes", "hamming_7_4.alist").read_bytes()
    save_alist(h, tmp_path / "h.alist")
    assert (tmp_path / "h.alist").read_bytes() == shipped
    with open(f"{DATA}/hamming74.alist", "rb") as fh:
        assert fh.read() == shipped
    code = builtin_code("hamming_7_4")
    assert code.name == "hamming_7_4" and np.array_equal(code.parity, h)


def test_repetition_combining_equivalence(code64_r14):
    # K identical copies at llr x decode exactly like one observation at K*x
    rng = np.random.default_rng(4)
    rep = extend_repetition(code64_r14, 3)
    llr_base = rng.normal(0, 2.0, code64_r14.n)
    est_rep, conv_rep, iters_rep = decode_soft_batch(rep, np.repeat(llr_base, 3)[None, :])
    est_dir, conv_dir, iters_dir = decode_soft_batch(code64_r14, 3.0 * llr_base[None, :])
    assert np.array_equal(est_rep, est_dir)
    assert conv_rep[0] == conv_dir[0]
    assert iters_rep[0] == iters_dir[0]


def test_repetition_cancellation_is_erasure(hamming):
    rep = extend_repetition(hamming, 2)
    llr = np.zeros((1, rep.n))
    llr[0, 0::2] = +3.0
    llr[0, 1::2] = -3.0
    est, conv, _ = decode_soft_batch(rep, llr)
    assert not conv[0]  # combined LLRs are exactly zero everywhere


def test_repetition_monte_carlo_gain(code64_r14):
    # at an SNR where the bare rate-1/4 code fails often, 4-fold combining
    # must rescue a clear majority of frames
    from dmmsim.channel import ChannelConfig, block_rng, noise_block, snr_to_sigma2
    from dmmsim.modem import map_bpsk

    rep = extend_repetition(code64_r14, 4)
    es_n0_db = -4.0
    sigma2 = snr_to_sigma2(es_n0_db)
    cfg = ChannelConfig(sigma2=sigma2, seed=99)
    frames = 1000
    infos = np.stack([block_rng(99, i, stream=1).integers(0, 2, code64_r14.k, dtype=np.uint8)
                      for i in range(frames)])
    cw = encode(code64_r14, infos)
    noise = np.stack([noise_block(cfg, 2 * i, code64_r14.n) for i in range(frames)])
    est, _, _ = decode_soft_batch(code64_r14, 2.0 * (map_bpsk(cw) + noise).real / sigma2)
    fails_base = np.count_nonzero(np.any(est != infos, axis=1))

    cw_rep = encode(rep, infos)
    noise_rep = np.stack([noise_block(cfg, 2 * i + 1, rep.n) for i in range(frames)])
    est_rep, _, _ = decode_soft_batch(rep, 2.0 * (map_bpsk(cw_rep) + noise_rep).real / sigma2)
    fails_rep = np.count_nonzero(np.any(est_rep != infos, axis=1))
    assert fails_base > 100 * max(1, fails_rep)
    assert fails_rep < 5


# ---------------------------------------------------------------------------
# parity -> generator, alist
# ---------------------------------------------------------------------------

def test_generator_from_parity_hamming_exhaustive(hamming):
    infos, cws = all_codewords(hamming)
    assert infos.shape[0] == 16
    assert not gf2_matmul(cws, hamming.parity.T).any()
    assert len({tuple(c) for c in cws}) == 16


def test_generator_from_parity_rank_deficient():
    h = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]], dtype=np.uint8)
    with pytest.raises(RankDeficiencyError) as exc:
        BinaryCode(h)
    assert exc.value.achieved_rank == 2


def test_alist_roundtrip_is_canonical(tmp_path):
    fixture = f"{DATA}/hamming74.alist"
    code = load_alist(fixture)
    out = tmp_path / "again.alist"
    save_alist(code.parity, out)
    assert out.read_bytes() == open(fixture, "rb").read()


def test_alist_load_gives_consistent_code():
    code = load_alist(f"{DATA}/hamming74.alist")
    assert code.n == 7 and code.k == 4
    assert not gf2_matmul(code.generator, code.parity.T).any()


def test_alist_empty_file(tmp_path):
    bad = tmp_path / "empty.alist"
    bad.write_text("")
    with pytest.raises(AlistFormatError, match=":1:"):
        load_alist(bad)


def test_alist_degree_mismatch(tmp_path):
    bad = tmp_path / "bad.alist"
    bad.write_text("2 1\n1 2\n1 1\n2\n1\n1 1\n1 2\n")
    with pytest.raises(AlistFormatError) as exc:
        load_alist(bad)
    assert bad.name in str(exc.value)


def test_alist_bad_index(tmp_path):
    bad = tmp_path / "bad2.alist"
    bad.write_text("2 1\n1 2\n1 1\n2\n5\n1\n1 2\n")
    with pytest.raises(AlistFormatError, match="out of range"):
        load_alist(bad)


#: one check on three bits, c1 + c2 + c3 = 0, by line
ALIST_SPC = {1: "3 1", 2: "1 3", 3: "1 1 1", 4: "3", 5: "1", 6: "1", 7: "1", 8: "1 2 3"}
BAD_ALISTS = {
    # case: (replaced lines, None to drop one), the message after "path:"
    "count": ({2: "1 3 4"}, "2: expected 2 values, got 3"),
    "token": ({3: "1 1 x"}, "3: non-integer token"),
    "column degree": ({7: "0"}, "7: column 3 lists 0 rows, degree says 1"),
    "row range": ({6: "2"}, "6: row index 2 out of range 1..1"),
    "duplicate": ({3: "2 1 1", 5: "1 1"}, "5: duplicate entry for row 1"),
    "row disagrees": ({8: "1 2 2"}, "8: row 1 adjacency disagrees with columns"),
    "row degree": ({4: "2"}, "8: row 1 adjacency disagrees with columns"),
    "end of file": ({8: None}, "8: unexpected end of file"),
    "non-ASCII": ({5: "1 \u00e9"}, "5: non-ASCII byte 0xc3"),
    "non-ASCII first": ({1: "\u00e9"}, "1: non-ASCII byte 0xc3"),
    # well formed, but no code: the message names the file only
    "rank": ({1: "3 2", 2: "2 3", 3: "2 2 2", 4: "3 3", 5: "1 2", 6: "1 2", 7: "1 2",
              9: "1 2 3"}, " parity-check matrix is rank deficient: rank 1 < 2 rows"),
    "unconnected column": ({1: "4 1", 3: "1 1 1 0", 8: "0", 9: "1 2 3"},
                           " parity-check matrix has an unconnected column"),
    "square": ({1: "1 1", 2: "1 1", 3: "1", 4: "1", 6: "1", 7: None, 8: None},
               " parity must be m x n with 0 < m < n, got (1, 1)"),
}


def _alist_text(lines: dict) -> str:
    return "".join(f"{text}\n" for _, text in sorted(lines.items()) if text is not None)


def test_alist_single_check(tmp_path):
    path = tmp_path / "spc.alist"
    path.write_text(_alist_text(ALIST_SPC))
    code = load_alist(path)
    assert code.name == "spc.alist" and np.array_equal(code.parity, [[1, 1, 1]])


@pytest.mark.parametrize("case", BAD_ALISTS)
def test_alist_error_message_and_line(tmp_path, case):
    edits, where = BAD_ALISTS[case]
    bad = tmp_path / "bad.alist"
    bad.write_bytes(_alist_text({**ALIST_SPC, **edits}).encode("utf-8"))
    with pytest.raises(AlistFormatError) as exc:
        load_alist(bad)
    assert str(exc.value) == f"{bad}:{where}"


# ---------------------------------------------------------------------------
# construction invariants across the registry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["hamming_7_4", "ldpc_r12_n24", "ldpc_r14_n64",
                                  "ldpc_r12_n256"])
def test_builtin_code_invariants(name):
    code = builtin_code(name)
    assert 0 < code.rate < 1
    assert gf2_rank(code.generator) == code.k
    assert not gf2_matmul(code.generator, code.parity.T).any()
    # systematic positions: codeword restricted to them is the info word
    rng = np.random.default_rng(5)
    info = rng.integers(0, 2, code.k, dtype=np.uint8)
    cw = encode(code, info)
    assert np.array_equal(code.info_from_codeword(cw), info)
