from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmmsim import (
    AlistFormatError,
    RankDeficiencyError,
    BinaryCode,
    builtin_code,
    decode_soft_batch,
    encode,
    extend_repetition,
    generator_from_parity,
    load_alist,
    run_point,
    save_alist,
)
from dmmsim.builtin_codes import BUILTIN_CODE_NAMES, PEG_FIXTURES, fixture_parity
from dmmsim.linear_code import LLR_MAX, _degree_sum, gf2_inv, gf2_matmul, gf2_rank, gf2_rref

from oracles import all_codewords, bp_reference, gf2_encode_reference, ml_decode_batch

DATA = __file__.rsplit("/", 1)[0] + "/data"


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
    inv = gf2_inv(a)
    assert np.array_equal(gf2_matmul(a, inv), np.eye(3, dtype=np.uint8))


def test_singular_inverse_raises():
    with pytest.raises(ValueError):
        gf2_inv(np.array([[1, 1], [1, 1]], dtype=np.uint8))


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def test_encode_identity_generator():
    code = BinaryCode(generator=np.concatenate([np.eye(3, dtype=np.uint8),
                                                np.eye(3, dtype=np.uint8)], axis=1))
    assert np.array_equal(encode(code, [1, 0, 1])[:3], [1, 0, 1])


def test_encode_all_zero_info(hamming):
    assert not encode(hamming, np.zeros(hamming.k, dtype=np.uint8)).any()


def test_encode_hand_example():
    # hand GF(2) multiply: [1,1] @ [[1,0,1],[0,1,1]] = [1,1,0]
    g = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    code = BinaryCode(generator=g)
    assert np.array_equal(encode(code, [1, 1]), [1, 1, 0])


def test_encode_against_reference(toy_code):
    rng = np.random.default_rng(0)
    for _ in range(20):
        info = rng.integers(0, 2, toy_code.k, dtype=np.uint8)
        assert np.array_equal(encode(toy_code, info),
                              gf2_encode_reference(toy_code.generator, info))


def test_encode_length_mismatch(hamming):
    with pytest.raises(ValueError):
        encode(hamming, np.zeros(hamming.k + 1, dtype=np.uint8))


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


def test_expansion_map(hamming):
    rep = extend_repetition(hamming, 2)
    m = rep.expansion_map()
    assert m.shape == (hamming.n, 2)
    assert np.array_equal(m.ravel(), np.arange(rep.n))


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


def test_decode_requires_parity():
    code = BinaryCode(generator=np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8))
    with pytest.raises(ValueError):
        decode_soft_batch(code, np.zeros((1, 3)))


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
    return generator_from_parity(h, name="irregular_20_40")


@pytest.mark.parametrize("width", range(1, 13))
def test_degree_sum_matches_reduceat(width):
    rng = np.random.default_rng(width)
    x = rng.normal(size=(3, 50, width)) * 10.0 ** rng.uniform(-3, 3, (3, 50, width))
    want = np.add.reduceat(x.reshape(3, -1), np.arange(0, 50 * width, width), axis=1)
    assert np.array_equal(_degree_sum(x), want)
    assert np.array_equal(_degree_sum(x[:1]), want[:1])


def _reference_code(name, toy_code):
    if name in BUILTIN_CODE_NAMES:
        return builtin_code(name)
    return {
        "toy_6_3": lambda: toy_code,
        "hamming74.alist": lambda: load_alist(f"{DATA}/hamming74.alist"),
        "ldpc_r14_n64x4": lambda: extend_repetition(builtin_code("ldpc_r14_n64"), 4),
        "irregular_20_40": _irregular_code,
    }[name]()


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
        with pytest.raises(ValueError, match="inconsistent"):
            BinaryCode(generator=bad, parity=code.parity)


@pytest.mark.parametrize("name", BUILTIN_CODE_NAMES + (
    "toy_6_3", "hamming74.alist", "ldpc_r14_n64x4", "irregular_20_40"))
def test_decode_matches_reference(name, toy_code):
    # the fixed-degree decoder gives the reduceat decoder's bits, flags and
    # iteration counts exactly, on noisy frames at several SNRs and on edge rows
    code = _reference_code(name, toy_code)
    inner = code.base if hasattr(code, "base") else code
    rng = np.random.default_rng(7)
    cw = encode(code, rng.integers(0, 2, (6, code.k), dtype=np.uint8))
    llrs = np.concatenate([2.0 * ((1.0 - 2.0 * cw) + rng.normal(0, s, cw.shape)) / s ** 2
                           for s in (0.5, 0.8, 1.0, 1.3)])
    llrs[1, ::5] = 0.0  # exact zeros among the inputs
    llrs[2] = 0.0  # total erasure
    llrs[3] = np.where(llrs[3] < 0, -LLR_MAX, LLR_MAX)  # saturated
    llrs[4] *= 1e3  # far beyond the clip
    llrs[5] = -0.0

    def reference(rows, max_iter):
        if inner is not code:
            rows = rows.reshape(rows.shape[0], inner.n, code.k_rep).sum(axis=2)
        bits, conv, iters = bp_reference(inner.parity, rows, max_iter)
        return inner.info_from_codeword(bits), conv, iters

    cases = [(llrs, 50), (llrs, 1), (llrs, 3)] + [(llrs[i:i + 1], 50) for i in (0, 2, 3, 20)]
    for rows, max_iter in cases:
        got = decode_soft_batch(code, rows, max_iter=max_iter)
        want = reference(rows, max_iter)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@pytest.mark.parametrize("name", sorted(PEG_FIXTURES))
def test_builtin_alist_matches_peg(name, tmp_path):
    # each shipped alist is what PEG grows for its name, written canonically
    shipped = resources.files("dmmsim").joinpath("codes", f"{name}.alist").read_bytes()
    save_alist(fixture_parity(name), tmp_path / "peg.alist")
    assert (tmp_path / "peg.alist").read_bytes() == shipped
    code = builtin_code(name)
    assert code.name == name
    save_alist(code, tmp_path / "again.alist")
    assert (tmp_path / "again.alist").read_bytes() == shipped


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
        generator_from_parity(h)
    assert exc.value.achieved_rank == 2


def test_alist_roundtrip_is_canonical(tmp_path):
    fixture = f"{DATA}/hamming74.alist"
    code = load_alist(fixture)
    out = tmp_path / "again.alist"
    save_alist(code, out)
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


# ---------------------------------------------------------------------------
# construction invariants across the registry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["hamming_7_4", "ldpc_r12_n24", "ldpc_r14_n64",
                                  "ldpc_r12_n256"])
def test_builtin_code_invariants(name):
    from dmmsim import builtin_code

    code = builtin_code(name)
    assert 0 < code.rate < 1
    assert gf2_rank(code.generator) == code.k
    assert not gf2_matmul(code.generator, code.parity.T).any()
    # systematic positions: codeword restricted to them is the info word
    rng = np.random.default_rng(5)
    info = rng.integers(0, 2, code.k, dtype=np.uint8)
    cw = encode(code, info)
    assert np.array_equal(code.info_from_codeword(cw), info)
