import dataclasses
import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dmmsim.receiver as receiver_mod
from dmmsim.builtin_codes import builtin_code
from dmmsim.channel import ChannelConfig, block_rng, frame_keys, noise_block, snr_to_sigma2
from dmmsim.linear_code import encode, extend_repetition
from dmmsim.modem import (beta_from_bits, demod_v2_hard, derotate_and_llr_v1, dmm_map,
                          map_bpsk, rotate)
from dmmsim.receiver import run_point, snr_at_ber, wilson_interval

from oracles import (
    bpsk_ber_theory,
    frame_batch_reference,
    paired_batch_reference,
    realistic_batch_reference,
    two_proportion_z,
)


@pytest.fixture(scope="module")
def dmm_pair(code256, rep16_n256):
    return code256, rep16_n256


def _cfg(es_n0_db, seed, es=1.0):
    return ChannelConfig(sigma2=snr_to_sigma2(es_n0_db, es), seed=seed, es=es)


def _receive(code1, code2, cfg, frames):
    """Per-frame counts of frames 0..frames-1 through the realistic receiver,
    by row name: stream 1 realistic, stream 1 genie, stream 2 and rotations."""
    words, noise = receiver_mod._frame_batch(cfg, np.arange(frames), code1.n,
                                             (code1.k, code2.k))
    counts, _ = receiver_mod._receive_batch(code1, code2, cfg, words, noise, 50,
                                            realistic=True)
    assert counts.shape == (4, frames) and counts.dtype == np.int64
    return dict(zip(receiver_mod._COUNTS, counts))


#: what :func:`_paired` returns, in the order of ``paired_batch_reference``
#: and then the realistic side
PAIRED_FIELDS = ("llr_genie", "llr_bpsk", "errors_genie", "errors_bpsk", "errors1",
                 "beta_errors")


def _paired(code1, code2, cfg, frames):
    """Frames 0..frames-1 through the receiver twice, batch by batch.

    The ``dmm_genie`` side sees y = Rot(x1) + n and derotates by the true
    rotation; the ``bpsk_baseline`` side sees x1 + Rot^{-1}(n), the same
    noise expressed in the derotated frame by the general-angle ``rotate``.
    Rotation is an isometry, so the two LLR streams agree bit for bit.
    Returns the ``PAIRED_FIELDS`` arrays over all frames, by name.
    """
    parts = []
    for idx in receiver_mod._batches(frames, code1.n):
        words, noise = receiver_mod._frame_batch(cfg, idx, code1.n, (code1.k, code2.k))
        # the BPSK side's noise, taken before the genie side consumes noise
        derotated = rotate(noise, -beta_from_bits(encode(code2, words[1])))
        counts, llr_genie = receiver_mod._receive_batch(code1, code2, cfg, words, noise, 50,
                                                        realistic=True)
        bpsk, llr_bpsk = receiver_mod._receive_batch(code1, None, cfg, words[:1], derotated, 50)
        dmm, bpsk = (dict(zip(receiver_mod._COUNTS, c)) for c in (counts, bpsk))
        parts.append((llr_genie, llr_bpsk, dmm["errors1_genie"], bpsk["errors1_genie"],
                       dmm["errors1"], dmm["beta_errors"]))
    return dict(zip(PAIRED_FIELDS, (np.concatenate(field) for field in zip(*parts))))


# ---------------------------------------------------------------------------
# frame-level behaviour
# ---------------------------------------------------------------------------

def test_noiseless_frame_exact(dmm_pair):
    code1, code2 = dmm_pair
    cfg = ChannelConfig(sigma2=1e-20, seed=0)
    for errors in _receive(code1, code2, cfg, 4).values():
        assert errors.shape == (4,) and not errors.any()


def test_receive_frame_rejects_unknown_mode(dmm_pair):
    # the receiver mode is part of the scheme name; an unknown one is refused
    code1, code2 = dmm_pair
    with pytest.raises(ValueError):
        run_point("dmm_oracle", code1, code2, snr_db=2.0, seed=1)


def test_reencoding_consistency(dmm_pair):
    # exact second-stream decode implies the exact rotation pattern (linearity)
    code1, code2 = dmm_pair
    rows = _receive(code1, code2, _cfg(3.0, 7), 8)
    assert rows["errors2"][4] == 0 and rows["beta_errors"][4] == 0
    assert not rows["beta_errors"][rows["errors2"] == 0].any()
    assert np.array_equal(rows["errors1"], rows["errors1_genie"])


def test_fault_injection_flips_exactly_affected_symbols(dmm_pair):
    # flip one decoded second-stream bit before re-encoding: precisely the
    # symbols covered by that bit's codeword support are derotated wrongly,
    # and their polarity LLRs collapse to noise-only projections
    code1, code2 = dmm_pair
    cfg = ChannelConfig(sigma2=1e-12, seed=3)
    (c1, c2), noise = receiver_mod._frame_batch(cfg, np.array([1]), code1.n,
                                                (code1.k, code2.k))
    v2 = encode(code2, c2[0])
    beta = beta_from_bits(v2)
    y = dmm_map(encode(code1, c1[0]), v2, cfg.es) + noise[0]

    c2_bad = c2[0].copy()
    c2_bad[5] ^= 1
    beta_bad = beta_from_bits(encode(code2, c2_bad))
    affected = np.nonzero(beta_bad != beta)[0]
    expected = np.nonzero(v2 != encode(code2, c2_bad))[0]
    assert np.array_equal(affected, expected)
    assert affected.size > 0

    llr_bad = derotate_and_llr_v1(y, beta_bad, cfg.es, cfg.sigma2)
    llr_good = derotate_and_llr_v1(y, beta, cfg.es, cfg.sigma2)
    untouched = np.setdiff1d(np.arange(code1.n), affected)
    assert np.array_equal(llr_bad[untouched], llr_good[untouched])
    # wrongly derotated symbols project the (here: negligible) noise onto the
    # polarity axis, so their LLRs are tiny compared to the clean ones
    assert np.max(np.abs(llr_bad[affected])) < 1e-3 * np.min(np.abs(llr_good[untouched]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ks,n,start", [((128, 16), 256, 0), ((1024, 128), 2048, 0),
                                        ((13, 7), 13, 0), ((1,), 1, 0), ((128, 16), 256, 4093)])
@pytest.mark.parametrize("seed", [0, 77, 2**64 + 5])
def test_frame_batch_bitwise_equal_to_reference(ks, n, start, seed):
    # equal to a new generator per frame, drawing each word through
    # Generator.integers
    cfg = ChannelConfig(sigma2=0.37, seed=seed)
    indices = np.arange(start, start + 9, dtype=np.int64)
    words, noise = receiver_mod._frame_batch(cfg, indices, n, ks)
    want_words, want_noise = frame_batch_reference(cfg, indices, n, ks)
    assert len(words) == len(want_words)
    for w, want in zip(words, want_words):
        assert w.dtype == want.dtype and np.array_equal(w, want)
    assert noise.dtype == want_noise.dtype and noise.shape == want_noise.shape
    assert np.array_equal(noise.view(np.int64), want_noise.view(np.int64))


@pytest.mark.parametrize("seed", [0, 1, 2**64 + 5])
def test_frame_batch_byte_rule_matches_integers(seed):
    # the top bits of the random_raw bytes are Generator.integers(0, 2) for
    # every word length mod 4, and across words: an odd count of uint32s
    # leaves the next word starting on the high half of a uint64
    cfg = ChannelConfig(sigma2=1.0, seed=seed)
    indices = np.array([0, 1, 2**32 - 1], dtype=np.int64)
    for ks in [(k,) for k in range(1, 71)] + [(5, 3), (4, 4), (1, 1), (6, 9), (7, 5, 2)]:
        words, _ = receiver_mod._frame_batch(cfg, indices, 1, ks)
        for j, i in enumerate(indices):
            rng = block_rng(seed, int(i), stream=receiver_mod.DATA_STREAM)
            for w, k in zip(words, ks):
                assert w.shape == (indices.size, k)
                assert np.array_equal(w[j], rng.integers(0, 2, size=k, dtype=np.uint8)), ks


def test_frame_batch_guard_names_numpy_version(monkeypatch):
    # a numpy whose bounded draw reads its bytes differently fails loudly
    class OtherIntegers(np.random.Generator):
        def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
            return super().integers(low, high, size, np.uint16, endpoint).astype(dtype)

    monkeypatch.setattr(np.random, "Generator", OtherIntegers)
    cfg = ChannelConfig(sigma2=1.0, seed=3)
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
        receiver_mod._frame_batch(cfg, np.arange(4), 8, (128, 16))


def _bits(a):
    """The bits of a float or complex array, zero signs included."""
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("scheme", ["dmm_genie", "bpsk_baseline", "uncoded"])
def test_link_stages_bit_identical_to_their_definitions(dmm_pair, scheme):
    # the receiver adds the symbol parts into its noise array and selects
    # the stream-1 LLRs by the axis bits; both equal the complex map and the
    # angle derotation to the bit.  Noise parts of +0.0, -0.0 and -+sqrt(es)
    # make received parts of either zero on every (v1, v2) pair
    code1, code2 = {"dmm_genie": dmm_pair, "bpsk_baseline": (dmm_pair[0], None),
                    "uncoded": (None, None)}[scheme]
    es, frames, n = 2.5, 12, 256
    cfg = ChannelConfig(sigma2=0.7, seed=0, es=es)
    rng = np.random.default_rng(4)
    words = [rng.integers(0, 2, (frames, code.k), dtype=np.uint8)
             for code in (code1, code2) if code is not None] or [
        rng.integers(0, 2, (frames, n), dtype=np.uint8)]
    pool = np.concatenate([[0.0, -0.0, math.sqrt(es), -math.sqrt(es)], rng.normal(size=4)])
    noise = np.empty((frames, n), dtype=np.complex128)
    noise.real = rng.choice(pool, noise.shape)
    noise.imag = rng.choice(pool, noise.shape)
    sent = noise.copy()

    _, llr1 = receiver_mod._receive_batch(code1, code2, cfg, words, noise, 50)
    v1 = words[0] if code1 is None else encode(code1, words[0])
    if code2 is None:
        y = sent + map_bpsk(v1, es)
        llr = derotate_and_llr_v1(y, 0.0, es, cfg.sigma2)
    else:
        v2 = encode(code2, words[1])
        assert {(a, b) for a in (0, 1) for b in (0, 1)} <= set(zip(v1.flat, v2.flat))
        y = sent + dmm_map(v1, v2, es)
        llr = derotate_and_llr_v1(y, beta_from_bits(v2), es, cfg.sigma2)
    assert np.array_equal(_bits(noise), _bits(y))  # the batch's received symbols
    assert np.array_equal(_bits(llr1), _bits(llr))
    # -0.0 + -0.0 is the one sum that gives -0.0: a rotated symbol's real
    # part for v1 = 1 plus a -0.0 noise part
    zeros = y.real[y.real == 0]
    assert not np.signbit(zeros).all()
    assert np.signbit(zeros).any() == (code2 is not None)
    assert (y.imag == 0).any() and (llr == 0).any()


class _SignedZeroDraws(np.random.Generator):
    """Standard normals with exact zeros of both signs written over some draws."""

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        z = super().standard_normal(size, dtype, out)
        z[::3] = -0.0
        z[1::7] = 0.0
        return z


def test_frame_batch_noise_assembly_equals_noise_block(monkeypatch):
    # the batch keeps each draw's sign, -0.0 too, as noise_block does;
    # assembling re + 1j*im would turn some of these zeros into +0.0
    monkeypatch.setattr(np.random, "Generator", _SignedZeroDraws)
    cfg = ChannelConfig(sigma2=0.37, seed=5)
    indices = np.arange(3, 12)
    _, noise = receiver_mod._frame_batch(cfg, indices, 7, (5,))
    for row, i in zip(noise, indices):
        block = noise_block(cfg, int(i), 7)
        assert np.array_equal(_bits(row), _bits(block))
        assert np.signbit(block.real[block.real == 0]).any()
        assert np.signbit(block.imag[block.imag == 0]).any()
        z = block.view(np.float64)
        assert not np.array_equal(_bits(z[0::2] + 1j * z[1::2]), _bits(block))


def test_genie_llrs_bit_identical_to_bpsk(dmm_pair):
    code1, code2 = dmm_pair
    pair = _paired(code1, code2, _cfg(1.0, 11), 40)
    assert np.array_equal(pair["llr_genie"], pair["llr_bpsk"])
    assert np.array_equal(pair["errors_genie"], pair["errors_bpsk"])


def test_paired_run_batch_size_invariance(dmm_pair, monkeypatch):
    # 20 frames at a frame error rate near one half: the chunked run must
    # return the same LLRs and error counts as one batch of all frames
    code1, code2 = dmm_pair
    cfg = _cfg(-1.5, 12)
    monkeypatch.setattr(receiver_mod, "_BATCH_FRAMES", 20)
    whole = _paired(code1, code2, cfg, 20)
    monkeypatch.setattr(receiver_mod, "_BATCH_FRAMES", 7)
    decode, rows = receiver_mod.linear_code.decode_soft_batch, {id(code1): [], id(code2): []}

    def counting_decode(code, llr, **kw):
        rows[id(code)].append(llr.shape[0])
        return decode(code, llr, **kw)

    monkeypatch.setattr(receiver_mod.linear_code, "decode_soft_batch", counting_decode)
    chunked = _paired(code1, code2, cfg, 20)
    # per chunk: the genie decode, the realistic one of the frames with
    # rotation errors (if any), and the BPSK link's
    wrong = [np.count_nonzero(whole["beta_errors"][a:a + 7]) for a in (0, 7, 14)]
    assert sum(w > 0 for w in wrong) >= 2
    assert rows[id(code1)] == [r for size, w in zip((7, 7, 6), wrong)
                               for r in (size, w, size) if r]
    assert rows[id(code2)] == [7, 7, 6]  # the two-stream receiver decodes stream 2 once
    assert chunked["llr_genie"].shape == (20, code1.n)
    for field in PAIRED_FIELDS:
        a, b = whole[field], chunked[field]
        assert a.dtype == b.dtype
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    assert 0 < np.count_nonzero(whole["errors_genie"]) < 20


@pytest.mark.parametrize("scheme", ["dmm_genie", "dmm_realistic"])
def test_run_point_decodes_stream1_once_per_frame(dmm_pair, monkeypatch, scheme):
    # a dmm_genie point decodes stream 1 once per frame; a dmm_realistic
    # point decodes again, and only, the frames whose rebuilt rotations are
    # wrong.  Both decode stream 2 once per frame
    code1, code2 = dmm_pair
    snr_db, seed, frames = -2.5, 5, 150
    counts = _receive(code1, code2, _cfg(snr_db, seed), frames)
    wrong = np.count_nonzero(counts["beta_errors"])
    assert 0 < wrong < frames
    decode, rows = receiver_mod.linear_code.decode_soft_batch, {id(code1): [], id(code2): []}

    def counting_decode(code, llr, **kw):
        rows[id(code)].append(llr.shape[0])
        return decode(code, llr, **kw)

    monkeypatch.setattr(receiver_mod.linear_code, "decode_soft_batch", counting_decode)
    res = run_point(scheme, code1, code2, snr_db=snr_db, seed=seed,
                    min_frame_errors=10 ** 9, max_frames=frames)
    realistic = scheme == "dmm_realistic"
    assert (res.frames, res.errors2) == (frames, counts["errors2"].sum())
    assert (res.errors1, res.errors1_genie) == (
        counts["errors1" if realistic else "errors1_genie"].sum(), counts["errors1_genie"].sum())
    assert sum(rows[id(code2)]) == frames
    assert sum(rows[id(code1)]) == frames + (wrong if realistic else 0)


def test_codeword_lengths_must_match(code256, code64_r14):
    # one symbol carries one bit of each stream
    match = r"code2 length 64 must equal code1 length 256 \(one symbol carries one bit of each\)"
    for scheme in ("dmm_genie", "dmm_realistic"):
        with pytest.raises(ValueError, match=match):
            run_point(scheme, code256, code64_r14, snr_db=1.0, max_frames=1)


@pytest.mark.parametrize("snr_db", [-3.0, -1.0, 1.5])
def test_paired_run_bitwise_equal_to_reference(dmm_pair, snr_db):
    # both sides run the sweep receiver; the definition of the pair is the oracle
    code1, code2 = dmm_pair
    cfg, frames = _cfg(snr_db, 7), 150  # not a multiple of the batch size
    pair = _paired(code1, code2, cfg, frames)
    want = paired_batch_reference(code1, code2, cfg, np.arange(frames), 50)
    for field, w in zip(PAIRED_FIELDS, want):
        got = pair[field]
        assert got.dtype == w.dtype and got.shape == w.shape
        assert np.array_equal(got.view(np.int64), w.view(np.int64))


@pytest.mark.parametrize("snr_db", [-3.0, -1.5, -1.0])
def test_one_pass_realistic_bitwise_equal_to_reference(dmm_pair, snr_db):
    # the realistic side decodes again only the frames with rotation
    # errors; the reference derotates every frame by the rebuilt rotations
    # and decodes them all.  Elsewhere the two sides agree frame for frame
    code1, code2 = dmm_pair
    cfg, frames = _cfg(snr_db, 5), 150
    pair = _paired(code1, code2, cfg, frames)
    e1, e2, berr = realistic_batch_reference(code1, code2, cfg, np.arange(frames), 50)
    assert np.array_equal(pair["errors1"], e1)
    assert np.array_equal(pair["beta_errors"], berr)
    wrong = berr > 0
    assert 0 < np.count_nonzero(wrong) < frames  # frames of both kinds
    assert np.array_equal(pair["errors1"][~wrong], pair["errors_genie"][~wrong])
    assert (pair["errors1"][wrong] > pair["errors_genie"][wrong]).any()
    assert np.array_equal(_receive(code1, code2, cfg, frames)["errors2"], e2)


def test_receive_batch_working_set_is_bounded():
    # one realistic 16-frame batch of the criterion-6 codes at -1.3 dB, on a
    # fresh thread that allocates the axis LLR's scratch arrays, traces
    # 2.81 MiB: 2.15 of them stream-1 BP's, which holds one message array
    # and its gather or successor, and 0.31 the scratch.  Peak RSS and the
    # batch bound rest on this per-batch footprint
    code1 = builtin_code("ldpc_r12_n2048")
    code2 = extend_repetition(builtin_code("ldpc_r14_n512"), 4)
    cfg = _cfg(-1.3, 1)
    words, noise = receiver_mod._frame_batch(cfg, np.arange(16), code1.n, (code1.k, code2.k))
    tracemalloc.start()
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(receiver_mod._receive_batch, code1, code2, cfg, words, noise, 50,
                        realistic=True).result(timeout=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * 2 ** 20


def test_frame_batch_working_set_is_bounded():
    # a 16-frame batch at n = 2048 on a fresh thread traces its complex
    # noise (512 KiB), into which each frame draws in place, its info words
    # and their draws: no float buffer of the draws beside the noise, no
    # assembly temporaries.  A warm-up batch first, so the trace holds no
    # lazy import of numpy.random
    cfg = _cfg(-1.3, 1)
    receiver_mod._frame_batch(cfg, np.arange(2), 2048, (1024, 128))
    tracemalloc.start()
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(receiver_mod._frame_batch, cfg, np.arange(16), 2048,
                        (1024, 128)).result(timeout=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * 2 ** 20


def test_genie_statistically_equal_to_bpsk_baseline(dmm_pair):
    # independent constructions (not the paired harness): two-proportion
    # z-test on stream-1 bit errors at a level with plenty of errors
    code1, code2 = dmm_pair
    kwargs = dict(snr_db=-2.0, seed=21, min_frame_errors=150, max_frames=4000)
    genie = run_point("dmm_genie", code1, code2, **kwargs)
    base = run_point("bpsk_baseline", code1, None, **kwargs)
    assert genie.frame_errors >= 100 and base.frame_errors >= 100
    z = two_proportion_z(genie.errors1, genie.bits1, base.errors1, base.bits1)
    assert abs(z) < 2.576  # alpha = 0.01


# ---------------------------------------------------------------------------
# run_point
# ---------------------------------------------------------------------------

def test_run_point_refuses_overflowing_axis_llrs(dmm_pair):
    # at -3079 dB (sigma2 = 3.97e307) the squared distances overflow and the
    # axis LLRs came out NaN; at -3000 dB they are still finite
    code1, code2 = dmm_pair
    assert run_point("dmm_realistic", code1, code2, snr_db=-3000.0, max_frames=2).frames == 2
    with pytest.raises(ValueError, match=r"sigma2 = 3\.97e\+307"):
        run_point("dmm_realistic", code1, code2, snr_db=-3079.0, max_frames=2)


def test_run_point_zero_noise(dmm_pair):
    code1, code2 = dmm_pair
    res = run_point("dmm_realistic", code1, code2, snr_db=60.0, seed=2,
                    min_frame_errors=5, max_frames=50)
    assert res.frames == 50
    assert res.errors1 == res.errors2 == res.frame_errors == 0
    assert res.stop_reason == "max_frames"
    assert math.isnan(res.fer) is False


def test_run_point_heavy_noise_axis_rate(dmm_pair):
    # at -20 dB the hard axis decision is a coin flip
    cfg = _cfg(-20.0, 5)
    rng_bits = np.random.default_rng(0)
    v1 = rng_bits.integers(0, 2, 20000)
    v2 = rng_bits.integers(0, 2, 20000)
    y = dmm_map(v1, v2, 1.0) + noise_block(cfg, 0, 20000)
    err = np.count_nonzero(demod_v2_hard(y) != v2)
    assert err / 20000 == pytest.approx(0.5, abs=0.02)


def test_run_point_uncoded_matches_q_function():
    res = run_point("uncoded", snr_db=4.0, snr_convention="eb_n0_stream1",
                    seed=12, min_frame_errors=10 ** 9, max_frames=60,
                    uncoded_block_bits=8192)
    expected = float(bpsk_ber_theory(4.0))
    assert expected == pytest.approx(1.25e-2, rel=0.01)
    assert res.errors1 >= 100
    assert res.ber1 == pytest.approx(expected, rel=0.10)


def test_run_point_stop_on_frame_errors(dmm_pair):
    code1, code2 = dmm_pair
    res = run_point("dmm_realistic", code1, code2, snr_db=-4.0, seed=3,
                    min_frame_errors=12, max_frames=10_000)
    assert res.stop_reason == "min_frame_errors"
    assert res.frame_errors == 12  # stops exactly at the threshold frame


def test_run_point_stop_rules_tie():
    # every frame is in error, so both stop rules fire on the last frame;
    # the point is labelled max_frames
    res = run_point("uncoded", snr_db=-10.0, seed=4, min_frame_errors=10,
                    max_frames=10, uncoded_block_bits=256)
    assert res.frames == res.frame_errors == 10
    assert res.stop_reason == "max_frames"


def _stat_fields(res):
    return (res.frames, res.frame_errors, res.errors1, res.errors2,
            res.beta_errors, res.bits1, res.bits2, res.stop_reason)


def test_run_point_batch_size_invariance(dmm_pair, monkeypatch):
    code1, code2 = dmm_pair
    kwargs = dict(snr_db=-1.5, seed=9, min_frame_errors=15, max_frames=300)
    ref = run_point("dmm_realistic", code1, code2, **kwargs)
    monkeypatch.setattr(receiver_mod, "_BATCH_FRAMES", 7)
    alt = run_point("dmm_realistic", code1, code2, **kwargs)
    assert _stat_fields(ref) == _stat_fields(alt)


@pytest.mark.parametrize("count", [0, 1, 15, 16, 17, 130])
def test_batches_cover_every_frame_once_in_order(count):
    # frames per batch follow the frame length: 16 at n = 2048, 64 at
    # n = 256, 8 for 4096-bit uncoded blocks and at least one
    for n, size in ((2048, 16), (256, 64), (4096, 8), (2**40, 1)):
        parts = list(receiver_mod._batches(count, n))
        assert [p.size for p in parts] == [size] * (count // size) + [count % size] * (
            count % size > 0)
        assert all(p.dtype == np.int64 for p in parts)
        assert np.array_equal(np.concatenate([np.empty(0, np.int64), *parts]), np.arange(count))


def _fold_reference(counts, min_frame_errors, max_frames):
    """The stop rule one frame at a time over the (4, F) per-frame counts:
    the totals by name, frames, frame errors and stop reason (None if the
    frames ran out first)."""
    names = receiver_mod._COUNTS
    totals, frames, frame_errors = dict.fromkeys(names, 0), 0, 0
    for column in counts.T:
        frame = dict(zip(names, column.tolist()))
        for name in names:
            totals[name] += frame[name]
        frames += 1
        frame_errors += frame["errors1"] + frame["errors2"] > 0
        if frames == max_frames:
            return totals, frames, frame_errors, "max_frames"
        if frame_errors >= min_frame_errors:
            return totals, frames, frame_errors, "min_frame_errors"
    return totals, frames, frame_errors, None


@settings(max_examples=300, deadline=None)
@given(frames=st.integers(1, 40), cuts=st.lists(st.integers(1, 39), max_size=8),
       zero_rows=st.sets(st.integers(0, 3)), density=st.floats(0.0, 1.0),
       min_frame_errors=st.integers(1, 45), max_frames=st.integers(1, 45),
       seed=st.integers(0, 2 ** 32 - 1))
# max_frames at the end of a batch, on all-zero rows
@example(frames=10, cuts=[5], zero_rows={0, 1, 2, 3}, density=0.0, min_frame_errors=1,
         max_frames=5, seed=0)
# max_frames inside a batch, with no frame in error (zero stream rows)
@example(frames=10, cuts=[3], zero_rows={0, 2}, density=1.0, min_frame_errors=1,
         max_frames=5, seed=0)
# a stop on the first frame
@example(frames=10, cuts=[4], zero_rows=set(), density=1.0, min_frame_errors=1,
         max_frames=10, seed=0)
# both rules on one frame inside a batch: the reason is max_frames
@example(frames=10, cuts=[3], zero_rows=set(), density=1.0, min_frame_errors=5,
         max_frames=5, seed=0)
# the batches run out before either rule fires
@example(frames=10, cuts=[3, 7], zero_rows={1, 3}, density=0.1, min_frame_errors=40,
         max_frames=12, seed=1)
def test_fold_equals_the_stop_rule_frame_by_frame(frames, cuts, zero_rows, density,
                                                  min_frame_errors, max_frames, seed):
    # per-frame counts split into batches of random sizes fold to what the
    # stop rule gives one frame at a time, and no batch past the stopping
    # one is read
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 6, (4, frames)) * (rng.random((4, frames)) < density)
    counts[sorted(zero_rows)] = 0
    batches = np.split(counts, sorted({cut for cut in cuts if cut < frames}), axis=1)
    source = iter(batches)
    got = receiver_mod._fold(source, min_frame_errors, max_frames)
    want = _fold_reference(counts, min_frame_errors, max_frames)
    assert got == want
    ends = np.cumsum([batch.shape[1] for batch in batches])
    unread = len(batches) - 1 - int(np.searchsorted(ends, want[1])) if want[3] else 0
    assert len(list(source)) == unread


def test_run_point_equal_at_any_frames_per_batch(monkeypatch):
    # the n = 2048 criterion-6 pair at 1, 5, the default 16 and 64 frames per
    # batch; the frame-error stop fires at frame 22, inside a batch of 5, 16
    # or 64
    code1 = builtin_code("ldpc_r12_n2048")
    code2 = extend_repetition(builtin_code("ldpc_r14_n512"), 4)
    kwargs = dict(snr_db=-1.5, seed=2, min_frame_errors=5, max_frames=64)
    sizes, results = [], []
    for frames, symbols in ((1, None), (5, None), (None, None), (64, 64 * 2048)):
        with monkeypatch.context() as patch:
            if frames:
                patch.setattr(receiver_mod, "_BATCH_FRAMES", frames)
            if symbols:
                patch.setattr(receiver_mod, "_BATCH_SYMBOLS", symbols)
            sizes.append(next(receiver_mod._batches(64, code1.n)).size)
            results.append(run_point("dmm_realistic", code1, code2, **kwargs))
    assert sizes == [1, 5, 16, 64]
    assert (results[0].frames, results[0].stop_reason) == (22, "min_frame_errors")
    want = dataclasses.replace(results[0], wall_time_s=0.0)
    for res in results[1:]:
        assert dataclasses.replace(res, wall_time_s=0.0) == want


#: (scheme, seed, min_frame_errors, snr_db): at 3 frames per batch the stop
#: fires inside a batch, with later batches in the window
THREADED_POINTS = [("dmm_realistic", 0, 4, -1.5), ("dmm_genie", 0, 4, -1.5),
                   ("bpsk_baseline", 0, 4, -1.5), ("uncoded", 0, 2, -1.0)]


@pytest.mark.parametrize("scheme,seed,min_frame_errors,snr_db", THREADED_POINTS)
def test_run_point_equal_on_any_thread_count(dmm_pair, monkeypatch, scheme, seed,
                                             min_frame_errors, snr_db):
    # the batches of a point run on 1, 2 and 4 threads (2 and 4 on a
    # shortened switch interval), and on 1 in a sweep pool worker whose
    # share of 4 CPUs is 1; the stop rule reads them in frame order and
    # drops the batches drawn past the stopping frame, so every field but
    # the wall time is the serial result, and the window's threads are gone
    # after.  The batches drawn are a prefix of the point's, no more than
    # one per thread decode at once, and none lies past the window of the
    # stopping batch
    code1, code2 = dmm_pair
    monkeypatch.setattr(receiver_mod, "_BATCH_FRAMES", 3)
    frame_batch, receive_batch = receiver_mod._frame_batch, receiver_mod._receive_batch
    lock, drawn, decoding = threading.Lock(), [], [0, 0]  # [now, most at once]

    def recording_frame_batch(cfg, indices, n, ks):
        with lock:
            drawn.append((int(indices[0]), threading.get_ident()))
            decoding[0] += 1
            decoding[1] = max(decoding)
        return frame_batch(cfg, indices, n, ks)

    def recording_receive_batch(*args, **kwargs):
        try:
            return receive_batch(*args, **kwargs)
        finally:
            with lock:
                decoding[0] -= 1

    monkeypatch.setattr(receiver_mod, "_frame_batch", recording_frame_batch)
    monkeypatch.setattr(receiver_mod, "_receive_batch", recording_receive_batch)
    kwargs = dict(snr_db=snr_db, seed=seed, min_frame_errors=min_frame_errors,
                  max_frames=200, uncoded_block_bits=256)
    results, threads_before = [], threading.active_count()
    for cpus, share in ((1, None), (2, None), (4, None), (4, 1)):
        monkeypatch.setattr(receiver_mod, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(receiver_mod, "_cpu_share", share)
        threads = share or cpus
        drawn.clear()
        decoding[1] = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5 if threads > 1 else interval)
        try:
            res = run_point(scheme, code1, code2, **kwargs)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads_before
        results.append(dataclasses.replace(res, wall_time_s=0.0))
        stop = (res.frames - 1) // 3
        last = len(drawn) - 1
        assert sorted(first for first, _ in drawn) == [3 * b for b in range(last + 1)]
        assert stop <= last <= stop + receiver_mod._WINDOW_PER_THREAD * threads
        if threads == 1:
            assert last == stop  # a serial point draws nothing past its stop
        assert decoding == [0, decoding[1]] and 1 <= decoding[1] <= threads
        # a thread left idle takes the next batch, so threads may repeat
        assert min(threads, 2) <= len({ident for _, ident in drawn}) <= threads
    stop = results[0]
    assert stop.stop_reason == "min_frame_errors" and stop.frame_errors == min_frame_errors
    assert stop.frames % 3
    assert all(res == stop for res in results)
    if scheme == "dmm_realistic":
        assert stop.beta_errors > 0


def _within(call, timeout=10.0):
    """``call()`` on a thread of its own, joined with a timeout, so that a
    window that stalls fails the test rather than hanging it."""
    out = {}

    def target():
        try:
            out["value"] = call()
        except BaseException as exc:  # handed to the test's thread
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the batch window stalled"
    if "error" in out:
        raise out["error"]
    return out["value"]


class _Recorder:
    """A ``work`` for ``_in_frame_order`` that records which thread decodes
    each batch and how many decode at once, and runs ``hooks[batch]`` (if
    any) inside it."""

    def __init__(self, hooks=None):
        self.hooks = hooks or {}
        self.lock = threading.Lock()
        self.thread_of = {}
        self.now = self.most = 0

    def __call__(self, batch):
        with self.lock:
            self.thread_of[batch] = threading.get_ident()
            self.now += 1
            self.most = max(self.most, self.now)
        try:
            if batch in self.hooks:
                self.hooks[batch]()
            return batch
        finally:
            with self.lock:
                self.now -= 1


def test_window_decodes_past_a_slow_batch():
    # the caller holds batch 0 until a window thread has decoded batches 1
    # and 2; groups in lock step would have held batch 2 back
    both = threading.Event()

    def after(batch):
        def hook():
            if {1, 2} <= work.thread_of.keys():
                both.set()
        return hook

    def slow():
        assert both.wait(timeout=5.0), "batches 1 and 2 waited for batch 0"

    work = _Recorder({0: slow, 1: after(1), 2: after(2)})
    threads_before = threading.active_count()

    def run():
        return threading.get_ident(), list(receiver_mod._in_frame_order(work, range(8), 2))

    caller, out = _within(run)
    assert out == list(range(8))
    assert work.thread_of[0] == caller
    assert work.thread_of[1] == work.thread_of[2] != caller
    assert work.most <= 2
    assert threading.active_count() == threads_before


def test_window_stop_wakes_threads_waiting_for_room():
    # three threads, a window of six batches.  The caller holds batch 0
    # until batches 1-5 are decoded; taking batch 0 frees room for batch 6
    # alone, and the stop comes once batch 6 is decoded and the other
    # threads have gone back to wait for room, when no decode is left to
    # wake them: the stop must, and it starts nothing more
    workers = 3
    window = receiver_mod._WINDOW_PER_THREAD * workers
    filled, last = threading.Event(), threading.Event()

    def mark():
        if set(range(1, window)) <= work.thread_of.keys():
            filled.set()

    def slow():
        assert filled.wait(timeout=5.0), "the window did not fill"

    work = _Recorder({0: slow, **{b: mark for b in range(1, window)}, window: last.set})
    threads_before = threading.active_count()

    def run():
        results = receiver_mod._in_frame_order(work, range(100), workers)
        first = next(results)
        assert last.wait(timeout=5.0), "batch 6 did not start"
        while work.now:
            time.sleep(0.001)
        time.sleep(0.05)  # for its thread to store batch 6 and wait again
        results.close()
        return first

    assert _within(run) == 0
    assert threading.active_count() == threads_before
    assert sorted(work.thread_of) == list(range(window + 1))
    assert work.most <= workers


def test_window_raises_an_error_read_before_the_stop():
    # batch 3 fails; the stop rule reads batches 0-2, then the error, as a
    # serial loop would give them
    def fail():
        raise ValueError("batch 3")

    work = _Recorder({3: fail})
    threads_before = threading.active_count()
    read = []

    def run():
        for batch in receiver_mod._in_frame_order(work, range(20), 2):
            read.append(batch)

    with pytest.raises(ValueError, match="batch 3"):
        _within(run)
    assert read == [0, 1, 2]
    assert threading.active_count() == threads_before


def test_window_drops_an_error_past_the_stop():
    # batch 4 fails, and is decoded before batch 2 ends; the stop rule stops
    # on batch 2, so the error is never raised
    failed = threading.Event()

    def fail():
        failed.set()
        raise ValueError("batch 4")

    def wait():
        assert failed.wait(timeout=5.0), "batch 4 did not run"

    work = _Recorder({2: wait, 4: fail})
    threads_before = threading.active_count()
    read = []

    def run():
        results = receiver_mod._in_frame_order(work, range(20), 2)
        try:
            for batch in results:
                read.append(batch)
                if batch == 2:
                    break
        finally:
            results.close()

    _within(run)
    assert read == [0, 1, 2] and 4 in work.thread_of
    assert threading.active_count() == threads_before


def test_run_point_pool_batch_error_propagates(dmm_pair, monkeypatch):
    # the integers guard fails on batch 3, which the pool decodes at 2 and 4
    # threads: its error reaches the caller as from the serial loop, unless
    # the stop rule fires first, when it is dropped with its batch
    code1, _ = dmm_pair
    monkeypatch.setattr(receiver_mod, "_BATCH_FRAMES", 3)
    bad_key = frame_keys(5, [9])[0, receiver_mod.DATA_STREAM]

    class FailingIntegers(np.random.Generator):
        def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
            bits = super().integers(low, high, size, dtype, endpoint)
            if np.array_equal(self.bit_generator.state["state"]["key"], bad_key):
                return 1 - bits
            return bits

    kwargs = dict(snr_db=-1.5, seed=5, max_frames=200)
    monkeypatch.setattr(receiver_mod, "_usable_cpus", lambda: 1)
    serial = run_point("bpsk_baseline", code1, min_frame_errors=1, **kwargs)
    assert serial.frames <= 9  # the frame-error stop fires before batch 3
    monkeypatch.setattr(np.random, "Generator", FailingIntegers)
    threads_before = threading.active_count()
    for cpus in (1, 2, 4):
        monkeypatch.setattr(receiver_mod, "_usable_cpus", lambda: cpus)
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
            run_point("bpsk_baseline", code1, min_frame_errors=10**9, **kwargs)
        assert threading.active_count() == threads_before
        res = run_point("bpsk_baseline", code1, min_frame_errors=1, **kwargs)
        assert dataclasses.replace(res, wall_time_s=0.0) == dataclasses.replace(
            serial, wall_time_s=0.0)
        assert threading.active_count() == threads_before


def test_run_point_deterministic(dmm_pair):
    code1, code2 = dmm_pair
    kwargs = dict(snr_db=-1.0, seed=31, min_frame_errors=10, max_frames=150)
    a = run_point("dmm_genie", code1, code2, **kwargs)
    b = run_point("dmm_genie", code1, code2, **kwargs)
    assert (a.errors1, a.errors2, a.frames, a.frame_errors) == \
           (b.errors1, b.errors2, b.frames, b.frame_errors)


def test_run_point_realistic_not_better_than_genie(dmm_pair):
    code1, code2 = dmm_pair
    kwargs = dict(snr_db=-2.5, seed=17, min_frame_errors=10 ** 9, max_frames=400)
    genie = run_point("dmm_genie", code1, code2, **kwargs)
    real = run_point("dmm_realistic", code1, code2, **kwargs)
    assert real.errors1 >= genie.errors1  # same noise, extra rotation errors


@pytest.mark.parametrize("snr_db,genie_errors1", [(-3.0, 2331), (-1.5, 638)])
def test_run_point_realistic_carries_the_genie_count(dmm_pair, snr_db, genie_errors1):
    # under a frame-count stop both modes see the same frames, so the
    # realistic point's genie count is the genie point's errors1
    code1, code2 = dmm_pair
    kwargs = dict(snr_db=snr_db, seed=5, min_frame_errors=10 ** 9, max_frames=150)
    genie = run_point("dmm_genie", code1, code2, **kwargs)
    real = run_point("dmm_realistic", code1, code2, **kwargs)
    assert real.errors1_genie == genie.errors1 == genie.errors1_genie == genie_errors1
    assert real.beta_errors > 0 and real.errors1 > real.errors1_genie
    assert genie.beta_errors == 0


#: (scheme, snr_db, min_frame_errors) -> (frames, frame_errors, errors1,
#: errors2, beta_errors, errors1_genie) at the n = 256 pair, seed 9: the
#: stop fires inside the first 64-frame batch.  All but errors1_genie were
#: recorded before the two modes shared one receiver pass
STOPPED_POINTS = {
    ("dmm_realistic", -1.5, 15): (45, 15, 281, 25, 632, 140),
    ("dmm_genie", -1.5, 15): (45, 15, 140, 25, 0, 140),
    ("dmm_realistic", -2.5, 40): (47, 40, 933, 64, 2000, 540),
    ("dmm_genie", -2.5, 40): (47, 40, 540, 64, 0, 540),
}


@pytest.mark.parametrize("scheme,snr_db,min_frame_errors", list(STOPPED_POINTS))
def test_run_point_stop_inside_a_batch_keeps_its_fields(dmm_pair, scheme, snr_db,
                                                        min_frame_errors):
    code1, code2 = dmm_pair
    res = run_point(scheme, code1, code2, snr_db=snr_db, seed=9,
                    min_frame_errors=min_frame_errors, max_frames=300)
    assert res.stop_reason == "min_frame_errors"
    assert (res.frames, res.frame_errors, res.errors1, res.errors2, res.beta_errors,
            res.errors1_genie) == STOPPED_POINTS[scheme, snr_db, min_frame_errors]


@pytest.mark.parametrize("scheme", ["bpsk_baseline", "uncoded"])
def test_run_point_genie_count_is_errors1_without_an_axis_stream(code256, scheme):
    res = run_point(scheme, None if scheme == "uncoded" else code256, snr_db=-1.0,
                    seed=4, min_frame_errors=10, max_frames=100, uncoded_block_bits=256)
    assert res.errors1 > 0 and res.errors1_genie == res.errors1
    assert res.beta_errors == res.beta_symbols == 0


def test_run_point_validation(dmm_pair):
    code1, code2 = dmm_pair
    with pytest.raises(ValueError):
        run_point("nonsense", code1, code2, snr_db=0.0)
    with pytest.raises(ValueError):
        run_point("dmm_genie", code1, None, snr_db=0.0)
    with pytest.raises(ValueError):
        run_point("bpsk_baseline", None, None, snr_db=0.0)
    short = code2.base
    with pytest.raises(ValueError):
        run_point("dmm_genie", code1, short, snr_db=0.0)  # length mismatch


def test_run_point_rejects_bad_counts(dmm_pair):
    # these used to return rows with ber1=nan (or bits1=0) instead of failing
    code1, code2 = dmm_pair
    with pytest.raises(ValueError, match="uncoded_block_bits"):
        run_point("uncoded", snr_db=3.0, max_frames=2, uncoded_block_bits=0)
    with pytest.raises(ValueError, match="max_frames"):
        run_point("uncoded", snr_db=3.0, max_frames=0)
    with pytest.raises(ValueError, match="max_frames"):
        run_point("dmm_realistic", code1, code2, snr_db=0.0, max_frames=-1)
    with pytest.raises(ValueError, match="min_frame_errors"):
        run_point("bpsk_baseline", code1, snr_db=0.0, max_frames=4, min_frame_errors=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        run_point("uncoded", snr_db=3.0, max_frames=2, seed=-4)
    # the block size only matters without a code
    res = run_point("bpsk_baseline", code1, snr_db=3.0, max_frames=1, uncoded_block_bits=0)
    assert res.frames == 1 and res.bits1 == code1.k
    res = run_point("uncoded", snr_db=3.0, max_frames=1, min_frame_errors=1,
                    uncoded_block_bits=1)
    assert res.frames == 1 and res.bits1 == 1


def test_run_point_names_only_sent_codes(dmm_pair):
    # uncoded used to name a code1 it was given but never sent
    code1, code2 = dmm_pair
    res = run_point("uncoded", code1, code2, snr_db=3.0, max_frames=1, uncoded_block_bits=8)
    assert (res.code1_name, res.code2_name) == ("", "")
    res = run_point("bpsk_baseline", code1, code2, snr_db=3.0, max_frames=1)
    assert (res.code1_name, res.code2_name) == (code1.name, "")
    # no stream-2 bits, so no stream-2 BER interval
    assert res.bits2 == 0 and all(map(math.isnan, res.ber2_ci))


def test_run_point_frame_indices_fit_one_seed_word():
    # frame i is keyed by the spawn-key word i, so indices stop at 2**32 - 1
    with pytest.raises(ValueError, match="max_frames"):
        run_point("uncoded", snr_db=3.0, max_frames=2**32 + 1, uncoded_block_bits=8)
    res = run_point("uncoded", snr_db=-10.0, max_frames=2**32, min_frame_errors=1,
                    uncoded_block_bits=64)
    assert res.frames == 1 and res.stop_reason == "min_frame_errors"


def test_snr_conventions_affect_sigma2(dmm_pair):
    code1, code2 = dmm_pair
    common = dict(seed=1, min_frame_errors=5, max_frames=20)
    a = run_point("dmm_genie", code1, code2, snr_db=0.0,
                  snr_convention="es_n0_complex", **common)
    b = run_point("dmm_genie", code1, code2, snr_db=0.0,
                  snr_convention="es_n0_per_dim", **common)
    assert a.sigma2 == pytest.approx(0.5)
    assert b.sigma2 == pytest.approx(1.0)
    assert b.es_n0_db == pytest.approx(-3.0103, abs=1e-4)  # complex reading
    assert b.eb_n0_stream1_db == pytest.approx(b.es_n0_db - 10 * math.log10(b.rate1),
                                               abs=1e-12)
    c = run_point("dmm_genie", code1, code2, snr_db=3.0103,
                  snr_convention="eb_n0_stream1", **common)
    assert c.es_n0_db == pytest.approx(0.0, abs=1e-4)
    d = run_point("dmm_genie", code1, code2, snr_db=0.0,
                  snr_convention="eb_n0_overall", **common)
    assert d.es_n0_db == pytest.approx(10 * math.log10(0.5625), abs=1e-12)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def test_wilson_interval_behaviour():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0 and hi < 0.005
    lo, hi = wilson_interval(500, 1000)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (pytest.approx(math.nan, nan_ok=True),) * 2
    # the fixed 95% interval, to the bit
    assert wilson_interval(7, 1000) == (0.0033948250792319966, 0.014378496926949057)
    assert wilson_interval(278, 12288000) == (2.0115963603440316e-05, 2.5444048194790368e-05)
    with pytest.raises(TypeError):
        wilson_interval(7, 1000, z=2.576)


def test_snr_at_ber_interpolation():
    snr = [0.0, 1.0, 2.0]
    ber = [1e-2, 1e-3, 1e-5]
    assert snr_at_ber(snr, ber, 1e-3) == pytest.approx(1.0)
    assert snr_at_ber(snr, ber, 1e-4) == pytest.approx(1.5)
    assert snr_at_ber(snr, ber, 1e-7) is None
    assert snr_at_ber([0.0], [1e-3], 1e-3) is None


@pytest.mark.parametrize("target", [0.0, -1e-4, 1.0, 2.0, math.nan, math.inf])
def test_snr_at_ber_rejects_targets_outside_the_unit_interval(target):
    # 0 and negative targets raised a bare math domain error, and NaN
    # returned None
    with pytest.raises(ValueError, match=r"target must be a BER in \(0, 1\), got"):
        snr_at_ber([0.0, 1.0, 2.0], [1e-2, 1e-3, 1e-5], target)
