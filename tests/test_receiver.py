import dataclasses
import math

import numpy as np
import pytest

import dmmsim.receiver as receiver_mod
from dmmsim import (
    ChannelConfig,
    beta_from_bits,
    builtin_code,
    derotate_and_llr_v1,
    dmm_map,
    encode,
    extend_repetition,
    paired_genie_vs_bpsk,
    run_point,
    snr_at_ber,
    wilson_interval,
)
from dmmsim.channel import block_rng, snr_to_sigma2

from oracles import (
    bpsk_ber_theory,
    frame_batch_reference,
    frame_batch_rekeyed_reference,
    paired_batch_reference,
    two_proportion_z,
)


@pytest.fixture(scope="module")
def dmm_pair(code256, rep16_n256):
    return code256, rep16_n256


def _cfg(es_n0_db, seed, es=1.0):
    return ChannelConfig(sigma2=snr_to_sigma2(es_n0_db, es), seed=seed, es=es)


def _receive(code1, code2, cfg, frames, genie):
    """Per-frame error counts of frames 0..frames-1 through the receiver."""
    words, noise = receiver_mod._frame_batch(cfg, np.arange(frames), code1.n,
                                             (code1.k, code2.k))
    return receiver_mod._receive_batch(code1, code2, cfg, words, noise, 50, genie=genie)[:3]


# ---------------------------------------------------------------------------
# frame-level behaviour
# ---------------------------------------------------------------------------

def test_noiseless_frame_exact(dmm_pair):
    code1, code2 = dmm_pair
    cfg = ChannelConfig(sigma2=1e-20, seed=0)
    for genie in (False, True):
        e1, e2, berr = _receive(code1, code2, cfg, 4, genie)
        assert not e1.any()
        assert not e2.any()
        assert not berr.any()


def test_receive_frame_rejects_unknown_mode(dmm_pair):
    # the receiver mode is part of the scheme name; an unknown one is refused
    code1, code2 = dmm_pair
    with pytest.raises(ValueError):
        run_point("dmm_oracle", code1, code2, snr_db=2.0, seed=1)


def test_reencoding_consistency(dmm_pair):
    # exact second-stream decode implies the exact rotation pattern (linearity)
    code1, code2 = dmm_pair
    e1, e2, berr = _receive(code1, code2, _cfg(3.0, 7), 8, genie=False)
    assert e2[4] == 0 and berr[4] == 0
    assert not berr[e2 == 0].any()


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
    # equal to a new generator per frame, and to one re-keyed generator
    # drawing each word through Generator.integers
    cfg = ChannelConfig(sigma2=0.37, seed=seed)
    indices = np.arange(start, start + 9, dtype=np.int64)
    words, noise = receiver_mod._frame_batch(cfg, indices, n, ks)
    for reference in (frame_batch_reference, frame_batch_rekeyed_reference):
        want_words, want_noise = reference(cfg, indices, n, ks)
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


def test_genie_llrs_bit_identical_to_bpsk(dmm_pair):
    code1, code2 = dmm_pair
    pr = paired_genie_vs_bpsk(code1, code2, _cfg(1.0, 11), frames=40)
    assert np.array_equal(pr.llr_genie, pr.llr_bpsk)
    assert np.array_equal(pr.errors_genie, pr.errors_bpsk)


def test_paired_run_batch_size_invariance(dmm_pair, monkeypatch):
    # 20 frames at a frame error rate near one half: the chunked run must
    # return the same LLRs and error counts as one batch of all frames
    code1, code2 = dmm_pair
    cfg = _cfg(-1.5, 12)
    monkeypatch.setattr(receiver_mod, "_BATCH_FRAMES", 20)
    whole = paired_genie_vs_bpsk(code1, code2, cfg, frames=20)
    monkeypatch.setattr(receiver_mod, "_BATCH_FRAMES", 7)
    decode, rows = receiver_mod.linear_code.decode_soft_batch, {id(code1): [], id(code2): []}

    def counting_decode(code, llr, **kw):
        rows[id(code)].append(llr.shape[0])
        return decode(code, llr, **kw)

    monkeypatch.setattr(receiver_mod.linear_code, "decode_soft_batch", counting_decode)
    chunked = paired_genie_vs_bpsk(code1, code2, cfg, frames=20)
    assert rows[id(code1)] == [7, 7, 7, 7, 6, 6]  # genie and BPSK decode per chunk
    assert rows[id(code2)] == [7, 7, 6]  # the genie receiver also decodes stream 2
    assert chunked.llr_genie.shape == (20, code1.n)
    for field in ("llr_genie", "llr_bpsk", "errors_genie", "errors_bpsk"):
        a, b = getattr(whole, field), getattr(chunked, field)
        assert a.dtype == b.dtype
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    assert 0 < np.count_nonzero(whole.errors_genie) < 20
    with pytest.raises(ValueError):
        paired_genie_vs_bpsk(code1, code2, cfg, frames=0)


@pytest.mark.parametrize("snr_db", [-3.0, -1.0, 1.5])
def test_paired_run_bitwise_equal_to_reference(dmm_pair, snr_db):
    # both sides now run the sweep receiver; the old second copy is the oracle
    code1, code2 = dmm_pair
    cfg, frames = _cfg(snr_db, 7), 150  # not a multiple of the batch size
    pr = paired_genie_vs_bpsk(code1, code2, cfg, frames=frames)
    want = paired_batch_reference(code1, code2, cfg, np.arange(frames), 50)
    for field, w in zip(("llr_genie", "llr_bpsk", "errors_genie", "errors_bpsk"), want):
        got = getattr(pr, field)
        assert got.dtype == w.dtype and got.shape == w.shape
        assert np.array_equal(got.view(np.int64), w.view(np.int64))


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
    from dmmsim import demod_v2_hard, dmm_map, noise_block

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


def test_snr_at_ber_interpolation():
    snr = [0.0, 1.0, 2.0]
    ber = [1e-2, 1e-3, 1e-5]
    assert snr_at_ber(snr, ber, 1e-3) == pytest.approx(1.0)
    assert snr_at_ber(snr, ber, 1e-4) == pytest.approx(1.5)
    assert snr_at_ber(snr, ber, 1e-7) is None
    assert snr_at_ber([0.0], [1e-3], 1e-3) is None
