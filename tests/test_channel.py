import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from dmmsim import modem
from dmmsim.channel import (
    ChannelConfig,
    block_rng,
    ebn0_to_esn0,
    esn0_to_ebn0,
    frame_keys,
    noise_block,
    resolve_grid_snr,
    sigma2_to_snr_db,
    snr_to_sigma2,
)
from dmmsim.modem import Constellation
from dmmsim.mutual_info import (
    awgn_entropy,
    mi_awgn,
    mi_axis,
    mi_axis_and_joint,
    mi_bpsk,
    mi_joint_4point,
    mi_qpsk,
)
from dmmsim.receiver import run_point


def test_near_noiseless_limit():
    cfg = ChannelConfig(sigma2=1e-30, seed=0)
    x = np.array([1.0 + 1j, -2.0 - 0.5j])
    assert np.allclose(x + noise_block(cfg, 0, x.size), x, rtol=0, atol=1e-12)


def test_determinism_same_seed_and_block():
    cfg = ChannelConfig(sigma2=0.3, seed=123)
    assert np.array_equal(noise_block(cfg, 5, 64), noise_block(cfg, 5, 64))


def test_blocks_are_distinct_streams():
    cfg = ChannelConfig(sigma2=0.3, seed=123)
    a = noise_block(cfg, 0, 64)
    b = noise_block(cfg, 1, 64)
    assert not np.allclose(a, b)


def test_order_independence():
    # drawing block 7 after block 3 or on its own gives the same noise
    cfg = ChannelConfig(sigma2=1.0, seed=9)
    _ = noise_block(cfg, 3, 128)
    late = noise_block(cfg, 7, 128)
    fresh = noise_block(ChannelConfig(sigma2=1.0, seed=9), 7, 128)
    assert np.array_equal(late, fresh)


def test_sample_statistics():
    sigma2 = 0.37
    cfg = ChannelConfig(sigma2=sigma2, seed=2024)
    n = noise_block(cfg, 0, 500_000)
    comps = np.concatenate([n.real, n.imag])  # 1e6 real draws
    assert comps.var() == pytest.approx(sigma2, rel=0.01)
    assert abs(comps.mean()) < 4.0 * math.sqrt(sigma2) / math.sqrt(comps.size)


def test_gaussianity_jarque_bera():
    cfg = ChannelConfig(sigma2=1.0, seed=77)
    n = noise_block(cfg, 0, 500_000)
    comps = np.concatenate([n.real, n.imag])
    assert stats.jarque_bera(comps).pvalue > 0.01


def test_real_imag_independence():
    cfg = ChannelConfig(sigma2=1.0, seed=5)
    n = noise_block(cfg, 0, 200_000)
    r = np.corrcoef(n.real, n.imag)[0, 1]
    assert abs(r) < 4.0 / math.sqrt(n.size)


def test_snr_to_sigma2_definitions():
    assert snr_to_sigma2(0.0, 1.0) == pytest.approx(0.5)
    assert snr_to_sigma2(0.0, 1.0, "es_n0_per_dim") == pytest.approx(1.0)
    assert snr_to_sigma2(10.0, 1.0) == pytest.approx(0.05)
    assert snr_to_sigma2(0.0, 4.0) == pytest.approx(2.0)


def test_snr_conversion_round_trip():
    for db in (-7.5, 0.0, 3.25, 12.0):
        s2 = snr_to_sigma2(db, 2.0)
        assert sigma2_to_snr_db(s2, 2.0) == pytest.approx(db, abs=1e-12)


def test_ebn0_esn0_rate_half():
    # rate-1/2 single-bit symbols: Eb/N0 exceeds Es/N0 by 10 log10(2)
    assert esn0_to_ebn0(0.0, 0.5) == pytest.approx(10 * math.log10(2), abs=1e-10)
    assert esn0_to_ebn0(0.0, 0.5) == pytest.approx(3.0103, abs=1e-4)


@settings(max_examples=100)
@given(st.floats(-20, 20, allow_nan=False), st.floats(0.01, 1.0, allow_nan=False))
def test_ebn0_round_trip(db, rate):
    assert ebn0_to_esn0(esn0_to_ebn0(db, rate), rate) == pytest.approx(db, abs=1e-12)


def test_snr_point_relation():
    # rate in info bits per channel symbol: Eb/N0 = Es/N0 - 10 log10(rate)
    assert esn0_to_ebn0(-2.0, 9 / 16) == pytest.approx(-2.0 - 10 * math.log10(9 / 16))


def test_invalid_parameters():
    with pytest.raises(ValueError):
        ChannelConfig(sigma2=0.0, seed=1)
    with pytest.raises(ValueError):
        ChannelConfig(sigma2=1.0, seed=1, es=-1.0)
    with pytest.raises(ValueError):
        snr_to_sigma2(0.0, -1.0)
    with pytest.raises(ValueError):
        snr_to_sigma2(0.0, 1.0, "bogus")
    for db in (1e300, -1e300, 3100.0, -3100.0):  # 10**(dB/10) or sigma2 out of range
        with pytest.raises(ValueError, match=re.escape(f"es_n0_db = {db} dB")):
            snr_to_sigma2(db, 1.0)
    with pytest.raises(ValueError):
        ebn0_to_esn0(0.0, 0.0)
    with pytest.raises(ValueError):
        esn0_to_ebn0(0.0, 0.0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ChannelConfig(sigma2=1.0, seed=-4)


Y = np.array([0.3 - 1.2j, -0.7 + 0.1j])
MI_CURVES = (mi_bpsk, mi_qpsk, mi_axis, mi_joint_4point, mi_axis_and_joint)

#: (entry point, parameter, the entry point called with a value for that
#: parameter), one for each parameter that must be positive and finite
POSITIVE_PARAMETERS = [
    ("ChannelConfig", "es", lambda v: ChannelConfig(sigma2=1.0, seed=0, es=v)),
    ("snr_to_sigma2", "es", lambda v: snr_to_sigma2(0.0, v)),
    ("sigma2_to_snr_db", "es", lambda v: sigma2_to_snr_db(0.5, v)),
    ("resolve_grid_snr", "es", lambda v: resolve_grid_snr(0.0, "es_n0_per_dim", v, 0.5, 0.75)),
    ("bpsk", "es", Constellation.bpsk),
    ("qpsk", "es", Constellation.qpsk),
    ("quadrature_pair", "es", Constellation.quadrature_pair),
    ("map_bpsk", "es", lambda v: modem.map_bpsk([0, 1], v)),
    ("dmm_map", "es", lambda v: modem.dmm_map([0, 1], [1, 0], v)),
    ("derotate_and_llr_v1", "es", lambda v: modem.derotate_and_llr_v1(Y, 0.0, v, 1.0)),
    ("run_point", "es", lambda v: run_point("uncoded", snr_db=0.0, es=v, max_frames=8)),
    *((f.__name__, "es", lambda v, f=f: f(0.0, v)) for f in MI_CURVES),
    ("ChannelConfig", "sigma2", lambda v: ChannelConfig(sigma2=v, seed=0)),
    ("sigma2_to_snr_db", "sigma2", sigma2_to_snr_db),
    ("llr_v2", "sigma2", lambda v: modem.llr_v2(Y, Constellation.quadrature_pair(), v)),
    ("derotate_and_llr_v1", "sigma2", lambda v: modem.derotate_and_llr_v1(Y, 0.0, 1.0, v)),
    ("mi_awgn", "sigma2", lambda v: mi_awgn(Constellation.bpsk(), v)),
    ("awgn_entropy", "sigma2", awgn_entropy),
    ("ebn0_to_esn0", "rate", lambda v: ebn0_to_esn0(0.0, v)),
    ("esn0_to_ebn0", "rate", lambda v: esn0_to_ebn0(0.0, v)),
    ("resolve_grid_snr-stream1", "rate",
     lambda v: resolve_grid_snr(0.0, "eb_n0_stream1", 1.0, v, 1.0)),
    ("resolve_grid_snr-overall", "rate",
     lambda v: resolve_grid_snr(0.0, "eb_n0_overall", 1.0, 1.0, v)),
    ("mi_awgn", "tol", lambda v: mi_awgn(Constellation.bpsk(), 0.5, tol=v)),
    *((f.__name__, "tol", lambda v, f=f: f(0.0, tol=v)) for f in MI_CURVES),
]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("name,call", [entry[1:] for entry in POSITIVE_PARAMETERS],
                         ids=[f"{where}-{name}" for where, name, _ in POSITIVE_PARAMETERS])
def test_positive_parameters_reject_what_is_not(name, call, bad):
    # llr_v2 and map_bpsk let inf through, and derotate_and_llr_v1 checked
    # no es: es = -1 raised "math domain error", nan gave NaN LLRs
    with pytest.raises(ValueError, match=re.escape(f"{name} must be positive and finite, "
                                                   f"got {bad}")):
        call(bad)


def test_block_rng_streams_differ():
    a = block_rng(1, 0, stream=0).standard_normal(8)
    b = block_rng(1, 0, stream=1).standard_normal(8)
    assert not np.allclose(a, b)


KEY_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3)


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KEY_SEEDS) | st.integers(0, 2**140),
       st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8))
def test_frame_keys_match_seed_sequence(seed, indices):
    keys = frame_keys(seed, np.array(indices, dtype=np.int64))
    assert keys.shape == (len(indices), 2, 2) and keys.dtype == np.uint64
    for b, i in enumerate(indices):
        for stream in (0, 1):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(i, stream))
            assert np.array_equal(keys[b, stream], ss.generate_state(2, np.uint64))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_frame_keys_at_the_word_edges(seed):
    indices = np.array([0, 1, 2**31, 2**32 - 1], dtype=np.int64)
    keys = frame_keys(seed, indices)
    for b, i in enumerate(indices):
        for stream in (0, 1):
            want = block_rng(seed, int(i), stream).bit_generator.state["state"]["key"]
            assert np.array_equal(keys[b, stream], want)


def test_frame_keys_reject_what_they_cannot_hash():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        frame_keys(-1, np.arange(3))
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        frame_keys(1, np.array([2**32]))
    with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
        frame_keys(1, np.array([-1]))
