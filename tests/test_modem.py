import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmmsim import (
    Constellation,
    beta_from_bits,
    demod_v2_hard,
    derotate_and_llr_v1,
    dmm_map,
    llr_v2,
    map_bpsk,
    rotate,
)
from dmmsim.modem import log_sum_exp

from oracles import (
    llr_v2_bruteforce,
    llr_v2_reference,
    log_sum_exp_last_axis_reference,
    nearest_point_labels,
)

HALF_PI = math.pi / 2

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)
angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)


def test_map_bpsk_reference_points():
    assert map_bpsk(0, 1.0) == 1.0 + 0j
    assert map_bpsk(1, 1.0) == -1.0 + 0j
    assert map_bpsk(0, 4.0) == 2.0 + 0j


def test_map_bpsk_rejects_bad_energy():
    with pytest.raises(ValueError):
        map_bpsk(0, 0.0)


def test_rotate_quarter_turns_exact():
    assert rotate(1.0 + 0j, HALF_PI) == 1j
    assert rotate(0.0 - 1j, HALF_PI) == 1.0 + 0j
    z = np.array([0.3 - 0.7j, -1.5 + 0.25j])
    assert np.array_equal(rotate(z, 0.0), z)
    assert np.array_equal(rotate(rotate(z, HALF_PI), -HALF_PI), z)


@settings(max_examples=200)
@given(finite_floats, finite_floats, angles)
def test_rotate_isometry(re, im, beta):
    z = complex(re, im)
    assert abs(rotate(z, beta)) == pytest.approx(abs(z), rel=1e-12, abs=1e-300)


@settings(max_examples=200)
@given(finite_floats, finite_floats, angles)
def test_rotate_inverse(re, im, beta):
    z = complex(re, im)
    back = rotate(rotate(z, beta), -beta)
    assert abs(back - z) <= 1e-12 * max(abs(z), 1e-30)


def test_dmm_map_table():
    es = 2.5
    a = math.sqrt(es)
    assert dmm_map(0, 0, es) == pytest.approx(a + 0j)
    assert dmm_map(1, 0, es) == pytest.approx(-a + 0j)
    assert dmm_map(0, 1, es) == pytest.approx(1j * a)
    assert dmm_map(1, 1, es) == pytest.approx(-1j * a)


@settings(max_examples=100)
@given(st.booleans(), st.booleans(),
       st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_dmm_energy_invariance(v1, v2, es):
    s = dmm_map(int(v1), int(v2), es)
    assert abs(s) ** 2 == pytest.approx(es, rel=1e-12)


def _bits_equal(a, b) -> bool:
    """Bitwise equality of complex or float arrays, zero signs included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_dmm_map_equals_rotated_bpsk():
    for v1 in (0, 1):
        for v2 in (0, 1):
            direct = dmm_map(v1, v2, 3.0)
            composed = rotate(map_bpsk(v1, 3.0), beta_from_bits(v2))
            assert _bits_equal(direct, composed)
    rng = np.random.default_rng(3)
    v1 = rng.integers(0, 2, (8, 64))
    v2 = rng.integers(0, 2, (8, 64))
    for es in (1.0, 0.3, 7.0):
        assert _bits_equal(dmm_map(v1, v2, es),
                           rotate(map_bpsk(v1, es), beta_from_bits(v2)))


def test_constellation_energy_validation():
    c = Constellation(points=np.array([1.0, 1j, -1.0, -0.5j]))
    assert np.array_equal(c.points, [1.0, 1j, -1.0, -0.5j])
    with pytest.raises(ValueError, match="finite"):
        Constellation(points=np.array([1.0, 1j, -1.0, complex(0.0, np.inf)]))
    with pytest.raises(ValueError, match="finite"):
        Constellation(points=np.array([1.0, 1j, np.nan, -1j]))


def test_demod_v2_hard_examples():
    assert demod_v2_hard(0.9 + 0.1j) == 0
    assert demod_v2_hard(0.1 - 0.9j) == 1
    assert demod_v2_hard(0.5 + 0.5j) == 0  # exact tie breaks to 0


def test_demod_v2_matches_nearest_point():
    c = Constellation.quadrature_pair(1.0)
    assert np.array_equal(c.axis_labels, [0, 1, 0, 1])
    rng = np.random.default_rng(0)
    y = rng.normal(size=500) + 1j * rng.normal(size=500)
    assert np.array_equal(demod_v2_hard(y), nearest_point_labels(y, c.points, [0, 1, 0, 1]))


def test_noiseless_map_demap_consistency():
    c = Constellation.quadrature_pair(2.0)
    for v1 in (0, 1):
        for v2 in (0, 1):
            s = dmm_map(v1, v2, 2.0)
            assert demod_v2_hard(s) == v2
            llr1 = derotate_and_llr_v1(s, beta_from_bits(v2), 2.0, 0.5)
            assert (llr1 < 0) == bool(v1)
            assert nearest_point_labels(s, c.points, [0, 1, 0, 1]) == v2


def test_llr_v2_symmetry_and_certainty():
    c = Constellation.quadrature_pair(1.0)
    assert llr_v2(0.0 + 0.0j, c, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert llr_v2(6.0 + 0.0j, c, 0.5) > 10.0
    assert llr_v2(0.0 + 6.0j, c, 0.5) < -10.0
    assert llr_v2(30.0 + 0.0j, c, 0.5) > 50.0


def test_llr_v2_against_bruteforce():
    c = Constellation.quadrature_pair(1.0)
    labels = c.axis_labels
    val = llr_v2(1.0 + 0.0j, c, 0.5)
    ref = llr_v2_bruteforce(1.0 + 0.0j, c.points, labels, 0.5)
    assert val == pytest.approx(ref, rel=1e-12)

    rng = np.random.default_rng(1)
    for _ in range(200):
        y = complex(rng.normal(scale=2.0), rng.normal(scale=2.0))
        sigma2 = float(rng.uniform(0.05, 3.0))
        assert llr_v2(y, c, sigma2) == pytest.approx(
            llr_v2_bruteforce(y, c.points, labels, sigma2), rel=1e-9, abs=1e-12
        )


def test_llr_v2_bit_identical_to_reference():
    rng = np.random.default_rng(21)
    # every combination of +-0.0 and +-1.0 parts (complex() keeps -0.0)
    signed_zeros = np.array([complex(a, b) for a in (0.0, -0.0, 1.0, -1.0)
                             for b in (0.0, -0.0, 1.0, -1.0)])
    for es in (1.0, 2.0):
        c = Constellation.quadrature_pair(es)
        noisy = dmm_map(rng.integers(0, 2, (64, 2048)), rng.integers(0, 2, (64, 2048)), es)
        noisy = noisy + rng.normal(scale=0.8, size=noisy.shape) \
            + 1j * rng.normal(scale=0.8, size=noisy.shape)
        for y, sigma2 in ((noisy, 0.64), (noisy, 1e-6), (signed_zeros, 0.5),
                          (signed_zeros, 1e-6)):
            mine = llr_v2(y, c, sigma2)
            ref = llr_v2_reference(y, c.points, c.axis_labels, sigma2)
            assert mine.shape == ref.shape
            assert np.array_equal(mine.view(np.int64), ref.view(np.int64))
    # at sigma2 = 1e-6 all four likelihoods of nearly every sample underflow,
    # so only the log domain gives finite LLRs
    expo = -np.abs(noisy[..., None] - c.points) ** 2 / (2.0 * 1e-6)
    assert np.mean(~np.any(np.exp(expo), axis=-1)) > 0.99
    assert np.all(np.isfinite(llr_v2(noisy, c, 1e-6)))


def test_log_sum_exp_bit_identical_to_reduce():
    # the points are the leading axis
    rng = np.random.default_rng(5)
    x = rng.normal(scale=30.0, size=(6, 1000))
    x[1, ::7] = -np.inf
    x[2, ::11] = x[0, ::11]  # exact ties take logaddexp's x == y branch
    x[:, ::13] = -0.0  # a one-row reduce turns -0.0 into 0.0
    x[3, ::17] = np.inf
    for cols in ([], [0], [1], [3], [0, 1], [2, 0], [0, 2, 4], [1, 3], list(range(6))):
        ref = np.logaddexp.reduce(x[cols], axis=0)  # -inf for the empty class
        got = log_sum_exp((x[j] for j in cols), x.shape[1:])
        assert got.shape == (1000,)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        old = log_sum_exp_last_axis_reference(x.T, cols)
        assert np.array_equal(got.view(np.int64), old.view(np.int64))
    x3 = x.reshape(6, 10, 100)
    assert np.all(log_sum_exp([], (10, 100)) == -np.inf)
    assert log_sum_exp([], (10, 100)).shape == (10, 100)
    assert log_sum_exp((x3[j] for j in (1, 4)), (10, 100)).shape == (10, 100)
    # a set without imaginary-axis points: the axis bit is certainly 0
    y = rng.normal(size=100) + 1j * rng.normal(size=100)
    assert np.all(llr_v2(y, Constellation.bpsk(), 1.0) == np.inf)


def test_llr_v2_rejects_bad_sigma():
    c = Constellation.quadrature_pair(1.0)
    with pytest.raises(ValueError):
        llr_v2(1.0 + 0j, c, 0.0)


def test_llr_v2_rejects_overflowing_distances():
    # |y - s|^2 overflows to inf for every point, and inf - inf is a NaN LLR
    c = Constellation.quadrature_pair(1.0)
    with pytest.raises(ValueError, match="not finite at sigma2 = 2"):
        llr_v2(np.array([0.5 + 0j, 1e155 + 1e155j]), c, 2.0)
    assert np.all(np.isfinite(llr_v2(np.array([0.5 + 0j, 1e150 + 1e150j]), c, 2.0)))


def test_hard_decision_agrees_with_llr_sign():
    c = Constellation.quadrature_pair(1.0)
    rng = np.random.default_rng(2)
    y = rng.normal(size=2000) + 1j * rng.normal(size=2000)
    llr = llr_v2(y, c, 0.7)
    hard = demod_v2_hard(y)
    nonzero = llr != 0
    assert np.array_equal(hard[nonzero], (llr[nonzero] < 0).astype(np.uint8))


def test_derotate_examples():
    # exact quarter-turn recovery
    llr = derotate_and_llr_v1(0.0 + 1.0j, HALF_PI, 1.0, 0.5)
    assert llr == pytest.approx(2.0 * 1.0 / 0.5)
    # zero angle reduces to the plain real-part demap
    y = 0.4 - 0.2j
    assert derotate_and_llr_v1(y, 0.0, 1.0, 0.5) == pytest.approx(2.0 * y.real / 0.5)


@settings(max_examples=100)
@given(finite_floats, finite_floats, st.sampled_from([0.0, HALF_PI]))
def test_derotate_preserves_magnitude(re, im, beta):
    y = complex(re, im)
    assert abs(rotate(y, -beta)) == pytest.approx(abs(y), rel=1e-12, abs=0.0)


def _derotate_reference(y, beta, es, sigma2):
    """The float-angle formula that bit-select derotation replaced."""
    return 2.0 * math.sqrt(es) * rotate(y, -beta).real / sigma2


def test_derotate_bitwise_equals_rotate_reference():
    rng = np.random.default_rng(5)
    # components drawn from a pool holding exact zeros of both signs
    pool = np.concatenate([[0.0, -0.0], rng.normal(scale=2.0, size=6)])
    y = np.empty((16, 128), dtype=np.complex128)
    y.real = rng.choice(pool, y.shape)
    y.imag = rng.choice(pool, y.shape)
    assert np.signbit(y.real[y.real == 0]).any() and np.signbit(y.imag[y.imag == 0]).any()
    bits = rng.integers(0, 2, y.shape)
    for beta in (beta_from_bits(bits), beta_from_bits(bits[0]), 0.0, HALF_PI):
        for es, sigma2 in ((1.0, 0.5), (2.5, 1.7)):
            assert _bits_equal(derotate_and_llr_v1(y, beta, es, sigma2),
                               _derotate_reference(y, beta, es, sigma2))
    for z in (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)):
        for beta in (0.0, HALF_PI):
            assert _bits_equal(derotate_and_llr_v1(z, beta, 1.0, 0.5),
                               _derotate_reference(z, beta, 1.0, 0.5))


@pytest.mark.parametrize("beta", [-HALF_PI, math.pi, 0.1, np.array([0.0, HALF_PI, 1.0])])
def test_derotate_rejects_other_angles(beta):
    # bit-select derotation is only right for the two angles of beta_from_bits
    with pytest.raises(ValueError):
        derotate_and_llr_v1(np.ones(3, dtype=np.complex128), beta, 1.0, 0.5)
