import math

import numpy as np
import pytest

from dmmsim import (
    CLAIMED_GAIN_DB,
    RECORD_GAP_DB,
    Constellation,
    awgn_entropy,
    composite_abr,
    gap_report,
    mi_awgn,
    mi_axis,
    mi_binary_label,
    mi_bpsk,
    mi_joint_4point,
    mi_qpsk,
)
from dmmsim.channel import snr_to_sigma2

from oracles import mi_bpsk_quad_oracle


# ---------------------------------------------------------------------------
# noise entropy
# ---------------------------------------------------------------------------

def test_awgn_entropy_unit_argument():
    assert awgn_entropy(1.0 / (2.0 * math.pi * math.e)) == pytest.approx(0.0, abs=1e-12)


def test_awgn_entropy_closed_form():
    assert awgn_entropy(1.0) == pytest.approx(
        math.log2(math.sqrt(2.0 * math.pi * math.e)), abs=1e-14
    )
    assert awgn_entropy(1.0) == pytest.approx(2.0471, abs=1e-4)


def test_awgn_entropy_quadrupling_adds_one_bit():
    for s2 in (0.2, 1.0, 3.7):
        assert awgn_entropy(4.0 * s2) - awgn_entropy(s2) == pytest.approx(1.0, abs=1e-12)


def test_awgn_entropy_rejects_nonpositive():
    with pytest.raises(ValueError):
        awgn_entropy(0.0)


# ---------------------------------------------------------------------------
# mi_awgn
# ---------------------------------------------------------------------------

def test_mi_vanishes_in_heavy_noise():
    assert mi_bpsk(-40.0).value == pytest.approx(0.0, abs=1e-3)
    assert mi_joint_4point(-40.0).value == pytest.approx(0.0, abs=1e-3)


def test_mi_bpsk_saturates():
    assert mi_bpsk(10.0).value >= 0.999
    assert mi_bpsk(10.0).value <= 1.0 + 1e-9


def test_mi_respects_entropy_ceiling():
    # at 40 dB quadrature used to overshoot: 2.0000000000000053 bits for the
    # four-point set and 1.0000000000000036 for BPSK, as numpy floats
    for fn, ceiling in ((mi_bpsk, 1.0), (mi_qpsk, 2.0), (mi_axis, 1.0),
                        (mi_joint_4point, 2.0)):
        for method in ("quadrature", "monte_carlo"):
            r = fn(40.0, method=method, mc_samples=2000)
            assert type(r.value) is float
            assert r.value == ceiling
    # a non-uniform input: the ceiling is H(X) of its priors, not log2 of its size
    skewed = Constellation(points=np.array([1.0, -1.0]), probs=np.array([0.9, 0.1]))
    h_x = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    r = mi_awgn(skewed, snr_to_sigma2(40.0, 1.0))
    assert 0.0 <= r.value <= h_x
    assert r.value == pytest.approx(h_x, abs=1e-9)
    assert type(mi_bpsk(-40.0, method="monte_carlo", mc_samples=2000).value) is float
    assert mi_bpsk(-40.0, method="monte_carlo", mc_samples=2000).value >= 0.0


def test_mi_bpsk_against_scipy_quadrature():
    for snr_db in (-5.0, -2.8, 0.0, 4.0):
        sigma2 = snr_to_sigma2(snr_db, 1.0)
        mine = mi_awgn(Constellation.bpsk(1.0), sigma2).value
        ref = mi_bpsk_quad_oracle(1.0, sigma2)
        assert mine == pytest.approx(ref, abs=2e-6)


def test_mi_bpsk_half_bit_crossing():
    # bisection on the package curve; the threshold is a known landmark
    lo, hi = -4.0, -1.0
    f = lambda db: mi_bpsk(db).value - 0.5
    assert f(lo) < 0 < f(hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    assert crossing == pytest.approx(-2.8, abs=0.1)


def test_mi_monotone_in_snr():
    grid = np.linspace(-10, 10, 9)
    for fn in (mi_bpsk, mi_qpsk, mi_axis, mi_joint_4point):
        vals = [fn(db).value for db in grid]
        assert all(b - a > -1e-9 for a, b in zip(vals, vals[1:]))


def test_mi_bounds():
    for db in (-10.0, 0.0, 10.0):
        r2 = mi_bpsk(db)
        assert -r2.est_error <= r2.value <= 1.0 + r2.est_error
        r4 = mi_joint_4point(db)
        assert -r4.est_error <= r4.value <= 2.0 + r4.est_error


def test_qpsk_gray_decomposition():
    # independent I/Q at half the symbol energy each
    for db in np.linspace(-8, 8, 9):
        q = mi_qpsk(db).value
        es_half_db = db - 10.0 * math.log10(2.0)
        b = mi_bpsk(es_half_db).value
        assert q == pytest.approx(2.0 * b, abs=1e-5)


def test_quadrature_reports_nonconvergence_at_node_cap():
    # 1e-14 is out of reach within the node cap: the result stays finite and
    # its error bound exceeds the request instead of echoing it
    capped = mi_awgn(Constellation.qpsk(), 0.3, tol=1e-14)
    ref = mi_awgn(Constellation.qpsk(), 0.3, tol=1e-6)
    assert math.isfinite(capped.value)
    assert capped.est_error > 1e-14
    assert abs(capped.value - ref.value) <= capped.est_error


def test_quadrature_vs_monte_carlo():
    for db in (-6.0, 0.0, 6.0):
        quad = mi_bpsk(db)
        mc = mi_bpsk(db, method="monte_carlo", mc_samples=150_000, seed=3)
        assert abs(quad.value - mc.value) <= 3.0 * (quad.est_error + mc.est_error)
    quad = mi_joint_4point(0.0)
    mc = mi_joint_4point(0.0, method="monte_carlo", mc_samples=150_000, seed=4)
    assert abs(quad.value - mc.value) <= 3.0 * (quad.est_error + mc.est_error)


def test_binary_label_monte_carlo_agrees():
    quad = mi_axis(1.5)
    mc = mi_axis(1.5, method="monte_carlo", mc_samples=150_000, seed=5)
    assert abs(quad.value - mc.value) <= 3.0 * (quad.est_error + mc.est_error)


def test_axis_below_joint_everywhere():
    # the axis bit is a function of the symbol: processing cannot add information
    for db in np.linspace(-10, 10, 11):
        axis = mi_axis(db)
        joint = mi_joint_4point(db)
        assert axis.value <= joint.value + axis.est_error + joint.est_error


def test_joint_equals_qpsk_by_rotation_invariance():
    for db in (-5.0, 0.0, 5.0):
        assert mi_joint_4point(db).value == pytest.approx(mi_qpsk(db).value, abs=3e-6)


# ---------------------------------------------------------------------------
# composite rate audit
# ---------------------------------------------------------------------------

def test_composite_vanishes_without_snr():
    assert composite_abr(-50.0, -50.0) == pytest.approx(0.0, abs=1e-3)


def test_composite_bounded_by_two_bits():
    for db in (-10.0, 0.0, 10.0):
        assert composite_abr(db, db) <= 2.0 + 1e-6


def test_composite_is_sum_of_terms():
    db1, db2 = 1.0, -2.0
    total = composite_abr(db1, db2)
    assert total == pytest.approx(mi_bpsk(db1).value + mi_axis(db2).value, abs=1e-12)


def test_composite_matches_joint_at_equal_snr():
    # chain rule: axis term + polarity term is exactly the joint four-point MI,
    # so the sum of separated streams cannot exceed the joint channel
    for db in (-6.0, -1.0, 3.0):
        assert composite_abr(db, db) == pytest.approx(
            mi_joint_4point(db).value, abs=1e-5
        )


# ---------------------------------------------------------------------------
# gap bookkeeping
# ---------------------------------------------------------------------------

def test_gap_report_values():
    assert gap_report(0.52).gap_db == pytest.approx(-0.5155, abs=1e-12)
    assert gap_report(0.052).gap_db == pytest.approx(-0.0475, abs=1e-12)
    assert gap_report(0.0).gap_db == pytest.approx(RECORD_GAP_DB, abs=1e-15)


def test_gap_report_carries_claims():
    rec = gap_report(0.1)
    assert rec.claimed_gain_db == CLAIMED_GAIN_DB
    assert rec.claimed_gap_db == tuple(RECORD_GAP_DB - g for g in CLAIMED_GAIN_DB)
    assert "not a capacity statement" in rec.note


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_discrete_input_validation():
    with pytest.raises(ValueError):
        Constellation(points=np.array([1.0 + 0j]), probs=np.array([1.0]))
    with pytest.raises(ValueError):
        Constellation(points=np.array([1.0, -1.0]), probs=np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        Constellation(points=np.array([1.0, -1.0]), probs=np.array([1.2, -0.2]))


def test_mi_awgn_validation():
    with pytest.raises(ValueError):
        mi_awgn(Constellation.bpsk(), 0.0)
    with pytest.raises(ValueError):
        mi_awgn(Constellation.bpsk(), 1.0, method="bogus")
    with pytest.raises(ValueError):
        mi_binary_label(Constellation.bpsk(), [0, 0], 1.0)
    with pytest.raises(ValueError):
        mi_binary_label(Constellation.bpsk(), [0, 1], 1.0, method="bogus")
