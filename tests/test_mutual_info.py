import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dmmsim import (
    Constellation,
    awgn_entropy,
    mi_awgn,
    mi_axis,
    mi_axis_and_joint,
    mi_bpsk,
    mi_joint_4point,
    mi_qpsk,
)
from dmmsim import cli, mutual_info
from dmmsim.channel import sigma2_to_snr_db, snr_to_sigma2
from dmmsim.config import CapacityConfig

from oracles import (
    log_mixture_last_axis_reference,
    log_mixture_reference,
    mi_bpsk_quad_oracle,
    mixture_entropy_reference,
)


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
    # three equally likely points: the ceiling is log2 3
    r = mi_awgn(UNIFORM_LINE, snr_to_sigma2(40.0, 1.0))
    assert 0.0 <= r.value <= math.log2(3)
    assert r.value == pytest.approx(math.log2(3), abs=1e-9)
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


def test_quadrature_refuses_noise_below_the_point_resolution():
    # a Gauss-Hermite offset added to a point is rounded to the point's ulp:
    # the values drifted silently past tol (mi_qpsk off by 2.6e-6 at 213 dB,
    # mi_bpsk 0.279 at 335 dB), so quadrature refuses an offset that half an
    # ulp of a coordinate moves by more than 1e-6 of itself (from ~179 dB for
    # unit energy).  Below that the values stay within tol of the ceiling.
    curves = (mi_bpsk, mi_qpsk, mi_axis, mi_joint_4point)
    assert [f(100.0).value for f in curves] == pytest.approx([1.0, 2.0, 1.0, 2.0], abs=1e-12)
    assert [r.value for r in mi_axis_and_joint(100.0)] == pytest.approx([1.0, 2.0], abs=1e-12)
    assert [f(175.0).value for f in curves] == pytest.approx([1.0, 2.0, 1.0, 2.0], abs=1e-6)
    for db in (250.0, 340.0):
        for f in (*curves, mi_axis_and_joint):
            with pytest.raises(ValueError, match=f"Es/N0 = {db:g} dB"):
                f(db)


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

@pytest.fixture(scope="module")
def capacity_rows():
    # the composite rate is the composite_abr column of dmmsim capacity
    cfg = CapacityConfig(snr_grid_db=(-50.0, -10.0, -6.0, -1.0, 0.0, 3.0, 10.0))
    rows = cli.run_capacity(cfg)
    assert [row[0] for row in rows] == list(cfg.snr_grid_db)
    return [dict(zip(cli.CAPACITY_COLUMNS, row)) for row in rows]


def test_composite_vanishes_without_snr(capacity_rows):
    assert capacity_rows[0]["snr_db"] == -50.0
    assert capacity_rows[0]["composite_abr"] == pytest.approx(0.0, abs=1e-3)


def test_composite_bounded_by_two_bits(capacity_rows):
    for cells in capacity_rows:
        assert cells["composite_abr"] <= 2.0 + 1e-6


def test_composite_is_sum_of_terms(capacity_rows):
    for cells in capacity_rows:
        assert cells["composite_abr"] == cells["mi_bpsk"] + cells["mi_x2_axis"]


def test_composite_matches_joint_at_equal_snr(capacity_rows):
    # chain rule: axis term + polarity term is exactly the joint four-point MI,
    # so the sum of separated streams cannot exceed the joint channel
    for cells in capacity_rows:
        assert abs(cells["composite_minus_joint"]) <= 1e-5


# ---------------------------------------------------------------------------
# claimed gains against the record gap (printed by scripts/capacity_audit.py)
# ---------------------------------------------------------------------------

def _claim_lines(script, outdir, capsys):
    argv = ["--lo", "0", "--hi", "0", "--outdir", str(outdir)]
    assert script("capacity_audit").main(argv) == 0
    return capsys.readouterr().out.splitlines()[1:]


def test_gap_report_values(script, tmp_path, capsys):
    lines = _claim_lines(script, tmp_path / "results", capsys)
    assert len(lines) == len(mutual_info.CLAIMED_GAIN_DB)
    for line, gain in zip(lines, mutual_info.CLAIMED_GAIN_DB):
        assert line.startswith(f"gain {gain:+.4f} dB -> gap to the record "
                               f"{mutual_info.RECORD_GAP_DB:.4f} dB becomes "
                               f"{mutual_info.RECORD_GAP_DB - gain:+.4f} dB ")
    assert "becomes -0.0475 dB " in lines[0]
    assert "becomes -0.5155 dB " in lines[1]


def test_gap_report_carries_claims(script, tmp_path, capsys):
    outdir = tmp_path / "results"
    assert _claim_lines(script, outdir, capsys) == [
        "gain +0.0520 dB -> gap to the record 0.0045 dB becomes -0.0475 dB "
        "(extrapolated bookkeeping, not a capacity statement)",
        "gain +0.5200 dB -> gap to the record 0.0045 dB becomes -0.5155 dB "
        "(extrapolated bookkeeping, not a capacity statement)",
    ]
    # the gain is no longer an input
    with pytest.raises(SystemExit) as exc:
        script("capacity_audit").main(["--measured-gain-db", "0.1", "--outdir", str(outdir)])
    assert exc.value.code == 2
    assert "--measured-gain-db" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_discrete_input_validation():
    with pytest.raises(ValueError, match="at least two"):
        Constellation(points=np.array([1.0 + 0j]))


def test_mi_awgn_validation():
    with pytest.raises(ValueError):
        mi_awgn(Constellation.bpsk(), 0.0)
    with pytest.raises(ValueError):
        mi_awgn(Constellation.bpsk(), 1.0, method="bogus")
    with pytest.raises(ValueError, match="bogus"):
        mi_axis(0.0, method="bogus")


# ---------------------------------------------------------------------------
# bit-identity with the reference mixture code
# ---------------------------------------------------------------------------

NAMED_CURVES = (mi_bpsk, mi_qpsk, mi_axis, mi_joint_4point)
UNIFORM_LINE = Constellation(points=np.array([1.0, -0.5, 2.0]))
UNIFORM_PLANE = Constellation(points=np.array([1, 1j, -1, -1j, 0.5 + 0.5j]))


def _equal(points):
    """Equal priors for ``points``, for the references that take priors."""
    return np.full(points.size, 1.0 / points.size)


def _bits(result):
    return np.array([result.value, result.est_error]).view(np.int64)


def _results():
    out = []
    for fn in NAMED_CURVES:
        for db in (-40.0, -10.0, 0.0, 10.0, 40.0):
            for es in (1.0, 2.0):
                out.append(fn(db, es))
    for sigma2 in (0.1, 1.0):
        for method in ("quadrature", "monte_carlo"):
            kw = dict(method=method, mc_samples=5000, seed=3)
            out.append(mi_awgn(UNIFORM_LINE, sigma2, **kw))
            out.append(mi_awgn(UNIFORM_PLANE, sigma2, **kw))
            out.append(mi_axis(sigma2_to_snr_db(sigma2, 1.0), **kw))
    return out


def test_mi_bit_identical_to_reference_mixture(monkeypatch):
    mine = _results()
    with monkeypatch.context() as m:
        m.setattr(mutual_info, "_mixture_entropy", lambda points, sigma2, tol:
                  mixture_entropy_reference(points, _equal(points), sigma2, tol))
        m.setattr(mutual_info, "_log_mixture", lambda y, points, sigma2:
                  log_mixture_reference(y, points, _equal(points), sigma2))
        ref = _results()
    assert len(mine) == len(ref) == 52
    for a, b in zip(mine, ref):
        assert a.method == b.method
        assert np.array_equal(_bits(a), _bits(b))


def test_mi_bit_identical_to_point_last_mixture(monkeypatch):
    # every path (line, plane, label classes, Monte-Carlo) against the
    # mixture that put the point axis last
    mine = _results()
    with monkeypatch.context() as m:
        m.setattr(mutual_info, "_log_mixture", lambda y, points, sigma2:
                  log_mixture_last_axis_reference(y, points, _equal(points), sigma2))
        ref = _results()
    assert len(mine) == len(ref) == 52
    for a, b in zip(mine, ref):
        assert a.method == b.method
        assert np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("inp", [Constellation.bpsk(2.0), UNIFORM_LINE,
                                 Constellation.quadrature_pair(1.0), UNIFORM_PLANE],
                         ids=["bpsk", "three_point_line", "four_point", "five_point_plane"])
def test_log_mixture_point_major_matches_point_last(inp):
    # the log densities themselves, bit for bit: on a quadrature grid (a
    # line of nodes or the plane's tensor grid), on Monte-Carlo samples and
    # at a point where the mixture underflows in every term
    pts = inp.points.real if inp.is_real else inp.points
    sigma2 = 0.3
    t, _ = mutual_info._gauss_hermite(64)
    scale = math.sqrt(2.0 * sigma2)
    grid = scale * t if pts.dtype.kind == "f" else scale * (t[:, None] + 1j * t[None, :])
    _, samples = mutual_info._mc_draw(pts, sigma2, 500, seed=4)
    far = np.array([1e3], dtype=pts.dtype)
    for y in (pts[0] + grid, samples, far):
        got = mutual_info._log_mixture(y, pts, sigma2)
        want = log_mixture_last_axis_reference(y, pts, _equal(pts), sigma2)
        assert got.shape == y.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


PLANE_SETS = (Constellation.quadrature_pair(1.0), Constellation.qpsk(), UNIFORM_PLANE)

# _BLOCK_NODES = 1 gives one-row blocks; 768 gives 3, 6 and 12 rows at 256,
# 128 and 64 nodes, none of which divides the grid, so the last block is short
ROW_BLOCKS = {"one_row": 1, "three_rows": 3 * 256}


@pytest.mark.parametrize("block", ROW_BLOCKS.values(), ids=ROW_BLOCKS.keys())
def test_row_blocks_leave_capacity_rows_unchanged(monkeypatch, block):
    cfg = CapacityConfig(snr_grid_db=tuple(float(s) for s in range(-10, 11)))
    want = cli.run_capacity(cfg)
    monkeypatch.setattr(mutual_info, "_BLOCK_NODES", block)
    got = cli.run_capacity(cfg)
    assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))


@pytest.mark.parametrize("block", [mutual_info._BLOCK_NODES, *ROW_BLOCKS.values()],
                         ids=["default", *ROW_BLOCKS.keys()])
def test_blocked_plane_entropy_matches_reference(monkeypatch, block):
    # the grid-sized sum of the reference, at every node count up to 256
    nodes_seen = set()
    entropy = mutual_info._entropy

    def recording_entropy(points, sigma2, nodes):
        nodes_seen.add(nodes)
        return entropy(points, sigma2, nodes)

    monkeypatch.setattr(mutual_info, "_BLOCK_NODES", block)
    monkeypatch.setattr(mutual_info, "_entropy", recording_entropy)
    for inp in PLANE_SETS:
        for sigma2 in (0.05, 0.5, 3.0):
            got = mutual_info._mixture_entropy(inp.points, sigma2, 1e-9)
            want = mixture_entropy_reference(inp.points, _equal(inp.points), sigma2, 1e-9)
            assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
    assert nodes_seen == {64, 128, 256}


def test_plane_quadrature_working_set_is_bounded():
    # streamed points and row blocks leave the grid's log densities and
    # weights and one block (~1.6 MB); every point's distances over the
    # whole grid at once take 8.9 MB
    pts = Constellation.quadrature_pair(1.0).points
    mutual_info._gauss_hermite(256)
    tracemalloc.start()
    try:
        mutual_info._entropy(pts, 0.5, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_axis_and_joint_share_bits_with_separate_calls():
    for db in (-40.0, -10.0, -2.5, 0.0, 10.0, 40.0):
        for es in (1.0, 2.0):
            axis, joint = mi_axis_and_joint(db, es, tol=1e-6)
            assert np.array_equal(_bits(axis), _bits(mi_axis(db, es)))
            assert np.array_equal(_bits(joint), _bits(mi_joint_4point(db, es)))


# ---------------------------------------------------------------------------
# no repeated work: node tables cached, H(Y) shared within a call only
# ---------------------------------------------------------------------------

def test_gauss_hermite_tables_are_cached_read_only():
    t, w = mutual_info._gauss_hermite(64)
    assert mutual_info._gauss_hermite(64)[0] is t
    ref_t, ref_w = np.polynomial.hermite.hermgauss(64)
    assert np.array_equal(t, ref_t) and np.array_equal(w, ref_w)
    for arr in (t, w):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_run_capacity_evaluates_each_mixture_once(monkeypatch):
    calls = []
    entropy = mutual_info._entropy

    def counting_entropy(points, sigma2, nodes):
        calls.append((points.tobytes(), sigma2, nodes))
        return entropy(points, sigma2, nodes)

    monkeypatch.setattr(mutual_info, "_entropy", counting_entropy)
    cfg = CapacityConfig(snr_grid_db=(-4.0, 0.0, 4.0))
    four = Constellation.quadrature_pair(1.0).points.tobytes()
    first = cli.run_capacity(cfg)
    n_first = len(calls)
    # no mixture is integrated twice at the same node count ...
    assert len(set(calls)) == n_first
    # ... and the four-point set's adaptive sequence starts once per grid point
    assert sum(c[0] == four and c[2] == 64 for c in calls) == len(cfg.snr_grid_db)
    # a repeated call does the same quadrature again: nothing is memoized
    assert cli.run_capacity(cfg) == first
    assert len(calls) == 2 * n_first


# ---------------------------------------------------------------------------
# non-finite values
# ---------------------------------------------------------------------------

def test_clamp_rejects_nonfinite():
    for bad in (math.nan, np.float64("nan"), math.inf):
        with pytest.raises(ValueError, match="not finite"):
            mutual_info._clamp(bad, 2)


def test_quadrature_refuses_overflowing_distances():
    # at -3079 dB (sigma2 = 3.97e307) a squared distance to a point
    # overflows: every curve names the operating point, without a warning
    curves = (mi_bpsk, mi_qpsk, mi_axis, mi_joint_4point, mi_axis_and_joint)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in curves:
            with pytest.raises(ValueError, match=r"Es/N0 = -3079 dB \(sigma2 = 3\.97e\+307\): "
                                                 r"a squared distance to a point overflows"):
                f(-3079.0)
        assert [f(-3000.0).value for f in curves[:4]] == [0.0] * 4


def test_est_error_is_python_float():
    for method in ("quadrature", "monte_carlo"):
        kw = dict(method=method, mc_samples=2000)
        for r in (mi_awgn(UNIFORM_PLANE, 0.5, **kw), mi_awgn(UNIFORM_LINE, 0.5, **kw),
                  mi_axis(0.0, **kw), mi_bpsk(0.0, **kw)):
            assert type(r.value) is float
            assert type(r.est_error) is float
    for r in mi_axis_and_joint(0.0):
        assert type(r.value) is float and type(r.est_error) is float
