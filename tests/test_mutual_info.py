import inspect
import math
import re
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dmmsim import cli, mutual_info
from dmmsim.channel import sigma2_to_snr_db, snr_to_sigma2
from dmmsim.config import CapacityConfig
from dmmsim.modem import Constellation, llr_v2
from dmmsim.mutual_info import (
    awgn_entropy,
    mi_awgn,
    mi_axis,
    mi_axis_and_joint,
    mi_bpsk,
    mi_joint_4point,
    mi_qpsk,
)

from oracles import (
    entropy_reference,
    log_mixture_reference,
    mc_info_reference,
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
        r = fn(40.0)
        assert type(r.value) is float
        assert r.value == ceiling
    # three equally likely points: the ceiling is log2 3
    r = mi_awgn(UNIFORM_LINE, snr_to_sigma2(40.0, 1.0))
    assert 0.0 <= r.value <= math.log2(3)
    assert r.value == pytest.approx(math.log2(3), abs=1e-9)


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
    bpsk = Constellation.bpsk().points.real
    for db in (-6.0, 0.0, 6.0):
        quad = mi_bpsk(db)
        mc, mc_err = mc_info_reference(bpsk, np.arange(2), snr_to_sigma2(db), 150_000, 3)
        assert abs(quad.value - mc) <= 3.0 * (quad.est_error + mc_err)
    quad = mi_joint_4point(0.0)
    mc, mc_err = mc_info_reference(FOUR_POINT, np.arange(4), snr_to_sigma2(0.0), 150_000, 4)
    assert abs(quad.value - mc) <= 3.0 * (quad.est_error + mc_err)


def test_binary_label_monte_carlo_agrees():
    quad = mi_axis(1.5)
    c = Constellation.quadrature_pair(1.0)
    mc, mc_err = mc_info_reference(c.points, c.axis_labels, snr_to_sigma2(1.5), 150_000, 5)
    assert abs(quad.value - mc) <= 3.0 * (quad.est_error + mc_err)


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


def test_mi_rejects_bad_tol():
    # MiResult promises est_error >= tol, which a tol <= 0 or NaN cannot keep
    calls = (*(lambda tol, f=f: f(0.0, tol=tol) for f in (*NAMED_CURVES, mi_axis_and_joint)),
             lambda tol: mi_awgn(UNIFORM_PLANE, 0.5, tol=tol))
    for call in calls:
        for bad in (0.0, -1e-6, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=re.escape(f"tol must be positive and finite, "
                                                           f"got {bad}")):
                call(bad)


def test_mi_call_forms():
    # perfbench and the capacity rows call the curves as f(snr, es, tol=...);
    # quadrature is the only method, so tol is the only keyword
    curve = ["es_n0_db", "es", "tol"]
    for fn in (*NAMED_CURVES, mi_axis_and_joint):
        params = inspect.signature(fn).parameters
        assert list(params) == curve
        assert [params[n].default for n in curve[1:]] == [1.0, 1e-6]
        assert params["tol"].kind is inspect.Parameter.KEYWORD_ONLY
    params = inspect.signature(mi_awgn).parameters
    assert list(params) == ["inp", "sigma2", "tol"]
    assert params["tol"].kind is inspect.Parameter.KEYWORD_ONLY and params["tol"].default == 1e-6
    for call in (lambda: mi_bpsk(0.0, method="quadrature"), lambda: mi_bpsk(0.0, 1.0, 1e-6),
                 lambda: mi_awgn(Constellation.bpsk(), 1.0, "quadrature"),
                 lambda: mi_axis(0.0, mc_samples=2000), lambda: mi_joint_4point(0.0, seed=3)):
        with pytest.raises(TypeError):
            call()


# ---------------------------------------------------------------------------
# bit-identity with the reference mixture code
# ---------------------------------------------------------------------------

NAMED_CURVES = (mi_bpsk, mi_qpsk, mi_axis, mi_joint_4point)
UNIFORM_LINE = Constellation(points=np.array([1.0, -0.5, 2.0]))
UNIFORM_PLANE = Constellation(points=np.array([1, 1j, -1, -1j, 0.5 + 0.5j]))
OFF_AXIS_PAIR = Constellation(points=np.array([1.0 + 1.0j, -1.0 - 1.0j]) / math.sqrt(2.0))


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
        out.append(mi_awgn(UNIFORM_LINE, sigma2))
        out.append(mi_awgn(UNIFORM_PLANE, sigma2))
        out.append(mi_axis(sigma2_to_snr_db(sigma2, 1.0)))
    return out


def _plane_sets_of_results():
    """The plane point sets whose mixture entropies ``_results`` integrates:
    QPSK, the four-point set and its two axis pairs at Es 1 and 2, and
    ``UNIFORM_PLANE``."""
    sets = {UNIFORM_PLANE.points.tobytes()}
    for es in (1.0, 2.0):
        four = Constellation.quadrature_pair(es).points
        sets |= {Constellation.qpsk(es).points.tobytes(), four.tobytes(),
                 four[[0, 2]].tobytes(), four[[1, 3]].tobytes()}
    return sets


def _line_sets_of_results():
    """The line point sets whose mixture entropies ``_results`` integrates:
    BPSK at Es 1 and 2 and ``UNIFORM_LINE``."""
    return {Constellation.bpsk(es).points.real.tobytes() for es in (1.0, 2.0)} | {
        UNIFORM_LINE.points.real.tobytes()}


def _recording(seen, fn, at):
    """``fn`` that first adds the bytes of its ``points`` argument (number
    ``at``) to ``seen``."""
    def wrapped(*args):
        seen.add(args[at].tobytes())
        return fn(*args)
    return wrapped


def test_mi_bit_identical_to_reference_mixture(monkeypatch):
    mine = _results()
    seen = set()
    with monkeypatch.context() as m:
        m.setattr(mutual_info, "_mixture_entropy", _recording(seen, lambda points, sigma2, tol:
                  mixture_entropy_reference(points, _equal(points), sigma2, tol), at=0))
        ref = _results()
    # every set was integrated by the reference, not by the package
    assert seen == _plane_sets_of_results() | _line_sets_of_results()
    assert len(mine) == len(ref) == 46
    for a, b in zip(mine, ref):
        assert np.array_equal(_bits(a), _bits(b))


def test_mi_bit_identical_to_point_last_mixture(monkeypatch):
    # every path (line, plane blocks with mirrored axis pairs, label classes)
    # against the reference mixture, a np.logaddexp.reduce over a last point
    # axis
    def point_last_density(y, points, sigma2, out, neg=None):
        out[...] = log_mixture_reference(y, points, _equal(points), sigma2)
        if neg is not None:
            neg[...] = log_mixture_reference(-y, points, _equal(points), sigma2)

    mine = _results()
    seen = set()
    with monkeypatch.context() as m:
        m.setattr(mutual_info, "_log_density", _recording(seen, point_last_density, at=1))
        ref = _results()
    # every path calls the one patched kernel, for every set it integrates
    assert seen == _plane_sets_of_results() | _line_sets_of_results()
    assert len(mine) == len(ref) == 46
    for a, b in zip(mine, ref):
        assert np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("inp", [Constellation.bpsk(2.0), UNIFORM_LINE,
                                 Constellation.quadrature_pair(1.0), Constellation.qpsk(),
                                 OFF_AXIS_PAIR, UNIFORM_PLANE],
                         ids=["bpsk", "three_point_line", "four_point", "qpsk", "off_axis_pair",
                              "five_point_plane"])
def test_log_mixture_point_major_matches_point_last(inp):
    # the log densities themselves, bit for bit: on a quadrature grid (a
    # line of nodes or the plane's tensor grid), on noisy received points
    # and at a point where the mixture underflows in every term; for a set
    # with points[P//2:] == -points[:P//2], also the second output at -y
    pts = inp.points.real if inp.is_real else inp.points
    sigma2 = 0.3
    t, _, _ = mutual_info._gauss_hermite(64)
    scale = math.sqrt(2.0 * sigma2)
    grid = scale * t if pts.dtype.kind == "f" else scale * (t[:, None] + 1j * t[None, :])

    def received(samples, seed):
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal((2, samples)) * math.sqrt(sigma2)
        y = rng.choice(pts, size=samples) + noise[0]
        return y if pts.dtype.kind == "f" else y + 1j * noise[1]

    half = pts.size // 2
    antipodal = pts.size % 2 == 0 and np.array_equal(pts[half:], -pts[:half])
    assert antipodal == (inp is not UNIFORM_LINE and inp is not UNIFORM_PLANE)
    far = np.array([1e3], dtype=pts.dtype)
    for y in (pts[0] + grid, received(500, 4), received(20_000, 5), far):
        got, got_neg = np.empty(y.shape), np.empty(y.shape)
        mutual_info._log_density(y, pts, sigma2, got)
        want = log_mixture_reference(y, pts, _equal(pts), sigma2)
        assert got.shape == y.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        if antipodal:
            mutual_info._log_density(y, pts, sigma2, got, got_neg)
            want_neg = log_mixture_reference(-y, pts, _equal(pts), sigma2)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.array_equal(got_neg.view(np.int64), want_neg.view(np.int64))


FOUR_POINT = Constellation.quadrature_pair(1.0).points
FOUR_POINT_ES2 = Constellation.quadrature_pair(2.0).points
# the axis pairs of the four-point set in both orders; the pair path
# evaluates half of the first point's grid
AXIS_PAIRS = (FOUR_POINT[[0, 2]], FOUR_POINT[[2, 0]], FOUR_POINT[[1, 3]], FOUR_POINT_ES2[[3, 1]])
# near-pairs that take no axis-pair path: {p, -p} off the axes (one pass
# over p's grid gives both), {a, -1.5a} (a whole grid per point)
NEAR_PAIRS = (OFF_AXIS_PAIR.points, np.array([1.0 + 0j, -1.5 + 0j]))
QPSK = Constellation.qpsk().points
# sets with points[P//2:] == -points[:P//2] that are not axis pairs
ANTIPODAL = (FOUR_POINT, QPSK, NEAR_PAIRS[0])
PLANE_SETS = (FOUR_POINT, QPSK, UNIFORM_PLANE.points, *AXIS_PAIRS, *NEAR_PAIRS)

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


def _recorded_fills(monkeypatch):
    """The list to which a patched ``_fill_plane`` appends (grid size, -y grid
    given) on each call."""
    grids = []
    fill_plane = mutual_info._fill_plane

    def recording_fill_plane(logp, points, sigma2, re, im, neg=None):
        grids.append((logp.size, neg is not None))
        return fill_plane(logp, points, sigma2, re, im, neg)

    monkeypatch.setattr(mutual_info, "_fill_plane", recording_fill_plane)
    return grids


@pytest.mark.parametrize("block", [mutual_info._BLOCK_NODES, *ROW_BLOCKS.values()],
                         ids=["default", *ROW_BLOCKS.keys()])
def test_blocked_plane_entropy_matches_reference(monkeypatch, block):
    # the grid-sized sums of the reference, at each node count up to 256 and
    # in the adaptive sequence
    grids = _recorded_fills(monkeypatch)
    monkeypatch.setattr(mutual_info, "_BLOCK_NODES", block)
    for points in PLANE_SETS:
        pair = any(points is p for p in AXIS_PAIRS)
        opposite = any(points is p for p in ANTIPODAL)
        for sigma2 in (0.05, 0.5, 3.0):
            for nodes in (64, 128, 256):
                got = mutual_info._entropy(points, sigma2, nodes)
                want = entropy_reference(points, _equal(points), sigma2, nodes)
                assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
                # an axis pair fills half of one grid; any other antipodal
                # set one whole grid and its -y grid per opposite pair; any
                # other set one whole grid per point
                if pair:
                    assert grids == [(nodes * nodes // 2, False)]
                elif opposite:
                    assert grids == [(nodes * nodes, True)] * (points.size // 2)
                else:
                    assert grids == [(nodes * nodes, False)] * points.size
                grids.clear()
            got = mutual_info._mixture_entropy(points, sigma2, 1e-9)
            want = mixture_entropy_reference(points, _equal(points), sigma2, 1e-9)
            assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
            grids.clear()


def test_permuted_qpsk_takes_one_grid_per_point(monkeypatch):
    # QPSK in the order [0, 1, 3, 2] is antipodal as a set but not in point
    # order, so no pass is shared
    points = QPSK[[0, 1, 3, 2]]
    grids = _recorded_fills(monkeypatch)
    for nodes in (64, 128, 256):
        got = mutual_info._entropy(points, 0.5, nodes)
        want = entropy_reference(points, _equal(points), 0.5, nodes)
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
        assert grids == [(nodes * nodes, False)] * 4
        grids.clear()


def _on_fresh_thread(fn, *args):
    """``fn(*args)`` on a new thread, whose scratch arrays start empty."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result(timeout=60)


def test_plane_quadrature_working_set_is_bounded():
    # a fresh thread allocates its scratch arrays: one block of every
    # point's exponents, one block of distances, and the grid's log
    # densities (for QPSK and the four-point set also the -y grid), next to
    # the weights (~2.1 MB for those two, ~2.0 MB for an axis pair); every
    # point's distances over the whole grid at once take 8.9 MB, an axis
    # pair's half grid in one piece 3.7 MB
    mutual_info._gauss_hermite(256)
    for pts in (FOUR_POINT, QPSK, *AXIS_PAIRS[::2]):
        tracemalloc.start()
        try:
            _on_fresh_thread(mutual_info._entropy, pts, 0.5, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6


def test_warm_plane_quadrature_allocates_no_grid():
    # once a call has grown this thread's scratch arrays and cached the
    # tensor-grid weights, a 256-node plane H(Y) allocates nothing near a
    # grid's 0.52 MB: no weight product per call, and no hidden copy for an
    # axis pair's mirror or reversal (1.05 MB and 0.66 MB traced before)
    for pts in (FOUR_POINT, *AXIS_PAIRS[::2]):
        mutual_info._entropy(pts, 0.5, 256)
        tracemalloc.start()
        try:
            mutual_info._entropy(pts, 0.5, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e3


def test_scratch_arrays_carry_no_value_between_calls():
    # two threads interleave quadratures of every size and kind and axis
    # LLRs of the two batch shapes, which share the kernel's scratch arrays,
    # at a 10 us switch interval; each value equals the same call on a
    # fresh thread
    calls = [(mutual_info._entropy, pts, sigma2, nodes)
             for pts in (Constellation.qpsk().points, FOUR_POINT, *AXIS_PAIRS[::2])
             for sigma2 in (0.05, 2.0) for nodes in (64, 256, 128)]
    rng = np.random.default_rng(8)
    ys = [rng.normal(size=shape) + 1j * rng.normal(size=shape)
          for shape in ((16, 2048), (64, 256))]
    llr_calls = [(llr_v2, y, Constellation.quadrature_pair(1.0), sigma2)
                 for y in ys for sigma2 in (0.05, 2.0)]
    for k, call in enumerate(llr_calls):  # each after six quadratures
        calls.insert(7 * k + 6, call)

    def run(order):
        return [calls[i][0](*calls[i][1:]) for i in order]

    want = [_on_fresh_thread(*c) for c in calls]
    orders = (range(len(calls)), range(len(calls) - 1, -1, -1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run, order) for order in orders]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for order, values in zip(orders, got):
        for i, value in zip(order, values):
            assert np.array_equal(np.float64(value).view(np.int64),
                                  np.float64(want[i]).view(np.int64))


def test_axis_and_joint_share_bits_with_separate_calls():
    for db in (-40.0, -10.0, -2.5, 0.0, 10.0, 40.0):
        for es in (1.0, 2.0):
            axis, joint = mi_axis_and_joint(db, es, tol=1e-6)
            assert np.array_equal(_bits(axis), _bits(mi_axis(db, es)))
            assert np.array_equal(_bits(joint), _bits(mi_joint_4point(db, es)))


# ---------------------------------------------------------------------------
# no repeated work: node tables cached, H(Y) shared within a call only
# ---------------------------------------------------------------------------

def test_gauss_hermite_tables_must_be_symmetric(monkeypatch):
    # the mirrored axis pairs need t == -t[::-1] and w == w[::-1] to the bit
    for nodes in (64, 128, 256):
        t, w, _ = mutual_info._gauss_hermite.__wrapped__(nodes)
        assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
    hermgauss = np.polynomial.hermite.hermgauss

    def lopsided(nodes, part):
        tables = hermgauss(nodes)
        tables[part][0] = np.nextafter(tables[part][0], 0.0)
        return tables

    for part in (0, 1):
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", lambda n: lopsided(n, part))
        # checked on first use of a node count, and a failed table is not cached
        with pytest.raises(RuntimeError, match=re.escape(f"numpy {np.__version__}: hermgauss(66)")):
            mutual_info._gauss_hermite(66)
        with pytest.raises(RuntimeError, match="symmetric"):
            mutual_info._gauss_hermite.__wrapped__(64)
    monkeypatch.undo()
    t, _, _ = mutual_info._gauss_hermite(66)
    assert np.array_equal(t, hermgauss(66)[0])


def test_gauss_hermite_tables_are_cached_read_only():
    t, w, w2 = mutual_info._gauss_hermite(64)
    assert mutual_info._gauss_hermite(64)[0] is t
    ref_t, ref_w = np.polynomial.hermite.hermgauss(64)
    assert np.array_equal(t, ref_t) and np.array_equal(w, ref_w)
    assert np.array_equal(w2, ref_w[:, None] * ref_w[None, :])
    for arr in (t, w, w2):
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
            with pytest.raises(ValueError, match=r"quadrature cannot integrate the mixture at "
                                                 r"Es/N0 = -3079 dB \(sigma2 = 3\.97e\+307\): "
                                                 r"a squared distance to a point overflows"):
                f(-3079.0)
        assert [f(-3000.0).value for f in curves[:4]] == [0.0] * 4


def test_est_error_is_python_float():
    for r in (mi_awgn(UNIFORM_PLANE, 0.5), mi_awgn(UNIFORM_LINE, 0.5), mi_axis(0.0),
              mi_bpsk(0.0)):
        assert type(r.value) is float
        assert type(r.est_error) is float
    for r in mi_axis_and_joint(0.0):
        assert type(r.value) is float and type(r.est_error) is float
