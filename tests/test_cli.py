import math
import pickle
import warnings

import numpy as np
import pytest

from dmmsim import builtin_codes, cli, save_alist
from dmmsim.cli import fmt, main
from dmmsim.config import ConfigError, SweepConfig, load_capacity_config, load_sweep_config

DATA = __file__.rsplit("/", 1)[0] + "/data"

SWEEP_CFG = """\
scheme = dmm_realistic
code1 = ldpc_r12_n256
code2 = ldpc_r14_n64
code2_repeat = 4
snr_grid_db = -1.0, 0.5
snr_convention = es_n0_complex
stop_min_frame_errors = 10
stop_max_frames = 60
master_seed = 42
"""

CAPACITY_CFG = """\
snr_grid_db = -6 -3 0 3 6
quadrature_tol_bits = 1e-6
"""


def body(path) -> str:
    """CSV body: everything except comment lines."""
    with open(path) as fh:
        return "".join(line for line in fh if not line.startswith("#"))


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_sweep_config_parses(tmp_path):
    cfg = load_sweep_config(write(tmp_path, "s.cfg", SWEEP_CFG))
    assert cfg.scheme == "dmm_realistic"
    assert cfg.snr_grid_db == (-1.0, 0.5)
    assert cfg.code2_repeat == 4


def test_empty_grid_rejected(tmp_path):
    bad = SWEEP_CFG.replace("snr_grid_db = -1.0, 0.5", "snr_grid_db =")
    with pytest.raises(ConfigError, match="snr_grid_db"):
        load_sweep_config(write(tmp_path, "s.cfg", bad))


def test_unknown_key_rejected_with_line(tmp_path):
    path = write(tmp_path, "s.cfg", SWEEP_CFG + "mystery_knob = 3\n")
    with pytest.raises(ConfigError, match=r"s\.cfg:10"):
        load_sweep_config(path)


def test_bad_scheme_rejected(tmp_path):
    bad = SWEEP_CFG.replace("dmm_realistic", "psk_supreme")
    with pytest.raises(ConfigError, match=r"s\.cfg:1: scheme"):
        load_sweep_config(write(tmp_path, "s.cfg", bad))


def test_missing_code_rejected(tmp_path):
    bad = SWEEP_CFG.replace("code2 = ldpc_r14_n64\n", "")
    with pytest.raises(ConfigError, match=r"s\.cfg:1: .*code1 and code2"):
        load_sweep_config(write(tmp_path, "s.cfg", bad))


def test_missing_required_key_has_no_line(tmp_path):
    bad = SWEEP_CFG.replace("snr_grid_db = -1.0, 0.5\n", "")
    with pytest.raises(ConfigError, match=r"s\.cfg: missing required key 'snr_grid_db'") as err:
        load_sweep_config(write(tmp_path, "s.cfg", bad))
    assert err.value.line is None


BAD_SWEEP_VALUES = [
    # (text replaced, replacement ending in the bad "key = value"), line of that key
    (("code2_repeat = 4", "code2_repeat = 0"), 4),
    (("snr_grid_db = -1.0, 0.5", "snr_grid_db = -1.0, nan"), 5),
    (("snr_grid_db = -1.0, 0.5", "snr_grid_db = -1.0 inf 0.5"), 5),
    (("snr_grid_db = -1.0, 0.5", "snr_grid_db = -1.0 1e300"), 5),
    (("snr_grid_db = -1.0, 0.5", "snr_grid_db = -1e300 0.5"), 5),
    (("snr_grid_db = -1.0, 0.5\nsnr_convention = es_n0_complex",
      "snr_convention = eb_n0_overall\nsnr_grid_db = -3081"), 6),
    (("stop_min_frame_errors = 10", "stop_min_frame_errors = 0"), 7),
    (("stop_max_frames = 60", "stop_max_frames = -3"), 8),
    (("stop_max_frames = 60", "stop_max_frames = 4294967297"), 8),
    (("master_seed = 42", "master_seed = -4"), 9),
    (("master_seed = 42", "master_seed = 42\nmax_bp_iterations = 0"), 10),
    (("master_seed = 42", "master_seed = 42\nuncoded_block_bits = 0"), 10),
    (("master_seed = 42", "master_seed = 42\nsymbol_energy = 0"), 10),
    (("master_seed = 42", "master_seed = 42\nsymbol_energy = nan"), 10),
    (("scheme = dmm_realistic\ncode1 = ldpc_r12_n256\ncode2 = ldpc_r14_n64\ncode2_repeat = 4",
      "scheme = bpsk_baseline\ncode1 = ldpc_r12_n256\ncode2_repeat = 4"), 3),
]


@pytest.mark.parametrize("edit,line", BAD_SWEEP_VALUES,
                         ids=[e[1].rsplit("\n", 1)[-1] for e, _ in BAD_SWEEP_VALUES])
def test_bad_sweep_value_rejected_at_its_line(tmp_path, edit, line):
    path = write(tmp_path, "s.cfg", SWEEP_CFG.replace(*edit))
    key = edit[1].rsplit("\n", 1)[-1].split(" =")[0]
    with pytest.raises(ConfigError, match=rf"s\.cfg:{line}: {key} must be"):
        load_sweep_config(path)


BAD_CAPACITY_VALUES = [
    # (text replaced, the bad "key = value"), line of that key
    (("quadrature_tol_bits = 1e-6", "symbol_energy = 0"), 2),
    (("quadrature_tol_bits = 1e-6", "quadrature_tol_bits = -1e-6"), 2),
    (("snr_grid_db = -6 -3 0 3 6", "snr_grid_db = 0 nan 1"), 1),
    (("snr_grid_db = -6 -3 0 3 6", "snr_grid_db = -inf 0"), 1),
    (("snr_grid_db = -6 -3 0 3 6", "snr_grid_db = 0 1e300"), 1),
    (("snr_grid_db = -6 -3 0 3 6", "snr_grid_db = -1e300"), 1),
]


@pytest.mark.parametrize("edit,line", BAD_CAPACITY_VALUES,
                         ids=[e[1] for e, _ in BAD_CAPACITY_VALUES])
def test_bad_capacity_value_rejected_at_its_line(tmp_path, edit, line):
    path = write(tmp_path, "c.cfg", CAPACITY_CFG.replace(*edit))
    with pytest.raises(ConfigError, match=rf"c\.cfg:{line}: {edit[1].split(' =')[0]} must be"):
        load_capacity_config(path)


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        load_sweep_config(write(tmp_path, "s.cfg", SWEEP_CFG + "master_seed = 1\n"))


def test_bad_convention_rejected(tmp_path):
    bad = SWEEP_CFG.replace("es_n0_complex", "db_per_furlong")
    with pytest.raises(ConfigError, match=r"s\.cfg:6: snr_convention"):
        load_sweep_config(write(tmp_path, "s.cfg", bad))


def test_capacity_config_parses(tmp_path):
    cfg = load_capacity_config(write(tmp_path, "c.cfg", CAPACITY_CFG))
    assert cfg.snr_grid_db == (-6.0, -3.0, 0.0, 3.0, 6.0)


def test_cli_exit_code_on_config_error(tmp_path, capsys):
    path = write(tmp_path, "s.cfg", SWEEP_CFG + "mystery_knob = 3\n")
    assert main(["sweep", path]) == 2
    err = capsys.readouterr().err
    assert "s.cfg:10" in err and "mystery_knob" in err


@pytest.mark.parametrize("flag,env,named", [
    ("-3", None, "--threads"), ("0", None, "--threads"),
    (None, "0", "DMMSIM_THREADS"), (None, "-2", "DMMSIM_THREADS"),
    (None, "two", "DMMSIM_THREADS"),
], ids=["flag -3", "flag 0", "env 0", "env -2", "env two"])
def test_threads_below_one_rejected(tmp_path, capsys, monkeypatch, flag, env, named):
    # a worker count below one used to run serially and stamp "# threads = -3"
    path = write(tmp_path, "s.cfg", SWEEP_CFG)
    out = tmp_path / "out.csv"
    if env is not None:
        monkeypatch.setenv("DMMSIM_THREADS", env)
    argv = ["sweep", path, "--out", str(out)] + (["--threads", flag] if flag else [])
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,env,named", [("-4", None, "--seed"), (None, "-4", "DMMSIM_SEED")],
                         ids=["flag -4", "env -4"])
def test_seed_below_zero_rejected(tmp_path, capsys, monkeypatch, flag, env, named):
    # a negative seed used to exit 1 from deep in the run, naming neither source
    path = write(tmp_path, "s.cfg", SWEEP_CFG)
    out = tmp_path / "out.csv"
    if env is not None:
        monkeypatch.setenv("DMMSIM_SEED", env)
    argv = ["sweep", path, "--out", str(out)] + (["--seed", flag] if flag else [])
    assert main(argv) == 2
    assert f"{named} must be >= 0, got -4" in capsys.readouterr().err
    assert not out.exists()


BAD_CODE_KEYS = [
    # (text replaced, replacement), line of the offending key, message
    (("scheme = dmm_realistic", "scheme = uncoded"), 2, "code1 is not sent by scheme uncoded"),
    (("scheme = dmm_realistic", "scheme = bpsk_baseline"), 3,
     "code2 is not sent by scheme bpsk_baseline"),
    (("code2 = ldpc_r14_n64", "code2 = nosuchcode"), 3, "code2: code reference 'nosuchcode'"),
    (("code1 = ldpc_r12_n256", "code1 = missing.alist"), 2, "code1: .*No such file"),
    (("code1 = ldpc_r12_n256", "code1 = {tmp}/empty.alist"), 2, "code1: .*empty file"),
    (("code2_repeat = 4", "code2_repeat = 2"), 3,
     "code2 length 64 x code2_repeat 2 must equal code1 length 256"),
]


@pytest.mark.parametrize("edit,line,message", BAD_CODE_KEYS,
                         ids=["uncoded code1", "bpsk code2", "unknown code2", "missing alist",
                              "empty alist", "length mismatch"])
def test_bad_code_key_rejected_at_its_line(tmp_path, capsys, edit, line, message):
    (tmp_path / "empty.alist").write_text("")
    text = SWEEP_CFG.replace(edit[0], edit[1].format(tmp=tmp_path))
    path = write(tmp_path, "s.cfg", text)
    with pytest.raises(ConfigError, match=rf"s\.cfg:{line}: {message}"):
        load_sweep_config(path)
    assert main(["sweep", path, "--out", str(tmp_path / "out.csv")]) == 2
    assert f"s.cfg:{line}: " in capsys.readouterr().err


@pytest.mark.parametrize("scheme,codes", [("bpsk_baseline", "code1 = ldpc_r12_n24\n"),
                                          ("uncoded", "")], ids=["bpsk_baseline", "uncoded"])
def test_code2_repeat_without_code2_rejected(tmp_path, capsys, scheme, codes):
    # used to exit 0 and stamp "# config code2_repeat = 4" on a CSV with no code2
    text = f"scheme = {scheme}\n{codes}code2_repeat = 4\nsnr_grid_db = 3\nstop_max_frames = 8\n"
    path = write(tmp_path, "s.cfg", text)
    out = tmp_path / "out.csv"
    assert main(["sweep", path, "--out", str(out)]) == 2
    line = 3 if codes else 2
    assert f"s.cfg:{line}: code2_repeat must be 1 for scheme {scheme}" in capsys.readouterr().err
    assert not out.exists()
    assert load_sweep_config(write(tmp_path, "ok.cfg", text.replace("= 4", "= 1"))).code2_repeat == 1


def test_sweep_parses_an_alist_code_once(tmp_path, monkeypatch):
    # the loader resolves code1 to check it and the run resolves it again:
    # the file is parsed and row-reduced once
    parsed = []

    def counting_parse(text, path, name=None):
        parsed.append(path)
        return parse(text, path, name)

    parse = builtin_codes._parse_alist
    monkeypatch.setattr(builtin_codes, "_parse_alist", counting_parse)
    alist = tmp_path / "c24.alist"
    save_alist(builtin_codes.builtin_code("ldpc_r12_n24"), alist)
    path = write(tmp_path, "s.cfg", f"scheme = bpsk_baseline\ncode1 = {alist}\n"
                                    "snr_grid_db = 2 3\nstop_max_frames = 16\n")
    assert main(["sweep", path, "--out", str(tmp_path / "out.csv")]) == 0
    assert parsed == [str(alist)]


def test_edited_alist_code_reloads(tmp_path):
    alist = tmp_path / "c.alist"
    save_alist(builtin_codes.builtin_code("ldpc_r12_n24"), alist)
    first = builtin_codes.resolve_code(str(alist))
    assert builtin_codes.resolve_code(str(alist)) is first
    save_alist(builtin_codes.builtin_code("hamming_7_4"), alist)
    second = builtin_codes.resolve_code(str(alist))
    assert (first.n, second.n) == (24, 7) and second.name == "c.alist"
    assert np.array_equal(second.parity, builtin_codes.builtin_code("hamming_7_4").parity)


# ---------------------------------------------------------------------------
# sweep verb
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = write(tmp, "s.cfg", SWEEP_CFG)
    out = str(tmp / "out.csv")
    assert main(["sweep", cfg, "--out", out]) == 0
    return cfg, out


def test_sweep_reruns_byte_identical(sweep_csv, tmp_path):
    cfg, out = sweep_csv
    again = str(tmp_path / "again.csv")
    assert main(["sweep", cfg, "--out", again]) == 0
    assert body(out) == body(again)


def test_sweep_thread_count_invariance(sweep_csv, tmp_path):
    cfg, out = sweep_csv
    threaded = str(tmp_path / "threaded.csv")
    assert main(["sweep", cfg, "--threads", "2", "--out", threaded]) == 0
    assert body(out) == body(threaded)


def test_sweep_pool_jobs_carry_no_codes(monkeypatch):
    # a pool job is the config and one grid value; the codes (5 MB pickled at
    # n = 2048) reach a worker through its code caches, not through each job
    cfg = SweepConfig(scheme="dmm_realistic", snr_grid_db=(-1.3, -1.0),
                      code1="ldpc_r12_n2048", code2="ldpc_r14_n512", code2_repeat=4,
                      stop_min_frame_errors=1, stop_max_frames=2)
    payloads = []

    class InlinePool:
        """The executor's job traffic, pickled both ways, in this process."""

        def __init__(self, max_workers):
            assert max_workers == 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            for job in jobs:
                payloads.append(pickle.dumps((fn, job)))
                worker, sent = pickle.loads(payloads[-1])
                yield worker(sent)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InlinePool)
    pooled, _ = cli.run_sweep(cfg, threads=2)
    assert len(payloads) == 2 and max(map(len, payloads)) < 4096
    serial, _ = cli.run_sweep(cfg, threads=1)
    assert [list(map(fmt, row)) for row in pooled] == [list(map(fmt, row)) for row in serial]


@pytest.mark.parametrize("threads,grid,pools", [
    (8, (1.0, 2.0), [2]), (2, (1.0, 2.0, 3.0), [2]), (4, (1.0,), []), (1, (1.0, 2.0), []),
], ids=["8 threads 2 points", "2 threads 3 points", "4 threads 1 point", "1 thread"])
def test_sweep_pool_no_larger_than_grid(monkeypatch, threads, grid, pools):
    # a fork pool starts all of its workers at the first submit, so it gets
    # no more workers than there are grid points
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "_sweep_one", lambda cfg, code1, code2, snr: ((snr,), 0.0))
    cfg = SweepConfig(scheme="uncoded", snr_grid_db=grid)
    rows, _ = cli.run_sweep(cfg, threads=threads)
    assert sizes == pools
    assert rows == [(snr,) for snr in grid]


@pytest.mark.parametrize("verb", ["sweep", "capacity"])
@pytest.mark.parametrize("source,named", [("flag", "--out"), ("env", "DMMSIM_OUT"),
                                          ("config", ".cfg: out"),
                                          ("flag directory", "--out"),
                                          ("env directory", "DMMSIM_OUT"),
                                          ("config directory", ".cfg: out")])
def test_missing_out_directory_rejected_before_the_run(tmp_path, capsys, monkeypatch, verb,
                                                       source, named):
    # used to run the whole grid and then exit 1 with "[Errno 2]", or with
    # "[Errno 21]" when the output path is an existing directory
    def never(*args, **kwargs):
        raise AssertionError(f"{verb} ran before its output directory was checked")

    monkeypatch.setattr(cli, "run_sweep", never)
    monkeypatch.setattr(cli, "run_capacity", never)
    source, _, is_dir = source.partition(" ")
    if is_dir:
        bad = tmp_path / "outdir"
        bad.mkdir()
    else:
        bad = tmp_path / "missing" / "x.csv"
    text = SWEEP_CFG if verb == "sweep" else CAPACITY_CFG
    argv = [verb, write(tmp_path, f"{verb}.cfg",
                        text + (f"out = {bad}\n" if source == "config" else ""))]
    if source == "flag":
        argv += ["--out", str(bad)]
    if source == "env":
        monkeypatch.setenv("DMMSIM_OUT", str(bad))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err and str(bad) in err
    if is_dir:
        assert not any(bad.iterdir())
    else:
        assert not bad.parent.exists()


def test_sweep_exits_1_on_overflowing_axis_llrs(tmp_path, capsys):
    # -3081 dB is a valid es_n0_complex grid value (sigma2 = 6.3e307), but
    # the receiver's squared distances overflow there
    path = write(tmp_path, "s.cfg", SWEEP_CFG.replace("snr_grid_db = -1.0, 0.5",
                                                      "snr_grid_db = -3081")
                 .replace("stop_max_frames = 60", "stop_max_frames = 2"))
    assert main(["sweep", path, "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("error: axis LLRs are not finite at sigma2 = 6.29e+307")


def test_capacity_exits_1_on_overflowing_distances(tmp_path, capsys):
    # -3079 dB is a valid grid value (sigma2 = 3.97e307), but the quadrature's
    # squared distances overflow there: one error line, no traceback, no warning
    path = write(tmp_path, "c.cfg", CAPACITY_CFG.replace("-6 -3 0 3 6", "-3079"))
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["capacity", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: quadrature cannot integrate the mixture at Es/N0 = -3079 dB "
        "(sigma2 = 3.97e+307): a squared distance to a point overflows\n")
    assert not out.exists()


def test_sweep_rows_and_columns(sweep_csv):
    _, out = sweep_csv
    lines = body(out).strip().split("\n")
    header = lines[0].split(",")
    assert lines[0].startswith("scheme,code1,code2,snr_convention,snr_db")
    assert len(lines) == 3  # header + one row per grid point
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == len(header)
        assert cells[0] == "dmm_realistic"
    snrs = [float(r.split(",")[4]) for r in lines[1:]]
    assert snrs == [-1.0, 0.5]  # grid order preserved


def test_sweep_seed_flag_changes_results(sweep_csv, tmp_path):
    cfg, out = sweep_csv
    other = str(tmp_path / "seeded.csv")
    assert main(["sweep", cfg, "--seed", "7", "--out", other]) == 0
    assert body(out) != body(other)


def test_sweep_env_override(sweep_csv, tmp_path, monkeypatch):
    cfg, out = sweep_csv
    via_env = str(tmp_path / "env.csv")
    monkeypatch.setenv("DMMSIM_SEED", "7")
    monkeypatch.setenv("DMMSIM_OUT", via_env)
    monkeypatch.setenv("DMMSIM_THREADS", "2")
    assert main(["sweep", cfg]) == 0
    via_flag = str(tmp_path / "flag.csv")
    monkeypatch.delenv("DMMSIM_OUT")
    monkeypatch.delenv("DMMSIM_THREADS")
    assert main(["sweep", cfg, "--seed", "7", "--out", via_flag]) == 0
    assert body(via_env) == body(via_flag)


def test_uncoded_sweep_runs(tmp_path):
    cfg = write(tmp_path, "u.cfg", """\
scheme = uncoded
snr_grid_db = 4.0
snr_convention = eb_n0_stream1
stop_min_frame_errors = 1000000000
stop_max_frames = 30
uncoded_block_bits = 4096
master_seed = 3
""")
    out = str(tmp_path / "u.csv")
    assert main(["sweep", cfg, "--out", out]) == 0
    row = body(out).strip().split("\n")[1].split(",")
    header = body(out).strip().split("\n")[0].split(",")
    ber1 = float(row[header.index("ber1")])
    assert ber1 == pytest.approx(1.25e-2, rel=0.25)


# ---------------------------------------------------------------------------
# capacity verb
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def capacity_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("capacity")
    cfg = write(tmp, "c.cfg", CAPACITY_CFG)
    out = str(tmp / "cap.csv")
    assert main(["capacity", cfg, "--out", out]) == 0
    return out


def test_capacity_columns_and_monotonicity(capacity_csv):
    lines = body(capacity_csv).strip().split("\n")
    assert lines[0] == ("snr_db,mi_bpsk,mi_qpsk,mi_x2_axis,composite_abr,"
                        "joint_mi_4point,composite_minus_joint")
    rows = [list(map(float, r.split(","))) for r in lines[1:]]
    assert len(rows) == 5
    for col in range(1, 6):
        vals = [r[col] for r in rows]
        assert all(b - a > -1e-9 for a, b in zip(vals, vals[1:]))


def test_capacity_qpsk_decomposition(capacity_csv):
    lines = body(capacity_csv).strip().split("\n")
    rows = [list(map(float, r.split(","))) for r in lines[1:]]
    from dmmsim import mi_bpsk

    for r in rows:
        snr, _, qpsk = r[0], r[1], r[2]
        half = mi_bpsk(snr - 10 * math.log10(2)).value
        assert qpsk == pytest.approx(2 * half, abs=1e-5)


def test_capacity_axis_bounded_by_joint(capacity_csv):
    lines = body(capacity_csv).strip().split("\n")
    for r in lines[1:]:
        vals = list(map(float, r.split(",")))
        assert vals[3] <= vals[5] + 3e-6


# ---------------------------------------------------------------------------
# codeinfo verb
# ---------------------------------------------------------------------------

def test_codeinfo_output(capsys):
    assert main(["codeinfo", f"{DATA}/hamming74.alist"]) == 0
    out = capsys.readouterr().out
    assert "n (columns / code length): 7" in out
    assert "k (info bits): 4" in out
    assert "G H^T = 0: yes" in out


def test_codeinfo_missing_file(capsys):
    assert main(["codeinfo", "/nonexistent/x.alist"]) != 0
    assert "error" in capsys.readouterr().err


def test_codeinfo_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.alist"
    bad.write_text("")
    assert main(["codeinfo", str(bad)]) == 2
    assert ":1:" in capsys.readouterr().err
