import math

import pytest

from dmmsim.cli import main
from dmmsim.config import ConfigError, load_capacity_config, load_sweep_config

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
    (("stop_min_frame_errors = 10", "stop_min_frame_errors = 0"), 7),
    (("stop_max_frames = 60", "stop_max_frames = -3"), 8),
    (("stop_max_frames = 60", "stop_max_frames = 4294967297"), 8),
    (("master_seed = 42", "master_seed = -4"), 9),
    (("master_seed = 42", "master_seed = 42\nmax_bp_iterations = 0"), 10),
    (("master_seed = 42", "master_seed = 42\nuncoded_block_bits = 0"), 10),
    (("master_seed = 42", "master_seed = 42\nsymbol_energy = 0"), 10),
    (("master_seed = 42", "master_seed = 42\nsymbol_energy = nan"), 10),
]


@pytest.mark.parametrize("edit,line", BAD_SWEEP_VALUES,
                         ids=[e[1].rsplit("\n", 1)[-1] for e, _ in BAD_SWEEP_VALUES])
def test_bad_sweep_value_rejected_at_its_line(tmp_path, edit, line):
    path = write(tmp_path, "s.cfg", SWEEP_CFG.replace(*edit))
    key = edit[1].rsplit("\n", 1)[-1].split(" =")[0]
    with pytest.raises(ConfigError, match=rf"s\.cfg:{line}: {key} must be"):
        load_sweep_config(path)


@pytest.mark.parametrize("extra", ["symbol_energy = 0", "quadrature_tol_bits = -1e-6"])
def test_bad_capacity_value_rejected_at_its_line(tmp_path, extra):
    path = write(tmp_path, "c.cfg", CAPACITY_CFG.replace("quadrature_tol_bits = 1e-6\n", "")
                 + extra + "\n")
    with pytest.raises(ConfigError, match=rf"c\.cfg:2: {extra.split(' =')[0]} must be"):
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
