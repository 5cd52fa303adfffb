"""The experiment scripts in ``scripts/`` are thin clients of the CLI.

``degradation_sweep.py`` writes one sweep config per (K, mode) and runs
``dmmsim sweep`` on it, so each CSV it leaves must be what ``dmmsim sweep``
writes for that config.  ``capacity_audit.py`` builds its grid by index up
to a fixed number of points, so it must refuse a grid it could not finish.
"""

import pytest

from dmmsim.cli import main as cli_main


def body(path) -> str:
    with open(path) as fh:
        return "".join(line for line in fh if not line.startswith("#"))


def test_degradation_sweep_csvs_are_dmmsim_sweep(script, tmp_path, monkeypatch, capsys):
    # the script's --seed and output paths beat the environment
    monkeypatch.setenv("DMMSIM_SEED", "7")
    monkeypatch.setenv("DMMSIM_OUT", str(tmp_path / "elsewhere.csv"))
    outdir = tmp_path / "results"
    argv = ["--grid", "-1.0", "0.0", "--max-frames", "16", "--outdir", str(outdir)]
    assert script("degradation_sweep").main(argv) == 0
    printed = capsys.readouterr().out
    cfgs = sorted(outdir.glob("*.cfg"))
    assert [c.stem for c in cfgs] == [f"degradation_k{k}_{mode}" for k in (2, 4)
                                      for mode in ("dmm_genie", "dmm_realistic")]
    assert not (tmp_path / "elsewhere.csv").exists()
    for cfg in cfgs:
        again = tmp_path / f"{cfg.stem}.csv"
        assert cli_main(["sweep", str(cfg), "--out", str(again), "--seed", "1"]) == 0
        written = body(cfg.with_suffix(".csv"))
        assert written == body(again)
        header, *rows = written.splitlines()
        columns = header.split(",")
        assert len(rows) == 2
        for row in rows:
            cells = dict(zip(columns, row.split(",")))
            assert (cells["master_seed"], cells["frames"]) == ("1", "16")
    assert printed.count("dB: ber1=") == 8
    assert printed.count("K=2: ") == printed.count("K=4: ") == 1


@pytest.mark.parametrize("target", ["0", "-1e-4", "1", "nan", "inf"])
def test_degradation_sweep_rejects_a_bad_target_before_sweeping(script, tmp_path, capsys,
                                                                 target):
    # --target-ber 0 used to run every sweep and then fail on log10(0)
    outdir = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        script("degradation_sweep").main([f"--target-ber={target}", "--outdir", str(outdir)])
    assert exc.value.code == 2
    assert "error: --target-ber must be in (0, 1)" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("argv,named", [
    (["--step", "0"], "--step"), (["--step", "-1"], "--step"), (["--step", "nan"], "--step"),
    (["--hi", "inf"], "--hi"), (["--lo=-inf"], "--lo"), (["--lo", "1", "--hi", "0"], "--lo"),
    (["--step", "1e-20"], "--step"), (["--step", "1e-9"], "--step"),
    (["--lo", "5", "--hi", "5", "--step", "1e-20"], "--step"),
    (["--lo", "1e300", "--hi", "1e300"], "--step"),
    (["--lo", "0", "--hi", "1e-9", "--step", "1e-12"], "--step"),
], ids=["step 0", "step -1", "step nan", "hi inf", "lo -inf", "lo > hi", "step 1e-20",
        "step 1e-9", "lo = hi, step 1e-20", "lo = hi = 1e300", "step 1e-12 merges points"])
def test_capacity_audit_rejects_grids_that_never_end(script, tmp_path, capsys, argv, named):
    # --step 0 and --hi inf used to grow the grid list without end; a step
    # below the float spacing at --lo never moved the old running sum,
    # --step 1e-9 asks for 2e10 points, and --step 1e-12 asks for 2001
    # points that round to 21 distinct values
    outdir = tmp_path / "results"
    with pytest.raises(SystemExit) as exc:
        script("capacity_audit").main(argv + ["--outdir", str(outdir)])
    assert exc.value.code == 2
    assert f"error: {named} must be" in capsys.readouterr().err
    assert not outdir.exists()


def test_capacity_audit_grid(script, tmp_path):
    outdir = tmp_path / "results"
    argv = ["--lo", "-1", "--hi", "1", "--step", "0.5", "--outdir", str(outdir)]
    assert script("capacity_audit").main(argv) == 0
    cfg = (outdir / "capacity_grid.cfg").read_text().splitlines()
    assert cfg[0] == "snr_grid_db = -1.0 -0.5 0.0 0.5 1.0"
    assert len(body(outdir / "capacity_audit.csv").splitlines()) == 6

