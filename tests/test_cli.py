"""Command-line interface: subcommands, exit codes, and printed output."""

import math
import subprocess
import sys

import pytest

from topm.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from topm.complexity import complexity_fraction_experiment
from topm.engine import preset
from topm.harness import CampaignConfig, load_run_csv, run_campaign
from topm.instances import load_instance


@pytest.fixture()
def classic_path(tmp_path):
    path = tmp_path / "classic.csv"
    rc = main(["gen-instance", "--kind", "classic", "--K", "4", "--m", "2",
               "--omega", str(math.pi / 6), "-o", str(path)])
    assert rc == EXIT_OK
    return path


def test_gen_instance_kinds(tmp_path, capsys):
    classic = tmp_path / "c.csv"
    assert main(["gen-instance", "--kind", "classic", "--K", "5", "--m", "2",
                 "--omega", "0.9", "-o", str(classic)]) == EXIT_OK
    assert "wrote" in capsys.readouterr().out
    assert load_instance(classic).K == 5

    rand = tmp_path / "r.csv"
    assert main(["gen-instance", "--kind", "random", "--K", "6", "--N", "3",
                 "--D", "0.4", "--seed", "7", "-o", str(rand)]) == EXIT_OK
    assert load_instance(rand).N == 3

    canon = tmp_path / "m.csv"
    assert main(["gen-instance", "--kind", "canonical", "--mu", "1", "0.5",
                 "0", "-o", str(canon)]) == EXIT_OK
    inst = load_instance(canon)
    assert inst.K == inst.N == 3


def test_gen_instance_missing_flags(tmp_path, capsys):
    rc = main(["gen-instance", "--kind", "classic", "--K", "4", "--m", "2",
               "-o", str(tmp_path / "x.csv")])
    assert rc == EXIT_USAGE
    assert "requires --omega" in capsys.readouterr().err
    rc = main(["gen-instance", "--kind", "canonical",
               "-o", str(tmp_path / "x.csv")])
    assert rc == EXIT_USAGE


def test_run_campaign_cli_matches_api(classic_path, tmp_path, capsys):
    out = tmp_path / "runs.csv"
    rc = main(["run", "--instance", str(classic_path), "--algo", "m-lingape",
               "--m", "2", "--runs", "4", "--seed", "3",
               "--lambda", "0.025", "--out", str(out),
               "--summary", str(tmp_path / "s.json"),
               "--quantiles", str(tmp_path / "q.csv")])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    for label in ("algorithm:", "runs:", "error frequency:", "mean tau:",
                  "tau quantiles:", "truncated:", "width violations:"):
        assert label in text
    assert (tmp_path / "s.json").exists() and (tmp_path / "q.csv").exists()

    # the same campaign through the library API is trial-for-trial identical
    api_csv = tmp_path / "api.csv"
    api = run_campaign(CampaignConfig(
        algorithm=preset("m-lingape"), instance=str(classic_path), m=2,
        runs=4, seed=3, lam=0.025, out_csv=api_csv))
    assert out.read_bytes() == api_csv.read_bytes()
    rows = load_run_csv(out)
    assert [r.seed for r in rows] == [(3, i) for i in range(4)]
    assert f"mean tau:         {api.mean_tau:.2f}" in text
    assert f"error frequency:  {api.error_frequency:.4f}" in text


def test_run_overrides_parse(classic_path, capsys):
    rc = main(["run", "--instance", str(classic_path), "--algo", "lingifa",
               "--selection", "greedy", "--index", "individual", "--m", "2",
               "--runs", "2", "--lambda", "0.025"])
    assert rc == EXIT_OK
    assert "algorithm:        lingifa" in capsys.readouterr().out


def test_run_exit_codes(classic_path, tmp_path, capsys):
    assert main(["run", "--instance", str(tmp_path / "nope.csv"),
                 "--algo", "lucb", "--m", "2", "--runs", "1"]) == EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err
    # feature-blind preset cannot take the theoretical threshold
    assert main(["run", "--instance", str(classic_path), "--algo", "lucb",
                 "--m", "2", "--runs", "1",
                 "--threshold", "theoretical"]) == EXIT_RUNTIME
    # argparse-level: unknown preset
    assert main(["run", "--instance", str(classic_path), "--algo", "nope",
                 "--m", "2"]) == EXIT_USAGE


def test_complexity_command(classic_path, capsys):
    assert main(["complexity", "--instance", str(classic_path),
                 "--m", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "H[lucb] = 336.277" in out
    assert "H[ugape] = 1345.11" in out
    assert "H[m-lingape-1] = 1513.25" in out
    assert "H[m-lingape-2] = 438.738" in out
    assert main(["complexity", "--instance", str(classic_path), "--m", "2",
                 "--kind", "lucb"]) == EXIT_OK
    assert capsys.readouterr().out.count("H[") == 1


def test_bound_command(capsys):
    assert main(["bound", "--H", "100", "--threshold", "heuristic",
                 "--delta", "0.05"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1015"
    assert main(["bound", "--H", "100", "--threshold", "classical",
                 "--delta", "0.05", "--K", "4", "--sigma", "0.5",
                 "--init-K", "4"]) == EXIT_OK
    assert int(capsys.readouterr().out) > 1015
    rc = main(["bound", "--H", "100", "--threshold", "theoretical",
               "--delta", "0.05", "--N", "3"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "requires --L, --S, --lambda, --sigma" in err


def test_table3_command(capsys):
    assert main(["table3", "--K", "6", "--N", "2", "--D", "0.3",
                 "--reps", "10", "--seed", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    res = complexity_fraction_experiment(6, 2, 0.3, reps=10, seed=3)
    assert f"fraction = {res.fraction:.4f}" in out
    assert f"{res.lps} design LPs" in out


def test_help_and_bad_usage():
    assert main(["--help"]) == EXIT_OK
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE


def test_entry_points_run():
    proc = subprocess.run(["topm", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0 and "gen-instance" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "topm", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
