"""The experiment-runner command line (python -m repro.bench)."""

import os

import pytest

from repro.bench.__main__ import EXPERIMENTS, main, save_name


def test_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    assert "\ne2e " in out


def test_e2e_hands_its_arguments_to_the_benchmark_runner(capfd):
    # benchmarks/e2e/run.py's own parser answers: exit status 2, its usage.
    assert main(["e2e", "--workload", "no-such-workload"]) == 2
    assert "invalid choice: 'no-such-workload'" in capfd.readouterr().err


def test_every_experiment_saves_under_a_tracked_name():
    # One basename per experiment, shared with its pytest twin: the CLI must
    # rewrite the committed files, never drop strays next to them.
    results = os.path.join(os.path.dirname(__file__), "..", "..",
                           "benchmarks", "results")
    for name in EXPERIMENTS:
        assert os.path.exists(os.path.join(results, save_name(name) + ".txt")), name


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["does-not-exist"])


def test_run_single_experiment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "saved:" in out
    assert (tmp_path / "table2_port_latency.txt").exists()
    assert (tmp_path / "table2_port_latency.csv").exists()


def test_no_save_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert main(["table2", "--no-save"]) == 0
    assert "saved:" not in capsys.readouterr().out
    assert not list(tmp_path.iterdir())
