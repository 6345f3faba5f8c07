"""The experiment-runner command line (python -m repro.bench)."""

import os
import subprocess

import pytest

from repro.bench.__main__ import EXPERIMENTS, main, save_name
from repro.bench.harness import repo_root

#: The registry snapshots and the attribution golden ``python -m
#: repro.instrument`` writes under benchmarks/results/.
INSTRUMENT_FILES = {"attribution_read_latency.json",
                    "metrics_string_search.json",
                    "metrics_read_latency_race.json"}


def test_list(capsys):
    # Every table, figure, extension and ablation, then the e2e runner.
    assert len(EXPERIMENTS) == 22
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == list(EXPERIMENTS) + ["e2e"]


def test_e2e_hands_its_arguments_to_the_benchmark_runner(capfd):
    # benchmarks/e2e/run.py's own parser answers: exit status 2, its usage.
    assert main(["e2e", "--workload", "no-such-workload"]) == 2
    assert "invalid choice: 'no-such-workload'" in capfd.readouterr().err


def test_the_registry_writes_exactly_the_tracked_results():
    # python -m repro.bench is the only writer of benchmarks/results/ besides
    # python -m repro.instrument's three snapshots: what the registry writes
    # is every tracked file there, with none missing and none extra.
    try:
        listed = subprocess.run(
            ["git", "ls-files", "benchmarks/results"], cwd=repo_root(),
            capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    written = {save_name(name) + ext for name in EXPERIMENTS
               for ext in (".txt", ".csv", ".metrics.json")}
    written |= {"fig9_power_conv_series.csv", "fig9_power_biscuit_series.csv"}
    written |= INSTRUMENT_FILES
    assert written == {os.path.basename(path) for path in listed}


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


@pytest.mark.parametrize(
    "name", ["table2", "sim_throughput", "resilience", "cluster"])
def test_no_save_flag(name, capsys, tmp_path, monkeypatch):
    # --no-save writes nothing anywhere: not under the results directory,
    # not in the working directory.
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert main([name, "--no-save"]) == 0
    assert "saved:" not in capsys.readouterr().out
    assert not list(tmp_path.iterdir())


def test_ablation_runs_without_saving(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert main(["ablation_read_cache", "--no-save"]) == 0
    out = capsys.readouterr().out
    assert "Device-DRAM read cache" in out
    assert "saved:" not in out
    assert not list(tmp_path.iterdir())
