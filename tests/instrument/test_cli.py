"""``python -m repro.instrument``: exit codes, artifacts, byte determinism."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


def _run(args, hashseed="0"):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "-m", "repro.instrument"] + args,
        capture_output=True, text=True, env=env,
    )


def test_list_workloads():
    proc = _run(["--list"])
    assert proc.returncode == 0
    names = [line.split()[0] for line in proc.stdout.splitlines()]
    assert names == sorted(names)
    assert "string_search" in names and "read_latency" in names


def test_workload_required():
    proc = _run([])
    assert proc.returncode == 2
    assert "--workload is required" in proc.stderr


def test_read_latency_artifacts_and_determinism(tmp_path):
    """Trace and metrics bytes are identical across PYTHONHASHSEED values."""
    outputs = {}
    for seed in ("1", "999"):
        trace = tmp_path / ("trace-%s.json" % seed)
        metrics = tmp_path / ("metrics-%s.json" % seed)
        proc = _run(["--workload", "read_latency", "--trace", str(trace),
                     "--metrics", str(metrics), "--breakdown"],
                    hashseed=seed)
        assert proc.returncode == 0, proc.stderr
        # Drop the "written to <path>" lines: the paths embed the seed.
        report = "\n".join(line for line in proc.stdout.splitlines()
                           if " written to " not in line)
        outputs[seed] = (trace.read_bytes(), metrics.read_bytes(), report)
    assert outputs["1"] == outputs["999"]

    trace_bytes, metrics_bytes, report = outputs["1"]
    # The trace is loadable Chrome trace-event JSON with named processes.
    trace = json.loads(trace_bytes)
    phases = {event["ph"] for event in trace["traceEvents"]}
    assert {"X", "M"} <= phases
    process_names = {event["args"]["name"]
                     for event in trace["traceEvents"]
                     if event["ph"] == "M" and event["name"] == "process_name"}
    assert {"host", "ssd0"} <= process_names
    # The metrics snapshot carries the registry plus run header fields.
    metrics = json.loads(metrics_bytes)
    assert metrics["workload"] == "read_latency"
    # Metadata ("M") and per-query flow arrows ("s"/"t"/"f") are synthetic
    # exporter records, not bus events.
    synthetic = sum(1 for event in trace["traceEvents"]
                    if event["ph"] in ("M", "s", "t", "f"))
    assert metrics["events"] == len(trace["traceEvents"]) - synthetic
    assert "ssd0.io.read_commands" in metrics["metrics"]
    # The breakdown report reproduces the Table III composition.
    assert "path" in report and "internal" in report
    values = dict(
        part.split("=") for line in report.splitlines()
        if line.startswith("read_latency ") for part in line.split()[1:]
    )
    assert abs(float(values["conv_read_us"]) - 90.0) < 0.9  # Table III, 1%
    assert abs(float(values["biscuit_read_us"]) - 75.9) < 0.76


def test_attribute_tpch_prints_a_long_path_by_its_ends(tmp_path):
    """Fig. 10 size: four queries, the slowest one's 45 k-step critical path
    shown as its first and last 20 steps; bytes equal across hash seeds."""
    outputs = {}
    for seed in ("0", "999"):
        report = tmp_path / ("attribution-%s.json" % seed)
        proc = _run(["attribute", "--workload", "tpch", "--critical-path",
                     "--json", str(report)], hashseed=seed)
        assert proc.returncode == 0, proc.stderr
        outputs[seed] = (report.read_bytes(), [
            line for line in proc.stdout.splitlines()
            if " written to " not in line])
    assert outputs["0"] == outputs["999"]

    report_bytes, lines = outputs["0"]
    rows = json.loads(report_bytes)["queries"]
    assert [row["qid"] for row in rows] == [
        "tpch/q6-conv", "tpch/q6-biscuit", "tpch/q14-conv", "tpch/q14-biscuit"]
    header = next(i for i, line in enumerate(lines)
                  if line.startswith("critical path of tpch/q14-conv"))
    steps = int(lines[header].split(",")[1].split()[0])
    assert steps > 40000
    path = lines[header + 1:]
    assert len(path) == 41
    assert path[20].strip() == "... %d steps ..." % (steps - 40)
