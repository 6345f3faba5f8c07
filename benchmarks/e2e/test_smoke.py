"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Outside tier-1's ``testpaths``: it runs the whole set twice at ``--smoke``
sizes (about a minute).  Checks that every name printed is a name in
``BENCHMARK.json``, that counts repeat exactly across runs and across
``PYTHONHASHSEED`` values, that the checker can fail, and that the
comparer flags a changed count.
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
RUN = str(HERE / "run.py")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e import compare  # noqa: E402
from benchmarks.e2e.spec import is_exact, load_contract  # noqa: E402
from benchmarks.e2e.tracing import SpanRecorder  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, Checks  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CONTRACT = load_contract()


def _smoke_set(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "all", "--smoke", "--seed", "5"],
        capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def smoke_a() -> dict:
    return _smoke_set("0")


@pytest.fixture(scope="module")
def smoke_b() -> dict:
    return _smoke_set("1")


def test_contract_is_well_formed():
    raw = CONTRACT.raw
    assert sorted(raw) == ["command", "end_to_end", "paths", "per_layer",
                           "run_seconds", "workloads"]
    assert raw["paths"] == ["benchmarks/e2e"]
    names = ([w["name"] for w in raw["workloads"]]
             + list(CONTRACT.end_to_end) + list(CONTRACT.per_layer))
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in raw["end_to_end"] + raw["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(0 <= m["bound"] <= 0.25 for m in raw["end_to_end"])
    assert CONTRACT.end_to_end["setup_s"]["unit"] == "s"
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in raw["workloads"])
    assert set(CONTRACT.workloads) == set(WORKLOADS)


def test_every_printed_name_is_in_the_contract(smoke_a):
    assert list(smoke_a["workloads"]) == sorted(CONTRACT.workloads)
    for workload, run in smoke_a["workloads"].items():
        assert run["correct"], (workload, run["detail"]["failures"],
                                run["trace_detail"]["failures"])
        assert run["failed"] == 0 and run["attempted"] >= 1
        for section, wanted in (("end_to_end", CONTRACT.end_to_end),
                                ("per_layer", CONTRACT.per_layer)):
            assert sorted(run[section]) == sorted(wanted), (workload, section)
            for name, cell in run[section].items():
                assert cell["unit"] == wanted[name]["unit"]
                assert isinstance(cell["value"], (int, float))
        assert all(run["end_to_end"][name]["value"] > 0
                   for name in CONTRACT.end_to_end), workload
        # Host times are in reference seconds: the factor must be there.
        assert run["detail"]["yardstick"]["factor"] > 0


def test_counts_repeat_across_runs_and_hash_seeds(smoke_a, smoke_b):
    compared = 0
    for workload in CONTRACT.workloads:
        run_a, run_b = smoke_a["workloads"][workload], smoke_b["workloads"][workload]
        for section in ("end_to_end", "per_layer"):
            for name, cell in run_a[section].items():
                if is_exact(name):
                    compared += 1
                    assert cell == run_b[section][name], (workload, name)
    exact_names = [name for name in (*CONTRACT.end_to_end, *CONTRACT.per_layer)
                   if is_exact(name)]
    assert compared == len(CONTRACT.workloads) * len(exact_names)


def test_tracing_observes_and_never_perturbs(smoke_a):
    plain = smoke_a["workloads"]["serve_mix"]
    traced = smoke_a["workloads"]["serve_traced"]
    assert (plain["end_to_end"]["sim_elapsed_s"]
            == traced["end_to_end"]["sim_elapsed_s"])
    for name in ("serve.jobs_offered", "serve.jobs_completed",
                 "serve.jobs_rejected", "serve.jobs_timed_out",
                 "serve.sim_p99_us"):
        assert plain["per_layer"][name] == traced["per_layer"][name], name
    assert traced["per_layer"]["instrument.attributed_queries"]["value"] > 0
    assert plain["per_layer"]["instrument.bus_events"]["value"] == 0


def test_a_planted_wrong_answer_is_caught():
    workload = WORKLOADS["tpch_sql"](5, True, SpanRecorder(enabled=False))
    target = workload.build()
    workload.load(target)
    out = workload.rep(target)
    clean = Checks()
    workload.check(target, out, clean)
    assert clean.attempted == 44 and not clean.failures
    # Corrupt one expected row of Q6 (a single-row revenue sum).
    reference = workload.reference()
    reference[6] = [tuple(value * 2 for value in reference[6][0])]
    planted = Checks()
    workload.check(target, out, planted)
    assert planted.failures == ["tpch.q6.conv: differs from db.reference"]
    assert len(planted.failures) / planted.attempted > 0


def test_compare_passes_itself_and_flags_a_changed_count(smoke_a):
    lines, bad = compare.compare(smoke_a, smoke_a, CONTRACT)
    assert not bad, "\n".join(lines)
    changed = copy.deepcopy(smoke_a)
    changed["workloads"]["dev_point"]["per_layer"]["sim.events"]["value"] += 1
    lines, bad = compare.compare(smoke_a, changed, CONTRACT)
    assert bad and any("sim.events" in line and "DIFFERS" in line
                       for line in lines)
    slower = copy.deepcopy(smoke_a)
    slower["workloads"]["dev_point"]["end_to_end"]["peak_rss_mb"]["value"] *= 2
    lines, bad = compare.compare(smoke_a, slower, CONTRACT)
    assert bad and any("peak_rss_mb" in line and "regressed" in line
                       for line in lines)
    assert compare.verdict(1.0, 1.2, 0.1, "lower", [0.8, 1.0, 1.3],
                           [1.0, 1.2, 1.4]) == "unresolved"


def test_exits_nonzero_without_the_program(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and the
    benchmark's own directory exist; it must fail and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "dev_point",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
