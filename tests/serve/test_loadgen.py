"""Load generator + CLI: determinism, horizon discipline, mix registry."""

import json

import pytest

from repro.serve.__main__ import main
from repro.serve.loadgen import LoadGenerator, TenantProfile
from repro.serve.manager import JobManager
from repro.serve.mixes import mix_names, run_mix


# ------------------------------------------------------------------ validation
def test_loadgen_validates_inputs():
    from repro.host.platform import System

    system = System()
    manager = JobManager(system, [TenantProfile("a", "string_search").tenant()])
    with pytest.raises(ValueError):
        LoadGenerator(manager, [TenantProfile("a", "string_search",
                                              mode="sideways")])
    with pytest.raises(ValueError):
        LoadGenerator(manager, [TenantProfile("a", "telepathy")])
    with pytest.raises(ValueError):
        LoadGenerator(manager, [TenantProfile("a", "string_search")],
                      horizon_s=0)


def test_run_mix_validates_inputs():
    with pytest.raises(ValueError):
        run_mix("no_such_mix")
    with pytest.raises(ValueError):
        run_mix("smoke", load_scale=0)


def test_mix_registry_is_sorted_and_nonempty():
    names = mix_names()
    assert names == sorted(names)
    assert "smoke" in names and "overload" in names


# ---------------------------------------------------------------- determinism
def snapshot(mix="smoke", **kwargs):
    result = run_mix(mix, **kwargs)
    return result.system.metrics.to_json()


def test_same_seed_same_metrics():
    assert snapshot(seed=11) == snapshot(seed=11)


def test_different_seed_different_arrivals():
    first = run_mix("smoke", seed=11)
    second = run_mix("smoke", seed=12)
    assert first.loadgen.jobs_offered != second.loadgen.jobs_offered or (
        first.system.metrics.to_json() != second.system.metrics.to_json())


def test_policies_all_complete_smoke():
    for policy in ("fifo", "wfq"):
        result = run_mix("smoke", policy=policy)
        assert result.manager.idle
        assert result.manager.jobs_submitted > 0


def test_horizon_bounds_arrivals():
    short = run_mix("smoke", horizon_s=0.01)
    long = run_mix("smoke", horizon_s=0.05)
    assert short.loadgen.jobs_offered < long.loadgen.jobs_offered


def test_load_scale_scales_offered_load():
    light = run_mix("saturation", load_scale=0.5)
    heavy = run_mix("saturation", load_scale=2.0)
    assert light.loadgen.jobs_offered < heavy.loadgen.jobs_offered


# ------------------------------------------------------------------------ CLI
def test_cli_list_mixes(capsys):
    assert main(["--list-mixes"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == mix_names()


def test_cli_writes_metrics_json(tmp_path, capsys):
    out_file = tmp_path / "metrics.json"
    assert main(["--mix", "smoke", "--out", str(out_file)]) == 0
    stdout = capsys.readouterr().out
    assert "mix=smoke" in stdout
    payload = json.loads(out_file.read_text())
    assert payload["mix"] == "smoke"
    assert payload["schema"] == 1


def test_cli_output_reproducible(tmp_path, capsys):
    """Two identical invocations: byte-identical stdout and JSON."""
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    main(["--mix", "smoke", "--policy", "wfq", "--out", str(first)])
    stdout_first = capsys.readouterr().out
    main(["--mix", "smoke", "--policy", "wfq", "--out", str(second)])
    stdout_second = capsys.readouterr().out
    # The trailing "metrics -> <path>" line differs by tmp filename only.
    strip = lambda text: [line for line in text.splitlines()
                          if not line.startswith("metrics ->")]
    assert strip(stdout_first) == strip(stdout_second)
    assert first.read_bytes() == second.read_bytes()


def test_slo_metrics_present_after_mix():
    result = run_mix("smoke")
    registry = result.system.metrics
    for tenant in sorted(result.manager.tenants):
        hist = registry.histogram("serve.tenant.%s.total_us" % tenant)
        submitted = registry.counter("serve.tenant.%s.submitted" % tenant)
        assert submitted.value > 0
        assert hist.count > 0
        snap = hist.snapshot()
        assert snap["p50"] <= snap["p95"] <= snap["p99"]
    dispatched = registry.counter("serve.device0.dispatched")
    assert dispatched.value > 0
