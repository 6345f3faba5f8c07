"""Generators: seed determinism, value shapes, and the REPRO line format."""

import random

import pytest

from repro.db.catalog import TableSchema
from repro.testing.strategies import (
    GENERATOR_VERSION,
    gen_fault_plan,
    gen_query,
    gen_schedule,
    gen_ssd_config,
    gen_table,
    parse_repro,
    repro_line,
)


def test_gen_ssd_config_is_valid_and_deterministic():
    config_a = gen_ssd_config(random.Random(7))
    config_b = gen_ssd_config(random.Random(7))
    assert config_a == config_b
    config_a.validate()


def test_gen_ssd_config_leaves_the_stream_where_it_was():
    """The draw after a config is pinned per seed: the config still draws
    the retired read-cache policy and discards it, so every case drawn
    after the config keeps its value."""
    following = {}
    for seed in (0, 1, 7, 42, 2016):
        rng = random.Random(seed)
        gen_ssd_config(rng)
        following[seed] = rng.getrandbits(32)
    assert following == {0: 2167613558, 1: 3836767462, 7: 369140570,
                         42: 127978094, 2016: 665698978}


def test_gen_ssd_config_draws_serve_budgets():
    slots = set()
    budgets = set()
    for seed in range(30):
        config = gen_ssd_config(random.Random(seed))
        slots.add(config.serve_app_slots)
        budgets.add(config.serve_dram_budget_bytes)
    assert len(slots) > 1 and len(budgets) > 1


def test_gen_table_is_deterministic():
    schema_a, rows_a = gen_table(random.Random(7))
    schema_b, rows_b = gen_table(random.Random(7))
    assert schema_a == schema_b
    assert rows_a == rows_b
    assert isinstance(schema_a, TableSchema)
    assert 80 <= len(rows_a) <= 400


def test_gen_table_c0_is_unique_row_id():
    _schema, rows = gen_table(random.Random(3))
    ids = [row[0] for row in rows]
    assert ids == list(range(len(rows)))


def test_gen_query_is_deterministic():
    rng = random.Random(11)
    schema, rows = gen_table(rng)
    state = rng.getstate()
    query_a = gen_query(rng, schema, rows)
    rng.setstate(state)
    query_b = gen_query(rng, schema, rows)
    assert repr(query_a) == repr(query_b)
    assert query_a["kind"] in ("filter", "aggregate")


def test_gen_query_covers_both_kinds():
    kinds = set()
    for seed in range(40):
        rng = random.Random(seed)
        schema, rows = gen_table(rng)
        kinds.add(gen_query(rng, schema, rows)["kind"])
    assert kinds == {"filter", "aggregate"}


def test_gen_fault_plan_is_valid():
    for seed in range(40):
        plan = gen_fault_plan(random.Random(seed))
        plan.validate()  # raises on a bad plan


def test_gen_schedule_is_deterministic():
    schedule_a = gen_schedule(random.Random(9))
    schedule_b = gen_schedule(random.Random(9))
    assert schedule_a == schedule_b
    assert schedule_a["companion"] in ("string_search", "pointer_chase")
    assert schedule_a["stagger_us"] >= 0.0


def test_gen_schedule_covers_both_companions():
    companions = {gen_schedule(random.Random(seed))["companion"]
                  for seed in range(20)}
    assert companions == {"string_search", "pointer_chase"}


def test_repro_line_roundtrip():
    for seed, faults, arm in ((0, True, "ndp"), (12345, False, "fastpath"),
                              (1 << 29, True, "sharded")):
        assert parse_repro(repro_line(seed, faults, arm)) == (seed, faults, arm)


def test_repro_line_parses_inside_noise():
    line = "FAILED ...  %s  (rerun me)" % repro_line(77, True, "resilient")
    assert parse_repro(line) == (77, True, "resilient")


def test_parse_repro_rejects_garbage():
    with pytest.raises(ValueError):
        parse_repro("not a repro line at all")
    # A line that does not name its arm would silently replay the ndp arm.
    with pytest.raises(ValueError):
        parse_repro("REPRO: seed=5 config=%s:faults=on" % GENERATOR_VERSION)


def test_parse_repro_rejects_version_mismatch():
    stale = repro_line(5, True, "ndp").replace(GENERATOR_VERSION, "v0")
    assert GENERATOR_VERSION in repro_line(5, True, "ndp")
    with pytest.raises(ValueError):
        parse_repro(stale)
