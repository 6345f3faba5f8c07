"""The NDP planner heuristic and the ScanFilter offload path."""

import pytest

from repro.db.catalog import d
from repro.db.executor import ExecutionMode
from repro.db.expr import and_, between, col, eq, le, lt, not_like
from repro.db.planner import create_engine


def peek(engine, ref):
    return engine.system.run_fiber(engine.planner.peek(ref))


# ------------------------------------------------------------- decisions
def test_no_predicate_no_offload(tpch_engines):
    _, biscuit = tpch_engines
    biscuit.begin_query()
    decision = peek(biscuit, biscuit.t("lineitem"))
    assert not decision.offload
    assert "no filter" in decision.reason


def test_not_like_is_hw_limited(tpch_engines):
    _, biscuit = tpch_engines
    biscuit.begin_query()
    decision = peek(biscuit, biscuit.t(
        "orders", not_like(col("o_comment"), "%special%requests%")
    ))
    assert not decision.offload
    assert "HW limitation" in decision.reason


def test_small_table_rejected(tpch_engines):
    _, biscuit = tpch_engines
    biscuit.begin_query()
    decision = peek(biscuit, biscuit.t("part", eq(col("p_size"), 15)))
    assert not decision.offload
    assert "too small" in decision.reason


def test_unselective_predicate_rejected(tpch_engines):
    _, biscuit = tpch_engines
    biscuit.begin_query()
    decision = peek(biscuit, biscuit.t(
        "lineitem", le(col("l_shipdate"), d("1998-09-02"))
    ))
    assert not decision.offload
    assert decision.est_selectivity > 0.9


def test_selective_range_offloaded(tpch_engines):
    _, biscuit = tpch_engines
    biscuit.begin_query()
    decision = peek(biscuit, biscuit.t(
        "lineitem", between(col("l_shipdate"), d("1995-09-01"), d("1995-10-01"))
    ))
    assert decision.offload
    assert decision.est_selectivity < 0.25
    assert decision.mfilter is not None


def test_sampling_is_deterministic(tpch_engines):
    _, biscuit = tpch_engines
    ref = biscuit.t("orders", between(col("o_orderdate"), d("1994-01-01"), d("1995-01-01")))
    biscuit.begin_query()
    first = peek(biscuit, ref)
    biscuit.begin_query()
    second = peek(biscuit, ref)
    assert first.est_selectivity == second.est_selectivity
    assert first.offload == second.offload


def test_decision_cached_within_query(tpch_engines):
    _, biscuit = tpch_engines
    biscuit.begin_query()
    ref = biscuit.t("lineitem", between(col("l_shipdate"), d("1994-01-01"), d("1995-01-01")))
    peek(biscuit, ref)
    sampled = biscuit.planner.sampled_pages
    peek(biscuit, ref)
    assert biscuit.planner.sampled_pages == sampled  # no second sampling pass


def test_planner_picks_most_selective_conjunct(tpch_engines):
    """Given a date range and a broad IN, the IP gets keyed with the range."""
    _, biscuit = tpch_engines
    biscuit.begin_query()
    from repro.db.expr import in_
    pred = and_(
        in_(col("l_shipmode"), ("MAIL", "SHIP")),
        between(col("l_receiptdate"), d("1994-01-01"), d("1995-01-01")),
    )
    decision = peek(biscuit, biscuit.t("lineitem", pred))
    assert decision.mfilter.description.startswith("range(")


def test_conv_engine_never_plans(tpch_engines):
    conv, _ = tpch_engines
    conv.begin_query()

    def program():
        rel = yield from conv.fetch(conv.t(
            "lineitem",
            between(col("l_shipdate"), d("1995-09-01"), d("1995-10-01")),
            ["l_orderkey"],
        ))
        return rel

    conv.system.run_fiber(program())
    assert conv.ndp_scans == 0
    assert conv.ndp_context is None


# ----------------------------------------------------------------- NDP scan
def fetch_rows(engine, pred, cols):
    engine.begin_query()

    def program():
        rel = yield from engine.fetch(engine.t("lineitem", pred, cols))
        return rel

    return engine.system.run_fiber(program())


def test_ndp_scan_matches_host_scan(tpch_engines):
    conv, biscuit = tpch_engines
    pred = between(col("l_shipdate"), d("1995-09-01"), d("1995-10-01"))
    cols = ["l_orderkey", "l_partkey", "l_shipdate"]
    host_rel = fetch_rows(conv, pred, cols)
    ndp_rel = fetch_rows(biscuit, pred, cols)
    assert biscuit.ndp_scans == 1
    assert sorted(host_rel.rows) == sorted(ndp_rel.rows)


def test_ndp_result_bytes_accounted(tpch_engines):
    _, biscuit = tpch_engines
    pred = between(col("l_shipdate"), d("1995-09-01"), d("1995-10-01"))
    rel = fetch_rows(biscuit, pred, ["l_orderkey"])
    if biscuit.ndp_scans:
        assert biscuit.ndp_result_bytes > 0
        assert biscuit.biscuit_pages_equivalent > biscuit.host_pages_read


def test_ndp_faster_than_host_for_selective_scan(tpch_engines):
    conv, biscuit = tpch_engines
    pred = between(col("l_shipdate"), d("1995-09-01"), d("1995-10-01"))
    system = conv.system

    start = system.sim.now
    fetch_rows(conv, pred, ["l_orderkey"])
    conv_time = system.sim.now - start
    start = system.sim.now
    fetch_rows(biscuit, pred, ["l_orderkey"])
    biscuit_time = system.sim.now - start
    assert biscuit_time < conv_time


def test_software_scan_slower_than_matcher(tpch_engines):
    _, biscuit = tpch_engines
    pred = between(col("l_shipdate"), d("1995-09-01"), d("1995-10-01"))
    system = biscuit.system

    start = system.sim.now
    fetch_rows(biscuit, pred, ["l_orderkey"])
    with_matcher = system.sim.now - start

    biscuit.config.ndp_use_matcher = False
    start = system.sim.now
    rel = fetch_rows(biscuit, pred, ["l_orderkey"])
    without_matcher = system.sim.now - start
    biscuit.config.ndp_use_matcher = True
    assert without_matcher > 2 * with_matcher


def test_ndp_scan_empty_result(tpch_engines):
    conv, biscuit = tpch_engines
    pred = eq(col("l_shipdate"), d("2030-01-01"))  # matches nothing
    host_rel = fetch_rows(conv, pred, ["l_orderkey"])
    ndp_rel = fetch_rows(biscuit, pred, ["l_orderkey"])
    assert len(host_rel) == len(ndp_rel) == 0


@pytest.mark.parametrize("path", ["ndp_scan", "ndp_aggregate"])
def test_device_error_mid_scan_gives_the_data_channels_back(path):
    # Same probe as test_hedged_kv_batches_give_their_data_channels_back:
    # both drivers go through run_offloaded_scan, whose stop() must run when
    # an SSDlet dies under it, or each failed scan keeps its ports' channels.
    from repro.core.errors import DeviceError
    from repro.db.catalog import Column, TableSchema
    from repro.db.storage import Database
    from repro.host.platform import System
    from repro.testing.faults import Fault, ScriptedInjector

    system = System()
    db = Database(system.fs)
    db.load_table(
        TableSchema("t", [Column("id", "int"), Column("pad", "str")]),
        [(i, "x" * 100) for i in range(20000)])
    engine = create_engine(system, db, ExecutionMode.BISCUIT)
    engine.config.ndp_selectivity_threshold = 1.1  # always worth offloading

    def run():
        engine.begin_query()
        ref = engine.t("t", lt(col("id"), 500), ["id"])
        if path == "ndp_scan":
            return system.run_fiber(engine.fetch(ref))
        return system.run_fiber(
            engine.scan_aggregate(ref, [], [("n", "count", None)]))

    probe = ScriptedInjector({})
    system.device.attach_fault_injector(probe)
    clean = run()
    assert engine.ndp_scans == 1 and len(clean) in (1, 500)
    # Every read from the middle of the next run on is uncorrectable.
    middle = probe.reads_seen // 2
    dying = ScriptedInjector({ordinal: Fault("uncorrectable")
                              for ordinal in range(middle, middle + 4000)})
    system.device.attach_fault_injector(dying)
    with pytest.raises(DeviceError):
        run()
    assert dying.faults_injected and engine.ndp_scans == 0
    assert engine.ndp_context.ssd.channels.data_channels._in_use == 0
    system.device.attach_fault_injector(None)
    assert run().rows == clean.rows  # and the pool still serves a scan
