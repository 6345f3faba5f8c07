"""The index join against the per-page nested loop it replaced.

``Engine._index_join`` computes its rows as one hash join and its time as
a walk of (driving row, index page) through the buffer pool.  The nested
loop below — each probed page scanned for the key, each match merged on
its own — is the join as it was written before that split, kept here as
the oracle: rows (order included), pages read, pool hits and misses,
simulated time and simulator events must all come out the same.
"""

import random

import pytest

from repro.db import kernels
from repro.db.catalog import Column, TableSchema
from repro.db.executor import (
    HOST_JOIN_ROW_US, PROBE_OVERHEAD_US, ExecutionMode, Rel,
)
from repro.db.expr import and_, col, gt, lt
from repro.db.planner import create_engine
from repro.db.storage import Database
from repro.host.platform import System

DRIVING_COLUMNS = ["d_id", "d_key"]


def nested_loop_join(engine, driving, inner_ref, driving_key, inner_key, cols):
    """Fiber: the index-nested-loop join scanning every probed page."""
    inner = engine.db.table(inner_ref.name)
    inner_key_pos = inner.schema.position(inner_key)
    driving_key_pos = driving.position(driving_key)
    inner_cols, scan = engine.scan_kernel(inner_ref)
    engine._record(inner_ref, "IndexProbe(%s)" % inner_key).kernels["select"] = scan
    out_columns, merge = kernels.merge(driving.columns, inner_cols, cols)
    handle = engine.system.open_host(inner.path)
    page_size = inner.page_size
    out_rows = []
    probes = 0
    probed_cpu_rows = 0
    for row in driving.rows:
        key = row[driving_key_pos]
        pages = inner.index_pages(inner_key, key)
        probes += 1
        for page_no in pages:
            if not engine.pool.touch((inner_ref.name, page_no)):
                length = min(page_size, inner.inode.size - page_no * page_size)
                yield from handle.read_timing_only(page_no * page_size, length)
                engine.host_pages_read += 1
            cached = engine.table_page_rows(inner_ref.name, page_no)
            matched = [r for r in cached if r[inner_key_pos] == key]
            probed_cpu_rows += len(matched)
            out_rows += merge((row,), scan(matched))
        if probes % 1024 == 0:
            yield from engine._charge(
                1024 * PROBE_OVERHEAD_US + probed_cpu_rows * HOST_JOIN_ROW_US)
            probed_cpu_rows = 0
    yield from engine._charge(
        (probes % 1024) * PROBE_OVERHEAD_US + probed_cpu_rows * HOST_JOIN_ROW_US)
    return Rel(out_columns, out_rows)


def _engine(seed, key_type, pool_pages, clustered=False):
    """A CONV engine over one generated inner table indexed on ``i_key``:
    40 keys, each on most pages — or, ``clustered``, stored in key order,
    each on one or two; a float key column also holds keys no integer
    equals."""
    rng = random.Random(seed)
    schema = TableSchema(
        "inner",
        [Column("i_id", "int"), Column("i_key", key_type),
         Column("i_val", "float"), Column("i_tag", "str")],
        primary_key=("i_id",),
        indexes=("i_key",),
    )
    rows = []
    for i in range(3000):
        key = rng.randrange(40)
        if key_type == "float":
            key += rng.choice((0.0, 0.0, 0.5))
        rows.append((i, key, round(rng.random() * 100, 2),
                     "tag-%d" % rng.randrange(1000)))
    if clustered:
        rows.sort(key=lambda row: row[1])
    system = System()
    db = Database(system.fs)
    db.load_table(schema, rows)
    engine = create_engine(system, db, ExecutionMode.CONV)
    engine.begin_query()
    if pool_pages is not None:
        engine.pool.capacity = pool_pages
    return engine


def _driving(seed, count):
    """Driving rows whose keys repeat and include keys 40–49, which no
    inner row has."""
    rng = random.Random(seed + 1)
    return Rel(DRIVING_COLUMNS, [(i, rng.randrange(50)) for i in range(count)])


def _run(join, seed, key_type, pool_pages, drivers, pred, ref_cols, cols,
         clustered=False):
    engine = _engine(seed, key_type, pool_pages, clustered)
    driving = _driving(seed, drivers)
    sim = engine.system.sim
    inner_ref = engine.t("inner", pred, ref_cols)
    rel = engine.system.run_fiber(
        join(engine, driving, inner_ref, "d_key", "i_key", cols))
    return {
        "columns": rel.columns,
        "rows": rel.rows,
        "host_pages_read": engine.host_pages_read,
        "pool": (engine.pool.hits, engine.pool.misses),
        "now": sim.now,
        "events": sim.events_processed,
        "plan": [step.access for step in engine.plan],
    }


CASES = {
    "spread": dict(key_type="int", pool_pages=None, drivers=300,
                   pred=None, ref_cols=None, cols=None),
    "pred_removes_keys": dict(key_type="int", pool_pages=None, drivers=300,
                              pred=and_(gt(col("i_key"), 4), lt(col("i_val"), 60.0)),
                              ref_cols=None, cols=None),
    "projection": dict(key_type="int", pool_pages=None, drivers=300,
                       pred=lt(col("i_val"), 50.0), ref_cols=["i_tag", "i_key"],
                       cols=["i_tag", "d_id", "i_key"]),
    "int_probes_float": dict(key_type="float", pool_pages=None, drivers=300,
                             pred=None, ref_cols=None, cols=None),
    "small_pool": dict(key_type="int", pool_pages=4, drivers=200, clustered=True,
                       pred=None, ref_cols=["i_id"], cols=None),
    "two_charge_boundaries": dict(key_type="float", pool_pages=8, drivers=2100,
                                  clustered=True, pred=gt(col("i_val"), 30.0),
                                  ref_cols=["i_id"], cols=None),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_index_join_matches_the_nested_loop(case):
    params = CASES[case]
    want = _run(nested_loop_join, 11, **params)
    got = _run(lambda engine, *args: engine._index_join(*args), 11, **params)
    assert got == want
    assert want["rows"], "the case joins nothing"
    hits, misses = want["pool"]
    assert hits > 0 and misses == want["host_pages_read"] > 0
    if params["pool_pages"] is not None:
        # Evicted pages were read again.
        assert misses > _engine(11, params["key_type"], None).db.table("inner").num_pages


def test_cases_cover_what_they_claim():
    engine = _engine(11, "int", None)
    inner = engine.db.table("inner")
    assert inner.num_pages > 8  # more pages than either small pool holds
    assert all(len(inner.index_pages("i_key", key)) > 1 for key in range(40))
    assert inner.index_pages("i_key", 45) == []
    float_inner = _engine(11, "float", None).db.table("inner")
    assert float_inner.index_pages("i_key", 7)  # an int finds a float key
