"""Coordinator merge operators: ordered k-way merge + aggregate-state fold."""

from repro.cluster.executor import ClusterExecutor, _row_less
from repro.db import kernels
from repro.db.executor import (
    Rel,
    aggregate_rows,
    finalize_agg_rel,
    merge_agg_states,
    plan_device_aggs,
)
from repro.db.expr import col
from repro.testing.differential import rows_match

_merge = ClusterExecutor._ordered_merge


# --------------------------------------------------------------- k-way merge
def test_ordered_merge_interleaves_sorted_runs():
    runs = [[(1,), (4,), (7,)], [(2,), (5,)], [(0,), (9,)]]
    assert _merge(runs, [(0, False)], None) == [
        (0,), (1,), (2,), (4,), (5,), (7,), (9,)]


def test_ordered_merge_descending_and_limit():
    runs = [[(9,), (3,)], [(8,), (5,), (1,)]]
    assert _merge(runs, [(0, True)], 3) == [(9,), (8,), (5,)]


def test_ordered_merge_ties_break_to_lowest_shard_index():
    # Equal keys: shard 0's row must come out before shard 1's, every time.
    runs = [[(5, "s0")], [(5, "s1"), (5, "s1b")]]
    assert _merge(runs, [(0, False)], None) == [
        (5, "s0"), (5, "s1"), (5, "s1b")]
    # ...and the mirror order of runs flips the winner with it (the tie
    # break is positional, not value-dependent).
    assert _merge(list(reversed(runs)), [(0, False)], None) == [
        (5, "s1"), (5, "s1b"), (5, "s0")]


def test_ordered_merge_secondary_key():
    runs = [[(1, 9), (2, 1)], [(1, 3), (2, 5)]]
    assert _merge(runs, [(0, False), (1, True)], None) == [
        (1, 9), (1, 3), (2, 5), (2, 1)]


def test_row_less_is_strict():
    assert not _row_less((1, 2), (1, 2), [(0, False), (1, False)])
    assert _row_less((1, 1), (1, 2), [(0, False), (1, False)])
    assert _row_less((1, 2), (1, 1), [(0, False), (1, True)])


def test_ordered_merge_empty_runs():
    assert _merge([[], [], []], [(0, False)], None) == []
    assert _merge([[], [(1,)]], [(0, False)], None) == [(1,)]


# ------------------------------------------------------- aggregate-state fold
def _rows():
    # (g, v): two groups, deterministic values.
    return [("a", 1.0), ("b", 10.0), ("a", 3.0), ("b", 20.0), ("a", 5.0)]


AGGS = [
    ("s", "sum", col("v")),
    ("c", "count", None),
    ("lo", "min", col("v")),
    ("hi", "max", col("v")),
    ("mean", "avg", col("v")),
]


def test_sharded_fold_equals_single_pass():
    columns = ["g", "v"]
    rows = _rows()
    positions = {name: i for i, name in enumerate(columns)}
    device_aggs, layout, kinds = plan_device_aggs(AGGS)
    fold = kernels.fold(positions, [0], device_aggs, seeded=False)

    # Partition the rows three ways (one part empty), fold each part into
    # device-format states, merge, finalize...
    parts = [rows[0:2], rows[2:5], []]
    totals: dict = {}
    for part in parts:
        partial = fold({}, part)
        merge_agg_states(totals, partial, kinds)
    merged = finalize_agg_rel(totals, layout, device_aggs, ["g"], AGGS)

    # ...and the result must match the pure single-pass aggregation.
    single = aggregate_rows(Rel(columns, rows), ["g"], AGGS)
    assert merged.columns == single.columns
    assert rows_match(merged.rows, single.rows)
    assert rows_match(merged.rows, [
        ("a", 9.0, 3, 1.0, 5.0, 3.0),
        ("b", 30.0, 2, 10.0, 20.0, 15.0),
    ])


def test_merge_is_order_insensitive():
    columns = ["g", "v"]
    rows = _rows()
    positions = {name: i for i, name in enumerate(columns)}
    device_aggs, layout, kinds = plan_device_aggs(AGGS)
    fold = kernels.fold(positions, [0], device_aggs, seeded=False)
    partials = [fold({}, part)
                for part in (rows[0:1], rows[1:4], rows[4:5])]

    forward: dict = {}
    for partial in partials:
        merge_agg_states(forward, partial, kinds)
    backward: dict = {}
    for partial in reversed(partials):
        merge_agg_states(backward, partial, kinds)
    a = finalize_agg_rel(forward, layout, device_aggs, ["g"], AGGS)
    b = finalize_agg_rel(backward, layout, device_aggs, ["g"], AGGS)
    assert rows_match(a.rows, b.rows)


def test_empty_group_count_finalizes_to_zero():
    device_aggs, layout, kinds = plan_device_aggs([("c", "count", None)])
    totals = {("k",): [None]}  # a group seen by zero matching rows
    rel = finalize_agg_rel(totals, layout, device_aggs, ["g"],
                           [("c", "count", None)])
    assert rel.rows == [("k", 0)]
