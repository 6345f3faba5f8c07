"""Coordinator merge operators: ordered gather (``sort_rows``) + aggregate-
state fold (``AggPlan``)."""

import random
from typing import List, Optional, Tuple

from repro.db.executor import AggPlan, Rel, sort_rows
from repro.db.expr import col
from repro.testing.differential import rows_match


def _merge(row_lists, key_plan, limit):
    """The coordinator's ordered gather: runs end to end in shard order,
    stable-sorted."""
    return sort_rows([row for rows in row_lists for row in rows],
                     key_plan, limit)


# The hand-written k-way merge ``sort_rows`` replaced, kept verbatim as the
# reference the sweep below compares against.
def _row_less(a: tuple, b: tuple, key_plan: List[Tuple[int, bool]]) -> bool:
    """Strict ordering of two rows under (position, descending) sort keys."""
    for position, descending in key_plan:
        av, bv = a[position], b[position]
        if av == bv:
            continue
        if descending:
            return av > bv
        return av < bv
    return False


def _ordered_merge(row_lists: List[list], key_plan: List[Tuple[int, bool]],
                   limit: Optional[int]) -> list:
    """Deterministic k-way merge of per-shard pre-sorted runs; ties break
    toward the lowest shard index."""
    cursors = [0] * len(row_lists)
    out: list = []
    while True:
        best = -1
        for i, rows in enumerate(row_lists):
            if cursors[i] >= len(rows):
                continue
            if best < 0 or _row_less(
                    rows[cursors[i]],
                    row_lists[best][cursors[best]], key_plan):
                best = i
        if best < 0:
            break
        out.append(row_lists[best][cursors[best]])
        cursors[best] += 1
        if limit is not None and len(out) >= limit:
            break
    return out


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


def test_sort_rows_equals_the_kway_merge_over_a_seeded_sweep():
    rng = random.Random(2016)
    for _ in range(2000):
        key_plan = [(position, rng.random() < 0.5)
                    for position in rng.sample(range(3), rng.randint(1, 3))]
        runs = []
        for shard in range(rng.randint(0, 5)):
            # Few distinct key values, so ties are the common case; the
            # last column tags the row with where it came from.
            run = [(rng.randint(0, 3), rng.randint(0, 2), rng.randint(0, 1),
                    (shard, i)) for i in range(rng.randint(0, 6))]
            runs.append(sort_rows(run, key_plan))
        for limit in (None, 1, 3, 7):
            runs_cut = [run[:limit] for run in runs]  # shards top-k locally
            assert _merge(runs_cut, key_plan, limit) == _ordered_merge(
                runs_cut, key_plan, limit)


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
    plan = AggPlan(["g"], AGGS)
    fold = plan.fold({name: i for i, name in enumerate(columns)})

    # Partition the rows three ways (one part empty), fold each part into
    # states, merge, finalize...
    parts = [rows[0:2], rows[2:5], []]
    totals: dict = {}
    for part in parts:
        plan.merge(totals, fold({}, part))
    merged = plan.finalize(totals)

    # ...and the result must match the pure single-pass aggregation.
    single = plan.run(Rel(columns, rows))
    assert merged.columns == single.columns
    assert rows_match(merged.rows, single.rows)
    assert rows_match(merged.rows, [
        ("a", 9.0, 3, 1.0, 5.0, 3.0),
        ("b", 30.0, 2, 10.0, 20.0, 15.0),
    ])


def test_merge_is_order_insensitive():
    rows = _rows()
    plan = AggPlan(["g"], AGGS)
    fold = plan.fold({"g": 0, "v": 1})
    partials = [fold({}, part)
                for part in (rows[0:1], rows[1:4], rows[4:5])]

    forward: dict = {}
    for partial in partials:
        plan.merge(forward, partial)
    backward: dict = {}
    for partial in reversed(partials):
        plan.merge(backward, partial)
    assert rows_match(plan.finalize(forward).rows,
                      plan.finalize(backward).rows)


def test_empty_group_count_finalizes_to_zero():
    plan = AggPlan(["g"], [("c", "count", None)])
    totals = {("k",): [None]}  # a group seen by zero matching rows
    assert plan.finalize(totals).rows == [("k", 0)]
