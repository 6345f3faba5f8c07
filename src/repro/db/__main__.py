"""MiniDB command line: run SQL or TPC-H queries on the simulated platform.

Examples::

    python -m repro.db "SELECT COUNT(*) AS n FROM orders" --sf 0.01
    python -m repro.db "SELECT ... " --mode both --explain
    python -m repro.db --tpch 14 --mode both --explain
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.db.executor import ExecutionMode
from repro.db.planner import create_engine
from repro.db.sql import compile_sql, render_plan, run_sql
from repro.db.tpch.datagen import load_tpch
from repro.db.tpch.queries import ALL_QUERIES, run_query
from repro.host.platform import System


def _print_rel(rel, max_rows: int = 20) -> None:
    from repro.bench.harness import format_table
    from repro.db.catalog import int_to_date

    date_cols = [i for i, name in enumerate(rel.columns) if name.endswith("date")]
    rows = [
        tuple(
            int_to_date(value) if i in date_cols and isinstance(value, int) else value
            for i, value in enumerate(row)
        )
        for row in rel.rows[:max_rows]
    ]
    print(format_table(rel.columns, rows))
    if len(rel.rows) > max_rows:
        print("... (%d more rows)" % (len(rel.rows) - max_rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.db",
        description="Run SQL or TPC-H queries on the simulated Biscuit platform.",
    )
    parser.add_argument("sql", nargs="?", help="a SELECT statement")
    parser.add_argument("--tpch", type=int, metavar="N",
                        help="run TPC-H query N (1..22) instead of SQL")
    parser.add_argument("--sf", type=float, default=0.005,
                        help="TPC-H scale factor (default 0.005)")
    parser.add_argument("--mode", choices=("conv", "biscuit", "both"),
                        default="both")
    parser.add_argument("--explain", action="store_true",
                        help="show the plan each engine ran (access paths, "
                             "offload decisions, join methods, kernels) "
                             "instead of rows")
    parser.add_argument("--max-rows", type=int, default=20)
    args = parser.parse_args(argv)

    if (args.sql is None) == (args.tpch is None):
        parser.error("provide a SQL statement or --tpch N (exactly one)")
    if args.tpch is not None and args.tpch not in ALL_QUERIES:
        parser.error("--tpch must be 1..22")

    print("loading TPC-H at SF=%g ..." % args.sf, file=sys.stderr)
    started = time.time()  # repro: noqa RPR001 -- CLI wall-clock progress, never simulated time
    system = System()
    db = load_tpch(system.fs, args.sf)
    print("loaded in %.1fs" % (time.time() - started), file=sys.stderr)  # repro: noqa RPR001 -- CLI wall-clock progress

    modes = {
        "conv": [ExecutionMode.CONV],
        "biscuit": [ExecutionMode.BISCUIT],
        "both": [ExecutionMode.CONV, ExecutionMode.BISCUIT],
    }[args.mode]

    timings = {}
    for mode in modes:
        engine = create_engine(system, db, mode)
        print("\n-- %s engine --" % mode.value)
        if args.tpch is not None:
            rel, elapsed = run_query(engine, args.tpch)
            print("TPC-H Q%d: %s" % (args.tpch, ALL_QUERIES[args.tpch].title))
            compiled, title = None, "TPC-H Q%d" % args.tpch
        else:
            rel, elapsed = run_sql(engine, args.sql)
            compiled, title = compile_sql(engine, args.sql), "SELECT"
        if args.explain:
            print(render_plan(engine, compiled, title))
        else:
            _print_rel(rel, args.max_rows)
        extra = ""
        if mode is ExecutionMode.BISCUIT and engine.ndp_scans:
            extra = "  [%d NDP scan(s)]" % engine.ndp_scans
        print("%d rows in %.4f simulated seconds%s" % (len(rel), elapsed, extra))
        timings[mode.value] = elapsed
    if len(timings) == 2:
        print("\nspeed-up (conv/biscuit): %.1fx"
              % (timings["conv"] / timings["biscuit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
