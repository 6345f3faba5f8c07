#!/usr/bin/env python3
"""TPC-H with NDP offload: the modified-MariaDB experience of Section V-C.

Loads TPC-H at a small scale factor and runs a handful of queries under
both engines — Conv (everything on the host) and Biscuit (the planner
samples selectivity, offloads eligible filters to ScanFilter SSDlets, and
puts the NDP table first in the join order).  Results must match exactly;
times differ the way Fig. 10 says they should.

Run:  python examples/tpch_ndp_demo.py
"""

from repro.db.executor import ExecutionMode
from repro.db.planner import create_engine
from repro.db.tpch.datagen import load_tpch
from repro.db.tpch.queries import ALL_QUERIES, run_query
from repro.host.platform import System
from repro.testing.differential import rows_match

SF = 0.005
QUERIES = (1, 6, 12, 14)


def main():
    system = System()
    print("generating TPC-H at SF=%g ..." % SF)
    db = load_tpch(system.fs, SF)
    conv = create_engine(system, db, ExecutionMode.CONV)
    biscuit = create_engine(system, db, ExecutionMode.BISCUIT)

    print("\n%4s  %-32s %10s %10s %9s  %s" %
          ("", "query", "Conv (s)", "Biscuit(s)", "speed-up", "planner decision"))
    for number in QUERIES:
        title = ALL_QUERIES[number].title
        rel_c, conv_s = run_query(conv, number)
        rel_b, biscuit_s = run_query(biscuit, number)
        assert rows_match(rel_c.rows, rel_b.rows), "Q%d results differ!" % number
        decision = "offloaded x%d" % biscuit.ndp_scans if biscuit.ndp_scans else next(
            ("%s: %s" % (step.ref.name, step.decision.reason)
             for step in biscuit.plan if step.decision),
            "no NDP candidate")
        print("Q%-3d  %-32s %10.3f %10.3f %8.1fx  %s" %
              (number, title, conv_s, biscuit_s, conv_s / biscuit_s, decision))
    print("\nOK — every query returned identical rows under both engines.")


if __name__ == "__main__":
    main()
