"""EXPLAIN output and the MiniDB command line."""

import pytest

from repro.db.sql import run_explain

FIG8 = "SELECT l_orderkey FROM lineitem WHERE l_shipdate = '1995-01-17'"
Q14ISH = """
    SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue
    FROM lineitem JOIN part ON l_partkey = p_partkey
    WHERE l_shipdate BETWEEN '1995-09-01' AND '1995-09-30'
"""


def test_explain_conv_shows_seqscan(tpch_engines):
    conv, _ = tpch_engines
    plan = run_explain(conv, FIG8)
    assert "conv engine" in plan
    assert "SeqScan" in plan
    assert "NDPScan" not in plan


def test_explain_biscuit_shows_offload(tpch_engines):
    _, biscuit = tpch_engines
    plan = run_explain(biscuit, FIG8)
    assert "NDPScan" in plan
    assert "selectivity" in plan


def test_explain_join_orders_differ(tpch_engines):
    conv, biscuit = tpch_engines
    def steps(engine):  # the plan without the kernel source under each step
        return [line for line in run_explain(engine, Q14ISH).splitlines()
                if not line.startswith(" " * 8)]

    conv_plan, biscuit_plan = steps(conv), steps(biscuit)
    assert "part" in conv_plan[1]  # smallest table drives Conv
    assert "lineitem" in biscuit_plan[1]  # the NDP scan drives Biscuit
    assert "IndexProbe" in conv_plan[2]


def test_explain_rejection_reason(tpch_engines):
    _, biscuit = tpch_engines
    plan = run_explain(
        biscuit, "SELECT o_orderkey FROM orders WHERE o_totalprice > 1000"
    )
    assert "no offload" in plan


def test_explain_aggregate_and_order(tpch_engines):
    conv, _ = tpch_engines
    plan = run_explain(conv, """
        SELECT l_shipmode, COUNT(*) AS n FROM lineitem
        GROUP BY l_shipmode ORDER BY n DESC LIMIT 3
    """)
    assert "aggregate by [l_shipmode]" in plan
    assert "order by n DESC limit 3" in plan


# --------------------------------------------------------------------- CLI
def run_cli(args, capsys):
    from repro.db.__main__ import main

    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def test_cli_sql(capsys):
    code, out = run_cli(
        ["SELECT COUNT(*) AS n FROM region", "--sf", "0.002", "--mode", "conv"],
        capsys,
    )
    assert code == 0
    assert "conv engine" in out
    assert "1 rows" in out


def test_cli_explain(capsys):
    code, out = run_cli(
        [FIG8, "--sf", "0.002", "--mode", "biscuit", "--explain"], capsys
    )
    assert code == 0
    assert "plan (biscuit engine)" in out


def test_cli_tpch_query(capsys):
    code, out = run_cli(["--tpch", "6", "--sf", "0.002", "--mode", "both"], capsys)
    assert code == 0
    assert "speed-up" in out


def test_cli_renders_dates(capsys):
    code, out = run_cli(
        ["SELECT o_orderdate FROM orders LIMIT 1", "--sf", "0.002",
         "--mode", "conv"],
        capsys,
    )
    assert code == 0
    assert "19" in out and "-" in out  # a rendered YYYY-MM-DD date


def test_cli_argument_validation():
    from repro.db.__main__ import main

    with pytest.raises(SystemExit):
        main([])  # neither SQL nor --tpch
    with pytest.raises(SystemExit):
        main(["SELECT 1 FROM x", "--tpch", "3"])  # both
    with pytest.raises(SystemExit):
        main(["--tpch", "99"])
