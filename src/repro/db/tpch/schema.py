"""The eight TPC-H tables (standard columns), with PK/FK indexes.

Secondary indexes model the usual TPC-H physical design on MariaDB: primary
keys plus foreign-key indexes — these are what the Conv planner's
index-nested-loop joins probe.
"""

from __future__ import annotations

from repro.db.catalog import Column, TableSchema

__all__ = ["TPCH_SCHEMAS"]


def _cols(*pairs):
    return [Column(name, ctype) for name, ctype in pairs]


REGION = TableSchema(
    "region",
    _cols(("r_regionkey", "int"), ("r_name", "str"), ("r_comment", "str")),
    primary_key=("r_regionkey",),
)

NATION = TableSchema(
    "nation",
    _cols(
        ("n_nationkey", "int"), ("n_name", "str"),
        ("n_regionkey", "int"), ("n_comment", "str"),
    ),
    primary_key=("n_nationkey",),
    indexes=("n_regionkey",),
)

SUPPLIER = TableSchema(
    "supplier",
    _cols(
        ("s_suppkey", "int"), ("s_name", "str"), ("s_address", "str"),
        ("s_nationkey", "int"), ("s_phone", "str"), ("s_acctbal", "float"),
        ("s_comment", "str"),
    ),
    primary_key=("s_suppkey",),
    indexes=("s_nationkey",),
)

# Physical design note: the secondary indexes below follow the common TPC-H
# MariaDB setup — primary keys plus the FK indexes the workload actually
# probes (o_custkey, l_orderkey, l_partkey, nationkey columns).  l_suppkey
# and the partsupp FKs are left unindexed, as in the usual dbgen DDL.

CUSTOMER = TableSchema(
    "customer",
    _cols(
        ("c_custkey", "int"), ("c_name", "str"), ("c_address", "str"),
        ("c_nationkey", "int"), ("c_phone", "str"), ("c_acctbal", "float"),
        ("c_mktsegment", "str"), ("c_comment", "str"),
    ),
    primary_key=("c_custkey",),
    indexes=("c_nationkey",),
)

PART = TableSchema(
    "part",
    _cols(
        ("p_partkey", "int"), ("p_name", "str"), ("p_mfgr", "str"),
        ("p_brand", "str"), ("p_type", "str"), ("p_size", "int"),
        ("p_container", "str"), ("p_retailprice", "float"), ("p_comment", "str"),
    ),
    primary_key=("p_partkey",),
)

PARTSUPP = TableSchema(
    "partsupp",
    _cols(
        ("ps_partkey", "int"), ("ps_suppkey", "int"),
        ("ps_availqty", "int"), ("ps_supplycost", "float"), ("ps_comment", "str"),
    ),
)

ORDERS = TableSchema(
    "orders",
    _cols(
        ("o_orderkey", "int"), ("o_custkey", "int"), ("o_orderstatus", "str"),
        ("o_totalprice", "float"), ("o_orderdate", "date"),
        ("o_orderpriority", "str"), ("o_clerk", "str"),
        ("o_shippriority", "int"), ("o_comment", "str"),
    ),
    primary_key=("o_orderkey",),
    indexes=("o_custkey",),
)

LINEITEM = TableSchema(
    "lineitem",
    _cols(
        ("l_orderkey", "int"), ("l_partkey", "int"), ("l_suppkey", "int"),
        ("l_linenumber", "int"), ("l_quantity", "float"),
        ("l_extendedprice", "float"), ("l_discount", "float"), ("l_tax", "float"),
        ("l_returnflag", "str"), ("l_linestatus", "str"),
        ("l_shipdate", "date"), ("l_commitdate", "date"), ("l_receiptdate", "date"),
        ("l_shipinstruct", "str"), ("l_shipmode", "str"), ("l_comment", "str"),
    ),
    indexes=("l_orderkey", "l_partkey"),
)

TPCH_SCHEMAS = {
    schema.name: schema
    for schema in (REGION, NATION, SUPPLIER, CUSTOMER, PART, PARTSUPP, ORDERS, LINEITEM)
}
