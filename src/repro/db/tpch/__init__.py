"""TPC-H: schema, dbgen-style data generation, and all 22 queries."""

from repro.db.tpch.schema import TPCH_SCHEMAS
from repro.db.tpch.datagen import generate_tables, load_tpch

__all__ = ["TPCH_SCHEMAS", "generate_tables", "load_tpch"]
