"""TPC-H data generator: cardinalities, domains, distributions, determinism."""

import hashlib

import pytest

from repro.db.catalog import d
from repro.db.tpch.datagen import TPCH_NATIONS, generate_tables
from repro.db.tpch.schema import TPCH_SCHEMAS
from tests.conftest import TINY_SF


def test_table_set(tpch_data):
    assert set(tpch_data) == set(TPCH_SCHEMAS)


def test_row_counts_scale(tpch_data):
    assert len(tpch_data["region"]) == 5
    assert len(tpch_data["nation"]) == 25
    assert len(tpch_data["supplier"]) == round(10_000 * TINY_SF)
    assert len(tpch_data["customer"]) == round(150_000 * TINY_SF)
    assert len(tpch_data["part"]) == round(200_000 * TINY_SF)
    assert len(tpch_data["partsupp"]) == 4 * len(tpch_data["part"])
    assert len(tpch_data["orders"]) == round(1_500_000 * TINY_SF)
    # dbgen: 1-7 lineitems per order, averaging ~4.
    ratio = len(tpch_data["lineitem"]) / len(tpch_data["orders"])
    assert 3.0 < ratio < 5.0


def test_rows_match_schema_width(tpch_data):
    for name, rows in tpch_data.items():
        width = TPCH_SCHEMAS[name].width
        assert all(len(row) == width for row in rows), name


def test_nation_region_hierarchy(tpch_data):
    assert [(row[1], row[2]) for row in tpch_data["nation"]] == TPCH_NATIONS


def test_keys_are_dense_and_unique(tpch_data):
    orders = tpch_data["orders"]
    keys = [row[0] for row in orders]
    assert keys == list(range(1, len(orders) + 1))


def test_foreign_keys_valid(tpch_data):
    num_customer = len(tpch_data["customer"])
    num_part = len(tpch_data["part"])
    num_supplier = len(tpch_data["supplier"])
    num_orders = len(tpch_data["orders"])
    assert all(1 <= row[1] <= num_customer for row in tpch_data["orders"])
    for row in tpch_data["lineitem"]:
        assert 1 <= row[0] <= num_orders
        assert 1 <= row[1] <= num_part
        assert 1 <= row[2] <= num_supplier


def test_lineitem_date_arithmetic(tpch_data):
    order_dates = {row[0]: row[4] for row in tpch_data["orders"]}
    for row in tpch_data["lineitem"][:500]:
        order_date = order_dates[row[0]]
        ship, commit, receipt = row[10], row[11], row[12]
        assert order_date < ship <= order_date + 121
        assert order_date + 30 <= commit <= order_date + 90
        assert ship < receipt <= ship + 30


def test_return_flags_consistent_with_dates(tpch_data):
    cutoff = d("1995-06-17")
    for row in tpch_data["lineitem"][:500]:
        if row[12] <= cutoff:
            assert row[8] in ("R", "A")
        else:
            assert row[8] == "N"
        assert row[9] == ("F" if row[10] <= cutoff else "O")


def test_order_dates_clustered_by_key(tpch_data):
    """Order keys are roughly chronological (DESIGN.md layout liberty)."""
    orders = tpch_data["orders"]
    n = len(orders)
    early = [row[4] for row in orders[: n // 4]]
    late = [row[4] for row in orders[-n // 4:]]
    assert max(early) < min(late) + 60  # quarters barely overlap
    assert sum(early) / len(early) < sum(late) / len(late)


def test_date_domain(tpch_data):
    lo, hi = d("1992-01-01"), d("1998-08-02")
    assert all(lo <= row[4] <= hi for row in tpch_data["orders"])


def test_comment_keywords_present(tpch_data):
    """Q13's filter needs 'special requests' in some order comments."""
    assert any("special requests" in row[8] for row in tpch_data["orders"])


def test_part_vocabulary(tpch_data):
    for row in tpch_data["part"][:200]:
        assert row[3].startswith("Brand#")
        assert len(row[4].split()) == 3  # TYPE syllables
        assert 1 <= row[5] <= 50


def test_deterministic_by_seed():
    first = generate_tables(0.001, seed=42)
    second = generate_tables(0.001, seed=42)
    assert first == second
    different = generate_tables(0.001, seed=43)
    assert different["lineitem"] != first["lineitem"]


# The generated tables are a function of the generator's call sequence into
# ``random.Random``.  These digests were taken from the generator before it
# replayed the stdlib's ``randint``/``choice``/``uniform`` in line, so any
# change to the draw order, the ``getrandbits`` widths or a value's formatting
# shows here: every page, golden and simulated number downstream follows it.
@pytest.mark.parametrize("scale_factor, seed, digest", [
    (0.002, 20160618, "fb23624ecf3134db"),  # the tier-1 fixture
    (0.0015, 2016, "3924c83b515ae64c"),     # the e2e tpch_sql workload
    (0.01, 2016, "c7d07f226df5a987"),       # the e2e fleet_sql workload
    (0.0001, 3, "98b19971c1af6080"),        # every max(...) floor applies
])
def test_generated_tables_are_pinned(scale_factor, seed, digest):
    data = generate_tables(scale_factor, seed)
    assert hashlib.sha256(repr(data).encode()).hexdigest()[:16] == digest


def test_scale_factor_positive():
    with pytest.raises(ValueError):
        generate_tables(0)
