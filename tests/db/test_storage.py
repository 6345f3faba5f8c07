"""Row/page codecs, heap files, indexes."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.catalog import Catalog, Column, TableSchema, d, date_to_int, int_to_date
from repro.db.storage import Database, decode_rows, encode_row, pack_pages
from repro.db.tpch.datagen import generate_tables
from repro.db.tpch.schema import TPCH_SCHEMAS
from repro.host.platform import System

SCHEMA = TableSchema(
    "things",
    [Column("id", "int"), Column("name", "str"), Column("price", "float"),
     Column("when", "date")],
    primary_key=("id",),
)


# ----------------------------------------------------------------- catalog
def test_column_type_validated():
    with pytest.raises(ValueError):
        Column("x", "varchar")


def test_duplicate_column_rejected():
    with pytest.raises(ValueError):
        TableSchema("t", [Column("a", "int"), Column("a", "str")])


def test_unknown_key_column_rejected():
    with pytest.raises(ValueError):
        TableSchema("t", [Column("a", "int")], primary_key=("b",))


def test_positions():
    assert SCHEMA.position("price") == 2
    with pytest.raises(KeyError):
        SCHEMA.position("nope")


def test_catalog_add_get():
    catalog = Catalog()
    catalog.add(SCHEMA)
    assert catalog.get("things") is SCHEMA
    assert "things" in catalog
    with pytest.raises(ValueError):
        catalog.add(SCHEMA)
    with pytest.raises(KeyError):
        catalog.get("other")


def test_date_conversion_roundtrip():
    assert int_to_date(date_to_int("1995-09-01")) == "1995-09-01"
    assert d("1970-01-01") == 0
    assert d("1970-01-02") == 1


# ------------------------------------------------------------------- codec
def test_row_roundtrip():
    row = (7, "wídget", 3.25, d("1994-06-01"))
    page = (len(row) and b"\x01\x00") + encode_row(SCHEMA, row)
    decoded = decode_rows(SCHEMA, page)
    assert decoded == [row]


def test_wrong_width_rejected():
    with pytest.raises(ValueError):
        encode_row(SCHEMA, (1, "x", 2.0))


def test_pack_pages_respects_page_size():
    rows = [(i, "name-%d" % i, float(i), i) for i in range(500)]
    blob, counts = pack_pages(SCHEMA, rows, 4096)
    assert len(blob) % 4096 == 0
    assert sum(counts) == 500
    assert all(count > 0 for count in counts)


def test_row_larger_than_page_rejected():
    big = (1, "x" * 5000, 1.0, 0)
    with pytest.raises(ValueError):
        pack_pages(SCHEMA, [big], 4096)


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(-2**60, 2**60),
        st.text(max_size=50),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(0, 40000),
    ),
    max_size=30,
))
def test_property_pages_roundtrip(rows):
    blob, counts = pack_pages(SCHEMA, rows, 4096)
    out = []
    for page_no in range(len(counts)):
        out.extend(decode_rows(SCHEMA, blob[page_no * 4096:(page_no + 1) * 4096]))
    assert out == rows


# ------------------------------------------- the generated per-schema codec
def reference_encode_row(schema, row):
    """The row format, one column at a time (what the generated encoder
    must reproduce byte for byte)."""
    parts = []
    for column, value in zip(schema.columns, row):
        if column.ctype in ("int", "date"):
            parts.append(struct.pack("<q", int(value)))
        elif column.ctype == "float":
            parts.append(struct.pack("<d", float(value)))
        else:
            blob = str(value).encode("utf-8")
            parts.append(struct.pack("<H", len(blob)) + blob)
    return b"".join(parts)


def reference_pack_pages(schema, rows, page_size):
    pages, current, used = [], [], 2
    for row in rows:
        encoded = reference_encode_row(schema, row)
        if used + len(encoded) > page_size:
            pages.append((struct.pack("<H", len(current))
                          + b"".join(current)).ljust(page_size, b"\x00"))
            current, used = [], 2
        current.append(encoded)
        used += len(encoded)
    if current:
        pages.append((struct.pack("<H", len(current))
                      + b"".join(current)).ljust(page_size, b"\x00"))
    return b"".join(pages)


def decode_blob(schema, blob, page_size):
    return [row for offset in range(0, len(blob), page_size)
            for row in decode_rows(schema, blob[offset:offset + page_size])]


def test_tpch_pages_are_byte_identical_to_the_per_column_codec_and_round_trip():
    tables = generate_tables(0.0015)
    assert sorted(tables) == sorted(TPCH_SCHEMAS) and len(tables) == 8
    for name, rows in tables.items():
        schema = TPCH_SCHEMAS[name]
        blob, counts = pack_pages(schema, rows, 4096)
        assert blob == reference_pack_pages(schema, rows, 4096), name
        assert sum(counts) == len(rows)
        assert decode_blob(schema, blob, 4096) == [tuple(row) for row in rows], name


@pytest.mark.parametrize("ctypes, rows", [
    (("str", "str", "str"), [("", "a", "déjà vu ✓"), ("x" * 300, "", "")]),
    (("int", "float", "date", "int"), [(-2**63, -0.0, 0, 2**63 - 1), (1, 1e300, 9374, 0)]),
    (("str", "int", "str"), [("y" * 0xFFFF, 7, "z" * 0xFFFF)]),
    (("float", "str", "int", "str", "date"), [(2.5, "ü" * 100, 3, "", 11)]),
    (("int",), []),
])
def test_codec_round_trips_every_column_layout(ctypes, rows):
    schema = TableSchema("t", [Column("c%d" % i, ctype) for i, ctype in enumerate(ctypes)])
    page_size = 1 << 18
    blob, counts = pack_pages(schema, rows, page_size)
    assert blob == reference_pack_pages(schema, rows, page_size)
    assert decode_blob(schema, blob, page_size) == rows
    assert counts == ([len(rows)] if rows else [])


def test_short_and_empty_pages_decode_to_no_rows():
    assert decode_rows(SCHEMA, b"") == []
    assert decode_rows(SCHEMA, b"\x07") == []  # shorter than the row count
    assert decode_rows(SCHEMA, b"\x00" * 4096) == []  # a zeroed page holds 0 rows


def test_encoder_rejects_what_the_format_cannot_hold():
    with pytest.raises(ValueError, match="things row has 3 values, schema has 4"):
        encode_row(SCHEMA, (1, "x", 2.0))
    with pytest.raises(ValueError, match="string too long for row format"):
        encode_row(SCHEMA, (1, "x" * 0x10000, 2.0, 0))
    # Values are stored as the column's type, whatever was passed in.
    assert encode_row(SCHEMA, ("7", 12, 3, 4.0)) == reference_encode_row(
        SCHEMA, (7, "12", 3.0, 4))


# ---------------------------------------------------------------- database
def make_db():
    system = System()
    db = Database(system.fs)
    rows = [(i, "item-%d" % i, i * 1.5, 1000 + i % 7) for i in range(200)]
    storage = db.load_table(SCHEMA, rows)
    return system, db, storage, rows


def test_load_table_and_read_back():
    system, db, storage, rows = make_db()
    assert storage.num_rows == 200
    out = []
    for page_no in range(storage.num_pages):
        out.extend(db.read_page_rows(storage, page_no))
    assert out == rows


def test_primary_index_built():
    _, db, storage, rows = make_db()
    assert storage.has_index("id")
    pages = storage.index_pages("id", 150)
    assert len(pages) == 1
    found = [r for r in db.read_page_rows(storage, pages[0]) if r[0] == 150]
    assert found == [rows[150]]


def test_index_missing_key_empty():
    _, _, storage, _ = make_db()
    assert storage.index_pages("id", 99999) == []


def test_index_pages_per_key():
    _, _, storage, _ = make_db()
    assert storage.index_pages_per_key("id") == 1.0


def test_reload_replaces_table():
    system, db, storage, _ = make_db()
    # Loading again must replace, not duplicate, the heap file.
    schema2 = TableSchema("things2", SCHEMA.columns, primary_key=("id",))
    db.load_table(schema2, [(1, "a", 1.0, 0)])
    assert db.table("things2").num_rows == 1


def test_unknown_table():
    _, db, _, _ = make_db()
    with pytest.raises(KeyError):
        db.table("ghosts")
