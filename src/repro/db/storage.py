"""Row/page codecs and heap table files on the device filesystem.

Row format (little-endian): per column by type —
``int``/``date`` → 8-byte signed; ``float`` → 8-byte double; ``str`` →
2-byte length + UTF-8 bytes.  Page format: 2-byte row count, then rows
back-to-back.  Rows never span pages (XtraDB-style slotted simplicity).

Indexes are in-memory maps from key value to the list of page numbers
holding matching rows — modeling a warm B-tree whose leaf lookups are
RAM-resident while the *data* page fetches pay real I/O (the dominant cost
in the paper's join analysis).

Loading is two steps: :func:`pack_table` turns rows into a page blob plus
the declared indexes in one pass (no page is decoded to index it), and
:meth:`Database.install_table` puts a packed table under a storage name —
so a shard replicated on several nodes is packed once and installed on each.
"""

from __future__ import annotations

import struct
from itertools import islice
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.db.catalog import Catalog, TableSchema
from repro.fs.filesystem import FileSystem, Inode

__all__ = ["encode_row", "decode_rows", "pack_pages", "pack_table",
           "PackedTable", "TableStorage", "Database"]

_PAGE_HEADER = struct.Struct("<H")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_LEN = struct.Struct("<H")
#: What the row codec turns a column's value into, by column type: an index
#: keyed on these is keyed exactly as one rebuilt from decoded pages.
_KEY_TYPES = {"int": int, "date": int, "float": float, "str": str}


def encode_row(schema: TableSchema, row: Sequence[Any]) -> bytes:
    """Serialize one row tuple per the schema."""
    if len(row) != schema.width:
        raise ValueError(
            "%s row has %d values, schema has %d" % (schema.name, len(row), schema.width)
        )
    parts: List[bytes] = []
    for column, value in zip(schema.columns, row):
        if column.ctype in ("int", "date"):
            parts.append(_I64.pack(int(value)))
        elif column.ctype == "float":
            parts.append(_F64.pack(float(value)))
        else:
            blob = str(value).encode("utf-8")
            if len(blob) > 0xFFFF:
                raise ValueError("string too long for row format")
            parts.append(_LEN.pack(len(blob)) + blob)
    return b"".join(parts)


def decode_rows(schema: TableSchema, page: bytes) -> List[Tuple[Any, ...]]:
    """Deserialize every row in a page."""
    if len(page) < _PAGE_HEADER.size:
        return []
    (count,) = _PAGE_HEADER.unpack_from(page, 0)
    offset = _PAGE_HEADER.size
    rows: List[Tuple[Any, ...]] = []
    for _ in range(count):
        values: List[Any] = []
        for column in schema.columns:
            if column.ctype in ("int", "date"):
                (value,) = _I64.unpack_from(page, offset)
                offset += _I64.size
            elif column.ctype == "float":
                (value,) = _F64.unpack_from(page, offset)
                offset += _F64.size
            else:
                (length,) = _LEN.unpack_from(page, offset)
                offset += _LEN.size
                value = page[offset:offset + length].decode("utf-8")
                offset += length
            values.append(value)
        rows.append(tuple(values))
    return rows


def pack_pages(
    schema: TableSchema, rows: Iterable[Sequence[Any]], page_size: int
) -> Tuple[bytes, List[int]]:
    """Pack rows into pages; returns (blob, rows_per_page list)."""
    pages: List[bytes] = []
    current: List[bytes] = []
    used = _PAGE_HEADER.size
    counts: List[int] = []

    def flush():
        if not current:
            return
        body = b"".join(current)
        page = _PAGE_HEADER.pack(len(current)) + body
        pages.append(page.ljust(page_size, b"\x00"))
        counts.append(len(current))

    for row in rows:
        encoded = encode_row(schema, row)
        if len(encoded) + _PAGE_HEADER.size > page_size:
            raise ValueError("row larger than a page")
        if used + len(encoded) > page_size:
            flush()
            current = []
            used = _PAGE_HEADER.size
        current.append(encoded)
        used += len(encoded)
    flush()
    return b"".join(pages), counts


class PackedTable(NamedTuple):
    """A table's rows as pages plus its indexes, not yet on any device."""

    schema: TableSchema
    blob: bytes
    num_rows: int
    page_size: int
    #: column name -> {key value: sorted list of page numbers}; read-only, so
    #: every storage installed from this packing shares the same dicts.
    indexes: Dict[str, Dict[Any, List[int]]]


def _index_rows(schema: TableSchema, rows: Iterable[Sequence[Any]],
                counts: Sequence[int], column: str) -> Dict[Any, List[int]]:
    """``column``'s index from the rows and :func:`pack_pages`' rows per page."""
    position = schema.position(column)
    as_stored = _KEY_TYPES[schema.columns[position].ctype]
    index: Dict[Any, List[int]] = {}
    remaining = iter(rows)
    for page_no, count in enumerate(counts):
        for row in islice(remaining, count):
            pages = index.setdefault(as_stored(row[position]), [])
            if not pages or pages[-1] != page_no:
                pages.append(page_no)
    return index


def pack_table(schema: TableSchema, rows: Sequence[Sequence[Any]],
               page_size: int) -> PackedTable:
    """Pack rows into pages and build every declared index from the same rows."""
    blob, counts = pack_pages(schema, rows, page_size)
    indexes = {
        column: _index_rows(schema, rows, counts, column)
        for column in tuple(schema.primary_key) + tuple(schema.indexes)
    }
    return PackedTable(schema, blob, len(rows), page_size, indexes)


class TableStorage:
    """One table's heap file plus its indexes."""

    def __init__(self, schema: TableSchema, inode: Inode, num_rows: int,
                 page_size: int, indexes: Dict[str, Dict[Any, List[int]]]):
        self.schema = schema
        self.inode = inode
        self.num_rows = num_rows
        self.page_size = page_size
        # column name -> {key value: sorted list of page numbers}
        self.indexes = indexes

    @property
    def num_pages(self) -> int:
        return self.inode.num_pages

    @property
    def path(self) -> str:
        return self.inode.path

    def index_pages(self, column: str, key: Any) -> List[int]:
        """Data pages containing rows with ``column == key`` (warm B-tree)."""
        return self.indexes[column].get(key, [])

    def has_index(self, column: str) -> bool:
        return column in self.indexes

    def index_pages_per_key(self, column: str) -> float:
        """Mean data pages per key (the optimizer's probe-cost statistic)."""
        index = self.indexes[column]
        if not index:
            return 1.0
        return sum(len(pages) for pages in index.values()) / len(index)


class Database:
    """A catalog plus the storage of every loaded table."""

    def __init__(self, fs: FileSystem, catalog: Optional[Catalog] = None, prefix: str = "/db"):
        self.fs = fs
        self.catalog = catalog or Catalog()
        self.prefix = prefix
        self.tables: Dict[str, TableStorage] = {}

    def load_table(
        self, schema: TableSchema, rows: Sequence[Sequence[Any]],
        name: Optional[str] = None,
    ) -> TableStorage:
        """Pack a table's rows and install them (see :meth:`install_table`)."""
        return self.install_table(
            pack_table(schema, rows, self.fs.page_size), name)

    def install_table(self, packed: PackedTable,
                      name: Optional[str] = None) -> TableStorage:
        """Install a packed table as a heap file with its indexes.

        ``name`` overrides the *storage* name — the ``tables`` key and the
        heap-file path — while the schema keeps its logical name.  This is
        how one database holds several shard copies of the same logical
        table (``lineitem#s3``): each copy gets its own heap file, and the
        shared schema stays registered once.
        """
        schema = packed.schema
        if packed.page_size != self.fs.page_size:
            raise ValueError("%s packed for %d-byte pages, filesystem has %d"
                             % (schema.name, packed.page_size, self.fs.page_size))
        if schema.name not in self.catalog:
            self.catalog.add(schema)
        storage_name = name or schema.name
        path = "%s/%s.tbl" % (self.prefix, storage_name)
        if self.fs.exists(path):
            self.fs.delete(path)
        inode = self.fs.install(path, packed.blob)
        storage = TableStorage(schema, inode, packed.num_rows,
                               packed.page_size, packed.indexes)
        self.tables[storage_name] = storage
        return storage

    def alias_table(self, name: str, storage: TableStorage) -> None:
        """Register an existing storage under an extra name (catalog only).

        Used by the cluster layer so a logical table name binds during SQL
        compilation on nodes that store only shard copies; the alias is
        never scanned directly."""
        self.tables[name] = storage

    def table(self, name: str) -> TableStorage:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError("table %r is not loaded" % name) from None

    def read_page_rows(self, storage: TableStorage, page_no: int) -> List[Tuple[Any, ...]]:
        """Decode a page's rows from the content store (no timing)."""
        data = self.fs.page_content(storage.inode, page_no)
        return decode_rows(storage.schema, data)
