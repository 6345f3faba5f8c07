"""Row/page codecs and heap table files on the device filesystem.

Row format (little-endian): per column by type —
``int``/``date`` → 8-byte signed; ``float`` → 8-byte double; ``str`` →
2-byte length + UTF-8 bytes.  Page format: 2-byte row count, then rows
back-to-back.  Rows never span pages (XtraDB-style slotted simplicity).

The codec is generated per :class:`TableSchema` (compile per schema, run per
page, like the operators' kernels in :mod:`repro.db.kernels`): each run of
adjacent fixed-width columns, together with the length prefix of the string
that follows it, is read or written by one ``struct`` call.

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
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.db import kernels
from repro.db.catalog import Catalog, TableSchema
from repro.fs.filesystem import FileSystem, Inode

__all__ = ["encode_row", "decode_rows", "pack_pages", "pack_table",
           "KEY_TYPES", "PackedTable", "TableStorage", "Database"]

_PAGE_HEADER = struct.Struct("<H")
#: What the row codec turns a column's value into, by column type: an index
#: keyed on these is keyed exactly as one rebuilt from decoded pages.
KEY_TYPES = {"int": int, "date": int, "float": float, "str": str}


def _segments(schema: TableSchema) -> List[Tuple[List[int], Optional[int], struct.Struct]]:
    """The row as ``(fixed-width column positions, the string column closing
    the run or None, their struct)`` — the string's length prefix rides in
    the struct of the run before it."""
    segments = []
    run: List[int] = []
    for position, column in enumerate(schema.columns):
        if column.ctype != "str":
            run.append(position)
            if position + 1 < schema.width:
                continue
        layout = "<" + "".join(
            "d" if schema.columns[i].ctype == "float" else "q" for i in run)
        if column.ctype == "str":
            segments.append((run, position, struct.Struct(layout + "H")))
        else:
            segments.append((run, None, struct.Struct(layout)))
        run = []
    return segments


def _encoder(schema: TableSchema) -> Callable[[Sequence[Any]], bytes]:
    """Generate ``encode(row) -> bytes`` for one schema."""
    env: Dict[str, Any] = {"name": schema.name}
    lines = [
        "def kernel(row):",
        "    if len(row) != %d:" % schema.width,
        "        raise ValueError('%%s row has %%d values, schema has %d'"
        " %% (name, len(row)))" % schema.width,
    ]
    parts = []
    for number, (run, text, layout) in enumerate(_segments(schema)):
        env["p%d" % number] = layout.pack
        args = ["%s(row[%d])" % (KEY_TYPES[schema.columns[i].ctype].__name__, i)
                for i in run]
        if text is not None:
            lines += [
                "    b%d = str(row[%d]).encode('utf-8')" % (text, text),
                "    if len(b%d) > 0xFFFF:" % text,
                "        raise ValueError('string too long for row format')",
            ]
            args.append("len(b%d)" % text)
        parts.append("p%d(%s)" % (number, ", ".join(args)))
        if text is not None:
            parts.append("b%d" % text)
    lines.append("    return b''.join((%s))" % "".join(part + ", " for part in parts))
    return kernels.build("\n".join(lines), env)


def _decoder(schema: TableSchema) -> Callable[[bytes], List[Tuple[Any, ...]]]:
    """Generate ``decode(page) -> rows`` for one schema."""
    env: Dict[str, Any] = {"head": _PAGE_HEADER.unpack_from}
    lines = [
        "def kernel(page):",
        "    if len(page) < %d:" % _PAGE_HEADER.size,
        "        return []",
        "    count, = head(page, 0)",
        "    o = %d" % _PAGE_HEADER.size,
        "    rows = []",
        "    add = rows.append",
        "    for _ in range(count):",
    ]
    for number, (run, text, layout) in enumerate(_segments(schema)):
        env["u%d" % number] = layout.unpack_from
        names = ["c%d" % i for i in run] + ["n"] * (text is not None)
        lines.append("        %s, = u%d(page, o); o += %d"
                     % (", ".join(names), number, layout.size))
        if text is not None:
            lines.append("        e = o + n; c%d = page[o:e].decode('utf-8'); o = e"
                         % text)
    lines += [
        "        add((%s))" % "".join("c%d, " % i for i in range(schema.width)),
        "    return rows",
    ]
    return kernels.build("\n".join(lines), env)


def encode_row(schema: TableSchema, row: Sequence[Any]) -> bytes:
    """Serialize one row tuple per the schema (generates the encoder per
    call; :func:`pack_pages` generates it once per table)."""
    return _encoder(schema)(row)


def decode_rows(schema: TableSchema, page: bytes) -> List[Tuple[Any, ...]]:
    """Deserialize every row in a page (generates the decoder per call; a
    :class:`TableStorage` holds its own as ``decode``)."""
    return _decoder(schema)(page)


def pack_pages(
    schema: TableSchema, rows: Iterable[Sequence[Any]], page_size: int
) -> Tuple[bytes, List[int]]:
    """Pack rows into pages; returns (blob, rows_per_page list)."""
    pages: List[bytes] = []
    current: List[bytes] = []
    used = _PAGE_HEADER.size
    counts: List[int] = []
    encode = _encoder(schema)

    def flush():
        if not current:
            return
        body = b"".join(current)
        page = _PAGE_HEADER.pack(len(current)) + body
        pages.append(page.ljust(page_size, b"\x00"))
        counts.append(len(current))

    for row in rows:
        encoded = encode(row)
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
    as_stored = KEY_TYPES[schema.columns[position].ctype]
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
        self.decode = _decoder(schema)  # page bytes -> row tuples
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
        return storage.decode(data)
