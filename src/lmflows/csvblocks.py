"""A CSV file read a block of bytes at a time, and tables of the distinct tokens of its fields.

``record_batches`` reads a binary file in blocks of about BLOCK_BYTES, each
cut after a newline, and gives each block's records as byte ranges of their
fields (``Records``). A block holding no double quote and no carriage
return is split at commas and newlines with numpy; any other block is read
by ``csv.reader``, the reference for quoting, embedded newlines and CRLF,
and a quoted field running past the block takes in the blocks after it.
Either way a field longer than the csv module's field limit flags its
record, where ``csv.reader`` would raise, and bytes that are not UTF-8
raise PanelFormatError naming their line.

``FieldTable`` and ``PersonTable`` keep the distinct tokens of one field
met so far as a sorted array of fixed-width keys (a uint64 up to 8 bytes,
else ``S<n>``), so a block's tokens are looked up with one sort and one
binary search, and a token new to the table is decoded and parsed once.
"""

import csv
import dataclasses
import functools
import io

import numpy as np

from .errors import PanelFormatError

# Bytes read at a time. Each block is cut after its last newline, so a
# block holds whole lines; the memory a parse needs beyond its result is a
# few times this size.
BLOCK_BYTES = 1 << 18

# Tokens up to this many bytes are keyed by their bytes; a longer one, rare
# in survey extracts, is set aside and numbered, so that it cannot widen
# every key of its block.
KEY_BYTES = 64


def long_field(limit: int) -> str:
    return f"field longer than {limit} characters"


@dataclasses.dataclass(frozen=True)
class Records:
    """Records of a stretch of a CSV file, as byte ranges of their fields.

    Field ``f`` of record ``r`` is ``data[start[first[r] + f]:end[first[r] + f]]``,
    UTF-8 text. ``line`` is the line on which each record ends; a blank line
    is a record of no fields, and a record flagged ``long`` holds a field
    longer than the csv field limit and has no fields either.
    """

    data: bytes
    line: np.ndarray
    first: np.ndarray
    count: np.ndarray
    long: np.ndarray
    start: np.ndarray
    end: np.ndarray

    @functools.cached_property
    def nul(self) -> bool:
        return b"\x00" in self.data

    @functools.cached_property
    def words(self) -> np.ndarray:
        """The 8 bytes from each offset of the data on, as a little-endian uint64."""
        return np.ndarray((len(self.data) + 1,), dtype="<u8", buffer=self.data + bytes(8),
                          strides=(1,))

    def fields(self, r: int) -> list[str]:
        at = range(self.first[r], self.first[r] + self.count[r])
        return [self.data[self.start[i]:self.end[i]].decode() for i in at]

    def after_first(self) -> "Records":
        return dataclasses.replace(self, line=self.line[1:], first=self.first[1:],
                                   count=self.count[1:], long=self.long[1:])


def record_batches(fh, path: str, limit: int):
    """The records of a binary file, a block at a time, numbering lines from 1.

    A block holding no ``"`` and no ``\\r`` is split at commas and newlines
    with numpy. Any other block is read by ``csv.reader``, the reference for
    quoting; a quoted field that runs past the block's end takes in the
    blocks that follow. Both ways a field longer than ``limit`` characters
    flags its record ``long``, where ``csv.reader`` itself would raise.
    """
    blocks = _blocks(fh)
    line = 1
    for data in blocks:
        if b'"' in data or b"\r" in data:
            records, n_lines = _csv_records(data, line, blocks, path)
        else:
            if not data.isascii():
                _utf8_text(data, line, path)
            records = _split_records(data, line, limit)
            n_lines = data.count(b"\n") + (not data.endswith(b"\n"))
        yield records
        line += n_lines
        del records  # not kept while the next block is read


def _blocks(fh):
    """The bytes of ``fh`` in blocks of about BLOCK_BYTES that end after a newline.

    Only the last block may lack a final newline.
    """
    tail = b""
    while chunk := fh.read(BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield tail + chunk[:cut]
            tail = chunk[cut:]
        else:
            tail += chunk
    if tail:
        yield tail


def _utf8_text(data: bytes, line: int, path: str) -> str:
    """``data`` decoded, or PanelFormatError naming the line (numbered from ``line``) of a bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start]
        at = line + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise PanelFormatError(
            f"{path}: line {at} is not UTF-8 text ({exc.reason}: byte 0x{data[exc.start]:02x})"
        ) from None


def _split_records(data: bytes, line: int, limit: int) -> Records:
    """The lines of a block free of quotes and carriage returns, split at every comma."""
    arr = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((arr == ord(",")) | (arr == ord("\n")))
    ends_line = arr[seps] == ord("\n")
    if not data.endswith(b"\n"):
        seps = np.append(seps, len(data))
        ends_line = np.append(ends_line, True)
    last = np.flatnonzero(ends_line)           # each line's last field, as an index into seps
    first = np.concatenate(([0], last[:-1] + 1))
    start = np.concatenate(([0], seps[:-1] + 1))
    count = last - first + 1
    size = seps[last] - start[first]
    count[size == 0] = 0                       # a blank line has no fields
    long = np.zeros(len(last), dtype=bool)
    for r in np.flatnonzero(size > limit).tolist():
        long[r] = any(len(data[start[i]:seps[i]].decode()) > limit
                      for i in range(first[r], last[r] + 1))
    return Records(data, line + np.arange(len(last)), first, count, long, start, seps)


class _LineFeed:
    """Text lines of a block for ``csv.reader``, then of later blocks if it asks for more.

    ``left`` counts the lines of the current block not yet read and ``n``
    the lines read in all.
    """

    def __init__(self, data: bytes, line: int, blocks, path: str):
        self.line, self.blocks, self.path = line, blocks, path
        self.n = 0
        self._load(data)

    def _load(self, data: bytes) -> None:
        lines = list(io.StringIO(_utf8_text(data, self.line + self.n, self.path), newline=""))
        self.left = len(lines)
        self._next = iter(lines).__next__

    def __iter__(self):
        return self

    def __next__(self) -> str:
        if not self.left:
            self._load(next(self.blocks))  # StopIteration at the end of the file
        self.left -= 1
        self.n += 1
        return self._next()


def _csv_records(data: bytes, line: int, blocks, path: str) -> tuple[Records, int]:
    """The records ``csv.reader`` reads from ``data`` on (and the lines it read).

    It stops at the first record that ends where a block ends.
    """
    feed = _LineFeed(data, line, blocks, path)
    reader = csv.reader(feed)
    rows, lines, long = [], [], []
    while True:
        try:
            row = next(reader)
            too_long = False
        except StopIteration:
            break
        except csv.Error as exc:  # the reader goes on at the next line
            if not str(exc).startswith("field larger than field limit"):  # NUL, before 3.11
                raise PanelFormatError(f"{path}: line {line - 1 + reader.line_num}: {exc}") from None
            row, too_long = [], True
        rows.append(row)
        lines.append(line - 1 + reader.line_num)
        long.append(too_long)
        if not feed.left:
            break
    encoded = [field.encode() for row in rows for field in row]
    size = np.array([len(field) for field in encoded], dtype=np.int64)
    count = np.array([len(row) for row in rows], dtype=np.int64)
    end = np.cumsum(size)
    return Records(
        data=b"".join(encoded),
        line=np.array(lines, dtype=np.int64),
        first=np.cumsum(count) - count,
        count=count,
        long=np.array(long, dtype=bool),
        start=end - size,
        end=end,
    ), feed.n


# The low ``n`` bytes of a uint64, for n = 0..8.
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
# Top byte of the key of a token set aside; no UTF-8 text holds a 0xFF byte.
_ASIDE = np.uint64(0xFF << 56)


class _Table:
    """The distinct tokens of one field met so far in a parse, as a sorted array of keys.

    A token is keyed by its bytes, zero-padded: as a little-endian uint64
    while the tokens fit in 8 bytes, else as ``S<n>`` (the S8 view of a
    uint64 key is the same bytes). Zero padding cannot tell a token that
    ends in NUL from a shorter one, and a token longer than KEY_BYTES would
    widen every key of its batch; such tokens are numbered in ``aside`` and
    keyed as _ASIDE plus their number. ``data`` holds, in key order, one
    array per thing kept about each token, which ``_enter`` works out.
    """

    def __init__(self, *dtypes):
        self.keys = np.empty(0, dtype=np.uint64)
        self.data = [np.empty(0, dtype=dtype) for dtype in dtypes]
        self.aside: dict[str, int] = {}

    def _enter(self, texts: list[str], first: np.ndarray) -> list[np.ndarray]:
        """The arrays of ``data`` for new tokens, given their texts and the row
        where each first occurs, in key order."""
        raise NotImplementedError

    def rows(self, rec: Records, start: np.ndarray, end: np.ndarray) -> np.ndarray:
        """The table index of each token ``rec.data[start:end]``, new tokens entered first."""
        keys = self._common(self._keys(rec, start, end))
        order = np.argsort(keys)
        ordered = keys[order]
        new = np.ones(len(keys), dtype=bool)
        new[1:] = ordered[1:] != ordered[:-1]
        inverse = np.empty(len(keys), dtype=np.intp)
        inverse[order] = np.cumsum(new) - 1
        distinct = ordered[new]
        at = np.searchsorted(self.keys, distinct)
        unknown = at == len(self.keys)
        unknown[~unknown] = self.keys[at[~unknown]] != distinct[~unknown]
        if unknown.any():
            first = np.full(len(distinct), len(keys), dtype=np.intp)
            np.minimum.at(first, inverse, np.arange(len(keys)))
            fresh = distinct[unknown]
            self.keys = np.insert(self.keys, at[unknown], fresh)
            self.data = [np.insert(column, at[unknown], values) for column, values in
                         zip(self.data, self._enter(self._texts(fresh), first[unknown]))]
            at = np.searchsorted(self.keys, distinct)
        return at[inverse]

    def _keys(self, rec, start, end) -> np.ndarray:
        n = len(start)
        length = end - start
        odd = length > KEY_BYTES
        if rec.nul:
            odd |= (length > 0) & (np.frombuffer(rec.data, np.uint8)[end - 1] == 0)
        width = int(length[~odd].max(initial=0))
        if width <= 8:
            keys = rec.words[start] & _LOW_BYTES[np.minimum(length, 8)]
        else:
            packed = np.zeros((n, width), dtype=np.uint8)
            cols = np.arange(width)
            inside = cols < length[:, None]
            packed[inside] = np.frombuffer(rec.data, np.uint8)[(start[:, None] + cols)[inside]]
            keys = packed.view(f"S{width}").ravel()
        if odd.any():
            numbers = [self.aside.setdefault(rec.data[s:e].decode(), len(self.aside))
                       for s, e in zip(start[odd].tolist(), end[odd].tolist())]
            aside = _ASIDE | np.array(numbers, dtype=np.uint64)
            keys[odd] = aside if keys.dtype == np.uint64 else aside.view("S8")
        return keys

    def _common(self, keys: np.ndarray) -> np.ndarray:
        """``keys`` as keys of one type with the table's, widening (and re-sorting) the table."""
        if keys.dtype == self.keys.dtype:
            return keys
        width = max(keys.itemsize, self.keys.itemsize)
        if self.keys.dtype != f"S{width}":
            table = _key_bytes(self.keys, width)
            order = np.argsort(table)
            self.keys, self.data = table[order], [column[order] for column in self.data]
        return _key_bytes(keys, width)

    def _texts(self, keys: np.ndarray) -> list[str]:
        """The texts of the tokens with these keys."""
        lead = keys.view(np.uint8).reshape(len(keys), keys.itemsize)[:, :8].copy().view("<u8").ravel()
        aside = lead >= _ASIDE
        tokens = keys[~aside].view(f"S{keys.itemsize}")
        if (tokens.view(np.uint8) < 0x80).all():
            texts = tokens.astype(f"U{tokens.itemsize}").tolist()
        else:
            texts = [token.decode() for token in tokens.tolist()]
        names = list(self.aside) if aside.any() else []
        for i, number in zip(np.flatnonzero(aside).tolist(), (lead[aside] - _ASIDE).tolist()):
            texts.insert(i, names[number])
        return texts


def _key_bytes(keys: np.ndarray, width: int) -> np.ndarray:
    """Keys as ``S<width>``: the same bytes, zero-padded."""
    return (keys.view("S8") if keys.dtype == np.uint64 else keys).astype(f"S{width}")


class FieldTable(_Table):
    """A field's tokens, with the value each parses to and whether its parse failed."""

    def __init__(self, parse, dtype):
        super().__init__(dtype, bool)
        self.parse = parse

    def decode(self, rec: Records, start, end) -> tuple[np.ndarray, np.ndarray]:
        """The value of each token ``rec.data[start:end]`` (0 if it failed), and whether it failed."""
        rows = self.rows(rec, start, end)  # first: it may enter tokens, replacing data
        return self.data[0][rows], self.data[1][rows]

    def _enter(self, texts, first):
        values, failed = [], []
        for i, text in enumerate(texts):
            try:
                values.append(self.parse(text))
            except ValueError:
                values.append(0)
                failed.append(i)
        bad = np.zeros(len(texts), dtype=bool)
        bad[failed] = True
        return [np.array(values, dtype=self.data[0].dtype), bad]


class PersonTable(_Table):
    """Person id tokens, with the code of each one's stripped id; ids numbered as they appear."""

    def __init__(self):
        super().__init__(np.int64)
        self.ids: list[str] = []
        self.index: dict[str, int] | None = None  # kept once some raw id differs from its stripped form

    def codes(self, rec: Records, start, end) -> np.ndarray:
        """The code of each row's person id ``rec.data[start:end]``."""
        rows = self.rows(rec, start, end)  # first: it may enter tokens, replacing data
        return self.data[0][rows]

    def _enter(self, texts, first):
        order = np.argsort(first).tolist()
        raw = [texts[i] for i in order]
        ids = list(map(str.strip, raw))
        codes = np.empty(len(texts), dtype=np.int64)
        if self.index is None and ids == raw:
            codes[order] = np.arange(len(self.ids), len(self.ids) + len(ids))
            self.ids += ids
        else:
            if self.index is None:
                self.index = dict(zip(self.ids, range(len(self.ids))))
            for i, pid in zip(order, ids):
                if pid not in self.index:
                    self.index[pid] = len(self.ids)
                    self.ids.append(pid)
                codes[i] = self.index[pid]
        return [codes]
