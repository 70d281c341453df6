"""A CSV file read a block of bytes at a time, and the decoding of its fields' tokens.

``record_batches`` reads a binary file in blocks of about BLOCK_BYTES, each
cut after a newline (a byte order mark at the start of the file is dropped
first), and gives each block's records as byte ranges of their fields
(``Records``). A block holding no double quote, and no carriage return but
those of CRLF line ends, is split at commas and newlines with numpy; any
other block is read by ``csv.reader``, the reference for quoting, embedded
newlines and lone carriage returns, and a quoted field running past the
block takes in the blocks after it.
Either way a field longer than the csv module's field limit flags its
record, where ``csv.reader`` would raise, and bytes that are not UTF-8
raise PanelFormatError naming their line.

Tokens are keyed by their bytes, as fixed-width keys (a uint64 up to 8
bytes, else ``S<n>``). ``FieldTable`` keeps the distinct tokens of a field
of few values met so far as a sorted array of keys, indexed by
multiply-shift hashing while they are uint64 and at most _INDEX_KEYS: a
block's tokens are looked up with one multiply, one shift and two gathers
(by binary search in a wider or larger table), and only those the table
lacks are decoded and parsed, once each; a token that fails keeps its
error text, the reason of the rows that hold it. ``DecimalField`` decodes
a column of decimal numbers with numpy, exactly, and keeps only the tokens
it cannot decode that way in a table. ``PersonTable`` keeps the keys of
every row, ranks the distinct ones by their bytes once the whole file is
read and numbers them by first appearance then, but decodes them only when
they are first read.
"""

import codecs
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
    longer than the csv field limit and has no fields either. A record's
    ranges lie from its ``first`` up to the next record's (the last
    record's to the end), and the first record's begin at 0; a blank line
    of the numpy split, or a long record, holds ranges past its ``count``.
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
        cut = int(self.first[1]) if len(self.first) > 1 else len(self.start)
        return dataclasses.replace(self, line=self.line[1:], first=self.first[1:] - cut,
                                   count=self.count[1:], long=self.long[1:],
                                   start=self.start[cut:], end=self.end[cut:])


def record_batches(fh, path: str, limit: int):
    """The records of a binary file, a block at a time, numbering lines from 1.

    A block holding no ``"``, and no ``\\r`` but those of ``\\r\\n`` line
    ends, is split at commas and newlines with numpy. Any other block is
    read by ``csv.reader``, the reference for quoting; a quoted field that
    runs past the block's end takes in the blocks that follow. Both ways a
    field longer than ``limit`` characters flags its record ``long``, where
    ``csv.reader`` itself would raise.
    """
    blocks = _blocks(fh)
    line = 1
    for data in blocks:
        if b'"' in data or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
            records, n_lines = _csv_records(data, line, blocks, path)
        else:
            if not data.isascii():
                _utf8_text(data, line, path)
            records = _split_records(data, line, limit)
            n_lines = len(records.line)
        yield records
        line += n_lines
        del records  # not kept while the next block is read


def _blocks(fh):
    """The bytes of ``fh`` in blocks of about BLOCK_BYTES that end after a newline.

    A byte order mark at the start of the file is dropped. Only the last
    block may lack a final newline.
    """
    tail = fh.read(len(codecs.BOM_UTF8))
    if tail == codecs.BOM_UTF8:
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
    """The lines of a block free of quotes, and of carriage returns but those
    of ``\\r\\n`` line ends, split at every comma."""
    arr = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((arr == ord(",")) | (arr == ord("\n")))
    ends_line = arr[seps] == ord("\n")
    if not data.endswith(b"\n"):
        seps = np.append(seps, len(data))
        ends_line = np.append(ends_line, True)
    last = np.flatnonzero(ends_line)           # each line's last field, as an index into seps
    first = np.concatenate(([0], last[:-1] + 1))
    start = np.concatenate(([0], seps[:-1] + 1))
    end = seps
    if b"\r" in data:  # a CRLF line's \r ends no field (byte -1, the block's last, is no \r)
        end = seps.copy()
        end[last] -= arr[seps[last] - 1] == ord("\r")
    count = last - first + 1
    size = end[last] - start[first]
    count[size == 0] = 0                       # a blank line has no fields
    long = np.zeros(len(last), dtype=bool)
    for r in np.flatnonzero(size > limit).tolist():
        long[r] = any(len(data[start[i]:end[i]].decode()) > limit
                      for i in range(first[r], last[r] + 1))
    return Records(data, line + np.arange(len(last)), first, count, long, start, end)


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
        except csv.Error as exc:  # the reader goes on at the next line
            # Only an overlong field is expected; any other csv.Error is refused.
            if not str(exc).startswith("field larger than field limit"):
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
    """Fixed-width keys of the tokens of one field, with the texts of tokens set aside.

    A token is keyed by its bytes, zero-padded: as a little-endian uint64
    while the tokens of a batch fit in 8 bytes, else as ``S<n>`` (the S8
    view of a uint64 key is the same bytes). Zero padding cannot tell a
    token that ends in NUL from a shorter one, and a token longer than
    KEY_BYTES would widen every key of its batch; such tokens are numbered
    in ``aside``, for the whole parse, and keyed as _ASIDE plus their number.
    """

    def __init__(self):
        self.aside: dict[str, int] = {}

    def _keys(self, rec, start, end) -> np.ndarray:
        n = len(start)
        length = end - start
        if not rec.nul and int(length.max(initial=0)) <= 8:  # none set aside, every key a uint64
            return rec.words[start] & _LOW_BYTES[length]
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

    def _texts(self, keys: np.ndarray) -> list[str]:
        """The texts of the tokens with these keys."""
        lead = keys.view(np.uint8).reshape(len(keys), keys.itemsize)[:, :8].copy().view("<u8").ravel()
        aside = lead >= _ASIDE
        texts = list(map(bytes.decode, keys[~aside].view(f"S{keys.itemsize}").tolist()))
        if aside.any():
            names = list(self.aside)
            set_aside = iter([names[number] for number in (lead[aside] - _ASIDE).tolist()])
            plain = iter(texts)
            texts = [next(set_aside) if odd else next(plain) for odd in aside.tolist()]
        return texts


def _key_bytes(keys: np.ndarray, width: int) -> np.ndarray:
    """Keys as ``S<width>``: the same bytes, zero-padded."""
    return (keys.view("S8") if keys.dtype == np.uint64 else keys).astype(f"S{width}")


# The most keys a table indexes (see FieldTable).
_INDEX_KEYS = 128

# The odd multipliers a table's index tries in turn: odd multiples of 2**64
# over the golden ratio, fixed so that a parse repeats.
_MULTIPLIERS = np.array([0x9E3779B97F4A7C15 * m % (1 << 64) for m in range(1, 16, 2)],
                        dtype=np.uint64)


class FieldTable(_Table):
    """A field's distinct tokens met so far, as a sorted array of keys, with
    the value each parses to and whether its parse failed; ``errors`` holds
    the error text of each failed token, by its bytes.

    While its keys are uint64 and at most _INDEX_KEYS, the table keeps an
    index from key to position (multiply-shift hashing, Dietzfelbinger et
    al., *J. Algorithms* 25, 1997): key k lies in slot ``(k * M) >> shift``
    of ``2**(64 - shift)`` slots, M the first multiplier of _MULTIPLIERS that
    gives each key a slot of its own. An empty slot holds position 0, whose
    key lies in another slot, so a lookup needs no test for emptiness. For n
    keys there are at least 2 n**2 slots, where a random multiplier separates
    the keys at least half the time; as the slots grow with the square of
    the keys, the cut-off is 128 keys (2**15 slots, 256 KiB), and a larger
    table (a field of many distinct tokens), a table keyed ``S<n>`` (a token
    over 8 bytes) and one whose keys no multiplier separates are searched by
    bisection.
    """

    def __init__(self, parse, dtype):
        super().__init__()
        self.parse = parse
        self.keys = np.empty(0, dtype=np.uint64)
        self.values = np.empty(0, dtype=dtype)
        self.failed = np.empty(0, dtype=bool)
        self.errors: dict[bytes, str] = {}
        self.index = None  # (M, shift, slots), rebuilt whenever tokens are entered

    def decode(self, rec: Records, start, end) -> tuple[np.ndarray, np.ndarray]:
        """The value of each token ``rec.data[start:end]`` (0 if it failed), and whether it failed.

        The tokens are looked up in the index, or by bisection; only those
        the table lacks are parsed, once each, from their bytes, and
        entered, a failed one with its error text in ``errors``.
        """
        keys = self._common(self._keys(rec, start, end))
        at, known = self._find(keys)
        if not known.all():
            missing = np.flatnonzero(~known)
            fresh, first = np.unique(keys[missing], return_index=True)
            values, failed = [], []
            for s, e in zip(start[missing[first]].tolist(), end[missing[first]].tolist()):
                token = rec.data[s:e]
                try:
                    values.append(self.parse(token.decode()))
                    failed.append(False)
                except ValueError as exc:
                    values.append(0)
                    failed.append(True)
                    self.errors[token] = str(exc)
            where = np.searchsorted(self.keys, fresh)
            self.keys = np.insert(self.keys, where, fresh)
            self.values = np.insert(self.values, where, values)
            self.failed = np.insert(self.failed, where, failed)
            self._build_index()
            at, _ = self._find(keys)
        return self.values[at], self.failed[at]

    def _find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each key's position in the table (junk where it is absent), and whether it is there."""
        if not len(self.keys):
            return np.zeros(len(keys), dtype=np.intp), np.zeros(len(keys), dtype=bool)
        if self.index is not None:
            multiplier, shift, slots = self.index
            at = slots[((keys * multiplier) >> shift).view(np.int64)]
        else:
            at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return at, self.keys[at] == keys

    def _build_index(self) -> None:
        n = len(self.keys)
        self.index = None
        if self.keys.dtype != np.uint64 or n > _INDEX_KEYS:
            return
        bits = max(5, (2 * n * n - 1).bit_length())
        shift = np.uint64(64 - bits)
        for multiplier in _MULTIPLIERS:
            slot = ((self.keys * multiplier) >> shift).view(np.int64)
            if len(np.unique(slot)) == n:
                slots = np.zeros(1 << bits, dtype=np.intp)
                slots[slot] = np.arange(n)
                self.index = multiplier, shift, slots
                return

    def _common(self, keys: np.ndarray) -> np.ndarray:
        """``keys`` as keys of one type with the table's, widening (and re-sorting) the table."""
        if keys.dtype == self.keys.dtype:
            return keys
        width = max(keys.itemsize, self.keys.itemsize)
        if self.keys.dtype != f"S{width}":
            table = _key_bytes(self.keys, width)
            order = np.argsort(table)
            self.keys, self.values, self.failed = table[order], self.values[order], self.failed[order]
            self.index = None
        return _key_bytes(keys, width)


# The bytes a text that str.strip() changes can begin or end with: ASCII
# whitespace, the separators 0x1c-0x1f, and any byte of a multi-byte UTF-8
# character (non-ASCII whitespace among them).
_STRIPPABLE = np.zeros(256, dtype=bool)
_STRIPPABLE[list(b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ")] = True
_STRIPPABLE[0x80:] = True


class PersonTable(_Table):
    """The person id tokens of a file's admitted rows, ranked and numbered once the file is read.

    ``ranks`` sorts the keys once, in byte order, and gives each row the
    rank of its id among the distinct ids; UTF-8 bytes sort in code-point
    order, so the ranks order the ids as ``link_waves`` does (a uint64 key
    byte-swapped to big-endian, an ``S<n>`` key as it is). With them it
    gives each rank's code, the codes numbering the ids by their first row.
    The table then holds the distinct ids as ``keys``, in rank order,
    decoded only when read: ``texts`` for some ranks, ``decoded`` for all
    of them in code order. If any id could be changed by strip (its first
    or last byte is whitespace or not ASCII), or any was set aside (see
    ``_Table``), every id is decoded and stripped while ranking instead,
    ids equal once stripped sharing a rank, and ``keys`` holds their texts.
    """

    def __init__(self):
        super().__init__()
        self.parts: list[np.ndarray] = []
        self.keys = np.empty(0, dtype=np.uint64)
        self.by_code = np.empty(0, dtype=np.uint8)  # the rank of each code
        self.strippable = False  # whether an id met so far begins or ends in a _STRIPPABLE byte

    def __len__(self) -> int:
        return len(self.by_code)

    def add(self, rec: Records, start, end) -> None:
        """Keep the keys of the person ids ``rec.data[start:end]`` of a batch's admitted rows."""
        keys = self._keys(rec, start, end)
        self.parts.append(keys)
        if not self.strippable:  # a key's first byte is its id's (0 for an empty id)
            last = _STRIPPABLE[np.frombuffer(rec.data, np.uint8)[end - 1]] & (end > start)
            self.strippable = bool((_STRIPPABLE[keys.view(np.uint8)[::keys.itemsize]] | last).any())

    def ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """(each row's rank among the distinct ids, in code-point order; each
        rank's code, the ids numbered in order of their first row)."""
        parts = self.parts or [np.empty(0, dtype=np.uint64)]
        if any(part.dtype != np.uint64 for part in parts):
            width = max(part.itemsize for part in parts)
            parts = [_key_bytes(part, width) for part in parts]
        keys = np.concatenate(parts)
        self.parts = []
        n = len(keys)
        # The result is allocated before the sort's temporaries, and each is
        # dropped once read: a heap left with holes below the result held a
        # pair file's parse about 4 MiB higher.
        ranks = np.empty(n, dtype=np.int64)
        # Big-endian, a uint64 key orders as its bytes. Stable, so that the
        # first row of each run of equal keys is the key's first row.
        order = np.argsort(keys.byteswap() if keys.dtype == np.uint64 else keys, kind="stable")
        ordered = keys[order]
        del keys
        new = np.ones(n, dtype=bool)
        new[1:] = ordered[1:] != ordered[:-1]
        starts = np.flatnonzero(new)  # gathers: faster than compressing by a scattered mask
        first = order[starts]
        self.keys = ordered[starts]
        del ordered, starts
        rank = np.cumsum(new)  # of each sorted row, from 1
        rank -= 1
        if self.strippable or self.aside:
            ids = np.array([text.strip() for text in self._texts(self.keys)], dtype=object)
            # Raw ids that differ only in padding share a rank; str sorts by code point.
            self.keys, merged = np.unique(ids, return_inverse=True)
            merged_first = np.full(len(self.keys), n, dtype=first.dtype)
            np.minimum.at(merged_first, merged, first)
            rank, first = merged[rank], merged_first
        ranks[order] = rank
        # In the narrowest type that holds them: the table keeps by_code, and
        # the parse gathers every row's code.
        self.by_code = np.argsort(first).astype(np.min_scalar_type(len(first)))
        code = np.empty_like(self.by_code)
        code[self.by_code] = np.arange(len(first), dtype=code.dtype)
        return ranks, code

    def texts(self, ranks) -> list[str]:
        """The ids of ``ranks``."""
        keys = self.keys[ranks]
        return keys.tolist() if keys.dtype == object else self._texts(keys)

    def decoded(self) -> tuple[str, ...]:
        """The ids in code order."""
        return tuple(self.texts(self.by_code))


# 10**k for k = 0..15, each exact in float64.
_POW10 = np.array([10.0 ** k for k in range(16)])


class DecimalField(FieldTable):
    """A field of decimal numbers, decoded by ``_decimals`` where it can, else as by FieldTable.

    A token of 1 to 15 ASCII digits, at most one ``.`` among them, is its
    mantissa m over 10**k, k the digits after the point. Both are exact in
    float64, so the quotient is correctly rounded: it equals ``float(text)``
    (Clinger, *How to Read Floating Point Numbers Accurately*, PLDI 1990).
    """

    def decode(self, rec: Records, start, end) -> tuple[np.ndarray, np.ndarray]:
        values, fast = _decimals(rec, start, end)
        failed = np.zeros(len(values), dtype=bool)
        if not fast.all():
            values[~fast], failed[~fast] = super().decode(rec, start[~fast], end[~fast])
        return values, failed


def _decimals(rec: Records, start, end) -> tuple[np.ndarray, np.ndarray]:
    """m / 10**k for each token of 1 to 15 ASCII digits and at most one point
    with a mantissa m > 0, and which tokens those are (the others' values are junk)."""
    length = end - start
    width = min(int(length.max(initial=0)), 16)
    if width <= 8:
        text = rec.words[start].view(np.uint8).reshape(-1, 8)
    else:
        after = rec.words[np.minimum(start + 8, len(rec.words) - 1)]
        text = np.stack([rec.words[start], after], axis=1).view(np.uint8)
    # Byte c of row r is the token's while c < length[r]; read one column at a time.
    mantissa = np.zeros(len(start), dtype=np.int64)
    point = np.full(len(start), -1, dtype=np.int64)
    odd = length > 16
    for c in range(width):
        inside = c < length
        d = text[:, c] - ord("0")  # uint8: any byte but a digit wraps past 9
        digit = (d < 10) & inside
        mantissa = np.where(digit, mantissa * 10 + d, mantissa)
        first_point = (text[:, c] == ord(".")) & inside & (point < 0)
        point[first_point] = c
        odd |= inside & ~digit & ~first_point
    scale = np.where(point >= 0, length - 1 - point, 0)
    fast = ~odd & (length - (point >= 0) <= 15) & (mantissa > 0)  # 15 digits at most
    return mantissa / _POW10[np.where(fast, scale, 0)], fast
