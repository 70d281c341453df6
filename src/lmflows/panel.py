"""Rotating-panel ingestion: CSV parsing, wave linkage, synthetic panel generation.

Two CSV layouts are accepted.

pair_rows (the canonical interchange format), header::

    person_id,quarter_from,quarter_to,state_from,state_to,age,sex,citizen,region,weight

wave_rows (one row per interview), header::

    person_id,quarter,state,age,sex,citizen,region,weight

Quarters are written ``YYYY.Q``, sex as M/F, citizen as 0/1, region as
NORTH/CENTRE/SOUTH. A weight is ASCII decimal (digits with at most one
point, then optionally ``e``, a sign and digits); it may be blank (read as
1.0) but must be positive when present. Malformed rows are rejected, not
fatal: parsing returns a report of (line_number, reason) so dirty survey
files stay auditable. Rows whose first-wave age falls outside 15-34 are
dropped from the analysis dataset and counted separately (they are valid,
just out of scope).

Wave files are linked into 3-month pairs by ``link_waves``, from one sort
of the interviews by (person_id, quarter), ids ranked by their UTF-8 bytes
(the order of their code points): one pair per person per adjacent
quarter couple, demographics and weight taken from the first wave of the
pair. An interview repeated with a conflicting state rejects every line of
its (person, quarter) key; repeats that agree keep the first line and
reject the later ones as duplicates of it. Person identifiers are assumed
stable across the two rotation spells; real survey extracts may not
guarantee this, in which case the second spell simply contributes pairs
under a fresh identifier.

A PanelDataset holds its pairs as columns (a struct of arrays), one entry
per pair: the departure quarter as an ordinal (``year * 4 + quarter - 1``;
the arrival quarter is the next one), both states and the sex and region
as small integer codes, the age, the citizen flag, the weight as float64,
and the person as a code into a table of distinct identifiers. Estimation
selects a cohort cell with ``PanelDataset.cell``, which reads a copy of the
columns it needs grouped by departure quarter, so a cell scans only its
quarter's rows.
``PanelDataset.pairs`` is an adapter for callers that want one object per
pair: it builds a tuple of ObservationPair on each read, and the dataset
does not keep it.

Files are read as UTF-8 bytes, column by column, a block of about 256 KiB
at a time (see ``csvblocks``); a block whose only carriage returns end
CRLF lines takes the same numpy split as an LF block. A field's tokens are
looked up in a table of the tokens met so far, hash-indexed while it is
small, and a token new to the table is parsed once; but weights are
decoded directly where they can be, and person ids are ranked by their
bytes, with one sort once the whole file is read; ``link_waves`` orders
people by those ranks, and the parse then numbers the ids once by first
appearance. The ids are decoded to text on the first read of
``PanelDataset.person_ids`` (by ``.pairs``, ``write_pairs_csv`` or the
caller); a duplicate interview's rejection text decodes only its own id.
A file holding an id that ``str.strip`` could change, or one set aside
(over 64 bytes or NUL-ended), has all its ids decoded, stripped and merged
before ranking. A row is rejected
for its first failing field in header order, non-adjacent quarters
counting as a field right after ``quarter_to``, with the error text its
token's table kept when the token failed. A field longer than the csv
module's field limit (``csv.field_size_limit()``, 131072
characters unless changed) rejects its line; bytes that are not UTF-8 fail
the parse with PanelFormatError naming the line that holds them.
"""

import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import math
import os
import re
import sys

import numpy as np

from . import csvblocks
from .errors import PanelFormatError
from .estimation import TransitionMatrix
from .states import (
    AGE_MAX,
    AGE_MIN,
    N_STATES,
    REGION_ORDER,
    SEX_ORDER,
    STATE_ORDER,
    CohortFilter,
    Demographics,
    LaborState,
    MacroRegion,
    QuarterId,
    Sex,
)

PAIR_HEADER = (
    "person_id", "quarter_from", "quarter_to", "state_from", "state_to",
    "age", "sex", "citizen", "region", "weight",
)
WAVE_HEADER = ("person_id", "quarter", "state", "age", "sex", "citizen", "region", "weight")

# Interview offsets of the 2-in/2-out/2-in rotation, relative to entry.
ROTATION_OFFSETS = (0, 1, 4, 5)

# The last quarter QuarterId.parse reads, and so the last a panel file can hold.
_LAST_QUARTER = QuarterId(9999, 4)


@dataclasses.dataclass(frozen=True, slots=True)
class ObservationPair:
    """A linked 3-month observation: states in two adjacent quarters."""

    person_id: str
    quarter_from: QuarterId
    quarter_to: QuarterId
    state_from: LaborState
    state_to: LaborState
    demographics: Demographics
    weight: float = 1.0

    def __post_init__(self):
        if self.quarter_to.ordinal != self.quarter_from.ordinal + 1:
            raise ValueError(
                f"pair quarters must be adjacent, got {self.quarter_from} -> {self.quarter_to}"
            )
        if not self.weight > 0:
            raise ValueError(f"pair weight must be positive, got {self.weight!r}")


# Column dtypes of a PanelDataset, in constructor order.
_COLUMNS = {
    "person": np.int64,
    "quarter": np.int64,
    "state_from": np.int8,
    "state_to": np.int8,
    "age": np.int64,
    "sex": np.int8,
    "citizen": np.bool_,
    "region": np.int8,
    "weight": np.float64,
}


# Columns of a wave table: one entry per interview, coded as in PanelDataset.
_WAVE_COLUMNS = ("person", "quarter", "state", "age", "sex", "citizen", "region", "weight")
_DTYPES = {**_COLUMNS, "state": _COLUMNS["state_from"], "quarter_to": _COLUMNS["quarter"]}


# Rows that PanelDataset.pairs converts to Python lists at a time.
_PAIRS_CHUNK = 1 << 14


# The values a checked column may hold, as (lowest, highest); NaN lies outside
# every range. A quarter is a departure, so the last a file can hold is 9999.3.
_RANGES = {
    "quarter": (QuarterId(1900, 1).ordinal, _LAST_QUARTER.ordinal - 1),
    **dict.fromkeys(("state_from", "state_to"), (0, N_STATES - 1)),
    "sex": (0, len(SEX_ORDER) - 1),
    "region": (0, len(REGION_ORDER) - 1),
    "weight": (math.ulp(0.0), sys.float_info.max),  # finite and positive
}


class _PersonIds:
    """``PanelDataset.person_ids``: a tuple, or a parse's ``csvblocks.PersonTable``
    until the first read decodes it and keeps the tuple."""

    def __get__(self, data, owner=None):
        if data is None:
            raise AttributeError("person_ids")  # the field has no default
        ids = vars(data)["person_ids"]
        if isinstance(ids, csvblocks.PersonTable):
            ids = vars(data)["person_ids"] = ids.decoded()
        return ids

    def __set__(self, data, value):
        vars(data)["person_ids"] = value if isinstance(value, csvblocks.PersonTable) else tuple(value)


@dataclasses.dataclass(frozen=True, eq=False)
class PanelDataset:
    """Observation pairs stored as columns, one entry per pair, plus provenance.

    ``quarter`` is the departure quarter as ``QuarterId.ordinal``; the
    arrival quarter is always the next one. ``state_from`` and ``state_to``
    index STATE_ORDER, ``sex`` indexes SEX_ORDER, ``region`` indexes
    REGION_ORDER and ``person`` indexes ``person_ids``. The constructor
    copies each column into a read-only array of its fixed dtype and
    raises ValueError, naming the column and its first bad value, for a
    code outside its table, a departure quarter outside 1900.1-9999.3 or a
    weight that is not finite and positive. A parsed file's ids are
    numbered by first appearance while parsing, and decoded on the first
    read of ``person_ids``.

    ``cell`` selects a cohort's rows in one quarter. It reads a copy of the
    columns it needs grouped by departure quarter, built on its first use
    and kept with the dataset (about 21 bytes a row); the columns above keep
    their own row order. The dataset also keeps the last cell it selected.
    """

    person_ids: tuple[str, ...] = _PersonIds()
    person: np.ndarray
    quarter: np.ndarray
    state_from: np.ndarray
    state_to: np.ndarray
    age: np.ndarray
    sex: np.ndarray
    citizen: np.ndarray
    region: np.ndarray
    weight: np.ndarray
    provenance: str

    def __post_init__(self):
        fields = vars(self)
        ranges = {"person": (0, len(fields["person_ids"]) - 1), **_RANGES}  # len() decodes no id
        for name, dtype in _COLUMNS.items():
            column = np.asarray(fields[name])  # checked as given: the cast could wrap it into range
            low, high = ranges.get(name, (-math.inf, math.inf))
            if len(column) and not low <= column.min() <= column.max() <= high:  # NaN fails too
                bad = column[~((column >= low) & (column <= high))][0].item()
                raise ValueError(f"dataset column {name} holds {bad!r}, outside {low!r}..{high!r}")
            fields[name] = np.array(column, dtype=dtype)
            fields[name].setflags(write=False)
        if len({len(fields[name]) for name in _COLUMNS}) > 1:
            raise ValueError("dataset columns must have equal lengths")

    @classmethod
    def from_pairs(cls, pairs, provenance: str) -> "PanelDataset":
        person_codes: dict[str, int] = {}
        rows = [
            (person_codes.setdefault(p.person_id, len(person_codes)), p.quarter_from.ordinal,
             p.state_from.index, p.state_to.index, p.demographics.age_at_first_wave,
             SEX_ORDER.index(p.demographics.sex), p.demographics.italian_citizen,
             REGION_ORDER.index(p.demographics.macro_region), p.weight)
            for p in pairs
        ]
        return cls(person_ids=tuple(person_codes), provenance=provenance,
                   **{name: [row[i] for row in rows] for i, name in enumerate(_COLUMNS)})

    def __len__(self) -> int:
        return len(self.weight)

    @property
    def quarter_range(self) -> tuple[QuarterId, QuarterId] | None:
        """(earliest departure, latest arrival), or None for an empty dataset."""
        if not len(self):
            return None
        return (QuarterId.from_ordinal(self.quarter.min()),
                QuarterId.from_ordinal(self.quarter.max() + 1))

    @property
    def pairs(self) -> tuple[ObservationPair, ...]:
        """The rows as ObservationPair objects, built anew on each read.

        The dataset does not keep the tuple. Pairs with equal quarters or
        equal demographics share one QuarterId or Demographics instance.
        """
        quarters = {q: QuarterId.from_ordinal(q)
                    for u in np.unique(self.quarter).tolist() for q in (u, u + 1)}
        demographics: dict[tuple, Demographics] = {}
        pairs = []
        for at in range(0, len(self), _PAIRS_CHUNK):  # a chunk's rows as lists at a time
            rows = zip(*(getattr(self, name)[at:at + _PAIRS_CHUNK].tolist() for name in _COLUMNS))
            for person, q, s_from, s_to, *demo, weight in rows:
                key = tuple(demo)
                d = demographics.get(key)
                if d is None:
                    age, sex, citizen, region = key
                    d = demographics[key] = Demographics(
                        age, SEX_ORDER[sex], citizen, REGION_ORDER[region])
                pairs.append(ObservationPair(
                    self.person_ids[person], quarters[q], quarters[q + 1],
                    STATE_ORDER[s_from], STATE_ORDER[s_to], d, weight,
                ))
        return tuple(pairs)

    @functools.cached_property
    def _by_quarter(self) -> tuple[dict[int, tuple[int, int]], dict[str, np.ndarray]]:
        """The rows grouped by departure quarter: ({ordinal: (start, stop)}, {name: column}).

        The columns are those a cell reads, reordered by a stable sort on the
        quarter, so that each quarter's rows lie in ``start:stop`` and keep
        their row order. Safe to keep: the dataset and its columns are frozen.
        """
        n = len(self)
        low = int(self.quarter.min()) if n else 0
        span = int(self.quarter.max()) - low if n else 0
        # A stable sort orders by key value alone, so the offsets sort in the
        # narrowest type that holds them: for 8- and 16-bit keys that is numpy's
        # O(n) radix sort, 3.5 ms (uint8) and 3.9 ms (uint16) on 286k rows of 8
        # quarters on one 2-CPU host, where 64-bit keys take 15.6 ms.
        order = np.argsort((self.quarter - low).astype(np.min_scalar_type(span)), kind="stable")
        quarter = self.quarter[order]
        starts = np.flatnonzero(np.diff(quarter, prepend=low - 1)).tolist()
        bounds = dict(zip(quarter[starts].tolist(), zip(starts, starts[1:] + [n])))
        columns = {}
        for name in ("state_from", "state_to", "age", "sex", "citizen", "region", "weight"):
            column = columns[name] = getattr(self, name)[order]
            column.setflags(write=False)
        return bounds, columns

    def cell(self, quarter: QuarterId, cohort: CohortFilter) -> tuple[np.ndarray, ...]:
        """(state_from, state_to, weight) of the pairs departing ``quarter`` whose
        demographics ``cohort`` matches, in row order, read-only.

        The dataset keeps the last cell, keyed by quarter and cohort, as it
        keeps its quarter groups: a cell's shares and matrix select its rows once.
        """
        key = (quarter.ordinal, cohort)
        last = getattr(self, "_last_cell", None)
        if last is not None and last[0] == key:
            return last[1]
        bounds, columns = self._by_quarter
        start, stop = bounds.get(quarter.ordinal, (0, 0))
        rows = {name: column[start:stop] for name, column in columns.items()}
        mask = np.ones(stop - start, dtype=bool)
        if cohort.age_band is not None:
            mask &= (rows["age"] >= cohort.age_band.lo) & (rows["age"] <= cohort.age_band.hi)
        if cohort.sex is not None:
            mask &= rows["sex"] == SEX_ORDER.index(cohort.sex)
        if cohort.citizen is not None:
            mask &= rows["citizen"] == cohort.citizen
        if cohort.region is not None:
            mask &= rows["region"] == REGION_ORDER.index(cohort.region)
        picked = np.flatnonzero(mask)
        cell = tuple(rows[name][picked] for name in ("state_from", "state_to", "weight"))
        for column in cell:
            column.setflags(write=False)
        # One tuple, replaced whole: a thread reads the old selection or the new one.
        object.__setattr__(self, "_last_cell", (key, cell))
        return cell


@dataclasses.dataclass(frozen=True)
class ParseReport:
    """Audit trail of a parse: rejected lines and out-of-scope counts."""

    rejections: tuple[tuple[int, str], ...]
    n_rows: int
    n_pairs: int
    n_age_filtered: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["line_number", "reason"])
        for line, reason in self.rejections:
            w.writerow([line, reason])
        return buf.getvalue()


_AGE_RE = re.compile(r"[+-]?[0-9]+")
_AGE_CAP = int(np.iinfo(_COLUMNS["age"]).max)


def _parse_age(text) -> int:
    raw = str(text).strip()
    if not _AGE_RE.fullmatch(raw):
        raise ValueError(f"invalid age {text!r}")
    age = int(raw)
    if age < 0:
        raise ValueError(f"invalid age {age!r} (negative)")
    # Any age past the cap is out of scope anyway; capped, it fits the age column.
    return min(age, _AGE_CAP)


def _parse_citizen(text) -> bool:
    raw = str(text).strip()
    if raw not in ("0", "1"):
        raise ValueError(f"invalid citizen flag {text!r} (expected 0 or 1)")
    return raw == "1"


_WEIGHT_RE = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _parse_weight(text) -> float:
    raw = str(text).strip()
    if raw == "":
        return 1.0
    try:
        w = float(raw)
    except ValueError:
        raise ValueError(f"invalid weight {text!r}") from None
    if not math.isfinite(w) or w <= 0:
        raise ValueError(f"nonpositive weight {raw}")
    # float() also reads signs, underscores and non-ASCII digits. Checked last,
    # so a text that float() refuses or finds nonpositive keeps that reason.
    if not _WEIGHT_RE.fullmatch(raw):
        raise ValueError(f"invalid weight {text!r}")
    return w


# The token parser of each field after person_id, by header name. Quarters
# parse to ordinals and states, sexes and regions to their codes.
_PARSERS = {
    **dict.fromkeys(("quarter_from", "quarter_to", "quarter"),
                    lambda text: QuarterId.parse(text).ordinal),
    **dict.fromkeys(("state_from", "state_to", "state"), lambda text: LaborState.parse(text).index),
    "age": _parse_age,
    "sex": lambda text: SEX_ORDER.index(Sex.parse(text)),
    "citizen": _parse_citizen,
    "region": lambda text: REGION_ORDER.index(MacroRegion.parse(text)),
    "weight": _parse_weight,
}


def _detect_format(header: list[str]) -> str:
    cleaned = tuple(h.strip() for h in header)
    if cleaned == PAIR_HEADER:
        return "pair_rows"
    if cleaned == WAVE_HEADER:
        return "wave_rows"
    raise PanelFormatError(
        f"unrecognized header {','.join(header)!r}; expected the pair_rows or wave_rows schema"
    )


def parse_panel_file(path) -> tuple[PanelDataset, ParseReport]:
    """Parse a pair_rows or wave_rows CSV into a validated PanelDataset.

    Parameters
    ----------
    path : str or Path
        CSV file to read, UTF-8 encoded. Its header line names the layout,
        and the dataset's provenance starts with that name.

    Returns
    -------
    (PanelDataset, ParseReport)
        The admitted pairs and the audit report. Malformed rows are listed
        in the report with their line numbers; an unreadable file, bytes
        that are not UTF-8 or an unknown header raise PanelFormatError.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise PanelFormatError(f"cannot read {path}: {exc}") from exc

    with fh:
        limit = csv.field_size_limit()
        batches = csvblocks.record_batches(fh, str(path), limit)
        first = next(batches, None)
        if first is None:
            raise PanelFormatError(f"{path} is empty")
        if first.long[0]:
            raise PanelFormatError(f"{path}: header {csvblocks.long_field(limit)}")
        detected = _detect_format(first.fields(0))
        waves = detected == "wave_rows"
        table = (_Columns(WAVE_HEADER, _WAVE_COLUMNS, limit) if waves
                 else _Columns(PAIR_HEADER, _COLUMNS, limit))
        for rec in itertools.chain([first.after_first()], batches):
            table.add(rec)
            del rec  # not kept while the next batch is read
    person_ids, code, columns, lines, rejections, n_rows = table.result()
    del table, first  # the token tables and first block are not kept while linking and copying
    if waves:
        columns, duplicates = link_waves(columns, person_ids, lines)
        rejections += duplicates
    columns["person"] = code[columns["person"]]
    return _in_scope(columns, person_ids, f"{detected}:{path}", sorted(rejections), n_rows)


class _Columns:
    """The columns of the admitted rows of a panel file, filled a batch of records at a time.

    A field's tokens are looked up in a table of the tokens met so far, and
    a token new to it is parsed then, once; weights are mostly decoded
    directly (``csvblocks.DecimalField``), and person ids are ranked by
    their bytes and numbered in ``result``. A record is rejected for its
    first failing field in header order, the quarters' adjacency checked
    right after ``quarter_to``; the reason is the error text the field's
    table kept for the failed token.
    """

    def __init__(self, header, names, limit: int):
        self.header, self.names = header, tuple(names)
        self.fields = []
        rest = iter(self.names[1:])  # the column each field after person_id fills
        for field in header[1:]:
            name = field if field == "quarter_to" else next(rest)  # quarter_to is only checked
            table = csvblocks.DecimalField if field == "weight" else csvblocks.FieldTable
            self.fields.append((name, table(_PARSERS[field], _DTYPES[name])))
        self.persons = csvblocks.PersonTable()
        self.parts = {name: [] for name in (*self.names[1:], "line")}
        self.rejections = []
        self.n_rows = 0
        self.long_field = csvblocks.long_field(limit)

    def add(self, rec: csvblocks.Records) -> None:
        k = len(self.header)
        real = (rec.count > 0) | rec.long
        self.n_rows += int(real.sum())
        ok = (rec.count == k) & ~rec.long
        for line, too_long, count in zip(*(column[real & ~ok].tolist()
                                           for column in (rec.line, rec.long, rec.count))):
            self.rejections.append((line, self.long_field if too_long
                                    else f"wrong field count (expected {k}, got {count})"))
        # The fields of the rows of k fields, k to a row. A blank line of the
        # numpy split keeps its one empty field, so a record's span of
        # fields is the gap to the next record's first, not its count.
        fields = np.repeat(ok, np.diff(rec.first, append=len(rec.start)))
        start, end = rec.start[fields].reshape(-1, k), rec.end[fields].reshape(-1, k)
        line = rec.line[ok]
        keep = np.ones(len(line), dtype=bool)  # rows with no failed field so far
        values = {}
        for j, (name, table) in enumerate(self.fields, start=1):
            values[name], failed = table.decode(rec, start[:, j], end[:, j])
            bad = np.flatnonzero(keep & failed).tolist()
            self.rejections += [(int(line[r]), table.errors[rec.data[start[r, j]:end[r, j]]])
                                for r in bad]
            keep[bad] = False
            if name == "quarter_to":  # both quarters parsed: are they adjacent?
                q_from, q_to = values["quarter"], values.pop(name)
                bad = np.flatnonzero(keep & (q_to != q_from + 1)).tolist()
                self.rejections += [(int(line[r]), "quarters not adjacent ({} -> {})".format(
                    QuarterId.from_ordinal(q_from[r]), QuarterId.from_ordinal(q_to[r])))
                    for r in bad]
                keep[bad] = False
        self.persons.add(rec, start[keep, 0], end[keep, 0])
        for name in self.names[1:]:
            self.parts[name].append(values[name][keep])
        self.parts["line"].append(line[keep])

    def result(self):
        """(the person ids, as a PersonTable, the code of each rank among them,
        columns with ``person`` as ranks, line numbers of admitted rows,
        unsorted rejections, rows read)."""
        parts = self.parts
        columns = {name: np.concatenate(parts.pop(name) or [np.empty(0, _DTYPES[name])])
                   for name in self.names[1:]}
        columns[self.names[0]], code = self.persons.ranks()
        lines = np.concatenate(parts.pop("line") or [np.empty(0, dtype=np.int64)])
        return self.persons, code, columns, lines, self.rejections, self.n_rows


def _in_scope(columns, person_ids, provenance: str, rejections,
              n_rows) -> tuple[PanelDataset, ParseReport]:
    """The admitted pairs (``columns``, an array per name of ``_COLUMNS``) whose
    first-wave age is in scope, built into one dataset, and the parse report."""
    scope = (columns["age"] >= AGE_MIN) & (columns["age"] <= AGE_MAX)
    dataset = PanelDataset(person_ids=person_ids, provenance=provenance,
                           **{name: columns[name][scope] for name in _COLUMNS})
    report = ParseReport(
        rejections=tuple(rejections),
        n_rows=n_rows,
        n_pairs=len(dataset),
        n_age_filtered=len(scope) - len(dataset),
    )
    return dataset, report


def link_waves(waves, person_ids, lines) -> tuple[dict[str, np.ndarray], list]:
    """Screen a wave table for duplicate interviews and link the rest into 3-month pairs.

    ``waves`` maps each name of ``_WAVE_COLUMNS`` to an array, one entry per
    interview, ``person`` holding the rank of its id among ``person_ids``, a
    parse's ``csvblocks.PersonTable``, in code-point order; of the table, the
    linker reads only its length and the ``texts`` of duplicated ids.
    ``lines``, an array, numbers the rows in increasing order. A (person,
    quarter) key met more than once with conflicting states rejects every row of the
    key; repeats that agree keep the first row and reject the others. The
    kept rows give one pair per person and couple of adjacent quarters, with
    demographics and weight from the first wave, sorted by (person_id,
    quarter_from).

    Returns the pairs, an array for each name of ``_COLUMNS`` (``person``
    still ranks), and the rejected rows' (line, reason), in line order.
    """
    rank, quarter = waves["person"], waves["quarter"]
    # (rank, quarter) as one key, with a spare quarter after the last, so that
    # key + 1 is the same person's next quarter; sorted once, stably (a key
    # keeps file order), in the narrowest type that holds it, as in
    # PanelDataset._by_quarter.
    low, span = (int(quarter.min()), int(quarter.max() - quarter.min()) + 2) if len(quarter) else (0, 2)
    key = (rank * span + (quarter - low)).astype(np.min_scalar_type(len(person_ids) * span))
    order = np.argsort(key, kind="stable")
    key = key[order]
    keep = np.ones(len(order), dtype=bool)  # the first row of each key, in sorted position
    keep[1:] = key[1:] != key[:-1]

    rejections = []
    if not keep.all():  # screen the rows of repeated keys only
        repeated = ~keep
        repeated[:-1] |= ~keep[1:]
        at = np.flatnonzero(repeated)  # their sorted positions, key by key, each key in file order
        head = keep[at]                # a key's first row
        which = np.cumsum(head) - 1    # each row's key among the repeated keys
        heads = np.flatnonzero(head)
        states = waves["state"][order[at]]
        conflict = np.minimum.reduceat(states, heads) != np.maximum.reduceat(states, heads)
        keep[at[heads[conflict]]] = False
        people, quarters = np.divmod(key[at[heads]], span)
        labels = {q: str(QuarterId.from_ordinal(q + low)) for q in np.unique(quarters).tolist()}
        keys = [f"person {name!r} at {labels[q]}"  # only the ids of repeated interviews are decoded
                for name, q in zip(person_ids.texts(people), quarters.tolist())]
        row_lines = lines[order[at]]
        first_lines, bad = row_lines[heads].tolist(), conflict.tolist()
        rejected = np.flatnonzero(~head | conflict[which])
        rejected = rejected[np.argsort(row_lines[rejected])]  # in line order
        rejections = [
            (line, f"conflicting duplicate states for {keys[k]}" if bad[k]
             else f"duplicate of line {first_lines[k]} ({keys[k]})")
            for line, k in zip(row_lines[rejected].tolist(), which[rejected].tolist())]

    kept, key = order[keep], key[keep]
    pair = np.flatnonzero(key[1:] == key[:-1] + 1)  # a kept row and the next make a pair
    first, second = kept[pair], kept[pair + 1]
    pairs = {name: waves[name][first] for name in _WAVE_COLUMNS if name != "state"}
    pairs["state_from"], pairs["state_to"] = waves["state"][first], waves["state"][second]
    return pairs, rejections


def _sample_rows(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    # First index whose cumulative mass reaches u; clip guards the u ~ 1.0
    # edge against row sums a few ulp below one.
    idx = (cum_rows < u[:, None]).sum(axis=1)
    return np.minimum(idx, cum_rows.shape[1] - 1)


def generate_synthetic_panel(
    truth,
    initial_shares,
    n_individuals: int,
    start_quarter: QuarterId,
    n_quarters: int,
    seed: int,
) -> PanelDataset:
    """Simulate a rotating panel whose transitions follow a known chain.

    Each individual enters in a quarter drawn uniformly from the window
    (leaving room for at least one interview pair), is interviewed in the
    entry quarter and the next, skips two quarters, and returns for two
    more, the 2-in/2-out/2-in rotation. The entry state is drawn from
    ``initial_shares``; each subsequent quarter applies one step of
    ``truth``. Interviews falling past the window are not observed.

    Parameters
    ----------
    truth : TransitionMatrix or (7, 7) array
        Row-stochastic chain driving the state dynamics.
    initial_shares : length-7 array
        Distribution of entry states; must sum to 1 within 1e-9.
    n_individuals : int
        Number of simulated respondents (>= 1).
    start_quarter : QuarterId
        First quarter of the observation window.
    n_quarters : int
        Window length in quarters (>= 1). The window may not run past
        9999.4, the last quarter a panel file can hold.
    seed : int
        Output is a deterministic function of the arguments and this seed.

    Returns
    -------
    PanelDataset
        Linked pairs, at most two per individual, sorted by person then quarter.
    """
    P = TransitionMatrix.of(truth).entries
    if P.shape[0] != N_STATES:
        raise ValueError(f"truth matrix must be {N_STATES}x{N_STATES}, got {P.shape}")
    shares = np.asarray(initial_shares, dtype=float)
    if shares.shape != (N_STATES,):
        raise ValueError(f"initial_shares must have length {N_STATES}")
    if not (shares.min() >= 0 and abs(float(shares.sum()) - 1.0) <= 1e-9):  # NaN fails too
        raise ValueError("initial_shares must be nonnegative and sum to 1 within 1e-9")
    if n_individuals < 1:
        raise ValueError("n_individuals must be >= 1")
    if n_quarters < 1:
        raise ValueError("n_quarters must be >= 1")
    if start_quarter.ordinal + n_quarters - 1 > _LAST_QUARTER.ordinal:
        raise ValueError(f"a window of {n_quarters} quarters from {start_quarter} runs past "
                         f"{_LAST_QUARTER}, the last quarter a panel file can hold")

    rng = np.random.default_rng(seed)
    n = n_individuals

    # Entry offsets leave room for the first pair whenever the window allows.
    entry = rng.integers(0, max(n_quarters - 1, 1), size=n)
    ages = rng.integers(AGE_MIN, AGE_MAX + 1, size=n)
    sexes = rng.integers(0, 2, size=n)
    citizens = rng.random(n) < 0.9
    regions = rng.choice(3, size=n, p=(0.45, 0.20, 0.35))

    n_steps = max(ROTATION_OFFSETS)
    states = np.empty((n, n_steps + 1), dtype=np.int64)
    states[:, 0] = _sample_rows(np.cumsum(shares)[None, :], rng.random(n))
    cum = np.cumsum(P, axis=1)
    for t in range(1, n_steps + 1):
        states[:, t] = _sample_rows(cum[states[:, t - 1]], rng.random(n))

    # One pair per interview spell that ends inside the window, by person then spell.
    spell_start = np.array(ROTATION_OFFSETS[::2])
    k, spell = np.nonzero(entry[:, None] + spell_start + 1 < n_quarters)
    lo = spell_start[spell]
    people, person = np.unique(k, return_inverse=True)
    width = max(len(str(n - 1)), 6)
    provenance = (
        f"synthetic panel: seed={seed}, individuals={n_individuals}, "
        f"start={start_quarter}, quarters={n_quarters}"
    )
    return PanelDataset(
        person_ids=tuple(f"P{i:0{width}d}" for i in people.tolist()),
        person=person,
        quarter=start_quarter.ordinal + entry[k] + lo,
        state_from=states[k, lo],
        state_to=states[k, lo + 1],
        age=ages[k],
        sex=sexes[k],
        citizen=citizens[k],
        region=regions[k],
        weight=np.ones(len(k)),
        provenance=provenance,
    )


def _labels(codes: np.ndarray, labels) -> list:
    """The label of each code, ``labels[code]``, as a list."""
    return np.array(labels, dtype=object)[codes].tolist()


def _in_place(path):
    """A new descriptor writing ``path`` where it stands, or None for a file to replace.

    The file behind the process's stdout or stderr is written through a copy
    of that descriptor, after what the stream already holds; a path that is
    not a regular file (a terminal, a pipe) is opened for writing.
    """
    try:
        target = os.stat(path)
    except OSError:
        return None
    for fd, stream in ((1, sys.stdout), (2, sys.stderr)):
        try:
            own = os.fstat(fd)
        except OSError:  # a closed descriptor
            continue
        if os.path.samestat(own, target):
            stream.flush()
            return os.dup(fd)
    return None if os.path.isfile(path) else os.open(path, os.O_WRONLY)


@contextlib.contextmanager
def replacing_file(path):
    """A text handle on a temporary file beside ``path``, renamed over ``path`` on success.

    A failed write leaves the target as it was and no temporary file behind;
    the paths of ``_in_place`` (own stdout or stderr, terminals, pipes) are
    written where they stand. Text is UTF-8, written as given, with no newline translation.
    """
    fd = _in_place(path)
    if fd is not None:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)  # through a symlink, the file it names is replaced
    while True:
        tmp = os.path.join(os.path.dirname(target), f".lmflows-{os.urandom(6).hex()}")
        try:
            # Mode 0o666 less the umask, applied by the kernel, as open() gives a new file.
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def write_pairs_csv(dataset: PanelDataset, path) -> None:
    """Write a dataset in the pair_rows layout. Output is byte-deterministic.

    The file is written as by ``replacing_file``: a failed write leaves ``path`` as it was.
    """
    quarters, quarter_index = np.unique(dataset.quarter, return_inverse=True)
    state_names = [s.name for s in STATE_ORDER]
    columns = (
        _labels(dataset.person, dataset.person_ids),
        _labels(quarter_index, [str(QuarterId.from_ordinal(q)) for q in quarters.tolist()]),
        _labels(quarter_index, [str(QuarterId.from_ordinal(q + 1)) for q in quarters.tolist()]),
        _labels(dataset.state_from, state_names),
        _labels(dataset.state_to, state_names),
        dataset.age.tolist(),
        _labels(dataset.sex, [s.name for s in SEX_ORDER]),
        dataset.citizen.astype(np.int8).tolist(),
        _labels(dataset.region, [r.name for r in REGION_ORDER]),
        [repr(w) for w in dataset.weight.tolist()],
    )
    with replacing_file(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(PAIR_HEADER)
        w.writerows(zip(*columns))
