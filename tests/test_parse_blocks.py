"""The block parser against a plain row loop (``oracles.read_panel_by_loop``).

Generated pair_rows and wave_rows files mix clean rows with dirt of every
kind the parser rejects, blank and whitespace-only lines, padded,
mixed-case, non-ASCII and NUL-bearing tokens, long person ids, blank
weights, quoted fields with embedded commas, quotes and newlines, CRLF and
lone CR line ends, and files without a final newline. The block size and
the csv field limit are drawn small too, so blocks cut through quoted
fields and fields overrun the limit on both tokenizers (numpy byte split
and ``csv.reader``). Every column and its dtype, the person ids, the
rejections and the counts must equal the loop's; a file that is not UTF-8
must raise PanelFormatError naming the line of the first bad byte.
"""

import codecs
import concurrent.futures
import csv
import io
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmflows import csvblocks, panel
from lmflows.errors import EmptyCohortError, PanelFormatError
from lmflows.estimation import compute_shares, estimate_transition_matrix
from lmflows.states import AgeBand, CohortFilter, Sex

import oracles

# Tokens each field's parser takes (padded, mixed-case, long, non-ASCII and
# NUL-bearing among them) and tokens it rejects.
VALID = {
    "person": ["A", "B", "C", " A", "A ", "a", "P0000001", "P00000012", "PERSON-0000000013",
               "Zoë", "A\x00", "\x00", "", "Ünïcödé-" + "0" * 60],
    "quarter": ["2019.1", "2019.2", "2019.3", "2019.4", "2020.1"],
    "state": ["EDU", "te", "NEET", " PE ", "U", "FS", "SE", "nlfet"],
    "age": ["21", "15", "34", " 22", "+21", "14", "35", "123456789012345678901234567890"],
    "sex": ["M", "F", "f", " M"],
    "citizen": ["0", "1", " 1"],
    "region": ["NORTH", "centre", "South", " SOUTH "],
    "weight": ["1.5", "", " 2 ", "650.25", "0.1", "1e3", "1.00000000000000000001",
               "123456789.125"],
}
INVALID = {
    "person": [],
    "quarter": ["2019.5", "２０１９.1", "2019Q1", " ", "2019.1\x00"],
    "state": ["XX", "EDU\x00", ""],
    "age": ["-3", "２４", "2_4", "old", ""],
    "sex": ["X", "", "M\x00"],
    "citizen": ["2", ""],
    "region": ["EAST", "NORTH\x00", ""],
    "weight": ["0", "-3", "nope", "nan", "inf", "1_0", "١٢"],
}
PAIR_KINDS = ("person", "quarter", "quarter", "state", "state", "age", "sex", "citizen", "region",
              "weight")
WAVE_KINDS = ("person", "quarter", "state", "age", "sex", "citizen", "region", "weight")
# Now and then any short text at all.
LOOSE = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)


def quoted(text, tail=""):
    return '"' + text.replace('"', '""') + tail + '"'


@st.composite
def data_line(draw, layout):
    """A row: mostly clean, or with a field or two spoilt, or of the wrong length."""
    kinds = PAIR_KINDS if layout == "pair_rows" else WAVE_KINDS
    fields = [draw(st.sampled_from(VALID[kind])) for kind in kinds]
    if draw(st.sampled_from([True] * 4 + [False])):  # adjacent quarters
        q = draw(st.integers(0, len(VALID["quarter"]) - 2))
        fields[1:1 + (layout == "pair_rows") + 1] = VALID["quarter"][q:q + 1 + (layout == "pair_rows")]
    if draw(st.sampled_from([False] * 2 + [True])):
        for i in draw(st.sets(st.integers(0, len(kinds) - 1), min_size=1, max_size=2)):
            spoilt = INVALID[kinds[i]]
            fields[i] = draw(st.one_of(st.sampled_from(spoilt), LOOSE) if spoilt else LOOSE)
    shape = draw(st.sampled_from(["whole"] * 8 + ["short", "long"]))
    if shape == "short":
        fields = fields[:draw(st.integers(1, len(fields) - 1))]
    elif shape == "long":
        fields.append(draw(st.sampled_from(VALID["weight"])))
    style = draw(st.sampled_from(["bare"] * 5 + ["quoted", "newline"]))
    if style == "quoted":  # quotes around some fields, which may then hold commas and quotes
        fields = [quoted(f) if draw(st.booleans()) else f for f in fields]
    elif style == "newline":  # a line break (and a comma) inside one quoted field
        i = draw(st.integers(0, len(fields) - 1))
        fields[i] = quoted(fields[i], draw(st.sampled_from(["\n,", "\r\n", "\r"])))
    return ",".join(fields)


@st.composite
def panel_bytes(draw, layout):
    header = panel.PAIR_HEADER if layout == "pair_rows" else panel.WAVE_HEADER
    names = [draw(st.sampled_from([name, name, f'"{name}"'])) for name in header]
    if draw(st.booleans()):  # a byte order mark (before a quoted name: see below)
        names[0] = "\ufeff" + header[0]
    lines = [",".join(names)]
    blank = st.sampled_from(["", " ", "  \t"])
    lines += draw(st.lists(st.one_of(*[data_line(layout)] * 6, blank), max_size=30))
    ends = draw(st.lists(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    raw = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:  # a byte that is not UTF-8, somewhere after the header
        at = draw(st.integers(len(lines[0].encode()) + 1, max(len(raw), len(lines[0].encode()) + 1)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


def expected(path):
    """What the row loop reads, put through the package's (unchanged) linkage and scope filter."""
    layout, person_ids, table, lines, rejections, n_rows = oracles.read_panel_by_loop(path)
    columns = {name: np.array(values, dtype=panel._DTYPES[name]) for name, values in table.items()}
    if layout == "pair_rows":
        return panel._in_scope(columns, person_ids, "", rejections, n_rows)
    columns, duplicates = oracles.link_by_rank(columns, person_ids, lines)
    return panel._in_scope(columns, person_ids, "",
                           sorted(rejections + duplicates, key=lambda item: item[0]), n_rows)


def first_bad_line(raw):
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = raw[:exc.start]
        return 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
    return None


def assert_parses_like_the_loop(raw, block_bytes, field_limit):
    saved_block, saved_limit = csvblocks.BLOCK_BYTES, csv.field_size_limit()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        path.write_bytes(raw)
        csvblocks.BLOCK_BYTES = block_bytes
        csv.field_size_limit(field_limit)
        try:
            bad_line = first_bad_line(raw)
            if bad_line is not None:
                with pytest.raises(UnicodeDecodeError):
                    oracles.read_panel_by_loop(path)
                with pytest.raises(PanelFormatError, match=f"{path}: line {bad_line} is not UTF-8"):
                    panel.parse_panel_file(path)
                return
            want_data, want_report = expected(path)
            data, report = panel.parse_panel_file(path)
        finally:
            csvblocks.BLOCK_BYTES = saved_block
            csv.field_size_limit(saved_limit)
    assert data.person_ids == want_data.person_ids
    for name in panel._COLUMNS:
        got, want = getattr(data, name), getattr(want_data, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert report == want_report
    assert all(type(line) is int for line, _ in report.rejections)


sizes = st.sampled_from([1, 7, 32, 100, csvblocks.BLOCK_BYTES])
limits = st.sampled_from([csv.field_size_limit(), 12, 16])


@settings(max_examples=100, deadline=None)
@given(raw=panel_bytes("pair_rows"), block_bytes=sizes, field_limit=limits)
def test_pair_rows_parse_like_the_row_loop(raw, block_bytes, field_limit):
    assert_parses_like_the_loop(raw, block_bytes, field_limit)


@settings(max_examples=100, deadline=None)
@given(raw=panel_bytes("wave_rows"), block_bytes=sizes, field_limit=limits)
def test_wave_rows_parse_like_the_row_loop(raw, block_bytes, field_limit):
    assert_parses_like_the_loop(raw, block_bytes, field_limit)


PAIR_HEAD = ",".join(panel.PAIR_HEADER)


@pytest.fixture
def read_by_csv(monkeypatch):
    """The blocks handed to ``_csv_records``, in order."""
    read = []
    csv_records = csvblocks._csv_records
    monkeypatch.setattr(csvblocks, "_csv_records",
                        lambda data, *args: read.append(data) or csv_records(data, *args))
    return read


@pytest.mark.parametrize("block_bytes", [1, 20, 45, 60, csvblocks.BLOCK_BYTES])
def test_quoted_newline_across_a_block_boundary(block_bytes):
    text = (PAIR_HEAD + "\n"
            "A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1\n"
            '"B\nstill B",2019.1,2019.2,EDU,TE,21,F,1,"SOU\r\nTH",1\r\n'
            "C,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1\n"
            '"D",2019.1,2019.2,"EDU",TE,21,F,1,NORTH,')
    assert_parses_like_the_loop(text.encode(), block_bytes, csv.field_size_limit())


def test_nul_ended_tokens_are_not_their_prefixes(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes((PAIR_HEAD + "\n"
                      "A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1\n"
                      "A\x00,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1\n"
                      "B,2019.1,2019.2,EDU,TE,21,F,1,NORTH\x00,1\n"
                      "C,2019.1,2019.2,EDU,TE,21,F,1,NORTH,1\n").encode())
    data, report = panel.parse_panel_file(path)
    assert data.person_ids == ("A", "A\x00", "C")
    assert report.rejections == (
        (4, "invalid region 'NORTH\\x00' (expected NORTH, CENTRE or SOUTH)"),)
    assert_parses_like_the_loop(path.read_bytes(), 16, csv.field_size_limit())


def test_ids_padded_or_long_share_codes_by_stripped_text(tmp_path):
    long_id = "L" * 70
    rows = [" A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1", "A ,2019.2,2019.3,EDU,TE,21,F,1,SOUTH,1",
            f"{long_id},2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1", "B,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1",
            f" {long_id},2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1"]
    raw = (PAIR_HEAD + "\n" + "\n".join(rows) + "\n").encode()
    path = tmp_path / "p.csv"
    path.write_bytes(raw)
    data, _ = panel.parse_panel_file(path)
    assert data.person_ids == ("A", "B", long_id)
    assert data.person.tolist() == [0, 0, 2, 1, 2]
    for block_bytes in (1, 40, csvblocks.BLOCK_BYTES):
        assert_parses_like_the_loop(raw, block_bytes, csv.field_size_limit())


@pytest.mark.parametrize("header,end,by_csv", [
    (PAIR_HEAD, "\n", False),
    ('"person_id"' + PAIR_HEAD[len("person_id"):], "\n", True),
    ('"' + PAIR_HEAD.replace(",", '","') + '"', "\n", True),
    (PAIR_HEAD, "\r\n", False),
    (PAIR_HEAD, "\r", True),
], ids=["bare", "first-quoted", "all-quoted", "bare-crlf", "bare-cr"])
@pytest.mark.parametrize("block_bytes", [1, csvblocks.BLOCK_BYTES])
def test_byte_order_mark_before_the_header(tmp_path, monkeypatch, read_by_csv, header, end, by_csv,
                                            block_bytes):
    """A leading byte order mark is dropped before either tokenizer reads the header."""
    raw = ("\ufeff" + header + end + "A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1" + end).encode()
    path = tmp_path / "p.csv"
    path.write_bytes(raw)
    monkeypatch.setattr(csvblocks, "BLOCK_BYTES", block_bytes)
    data, report = panel.parse_panel_file(path)
    assert data.provenance.startswith("pair_rows:")
    assert data.person_ids == ("A",) and report.rejections == ()
    assert bool(read_by_csv) == by_csv
    assert all(not block.startswith(codecs.BOM_UTF8) for block in read_by_csv)
    assert_parses_like_the_loop(raw, block_bytes, csv.field_size_limit())


def wave_text(rows):
    return "".join(line + "\n" for line in [",".join(panel.WAVE_HEADER), *rows])


# Ids that strip changes or may change (ASCII and Unicode whitespace at either
# end, a separator, a non-ASCII first byte), NUL-ended ids, ids over 64 bytes.
ODD_IDS = [" A", "A　", "A\x1c", "\x85A", "Ä", "A\x00", "\x00", "L" * 70, " " + "L" * 64]


# Ids that sort differently by their little-endian keys and by code point,
# and ids of 9 to 64 bytes, which make the keys S<n>; the ASCII ones leave
# an id that is only set aside to be ranked with ids strip cannot change.
PLAIN_IDS = {"short": ["B", "A", "ß", "AB", "A\x00B", "Z", "BA"],
             "wide": ["B", "A", "ß", "L" * 64, "L" * 63 + "M", "Z", "A "],
             "ascii": ["B", "A", "AB", "A\x00B", "Z", "BA", "L" * 9]}


@pytest.mark.parametrize("odd", ODD_IDS, ids=ascii)
@pytest.mark.parametrize("plain", PLAIN_IDS)
@pytest.mark.parametrize("block_bytes", [64, csvblocks.BLOCK_BYTES])
def test_ids_read_from_the_parse_are_the_loops(tmp_path, monkeypatch, odd, plain, block_bytes):
    """person_ids, the pairs' order by id and the written pairs are the loop's."""
    people = PLAIN_IDS[plain][:1] + [odd] + PLAIN_IDS[plain][1:]
    rows = [f"{pid},{q},{s},21,F,1,SOUTH,1.5" for pid in people
            for q, s in (("2019.1", "EDU"), ("2019.2", "TE"))]
    # Out of id order, with an agreeing and a conflicting repeat.
    rows = rows[5:] + rows[:5] + [rows[2], rows[0].replace("EDU", "U")]
    path = tmp_path / "w.csv"
    path.write_bytes(wave_text(rows).encode())
    layout, person_ids, table, lines, rejections, n_rows = oracles.read_panel_by_loop(path)
    pairs, duplicates = oracles.link_by_loop(table, person_ids, lines)
    monkeypatch.setattr(csvblocks, "BLOCK_BYTES", block_bytes)
    data, report = panel.parse_panel_file(path)
    assert data.person_ids == person_ids
    for name in panel._COLUMNS:
        assert getattr(data, name).tolist() == pairs[name], name
    assert report.rejections == tuple(sorted(rejections + duplicates))
    want = panel.PanelDataset(person_ids=person_ids, provenance="", **pairs)
    panel.write_pairs_csv(data, tmp_path / "got.csv")
    panel.write_pairs_csv(want, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_a_clean_file_is_parsed_without_decoding_its_ids(tmp_path, monkeypatch):
    """Ids are numbered from their keys, and decoded only when read."""
    n = 3000
    pairs = [",".join(panel.PAIR_HEADER)] + [
        f"P{i:05d},2020.{1 + i % 3},2020.{2 + i % 3},EDU,TE,{15 + i % 25},F,1,NORTH,{i}.25"
        for i in range(n)]
    waves = [f"P{i // 2:05d},2020.{1 + i % 2},EDU,{15 + i % 20},M,0,SOUTH,{i}.5" for i in range(n)]
    (tmp_path / "p.csv").write_text("\n".join(pairs) + "\n", encoding="utf-8")
    (tmp_path / "w.csv").write_text(wave_text(waves[::-1]), encoding="utf-8")

    def refuse(*args):
        raise AssertionError("an id was decoded")

    monkeypatch.setattr(csvblocks, "BLOCK_BYTES", 4096)
    monkeypatch.setattr(csvblocks._Table, "_texts", refuse)
    got = [panel.parse_panel_file(tmp_path / name) for name in ("p.csv", "w.csv")]
    monkeypatch.undo()
    (pair_data, pair_report), (wave_data, wave_report) = got
    assert pair_report.n_age_filtered == n * 5 // 25 and pair_report.rejections == ()
    assert pair_data.person_ids == tuple(f"P{i:05d}" for i in range(n))  # age-filtered too
    assert wave_report.rejections == () and len(wave_data) == n // 2
    ids = tuple(f"P{i:05d}" for i in range(n // 2))
    assert wave_data.person_ids == ids
    assert [wave_data.person_ids[p] for p in wave_data.person.tolist()] == list(ids)


@pytest.mark.parametrize("block_bytes", [64, 1000, csvblocks.BLOCK_BYTES])
def test_crlf_parses_as_its_lf_original_by_the_numpy_split(tmp_path, monkeypatch, read_by_csv, block_bytes):
    rows = ["A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1", "", "  ",
            "B,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,", "C,2019.1,2019.3,EDU,TE,21,F,1,SOUTH,1",
            "Zoë,2019.2,2019.3,NEET,U,40,M,0,NORTH,2.5", "D,2019.1", ",,,,,,,,,", "",
            "E,2019.1,2019.2,EDU,TE,21,X,1,SOUTH ,1", " F ,2019.3,2019.4,SE,SE,34,F,0,centre,1e3"]
    lf = ("\n".join([PAIR_HEAD] + rows * 3) + "\n").encode()
    crlf = lf.replace(b"\n", b"\r\n")
    monkeypatch.setattr(csvblocks, "BLOCK_BYTES", block_bytes)
    got = {}
    for name, raw in (("lf", lf), ("crlf", crlf), ("crlf-open", crlf[:-2])):
        (tmp_path / name).write_bytes(raw)
        got[name] = panel.parse_panel_file(tmp_path / name)
    assert read_by_csv == []
    data, report = got["lf"]
    assert (len(data), report.n_age_filtered, len(report.rejections)) == (9, 3, 15)
    for other, other_report in (got["crlf"], got["crlf-open"]):
        assert other.person_ids == data.person_ids
        for name in panel._COLUMNS:
            assert np.array_equal(getattr(other, name), getattr(data, name)), name
        assert other_report == report
    lone = crlf.replace(b"\r\n", b"\r", 1)  # a lone carriage return ends the header
    monkeypatch.undo()
    assert_parses_like_the_loop(lone, block_bytes, csv.field_size_limit())


def test_a_cr_only_file_is_read_a_block_at_a_time(tmp_path, monkeypatch, read_by_csv):
    """Lines ended by a lone carriage return are cut into blocks as LF lines are."""
    rows = [f"P{i},2019.{1 + i % 3},2019.{2 + i % 3},EDU,TE,{20 + i % 5},F,1,SOUTH,{i}.5"
            for i in range(30)] + ["", "D,2019.1", "E,2019.1,2019.2,EDU,TE,21,X,1,SOUTH,1"]
    lf = ("\n".join([PAIR_HEAD] + rows) + "\n").encode()
    cr = lf.replace(b"\n", b"\r")
    monkeypatch.setattr(csvblocks, "BLOCK_BYTES", 64)
    (tmp_path / "lf").write_bytes(lf)
    (tmp_path / "cr").write_bytes(cr)
    data, report = panel.parse_panel_file(tmp_path / "lf")
    assert read_by_csv == []
    got, got_report = panel.parse_panel_file(tmp_path / "cr")
    assert len(read_by_csv) > 1 and b"".join(read_by_csv) == cr
    assert got.person_ids == data.person_ids
    for name in panel._COLUMNS:
        assert np.array_equal(getattr(got, name), getattr(data, name)), name
    assert got_report == report and len(report.rejections) == 2
    monkeypatch.undo()
    assert_parses_like_the_loop(cr, 64, csv.field_size_limit())


@pytest.mark.parametrize("block_bytes", range(1, 24))
def test_blocks_end_at_line_ends_and_never_inside_a_crlf(block_bytes, monkeypatch):
    """Every block but the last ends after a line end; a chunk read that ends
    on the \\r of a \\r\\n, as one does at sizes 1, 2, 4 and 11, is not cut there."""
    raw = b"h\r\nA\rB\r\n\rC\nD\r\r\nE"
    monkeypatch.setattr(csvblocks, "BLOCK_BYTES", block_bytes)
    blocks = list(csvblocks._blocks(io.BytesIO(raw)))
    assert b"".join(blocks) == raw
    for block, after in zip(blocks, blocks[1:]):
        assert block.endswith(b"\n") or (block.endswith(b"\r") and not after.startswith(b"\n"))


@pytest.mark.parametrize("block_bytes", [16, 64, 100, 1000])
def test_a_quoted_block_then_quote_free_blocks(monkeypatch, read_by_csv, block_bytes):
    """Only the block holding the quotes, and those its quoted field runs
    into, are read by csv.reader; the batches after it are numbered on from
    its last record, which ends the line after the quoted newline."""
    rows = [f"P{i},2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1" for i in range(12)]
    rows[1] = '"Q\nstill Q",2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1'
    raw = "".join(line + "\n" for line in [PAIR_HEAD, *rows]).encode()
    reader = csv.reader(io.StringIO(raw.decode(), newline=""))
    want = [(reader.line_num, row) for row in reader]
    assert [line for line, _ in want] == [1, 2, 4, *range(5, 15)]
    monkeypatch.setattr(csvblocks, "BLOCK_BYTES", block_bytes)
    batches = list(csvblocks.record_batches(io.BytesIO(raw), "p.csv", csv.field_size_limit()))
    assert len(read_by_csv) == 1 and b'"' in read_by_csv[0]
    assert [(line, records.fields(r)) for records in batches
            for r, line in enumerate(records.line.tolist())] == want


# Records set apart before any field is read: too few and too many fields,
# blank and whitespace-only lines, and a field past the csv limit (16 here).
SET_APART = {"short": "S,2019.1,2019.2", "wide": "W,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1,9",
             "blank": "", "space": "  ", "over-long": "O" * 20 + ",2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1"}
# Kinds side by side, and between clean rows.
LAYOUT = ["clean", "short", "blank", "over-long", "clean", "wide", "space", "short", "clean",
          "blank", "clean", "over-long", "wide", "clean", "space", "blank", "wide", "over-long",
          "space", "short", "clean"]


@pytest.mark.parametrize("quoted", [False, True], ids=["numpy-split", "some-by-csv-reader"])
def test_field_ranges_around_records_set_apart(quoted):
    """A block's rows of the header's field count are read from a compress of
    its field ranges; records set apart first in a block, last in a block
    and side by side must not shift the ranges of the rows around them."""
    lines = [SET_APART[kind] if kind in SET_APART else
             (f'"C{i}"' if quoted and i % 2 else f"C{i}") + f",2019.1,2019.2,EDU,TE,2{i % 10},F,1,SOUTH,1.5"
             for i, kind in enumerate(LAYOUT)]
    raw = "".join(line + "\n" for line in [PAIR_HEAD, *lines]).encode()
    kind_of = dict(zip(lines, LAYOUT))
    seen = set()
    for block_bytes in range(16, 160):
        assert_parses_like_the_loop(raw, block_bytes, 16)
        csvblocks.BLOCK_BYTES, saved = block_bytes, csvblocks.BLOCK_BYTES
        try:
            blocks = [block.decode().split("\n")[:-1] for block in csvblocks._blocks(io.BytesIO(raw))]
        finally:
            csvblocks.BLOCK_BYTES = saved
        for block in blocks:
            seen |= {("first", kind_of.get(block[0])), ("last", kind_of.get(block[-1]))}
    assert {(end, kind) for end in ("first", "last") for kind in SET_APART} <= seen


# Characters of person ids: ASCII, whitespace and a separator that strip
# removes at either end (ASCII, NEL, ideographic space, 0x1c), NUL, and
# letters of 2 and 3 UTF-8 bytes.
ID_CHARS = ["A", "b", "Z", "0", " ", "\t", "\x1c", "\x85", "　", "\x00", "Ä", "ß", "日"]
# Ids strip cannot change: an ASCII letter or digit at each end, up to 32 bytes.
PLAIN_ID = st.one_of(st.sampled_from("AbZ0"), st.builds(
    lambda head, middle, tail: head + middle + tail, st.sampled_from("AbZ0"),
    st.text(st.sampled_from(ID_CHARS), max_size=10), st.sampled_from("AZ0")))
# Ids that may begin or end in any of them, or in NUL, and ids of 63 to 71
# bytes, either side of the 64 past which an id is set aside.
ODD_ID = st.one_of(st.text(st.sampled_from(ID_CHARS), max_size=4),
                   st.text(st.sampled_from(ID_CHARS), min_size=1, max_size=3).map(lambda t: "L" * 62 + t))
FIRST = panel.QuarterId(2019, 1)


@st.composite
def id_panels(draw, layout):
    """A clean file of few people, some with odd ids (in about half the files),
    some rows out of the age scope and some rejected for their age."""
    ids = st.one_of(PLAIN_ID, ODD_ID) if draw(st.booleans()) else PLAIN_ID
    people = draw(st.lists(ids, min_size=1, max_size=8, unique=True))
    rows = draw(st.lists(st.tuples(st.sampled_from(people), st.integers(0, 3),
                                   st.sampled_from(["EDU", "TE", "U"]),
                                   st.sampled_from(["21", "30", "14", "35", "XX"])), max_size=30))
    if layout == "pair_rows":
        body = [f"{pid},{FIRST.plus(q)},{FIRST.plus(q + 1)},{s},TE,{age},F,1,SOUTH,1"
                for pid, q, s, age in rows]
    else:
        body = [f"{pid},{FIRST.plus(q)},{s},{age},F,1,SOUTH,1" for pid, q, s, age in rows]
    header = panel.PAIR_HEADER if layout == "pair_rows" else panel.WAVE_HEADER
    return "".join(line + "\n" for line in [",".join(header), *body])


def numbered(data, person_first):
    """(person_ids, person as a list), the one ``person_first`` names read first."""
    if person_first:
        person = data.person.tolist()
        return data.person_ids, person
    person_ids = data.person_ids
    return person_ids, data.person.tolist()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), layout=st.sampled_from(["pair_rows", "wave_rows"]),
       block_bytes=st.sampled_from([64, csvblocks.BLOCK_BYTES]), person_first=st.booleans())
def test_ids_are_numbered_in_code_point_order_when_read(data, layout, block_bytes, person_first):
    """person_ids and person are the loop's code-point numbering, read
    right after the parse or after every cell has been estimated; and no
    cell's shares or matrix decode an id."""
    text = data.draw(id_panels(layout))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        path.write_text(text, encoding="utf-8")
        _, person_ids, table, lines, _, _ = oracles.read_panel_by_loop(path)
        if layout == "wave_rows":
            table, _ = oracles.link_by_loop(table, person_ids, lines)
        person = [p for p, age in zip(table["person"], table["age"]) if 15 <= age <= 34]
        saved, csvblocks.BLOCK_BYTES = csvblocks.BLOCK_BYTES, block_bytes
        try:
            read_now, _ = panel.parse_panel_file(path)
            read_later, _ = panel.parse_panel_file(path)
        finally:
            csvblocks.BLOCK_BYTES = saved
    assert numbered(read_now, person_first) == (person_ids, person)

    def refuse(self, ranks):
        raise AssertionError("an id was decoded")

    texts, csvblocks.PersonTable.texts = csvblocks.PersonTable.texts, refuse
    try:
        for quarter in (FIRST.plus(q) for q in range(4)):
            for cohort in (CohortFilter(), CohortFilter(age_band=AgeBand.LATE_YOUNG, sex=Sex.F)):
                try:
                    compute_shares(read_later, quarter, cohort)
                    estimate_transition_matrix(read_later, quarter, cohort, min_support=0.0)
                except EmptyCohortError:
                    pass
    finally:
        csvblocks.PersonTable.texts = texts
    assert numbered(read_later, person_first) == (person_ids, person)


@pytest.mark.parametrize("people", [["P2", "P10", "B", "A"], ["Zoë", " A", "L" * 70, "A", "A\x00"]],
                         ids=["plain", "odd"])
@pytest.mark.parametrize("layout", ["pair_rows", "wave_rows"])
def test_person_is_a_column_of_code_point_ranks(tmp_path, monkeypatch, people, layout):
    """A parse numbers the ids once: person is a read-only int64 column of
    the loop's codes, and reading it decodes no id."""
    if layout == "pair_rows":
        rows = [PAIR_HEAD] + [f"{pid},2019.{q},2019.{q + 1},EDU,TE,21,F,1,SOUTH,1"
                              for q in (2, 1) for pid in people]
    else:
        body = [f"{pid},2019.{q},EDU,21,F,1,SOUTH,1" for q in (2, 1, 3) for pid in people]
        rows = [",".join(panel.WAVE_HEADER), *body, body[0]]  # a repeat's text decodes its id
    path = tmp_path / "panel.csv"
    path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    _, person_ids, table, lines, _, _ = oracles.read_panel_by_loop(path)
    if layout == "wave_rows":
        table, _ = oracles.link_by_loop(table, person_ids, lines)
    data, _ = panel.parse_panel_file(path)

    def refuse(self, ranks):
        raise AssertionError("an id was decoded")

    monkeypatch.setattr(csvblocks.PersonTable, "texts", refuse)
    person = data.person
    assert person.dtype == np.int64 and not person.flags.writeable
    assert person.tolist() == table["person"]
    monkeypatch.undo()
    assert data.person_ids == person_ids


def test_threads_reading_the_ids_of_one_parse_agree(tmp_path):
    """The first reads of person and person_ids race: every thread must see
    codes with the ids they index."""
    n = 3000
    rows = [f"{'BA'[i % 2]}{(i * 7919) % n:05d},2020.1,2020.2,EDU,TE,21,F,1,NORTH,1" for i in range(n)]
    path = tmp_path / "p.csv"
    path.write_text("\n".join([PAIR_HEAD, *rows, *rows[::-3]]) + "\n", encoding="utf-8")
    _, person_ids, table, _, _, _ = oracles.read_panel_by_loop(path)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            data, _ = panel.parse_panel_file(path)
            start = threading.Barrier(8)

            def read(k):
                start.wait(timeout=60)
                return numbered(data, k % 2 == 0)

            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                results = [future.result(timeout=60) for future in
                           [pool.submit(read, k) for k in range(8)]]
            assert all(result == (person_ids, table["person"]) for result in results)
    finally:
        sys.setswitchinterval(switch)
