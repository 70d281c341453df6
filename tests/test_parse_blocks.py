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

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmflows import csvblocks, panel
from lmflows.errors import PanelFormatError

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
    "weight": ["1.5", "", " 2 ", "650.25", "0.1", "1e3", "1_0", "١٢", "1.00000000000000000001",
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
    "weight": ["0", "-3", "nope", "nan", "inf"],
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
    if draw(st.booleans()):  # a byte order mark, before a bare first name (csv would keep a quote)
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
        admitted = panel.PanelDataset(person_ids=person_ids, provenance="", **columns)
        return panel._in_scope(admitted, rejections, n_rows)
    keep, duplicates = panel._screen_duplicates(columns, person_ids, lines)
    linked = panel._link({name: column[keep] for name, column in columns.items()}, person_ids, "")
    return panel._in_scope(linked, sorted(rejections + duplicates, key=lambda item: item[0]), n_rows)


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
    assert data.person_ids == ("A", long_id, "B")
    assert data.person.tolist() == [0, 0, 1, 2, 1]
    for block_bytes in (1, 40, csvblocks.BLOCK_BYTES):
        assert_parses_like_the_loop(raw, block_bytes, csv.field_size_limit())
