import csv
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmflows import panel
from lmflows.errors import PanelFormatError
from lmflows.fixtures import get_fixture
from lmflows.panel import (
    PAIR_HEADER,
    WAVE_HEADER,
    ObservationPair,
    generate_synthetic_panel,
    parse_panel_file,
    write_pairs_csv,
)
from lmflows.states import Demographics, LaborState, MacroRegion, QuarterId, Sex

import oracles

PAIR_HEAD = ",".join(PAIR_HEADER)
WAVE_HEAD = ",".join(WAVE_HEADER)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def demo(age=22):
    return Demographics(age_at_first_wave=age, sex=Sex.M, italian_citizen=True,
                        macro_region=MacroRegion.NORTH)


class TestPairRowsParsing:
    def test_minimal_file(self, tmp_path):
        path = write(tmp_path, "p.csv", PAIR_HEAD + "\n"
                     "A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1.5\n"
                     "B,2019.4,2020.1,U,U,29,M,0,NORTH,2.0\n")
        data, report = parse_panel_file(path)
        assert len(data) == 2
        assert report.rejections == ()
        assert report.n_rows == 2
        p = data.pairs[0]
        assert p.person_id == "A"
        assert p.state_from is LaborState.EDU
        assert p.state_to is LaborState.TE
        assert p.quarter_from == QuarterId(2019, 1)
        assert p.quarter_to == QuarterId(2019, 2)
        assert p.weight == 1.5
        assert p.demographics.sex is Sex.F
        assert data.quarter_range == (QuarterId(2019, 1), QuarterId(2020, 1))

    def test_blank_weight_defaults_to_one(self, tmp_path):
        path = write(tmp_path, "p.csv", PAIR_HEAD + "\n"
                     "A,2019.1,2019.2,EDU,EDU,21,F,1,SOUTH,\n")
        data, _ = parse_panel_file(path)
        assert data.pairs[0].weight == 1.0

    @pytest.mark.parametrize("row,reason_part", [
        ("A,2019.1,2019.2,XX,TE,21,F,1,SOUTH,1", "state"),
        ("A,2019.1,2019.3,EDU,TE,21,F,1,SOUTH,1", "adjacent"),
        ("A,2019.5,2019.2,EDU,TE,21,F,1,SOUTH,1", "quarter"),
        ("A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,0", "weight"),
        ("A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,-3", "weight"),
        ("A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,nope", "weight"),
        ("A,2019.1,2019.2,EDU,TE,21,X,1,SOUTH,1", "sex"),
        ("A,2019.1,2019.2,EDU,TE,21,F,2,SOUTH,1", "citizen"),
        ("A,2019.1,2019.2,EDU,TE,21,F,1,EAST,1", "region"),
        ("A,2019.1,2019.2,EDU,TE,old,F,1,SOUTH,1", "age"),
        ("A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH", "field count"),
        ("A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1,extra", "field count"),
    ])
    def test_rejections_name_line_and_reason(self, tmp_path, row, reason_part):
        path = write(tmp_path, "p.csv", PAIR_HEAD + "\n"
                     "OK,2019.1,2019.2,EDU,EDU,21,F,1,SOUTH,1\n" + row + "\n")
        data, report = parse_panel_file(path)
        assert len(data) == 1
        assert len(report.rejections) == 1
        line, reason = report.rejections[0]
        assert line == 3
        assert reason_part in reason

    @pytest.mark.parametrize("row,reason", [
        ("A,２０１９.1,2019.2,EDU,TE,21,F,1,SOUTH,1", "invalid quarter '２０１９.1' (expected YYYY.Q)"),
        ("A,2019.1,2019.２,EDU,TE,21,F,1,SOUTH,1", "invalid quarter '2019.２' (expected YYYY.Q)"),
        ("A,2019.1,2019.2,EDU,TE,２４,F,1,SOUTH,1", "invalid age '２４'"),
        ("A,2019.1,2019.2,EDU,TE,2_4,F,1,SOUTH,1", "invalid age '2_4'"),
        ("A,2019.1,2019.2,EDU,TE,-3,F,1,SOUTH,1", "invalid age -3 (negative)"),
    ], ids=["fullwidth-year", "fullwidth-quarter", "fullwidth-age", "underscore-age", "negative-age"])
    def test_quarters_and_ages_take_ascii_digits_only(self, tmp_path, row, reason):
        path = write(tmp_path, "p.csv", PAIR_HEAD + "\n" + row + "\n")
        data, report = parse_panel_file(path)
        assert len(data) == 0
        assert report.rejections == ((2, reason),)

    @pytest.mark.parametrize("token,weight", [
        ("1.5", 1.5), ("650.25", 650.25), ("5.", 5.0), (".5", 0.5), ("007.50", 7.5),
        (" 2 ", 2.0), ("1e3", 1000.0), ("1E-2", 0.01), ("2.5e+1", 25.0), (".5e1", 5.0),
        ("1.00000000000000000001", 1.0), ("", 1.0),
    ])
    def test_weight_grammar_admits(self, tmp_path, token, weight):
        path = write(tmp_path, "p.csv", PAIR_HEAD + "\n"
                     f"A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,{token}\n")
        data, report = parse_panel_file(path)
        assert report.rejections == ()
        assert data.weight.tolist() == [weight]

    @pytest.mark.parametrize("token,reason", [
        # float() reads these, but they are not ASCII decimal
        ("1_000", "invalid weight '1_000'"),
        ("２.5", "invalid weight '２.5'"),
        ("١٢", "invalid weight '١٢'"),
        ("+5", "invalid weight '+5'"),
        (" +5 ", "invalid weight ' +5 '"),
        # refused as before, with the same reasons
        ("1e", "invalid weight '1e'"),
        ("n/a", "invalid weight 'n/a'"),
        ("0", "nonpositive weight 0"),
        ("0.00", "nonpositive weight 0.00"),
        ("000", "nonpositive weight 000"),
        ("-3.5", "nonpositive weight -3.5"),
        ("nan", "nonpositive weight nan"),
        ("inf", "nonpositive weight inf"),
        ("1e400", "nonpositive weight 1e400"),
    ])
    def test_weight_grammar_rejects(self, tmp_path, token, reason):
        path = write(tmp_path, "p.csv", PAIR_HEAD + "\n"
                     f"A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,{token}\n")
        wave_path = write(tmp_path, "w.csv", WAVE_HEAD + "\n"
                          f"A,2019.1,EDU,21,F,1,SOUTH,{token}\n")
        for p in (path, wave_path):
            data, report = parse_panel_file(p)
            assert len(data) == 0
            assert report.rejections == ((2, reason),)

    def test_repeated_bad_token_rejected_on_every_line(self, tmp_path):
        # Tokens are parsed once and memoised; a failing token must not be.
        path = write(tmp_path, "p.csv", PAIR_HEAD + "\n"
                     "A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1\n"
                     "B,2019.1,2019.2,EDU,XX,21,F,1,SOUTH,1\n"
                     "C,2019.1,2019.2,EDU,TE,+21,F,1,SOUTH,1\n"
                     "D,2019.1,2019.2,EDU,XX,21,F,1,SOUTH,1\n")
        data, report = parse_panel_file(path)
        assert [p.person_id for p in data.pairs] == ["A", "C"]
        assert report.rejections == ((3, "unknown state code 'XX'"), (5, "unknown state code 'XX'"))

    def test_out_of_scope_ages_filtered_not_rejected(self, tmp_path):
        path = write(tmp_path, "p.csv", PAIR_HEAD + "\n"
                     "A,2019.1,2019.2,U,U,14,F,1,SOUTH,1\n"
                     "B,2019.1,2019.2,U,U,35,F,1,SOUTH,1\n"
                     "C,2019.1,2019.2,U,U,34,F,1,SOUTH,1\n")
        data, report = parse_panel_file(path)
        assert len(data) == 1
        assert report.rejections == ()
        assert report.n_age_filtered == 2

    def test_huge_age_is_out_of_scope(self, tmp_path):
        path = write(tmp_path, "p.csv", PAIR_HEAD + "\n"
                     "A,2019.1,2019.2,U,U,123456789012345678901234567890,F,1,SOUTH,1\n")
        wave_path = write(tmp_path, "w.csv", WAVE_HEAD + "\n"
                          "A,2019.1,U,123456789012345678901234567890,F,1,SOUTH,1\n"
                          "A,2019.2,U,21,F,1,SOUTH,1\n")
        for p in (path, wave_path):
            data, report = parse_panel_file(p)
            assert len(data) == 0
            assert report.rejections == ()
            assert report.n_age_filtered == 1

    def test_report_csv_layout(self, tmp_path):
        path = write(tmp_path, "p.csv", PAIR_HEAD + "\n"
                     "A,2019.1,2019.2,XX,TE,21,F,1,SOUTH,1\n")
        _, report = parse_panel_file(path)
        text = report.to_csv()
        lines = text.splitlines()
        assert lines[0] == "line_number,reason"
        assert lines[1].startswith("2,")

    def test_empty_file_is_fatal(self, tmp_path):
        path = write(tmp_path, "p.csv", "")
        with pytest.raises(PanelFormatError):
            parse_panel_file(path)

    def test_unknown_header_is_fatal(self, tmp_path):
        path = write(tmp_path, "p.csv", "a,b,c\n1,2,3\n")
        with pytest.raises(PanelFormatError):
            parse_panel_file(path)

    def test_missing_file_is_fatal(self, tmp_path):
        with pytest.raises(PanelFormatError):
            parse_panel_file(tmp_path / "absent.csv")

    @pytest.mark.parametrize("quoted", [False, True], ids=["byte-split", "csv-reader"])
    def test_invalid_utf8_names_path_and_line(self, tmp_path, quoted):
        path = tmp_path / "p.csv"
        second = '"A",2019.1' if quoted else "A,2019.1"
        path.write_bytes(PAIR_HEAD.encode() + b"\n" + second.encode()
                         + b",2019.2,EDU,TE,21,F,1,SOUTH,1\nB\xff,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1\n")
        with pytest.raises(PanelFormatError) as info:
            parse_panel_file(path)
        assert str(info.value) == (f"{path}: line 3 is not UTF-8 text "
                                   "(invalid start byte: byte 0xff)")

    @pytest.mark.parametrize("quoted", [False, True], ids=["byte-split", "csv-reader"])
    def test_over_long_field_rejects_its_line(self, tmp_path, quoted):
        limit = csv.field_size_limit()
        long_id = "X" * (limit + 1)
        fits = "Y" * limit
        if quoted:
            long_id, fits = f'"{long_id}"', f'"{fits}"'
        path = write(tmp_path, "p.csv", PAIR_HEAD + "\n"
                     + long_id + ",2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1\n"
                     + fits + ",2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1\n"
                     + long_id + "\n")
        data, report = parse_panel_file(path)
        assert report.rejections == ((2, f"field longer than {limit} characters"),
                                     (4, f"field longer than {limit} characters"))
        assert report.n_rows == 3
        assert data.person_ids == ("Y" * limit,)
        assert csv.field_size_limit() == limit

    def test_over_long_header_field_is_fatal(self, tmp_path):
        path = write(tmp_path, "p.csv", "x" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(PanelFormatError, match="longer than"):
            parse_panel_file(path)


class TestWaveRowsParsing:
    def test_linkage_from_file(self, tmp_path):
        path = write(tmp_path, "w.csv", WAVE_HEAD + "\n"
                     "A,2019.1,EDU,21,F,1,SOUTH,1.0\n"
                     "A,2019.2,TE,21,F,1,SOUTH,1.0\n"
                     "A,2020.1,TE,22,F,1,SOUTH,1.0\n"
                     "A,2020.2,PE,22,F,1,SOUTH,1.0\n")
        data, report = parse_panel_file(path)
        assert report.n_pairs == 2
        moves = [(str(p.quarter_from), p.state_from.name, p.state_to.name) for p in data.pairs]
        assert moves == [("2019.1", "EDU", "TE"), ("2020.1", "TE", "PE")]

    def test_duplicate_waves_same_state_keep_first(self, tmp_path):
        path = write(tmp_path, "w.csv", WAVE_HEAD + "\n"
                     "A,2019.1,EDU,21,F,1,SOUTH,1.0\n"
                     "A,2019.1,EDU,21,F,1,SOUTH,1.0\n"
                     "A,2019.2,TE,21,F,1,SOUTH,1.0\n")
        data, report = parse_panel_file(path)
        assert len(data) == 1
        assert len(report.rejections) == 1
        assert "duplicate" in report.rejections[0][1]

    def test_non_ascii_digits_rejected(self, tmp_path):
        path = write(tmp_path, "w.csv", WAVE_HEAD + "\n"
                     "A,２０１９.1,EDU,21,F,1,SOUTH,1.0\n"
                     "A,2019.2,TE,２１,F,1,SOUTH,1.0\n")
        data, report = parse_panel_file(path)
        assert len(data) == 0
        assert report.rejections == ((2, "invalid quarter '２０１９.1' (expected YYYY.Q)"),
                                     (3, "invalid age '２１'"))

    def test_duplicate_waves_conflicting_states_reject_all(self, tmp_path):
        path = write(tmp_path, "w.csv", WAVE_HEAD + "\n"
                     "A,2019.1,EDU,21,F,1,SOUTH,1.0\n"
                     "A,2019.1,U,21,F,1,SOUTH,1.0\n"
                     "A,2019.2,TE,21,F,1,SOUTH,1.0\n")
        data, report = parse_panel_file(path)
        assert len(data) == 0
        assert len(report.rejections) == 2
        assert all("conflicting" in r for _, r in report.rejections)

    def test_demographics_come_from_first_wave(self, tmp_path):
        path = write(tmp_path, "w.csv", WAVE_HEAD + "\n"
                     "A,2019.4,EDU,24,M,1,NORTH,3.0\n"
                     "A,2020.1,TE,25,M,1,NORTH,9.0\n")
        data, _ = parse_panel_file(path)
        assert len(data.pairs) == 1
        pair = data.pairs[0]
        assert pair.demographics.age_at_first_wave == 24
        assert pair.weight == 3.0
        assert pair.quarter_to == QuarterId(2020, 1)

    def test_non_adjacent_waves_produce_no_pair(self, tmp_path):
        path = write(tmp_path, "w.csv", WAVE_HEAD + "\n"
                     "A,2019.1,EDU,22,M,1,NORTH,1.0\n"
                     "A,2019.3,TE,22,M,1,NORTH,1.0\n")
        data, _ = parse_panel_file(path)
        assert data.pairs == ()

    def test_rotation_spell_produces_two_pairs(self, tmp_path):
        # 2-2-2 design: waves at offsets 0, 1, 4, 5.
        q = QuarterId(2019, 1)
        path = write(tmp_path, "w.csv", WAVE_HEAD + "\n" + "".join(
            f"A,{q.plus(k)},U,22,M,1,NORTH,1.0\n" for k in (0, 1, 4, 5)))
        data, _ = parse_panel_file(path)
        froms = [str(p.quarter_from) for p in data.pairs]
        assert froms == ["2019.1", "2020.1"]

    def test_pairs_sorted_by_person_then_quarter(self, tmp_path):
        path = write(tmp_path, "w.csv", WAVE_HEAD + "\n"
                     "B,2019.1,U,22,M,1,NORTH,1.0\n"
                     "B,2019.2,U,22,M,1,NORTH,1.0\n"
                     "A,2019.2,TE,22,M,1,NORTH,1.0\n"
                     "A,2019.3,TE,22,M,1,NORTH,1.0\n")
        data, _ = parse_panel_file(path)
        assert [p.person_id for p in data.pairs] == ["A", "B"]

    def test_pairs_sorted_by_code_point_of_person_id(self, tmp_path):
        path = write(tmp_path, "w.csv", WAVE_HEAD + "\n" + "".join(
            f"{pid},{q},U,22,M,1,NORTH,1.0\n" for q in ("2019.2", "2019.1") for pid in "ÄaZ"))
        data, _ = parse_panel_file(path)
        assert [p.person_id for p in data.pairs] == ["Z", "a", "Ä"]


# Person ids whose code-point order differs from their case-folded or
# accent-folded order, blank and padded ones among them.
LINK_IDS = ["A", "B", "a", "Z", "Ä", "Zoë", "ß", "", " A", "日本"]
FIRST_QUARTER = QuarterId(2019, 1).ordinal


@st.composite
def wave_tables(draw):
    """(wave columns as lists, person_ids, lines): shuffled interviews with
    repeats that agree or conflict, gaps between quarters, and non-ASCII ids."""
    person_ids = draw(st.lists(st.sampled_from(LINK_IDS), min_size=1, max_size=5, unique=True))
    demographics = st.tuples(st.integers(14, 36), st.integers(0, 1), st.booleans(),
                             st.integers(0, 2), st.sampled_from([0.5, 1.0, 2.25, 650.0]))
    interview = st.tuples(st.integers(0, len(person_ids) - 1),
                          st.integers(FIRST_QUARTER, FIRST_QUARTER + 5), st.integers(0, 2))
    rows = [(*key, *draw(demographics)) for key in draw(st.lists(interview, max_size=25))]
    repeats = draw(st.lists(st.integers(0, 24), max_size=5)) if rows else []
    rows += [(*rows[i % len(rows)][:3], *draw(demographics)) for i in repeats]  # they agree
    rows = draw(st.permutations(rows))
    gaps = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    lines = list(itertools.accumulate(gaps, initial=1))[1:]
    waves = {name: [row[i] for row in rows] for i, name in enumerate(panel._WAVE_COLUMNS)}
    return waves, tuple(person_ids), lines


@st.composite
def repeated_wave_tables(draw, ids=LINK_IDS):
    """(wave columns as lists, person_ids, lines) in which the first and the
    last (person_id, quarter) key and a few others are met 3 to 5 times,
    the copies of a key agreeing or one conflicting copy among agreeing
    ones in file order, shuffled among the other keys' rows."""
    person_ids = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=5, unique=True))
    demographics = st.tuples(st.integers(14, 36), st.integers(0, 1), st.booleans(),
                             st.integers(0, 2), st.sampled_from([0.5, 1.0, 2.25, 650.0]))
    keys = draw(st.lists(st.tuples(st.integers(0, len(person_ids) - 1),
                                   st.integers(FIRST_QUARTER, FIRST_QUARTER + 5)),
                         min_size=1, max_size=12, unique=True))
    by_id = sorted(keys, key=lambda key: (person_ids[key[0]], key[1]))
    repeated = {by_id[0], by_id[-1], *draw(st.lists(st.sampled_from(keys), max_size=3))}
    groups = []  # each key's rows, in the file order they must keep
    for key in keys:
        state = draw(st.integers(0, 2))
        states = [state] * (draw(st.integers(3, 5)) if key in repeated else 1)
        if len(states) > 2 and draw(st.booleans()):
            states[draw(st.integers(1, len(states) - 2))] = (state + 1) % 3
        groups.append([(*key, s, *draw(demographics)) for s in states])
    slots = iter(draw(st.permutations(range(sum(map(len, groups))))))
    placed = sorted((slot, row) for group in groups
                    for slot, row in zip(sorted(itertools.islice(slots, len(group))), group))
    rows = [row for _, row in placed]
    gaps = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    lines = list(itertools.accumulate(gaps, initial=1))[1:]
    waves = {name: [row[i] for row in rows] for i, name in enumerate(panel._WAVE_COLUMNS)}
    return waves, tuple(person_ids), lines


class TestLinkWavesAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(wave_tables())
    def test_pairs_and_rejections_match_the_loop(self, table):
        waves, person_ids, lines = table
        columns = {name: np.array(column, dtype=panel._DTYPES[name])
                   for name, column in waves.items()}
        pairs, rejections = oracles.link_by_rank(columns, person_ids, lines)
        want, want_rejections = oracles.link_by_loop(waves, person_ids, lines)
        for name, dtype in panel._COLUMNS.items():
            assert pairs[name].dtype == dtype, name
            assert pairs[name].tolist() == want[name], name
        assert rejections == want_rejections

    @settings(max_examples=300, deadline=None)
    @given(repeated_wave_tables())
    def test_repeated_keys_match_the_loop(self, table):
        """Keys met 3 or more times, conflicts among agreeing copies, repeats
        on the first and the last key: the screen reads only repeated rows."""
        waves, person_ids, lines = table
        columns = {name: np.array(column, dtype=panel._DTYPES[name])
                   for name, column in waves.items()}
        pairs, rejections = oracles.link_by_rank(columns, person_ids, lines)
        want, want_rejections = oracles.link_by_loop(waves, person_ids, lines)
        for name in panel._COLUMNS:
            assert pairs[name].tolist() == want[name], name
        assert rejections == want_rejections

    @settings(max_examples=100, deadline=None)
    @given(repeated_wave_tables(ids=[pid for pid in LINK_IDS if pid == pid.strip()]))
    def test_repeated_keys_parse_like_the_loop(self, tmp_path_factory, table):
        """The same tables written as wave files (blank lines for the gaps
        between line numbers) and parsed: the linker reads the parse's ranks."""
        waves, person_ids, lines = table
        rows = zip(*(waves[name] for name in panel._WAVE_COLUMNS))
        text = {line: ",".join([person_ids[p], str(QuarterId.from_ordinal(q)),
                                panel.STATE_ORDER[s].name, str(age), panel.SEX_ORDER[sex].name,
                                str(int(cit)), panel.REGION_ORDER[region].name, repr(weight)])
                for line, (p, q, s, age, sex, cit, region, weight) in zip(lines, rows)}
        path = tmp_path_factory.mktemp("waves") / "w.csv"
        path.write_text(WAVE_HEAD + "\n" + "".join(text.get(line, "") + "\n"
                                                   for line in range(2, max(lines) + 1)),
                        encoding="utf-8")
        data, report = parse_panel_file(path)
        want, want_rejections = oracles.link_by_loop(waves, person_ids, lines)
        scope = [15 <= age <= 34 for age in want["age"]]
        want["person"] = [person_ids[p] for p in want["person"]]
        got = {name: getattr(data, name).tolist() for name in panel._COLUMNS}
        got["person"] = [data.person_ids[p] for p in got["person"]]
        for name in panel._COLUMNS:
            assert got[name] == [value for value, ok in zip(want[name], scope) if ok], name
        assert report.rejections == tuple(want_rejections)


def test_link_waves_orders_pairs_by_a_sort_key_past_32_bits():
    # 140k people over quarters 1900.1-9999.4: rank * span passes 2**32.
    rng = np.random.default_rng(0)
    n = 140_000
    first = rng.integers(QuarterId(1900, 1).ordinal, QuarterId(9999, 4).ordinal, size=n)
    first[:2] = QuarterId(1900, 1).ordinal, QuarterId(9999, 3).ordinal
    rows = rng.permutation(2 * n)  # each person's two waves, in shuffled file order
    columns = {"person": np.repeat(np.arange(n), 2), "quarter": np.repeat(first, 2) + np.tile([0, 1], n)}
    columns = {name: columns.get(name, np.zeros(2 * n))[rows].astype(panel._DTYPES[name])
               for name in panel._WAVE_COLUMNS}
    person_ids = tuple(f"P{i:06d}" for i in rng.permutation(n))
    pairs, rejections = oracles.link_by_rank(columns, person_ids, np.arange(2, 2 * n + 2))
    assert rejections == []
    assert [person_ids[p] for p in pairs["person"].tolist()] == sorted(person_ids)
    assert pairs["quarter"].tolist() == first[pairs["person"]].tolist()


class TestRejectionReason:
    """A row is rejected for its first failing field in header order, the
    quarters' adjacency counting as a field right after quarter_to."""

    @pytest.mark.parametrize("quoted", [False, True], ids=["byte-split", "csv-reader"])
    @pytest.mark.parametrize("head,row,reason", [
        (PAIR_HEAD, "2019.1,2019.3,XX,TE,21,F,1,SOUTH,1",
         "quarters not adjacent (2019.1 -> 2019.3)"),
        (PAIR_HEAD, "2019.1,2019.9,XX,TE,21,F,1,SOUTH,1",
         "invalid quarter '2019.9' (expected YYYY.Q)"),
        (PAIR_HEAD, "2019.0,2019.9,XX,TE,21,F,1,SOUTH,1",
         "invalid quarter '2019.0' (expected YYYY.Q)"),
        (PAIR_HEAD, "2019.1,2019.2,EDU,TE,21,F,1,EAST,0",
         "invalid region 'EAST' (expected NORTH, CENTRE or SOUTH)"),
        (PAIR_HEAD, "2019.1,2019.2,EDU,TE,21,X,1,EAST,1", "invalid sex 'X' (expected M or F)"),
        (WAVE_HEAD, "2019.1,XX,old,F,1,SOUTH,1", "unknown state code 'XX'"),
    ], ids=["not-adjacent", "bad-quarter-to", "bad-quarter-from", "region-before-weight",
            "sex-before-region", "wave-state-before-age"])
    def test_first_failing_field_gives_the_reason(self, tmp_path, head, row, reason, quoted):
        person = '"P1"' if quoted else "P1"  # a quote sends the block to csv.reader
        path = write(tmp_path, "p.csv", f"{head}\n{person},{row}\n")
        data, report = parse_panel_file(path)
        assert len(data) == 0
        assert report.rejections == ((2, reason),)

    def test_failing_token_parsed_once_per_file(self, tmp_path, monkeypatch):
        calls = []

        def parse_age(text):
            calls.append(text)
            return panel._parse_age(text)

        monkeypatch.setitem(panel._PARSERS, "age", parse_age)
        path = write(tmp_path, "p.csv", PAIR_HEAD + "\n"
                     + "P1,2019.1,2019.2,EDU,TE,old,F,1,SOUTH,1\n" * 500)
        data, report = parse_panel_file(path)
        assert len(data) == 0
        assert report.rejections == tuple((line, "invalid age 'old'") for line in range(2, 502))
        assert calls == ["old"]


class TestObservationPair:
    def test_rejects_non_adjacent_quarters(self):
        with pytest.raises(ValueError):
            ObservationPair("A", QuarterId(2019, 1), QuarterId(2019, 3),
                            LaborState.U, LaborState.U, demo())

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            ObservationPair("A", QuarterId(2019, 1), QuarterId(2019, 2),
                            LaborState.U, LaborState.U, demo(), weight=0.0)


# Two rows at the edges of every checked column's range.
EDGES = {"person": [0, 1], "quarter": [QuarterId(1900, 1).ordinal, QuarterId(9999, 3).ordinal],
         "state_from": [0, 6], "state_to": [6, 0], "age": [22, 22], "sex": [0, 1],
         "citizen": [True, False], "region": [0, 2], "weight": [5e-324, 1.7976931348623157e308]}


class TestDatasetColumnRanges:
    def test_the_edges_of_each_range_are_taken(self):
        data = panel.PanelDataset(person_ids=("A", "B"), provenance="edges", **EDGES)
        assert [getattr(data, name).tolist() for name in EDGES] == list(EDGES.values())

    @pytest.mark.parametrize("name,values,bad", [
        ("person", [1, 2], 2),
        ("person", [-1, 0], -1),
        ("quarter", [QuarterId(1900, 1).ordinal - 1, QuarterId(2019, 1).ordinal], 7599),
        ("quarter", [QuarterId(2019, 1).ordinal, QuarterId(9999, 4).ordinal], 39999),
        ("state_from", [9, 0], 9),
        ("state_to", [0, -1], -1),
        ("sex", [1, 2], 2),
        ("sex", np.array([1, 256]), 256),
        ("region", [-1, 0], -1),
        ("weight", [1.0, -1.0], -1.0),
        ("weight", [0.0, 1.0], 0.0),
        ("weight", [float("nan"), 1.0], float("nan")),
        ("weight", [1.0, float("inf")], float("inf")),
    ], ids=["person-past-the-ids", "person-negative", "quarter-before-1900", "quarter-departing-9999.4",
            "state_from", "state_to", "sex", "sex-past-int8", "region", "weight-negative",
            "weight-zero", "weight-nan", "weight-inf"])
    def test_a_value_outside_its_column_range_is_refused(self, name, values, bad):
        """A code outside its table, a quarter a file cannot hold or a weight
        that is not finite and positive fails the constructor, which names
        the column and the first bad value."""
        with pytest.raises(ValueError, match=rf"^dataset column {name} holds {re.escape(repr(bad))},"):
            panel.PanelDataset(person_ids=("A", "B"), provenance="bad", **{**EDGES, name: values})

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(ValueError, match="^dataset columns must have equal lengths$"):
            panel.PanelDataset(person_ids=("A", "B"), provenance="bad", **{**EDGES, "age": [22]})

    def test_an_empty_dataset_has_no_quarter_range(self):
        data = panel.PanelDataset(person_ids=(), provenance="empty", **{name: [] for name in EDGES})
        assert len(data) == 0 and data.quarter_range is None


UNIFORM7 = np.full(7, 1.0 / 7)


class TestGenerator:
    def test_deterministic_given_seed(self):
        P = np.full((7, 7), 1.0 / 7)
        a = generate_synthetic_panel(P, UNIFORM7, 200, QuarterId(2019, 1), 8, seed=5)
        b = generate_synthetic_panel(P, UNIFORM7, 200, QuarterId(2019, 1), 8, seed=5)
        assert a.pairs == b.pairs
        c = generate_synthetic_panel(P, UNIFORM7, 200, QuarterId(2019, 1), 8, seed=6)
        assert c.pairs != a.pairs

    def test_rotation_structure(self):
        P = np.eye(7)
        data = generate_synthetic_panel(P, UNIFORM7, 300, QuarterId(2019, 1), 12, seed=0)
        by_person = {}
        for p in data.pairs:
            by_person.setdefault(p.person_id, []).append(p)
        assert max(len(v) for v in by_person.values()) == 2
        for pairs in by_person.values():
            if len(pairs) == 2:
                first, second = sorted(pairs, key=lambda p: p.quarter_from)
                # Second spell starts four quarters after the first.
                assert second.quarter_from == first.quarter_from.plus(4)

    def test_identity_chain_keeps_states(self):
        data = generate_synthetic_panel(np.eye(7), UNIFORM7, 500, QuarterId(2019, 1), 6, seed=1)
        assert all(p.state_from is p.state_to for p in data.pairs)

    def test_short_window_all_pairs_depart_start(self):
        P = np.full((7, 7), 1.0 / 7)
        data = generate_synthetic_panel(P, UNIFORM7, 400, QuarterId(2020, 2), 2, seed=3)
        assert len(data) == 400
        assert all(p.quarter_from == QuarterId(2020, 2) for p in data.pairs)

    def test_bare_entries_simulate_as_their_matrix(self):
        m = get_fixture("early_2020Q3").matrix()
        args = (UNIFORM7, 300, QuarterId(2019, 1), 8)
        a = generate_synthetic_panel(m, *args, seed=7)
        b = generate_synthetic_panel(np.array(m.entries), *args, seed=7)
        assert a.person_ids == b.person_ids
        for name in panel._COLUMNS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_ages_within_scope(self):
        P = np.full((7, 7), 1.0 / 7)
        data = generate_synthetic_panel(P, UNIFORM7, 300, QuarterId(2019, 1), 4, seed=2)
        ages = {p.demographics.age_at_first_wave for p in data.pairs}
        assert min(ages) >= 15 and max(ages) <= 34

    @pytest.mark.parametrize("shares", [np.full(7, 0.2), -np.full(7, 1.0 / 7), np.full(6, 1.0 / 6),
                                        np.array([np.nan, 0, 0, 0, 0, 0, 1])])
    def test_rejects_bad_initial_shares(self, shares):
        with pytest.raises(ValueError):
            generate_synthetic_panel(np.eye(7), shares, 10, QuarterId(2019, 1), 2, seed=0)

    def test_rejects_a_window_past_the_last_readable_quarter(self, tmp_path):
        with pytest.raises(ValueError, match="runs past 9999.4"):
            generate_synthetic_panel(np.eye(7), UNIFORM7, 50, QuarterId(9999, 3), 6, seed=1)
        with pytest.raises(ValueError, match="runs past 9999.4"):
            generate_synthetic_panel(np.eye(7), UNIFORM7, 50, QuarterId(9999, 4), 2, seed=1)
        # A window that ends on 9999.4 writes a file that parses back whole.
        data = generate_synthetic_panel(np.eye(7), UNIFORM7, 50, QuarterId(9999, 3), 2, seed=1)
        path = tmp_path / "last.csv"
        write_pairs_csv(data, path)
        back, report = parse_panel_file(path)
        assert (len(back), report.rejections) == (len(data), ())
        assert back.quarter_range == (QuarterId(9999, 3), QuarterId(9999, 4))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_synthetic_panel(np.eye(7), UNIFORM7, 0, QuarterId(2019, 1), 2, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic_panel(np.eye(7), UNIFORM7, 10, QuarterId(2019, 1), 0, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic_panel(np.eye(3), np.full(3, 1 / 3), 10, QuarterId(2019, 1), 2, seed=0)


class TestRoundTripCsv:
    def test_write_then_parse_preserves_pairs(self, tmp_path):
        P = np.full((7, 7), 1.0 / 7)
        data = generate_synthetic_panel(P, UNIFORM7, 150, QuarterId(2019, 3), 7, seed=9)
        path = tmp_path / "out.csv"
        write_pairs_csv(data, path)
        back, report = parse_panel_file(path)
        assert report.rejections == ()
        assert back.pairs == data.pairs

    def test_write_is_byte_deterministic(self, tmp_path):
        P = np.full((7, 7), 1.0 / 7)
        data = generate_synthetic_panel(P, UNIFORM7, 50, QuarterId(2019, 1), 2, seed=4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_pairs_csv(data, a)
        write_pairs_csv(data, b)
        assert a.read_bytes() == b.read_bytes()
