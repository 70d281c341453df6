import re

import pytest

from lmflows.states import (
    AGE_MAX,
    AGE_MIN,
    N_STATES,
    STATE_CODES,
    AgeBand,
    CohortFilter,
    Demographics,
    LaborState,
    MacroRegion,
    QuarterId,
    Sex,
)

from oracles import cohort_matches


class TestLaborState:
    def test_canonical_order(self):
        assert STATE_CODES == ("SE", "TE", "PE", "U", "NLFET", "EDU", "FS")
        assert N_STATES == 7
        assert [s.index for s in LaborState] == list(range(7))

    @pytest.mark.parametrize("text,expected", [
        ("SE", LaborState.SE),
        ("te", LaborState.TE),
        (" pe ", LaborState.PE),
        ("U", LaborState.U),
        ("nlfet", LaborState.NLFET),
        ("NEET", LaborState.NLFET),
        ("neet", LaborState.NLFET),
        ("Edu", LaborState.EDU),
        ("FS", LaborState.FS),
    ])
    def test_parse(self, text, expected):
        assert LaborState.parse(text) is expected

    @pytest.mark.parametrize("text", ["", "XX", "employment", "S E", "7"])
    def test_parse_rejects_unknown(self, text):
        with pytest.raises(ValueError, match=f"^unknown state code {re.escape(repr(text))}$"):
            LaborState.parse(text)


class TestQuarterId:
    @pytest.mark.parametrize("text,year,quarter", [
        ("2019.1", 2019, 1),
        ("2020.4", 2020, 4),
        (" 1999.2 ", 1999, 2),
    ])
    def test_parse(self, text, year, quarter):
        q = QuarterId.parse(text)
        assert (q.year, q.quarter) == (year, quarter)
        assert str(q) == text.strip()

    @pytest.mark.parametrize("text", ["2019", "2019.5", "2019.0", "19.1", "2019-1", "2019.1.1", "abcd.1"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            QuarterId.parse(text)

    @pytest.mark.parametrize("text", ["２０１９.1", "2019.１", "२०१९.1"],
                             ids=["fullwidth-year", "fullwidth-quarter", "devanagari-year"])
    def test_parse_accepts_ascii_digits_only(self, text):
        with pytest.raises(ValueError, match="invalid quarter"):
            QuarterId.parse(text)

    def test_ordinal_round_trip(self):
        q = QuarterId(2019, 4)
        assert q.ordinal == 2019 * 4 + 3
        assert q.plus(1).ordinal == q.ordinal + 1
        assert QuarterId.from_ordinal(q.ordinal) == q

    @pytest.mark.parametrize("year,quarter", [(1899, 1), (2019, 0), (2019, 5)])
    def test_constructor_validates(self, year, quarter):
        with pytest.raises(ValueError):
            QuarterId(year, quarter)

    def test_constructor_refuses_a_float_year(self):
        with pytest.raises(ValueError, match="^year and quarter must be integers$"):
            QuarterId(2019.0, 1)

    @pytest.mark.parametrize("year,quarter", [(True, 1), (2019, True)])
    def test_constructor_refuses_a_bool(self, year, quarter):
        with pytest.raises(ValueError, match="^year and quarter must be integers$"):
            QuarterId(year, quarter)

    def test_plus_and_ordering(self):
        q = QuarterId(2019, 3)
        assert q.plus(6) == QuarterId(2021, 1)
        assert q.plus(0) == q
        assert QuarterId(2019, 4) < QuarterId(2020, 1) < QuarterId(2020, 2)


class TestAgeBands:
    def test_bands_partition_the_range(self):
        covered = []
        for band in AgeBand:
            covered.extend(range(band.lo, band.hi + 1))
        assert sorted(covered) == list(range(AGE_MIN, AGE_MAX + 1))

    @pytest.mark.parametrize("age,band", [
        (15, AgeBand.TEENS),
        (19, AgeBand.TEENS),
        (20, AgeBand.EARLY_YOUNG),
        (24, AgeBand.EARLY_YOUNG),
        (25, AgeBand.LATE_YOUNG),
        (29, AgeBand.LATE_YOUNG),
        (30, AgeBand.PRE_ADULTS),
        (34, AgeBand.PRE_ADULTS),
        (14, None),
        (35, None),
        (-1, None),
    ])
    def test_contains(self, age, band):
        assert [b for b in AgeBand if b.contains(age)] == ([band] if band else [])


def _demo(age=22, sex=Sex.F, citizen=True, region=MacroRegion.SOUTH):
    return Demographics(age_at_first_wave=age, sex=sex, italian_citizen=citizen, macro_region=region)


class TestCohortFilter:
    def test_empty_filter_matches_everything(self):
        f = CohortFilter()
        assert cohort_matches(f, _demo())
        assert cohort_matches(f, _demo(age=31, sex=Sex.M, citizen=False, region=MacroRegion.NORTH))
        assert f.describe() == "all"

    def test_single_field_restrictions(self):
        assert cohort_matches(CohortFilter(age_band=AgeBand.EARLY_YOUNG), _demo(age=22))
        assert not cohort_matches(CohortFilter(age_band=AgeBand.EARLY_YOUNG), _demo(age=25))
        assert cohort_matches(CohortFilter(sex=Sex.F), _demo())
        assert not cohort_matches(CohortFilter(sex=Sex.M), _demo())
        assert not cohort_matches(CohortFilter(citizen=False), _demo())
        assert cohort_matches(CohortFilter(region=MacroRegion.SOUTH), _demo())
        assert not cohort_matches(CohortFilter(region=MacroRegion.NORTH), _demo())

    def test_conjunction(self):
        f = CohortFilter(age_band=AgeBand.EARLY_YOUNG, sex=Sex.F, region=MacroRegion.SOUTH)
        assert cohort_matches(f, _demo())
        assert not cohort_matches(f, _demo(sex=Sex.M))
        assert not cohort_matches(f, _demo(region=MacroRegion.CENTRE))

    def test_describe_lists_active_fields(self):
        f = CohortFilter(age_band=AgeBand.LATE_YOUNG, citizen=False)
        assert f.describe() == "age=LATE_YOUNG, citizen=0"

    def test_written_gives_each_field_as_the_outputs_write_it(self):
        f = CohortFilter(sex=Sex.F, citizen=True)
        assert f.written() == {"age_band": None, "sex": "F", "citizen": 1, "region": None}
        assert f.describe() == "sex=F, citizen=1"

    @pytest.mark.parametrize("field, value", [
        ("age_band", "early"), ("age_band", (20, 24)), ("sex", "F"), ("sex", MacroRegion.SOUTH),
        ("citizen", "1"), ("citizen", 1), ("citizen", 0), ("citizen", 2), ("region", "SOUTH"),
    ])
    def test_refuses_a_value_not_of_its_type(self, field, value):
        with pytest.raises(TypeError, match=f"^cohort {field} must be "):
            CohortFilter(**{field: value})


class TestParsers:
    def test_sex_and_region_parse(self):
        """Padded and lower-case names are read; a refusal quotes the text as given,
        and NEET is an alias of a state only."""
        assert Sex.parse("m") is Sex.M
        assert Sex.parse(" f\t") is Sex.F
        assert MacroRegion.parse("south") is MacroRegion.SOUTH
        assert MacroRegion.parse(" Centre\n") is MacroRegion.CENTRE
        for parse, text, message in [
            (Sex.parse, "X", "invalid sex 'X' (expected M or F)"),
            (Sex.parse, "NEET", "invalid sex 'NEET' (expected M or F)"),
            (MacroRegion.parse, "EAST", "invalid region 'EAST' (expected NORTH, CENTRE or SOUTH)"),
            (MacroRegion.parse, " neet", "invalid region ' neet' (expected NORTH, CENTRE or SOUTH)"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse(text)
