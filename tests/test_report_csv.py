"""The CSV renderers against row-by-row ``csv.writer`` oracles.

The report, matrix and share rows hold ints and floats only, so one joined
format string writes the bytes ``csv.writer`` wrote, whatever the floats:
-0.0, subnormals, +-inf, nan, or ints standing in for floats. A matrix's
state labels, a rejection's reason and a fixture's fields are quoted as
``csv.writer`` quotes them, a lone CR included on any Python version.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmflows.estimation import StateShareTable, TransitionMatrix
from lmflows.fixtures import fixture_names, get_fixture
from lmflows.panel import ParseReport
from lmflows.serialize import (
    _meta_block,
    build_fpt_report,
    fixtures_to_csv,
    fixtures_to_doc,
    fpt_report_to_csv,
    matrix_to_csv,
    shares_to_csv,
)
from lmflows.states import STATE_ORDER, AgeBand, CohortFilter, QuarterId, Sex

from oracles import csv_row, matrix_csv_by_writer, report_csv_by_writer, shares_csv_by_writer

values = st.one_of(
    st.floats(),
    st.floats(allow_subnormal=True, min_value=-1e-300, max_value=1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, float("inf"), float("-inf"), float("nan")]),
    st.integers(-(2**63), 2**63),
)
labels = st.text(alphabet="ABEFNPSTU0123,;\"\r\n\\", min_size=1, max_size=4)
routes = st.fixed_dictionaries({"infinite": st.booleans(), "quarters": values})


@st.composite
def reports(draw):
    horizon = draw(st.integers(1, 60))
    # The columns may run past the horizon; only the first ``horizon`` rows are written.
    length = horizon + draw(st.integers(0, 2))
    column = st.lists(values, min_size=length, max_size=length)
    linear = draw(routes)
    linear["trapped_states"] = draw(st.lists(labels, max_size=3))
    return {
        "source": draw(labels),
        "target": draw(labels),
        "horizon": horizon,
        "from_quarter": draw(st.none() | st.sampled_from(["2019Q3", "2020Q1"])),
        "to_quarter": draw(st.none() | st.sampled_from(["2019Q4", "2020Q2"])),
        "well_defined": {"verdict": draw(st.sampled_from(["well_defined", "suspect", "divergent"]))},
        "efpt": {"series": draw(routes), "linear_system": linear},
        "distribution": draw(column),
        "cdf": draw(column),
        "survival": draw(column),
    }


@settings(max_examples=300, deadline=None)
@given(doc=reports())
def test_report_csv_equals_the_writer_oracle(doc):
    assert fpt_report_to_csv(doc) == report_csv_by_writer(doc)


def test_a_long_report_csv_equals_the_writer_oracle():
    """A 20,000-row table, 1.4 MB, as the console script's longest passage table writes it."""
    doc = build_fpt_report(get_fixture("early_2019Q3").matrix(), "EDU", "PE", 20_000, 1e-9, 8000)
    assert fpt_report_to_csv(doc) == report_csv_by_writer(doc)


state_labels = st.text(alphabet=st.sampled_from(list('AEU0 ,"\r\n\'\t;\\')), max_size=4)


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(state_labels, min_size=1, max_size=7, unique=True), data=st.data())
@example(labels=["a,b", 'q"t', "c\rr", "l\nf", "", " s "], data=None)
def test_matrix_csv_equals_the_writer_oracle(labels, data):
    k = len(labels)
    seed, counted, fallback, quarter = 0, True, {0}, QuarterId(2020, 1)
    if data is not None:
        seed = data.draw(st.integers(0, 2**32 - 1))
        counted = data.draw(st.booleans())
        fallback = data.draw(st.sets(st.integers(0, k - 1)))
        quarter = data.draw(st.none() | st.just(quarter))
    rng = np.random.default_rng(seed)
    entries = rng.random((k, k)) ** 3
    m = TransitionMatrix(
        entries=entries / entries.sum(axis=1, keepdims=True),
        states=tuple(labels),
        row_counts=tuple(rng.random(k) * 100) if counted else None,
        from_quarter=quarter,
        to_quarter=quarter.plus(1) if quarter is not None else None,
        cohort=CohortFilter(age_band=AgeBand.TEENS) if quarter is not None else None,
        fallback_rows=frozenset(fallback),
        provenance="estimated from a,b.csv" if counted else "",
    )
    assert matrix_to_csv(m) == matrix_csv_by_writer(m)


texts = st.text(alphabet=st.sampled_from(list('Ab ,"\r\n;')), max_size=6)
QUOTED = ["bad, field", 'a "quoted" id', "line\nfeed", "lone\rcr", "\r", ""]


@settings(max_examples=100, deadline=None)
@given(reasons=st.lists(texts, max_size=6))
@example(reasons=QUOTED)
def test_rejection_report_csv_equals_the_writer_oracle(reasons):
    report = ParseReport(rejections=tuple(enumerate(reasons, start=2)), n_rows=len(reasons) + 1,
                         n_pairs=0, n_age_filtered=0)
    assert report.to_csv() == "".join(map(csv_row, [("line_number", "reason"), *report.rejections]))


@settings(max_examples=50, deadline=None)
@given(descriptions=st.lists(texts, min_size=1, max_size=len(fixture_names())))
@example(descriptions=QUOTED)
def test_fixture_listing_csv_equals_the_writer_oracle(descriptions):
    fixtures = [dataclasses.replace(get_fixture(name), description=text)
                for name, text in zip(fixture_names(), descriptions)]
    header = ("name", "states", "age_band", "from_quarter", "to_quarter", "fallback_states", "description")
    rows = [[";".join(row[key]) if isinstance(row[key], list) else row[key] for key in header]
            for row in fixtures_to_doc(fixtures)["fixtures"]]
    assert fixtures_to_csv(fixtures) == "".join(map(csv_row, [header, *rows]))


@settings(max_examples=100, deadline=None)
@given(shares=st.lists(values, min_size=7, max_size=7),
       n_obs=st.lists(st.integers(0, 10**9), min_size=7, max_size=7), total=values)
def test_shares_csv_equals_the_writer_oracle(shares, n_obs, total):
    table = StateShareTable(quarter=QuarterId(2019, 4), cohort=CohortFilter(sex=Sex.M),
                            shares=dict(zip(STATE_ORDER, shares)), n_obs=dict(zip(STATE_ORDER, n_obs)),
                            total_weight=total)
    assert shares_to_csv(table) == shares_csv_by_writer(table)


def test_line_break_in_a_state_label_stays_in_its_meta_line():
    m = TransitionMatrix(entries=np.array([[0.5, 0.5], [0.0, 1.0]]), states=("A\nB", "T\r"))
    text = fpt_report_to_csv(build_fpt_report(m, 0, 1, 2, 1e-9, 100))
    lines = text.splitlines()  # splits at a CR too
    assert lines[:3] == ["# source=A\\nB", "# target=T\\r", "# verdict=well_defined"]
    assert [line[:2] for line in lines[3:5]] == ["# ", "# "] and lines[5] == "n,f,cdf,survival"


def test_a_backslash_is_escaped_so_no_two_values_share_a_meta_line():
    broken, backslash_n = _meta_block([("p", "a\nb")]), _meta_block([("p", "a\\nb")])
    assert (broken, backslash_n) == ("# p=a\\nb\n", "# p=a\\\\nb\n")
