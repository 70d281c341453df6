"""The passage-report CSV renderer against a row-by-row ``csv.writer`` oracle.

The rows hold ints and floats only, so one joined format string writes the
bytes ``csv.writer`` wrote, whatever the floats: -0.0, subnormals, +-inf,
nan, or ints standing in for floats.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from lmflows.serialize import fpt_report_to_csv

from oracles import report_csv_by_writer

values = st.one_of(
    st.floats(),
    st.floats(allow_subnormal=True, min_value=-1e-300, max_value=1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, float("inf"), float("-inf"), float("nan")]),
    st.integers(-(2**63), 2**63),
)
labels = st.text(alphabet="ABEFNPSTU0123,;\"", min_size=1, max_size=4)
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
