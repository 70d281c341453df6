"""Row-stochastic validation: whole-array checks that name what a row-by-row scan names.

``ensure_row_stochastic`` reduces over the whole matrix at once. It must
still name the first offending row and, within it, report a non-finite
entry before a negative one and a negative one before a bad sum, with the
same text as the scan below.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmflows.errors import NonStochasticError
from lmflows.stochastic import _NEG_TOL, ROW_SUM_TOL, ensure_row_stochastic


def row_by_row(m, tol=ROW_SUM_TOL):
    """The reference scan: each row in turn, non-finite, then negative, then the sum."""
    a = np.array(m, dtype=float)
    for i, row in enumerate(a):
        if not np.all(np.isfinite(row)):
            raise NonStochasticError(i, "contains non-finite entries")
        if row.min() < -_NEG_TOL:
            raise NonStochasticError(i, f"negative entry {row.min()!r}")
        s = float(row.sum())
        if abs(s - 1.0) > tol:
            raise NonStochasticError(i, f"row sums to {s!r}, expected 1")
    return a


def outcome(check, m):
    try:
        return "ok", check(m).tobytes()
    except NonStochasticError as exc:
        return "error", str(exc)


def uniform(k):
    return np.full((k, k), 1.0 / k)


@pytest.mark.parametrize("bad_rows, named, text", [
    ({1: "sum", 2: "nan", 4: "neg"}, 1, "row sums to 1.2499999999999998, expected 1"),
    ({3: "neg", 5: "inf", 6: "sum"}, 3, f"negative entry {np.float64(-0.25)!r}"),
    ({2: "inf", 4: "sum"}, 2, "contains non-finite entries"),
    ({0: "nan+neg"}, 0, "contains non-finite entries"),
    ({5: "neg+sum", 6: "nan"}, 5, f"negative entry {np.float64(-0.25)!r}"),
])
def test_first_bad_row_named_with_its_first_fault(bad_rows, named, text):
    m = uniform(7)
    for row, kind in bad_rows.items():
        if "nan" in kind:
            m[row, 0] = np.nan
        if "inf" in kind:
            m[row, 1] = np.inf
        if "neg" in kind:
            m[row, 2] -= 0.25 + 1.0 / 7
            m[row, 3] += 0.25 + 1.0 / 7
        if "sum" in kind:
            m[row, 4] += 0.25
    with pytest.raises(NonStochasticError) as exc:
        ensure_row_stochastic(m)
    assert exc.value.row == named
    assert str(exc.value).endswith(text)
    assert outcome(ensure_row_stochastic, m) == outcome(row_by_row, m)


def test_row_sums_either_side_of_the_tolerance():
    # Row [s - 0.5, 0.5] sums to s exactly; walk s by ulps across 1 +- tol.
    verdicts = set()
    for edge in (1.0 + ROW_SUM_TOL, 1.0 - ROW_SUM_TOL):
        s = edge
        for _ in range(4):
            s = np.nextafter(s, 0.0)
        for _ in range(9):
            m = np.array([[s - 0.5, 0.5], [0.5, 0.5]])
            assert (m[0].sum(), m.sum(axis=1)[0]) == (s, s)
            got = outcome(ensure_row_stochastic, m)
            assert got == outcome(row_by_row, m)
            verdicts.add((edge, got[0]))
            s = np.nextafter(s, 2.0)
    assert len(verdicts) == 4  # both edges straddled


def test_negative_tolerance_edge():
    m = uniform(3)
    m[1] = [-_NEG_TOL, 0.5, 0.5 + _NEG_TOL]
    assert outcome(ensure_row_stochastic, m)[0] == "ok"
    m[1] = [np.nextafter(-_NEG_TOL, -1.0), 0.5, 0.5 + _NEG_TOL]
    assert outcome(ensure_row_stochastic, m) == outcome(row_by_row, m)
    assert outcome(row_by_row, m)[0] == "error"


def test_empty_and_non_square():
    assert ensure_row_stochastic(np.zeros((0, 0))).shape == (0, 0)
    with pytest.raises(ValueError):
        ensure_row_stochastic(np.ones((2, 3)) / 3)


faults = st.sampled_from([np.nan, np.inf, -np.inf, -0.5, -2e-12, -1e-12, 1e-9, -1e-9, 1.1e-9,
                          0.3, 1e308])


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       edits=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), faults), max_size=4))
def test_same_outcome_as_the_row_scan(k, seed, edits):
    rng = np.random.default_rng(seed)
    m = rng.random((k, k))
    m /= m.sum(axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):  # the scan sums rows with inf or 1e308
        for r, c, fault in edits:
            m[r % k, c % k] += fault
        assert outcome(ensure_row_stochastic, m) == outcome(row_by_row, m)
