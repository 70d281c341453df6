"""One engine per (chain, target): reports that share a run read what they would read alone.

fpt keeps one engine per target of a ``TransitionMatrix``, and every report
on the matrix into that target reads it, whatever came before: other sources,
other targets, other horizons and stopping rules, other threads. Each
document must be the one a fresh matrix, or the bare array, gives. The
engine keeps no run of terms, so a long divergent check stays small, and
what a matrix keeps is bounded whatever it was asked.
"""

import copy
import dataclasses
import gc
import json
import pickle
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lmflows import fpt
from lmflows.estimation import TransitionMatrix
from lmflows.fixtures import get_fixture
from lmflows.fpt import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_HORIZON,
    VERDICT_DIVERGENT,
    check_well_defined,
    efpt_series,
    fpt_distribution,
)
from lmflows.serialize import build_fpt_report

from oracles import series_by_loop
from test_fpt_engine import chains

HORIZON = 40
# (horizon, epsilon, max_horizon) of a report.
SIGNATURES = [
    (HORIZON, DEFAULT_EPSILON, DEFAULT_MAX_HORIZON),
    (7, 1e-6, 500),
    (90, 1e-12, 300),
    (1, 1e-3, 1),
    # Longer than a shared engine keeps rows for: served by the passage's own engine.
    (fpt.Passage.SHARED_HORIZON + 76, 1e-10, 1500),
]


def report(m, source, target, signature=SIGNATURES[0]) -> str:
    return json.dumps(build_fpt_report(m, source, target, *signature))


def ask(kind, m, source, target, signature) -> str:
    """One request, as a report or a single public route, with its result or error as text."""
    horizon, epsilon, max_horizon = signature
    try:
        if kind == "report":
            return report(m, source, target, signature)
        if kind == "distribution":
            return repr(fpt_distribution(m, source, target, 11 * horizon).probabilities.tolist())
        if kind == "series":
            return repr(efpt_series(m, source, target, epsilon=epsilon, max_horizon=max_horizon))
        return repr(check_well_defined(m, source, target, horizon=max_horizon))
    except fpt.InfiniteEfptError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(P=chains(), data=st.data())
def test_interleaved_requests_on_one_matrix_equal_fresh_ones(P, data):
    k = len(P)
    labels = tuple(str(s) for s in range(k))
    shared = TransitionMatrix(entries=P, states=labels)
    calls = data.draw(st.lists(
        st.tuples(st.sampled_from(["report"] * 3 + ["distribution", "series", "check"]),
                  st.integers(0, k - 1), st.integers(0, k - 1), st.sampled_from(SIGNATURES)),
        min_size=3, max_size=12,
    ))
    assume(len({signature for kind, _, _, signature in calls if kind == "report"}) >= 2)
    for kind, source, target, signature in calls:
        got = ask(kind, shared, source, target, signature)
        fresh = TransitionMatrix(entries=P, states=labels)
        assert got == ask(kind, fresh, source, target, signature), (kind, source, target)
        assert got == ask(kind, P, source, target, signature), (kind, source, target)


def test_reports_on_one_matrix_share_one_engine_per_target(monkeypatch):
    built = []

    class Counted(fpt._Engine):
        def __init__(self, P, j):
            built.append(j)
            super().__init__(P, j)

    monkeypatch.setattr(fpt, "_Engine", Counted)
    m = get_fixture("early_2020Q3").matrix()
    for source in m.states:
        for target in m.states:
            report(m, source, target)
    assert sorted(built) == list(range(len(m.states)))
    built.clear()
    for _ in range(2):
        report(np.asarray(m.entries), 0, 1)
    assert built == [1, 1]


def test_reports_from_threads_equal_serial_ones():
    m = get_fixture("early_2020Q3").matrix()
    calls = [(source, target, signature) for signature in SIGNATURES[:2]
             for source in m.states for target in m.states]
    fresh = get_fixture("early_2020Q3").matrix()
    want = [report(fresh, *call) for call in calls]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(report, m, *call) for call in calls]
            got = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(switch)
    assert got == want


def test_divergent_check_keeps_no_run_of_terms():
    # 0 -> 2 is reachable, but 1 traps: the check sums to its horizon.
    P = np.array([[0.5, 0.3, 0.2], [0.0, 1.0, 0.0], [0.3, 0.2, 0.5]])
    tracemalloc.start()
    try:
        wd = check_well_defined(P, 0, 2, horizon=200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (wd.verdict, wd.horizon, wd.reachable) == (VERDICT_DIVERGENT, 200_000, True)
    assert peak < 1_000_000


@pytest.mark.parametrize("bad", [2.5, True, False, "40", None, np.float64(3.0), np.bool_(True)])
def test_term_counts_must_be_ints(bad):
    m = get_fixture("early_2019Q3").matrix()
    with pytest.raises(TypeError, match="^horizon must be an int, got "):
        fpt_distribution(m, "EDU", "PE", bad)
    with pytest.raises(TypeError, match="^horizon must be an int, got "):
        check_well_defined(m, "EDU", "PE", horizon=bad)
    with pytest.raises(TypeError, match="^max_horizon must be an int, got "):
        efpt_series(m, "EDU", "PE", max_horizon=bad)
    with pytest.raises(TypeError, match="^horizon must be an int, got "):
        build_fpt_report(m, "EDU", "PE", bad, DEFAULT_EPSILON, DEFAULT_MAX_HORIZON)
    with pytest.raises(TypeError, match="^horizon must be an int, got "):
        build_fpt_report(m, "EDU", "PE", HORIZON, DEFAULT_EPSILON, bad)


def test_numpy_ints_are_term_counts():
    m = get_fixture("early_2019Q3").matrix()
    assert report(m, "EDU", "PE", (np.int64(HORIZON), DEFAULT_EPSILON, np.int32(4000))) \
        == report(m, "EDU", "PE")


def test_a_matrix_with_engines_pickles_and_copies_without_them():
    m = get_fixture("early_2020Q3").matrix()
    fresh = get_fixture("early_2020Q3").matrix()
    want = {target: report(get_fixture("early_2020Q3").matrix(), "EDU", target)
            for target in ("PE", "FS")}
    assert report(m, "EDU", "PE") == want["PE"]
    assert pickle.dumps(m) == pickle.dumps(fresh)
    for other in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
        assert other not in fpt._ENGINES
        assert not other.entries.flags.writeable
        for target in ("PE", "FS"):
            assert report(other, "EDU", target) == want[target]


@pytest.mark.parametrize("fixture", ["early_2019Q3", "early_2020Q3"])
def test_a_bare_array_reports_as_its_labelled_matrix(fixture):
    bare = np.array(get_fixture(fixture).matrix().entries)
    labelled = TransitionMatrix(entries=bare, states=tuple(str(k) for k in range(7)))
    gc.collect()
    for source in range(7):
        for target in range(7):
            want = report(labelled, source, target)
            size = len(fpt._ENGINES)
            assert report(bare, source, target) == want
            assert len(fpt._ENGINES) == size, (source, target)


def test_reports_leave_no_fpt_state_on_the_matrix():
    m = get_fixture("early_2020Q3").matrix()
    before = dict(vars(m))
    for target in ("PE", "FS"):
        report(m, "EDU", target)
        fpt_distribution(m, "EDU", target, fpt.Passage.SHARED_HORIZON + 1)
    assert m in fpt._ENGINES
    assert set(vars(m)) == {field.name for field in dataclasses.fields(m)}
    assert all(vars(m)[name] is value for name, value in before.items())


def test_a_long_distribution_leaves_little_on_the_matrix():
    m = get_fixture("early_2020Q3").matrix()
    horizon = 100_000  # 5.6 MB of rows for 7 sources, were they kept
    want = fpt_distribution(get_fixture("early_2020Q3").matrix(), "EDU", "PE", horizon)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = fpt_distribution(m, "EDU", "PE", horizon).probabilities
        del got
        report(m, "EDU", "PE")
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 100_000
    assert fpt_distribution(m, "EDU", "PE", horizon).probabilities.tolist() \
        == want.probabilities.tolist()


def test_an_engine_keeps_its_latest_rules():
    m = get_fixture("early_2019Q3").matrix()
    want = [efpt_series(get_fixture("early_2019Q3").matrix(), "EDU", "PE", epsilon=10.0 ** -e)
            for e in range(3, 15)]
    assert [efpt_series(m, "EDU", "PE", epsilon=10.0 ** -e) for e in range(3, 15)] == want
    engine = fpt._ENGINES[m][m.state_index("PE")]
    assert list(engine._stops) == [(10.0 ** -e, DEFAULT_MAX_HORIZON) for e in range(7, 15)]
    assert efpt_series(m, "EDU", "PE", epsilon=1e-3) == want[0]


def test_negative_rounding_in_the_chain_follows_the_term_loop():
    # Entries down to -1e-12 pass validation; then f(n) can be negative and
    # the running mass can fall, so no stop may be read off a block's last row.
    raw = np.array(get_fixture("early_2019Q3").raw, dtype=float)
    P = raw / raw.sum(axis=1, keepdims=True)
    P[1, 0] += P[1, 6] + 5e-13
    P[1, 6] = -5e-13
    P[4, 2] -= 3e-13
    P[4, 3] += 3e-13
    assert (P < 0).any()
    for i in range(len(P)):
        for j in range(len(P)):
            f = series_by_loop(P, i, j, -np.inf, HORIZON)[3]
            assert fpt_distribution(P, i, j, HORIZON).probabilities.tolist() == f
            wd = check_well_defined(P, i, j)
            if wd.horizon:
                n, total, _, _ = series_by_loop(P, i, j, 1e-6, DEFAULT_MAX_HORIZON)
                assert (wd.horizon, wd.mass_at_horizon) == (n, min(total, 1.0))
            try:
                r = efpt_series(P, i, j)
            except fpt.InfiniteEfptError:
                continue
            n, _, mean, _ = series_by_loop(P, i, j, DEFAULT_EPSILON, DEFAULT_MAX_HORIZON)
            assert (r.n_terms, r.quarters) == (n, mean)


def test_a_falling_mass_stops_where_it_first_meets_tol():
    # f(2) = -1e-12: the mass meets tol = 1e-12 at n = 1, falls short of it at
    # n = 2, where the first block of a horizon-2 report ends, and meets it again at n = 3.
    x = 1.0 - 5e-13
    P = np.array([
        [0.0, x, 1.0 - x + 1e-12, -1e-12],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0, 0.0],
    ])
    n, total, mean, _ = series_by_loop(P, 0, 1, 1e-12, 50)
    assert n == 1
    series = build_fpt_report(P, 0, 1, 2, 1e-12, 50)["efpt"]["series"]
    assert (series["n_terms"], series["quarters"]) == (n, mean)
