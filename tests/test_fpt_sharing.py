"""One engine per (chain, target): reports that share a run read what they would read alone.

fpt keeps one engine per target of a ``TransitionMatrix``, and every report
on the matrix into that target reads it, whatever came before: other sources,
other targets, other horizons and stopping rules, other threads. Each
document must be the one a fresh matrix, or the bare array, gives. The
engine keeps no run of terms, so a long divergent check stays small, and
what a matrix keeps is bounded whatever it was asked. The linear route
solves once per region of an engine, and every source whose passage has
that region reads the one solve.
"""

import collections
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
from lmflows.fixtures import fixture_names, get_fixture
from lmflows.fpt import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_HORIZON,
    VERDICT_DIVERGENT,
    check_well_defined,
    efpt_linear,
    efpt_series,
    fpt_distribution,
)
from lmflows.serialize import build_fpt_report

from oracles import series_by_loop, taboo_region
from test_fpt_engine import assert_follows_the_term_loop, chains

HORIZON = 40
# (horizon, epsilon, max_horizon) of a report.
SIGNATURES = [
    (HORIZON, DEFAULT_EPSILON, DEFAULT_MAX_HORIZON),
    (7, 1e-6, 500),
    (90, 1e-12, 300),
    (1, 1e-3, 1),
    # Far longer than an engine keeps rows for: served by a throwaway engine.
    (fpt.DEFAULT_HORIZON + 1060, 1e-10, 1500),
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
        return repr(check_well_defined(m, source, target, horizon=max_horizon, epsilon=epsilon))
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
        fpt_distribution(m, "EDU", target, fpt.DEFAULT_HORIZON + 1)
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
    edu, pe = m.state_index("EDU"), m.state_index("PE")
    loops = [series_by_loop(m.entries, edu, pe, 10.0 ** -e, DEFAULT_MAX_HORIZON) for e in range(3, 15)]
    assert [(r.n_terms, r.quarters) for r in want] == [(n, mean) for n, _, mean, _, _ in loops]
    engine = fpt._ENGINES[m][m.state_index("PE")]
    assert engine._rule == (1e-14, DEFAULT_MAX_HORIZON)
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
            assert_follows_the_term_loop(P, P, i, j)


def test_a_falling_mass_stops_where_it_first_meets_tol():
    # P[0, 2] = -1e-12 lies outside the support, so it feeds F on the region
    # {0} from outside it: F(2) is 0 there and the bound is met at n = 2;
    # F(3) = -1e-12 (the mass falls) and the bound fails at n = 3, where the
    # first block of a horizon-3 report ends; F(4) is 0 and it is met again.
    P = np.array([
        [0.0, 1.0 + 1e-12, -1e-12, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0, 0.0],
    ])
    # The region is {0} with Q = [[0]]: C1 = 1 and C2 = 0, so after n the
    # bound on the mass is |f(n)| and on the rest of the mean n |f(n)|.
    f = series_by_loop(P, 0, 1, -np.inf, 4)[-1]
    means = np.cumsum(np.arange(1, 5) * f)
    assert [abs(v) <= 1e-6 and n * abs(v) <= 1e-12 * mu
            for n, v, mu in zip(range(1, 5), f, means)] == [False, True, False, True]
    n, total, mean, met, _ = series_by_loop(P, 0, 1, 1e-12, 50)
    assert (n, met) == (2, True)
    doc = build_fpt_report(P, 0, 1, 3, 1e-12, 50)
    series = doc["efpt"]["series"]
    assert (series["n_terms"], series["quarters"]) == (n, mean)
    assert (doc["well_defined"]["horizon"], doc["well_defined"]["mass_at_horizon"]) \
        == (2, min(total, 1.0))


def count_linalg(monkeypatch) -> collections.Counter:
    """Count calls of np.linalg.svd and np.linalg.solve from here on."""
    calls = collections.Counter()
    for name in ("svd", "solve"):
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("fixture", fixture_names())
def test_a_sweep_solves_once_per_certain_region(fixture, monkeypatch):
    m = get_fixture(fixture).matrix()
    pairs = [(i, j) for i in range(len(m.states)) for j in range(len(m.states))]
    regions = set()
    for i, j in pairs:
        region, trapped, _ = taboo_region(m.entries, i, j)
        if not trapped:
            regions.add((j, tuple(region)))
    calls = count_linalg(monkeypatch)
    for _ in range(2):  # cold engines, then warm ones
        for i, j in pairs:
            report(m, i, j)
        assert (calls["svd"], calls["solve"]) == (len(regions), len(regions))


@pytest.mark.parametrize("fixture", fixture_names())
def test_a_warm_sweep_equals_cold_engines_and_the_bare_array(fixture):
    m = get_fixture(fixture).matrix()
    k = len(m.states)
    labelled = TransitionMatrix(entries=np.array(m.entries), states=tuple(str(s) for s in range(k)))
    pairs = [(i, j) for i in range(k) for j in range(k)]
    for i, j in pairs:
        report(m, i, j)
        report(labelled, i, j)
    for i, j in pairs:
        assert report(m, i, j) == report(copy.copy(m), i, j), (i, j)
        assert report(labelled, i, j) == report(np.array(m.entries), i, j), (i, j)


def test_threads_solve_each_region_once(monkeypatch):
    m = get_fixture("early_2020Q3").matrix()
    k = len(m.states)
    pairs = [(i, j) for i in range(k) for j in range(k)]
    screens = {(i, j): taboo_region(m.entries, i, j) for i, j in pairs}
    regions = {(j, tuple(region)) for (i, j), (region, trapped, _) in screens.items() if not trapped}

    def linear(m, i, j):
        try:
            return repr(efpt_linear(m, i, j))
        except fpt.InfiniteEfptError as exc:
            return str(exc)

    want = [linear(get_fixture("early_2020Q3").matrix(), i, j) for i, j in pairs]
    solved = []  # list.append is atomic; a Counter's += is not
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a, **kw: solved.append(1) or real(*a, **kw))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(linear, m, i, j) for _ in range(3) for i, j in pairs]
            got = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(switch)
    assert got == want * 3
    assert len(solved) == len(regions)


def test_a_singular_region_fails_once_for_each_source(monkeypatch):
    # A and B reach each other and leak into T: both passages into T have the region {A, B}.
    m = TransitionMatrix(entries=np.array([[0.5, 0.4, 0.1], [0.3, 0.5, 0.2], [0.0, 0.0, 1.0]]),
                         states=("A", "B", "T"))
    monkeypatch.setattr(fpt, "_SINGULAR_FLOOR", 10.0)
    calls = count_linalg(monkeypatch)
    for source in ("A", "B"):
        text = (f"expected first passage time from {source} to T is infinite or undefined: "
                "first-step system is numerically singular")
        with pytest.raises(fpt.InfiniteEfptError) as err:
            efpt_linear(m, source, "T")
        assert (str(err.value), err.value.source, err.value.trapped) == (text, source, ())
        linear = build_fpt_report(m, source, "T", HORIZON, DEFAULT_EPSILON,
                                  DEFAULT_MAX_HORIZON)["efpt"]["linear_system"]
        assert (linear["infinite"], linear["detail"]) == (True, text)
    assert (calls["svd"], calls["solve"]) == (1, 0)
