"""One passage per report: ``build_fpt_report`` against the public routes called one by one.

A report builds one ``Passage``: the chain is validated and screened once
and the taboo recursion runs once, grown on demand. Its document must be
the one assembled from ``fpt_distribution``, ``check_well_defined``,
``efpt_series`` and ``efpt_linear``, each on its own chain read and its own
recursion, to the last bit and with the same errors in the same order. The
running sums must also be the ones a plain term-by-term loop adds.
"""

import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmflows
from lmflows import fpt, serialize
from lmflows.errors import InfiniteEfptError
from lmflows.estimation import FALLBACK_POLICIES, apply_fallback_policy
from lmflows.fixtures import fixture_names, get_fixture
from lmflows.fpt import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_HORIZON,
    Passage,
    check_well_defined,
    efpt_linear,
    efpt_series,
    fpt_distribution,
)
from lmflows.serialize import build_fpt_report

from oracles import series_by_loop

HORIZON = 40


def composed_report(m, source, target, horizon, epsilon, max_horizon) -> dict:
    """The report document assembled from the four public routes, one call each."""
    dist = fpt_distribution(m, source, target, horizon)
    cdf = dist.cdf()
    wd = check_well_defined(m, source, target, horizon=max_horizon)
    try:
        r = efpt_series(m, source, target, epsilon=epsilon, max_horizon=max_horizon)
        series = {"quarters": r.quarters, "years": r.efpt_years, "n_terms": r.n_terms,
                  "infinite": False, "detail": None}
    except InfiniteEfptError as exc:
        series = {"quarters": None, "years": None, "n_terms": None,
                  "infinite": True, "detail": str(exc)}
    try:
        r = efpt_linear(m, source, target)
        linear = {"quarters": r.quarters, "years": r.efpt_years, "infinite": False,
                  "trapped_states": [], "detail": None}
    except InfiniteEfptError as exc:
        linear = {"quarters": None, "years": None, "infinite": True,
                  "trapped_states": list(exc.trapped), "detail": str(exc)}

    def quarter(name):
        return str(getattr(m, name)) if getattr(m, name, None) is not None else None

    return {
        "source": dist.source,
        "target": dist.target,
        "horizon": int(horizon),
        "from_quarter": quarter("from_quarter"),
        "to_quarter": quarter("to_quarter"),
        "cohort": serialize._cohort_doc(getattr(m, "cohort", None)),
        "well_defined": {
            "verdict": wd.verdict,
            "mass_at_horizon": float(wd.mass_at_horizon),
            "reachable": bool(wd.reachable),
            "horizon": int(wd.horizon),
        },
        "efpt": {"series": series, "linear_system": linear},
        "distribution": [float(v) for v in dist.probabilities],
        "cdf": [float(v) for v in cdf],
        "survival": [float(1.0 - v) for v in cdf],
    }


def assert_same_report(m, source, target, horizon=HORIZON, epsilon=DEFAULT_EPSILON,
                       max_horizon=DEFAULT_MAX_HORIZON):
    got = build_fpt_report(m, source, target, horizon, epsilon, max_horizon)
    want = composed_report(m, source, target, horizon, epsilon, max_horizon)
    assert list(got) == list(want)
    for key in want:
        assert json.dumps(got[key]) == json.dumps(want[key]), (source, target, key)


def fixture_chains():
    for name in fixture_names():
        for policy in FALLBACK_POLICIES:
            yield pytest.param(name, policy, id=f"{name}-{policy}")


@pytest.mark.parametrize("name, policy", fixture_chains())
def test_report_equals_composed_routes_on_fixtures(name, policy):
    m = apply_fallback_policy(get_fixture(name).matrix(), policy)
    for source in m.states:
        for target in m.states:
            assert_same_report(m, source, target)


@pytest.mark.parametrize("name", ["early_2019Q3", "early_2020Q3", "demo_geometric_q25"])
def test_running_sums_equal_a_term_by_term_loop(name):
    m = get_fixture(name).matrix()
    P = np.asarray(m.entries)
    for i in range(len(P)):
        for j in range(len(P)):
            f = series_by_loop(P, i, j, -np.inf, HORIZON)[3]
            assert fpt_distribution(m, i, j, HORIZON).probabilities.tolist() == f
            wd = check_well_defined(m, i, j)
            if wd.horizon:
                n, total, _, _ = series_by_loop(P, i, j, 1e-6, DEFAULT_MAX_HORIZON)
                assert (wd.horizon, wd.mass_at_horizon) == (n, min(total, 1.0))
            try:
                r = efpt_series(m, i, j)
            except InfiniteEfptError:
                continue
            n, _, mean, _ = series_by_loop(P, i, j, DEFAULT_EPSILON, DEFAULT_MAX_HORIZON)
            assert (r.n_terms, r.quarters) == (n, mean)


@st.composite
def chains(draw):
    """Reducible chains with zero patterns, or nearly decomposable blocks (K <= 7)."""
    k = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.random((k, k))
    if draw(st.booleans()):
        P[rng.random((k, k)) < draw(st.floats(0.2, 0.8))] = 0.0
        for s in draw(st.lists(st.integers(0, k - 1), max_size=2)):
            P[s] = 0.0
            P[s, s] = 1.0                     # an absorbing state
    else:
        cut = draw(st.integers(1, k - 1))
        coupling = 10.0 ** -draw(st.integers(4, 8))
        block = np.zeros((k, k), dtype=bool)
        block[:cut, :cut] = block[cut:, cut:] = True
        P[~block] *= coupling
    P[P.sum(axis=1) == 0.0, 0] = 1.0
    return P / P.sum(axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(P=chains(), data=st.data())
def test_report_equals_composed_routes_on_generated_chains(P, data):
    k = len(P)
    i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
    horizon = data.draw(st.integers(1, 60))
    epsilon = data.draw(st.sampled_from([1e-12, DEFAULT_EPSILON, 1e-6, 1e-3]))
    max_horizon = data.draw(st.sampled_from([1, 7, 500, DEFAULT_MAX_HORIZON]))
    assert_same_report(P, i, j, horizon, epsilon, max_horizon)


@settings(max_examples=40, deadline=None)
@given(P=chains(), data=st.data())
def test_passage_results_do_not_depend_on_request_order(P, data):
    k = len(P)
    i, j = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
    requests = data.draw(st.lists(st.sampled_from([
        ("distribution", 1), ("distribution", 45), ("distribution", 700),
        ("series", 1e-9), ("series", 1e-3), ("well_defined", 300), ("well_defined", 4000),
    ]), min_size=1, max_size=5))

    def ask(passage, request):
        kind, arg = request
        try:
            if kind == "distribution":
                return passage.distribution(arg).probabilities.tolist()
            if kind == "series":
                return passage.series(arg, 3000)
            return passage.well_defined(arg)
        except InfiniteEfptError as exc:
            return str(exc)

    shared = Passage(P, i, j)
    for request in requests:
        assert ask(shared, request) == ask(Passage(P, i, j), request)


def test_one_validation_per_report(monkeypatch):
    calls = []
    real = lmflows.stochastic.ensure_row_stochastic

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (lmflows, lmflows.stochastic, lmflows.fpt, lmflows.estimation, lmflows.panel):
        if getattr(module, "ensure_row_stochastic", None) is real:
            monkeypatch.setattr(module, "ensure_row_stochastic", counted)
    m = get_fixture("early_2020Q3").matrix()
    bare = np.array(m.entries)
    for source, target in [("EDU", "PE"), ("EDU", "FS"), ("PE", "PE"), ("FS", "EDU")]:
        calls.clear()
        build_fpt_report(m, source, target, HORIZON, DEFAULT_EPSILON, DEFAULT_MAX_HORIZON)
        assert len(calls) == 0, (source, target)
        i, j = m.state_index(source), m.state_index(target)
        build_fpt_report(bare, i, j, HORIZON, DEFAULT_EPSILON, DEFAULT_MAX_HORIZON)
        assert len(calls) == 1, (source, target)


def test_huge_term_cap_on_a_fast_passage_is_cheap():
    m = get_fixture("demo_geometric_q25").matrix()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        doc = build_fpt_report(m, "A", "B", HORIZON, DEFAULT_EPSILON, 10**8)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert doc["well_defined"]["verdict"] == fpt.VERDICT_WELL_DEFINED
    assert doc["efpt"]["series"]["n_terms"] < 200
    assert peak < 1_000_000
    assert elapsed < 5.0


def _outcome(fn, *args):
    try:
        return "ok", json.dumps(fn(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("chain", ["ok", "bad_row", "unknown_source", "unknown_target"])
@pytest.mark.parametrize("horizon, epsilon, max_horizon", [
    (0, 0.0, 0), (5, 0.0, 0), (5, 2.0, 0), (0, DEFAULT_EPSILON, 10), (5, 0.0, 10),
    (5, float("nan"), 10), (-3, 1.5, -1), (5, DEFAULT_EPSILON, 10),
])
def test_errors_in_the_order_of_the_composed_routes(chain, horizon, epsilon, max_horizon):
    m = get_fixture("early_2019Q3").matrix()
    source, target = "EDU", "PE"
    if chain == "bad_row":
        entries = np.asarray(m.entries).copy()
        entries[3, 0] += 0.25
        entries[5, 1] = np.nan
        m = entries
        source, target = 0, 1
    elif chain == "unknown_source":
        source = "XX"
    elif chain == "unknown_target":
        target = 9
    args = (m, source, target, horizon, epsilon, max_horizon)
    assert _outcome(build_fpt_report, *args) == _outcome(composed_report, *args)
