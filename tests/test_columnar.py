"""The columnar dataset against per-pair reference computations.

Shares and matrices are checked for exact equality with a Python loop over
``PanelDataset.pairs``: both add the weights one by one in row order, so
the column path must agree to the last bit, not just within a tolerance.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmflows.errors import EmptyCohortError
from lmflows.estimation import compute_shares, estimate_transition_matrix
from lmflows.panel import (
    PAIR_HEADER,
    WAVE_HEADER,
    ObservationPair,
    PanelDataset,
    generate_synthetic_panel,
    parse_panel_file,
    write_pairs_csv,
)
from lmflows.states import (
    REGION_ORDER,
    SEX_ORDER,
    AgeBand,
    CohortFilter,
    Demographics,
    LaborState,
    MacroRegion,
    QuarterId,
    Sex,
)

from oracles import PAIR_COLUMNS, cohort_matches, tabulate_transitions

START = QuarterId(2019, 3)

pair_fields = st.tuples(
    st.integers(0, 3),                      # departure quarter, from START
    st.integers(0, 6), st.integers(0, 6),   # states
    st.integers(15, 34),                    # age
    st.sampled_from(Sex), st.booleans(), st.sampled_from(MacroRegion),
    st.floats(0.01, 1000.0),                # weight
    st.sampled_from(["A", "B", "C", "D"]),  # person
)

cohorts = st.builds(
    CohortFilter,
    age_band=st.none() | st.sampled_from(AgeBand),
    sex=st.none() | st.sampled_from(Sex),
    citizen=st.none() | st.booleans(),
    region=st.none() | st.sampled_from(MacroRegion),
)


def make_pair(q, s_from, s_to, age, sex, citizen, region, weight, pid):
    quarter = START.plus(q)
    return ObservationPair(pid, quarter, quarter.plus(1), LaborState(s_from), LaborState(s_to),
                           Demographics(age, sex, citizen, region), weight)


def selected(data, quarter, cohort):
    return [p for p in data.pairs
            if p.quarter_from == quarter and cohort_matches(cohort, p.demographics)]


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(pair_fields, max_size=300), q=st.integers(0, 3), cohort=cohorts)
def test_shares_match_direct_count(rows, q, cohort):
    data = PanelDataset.from_pairs([make_pair(*r) for r in rows], "hypothesis")
    quarter = START.plus(q)
    chosen = selected(data, quarter, cohort)
    if not chosen:
        with pytest.raises(EmptyCohortError):
            compute_shares(data, quarter, cohort)
        return
    table = compute_shares(data, quarter, cohort)
    weight = {s: 0.0 for s in LaborState}
    total = 0.0
    for p in chosen:
        weight[p.state_from] += p.weight
        total += p.weight
    assert table.total_weight == total
    assert table.shares == {s: weight[s] / total for s in LaborState}
    assert table.n_obs == {s: sum(p.state_from is s for p in chosen) for s in LaborState}
    assert all(type(v) is float for v in table.shares.values())
    assert all(type(v) is int for v in table.n_obs.values())


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(pair_fields, max_size=300), q=st.integers(0, 3), cohort=cohorts)
def test_matrix_matches_counting_oracle(rows, q, cohort):
    data = PanelDataset.from_pairs([make_pair(*r) for r in rows], "hypothesis")
    quarter = START.plus(q)
    chosen = selected(data, quarter, cohort)
    if not chosen:
        with pytest.raises(EmptyCohortError):
            estimate_transition_matrix(data, quarter, cohort, min_support=0.0)
        return
    m = estimate_transition_matrix(data, quarter, cohort, min_support=0.0)
    expected, row_w = tabulate_transitions(
        (p.state_from.index, p.state_to.index, p.weight) for p in chosen)
    assert np.array_equal(m.entries, expected)
    assert m.row_counts == tuple(row_w.tolist())
    assert m.fallback_rows == frozenset(np.flatnonzero(row_w == 0).tolist())


@pytest.mark.parametrize("cohort", [
    CohortFilter(),
    CohortFilter(age_band=AgeBand.LATE_YOUNG, sex=Sex.F),
    CohortFilter(citizen=False, region=MacroRegion.SOUTH),
])
def test_sums_keep_row_order_on_a_large_cohort(cohort):
    # Hypothesis rarely draws cohorts large enough to tell a sequential sum
    # from numpy's pairwise one (8 or more rows); this one has hundreds.
    rng = np.random.default_rng(11)
    rows = [(int(rng.integers(0, 2)), *map(int, rng.integers(0, 7, 2)), int(rng.integers(15, 35)),
             Sex.F if rng.random() < 0.5 else Sex.M, bool(rng.random() < 0.5),
             MacroRegion.SOUTH if rng.random() < 0.5 else MacroRegion.NORTH,
             float(rng.lognormal(6.0, 1.0)), f"P{k}") for k in range(3000)]
    data = PanelDataset.from_pairs([make_pair(*r) for r in rows], "large")
    chosen = selected(data, START, cohort)
    assert len(chosen) > 100
    total, flows = 0.0, np.zeros((7, 7))
    for p in chosen:
        total += p.weight
        flows[p.state_from.index, p.state_to.index] += p.weight
    assert compute_shares(data, START, cohort).total_weight == total
    m = estimate_transition_matrix(data, START, cohort, min_support=0.0)
    assert m.row_counts == tuple(flows.sum(axis=1).tolist())


def interleaved(n, seed, quarters):
    """A dataset of ``n`` rows whose departure quarters, drawn from ``quarters``, interleave."""
    rng = np.random.default_rng(seed)
    return PanelDataset(
        person_ids=("P",), person=np.zeros(n, dtype=np.int64), quarter=rng.choice(quarters, n),
        state_from=rng.integers(0, 7, n), state_to=rng.integers(0, 7, n),
        age=rng.integers(15, 35, n), sex=rng.integers(0, 2, n), citizen=rng.random(n) < 0.9,
        region=rng.integers(0, 3, n), weight=rng.lognormal(6.0, 1.0, n), provenance="interleaved")


def assert_full_scan_figures(data, quarter, cohort):
    """Shares and matrix equal, to the last bit, bincounts over one mask of every row."""
    mask = data.quarter == quarter.ordinal
    if cohort.age_band is not None:
        mask &= (data.age >= cohort.age_band.lo) & (data.age <= cohort.age_band.hi)
    if cohort.sex is not None:
        mask &= data.sex == SEX_ORDER.index(cohort.sex)
    if cohort.citizen is not None:
        mask &= data.citizen == cohort.citizen
    if cohort.region is not None:
        mask &= data.region == REGION_ORDER.index(cohort.region)
    state, to, weight = data.state_from[mask], data.state_to[mask], data.weight[mask]
    total = np.bincount(np.zeros(len(weight), dtype=np.intp), weights=weight)[0]
    by_state = np.bincount(state, weights=weight, minlength=7)
    flows = np.bincount(state * 7 + to, weights=weight, minlength=49).reshape(7, 7)
    table = compute_shares(data, quarter, cohort)
    assert table.total_weight == total
    assert table.shares == {s: by_state[s.index] / total for s in LaborState}
    m = estimate_transition_matrix(data, quarter, cohort, min_support=0.0)
    assert m.row_counts == tuple(flows.sum(axis=1).tolist())
    assert np.array_equal(m.entries, flows / flows.sum(axis=1)[:, None])


FULL_SCAN_COHORTS = [
    CohortFilter(),
    CohortFilter(age_band=AgeBand.LATE_YOUNG, sex=Sex.F),
    CohortFilter(citizen=False, region=MacroRegion.SOUTH),
]


@pytest.mark.parametrize("cohort", FULL_SCAN_COHORTS)
def test_grouped_selection_matches_a_full_scan(cohort):
    # Seven quarters drawn at random for each row: every quarter's rows are
    # scattered over the file, and a cell holds thousands of them, enough for
    # any reordering inside a quarter to change the last bits of a sum.
    data = interleaved(60_000, 21, START.ordinal + np.arange(7))
    for q in range(7):
        assert_full_scan_figures(data, START.plus(q), cohort)


def test_quarter_span_wider_than_16_bits():
    # 65536 quarters apart, two quarters would share a 16-bit offset key; but
    # departures lie in 1900.1-9999.3, at most 32398 apart, so no dataset
    # holds such a span. The widest it can hold, and a span past 8 bits,
    # read as a full scan.
    with pytest.raises(ValueError, match="^dataset column quarter holds"):
        interleaved(100, 22, START.ordinal + np.array([0, 1, 1 << 16]))
    first = QuarterId(1900, 1)
    for quarters in ((first, first.plus(1), QuarterId(9999, 3)), (START, START.plus(1), START.plus(256))):
        data = interleaved(6_000, 22, [quarter.ordinal for quarter in quarters])
        for quarter in quarters:
            for cohort in FULL_SCAN_COHORTS:
                assert_full_scan_figures(data, quarter, cohort)


@pytest.mark.parametrize("cohort", [CohortFilter(), CohortFilter(sex=Sex.M)])
def test_empty_dataset_and_absent_quarter(cohort):
    empty = PanelDataset.from_pairs([], "empty")
    one_quarter = interleaved(500, 23, [START.ordinal])
    for data, quarter in ((empty, START), (one_quarter, START.plus(-1)),
                          (one_quarter, START.plus(1))):
        with pytest.raises(EmptyCohortError):
            compute_shares(data, quarter, cohort)
        with pytest.raises(EmptyCohortError):
            estimate_transition_matrix(data, quarter, cohort)


def test_quarter_grouping_is_built_once_per_dataset(monkeypatch):
    data = interleaved(3_000, 24, START.ordinal + np.arange(3))
    sorts = []
    argsort = np.argsort

    def counting(*args, **kwargs):
        sorts.append(args)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    for q in range(4):
        for cohort in (CohortFilter(), CohortFilter(sex=Sex.F, citizen=True)):
            if q < 3:
                compute_shares(data, START.plus(q), cohort)
                estimate_transition_matrix(data, START.plus(q), cohort, min_support=0.0)
            else:
                with pytest.raises(EmptyCohortError):
                    compute_shares(data, START.plus(q), cohort)
    assert len(sorts) == 1
    mask = data.sex == 0
    part = PanelDataset(person_ids=data.person_ids, provenance=data.provenance,
                        **{name: getattr(data, name)[mask] for name in PAIR_COLUMNS})
    assert "_by_quarter" not in vars(part)
    compute_shares(part, START)
    estimate_transition_matrix(part, START.plus(1), min_support=0.0)
    assert len(sorts) == 2
    assert part._by_quarter is not data._by_quarter
    assert_full_scan_figures(part, START, CohortFilter(age_band=AgeBand.EARLY_YOUNG))


def _parse_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        path.write_text(text, encoding="utf-8")
        return parse_panel_file(path)


def test_from_pairs_round_trip_pair_rows(tmp_path):
    P = np.full((7, 7), 1.0 / 7)
    sim = generate_synthetic_panel(P, np.full(7, 1.0 / 7), 300, START, 6, seed=2)
    path = tmp_path / "pairs.csv"
    write_pairs_csv(sim, path)
    data, _ = parse_panel_file(path)
    assert len(data) == len(sim) > 0
    assert PanelDataset.from_pairs(data.pairs, "copy").pairs == data.pairs == sim.pairs


def test_from_pairs_round_trip_wave_rows():
    lines = [",".join(WAVE_HEADER)]
    rng = np.random.default_rng(5)
    for k in range(120):
        age, sex, region = 15 + k % 25, "MF"[k % 2], ("NORTH", "CENTRE", "SOUTH")[k % 3]
        for offset in (0, 1, 4, 5):
            quarter = START.plus(int(rng.integers(0, 2)) + offset)
            state = LaborState(int(rng.integers(0, 7))).name
            lines.append(f"W{k % 70},{quarter},{state},{age},{sex},1,{region},{1 + rng.random():.3f}")
    data, report = _parse_text("\n".join(lines) + "\n")
    assert len(data) > 0 and report.n_age_filtered > 0
    pairs = data.pairs
    assert [(p.person_id, p.quarter_from) for p in pairs] == sorted(
        (p.person_id, p.quarter_from) for p in pairs)
    assert PanelDataset.from_pairs(pairs, "copy").pairs == pairs


def test_pairs_are_built_on_demand_and_share_instances():
    data = generate_synthetic_panel(np.eye(7), np.full(7, 1.0 / 7), 200, START, 4, seed=1)
    first, second = data.pairs, data.pairs
    assert first == second and first is not second
    assert "pairs" not in vars(data)
    quarters = {id(p.quarter_from) for p in first} | {id(p.quarter_to) for p in first}
    assert len(quarters) == len({p.quarter_from for p in first} | {p.quarter_to for p in first})
    assert len({id(p.demographics) for p in first}) == len({p.demographics for p in first})


good_fields = [
    "P1", "2019.3", "2019.4", "EDU", "TE", "21", "F", "1", "SOUTH", "1.5",
]
bad_tokens = st.sampled_from([
    "", " ", "2019.5", "２０１９.3", "2020.1", "XX", "neet", "14", "35", "２１", "-1", "old",
    "X", "2", "EAST", "0", "-3.5", "nan", "inf", "n/a", '"a,b"', "﻿21",
])


@st.composite
def dirty_rows(draw):
    fields = list(good_fields)
    for i in draw(st.sets(st.integers(0, len(fields) - 1), max_size=3)):
        fields[i] = draw(bad_tokens)
    extra = draw(st.sampled_from([[], ["extra"], None]))
    if extra is None:
        fields = fields[:-1]
    else:
        fields += extra
    return ",".join(fields)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(dirty_rows(), max_size=25))
def test_pair_rows_account_for_every_row(rows):
    data, report = _parse_text(",".join(PAIR_HEADER) + "\n" + "".join(r + "\n" for r in rows))
    assert report.n_rows == report.n_pairs + len(report.rejections) + report.n_age_filtered
    assert report.n_pairs == len(data)
    assert [line for line, _ in report.rejections] == sorted({line for line, _ in report.rejections})
