import concurrent.futures
import dataclasses

import numpy as np
import pytest

from lmflows.errors import EmptyCohortError, NonStochasticError
from lmflows.estimation import (
    FALLBACK_ABSORBING,
    FALLBACK_UNIFORM,
    ThinRowWarning,
    TransitionMatrix,
    apply_fallback_policy,
    compute_shares,
    estimate_transition_matrix,
    renormalize_rows,
)
from lmflows.panel import ObservationPair, PanelDataset, generate_synthetic_panel
from lmflows.states import (
    AgeBand,
    CohortFilter,
    Demographics,
    LaborState,
    MacroRegion,
    QuarterId,
    Sex,
)

from conftest import random_stochastic
from oracles import PAIR_COLUMNS, tabulate_transitions

Q1 = QuarterId(2019, 1)
Q2 = QuarterId(2019, 2)


def pair(s_from, s_to, weight=1.0, age=22, sex=Sex.F, citizen=True,
         region=MacroRegion.NORTH, quarter=Q1, pid="X"):
    return ObservationPair(
        person_id=pid,
        quarter_from=quarter,
        quarter_to=quarter.plus(1),
        state_from=LaborState.parse(s_from),
        state_to=LaborState.parse(s_to),
        demographics=Demographics(age, sex, citizen, region),
        weight=weight,
    )


def dataset(*pairs):
    return PanelDataset.from_pairs(pairs, provenance="test")


class TestComputeShares:
    def test_hand_tabulated(self):
        data = dataset(
            pair("EDU", "EDU"), pair("EDU", "TE"), pair("U", "U"), pair("TE", "TE"),
        )
        table = compute_shares(data, Q1)
        assert table.shares[LaborState.EDU] == pytest.approx(0.5)
        assert table.shares[LaborState.U] == pytest.approx(0.25)
        assert table.shares[LaborState.TE] == pytest.approx(0.25)
        assert table.shares[LaborState.PE] == 0.0
        assert table.n_obs[LaborState.EDU] == 2
        assert table.total_weight == pytest.approx(4.0)

    def test_weights_move_shares(self):
        data = dataset(pair("EDU", "EDU", weight=3.0), pair("U", "U", weight=1.0))
        table = compute_shares(data, Q1)
        assert table.shares[LaborState.EDU] == pytest.approx(0.75)

    def test_filters_by_quarter_and_cohort(self):
        data = dataset(
            pair("EDU", "EDU", sex=Sex.F),
            pair("U", "U", sex=Sex.M),
            pair("PE", "PE", quarter=Q2),
        )
        table = compute_shares(data, Q1, CohortFilter(sex=Sex.F))
        assert table.shares[LaborState.EDU] == 1.0
        assert table.total_weight == 1.0

    def test_empty_cohort_raises(self):
        data = dataset(pair("EDU", "EDU", region=MacroRegion.NORTH))
        with pytest.raises(EmptyCohortError) as err:
            compute_shares(data, Q1, CohortFilter(region=MacroRegion.SOUTH))
        assert "region=SOUTH" in str(err.value)
        with pytest.raises(EmptyCohortError):
            compute_shares(data, QuarterId(2030, 1))

    def test_weight_rescaling_invariance(self, rng):
        pairs = [
            pair(
                LaborState(int(rng.integers(7))).name,
                LaborState(int(rng.integers(7))).name,
                weight=0.5 + float(rng.random()),
                pid=str(k),
            )
            for k in range(200)
        ]
        base = compute_shares(dataset(*pairs), Q1)
        scaled = compute_shares(
            dataset(*[
                ObservationPair(
                    p.person_id, p.quarter_from, p.quarter_to, p.state_from, p.state_to,
                    p.demographics, p.weight * 137.0,
                )
                for p in pairs
            ]),
            Q1,
        )
        for s in LaborState:
            assert scaled.shares[s] == pytest.approx(base.shares[s], abs=1e-12)


class TestEstimateTransitionMatrix:
    def test_hand_tabulated_edu_row(self):
        data = dataset(pair("EDU", "TE"), pair("EDU", "EDU"))
        m = estimate_transition_matrix(data, Q1, min_support=0.0)
        edu = LaborState.EDU.index
        assert m.entries[edu, LaborState.TE.index] == pytest.approx(0.5)
        assert m.entries[edu, edu] == pytest.approx(0.5)
        assert m.row_counts[edu] == pytest.approx(2.0)

    def test_matches_counting_oracle(self, rng):
        moves = [
            (int(rng.integers(7)), int(rng.integers(7)), float(0.5 + rng.random()))
            for _ in range(500)
        ]
        data = dataset(*[
            pair(LaborState(i).name, LaborState(j).name, weight=w, pid=str(k))
            for k, (i, j, w) in enumerate(moves)
        ])
        m = estimate_transition_matrix(data, Q1, min_support=0.0)
        expected, row_w = tabulate_transitions(moves)
        np.testing.assert_allclose(m.entries, expected, atol=1e-12)
        np.testing.assert_allclose(m.row_counts, row_w, atol=1e-12)

    def test_zero_departure_row_gets_exact_uniform(self):
        data = dataset(*[pair(s, s) for s in ("SE", "TE", "PE", "U", "NLFET", "EDU")])
        with pytest.warns(ThinRowWarning):
            m = estimate_transition_matrix(data, Q1)
        fs = LaborState.FS.index
        assert m.fallback_rows == frozenset([fs])
        assert all(v == 1.0 / 7 for v in m.entries[fs])
        assert m.row_counts[fs] == 0.0

    def test_thin_rows_warn_but_estimate(self):
        data = dataset(*[pair("EDU", "TE", pid=str(k)) for k in range(5)])
        with pytest.warns(ThinRowWarning, match="EDU"):
            m = estimate_transition_matrix(data, Q1, min_support=30.0)
        assert m.entries[LaborState.EDU.index, LaborState.TE.index] == 1.0

    def test_no_warning_above_support_floor(self, recwarn):
        data = dataset(*[pair("EDU", "TE", pid=str(k)) for k in range(40)])
        m = estimate_transition_matrix(
            data, Q1, CohortFilter(age_band=AgeBand.EARLY_YOUNG), min_support=5.0,
        )
        thin = [w for w in recwarn.list if issubclass(w.category, ThinRowWarning)]
        # EDU has 40 departures; the six empty rows are fallback, not thin.
        assert not any("EDU" in str(w.message) for w in thin)
        assert m.cohort == CohortFilter(age_band=AgeBand.EARLY_YOUNG)

    def test_empty_cohort_raises(self):
        data = dataset(pair("EDU", "TE"))
        with pytest.raises(EmptyCohortError):
            estimate_transition_matrix(data, Q2)

    def test_weight_rescaling_invariance(self, rng):
        pairs = [
            pair(LaborState(int(rng.integers(7))).name, LaborState(int(rng.integers(7))).name,
                 weight=0.5 + float(rng.random()), pid=str(k))
            for k in range(300)
        ]
        base = estimate_transition_matrix(dataset(*pairs), Q1, min_support=0.0)
        scaled_pairs = [
            ObservationPair(p.person_id, p.quarter_from, p.quarter_to, p.state_from,
                            p.state_to, p.demographics, p.weight * 0.001)
            for p in pairs
        ]
        scaled = estimate_transition_matrix(dataset(*scaled_pairs), Q1, min_support=0.0)
        np.testing.assert_allclose(scaled.entries, base.entries, atol=1e-12)

    @pytest.mark.parametrize("n", [2000, 20000])
    def test_converges_to_truth(self, n):
        truth = np.array([
            [0.70, 0.10, 0.05, 0.05, 0.04, 0.05, 0.01],
            [0.02, 0.75, 0.08, 0.05, 0.04, 0.05, 0.01],
            [0.01, 0.04, 0.88, 0.02, 0.02, 0.02, 0.01],
            [0.02, 0.15, 0.03, 0.45, 0.25, 0.09, 0.01],
            [0.02, 0.09, 0.02, 0.20, 0.60, 0.06, 0.01],
            [0.01, 0.05, 0.01, 0.02, 0.03, 0.87, 0.01],
            [0.05, 0.10, 0.40, 0.15, 0.15, 0.05, 0.10],
        ])
        data = generate_synthetic_panel(
            truth, np.full(7, 1.0 / 7), n, Q1, 2, seed=11,
        )
        m = estimate_transition_matrix(data, Q1)
        # Binomial noise: row counts ~ n/7, cell sd <= 0.5/sqrt(n/7).
        bound = 6 * 0.5 / np.sqrt(n / 7)
        assert np.abs(m.entries - truth).max() < bound


class TestTransitionMatrixType:
    def test_validates_stochasticity(self):
        bad = np.full((7, 7), 1.0 / 7)
        bad[2, 3] += 0.2
        with pytest.raises(NonStochasticError) as err:
            TransitionMatrix(entries=bad)
        assert err.value.row == 2

    def test_rejects_negative_entries(self):
        bad = np.full((2, 2), 0.5)
        bad[0, 0], bad[0, 1] = -0.25, 1.25
        with pytest.raises(NonStochasticError):
            TransitionMatrix(entries=bad, states=("A", "B"))

    def test_entries_are_read_only(self):
        m = TransitionMatrix(entries=np.full((7, 7), 1.0 / 7))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 0.9

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            TransitionMatrix(entries=np.eye(3), states=("A", "B"))

    def test_row_count_must_match(self):
        with pytest.raises(ValueError, match=r"^6 row counts for a 7x7 matrix$"):
            TransitionMatrix(entries=np.eye(7), row_counts=(1.0,) * 6)

    def test_fallback_rows_must_be_states(self):
        with pytest.raises(ValueError, match=r"^fallback row index out of range for a 7x7 matrix$"):
            TransitionMatrix(entries=np.eye(7), fallback_rows={7})

    @pytest.mark.parametrize("key,expected", [
        ("EDU", 5), ("edu", 5), (LaborState.PE, 2), (0, 0), (6, 6), ("NEET", 4),
    ])
    def test_state_index_resolution(self, key, expected):
        m = TransitionMatrix(entries=np.full((7, 7), 1.0 / 7))
        assert m.state_index(key) == expected

    @pytest.mark.parametrize("key", ["XX", 7, -1])
    def test_state_index_rejects_unknown(self, key):
        m = TransitionMatrix(entries=np.full((7, 7), 1.0 / 7))
        with pytest.raises(ValueError):
            m.state_index(key)

    def test_probability_lookup(self):
        m = TransitionMatrix(entries=np.eye(7))
        assert m.probability("U", "U") == 1.0
        assert m.probability("U", "PE") == 0.0


class TestRenormalizeRows:
    def test_published_style_row_sums(self, rng):
        raw = np.round(random_stochastic(rng, 7, floor=0.1), 2)
        fixed = renormalize_rows(raw)
        np.testing.assert_allclose(fixed.sum(axis=1), np.ones(7), atol=1e-12)

    def test_uniform_print_becomes_exact_seventh(self):
        raw = np.full((7, 7), 0.14)
        fixed = renormalize_rows(raw)
        np.testing.assert_allclose(fixed, np.full((7, 7), 1.0 / 7), atol=1e-15)

    def test_rejects_zero_row(self):
        raw = np.eye(3)
        raw[1] = 0.0
        with pytest.raises(ValueError):
            renormalize_rows(raw)

    def test_rejects_negative_entry(self):
        raw = np.full((2, 2), 0.5)
        raw[1, 0] = -0.1
        with pytest.raises(ValueError):
            renormalize_rows(raw)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            renormalize_rows(np.ones((2, 3)))

    def test_rejects_nan(self):
        raw = np.full((2, 2), 0.5)
        raw[0, 1] = np.nan
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            renormalize_rows(raw)


class TestFallbackPolicy:
    def _matrix_with_fallback(self):
        entries = np.full((7, 7), 1.0 / 7)
        return TransitionMatrix(entries=entries, fallback_rows=frozenset([6]))

    def test_uniform_policy_is_identity(self):
        m = self._matrix_with_fallback()
        assert apply_fallback_policy(m, FALLBACK_UNIFORM) is m

    def test_absorbing_policy_pins_fallback_rows(self):
        m = apply_fallback_policy(self._matrix_with_fallback(), FALLBACK_ABSORBING)
        assert m.entries[6, 6] == 1.0
        assert m.entries[6, :6].sum() == 0.0
        # Estimated rows untouched.
        assert m.entries[0, 0] == pytest.approx(1.0 / 7)
        assert m.fallback_rows == frozenset([6])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            apply_fallback_policy(self._matrix_with_fallback(), "drop")

    def test_no_fallback_rows_passthrough(self):
        m = TransitionMatrix(entries=np.full((7, 7), 1.0 / 7))
        assert apply_fallback_policy(m, FALLBACK_ABSORBING) is m


class TestCellSelectionMemo:
    """A dataset keeps its last cell's selection; every answer is what a fresh dataset gives."""

    CELLS = [(quarter, CohortFilter(age_band=band, sex=sex))
             for quarter in (Q1, Q2, Q1.plus(2), Q1.plus(6))
             for band in (None, AgeBand.TEENS, AgeBand.LATE_YOUNG)
             for sex in (None, Sex.F)]

    @pytest.fixture(scope="class")
    def panel(self):
        data = generate_synthetic_panel(
            random_stochastic(np.random.default_rng(8), 7, floor=0.05), np.full(7, 1.0 / 7),
            2000, Q1, 4, seed=5,
        )
        # Fractional weights, so that the order of the additions shows in the last bits.
        weights = np.random.default_rng(9).uniform(0.5, 2.0, len(data)).round(6)
        return dataclasses.replace(data, weight=weights)

    @staticmethod
    def answer(data, kind, cell):
        """The shares or the matrix of ``cell`` on ``data``, as exact values."""
        quarter, cohort = cell
        try:
            if kind == "shares":
                t = compute_shares(data, quarter, cohort)
                return list(t.shares.values()), list(t.n_obs.values()), t.total_weight
            m = estimate_transition_matrix(data, quarter, cohort, min_support=0.0)
            return m.entries.tobytes(), m.row_counts, m.fallback_rows
        except EmptyCohortError as exc:
            return str(exc)

    @staticmethod
    def restricted(data, rows):
        """A new dataset of ``data``'s ``rows`` (a mask or a slice), from the constructor."""
        return PanelDataset(person_ids=data.person_ids, provenance=data.provenance,
                            **{name: getattr(data, name)[rows] for name in PAIR_COLUMNS})

    def fresh(self, data):
        return self.restricted(data, slice(None))

    def requests(self, seed, n):
        rng = np.random.default_rng(seed)
        kinds, cells = rng.integers(2, size=n).tolist(), rng.integers(len(self.CELLS), size=n).tolist()
        return [(("shares", "matrix")[kind], self.CELLS[cell]) for kind, cell in zip(kinds, cells)]

    def test_interleaved_cells_read_as_on_a_fresh_dataset(self, panel):
        data = self.fresh(panel)
        for kind, cell in self.requests(1, 120):
            assert self.answer(data, kind, cell) == self.answer(self.fresh(panel), kind, cell)

    def test_two_datasets_keep_their_own_cells(self, panel):
        other = dataclasses.replace(panel, weight=panel.weight[::-1])
        a, b = self.fresh(panel), self.fresh(other)
        for kind, cell in self.requests(2, 60):
            for data, source in ((a, panel), (b, other), (a, panel)):
                assert self.answer(data, kind, cell) == self.answer(self.fresh(source), kind, cell)
        assert self.answer(a, "matrix", self.CELLS[0]) != self.answer(b, "matrix", self.CELLS[0])

    def test_a_taken_dataset_selects_its_own_rows(self, panel):
        data = self.fresh(panel)
        half = np.arange(len(data)) % 2 == 0
        for kind, cell in self.requests(3, 30):
            self.answer(data, kind, cell)
            want = self.answer(self.restricted(self.fresh(panel), half), kind, cell)
            assert self.answer(self.restricted(data, half), kind, cell) == want
        first = self.CELLS[0]
        part = self.restricted(data, half)
        assert self.answer(part, "shares", first) != self.answer(data, "shares", first)

    def test_threads_read_what_a_fresh_dataset_gives(self, panel):
        data = self.fresh(panel)
        work = [self.requests(seed, 80) for seed in range(10, 14)]
        want = [[self.answer(self.fresh(panel), kind, cell) for kind, cell in batch] for batch in work]
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda batch: [self.answer(data, kind, cell) for kind, cell in batch],
                                work))
        assert got == want

    def test_the_kept_selection_is_read_only(self, panel):
        data = self.fresh(panel)
        quarter, cohort = self.CELLS[3]
        picked = data.cell(quarter, cohort)
        assert data.cell(quarter, cohort) is picked
        assert len(picked) == 3 and len(picked[2])
        for column in picked:
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0
