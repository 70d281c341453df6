import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmflows import fpt
from lmflows.errors import InfiniteEfptError, NonStochasticError
from lmflows.estimation import TransitionMatrix
from lmflows.fixtures import fixture_names, get_fixture
from lmflows.fpt import (
    DEFAULT_EPSILON,
    VERDICT_DIVERGENT,
    VERDICT_SUSPECT,
    VERDICT_WELL_DEFINED,
    FptDistribution,
    check_well_defined,
    efpt_linear,
    efpt_series,
    fpt_cdf,
    fpt_distribution,
)

from conftest import random_stochastic
from oracles import geometric_fpt, path_sum_fpt, reachable_by_powers, taboo_region


def two_state(a, b):
    """[[1-a, a], [b, 1-b]]: leave A with rate a, leave B with rate b."""
    return np.array([[1.0 - a, a], [b, 1.0 - b]])


class TestDistributionAgainstOracle:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_path_enumeration(self, k, rng):
        for _ in range(10):
            P = random_stochastic(rng, k)
            for i in range(k):
                for j in range(k):
                    got = fpt_distribution(P, i, j, 6).probabilities
                    want = path_sum_fpt(P, i, j, 6)
                    np.testing.assert_allclose(got, want, atol=1e-12)

    def test_sparse_chains_with_zero_entries(self, rng):
        for _ in range(20):
            P = random_stochastic(rng, 4)
            mask = rng.random((4, 4)) < 0.4
            P[mask] = 0.0
            rows = P.sum(axis=1)
            ok = rows > 0
            P[ok] = P[ok] / rows[ok, None]
            P[~ok] = 0.25
            got = fpt_distribution(P, 0, 3, 6).probabilities
            want = path_sum_fpt(P, 0, 3, 6)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_first_step_is_the_matrix_entry(self, rng):
        P = random_stochastic(rng, 5)
        for i in range(5):
            for j in range(5):
                assert fpt_distribution(P, i, j, 1).probabilities[0] == P[i, j]


class TestGeometric:
    @pytest.mark.parametrize("q", [0.1, 0.25, 0.5, 1.0])
    def test_distribution_closed_form(self, q):
        P = two_state(q, 0.0)
        got = fpt_distribution(P, 0, 1, 30).probabilities
        np.testing.assert_allclose(got, geometric_fpt(q, 30), atol=1e-14)

    @pytest.mark.parametrize("q", [0.1, 0.25, 0.5, 1.0])
    def test_efpt_both_routes(self, q):
        P = two_state(q, 0.0)
        assert efpt_series(P, 0, 1, epsilon=1e-12).quarters == pytest.approx(1.0 / q, abs=1e-9)
        assert efpt_linear(P, 0, 1).quarters == pytest.approx(1.0 / q, abs=1e-9)

    def test_return_time_is_inverse_stationary_mass(self):
        # For [[1-a, a], [b, 1-b]], pi_A = b / (a + b) and the expected
        # return time to A is 1 / pi_A.
        a, b = 0.3, 0.2
        P = two_state(a, b)
        want = (a + b) / b
        assert efpt_linear(P, 0, 0).quarters == pytest.approx(want, rel=1e-12)
        assert efpt_series(P, 0, 0, epsilon=1e-12).quarters == pytest.approx(want, rel=1e-9)

    def test_cross_passage(self):
        P = two_state(0.3, 0.2)
        assert efpt_linear(P, 0, 1).quarters == pytest.approx(1 / 0.3, rel=1e-12)
        assert efpt_linear(P, 1, 0).quarters == pytest.approx(1 / 0.2, rel=1e-12)


class TestSeriesVsLinear:
    def test_agree_on_random_dense_chains(self, rng):
        for _ in range(30):
            k = int(rng.integers(2, 8))
            P = random_stochastic(rng, k, floor=0.05)
            i, j = int(rng.integers(k)), int(rng.integers(k))
            s = efpt_series(P, i, j)
            l = efpt_linear(P, i, j)
            assert abs(s.quarters - l.quarters) / l.quarters < 1e-6
            assert s.method == "series"
            assert l.method == "linear_system"

    def test_series_reports_term_count(self):
        P = two_state(0.5, 0.0)
        r = efpt_series(P, 0, 1)
        assert r.n_terms is not None and r.n_terms >= 1
        assert r.efpt_years == r.quarters / 4.0


class TestStateResolution:
    def test_labels_and_enums(self):
        m = TransitionMatrix(entries=np.full((7, 7), 1.0 / 7))
        by_label = fpt_distribution(m, "EDU", "PE", 5).probabilities
        by_index = fpt_distribution(m, 5, 2, 5).probabilities
        np.testing.assert_array_equal(by_label, by_index)
        r = efpt_series(m, "edu", "pe")
        assert (r.source, r.target) == ("EDU", "PE")

    def test_neet_alias(self):
        m = TransitionMatrix(entries=np.full((7, 7), 1.0 / 7))
        assert efpt_linear(m, "NEET", "U").source == "NLFET"

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError):
            fpt_distribution(np.eye(2), "A", 1, 5)

    def test_a_bool_is_not_a_state_index(self):
        m = TransitionMatrix(entries=np.full((7, 7), 1.0 / 7))
        with pytest.raises(ValueError, match=r"^unknown state True; expected one of SE, TE, "):
            efpt_series(m, True, "PE")

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            fpt_distribution(np.eye(2), 0, 1, 0)
        with pytest.raises(ValueError):
            efpt_series(np.full((2, 2), 0.5), 0, 1, epsilon=0.0)
        with pytest.raises(ValueError):
            efpt_series(np.full((2, 2), 0.5), 0, 1, max_horizon=0)

    @pytest.mark.parametrize("call", [
        lambda P: efpt_series(P, 0, 1, epsilon="0.1"),
        lambda P: check_well_defined(P, 0, 1, epsilon=None),
    ], ids=["series", "verdict"])
    def test_an_epsilon_that_is_no_number_is_a_type_error(self, call):
        with pytest.raises(TypeError, match=r"^epsilon must be a real number, got "):
            call(np.full((2, 2), 0.5))

    def test_non_stochastic_matrix_rejected(self):
        with pytest.raises(NonStochasticError):
            fpt_distribution(np.ones((3, 3)), 0, 1, 5)


class TestRelabelingInvariance:
    def test_fpt_and_efpt_commute_with_permutations(self, rng):
        for _ in range(10):
            k = int(rng.integers(3, 7))
            P = random_stochastic(rng, k, floor=0.02)
            perm = rng.permutation(k)
            Q = P[np.ix_(perm, perm)]
            # State s in P sits at position pos[s] in Q.
            pos = np.empty(k, dtype=int)
            pos[perm] = np.arange(k)
            i, j = int(rng.integers(k)), int(rng.integers(k))
            f_p = fpt_distribution(P, i, j, 12).probabilities
            f_q = fpt_distribution(Q, int(pos[i]), int(pos[j]), 12).probabilities
            np.testing.assert_allclose(f_p, f_q, atol=1e-13)
            assert efpt_linear(P, i, j).quarters == pytest.approx(
                efpt_linear(Q, int(pos[i]), int(pos[j])).quarters, rel=1e-10
            )


def test_a_distribution_holds_one_probability_per_quarter_of_its_horizon():
    with pytest.raises(ValueError, match=r"^expected 4 probabilities, got shape \(3,\)$"):
        FptDistribution(source="A", target="B", probabilities=[0.1, 0.2, 0.3], horizon=4)


class TestCdf:
    def test_monotone_and_bounded(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 7))
            P = random_stochastic(rng, k)
            i, j = int(rng.integers(k)), int(rng.integers(k))
            cdf = fpt_cdf(P, i, j, 60)
            assert np.all(np.diff(cdf) >= -1e-15)
            assert cdf[0] >= 0.0
            assert cdf[-1] <= 1.0 + 1e-12

    def test_survival_complements_cdf(self, rng):
        P = random_stochastic(rng, 4)
        d = fpt_distribution(P, 0, 2, 25)
        np.testing.assert_allclose(d.cdf() + d.survival(), np.ones(25), atol=1e-15)


class TestDegenerateChains:
    def test_identity_unreachable_target(self):
        P = np.eye(4)
        verdict = check_well_defined(P, 0, 2)
        assert verdict.verdict == VERDICT_DIVERGENT
        assert not verdict.reachable
        assert verdict.mass_at_horizon == 0.0
        with pytest.raises(InfiniteEfptError) as err:
            efpt_linear(P, 0, 2)
        assert err.value.trapped == ("0",)
        with pytest.raises(InfiniteEfptError):
            efpt_series(P, 0, 2, max_horizon=50)

    def test_trapped_absorbing_side_state(self):
        # From A the chain may fall into C, which never leads to B.
        P = np.array([
            [0.5, 0.3, 0.2],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ])
        with pytest.raises(InfiniteEfptError) as err:
            efpt_linear(P, 0, 1)
        assert "2" in err.value.trapped
        assert check_well_defined(P, 0, 1, horizon=200).verdict == VERDICT_DIVERGENT

    def test_tiny_leak_into_absorbing_side_state_is_divergent(self):
        # The passage mass from A reaches 1 - 2e-8, inside any mass
        # threshold, yet C traps the chain: the expectation is infinite.
        P = np.array([
            [0.5, 0.5 - 1e-8, 1e-8],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ])
        v = check_well_defined(P, 0, 1)
        assert v.verdict == VERDICT_DIVERGENT
        assert v.reachable
        with pytest.raises(InfiniteEfptError) as err:
            efpt_series(P, 0, 1)
        assert err.value.trapped == ("2",)
        with pytest.raises(InfiniteEfptError) as err:
            efpt_linear(P, 0, 1)
        assert err.value.trapped == ("2",)

    def test_labels_appear_in_diagnostic(self):
        m = TransitionMatrix(entries=np.eye(7))
        with pytest.raises(InfiniteEfptError) as err:
            efpt_linear(m, "EDU", "PE")
        assert err.value.trapped == ("EDU",)
        assert "EDU" in str(err.value) and "PE" in str(err.value)

    def test_absorbing_target_from_absorbing_source(self):
        P = two_state(0.25, 0.0)
        with pytest.raises(InfiniteEfptError):
            efpt_linear(P, 1, 0)

    def test_reachability_screen_matches_power_oracle(self, rng):
        for _ in range(25):
            k = int(rng.integers(2, 6))
            P = random_stochastic(rng, k)
            mask = rng.random((k, k)) < 0.5
            P[mask] = 0.0
            rows = P.sum(axis=1)
            ok = rows > 0
            P[ok] = P[ok] / rows[ok, None]
            P[~ok] = 1.0 / k
            for i in range(k):
                for j in range(k):
                    expected = reachable_by_powers(P, i, j)
                    try:
                        efpt_linear(P, i, j)
                        raised = raised_unreachable = False
                    except InfiniteEfptError as exc:
                        raised = True
                        raised_unreachable = str(i) in exc.trapped or not expected
                    verdict = check_well_defined(P, i, j, horizon=50).verdict
                    assert (verdict == VERDICT_DIVERGENT) == raised
                    if i != j and not expected:
                        assert raised_unreachable


@st.composite
def sparse_supports(draw):
    """Chains of up to 8 states that matter only by their support: sparse,
    with absorbing rows and all-zero columns (and so all-zero rows)."""
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.0, 0.7))
    P = np.where(rng.random((k, k)) < density, rng.uniform(0.1, 1.0, (k, k)), 0.0)
    for s in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        P[s] = 0.0
        P[s, s] = 1.0
    for c in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        P[:, c] = 0.0
    return P


@settings(max_examples=200, deadline=None)
@given(P=sparse_supports())
def test_screen_matches_the_search_oracle(P):
    for j in range(len(P)):
        engine = fpt._Engine(P, j)
        for i in range(len(P)):
            region, trapped, reachable = fpt._screen(engine, i, j)
            assert (region.tolist(), trapped.tolist(), reachable) == taboo_region(P, i, j), (i, j)


class TestWellDefinedVerdicts:
    def test_clean_chain_is_well_defined(self):
        P = two_state(0.25, 0.1)
        v = check_well_defined(P, 0, 1)
        assert v.verdict == VERDICT_WELL_DEFINED
        assert v.reachable
        assert v.mass_at_horizon > 1.0 - 1e-6

    def test_slow_mixing_at_short_horizon_is_suspect(self):
        # Passage mass converges like 0.995^n here: horizon 500 leaves a
        # tail in (1e-6, 1e-3), long horizons close it out.
        P = two_state(0.005, 0.0)
        v = check_well_defined(P, 0, 1, horizon=1500)
        assert v.verdict == VERDICT_SUSPECT
        v_long = check_well_defined(P, 0, 1, horizon=6000)
        assert v_long.verdict == VERDICT_WELL_DEFINED

    def test_verdict_fields(self):
        P = two_state(0.5, 0.0)
        v = check_well_defined(P, 0, 1, horizon=100)
        assert v.source == "0" and v.target == "1"
        assert 1 <= v.horizon <= 100


def test_every_certain_fixture_passage_is_well_defined_under_a_raised_ceiling():
    # The slow passages into FS on the 2020.Q3 chains need about 9,000 terms:
    # suspect under the default ceiling, well defined under 20000.
    checked, suspect = set(), set()
    for name in fixture_names():
        m = get_fixture(name).matrix()
        for i, source in enumerate(m.states):
            for j, target in enumerate(m.states):
                try:
                    linear = efpt_linear(m, i, j).quarters
                except InfiniteEfptError:
                    continue
                if check_well_defined(m, i, j).verdict != VERDICT_WELL_DEFINED:
                    suspect.add((name, source, target))
                    with pytest.raises(InfiniteEfptError):
                        efpt_series(m, i, j)
                assert check_well_defined(m, i, j, horizon=20000).verdict == VERDICT_WELL_DEFINED, \
                    (name, i, j)
                series = efpt_series(m, i, j, max_horizon=20000).quarters
                assert abs(series - linear) <= DEFAULT_EPSILON * linear, (name, i, j)
                checked.add((name, source, target))
    assert len(checked) >= 300
    assert suspect == {(name, source, "FS") for name in ("early_2020Q3", "late_2020Q3")
                       for source in ("SE", "TE", "PE", "U", "NLFET", "EDU", "FS")}
    assert {(name, source, "FS") for name in ("early_2020Q3", "late_2020Q3")
            for source in ("SE", "TE", "PE", "U", "NLFET", "EDU")} <= checked
