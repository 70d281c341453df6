"""Each benchmark check passes on the program's output and fails on a corrupted copy.

Run with: python3 -m pytest bench -q
"""

import contextlib
import dataclasses
import io
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from lmflows import cli, estimation, panel, serialize  # noqa: E402
from lmflows.states import CohortFilter, QuarterId  # noqa: E402

Q1 = QuarterId(2019, 2)


def bump(text: str, after: str = "") -> str:
    """Change the fourth decimal of the first long decimal number in ``text`` past ``after``."""
    m = re.compile(r"0\.\d{4,}").search(text, text.index(after))
    digit = str((int(text[m.start() + 5]) + 1) % 10)
    return text[: m.start() + 5] + digit + text[m.start() + 6:]


@pytest.fixture(scope="module")
def pairs(tmp_path_factory):
    source = gen.write_pair_file(tmp_path_factory.mktemp("pairs") / "pairs.csv", 7, 3000)
    digest = checks.key_digest(gen.pair_keys(source.pairs, source.pid_width))
    dataset, report = panel.parse_panel_file(source.path)
    return source, digest, dataset, report


@pytest.fixture(scope="module")
def waves(tmp_path_factory):
    source = gen.write_wave_file(tmp_path_factory.mktemp("waves") / "waves.csv", 7, 3000)
    digest = checks.key_digest(gen.pair_keys(source.pairs, source.pid_width))
    dataset, report = panel.parse_panel_file(source.path)
    return source, digest, dataset, report


def test_generator_repeats_for_a_seed(tmp_path):
    for write in (gen.write_pair_file, gen.write_wave_file):
        a, b, c = (write(tmp_path / f"{n}.csv", seed, 400) for n, seed in (("a", 3), ("b", 3), ("c", 4)))
        assert Path(a.path).read_bytes() == Path(b.path).read_bytes() != Path(c.path).read_bytes()
        assert a.rejected_lines == b.rejected_lines


@pytest.mark.parametrize("which", ["pairs", "waves"])
def test_parse_check(which, request):
    source, digest, dataset, report = request.getfixturevalue(which)
    expected = (source.n_lines, source.rejected_lines, source.n_age_out, digest)
    assert source.rejected_lines and source.n_age_out
    assert checks.check_parse(dataset, report, *expected) == []
    dropped = dataclasses.replace(report, rejections=report.rejections[1:])
    assert checks.check_parse(dataset, dropped, *expected)
    assert checks.check_parse(
        dataset, dataclasses.replace(report, n_age_filtered=report.n_age_filtered - 1), *expected)
    assert checks.check_parse(dataset, dataclasses.replace(report, n_rows=report.n_rows + 1), *expected)
    first = dataclasses.replace(dataset.pairs[0], weight=dataset.pairs[0].weight * 2)
    altered = panel.PanelDataset.from_pairs((first, *dataset.pairs[1:]), "altered")
    assert checks.check_parse(altered, report, *expected)
    assert checks.check_parse(
        panel.PanelDataset.from_pairs(dataset.pairs[1:], "short"), report, *expected)


def _cell(source):
    p = source.pairs
    zero = np.zeros(int((p.quarter == 1).sum()), dtype=np.int64)
    sel = p.select(p.quarter == 1)
    return gen.flows_by(sel, zero, 1)[0], gen.counts_by(sel, zero, 1)[0]


def test_matrix_check(pairs):
    source, _, dataset, _ = pairs
    flows, _ = _cell(source)
    m = estimation.estimate_transition_matrix(dataset, Q1, CohortFilter(), min_support=0)
    good = (m.entries, m.row_counts, m.fallback_rows)
    assert checks.check_matrix(*good, flows) == []
    perturbed = m.entries.copy()
    perturbed[1, 1] += 1e-9
    assert checks.check_matrix(perturbed, m.row_counts, m.fallback_rows, flows)
    assert checks.check_matrix(m.entries, m.row_counts, m.fallback_rows | {0}, flows)
    assert checks.check_matrix(m.entries, [c + 1 for c in m.row_counts], m.fallback_rows, flows)
    text = serialize.matrix_to_csv(m)
    assert checks.check_matrix(*checks.matrix_from_csv(text), flows) == []
    assert checks.check_matrix(*checks.matrix_from_csv(bump(text)), flows)
    pretty = serialize.matrix_pretty(m)
    assert checks.check_matrix_pretty(pretty, flows) == []
    assert checks.check_matrix_pretty(pretty.replace("0.", "1.", 1), flows)


def test_fallback_rows_follow_the_tabulation():
    flows = np.ones((gen.K, gen.K))
    flows[6] = 0.0
    for policy, row in (("uniform", np.full(gen.K, 1 / gen.K)), ("absorbing_fs", np.eye(gen.K)[6])):
        entries, counts, fallback = checks.expected_matrix(flows, policy)
        assert fallback == {6} and np.array_equal(entries[6], row)
        assert checks.check_matrix(entries, counts, set(), flows, policy)
        other = "uniform" if policy != "uniform" else "absorbing_fs"
        assert checks.check_matrix(entries, counts, fallback, flows, other)


def test_shares_check(pairs):
    source, _, dataset, _ = pairs
    flows, counts = _cell(source)
    table = estimation.compute_shares(dataset, Q1)
    values = workloads._shares_values(table)
    assert checks.check_shares(*values, flows, counts) == []
    shares, n_obs, total = values
    assert checks.check_shares([shares[0] + 1e-9, *shares[1:]], n_obs, total, flows, counts)
    assert checks.check_shares(shares, [n_obs[0] + 1, *n_obs[1:]], total, flows, counts)
    assert checks.check_shares(shares, n_obs, total * 1.001, flows, counts)
    text = serialize.shares_to_csv(table)
    assert checks.check_shares(*checks.shares_from_csv(text), flows, counts) == []
    assert checks.check_shares(*checks.shares_from_csv(bump(text)), flows, counts)
    pretty = serialize.shares_pretty(table)
    assert checks.check_shares_pretty(pretty, flows, counts) == []
    assert checks.check_shares_pretty(bump(pretty), flows, counts)


def _report(name, source, target):
    P = workloads.fixture_chain(name)
    m = estimation.TransitionMatrix(entries=P)
    doc = serialize.build_fpt_report(m, source, target, 40, 1e-9, 4000)
    idx = gen.STATES.index
    return doc, checks.passage_truth(P, idx(source), idx(target), 40)


def _edit(doc, fn):
    doc = {**doc, "efpt": {k: dict(v) for k, v in doc["efpt"].items()},
           "well_defined": dict(doc["well_defined"]), "distribution": list(doc["distribution"]),
           "cdf": list(doc["cdf"])}
    fn(doc)
    return doc


def test_report_check():
    doc, truth = _report("early_2019Q3", "EDU", "PE")
    assert checks.check_report(doc, truth) == []
    assert checks.check_reference(doc, 8.63) == []
    series, linear = doc["efpt"]["series"]["quarters"], doc["efpt"]["linear_system"]["quarters"]

    def swap_routes(d):
        d["efpt"]["series"]["quarters"] = linear * 1.01
    corruptions = [
        swap_routes,
        lambda d: d["efpt"]["linear_system"].update(quarters=series * 1.01),
        lambda d: d["efpt"]["series"].update(infinite=True, quarters=None),
        lambda d: d["well_defined"].update(verdict="suspect"),
        lambda d: d["distribution"].__setitem__(3, d["distribution"][3] + 1e-9),
        lambda d: d["distribution"].__setitem__(0, -1e-3),
        lambda d: d["cdf"].__setitem__(5, d["cdf"][4] - 1e-3),
    ]
    for corrupt in corruptions:
        assert checks.check_report(_edit(doc, corrupt), truth)
    far = _edit(doc, lambda d: d["efpt"]["series"].update(years=8.63 * 1.3))
    assert checks.check_reference(far, 8.63)


def test_report_check_on_an_infinite_passage():
    doc, truth = _report("early_2019Q3", "EDU", "FS")
    assert not truth.finite and checks.check_report(doc, truth) == []
    assert checks.check_report(_edit(doc, lambda d: d["well_defined"].update(verdict="well_defined")), truth)
    assert checks.check_report(
        _edit(doc, lambda d: d["efpt"]["linear_system"].update(infinite=False, quarters=50.0)), truth)


def test_known_fault_is_caught():
    doc, truth = _report("early_2020Q3", "EDU", "FS")
    assert truth.finite and checks.check_report(doc, truth)
    assert checks.shows_slow_fs_fault(doc, truth)
    linear = doc["efpt"]["linear_system"]["quarters"]
    other_faults = [
        lambda d: d["distribution"].__setitem__(3, d["distribution"][3] + 1e-9),
        lambda d: d["efpt"]["linear_system"].update(quarters=linear * 1.01),
        lambda d: d["efpt"]["linear_system"].update(infinite=True, quarters=None),
        lambda d: d["well_defined"].update(verdict="divergent"),
    ]
    for corrupt in other_faults:
        assert not checks.shows_slow_fs_fault(_edit(doc, corrupt), truth)
    assert not checks.shows_slow_fs_fault(*_report("early_2019Q3", "EDU", "PE"))


def test_report_renderings_check():
    doc, truth = _report("late_2020Q3", "U", "PE")
    text = serialize.fpt_report_to_csv(doc)
    assert checks.check_same_report(checks.report_from_csv(text), doc) == []
    assert checks.check_same_report(checks.report_from_csv(bump(text)), doc)
    verdict = text.replace("verdict=well_defined", "verdict=suspect")
    assert checks.check_same_report(checks.report_from_csv(verdict), doc)
    pretty = serialize.fpt_report_pretty(doc)
    assert checks.check_report_pretty(pretty, truth) == []
    linear_line = next(ln for ln in pretty.splitlines() if ln.startswith("EFPT (linear"))
    assert checks.check_report_pretty(pretty.replace(linear_line, linear_line.replace(".", "1.", 1)), truth)


def test_round_trip_check():
    truth = workloads.fixture_chain("early_2020Q3")
    flows = truth * 40_000
    assert checks.check_round_trip(flows, truth) == []
    shifted = flows.copy()
    shifted[3, 3] *= 1.1
    assert checks.check_round_trip(shifted, truth)


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    w = workloads.CliSession()
    workdir = tmp_path_factory.mktemp("cli")
    state = w.setup(11, workdir)
    return {call.label: call for call in state["calls"]}, state["seen"]


def _run(call):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(call.args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


CLI_CORRUPTIONS = {
    "transitions_csv": bump,
    "transitions_json": bump,
    "transitions_pretty": lambda t: t.replace("0.", "1.", 1),
    "transitions_absorbing": bump,
    "shares_csv": bump,
    "shares_json": bump,
    "fpt_data_json": lambda t: bump(t, after='"distribution"'),
    "fpt_data_csv": bump,
    "fpt_strict_unreachable": lambda t: t.replace("verdict=divergent", "verdict=well_defined"),
    "fixtures_csv": lambda t: "\n".join(t.splitlines()[:-1]),
    "fixtures_json": lambda t: t.replace("early_2019Q2", "early_2019Q1"),
    "empty_cohort": lambda t: t + "state,SE\n",
}


def test_cli_checks(session):
    calls, seen = session
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", estimation.ThinRowWarning)
        for label, corrupt in CLI_CORRUPTIONS.items():
            call = calls[label]
            code, out, err = _run(call)
            assert call.check(code, out, err, seen) == [], label
            assert call.check(code, corrupt(out), err, dict(seen)), label
            assert call.check(code + 1, out, err, dict(seen)), label


def test_cli_simulate_checks(session):
    calls, seen = session
    for label in ("simulate_a", "simulate_b"):
        code, out, err = _run(calls[label])
        assert calls[label].check(code, out, err, seen) == []
    target = Path(calls["simulate_b"].args[-1])
    target.write_bytes(target.read_bytes()[:-2] + b"9\n")
    assert calls["simulate_b"].check(0, "", "", seen)


def test_cli_known_fault_is_caught(session):
    calls, seen = session
    call = calls["fpt_strict_slow_fs"]
    code, out, err = _run(call)
    assert call.check(code, out, err, seen)
    assert call.shows_known_fault(code, out, err)
    assert not call.shows_known_fault(2, out, err)
    assert not call.shows_known_fault(code, bump(out), err)
    assert not call.shows_known_fault(code, out, err + "Traceback (most recent call last):\n")
    other = calls["fpt_strict_unreachable"]
    assert not other.shows_known_fault(*_run(other))
