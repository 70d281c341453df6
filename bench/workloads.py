"""The four benchmark workloads.

Each workload writes its inputs and expected answers in ``setup`` and makes
one whole round of program calls in ``run_round``. Every call is timed on
its own and checked afterwards, outside the timed section. Calls into the
package go through module attributes (``panel.parse_panel_file``) so that a
traced run can wrap them.
"""

import contextlib
import dataclasses
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import gen
from lmflows import estimation, fixtures, fpt, panel, serialize
from lmflows.estimation import TransitionMatrix
from lmflows.states import AgeBand, CohortFilter, LaborState, QuarterId, Sex

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

HORIZON = 40
EDU, TE, PE = 5, 1, 2
QUARTERS = tuple(QuarterId(gen.START_YEAR, 1).plus(q) for q in range(gen.N_QUARTERS - 1))
BANDS = (AgeBand.TEENS, AgeBand.EARLY_YOUNG, AgeBand.LATE_YOUNG, AgeBand.PRE_ADULTS)
SEXES = (Sex.M, Sex.F)


@dataclasses.dataclass
class Op:
    """One timed operation and what its checks found."""

    label: str
    kind: str          # parse, cell, report or cli_call
    start: float       # perf_counter at the start of the call
    seconds: float     # raw wall time of the call
    errors: list[str]
    rows: int = 0      # data lines read, for parse operations
    known_fault: bool = False  # failed exactly as the named passage fault makes it fail


@contextlib.contextmanager
def span(tracer, name, **counts):
    """A tracer span, or a throwaway record when tracing is off."""
    if tracer is None:
        yield [None, name, 0.0, 0.0, -1, counts]
    else:
        with tracer.span(name, **counts) as record:
            yield record


def _timed(tracer, pace, kind, fn):
    """Run ``fn`` inside an op span: (result, start, seconds, errors, span record).

    The speed probe, when due, runs before the span opens.
    """
    pace.between()
    with span(tracer, "op", kind=kind) as record:
        start = time.perf_counter()
        try:
            result, errors = fn(), []
        except Exception as exc:  # a raising call is a failed operation
            result, errors = None, [f"raised {type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - start
    return result, start, seconds, errors, record


def _guard(check, *args) -> list[str]:
    """Run a check on output that may not even parse."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"unreadable output ({type(exc).__name__}: {exc})"]


def _shares_values(table):
    return ([table.shares[s] for s in LaborState], [table.n_obs[s] for s in LaborState],
            table.total_weight)


def _parse_op(tracer, pace, source, digest) -> tuple[object, Op]:
    result, start, dt, errors, _ = _timed(tracer, pace, "parse",
                                          lambda: panel.parse_panel_file(source.path))
    rows = 0
    if result is not None:
        dataset, report = result
        rows = report.n_rows
        errors += checks.check_parse(dataset, report, source.n_lines, source.rejected_lines,
                                     source.n_age_out, digest)
    op = Op(f"parse {Path(source.path).name}", "parse", start, dt, errors, rows)
    return (result[0] if result else None), op


# ------------------------------------------------------------ grid_pairs

class GridPairs:
    """Parse a national-size pair_rows file, then sweep 7 quarters x 4 bands x 2 sexes."""

    name, unit = "grid_pairs", "cell"

    def setup(self, seed, workdir):
        source = gen.write_pair_file(workdir / "pairs.csv", seed, 200_000)
        p = source.pairs
        key = (p.quarter * len(BANDS) + gen.band_of(p.age)) * len(SEXES) + p.sex
        n = len(QUARTERS) * len(BANDS) * len(SEXES)
        # The generator's pairs are dropped once tabulated, so that they do not
        # sit in memory beside the program's dataset.
        return {"source": dataclasses.replace(source, pairs=None),
                "digest": checks.key_digest(gen.pair_keys(p, source.pid_width)),
                "flows": gen.flows_by(p, key, n), "counts": gen.counts_by(p, key, n)}

    def run_round(self, state, tracer, pace) -> list[Op]:
        dataset, parse = _parse_op(tracer, pace, state["source"], state["digest"])
        ops = [parse]
        for q, quarter in enumerate(QUARTERS):
            for b, band in enumerate(BANDS):
                for s, sex in enumerate(SEXES):
                    cell = (q * len(BANDS) + b) * len(SEXES) + s
                    ops.append(self._cell(tracer, pace, dataset, quarter,
                                          CohortFilter(age_band=band, sex=sex),
                                          state["flows"][cell], state["counts"][cell]))
        return ops

    @staticmethod
    def _cell(tracer, pace, dataset, quarter, cohort, flows, counts) -> Op:
        def call():
            table = estimation.compute_shares(dataset, quarter, cohort)
            matrix = estimation.apply_fallback_policy(
                estimation.estimate_transition_matrix(dataset, quarter, cohort), "uniform")
            docs = [serialize.build_fpt_report(matrix, "EDU", target, HORIZON,
                                               fpt.DEFAULT_EPSILON, fpt.DEFAULT_MAX_HORIZON)
                    for target in ("PE", "TE")]
            return table, matrix, docs, serialize.matrix_to_csv(matrix), serialize.shares_to_csv(table)

        label = f"cell {quarter} {cohort.describe()}"
        result, start, dt, errors, _ = _timed(tracer, pace, "cell", call)
        if result is None:
            return Op(label, "cell", start, dt, errors)
        table, matrix, docs, matrix_csv, shares_csv = result
        errors += checks.check_matrix(matrix.entries, matrix.row_counts, matrix.fallback_rows, flows)
        errors += _guard(lambda: checks.check_matrix(*checks.matrix_from_csv(matrix_csv), flows))
        errors += checks.check_shares(*_shares_values(table), flows, counts)
        errors += _guard(lambda: checks.check_shares(*checks.shares_from_csv(shares_csv), flows, counts))
        P = checks.expected_matrix(flows)[0]
        for target, doc in zip((PE, TE), docs):
            errors += checks.check_report(doc, checks.passage_truth(P, EDU, target, HORIZON))
        return Op(label, "cell", start, dt, errors)


# ------------------------------------------------------------ link_waves

class LinkWaves:
    """Parse and link a wave_rows file with duplicates, then one matrix per quarter."""

    name, unit = "link_waves", "parse"

    def setup(self, seed, workdir):
        source = gen.write_wave_file(workdir / "waves.csv", seed, 95_000)
        p = source.pairs
        return {"source": dataclasses.replace(source, pairs=None),
                "digest": checks.key_digest(gen.pair_keys(p, source.pid_width)),
                "flows": gen.flows_by(p, p.quarter, len(QUARTERS))}

    def run_round(self, state, tracer, pace) -> list[Op]:
        dataset, parse = _parse_op(tracer, pace, state["source"], state["digest"])
        ops = [parse]
        for q, quarter in enumerate(QUARTERS):
            matrix, start, dt, errors, _ = _timed(
                tracer, pace, "cell", lambda: estimation.estimate_transition_matrix(dataset, quarter))
            if matrix is not None:
                errors += checks.check_matrix(matrix.entries, matrix.row_counts,
                                              matrix.fallback_rows, state["flows"][q])
            ops.append(Op(f"cell {quarter} all", "cell", start, dt, errors))
        return ops


# --------------------------------------------------------- passage_sweep

def fixture_chain(name) -> np.ndarray:
    """An embedded chain as printed, row-normalised by the benchmark."""
    raw = np.array(fixtures.get_fixture(name).raw, dtype=float)
    return raw / raw.sum(axis=1)[:, None]


# The passage engine reports slow but finite passages into FS on these
# chains (EFPT 290-360 quarters) as infinite and "suspect".
SLOW_FS_CHAINS = ("early_2020Q3", "late_2020Q3")


@dataclasses.dataclass
class Report:
    """One passage report to request, and what it must say."""

    label: str
    matrix: TransitionMatrix
    source: str
    target: str
    truth: checks.Passage
    reference: float | None
    slow_fs: bool              # a passage the named fault reports wrongly


class PassageSweep:
    """Every ordered state pair on every embedded chain, under each distinct fallback policy."""

    name, unit = "passage_sweep", "report"

    def setup(self, seed, workdir):
        items = []
        for name in fixtures.fixture_names():
            fx = fixtures.get_fixture(name)
            P = fixture_chain(name)
            fallback = sorted(fx.states.index(s) for s in fx.fallback_states)
            chains = [("uniform", P)]
            if fallback:
                absorbing = P.copy()
                absorbing[fallback] = 0.0
                absorbing[fallback, fallback] = 1.0
                chains.append(("absorbing_fs", absorbing))
            for policy, M in chains:
                matrix = TransitionMatrix(entries=M, states=fx.states, from_quarter=fx.from_quarter,
                                          to_quarter=fx.to_quarter, fallback_rows=fallback)
                for i, source in enumerate(fx.states):
                    for j, target in enumerate(fx.states):
                        reference = checks.EFPT_YEARS_REFERENCE.get(name, {}).get(target)
                        items.append(Report(
                            f"{name}/{policy} {source}->{target}", matrix, source, target,
                            checks.passage_truth(M, i, j, HORIZON),
                            reference if policy == "uniform" and source == "EDU" else None,
                            name in SLOW_FS_CHAINS and target == "FS"))
        order = np.random.default_rng(seed).permutation(len(items))
        return {"items": [items[k] for k in order]}

    def run_round(self, state, tracer, pace) -> list[Op]:
        ops = []
        for item in state["items"]:
            def call(item=item):
                doc = serialize.build_fpt_report(item.matrix, item.source, item.target, HORIZON,
                                                 fpt.DEFAULT_EPSILON, fpt.DEFAULT_MAX_HORIZON)
                return doc, serialize.fpt_report_to_csv(doc)

            result, start, dt, errors, _ = _timed(tracer, pace, "report", call)
            known = False
            if result is not None:
                doc, text = result
                other = _guard(lambda: checks.check_same_report(checks.report_from_csv(text), doc))
                if item.reference is not None:
                    other += checks.check_reference(doc, item.reference)
                errors += checks.check_report(doc, item.truth) + other
                known = item.slow_fs and not other and checks.shows_slow_fs_fault(doc, item.truth)
            ops.append(Op(item.label, "report", start, dt, errors, known_fault=known))
        return ops


# ----------------------------------------------------------- cli_session

FIXTURE_NAMES = (
    "early_2019Q2", "early_2019Q3", "early_2020Q2", "early_2020Q3",
    "late_2019Q2", "late_2019Q3", "late_2020Q2", "late_2020Q3", "demo_geometric_q25",
)
UNTRACED = (sys.executable, "-c", "from lmflows.cli import entrypoint; entrypoint()")


@dataclasses.dataclass
class Call:
    label: str
    args: list[str]
    code: int          # the exit code the README documents for this call
    validate: object   # (stdout, stderr) -> list of errors
    fault: checks.Passage | None = None  # the passage, for a call the named fault fails

    def check(self, returncode: int, out: str, err: str, seen: dict) -> list[str]:
        """Exit code and output of one run of this call; records stdout in ``seen``."""
        errors = []
        if returncode != self.code:
            errors.append(f"exit code {returncode}, README gives {self.code}: {err.strip()[-200:]}")
        seen[self.label] = out
        return errors + _guard(self.validate, out, err)

    def shows_known_fault(self, returncode: int, out: str, err: str) -> bool:
        """The call failed exactly as the named fault makes it fail: exit 1 under
        ``--strict`` and a report wrong only in its series route and verdict."""
        if self.fault is None or returncode != 1 or "Traceback" in err:
            return False
        try:
            return checks.shows_slow_fs_fault(checks.report_from_csv(out), self.fault)
        except Exception:
            return False


def _names_csv(text):
    return [row.split(",")[0] for row in text.splitlines()[1:]]


class CliSession:
    """A fixed script of lmflows commands, run one subprocess at a time."""

    name, unit = "cli_session", "cli_call"

    def setup(self, seed, workdir):
        corpus = gen.write_pair_file(workdir / "corpus.csv", seed, 20_000)
        (workdir / "json.cfg").write_text("format=json\nmin_support=50   # warn below 50\n")
        (workdir / "fpt.cfg").write_text("# tighter series\nepsilon=1e-10\nmax_horizon=6000\n")
        calls, seen = self._script(seed, workdir, corpus)
        return {"workdir": workdir, "calls": calls, "seen": seen}

    def _script(self, seed, w, corpus):
        pairs, data = corpus.pairs, ["--data", str(corpus.path)]
        seen = {}

        def cell(q, band=None, sex=None, citizen=None, region=None):
            mask = pairs.quarter == q
            if band is not None:
                mask &= gen.band_of(pairs.age) == band
            for column, value in ((pairs.sex, sex), (pairs.citizen, citizen), (pairs.region, region)):
                if value is not None:
                    mask &= column == value
            sel = pairs.select(mask)
            zeros = np.zeros(len(sel), dtype=np.int64)
            return gen.flows_by(sel, zeros, 1)[0], gen.counts_by(sel, zeros, 1)[0]

        def matrix_csv(flows, policy="uniform", same_as=None):
            def v(out, err):
                got = checks.matrix_from_csv(out)
                errors = checks.check_matrix(*got, flows, policy)
                if same_as is not None:
                    errors += _same_matrix(got, seen[same_as])
                return errors
            return v

        def matrix_json(flows, same_as=None):
            def v(out, err):
                doc = json.loads(out)
                got = (np.array(doc["entries"]), doc["row_counts"], set(doc["fallback_rows"]))
                return checks.check_matrix(*got, flows) + (
                    _same_matrix(got, seen[same_as]) if same_as else [])
            return v

        def _same_matrix(got, other_text):
            other = (checks.matrix_from_csv(other_text) if not other_text.lstrip().startswith("{")
                     else _json_matrix(other_text))
            same = (np.array_equal(got[0], other[0]) and list(got[1]) == list(other[1])
                    and set(got[2]) == set(other[2]))
            return [] if same else ["CSV and JSON renderings of one matrix differ"]

        def _json_matrix(text):
            doc = json.loads(text)
            return np.array(doc["entries"]), doc["row_counts"], set(doc["fallback_rows"])

        def report(truth, reference=None, same_as=None, as_json=False):
            def v(out, err):
                doc = json.loads(out) if as_json else checks.report_from_csv(out)
                errors = checks.check_report(doc, truth)
                if reference is not None:
                    errors += checks.check_reference(doc, reference)
                if same_as is not None:
                    errors += checks.check_same_report(doc, json.loads(seen[same_as]))
                return errors
            return v

        def fixture_truth(name, source, target):
            idx = gen.STATES.index
            return checks.passage_truth(fixture_chain(name), idx(source), idx(target), HORIZON)

        q1 = cell(1)
        q2_shares = cell(2)
        early_f = cell(4, band=1, sex=1)
        teens_m_south = cell(3, band=0, sex=0, region=2)
        citizens = cell(5, citizen=1)
        sim_truth, sim_a, sim_b = w / "sim_truth.csv", w / "sim_a.csv", w / "sim_b.csv"
        tr_json, rejects = w / "transitions.json", w / "rejects.csv"
        sim_a_args = ["simulate", "--fixture", "late_2019Q2", "--n", "20000", "--seed", str(seed),
                      "--start", "2019.3", "--quarters", "6",
                      "--initial-shares", "0.1,0.2,0.2,0.1,0.1,0.29,0.01", "--out"]

        def round_trip(out, err):
            flows, _ = checks.tabulate_pair_csv(sim_truth)
            return checks.check_round_trip(flows, fixture_chain("early_2020Q3"))

        def same_bytes(out, err):
            return [] if sim_a.read_bytes() == sim_b.read_bytes() else [
                "simulate wrote different bytes for the same seed"]

        def simulated_header(out, err):
            head = sim_a.read_text().split("\n", 2)[:2]
            return [] if head[0] == gen.PAIR_HEADER and len(head) == 2 else [
                "simulate output lacks the pair_rows header or rows"]

        def cohort_json_out(out, err):
            errors = [] if out == "" else ["--out also wrote to stdout"]
            return errors + matrix_json(early_f[0])(tr_json.read_text(), err)

        def cohort_rejects(out, err):
            errors = matrix_csv(early_f[0])(out, err) + _same_matrix(
                checks.matrix_from_csv(out), tr_json.read_text())
            lines = [int(r.split(",")[0]) for r in rejects.read_text().splitlines()[1:]]
            if sorted(lines) != corpus.rejected_lines:
                errors.append(f"--rejects lists {len(lines)} lines, injected {len(corpus.rejected_lines)}")
            return errors

        def shares_csv(flows_counts):
            return lambda out, err: checks.check_shares(*checks.shares_from_csv(out), *flows_counts)

        def shares_json(out, err):
            got = checks.shares_doc_values(json.loads(out))
            errors = checks.check_shares(*got, *q2_shares)
            if list(got) != list(checks.shares_from_csv(seen["shares_csv"])):
                errors.append("CSV and JSON renderings of one share table differ")
            return errors

        def fixture_list(as_json):
            def v(out, err):
                names = ([f["name"] for f in json.loads(out)["fixtures"]] if as_json
                         else _names_csv(out))
                return [] if tuple(names) == FIXTURE_NAMES else [f"fixtures listed {names}"]
            return v

        def empty_cohort(out, err):
            said = any(line.startswith("error:") for line in err.splitlines())
            return [] if out == "" and said else [
                "empty cohort did not fail with an error message alone"]

        data_truth = checks.passage_truth(checks.expected_matrix(q1[0])[0], EDU, PE, HORIZON)
        ref = checks.EFPT_YEARS_REFERENCE["early_2019Q3"]
        return [
            Call("simulate_truth", ["simulate", "--fixture", "early_2020Q3", "--n", "300000",
                                    "--seed", str(seed), "--start", "2019.1", "--quarters", "2",
                                    "--out", str(sim_truth)], 0, round_trip),
            Call("simulate_a", sim_a_args + [str(sim_a)], 0, simulated_header),
            Call("simulate_b", sim_a_args + [str(sim_b)], 0, same_bytes),
            Call("transitions_csv", ["transitions", *data, "--quarter", "2019.2"], 0, matrix_csv(q1[0])),
            Call("transitions_json", ["transitions", *data, "--quarter", "2019.2", "--format", "json"], 0,
                 matrix_json(q1[0], same_as="transitions_csv")),
            Call("transitions_pretty", ["transitions", *data, "--quarter", "2019.2", "--pretty"], 0,
                 lambda out, err: checks.check_matrix_pretty(out, q1[0])),
            Call("transitions_config_out", ["transitions", *data, "--quarter", "2020.1", "--age", "early",
                                            "--sex", "F", "--config", str(w / "json.cfg"),
                                            "--out", str(tr_json)], 0, cohort_json_out),
            Call("transitions_rejects", ["transitions", *data, "--quarter", "2020.1", "--age", "early",
                                         "--sex", "F", "--rejects", str(rejects)], 0, cohort_rejects),
            Call("transitions_absorbing", ["transitions", *data, "--quarter", "2019.4", "--age", "teens",
                                           "--sex", "M", "--region", "SOUTH",
                                           "--fallback-policy", "absorbing_fs"], 0,
                 matrix_csv(teens_m_south[0], policy="absorbing_fs")),
            Call("shares_csv", ["shares", *data, "--quarter", "2019.3"], 0, shares_csv(q2_shares)),
            Call("shares_json", ["shares", *data, "--quarter", "2019.3", "--format", "json"], 0, shares_json),
            Call("shares_pretty", ["shares", *data, "--quarter", "2020.2", "--citizen", "1", "--pretty"], 0,
                 lambda out, err: checks.check_shares_pretty(out, *citizens)),
            Call("fpt_data_json", ["fpt", *data, "--quarter", "2019.2", "--from", "EDU", "--to", "PE",
                                   "--format", "json"], 0, report(data_truth, as_json=True)),
            Call("fpt_data_csv", ["fpt", *data, "--quarter", "2019.2", "--from", "EDU", "--to", "PE"], 0,
                 report(data_truth, same_as="fpt_data_json")),
            Call("fpt_fixture_json", ["fpt", "--fixture", "early_2019Q3", "--from", "EDU", "--to", "PE",
                                      "--format", "json"], 0,
                 report(fixture_truth("early_2019Q3", "EDU", "PE"), ref["PE"], as_json=True)),
            Call("fpt_fixture_strict", ["fpt", "--fixture", "early_2019Q3", "--from", "EDU", "--to", "TE",
                                        "--strict"], 0,
                 report(fixture_truth("early_2019Q3", "EDU", "TE"), ref["TE"])),
            Call("fpt_strict_unreachable", ["fpt", "--fixture", "early_2019Q3", "--from", "EDU",
                                            "--to", "FS", "--strict"], 1,
                 report(fixture_truth("early_2019Q3", "EDU", "FS"))),
            Call("fpt_strict_slow_fs", ["fpt", "--fixture", "early_2020Q3", "--from", "EDU", "--to", "FS",
                                        "--strict"], 0,
                 report(fixture_truth("early_2020Q3", "EDU", "FS")),
                 fault=fixture_truth("early_2020Q3", "EDU", "FS")),
            Call("fpt_config_pretty", ["fpt", "--fixture", "late_2020Q3", "--from", "U", "--to", "PE",
                                       "--config", str(w / "fpt.cfg"), "--pretty"], 0,
                 lambda out, err: checks.check_report_pretty(out, fixture_truth("late_2020Q3", "U", "PE"))),
            Call("fixtures_csv", ["fixtures"], 0, fixture_list(False)),
            Call("fixtures_json", ["fixtures", "--format", "json"], 0, fixture_list(True)),
            Call("empty_cohort", ["transitions", *data, "--quarter", "2030.1"], 2, empty_cohort),
        ], seen

    def run_round(self, state, tracer, pace) -> list[Op]:
        calls, seen = state["calls"], state["seen"]
        seen.clear()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        ops = []
        for n, call in enumerate(calls):
            spans_path = state["workdir"] / f"spans-{n}.json"
            argv = ([sys.executable, str(BENCH / "cli_child.py"), str(spans_path)] if tracer
                    else list(UNTRACED)) + call.args
            proc, start, dt, errors, record = _timed(tracer, pace, "cli_call", lambda: subprocess.run(
                argv, env=env, cwd=state["workdir"], capture_output=True, text=True, timeout=150))
            if tracer is not None:
                child = json.loads(spans_path.read_text())
                tracer.adopt(child, record[0])
                record[5]["main_start"] = next(s[2] for s in child if s[1] == "cli.main")
            known = False
            if proc is not None:
                errors += call.check(proc.returncode, proc.stdout, proc.stderr, seen)
                known = call.shows_known_fault(proc.returncode, proc.stdout, proc.stderr)
            ops.append(Op(call.label, "cli_call", start, dt, errors, known_fault=known))
        return ops


WORKLOADS = {w.name: w for w in (GridPairs(), LinkWaves(), PassageSweep(), CliSession())}


def peak_rss_mib(workload) -> float:
    """Peak resident memory of the workload's process, or of its largest child."""
    who = resource.RUSAGE_CHILDREN if workload.unit == "cli_call" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def rss_mib() -> float:
    """Resident memory of this process now."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

