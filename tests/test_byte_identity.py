"""Pinned sha256 digests of CLI output on a small fixed corpus.

The corpus is ``lmflows simulate`` output; a second file re-weights its rows
with fractional weights (so that summation order shows in the last bits)
and adds dirty and out-of-scope lines (so that rejection texts and line
numbers show). A digest covers a cohort grid swept in one process over the
second file, the path a grid of cells takes through the library, and a last
one every passage report on the embedded chains, also from one process. Any
change to these bytes is a change of behaviour and must be deliberate.
"""

import contextlib
import hashlib
import io
import os
import warnings
from pathlib import Path

import pytest

from lmflows.cli import main
from lmflows.errors import EmptyCohortError
from lmflows.estimation import (
    FALLBACK_ABSORBING,
    FALLBACK_UNIFORM,
    ThinRowWarning,
    apply_fallback_policy,
    compute_shares,
    estimate_transition_matrix,
)
from lmflows.fixtures import fixture_names, get_fixture
from lmflows.fpt import DEFAULT_EPSILON, DEFAULT_HORIZON, DEFAULT_MAX_HORIZON
from lmflows.panel import parse_panel_file
from lmflows.serialize import build_fpt_report, fpt_report_to_csv, matrix_to_csv, shares_to_csv, to_json
from lmflows.states import AgeBand, CohortFilter, QuarterId, Sex

SIM_ARGS = ("simulate", "--fixture", "early_2020Q3", "--n", "3000", "--seed", "11",
            "--start", "2019.3", "--quarters", "6")

DIRTY_LINES = {
    5: "D1,2019.5,2019.6,EDU,TE,21,F,1,SOUTH,1",
    40: "D2,2019.3,2020.1,EDU,TE,21,F,1,SOUTH,1",
    41: "D3,2019.3,2019.4,XX,TE,21,F,1,SOUTH,1",
    300: "D4,2019.3,2019.4,EDU,TE,21,F,1,SOUTH,-2",
    301: "D5,2019.3,2019.4,EDU,TE,21,F,1",
    302: "D6,2019.3,2019.4,EDU,TE,40,F,1,SOUTH,1",
    303: "D7,2019.3,2019.4,EDU,TE,2x,F,1,SOUTH,1",
    304: "D8,2019.3,2019.4,EDU,TE,21,X,1,SOUTH,1",
    305: "D9,2019.3,2019.4,EDU,TE,21,F,2,SOUTH,1",
    306: "D10,2019.3,2019.4,EDU,TE,21,F,1,WEST,1",
    307: "D11,2019.3,2019.4,EDU,TE,21,F,1,SOUTH,",
    308: "D12,2019.3,2019.4,EDU,TE,21,F,1,SOUTH,nan",
}

EXPECTED = {
    "simulate": "84c0902603965ea61e486e0fabfff76ba9b3ae3f8bf6fc96c21b9141a1e6bb03",
    "transitions_csv": "c40d8f41fc6dec878210f60b98097bfb752e91273712c5befd12fd60524b0446",
    "transitions_json": "41691cc0c3ff086d202ad5910246c44c8b0a0c70321e24a6df131a4aa093a86a",
    "shares_csv": "ca1ffc797f720353e80f034c9ca04e81fa2054cadcc2a1fab580fd94f391c094",
    "shares_json": "d9081d8c3e5973ccd9195609e18a0ff4fe23712003d157339ef3efb01907007d",
    "fpt_csv": "54c879403a3da65c3d849d87ad549a094f2d8cd32f5b26ff89630bd18bb30088",
    "fpt_json": "93a0dc1e604ebc0b59c717cf9f3b91d2a043714d24d6a00f0547fe059906bb6a",
    "fpt_return_csv": "019d43afb85608eb833e126b44eaa5999c1cccbfdc9b38c4e2080e8a39199658",
    "rejects": "1162e0cbedbea4346aed23f29d0c2b8f4c1dac925d139994081a0671b5339d7c",
    "grid_cells": "46d3f2427e0f3e60dce99a338122f5a4587f1b17c4c97666b21a7fee1a9eebe1",
    "fixtures_csv": "4aa0b35ce3e9fb56261472e73fea4ffcf43aa7636c8d3a9c66d95b3fc2542e61",
    "fixture_passages": "28bc021b680d1945e447db97dd2f057a640a72fa35c9b0f4276efbca9a9939ee",
}

# The grid's departure quarters: the corpus's five, and one past its last arrival.
GRID_QUARTERS = ("2019.3", "2019.4", "2020.1", "2020.2", "2020.3", "2020.4")


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _weighted(sim_text: str) -> str:
    """The simulated file with fractional weights and the dirty lines spliced in."""
    lines = sim_text.splitlines()
    out = [lines[0]]
    for i, line in enumerate(lines[1:]):
        if i in DIRTY_LINES:
            out.append(DIRTY_LINES[i])
        fields = line.split(",")
        fields[-1] = f"{0.5 + (i * 37 % 101) / 97:.6f}"
        out.append(",".join(fields))
    return "\n".join(out) + "\n"


def grid_cells(path) -> str:
    """Every cell of a departure quarter x age band x sex sweep of ``path``, in one process.

    A cell gives its shares_to_csv, its matrix_to_csv (uniform fallback) and
    the fpt_report_to_csv of EDU -> PE and EDU -> TE at the defaults, one
    after another; an empty cell gives one line naming it.
    """
    dataset, _ = parse_panel_file(path)
    parts = []
    for quarter in map(QuarterId.parse, GRID_QUARTERS):
        for band in AgeBand:
            for sex in Sex:
                cohort = CohortFilter(age_band=band, sex=sex)
                try:
                    table = compute_shares(dataset, quarter, cohort)
                except EmptyCohortError:
                    parts.append(f"empty {quarter} {cohort.describe()}\n")
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ThinRowWarning)
                    matrix = estimate_transition_matrix(dataset, quarter, cohort)
                matrix = apply_fallback_policy(matrix, FALLBACK_UNIFORM)
                parts += [shares_to_csv(table), matrix_to_csv(matrix)]
                parts += [fpt_report_to_csv(build_fpt_report(
                    matrix, "EDU", target, DEFAULT_HORIZON, DEFAULT_EPSILON, DEFAULT_MAX_HORIZON))
                    for target in ("PE", "TE")]
    return "".join(parts)


def fixture_passages() -> str:
    """The JSON and CSV passage report of every ordered state pair on every embedded
    chain, under the uniform policy and, where the chain has fallback rows, absorbing_fs,
    at the default horizon, epsilon and max_horizon, in one process: the reports on a
    chain share its engines, as they do in use."""
    parts = []
    for name in fixture_names():
        uniform = get_fixture(name).matrix()
        chains = [uniform]
        if uniform.fallback_rows:
            chains.append(apply_fallback_policy(uniform, FALLBACK_ABSORBING))
        for matrix in chains:
            for source in matrix.states:
                for target in matrix.states:
                    doc = build_fpt_report(matrix, source, target, DEFAULT_HORIZON,
                                           DEFAULT_EPSILON, DEFAULT_MAX_HORIZON)
                    parts += [to_json(doc), fpt_report_to_csv(doc)]
    return "".join(parts)


def output_digests(workdir) -> dict[str, str]:
    """Digests of each pinned output, run in ``workdir`` on relative paths.

    The input path appears in the output's provenance line, so it is kept
    relative and the same wherever the test runs.
    """
    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(list(argv)) == 0
        return out.getvalue()

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        run(*SIM_ARGS, "--out", "sim.csv")
        Path("weighted.csv").write_text(_weighted(Path("sim.csv").read_text(encoding="utf-8")),
                                        encoding="utf-8")
        cohort = ("--age", "early", "--sex", "F")
        stdout = {
            "transitions_csv": run("transitions", "--data", "weighted.csv", "--quarter", "2020.1",
                                   *cohort, "--rejects", "rejects.csv"),
            "transitions_json": run("transitions", "--data", "weighted.csv", "--quarter", "2020.1",
                                    *cohort, "--format", "json"),
            "shares_csv": run("shares", "--data", "weighted.csv", "--quarter", "2019.4"),
            "shares_json": run("shares", "--data", "weighted.csv", "--quarter", "2019.4",
                               "--format", "json"),
            "fpt_csv": run("fpt", "--data", "weighted.csv", "--quarter", "2019.3",
                           "--from", "EDU", "--to", "PE"),
            "fpt_json": run("fpt", "--data", "weighted.csv", "--quarter", "2019.3",
                            "--from", "EDU", "--to", "PE", "--format", "json"),
            "fpt_return_csv": run("fpt", "--data", "weighted.csv", "--quarter", "2019.3",
                                  "--from", "EDU", "--to", "EDU"),
            "grid_cells": grid_cells("weighted.csv"),
            "fixtures_csv": run("fixtures"),
            "fixture_passages": fixture_passages(),
        }
        files = {"simulate": Path("sim.csv").read_bytes(), "rejects": Path("rejects.csv").read_bytes()}
    finally:
        os.chdir(cwd)
    return {name: _sha(data) for name, data in {**stdout, **files}.items()}


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return output_digests(tmp_path_factory.mktemp("bytes"))


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_output_bytes_pinned(name, digests):
    assert digests[name] == EXPECTED[name]
