import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmflows
from lmflows.cli import main
from lmflows.config import RunConfig
from lmflows.fixtures import fixture_names, get_fixture
from lmflows.panel import PAIR_HEADER, replacing_file

PAIR_HEAD = ",".join(PAIR_HEADER)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_panel(tmp_path, rows, name="panel.csv"):
    path = tmp_path / name
    path.write_text(PAIR_HEAD + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    return str(path)


def parse_data_csv(text):
    """Split a CSV output into (meta dict, rows) ignoring '#' comment lines."""
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            body.append(line)
    return meta, list(csv.reader(io.StringIO("\n".join(body))))


class TestSharesCommand:
    def test_all_edu_file(self, tmp_path, capsys):
        data = write_panel(tmp_path, [
            "A,2019.1,2019.2,EDU,EDU,21,F,1,SOUTH,1",
            "B,2019.1,2019.2,EDU,TE,22,M,1,NORTH,1",
        ])
        code, out, _ = run(capsys, "shares", "--data", data, "--quarter", "2019.1")
        assert code == 0
        meta, rows = parse_data_csv(out)
        assert meta["quarter"] == "2019.1"
        shares = {r[0]: float(r[1]) for r in rows[1:]}
        assert shares["EDU"] == 1.0
        assert shares["U"] == 0.0

    def test_empty_cohort_exits_nonzero(self, tmp_path, capsys):
        data = write_panel(tmp_path, ["A,2019.1,2019.2,EDU,EDU,21,F,1,NORTH,1"])
        code, _, err = run(capsys, "shares", "--data", data, "--quarter", "2019.1",
                           "--region", "SOUTH")
        assert code == 2
        assert "region=SOUTH" in err

    def test_synthetic_edu_share_recovers_target(self, tmp_path, capsys):
        shares = "0.09,0.12,0.10,0.11,0.10,0.43,0.05"
        sim = str(tmp_path / "sim.csv")
        code, _, _ = run(capsys, "simulate", "--fixture", "early_2019Q3", "--n", "20000",
                         "--seed", "3", "--start", "2019.3", "--quarters", "2",
                         "--initial-shares", shares, "--out", sim)
        assert code == 0
        code, out, _ = run(capsys, "shares", "--data", sim, "--quarter", "2019.3",
                           "--age", "early")
        assert code == 0
        _, rows = parse_data_csv(out)
        edu = {r[0]: float(r[1]) for r in rows[1:]}["EDU"]
        # 20000 draws staggered over ages; EDU target 0.43 within 4 sigma.
        assert abs(edu - 0.43) < 4 * 0.5 / np.sqrt(20000 * 5 / 20)

    def test_json_format(self, tmp_path, capsys):
        data = write_panel(tmp_path, ["A,2019.1,2019.2,U,TE,21,F,1,SOUTH,1"])
        code, out, _ = run(capsys, "shares", "--data", data, "--quarter", "2019.1",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["shares"]["U"] == 1.0
        assert doc["cohort"]["sex"] is None


class TestTransitionsCommand:
    def test_hand_tabulated_edu_row(self, tmp_path, capsys):
        data = write_panel(tmp_path, [
            "A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1",
            "B,2019.1,2019.2,EDU,EDU,22,M,1,NORTH,1",
        ])
        code, out, _ = run(capsys, "transitions", "--data", data, "--quarter", "2019.1")
        assert code == 0
        _, rows = parse_data_csv(out)
        header, *body = rows
        edu = dict(zip(header, next(r for r in body if r[0] == "EDU")))
        assert float(edu["TE"]) == 0.5
        assert float(edu["EDU"]) == 0.5
        assert float(edu["row_count"]) == 2.0
        assert edu["fallback"] == "0"

    def test_fs_fallback_printed_as_uniform(self, tmp_path, capsys):
        data = write_panel(tmp_path, [
            "A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1",
        ])
        code, out, _ = run(capsys, "transitions", "--data", data, "--quarter", "2019.1",
                           "--pretty")
        assert code == 0
        fs_line = next(line for line in out.splitlines() if line.startswith("FS"))
        assert fs_line.split()[0] == "FS*"
        assert fs_line.split()[1:] == ["0.14"] * 7

    def test_csv_and_json_agree_numerically(self, tmp_path, capsys):
        rows = [
            f"P{k},2019.1,2019.2,{s},{t},2{k % 10},M,1,NORTH,1.25"
            for k, (s, t) in enumerate(
                [("EDU", "TE"), ("EDU", "EDU"), ("TE", "PE"), ("U", "U"),
                 ("U", "TE"), ("PE", "PE"), ("NLFET", "U"), ("SE", "SE")]
            )
        ]
        data = write_panel(tmp_path, rows)
        code, out_csv, _ = run(capsys, "transitions", "--data", data, "--quarter", "2019.1")
        assert code == 0
        code, out_json, _ = run(capsys, "transitions", "--data", data, "--quarter", "2019.1",
                                "--format", "json")
        assert code == 0
        doc = json.loads(out_json)
        _, table = parse_data_csv(out_csv)
        header, *body = table
        for r, row in enumerate(body):
            assert row[0] == doc["states"][r]
            for c in range(7):
                assert float(row[1 + c]) == doc["entries"][r][c]

    def test_rejects_report_written(self, tmp_path, capsys):
        data = write_panel(tmp_path, [
            "A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1",
            "B,2019.1,2019.2,XX,TE,21,F,1,SOUTH,1",
        ])
        rejects = tmp_path / "rejects.csv"
        code, _, err = run(capsys, "transitions", "--data", data, "--quarter", "2019.1",
                           "--rejects", str(rejects))
        assert code == 0
        assert "1 of 2 rows rejected" in err
        lines = rejects.read_text().splitlines()
        assert lines[0] == "line_number,reason"
        assert lines[1].startswith("3,")


class TestDiagnostics:
    def test_thin_rows_warned_on_one_stderr_line(self, tmp_path, capsys):
        data = write_panel(tmp_path, ["A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1"])
        code, out, err = run(capsys, "transitions", "--data", data, "--quarter", "2019.1")
        assert code == 0
        assert err == ("warning: thin transition rows departing 2019.1 (all): EDU"
                       " below support floor 30\n")
        code, quiet_out, quiet_err = run(capsys, "transitions", "--data", data,
                                         "--quarter", "2019.1", "--min-support", "0")
        assert (code, quiet_err) == (0, "")
        assert out == quiet_out

    def test_unasserted_thin_row_warning_fails_a_test(self):
        from lmflows.estimation import ThinRowWarning

        with pytest.raises(ThinRowWarning):
            warnings.warn("thin", ThinRowWarning)

    def test_invalid_utf8_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "panel.csv"
        path.write_bytes(PAIR_HEAD.encode() + b"\nA\xff,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1\n")
        code, out, err = run(capsys, "transitions", "--data", str(path), "--quarter", "2019.1")
        assert code == 2
        assert out == ""
        assert err == (f"error: {path}: line 2 is not UTF-8 text "
                       "(invalid start byte: byte 0xff)\n")


class TestFptCommand:
    def test_fixture_report_csv(self, capsys):
        code, out, _ = run(capsys, "fpt", "--fixture", "demo_geometric_q25",
                           "--from", "A", "--to", "B", "--horizon", "8")
        assert code == 0
        meta, rows = parse_data_csv(out)
        assert meta["verdict"] == "well_defined"
        assert float(meta["efpt_series_quarters"]) == pytest.approx(4.0, abs=1e-6)
        assert float(meta["efpt_linear_quarters"]) == pytest.approx(4.0, abs=1e-9)
        assert rows[0] == ["n", "f", "cdf", "survival"]
        assert len(rows) == 9
        assert float(rows[1][1]) == 0.25

    def test_csv_json_equivalence(self, capsys):
        args = ("fpt", "--fixture", "early_2019Q3", "--from", "EDU", "--to", "PE",
                "--horizon", "40")
        code, out_csv, _ = run(capsys, *args)
        assert code == 0
        code, out_json, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        doc = json.loads(out_json)
        meta, rows = parse_data_csv(out_csv)
        assert float(meta["efpt_series_quarters"]) == doc["efpt"]["series"]["quarters"]
        for k, row in enumerate(rows[1:]):
            assert int(row[0]) == k + 1
            assert float(row[1]) == doc["distribution"][k]
            assert float(row[2]) == doc["cdf"][k]
            assert float(row[3]) == doc["survival"][k]

    def test_divergent_pair_exits_zero_by_default(self, capsys):
        code, out, _ = run(capsys, "fpt", "--fixture", "demo_geometric_q25",
                           "--from", "B", "--to", "A", "--horizon", "5")
        assert code == 0
        meta, _ = parse_data_csv(out)
        assert meta["verdict"] == "divergent"
        assert meta["efpt_linear_quarters"] == "inf"
        assert meta["trapped_states"] == "B"

    def test_strict_escalates_divergent(self, capsys):
        code, _, err = run(capsys, "fpt", "--fixture", "demo_geometric_q25",
                           "--from", "B", "--to", "A", "--strict")
        assert code == 1
        assert "divergent" in err

    def test_strict_passes_well_defined(self, capsys):
        code, _, _ = run(capsys, "fpt", "--fixture", "demo_geometric_q25",
                         "--from", "A", "--to", "B", "--strict")
        assert code == 0

    def test_strict_passes_a_slow_fs_passage(self, capsys):
        code, out, err = run(capsys, "fpt", "--fixture", "early_2020Q3", "--from", "EDU",
                             "--to", "FS", "--max-horizon", "10000", "--strict")
        assert (code, err) == (0, "")
        meta, _ = parse_data_csv(out)
        assert meta["verdict"] == "well_defined"
        series, linear = float(meta["efpt_series_quarters"]), float(meta["efpt_linear_quarters"])
        assert abs(series - linear) <= 1e-9 * linear

    @pytest.mark.parametrize("ceiling", [[], ["--max-horizon", "4000"]])
    def test_strict_fails_a_ceiling_below_what_the_bound_needs(self, capsys, ceiling):
        # The bound needs 8,814 terms for this passage; the default ceiling is 8000.
        code, out, err = run(capsys, "fpt", "--fixture", "early_2020Q3", "--from", "EDU",
                             "--to", "FS", *ceiling, "--strict")
        assert (code, err) == (1, "strict: passage EDU -> FS is suspect\n")
        meta, _ = parse_data_csv(out)
        assert (meta["verdict"], meta["efpt_series_quarters"]) == ("suspect", "inf")

    def test_from_estimated_data(self, tmp_path, capsys):
        rows = [f"P{k},2019.1,2019.2,EDU,{'TE' if k % 2 else 'EDU'},21,F,1,SOUTH,1"
                for k in range(40)]
        data = write_panel(tmp_path, rows)
        code, out, _ = run(capsys, "fpt", "--data", data, "--quarter", "2019.1",
                           "--from", "EDU", "--to", "TE", "--horizon", "3",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["distribution"][0] == 0.5

    def test_data_rejections_noted(self, tmp_path, capsys):
        data = write_panel(tmp_path, ["A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1", "B,2019.1"])
        code, _, err = run(capsys, "fpt", "--data", data, "--quarter", "2019.1",
                           "--from", "EDU", "--to", "TE", "--horizon", "3")
        assert code == 0
        assert err == ("note: 1 of 2 rows rejected\n"
                       "warning: thin transition rows departing 2019.1 (all): EDU"
                       " below support floor 30\n")

    def test_data_rejects_written_as_by_transitions(self, tmp_path, capsys):
        data = write_panel(tmp_path, [
            "A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1",
            "B,2019.1",
            "C,2019.1,2019.2,XX,TE,21,F,1,SOUTH,1",
        ])
        by_fpt, by_transitions = tmp_path / "fpt_rejects.csv", tmp_path / "tr_rejects.csv"
        code, _, err = run(capsys, "fpt", "--data", data, "--quarter", "2019.1",
                           "--from", "EDU", "--to", "TE", "--horizon", "3",
                           "--rejects", str(by_fpt))
        assert code == 0
        assert err == (f"note: 2 of 3 rows rejected; report written to {by_fpt}\n"
                       "warning: thin transition rows departing 2019.1 (all): EDU"
                       " below support floor 30\n")
        code, _, _ = run(capsys, "transitions", "--data", data, "--quarter", "2019.1",
                         "--rejects", str(by_transitions))
        assert code == 0
        assert by_fpt.read_bytes() == by_transitions.read_bytes()

    def test_rejects_without_data_is_usage_error(self, tmp_path, capsys):
        rejects = tmp_path / "rejects.csv"
        code, out, err = run(capsys, "fpt", "--fixture", "demo_geometric_q25",
                             "--from", "A", "--to", "B", "--rejects", str(rejects))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--rejects" in err
        assert not rejects.exists()

    @pytest.mark.parametrize("flags", [
        ["--quarter", "1999.9"],
        ["--age", "teens"],
        ["--sex", "F"],
        ["--citizen", "0"],
        ["--region", "SOUTH"],
        ["--min-support", "5"],
    ], ids=lambda flags: flags[0])
    def test_data_flags_with_fixture_are_usage_errors(self, flags, capsys):
        code, out, err = run(capsys, "fpt", "--fixture", "demo_geometric_q25",
                             "--from", "A", "--to", "B", *flags)
        assert code == 2
        assert out == ""
        assert err == f"error: {flags[0]} applies only with --data\n"

    def test_every_data_flag_with_fixture_is_named(self, capsys):
        code, _, err = run(capsys, "fpt", "--fixture", "demo_geometric_q25", "--from", "A",
                           "--to", "B", "--quarter", "1999.9", "--age", "teens",
                           "--min-support", "5")
        assert code == 2
        assert err == "error: --quarter, --age, --min-support apply only with --data\n"

    def test_config_min_support_accepted_with_fixture(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_support=5\n")
        code, out, _ = run(capsys, "fpt", "--fixture", "demo_geometric_q25",
                           "--from", "A", "--to", "B", "--config", str(cfg))
        assert code == 0
        assert out.startswith("# source=A")

    def test_data_requires_quarter(self, tmp_path, capsys):
        data = write_panel(tmp_path, ["A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1"])
        code, _, err = run(capsys, "fpt", "--data", data,
                           "--from", "EDU", "--to", "TE")
        assert code == 2
        assert "--quarter" in err

    def test_unknown_state_is_usage_error(self, capsys):
        code, _, err = run(capsys, "fpt", "--fixture", "early_2019Q3",
                           "--from", "XX", "--to", "PE")
        assert code == 2
        assert "unknown state" in err

    def test_non_integer_horizon_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fpt", "--fixture", "early_2019Q3", "--from", "EDU", "--to", "PE",
                  "--horizon", "2.5"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: argument --horizon: expected an integer, got '2.5'")

    def test_horizon_whose_rows_cannot_be_allocated_is_usage_error(self, capsys, monkeypatch):
        # 10^8 terms of 7 sources are 5.22 GiB of rows; their allocation is made to fail here.
        real = np.empty

        def empty(shape, *args, **kwargs):
            if isinstance(shape, tuple) and shape[:1] == (100_000_000,):
                raise MemoryError
            return real(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", empty)
        code, out, err = run(capsys, "fpt", "--fixture", "early_2019Q3", "--from", "EDU",
                             "--to", "PE", "--horizon", "100000000")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: horizon 100000000 is too long: its 100000000 x 7 "
                                    "passage probabilities (5.22 GiB) cannot be allocated"]

    def test_pretty_report(self, capsys):
        code, out, _ = run(capsys, "fpt", "--fixture", "early_2019Q3",
                           "--from", "EDU", "--to", "PE", "--horizon", "4", "--pretty")
        assert code == 0
        assert "EFPT (series)" in out
        assert "EFPT (linear system)" in out

    def test_pretty_report_of_a_trapped_passage(self, capsys):
        code, out, _ = run(capsys, "fpt", "--fixture", "early_2019Q2",
                           "--from", "EDU", "--to", "FS", "--pretty")
        assert code == 0
        assert "EFPT (series): infinite or not converged\n" in out
        assert "EFPT (linear system): infinite (trapped states: EDU)\n" in out


class TestSimulateCommand:
    def test_byte_identical_given_seed(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for path in (a, b):
            code, _, _ = run(capsys, "simulate", "--fixture", "early_2019Q3",
                             "--n", "10", "--seed", "7", "--out", path)
            assert code == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_round_trip_recovers_fixture_coarsely(self, tmp_path, capsys):
        from lmflows import get_fixture
        sim = str(tmp_path / "sim.csv")
        code, _, _ = run(capsys, "simulate", "--fixture", "early_2019Q3", "--n", "20000",
                         "--seed", "1", "--start", "2019.2", "--quarters", "2",
                         "--out", sim)
        assert code == 0
        code, out, _ = run(capsys, "transitions", "--data", sim, "--quarter", "2019.2",
                           "--format", "json")
        assert code == 0
        got = np.array(json.loads(out)["entries"])
        want = np.asarray(get_fixture("early_2019Q3").matrix().entries)
        # Row counts ~ 20000/7; 0.04 is a > 4 sigma envelope per cell.
        assert np.abs(got - want).max() < 0.04

    def test_n_zero_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--fixture", "early_2019Q3", "--n", "0",
                  "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_negative_seed_names_the_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--fixture", "early_2019Q3", "--n", "5",
                  "--out", str(tmp_path / "x.csv"), "--seed", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: argument --seed: must be >= 0, got -1")
        assert not (tmp_path / "x.csv").exists()

    def test_missing_out_is_usage_error(self, capsys):
        code, _, err = run(capsys, "simulate", "--fixture", "early_2019Q3", "--n", "5")
        assert code == 2
        assert "--out" in err

    def test_bad_initial_shares_rejected(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--fixture", "early_2019Q3", "--n", "5",
                           "--initial-shares", "0.5,0.5",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "initial-shares" in err


    def test_nan_initial_share_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, stdout, err = run(capsys, "simulate", "--fixture", "early_2019Q3", "--n", "50",
                                "--out", str(out), "--initial-shares", "nan,0,0,0,0,0,1")
        assert code == 2
        assert stdout == ""
        assert err == "error: initial_shares must be nonnegative and sum to 1 within 1e-9\n"
        assert not out.exists()

    def test_window_past_the_last_readable_quarter_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code, stdout, err = run(capsys, "simulate", "--fixture", "early_2019Q3", "--n", "50",
                                "--seed", "1", "--start", "9999.3", "--quarters", "6",
                                "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == ("error: a window of 6 quarters from 9999.3 runs past 9999.4, "
                       "the last quarter a panel file can hold\n")
        assert not out.exists()

    def test_format_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--fixture", "early_2019Q3", "--n", "5", "--out", str(out),
                  "--format", "json"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not out.exists()

    def test_config_format_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fallback_policy=uniform\nformat=json\n")
        out = tmp_path / "x.csv"
        code, stdout, err = run(capsys, "simulate", "--fixture", "early_2019Q3", "--n", "5",
                                "--out", str(out), "--config", str(cfg))
        assert code == 2
        assert stdout == ""
        assert err == f"error: {cfg}: format does not apply to simulate\n"
        assert not out.exists()

    def test_config_without_format_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fallback_policy=absorbing_fs\n")
        out = tmp_path / "x.csv"
        code, _, _ = run(capsys, "simulate", "--fixture", "early_2019Q3", "--n", "5",
                         "--out", str(out), "--config", str(cfg))
        assert code == 0
        assert out.read_text().startswith(PAIR_HEAD)


class TestFixturesCommand:
    def test_lists_all_fixtures(self, capsys):
        code, out, _ = run(capsys, "fixtures")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        names = {r[0] for r in rows[1:]}
        assert "early_2019Q3" in names
        assert "demo_geometric_q25" in names
        assert len(names) == 9

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, "fixtures", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["fixtures"]) == 9

    @pytest.mark.parametrize("argv", [
        ["fixtures", "--pretty"],
        ["simulate", "--fixture", "early_2019Q3", "--n", "5", "--out", "x.csv", "--pretty"],
    ])
    def test_pretty_is_usage_error_without_a_table(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--pretty" in capsys.readouterr().err


class TestConfigFile:
    def test_config_sets_format_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=json\nepsilon=1e-10\n# comment\n\nmax_horizon=500\n")
        code, out, _ = run(capsys, "fpt", "--fixture", "demo_geometric_q25",
                           "--from", "A", "--to", "B", "--horizon", "3",
                           "--config", str(cfg))
        assert code == 0
        json.loads(out)
        code, out, _ = run(capsys, "fpt", "--fixture", "demo_geometric_q25",
                           "--from", "A", "--to", "B", "--horizon", "3",
                           "--config", str(cfg), "--format", "csv")
        assert code == 0
        assert out.startswith("# source=A")

    def test_value_ends_at_the_first_hash(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=json#x\n")
        assert RunConfig.read_file(cfg) == {"output_format": "json"}
        cfg.write_text("format=csv\nepsilon=#1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(cfg))}:2: "):
            RunConfig.read_file(cfg)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_nan_min_support_is_usage_error(self, tmp_path, capsys, source):
        data = write_panel(tmp_path, ["A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1"])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_support=nan\n")
        given = ["--min-support", "nan"] if source == "flag" else ["--config", str(cfg)]
        code, out, err = run(capsys, "transitions", "--data", data, "--quarter", "2019.1", *given)
        assert code == 2
        assert out == ""
        assert err == "error: min_support must be >= 0, got nan\n"

    @pytest.mark.parametrize("text, error", [
        ("max_horizon=0", "max_horizon must be >= 1, got 0"),
        ("format=xml", "unknown output format 'xml'; expected one of ('csv', 'json')"),
        ("fallback_policy=none",
         "unknown fallback policy 'none'; expected one of ('uniform', 'absorbing_fs')"),
    ])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, text, error):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        code, out, err = run(capsys, "fpt", "--fixture", "demo_geometric_q25",
                             "--from", "A", "--to", "B", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: {error}\n")

    def test_line_without_equals_is_usage_error_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=csv\nepsilon\n")
        code, out, err = run(capsys, "fpt", "--fixture", "demo_geometric_q25",
                             "--from", "A", "--to", "B", "--config", str(cfg))
        assert (code, out, err) == (2, "", f"error: {cfg}:2: expected key=value, got 'epsilon'\n")

    def test_file_value_is_checked_before_the_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon=2\n")
        code, out, err = run(capsys, "fpt", "--fixture", "demo_geometric_q25", "--from", "A",
                             "--to", "B", "--config", str(cfg), "--epsilon", "1e-9")
        assert (code, out, err) == (2, "", "error: epsilon must lie in (0, 1), got 2.0\n")

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frmat=json\n")
        code, _, err = run(capsys, "fpt", "--fixture", "demo_geometric_q25",
                           "--from", "A", "--to", "B", "--config", str(cfg))
        assert code == 2
        assert "unknown key" in err


class TestOutputFile:
    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code, out, _ = run(capsys, "fpt", "--fixture", "demo_geometric_q25",
                           "--from", "A", "--to", "B", "--horizon", "4",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("# source=A")

    def test_unwritable_out_is_fatal(self, tmp_path, capsys):
        code, _, err = run(capsys, "fpt", "--fixture", "demo_geometric_q25",
                           "--from", "A", "--to", "B",
                           "--out", str(tmp_path / "nodir" / "x.csv"))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("flag", ["--out", "--rejects"])
    def test_failed_write_leaves_target_untouched(self, tmp_path, capsys, monkeypatch, flag):
        data = write_panel(tmp_path, ["A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1",
                                      "B,2019.1,2019.2,XX,TE,21,F,1,SOUTH,1"])
        target = tmp_path / "target.csv"
        target.write_bytes(b"earlier output\n")
        before = sorted(os.listdir(tmp_path))
        fail_writes_midway(monkeypatch)
        code, _, err = run(capsys, "transitions", "--data", data, "--quarter", "2019.1",
                           flag, str(target))
        assert code == 2
        assert "No space left on device" in err
        assert target.read_bytes() == b"earlier output\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_failed_simulate_write_leaves_target_untouched(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "sim.csv"
        target.write_bytes(b"earlier output\n")
        before = sorted(os.listdir(tmp_path))
        fail_writes_midway(monkeypatch)
        code, _, err = run(capsys, "simulate", "--fixture", "early_2019Q3", "--n", "50",
                           "--out", str(target))
        assert code == 2
        assert "No space left on device" in err
        assert target.read_bytes() == b"earlier output\n"
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("flag", ["--out", "--rejects"])
    def test_write_replaces_target_through_a_symlink(self, tmp_path, capsys, flag):
        data = write_panel(tmp_path, ["A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1"])
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"earlier output\n")
        link.symlink_to(target.name)
        code, _, _ = run(capsys, "transitions", "--data", data, "--quarter", "2019.1",
                         "--min-support", "0", flag, str(link))
        assert code == 0
        assert link.is_symlink()
        assert target.read_text().startswith("line_number" if flag == "--rejects" else "#")
        assert (target.stat().st_mode & 0o777) == 0o666 & ~current_umask()
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "panel.csv", "target.csv"]

    def test_write_leaves_the_process_umask_alone(self, tmp_path, monkeypatch):
        mask = current_umask()

        def set_umask(_):
            raise AssertionError("the process umask was changed")

        monkeypatch.setattr(os, "umask", set_umask)
        target = tmp_path / "target.csv"
        with replacing_file(target) as fh:
            fh.write("a,b\r\n")
        assert target.read_bytes() == b"a,b\r\n"
        assert (target.stat().st_mode & 0o777) == 0o666 & ~mask

    def test_temporary_name_in_use_is_not_touched(self, tmp_path, monkeypatch):
        taken = tmp_path / f".lmflows-{bytes(6).hex()}"
        taken.write_bytes(b"someone else's file\n")
        draws = iter([bytes(6), bytes(6), b"\x01" * 6])
        monkeypatch.setattr(os, "urandom", lambda n: next(draws))
        target = tmp_path / "target.csv"
        with replacing_file(target) as fh:
            fh.write("new\n")
        assert target.read_bytes() == b"new\n"
        assert taken.read_bytes() == b"someone else's file\n"
        assert sorted(os.listdir(tmp_path)) == [taken.name, "target.csv"]

    @pytest.mark.parametrize("mode", ["a", "w"])
    def test_out_to_own_stdout_file_keeps_what_it_held(self, tmp_path, capsys, mode):
        _, listing, _ = run(capsys, "fixtures")
        target = tmp_path / "stdout.txt"
        with open(target, mode) as fh:  # as by `>>` or `>` in a shell
            fh.write("before\n")
            fh.flush()
            result = child("fixtures", "--out", "/dev/stdout", stdout=fh)
            fh.write("after\n")
        assert result.returncode == 0
        assert target.read_text() == "before\n" + listing + "after\n"

    def test_out_to_stdout_pipe(self, capsys):
        _, listing, _ = run(capsys, "fixtures")
        result = child("fixtures", "--out", "/dev/stdout", capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (0, listing, "")

    def test_rejects_to_own_stderr_file_keeps_what_it_held(self, tmp_path, capsys):
        data = write_panel(tmp_path, ["A,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,1",
                                      "B,2019.1,2019.2,XX,TE,21,F,1,SOUTH,1"])
        target = tmp_path / "stderr.txt"
        target.write_text("before\n")
        with open(target, "a") as fh:
            result = child("transitions", "--data", data, "--quarter", "2019.1",
                           "--min-support", "0", "--rejects", "/dev/stderr",
                           stdout=subprocess.DEVNULL, stderr=fh)
        assert result.returncode == 0
        assert target.read_text() == (
            "before\nline_number,reason\n3,unknown state code 'XX'\n"
            "note: 1 of 2 rows rejected; report written to /dev/stderr\n")


def fail_writes_midway(monkeypatch):
    """Make each file opened by ``os.fdopen`` write half its first text, then fail as if full."""
    fdopen = os.fdopen

    def failing_midway(fd, *args, **kwargs):
        fh = fdopen(fd, *args, **kwargs)
        write = fh.write

        def write_half(text):
            write(text[:len(text) // 2])
            fh.flush()
            raise OSError(28, "No space left on device")
        fh.write = write_half
        return fh

    monkeypatch.setattr(os, "fdopen", failing_midway)


def child(*argv, **kwargs):
    """``lmflows`` run in a child process, as ``subprocess.run`` with ``kwargs``."""
    src = str(Path(lmflows.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "lmflows.cli", *argv], env=env, **kwargs)


def current_umask():
    mask = os.umask(0)
    os.umask(mask)
    return mask


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(lmflows.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, lmflows.cli; sys.exit('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr or "scipy was imported"


@st.composite
def fpt_argvs(draw):
    """``lmflows fpt`` on a fixture, without --strict: good and bad ends and flag values."""
    fixture = draw(st.sampled_from(fixture_names()))
    end = st.one_of(st.sampled_from(get_fixture(fixture).states),
                    st.sampled_from(("edu", "NEET", "6", "XX", "9", "-1", "")))
    argv = ["fpt", "--fixture", fixture, "--from", draw(end), "--to", draw(end)]
    values = {
        "--horizon": st.one_of(st.integers(-2, 1500).map(str), st.sampled_from(["2.5", "x", ""])),
        "--epsilon": st.one_of(st.floats(0.0, 1.0).map(repr), st.floats().map(repr),
                               st.sampled_from(["1e-300", "1", "x"])),
        "--max-horizon": st.one_of(st.integers(-2, 30000).map(str), st.sampled_from(["1e4", ""])),
    }
    for flag, value in values.items():
        if draw(st.booleans()):
            argv += [flag, draw(value)]
    return argv


@settings(max_examples=60, deadline=None)
@given(argv=fpt_argvs())
def test_fpt_without_strict_exits_zero_or_two(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == ""), (argv, err.getvalue())


QUARTERS = (st.sampled_from(["2019.1", "2019.2", "2019.3", "2018.4", "9999.3", "9999.4"]),
            st.sampled_from(["2019.5", "1899.4", "19.1", "2019", "x", ""]))


def good_or_bad(draw, good, bad):
    """A value drawn from ``good``, or one time in five from ``bad``."""
    return draw(bad if draw(st.integers(0, 4)) == 4 else good)


STATE_ENDS = (st.sampled_from(["EDU", "PE", "TE", "SE", "U", "NLFET", "FS", "edu", "0", "6"]),
              st.sampled_from(["XX", "9", "-1", ""]))

# Two valid configs (the first sets format, which simulate refuses), then an unknown key,
# a bad value, bytes that are not UTF-8, a directory and a missing file.
CONFIGS = (st.sampled_from(["{config}", "{config_plain}"]),
           st.sampled_from(["{config_unknown}", "{config_bad}", "{config_binary}",
                            "{config_unreadable}", "{missing}"]))


@st.composite
def data_command_argvs(draw):
    """``shares``, ``transitions``, ``fpt --data``, ``fixtures`` or ``simulate`` with good and
    bad flag values.

    Each optional flag is absent or has a good or a bad value; a required one has a good or
    a bad value (``fpt --quarter`` is sometimes left out, though ``--data`` requires it).
    ``{data}``, ``{dirty}``, ``{missing}``, ``{out}`` and the ``{config...}`` names stand for
    paths. ``--n`` stays at or below 10^4: a simulated panel is held in memory whole. A term
    cap stays at or below 5000, and ``--strict`` is never given: a passage's verdict may
    rightly exit 1 with it.
    """
    command = draw(st.sampled_from(["shares", "transitions", "fpt", "fixtures", "simulate"]))
    argv = [command]
    flags = {"--format": (st.sampled_from(["csv", "json"]), st.sampled_from(["xml", ""])),
             "--config": CONFIGS}
    if command in ("shares", "transitions", "fpt"):
        argv += ["--data", draw(st.sampled_from(["{data}", "{data}", "{dirty}", "{missing}"]))]
        if command != "fpt" or draw(st.integers(0, 9)):
            argv += ["--quarter", good_or_bad(draw, *QUARTERS)]
        flags.update({
            "--age": (st.sampled_from(["teens", "early", "late", "preadult"]),
                      st.sampled_from(["old", ""])),
            "--sex": (st.sampled_from(["M", "F"]), st.just("X")),
            "--citizen": (st.sampled_from(["0", "1"]), st.just("2")),
            "--region": (st.sampled_from(["north", "SOUTH"]), st.just("EAST")),
        })
        if command == "fpt":
            argv += ["--from", good_or_bad(draw, *STATE_ENDS),
                     "--to", good_or_bad(draw, *STATE_ENDS)]
            flags.update({
                "--horizon": (st.integers(1, 120).map(str), st.sampled_from(["0", "x"])),
                "--epsilon": (st.sampled_from(["1e-9", "0.001"]), st.sampled_from(["0", "1.5", "nan"])),
                "--max-horizon": (st.integers(1, 5000).map(str), st.sampled_from(["0", "1e4"])),
            })
        if command in ("transitions", "fpt"):
            flags.update({
                "--min-support": (st.floats(0, 100).map(repr),
                                  st.one_of(st.floats().map(repr), st.sampled_from(["x", ""]))),
                "--fallback-policy": (st.sampled_from(["uniform", "absorbing_fs"]),
                                      st.just("none")),
            })
        if draw(st.booleans()):
            argv.append("--pretty")
    elif command == "simulate":
        del flags["--format"]
        argv += ["--fixture", good_or_bad(draw, st.sampled_from(["early_2019Q3", "late_2020Q3"]),
                                          st.just("nope")),
                 "--n", good_or_bad(draw, st.integers(1, 10_000).map(str),
                                    st.sampled_from(["0", "-1", "1e3", "x", ""])),
                 "--out", "{out}"]
        flags.update({
            "--seed": (st.integers(0, 2**70).map(str), st.sampled_from(["-2", "x"])),
            "--start": QUARTERS,
            "--quarters": (st.integers(1, 400).map(str), st.sampled_from(["0", "2.5"])),
            "--initial-shares": (
                st.sampled_from(["1,0,0,0,0,0,0", "0.1,0.2,0.1,0.1,0.1,0.3,0.1"]),
                st.sampled_from(["0.5,0.5", "nan,0,0,0,0,0,1", "-1,1,0,0,0,0,1", "x,,,,,,"])),
        })
    for flag, (good, bad) in flags.items():
        if draw(st.booleans()):
            argv += [flag, good_or_bad(draw, good, bad)]
    return argv


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """A simulated panel of 2019.1-2019.4 and a copy with dirty lines spliced in."""
    root = tmp_path_factory.mktemp("corpus")
    data = root / "data.csv"
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["simulate", "--fixture", "early_2019Q3", "--n", "300", "--seed", "4",
                     "--start", "2019.1", "--quarters", "4", "--out", str(data)]) == 0
    lines = data.read_text().splitlines()
    lines[3:3] = ["D1,2019.5,2019.6,EDU,TE,21,F,1,SOUTH,1", "D2,2019.1,2019.2,EDU,TE,21,F,1",
                  "D3,2019.1,2019.2,EDU,TE,21,F,1,SOUTH,nan", "D4,2019.1,2019.2,XX,TE,40,F,1,SOUTH,1"]
    dirty = root / "dirty.csv"
    dirty.write_text("\n".join(lines) + "\n")
    configs = {
        "config": "# a run\nepsilon = 1e-8\nmax_horizon = 3000\nmin_support = 5\nformat = json\n",
        "config_plain": "fallback_policy = absorbing_fs\n\nmax_horizon=200\n",
        "config_unknown": "epsilon = 1e-8\ncolour = blue\n",
        "config_bad": "max_horizon = lots\n",
    }
    paths = {}
    for name, text in configs.items():
        paths[name] = root / f"{name}.cfg"
        paths[name].write_text(text)
    paths["config_binary"] = root / "binary.cfg"
    paths["config_binary"].write_bytes(b"epsilon = 1e-8\n\xff\xfe\n")
    paths["config_unreadable"] = root / "config_dir.cfg"
    paths["config_unreadable"].mkdir()
    return {"data": data, "dirty": dirty, "missing": root / "missing.csv", **paths}


@settings(max_examples=150, deadline=None)
@given(argv=data_command_argvs())
def test_data_commands_exit_zero_or_two_without_a_traceback(argv, small_corpus):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        paths = {**small_corpus, "out": Path(scratch) / "sim.csv"}
        argv = [paths[arg[1:-1]].as_posix() if arg[:1] == "{" and arg[-1:] == "}" else arg
                for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error: " in err.getvalue().splitlines()[-1], (argv, err.getvalue())
