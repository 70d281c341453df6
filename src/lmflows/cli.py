"""Command-line front door.

Five subcommands:

shares        state shares for one quarter and cohort
transitions   one-quarter transition matrix for a cohort
fpt           first-passage report (distribution, cdf, EFPT both ways)
simulate      write a synthetic rotating-panel CSV from a fixture chain
fixtures      list the embedded transition tables

Exit codes: 0 on success (including analytically degenerate passage-time
reports, which are data facts, not failures), 1 when --strict escalates a
degenerate report, 2 for usage or data errors. Warnings, such as thin
transition rows, are printed as one ``warning:`` line each on stderr.

A run of the ``lmflows`` script ends once its output is flushed and its files
are closed, without the interpreter's teardown. ``main(argv)`` returns the code
and leaves the interpreter running.
"""

import argparse
import dataclasses
import os
import sys
import warnings

from . import __version__
from .config import OUTPUT_FORMATS, RunConfig
from .errors import LmflowsError
from .estimation import (
    FALLBACK_POLICIES,
    ThinRowWarning,
    apply_fallback_policy,
    compute_shares,
    estimate_transition_matrix,
)
from .fixtures import fixture_names, get_fixture
from .fpt import DEFAULT_HORIZON, DEFAULT_MAX_HORIZON, VERDICT_WELL_DEFINED
from .panel import generate_synthetic_panel, parse_panel_file, replacing_file, write_pairs_csv
from .serialize import (
    build_fpt_report,
    fixtures_to_csv,
    fixtures_to_doc,
    fpt_report_pretty,
    fpt_report_to_csv,
    matrix_pretty,
    matrix_to_csv,
    matrix_to_doc,
    shares_pretty,
    shares_to_csv,
    shares_to_doc,
    to_json,
)
from .states import AgeBand, CohortFilter, MacroRegion, QuarterId, Sex

# The cohort flags: each flag's CohortFilter field, its help, how a value is read
# and the member each of its choices names, flags and choices in help order.
_COHORT_FLAGS = {
    "age": ("age_band", "age band at first interview", str.lower, {
        "early": AgeBand.EARLY_YOUNG, "late": AgeBand.LATE_YOUNG,
        "preadult": AgeBand.PRE_ADULTS, "teens": AgeBand.TEENS}),
    "sex": ("sex", "restrict to one sex", str.upper, {s.name: s for s in Sex}),
    "citizen": ("citizen", "citizenship flag (1=citizen)", str, {"0": False, "1": True}),
    "region": ("region", "macro region of residence", str.upper, {r.name: r for r in MacroRegion}),
}


def _int_at_least(low: int):
    """An argparse type: an int >= ``low``; argparse names the flag in its errors."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _floats(text: str) -> list[float]:
    """An argparse type: comma-separated numbers; argparse names the flag in its errors."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cohort_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("cohort filters")
    for flag, (_, help_text, read, members) in _COHORT_FLAGS.items():
        g.add_argument(f"--{flag}", choices=list(members), type=read, help=help_text)
    return p


def _output_parent(pretty: bool, formats: bool = True) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("output")
    if formats:
        g.add_argument("--format", choices=OUTPUT_FORMATS, help="output format (default csv)")
    g.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    if pretty:
        g.add_argument("--pretty", action="store_true", help="aligned two-decimal text instead of csv/json")
    g.add_argument("--config", metavar="PATH", help="key=value config file")
    return p


def _data_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    g = p.add_argument_group("input data")
    g.add_argument("--data", metavar="PATH", required=True, help="panel CSV (pair_rows or wave_rows)")
    g.add_argument("--rejects", metavar="PATH", help="write the rejection report CSV here")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmflows",
        description="Labour-market state shares, transition matrices, and first passage times.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    cohort = _cohort_parent()
    output = _output_parent(pretty=True)
    plain_output = _output_parent(pretty=False)  # commands with no table to align
    file_output = _output_parent(pretty=False, formats=False)  # commands with one file format
    data = _data_parent()

    p = sub.add_parser("shares", parents=[data, cohort, output], help="state shares in one quarter")
    p.add_argument("--quarter", required=True, help="quarter to tabulate, YYYY.Q")
    p.set_defaults(func=cmd_shares)

    p = sub.add_parser(
        "transitions", parents=[data, cohort, output], help="one-quarter transition matrix"
    )
    p.add_argument("--quarter", required=True, help="departure quarter, YYYY.Q")
    p.add_argument("--min-support", type=float, help="warn on rows thinner than this weight")
    p.add_argument("--fallback-policy", choices=FALLBACK_POLICIES, help="treatment of empty rows")
    p.set_defaults(func=cmd_transitions)

    p = sub.add_parser("fpt", parents=[cohort, output], help="first-passage report")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--fixture", choices=fixture_names(), help="use an embedded matrix")
    src.add_argument("--data", metavar="PATH", help="estimate the matrix from this panel CSV")
    p.add_argument("--rejects", metavar="PATH", help="with --data, write the rejection report CSV here")
    p.add_argument("--quarter", help="departure quarter when estimating from --data")
    p.add_argument("--from", dest="from_state", required=True, metavar="STATE", help="source state")
    p.add_argument("--to", dest="to_state", required=True, metavar="STATE", help="target state")
    p.add_argument("--horizon", type=_int_at_least(1), default=DEFAULT_HORIZON,
                   help=f"quarters to tabulate (default {DEFAULT_HORIZON})")
    p.add_argument("--epsilon", type=float, help="relative error the series must prove")
    p.add_argument("--max-horizon", type=_int_at_least(1),
                   help=f"most series terms (default {DEFAULT_MAX_HORIZON})")
    p.add_argument("--fallback-policy", choices=FALLBACK_POLICIES, help="treatment of imputed rows")
    p.add_argument("--min-support", type=float, help="warn on rows thinner than this weight")
    p.add_argument(
        "--strict", action="store_true", help="exit 1 unless the passage time is well defined"
    )
    p.set_defaults(func=cmd_fpt)

    p = sub.add_parser("simulate", parents=[file_output], help="write a synthetic panel CSV")
    p.add_argument("--fixture", choices=fixture_names(), required=True, help="truth chain")
    p.add_argument("--n", type=_int_at_least(1), required=True, help="number of individuals")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="RNG seed (default 0)")
    p.add_argument("--start", default="2019.1", help="first quarter of the window (default 2019.1)")
    p.add_argument("--quarters", type=_int_at_least(1), default=2, help="window length (default 2)")
    p.add_argument(
        "--initial-shares",
        type=_floats,
        metavar="P0,...,P6",
        help="comma-separated entry-state distribution (default uniform)",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fixtures", parents=[plain_output], help="list the embedded matrices")
    p.set_defaults(func=cmd_fixtures)

    return parser


def _load_config(args) -> RunConfig:
    """The config file's values, checked first, then each flag given, by its field name."""
    values = RunConfig.read_file(args.config) if getattr(args, "config", None) else {}
    if "format" in values and not hasattr(args, "format"):
        raise ValueError(f"{args.config}: format does not apply to {args.command}")
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(RunConfig)}
    return dataclasses.replace(RunConfig(**values),
                               **{name: value for name, value in flags.items() if value is not None})


def _cohort_from_args(args) -> CohortFilter:
    return CohortFilter(**{field: members[getattr(args, flag)]
                           for flag, (field, _, _, members) in _COHORT_FLAGS.items()
                           if getattr(args, flag) is not None})


def _emit(text: str, out_path) -> None:
    if out_path:
        with replacing_file(out_path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_dataset(args):
    dataset, report = parse_panel_file(args.data)
    if args.rejects:
        _emit(report.to_csv(), args.rejects)
    if report.rejections:
        print(
            f"note: {len(report.rejections)} of {report.n_rows} rows rejected"
            + (f"; report written to {args.rejects}" if args.rejects else ""),
            file=sys.stderr,
        )
    return dataset


def _render(args, cfg, value, pretty, to_doc, to_csv) -> None:
    """Write ``value`` as --pretty text, or as json or csv by the configured format.

    ``pretty`` is None for a command with no --pretty flag."""
    if getattr(args, "pretty", False):
        text = pretty(value)
    elif cfg.format == "json":
        text = to_json(to_doc(value))
    else:
        text = to_csv(value)
    _emit(text, args.out)


def cmd_shares(args) -> int:
    cfg = _load_config(args)
    dataset = _load_dataset(args)
    table = compute_shares(dataset, QuarterId.parse(args.quarter), _cohort_from_args(args))
    _render(args, cfg, table, shares_pretty, shares_to_doc, shares_to_csv)
    return 0


def _chain(args, cfg):
    """The command's chain under the fallback policy: the --fixture table, or the
    --data matrix of --quarter and the cohort."""
    if getattr(args, "fixture", None):
        data_flags = ["--" + name.replace("_", "-")
                      for name in ("rejects", "quarter", *_COHORT_FLAGS, "min_support")
                      if getattr(args, name, None) is not None]
        if data_flags:
            raise ValueError(f"{', '.join(data_flags)} "
                             f"{'applies' if len(data_flags) == 1 else 'apply'} only with --data")
        matrix = get_fixture(args.fixture).matrix()
    elif not args.quarter:
        raise ValueError("--quarter is required with --data")
    else:
        matrix = estimate_transition_matrix(_load_dataset(args), QuarterId.parse(args.quarter),
                                            _cohort_from_args(args), min_support=cfg.min_support)
    return apply_fallback_policy(matrix, cfg.fallback_policy)


def cmd_transitions(args) -> int:
    cfg = _load_config(args)
    _render(args, cfg, _chain(args, cfg), matrix_pretty, matrix_to_doc, matrix_to_csv)
    return 0


def cmd_fpt(args) -> int:
    cfg = _load_config(args)
    doc = build_fpt_report(_chain(args, cfg), args.from_state, args.to_state, horizon=args.horizon,
                           epsilon=cfg.epsilon, max_horizon=cfg.max_horizon)
    _render(args, cfg, doc, fpt_report_pretty, lambda d: d, fpt_report_to_csv)
    if args.strict and doc["well_defined"]["verdict"] != VERDICT_WELL_DEFINED:
        print(
            f"strict: passage {doc['source']} -> {doc['target']} is "
            f"{doc['well_defined']['verdict']}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_simulate(args) -> int:
    if not args.out:
        raise ValueError("simulate requires --out PATH")
    cfg = _load_config(args)
    truth = _chain(args, cfg)
    k = truth.n_states
    shares = args.initial_shares or [1.0 / k] * k
    if len(shares) != k:
        raise ValueError(f"--initial-shares needs {k} comma-separated values, got {len(shares)}")
    dataset = generate_synthetic_panel(truth, shares, n_individuals=args.n,
                                       start_quarter=QuarterId.parse(args.start),
                                       n_quarters=args.quarters, seed=args.seed)
    write_pairs_csv(dataset, args.out)
    print(f"wrote {len(dataset)} pairs to {args.out}", file=sys.stderr)
    return 0


def cmd_fixtures(args) -> int:
    cfg = _load_config(args)
    fixtures = [get_fixture(name) for name in fixture_names()]
    _render(args, cfg, fixtures, None, fixtures_to_doc, fixtures_to_csv)
    return 0


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("always", ThinRowWarning)
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (LmflowsError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def entrypoint() -> None:
    """The ``lmflows`` script: run ``main`` on ``sys.argv`` and end the process with its code.

    Once ``main`` returns, every file it wrote is closed, so after stdout and stderr
    are flushed ``os._exit`` ends the process without the interpreter's teardown. A
    flush that fails (a closed pipe, say) exits through ``sys.exit`` instead. An
    argparse ``SystemExit`` (usage errors, ``--help``, ``--version``) or an uncaught
    exception leaves ``main`` as before and takes the interpreter's own exit.
    """
    code = main(sys.argv[1:])
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
