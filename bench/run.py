"""Run one benchmark workload, check its outputs and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is grid_pairs, link_waves, passage_sweep or cli_session; ``all`` runs
the four one after another, each in its own process. A run sets up three
times (the median counts), then makes whole rounds of the workload until
S seconds have passed. With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it wraps the package's public functions in spans and
reports the per-layer metrics instead. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. A
record of the run, with the spans of a traced run, is written under
``.bench_out/``.
"""

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("grid_pairs", "link_waves", "passage_sweep", "cli_session")
SETUP_REPEATS = 3
# Operations whose time follows the speed probe (see pace.py) are scaled by
# it. A file parse does not follow it: over three sets of runs, scaling the
# parses widened their run-to-run spread (0.06 to 0.13, 0.04 to 0.20) where
# scaling cells and reports narrowed theirs (0.19 to 0.04, 0.16 to 0.05), so
# parse times are reported as measured.
SCALED_KINDS = ("cell", "report", "cli_call")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
)


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": sum(p.read_bytes().count(b"\n") for p in sorted(SRC.rglob("*.py"))),
    }


def tail(values):
    """(percentile, value) of the highest percentile with ten values beyond it, or None."""
    if len(values) < 40:
        return None
    ordered = sorted(values)
    return round(100 * (len(ordered) - 10) / len(ordered)), ordered[-11]


def summarise(workload, rounds, pace, setup_s, peak_rss_mb, baseline_rss_mb):
    """End-to-end metrics plus the workload's own named figures.

    Times are in reference seconds, except those of unscaled operations.
    """
    times = [[op.seconds * (pace.scale(op.start, op.start + op.seconds) if op.kind in SCALED_KINDS
                            else 1.0) for op in r] for r in rounds]
    ops = [op for r in rounds for op in r]
    scaled = [t for r in times for t in r]
    unit = [t for op, t in zip(ops, scaled) if op.kind == workload.unit]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(r) for r in times),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": len(unit) / sum(unit),
        "op_p50_ms": 1000 * statistics.median(unit),
    }
    named = {}
    for kind in dict.fromkeys(op.kind for op in ops):
        secs = [t for op, t in zip(ops, scaled) if op.kind == kind]
        named[f"{kind}s_per_s"] = (len(secs) / sum(secs), f"{kind}s/s")
        named[f"{kind}_p50_ms"] = (1000 * statistics.median(secs), "ms")
        tails = [tail([t for op, t in zip(r, tr) if op.kind == kind]) for r, tr in zip(rounds, times)]
        if tails[0] is not None:
            named[f"{kind}_p{tails[0][0]}_ms"] = (1000 * statistics.median(t[1] for t in tails), "ms")
        if kind == "parse":
            named["ingest_rows_per_s"] = (sum(op.rows for op in ops if op.kind == kind) / sum(secs),
                                          "rows/s")
    named["raw_wall_s"] = (statistics.median(sum(op.seconds for op in r) for r in rounds), "s")
    named["machine_speed"] = (pace.speed(), "x reference")
    if workload.unit != "cli_call":
        named["baseline_rss_mb"] = (baseline_rss_mb, "MiB")
    return metrics, named


def run_one(args) -> int:
    # One CPU for the workload, its subprocesses and the speed probe, so that
    # the probe times the core the work runs on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import lmflows
    import lmflows.serialize  # noqa: F401  (not imported by the package itself)
    t1 = time.perf_counter()
    if Path(lmflows.__file__).resolve().parent != SRC / "lmflows":
        print(f"error: imported lmflows from {lmflows.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads
    from pace import Pace

    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = {**environment(), "cpu": cpu}

    pace = Pace()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # thin-row warnings on small cohorts are expected
        pace.between()
        import_s = (t1 - t0) * pace.scale(t0, t1)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            state = None  # the last set-up's inputs are not held during the next
            t0 = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            t1 = time.perf_counter()
            pace.between()
            setup_times.append((t1 - t0) * pace.scale(t0, t1))
        setup_s = import_s + statistics.median(setup_times)
        baseline_rss_mb = workloads.rss_mib()

        tracer = spans.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        rounds, roots = [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            with workloads.span(tracer, "round") as record:
                rounds.append(workload.run_round(state, tracer, pace))
            roots.append(record[0])
        pace.probe()
        if tracer is not None:
            tracer.uninstall()

    ops = [op for r in rounds for op in r]
    failed = [op for op in ops if op.errors]
    correct = all(op.known_fault for op in failed)
    e2e, named = summarise(workload, rounds, pace, setup_s, workloads.peak_rss_mib(workload),
                           baseline_rss_mb)
    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        per_round = [spans.layer_metrics(tracer.spans, root) for root in roots]
        metrics = {name: {"value": statistics.median(r[name] for r in per_round), "unit": unit}
                   for name, unit, _ in spans.METRICS}

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  trace {args.trace}")
    print("  ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in named.items():
        print(f"  {name:<24} {value:14.4f} {unit}")
    for name, m in metrics.items():
        print(f"  {name:<32} {m['value']:14.6f} {m['unit']}")
    print(f"attempted {len(ops)}  failed {len(failed)}  correct {correct}")
    for op in [op for op in rounds[0] if op.errors][:20]:
        known = " (known fault)" if op.known_fault else ""
        print(f"  FAILED {op.label}{known}: {'; '.join(op.errors)}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "import_s": import_s, "setup_times": setup_times,
        "end_to_end": e2e, "named": {k: v[0] for k, v in named.items()},
        "probes": [pace.times, pace.probes],
        "rounds": [[dataclasses.asdict(op) for op in r] for r in rounds],
    }
    if tracer is not None:
        record["layers"] = {k: m["value"] for k, m in metrics.items()}
        record["spans"] = tracer.spans
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lmflows" / "__init__.py").is_file():
        print(f"error: no lmflows sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
