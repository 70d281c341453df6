"""Rendering of estimation and passage-time results as CSV, JSON, and text.

CSV outputs open with ``# key=value`` comment lines carrying run metadata,
then a header row. Floats are written with ``repr`` so values survive a
round trip unchanged; the JSON documents hold the same Python floats, which
keeps the two formats numerically identical for a given run. Pretty text
renderers print probabilities at two decimals in an aligned grid, the way
such tables are usually published, with fallback rows starred.
"""

import csv
import functools
import io
import json

from .errors import InfiniteEfptError
from .estimation import TransitionMatrix
from .fpt import Passage, _term_count


def _fmt(x) -> str:
    return repr(float(x))


def _meta_block(items) -> str:
    """``# key=value`` lines; a value's backslashes, CRs and LFs are written ``\\\\``, ``\\r``, ``\\n``."""
    lines = (f"# {key}={value}" for key, value in items if value is not None)
    return "".join(line.replace("\\", "\\\\").replace("\r", "\\r").replace("\n", "\\n") + "\n"
                   for line in lines)


def _cohort_doc(cohort):
    if cohort is None:
        return None
    return {
        "age_band": cohort.age_band.name if cohort.age_band is not None else None,
        "sex": cohort.sex.name if cohort.sex is not None else None,
        "citizen": (1 if cohort.citizen else 0) if cohort.citizen is not None else None,
        "region": cohort.region.name if cohort.region is not None else None,
    }


def to_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------- matrices

def matrix_to_doc(m) -> dict:
    """JSON-ready document for a TransitionMatrix."""
    return {
        "states": list(m.states),
        "entries": [[float(v) for v in row] for row in m.entries],
        "row_counts": list(m.row_counts) if m.row_counts is not None else None,
        "fallback_rows": sorted(m.fallback_rows),
        "from_quarter": str(m.from_quarter) if m.from_quarter is not None else None,
        "to_quarter": str(m.to_quarter) if m.to_quarter is not None else None,
        "cohort": _cohort_doc(m.cohort),
        "provenance": m.provenance,
    }


@functools.lru_cache(maxsize=256)
def _csv_field(label) -> str:
    """``label`` as csv.writer writes it among the other fields of a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([label, ""])
    return buf.getvalue()[:-2]


def matrix_to_csv(m) -> str:
    meta = _meta_block(
        (
            ("from_quarter", str(m.from_quarter) if m.from_quarter is not None else None),
            ("to_quarter", str(m.to_quarter) if m.to_quarter is not None else None),
            ("cohort", m.cohort.describe() if m.cohort is not None else None),
            ("provenance", m.provenance or None),
        )
    )
    labels = list(map(_csv_field, m.states))
    counts = [""] * len(labels) if m.row_counts is None else map(_fmt, m.row_counts)
    # Floats and ints, which csv.writer would never quote: one join a row, each as _fmt writes it.
    rows = (f"{label},{','.join(map(repr, entries))},{count},{int(i in m.fallback_rows)}\n"
            for i, (label, entries, count) in enumerate(zip(labels, m.entries.tolist(), counts)))
    return "".join((meta, ",".join(("state", *labels, "row_count", "fallback")), "\n", *rows))


def matrix_pretty(m) -> str:
    lines = []
    header = []
    if m.from_quarter is not None and m.to_quarter is not None:
        header.append(f"{m.from_quarter} -> {m.to_quarter}")
    if m.cohort is not None:
        header.append(f"cohort: {m.cohort.describe()}")
    if header:
        lines.append("  |  ".join(header))
    width = max(5, max(len(s) for s in m.states) + 1)
    label_w = max(len(s) for s in m.states) + 1
    lines.append(" " * label_w + "".join(f"{s:>{width}}" for s in m.states))
    for i, name in enumerate(m.states):
        star = "*" if i in m.fallback_rows else ""
        row = "".join(f"{v:>{width}.2f}" for v in m.entries[i])
        lines.append(f"{name + star:<{label_w}}{row}")
    if m.fallback_rows:
        lines.append("* no observed departures; row imputed")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ shares

def shares_to_doc(table) -> dict:
    return {
        "quarter": str(table.quarter),
        "cohort": _cohort_doc(table.cohort),
        "total_weight": float(table.total_weight),
        "shares": {s.name: float(table.shares[s]) for s in table.shares},
        "n_obs": {s.name: int(table.n_obs[s]) for s in table.n_obs},
    }


def shares_to_csv(table) -> str:
    meta = _meta_block(
        (
            ("quarter", str(table.quarter)),
            ("cohort", table.cohort.describe()),
            ("total_weight", _fmt(table.total_weight)),
        )
    )
    # State names and numbers, which csv.writer would never quote: one join.
    rows = "".join(f"{s.name},{_fmt(share)},{int(table.n_obs[s])}\n"
                   for s, share in table.shares.items())
    return f"{meta}state,share,n_obs\n{rows}"


def shares_pretty(table) -> str:
    doc = shares_to_doc(table)
    lines = [f"{doc['quarter']}  |  cohort: {table.cohort.describe()}"]
    for name, share in doc["shares"].items():
        lines.append(f"{name:<7}{share:>8.4f}  (n={doc['n_obs'][name]})")
    lines.append(f"total weight {doc['total_weight']:.6g}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- fpt

# Each route's EFPT document: its keys in order, with the values of an infinite EFPT.

def _efpt_series_doc(passage, epsilon, max_horizon):
    doc = {"quarters": None, "years": None, "n_terms": None, "infinite": True, "detail": None}
    try:
        r = passage.series(epsilon, max_horizon)
    except InfiniteEfptError as exc:
        return {**doc, "detail": str(exc)}
    return {**doc, "quarters": r.quarters, "years": r.efpt_years, "n_terms": r.n_terms, "infinite": False}


def _efpt_linear_doc(passage):
    doc = {"quarters": None, "years": None, "infinite": True, "trapped_states": [], "detail": None}
    try:
        r = passage.linear()
    except InfiniteEfptError as exc:
        return {**doc, "trapped_states": list(exc.trapped), "detail": str(exc)}
    return {**doc, "quarters": r.quarters, "years": r.efpt_years, "infinite": False}


def build_fpt_report(m, source, target, horizon, epsilon, max_horizon) -> dict:
    """Full passage-time report as a JSON-ready document.

    Contains the distribution f(n) with its cdf and survival companions up
    to ``horizon``, the expectation by both routes (series and linear
    system, each reported even when the other is infinite), and the
    well-definedness diagnosis, which reads the series' stop for
    (``epsilon``, ``max_horizon``). ``m`` is read through
    ``TransitionMatrix.of``, and one Passage serves all four parts, so the
    passage is screened once and the target's taboo recursion runs once,
    shared with every other report on the matrix into that target: the
    verdict streams it under its stopping rule, the series reads the same
    rule's answer, and a distribution of up to ``DEFAULT_HORIZON`` terms
    reads the rows the stream kept on its way. The results and the errors,
    in their order, are those of fpt_distribution, check_well_defined,
    efpt_series and efpt_linear called one by one.
    """
    m = TransitionMatrix.of(m)
    passage = Passage(m, source, target)
    _term_count(horizon, "horizon")  # the distribution's, checked before the verdict's
    wd = passage.well_defined(max_horizon, epsilon)
    dist = passage.distribution(horizon)
    cdf = dist.cdf()
    doc = {
        "source": dist.source,
        "target": dist.target,
        "horizon": int(horizon),
        "from_quarter": str(m.from_quarter) if m.from_quarter is not None else None,
        "to_quarter": str(m.to_quarter) if m.to_quarter is not None else None,
        "cohort": _cohort_doc(m.cohort),
        "well_defined": {
            "verdict": wd.verdict,
            "mass_at_horizon": float(wd.mass_at_horizon),
            "reachable": bool(wd.reachable),
            "horizon": int(wd.horizon),
        },
        "efpt": {
            "series": _efpt_series_doc(passage, epsilon, max_horizon),
            "linear_system": _efpt_linear_doc(passage),
        },
        "distribution": dist.probabilities.tolist(),
        "cdf": cdf.tolist(),
        "survival": (1.0 - cdf).tolist(),
    }
    return doc


def fpt_report_to_csv(doc: dict) -> str:
    """CSV rendering of a passage-time report, numerically identical to it."""
    series = doc["efpt"]["series"]
    linear = doc["efpt"]["linear_system"]
    meta = _meta_block((
        ("source", doc["source"]),
        ("target", doc["target"]),
        ("from_quarter", doc["from_quarter"]),
        ("to_quarter", doc["to_quarter"]),
        ("verdict", doc["well_defined"]["verdict"]),
        ("efpt_series_quarters", "inf" if series["infinite"] else _fmt(series["quarters"])),
        ("efpt_linear_quarters", "inf" if linear["infinite"] else _fmt(linear["quarters"])),
        ("trapped_states", ";".join(linear["trapped_states"]) if linear["trapped_states"] else None),
    ))
    # Ints and floats only, which csv.writer would never quote: one join, each as _fmt writes it.
    columns = (map(repr, map(float, doc[name])) for name in ("distribution", "cdf", "survival"))
    rows = "".join(map("{},{},{},{}\n".format, range(1, doc["horizon"] + 1), *columns))
    return f"{meta}n,f,cdf,survival\n{rows}"


def fpt_report_pretty(doc: dict) -> str:
    series = doc["efpt"]["series"]
    linear = doc["efpt"]["linear_system"]
    lines = [f"first passage {doc['source']} -> {doc['target']}"]
    if doc["from_quarter"]:
        lines.append(f"chain quarter: {doc['from_quarter']} -> {doc['to_quarter']}")
    lines.append(f"verdict: {doc['well_defined']['verdict']}"
                 f" (mass {doc['well_defined']['mass_at_horizon']:.6f}"
                 f" by horizon {doc['well_defined']['horizon']})")
    if series["infinite"]:
        lines.append("EFPT (series): infinite or not converged")
    else:
        lines.append(
            f"EFPT (series): {series['quarters']:.4f} quarters = {series['years']:.4f} years"
            f" ({series['n_terms']} terms)"
        )
    if linear["infinite"]:
        trapped = ", ".join(linear["trapped_states"]) or "none identified"
        lines.append(f"EFPT (linear system): infinite (trapped states: {trapped})")
    else:
        lines.append(
            f"EFPT (linear system): {linear['quarters']:.4f} quarters = {linear['years']:.4f} years"
        )
    lines.append("")
    lines.append(f"{'n':>4}  {'f':>10}  {'cdf':>10}  {'survival':>10}")
    for k in range(doc["horizon"]):
        lines.append(
            f"{k + 1:>4}  {doc['distribution'][k]:>10.6f}  {doc['cdf'][k]:>10.6f}  "
            f"{doc['survival'][k]:>10.6f}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- fixtures

def fixtures_to_doc(fixtures) -> dict:
    return {
        "fixtures": [
            {
                "name": f.name,
                "description": f.description,
                "states": list(f.states),
                "age_band": f.age_band.name if f.age_band is not None else None,
                "from_quarter": str(f.from_quarter) if f.from_quarter is not None else None,
                "to_quarter": str(f.to_quarter) if f.to_quarter is not None else None,
                "fallback_states": sorted(f.fallback_states),
            }
            for f in fixtures
        ]
    }


def fixtures_to_csv(fixtures) -> str:
    """The rows of ``fixtures_to_doc`` as CSV: lists joined by ";", None left blank."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    header = ("name", "states", "age_band", "from_quarter", "to_quarter", "fallback_states", "description")
    w.writerow(header)
    for row in fixtures_to_doc(fixtures)["fixtures"]:
        w.writerow(";".join(row[key]) if isinstance(row[key], list) else row[key] for key in header)
    return buf.getvalue()
