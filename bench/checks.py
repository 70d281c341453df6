"""Output checks, computed apart from lmflows.

Every check takes the program's output and the benchmark's own expectation
and returns a list of error strings; an empty list is a pass. Expected
tables come from ``np.bincount`` over the generator's pairs, passage laws
from a row-vector recursion, finiteness from powers of the support matrix,
and expectations from ``np.linalg.solve``.
"""

import csv
import dataclasses
import io

import numpy as np

from gen import K, STATES

TABLE_TOL = 1e-12    # matrices, shares and passage laws against the tabulation
ROUTES_TOL = 1e-6    # series route against linear route, relative
SOLVE_TOL = 1e-9     # linear route against np.linalg.solve, relative
REFERENCE_TOL = 0.20

# Published school-to-work expectations in years, whole cohort, EDU -> PE/TE.
EFPT_YEARS_REFERENCE = {
    "early_2019Q3": {"PE": 8.63, "TE": 3.72},
    "early_2020Q3": {"PE": 11.25, "TE": 4.16},
}


# ----------------------------------------------------------- tabulations

def expected_matrix(flows: np.ndarray, policy: str = "uniform"):
    """(entries, row weights, fallback rows) for weighted ``flows``."""
    row_w = flows.sum(axis=1)
    empty = row_w == 0
    entries = flows / np.where(empty, 1.0, row_w)[:, None]
    for i in np.flatnonzero(empty):
        if policy == "uniform":
            entries[i] = 1.0 / K
        else:
            entries[i] = 0.0
            entries[i, i] = 1.0
    return entries, row_w, set(np.flatnonzero(empty).tolist())


def check_matrix(entries, row_counts, fallback_rows, flows, policy="uniform") -> list[str]:
    want, row_w, fallback = expected_matrix(flows, policy)
    got = np.asarray(entries, dtype=float)
    if got.shape != want.shape:
        return [f"matrix shape {got.shape}, expected {want.shape}"]
    errors = []
    gap = float(np.abs(got - want).max())
    if not gap <= TABLE_TOL:
        errors.append(f"matrix differs from the tabulation by {gap:.3g}")
    if set(fallback_rows) != fallback:
        errors.append(f"fallback rows {sorted(fallback_rows)}, tabulation has {sorted(fallback)}")
    counts = np.asarray(row_counts if row_counts is not None else np.full(K, np.nan), dtype=float)
    if not np.abs(counts - row_w).max() <= TABLE_TOL * max(1.0, float(row_w.max())):
        errors.append("row counts differ from the tabulated departing weight")
    return errors


def check_shares(shares, n_obs, total_weight, flows, counts) -> list[str]:
    """``shares``/``n_obs`` in state order, against the (from, to) flows of the cell."""
    w = flows.sum(axis=1)
    total = float(w.sum())
    errors = []
    gap = float(np.abs(np.asarray(shares, dtype=float) - w / total).max())
    if not gap <= TABLE_TOL:
        errors.append(f"shares differ from the tabulation by {gap:.3g}")
    if [int(n) for n in n_obs] != counts.tolist():
        errors.append(f"share counts {list(n_obs)}, tabulation has {counts.tolist()}")
    if not abs(float(total_weight) - total) <= TABLE_TOL * total:
        errors.append(f"total weight {total_weight!r}, tabulation has {total!r}")
    return errors


def _csv_body(text: str):
    meta, rows = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            rows.append(line)
    return meta, list(csv.reader(io.StringIO("\n".join(rows))))


def matrix_from_csv(text: str):
    """(entries, row counts, fallback rows) read back from a matrix CSV."""
    _, rows = _csv_body(text)
    body = rows[1:]
    entries = np.array([[float(v) for v in r[1:K + 1]] for r in body])
    counts = [float(r[K + 1]) for r in body]
    fallback = {i for i, r in enumerate(body) if r[K + 2] == "1"}
    return entries, counts, fallback


def shares_from_csv(text: str):
    """(shares, n_obs, total weight) read back from a shares CSV."""
    meta, rows = _csv_body(text)
    body = rows[1:]
    if [r[0] for r in body] != list(STATES):
        raise ValueError("shares CSV rows are not in state order")
    return [float(r[1]) for r in body], [int(r[2]) for r in body], float(meta["total_weight"])


def shares_doc_values(doc):
    return ([doc["shares"][s] for s in STATES], [doc["n_obs"][s] for s in STATES],
            doc["total_weight"])


# -------------------------------------------------------------- parsing

def pair_key(p) -> tuple:
    d = p.demographics
    return (p.person_id, str(p.quarter_from), str(p.quarter_to), p.state_from.name,
            p.state_to.name, d.age_at_first_wave, d.sex.name, int(d.italian_citizen),
            d.macro_region.name, p.weight)


def key_digest(keys) -> np.ndarray:
    """Sorted 64-bit hashes of pair keys: the multiset of pairs in 8 bytes a pair.

    Hashing one key at a time keeps the comparison from holding a second
    copy of the pairs beside the program's dataset.
    """
    digest = np.fromiter((hash(k) for k in keys), dtype=np.int64)
    digest.sort()
    return digest


def check_parse(dataset, report, n_lines, rejected_lines, n_age_out, digest) -> list[str]:
    """Rejections, age filtering and admitted pairs against what was injected."""
    errors = []
    if report.n_rows != n_lines:
        errors.append(f"read {report.n_rows} rows, file has {n_lines}")
    got = sorted(line for line, _ in report.rejections)
    if got != rejected_lines:
        missing = sorted(set(rejected_lines) - set(got))[:3]
        extra = sorted(set(got) - set(rejected_lines))[:3]
        errors.append(f"rejected {len(got)} lines, injected {len(rejected_lines)} "
                      f"(missing e.g. {missing}, unexpected e.g. {extra})")
    if report.n_age_filtered != n_age_out:
        errors.append(f"age-filtered {report.n_age_filtered}, injected {n_age_out}")
    if not np.array_equal(key_digest(pair_key(p) for p in dataset.pairs), digest):
        errors.append("admitted pairs differ from the generator's pairs as a multiset")
    return errors


# ------------------------------------------------------------- passages

@dataclasses.dataclass(frozen=True)
class Passage:
    """What a passage report from ``source`` to ``target`` on ``P`` must say."""

    finite: bool
    quarters: float | None     # from np.linalg.solve, when finite
    distribution: np.ndarray   # f(1..horizon) by the row-vector recursion


def _reach(A: np.ndarray) -> np.ndarray:
    """reach[a, b]: b is reachable from a in one or more steps, by support powers."""
    a = A.astype(np.int64)
    power, acc = a.copy(), a > 0
    for _ in range(len(a) - 1):
        power = ((power @ a) > 0).astype(np.int64)
        acc |= power > 0
    return acc


def passage_truth(P: np.ndarray, i: int, j: int, horizon: int) -> Passage:
    A = P > 0
    taboo = A.copy()
    taboo[j, :] = False              # a passage ends on reaching the target
    via = _reach(taboo)
    first = A[i].copy()
    first[j] = False
    visited = first | (first[:, None] & via).any(axis=0)
    if i != j:
        visited[i] = True
    visited[j] = False
    idx = np.flatnonzero(visited)
    finite = bool(_reach(A)[idx, j].all())
    quarters = None
    if finite:
        mu = np.zeros(0)
        if len(idx):
            mu = np.linalg.solve(np.eye(len(idx)) - P[np.ix_(idx, idx)], np.ones(len(idx)))
        if i == j:
            quarters = float(1.0 + P[j, idx] @ mu)
        else:
            quarters = float(mu[int(np.searchsorted(idx, i))])
    Pm = P.copy()
    Pm[:, j] = 0.0
    row = np.zeros(len(P))
    row[i] = 1.0
    f = np.empty(horizon)
    for n in range(horizon):
        f[n] = row @ P[:, j]
        row = row @ Pm
    return Passage(finite=finite, quarters=quarters, distribution=f)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_report(doc: dict, truth: Passage) -> list[str]:
    """A passage report document against the independent passage law."""
    errors = []
    f = np.asarray(doc["distribution"], dtype=float)
    cdf = np.asarray(doc["cdf"], dtype=float)
    surv = np.asarray(doc["survival"], dtype=float)
    h = len(truth.distribution)
    if not (doc["horizon"] == h and len(f) == len(cdf) == len(surv) == h):
        return [f"report has horizon {doc['horizon']} and {len(f)} terms, expected {h}"]
    if (f < 0).any():
        errors.append("f(n) is negative")
    if (np.diff(cdf) < 0).any():
        errors.append("cdf decreases")
    if cdf.max(initial=0.0) > 1.0 + TABLE_TOL:
        errors.append("cdf exceeds 1")
    if not np.abs(f - truth.distribution).max() <= TABLE_TOL:
        errors.append("f(n) differs from the passage recursion")
    if not (np.abs(cdf - np.cumsum(f)).max() <= TABLE_TOL
            and np.abs(surv - (1.0 - cdf)).max() <= TABLE_TOL):
        errors.append("cdf or survival inconsistent with f(n)")

    series, linear = doc["efpt"]["series"], doc["efpt"]["linear_system"]
    if series["infinite"] or linear["infinite"]:
        if series["infinite"] != linear["infinite"]:
            errors.append(
                f"routes disagree: series {'inf' if series['infinite'] else series['quarters']}, "
                f"linear {'inf' if linear['infinite'] else linear['quarters']}")
    elif not _close(series["quarters"], linear["quarters"], ROUTES_TOL):
        errors.append(f"routes disagree: series {series['quarters']!r}, linear {linear['quarters']!r}")
    if truth.finite:
        if linear["infinite"] or not _close(linear["quarters"], truth.quarters, SOLVE_TOL):
            errors.append(f"linear route {linear['quarters']!r}, solve gives {truth.quarters!r}")
    elif not linear["infinite"]:
        errors.append(f"linear route {linear['quarters']!r}, but the passage is not certain")
    verdict = doc["well_defined"]["verdict"]
    if (verdict == "well_defined") != truth.finite:
        errors.append(f"verdict {verdict} but the passage is {'finite' if truth.finite else 'infinite'}")
    return errors


def check_reference(doc: dict, reference_years: float) -> list[str]:
    errors = []
    for route in ("series", "linear_system"):
        r = doc["efpt"][route]
        if r["infinite"] or abs(r["years"] - reference_years) > REFERENCE_TOL * reference_years:
            errors.append(f"{route} EFPT {r['years']!r} years, published {reference_years}")
    return errors


def shows_slow_fs_fault(doc: dict, truth: Passage) -> bool:
    """The report is wrong exactly as the series fault makes it, and in no other way.

    On a slow but finite passage the series route gives up (infinite) and the
    verdict says ``suspect``, while the linear route stays finite. Put right
    those two fields and every other check on the report must pass.
    """
    series, linear = doc["efpt"]["series"], doc["efpt"]["linear_system"]
    if not (truth.finite and series["infinite"] and not linear["infinite"]
            and doc["well_defined"]["verdict"] == "suspect"):
        return False
    mended = {**doc, "efpt": {"series": dict(linear), "linear_system": linear},
              "well_defined": {**doc["well_defined"], "verdict": "well_defined"}}
    return check_report(mended, truth) == []


def report_from_csv(text: str) -> dict:
    """The parts of a report document that its CSV rendering carries."""
    meta, rows = _csv_body(text)
    if rows[:1] != [["n", "f", "cdf", "survival"]]:
        raise ValueError("not a passage report CSV")
    body = np.array([[float(v) for v in r] for r in rows[1:]]).reshape(-1, 4)

    def route(value):
        if value == "inf":
            return {"infinite": True, "quarters": None, "years": None}
        return {"infinite": False, "quarters": float(value), "years": float(value) / 4.0}

    return {
        "horizon": len(body),
        "distribution": body[:, 1].tolist(),
        "cdf": body[:, 2].tolist(),
        "survival": body[:, 3].tolist(),
        "well_defined": {"verdict": meta.get("verdict")},
        "efpt": {"series": route(meta.get("efpt_series_quarters")),
                 "linear_system": route(meta.get("efpt_linear_quarters"))},
    }


def check_same_report(a: dict, b: dict) -> list[str]:
    """Two renderings of one report must carry identical numbers."""
    errors = []
    if a["well_defined"]["verdict"] != b["well_defined"]["verdict"]:
        errors.append(f"verdicts differ: {a['well_defined']['verdict']} and {b['well_defined']['verdict']}")
    for route in ("series", "linear_system"):
        ra, rb = a["efpt"][route], b["efpt"][route]
        if (ra["infinite"], ra["quarters"]) != (rb["infinite"], rb["quarters"]):
            errors.append(f"{route} EFPT differs: {ra['quarters']!r} and {rb['quarters']!r}")
    for key in ("distribution", "cdf", "survival"):
        if [float(v) for v in a[key]] != [float(v) for v in b[key]]:
            errors.append(f"{key} differs between renderings")
    return errors


def check_report_pretty(text: str, truth: Passage) -> list[str]:
    """The aligned text report: verdict and both EFPT lines at four decimals."""
    lines = text.splitlines()
    verdict = next((ln.split()[1] for ln in lines if ln.startswith("verdict:")), None)
    errors = []
    if (verdict == "well_defined") != truth.finite:
        errors.append(f"pretty verdict {verdict} but the passage is "
                      f"{'finite' if truth.finite else 'infinite'}")
    for label in ("EFPT (series):", "EFPT (linear system):"):
        line = next((ln for ln in lines if ln.startswith(label)), "")
        value = line[len(label):].split()[:1]
        if not truth.finite:
            ok = value == ["infinite"]
        else:
            try:
                ok = abs(float(value[0]) - truth.quarters) <= 5e-5 + ROUTES_TOL * truth.quarters
            except (IndexError, ValueError):
                ok = False
        if not ok:
            errors.append(f"pretty line {line!r}, solve gives {truth.quarters!r}")
    return errors


# ----------------------------------------------------------- pretty text

def check_matrix_pretty(text: str, flows: np.ndarray, policy: str = "uniform") -> list[str]:
    entries, _, fallback = expected_matrix(flows, policy)
    lines = [ln.split() for ln in text.splitlines()]
    body = [ln for ln in lines if ln and ln[0].rstrip("*") in STATES and len(ln) == K + 1]
    want = [[STATES[i] + ("*" if i in fallback else ""), *(f"{v:.2f}" for v in entries[i])]
            for i in range(K)]
    return [] if body == want else ["pretty matrix differs from the tabulation at two decimals"]


def check_shares_pretty(text: str, flows: np.ndarray, counts: np.ndarray) -> list[str]:
    w = flows.sum(axis=1)
    want = [[s, f"{v:.4f}", f"(n={n})"] for s, v, n in zip(STATES, w / w.sum(), counts.tolist())]
    got = [ln.split() for ln in text.splitlines() if ln.split()[:1] and ln.split()[0] in STATES]
    return [] if got == want else ["pretty shares differ from the tabulation at four decimals"]


# ------------------------------------------------------------ simulation

def tabulate_pair_csv(path) -> tuple[np.ndarray, int]:
    """Weighted (from, to) flows of a pair_rows file, pooled over quarters."""
    index = {s: n for n, s in enumerate(STATES)}
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    a = np.array([index[r[3]] for r in rows])
    b = np.array([index[r[4]] for r in rows])
    w = np.array([float(r[9]) for r in rows])
    return np.bincount(a * K + b, weights=w, minlength=K * K).reshape(K, K), len(rows)


def check_round_trip(flows: np.ndarray, truth: np.ndarray, tol: float = 0.01) -> list[str]:
    est, _, _ = expected_matrix(flows)
    gap = float(np.abs(est - truth).max())
    return [] if gap <= tol else [f"re-estimated chain is {gap:.4f} from the truth (limit {tol})"]
