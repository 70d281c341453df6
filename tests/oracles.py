"""Independent reference implementations used to check the library.

Everything here is deliberately naive: exhaustive enumeration and direct
counting, no shared code with the package beyond numpy. Slow but obviously
correct on small inputs. The one exception is ``read_panel_by_loop``, which
reads a panel file one row at a time with ``csv.reader`` and, by design,
the package's own token parsers (what each token means is theirs to say);
``link_by_loop`` shares the package's rejection texts. ``link_by_rank`` is
not a reference: it puts a table coded by tuple ids through the package's
linker, which reads ranks. ``write_pairs_by_csv_writer`` writes a dataset's
rows through ``csv.writer``, one list of labels per column, with the
package's state, sex and region tables and quarter labels. The pair file and
matrix oracles write each row with ``csv_row``, which quotes a lone CR as
Python 3.13's csv.writer does, on any version, so that a reader reads it back.
"""

import csv
import io
import itertools

import numpy as np


def path_sum_fpt(P, i, j, horizon):
    """First-passage probabilities by exhaustive path enumeration.

    f(n) sums the weight of every path i -> k1 -> ... -> k_{n-1} -> j whose
    interior states all differ from j. Exponential in the horizon; keep
    K <= 5 and horizon <= 7.
    """
    P = np.asarray(P, dtype=float)
    K = P.shape[0]
    interior = [k for k in range(K) if k != j]
    out = np.zeros(horizon)
    out[0] = P[i, j]
    for n in range(2, horizon + 1):
        total = 0.0
        for path in itertools.product(interior, repeat=n - 1):
            w = P[i, path[0]]
            for a, b in zip(path, path[1:]):
                if w == 0.0:
                    break
                w *= P[a, b]
            total += w * P[path[-1], j]
        out[n - 1] = total
    return out


def reachable_by_powers(P, i, j, via_at_least_one_step=True):
    """Whether j is reachable from i, by scanning powers of the support matrix."""
    A = (np.asarray(P) > 0).astype(int)
    K = A.shape[0]
    acc = A.copy()
    power = A.copy()
    for _ in range(K - 1):
        power = (power @ A > 0).astype(int)
        acc = acc | power
    if via_at_least_one_step:
        return bool(acc[i, j])
    return i == j or bool(acc[i, j])


def taboo_region(P, i, j):
    """The structural screen of the passage i -> j, by a breadth-first search per state.

    A step from a to b counts when P[a, b] > 0 and b != j. The region is
    every state such steps reach from i (i itself included), or for i == j
    from the states one step out of j. A state can reach j when some state
    such steps reach from it steps into j. ``trapped`` lists the starting
    states that cannot reach j, or if none, the region states that cannot.
    Returns (region, trapped, reachable) as sorted lists and a bool, where
    ``reachable`` says whether i can reach j.
    """
    P = np.asarray(P, dtype=float)
    K = P.shape[0]

    def visits(starts):
        seen, queue = set(starts), list(starts)
        while queue:
            a = queue.pop()
            for b in range(K):
                if b != j and P[a, b] > 0 and b not in seen:
                    seen.add(b)
                    queue.append(b)
        return seen

    def can_reach(s):
        return any(P[t, j] > 0 for t in visits([s]))

    starts = [b for b in range(K) if b != j and P[j, b] > 0] if i == j else [i]
    region = sorted(visits(starts))
    trapped = [s for s in starts if not can_reach(s)]
    if not trapped:
        trapped = [s for s in region if not can_reach(s)]
    return region, sorted(trapped), can_reach(i)


def meta_lines(items) -> str:
    """``# key=value`` lines of the items whose value is not None, a backslash, CR or LF
    in a value written as the two characters \\\\, \\r or \\n, one character at a time."""
    escape = {"\\": "\\\\", "\r": "\\r", "\n": "\\n"}
    return "".join(f"# {key}=" + "".join(escape.get(c, c) for c in str(value)) + "\n"
                   for key, value in items if value is not None)


def report_csv_by_writer(doc) -> str:
    """A passage report as CSV, one ``csv.writer`` row per horizon n, each float as ``repr``."""
    def fmt(x):
        return repr(float(x))

    series = doc["efpt"]["series"]
    linear = doc["efpt"]["linear_system"]
    meta = (
        ("source", doc["source"]),
        ("target", doc["target"]),
        ("from_quarter", doc["from_quarter"]),
        ("to_quarter", doc["to_quarter"]),
        ("verdict", doc["well_defined"]["verdict"]),
        ("efpt_series_quarters", "inf" if series["infinite"] else fmt(series["quarters"])),
        ("efpt_linear_quarters", "inf" if linear["infinite"] else fmt(linear["quarters"])),
        ("trapped_states",
         ";".join(linear["trapped_states"]) if linear["trapped_states"] else None),
    )
    buf = io.StringIO()
    buf.write(meta_lines(meta))
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n", "f", "cdf", "survival"])
    for k in range(doc["horizon"]):
        w.writerow(
            [k + 1, fmt(doc["distribution"][k]), fmt(doc["cdf"][k]), fmt(doc["survival"][k])]
        )
    return buf.getvalue()


def matrix_csv_by_writer(m) -> str:
    """A TransitionMatrix as CSV, one ``csv.writer`` row per state, each float as ``repr``."""
    def fmt(x):
        return repr(float(x))

    meta = (
        ("from_quarter", str(m.from_quarter) if m.from_quarter is not None else None),
        ("to_quarter", str(m.to_quarter) if m.to_quarter is not None else None),
        ("cohort", m.cohort.describe() if m.cohort is not None else None),
        ("provenance", m.provenance or None),
    )
    rows = [["state", *m.states, "row_count", "fallback"]]
    for i, name in enumerate(m.states):
        count = "" if m.row_counts is None else fmt(m.row_counts[i])
        rows.append([name, *(fmt(v) for v in m.entries[i]), count, int(i in m.fallback_rows)])
    return meta_lines(meta) + "".join(map(csv_row, rows))


def shares_csv_by_writer(table) -> str:
    """A StateShareTable as CSV, one ``csv.writer`` row per state, each float as ``repr``."""
    meta = (("quarter", str(table.quarter)), ("cohort", table.cohort.describe()),
            ("total_weight", repr(float(table.total_weight))))
    buf = io.StringIO()
    buf.write(meta_lines(meta))
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["state", "share", "n_obs"])
    for s, share in table.shares.items():
        w.writerow([s.name, repr(float(share)), int(table.n_obs[s])])
    return buf.getvalue()


def cohort_matches(cohort, demo) -> bool:
    """Whether the Demographics ``demo`` fall in ``cohort``: each field the filter sets agrees."""
    if cohort.age_band is not None and not cohort.age_band.contains(demo.age_at_first_wave):
        return False
    if cohort.sex is not None and demo.sex is not cohort.sex:
        return False
    if cohort.citizen is not None and demo.italian_citizen != cohort.citizen:
        return False
    if cohort.region is not None and demo.macro_region is not cohort.region:
        return False
    return True


def tabulate_transitions(rows):
    """Row-conditional frequencies by direct counting.

    ``rows`` is an iterable of (state_from_index, state_to_index, weight)
    over a fixed 7-state space. Returns (matrix, row_weights) with uniform
    rows where nothing departs.
    """
    flows = np.zeros((7, 7))
    for i, j, w in rows:
        flows[i, j] += w
    row_w = flows.sum(axis=1)
    out = np.full((7, 7), 1.0 / 7)
    for i in range(7):
        if row_w[i] > 0:
            out[i] = flows[i] / row_w[i]
    return out, row_w


def geometric_fpt(q, horizon):
    """Closed-form passage law for a 2-state chain that fires with rate q."""
    n = np.arange(1, horizon + 1)
    return q * (1.0 - q) ** (n - 1)


def series_by_loop(P, i, j, epsilon, cap):
    """The passage i -> j summed one term at a time in plain Python floats, stopped by its tail bound.

    Steps the vector recursion F(n) = P~ F(n-1) (P with column j zeroed)
    and adds f(n) and n f(n) in order of n. The bound reads F on the
    passage's region B (``taboo_region``, with j added for a return time),
    where F(n+1) = Q F(n) for Q = P~ on B. With m = |B|, theta the largest
    absolute row sum of Q^m (by ``np.linalg.matrix_power``), C1 = m/(1-theta)
    and C2 = m^2 theta/(1-theta)^2 + m(m-1)/(2(1-theta)), the mass left past
    n is at most C1 max|F_B(n)| and the rest of the mean at most
    (n C1 + C2) max|F_B(n)|. Stops at the first n <= cap where the mean's
    bound is at most epsilon times the sum of n f and the mass's at most
    1e-6, or at cap. A passage with trapped states, or with theta = 1 in
    floating point, has no bound.
    Returns (n, sum of f, sum of n f, whether the bound was met, [f(1)..f(n)]).
    """
    P = np.asarray(P, dtype=float)
    taboo = P.copy()
    taboo[:, j] = 0.0
    region, trapped, _ = taboo_region(P, i, j)
    bound = sorted(set(region) | {j}) if i == j else region
    c1 = c2 = None
    if not trapped:
        m = len(bound)
        power = np.linalg.matrix_power(taboo[np.ix_(bound, bound)], m)
        theta = max(sum(abs(float(v)) for v in row) for row in power)
        if theta < 1.0:
            c1 = m / (1.0 - theta)
            c2 = m * m * theta / (1.0 - theta) ** 2 + m * (m - 1) / (2.0 * (1.0 - theta))
    fvec = P[:, j].copy()
    terms, total, mean = [], 0.0, 0.0
    while True:
        terms.append(float(fvec[i]))
        n = len(terms)
        total = terms[0] if n == 1 else total + terms[-1]
        mean = terms[0] if n == 1 else mean + n * terms[-1]
        met = False
        if c1 is not None:
            top = max(abs(float(fvec[s])) for s in bound)
            met = c1 * top <= 1e-6 and (n * c1 + c2) * top <= epsilon * mean
        if met or n >= cap:
            return n, total, mean, met, terms
        fvec = taboo @ fvec


def _weight(text):
    """A weight token by the documented grammar, read without a regular expression.

    Blank is 1.0. Otherwise, stripped of surrounding whitespace, it must be
    ASCII digits with at most one point and at least one digit, optionally
    followed by ``e`` or ``E``, a sign and ASCII digits, and be positive and
    finite. The reasons are the row parser's: text ``float()`` refuses is
    invalid, a value that is not positive and finite is nonpositive, and
    any other text outside the grammar is invalid.
    """
    raw = text.strip()
    if raw == "":
        return 1.0
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"invalid weight {text!r}") from None
    if not 0 < value < float("inf"):
        raise ValueError(f"nonpositive weight {raw}")
    digits = set("0123456789")
    mantissa, e, exponent = raw.lower().partition("e")
    whole, _, fraction = mantissa.partition(".")
    if exponent[:1] in ("+", "-"):
        exponent = exponent[1:]
    if not (whole + fraction and set(whole + fraction) <= digits
            and set(exponent) <= digits and (exponent or not e)):
        raise ValueError(f"invalid weight {text!r}")
    return value


def _pair_values(row):
    from lmflows.panel import _parse_age, _parse_citizen
    from lmflows.states import REGION_ORDER, SEX_ORDER, LaborState, MacroRegion, QuarterId, Sex

    _, q_from, q_to, s_from, s_to, age, sex, cit, region, weight = row
    quarter, quarter_to = QuarterId.parse(q_from).ordinal, QuarterId.parse(q_to).ordinal
    if quarter_to != quarter + 1:
        raise ValueError(f"quarters not adjacent ({QuarterId.from_ordinal(quarter)} -> "
                         f"{QuarterId.from_ordinal(quarter_to)})")
    return [quarter, LaborState.parse(s_from).index, LaborState.parse(s_to).index,
            _parse_age(age), SEX_ORDER.index(Sex.parse(sex)), _parse_citizen(cit),
            REGION_ORDER.index(MacroRegion.parse(region)), _weight(weight)]


def _wave_values(row):
    from lmflows.panel import _parse_age, _parse_citizen
    from lmflows.states import REGION_ORDER, SEX_ORDER, LaborState, MacroRegion, QuarterId, Sex

    _, quarter, state, age, sex, cit, region, weight = row
    return [QuarterId.parse(quarter).ordinal, LaborState.parse(state).index, _parse_age(age),
            SEX_ORDER.index(Sex.parse(sex)), _parse_citizen(cit),
            REGION_ORDER.index(MacroRegion.parse(region)), _weight(weight)]


PAIR_COLUMNS = ("person", "quarter", "state_from", "state_to", "age", "sex", "citizen",
                "region", "weight")
WAVE_COLUMNS = ("person", "quarter", "state", "age", "sex", "citizen", "region", "weight")


def read_panel_by_loop(path):
    """A panel file read one row at a time, as plain as it gets.

    ``csv.reader`` over the UTF-8 text (opened as ``utf-8-sig``, so a byte
    order mark before the header is dropped, with ``newline=""``) gives
    the rows and ``reader.line_num`` their line numbers; blank rows are
    skipped; a row ``csv.reader`` refuses for a field past its limit is
    rejected as "field longer than N characters"; then field count, then
    the token parsers in field order decide (the weight's is ``_weight``).
    Person ids are stripped, and the distinct ids of admitted rows numbered
    in sorted (code-point) order. Returns
    (layout, person_ids, {column: list of values}, line numbers of the
    admitted rows, [(line, reason)], rows read). Bytes that are not UTF-8
    raise UnicodeDecodeError.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        names = tuple(h.strip() for h in header)
        pair = names[1] == "quarter_from"
        values_of, columns = (_pair_values, PAIR_COLUMNS) if pair else (_wave_values, WAVE_COLUMNS)
        table = {name: [] for name in columns}
        lines, rejections, n_rows = [], [], 0
        while True:
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error:
                n_rows += 1
                rejections.append((reader.line_num,
                                   f"field longer than {csv.field_size_limit()} characters"))
                continue
            if not row:
                continue
            n_rows += 1
            if len(row) != len(header):
                rejections.append((reader.line_num,
                                   f"wrong field count (expected {len(header)}, got {len(row)})"))
                continue
            try:
                values = values_of(row)
            except ValueError as exc:
                rejections.append((reader.line_num, str(exc)))
                continue
            values.insert(0, row[0].strip())
            for name, value in zip(columns, values):
                table[name].append(value)
            lines.append(reader.line_num)
    person_ids = tuple(sorted(set(table["person"])))
    code = {person_id: i for i, person_id in enumerate(person_ids)}
    table["person"] = [code[person_id] for person_id in table["person"]]
    layout = "pair_rows" if pair else "wave_rows"
    return layout, person_ids, table, lines, rejections, n_rows


def link_by_loop(waves, person_ids, lines):
    """A wave table screened for duplicate interviews and linked into pairs, with a dict and a loop.

    ``waves`` maps each name of WAVE_COLUMNS to a list, one entry per
    interview, ``person`` coding into ``person_ids``; row i was read from
    line ``lines[i]``. A (person, quarter) key held by rows of two or more
    states rejects all of them; rows of one key that agree keep the one of
    the lowest line and reject the others as its duplicates. A kept row
    whose person also has a kept row a quarter later makes a pair, with the
    earlier row's demographics and weight. Returns ({PAIR_COLUMNS name:
    list}, [(line, reason)]): the pairs ordered by person id then quarter,
    the rejections by line.
    """
    from lmflows.states import QuarterId

    rows_of = {}
    for i, key in enumerate(zip(waves["person"], waves["quarter"])):
        rows_of.setdefault(key, []).append(i)
    kept, rejections = {}, []
    for (person, quarter), rows in rows_of.items():
        rows.sort(key=lambda i: lines[i])
        key = f"person {person_ids[person]!r} at {QuarterId.from_ordinal(quarter)}"
        if len({waves["state"][i] for i in rows}) > 1:
            rejections += [(lines[i], f"conflicting duplicate states for {key}") for i in rows]
            continue
        kept[person, quarter] = rows[0]
        rejections += [(lines[i], f"duplicate of line {lines[rows[0]]} ({key})") for i in rows[1:]]

    pairs = {name: [] for name in PAIR_COLUMNS}
    for person, quarter in sorted(kept, key=lambda key: (person_ids[key[0]], key[1])):
        if (person, quarter + 1) not in kept:
            continue
        pair = {name: waves[name][kept[person, quarter]] for name in WAVE_COLUMNS}
        pair["state_from"] = pair.pop("state")
        pair["state_to"] = waves["state"][kept[person, quarter + 1]]
        for name in PAIR_COLUMNS:
            pairs[name].append(pair[name])
    return pairs, sorted(rejections)


class _RankedIds:
    """Tuple ids ranked by code point, read by ``panel.link_waves`` as it reads a
    parse's ``csvblocks.PersonTable``: its length and the ``texts`` of ranks."""

    def __init__(self, person_ids):
        self.by_rank = sorted(range(len(person_ids)), key=person_ids.__getitem__)
        self.person_ids = person_ids

    def __len__(self):
        return len(self.by_rank)

    def texts(self, ranks):
        return [self.person_ids[self.by_rank[r]] for r in ranks.tolist()]


def link_by_rank(waves, person_ids, lines):
    """``panel.link_waves`` on a wave table whose ``person`` codes into the tuple ``person_ids``.

    The ids are ranked by code point, the linker given each row's rank, and
    the pairs' ranks mapped back to codes. Returns ({PAIR_COLUMNS name:
    array}, [(line, reason)]).
    """
    from lmflows import panel

    ranked = _RankedIds(person_ids)
    rank = np.empty(len(ranked), dtype=np.int64)
    rank[ranked.by_rank] = np.arange(len(ranked))
    columns = {**waves, "person": rank[waves["person"]]}
    pairs, rejections = panel.link_waves(columns, ranked, np.asarray(lines))
    pairs["person"] = np.array(ranked.by_rank, dtype=np.int64)[pairs["person"]]
    return pairs, rejections


def csv_row(fields) -> str:
    """A row as ``csv.writer`` writes it (QUOTE_MINIMAL), ended by ``\\n``.

    Written with ``\\r\\n`` line ends and the CR dropped: csv.writer before
    Python 3.13 quotes a lone CR only when its line end holds one.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(fields)
    return buf.getvalue()[:-2] + "\n"


def write_pairs_by_csv_writer(dataset, path):
    """A dataset in the pair_rows layout, each row written by ``csv.writer``.

    Ages as ints, citizen as 0/1 and weights as ``repr``, a column's labels
    picked per row from a list of the labels of its codes.
    """
    from lmflows.panel import PAIR_HEADER
    from lmflows.states import REGION_ORDER, SEX_ORDER, STATE_ORDER, QuarterId

    def labels(codes, texts):
        return np.array(texts, dtype=object)[codes].tolist()

    quarters, quarter_index = np.unique(dataset.quarter, return_inverse=True)
    state_names = [s.name for s in STATE_ORDER]
    columns = (
        labels(dataset.person, dataset.person_ids),
        labels(quarter_index, [str(QuarterId.from_ordinal(q)) for q in quarters.tolist()]),
        labels(quarter_index, [str(QuarterId.from_ordinal(q + 1)) for q in quarters.tolist()]),
        labels(dataset.state_from, state_names),
        labels(dataset.state_to, state_names),
        dataset.age.tolist(),
        labels(dataset.sex, [s.name for s in SEX_ORDER]),
        dataset.citizen.astype(np.int8).tolist(),
        labels(dataset.region, [r.name for r in REGION_ORDER]),
        [repr(w) for w in dataset.weight.tolist()],
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(csv_row(PAIR_HEADER))
        fh.writelines(map(csv_row, zip(*columns)))
