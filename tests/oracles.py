"""Independent reference implementations used to check the library.

Everything here is deliberately naive: exhaustive enumeration and direct
counting, no shared code with the package beyond numpy. Slow but obviously
correct on small inputs. The one exception is ``read_panel_by_loop``, which
reads a panel file one row at a time with ``csv.reader`` and, by design,
the package's own token parsers (what each token means is theirs to say).
"""

import csv
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


def series_by_loop(P, i, j, tol, cap):
    """The passage i -> j summed one term at a time in plain Python floats.

    Steps the vector recursion F(n) = P~ F(n-1) (P with column j zeroed)
    and adds f(n) and n f(n) in order of n, while n < cap and the unpassed
    mass 1 - sum f exceeds tol. Returns (n, sum of f, sum of n f, [f(1)..f(n)]).
    """
    P = np.asarray(P, dtype=float)
    taboo = P.copy()
    taboo[:, j] = 0.0
    fvec = P[:, j].copy()
    terms = [float(fvec[i])]
    total = mean = terms[0]
    while len(terms) < cap and 1.0 - total > tol:
        fvec = taboo @ fvec
        terms.append(float(fvec[i]))
        total += terms[-1]
        mean += len(terms) * terms[-1]
    return len(terms), total, mean, terms


def _pair_values(row):
    from lmflows.panel import _parse_age, _parse_citizen, _parse_weight
    from lmflows.states import REGION_ORDER, SEX_ORDER, LaborState, MacroRegion, QuarterId, Sex

    _, q_from, q_to, s_from, s_to, age, sex, cit, region, weight = row
    quarter, quarter_to = QuarterId.parse(q_from).ordinal, QuarterId.parse(q_to).ordinal
    if quarter_to != quarter + 1:
        raise ValueError(f"quarters not adjacent ({QuarterId.from_ordinal(quarter)} -> "
                         f"{QuarterId.from_ordinal(quarter_to)})")
    return [quarter, LaborState.parse(s_from).index, LaborState.parse(s_to).index,
            _parse_age(age), SEX_ORDER.index(Sex.parse(sex)), _parse_citizen(cit),
            REGION_ORDER.index(MacroRegion.parse(region)), _parse_weight(weight)]


def _wave_values(row):
    from lmflows.panel import _parse_age, _parse_citizen, _parse_weight
    from lmflows.states import REGION_ORDER, SEX_ORDER, LaborState, MacroRegion, QuarterId, Sex

    _, quarter, state, age, sex, cit, region, weight = row
    return [QuarterId.parse(quarter).ordinal, LaborState.parse(state).index, _parse_age(age),
            SEX_ORDER.index(Sex.parse(sex)), _parse_citizen(cit),
            REGION_ORDER.index(MacroRegion.parse(region)), _parse_weight(weight)]


PAIR_COLUMNS = ("person", "quarter", "state_from", "state_to", "age", "sex", "citizen",
                "region", "weight")
WAVE_COLUMNS = ("person", "quarter", "state", "age", "sex", "citizen", "region", "weight")


def read_panel_by_loop(path):
    """A panel file read one row at a time, as plain as it gets.

    ``csv.reader`` over the UTF-8 text (opened with ``newline=""``) gives
    the rows and ``reader.line_num`` their line numbers; blank rows are
    skipped; a row ``csv.reader`` refuses for a field past its limit is
    rejected as "field longer than N characters"; then field count, then
    the token parsers in field order decide. Person ids are stripped and
    numbered in order of first appearance among admitted rows. Returns
    (layout, person_ids, {column: list of values}, line numbers of the
    admitted rows, [(line, reason)], rows read). Bytes that are not UTF-8
    raise UnicodeDecodeError.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        names = tuple(h.strip().lstrip("\ufeff") for h in header)
        pair = names[1] == "quarter_from"
        values_of, columns = (_pair_values, PAIR_COLUMNS) if pair else (_wave_values, WAVE_COLUMNS)
        person_codes, table = {}, {name: [] for name in columns}
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
            values.insert(0, person_codes.setdefault(row[0].strip(), len(person_codes)))
            for name, value in zip(columns, values):
                table[name].append(value)
            lines.append(reader.line_num)
    layout = "pair_rows" if pair else "wave_rows"
    return layout, tuple(person_codes), table, lines, rejections, n_rows
