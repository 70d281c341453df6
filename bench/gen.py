"""Seeded input generator for the benchmark.

Uses numpy only and shares no code with lmflows, so the inputs stay fixed
when the package's own simulator changes. A panel is simulated person by
person under the 2-in/2-out/2-in rotation, then rendered either as a
pair_rows file (one line per linked pair) or as a wave_rows file (one line
per interview). Both renderings inject dirty lines at recorded line numbers;
the wave rendering also injects duplicate interviews. Each generated input
carries the true weighted flows that the checks compare against.
"""

import dataclasses

import numpy as np

STATES = ("SE", "TE", "PE", "U", "NLFET", "EDU", "FS")
K = len(STATES)
START_YEAR = 2019
N_QUARTERS = 8
ROTATION = (0, 1, 4, 5)
SEXES = ("M", "F")
REGIONS = ("NORTH", "CENTRE", "SOUTH")

# The chain that drives the simulated panel. FS is entered rarely and never
# held, so some grid cells see no FS departures (an imputed fallback row)
# while every estimated chain stays free of traps.
TRUTH = np.array(
    [
        [0.80, 0.04, 0.03, 0.03, 0.03, 0.069, 0.001],
        [0.01, 0.78, 0.07, 0.05, 0.04, 0.049, 0.001],
        [0.01, 0.03, 0.90, 0.02, 0.02, 0.019, 0.001],
        [0.02, 0.14, 0.03, 0.42, 0.28, 0.109, 0.001],
        [0.02, 0.10, 0.03, 0.20, 0.56, 0.089, 0.001],
        [0.01, 0.05, 0.02, 0.03, 0.03, 0.86, 0.000],
        [0.02, 0.20, 0.60, 0.10, 0.05, 0.03, 0.000],
    ]
)
INITIAL_SHARES = np.array([0.04, 0.18, 0.22, 0.10, 0.10, 0.3595, 0.0005])

# Per-quarter weight, with the wave's two-decimal survey weight: lognormal
# around 650, the order of magnitude of national expansion factors.
_WEIGHT_MU, _WEIGHT_SIGMA = 6.5, 0.4


# Quarter index q (0 = 2019.1) rendered as YYYY.Q.
QUARTER_TEXT = tuple(f"{(START_YEAR * 4 + q) // 4}.{q % 4 + 1}" for q in range(N_QUARTERS + 4))


@dataclasses.dataclass
class Panel:
    """One simulated panel: per-person attributes and states by rotation offset."""

    entry: np.ndarray    # first interview quarter index
    age: np.ndarray      # frozen at entry
    sex: np.ndarray      # index into SEXES
    citizen: np.ndarray  # 0/1
    region: np.ndarray   # index into REGIONS
    states: np.ndarray   # (n, 6): state index at entry + 0..5
    weights: np.ndarray  # (n, 6): survey weight at entry + 0..5

    def __len__(self) -> int:
        return len(self.entry)


def simulate(rng: np.random.Generator, n_people: int, ages=(15, 34)) -> Panel:
    """Draw ``n_people`` respondents with ages uniform on ``ages`` (inclusive)."""
    entry = rng.integers(0, N_QUARTERS - 1, size=n_people)
    age = rng.integers(ages[0], ages[1] + 1, size=n_people)
    sex = rng.integers(0, 2, size=n_people)
    citizen = (rng.random(n_people) < 0.9).astype(np.int64)
    region = rng.choice(3, size=n_people, p=(0.45, 0.20, 0.35))
    steps = max(ROTATION) + 1
    states = np.empty((n_people, steps), dtype=np.int64)
    states[:, 0] = np.searchsorted(np.cumsum(INITIAL_SHARES), rng.random(n_people), side="right")
    cum = np.cumsum(TRUTH, axis=1)
    for t in range(1, steps):
        u = rng.random(n_people)
        states[:, t] = (cum[states[:, t - 1]] <= u[:, None]).sum(axis=1)
    np.minimum(states, K - 1, out=states)
    weights = np.round(rng.lognormal(_WEIGHT_MU, _WEIGHT_SIGMA, size=(n_people, steps)), 2)
    return Panel(entry, age, sex, citizen, region, states, weights)


@dataclasses.dataclass
class Pairs:
    """Linked pairs as columns, in (person, quarter) order."""

    person: np.ndarray
    quarter: np.ndarray  # departure quarter index
    s_from: np.ndarray
    s_to: np.ndarray
    age: np.ndarray
    sex: np.ndarray
    citizen: np.ndarray
    region: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return len(self.person)

    def select(self, mask) -> "Pairs":
        return Pairs(*(getattr(self, f.name)[mask] for f in dataclasses.fields(self)))


def panel_pairs(panel: Panel) -> Pairs:
    """Every pair the rotation yields inside the window, sorted by person then quarter."""
    parts = []
    for lo in (0, 4):
        person = np.flatnonzero(panel.entry + lo + 1 < N_QUARTERS)
        parts.append((person, np.full(len(person), lo)))
    person = np.concatenate([p for p, _ in parts])
    lo = np.concatenate([o for _, o in parts])
    order = np.lexsort((lo, person))
    person, lo = person[order], lo[order]
    return Pairs(
        person=person,
        quarter=panel.entry[person] + lo,
        s_from=panel.states[person, lo],
        s_to=panel.states[person, lo + 1],
        age=panel.age[person],
        sex=panel.sex[person],
        citizen=panel.citizen[person],
        region=panel.region[person],
        weight=panel.weights[person, lo],
    )


def pair_keys(pairs: Pairs, pid_width: int):
    """Comparison keys, one per pair, in the form the checks compare, one at a time."""
    for p, q, a, b, g, s, c, r, w in zip(
        pairs.person.tolist(), pairs.quarter.tolist(), pairs.s_from.tolist(),
        pairs.s_to.tolist(), pairs.age.tolist(), pairs.sex.tolist(),
        pairs.citizen.tolist(), pairs.region.tolist(), pairs.weight.tolist(),
    ):
        yield (f"P{p:0{pid_width}d}", QUARTER_TEXT[q], QUARTER_TEXT[q + 1], STATES[a], STATES[b],
               int(g), SEXES[s], int(c), REGIONS[r], float(w))


def flows_by(pairs: Pairs, key: np.ndarray, n_keys: int) -> np.ndarray:
    """Weighted (key, from, to) flows, shape (n_keys, K, K), by np.bincount."""
    flat = (key * K + pairs.s_from) * K + pairs.s_to
    out = np.bincount(flat, weights=pairs.weight, minlength=n_keys * K * K)
    return out.reshape(n_keys, K, K)


def counts_by(pairs: Pairs, key: np.ndarray, n_keys: int) -> np.ndarray:
    """Unweighted (key, from) counts, shape (n_keys, K)."""
    flat = key * K + pairs.s_from
    return np.bincount(flat, minlength=n_keys * K).reshape(n_keys, K)


def band_of(age: np.ndarray) -> np.ndarray:
    return (np.asarray(age) - 15) // 5


# ------------------------------------------------------------------- dirt

PAIR_DIRT = ("field_count", "bad_quarter", "not_adjacent", "bad_weight", "unknown_state", "age_out")
WAVE_DIRT = ("field_count", "bad_quarter", "bad_weight", "unknown_state")


def _dirty_pair_line(kind: str, i: int, rng: np.random.Generator) -> str:
    q = int(rng.integers(0, N_QUARTERS - 1))
    qf, qt = QUARTER_TEXT[q], QUARTER_TEXT[q + 1]
    a, b = STATES[int(rng.integers(0, K))], STATES[int(rng.integers(0, K))]
    age, weight = int(rng.integers(15, 35)), "512.25"
    pid = f"Z{i:07d}"
    if kind == "field_count":
        return f"{pid},{qf},{qt},{a},{b},{age},F,1,NORTH"
    if kind == "bad_quarter":
        return f"{pid},{qf[:4]}Q{qf[-1]},{qt},{a},{b},{age},M,1,SOUTH,{weight}"
    if kind == "not_adjacent":
        return f"{pid},{qf},{QUARTER_TEXT[q + 2]},{a},{b},{age},F,0,CENTRE,{weight}"
    if kind == "bad_weight":
        bad = ("-3.5", "0", "n/a", "nan")[i % 4]
        return f"{pid},{qf},{qt},{a},{b},{age},M,1,NORTH,{bad}"
    if kind == "unknown_state":
        return f"{pid},{qf},{qt},{a},EMP,{age},F,1,SOUTH,{weight}"
    if kind == "age_out":
        age = int(rng.choice((12, 13, 14, 35, 41, 58)))
        return f"{pid},{qf},{qt},{a},{b},{age},M,0,NORTH,{weight}"
    raise ValueError(kind)


def _dirty_wave_line(kind: str, i: int, rng: np.random.Generator) -> str:
    q = QUARTER_TEXT[int(rng.integers(0, N_QUARTERS))]
    a = STATES[int(rng.integers(0, K))]
    age = int(rng.integers(15, 35))
    pid = f"Z{i:07d}"
    if kind == "field_count":
        return f"{pid},{q},{a},{age},F,1,NORTH,512.25,extra"
    if kind == "bad_quarter":
        return f"{pid},{q[:4]}.5,{a},{age},M,1,SOUTH,512.25"
    if kind == "bad_weight":
        bad = ("-3.5", "0", "n/a", "inf")[i % 4]
        return f"{pid},{q},{a},{age},M,1,NORTH,{bad}"
    if kind == "unknown_state":
        return f"{pid},{q},WORK,{age},F,0,CENTRE,512.25"
    raise ValueError(kind)


def _interleave(rng, clean: list[str], extra: list[str]):
    """Insert ``extra`` lines at random places; return (lines, line numbers of extras).

    Line numbers count the header as line 1, as the csv reader does.
    """
    n = len(clean) + len(extra)
    slots = np.sort(rng.choice(n, size=len(extra), replace=False))
    is_extra = np.zeros(n, dtype=bool)
    is_extra[slots] = True
    lines = np.empty(n, dtype=object)
    lines[is_extra] = extra
    lines[~is_extra] = clean
    return lines.tolist(), slots + 2, np.flatnonzero(~is_extra) + 2


def _write(path, header: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(lines))
        fh.write("\n")


# ------------------------------------------------------------- pair files

PAIR_HEADER = "person_id,quarter_from,quarter_to,state_from,state_to,age,sex,citizen,region,weight"
WAVE_HEADER = "person_id,quarter,state,age,sex,citizen,region,weight"


@dataclasses.dataclass
class PairFile:
    """A written pair_rows file and what parsing it must give."""

    path: str
    n_lines: int               # data lines
    pairs: Pairs               # the clean pairs, in file order
    rejected_lines: list[int]  # injected malformed lines
    n_age_out: int             # injected out-of-scope lines
    pid_width: int


def write_pair_file(path, seed: int, n_people: int, dirt_share: float = 0.01) -> PairFile:
    """Simulate ``n_people`` and write their pairs plus injected dirty lines."""
    rng = np.random.default_rng(seed)
    pairs = panel_pairs(simulate(rng, n_people))
    width = len(str(n_people - 1))
    clean = [
        f"P{p:0{width}d},{QUARTER_TEXT[q]},{QUARTER_TEXT[q + 1]},{STATES[a]},{STATES[b]},"
        f"{g},{SEXES[s]},{c},{REGIONS[r]},{w!r}"
        for p, q, a, b, g, s, c, r, w in zip(
            pairs.person.tolist(), pairs.quarter.tolist(), pairs.s_from.tolist(),
            pairs.s_to.tolist(), pairs.age.tolist(), pairs.sex.tolist(),
            pairs.citizen.tolist(), pairs.region.tolist(), pairs.weight.tolist(),
        )
    ]
    n_dirty = max(len(PAIR_DIRT), round(dirt_share * len(clean)))
    kinds = [PAIR_DIRT[i % len(PAIR_DIRT)] for i in range(n_dirty)]
    extra = [_dirty_pair_line(kind, i, rng) for i, kind in enumerate(kinds)]
    lines, extra_lines, _ = _interleave(rng, clean, extra)
    _write(path, PAIR_HEADER, lines)
    rejected = sorted(int(n) for n, kind in zip(extra_lines, kinds) if kind != "age_out")
    return PairFile(
        path=str(path), n_lines=len(lines), pairs=pairs, rejected_lines=rejected,
        n_age_out=kinds.count("age_out"), pid_width=width,
    )


# ------------------------------------------------------------- wave files

@dataclasses.dataclass
class WaveFile:
    """A written wave_rows file and what parsing and linking it must give."""

    path: str
    n_lines: int
    pairs: Pairs               # linked in-scope pairs, sorted by (person, quarter)
    rejected_lines: list[int]  # malformed lines plus rejected duplicates
    n_age_out: int             # linked pairs whose first-wave age is out of scope
    pid_width: int


def write_wave_file(
    path, seed: int, n_people: int, dirt_share: float = 0.01,
    agree_share: float = 0.01, conflict_share: float = 0.005, out_of_scope_share: float = 0.02,
) -> WaveFile:
    """Simulate ``n_people`` and write one line per interview, with dirt and duplicates."""
    rng = np.random.default_rng(seed)
    n_out = round(out_of_scope_share * n_people)
    inside = simulate(rng, n_people - n_out)
    outside = simulate(rng, n_out, ages=(35, 44))
    panel = Panel(*(np.concatenate([getattr(inside, f.name), getattr(outside, f.name)])
                    for f in dataclasses.fields(Panel)))
    order = rng.permutation(len(panel))  # scatter out-of-scope people among ids
    panel = Panel(*(getattr(panel, f.name)[order] for f in dataclasses.fields(Panel)))
    width = len(str(n_people - 1))

    # Interviews inside the window: (person, offset index into ROTATION).
    person, off = [], []
    for o in ROTATION:
        p = np.flatnonzero(panel.entry + o < N_QUARTERS)
        person.append(p)
        off.append(np.full(len(p), o))
    person, off = np.concatenate(person), np.concatenate(off)
    quarter = panel.entry[person] + off
    state = panel.states[person, off]

    ages, sexes, citizens = panel.age.tolist(), panel.sex.tolist(), panel.citizen.tolist()
    regions, weights = panel.region.tolist(), panel.weights.tolist()

    def wave_line(p, q, s, o):
        return (f"P{p:0{width}d},{QUARTER_TEXT[q]},{STATES[s]},{ages[p]},{SEXES[sexes[p]]},"
                f"{citizens[p]},{REGIONS[regions[p]]},{weights[p][o]!r}")

    clean = [wave_line(p, q, s, o) for p, q, s, o in
             zip(person.tolist(), quarter.tolist(), state.tolist(), off.tolist())]

    n_agree = round(agree_share * len(clean))
    n_conflict = round(conflict_share * len(clean))
    picked = rng.choice(len(clean), size=n_agree + n_conflict, replace=False)
    agree, conflict = picked[:n_agree], picked[n_agree:]
    shift = rng.integers(1, K, size=n_conflict)
    extra = [clean[i] for i in agree.tolist()]
    extra += [wave_line(int(person[i]), int(quarter[i]), int((state[i] + d) % K), int(off[i]))
              for i, d in zip(conflict.tolist(), shift.tolist())]
    n_dirty = max(len(WAVE_DIRT), round(dirt_share * len(clean)))
    kinds = [WAVE_DIRT[i % len(WAVE_DIRT)] for i in range(n_dirty)]
    extra += [_dirty_wave_line(kind, i, rng) for i, kind in enumerate(kinds)]

    lines, extra_lines, clean_lines = _interleave(rng, clean, extra)
    _write(path, WAVE_HEADER, lines)

    dup_lines = extra_lines[: n_agree + n_conflict]
    rejected = set(extra_lines[n_agree + n_conflict:].tolist())
    # An agreeing copy loses to whichever of the two lines comes first.
    rejected.update(np.maximum(clean_lines[agree], dup_lines[:n_agree]).tolist())
    # A conflicting key loses both lines, and the interview drops out of linkage.
    rejected.update(clean_lines[conflict].tolist())
    rejected.update(dup_lines[n_agree:].tolist())

    keep = np.ones(len(person), dtype=bool)
    keep[conflict] = False
    pairs = link(panel, person[keep], quarter[keep], off[keep])
    in_scope = (pairs.age >= 15) & (pairs.age <= 34)
    return WaveFile(
        path=str(path), n_lines=len(lines), pairs=pairs.select(in_scope),
        rejected_lines=sorted(int(n) for n in rejected),
        n_age_out=int((~in_scope).sum()), pid_width=width,
    )


def link(panel: Panel, person, quarter, off) -> Pairs:
    """Pairs of a person's interviews in adjacent quarters, in (person, quarter) order."""
    order = np.lexsort((quarter, person))
    person, quarter, off = person[order], quarter[order], off[order]
    hit = (person[1:] == person[:-1]) & (quarter[1:] == quarter[:-1] + 1)
    a = np.flatnonzero(hit)
    p, o = person[a], off[a]
    return Pairs(
        person=p, quarter=quarter[a],
        s_from=panel.states[p, o], s_to=panel.states[p, off[a + 1]],
        age=panel.age[p], sex=panel.sex[p], citizen=panel.citizen[p],
        region=panel.region[p], weight=panel.weights[p, o],
    )
