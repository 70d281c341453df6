r"""First-passage-time analysis for finite row-stochastic chains.

For a chain with one-step matrix :math:`P`, the first-passage probability
from state :math:`i` to state :math:`j` at horizon :math:`n` is

.. math::

    f_{ij}(1) = p_{ij}, \qquad
    f_{ij}(n) = \sum_{k \ne j} p_{ik} \, f_{kj}(n-1), \quad n > 1,

the probability of hitting :math:`j` for the first time after exactly
:math:`n` steps. Writing :math:`\tilde P` for :math:`P` with column
:math:`j` zeroed, the vector of horizon-:math:`n` probabilities over all
sources is :math:`F(1) = P_{\cdot j}`, :math:`F(n) = \tilde P F(n-1)`,
which is how this module computes it. One engine per (chain, target) runs
that recursion for all sources at once, only as far as the furthest request
so far, and keeps what the requests read as the terms pass: f(n) through
the largest distribution horizon asked for, and for each stopping rule the
first n at which a source meets it, with the sums of f(n) and n f(n) there.
It never keeps the run of terms, so its memory is the kept rows plus a few
numbers per source and rule, whatever the term cap. It also works out once
the closure of the support of :math:`\tilde P` (which states each state can
visit before entering :math:`j`) and the states that can reach :math:`j`,
which screen every passage into :math:`j`, and it keeps the linear route's
solve of each region it is asked about. Chains are read as
``TransitionMatrix`` objects, validated when built (a bare array is
validated into one for the call), and this module keeps each matrix's
engines, so every passage on it into one target reads one shared run.
They keep rows through at most ``Passage.SHARED_HORIZON`` terms (a longer
distribution runs a private engine) and the latest ``_Engine.RULES``
stopping rules; a copy or a pickle of the matrix starts without engines.
Every public function below builds one ``Passage``, and a full report
(``serialize.build_fpt_report``) builds one for all of its parts.

The expected first passage time is :math:`\mu_{ij} = \sum_n n f_{ij}(n)`,
finite exactly when the passage probabilities sum to one. Whether they do
is decided from the chain's structure alone (Kemeny & Snell, *Finite
Markov Chains*, 1960): the passage is certain exactly when every state the
chain can visit before its first entry to :math:`j` can still reach
:math:`j`. One reachability screen over the support of :math:`P` finds the
states that cannot (the trapped states); every route reports an infinite
expectation with them at once.

For a passage the screen finds certain, two independent routes compute
the expectation and share no numbers:

* ``efpt_series`` accumulates the truncated series until the mass left in
  the tail is negligible, up to a cap on the number of terms;
* ``efpt_linear`` solves the first-step equations
  :math:`(I - Q)\mu = \mathbf 1`, where :math:`Q` is :math:`P` restricted
  to the states visited before the first entry to :math:`j`.

Agreement between the two is a cross-check on both.
"""

import collections
import dataclasses
import numbers
import threading
import weakref

import numpy as np

from .errors import InfiniteEfptError
from .estimation import TransitionMatrix
from .states import resolve_state

VERDICT_WELL_DEFINED = "well_defined"
VERDICT_SUSPECT = "suspect"
VERDICT_DIVERGENT = "divergent"

DEFAULT_EPSILON = 1e-9
DEFAULT_MAX_HORIZON = 4000

# Largest unpassed mass with which check_well_defined calls a certain passage well defined.
_MASS_OK = 1e-6

# Smallest singular value of I - Q that efpt_linear will solve with.
_SINGULAR_FLOOR = 1e-12


def _screen(engine: "_Engine", i: int, j: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Structural screen of the passage i -> j, read from j's ``engine`` closure.

    Returns (region, trapped, reachable). ``region`` holds the states the
    chain can visit before its first entry to j, starting from i, or for a
    return time (i == j) from the states one step out of j: the closure's
    rows for those states, joined. ``trapped`` holds the starting states
    from which j cannot be reached, or when there are none, the region
    states from which it cannot; the passage is certain exactly when it is
    empty. ``reachable`` says whether j can be reached from i in one or more steps.
    """
    ahead, reaches_j = engine.ahead, engine.reaches
    start = engine.support[j] if i == j else np.arange(len(ahead)) == i
    region = ahead[start].any(axis=0)
    trapped = np.flatnonzero(start & ~reaches_j)
    if not len(trapped):
        trapped = np.flatnonzero(region & ~reaches_j)
    return np.flatnonzero(region), trapped, bool(reaches_j[i])


@dataclasses.dataclass(frozen=True, eq=False)
class FptDistribution:
    """First-passage probabilities f(n), n = 1..horizon, for one (source, target)."""

    source: str
    target: str
    probabilities: np.ndarray
    horizon: int

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.shape != (self.horizon,):
            raise ValueError(f"expected {self.horizon} probabilities, got shape {probs.shape}")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)

    def cdf(self) -> np.ndarray:
        """Cumulative passage probability by horizon n, n = 1..horizon."""
        return np.cumsum(self.probabilities)

    def survival(self) -> np.ndarray:
        """Probability the target is still unvisited after n steps."""
        return 1.0 - self.cdf()


@dataclasses.dataclass(frozen=True)
class EfptResult:
    """An expected first passage time, in quarters, with its computation trail."""

    source: str
    target: str
    quarters: float
    method: str
    n_terms: int | None = None

    @property
    def efpt_years(self) -> float:
        return self.quarters / 4.0


@dataclasses.dataclass(frozen=True)
class WellDefinedness:
    """Diagnosis of whether an EFPT series is trustworthy at a horizon."""

    source: str
    target: str
    mass_at_horizon: float
    reachable: bool
    verdict: str
    horizon: int


def _term_count(value, name: str) -> int:
    """``value`` as an int >= 1; raise an error naming the argument if it is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def _series_cap(epsilon, max_horizon) -> int:
    """Check the series arguments; return ``max_horizon`` as an int."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    return _term_count(max_horizon, "max_horizon")


class _Scratch(threading.local):
    """A thread's buffers for streaming the recursion, one set per chain size.

    Shared by every engine the thread runs (an engine runs under its lock,
    on one thread at a time), so an engine keeps no block of its own.
    """

    def __init__(self):
        self.by_size = {}

    def get(self, k: int) -> tuple[np.ndarray, list, np.ndarray]:
        """(block of f rows, a view of each row, block of running sums) for k states."""
        buffers = self.by_size.get(k)
        if buffers is None:
            block = np.empty((_Engine.BLOCK + 1, k))
            buffers = self.by_size[k] = (block, list(block), np.empty((_Engine.BLOCK + 1, 2, k)))
        return buffers


_SCRATCH = _Scratch()


class _Stop:
    """What a stopping rule (tol, cap) reads, for each source the engine records.

    ``answers[s]`` is (n, sum of f, sum of n f) through the first n <= cap
    at which the unpassed mass 1 - sum f from source s is at most tol, or
    through cap if there is none. ``unmet`` lists the recorded sources the
    stream has not yet taken that far.
    """

    def __init__(self, tol: float, cap: int, unmet: list[int]):
        self.tol, self.cap, self.unmet = tol, cap, unmet
        self.answers = {}


class _Engine:
    """The taboo recursion into one target, run for every source at once.

    The terms stream through a block of rows, one ``P~.dot(F, out=...)`` a
    term, and are dropped once recorded. What is kept: f(n) for every source
    through the largest distribution horizon asked for, and what each of
    the last ``RULES`` stopping rules asked for reads (``_Stop``). Stopping
    rules are recorded for the first source asked about alone, and for
    every source once a second one is: a chain asked about one passage per
    target (each cell of a cohort grid) pays for that passage only, and a
    chain asked about many records them all in one run. The sums of f and
    n f carry over from block to block and add in order of n, as a
    term-by-term loop adds them. A request for rows, a rule or a source
    that the stream has already passed unrecorded sends it back to n = 0;
    answers recorded so far are kept. One lock guards the whole state:
    reports in several threads may share an engine. Beside the recursion,
    and never reading it, the engine holds what the screen reads (``ahead``,
    ``reaches``) and the linear route's solves by region (``solve``).
    """

    # Most terms a block of the stream holds.
    BLOCK = 256
    # Fewest terms a stopping rule adds to the stream when it needs more.
    _GROW = 128
    # Most stopping rules an engine keeps; a new one past these drops the oldest.
    RULES = 8

    def __init__(self, P: np.ndarray, j: int):
        self._taboo = P.copy()
        self._taboo[:, j] = 0.0
        self._first = P[:, j].copy()
        # What the screen reads: the support of P~, its reflexive-transitive
        # closure (Warshall), and the states that can reach j (a route ends
        # with a step into j; the steps before it avoid j).
        self.support = self._taboo > 0.0
        self.ahead = self.support | np.eye(len(P), dtype=bool)
        for k in range(len(P)):
            self.ahead |= self.ahead[:, k:k + 1] & self.ahead[k]
        self.reaches = self.ahead[:, self._first > 0.0].any(axis=1)
        # The linear route's mu by region (None where singular), never the recursion's.
        self._solves = {}
        self._rows = np.empty((0, len(P)))
        self._stops = {}
        # The sources whose stopping rules the stream records: none, one, or all.
        self._cols = slice(0, 0)
        self._lock = threading.Lock()
        self._rewind()

    def _rewind(self) -> None:
        self._n = 0
        self._last = self._first
        # Sums of f and of n f through n; -0.0 leaves the first term's bits as they are.
        self._carry = np.full((2, len(self._first)), -0.0)

    def _recorded(self) -> range:
        return range(len(self._first))[self._cols]

    def _record_source(self, i: int) -> None:
        recorded = self._recorded()
        if i in recorded:
            return
        self._cols = slice(None) if recorded else slice(i, i + 1)
        if self._n:
            self._rewind()
        for stop in self._stops.values():
            stop.unmet = [s for s in self._recorded() if s not in stop.answers]

    def _keep_rows(self, horizon: int) -> None:
        kept = len(self._rows)
        if horizon > kept:
            if self._n > kept:
                self._rewind()
            rows = np.empty((horizon, len(self._first)))
            rows[:kept] = self._rows
            self._rows = rows

    def _stop(self, tol: float, cap: int) -> _Stop:
        stop = self._stops.get((tol, cap))
        if stop is None:
            if self._n:
                self._rewind()
            if len(self._stops) >= self.RULES:
                del self._stops[next(iter(self._stops))]
            stop = self._stops[tol, cap] = _Stop(tol, cap, list(self._recorded()))
        return stop

    def _run(self, n: int) -> None:
        """Stream the recursion on to ``n`` terms, recording what the requests read."""
        if n <= self._n:
            return
        block, rows, run = _SCRATCH.get(len(self._first))
        advance, cols = self._taboo.dot, self._cols
        block[0] = self._last
        run[0] = self._carry
        while self._n < n:
            n0 = self._n
            step = min(n - n0, self.BLOCK)
            first = 0
            if n0 == 0:
                block[1] = self._first
                first = 1
            # One P~.dot(F, out) a term, driven from C: the out rows are views into the block.
            collections.deque(map(advance, rows[first:step], rows[first + 1:step + 1]), maxlen=0)
            f = block[1:step + 1]
            keep = min(step, len(self._rows) - n0)
            if keep > 0:
                self._rows[n0:n0 + keep] = f[:keep]
            # The sums are read only while a rule has an unmet source, and
            # whatever adds one (a new rule or source) rewinds the stream.
            stops = [stop for stop in self._stops.values() if stop.unmet]
            if stops:
                sums = run[:step + 1, :, cols]
                sums[1:, 0] = f[:, cols]
                np.multiply(np.arange(n0 + 1.0, n0 + step + 1.0)[:, None], f[:, cols],
                            out=sums[1:, 1])
                np.add.accumulate(sums, axis=0, out=sums)
                self._scan(n0, sums, stops)
            block[0] = block[step]
            run[0] = run[step]
            self._n = n0 + step
        self._last = block[0].copy()
        self._carry = run[0].copy()

    def _scan(self, n0: int, sums: np.ndarray, stops: list[_Stop]) -> None:
        """Record the sources that meet each of ``stops`` among the block's terms.

        ``sums[r]`` holds the sums of f and of n f through n0 + r, a column
        per recorded source.
        """
        base = self._cols.start or 0
        mass = sums[1:, 0]
        # Each recorded source's least unpassed mass in the block (f(n) < 0
        # can occur, so the mass may fall within a block).
        least = (1.0 - mass.max(axis=0)).tolist()
        for stop in stops:
            k = min(len(mass), stop.cap - n0)
            if n0 + k == stop.cap:
                new = stop.unmet
            else:
                new = [s for s in stop.unmet if least[s - base] <= stop.tol]
            if not new:
                continue
            met = 1.0 - mass[:k, [s - base for s in new]] <= stop.tol
            met[k - 1] = True  # the cap, where no earlier n meets tol
            for s, r in zip(new, met.argmax(axis=0).tolist()):
                stop.answers[s] = (n0 + r + 1, float(sums[r + 1, 0, s - base]),
                                   float(sums[r + 1, 1, s - base]))
            stop.unmet = [s for s in stop.unmet if s not in stop.answers]

    def expect(self, i: int, horizon: int, stops) -> None:
        """Get ready to serve source ``i`` rows through ``horizon`` and each (tol, cap) in
        ``stops``, running nothing yet."""
        with self._lock:
            self._record_source(i)
            self._keep_rows(horizon)
            for tol, cap in stops:
                self._stop(tol, cap)

    def distribution(self, i: int, horizon: int) -> np.ndarray:
        """f(1..horizon) from source ``i``."""
        with self._lock:
            self._keep_rows(horizon)
            self._run(horizon)
            return self._rows[:horizon, i].copy()

    def sums(self, i: int, tol: float, cap: int) -> tuple[int, float, float]:
        """(n, sum of f, sum of n f) from source ``i`` through the n where it meets (tol, cap)."""
        with self._lock:
            self._record_source(i)
            stop = self._stop(tol, cap)
            while i not in stop.answers:
                self._run(min(cap, self._n + max(self._GROW, self._n // 4)))
            return stop.answers[i]

    def solve(self, P: np.ndarray, region: np.ndarray) -> np.ndarray | None:
        """The first-step solve on ``region`` of P, run once per region (``_first_step_solve``)."""
        key = region.tobytes()
        with self._lock:
            if key not in self._solves:
                self._solves[key] = _first_step_solve(P, region)
            return self._solves[key]


def _first_step_solve(P: np.ndarray, region: np.ndarray) -> np.ndarray | None:
    """mu of (I - Q) mu = 1, Q being P on ``region``; None if I - Q is numerically singular."""
    A = np.eye(len(region)) - P[np.ix_(region, region)]
    try:
        # Cannot trip once the screen passed; kept as a guard against
        # degenerate numerics.
        if np.linalg.svd(A, compute_uv=False).min(initial=np.inf) <= _SINGULAR_FLOOR:
            return None
        return np.linalg.solve(A, np.ones(len(region)))
    except np.linalg.LinAlgError:
        return None


# Each TransitionMatrix's engines by target index; a copy is another key.
_ENGINES = weakref.WeakKeyDictionary()


class Passage:
    """The passage from ``source`` to ``target`` on one chain, shared by every route.

    Construction reads the chain through ``TransitionMatrix.of``, resolves
    both ends and screens the passage from the target's engine. The
    distribution and the stopping rules read that engine, which runs the
    taboo recursion for all sources as far as they ask; the linear route
    reads the screened region alone. The engine is the one this module
    keeps for the matrix and target, unless a distribution asks for more
    than ``SHARED_HORIZON`` terms: then the passage runs one of its own.
    """

    # Longest distribution a matrix's shared engine keeps rows for.
    SHARED_HORIZON = 1024

    def __init__(self, m, source, target):
        m = TransitionMatrix.of(m)
        self.P, self.labels = m.entries, m.states
        self.i, self.j = resolve_state(source, self.labels), resolve_state(target, self.labels)
        self.source, self.target = self.labels[self.i], self.labels[self.j]
        engines = _ENGINES.setdefault(m, {})
        self._shared = engines.get(self.j) or engines.setdefault(self.j, _Engine(self.P, self.j))
        self.region, self.trapped, self.reachable = _screen(self._shared, self.i, self.j)
        self._own = None

    def _engine(self, horizon: int = 0) -> _Engine:
        """The engine to read for rows through ``horizon``; once the passage has its own,
        every later read is from it."""
        if self._own is None and horizon <= self.SHARED_HORIZON:
            return self._shared
        if self._own is None:
            self._own = _Engine(self.P, self.j)
        return self._own

    def _certain_region(self) -> np.ndarray:
        """The screened region; raise InfiniteEfptError if any state is trapped."""
        if len(self.trapped):
            raise InfiniteEfptError(
                self.source, self.target, trapped=tuple(self.labels[t] for t in self.trapped)
            )
        return self.region

    def expect_report(self, horizon: int, epsilon: float, max_horizon: int) -> None:
        """Check a full report's arguments as its parts do, in their order, and tell the
        engine everything the parts will read, so that one run serves them all."""
        horizon = _term_count(horizon, "horizon")
        _term_count(max_horizon, "horizon")  # the verdict's horizon, checked before epsilon
        max_horizon = _series_cap(epsilon, max_horizon)
        self._engine(horizon).expect(
            self.i, horizon, ((_MASS_OK, max_horizon), (epsilon, max_horizon))
        )

    def distribution(self, horizon: int) -> FptDistribution:
        horizon = _term_count(horizon, "horizon")
        return FptDistribution(
            source=self.source, target=self.target,
            probabilities=self._engine(horizon).distribution(self.i, horizon), horizon=horizon,
        )

    def series(self, epsilon: float, max_horizon: int) -> EfptResult:
        max_horizon = _series_cap(epsilon, max_horizon)
        self._certain_region()
        n, total, mean = self._engine().sums(self.i, epsilon, max_horizon)
        if 1.0 - total > epsilon:
            raise InfiniteEfptError(
                self.source,
                self.target,
                detail=(
                    f"series residual {1.0 - total:.3e} exceeds epsilon {epsilon:g} "
                    f"after {max_horizon} terms"
                ),
            )
        return EfptResult(
            source=self.source, target=self.target, quarters=mean, method="series", n_terms=n
        )

    def linear(self) -> EfptResult:
        P, i, j = self.P, self.i, self.j
        region = self._certain_region()
        mu = self._shared.solve(P, region)
        if mu is None:
            raise InfiniteEfptError(
                self.source, self.target, detail="first-step system is numerically singular"
            )
        if i == j:
            quarters = 1.0 + P[j, region] @ mu
        else:
            quarters = mu[np.searchsorted(region, i)]
        return EfptResult(
            source=self.source, target=self.target, quarters=float(quarters),
            method="linear_system",
        )

    def well_defined(self, horizon: int) -> WellDefinedness:
        horizon = _term_count(horizon, "horizon")
        if self.i != self.j and not self.reachable:
            return WellDefinedness(
                source=self.source, target=self.target,
                mass_at_horizon=0.0, reachable=False,
                verdict=VERDICT_DIVERGENT, horizon=0,
            )
        n, total, _ = self._engine().sums(self.i, _MASS_OK, horizon)
        if len(self.trapped):
            verdict = VERDICT_DIVERGENT
        elif 1.0 - total <= _MASS_OK:
            verdict = VERDICT_WELL_DEFINED
        else:
            verdict = VERDICT_SUSPECT
        return WellDefinedness(
            source=self.source, target=self.target,
            mass_at_horizon=min(total, 1.0), reachable=self.reachable,
            verdict=verdict, horizon=n,
        )


def fpt_distribution(m, source, target, horizon: int) -> FptDistribution:
    """First-passage probabilities from ``source`` to ``target`` up to ``horizon``.

    Parameters
    ----------
    m : TransitionMatrix or square array
        Row-stochastic chain.
    source, target : state label, index, or LaborState
    horizon : int
        Number of steps to tabulate (>= 1).

    Returns
    -------
    FptDistribution
        probabilities[n - 1] holds f(n) for n = 1..horizon.
    """
    return Passage(m, source, target).distribution(horizon)


def fpt_cdf(m, source, target, horizon: int) -> np.ndarray:
    """Cumulative first-passage probability through each n = 1..horizon."""
    return fpt_distribution(m, source, target, horizon).cdf()


def efpt_series(
    m,
    source,
    target,
    epsilon: float = DEFAULT_EPSILON,
    max_horizon: int = DEFAULT_MAX_HORIZON,
) -> EfptResult:
    """Expected first passage time by direct series summation.

    Raises InfiniteEfptError naming the trapped states at once when the
    structural screen finds the passage uncertain. Otherwise accumulates
    sum(n * f(n)) until the unpassed mass 1 - sum(f(n)) drops below
    ``epsilon``, then stops; raises InfiniteEfptError if the residual is
    still above ``epsilon`` at ``max_horizon``, a horizon too short for the
    chain's mixing (efpt_linear is immune to truncation).
    """
    return Passage(m, source, target).series(epsilon, max_horizon)


def efpt_linear(m, source, target) -> EfptResult:
    """Expected first passage time via the first-step linear system.

    Solves (I - Q) mu = 1 where Q is the chain restricted to the states it
    can visit before first entering ``target``: from ``source`` on, or for a
    return time from the states one step out of ``target``, whose mean is
    then one plus the step-weighted mu. If that region contains states with
    no route to the target, the expectation is infinite and
    InfiniteEfptError is raised, naming the trapped states.

    Independent of efpt_series by construction; the two share only the
    structural screen, no numbers. Each region's system is solved once per
    matrix and target; every source whose passage has that region reads it.
    """
    return Passage(m, source, target).linear()


def check_well_defined(m, source, target, horizon: int = DEFAULT_MAX_HORIZON) -> WellDefinedness:
    """Diagnose whether the EFPT series from ``source`` to ``target`` converges.

    "divergent" when the structural screen finds trapped states (the target
    unreachable included), whatever mass the series gathers. Otherwise the
    passage is certain, and the verdict is "well_defined" when the tail
    1 - sum(f(n)) is at most 1e-6 by ``horizon`` and "suspect" when the
    horizon is too short to show it.
    """
    return Passage(m, source, target).well_defined(horizon)
