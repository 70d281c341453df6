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
which is how this module computes it: one engine per (chain, target),
``_Engine``, runs that recursion for all sources at once, as far as the
requests ask, and also works out the closure of the support of
:math:`\tilde P` that screens every passage into :math:`j`. Chains are read
as ``TransitionMatrix`` objects, validated when built (a bare array is
validated into one for the call), and this module keeps each matrix's
engines, so every passage on it into one target reads one shared run (a
distribution longer than ``DEFAULT_HORIZON`` terms runs one of its own); a
copy or a pickle of the matrix starts without engines. Every public
function below builds one ``Passage``, and a full report
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

* ``efpt_series`` accumulates the truncated series until a proven bound on
  its tail (``_Engine``) is within ``epsilon`` of the partial sum, with a
  ceiling on the number of terms;
* ``efpt_linear`` solves the first-step equations
  :math:`(I - Q)\mu = \mathbf 1`, where :math:`Q` is :math:`P` restricted
  to the states visited before the first entry to :math:`j`.

Agreement between the two is a cross-check on both.
"""

import collections
import dataclasses
import functools
import math
import numbers
import threading
import weakref

import numpy as np

from .errors import InfiniteEfptError
from .estimation import TransitionMatrix

VERDICT_WELL_DEFINED = "well_defined"
VERDICT_SUSPECT = "suspect"
VERDICT_DIVERGENT = "divergent"

DEFAULT_HORIZON = 40
DEFAULT_EPSILON = 1e-9
DEFAULT_MAX_HORIZON = 8000

# Largest unpassed mass the tail bound must certify for a certain passage to be well defined.
_CERTIFIED_MASS = 1e-6

# Smallest singular value of I - Q that efpt_linear solves with, as bounded by the solve's mu.
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
    if i != j:
        # The closure row of i is its region, i included.
        region = ahead[i]
        trapped = np.flatnonzero(region & ~reaches_j) if reaches_j[i] else np.array([i], np.intp)
    else:
        start = engine.support[j]
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


def _term_count(value, name: str, low: int = 1) -> int:
    """``value`` as an int >= ``low``; raise an error naming the argument if it is not one."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _check_epsilon(epsilon) -> float:
    """``epsilon``, a real number, as the float that runs and is reported (a ``Fraction``
    as its float); raise unless both lie in (0, 1), the value compared first, so a
    huge one is refused, not overflowed, and a bool is refused by the range."""
    if type(epsilon) is not float and not isinstance(epsilon, numbers.Real):
        raise TypeError(f"epsilon must be a real number, got {epsilon!r}")
    if not (0.0 < epsilon < 1.0 and 0.0 < (value := float(epsilon)) < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    return value


# Every engine request runs under this one lock, so one set of stream buffers
# per chain size serves every engine in every thread (``_Engine._run``).
_LOCK = threading.Lock()
_BUFFERS = {}


def _tail_constants(taboo: np.ndarray, regions: list) -> np.ndarray:
    """C1 and C2 of each region's tail bound, a row each, and a last row of NaN.

    Q = P~ on a certain region of m states (closed under its steps) has theta =
    ||Q^m||, the largest entry on the region of |P~|^m 1, below 1. As ||Q^k|| <=
    theta^(k // m) (Kemeny & Snell, 1960), sum ||Q^k|| <= C1 = m / (1 - theta) and
    sum k ||Q^k|| <= C2 = m^2 theta / (1 - theta)^2 + m (m - 1) / (2 (1 - theta)),
    over k >= 1. NaN where theta rounds to 1: that bound certifies nothing.
    """
    out = np.full((2, len(regions) + 1, 1), np.nan)
    step, mass = np.abs(taboo), [np.ones(len(taboo))]
    for g, on in enumerate(regions):
        m = int(on.sum())
        while len(mass) <= m:
            mass.append(step @ mass[-1])
        theta = float(mass[m][on].max())
        if theta < 1.0:
            out[:, g, 0] = (m / (1.0 - theta),
                            m * m * theta / (1.0 - theta) ** 2 + m * (m - 1) / (2.0 * (1.0 - theta)))
    return out


class _Engine:
    """The taboo recursion into one target, run for every source at once.

    The terms stream through a block of rows, one ``P~.dot(F, out=...)`` a
    term, and are dropped once recorded; so the memory is what is kept: f(n)
    for its first ``rows`` terms (``DEFAULT_HORIZON`` unless asked for more),
    which every stream from n = 0 records as it passes them, and for every
    source the answer to one stopping rule. The sums of f and n f add in
    order of n, as a term-by-term loop adds them. A new rule sends the
    stream back to n = 0. Every engine runs one request at a time under one
    module lock, ``_LOCK``, so reports in several threads may share engines:
    a long distribution or stream holds the lock for its whole run, and no
    result depends on the thread.

    Every rule stops on one tail bound. A certain passage's F, read on its
    region R (closed under steps that avoid the target; a return time adds
    the target itself), follows F_R(n + 1) = Q F_R(n) with Q the taboo chain
    on R. So past n the unpassed mass is at most C1 max|F_R(n)| and the rest
    of the mean at most (n C1 + C2) max|F_R(n)| (``_tail_constants``, once
    per region). A passage that is not certain meets a rule only at its cap.
    How far a request streams is guessed (``_more``); no answer depends on
    it. Beside the recursion, and never reading it, are what the screen reads
    (``ahead``, ``reaches``) and the linear route's one solve per region, which
    also settles its singular guard. The closure and the rule's regions and
    constants are worked out on first use, so an engine that only records rows
    never pays for them.
    """

    # Most terms a block of the stream holds.
    BLOCK = 512

    def __init__(self, P: np.ndarray, j: int, rows: int = DEFAULT_HORIZON):
        k = len(P)
        self._taboo = P.copy()
        self._taboo[:, j] = 0.0
        self._first = P[:, j].copy()
        # What the screen reads: the support of P~ and, on first use, its closure.
        self.support = self._taboo > 0.0
        # The linear route's mu by region (None where singular), never the recursion's.
        self._solves = {}
        try:
            self._rows = np.empty((rows, k))
        except MemoryError:
            raise ValueError(f"horizon {rows} is too long: its {rows} x {k} passage probabilities "
                             f"({rows * k * 8 / 2**30:.2f} GiB) cannot be allocated") from None
        # The rule (epsilon, cap) and its answers by source: (n, sum of f, sum of
        # n f, met) through the first n <= cap where the bounds hold for the mean
        # (to epsilon) and the mass (_CERTIFIED_MASS), or else through cap.
        self._rule, self._answers = None, {}
        self._rewind()

    @functools.cached_property
    def ahead(self) -> np.ndarray:
        """The reflexive-transitive closure of ``support``, by squaring (routes of up
        to 2^r steps after r squarings)."""
        ahead = self.support | np.eye(len(self.support), dtype=bool)
        for _ in range((len(ahead) - 1).bit_length()):
            ahead = ahead @ ahead
        return ahead

    @functools.cached_property
    def reaches(self) -> np.ndarray:
        """The states that can reach j: a route ends with a step into j; the steps
        before it avoid j."""
        return self.ahead[:, self._first > 0.0].any(axis=1)

    @functools.cached_property
    def _bounds(self) -> tuple[np.ndarray, list, np.ndarray, np.ndarray]:
        """What the stopping rule reads: (region of each source, regions, C1, C2).

        A certain source s bounds its tail on ahead[s] (its region; for j, the
        return time's and j). Sources share a region's C1 and C2; one that is
        not certain is in region -1, the last row of those, NaN, which certifies
        nothing.
        """
        regions = {}
        certain = ~(self.ahead & ~self.reaches).any(axis=1)
        region_of = np.array([regions.setdefault(self.ahead[s].tobytes(), len(regions))
                              if certain[s] else -1 for s in range(len(certain))])
        regions = [np.frombuffer(key, dtype=bool) for key in regions]
        return (region_of, regions, *_tail_constants(self._taboo, regions))

    def _rewind(self) -> None:
        self._n = 0
        self._last = self._first
        # Sums of f (real part) and of n f (imaginary part) through n: numpy adds
        # the parts apart, as two float sums, in one pass; -0.0 keeps the first
        # term's bits.
        self._carry = np.full(len(self._first), complex(-0.0, -0.0))

    def _run(self, n: int) -> None:
        """Stream the recursion on to ``n`` terms, recording what the requests read."""
        if n <= self._n:
            return
        k = len(self._first)
        if k not in _BUFFERS:
            # (block of f rows, a view of each row, block of running sums) for k states.
            block = np.empty((self.BLOCK + 1, k))
            _BUFFERS[k] = (block, list(block), np.empty((self.BLOCK + 1, k), complex))
        block, rows, run = _BUFFERS[k]
        advance = self._taboo.dot
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
            # The sums are read only while the rule is open; a new rule rewinds the stream.
            if self._rule is not None and len(self._answers) < len(self._first):
                sums = run[:step + 1]
                sums.real[1:] = f
                n_col = np.arange(n0 + 1.0, n0 + step + 1.0)[:, None]
                np.multiply(n_col, f, out=sums.imag[1:])
                np.add.accumulate(sums, axis=0, out=sums)
                self._scan(n0, n_col, f, sums)
            block[0] = block[step]
            run[0] = run[step]
            self._n = n0 + step
        self._last = block[0].copy()
        self._carry = run[0].copy()

    def _scan(self, n0: int, n_col: np.ndarray, f: np.ndarray, sums: np.ndarray) -> None:
        """Record the sources that meet the rule among the block's terms: ``f[r]`` is
        F(n) for n = ``n_col[r]`` = n0 + r + 1, and ``sums[r]`` holds the sums of f and
        of n f (``_carry``) through n0 + r, a column per source."""
        # Each region's largest |F(n)|, a row per region and a column per term;
        # then the bounds past n on the mass and on the mean, a row per source.
        # Where no region's mass is certified nothing is met, and only a block
        # that ends at the cap records answers.
        region_of, regions, c1, c2 = self._bounds
        by_state = np.abs(f.T, order="C")
        top = np.zeros((len(regions) + 1, len(f)))
        for g, on in enumerate(regions):
            np.maximum.reduce(by_state[on], axis=0, out=top[g])
        self._fall = (len(f) - 1, top[:, 0].tolist(), top[:, -1].tolist())
        (epsilon, cap), answers = self._rule, self._answers
        k = min(len(f), cap - n0)
        tail = ((n_col.T * c1 + c2) * top)[region_of]
        certified = (c1 * top <= _CERTIFIED_MASS)[region_of, :k]
        met = certified & (tail[:, :k] <= epsilon * sums.imag[1:k + 1].T)
        hit = met.any(axis=1)
        for s, r in enumerate(np.where(hit, met.argmax(axis=1), k - 1).tolist()):
            if s not in answers and (hit[s] or n0 + k == cap):
                total = sums[r + 1, s]
                answers[s] = (n0 + r + 1, float(total.real), float(total.imag), bool(hit[s]))

    def distribution(self, i: int, horizon: int) -> np.ndarray:
        """f(1..horizon) from source ``i``; ``horizon`` is at most the engine's ``rows``."""
        with _LOCK:
            self._run(horizon)
            return self._rows[:horizon, i].copy()

    def answer(self, i: int, epsilon: float, cap: int) -> tuple[int, float, float, bool]:
        """Source ``i``'s answer to the rule (epsilon, cap) (see ``_answers``)."""
        with _LOCK:
            if self._rule != (epsilon, cap):
                self._rule, self._answers = (epsilon, cap), {}
                self._rewind()
            more = self.BLOCK
            while i not in self._answers:
                self._run(min(cap, self._n + more))
                more = self._more(i, epsilon)
            return self._answers[i]

    def _more(self, i: int, epsilon: float) -> int:
        """A guess at how many more terms source ``i`` needs for ``epsilon``, from how its
        bound fell over the last block scanned (``BLOCK`` where that gives none)."""
        region_of, _, c1, c2 = self._bounds
        g, (rows, first, last) = region_of[i], self._fall
        c1, c2, mean = c1[g, 0], c2[g, 0], self._carry[i].imag
        if not (0.0 < last[g] < first[g] and mean > 0.0 and c1 < np.inf):
            return self.BLOCK
        short = max(c1 * last[g] / _CERTIFIED_MASS, (self._n * c1 + c2) * last[g] / (epsilon * mean))
        guess = math.log(short) / math.log(first[g] / last[g]) * rows
        return int(guess * 1.05) + 16 if 0.0 < guess < 1e7 else self.BLOCK

    def solve(self, P: np.ndarray, region: np.ndarray) -> np.ndarray | None:
        """The first-step solve on ``region`` of P, run once per region (``_first_step_solve``)."""
        key = region.tobytes()
        with _LOCK:
            if key not in self._solves:
                self._solves[key] = _first_step_solve(P, region)
            return self._solves[key]


def _first_step_solve(P: np.ndarray, region: np.ndarray) -> np.ndarray | None:
    """mu of (I - Q) mu = 1, Q being P on ``region``; None if I - Q is numerically singular.

    On m states Q >= 0 gives N = (I - Q)^-1 >= 0, so 1 / sigma_min(I - Q) = ||N||_2 <=
    sqrt(m) ||N||_inf = sqrt(m) max mu. mu is kept while 1 / (sqrt(m) max mu) clears the
    floor: every sigma_min <= _SINGULAR_FLOOR is refused, none above m _SINGULAR_FLOOR.
    """
    A = np.eye(len(region)) - P[region][:, region]
    try:
        mu = np.linalg.solve(A, np.ones(len(region)))
    except np.linalg.LinAlgError:
        return None
    # False where the product is NaN or infinite too; an empty region passes.
    clear = math.sqrt(len(region)) * np.abs(mu).max(initial=0.0) * _SINGULAR_FLOOR < 1.0
    return mu if clear else None


# Each TransitionMatrix's engines by target index; a copy is another key.
_ENGINES = weakref.WeakKeyDictionary()


class Passage:
    """The passage from ``source`` to ``target`` on one chain, shared by every route.

    Construction reads the chain through ``TransitionMatrix.of``, resolves
    both ends and screens the passage from the target's engine, the one this
    module keeps for the matrix and target. The series, the verdict and a
    distribution of up to ``DEFAULT_HORIZON`` terms read that engine, which
    runs the taboo recursion for all sources as far as they ask; a longer
    distribution runs a throwaway engine of its own. The linear route reads
    the screened region alone.
    """

    def __init__(self, m, source, target):
        m = TransitionMatrix.of(m)
        self.P, self.labels = m.entries, m.states
        self.i, self.j = m.state_index(source), m.state_index(target)
        self.source, self.target = self.labels[self.i], self.labels[self.j]
        engines = _ENGINES.setdefault(m, {})
        self._shared = engines.get(self.j) or engines.setdefault(self.j, _Engine(self.P, self.j))
        self.region, self.trapped, self.reachable = _screen(self._shared, self.i, self.j)

    def _certain_region(self) -> np.ndarray:
        """The screened region; raise InfiniteEfptError if any state is trapped."""
        if len(self.trapped):
            raise InfiniteEfptError(
                self.source, self.target, trapped=tuple(self.labels[t] for t in self.trapped)
            )
        return self.region

    def distribution(self, horizon: int) -> FptDistribution:
        horizon = _term_count(horizon, "horizon")
        engine = self._shared if horizon <= DEFAULT_HORIZON else _Engine(self.P, self.j, rows=horizon)
        return FptDistribution(
            source=self.source, target=self.target,
            probabilities=engine.distribution(self.i, horizon), horizon=horizon,
        )

    def series(self, epsilon: float, max_horizon: int) -> EfptResult:
        epsilon = _check_epsilon(epsilon)
        max_horizon = _term_count(max_horizon, "max_horizon")
        self._certain_region()
        n, total, mean, met = self._shared.answer(self.i, epsilon, max_horizon)
        if not met:
            raise InfiniteEfptError(self.source, self.target, detail=(
                f"series tail bound exceeds epsilon {epsilon:g} of the mean after "
                f"{max_horizon} terms (residual {1.0 - total:.3e})"))
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

    def well_defined(self, horizon: int, epsilon: float = DEFAULT_EPSILON) -> WellDefinedness:
        horizon = _term_count(horizon, "horizon")
        epsilon = _check_epsilon(epsilon)
        n, total, met = 0, 0.0, False  # a target the source cannot reach: nothing to stream
        if self.i == self.j or self.reachable:
            n, total, _, met = self._shared.answer(self.i, epsilon, horizon)
        verdict = (VERDICT_DIVERGENT if len(self.trapped)
                   else VERDICT_WELL_DEFINED if met else VERDICT_SUSPECT)
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
    structural screen finds the passage uncertain. Otherwise sums n * f(n)
    up to the first n where the tail bound proves the rest at most
    ``epsilon`` times the sum so far and the unpassed mass at most 1e-6, so
    the result is within ``epsilon`` of the expectation, relative. Raises
    InfiniteEfptError if no n up to ``max_horizon`` meets the bound, a
    ceiling too low for the chain's mixing (efpt_linear has none).
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


def check_well_defined(
    m, source, target, horizon: int = DEFAULT_MAX_HORIZON, epsilon: float = DEFAULT_EPSILON
) -> WellDefinedness:
    """Diagnose whether the EFPT series from ``source`` to ``target`` converges.

    "divergent" when the structural screen finds trapped states (the target
    unreachable included), whatever mass the series gathers. Otherwise it
    reads the stop of efpt_series with these arguments: "well_defined" when
    the series is finite, its bound met within ``horizon`` terms, and
    "suspect" when ``horizon`` is below the n the bound needs. The result's
    ``horizon`` is that n (or ``horizon``), with the mass gathered by then.
    """
    return Passage(m, source, target).well_defined(horizon, epsilon)
