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
which is how this module computes it. A ``Passage`` runs that recursion
once per passage, as far as the furthest request, and keeps each f(n)
with the running sums of f(n) and n f(n); the distribution, the series
stop and the well-definedness stop are lookups into those arrays. Every
public function below builds one ``Passage``, and a full report
(``serialize.build_fpt_report``) builds one for all of its parts, so it
validates the chain, screens it and runs the recursion once.

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

import dataclasses

import numpy as np

from .errors import InfiniteEfptError
from .states import resolve_state
from .stochastic import ensure_row_stochastic

VERDICT_WELL_DEFINED = "well_defined"
VERDICT_SUSPECT = "suspect"
VERDICT_DIVERGENT = "divergent"

DEFAULT_EPSILON = 1e-9
DEFAULT_MAX_HORIZON = 4000

# Largest unpassed mass with which check_well_defined calls a certain passage well defined.
_MASS_OK = 1e-6

# Smallest singular value of I - Q that efpt_linear will solve with.
_SINGULAR_FLOOR = 1e-12


def _read_chain(m, source, target) -> tuple[np.ndarray, tuple[str, ...], int, int]:
    """Validate a TransitionMatrix or bare array; return (P, labels, source, target index)."""
    entries = getattr(m, "entries", m)
    labels = getattr(m, "states", None)
    P = ensure_row_stochastic(entries)
    if labels is None:
        labels = tuple(str(k) for k in range(P.shape[0]))
    else:
        labels = tuple(labels)
        if len(labels) != P.shape[0]:
            raise ValueError(f"{len(labels)} labels for a {P.shape[0]}-state chain")
    return P, labels, resolve_state(source, labels), resolve_state(target, labels)


def _closure(adjacency: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Mask of the states reachable from the ``seeds`` mask in zero or more steps."""
    seen = seeds.copy()
    frontier = seeds
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~seen
        seen |= frontier
    return seen


def _screen(P: np.ndarray, i: int, j: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Structural screen of the passage i -> j over the support of P.

    Returns (region, trapped, reachable). ``region`` holds the states the
    chain can visit before its first entry to j, starting from i, or for a
    return time (i == j) from the states one step out of j. ``trapped``
    holds the starting states from which j cannot be reached, or when there
    are none, the region states from which it cannot; the passage is
    certain exactly when it is empty. ``reachable`` says whether j can be
    reached from i in one or more steps.
    """
    support = P > 0.0
    reaches_j = _closure(support.T, support[:, j])
    taboo = support.copy()
    taboo[:, j] = False
    start = taboo[j] if i == j else np.arange(len(P)) == i
    region = _closure(taboo, start)
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


def _check_horizon(horizon) -> None:
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")


class Passage:
    """The passage from ``source`` to ``target`` on one chain, shared by every route.

    Construction validates the chain, resolves both ends and screens the
    passage. The taboo recursion runs on demand, one ``P~.dot(F, out=...)``
    a term into a reused block of rows, carrying on from where the last
    request stopped. Each f(n) is kept with the running sums of f(n) and
    n f(n), added in order of n, so the distribution and every stopping
    rule are lookups into the same arrays, 24 bytes a term computed.
    """

    # Rows of the recursion buffer, reused from one stretch of terms to the next.
    _BLOCK = 256
    # Fewest terms a stopping rule adds to the recursion when it needs more.
    _GROW = 128

    def __init__(self, m, source, target):
        self.P, self.labels, self.i, self.j = _read_chain(m, source, target)
        self.source, self.target = self.labels[self.i], self.labels[self.j]
        self.region, self.trapped, self.reachable = _screen(self.P, self.i, self.j)
        self._taboo = self.P.copy()
        self._taboo[:, self.j] = 0.0
        self._block = np.empty((self._BLOCK, len(self.P)))
        self._block[0] = self.P[:, self.j]
        self._rows = list(self._block)
        # f(n), sum of f and sum of n f through n, at index n - 1.
        self._f = np.empty(self._GROW)
        self._f[0] = self._block[0, self.i]
        self._mass = self._f.copy()
        self._mean = self._f.copy()
        self._n = 1

    def _certain_region(self) -> np.ndarray:
        """The screened region; raise InfiniteEfptError if any state is trapped."""
        if len(self.trapped):
            raise InfiniteEfptError(
                self.source, self.target, trapped=tuple(self.labels[t] for t in self.trapped)
            )
        return self.region

    def _extend(self, n: int) -> None:
        """Run the taboo recursion F(n) = P~ F(n-1) on to ``n`` terms."""
        n0 = self._n
        if n <= n0:
            return
        if n > len(self._f):
            size = max(n, 2 * len(self._f))
            for name in ("_f", "_mass", "_mean"):
                grown = np.empty(size)
                grown[:n0] = getattr(self, name)[:n0]
                setattr(self, name, grown)
        advance, block, rows = self._taboo.dot, self._block, self._rows
        k = n0
        while k < n:
            step = min(n - k, len(rows) - 1)
            for r in range(step):
                advance(rows[r], out=rows[r + 1])
            self._f[k:k + step] = block[1:step + 1, self.i]
            block[0] = block[step]
            k += step
        # Each running sum carries on from its value at n0, adding in order of n.
        terms = self._f[n0:n]
        for acc, add in ((self._mass, terms), (self._mean, np.arange(n0 + 1, n + 1) * terms)):
            run = acc[n0 - 1:n]
            run[1:] = add
            np.cumsum(run, out=run)
        self._n = n

    def _sums(self, tol: float, cap: int) -> tuple[int, float, float]:
        """(n, sum of f, sum of n f) through the first n with unpassed mass at most ``tol``.

        Through n = ``cap`` when no earlier n has it.
        """
        start = 0
        while True:
            end = min(self._n, cap)
            hit = np.flatnonzero(~(1.0 - self._mass[start:end] > tol))
            if len(hit):
                n = start + int(hit[0]) + 1
                break
            if end == cap:
                n = cap
                break
            start = end
            self._extend(min(cap, end + max(self._GROW, end // 4)))
        return n, float(self._mass[n - 1]), float(self._mean[n - 1])

    def distribution(self, horizon: int) -> FptDistribution:
        _check_horizon(horizon)
        self._extend(horizon)
        return FptDistribution(
            source=self.source, target=self.target,
            probabilities=self._f[:horizon], horizon=horizon,
        )

    def series(self, epsilon: float, max_horizon: int) -> EfptResult:
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
        if max_horizon < 1:
            raise ValueError(f"max_horizon must be >= 1, got {max_horizon}")
        self._certain_region()
        n, total, mean = self._sums(epsilon, max_horizon)
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
        A = np.eye(len(region)) - P[np.ix_(region, region)]
        try:
            # Cannot trip once the screen passed; kept as a guard against
            # degenerate numerics.
            if np.linalg.svd(A, compute_uv=False).min(initial=np.inf) <= _SINGULAR_FLOOR:
                raise np.linalg.LinAlgError("smallest singular value below the floor")
            mu = np.linalg.solve(A, np.ones(len(region)))
        except np.linalg.LinAlgError:
            raise InfiniteEfptError(
                self.source, self.target, detail="first-step system is numerically singular"
            ) from None
        if i == j:
            quarters = 1.0 + P[j, region] @ mu
        else:
            quarters = mu[np.searchsorted(region, i)]
        return EfptResult(
            source=self.source, target=self.target, quarters=float(quarters),
            method="linear_system",
        )

    def well_defined(self, horizon: int) -> WellDefinedness:
        _check_horizon(horizon)
        if self.i != self.j and not self.reachable:
            return WellDefinedness(
                source=self.source, target=self.target,
                mass_at_horizon=0.0, reachable=False,
                verdict=VERDICT_DIVERGENT, horizon=0,
            )
        n, total, _ = self._sums(_MASS_OK, horizon)
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
    structural screen, no numbers.
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
