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
which is how this module computes it, in one recursion shared by the
distribution, the series and the well-definedness check.

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
import itertools

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


def _certain_region(P: np.ndarray, labels, i: int, j: int) -> np.ndarray:
    """The screened region of the passage i -> j; raise InfiniteEfptError if any state is trapped."""
    region, trapped, _ = _screen(P, i, j)
    if len(trapped):
        raise InfiniteEfptError(labels[i], labels[j], trapped=tuple(labels[t] for t in trapped))
    return region


def _taboo_terms(P: np.ndarray, i: int, j: int):
    """Yield f(1), f(2), ... for the passage i -> j by the taboo recursion."""
    Pm = P.copy()
    Pm[:, j] = 0.0
    fvec = P[:, j].copy()
    while True:
        yield float(fvec[i])
        fvec = Pm @ fvec


def _partial_sums(P: np.ndarray, i: int, j: int, tol: float, cap: int) -> tuple[int, float, float]:
    """Sum f(n) and n f(n) for i -> j until the unpassed mass is at most ``tol`` or n = ``cap``.

    Returns (n, sum of f, sum of n f) over the n terms summed.
    """
    terms = _taboo_terms(P, i, j)
    total = mean = next(terms)
    n = 1
    while n < cap and 1.0 - total > tol:
        f = next(terms)
        n += 1
        total += f
        mean += n * f
    return n, total, mean


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
    P, labels, i, j = _read_chain(m, source, target)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    out = np.fromiter(itertools.islice(_taboo_terms(P, i, j), horizon), dtype=float, count=horizon)
    return FptDistribution(
        source=labels[i], target=labels[j], probabilities=out, horizon=horizon
    )


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
    P, labels, i, j = _read_chain(m, source, target)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if max_horizon < 1:
        raise ValueError(f"max_horizon must be >= 1, got {max_horizon}")
    _certain_region(P, labels, i, j)
    n, total, mean = _partial_sums(P, i, j, epsilon, max_horizon)
    if 1.0 - total > epsilon:
        raise InfiniteEfptError(
            labels[i],
            labels[j],
            detail=(
                f"series residual {1.0 - total:.3e} exceeds epsilon {epsilon:g} "
                f"after {max_horizon} terms"
            ),
        )
    return EfptResult(
        source=labels[i], target=labels[j], quarters=mean, method="series", n_terms=n
    )


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
    P, labels, i, j = _read_chain(m, source, target)
    region = _certain_region(P, labels, i, j)
    A = np.eye(len(region)) - P[np.ix_(region, region)]
    try:
        # Cannot trip once the screen passed; kept as a guard against
        # degenerate numerics.
        if np.linalg.svd(A, compute_uv=False).min(initial=np.inf) <= _SINGULAR_FLOOR:
            raise np.linalg.LinAlgError("smallest singular value below the floor")
        mu = np.linalg.solve(A, np.ones(len(region)))
    except np.linalg.LinAlgError:
        raise InfiniteEfptError(
            labels[i], labels[j], detail="first-step system is numerically singular"
        ) from None
    if i == j:
        quarters = 1.0 + P[j, region] @ mu
    else:
        quarters = mu[np.searchsorted(region, i)]
    return EfptResult(
        source=labels[i], target=labels[j], quarters=float(quarters), method="linear_system"
    )


def check_well_defined(m, source, target, horizon: int = DEFAULT_MAX_HORIZON) -> WellDefinedness:
    """Diagnose whether the EFPT series from ``source`` to ``target`` converges.

    "divergent" when the structural screen finds trapped states (the target
    unreachable included), whatever mass the series gathers. Otherwise the
    passage is certain, and the verdict is "well_defined" when the tail
    1 - sum(f(n)) is at most 1e-6 by ``horizon`` and "suspect" when the
    horizon is too short to show it.
    """
    P, labels, i, j = _read_chain(m, source, target)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    _, trapped, reachable = _screen(P, i, j)
    if i != j and not reachable:
        return WellDefinedness(
            source=labels[i], target=labels[j],
            mass_at_horizon=0.0, reachable=False,
            verdict=VERDICT_DIVERGENT, horizon=0,
        )
    n, total, _ = _partial_sums(P, i, j, _MASS_OK, horizon)
    if len(trapped):
        verdict = VERDICT_DIVERGENT
    elif 1.0 - total <= _MASS_OK:
        verdict = VERDICT_WELL_DEFINED
    else:
        verdict = VERDICT_SUSPECT
    return WellDefinedness(
        source=labels[i], target=labels[j],
        mass_at_horizon=min(total, 1.0), reachable=reachable,
        verdict=verdict, horizon=n,
    )
