"""Cohort state shares and quarterly transition matrices from linked pairs.

Both tables are tabulated from the rows of one cohort cell, which
``PanelDataset.cell`` selects once for its shares and matrix both: it reads
only its quarter's rows, a slice of each column grouped by departure
quarter, masks its cohort on that slice and gathers the matching rows by
their indices. ``np.bincount`` then adds the weights per state or per
move. The rows keep their order within a quarter, and ``np.bincount`` adds
each bin's weights one by one in that order, as a loop over the pairs
would, so the figures are the same to the last bit.

Shares are weighted occupancy fractions in a single quarter. Transition
matrices are weighted row-conditional frequencies over pairs departing a
single quarter: entry (i, j) is the weighted share of pairs leaving state i
that land in state j one quarter later. Rows with no departures at all fall
back to the uniform distribution over the seven states and are flagged so
downstream consumers can tell estimated rows from imputed ones.
"""

import dataclasses
import numbers
import warnings

import numpy as np

from .errors import EmptyCohortError
from .states import (
    N_STATES,
    STATE_CODES,
    STATE_ORDER,
    CohortFilter,
    LaborState,
    QuarterId,
    name_key,
)
from .stochastic import as_square_matrix, ensure_row_stochastic

FALLBACK_UNIFORM = "uniform"
FALLBACK_ABSORBING = "absorbing_fs"
FALLBACK_POLICIES = (FALLBACK_UNIFORM, FALLBACK_ABSORBING)

DEFAULT_MIN_SUPPORT = 30.0


def _check_min_support(min_support) -> float:
    """``min_support`` as the float that runs; raise unless it is a real number, not a
    bool, and >= 0. A ``Fraction`` floor is read, and reported, as its float."""
    if isinstance(min_support, bool) or not isinstance(min_support, numbers.Real):
        raise TypeError(f"min_support must be a real number, got {min_support!r}")
    if not min_support >= 0:  # NaN too
        raise ValueError(f"min_support must be >= 0, got {min_support!r}")
    return float(min_support)


class ThinRowWarning(UserWarning):
    """A transition row rests on fewer departures than the support floor."""


@dataclasses.dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """A row-stochastic matrix over labelled states, with estimation metadata.

    The one chain type the package reads, validated once, when built, and
    read-only after; ``TransitionMatrix.of`` validates a bare array into one.
    The constructor refuses, with a ValueError naming the field, a label that is
    not a str or repeats another, a cohort that is not a CohortFilter or None, a
    fallback row that is not an int index of a row, and a row count that is not
    finite and nonnegative.

    Attributes
    ----------
    entries : (K, K) ndarray
        Row-stochastic probabilities; read-only.
    states : tuple of str
        Row/column labels, in index order.
    row_counts : tuple of float, or None
        Weighted departure counts behind each row; None for matrices that
        were not estimated from data.
    from_quarter, to_quarter : QuarterId or None
        The quarter pair the matrix describes, when it describes one.
    cohort : CohortFilter or None
        Subpopulation the estimate conditions on.
    fallback_rows : frozenset of int
        Row indices that carry an imputed distribution instead of an estimate.
    provenance : str
        Free-text origin note.
    """

    entries: np.ndarray
    states: tuple[str, ...] = STATE_CODES
    row_counts: tuple[float, ...] | None = None
    from_quarter: QuarterId | None = None
    to_quarter: QuarterId | None = None
    cohort: CohortFilter | None = None
    fallback_rows: frozenset[int] = frozenset()
    provenance: str = ""

    def __post_init__(self):
        entries = ensure_row_stochastic(self.entries)
        k = entries.shape[0]
        if len(self.states) != k:
            raise ValueError(f"{len(self.states)} state labels for a {k}x{k} matrix")
        for n, label in enumerate(self.states):
            if not isinstance(label, str):
                raise ValueError(f"state label {label!r} is not a str")
            if label in self.states[:n]:
                raise ValueError(f"state label {label!r} is repeated")
        if self.cohort is not None and not isinstance(self.cohort, CohortFilter):
            raise ValueError(f"cohort {self.cohort!r} is not a CohortFilter or None")
        if self.row_counts is not None and len(self.row_counts) != k:
            raise ValueError(f"{len(self.row_counts)} row counts for a {k}x{k} matrix")
        for r in self.fallback_rows:
            if isinstance(r, bool) or not isinstance(r, (int, np.integer)):
                raise ValueError(f"fallback row {r!r} is not an int")
            if not 0 <= r < k:
                raise ValueError(f"fallback row index out of range for a {k}x{k} matrix")
        for count in self.row_counts or ():
            if not 0 <= float(count) < float("inf"):  # NaN fails too
                raise ValueError(f"row count {count!r} is not finite and nonnegative")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "states", tuple(self.states))
        if self.row_counts is not None:
            object.__setattr__(self, "row_counts", tuple(float(c) for c in self.row_counts))
        object.__setattr__(self, "fallback_rows", frozenset(int(r) for r in self.fallback_rows))

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Copied arrays come back writable; the entries must never change.
        self.entries.setflags(write=False)

    @classmethod
    def of(cls, chain) -> "TransitionMatrix":
        """``chain`` as a TransitionMatrix: a TransitionMatrix as it is, a square
        array validated into one with states labelled "0".."K-1"."""
        if isinstance(chain, cls):
            return chain
        entries = as_square_matrix(chain)
        return cls(entries=entries, states=tuple(str(k) for k in range(len(entries))))

    @property
    def n_states(self) -> int:
        return self.entries.shape[0]

    def state_index(self, state) -> int:
        """Index of ``state``: an index (not a bool), a LaborState, a label as given,
        or else the one label whose ``name_key`` is the name's (any case or padding,
        NEET for NLFET). ValueError otherwise, "ambiguous" when labels share that key.
        """
        # A label as given first, the cheap test: no str is a LaborState or an Integral.
        if isinstance(state, str) and state in self.states:
            return self.states.index(state)
        if isinstance(state, LaborState):
            return self.state_index(state.name)
        if isinstance(state, numbers.Integral) and not isinstance(state, bool):
            if not 0 <= state < self.n_states:
                raise ValueError(f"state index {state} out of range 0..{self.n_states - 1}")
            return int(state)
        key, keys = name_key(state), tuple(map(name_key, self.states))
        if keys.count(key) == 1:
            return keys.index(key)
        if key in keys:
            names = ", ".join(label for label, k in zip(self.states, keys) if k == key)
            raise ValueError(f"ambiguous state {state!r}: it names {names}")
        raise ValueError(f"unknown state {state!r}; expected one of {', '.join(self.states)}")

    def probability(self, source, target) -> float:
        return float(self.entries[self.state_index(source), self.state_index(target)])


@dataclasses.dataclass(frozen=True)
class StateShareTable:
    """Weighted state occupancy shares for one quarter and cohort."""

    quarter: QuarterId
    cohort: CohortFilter
    shares: dict[LaborState, float]
    n_obs: dict[LaborState, int]
    total_weight: float


def compute_shares(data, quarter: QuarterId, cohort: CohortFilter | None = None) -> StateShareTable:
    """Weighted state shares among pairs departing ``quarter``.

    Raises EmptyCohortError when no pair matches.
    """
    cohort = cohort or CohortFilter()
    state, _, weight = data.cell(quarter, cohort)
    weight_by_state = np.bincount(state, weights=weight, minlength=N_STATES).tolist()
    count_by_state = np.bincount(state, minlength=N_STATES).tolist()
    # One bin, not np.sum: np.sum adds pairwise, which can change the last bits.
    total = float(np.bincount(np.zeros(len(weight), dtype=np.intp), weights=weight, minlength=1)[0])
    if total <= 0:
        raise EmptyCohortError(quarter, cohort)
    return StateShareTable(
        quarter=quarter,
        cohort=cohort,
        shares=dict(zip(STATE_ORDER, [w / total for w in weight_by_state])),
        n_obs=dict(zip(STATE_ORDER, count_by_state)),
        total_weight=total,
    )


def estimate_transition_matrix(
    data,
    from_quarter: QuarterId,
    cohort: CohortFilter | None = None,
    min_support: float = DEFAULT_MIN_SUPPORT,
) -> TransitionMatrix:
    """Estimate the one-quarter transition matrix departing ``from_quarter``.

    Entry (i, j) is the weight of pairs moving i -> j divided by the weight
    departing i. Rows with zero departing weight get the uniform fallback
    1/7 in every column and are recorded in ``fallback_rows``. Rows with
    positive weight below ``min_support`` are kept as estimated but trigger
    a ThinRowWarning; ``min_support`` must be a real number >= 0.

    Raises EmptyCohortError when no pair departs the quarter at all.
    """
    min_support = _check_min_support(min_support)
    cohort = cohort or CohortFilter()
    k = N_STATES
    state_from, state_to, weight = data.cell(from_quarter, cohort)
    if not len(weight):
        raise EmptyCohortError(from_quarter, cohort)
    moves = state_from.astype(np.intp) * k + state_to
    flows = np.bincount(moves, weights=weight, minlength=k * k).reshape(k, k)

    row_weight = flows.sum(axis=1)
    observed = row_weight > 0
    entries = np.divide(flows, row_weight[:, None], out=np.full_like(flows, 1.0 / k),
                        where=observed[:, None])
    thin = [STATE_CODES[i] for i in np.flatnonzero(observed & (row_weight < min_support)).tolist()]
    if thin:
        warnings.warn(
            f"thin transition rows departing {from_quarter} ({cohort.describe()}): "
            + ", ".join(f"{name}" for name in thin)
            + f" below support floor {min_support:g}",
            ThinRowWarning,
            stacklevel=2,
        )
    return TransitionMatrix(
        entries=entries,
        states=STATE_CODES,
        row_counts=row_weight.tolist(),
        from_quarter=from_quarter,
        to_quarter=from_quarter.plus(1),
        cohort=cohort,
        fallback_rows=frozenset(np.flatnonzero(~observed).tolist()),
        provenance=f"estimated from {getattr(data, 'provenance', 'panel data')}",
    )


def renormalize_rows(entries) -> np.ndarray:
    """Scale each row of a nonnegative matrix to sum to exactly one.

    Accepts rows whose sums drift from 1 (rounded published tables, say)
    and returns a float copy passing the row-stochastic check. Rows with a
    zero or negative sum, or any negative entry, raise ValueError.
    """
    m = as_square_matrix(entries)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if m.min() < 0:
        i, j = np.unravel_index(int(m.argmin()), m.shape)
        raise ValueError(f"negative entry {m[i, j]!r} at ({i}, {j})")
    sums = m.sum(axis=1)
    if sums.min() <= 0:
        raise ValueError(f"row {int(sums.argmin())} has nonpositive sum {sums.min()!r}")
    return m / sums[:, None]


def apply_fallback_policy(matrix: TransitionMatrix, policy: str) -> TransitionMatrix:
    """Rewrite the imputed rows of a matrix according to ``policy``.

    "uniform" keeps the rows as produced by estimation. "absorbing_fs"
    replaces each fallback row with a unit mass on its own state, so that
    unobserved rows hold rather than scatter. Matrices without fallback
    rows pass through unchanged.
    """
    if policy not in FALLBACK_POLICIES:
        raise ValueError(f"unknown fallback policy {policy!r}; expected one of {FALLBACK_POLICIES}")
    if policy == FALLBACK_UNIFORM or not matrix.fallback_rows:
        return matrix
    entries = np.array(matrix.entries, dtype=float)
    for i in matrix.fallback_rows:
        entries[i] = 0.0
        entries[i, i] = 1.0
    return dataclasses.replace(matrix, entries=entries)
