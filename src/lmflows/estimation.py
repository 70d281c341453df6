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
    resolve_state,
)
from .stochastic import as_square_matrix, ensure_row_stochastic

FALLBACK_UNIFORM = "uniform"
FALLBACK_ABSORBING = "absorbing_fs"
FALLBACK_POLICIES = (FALLBACK_UNIFORM, FALLBACK_ABSORBING)

DEFAULT_MIN_SUPPORT = 30.0


class ThinRowWarning(UserWarning):
    """A transition row rests on fewer departures than the support floor."""


@dataclasses.dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """A row-stochastic matrix over labelled states, with estimation metadata.

    The one chain type the package reads, validated once, when built, and
    read-only after; ``TransitionMatrix.of`` validates a bare array into one.

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
        if self.row_counts is not None and len(self.row_counts) != k:
            raise ValueError(f"{len(self.row_counts)} row counts for a {k}x{k} matrix")
        if any(not 0 <= r < k for r in self.fallback_rows):
            raise ValueError(f"fallback row index out of range for a {k}x{k} matrix")
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
        """Resolve a state given as an index, a label, or a LaborState."""
        return resolve_state(state, self.states)

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
    a ThinRowWarning.

    Raises EmptyCohortError when no pair departs the quarter at all.
    """
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
