"""Bundled transition-matrix fixtures.

Eight matrices of published one-quarter transition probabilities for young
Italians, estimated from the rotating-panel labour force survey: two age
bands (20-24 and 25-29) by four quarter pairs straddling the 2020 downturn.
Entries are reproduced exactly as printed, at two decimals, so raw row sums
drift around one (0.98 to 1.02); ``Fixture.matrix()`` returns the
row-renormalized form fit for chain analysis. Rows printed as a flat 0.14
across all seven columns are the publisher's uniform fallback for cells
with no observed departures and are flagged as such.

A toy two-state chain (``demo_geometric_q25``) with a known geometric
passage law is included for smoke tests and examples.
"""

import dataclasses

import numpy as np

from .estimation import TransitionMatrix, renormalize_rows
from .states import STATE_CODES, AgeBand, CohortFilter, QuarterId

_FALLBACK_ROW = (0.14, 0.14, 0.14, 0.14, 0.14, 0.14, 0.14)


@dataclasses.dataclass(frozen=True)
class Fixture:
    """A named transition table: raw printed entries plus cohort metadata."""

    name: str
    description: str
    raw: tuple[tuple[float, ...], ...]
    states: tuple[str, ...] = STATE_CODES
    age_band: AgeBand | None = None
    from_quarter: QuarterId | None = None
    to_quarter: QuarterId | None = None
    fallback_states: frozenset[str] = frozenset()

    def raw_entries(self) -> np.ndarray:
        """The printed entries, un-renormalized, as a writable float array."""
        return np.array(self.raw, dtype=float)

    def matrix(self) -> TransitionMatrix:
        """Row-renormalized TransitionMatrix with fallback rows flagged."""
        entries = renormalize_rows(self.raw_entries())
        fallback = frozenset(self.states.index(s) for s in self.fallback_states)
        cohort = CohortFilter(age_band=self.age_band) if self.age_band is not None else None
        return TransitionMatrix(
            entries=entries,
            states=self.states,
            from_quarter=self.from_quarter,
            to_quarter=self.to_quarter,
            cohort=cohort,
            fallback_rows=fallback,
            provenance=self.description,
        )


def _published(name, age_band, from_q, to_q, rows):
    band = "20-24" if age_band is AgeBand.EARLY_YOUNG else "25-29"
    return Fixture(
        name=name,
        description=(
            f"published one-quarter transition probabilities, ages {band}, "
            f"{from_q} to {to_q}, Italian rotating-panel labour force survey; "
            "entries as printed (two decimals)"
        ),
        raw=tuple(tuple(float(v) for v in row) for row in rows),
        age_band=age_band,
        from_quarter=QuarterId.parse(from_q),
        to_quarter=QuarterId.parse(to_q),
        fallback_states=frozenset(s for s, row in zip(STATE_CODES, rows) if row == _FALLBACK_ROW),
    )


_FIXTURES = {
    f.name: f
    for f in (
        _published(
            "early_2019Q2", AgeBand.EARLY_YOUNG, "2019.1", "2019.2",
            (
                (0.78, 0.02, 0.05, 0.00, 0.03, 0.13, 0.00),
                (0.01, 0.78, 0.05, 0.06, 0.02, 0.08, 0.00),
                (0.01, 0.01, 0.92, 0.02, 0.02, 0.02, 0.00),
                (0.01, 0.13, 0.02, 0.46, 0.24, 0.13, 0.00),
                (0.02, 0.08, 0.02, 0.21, 0.59, 0.08, 0.00),
                (0.01, 0.04, 0.01, 0.02, 0.03, 0.88, 0.00),
                _FALLBACK_ROW,
            ),
        ),
        _published(
            "early_2019Q3", AgeBand.EARLY_YOUNG, "2019.2", "2019.3",
            (
                (0.72, 0.04, 0.03, 0.02, 0.04, 0.15, 0.00),
                (0.00, 0.79, 0.07, 0.03, 0.05, 0.06, 0.00),
                (0.00, 0.04, 0.89, 0.01, 0.01, 0.04, 0.00),
                (0.02, 0.17, 0.01, 0.36, 0.31, 0.13, 0.00),
                (0.02, 0.10, 0.04, 0.16, 0.63, 0.06, 0.00),
                (0.01, 0.06, 0.01, 0.01, 0.03, 0.88, 0.00),
                _FALLBACK_ROW,
            ),
        ),
        _published(
            "early_2020Q2", AgeBand.EARLY_YOUNG, "2020.1", "2020.2",
            (
                (0.64, 0.01, 0.10, 0.05, 0.05, 0.15, 0.00),
                (0.01, 0.66, 0.06, 0.07, 0.10, 0.06, 0.05),
                (0.03, 0.06, 0.65, 0.03, 0.04, 0.02, 0.18),
                (0.01, 0.07, 0.02, 0.29, 0.52, 0.07, 0.01),
                (0.01, 0.04, 0.01, 0.19, 0.69, 0.05, 0.00),
                (0.01, 0.03, 0.01, 0.01, 0.03, 0.91, 0.01),
                (0.00, 0.00, 1.00, 0.00, 0.00, 0.00, 0.00),
            ),
        ),
        _published(
            "early_2020Q3", AgeBand.EARLY_YOUNG, "2020.2", "2020.3",
            (
                (0.75, 0.09, 0.01, 0.02, 0.02, 0.11, 0.00),
                (0.01, 0.80, 0.06, 0.04, 0.03, 0.07, 0.00),
                (0.01, 0.05, 0.85, 0.02, 0.02, 0.03, 0.02),
                (0.02, 0.12, 0.02, 0.41, 0.32, 0.10, 0.00),
                (0.00, 0.13, 0.01, 0.32, 0.41, 0.12, 0.00),
                (0.01, 0.04, 0.01, 0.04, 0.02, 0.87, 0.00),
                (0.00, 0.04, 0.75, 0.05, 0.06, 0.02, 0.08),
            ),
        ),
        _published(
            "late_2019Q2", AgeBand.LATE_YOUNG, "2019.1", "2019.2",
            (
                (0.88, 0.04, 0.02, 0.02, 0.04, 0.02, 0.00),
                (0.01, 0.83, 0.07, 0.03, 0.03, 0.02, 0.00),
                (0.01, 0.03, 0.93, 0.01, 0.02, 0.01, 0.00),
                (0.03, 0.11, 0.04, 0.46, 0.29, 0.07, 0.00),
                (0.01, 0.07, 0.03, 0.21, 0.63, 0.06, 0.00),
                (0.01, 0.06, 0.02, 0.05, 0.04, 0.82, 0.00),
                (0.00, 0.00, 0.36, 0.00, 0.00, 0.00, 0.64),
            ),
        ),
        _published(
            "late_2019Q3", AgeBand.LATE_YOUNG, "2019.2", "2019.3",
            (
                (0.87, 0.04, 0.01, 0.04, 0.04, 0.01, 0.00),
                (0.01, 0.77, 0.09, 0.04, 0.07, 0.02, 0.00),
                (0.01, 0.03, 0.94, 0.00, 0.02, 0.00, 0.00),
                (0.02, 0.12, 0.03, 0.40, 0.37, 0.07, 0.00),
                (0.02, 0.08, 0.01, 0.19, 0.67, 0.04, 0.00),
                (0.01, 0.06, 0.01, 0.03, 0.07, 0.81, 0.00),
                _FALLBACK_ROW,
            ),
        ),
        _published(
            "late_2020Q2", AgeBand.LATE_YOUNG, "2020.1", "2020.2",
            (
                (0.88, 0.02, 0.03, 0.02, 0.01, 0.02, 0.01),
                (0.02, 0.68, 0.06, 0.07, 0.10, 0.04, 0.04),
                (0.00, 0.04, 0.76, 0.00, 0.03, 0.01, 0.16),
                (0.01, 0.09, 0.03, 0.31, 0.48, 0.06, 0.02),
                (0.01, 0.03, 0.02, 0.16, 0.74, 0.03, 0.00),
                (0.03, 0.05, 0.02, 0.05, 0.06, 0.79, 0.00),
                (0.00, 0.01, 0.84, 0.00, 0.15, 0.00, 0.00),
            ),
        ),
        _published(
            "late_2020Q3", AgeBand.LATE_YOUNG, "2020.2", "2020.3",
            (
                (0.86, 0.02, 0.03, 0.03, 0.02, 0.04, 0.00),
                (0.02, 0.76, 0.06, 0.05, 0.09, 0.02, 0.00),
                (0.02, 0.02, 0.94, 0.01, 0.01, 0.00, 0.01),
                (0.03, 0.09, 0.01, 0.46, 0.28, 0.14, 0.00),
                (0.00, 0.07, 0.02, 0.23, 0.61, 0.06, 0.00),
                (0.04, 0.06, 0.01, 0.08, 0.06, 0.76, 0.00),
                (0.00, 0.10, 0.76, 0.01, 0.05, 0.00, 0.07),
            ),
        ),
        Fixture(
            name="demo_geometric_q25",
            description=(
                "toy two-state chain: A steps to absorbing B with probability "
                "0.25 each quarter, so the passage time A to B is geometric "
                "with mean 4 quarters"
            ),
            raw=((0.75, 0.25), (0.00, 1.00)),
            states=("A", "B"),
        ),
    )
}

# Published expected school-to-work passage times, in years, for the two
# quarter pairs the headline estimates cover: from education (EDU) to
# permanent employment (PE) and to temporary employment (TE), whole cohort.
EFPT_YEARS_REFERENCE = {
    "early_2019Q3": {"PE": 8.63, "TE": 3.72},
    "early_2020Q3": {"PE": 11.25, "TE": 4.16},
}


def fixture_names() -> tuple[str, ...]:
    return tuple(_FIXTURES)


def get_fixture(name: str) -> Fixture:
    try:
        return _FIXTURES[name]
    except KeyError:
        raise ValueError(
            f"unknown fixture {name!r}; available: {', '.join(_FIXTURES)}"
        ) from None
