"""Domain vocabulary: labour-market states, calendar quarters, age bands, cohorts."""

import dataclasses
import enum
import numbers
import re

# Other names read as a member's name.
_ALIASES = {"NEET": "NLFET"}


def _member(cls, text, error: str):
    """The member of enum ``cls`` named ``text``, in any case, padded or aliased."""
    name = str(text).strip().upper()
    try:
        return cls[_ALIASES.get(name, name)]
    except KeyError:
        raise ValueError(error.format(text)) from None


class LaborState(enum.Enum):
    """The seven labour-market states, in canonical matrix order (index 0..6)."""

    SE = 0      # self-employment
    TE = 1      # temporary employment
    PE = 2      # permanent employment
    U = 3       # unemployment
    NLFET = 4   # neither in the labour force nor in education or training
    EDU = 5     # education
    FS = 6      # furlough scheme

    @property
    def index(self) -> int:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "LaborState":
        """Case-insensitive parse of a state code; accepts NEET as an alias of NLFET."""
        return _member(cls, text, "unknown state code {!r}")


STATE_ORDER: tuple[LaborState, ...] = tuple(LaborState)
STATE_CODES: tuple[str, ...] = tuple(s.name for s in STATE_ORDER)
N_STATES = len(STATE_ORDER)


def resolve_state(state, labels) -> int:
    """Index of ``state`` among ``labels``.

    ``state`` may be an index (not a bool), a label (any case; NEET is
    accepted for NLFET) or a LaborState. Raises ValueError otherwise.
    """
    if isinstance(state, LaborState):
        state = state.name
    if isinstance(state, numbers.Integral) and not isinstance(state, bool):
        idx = int(state)
        if not 0 <= idx < len(labels):
            raise ValueError(f"state index {idx} out of range 0..{len(labels) - 1}")
        return idx
    text = str(state).strip().upper()
    for i, name in enumerate(labels):
        if name.upper() == text:
            return i
    if _ALIASES.get(text) in labels:
        return labels.index(_ALIASES[text])
    raise ValueError(f"unknown state {state!r}; expected one of {', '.join(labels)}")


class Sex(enum.Enum):
    M = "M"
    F = "F"

    @classmethod
    def parse(cls, text: str) -> "Sex":
        return _member(cls, text, "invalid sex {!r} (expected M or F)")


class MacroRegion(enum.Enum):
    NORTH = "NORTH"
    CENTRE = "CENTRE"
    SOUTH = "SOUTH"

    @classmethod
    def parse(cls, text: str) -> "MacroRegion":
        return _member(cls, text, "invalid region {!r} (expected NORTH, CENTRE or SOUTH)")


SEX_ORDER: tuple[Sex, ...] = tuple(Sex)
REGION_ORDER: tuple[MacroRegion, ...] = tuple(MacroRegion)


class AgeBand(enum.Enum):
    """Disjoint age bands covering ages 15-34, bounds inclusive."""

    TEENS = (15, 19)
    EARLY_YOUNG = (20, 24)
    LATE_YOUNG = (25, 29)
    PRE_ADULTS = (30, 34)

    @property
    def lo(self) -> int:
        return self.value[0]

    @property
    def hi(self) -> int:
        return self.value[1]

    def contains(self, age: int) -> bool:
        return self.lo <= age <= self.hi


AGE_MIN = AgeBand.TEENS.lo
AGE_MAX = AgeBand.PRE_ADULTS.hi


# ASCII digits only: ``\d`` would also admit other scripts' digits (``２０１９``).
_QUARTER_RE = re.compile(r"^([0-9]{4})\.([1-4])$")


@dataclasses.dataclass(frozen=True, order=True)
class QuarterId:
    """A calendar quarter, ordered by (year, quarter). Rendered as ``YYYY.Q``."""

    year: int
    quarter: int

    def __post_init__(self):
        if not isinstance(self.year, int) or not isinstance(self.quarter, int):
            raise ValueError("year and quarter must be integers")
        if self.year < 1900:
            raise ValueError(f"year {self.year} out of range (must be >= 1900)")
        if self.quarter not in (1, 2, 3, 4):
            raise ValueError(f"quarter {self.quarter} out of range (must be 1..4)")

    @property
    def ordinal(self) -> int:
        """Quarters since year 0: ``year * 4 + quarter - 1``; consecutive quarters differ by 1."""
        return self.year * 4 + self.quarter - 1

    @classmethod
    def from_ordinal(cls, ordinal: int) -> "QuarterId":
        return cls(int(ordinal) // 4, int(ordinal) % 4 + 1)

    def plus(self, n: int) -> "QuarterId":
        return QuarterId.from_ordinal(self.ordinal + n)

    @classmethod
    def parse(cls, text: str) -> "QuarterId":
        m = _QUARTER_RE.match(str(text).strip())
        if m is None:
            raise ValueError(f"invalid quarter {text!r} (expected YYYY.Q)")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.year}.{self.quarter}"


@dataclasses.dataclass(frozen=True)
class Demographics:
    """Respondent attributes, frozen at the first wave of the observation pair."""

    age_at_first_wave: int
    sex: Sex
    italian_citizen: bool
    macro_region: MacroRegion


@dataclasses.dataclass(frozen=True)
class CohortFilter:
    """Conjunction of optional demographic restrictions; absent fields match everything."""

    age_band: AgeBand | None = None
    sex: Sex | None = None
    citizen: bool | None = None
    region: MacroRegion | None = None

    def describe(self) -> str:
        parts = []
        if self.age_band is not None:
            parts.append(f"age={self.age_band.name}")
        if self.sex is not None:
            parts.append(f"sex={self.sex.name}")
        if self.citizen is not None:
            parts.append(f"citizen={1 if self.citizen else 0}")
        if self.region is not None:
            parts.append(f"region={self.region.name}")
        return ", ".join(parts) if parts else "all"
