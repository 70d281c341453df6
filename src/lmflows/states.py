"""Domain vocabulary: labour-market states, calendar quarters, age bands, cohorts."""

import dataclasses
import enum
import re
import typing

# Other names read as a member's name.
_ALIASES = {"NEET": "NLFET"}


def name_key(text) -> str:
    """The key a name is matched by: stripped, upper case, NEET read as NLFET."""
    name = str(text).strip().upper()
    return _ALIASES.get(name, name)


def _member(cls, text, error: str):
    """The member of enum ``cls`` whose name has ``text``'s key."""
    try:
        return cls[name_key(text)]
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
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (self.year, self.quarter)):
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

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, field.type):  # the annotation, ``X | None``
                kind = typing.get_args(field.type)[0].__name__
                raise TypeError(f"cohort {field.name} must be {kind} or None, got {value!r}")

    def written(self) -> dict:
        """Each field as the outputs write it: a member by its name, citizen as 1 or 0, None if unset."""
        values = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        return {name: value if value is None else int(value) if isinstance(value, bool) else value.name
                for name, value in values.items()}

    def describe(self) -> str:
        return ", ".join(f"{'age' if name == 'age_band' else name}={value}"
                         for name, value in self.written().items() if value is not None) or "all"
