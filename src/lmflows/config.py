"""Run configuration: defaults, key=value config files, flag overrides."""

import dataclasses
import numbers

from .estimation import DEFAULT_MIN_SUPPORT, FALLBACK_POLICIES, FALLBACK_UNIFORM
from .fpt import DEFAULT_EPSILON, DEFAULT_MAX_HORIZON, _check_epsilon, _term_count

OUTPUT_FORMATS = ("csv", "json")

# Each config-file key: the RunConfig field it sets, and how its value is read.
_FILE_KEYS = {
    "epsilon": ("epsilon", float),
    "max_horizon": ("max_horizon", int),
    "min_support": ("min_support", float),
    "format": ("output_format", str),
    "fallback_policy": ("fallback_policy", str),
}


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the command-line entry points."""

    epsilon: float = DEFAULT_EPSILON
    max_horizon: int = DEFAULT_MAX_HORIZON
    min_support: float = DEFAULT_MIN_SUPPORT
    output_format: str = "csv"
    fallback_policy: str = FALLBACK_UNIFORM

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        _term_count(self.max_horizon, "max_horizon")
        if isinstance(self.min_support, bool) or not isinstance(self.min_support, numbers.Real):
            raise TypeError(f"min_support must be a real number, got {self.min_support!r}")
        if not self.min_support >= 0:  # NaN too
            raise ValueError(f"min_support must be >= 0, got {self.min_support!r}")
        for what, value, choices in (("output format", self.output_format, OUTPUT_FORMATS),
                                     ("fallback policy", self.fallback_policy, FALLBACK_POLICIES)):
            if value not in choices:
                raise ValueError(f"unknown {what} {value!r}; expected one of {choices}")

    @staticmethod
    def read_file(path) -> dict:
        """The fields a key=value file sets; blank lines and # comments are skipped.

        ``_FILE_KEYS`` names the keys and the fields they set. Unknown keys and
        unparsable values raise ValueError naming the line.
        """
        values = {}
        with open(path, encoding="utf-8-sig") as fh:  # a byte order mark is dropped
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, _, value = (part.strip() for part in line.partition("="))
                if key not in _FILE_KEYS:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                field, read = _FILE_KEYS[key]
                try:
                    values[field] = read(value)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        return values
