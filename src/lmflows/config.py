"""Run configuration: defaults, key=value config files, flag overrides."""

import dataclasses
import typing

from .estimation import DEFAULT_MIN_SUPPORT, FALLBACK_POLICIES, FALLBACK_UNIFORM, _check_min_support
from .fpt import DEFAULT_EPSILON, DEFAULT_MAX_HORIZON, _check_epsilon, _term_count

OUTPUT_FORMATS = ("csv", "json")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the command-line entry points; each field is a config-file key."""

    epsilon: float = DEFAULT_EPSILON
    max_horizon: int = DEFAULT_MAX_HORIZON
    min_support: float = DEFAULT_MIN_SUPPORT
    format: str = "csv"
    fallback_policy: str = FALLBACK_UNIFORM

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        _term_count(self.max_horizon, "max_horizon")
        _check_min_support(self.min_support)
        for what, value, choices in (("output format", self.format, OUTPUT_FORMATS),
                                     ("fallback policy", self.fallback_policy, FALLBACK_POLICIES)):
            if value not in choices:
                raise ValueError(f"unknown {what} {value!r}; expected one of {choices}")

    @classmethod
    def read_file(cls, path) -> dict:
        """The fields a key=value file sets; blank lines and # comments are skipped.

        Each key is a field, its value read with the field's type. Unknown keys
        and unparsable values raise ValueError naming the line.
        """
        readers = typing.get_type_hints(cls)
        values = {}
        with open(path, encoding="utf-8-sig") as fh:  # a byte order mark is dropped
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, _, value = (part.strip() for part in line.partition("="))
                if key not in readers:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = readers[key](value)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        return values
