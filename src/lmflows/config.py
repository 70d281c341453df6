"""Run configuration: defaults, key=value config files, flag overrides."""

import dataclasses

from .estimation import DEFAULT_MIN_SUPPORT, FALLBACK_POLICIES, FALLBACK_UNIFORM
from .fpt import DEFAULT_EPSILON, DEFAULT_MAX_HORIZON

OUTPUT_FORMATS = ("csv", "json")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the command-line entry points."""

    epsilon: float = DEFAULT_EPSILON
    max_horizon: int = DEFAULT_MAX_HORIZON
    min_support: float = DEFAULT_MIN_SUPPORT
    output_format: str = "csv"
    fallback_policy: str = FALLBACK_UNIFORM

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon!r}")
        if self.max_horizon < 1:
            raise ValueError(f"max_horizon must be >= 1, got {self.max_horizon!r}")
        if not self.min_support >= 0:  # NaN too
            raise ValueError(f"min_support must be >= 0, got {self.min_support!r}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(
                f"unknown output format {self.output_format!r}; expected one of {OUTPUT_FORMATS}"
            )
        if self.fallback_policy not in FALLBACK_POLICIES:
            raise ValueError(
                f"unknown fallback policy {self.fallback_policy!r}; "
                f"expected one of {FALLBACK_POLICIES}"
            )

    @staticmethod
    def read_file(path) -> dict:
        """The fields a key=value file sets; blank lines and # comments are skipped.

        Keys: epsilon, max_horizon, min_support, format, fallback_policy.
        Unknown keys and unparsable values raise ValueError naming the line.
        """
        values = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                try:
                    if key == "epsilon":
                        values["epsilon"] = float(value)
                    elif key == "max_horizon":
                        values["max_horizon"] = int(value)
                    elif key == "min_support":
                        values["min_support"] = float(value)
                    elif key == "format":
                        values["output_format"] = value
                    elif key == "fallback_policy":
                        values["fallback_policy"] = value
                    else:
                        raise ValueError(f"unknown key {key!r}")
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        return values

    def override(self, **kwargs) -> "RunConfig":
        """Replace the given fields; None values mean 'keep as is'."""
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return dataclasses.replace(self, **updates) if updates else self
