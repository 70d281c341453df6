"""Labour-market flow analytics.

Estimates cohort state shares and quarterly transition matrices from
rotating-panel microdata, and computes first-passage-time distributions and
expectations (the school-to-work horizon among them) on the resulting
chains. Ships the published transition tables for young Italians around the
2020 downturn as ready-made fixtures.
"""

from .errors import (
    EmptyCohortError,
    InfiniteEfptError,
    LmflowsError,
    NonStochasticError,
    PanelFormatError,
)
from .estimation import (
    FALLBACK_ABSORBING,
    FALLBACK_POLICIES,
    FALLBACK_UNIFORM,
    StateShareTable,
    ThinRowWarning,
    TransitionMatrix,
    apply_fallback_policy,
    compute_shares,
    estimate_transition_matrix,
    renormalize_rows,
)
from .fixtures import (
    EFPT_YEARS_REFERENCE,
    Fixture,
    fixture_names,
    get_fixture,
)
from .fpt import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_HORIZON,
    EfptResult,
    FptDistribution,
    WellDefinedness,
    check_well_defined,
    efpt_linear,
    efpt_series,
    fpt_cdf,
    fpt_distribution,
)
from .panel import (
    ObservationPair,
    PanelDataset,
    ParseReport,
    generate_synthetic_panel,
    parse_panel_file,
    write_pairs_csv,
)
from .states import (
    AGE_MAX,
    AGE_MIN,
    N_STATES,
    STATE_CODES,
    STATE_ORDER,
    AgeBand,
    CohortFilter,
    Demographics,
    LaborState,
    MacroRegion,
    QuarterId,
    Sex,
)
from .stochastic import ensure_row_stochastic

__version__ = "0.1.0"

__all__ = [
    "AGE_MAX",
    "AGE_MIN",
    "AgeBand",
    "CohortFilter",
    "DEFAULT_EPSILON",
    "DEFAULT_MAX_HORIZON",
    "Demographics",
    "EFPT_YEARS_REFERENCE",
    "EfptResult",
    "EmptyCohortError",
    "FALLBACK_ABSORBING",
    "FALLBACK_POLICIES",
    "FALLBACK_UNIFORM",
    "Fixture",
    "FptDistribution",
    "InfiniteEfptError",
    "LaborState",
    "LmflowsError",
    "MacroRegion",
    "N_STATES",
    "NonStochasticError",
    "ObservationPair",
    "PanelDataset",
    "PanelFormatError",
    "ParseReport",
    "QuarterId",
    "STATE_CODES",
    "STATE_ORDER",
    "Sex",
    "StateShareTable",
    "ThinRowWarning",
    "TransitionMatrix",
    "WellDefinedness",
    "apply_fallback_policy",
    "check_well_defined",
    "compute_shares",
    "efpt_linear",
    "efpt_series",
    "ensure_row_stochastic",
    "estimate_transition_matrix",
    "fixture_names",
    "fpt_cdf",
    "fpt_distribution",
    "generate_synthetic_panel",
    "get_fixture",
    "parse_panel_file",
    "renormalize_rows",
    "write_pairs_csv",
    "__version__",
]
