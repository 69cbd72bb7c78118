"""Seeded desk-scale simulation of two firms' information pipelines."""

from .corpus import (
    Corpus,
    Document,
    EMBED_DIM,
    embed,
    export_corpus,
    generate_corpus,
    tokenize,
)
from .runner import (
    LEGACY,
    MODERN,
    MonteCarloCell,
    MonteCarloResult,
    RunResult,
    ScalePoint,
    SensitivityCurve,
    SensitivityPoint,
    company_capacity,
    monte_carlo,
    run_docket,
    scalability_sweep,
    sensitivity_sweep,
)
from .scenario import (
    DEFAULT_SCENARIO_NAME,
    SimScenario,
    TaskSpec,
    default_scenario,
    load_scenario,
    parse_scenario,
)
from .search import keyword_search, semantic_search, simulated_verifier
