"""Scoring, validation certificates, and doctrine classification for
information pipelines, with a seeded two-firm simulation lab.

The simulation lab, ``simlab``, needs numpy and the ledger does not, so it is
imported when ``epistemic_ledger.simlab`` is first read.
"""

from . import doctrine, metrics, validation
from .metrics import (
    ComponentErrors,
    Docket,
    PipelineKind,
    PipelineSpec,
    PolicyParams,
    Proposition,
    capacity_index,
    efficiency,
    epistemic_frontier,
    knowledge_predicate,
    org_score,
    pipeline_score,
    total_error,
)
from .validation import (
    BoundMethod,
    ValidationCertificate,
    certify,
    lower_bound_capacity,
    lower_bound_score,
    plug_in_test,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "simlab":
        import importlib

        return importlib.import_module(".simlab", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
