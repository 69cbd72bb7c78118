"""Doctrine-style classification of epistemic states.

Maps scores, certificates, and execution records onto five classifications:
actual knowledge (executed, certified, reliable), constructive knowledge
(achievable but not obtained), wilful blindness (a cheap near-certain test
deliberately avoided), recklessness (execution on poor or absent
certification), and negligence (low firm-wide capacity). Outputs are model
classifications of the epistemic process, not legal findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .metrics import PipelineSpec, PolicyParams, Proposition, _require, knowledge_predicate, org_score
from .validation import ValidationCertificate, lower_bound_score


class Verdict(str, Enum):
    ESTABLISHED = "established"
    REFUTED = "refuted"
    INCONCLUSIVE = "inconclusive"


class AvoidanceEvidence(str, Enum):
    NONE = "none"
    SUPPRESSED_QUERY = "suppressed_query"
    DISABLED_INDEX = "disabled_index"
    FILTERED_ALERTS = "filtered_alerts"
    SKIPPED_VALIDATION = "skipped_validation"


class Doctrine(str, Enum):
    ACTUAL_KNOWLEDGE = "actual_knowledge"
    CONSTRUCTIVE_KNOWLEDGE = "constructive_knowledge"
    WILFUL_BLINDNESS = "wilful_blindness"
    RECKLESSNESS = "recklessness"
    NEGLIGENCE = "negligence"


# Most culpable first among fault states, with actual knowledge leading
# because it is a state rather than a fault.
PRECEDENCE = (
    Doctrine.ACTUAL_KNOWLEDGE,
    Doctrine.WILFUL_BLINDNESS,
    Doctrine.RECKLESSNESS,
    Doctrine.CONSTRUCTIVE_KNOWLEDGE,
    Doctrine.NEGLIGENCE,
)


@dataclass(frozen=True, slots=True)
class ExecutionRecord:
    """What a firm actually did about one proposition with one pipeline."""

    pipeline_id: str
    proposition_id: str
    executed: bool
    certificate: ValidationCertificate | None = None
    outcome: Verdict | None = None
    avoidance_evidence: AvoidanceEvidence = AvoidanceEvidence.NONE
    timestamp: str = ""

    def __post_init__(self) -> None:
        if not self.executed and self.outcome is not None:
            raise ValueError("an unexecuted record cannot carry an outcome")


# Wilful blindness's "trivially cheap" and "near certain": a pipeline is a
# candidate for deliberate avoidance when its cost is at most
# CHEAPNESS_FACTOR * tau_star and its total error at most MAX_ERROR.
CHEAPNESS_FACTOR = 0.1
MAX_ERROR = 0.05
# Recklessness's "grossly poor": a lower-bound score more than this below theta_r.
RECKLESSNESS_MARGIN = 0.2
_Detail = dict[str, object]  # a finding's detail: what its doctrine compared and named


@dataclass(frozen=True, slots=True)
class DoctrineFinding:
    """The doctrines that apply to one proposition, each with its detail, in PRECEDENCE order."""

    proposition_id: str
    rationale: tuple[tuple[Doctrine, Mapping[str, object]], ...]

    @property
    def applicable(self) -> frozenset[Doctrine]:
        return frozenset(d for d, _ in self.rationale)

    @property
    def primary(self) -> Doctrine | None:
        return self.rationale[0][0] if self.rationale else None


def _actual(records: Sequence[ExecutionRecord], theta_ak: float, tau_star: float) -> _Detail | None:
    """Actual knowledge's detail for the first record that is executed, certified,
    conclusive and passing ``plug_in_test`` at theta_ak; None when no record is.

    An executed record without a certificate fails here; the certification
    gap is what ``_reckless`` picks up.
    """
    for r in records:
        if r.executed and r.certificate is not None and r.outcome is not Verdict.INCONCLUSIVE:
            s_lb = lower_bound_score(r.certificate, tau_star)
            if knowledge_predicate(s_lb, theta_ak):
                return {"pipeline_id": r.pipeline_id, "lower_bound_score": s_lb, "theta_ak": theta_ak}
    return None


def _constructive(score: float | None, theta_ck: float) -> _Detail | None:
    """Constructive knowledge's detail when knowledge was achievable (``knowledge_predicate``
    at theta_ck), None when not; whether it was also obtained is for ``_actual`` to say."""
    if score is None or not knowledge_predicate(score, theta_ck):
        return None
    return {"org_score": score, "theta_ck": theta_ck}


def _blind(
    available: Sequence[PipelineSpec], records: Sequence[ExecutionRecord], policy: PolicyParams
) -> _Detail | None:
    """Wilful blindness's detail for the smallest id among the cheap, near-certain
    pipelines of ``available`` that no record executed, when some record carries
    an avoidance flag; None when no record does or no such pipeline exists. Mere
    non-execution without avoidance evidence is at most constructive knowledge."""
    if all(r.avoidance_evidence is AvoidanceEvidence.NONE for r in records):
        return None
    ceiling = CHEAPNESS_FACTOR * policy.tau_star
    executed_ids = {r.pipeline_id for r in records if r.executed}
    cheap = [
        p
        for p in available
        if p.expected_cost <= ceiling and p.total_error() <= MAX_ERROR and p.id not in executed_ids
    ]
    if not cheap:
        return None
    first = min(cheap, key=lambda p: p.id)
    flags = sorted({r.avoidance_evidence.value for r in records} - {AvoidanceEvidence.NONE.value})
    return {
        "pipeline_id": first.id,
        "expected_cost": first.expected_cost,
        "cost_ceiling": ceiling,
        "total_error": first.total_error(),
        "max_error": MAX_ERROR,
        "avoidance_evidence": ",".join(flags),
    }


def _reckless(records: Sequence[ExecutionRecord], theta_r: float, tau_star: float) -> _Detail | None:
    """Recklessness's detail for the first executed record with no certificate, or with a
    lower-bound score more than RECKLESSNESS_MARGIN below theta_r; None when no record is."""
    for r in records:
        if r.executed:
            s_lb = None if r.certificate is None else lower_bound_score(r.certificate, tau_star)
            if s_lb is None or s_lb < theta_r - RECKLESSNESS_MARGIN:
                key, value = ("certificate", "absent") if s_lb is None else ("lower_bound_score", s_lb)
                return {"pipeline_id": r.pipeline_id, "theta_r": theta_r, "margin": RECKLESSNESS_MARGIN, key: value}
    return None


def negligence_test(capacity: float, theta_neg: float) -> bool:
    """Firm-wide capacity strictly below the reasonable-care threshold."""
    _require("capacity", capacity, 0, 1)
    return capacity < theta_neg


def classify(
    proposition: Proposition,
    available: Sequence[PipelineSpec],
    executions: Sequence[ExecutionRecord],
    policy: PolicyParams,
    capacity: float | None = None,
    score: float | None = None,
) -> DoctrineFinding:
    """Decide all five doctrines for one proposition.

    ``capacity`` is the firm-wide capacity index; without it negligence is not
    judged. ``score`` is ``org_score(available, policy)``, computed when omitted.
    Actual knowledge and recklessness name the first qualifying record in
    ``executions`` order; wilful blindness, the smallest cheap unexecuted id.
    """
    records = [r for r in executions if r.proposition_id == proposition.id]
    if score is None and available:
        score = org_score(available, policy)
    constructive = _constructive(score, policy.theta_ck)  # checks the score even when actual knowledge holds
    # Each doctrine is decided in PRECEDENCE order, so its finding is appended in place.
    found: list[tuple[Doctrine, Mapping[str, object]]] = []
    if (actual := _actual(records, policy.theta_ak, policy.tau_star)) is not None:
        found.append((Doctrine.ACTUAL_KNOWLEDGE, actual))
    if (blind := _blind(available, records, policy)) is not None:
        found.append((Doctrine.WILFUL_BLINDNESS, blind))
    if (reckless := _reckless(records, policy.theta_r, policy.tau_star)) is not None:
        found.append((Doctrine.RECKLESSNESS, reckless))
    if actual is None and constructive is not None:
        found.append((Doctrine.CONSTRUCTIVE_KNOWLEDGE, constructive))
    if capacity is not None and negligence_test(capacity, policy.theta_neg):
        found.append((Doctrine.NEGLIGENCE, {"capacity": capacity, "theta_neg": policy.theta_neg}))

    return DoctrineFinding(proposition.id, tuple(found))
