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
from .validation import ValidationCertificate, lower_bound_score, plug_in_test


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


def actual_knowledge_test(
    record: ExecutionRecord, theta_ak: float, tau_star: float
) -> bool:
    """Executed, certified, conclusive, and passing ``plug_in_test`` at theta_ak.

    An executed record without a certificate fails here; the certification
    gap is what the recklessness test picks up.
    """
    if not record.executed or record.certificate is None or record.outcome is Verdict.INCONCLUSIVE:
        return False
    return plug_in_test(record.certificate, theta_ak, tau_star)


def constructive_knowledge_test(
    score: float | None, executions: Sequence[ExecutionRecord], policy: PolicyParams
) -> bool:
    """Knowledge was achievable (``knowledge_predicate`` at theta_ck) but not obtained.

    ``score`` is the org score of the proposition's pipelines, None when it has none.
    """
    if score is None or not knowledge_predicate(score, policy.theta_ck):
        return False
    return not any(
        actual_knowledge_test(r, policy.theta_ak, policy.tau_star) for r in executions
    )


def _cheap_unexecuted(
    available: Sequence[PipelineSpec],
    records: Sequence[ExecutionRecord],
    policy: PolicyParams,
) -> list[PipelineSpec]:
    """The cheap, near-certain pipelines of ``available`` that no record executed."""
    executed_ids = {r.pipeline_id for r in records if r.executed}
    return [
        p
        for p in available
        if p.expected_cost <= CHEAPNESS_FACTOR * policy.tau_star
        and p.total_error() <= MAX_ERROR
        and p.id not in executed_ids
    ]


def wilful_blindness_test(
    available: Sequence[PipelineSpec],
    executions: Sequence[ExecutionRecord],
    policy: PolicyParams,
) -> bool:
    """A cheap, near-certain pipeline went unexecuted amid avoidance evidence.

    Both conditions are required: capability (such a pipeline exists and was
    not run) and deliberateness (some record carries an avoidance flag).
    Mere non-execution without avoidance evidence is at most constructive
    knowledge.
    """
    deliberate = any(
        r.avoidance_evidence is not AvoidanceEvidence.NONE for r in executions
    )
    return deliberate and bool(_cheap_unexecuted(available, executions, policy))


def recklessness_test(record: ExecutionRecord, theta_r: float, tau_star: float) -> bool:
    """Executed despite a grossly poor certificate, or with none at all."""
    if not record.executed:
        raise ValueError("recklessness_test applies only to executed records")
    if record.certificate is None:
        return True
    return lower_bound_score(record.certificate, tau_star) < theta_r - RECKLESSNESS_MARGIN


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
    """Run all five doctrine tests for one proposition.

    ``capacity`` is the firm-wide capacity index; without it negligence is not
    judged. ``score`` is ``org_score(available, policy)``, computed when omitted.
    Actual knowledge and recklessness name the first qualifying record in
    ``executions`` order; wilful blindness, the smallest cheap unexecuted id.
    """
    records = [r for r in executions if r.proposition_id == proposition.id]
    if score is None and available:
        score = org_score(available, policy)
    # The tests run in PRECEDENCE order, so each finding is appended in place.
    found: list[tuple[Doctrine, Mapping[str, object]]] = []

    actual = next(
        (r for r in records if actual_knowledge_test(r, policy.theta_ak, policy.tau_star)), None
    )
    if actual is not None:
        found.append((Doctrine.ACTUAL_KNOWLEDGE, {
            "pipeline_id": actual.pipeline_id,
            "lower_bound_score": lower_bound_score(
                actual.certificate, policy.tau_star  # type: ignore[arg-type]
            ),
            "theta_ak": policy.theta_ak,
        }))

    if wilful_blindness_test(available, records, policy):
        cheap = min(_cheap_unexecuted(available, records, policy), key=lambda p: p.id)
        flags = sorted({r.avoidance_evidence.value for r in records} - {AvoidanceEvidence.NONE.value})
        found.append((Doctrine.WILFUL_BLINDNESS, {
            "pipeline_id": cheap.id,
            "expected_cost": cheap.expected_cost,
            "cost_ceiling": CHEAPNESS_FACTOR * policy.tau_star,
            "total_error": cheap.total_error(),
            "max_error": MAX_ERROR,
            "avoidance_evidence": ",".join(flags),
        }))

    reckless = next(
        (r for r in records if r.executed and recklessness_test(r, policy.theta_r, policy.tau_star)),
        None,
    )
    if reckless is not None:
        detail = {
            "pipeline_id": reckless.pipeline_id,
            "theta_r": policy.theta_r,
            "margin": RECKLESSNESS_MARGIN,
        }
        if reckless.certificate is None:
            detail["certificate"] = "absent"
        else:
            detail["lower_bound_score"] = lower_bound_score(reckless.certificate, policy.tau_star)
        found.append((Doctrine.RECKLESSNESS, detail))

    # No records: actual knowledge, which that test would look for in them, was decided above.
    if actual is None and constructive_knowledge_test(score, (), policy):
        found.append((Doctrine.CONSTRUCTIVE_KNOWLEDGE, {"org_score": score, "theta_ck": policy.theta_ck}))

    if capacity is not None and negligence_test(capacity, policy.theta_neg):
        found.append((Doctrine.NEGLIGENCE, {"capacity": capacity, "theta_neg": policy.theta_neg}))

    return DoctrineFinding(proposition.id, tuple(found))
