"""Deterministic cost/error scoring for information pipelines.

Everything in this module is a pure function of its (immutable) inputs, and
each scoring rule of the paper is written here once. ``COMPONENTS`` lists a
pipeline's stages and ``PipelineKind.components`` the prefix a kind runs.
``series_error`` composes stage errors into a total, 1 - prod(1 - e), and
``discounted_score`` discounts 1 - error by the hyperbolic ``efficiency`` of a
cost: the point score, and in ``validation`` the certified lower bound.
Organisation-level scores take the best pipeline available, a thresholded
predicate turns the score into a yes/no knowledge call, and a weighted
capacity index aggregates those calls over a docket of propositions. The
index reads one score per proposition, computed once by its caller; over best
certified lower-bound scores it is the certified capacity. The cost-error
Pareto frontier of a pipeline set is exposed for audit output.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence


COMPONENTS = ("retrieval", "generation", "verification")
_FLOAT_MAX = sys.float_info.max


class PipelineKind(str, Enum):
    """What a pipeline runs; each member runs one more of ``COMPONENTS``."""

    RETRIEVAL_ONLY = "retrieval_only"
    RETRIEVAL_GENERATION = "retrieval_generation"
    FULL = "full"

    @property
    def components(self) -> tuple[str, ...]:
        """The prefix of ``COMPONENTS`` this kind runs."""
        return COMPONENTS[: tuple(PipelineKind).index(self) + 1]


class UnsupportedCompositionError(ValueError):
    """Raised when two pipeline stages cannot be merged slot-wise."""


def _require(
    name: str, value: float, low: float = -math.inf, high: float = math.inf, *, exclusive: bool = False
) -> float:
    """``value`` as a float if it is finite and in [low, high], or in (low, high)
    when ``exclusive``; else a ValueError that names it and the interval. An
    int beyond float range is outside every interval."""
    try:
        number = float(value)
    except OverflowError:
        number = math.nan
    if (low < number < high) if exclusive else (low <= number <= high and math.isfinite(number)):
        return number
    if high == math.inf:
        raise ValueError(f"{name} must be {'>' if exclusive else '>='} {low}, got {value}")
    ends = "()" if exclusive else "[]"
    raise ValueError(f"{name} must lie in {ends[0]}{low}, {high}{ends[1]}, got {value}")


def _count(name: str, value: int, low: float, high: float = math.inf) -> int:
    """``value`` if ``_require`` accepts it in [low, high] and it is an integer; else a ValueError."""
    _require(name, value, low, high)
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value}")
    return value


@dataclass(frozen=True, slots=True)
class Proposition:
    """A weighted, thresholded fact a firm may be asked about.

    ``salience_weight`` sets the proposition's share of the capacity index;
    ``threshold`` is the per-proposition score level that counts as knowing.
    """

    id: str
    description: str = ""
    salience_weight: float = 1.0
    threshold: float = 0.7

    def __post_init__(self) -> None:
        _require("salience_weight", self.salience_weight, 0)
        _require("threshold", self.threshold, 0, 1, exclusive=True)


@dataclass(frozen=True)
class ComponentErrors:
    """Per-stage error rates: retrieval miss, generation, verification."""

    retrieval: float = 0.0
    generation: float = 0.0
    verification: float = 0.0

    def __post_init__(self) -> None:
        for name in COMPONENTS:
            _require(name, getattr(self, name), 0, 1)


@dataclass(frozen=True)
class PipelineSpec:
    """One admissible information pipeline: stages, error rates, expected cost.

    ``joint_error`` overrides the independence composition with an
    empirically measured end-to-end error; when set, total-error queries use
    it verbatim.
    """

    id: str
    kind: PipelineKind
    expected_cost: float
    errors: ComponentErrors = field(default_factory=ComponentErrors)
    joint_error: float | None = None

    def __post_init__(self) -> None:
        _require("expected_cost", self.expected_cost, 0)
        if self.joint_error is not None:
            _require("joint_error", self.joint_error, 0, 1)
        if self.kind is PipelineKind.RETRIEVAL_ONLY and self.errors.generation != 0.0:
            raise ValueError(
                "generation must be 0 for a retrieval_only pipeline, "
                f"got {self.errors.generation}"
            )

    def total_error(self) -> float:
        return self._total_error

    @cached_property
    def _total_error(self) -> float:
        # Worked out once: a spec is immutable, and every proposition listing it shares it.
        # cached_property stores into the instance __dict__, so the spec is not slotted.
        return total_error(self.errors, self.joint_error)


@dataclass(frozen=True)
class PolicyParams:
    """Reference time scale, confidence level, and decision thresholds."""

    tau_star: float = 10.0
    theta_c: float = 0.7
    delta: float = 0.05
    theta_ak: float = 0.7
    theta_ck: float = 0.7
    theta_r: float = 0.7
    theta_neg: float = 0.7

    def __post_init__(self) -> None:
        _require("tau_star", self.tau_star, 0, exclusive=True)
        for name in ("theta_c", "delta", "theta_ak", "theta_ck", "theta_r", "theta_neg"):
            _require(name, getattr(self, name), 0, 1, exclusive=True)


@dataclass(frozen=True, slots=True)
class FrontierPoint:
    cost: float
    total_error: float
    pipeline_id: str


@dataclass(frozen=True)
class Docket:
    """Propositions under audit, each with the pipelines available for it.

    A docket used for capacity computations must carry a positive, finite
    total weight; that is checked where the index is computed so the
    zero-weight and overflowing cases surface as domain errors there.
    """

    propositions: tuple[Proposition, ...]
    pipeline_sets: Mapping[str, tuple[PipelineSpec, ...]]

    def total_weight(self) -> float:
        return sum(p.salience_weight for p in self.propositions)


def series_error(*errors: float) -> float:
    """1 - prod(1 - e): independent stages run in series, multiplied left to right."""
    ok = 1.0
    for error in errors:
        ok *= 1.0 - error
    return 1.0 - ok


def total_error(errors: ComponentErrors, joint_error: float | None = None) -> float:
    """End-to-end failure probability of a pipeline.

    Under independence the stages compose in series over ``COMPONENTS``. A
    supplied empirical joint error is returned verbatim instead.
    """
    if joint_error is not None:
        return _require("joint_error", joint_error, 0, 1)
    return series_error(errors.retrieval, errors.generation, errors.verification)


def efficiency(cost: float, tau_star: float) -> float:
    """Hyperbolic cost discount 1 / (1 + cost / tau_star), in (0, 1]."""
    # Inline on the hot path: the scorer calls this once per pipeline scored. An int
    # beyond the largest float fails the test too, so _require refuses it.
    if not (0.0 < tau_star <= _FLOAT_MAX and 0.0 <= cost <= _FLOAT_MAX):
        _require("tau_star", tau_star, 0, exclusive=True)
        _require("cost", cost, 0)
    return 1.0 / (1.0 + cost / tau_star)


def discounted_score(cost: float, error: float, tau_star: float) -> float:
    """Efficiency-discounted reliability efficiency(cost, tau_star) * (1 - error), in [0, 1]."""
    return efficiency(cost, tau_star) * (1.0 - error)


def pipeline_score(pipeline: PipelineSpec, policy: PolicyParams) -> float:
    """``discounted_score`` of a pipeline's expected cost and total error."""
    return discounted_score(pipeline.expected_cost, pipeline.total_error(), policy.tau_star)


def best_pipeline(
    pipelines: Sequence[PipelineSpec], policy: PolicyParams
) -> tuple[PipelineSpec, float]:
    """The pipeline attaining the organisational score, with that score.

    Ties are broken toward the lexicographically smallest pipeline id so the
    attaining pipeline is deterministic.
    """
    if not pipelines:
        raise ValueError("org_score is undefined for an empty pipeline set")
    winner, best = pipelines[0], pipeline_score(pipelines[0], policy)
    for p in pipelines[1:]:
        score = pipeline_score(p, policy)
        if score > best or (score == best and p.id < winner.id):
            winner, best = p, score
    return winner, best


def org_score(pipelines: Sequence[PipelineSpec], policy: PolicyParams) -> float:
    """Best achievable pipeline score over a finite, non-empty pipeline set."""
    return best_pipeline(pipelines, policy)[1]


def knowledge_predicate(score: float, theta_c: float) -> bool:
    """K_S: True when the score meets the context threshold (>=); every such test calls this."""
    # Inline on the hot path, as in efficiency: NaN, +-inf and an int beyond the
    # largest float fail the test too, so _require refuses them.
    if not (0.0 <= score <= 1.0 and 0.0 < theta_c < 1.0):
        _require("score", score, 0, 1)
        _require("theta_c", theta_c, 0, 1, exclusive=True)
    return score >= theta_c


def capacity_index(docket: Docket, scores: Mapping[str, float | None]) -> float:
    """Weighted share of the docket's propositions whose score meets their threshold.

    ``scores`` holds one score per proposition id, computed once by the
    caller: the org score for the point index, the best certified lower-bound
    score for the certified index. An absent or None score counts as 0, so
    the index is total over the docket.
    """
    total_w = _require("total salience weight", docket.total_weight(), 0, exclusive=True)
    hit = 0.0
    for prop in docket.propositions:
        if knowledge_predicate(scores.get(prop.id) or 0.0, prop.threshold):
            hit += prop.salience_weight
    return hit / total_w


def _runs(p: PipelineSpec) -> set[str]:
    """The components ``p`` runs: those of its kind, and any with a nonzero error."""
    return {c for c in COMPONENTS if c in p.kind.components or getattr(p.errors, c) > 0.0}


def compose(first: PipelineSpec, second: PipelineSpec) -> PipelineSpec:
    """Run ``first`` then ``second`` as one pipeline.

    Costs add; each component's errors compose with ``series_error``. Two
    generation-running stages cannot be merged when either carries an
    empirical joint error, because the joint measurement cannot be split
    back into components. The kind is the first whose components cover
    every component either stage runs.
    """
    runs = _runs(first), _runs(second)
    any_joint = first.joint_error is not None or second.joint_error is not None
    if "generation" in runs[0] & runs[1] and any_joint:
        raise UnsupportedCompositionError(
            "cannot compose two generation stages when either declares an "
            "empirical joint error"
        )
    errors = ComponentErrors(
        **{c: series_error(getattr(first.errors, c), getattr(second.errors, c)) for c in COMPONENTS}
    )
    joint = series_error(first.total_error(), second.total_error()) if any_joint else None
    return PipelineSpec(
        id=f"{first.id}>{second.id}",
        kind=next(k for k in PipelineKind if runs[0] | runs[1] <= set(k.components)),
        expected_cost=first.expected_cost + second.expected_cost,
        errors=errors,
        joint_error=joint,
    )


def epistemic_frontier(pipelines: Sequence[PipelineSpec]) -> list[FrontierPoint]:
    """Pareto-minimal (cost, total error) set, sorted by ascending cost.

    Exact ties on both coordinates keep the lexicographically smallest
    pipeline id; dominated points are dropped.
    """
    if not pipelines:
        raise ValueError("epistemic_frontier requires a non-empty pipeline set")
    return [
        FrontierPoint(p.expected_cost, p.total_error(), p.id)
        for p in _pareto(sorted(pipelines, key=_frontier_key))
    ]


def _frontier_key(p: PipelineSpec) -> tuple[float, float, str]:
    """The frontier's order: ascending cost, then total error, then id."""
    return p.expected_cost, p.total_error(), p.id


def _pareto(ordered: Iterable[PipelineSpec]) -> Iterator[PipelineSpec]:
    """The frontier of pipelines given in ``_frontier_key`` order: each that lowers the
    least total error so far, so exact ties keep the smallest id."""
    best_error = math.inf
    for p in ordered:
        if (error := p.total_error()) < best_error:
            best_error = error
            yield p
