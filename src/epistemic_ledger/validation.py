"""Statistical validation layer: bounds, calibration, folds, certificates.

Observed error rates on held-out data are converted into conservative,
high-confidence upper bounds (Hoeffding or one-sided Wilson), collected per
pipeline component into a validation certificate, and combined into a
certified lower bound on the pipeline score. Calibration error, fold-aware
cross-validation, and complexity-penalized model selection provide the
supporting evidence trail.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_left
from contextlib import suppress
from dataclasses import dataclass
from datetime import date, datetime, timezone
from functools import cached_property, partial
from enum import Enum
from operator import attrgetter
from typing import Callable, Mapping, Sequence

from .metrics import (
    COMPONENTS,
    Docket,
    PipelineSpec,
    PolicyParams,
    _count,
    _require,
    capacity_index,
    discounted_score,
    knowledge_predicate,
    series_error,
)


class BoundMethod(str, Enum):
    HOEFFDING = "hoeffding"
    WILSON = "wilson"


class CertificationRefusedError(ValueError):
    """Raised when a pipeline component lacks evaluation data.

    An unvalidated component must never default to zero error; refusing the
    certificate is the only conservative option.
    """


@dataclass(frozen=True)
class LossRecord:
    """One held-out evaluation outcome with a bounded loss in [0, 1]."""

    predicted: object
    actual: object
    loss: float

    def __post_init__(self) -> None:
        _require("loss", self.loss, 0, 1)


def check_delta(delta: float) -> float:
    """``delta``, or a ValueError unless it lies in (0, 1)."""
    return _require("delta", delta, 0, 1, exclusive=True)


def check_sample_size(n: int) -> int:
    """``n``, or a ValueError unless it is a non-negative integer."""
    return _count("sample size", n, 0)


def check_text(text: str, field: str) -> str:
    """``text``, or a ValueError naming ``field`` unless it is one line without edge whitespace."""
    if text != text.strip() or len(text.splitlines()) > 1:
        raise ValueError(f"{field} must be one line without leading or trailing whitespace, got {text!r}")
    return text


# The audit report's frontier, certificates and rationale fields join pipeline
# ids with these, so an id holding one would blur where an id ends.
_BLURS_REPORT = re.compile(r"[\s;:=]")


def check_pipeline_id(text: str) -> str:
    """``text``, or a ValueError if it is empty or holds whitespace, ``;``, ``:`` or ``=``."""
    if not text:
        raise ValueError("a pipeline needs a non-empty id")
    if _BLURS_REPORT.search(text):
        raise ValueError(f"pipeline id {text!r} holds whitespace, ';', ':' or '='")
    return text


def check_timestamp(text: str) -> str:
    """``text``, or a ValueError unless ``date.isoformat()`` or ``datetime.isoformat()`` writes it:
    its ``fromisoformat`` must write it back unchanged, so every Python accepts the same set."""
    with suppress(ValueError):
        if (datetime if "T" in text else date).fromisoformat(text).isoformat() == text:
            return text
    raise ValueError(f"timestamp must be a date or date-time as isoformat() writes it, got {text!r}")


@dataclass(frozen=True)
class ConfidenceBound:
    """Point estimate plus a conservative one-sided upper bound.

    A bound with no samples is ``synthetic``: the zero bound of a component the pipeline lacks.
    """

    point_estimate: float
    upper: float
    method: BoundMethod
    delta: float
    sample_size: int

    def __post_init__(self) -> None:
        _require("point_estimate", self.point_estimate, 0, 1)
        _require("upper", self.upper, self.point_estimate, 1)
        check_delta(self.delta)
        check_sample_size(self.sample_size)

    @property
    def synthetic(self) -> bool:
        return self.sample_size == 0


@dataclass(frozen=True)
class ValidationCertificate:
    """Measured cost plus one conservative error upper bound per component.

    ``bounds`` are in ``COMPONENTS`` order. The total upper bound is the
    ``series_error`` of their uppers; with each bound holding at confidence
    1-delta, the joint statement holds at confidence >= 1 - ``union_delta``.
    It bounds the end-to-end error only if stage failures are independent or positively
    associated: three stages failing at 0.1 on disjoint inputs err 0.3, in series 0.271.
    """

    pipeline_id: str
    measured_cost: float
    bounds: tuple[ConfidenceBound, ...]
    delta: float
    fold_strategy: str
    timestamp: str

    def __post_init__(self) -> None:
        _require("measured_cost", self.measured_cost, 0)

    @cached_property
    def total_upper(self) -> float:
        return series_error(*(bound.upper for bound in self.bounds))

    @property
    def union_delta(self) -> float:
        return min(1.0, 3.0 * self.delta)


# Rational approximation to the standard normal quantile (Acklam's
# coefficients) followed by one Halley refinement through math.erfc; the
# refined result is accurate to well below the 1e-7 requirement.
_QA = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_QB = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_QC = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_QD = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_Q_SPLIT = 0.02425


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF on (0, 1)."""
    _require("quantile argument", p, 0, 1, exclusive=True)
    if _Q_SPLIT <= p <= 1.0 - _Q_SPLIT:
        q = p - 0.5
        r = q * q
        x = (
            ((((_QA[0] * r + _QA[1]) * r + _QA[2]) * r + _QA[3]) * r + _QA[4]) * r + _QA[5]
        ) * q / (((((_QB[0] * r + _QB[1]) * r + _QB[2]) * r + _QB[3]) * r + _QB[4]) * r + 1.0)
    else:
        # The tail rational of the nearer tail; the upper tail is its negation.
        q = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
        x = (
            ((((_QC[0] * q + _QC[1]) * q + _QC[2]) * q + _QC[3]) * q + _QC[4]) * q + _QC[5]
        ) / ((((_QD[0] * q + _QD[1]) * q + _QD[2]) * q + _QD[3]) * q + 1.0)
        if p > 0.5:
            x = -x
        elif p < sys.float_info.min:
            # erfc is subnormal here, and exp(x * x / 2) overflows below about
            # 5e-311, so the rational's value stands: it is within 1e-7.
            return x
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def empirical_risk(records: Sequence[LossRecord]) -> float:
    """Arithmetic mean of the recorded losses."""
    if not records:
        raise ValueError("empirical_risk requires at least one record")
    return sum(map(attrgetter("loss"), records)) / len(records)


def hoeffding_upper(risk: float, n: int, delta: float) -> ConfidenceBound:
    """Concentration upper bound: risk + sqrt(ln(1/delta) / (2n)), clamped to 1.

    The bound's own check rejects a ``risk`` outside [0, 1] as its point estimate.
    """
    _count("sample size", n, 1)
    check_delta(delta)
    # 1 / delta is inf below about 5.56e-309; there -ln(delta) gives the finite log.
    log_inverse = math.log(1.0 / delta) if 1.0 / delta < math.inf else -math.log(delta)
    upper = min(1.0, risk + math.sqrt(log_inverse / (2.0 * n)))
    return ConfidenceBound(risk, upper, BoundMethod.HOEFFDING, delta, n)


def wilson_upper(successes: int, n: int, delta: float) -> ConfidenceBound:
    """One-sided Wilson score upper limit at confidence 1 - delta.

    Tighter than the concentration bound at small observed rates; the
    "successes" here are the error events being bounded.
    """
    _count("sample size", n, 1)
    _count("successes", successes, 0, n)
    check_delta(delta)
    # 1 - delta rounds to 1 for delta <= 2**-54; the lower tail holds delta exactly.
    z = -normal_quantile(delta) if 1.0 - delta == 1.0 else normal_quantile(1.0 - delta)
    p_hat = successes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n))
    upper = min(1.0, max(p_hat, center + half))
    return ConfidenceBound(p_hat, upper, BoundMethod.WILSON, delta, n)


def confidence_bound(method: BoundMethod, point: float, n: int, delta: float) -> ConfidenceBound:
    """The bound ``method`` gives a component whose ``n`` losses average ``point``.

    ``certify`` and ``artifacts.read_certificate`` build every bound here.
    ``n = 0`` gives the synthetic zero bound, which needs ``point = 0``; for
    Wilson, ``point`` must be ``k / n`` for a whole error count ``k``.
    """
    if n == 0:
        if point != 0.0:
            raise ValueError(f"a bound with no samples must have point 0, got {point}")
        return ConfidenceBound(0.0, 0.0, method, delta, 0)
    if method is BoundMethod.WILSON:
        k = round(point * n)
        if k / n != point:
            raise ValueError(f"a wilson point must be k/n for a whole k, got {point} with n={n}")
        return wilson_upper(k, n, delta)
    return hoeffding_upper(point, n, delta)


def _runs(n: int, k: int) -> list[int]:
    """The k + 1 cuts that split n items into k runs whose sizes differ by at most one, larger runs first."""
    base, extra = divmod(n, k)
    return [j * base + min(j, extra) for j in range(k + 1)]


@dataclass(frozen=True)
class _Binning:
    bins: int = 10
    _kind = ""

    def __post_init__(self) -> None:
        _count("bin count", self.bins, 1)

    def describe(self) -> str:
        return f"{self._kind}({self.bins})"


class EqualWidth(_Binning):
    _kind = "equal_width"


class EqualMass(_Binning):
    _kind = "equal_mass"


@dataclass(frozen=True)
class CalibrationReport:
    counts: tuple[int, ...]  # predictions per bin, in bin order
    ece: float
    binning: str

    @property
    def total(self) -> int:
        return sum(self.counts)


def ece(
    predictions: Sequence[tuple[float, bool]],
    binning: EqualWidth | EqualMass = EqualWidth(10),
) -> CalibrationReport:
    """Expected calibration error: count-weighted mean |accuracy - confidence|.

    Predictions are (confidence, correct) pairs; empty bins contribute
    nothing. Each bin is a run of the sorted predictions, whose order makes
    the result bitwise invariant under permutation: equal-width bin k holds
    those with ``min(int(conf * m), m - 1) == k``, and equal-mass runs differ
    in size by at most one.
    """
    if not predictions:
        raise ValueError("ece requires at least one prediction")
    for conf, _ in predictions:
        _require("confidence", conf, 0, 1)

    m, n = binning.bins, len(predictions)
    ordered = sorted(predictions)
    if isinstance(binning, EqualWidth):
        cuts = [
            bisect_left(ordered, k, key=lambda pair: min(int(pair[0] * m), m - 1)) for k in range(m + 1)
        ]
    else:
        cuts = _runs(n, m)
    groups = [ordered[start:stop] for start, stop in zip(cuts, cuts[1:])]

    total_gap = 0.0
    for chunk in groups:
        if chunk:
            mean_conf = sum(c for c, _ in chunk) / len(chunk)
            mean_acc = sum(1.0 for _, ok in chunk if ok) / len(chunk)
            total_gap += (len(chunk) / n) * abs(mean_acc - mean_conf)
    return CalibrationReport(tuple(map(len, groups)), total_gap, binning.describe())


@dataclass(frozen=True)
class KFold:
    k: int
    shuffle_seed: int | None = None

    def describe(self) -> str:
        return f"kfold({self.k})"


@dataclass(frozen=True)
class RollingWindow:
    train_size: int
    test_size: int
    step: int

    def describe(self) -> str:
        return f"rolling_window({self.train_size},{self.test_size},{self.step})"


@dataclass(frozen=True)
class Grouped:
    k: int

    def describe(self) -> str:
        return f"grouped({self.k})"


@dataclass(frozen=True)
class Fold:
    fold_id: int
    train: tuple[int, ...]
    test: tuple[int, ...]


@dataclass(frozen=True)
class FoldPlan:
    strategy: str
    folds: tuple[Fold, ...]


def make_folds(
    n: int,
    strategy: KFold | RollingWindow | Grouped,
    keys: Sequence[object] | None = None,
) -> FoldPlan:
    """Build a deterministic fold plan over record indices 0..n-1.

    ``keys`` supplies group labels for the grouped strategy and, optionally,
    time keys (checked monotone) for rolling windows.
    """
    _count("dataset size", n, 1)

    if isinstance(strategy, KFold):
        _count("kfold k", strategy.k, 2, n)
        order = list(range(n))
        if strategy.shuffle_seed is not None:
            import random

            random.Random(int(_count("kfold shuffle_seed", strategy.shuffle_seed, 0))).shuffle(order)  # a numpy int too
        cuts = _runs(n, strategy.k)
        splits = [(order[:a] + order[b:], order[a:b]) for a, b in zip(cuts, cuts[1:])]
    elif isinstance(strategy, RollingWindow):
        for name in ("train_size", "test_size", "step"):
            _count(f"rolling window {name}", getattr(strategy, name), 1)
        if keys is not None:
            if len(keys) != n:
                raise ValueError(f"expected {n} time keys, got {len(keys)}")
            if any(b < a for a, b in zip(keys, keys[1:])):  # type: ignore[operator]
                raise ValueError("time keys must be monotone non-decreasing")
        width = strategy.train_size + strategy.test_size
        splits = [
            (range(start, start + strategy.train_size), range(start + strategy.train_size, start + width))
            for start in range(0, n - width + 1, strategy.step)
        ]
        if not splits:
            raise ValueError(f"no rolling window fits: n={n} < train+test={width}")
    elif isinstance(strategy, Grouped):
        if keys is None or len(keys) != n:
            raise ValueError("grouped folds require one group key per record")
        members: dict[str, list[int]] = {}
        for i, key in enumerate(keys):
            members.setdefault(str(key), []).append(i)
        # k folds need at least k groups.
        _count("grouped k", strategy.k, 2, len(members))
        # Largest groups first, each into the smallest fold, the lowest-numbered on a tie.
        tests: list[list[int]] = [[] for _ in range(strategy.k)]
        for label in sorted(members, key=lambda g: (-len(members[g]), g)):
            min(tests, key=len).extend(members[label])
        everything = set(range(n))
        splits = [(sorted(everything.difference(test)), sorted(test)) for test in tests]
    else:
        raise TypeError(f"unknown fold strategy: {strategy!r}")
    return FoldPlan(
        strategy.describe(),
        tuple(Fold(j, tuple(train), tuple(test)) for j, (train, test) in enumerate(splits)),
    )


Trainer = Callable[[Sequence[tuple[object, object]]], Callable[[object], object]]


@dataclass(frozen=True)
class ModelCandidate:
    """A trainable predictor plus its complexity.

    ``trainer`` maps a training subset to a predict callable.
    """

    id: str
    trainer: Trainer
    complexity: float

    def __post_init__(self) -> None:
        _require("complexity", self.complexity, 0)


def cv_risk(
    dataset: Sequence[tuple[object, object]],
    plan: FoldPlan,
    candidate: ModelCandidate,
    trains: list[list[tuple[object, object]]] | None = None,
) -> float:
    """Cross-validated 0/1 risk with equal per-fold weight.

    Each fold's model is trained on that fold's train indices and evaluated
    on its test indices; the fold means are then averaged with weight 1/K
    regardless of fold size. Folds are evaluated in fold-id order so results
    are bitwise reproducible. ``trains`` keeps each fold's train records, in
    that order, for later calls on the same dataset and plan; a trainer gets a copy.
    """
    if not plan.folds:
        raise ValueError("fold plan has no folds")
    n = len(dataset)
    trains = [] if trains is None else trains
    fold_risks = []
    for j, fold in enumerate(sorted(plan.folds, key=lambda f: f.fold_id)):
        if not fold.test:
            raise ValueError(f"fold {fold.fold_id} has no test records")
        if j == len(trains):
            if fold.train and not (0 <= min(fold.train) and max(fold.train) < n):
                i = next(i for i in fold.train if not 0 <= i < n)
                raise ValueError(f"fold {fold.fold_id} train index {i} is outside 0..{n - 1}")
            trains.append([dataset[i] for i in fold.train])
        try:
            predict = candidate.trainer(list(trains[j]))
        except Exception as exc:
            raise RuntimeError(
                f"trainer for candidate {candidate.id} failed on fold {fold.fold_id}"
            ) from exc
        wrong = 0
        for i in fold.test:
            if not 0 <= i < n:
                raise ValueError(f"fold {fold.fold_id} test index {i} is outside 0..{n - 1}")
            x, y = dataset[i]
            if not predict(x) == y:
                wrong += 1
        fold_risks.append(wrong / len(fold.test))
    return sum(fold_risks) / len(fold_risks)


def penalized_select(
    candidates: Sequence[ModelCandidate],
    dataset: Sequence[tuple[object, object]],
    plan: FoldPlan,
    lam: float,
) -> ModelCandidate:
    """Pick the candidate minimising cv_risk + lam * complexity.

    Ties go to the smaller complexity, then the lexicographically smaller id.
    """
    if not candidates:
        raise ValueError("penalized_select requires at least one candidate")
    _require("lambda", lam, 0)
    risk = partial(cv_risk, dataset, plan, trains=[])  # the folds' train records, built once for all
    return min(candidates, key=lambda c: (risk(c) + lam * c.complexity, c.complexity, c.id))


def certify(
    pipeline: PipelineSpec,
    eval_sets: Mapping[str, Sequence[LossRecord]],
    measured_cost: float,
    delta: float,
    method: BoundMethod = BoundMethod.WILSON,
    fold_strategy: str = "holdout",
    timestamp: str | None = None,
) -> ValidationCertificate:
    """Issue a validation certificate from per-component evaluation records.

    Every component the pipeline kind includes must come with at least one
    record; otherwise certification is refused. Components the kind excludes
    get the synthetic zero bound. Each bound is ``confidence_bound`` of the
    component's empirical risk and record count. The pipeline's id must pass
    ``check_pipeline_id``, ``fold_strategy`` ``check_text``, and ``timestamp``
    (now, if not given) ``check_timestamp``.
    """
    check_pipeline_id(pipeline.id)
    check_delta(delta)
    check_text(fold_strategy, "fold_strategy")
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    check_timestamp(timestamp)
    bounds = []
    for slot in COMPONENTS:
        if slot not in pipeline.kind.components:
            bounds.append(confidence_bound(method, 0.0, 0, delta))
            continue
        records = eval_sets.get(slot)
        if not records:
            raise CertificationRefusedError(
                f"pipeline {pipeline.id}: no evaluation records for component "
                f"'{slot}'; an unvalidated component cannot be certified"
            )
        if method is BoundMethod.WILSON and not all(map((0.0, 1.0).__contains__, map(attrgetter("loss"), records))):
            raise ValueError(
                f"component '{slot}' has non-binary losses; the Wilson "
                "bound needs 0/1 losses (use hoeffding instead)"
            )
        bounds.append(confidence_bound(method, empirical_risk(records), len(records), delta))
    return ValidationCertificate(
        pipeline.id, measured_cost, tuple(bounds), delta, fold_strategy, timestamp
    )


def lower_bound_score(cert: ValidationCertificate, tau_star: float) -> float:
    """Certified lower bound on the pipeline score, at confidence 1 - ``union_delta``.

    Each component bound holds at 1 - delta; by the union bound, the total at 1 - min(1, 3 delta),
    if stage failures are independent or positively associated (see ``ValidationCertificate``).
    """
    return discounted_score(cert.measured_cost, cert.total_upper, tau_star)


def plug_in_test(cert: ValidationCertificate, theta_c: float, tau_star: float) -> bool:
    """High-confidence knowledge test: certified lower-bound score >= theta."""
    return knowledge_predicate(lower_bound_score(cert, tau_star), theta_c)


def lower_bound_capacity(
    docket: Docket,
    certs: Mapping[str, Sequence[ValidationCertificate]],
    policy: PolicyParams,
) -> float:
    """``capacity_index`` over each proposition's best certified lower-bound score.

    Propositions with no certificates contribute 0. While every certificate
    read holds, the index is at most the capacity over the certified
    pipelines' true scores; by the union bound, that is at confidence at
    least 1 - the sum of ``union_delta`` over the distinct certificates read.
    """
    best = {
        p.id: max(lower_bound_score(c, policy.tau_star) for c in certs[p.id])
        for p in docket.propositions
        if certs.get(p.id)
    }
    return capacity_index(docket, best)
