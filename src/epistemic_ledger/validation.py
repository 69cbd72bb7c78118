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
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from enum import Enum
from typing import Callable, Mapping, Sequence

from .metrics import (
    COMPONENTS,
    Docket,
    PipelineSpec,
    PolicyParams,
    _require,
    capacity_index,
    discounted_score,
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


def zero_one(predicted: object, actual: object) -> float:
    return 0.0 if predicted == actual else 1.0


def check_delta(delta: float) -> float:
    """``delta``, or a ValueError unless it lies in (0, 1)."""
    return _require("delta", delta, 0, 1, exclusive=True)


def check_sample_size(n: int) -> int:
    """``n``, or a ValueError if it is negative."""
    _require("sample size", n, 0)
    return n


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
    if p < _Q_SPLIT:
        q = math.sqrt(-2.0 * math.log(p))
        x = (
            ((((_QC[0] * q + _QC[1]) * q + _QC[2]) * q + _QC[3]) * q + _QC[4]) * q + _QC[5]
        ) / ((((_QD[0] * q + _QD[1]) * q + _QD[2]) * q + _QD[3]) * q + 1.0)
    elif p <= 1.0 - _Q_SPLIT:
        q = p - 0.5
        r = q * q
        x = (
            ((((_QA[0] * r + _QA[1]) * r + _QA[2]) * r + _QA[3]) * r + _QA[4]) * r + _QA[5]
        ) * q / (((((_QB[0] * r + _QB[1]) * r + _QB[2]) * r + _QB[3]) * r + _QB[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(
            ((((_QC[0] * q + _QC[1]) * q + _QC[2]) * q + _QC[3]) * q + _QC[4]) * q + _QC[5]
        ) / ((((_QD[0] * q + _QD[1]) * q + _QD[2]) * q + _QD[3]) * q + 1.0)
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def empirical_risk(records: Sequence[LossRecord]) -> float:
    """Arithmetic mean of the recorded losses."""
    if not records:
        raise ValueError("empirical_risk requires at least one record")
    return sum(r.loss for r in records) / len(records)


def hoeffding_upper(risk: float, n: int, delta: float) -> ConfidenceBound:
    """Concentration upper bound: risk + sqrt(ln(1/delta) / (2n)), clamped to 1.

    The bound's own check rejects a ``risk`` outside [0, 1] as its point estimate.
    """
    _require("sample size", n, 1)
    check_delta(delta)
    upper = min(1.0, risk + math.sqrt(math.log(1.0 / delta) / (2.0 * n)))
    return ConfidenceBound(risk, upper, BoundMethod.HOEFFDING, delta, n)


def wilson_upper(successes: int, n: int, delta: float) -> ConfidenceBound:
    """One-sided Wilson score upper limit at confidence 1 - delta.

    Tighter than the concentration bound at small observed rates; the
    "successes" here are the error events being bounded.
    """
    _require("sample size", n, 1)
    _require("successes", successes, 0, n)
    check_delta(delta)
    z = normal_quantile(1.0 - delta)
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


@dataclass(frozen=True)
class _Binning:
    bins: int = 10
    _kind = ""

    def __post_init__(self) -> None:
        _require("bin count", self.bins, 1)

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
    nothing. Equal-mass binning sorts by confidence and splits into chunks
    whose sizes differ by at most one.
    """
    if not predictions:
        raise ValueError("ece requires at least one prediction")
    for conf, _ in predictions:
        _require("confidence", conf, 0, 1)

    m, n = binning.bins, len(predictions)
    if isinstance(binning, EqualWidth):
        groups: list[list[tuple[float, bool]]] = [[] for _ in range(m)]
        for conf, correct in predictions:
            groups[min(int(conf * m), m - 1)].append((conf, correct))
        # Fixed summation order inside each bin keeps the result bitwise
        # invariant under permutation of the input.
        for chunk in groups:
            chunk.sort()
    else:
        ordered = sorted(predictions)
        base, extra = divmod(n, m)
        cuts = [k * base + min(k, extra) for k in range(m + 1)]
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
    _require("dataset size", n, 1)

    if isinstance(strategy, KFold):
        _require("kfold k", strategy.k, 2, n)
        indices = list(range(n))
        if strategy.shuffle_seed is not None:
            import random

            random.Random(strategy.shuffle_seed).shuffle(indices)
        base, extra = divmod(n, strategy.k)
        folds = []
        start = 0
        for j in range(strategy.k):
            size = base + (1 if j < extra else 0)
            test = tuple(indices[start : start + size])
            train = tuple(indices[:start] + indices[start + size :])
            folds.append(Fold(j, train, test))
            start += size
        return FoldPlan(strategy.describe(), tuple(folds))

    if isinstance(strategy, RollingWindow):
        for name in ("train_size", "test_size", "step"):
            _require(f"rolling window {name}", getattr(strategy, name), 1)
        if keys is not None:
            if len(keys) != n:
                raise ValueError(f"expected {n} time keys, got {len(keys)}")
            for a, b in zip(keys, keys[1:]):
                if b < a:  # type: ignore[operator]
                    raise ValueError("time keys must be monotone non-decreasing")
        folds = []
        j = 0
        start = 0
        while start + strategy.train_size + strategy.test_size <= n:
            split = start + strategy.train_size
            folds.append(
                Fold(j, tuple(range(start, split)), tuple(range(split, split + strategy.test_size)))
            )
            j += 1
            start += strategy.step
        if not folds:
            raise ValueError(
                f"no rolling window fits: n={n} < train+test="
                f"{strategy.train_size + strategy.test_size}"
            )
        return FoldPlan(strategy.describe(), tuple(folds))

    if isinstance(strategy, Grouped):
        if keys is None or len(keys) != n:
            raise ValueError("grouped folds require one group key per record")
        members: dict[str, list[int]] = {}
        for i, key in enumerate(keys):
            members.setdefault(str(key), []).append(i)
        # k folds need at least k groups.
        _require("grouped k", strategy.k, 2, len(members))
        # Largest groups first, each into the currently smallest fold.
        fold_indices: list[list[int]] = [[] for _ in range(strategy.k)]
        for label in sorted(members, key=lambda g: (-len(members[g]), g)):
            target = min(range(strategy.k), key=lambda j: (len(fold_indices[j]), j))
            fold_indices[target].extend(members[label])
        all_indices = set(range(n))
        folds = []
        for j in range(strategy.k):
            test = tuple(sorted(fold_indices[j]))
            train = tuple(sorted(all_indices - set(test)))
            folds.append(Fold(j, train, test))
        return FoldPlan(strategy.describe(), tuple(folds))

    raise TypeError(f"unknown fold strategy: {strategy!r}")


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
) -> float:
    """Cross-validated 0/1 risk with equal per-fold weight.

    Each fold's model is trained on that fold's train indices and evaluated
    on its test indices; the fold means are then averaged with weight 1/K
    regardless of fold size. Folds are evaluated in fold-id order so results
    are bitwise reproducible.
    """
    if not plan.folds:
        raise ValueError("fold plan has no folds")
    fold_risks = []
    for fold in sorted(plan.folds, key=lambda f: f.fold_id):
        train = [dataset[i] for i in fold.train]
        try:
            predict = candidate.trainer(train)
        except Exception as exc:
            raise RuntimeError(
                f"trainer for candidate {candidate.id} failed on fold {fold.fold_id}"
            ) from exc
        losses = [zero_one(predict(x), y) for x, y in (dataset[i] for i in fold.test)]
        fold_risks.append(sum(losses) / len(losses))
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
    ranked = sorted(
        candidates, key=lambda c: (cv_risk(dataset, plan, c) + lam * c.complexity, c.complexity, c.id)
    )
    return ranked[0]


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
    component's empirical risk and record count.
    """
    check_delta(delta)
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
        if method is BoundMethod.WILSON and any(r.loss not in (0.0, 1.0) for r in records):
            raise ValueError(
                f"component '{slot}' has non-binary losses; the Wilson "
                "bound needs 0/1 losses (use hoeffding instead)"
            )
        bounds.append(confidence_bound(method, empirical_risk(records), len(records), delta))
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return ValidationCertificate(
        pipeline.id, measured_cost, tuple(bounds), delta, fold_strategy, timestamp
    )


def lower_bound_score(cert: ValidationCertificate, tau_star: float) -> float:
    """Certified lower bound on the pipeline score, at confidence 1 - ``union_delta``.

    Each component bound holds at 1 - delta; by the union bound, the total at 1 - min(1, 3 delta).
    """
    return discounted_score(cert.measured_cost, cert.total_upper, tau_star)


def plug_in_test(cert: ValidationCertificate, theta_c: float, tau_star: float) -> bool:
    """High-confidence knowledge test: certified lower-bound score >= theta."""
    _require("theta_c", theta_c, 0, 1, exclusive=True)
    return lower_bound_score(cert, tau_star) >= theta_c


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
