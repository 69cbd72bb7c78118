"""Seeded experiment runners for the two-firm scenario.

Every runner is a pure function of (scenario, seed): sub-streams are spawned
per run index from the master seed, so parallel and serial execution of
Monte Carlo cells would be bitwise identical. Retrieval runs once per corpus:
the hits and the unjittered cost of each (task, company) search are shared
by every run, which draws only the cost jitter and the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..doctrine import Verdict
from ..metrics import (
    ComponentErrors,
    Docket,
    PipelineKind,
    PipelineSpec,
    _count,
    _require,
    capacity_index,
    discounted_score,
    knowledge_predicate,
    pipeline_score,
)
from .corpus import Corpus, generate_corpus
from .scenario import SimScenario, TaskSpec
from .search import keyword_search, semantic_search, simulated_verifier

LEGACY = "legacy"
MODERN = "modern"

_STREAM_VERIFIER = 211
_STREAM_JITTER = 223
_STREAM_SWEEP = 227


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def jitter_factor(rng: np.random.Generator, sigma: float) -> float:
    """Multiplicative Gaussian jitter, clamped away from zero; 1, with no draw, at sigma 0."""
    if sigma <= 0.0:
        return 1.0
    return max(0.01, 1.0 + sigma * float(rng.standard_normal()))


@dataclass(frozen=True)
class RunResult:
    """One company/task row: simulated time, component errors, score."""

    company: str
    task_id: str
    doctrine: str
    simulated_time: float
    eps_ret: float
    eps_ver: float
    eps_tot: float
    score: float
    verdict: Verdict


def _pipeline_spec(
    company: str, task_id: str, cost: float, eps_ret: float, eps_ver: float
) -> PipelineSpec:
    return PipelineSpec(
        id=f"{company}_{task_id}",
        kind=PipelineKind.RETRIEVAL_ONLY if company == LEGACY else PipelineKind.FULL,
        expected_cost=cost,
        errors=ComponentErrors(retrieval=eps_ret, verification=eps_ver),
    )


@dataclass(frozen=True)
class _Retrieval:
    """One company's search for one task over a corpus, shared by every run."""

    task: TaskSpec
    company: str
    hits: tuple[str, ...]
    cost: float
    ground_truth: frozenset[str]
    complete: bool


def _retrieve(scenario: SimScenario, corpus: Corpus) -> list[_Retrieval]:
    """Both companies' searches for every task, in task order, legacy first."""
    synonyms = scenario.synonym_table()
    retrievals = []
    for task in scenario.tasks:
        ground_truth = corpus.ground_truth_ids(task.id)
        keyword = keyword_search(corpus, task.keywords, scenario, time_scale=task.legacy_time_scale)
        semantic = semantic_search(corpus, task.concept_query, scenario, synonyms, time_scale=task.modern_time_scale)
        for company, (hits, cost) in ((LEGACY, keyword), (MODERN, semantic)):
            retrievals.append(
                _Retrieval(task, company, hits, cost, ground_truth, ground_truth <= set(hits))
            )
    return retrievals


def _run_task(
    scenario: SimScenario,
    retrieval: _Retrieval,
    verifier_rng: np.random.Generator,
    jitter: float,
) -> RunResult:
    task, company = retrieval.task, retrieval.company
    cost = retrieval.cost * jitter
    if company == LEGACY:
        # The keyword pipeline has no verifier stage: a complete retrieval is
        # read off directly, anything less is inconclusive.
        verdict = task.truth if retrieval.complete else Verdict.INCONCLUSIVE
        eps_ver = 0.0
    else:
        verdict = simulated_verifier(
            retrieval.hits, retrieval.ground_truth, task.truth, scenario.verifier_error, verifier_rng
        )
        eps_ver = 0.0 if verdict is Verdict.INCONCLUSIVE or verdict is task.truth else 1.0
    eps_ret = 0.0 if retrieval.complete else 1.0
    spec = _pipeline_spec(company, task.id, cost, eps_ret, eps_ver)
    return RunResult(
        company=company,
        task_id=task.id,
        doctrine=task.doctrine,
        simulated_time=cost,
        eps_ret=eps_ret,
        eps_ver=eps_ver,
        eps_tot=spec.total_error(),
        score=pipeline_score(spec, scenario.policy),
        verdict=verdict,
    )


def _run_docket_once(
    scenario: SimScenario,
    retrievals: Sequence[_Retrieval],
    seed: int,
    run_index: int,
    jitter_sigma: float,
) -> list[RunResult]:
    """One run: a jitter draw per retrieval, in order, and the verifier draws."""
    verifier_rng = _rng(seed, _STREAM_VERIFIER, run_index)
    jitter_rng = _rng(seed, _STREAM_JITTER, run_index)
    return [_run_task(scenario, r, verifier_rng, jitter_factor(jitter_rng, jitter_sigma)) for r in retrievals]


def run_docket(scenario: SimScenario, seed: int | None = None) -> list[RunResult]:
    """Execute both companies on every docket task, without time jitter.

    Emits two rows per task (legacy first), with errors in the deterministic
    0/1 regime and scores delegated to the pipeline scorer.
    """
    seed = scenario.seed if seed is None else _count("seed", seed, 0)
    retrievals = _retrieve(scenario, generate_corpus(scenario, seed))
    return _run_docket_once(scenario, retrievals, seed, run_index=0, jitter_sigma=0.0)


def company_capacity(
    scenario: SimScenario, results: Sequence[RunResult], company: str
) -> float:
    """Capacity index over the docket tasks, each scored by this company's run."""
    docket = Docket(tuple(task.proposition_spec() for task in scenario.tasks), {})
    return capacity_index(docket, {r.task_id: r.score for r in results if r.company == company})


@dataclass(frozen=True)
class MonteCarloCell:
    company: str
    task_id: str
    doctrine: str
    scores: tuple[float, ...]

    def quartiles(self) -> tuple[float, float, float]:
        q1, q2, q3 = np.percentile(np.array(self.scores), [25.0, 50.0, 75.0])
        return float(q1), float(q2), float(q3)


@dataclass(frozen=True)
class MonteCarloResult:
    cells: tuple[MonteCarloCell, ...]
    runs: int


def monte_carlo(
    scenario: SimScenario,
    runs: int,
    jitter_sigma: float | None = None,
    seed: int | None = None,
) -> MonteCarloResult:
    """Repeat the whole docket ``runs`` times with jittered execution times.

    The corpus is generated and searched once; each run draws only the
    jitter on those searches' costs and the verifier, from its own
    sub-streams of the master seed. Jitter moves times only; the
    deterministic 0/1 error pattern never flips.
    """
    _count("runs", runs, 1)
    seed = scenario.seed if seed is None else _count("seed", seed, 0)
    sigma = scenario.jitter_sigma if jitter_sigma is None else _require("jitter_sigma", jitter_sigma, 0)
    retrievals = _retrieve(scenario, generate_corpus(scenario, seed))
    per_cell: dict[tuple[str, str, str], list[float]] = {}
    for i in range(runs):
        for row in _run_docket_once(scenario, retrievals, seed, run_index=i, jitter_sigma=sigma):
            per_cell.setdefault((row.company, row.task_id, row.doctrine), []).append(row.score)
    cells = tuple(MonteCarloCell(*cell, tuple(scores)) for cell, scores in sorted(per_cell.items()))
    return MonteCarloResult(cells=cells, runs=runs)


@dataclass(frozen=True)
class ScalePoint:
    corpus_size: int
    legacy_cost: float
    modern_cost: float


def scalability_sweep(
    scenario: SimScenario,
    sizes: Sequence[int],
    seed: int | None = None,
) -> list[ScalePoint]:
    """Simulated cost of both cost models at each corpus size.

    Sizes must be ascending integers, each no smaller than the scenario's
    ground-truth requirement. The raw cost models are reported (per-task
    query scale factors do not apply to the sweep).
    """
    if not sizes:
        raise ValueError("scalability_sweep requires at least one size")
    for size in sizes:
        scenario._check_corpus_size(size)
    if list(sizes) != sorted(sizes):
        raise ValueError("sizes must be ascending")
    seed = scenario.seed if seed is None else _count("seed", seed, 0)
    points = []
    for size in sizes:
        rng = _rng(seed, _STREAM_SWEEP, size)
        legacy = scenario.legacy_cost(size) * jitter_factor(rng, scenario.jitter_sigma)
        modern = scenario.modern_cost(size) * jitter_factor(rng, scenario.jitter_sigma)
        points.append(ScalePoint(size, legacy, modern))
    return points


@dataclass(frozen=True)
class SensitivityPoint:
    eps_ver: float
    score: float
    meets_threshold: bool


@dataclass(frozen=True)
class SensitivityCurve:
    points: tuple[SensitivityPoint, ...]
    first_crossing: float | None


def sensitivity_sweep(
    scenario: SimScenario, eps_values: Sequence[float]
) -> SensitivityCurve:
    """Score degradation as the verifier error rises, retrieval held fixed.

    The modern retrieval time of the first docket task anchors the
    efficiency factor; the curve reports the smallest grid value whose score
    falls below theta_c.
    """
    if not eps_values:
        raise ValueError("sensitivity_sweep requires a non-empty grid")
    for eps in eps_values:
        _require("eps grid values", eps, 0, 1)
    task = scenario.tasks[0]
    modern_time = scenario.modern_cost(scenario.corpus_size, task.modern_time_scale)
    points = []
    first_crossing: float | None = None
    for eps in eps_values:
        score = discounted_score(modern_time, eps, scenario.policy.tau_star)
        meets = knowledge_predicate(score, scenario.policy.theta_c)
        if not meets and first_crossing is None:
            first_crossing = eps
        points.append(SensitivityPoint(eps, score, meets))
    return SensitivityCurve(points=tuple(points), first_crossing=first_crossing)
