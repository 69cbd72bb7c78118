"""Scenario files: the seeded description of a simulated two-firm experiment.

A scenario is structured text -- ``key = value`` lines grouped under
``[section]`` headers, with one ``[task.<id>]`` section per docket task. It
pins the corpus shape, both firms' cost models, retrieval and verification
settings, the scoring policy, and the master seed, so every simulation
output is a pure function of (scenario, seed).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..artifacts import (
    DEFAULT_SCENARIO_NAME,
    InputError,
    Section,
    _at,
    judged,
    parse_sections,
    policy_params,
    read_input,
)
from ..doctrine import Verdict
from ..metrics import PolicyParams, Proposition, _count, _require
from .corpus import tokenize


@dataclass(frozen=True)
class TaskSpec:
    """One docket task: a proposition plus how each firm searches for it."""

    id: str
    doctrine: str
    proposition: str
    truth: Verdict
    keywords: tuple[str, ...]
    concept_query: str
    ground_truth: str  # "literal" or "euphemism"
    literal_phrases: tuple[str, ...]
    euphemism_phrases: tuple[str, ...]
    weight: float = 1.0
    threshold: float = 0.7
    legacy_time_scale: float = 1.0
    modern_time_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("a task needs a non-empty id")
        if self.id != self.id.strip():
            raise ValueError(f"task id {self.id!r} has leading or trailing blanks")
        if self.ground_truth not in ("literal", "euphemism"):
            raise ValueError(
                f"task {self.id}: ground_truth must be literal or euphemism, "
                f"got {self.ground_truth!r}"
            )
        if self.truth is Verdict.INCONCLUSIVE:
            raise ValueError(f"task {self.id}: truth must be established or refuted")
        if self.ground_truth == "literal" and not self.literal_phrases:
            raise ValueError(f"task {self.id}: literal ground truth needs literal_phrases")
        if self.ground_truth == "euphemism" and not self.euphemism_phrases:
            raise ValueError(
                f"task {self.id}: euphemism ground truth needs euphemism_phrases"
            )
        if not self.keywords:
            raise ValueError(f"task {self.id}: keyword list must be non-empty")
        _check_query(self.concept_query)
        for name in ("legacy_time_scale", "modern_time_scale"):
            _require(f"task {self.id}: {name}", getattr(self, name), 0, exclusive=True)
        self.proposition_spec()  # checks the weight and threshold

    def proposition_spec(self) -> Proposition:
        return Proposition(
            id=self.id,
            description=self.proposition,
            salience_weight=self.weight,
            threshold=self.threshold,
        )


@dataclass(frozen=True)
class SimScenario:
    tasks: tuple[TaskSpec, ...]
    corpus_size: int = 62
    euphemism_ratio: float = 0.1
    ground_truth_per_task: int = 2
    c_per_doc: float = 0.105
    modern_a: float = 0.41
    modern_b: float = 0.40
    jitter_sigma: float = 0.02
    verifier_error: float = 0.0
    retrieval_k: int = 5
    policy: PolicyParams = field(default_factory=PolicyParams)
    seed: int = 42

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a scenario needs at least one task")
        for name in ("c_per_doc", "modern_a", "modern_b", "jitter_sigma"):
            _require(name, getattr(self, name), 0)
        _require("verifier_error", self.verifier_error, 0, 1)
        _count("retrieval_k", self.retrieval_k, 1)
        _count("ground_truth_per_task", self.ground_truth_per_task, 1)
        _require("euphemism_ratio", self.euphemism_ratio, 0, 1)
        self._check_corpus_size(self.corpus_size)
        _count("'seed'", self.seed, 0)  # numpy seeds only from non-negative integers
        owners: dict[str, str] = {}
        ids: set[str] = set()
        for task in self.tasks:
            if task.id in ids:  # a cell, a docket row pair and a phrase owner are each keyed by it
                raise ValueError(f"duplicate task id {task.id!r}")
            ids.add(task.id)
            _claim_phrases(owners, task)
        _require("salience weight total", sum(task.weight for task in self.tasks), 0)

    def min_corpus_size(self) -> int:
        return self.ground_truth_per_task * len(self.tasks)

    def _check_corpus_size(self, size: int) -> None:
        """A ValueError naming ``size`` unless it is an integer of at least ``min_corpus_size()``."""
        required = self.min_corpus_size()
        if _count("corpus_size", size, 0) < required:
            raise ValueError(f"corpus size {size} is below the {required} ground-truth documents required")

    def synonym_table(self) -> dict[str, tuple[str, ...]]:
        """Map each task's euphemism phrases to its concept-query tokens; no two tasks list a phrase."""
        table: dict[str, tuple[str, ...]] = {}
        for task in self.tasks:
            concept = tuple(tokenize(task.concept_query))
            for phrase in task.euphemism_phrases:
                table[phrase] = concept
        return table

    def legacy_cost(self, n_docs: int) -> float:
        return self.c_per_doc * n_docs

    def modern_cost(self, n_docs: int, time_scale: float = 1.0) -> float:
        return (self.modern_a + self.modern_b * math.log(n_docs)) * time_scale


def _claim_phrases(owners: dict[str, str], task: TaskSpec) -> None:
    """Record ``task`` in ``owners`` as the task of each of its euphemism phrases. The synonym
    table maps a phrase to one concept query, so a phrase another task lists is a ValueError."""
    for phrase in task.euphemism_phrases:
        owner = owners.setdefault(phrase, task.id)
        if owner != task.id:
            raise ValueError(f"euphemism phrase {phrase!r} is listed by tasks {owner!r} and {task.id!r}")


def _check_query(query: str) -> None:
    """embed's rule: a concept query must give a token to search by, else a ValueError."""
    if not tokenize(query):
        raise ValueError(f"concept_query has no indexable token: {query!r}")


def _phrases(value: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in value.split(",") if p.strip())


# Each plain section's keys, as key -> (SimScenario field, type). [policy] is
# read by policy_params and each [task.<id>] by _task; other sections are errors.
_SECTIONS: dict[str, dict[str, tuple[str, type]]] = {
    "": {"seed": ("seed", int)},
    "corpus": {
        "size": ("corpus_size", int),
        "euphemism_ratio": ("euphemism_ratio", float),
        "ground_truth_per_task": ("ground_truth_per_task", int),
    },
    "costs": {
        "legacy_seconds_per_doc": ("c_per_doc", float),
        "modern_base_seconds": ("modern_a", float),
        "modern_log_seconds": ("modern_b", float),
        "jitter_sigma": ("jitter_sigma", float),
    },
    "verification": {"error_rate": ("verifier_error", float), "top_k": ("retrieval_k", int)},
}
_TASK_KEYS = tuple(f.name for f in fields(TaskSpec) if f.name != "id")


def _task(sec: Section, owners: dict[str, str]) -> TaskSpec:
    sec.reject_unknown(_TASK_KEYS)
    task_id = sec.name[len("task.") :]
    truth = sec.choice("truth", Verdict, "truth (established or refuted)")
    query, line = sec.raw("concept_query")
    with _at(sec.path, line):
        _check_query(query)
    with _at(sec.path, sec.line):
        task = TaskSpec(
            id=task_id,
            doctrine=sec.text("doctrine", task_id),
            proposition=sec.text("proposition"),
            truth=truth,
            keywords=_phrases(sec.text("keywords")),
            concept_query=query,
            ground_truth=sec.text("ground_truth"),
            literal_phrases=_phrases(sec.text("literal_phrases", "")),
            euphemism_phrases=_phrases(sec.text("euphemism_phrases", "")),
            **{
                key: sec.number(key)
                for key in ("weight", "threshold", "legacy_time_scale", "modern_time_scale")
                if key in sec.values
            },
        )
    if task.euphemism_phrases:
        with _at(sec.path, sec.raw("euphemism_phrases")[1]):
            _claim_phrases(owners, task)
    return task


def parse_scenario(text: str, path: str = "<scenario>") -> SimScenario:
    """Build a scenario; a key left out keeps the SimScenario or TaskSpec default.

    An unknown section or key is rejected at its line, and so is the
    ``[task.<id>]`` line at which the tasks' running weight total overflows.
    A broken rule names the first key whose value alone, over the defaults,
    breaks a rule, with that rule's message at the key's line; else the
    message of all keys together at line 0.
    """
    settings: dict[str, tuple[object, int]] = {}  # SimScenario field -> (value, line)
    tasks = []
    owners: dict[str, str] = {}  # euphemism phrase -> the task that lists it
    total_weight = 0.0
    for name, sec in parse_sections(text, path).items():
        if name.startswith("task."):
            tasks.append(_task(sec, owners))
            with _at(path, sec.line):
                total_weight = _require("salience weight total", total_weight + tasks[-1].weight, 0)
        elif name == "policy":
            settings["policy"] = (policy_params(sec), sec.line)
        elif name in _SECTIONS:
            keys = _SECTIONS[name]
            sec.reject_unknown(keys)
            settings.update(
                (attr, (sec.number(key, cast), sec.values[key][1]))
                for key, (attr, cast) in keys.items()
                if key in sec.values
            )
        else:
            raise InputError(f"unknown section [{name}]", path, sec.line)
    return judged(functools.partial(SimScenario, tuple(tasks)), settings, path, 0)


def load_scenario(source: str | Path) -> SimScenario:
    """Load a scenario from a file path or a packaged scenario name."""
    path = Path(source)
    if path.suffix == ".scenario" or path.exists():
        return parse_scenario(read_input(path), str(path))
    name = str(source)
    packaged = Path(__file__).parent / "data" / f"{name}.scenario"
    if packaged.is_file():
        return parse_scenario(read_input(packaged), f"{name}.scenario")
    raise InputError(f"no such scenario file or packaged scenario: {source!r}", str(source), 0)


def default_scenario() -> SimScenario:
    return load_scenario(DEFAULT_SCENARIO_NAME)
