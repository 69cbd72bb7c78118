"""Scenario files: the seeded description of a simulated two-firm experiment.

A scenario is structured text -- ``key = value`` lines grouped under
``[section]`` headers, with one ``[task.<id>]`` section per docket task. It
pins the corpus shape, both firms' cost models, retrieval and verification
settings, the scoring policy, and the master seed, so every simulation
output is a pure function of (scenario, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

from ..artifacts import InputError, Section, _at, parse_sections, policy_params, read_input
from ..doctrine import Verdict
from ..metrics import PolicyParams, Proposition
from .corpus import tokenize

DEFAULT_SCENARIO_NAME = "appendix_a"


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
        if min(self.legacy_time_scale, self.modern_time_scale) <= 0.0:
            raise ValueError(f"task {self.id}: time scales must be positive")
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
        if min(self.c_per_doc, self.modern_a, self.modern_b) < 0.0:
            raise ValueError("cost model parameters must be non-negative")
        if self.jitter_sigma < 0.0:
            raise ValueError(f"jitter_sigma must be >= 0, got {self.jitter_sigma}")
        if not (0.0 <= self.verifier_error <= 1.0):
            raise ValueError(f"verifier_error must lie in [0, 1], got {self.verifier_error}")
        if self.retrieval_k < 1:
            raise ValueError(f"retrieval_k must be >= 1, got {self.retrieval_k}")
        if self.ground_truth_per_task < 1:
            raise ValueError("ground_truth_per_task must be >= 1")
        if not (0.0 <= self.euphemism_ratio <= 1.0):
            raise ValueError("euphemism_ratio must lie in [0, 1]")
        required = self.min_corpus_size()
        if self.corpus_size < required:
            raise ValueError(f"corpus size {self.corpus_size} is below the {required} ground-truth documents required")
        if self.seed < 0:  # numpy seeds only from non-negative integers
            raise ValueError(f"'seed' must be non-negative, got {self.seed}")

    def min_corpus_size(self) -> int:
        return self.ground_truth_per_task * len(self.tasks)

    def synonym_table(self) -> dict[str, tuple[str, ...]]:
        """Map each task's euphemism phrases to its concept-query tokens."""
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


def _task(sec: Section) -> TaskSpec:
    sec.reject_unknown(_TASK_KEYS)
    task_id = sec.name[len("task.") :]
    truth_text, truth_line = sec.raw("truth")
    try:
        truth = Verdict(truth_text)
    except ValueError:
        raise InputError(
            f"truth must be established or refuted, got {truth_text!r}", sec.path, truth_line
        )
    with _at(sec.path, sec.line):
        task = TaskSpec(
            id=task_id,
            doctrine=sec.text("doctrine", task_id),
            proposition=sec.text("proposition"),
            truth=truth,
            keywords=_phrases(sec.text("keywords")),
            concept_query=sec.text("concept_query"),
            ground_truth=sec.text("ground_truth"),
            literal_phrases=_phrases(sec.text("literal_phrases", "")),
            euphemism_phrases=_phrases(sec.text("euphemism_phrases", "")),
            **{
                key: sec.number(key)
                for key in ("weight", "threshold", "legacy_time_scale", "modern_time_scale")
                if key in sec.values
            },
        )
    query, line = sec.raw("concept_query")
    if not tokenize(query):  # embed's rule: a query must give a token to search by
        raise InputError(f"concept_query has no indexable token: {query!r}", sec.path, line)
    return task


def _valid(tasks: list[TaskSpec], **settings: object) -> bool:
    try:
        SimScenario(tuple(tasks), **settings)
    except ValueError:
        return False
    return True


def parse_scenario(text: str, path: str = "<scenario>") -> SimScenario:
    """Build a scenario; a key left out keeps the SimScenario or TaskSpec default.

    An unknown section or key is rejected at its line. A broken rule names the
    line of the first key whose value alone, over the defaults, breaks a rule;
    else line 0.
    """
    settings: dict[str, tuple[object, int]] = {}  # SimScenario field -> (value, line)
    tasks = []
    for name, sec in parse_sections(text, path).items():
        if name.startswith("task."):
            tasks.append(_task(sec))
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
    try:
        return SimScenario(tuple(tasks), **{attr: value for attr, (value, _) in settings.items()})
    except ValueError as exc:
        alone = (line for attr, (value, line) in settings.items() if not _valid(tasks, **{attr: value}))
        raise InputError(str(exc), path, next(alone, 0) if _valid(tasks) else 0) from None


def load_scenario(source: str | Path) -> SimScenario:
    """Load a scenario from a file path or a packaged scenario name."""
    path = Path(source)
    if path.suffix == ".scenario" or path.exists():
        return parse_scenario(read_input(path), str(path))
    name = str(source)
    packaged = resources.files(__package__).joinpath("data", f"{name}.scenario")
    if packaged.is_file():
        return parse_scenario(packaged.read_text(encoding="utf-8"), f"{name}.scenario")
    raise InputError(f"no such scenario file or packaged scenario: {source!r}", str(source), 0)


def default_scenario() -> SimScenario:
    return load_scenario(DEFAULT_SCENARIO_NAME)
