"""Per-layer instrumentation for the traced run.

Each public function of a layer is wrapped where its caller looks it up (the
attribute of the calling module), so the program itself is not edited. A
wrapper either opens a span (time plus a call) or only counts calls, for the
tiny functions whose time a span would mostly measure itself. Hooks record
the counts that give a layer's useful-work ratios. ``install`` returns the
function that puts every original back.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from epistemic_ledger import artifacts, cli, doctrine, metrics, validation
from epistemic_ledger.simlab import corpus, runner, scenario, search

from spans import Recorder

LAYERS = (
    "cli",
    "artifacts",
    "metrics",
    "validation",
    "doctrine",
    "simlab.scenario",
    "simlab.corpus",
    "simlab.search",
    "simlab.runner",
)

_FOLD_SPANS = {
    validation.KFold: "validation.make_folds.kfold",
    validation.Grouped: "validation.make_folds.grouped",
    validation.RollingWindow: "validation.make_folds.rolling",
}


def _span(rec: Recorder, fn: Callable, name: str | Callable, hook: Callable | None) -> Callable:
    def traced(*args, **kwargs):
        span = rec.begin(name if isinstance(name, str) else name(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        except Exception:
            rec.count(f"{rec.names[rec.name[span]]}.errors")
            raise
        finally:
            rec.finish(span)
        if hook is not None:
            hook(rec, result, *args, **kwargs)
        return result

    return traced


def _counted(rec: Recorder, fn: Callable, name: str, hook: Callable | None) -> Callable:
    key = f"{name}.calls"

    def counted(*args, **kwargs):
        rec.counts[key] += 1
        result = fn(*args, **kwargs)
        if hook is not None:
            hook(rec, result, *args, **kwargs)
        return result

    return counted


class _Hooks:
    """Counters that need state across calls within one round."""

    def __init__(self, concept_tasks: dict[str, str]) -> None:
        self.concept_tasks = concept_tasks
        self.texts: set[str] = set()
        self.cert_paths: set[str] = set()
        self._relevant: tuple[object, Counter] | None = None

    def end_round(self, rec: Recorder) -> None:
        rec.count("simlab.corpus.embed.distinct", len(self.texts))
        rec.count("artifacts.read_certificate.distinct", len(self.cert_paths))
        self.texts.clear()
        self.cert_paths.clear()
        self._relevant = None

    def embed(self, rec, result, text, *args, **kwargs):
        self.texts.add(text)

    def generate(self, rec, corpus_, *args, **kwargs):
        rec.count("simlab.corpus.generate.docs", len(corpus_))

    def keyword(self, rec, result, corpus_, *args, **kwargs):
        rec.count("simlab.search.keyword.docs_scanned", len(corpus_))
        rec.count("simlab.search.keyword.hits", len(result[0]))

    def semantic(self, rec, result, corpus_, concept_query, *args, **kwargs):
        rec.count("simlab.search.semantic.docs_ranked", len(corpus_))
        truth = corpus_.ground_truth_ids(self.concept_tasks[concept_query])
        rec.count("simlab.search.semantic.gt", len(truth))
        rec.count("simlab.search.semantic.gt_found", len(truth & set(result[0])))

    def dockets_mc(self, rec, result, *args, **kwargs):
        rec.count("simlab.runner.dockets", result.runs)

    def read_certificate(self, rec, result, path, *args, **kwargs):
        self.cert_paths.add(str(path))

    def classify(self, rec, result, proposition, available, executions, *args, **kwargs):
        # cli passes the same executions list for every proposition, so one
        # tally per list serves the whole docket.
        if self._relevant is None or self._relevant[0] is not executions:
            self._relevant = (executions, Counter(r.proposition_id for r in executions))
        rec.count("doctrine.records_scanned", len(executions))
        rec.count("doctrine.records_relevant", self._relevant[1][proposition.id])
        rec.count("doctrine.propositions")


def install(rec: Recorder, concept_tasks: dict[str, str]) -> tuple[_Hooks, Callable[[], None]]:
    """Wrap every traced function; returns the hooks and an undo callable."""
    h = _Hooks(concept_tasks)
    S, C = _span, _counted
    table = [
        # (module or class, attribute, wrapper, span/count name, hook)
        (cli, "main", S, "cli.main", None),
        (cli, "load_scenario", S, "simlab.scenario.load", None),
        (scenario.SimScenario, "synonym_table", C, "simlab.scenario.synonym_table", None),
        (runner, "generate_corpus", S, "simlab.corpus.generate", h.generate),
        (search, "embed", S, "simlab.corpus.embed", h.embed),
        (search, "document_matches", S, "simlab.corpus.document_matches", None),
        (corpus, "tokenize", C, "simlab.corpus.tokenize", None),
        (runner, "keyword_search", S, "simlab.search.keyword", h.keyword),
        (runner, "semantic_search", S, "simlab.search.semantic", h.semantic),
        (runner, "simulated_verifier", S, "simlab.search.verifier", None),
        (cli, "monte_carlo", S, "simlab.runner.monte_carlo", h.dockets_mc),
        (cli, "read_pipelines_csv", S, "artifacts.read_pipelines", None),
        (cli, "read_propositions_csv", S, "artifacts.read_propositions", None),
        (cli, "read_executions_csv", S, "artifacts.read_executions", None),
        (cli, "read_eval_records_csv", S, "artifacts.read_eval_records", None),
        (artifacts, "read_certificate", S, "artifacts.read_certificate", h.read_certificate),
        (cli, "audit_report", S, "artifacts.audit_report", None),
        (cli, "score_table", S, "artifacts.score_table", None),
        (cli, "certificate_to_text", S, "artifacts.certificate_to_text", None),
        (cli, "org_score", C, "metrics.org_score", None),
        (doctrine, "org_score", C, "metrics.org_score", None),
        (metrics, "org_score", C, "metrics.org_score", None),
        (metrics, "pipeline_score", C, "metrics.pipeline_score", None),
        (artifacts, "pipeline_score", C, "metrics.pipeline_score", None),
        (runner, "pipeline_score", C, "metrics.pipeline_score", None),
        (cli, "capacity_index", S, "metrics.capacity_index", None),
        (artifacts, "epistemic_frontier", S, "metrics.epistemic_frontier", None),
        (cli, "certify", S, "validation.certify", None),
        (validation, "certify", S, "validation.certify", None),
        (cli, "lower_bound_score", C, "validation.lower_bound_score", None),
        (artifacts, "lower_bound_score", C, "validation.lower_bound_score", None),
        (doctrine, "lower_bound_score", C, "validation.lower_bound_score", None),
        (validation, "lower_bound_score", C, "validation.lower_bound_score", None),
        (cli, "lower_bound_capacity", S, "validation.lower_bound_capacity", None),
        (validation, "make_folds", S, lambda n, strategy, *a, **k: _FOLD_SPANS[type(strategy)], None),
        (validation, "cv_risk", S, "validation.cv_risk", None),
        (validation, "penalized_select", S, "validation.penalized_select", None),
        (validation, "ece", S, "validation.ece", None),
        (cli, "classify", S, "doctrine.classify", h.classify),
    ]
    originals = []
    for owner, attr, wrap, name, hook in table:
        original = owner.__dict__[attr]
        originals.append((owner, attr, original))
        setattr(owner, attr, wrap(rec, original, name, hook))

    def undo() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return h, undo


def layer_metrics(
    rec: Recorder, rounds: int
) -> tuple[dict[str, float], dict[str, str], dict[str, float]]:
    """Per-round layer metrics, the reason for each that does not apply, and
    the exceptions that left each layer."""
    self_s = rec.self_times()
    total = rec.durations()
    calls = {**rec.calls(), **{k[: -len(".calls")]: v for k, v in rec.counts.items() if k.endswith(".calls")}}
    c = rec.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    per_round = {
        "corpus.embed.self_s": self_s.get("simlab.corpus.embed", 0.0),
        "corpus.embed.calls": calls.get("simlab.corpus.embed", 0),
        "corpus.generate.self_s": self_s.get("simlab.corpus.generate", 0.0),
        "corpus.generate.docs": c["simlab.corpus.generate.docs"],
        "corpus.document_matches.self_s": self_s.get("simlab.corpus.document_matches", 0.0),
        "corpus.document_matches.calls": calls.get("simlab.corpus.document_matches", 0),
        "corpus.tokenize.calls": calls.get("simlab.corpus.tokenize", 0),
        "search.keyword.self_s": self_s.get("simlab.search.keyword", 0.0),
        "search.keyword.calls": calls.get("simlab.search.keyword", 0),
        "search.keyword.docs_scanned": c["simlab.search.keyword.docs_scanned"],
        "search.semantic.self_s": self_s.get("simlab.search.semantic", 0.0),
        "search.semantic.calls": calls.get("simlab.search.semantic", 0),
        "search.semantic.docs_ranked": c["simlab.search.semantic.docs_ranked"],
        "search.verifier.self_s": self_s.get("simlab.search.verifier", 0.0),
        "search.verifier.calls": calls.get("simlab.search.verifier", 0),
        "runner.monte_carlo.self_s": self_s.get("simlab.runner.monte_carlo", 0.0),
        "runner.dockets": c["simlab.runner.dockets"],
        "scenario.load_s": total.get("simlab.scenario.load", 0.0),
        "scenario.synonym_table.calls": calls.get("simlab.scenario.synonym_table", 0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "cli.main.calls": calls.get("cli.main", 0),
        "artifacts.read_executions.self_s": self_s.get("artifacts.read_executions", 0.0),
        "artifacts.read_certificate.self_s": self_s.get("artifacts.read_certificate", 0.0),
        "artifacts.read_certificate.calls": calls.get("artifacts.read_certificate", 0),
        "artifacts.read_pipelines_s": total.get("artifacts.read_pipelines", 0.0),
        "artifacts.read_propositions_s": total.get("artifacts.read_propositions", 0.0),
        "artifacts.audit_report.self_s": self_s.get("artifacts.audit_report", 0.0),
        "artifacts.score_table_s": total.get("artifacts.score_table", 0.0),
        "artifacts.read_eval_records_s": total.get("artifacts.read_eval_records", 0.0),
        "artifacts.certificate_to_text_s": total.get("artifacts.certificate_to_text", 0.0),
        "metrics.org_score.calls": calls.get("metrics.org_score", 0),
        "metrics.pipeline_score.calls": calls.get("metrics.pipeline_score", 0),
        "metrics.capacity_index.self_s": self_s.get("metrics.capacity_index", 0.0),
        "metrics.epistemic_frontier.self_s": self_s.get("metrics.epistemic_frontier", 0.0),
        "validation.certify.self_s": self_s.get("validation.certify", 0.0),
        "validation.certify.calls": calls.get("validation.certify", 0),
        "validation.lower_bound_score.calls": calls.get("validation.lower_bound_score", 0),
        "validation.lower_bound_capacity.self_s": self_s.get("validation.lower_bound_capacity", 0.0),
        "validation.make_folds.kfold.self_s": self_s.get("validation.make_folds.kfold", 0.0),
        "validation.make_folds.grouped.self_s": self_s.get("validation.make_folds.grouped", 0.0),
        "validation.make_folds.rolling.self_s": self_s.get("validation.make_folds.rolling", 0.0),
        "validation.cv_risk.self_s": self_s.get("validation.cv_risk", 0.0),
        "validation.cv_risk.calls": calls.get("validation.cv_risk", 0),
        "validation.penalized_select.self_s": self_s.get("validation.penalized_select", 0.0),
        "validation.ece.self_s": self_s.get("validation.ece", 0.0),
        "doctrine.classify.self_s": self_s.get("doctrine.classify", 0.0),
        "doctrine.classify.calls": calls.get("doctrine.classify", 0),
        "doctrine.records_scanned": c["doctrine.records_scanned"],
    }
    out = {name: value / rounds for name, value in per_round.items()}
    out.update(
        {
            "corpus.embed.unique_ratio": ratio(c["simlab.corpus.embed.distinct"], calls.get("simlab.corpus.embed", 0)),
            "search.keyword.hit_ratio": ratio(c["simlab.search.keyword.hits"], c["simlab.search.keyword.docs_scanned"]),
            "search.semantic.gt_recall": ratio(c["simlab.search.semantic.gt_found"], c["simlab.search.semantic.gt"]),
            "artifacts.read_certificate.unique_ratio": ratio(
                c["artifacts.read_certificate.distinct"], calls.get("artifacts.read_certificate", 0)
            ),
            "metrics.org_score.per_prop": ratio(calls.get("metrics.org_score", 0), c["doctrine.propositions"]),
            "doctrine.records_relevant_ratio": ratio(c["doctrine.records_relevant"], c["doctrine.records_scanned"]),
        }
    )
    bases = {
        "corpus.embed.unique_ratio": "no embed calls",
        "search.keyword.hit_ratio": "no documents scanned by keyword search",
        "search.semantic.gt_recall": "no semantic search",
        "artifacts.read_certificate.unique_ratio": "no certificate reads",
        "metrics.org_score.per_prop": "no propositions classified",
        "doctrine.records_relevant_ratio": "no execution records scanned",
    }
    not_applicable = {
        name: bases.get(name, "the workload does not call this layer")
        for name, value in out.items()
        if value == 0
    }
    errors = dict.fromkeys(LAYERS, 0.0)
    for key, value in c.items():
        if key.endswith(".errors"):
            span = key[: -len(".errors")]
            errors[max((l for l in LAYERS if span.startswith(l + ".")), key=len)] += value
    return out, not_applicable, errors
