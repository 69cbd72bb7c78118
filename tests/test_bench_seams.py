"""The benchmark wraps program functions by name; each name it wraps must still exist."""

from pathlib import Path

from epistemic_ledger import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_layers_install_and_undo(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from spans import Recorder

    original = cli.main
    _, undo = layers.install(Recorder(), {})
    try:
        assert cli.main is not original
    finally:
        undo()
    assert cli.main is original


def test_benchmark_counters_see_classify(tmp_path, capsys, monkeypatch):
    # A refactor that binds a wrapped name where the bench does not look would
    # leave its counter at 0; the golden docket pins what the bench sees.
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    from spans import Recorder
    from test_golden import _ledger_argv

    argv = _ledger_argv(tmp_path, capsys)["classify"]
    rec = Recorder()
    _, undo = layers.install(rec, {})
    try:
        assert cli.main(argv) == 0
    finally:
        undo()
    assert rec.calls()["doctrine.classify"] == 6
    # The report renders each certificate's text once: 10 calls, one fewer than a
    # call per certificate listed.
    assert rec.counts["validation.lower_bound_score.calls"] == 10
    assert rec.counts["metrics.pipeline_score.calls"] == 4  # one per row of the pipelines file


def test_benchmark_counters_see_the_simulation(capsys, monkeypatch):
    # The bench reads each search's corpus and concept query from its first two
    # arguments and its hits from the result; the packaged scenario's Monte Carlo
    # pins what it sees: 4 tasks over 62 documents, 2 ground-truth documents each.
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delenv(cli.ENV_SEED, raising=False)
    import layers
    from spans import Recorder

    from epistemic_ledger.simlab import default_scenario

    concept_tasks = {task.concept_query: task.id for task in default_scenario().tasks}
    rec = Recorder()
    _, undo = layers.install(rec, concept_tasks)
    try:
        assert cli.main(["sweep", "montecarlo", "--runs", "2"]) == 0
    finally:
        undo()
    capsys.readouterr()
    assert rec.counts["simlab.search.keyword.docs_scanned"] == 248
    assert rec.counts["simlab.search.semantic.gt"] == 8
    assert rec.counts["simlab.search.semantic.gt_found"] == 8
    assert rec.counts["simlab.runner.dockets"] == 2
