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
