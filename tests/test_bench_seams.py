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
