"""Golden outputs: the seeded simulation commands print the same bytes as ever.

Each pin is the first 16 hex digits of the sha256 of a command's stdout with
default flags and the packaged scenario. A change that moves any of them
changes a reproduced figure and needs its own justification.
"""

import hashlib

import pytest

from epistemic_ledger.cli import ENV_SEED, main

GOLDEN = {
    ("simulate", "--summary"): "89951f3cdec1829a",
    ("sweep", "sensitivity"): "0348f2e8147eb7f3",
    ("sweep", "scalability"): "f9c68c1dfb134524",
    ("sweep", "montecarlo"): "ddb6193dfac5e3e4",
}


@pytest.mark.parametrize("argv, prefix", GOLDEN.items(), ids=[" ".join(a) for a in GOLDEN])
def test_stdout_hash_is_pinned(argv, prefix, capsys, monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == prefix
