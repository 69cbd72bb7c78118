"""Golden outputs: the simulation and ledger commands print the same bytes as ever.

Each pin is the first 16 hex digits of the sha256 of a command's output: the
stdout of the simulation commands with default flags and the packaged
scenario (and of a 40-run Monte Carlo sweep, which covers the per-run jitter
draw order well past the default 15 runs), the corpus file `simulate
--export-corpus` writes, and the stdout of the ledger commands on the small
docket written below. A change that moves any of them changes a reproduced
figure and needs its own justification.
"""

import hashlib

import pytest

from epistemic_ledger.cli import ENV_SEED, main

GOLDEN = {
    ("simulate", "--summary"): "89951f3cdec1829a",
    ("sweep", "sensitivity"): "0348f2e8147eb7f3",
    ("sweep", "scalability"): "f9c68c1dfb134524",
    ("sweep", "montecarlo"): "ddb6193dfac5e3e4",
    ("sweep", "montecarlo", "--runs", "40", "--seed", "7"): "e08ced52527a5653",
}


@pytest.mark.parametrize("argv, prefix", GOLDEN.items(), ids=[" ".join(a) for a in GOLDEN])
def test_stdout_hash_is_pinned(argv, prefix, capsys, monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == prefix


def test_exported_corpus_hash_is_pinned(tmp_path, monkeypatch):
    # The corpus text itself, filler order included, which no stdout pin records.
    monkeypatch.delenv(ENV_SEED, raising=False)
    path = tmp_path / "corpus.tsv"
    assert main(["simulate", "--export-corpus", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == "912edbada8bcd540"


# A small ledger docket on which the classify report carries all five
# doctrines: a certified execution (actual knowledge), an inconclusive one, an
# avoided cheap pipeline with avoidance evidence (wilful blindness), an
# execution without a certificate and one on a poor certificate
# (recklessness), unexecuted capable pipelines (constructive knowledge), a
# proposition with no pipeline, and a firm-wide capacity below theta_neg
# (negligence). Certificates are named relative to the executions file, so
# the report's inputs_hash does not depend on where the files are written.
LEDGER_PIPELINES = """id,kind,expected_cost,eps_ret,eps_gen,eps_ver,joint_error
legacy_actual,retrieval_only,5.90,0.00,0.00,0.00,
modern_actual,full,2.06,0.00,0.00,0.00,
cheap_check,retrieval_only,0.50,0.01,0.00,0.00,
weak_full,full,20.0,0.30,0.10,0.20,0.45
"""

LEDGER_PROPOSITIONS = """id,description,weight,threshold,pipelines
p_actual,Certified and executed,1.0,0.7,modern_actual
p_blind,Cheap check avoided,1.0,0.7,cheap_check;modern_actual
p_reckless,Executed without a certificate,1.0,0.7,modern_actual;legacy_actual
p_poor,Executed on a poor certificate,2.0,0.7,weak_full
p_unscored,No pipeline available,3.0,0.7,
p_constructive,Achievable but not obtained,0.5,0.8,legacy_actual;modern_actual
"""

# A docket whose weights are all 0 has no firm-wide capacity, so its report
# judges no negligence, whatever each proposition's own score.
LEDGER_ZERO_WEIGHT = """id,description,weight,threshold,pipelines
z_weak,Weightless on a weak pipeline,0,0.7,weak_full
z_modern,Weightless on a modern pipeline,0,0.7,modern_actual
"""

LEDGER_EXECUTIONS = """proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp
p_actual,modern_actual,true,established,none,modern.cert,2026-01-02T00:00:00+00:00
p_actual,modern_actual,true,inconclusive,none,modern.cert,2026-01-03T00:00:00+00:00
p_blind,modern_actual,false,,suppressed_query,,
p_blind,cheap_check,false,,none,,
p_reckless,modern_actual,true,established,none,,2026-01-04T00:00:00+00:00
p_poor,weak_full,true,refuted,none,weak.cert,
"""

CLEAN_RECORDS = "component,loss\n" + "".join(
    f"{c},0\n" for c in ("retrieval", "generation", "verification") for _ in range(1000)
)

POOR_RECORDS = "component,loss\n" + "".join(
    f"{c},{int(i % 4 == 0)}\n" for c in ("retrieval", "generation", "verification") for i in range(40)
)

TIMESTAMP = "2026-01-01T00:00:00+00:00"

# "certify" is Hoeffding on zero losses; "certify wilson" is the full-precision
# Wilson certificate of POOR_RECORDS (10 errors in 40 per component).
LEDGER_GOLDEN = {
    "score": "3508f68585e18e76",
    "certify": "2557dde0f6ccc477",
    "certify wilson": "2fe717cf18f79e63",
    "classify": "10725d92d445ba31",
    "classify zero-weight": "5c158e67af417018",
}


def _certify_argv(records, pipeline_id, cost, method):
    return [
        "certify", records, "--pipeline-id", pipeline_id, "--cost", cost,
        "--method", method, "--timestamp", TIMESTAMP,
    ]


def _ledger_argv(tmp_path, capsys):
    """Write the docket and its two certificates; return each command's argv."""
    texts = {
        "pipelines.csv": LEDGER_PIPELINES,
        "props.csv": LEDGER_PROPOSITIONS,
        "zero.csv": LEDGER_ZERO_WEIGHT,
        "exec.csv": LEDGER_EXECUTIONS,
        "clean.csv": CLEAN_RECORDS,
        "poor.csv": POOR_RECORDS,
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    clean, poor = str(tmp_path / "clean.csv"), str(tmp_path / "poor.csv")
    certify_modern = _certify_argv(clean, "modern_actual", "2.06", "hoeffding")
    certify_weak = _certify_argv(poor, "weak_full", "20.0", "wilson")
    assert main(certify_modern + ["--out", str(tmp_path / "modern.cert")]) == 0
    assert main(certify_weak + ["--out", str(tmp_path / "weak.cert")]) == 0
    capsys.readouterr()
    return {
        "score": ["score", str(tmp_path / "pipelines.csv")],
        "certify": certify_modern,
        "certify wilson": certify_weak,
        "classify": [
            "classify", "--pipelines", str(tmp_path / "pipelines.csv"),
            "--propositions", str(tmp_path / "props.csv"),
            "--executions", str(tmp_path / "exec.csv"), "--seed", "3",
        ],
        "classify zero-weight": [
            "classify", "--pipelines", str(tmp_path / "pipelines.csv"),
            "--propositions", str(tmp_path / "zero.csv"),
        ],
    }


@pytest.mark.parametrize("command, prefix", LEDGER_GOLDEN.items(), ids=list(LEDGER_GOLDEN))
def test_ledger_stdout_hash_is_pinned(command, prefix, tmp_path, capsys):
    argv = _ledger_argv(tmp_path, capsys)[command]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == prefix
