"""Property: no input file, however malformed, makes the CLI print a traceback.

Each example replaces one input file of a valid command with generated text
(the valid file's header or whole text followed by arbitrary text, or
arbitrary text alone) and runs the command through ``cli.main``.
"""

import contextlib
import io
from importlib.resources import files

from hypothesis import given, settings
from hypothesis import strategies as st

from epistemic_ledger.cli import main

from test_cli import PIPELINES_CSV, PROPOSITIONS_CSV

RECORDS_CSV = "component,loss\n" + "".join(
    f"{component},0\n" for component in ("retrieval", "generation", "verification")
)
EXECUTIONS_CSV = (
    "proposition_id,pipeline_id,executed,outcome,avoidance_evidence,certificate,timestamp\n"
    "bid_independence,modern_actual,true,established,none,m.cert,2026-01-02T00:00:00+00:00\n"
)
POLICY = "tau_star = 10.0\ntheta_c = 0.7\n"
SCENARIO = (files("epistemic_ledger.simlab") / "data" / "appendix_a.scenario").read_text(
    encoding="utf-8"
)


def _run(argv):
    """``cli.main``'s exit code and stderr, with SystemExit caught."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _inputs(base):
    """Write a valid set of input files into ``base``; return each file's
    valid text and the command that reads it."""
    texts = {
        "pipelines.csv": PIPELINES_CSV,
        "props.csv": PROPOSITIONS_CSV,
        "exec.csv": EXECUTIONS_CSV,
        "records.csv": RECORDS_CSV,
        "policy.txt": POLICY,
        "scenario.txt": SCENARIO,
    }
    for name, text in texts.items():
        (base / name).write_text(text, encoding="utf-8")
    certify = [
        "certify", str(base / "records.csv"), "--pipeline-id", "modern_actual",
        "--cost", "2.06", "--timestamp", "2026-01-01T00:00:00+00:00",
    ]
    assert _run(certify + ["--out", str(base / "m.cert")])[0] == 0
    texts["m.cert"] = (base / "m.cert").read_text(encoding="utf-8")
    classify = [
        "classify", "--pipelines", str(base / "pipelines.csv"),
        "--propositions", str(base / "props.csv"), "--executions", str(base / "exec.csv"),
    ]
    commands = {
        "pipelines.csv": classify,
        "props.csv": classify,
        "exec.csv": classify,
        "m.cert": classify,
        "records.csv": certify,
        "policy.txt": ["score", str(base / "pipelines.csv"), "--policy", str(base / "policy.txt")],
        "scenario.txt": ["simulate", "--scenario", str(base / "scenario.txt")],
    }
    for argv in commands.values():
        assert _run(argv)[0] == 0
    return texts, commands


# Any text that UTF-8 can encode, biased towards the characters of the
# input grammars.
_text = st.text(
    st.one_of(
        st.sampled_from(list(",=\n\r\t \"'#[].-+_:;0123456789eEinfatrue")),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=80,
)


@st.composite
def _replacement(draw, texts):
    name = draw(st.sampled_from(sorted(texts)))
    valid = texts[name]
    prefix = draw(st.sampled_from(["", valid.split("\n", 1)[0] + "\n", valid]))
    return name, prefix + draw(_text)


def test_malformed_inputs_never_raise(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    texts, commands = _inputs(base)

    @settings(max_examples=200, deadline=None)
    @given(_replacement(texts))
    def check(replacement):
        name, text = replacement
        (base / name).write_text(text, encoding="utf-8")
        try:
            code, err = _run(commands[name])
        finally:
            (base / name).write_text(texts[name], encoding="utf-8")
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err

    check()
