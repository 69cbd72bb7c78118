"""The ledger commands print the same bytes, refuse the same bad inputs with
the same exit code and stderr, and the timestamp rule gives the same verdicts,
on every other CPython >= 3.10 found on this machine. Argparse usage errors
are left out: their wording belongs to the interpreter.

Such an interpreter may have no third-party package at all, numpy included.
The ledger commands need none: the package imports ``simlab``, and with it
numpy, only when a simulation command runs. So each run imports the real
package from its source directory, isolated (``-I``) from this environment
and writing no bytecode (``-B``), and reports whether numpy was loaded.
"""

import glob
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import epistemic_ledger
from epistemic_ledger.cli import main

from test_cli import PIPELINES_CSV
from test_golden import LEDGER_GOLDEN, _ledger_argv
from test_inputs import REJECTED, REJECTED_IDS, rejected_argv
from test_validation import ACCEPTED_TIMESTAMPS, REFUSED_TIMESTAMPS

_VERSION = "import json, sys; print(json.dumps([sys.implementation.name, sys.version_info[:3]]))"

# Reads a job from stdin: the directory holding the package, each command's
# argv, each refused command's argv and the timestamp probes. Prints each
# command's exit code and stdout hash, each refused command's exit code and
# stderr, each probe's verdict, and whether numpy was loaded.
_RUN = """
import contextlib, hashlib, io, json, sys

job = json.load(sys.stdin)
sys.path.insert(0, job["source"])

from epistemic_ledger.cli import main
from epistemic_ledger.validation import check_timestamp


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()[:16]]


def refused(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, err.getvalue()]


def accepts(text):
    try:
        return check_timestamp(text) == text
    except ValueError:
        return False


print(json.dumps({
    "commands": {name: run(argv) for name, argv in job["commands"].items()},
    "refused": {name: refused(argv) for name, argv in job["refused"].items()},
    "verdicts": [accepts(text) for text in job["probes"]],
    "numpy": "numpy" in sys.modules,
}))
"""


def _candidates() -> list[str]:
    """``python3.1x`` on PATH, then each pyenv ``versions/3.1x*/bin/python3``."""
    on_path = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    pyenv_root = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    installed = sorted(glob.glob(os.path.join(pyenv_root, "versions", "3.1*", "bin", "python3")))
    return [path for path in on_path + installed if path]


def other_interpreters() -> dict[str, str]:
    """Each CPython >= 3.10 that starts and is not this one's version: version -> first path."""
    this = ".".join(map(str, sys.version_info[:3]))
    found: dict[str, str] = {}
    for path in _candidates():
        try:
            result = subprocess.run([path, "-c", _VERSION], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if result.returncode != 0:  # such as a pyenv shim for a version that is not selected
            continue
        name, version = json.loads(result.stdout)
        text = ".".join(map(str, version))
        if name == "cpython" and tuple(version) >= (3, 10) and text != this:
            found.setdefault(text, path)
    return found


def _refused_argv(tmp_path) -> dict[str, list[str]]:
    """Write ledger inputs that are refused; return the argv of each command reading one."""
    argv = {}
    for (kind, text, _, _), name in zip(REJECTED, REJECTED_IDS):
        if kind != "scenario":
            (tmp_path / name).mkdir()
            argv[name] = rejected_argv(tmp_path / name, kind, text)[1]
    nul = tmp_path / "nul.csv"
    nul.write_text(PIPELINES_CSV.replace("legacy_actual", "p\0x"), encoding="utf-8")
    argv["pipelines-nul"] = ["score", str(nul)]
    records = tmp_path / "retrieval_only.csv"
    records.write_text("component,loss\nretrieval,0\n", encoding="utf-8")
    argv["certify-refused"] = ["certify", str(records), "--pipeline-id", "p", "--cost", "1"]
    return argv


OTHERS = other_interpreters()
NONE_FOUND = pytest.param(
    None, marks=pytest.mark.skip(reason="no other CPython >= 3.10 on PATH or under PYENV_ROOT")
)


@pytest.mark.parametrize("python", list(OTHERS.values()) or [NONE_FOUND], ids=list(OTHERS) or None)
def test_ledger_commands_and_timestamp_rule_match_this_python(python, tmp_path, capsys):
    refused = _refused_argv(tmp_path)
    here = {name: [main(argv), capsys.readouterr().err] for name, argv in refused.items()}
    assert here["certify-refused"][0] == 3
    assert all(code == 1 for name, (code, _) in here.items() if name != "certify-refused")
    # Each refused file names its line, a bad execution timestamp among them.
    assert "executions-timestamp" in here
    for (kind, _, line, message), name in zip(REJECTED, REJECTED_IDS):
        if kind != "scenario":
            assert f":{line}: {message}" in here[name][1]
    job = {
        "source": str(Path(epistemic_ledger.__file__).parents[1]),
        "commands": _ledger_argv(tmp_path, capsys),
        "refused": refused,
        "probes": ACCEPTED_TIMESTAMPS + REFUSED_TIMESTAMPS,
    }
    result = subprocess.run(
        [python, "-B", "-I", "-c", _RUN], input=json.dumps(job), capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout)
    assert seen["commands"] == {name: [0, prefix] for name, prefix in LEDGER_GOLDEN.items()}
    assert seen["refused"] == here
    # test_validation.TestCertificateText holds these verdicts in this process.
    assert seen["verdicts"] == [True] * len(ACCEPTED_TIMESTAMPS) + [False] * len(REFUSED_TIMESTAMPS)
    assert not seen["numpy"]
