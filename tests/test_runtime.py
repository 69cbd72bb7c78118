"""The runtime needs only numpy: no command loads any other third-party module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epistemic_ledger

from test_golden import _ledger_argv

_PRINT_LOADED = "print(json.dumps(sorted({m.partition('.')[0] for m in sys.modules})))\n"
# Runs the command in argv, then prints the top-level names of the loaded modules.
_RUN_COMMAND = (
    "import json, sys\n"
    "from epistemic_ledger.cli import main\n"
    "code = main(sys.argv[1:])\n" + _PRINT_LOADED + "sys.exit(code)\n"
)
# numpy.random's compiled modules add Cython's runtime modules, which are numpy's too.
_IMPORT_NUMPY = "import json, sys, numpy.random\n" + _PRINT_LOADED

COMMANDS = [
    "score",
    "certify",
    "classify",
    "simulate --summary",
    "sweep sensitivity",
    "sweep scalability",
    "sweep montecarlo",
]


def _top_level_modules(code: str, args: list[str], cwd: Path | None = None) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(Path(epistemic_ledger.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def numpy_alone() -> set[str]:
    return _top_level_modules(_IMPORT_NUMPY, [])


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_numpy_beside_the_standard_library(tmp_path, capsys, numpy_alone, command):
    argv = _ledger_argv(tmp_path, capsys).get(command, command.split())
    loaded = _top_level_modules(_RUN_COMMAND, argv, tmp_path)
    assert loaded - set(sys.stdlib_module_names) - numpy_alone == {"epistemic_ledger"}
