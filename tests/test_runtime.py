"""What each command loads. The runtime needs only numpy, and only the
simulation commands load it: ``score``, ``certify`` and ``classify`` load the
standard library and ``epistemic_ledger`` without ``simlab``, which the package
imports when ``epistemic_ledger.simlab`` is first read."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epistemic_ledger

from test_golden import _ledger_argv

_PRINT_LOADED = "print(json.dumps(sorted(sys.modules)))\n"
# Runs the command in argv, then prints the names of the loaded modules.
_RUN_COMMAND = (
    "import json, sys\n"
    "from epistemic_ledger.cli import main\n"
    "code = main(sys.argv[1:])\n" + _PRINT_LOADED + "sys.exit(code)\n"
)
# What the interpreter loads at start, such as __main__ and the site hooks.
_START = "import json, sys\n" + _PRINT_LOADED
# numpy.random's compiled modules add Cython's runtime modules, which are numpy's too.
_IMPORT_NUMPY = "import json, sys, numpy.random\n" + _PRINT_LOADED

LEDGER_COMMANDS = ["score", "certify", "classify"]
COMMANDS = LEDGER_COMMANDS + [
    "simulate --summary",
    "sweep sensitivity",
    "sweep scalability",
    "sweep montecarlo",
]


def _printed(code: str, args: tuple[str, ...] | list[str] = (), cwd: Path | None = None):
    """What a fresh process running ``code`` prints as JSON on its last line."""
    env = {**os.environ, "PYTHONPATH": str(Path(epistemic_ledger.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _top_level(modules: set[str]) -> set[str]:
    return {name.partition(".")[0] for name in modules}


def _loaded_by(command: str, tmp_path, capsys) -> set[str]:
    argv = _ledger_argv(tmp_path, capsys).get(command, command.split())
    return set(_printed(_RUN_COMMAND, argv, tmp_path))


@pytest.fixture(scope="module")
def interpreter_alone() -> set[str]:
    return _top_level(set(_printed(_START)))


@pytest.fixture(scope="module")
def numpy_alone() -> set[str]:
    return _top_level(set(_printed(_IMPORT_NUMPY)))


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_numpy_beside_the_standard_library(tmp_path, capsys, numpy_alone, command):
    loaded = _top_level(_loaded_by(command, tmp_path, capsys))
    assert loaded - set(sys.stdlib_module_names) - numpy_alone == {"epistemic_ledger"}


@pytest.mark.parametrize("command", LEDGER_COMMANDS)
def test_ledger_command_loads_only_the_standard_library_and_the_ledger(
    tmp_path, capsys, interpreter_alone, command
):
    loaded = _loaded_by(command, tmp_path, capsys)
    assert _top_level(loaded) - set(sys.stdlib_module_names) - interpreter_alone == {"epistemic_ledger"}
    assert not {name for name in loaded if name.startswith("epistemic_ledger.simlab")}


def test_simlab_loads_on_first_access():
    code = (
        "import json, sys, epistemic_ledger\n"
        "before = 'numpy' in sys.modules\n"
        "tasks = len(epistemic_ledger.simlab.load_scenario('appendix_a').tasks)\n"
        "print(json.dumps([before, 'numpy' in sys.modules, tasks]))\n"
    )
    assert _printed(code) == [False, True, 4]


def test_star_import_binds_the_ledger_names_without_numpy():
    code = (
        "import json, sys\n"
        "before = set(globals())\n"
        "from epistemic_ledger import *\n"
        "print(json.dumps(['numpy' in sys.modules, sorted(set(globals()) - before - {'before'})]))\n"
    )
    ledger = [
        "BoundMethod", "ComponentErrors", "Docket", "PipelineKind", "PipelineSpec", "PolicyParams",
        "Proposition", "ValidationCertificate", "capacity_index", "certify", "doctrine", "efficiency",
        "epistemic_frontier", "knowledge_predicate", "lower_bound_capacity", "lower_bound_score",
        "metrics", "org_score", "pipeline_score", "plug_in_test", "total_error", "validation",
    ]
    assert _printed(code) == [False, ledger]


def test_an_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_module'"):
        epistemic_ledger.no_such_module
