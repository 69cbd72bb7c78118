"""Benchmark worker: the child process that runs one workload.

    python3 bench/worker.py JOB.json

``run`` plays one untimed reference round, then repeats rounds for the
job's measuring time, with the workload's calibration kernel (see
calibrate.py) timed between rounds and the setup probes spread over the
window. With tracing on, the first half of that time is untraced and the
second half traced, so the two medians give the tracing overhead, and no
probes run. The summary goes to the job's result file; stdout stays unused.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import KERNELS, kernel_s

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
SETUP_PROBES = 9

# The setup a user pays before the first call: a fresh interpreter imports
# the CLI and loads the workload's scenario ("-" for none).
_PROBE = (
    "import os, sys; sys.path.insert(0, sys.argv[1]); from epistemic_ledger import cli\n"
    "if sys.argv[2] != '-': cli.load_scenario(sys.argv[2])\n"
    "os._exit(0)"
)


def time_probe(scenario: str) -> float:
    """Seconds from spawning the setup probe until it exits."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "src"), scenario],
        capture_output=True,
        timeout=60,
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"setup probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return elapsed


class SetupProbes:
    """Runs the setup probes spread evenly over the measuring window, between
    rounds, so they sample the machine as the rounds do."""

    def __init__(self, scenario: str, seconds: float) -> None:
        self.scenario = scenario
        self.interval = seconds / SETUP_PROBES
        self.times: list[float] = []
        self.start = perf_counter()

    def __call__(self) -> None:
        due = (perf_counter() - self.start) // self.interval + 1
        if len(self.times) < min(due, SETUP_PROBES):
            self.times.append(time_probe(self.scenario))

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self.times.append(time_probe(self.scenario))
        return self.times


def _play(wl, seconds: float, reference: list[str], after_round=None) -> tuple[list, list, list[str]]:
    """Repeat rounds within ``seconds``, timing the calibration kernel before
    the first round and after every round; no round starts that would, at
    the last round's pace, end past the window. Returns the rounds, the
    kernel times (one more than rounds) and the problems found.

    Each round starts from a full garbage collection, so the cyclic
    collector runs at the same points in every round; otherwise the garbage
    left by earlier rounds makes its pauses, and the peak RSS, vary with
    how many rounds happened to run."""
    rounds, kernels, problems = [], [kernel_s(wl.kernel)], []
    start = perf_counter()
    while True:
        begun = perf_counter()
        gc.collect()
        ops = wl.round()
        for op, expected in zip(ops, reference):
            if op.problem is None and op.output != expected:
                op.problem = f"{op.kind}: output differs from the reference round"
            op.output = ""  # checked; keeping it would grow memory with the round count
        problems += [op.problem for op in ops if op.problem]
        rounds.append(ops)
        kernels.append(kernel_s(wl.kernel))
        if after_round is not None:
            after_round()
        now = perf_counter()
        if now - start + (now - begun) > seconds:
            return rounds, kernels, problems


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _summary(wl, rounds: list, kernels: list[float]) -> dict:
    round_s = [sum(op.seconds for op in ops) for ops in rounds]
    ref_s = KERNELS[wl.kernel][1]
    # Each round is normalised by the mean of the kernel runs on either side.
    normalised = [
        r * ref_s / ((before + after) / 2)
        for r, before, after in zip(round_s, kernels, kernels[1:])
    ]
    out = {
        "rounds": len(rounds),
        "round_s": _quartiles(round_s),
        "norm_round_s": _quartiles(normalised),
        "kernel": wl.kernel,
        "kernel_s": statistics.median(kernels),
        "rates": {},
    }
    for name, kinds in wl.rates.items():
        per_round = []
        for ops in rounds:
            chosen = [op for op in ops if op.kind.startswith(kinds)]
            per_round.append(sum(op.items for op in chosen) / sum(op.seconds for op in chosen))
        out["rates"][name] = statistics.median(per_round)
    return out


def run(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    import numpy
    import epistemic_ledger

    source = Path(epistemic_ledger.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"epistemic_ledger imported from {source}, not from {ROOT / 'src'}")
    from workloads import WORKLOADS

    wl = WORKLOADS[job["workload"]](job)
    scenario = job.get("scenario", "-")
    if not job["trace"]:
        time_probe(scenario)  # untimed: later probes see compiled bytecode
    gc.collect()
    first = wl.round()
    reference = [op.output for op in first]
    problems = [op.problem for op in first if op.problem]
    attempted = len(first)
    result = {
        "env": {**job["env"], "python": sys.version.split()[0], "numpy": numpy.__version__},
        "output_sha256": hashlib.sha256("\x00".join(reference).encode("utf-8")).hexdigest(),
    }

    if job["trace"]:
        rounds, kernels, more = _play(wl, job["seconds"] / 2, reference)
    else:
        probes = SetupProbes(scenario, job["seconds"])
        rounds, kernels, more = _play(wl, job["seconds"], reference, probes)
        raw = _quartiles(probes.finish())
        # Probes are normalised by the run's median kernel time: a single
        # probe is too short for the kernel run next to it to track.
        scale = KERNELS[wl.kernel][1] / statistics.median(kernels)
        result["setup_s"] = {"probes": SETUP_PROBES, "raw": raw, "normalised": [x * scale for x in raw]}
        # ru_maxrss is in KiB on Linux; the probes are separate processes.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted += sum(len(ops) for ops in rounds)
    problems += more
    result["untraced"] = _summary(wl, rounds, kernels)

    if job["trace"]:
        from layers import install, layer_metrics
        from spans import Recorder

        from epistemic_ledger.simlab import load_scenario

        concept_tasks = {}
        if scenario != "-":
            concept_tasks = {t.concept_query: t.id for t in load_scenario(scenario).tasks}
        rec = Recorder()
        hooks, undo = install(rec, concept_tasks)

        def next_round() -> None:
            hooks.end_round(rec)
            rec.run_id += 1

        try:
            traced, kernels, more = _play(wl, job["seconds"] / 2, reference, next_round)
        finally:
            undo()
        attempted += sum(len(ops) for ops in traced)
        problems += more
        result["traced"] = _summary(wl, traced, kernels)
        layers, not_applicable, errors = layer_metrics(rec, len(traced))
        layers["trace.overhead_frac"] = (
            result["traced"]["norm_round_s"][1] / result["untraced"]["norm_round_s"][1] - 1.0
        )
        result["layers"] = layers
        rec.write(
            Path(job["trace_file"]),
            {
                "workload": job["workload"],
                "seed": job["seed"],
                "env": result["env"],
                "rounds": len(traced),
                "per_round_metrics": layers,
                "not_applicable": not_applicable,
                "layer_errors": errors,
            },
        )
        result["trace_spans"] = len(rec.name)

    result["attempted"] = attempted
    result["failed"] = len(problems)
    result["problems"] = problems[:10]
    Path(job["result_file"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    run(sys.argv[1])
