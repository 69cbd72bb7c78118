"""The repository benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It generates the workload's inputs from the
seed under ``.bench_work/`` and runs the workload in one child process
(``worker.py``) whose numeric libraries are pinned to at most ``nproc``
threads; the child also times ``setup_s`` over fresh interpreters. Every
output is checked. Timed figures are normalised for the box's speed at the
time (``calibrate.py``); the report also gives the raw ones.
Stdout carries a readable report: each end-to-end metric by name, with its
unit and sample count, the environment, the generated inputs' properties and
the sha256 of the workload's output. The last line is one JSON object with
the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer
metrics (``--trace 1``). The traced run also writes its spans to
``.bench_work/traces/``, never to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCENARIO_TEMPLATE = ROOT / "src" / "epistemic_ledger" / "simlab" / "data" / "appendix_a.scenario"
WORK = ROOT / ".bench_work"
# The contract allows 180 s per run; keep a margin for set-up and clean-up.
WORKER_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH))
import inputs  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def environment() -> dict:
    threads = len(os.sched_getaffinity(0))
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": threads, "cpu": cpu}


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env["PYTHONHASHSEED"] = "0"
    return env


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def bench(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> tuple[list[str], dict]:
    """Run one workload; returns the report lines and the result object."""
    spec = load_spec()
    if workload not in spec["workloads"]:
        raise BenchError(f"unknown workload {workload!r}; BENCHMARK.json has {spec['workloads']}")
    if not SCENARIO_TEMPLATE.is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}")
    env_info = environment()
    env = child_env(env_info["nproc"])
    run_dir = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        job = inputs.generate(
            workload, seed, scale, run_dir, SCENARIO_TEMPLATE.read_text(encoding="utf-8")
        )
        trace_file = WORK / "traces" / f"{workload}-seed{seed}.json.gz"
        job.update(
            env=env_info,
            seconds=seconds,
            trace=trace,
            result_file=str(run_dir / "result.json"),
            trace_file=str(trace_file),
        )
        job_path = run_dir / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")

        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(job_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"worker failed: {proc.stderr.decode(errors='replace').strip()[-2000:]}")
        result = json.loads(Path(job["result_file"]).read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = result["untraced"]
    rounds = untraced["rounds"]
    setup = result.get("setup_s")
    lines = [
        f"# workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)} scale {scale}",
        "env " + " ".join(f"{k}={v}" for k, v in result["env"].items()),
        "inputs " + json.dumps(job["properties"], sort_keys=True),
        f"output_sha256 {result['output_sha256']}",
    ]
    for problem in result["problems"]:
        lines.append(f"FAILED {problem}")
    frac = result["failed"] / result["attempted"]
    lines.append(
        f"failed_ops_frac = {frac:.4f} ratio ({result['failed']} failed of {result['attempted']} ops)"
    )
    if trace:
        traced = result["traced"]
        layers = result["layers"]
        lines.append(
            f"trace.overhead_frac = {layers['trace.overhead_frac']:.4f} ratio "
            f"(median of {traced['rounds']} traced vs {rounds} untraced rounds)"
        )
        lines.append(f"trace file {trace_file.relative_to(ROOT)} ({result['trace_spans']} spans)")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in spec["per_layer"].items()}
    else:
        raw, norm = setup["raw"], setup["normalised"]
        lines.append(
            f"setup_s = {norm[1]:.4f} s (median of {setup['probes']} fresh interpreters, normalised; "
            f"raw median {raw[1]:.4f}, q1 {raw[0]:.4f}, q3 {raw[2]:.4f})"
        )
        lines.append(f"peak_rss_mb = {result['peak_rss_mb']:.2f} MiB (n=1 worker process)")
        for name, value in untraced["rates"].items():
            lines.append(f"{name} = {value:.4f} 1/s (median of {rounds} rounds, raw)")
        for name, key in (("round_ms", "round_s"), ("norm_round_ms", "norm_round_s")):
            q1, median, q3 = (x * 1000 for x in untraced[key])
            lines.append(f"{name} = {median:.2f} ms (median of {rounds} rounds; q1 {q1:.2f}, q3 {q3:.2f})")
        lines.append(
            f"calibration kernel {untraced['kernel']} = {untraced['kernel_s'] * 1000:.2f} ms "
            f"(median of {rounds + 1} runs)"
        )
        values = {
            "setup_s": norm[1],
            "peak_rss_mb": result["peak_rss_mb"],
            "norm_round_ms": untraced["norm_round_s"][1] * 1000,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec["end_to_end"].items()}
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return lines, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        lines, summary = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
