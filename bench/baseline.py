"""Run the benchmark over several seeds per workload and summarise the spread.

    python3 bench/baseline.py [--seeds 1,2,...] [--workloads a,b] [--out FILE]

Each run is ``run.py`` in its own process, exactly as it is invoked one run
at a time, for BENCHMARK.json's ``run_seconds``. For every metric in the
reports (the JSON line's and the readable lines') it prints the median, the
quartiles and the quartile spread (q3 - q1) / median, and marks a JSON
metric whose spread is not below a third of its bound. One traced run per
workload, at the first seed, adds the per-layer metrics. With ``--out`` the
summary, the environment, the input properties and the output sha256 at
the first seed are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import run

LINE = re.compile(r"^([\w.]+) = ([-0-9.e]+) (\S+) \(")


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        first = None
        for seed in seeds:
            lines, result = one_run(workload, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output\n" + "\n".join(lines))
            first = first or lines
            for line in lines:
                match = LINE.match(line)
                if match:
                    values.setdefault(match[1], []).append(float(match[2]))
                    units[match[1]] = match[3]
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        entry = {"metrics": {}}
        for name, vals in values.items():
            entry["metrics"][name] = {"unit": units[name], "n": len(vals), **spread(vals)}
            flag = ""
            if name in bounds and name != "setup_s" and entry["metrics"][name]["spread"] >= bounds[name] / 3:
                flag, steady = "  <-- not below a third of its bound", False
            print(f"  {name}: median {entry['metrics'][name]['median']:.4f} {units[name]}, "
                  f"spread {entry['metrics'][name]['spread']:.4f}{flag}")
        for line in first:
            if line.startswith(("env ", "inputs ", "output_sha256 ")):
                key, _, rest = line.partition(" ")
                entry[key] = json.loads(rest) if key == "inputs" else rest
        _, traced = one_run(workload, seeds[0], seconds, 1)
        entry["per_layer_at_first_seed"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
