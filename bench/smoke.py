"""Smoke test for the benchmark itself.

    python3 bench/smoke.py

Runs every workload at tiny sizes for half a second, untraced and traced, and
checks that:

- no operation fails and every output check passes;
- the JSON line carries exactly the end-to-end or per-layer metrics of
  BENCHMARK.json, each with its unit and a finite value;
- the report prints every end-to-end metric that applies to the workload by
  name, with its unit and sample count;
- the traced run writes its trace file, which gives a value or a reason for
  every per-layer metric;
- in a directory holding only BENCHMARK.json and the benchmark's files, the
  benchmark exits non-zero without printing a result.

Exits 0 when all hold. Takes about half a minute.
"""

from __future__ import annotations

import gzip
import json
import math
import re
import shutil
import subprocess
import sys

import run

# The end-to-end metrics the report prints, by workload, with their units.
COMMON = {"setup_s": "s", "peak_rss_mb": "MiB", "failed_ops_frac": "ratio", "round_ms": "ms", "norm_round_ms": "ms"}
RATES = {
    "mc-docket": ("dockets_per_s",),
    "audit-classify": ("certs_per_s", "props_per_s", "records_per_s"),
}
SAMPLES = r"\((median of \d+ |n=1 |\d+ failed of \d+ ops)"


class SmokeFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def check_run(workload: str, trace: bool, spec: dict) -> None:
    lines, summary = run.bench(workload, seed=1, seconds=0.5, trace=trace, scale="tiny")
    report = "\n".join(lines)
    where = f"{workload} trace={int(trace)}"
    expect(summary["correct"] and summary["failed"] == 0, f"{where}: failed operations\n{report}")
    expect(summary["attempted"] >= 1, f"{where}: no operations attempted")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {name: m["unit"] for name, m in summary["metrics"].items()}
    expect(units == wanted, f"{where}: metrics/units {units} differ from BENCHMARK.json {wanted}")
    for name, m in summary["metrics"].items():
        expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{where}: {name} = {m['value']}")
    if trace:
        match = re.search(r"^trace file (\S+) ", report, re.M)
        expect(match is not None and "trace.overhead_frac = " in report, f"{where}: no trace report\n{report}")
        with gzip.open(run.ROOT / match.group(1), "rt", encoding="utf-8") as fh:
            trace_data = json.load(fh)
        for name in spec["per_layer"]:
            value = trace_data["per_round_metrics"].get(name)
            expect(
                value is not None and (value != 0 or name in trace_data["not_applicable"]),
                f"{where}: trace file has neither a value nor a reason for {name}",
            )
        expect(len(trace_data["spans"]["name"]) > 0, f"{where}: trace file holds no spans")
    else:
        named = dict(COMMON, **{name: "1/s" for name in RATES[workload]})
        for name, unit in named.items():
            pattern = rf"^{re.escape(name)} = [0-9.]+ {re.escape(unit)} {SAMPLES}"
            expect(re.search(pattern, report, re.M) is not None, f"{where}: report lacks {name} [{unit}]\n{report}")
    print(f"ok {where}")


def check_without_program() -> None:
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, print no result."""
    stripped = run.WORK / "smoke-stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", stripped)
    shutil.copytree(run.BENCH, stripped / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "mc-docket", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=stripped,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    expect(proc.returncode != 0, "benchmark exited 0 without the program")
    expect('"metrics"' not in proc.stdout, "benchmark printed a result without the program")
    print("ok without program: exit", proc.returncode)


def main() -> int:
    spec = run.load_spec()
    try:
        for workload in spec["workloads"]:
            for trace in (False, True):
                check_run(workload, trace, spec)
        check_without_program()
    except SmokeFailure as exc:
        print(f"smoke: FAIL: {exc}", file=sys.stderr)
        return 1
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
