"""Workload rounds and their output checks, run inside the worker process.

A round is the fixed unit of work a workload repeats: the same calls on the
same generated inputs, so every round must produce byte-identical output.
The program is driven only through ``cli.main`` in-process, and for the
validation trail (which has no CLI) through the public ``validation`` functions;
both are looked up as module attributes at call time so the traced run can
wrap them. Checks run outside the timed calls.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from epistemic_ledger import cli, validation
from epistemic_ledger.artifacts import certificate_to_text, read_certificate
from epistemic_ledger.metrics import PipelineKind, PipelineSpec
from epistemic_ledger.validation import LossRecord, ModelCandidate

from inputs import CERT_TIMESTAMP


@dataclass
class Op:
    """One timed call: its kind, seconds, work items and checked output."""

    kind: str
    seconds: float
    items: int
    output: str
    problem: str | None = None


def _numbers_in_unit(values, what: str) -> str | None:
    for v in values:
        x = float(v)
        if not (0.0 <= x <= 1.0) or math.isnan(x):
            return f"{what} {v} outside [0, 1]"
    return None


def _call_cli(kind: str, argv: list[str], items: int, out: str | None) -> Op:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # an exception leaving the program fails the op
            code = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    text = stdout.getvalue()
    if out is not None and code == 0:
        text += Path(out).read_text(encoding="utf-8")
    op = Op(kind, seconds, items, text)
    if code != 0:
        op.problem = f"{kind}: exit {code}: {stderr.getvalue().strip()[:200]}"
    return op


class McDocket:
    """``sweep montecarlo`` on one scaled scenario: one corpus, many dockets."""

    kernel = "text"
    rates = {"dockets_per_s": ("montecarlo",)}

    def __init__(self, job: dict) -> None:
        self.job = job
        self.out = str(Path(job["workdir"]) / "montecarlo.csv")

    def round(self) -> list[Op]:
        runs = self.job["runs"]
        argv = ["sweep", "montecarlo", "--scenario", self.job["scenario"], "--runs", str(runs), "--out", self.out]
        op = _call_cli("montecarlo", argv, runs, self.out)
        if op.problem is None:
            op.problem = self._check(op.output, runs)
        return [op]

    @staticmethod
    def _check(text: str, runs: int) -> str | None:
        rows = list(csv.DictReader(io.StringIO(text)))
        if len(rows) != 8:
            return f"montecarlo: {len(rows)} docket cells, expected 8"
        for row in rows:
            if int(row["runs"]) != runs:
                return f"montecarlo: runs column {row['runs']}, expected {runs}"
            values = [float(row[k]) for k in ("min", "q1", "median", "q3", "max")]
            if values != sorted(values):
                return f"montecarlo: quartiles out of order in {row}"
            problem = _numbers_in_unit(values, "montecarlo score")
            if problem:
                return problem
        return None


class AuditClassify:
    """The ledger path: ``score``, ``certify`` (writes), ``classify`` (reads),
    then the validation trail behind a certificate (see ``EvidenceTrail``)."""

    kernel = "scan"
    rates = {"certs_per_s": ("certify",), "props_per_s": ("classify",), "records_per_s": ("evidence.",)}

    def __init__(self, job: dict) -> None:
        self.job = job
        self.evidence = EvidenceTrail(job)
        self.out = str(Path(job["workdir"]) / "score.csv")
        self.prop_ids = {
            d["size"]: [row["id"] for row in csv.DictReader(io.StringIO(Path(d["propositions"]).read_text()))]
            for d in job["dockets"]
        }

    def round(self) -> list[Op]:
        job = self.job
        score = _call_cli("score", ["score", job["pipelines"], "--out", self.out], 1, self.out)
        if score.problem is None:
            lines = score.output.splitlines()
            if len(lines) != self.job["properties"]["pipelines"] + 4:
                score.problem = f"score: {len(lines)} lines for {self.job['properties']['pipelines']} pipelines"
            else:
                score.problem = _numbers_in_unit(
                    [line.rsplit(",", 1)[1] for line in lines[1:-3]], "pipeline score"
                )
        ops = [score]
        for cert in job["certs"]:
            argv = ["certify", cert["records"], "--pipeline-id", cert["pipeline"], "--kind", cert["kind"],
                    "--cost", str(cert["cost"]), "--timestamp", CERT_TIMESTAMP, "--out", cert["out"]]
            op = _call_cli("certify", argv, 1, cert["out"])
            if op.problem is None:
                op.problem = self._check_roundtrip(cert["out"])
            ops.append(op)
        for docket in job["dockets"]:
            argv = ["classify", "--propositions", docket["propositions"], "--pipelines", job["pipelines"],
                    "--executions", docket["executions"], "--seed", str(job["seed"]), "--out", docket["report"]]
            op = _call_cli("classify", argv, docket["size"], docket["report"])
            if op.problem is None:
                op.problem = self._check_report(op.output, self.prop_ids[docket["size"]])
            ops.append(op)
        return ops + self.evidence.round()

    @staticmethod
    def _check_roundtrip(path: str) -> str | None:
        text = Path(path).read_text(encoding="utf-8")
        if certificate_to_text(read_certificate(path)) != text:
            return f"certify: {path} does not round-trip through read_certificate"
        return None

    @staticmethod
    def _check_report(text: str, prop_ids: list[str]) -> str | None:
        blocks = [line[len("[proposition "):-1] for line in text.splitlines() if line.startswith("[proposition ")]
        if blocks != prop_ids:
            return f"classify: {len(blocks)} report blocks for {len(prop_ids)} propositions"
        if "\n[capacity]\n" not in text:
            return "classify: report has no [capacity] section"
        return None


def _majority(train):
    ones = sum(y for _, y in train)
    label = int(2 * ones >= len(train))
    return lambda x: label


def _threshold(train):
    cut = sum(x for x, _ in train) / len(train)
    return lambda x: int(x > cut)


def _class_means(train):
    ones = [x for x, y in train if y] or [0.0]
    zeros = [x for x, y in train if not y] or [0.0]
    m1, m0 = sum(ones) / len(ones), sum(zeros) / len(zeros)
    return lambda x: int(abs(x - m1) < abs(x - m0))


CANDIDATES = (
    ModelCandidate("majority", _majority, complexity=0.0),
    ModelCandidate("threshold", _threshold, complexity=1.0),
    ModelCandidate("class_means", _class_means, complexity=2.0),
)


def _fold_problem(plan, n: int, partition: bool) -> str | None:
    """Test folds never overlap; a partitioning plan's test folds cover
    0..n-1 with each train set the complement of its test set, and a rolling
    plan trains only on indices before its test window."""
    everything = set(range(n))
    seen: set[int] = set()
    for fold in plan.folds:
        test = set(fold.test)
        if len(test) != len(fold.test) or test & seen:
            return f"{plan.strategy}: test folds overlap"
        seen |= test
        if partition and set(fold.train) != everything - test:
            return f"{plan.strategy}: fold {fold.fold_id} train is not the complement of test"
        if not partition and max(fold.train) >= min(fold.test):
            return f"{plan.strategy}: fold {fold.fold_id} trains on its future"
    if partition and seen != everything:
        return f"{plan.strategy}: test folds do not cover 0..{n - 1}"
    return None


class EvidenceTrail:
    """Folds, penalised selection, calibration error and certify on n records."""

    def __init__(self, job: dict) -> None:
        self.job = job
        with open(job["records"], encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        self.n = len(rows)
        self.dataset = [(float(r["x"]), int(r["y"])) for r in rows]
        self.groups = [r["group"] for r in rows]
        self.times = [int(r["time"]) for r in rows]
        self.predictions = [(float(r["confidence"]), r["correct"] == "1") for r in rows]
        self.eval_sets: dict[str, list[LossRecord]] = {}
        for r in rows:
            self.eval_sets.setdefault(r["component"], []).append(LossRecord("", "", float(r["loss"])))
        self.pipeline = PipelineSpec(id="evidence", kind=PipelineKind.FULL, expected_cost=1.0)
        self.cert_path = Path(job["workdir"]) / "evidence.cert"

    def _timed(self, kind: str, fn, *args, **kwargs):
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            problem = None
        except Exception as exc:
            result, problem = None, f"{kind}: {type(exc).__name__}: {exc}"
        return result, Op(f"evidence.{kind}", perf_counter() - start, 0, "", problem)

    def round(self) -> list[Op]:
        n = self.n
        train = n // 2
        test = max(1, n // 20)
        strategies = (
            ("kfold", validation.KFold(5, self.job["shuffle_seed"]), None, True),
            ("grouped", validation.Grouped(5), self.groups, True),
            ("rolling", validation.RollingWindow(train, test, test), self.times, False),
        )
        ops, plans = [], {}
        for name, strategy, keys, partition in strategies:
            plan, op = self._timed(f"folds.{name}", validation.make_folds, n, strategy, keys=keys)
            if plan is not None:
                plans[name] = plan
                op.problem = _fold_problem(plan, n, partition)
                op.output = f"{plan.strategy}:" + ";".join(
                    f"{f.fold_id}:{len(f.train)}:{len(f.test)}:{hash(f.test)}" for f in plan.folds
                )
            ops.append(op)
        if "kfold" in plans:
            chosen, op = self._timed(
                "select", validation.penalized_select, CANDIDATES, self.dataset, plans["kfold"], 0.01
            )
            op.output = f"selected={chosen.id if chosen else None}"
            ops.append(op)
        for binning in (validation.EqualWidth(10), validation.EqualMass(10)):
            report, op = self._timed(f"ece.{binning.describe()}", validation.ece, self.predictions, binning)
            if report is not None:
                op.output = f"{report.binning}={report.ece!r}"
                if report.total != n or not (0.0 <= report.ece <= 1.0):
                    op.problem = f"ece: {report.total} binned of {n}, ece {report.ece}"
            ops.append(op)
        cert, op = self._timed(
            "certify", validation.certify, self.pipeline, self.eval_sets,
            measured_cost=1.0, delta=0.05, timestamp=CERT_TIMESTAMP,
        )
        if cert is not None:
            op.output = certificate_to_text(cert)
            self.cert_path.write_text(op.output, encoding="utf-8")
            if certificate_to_text(read_certificate(self.cert_path)) != op.output:
                op.problem = "certify: certificate does not round-trip through read_certificate"
        ops.append(op)
        ops[0].items = n
        return ops


WORKLOADS = {
    "mc-docket": McDocket,
    "audit-classify": AuditClassify,
}
