"""Command-line front end: score, certify, classify, simulate, sweep.

Exit codes: 0 success, 1 input/domain diagnostic (file and line named where
applicable), 2 usage error, 3 certification refused. Seed precedence for
simulate, sweep scalability and sweep montecarlo: --seed, then the
EPISTEMIC_LEDGER_SEED environment variable, then the scenario file's own
seed. classify reads no seed; its --seed is only echoed into the report.

The simulation commands import ``simlab``, and with it numpy, only when they
run, so score, certify and classify start without numpy.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, metrics
from .artifacts import (
    DEFAULT_SCENARIO_NAME,
    InputError,
    audit_report,
    certificate_to_text,
    csv_text,
    files_hash,
    fmt,
    parse_sections,
    policy_params,
    read_eval_records_csv,
    read_executions_csv,
    read_pipelines_csv,
    read_input,
    read_propositions_csv,
    score_table,
)
from .doctrine import classify
from .metrics import (
    PipelineKind,
    PipelineSpec,
    PolicyParams,
    _require,
    capacity_index,
    org_score,  # not called here; kept bound because the bench wraps it here
)
from .validation import (
    BoundMethod,
    CertificationRefusedError,
    certify,
    check_pipeline_id,
    check_text,
    check_timestamp,
    lower_bound_capacity,
    lower_bound_score,
    plug_in_test,
)

if TYPE_CHECKING:
    from .simlab import MonteCarloResult, SimScenario

ENV_SEED = "EPISTEMIC_LEDGER_SEED"
MAX_GRID_POINTS = 100_001  # a step of 1e-5 over [0, 1]; the default grid has 51


def _bounded(low: float, high: float = math.inf, *, closed: bool = False, cast=float):
    """An argparse type for a number ``cast`` reads, in (low, high), or [low, high] if
    ``closed``, under the library's range rule."""

    kind = "an integer" if cast is int else "a finite number"
    interval = f"{'[' if closed else '('}{low:g}, {high:g}{']' if closed and high < math.inf else ')'}"

    def parse(value: str):
        try:
            parsed = cast(value)
            _require("value", parsed, low, high, exclusive=not closed)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {kind} in {interval}, got {value!r}") from None
        return parsed

    return parse


_seed = _bounded(0, closed=True, cast=int)


def _checked(rule, *args):
    """An argparse type that applies a library ``rule``, whose ValueError becomes a usage error."""

    def parse(value: str):
        try:
            return rule(value, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _eps_grid(value: str) -> tuple[float, ...]:
    parts = value.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected START:STOP:STEP, e.g. 0:0.5:0.01")
    start = _bounded(0.0, 1.0, closed=True)(parts[0])
    stop = _bounded(start, 1.0, closed=True)(parts[1])
    step = _bounded(0.0)(parts[2])
    steps = (stop - start) / step + 1e-9  # STOP is the last point, never passed
    if steps >= MAX_GRID_POINTS:  # the grid has floor(steps) + 1 points; steps is inf for a tiny step
        raise argparse.ArgumentTypeError(f"grid {value!r} has more than {MAX_GRID_POINTS} points")
    return tuple(round(start + i * step, 10) for i in range(math.floor(steps) + 1))


def _sizes(value: str) -> tuple[int, ...]:
    sizes = tuple(_seed(p) for p in value.split(",") if p.strip())
    if not sizes or list(sizes) != sorted(sizes):
        raise argparse.ArgumentTypeError("sizes must be non-empty and ascending")
    return sizes


def _policy_from_args(args: argparse.Namespace) -> PolicyParams:
    text = read_input(args.policy) if args.policy else ""
    section = parse_sections(text, args.policy or "<flags>", flat=True)[""]
    return policy_params(section, tau_star=args.tau_star, theta_c=args.theta, delta=args.delta)


def _resolve_seed(args: argparse.Namespace, scenario: SimScenario) -> int:
    """--seed, else the seed variable, else the scenario's; a bad variable fails ``args.parser``."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(ENV_SEED)
    if raw is None or raw == "":
        return scenario.seed
    try:
        return _seed(raw)
    except argparse.ArgumentTypeError as exc:
        args.parser.error(f"{ENV_SEED}: {exc}")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_score(args: argparse.Namespace) -> int:
    policy = _policy_from_args(args)
    pipelines = read_pipelines_csv(args.pipelines)
    if not pipelines:
        raise InputError("pipelines file contains no pipelines", str(args.pipelines), 1)
    _emit(score_table(pipelines, policy), args.out)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    policy = _policy_from_args(args)
    eval_sets = read_eval_records_csv(args.records)
    pipeline = PipelineSpec(
        id=args.pipeline_id, kind=PipelineKind(args.kind), expected_cost=args.cost
    )
    cert = certify(
        pipeline,
        eval_sets,
        measured_cost=args.cost,
        delta=policy.delta,
        method=BoundMethod(args.method),
        fold_strategy=args.fold_strategy,
        timestamp=args.timestamp,
    )
    text = certificate_to_text(cert)
    summary = (
        f"s_lb = {fmt(lower_bound_score(cert, policy.tau_star))}\n"
        f"plug_in(theta={fmt(policy.theta_c)}) = "
        f"{str(plug_in_test(cert, policy.theta_c, policy.tau_star)).lower()}\n"
    )
    if args.out:
        _emit(text, args.out)
        sys.stdout.write(summary)
    else:
        sys.stdout.write(text)
        sys.stderr.write(summary)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    policy = _policy_from_args(args)
    pipelines = {p.id: p for p in read_pipelines_csv(args.pipelines)}
    docket = read_propositions_csv(args.propositions, pipelines)
    sets = docket.pipeline_sets
    records = {p.id: [] for p in docket.propositions}
    if args.executions:
        for r in read_executions_csv(args.executions, records, pipelines):
            records[r.proposition_id].append(r)
    # Each pipeline is scored once, through metrics, where the bench counts the calls.
    # An org score is the max of its pipelines' scores: the float org_score gives
    # whichever pipeline wins a tie.
    scores = {p.id: metrics.pipeline_score(p, policy) for p in pipelines.values()}
    org_scores = {
        p.id: max([scores[s.id] for s in sets[p.id]], default=None) for p in docket.propositions
    }
    certs = {
        prop_id: tuple(r.certificate for r in rs if r.certificate is not None)
        for prop_id, rs in records.items()
    }
    capacity_point = capacity_lower = None
    if docket.total_weight() > 0:
        capacity_point = capacity_index(docket, org_scores)
        capacity_lower = lower_bound_capacity(docket, certs, policy)
    findings = {
        p.id: classify(
            p, sets[p.id], records[p.id], policy, capacity=capacity_point, score=org_scores[p.id]
        )
        for p in docket.propositions
    }
    report = audit_report(
        version=__version__,
        policy=policy,
        docket=docket,
        findings=findings,
        org_scores=org_scores,
        certificates=certs,
        capacity_point=capacity_point,
        capacity_lower=capacity_lower,
        inputs_hash=files_hash(f for f in (args.pipelines, args.propositions, args.executions) if f),
        seed=str(args.seed) if args.seed is not None else "none",
    )
    _emit(report, args.out)
    return 0


# Kept as a name of this module because the bench wraps it here and its setup probe calls it.
def load_scenario(source: str | Path) -> SimScenario:
    from .simlab import load_scenario

    return load_scenario(source)


# Kept as a name of this module because the bench wraps it here.
def monte_carlo(
    scenario: SimScenario, runs: int, jitter_sigma: float | None = None, seed: int | None = None
) -> MonteCarloResult:
    from .simlab import monte_carlo

    return monte_carlo(scenario, runs, jitter_sigma, seed)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simlab import company_capacity, export_corpus, generate_corpus, run_docket

    scenario = load_scenario(args.scenario)
    seed = _resolve_seed(args, scenario)
    rows = run_docket(scenario, seed=seed)
    text = csv_text(
        "company,task,doctrine,time_s,eps_ret,eps_ver,eps_tot,score",
        (
            (r.company, r.task_id, r.doctrine, r.simulated_time, r.eps_ret, r.eps_ver, r.eps_tot,
             r.score)
            for r in rows
        ),
    )
    if args.summary:
        theta = scenario.policy.theta_c
        # Tasks whose weights are all 0 have no capacity index, as in classify's report.
        weighted = sum(task.weight for task in scenario.tasks) > 0
        text += "\n" + csv_text(
            "company,capacity,theta",
            (
                (c, company_capacity(scenario, rows, c) if weighted else "none", theta)
                for c in ("legacy", "modern")
            ),
        )
    if args.export_corpus:
        corpus = generate_corpus(scenario, seed)
        Path(args.export_corpus).write_text(export_corpus(corpus), encoding="utf-8")
    _emit(text, args.out)
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from .simlab import sensitivity_sweep

    curve = sensitivity_sweep(load_scenario(args.scenario), args.eps_grid)
    rows = ((p.eps_ver, p.score, p.meets_threshold, p.eps_ver == curve.first_crossing) for p in curve.points)
    _emit(csv_text("eps_ver,score,meets_theta,crossover", rows), args.out)
    return 0


def _cmd_scalability(args: argparse.Namespace) -> int:
    from .simlab import scalability_sweep

    scenario = load_scenario(args.scenario)
    points = scalability_sweep(scenario, args.sizes, seed=_resolve_seed(args, scenario))
    rows = ((p.corpus_size, p.legacy_cost, p.modern_cost) for p in points)
    _emit(csv_text("corpus_size,legacy_cost,modern_cost", rows), args.out)
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    seed = _resolve_seed(args, scenario)
    result = monte_carlo(scenario, runs=args.runs, jitter_sigma=args.jitter, seed=seed)
    rows = (
        (c.company, c.task_id, c.doctrine, result.runs, min(c.scores), *c.quartiles(), max(c.scores))
        for c in result.cells
    )
    _emit(csv_text("company,task,doctrine,runs,min,q1,median,q3,max", rows), args.out)
    return 0


def _add_policy_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--policy", help="policy file (key = value lines)")
    sub.add_argument("--theta", type=_bounded(0.0, 1.0), help="knowledge threshold theta_c")
    sub.add_argument("--tau-star", dest="tau_star", type=_bounded(0.0), help="reference seconds")
    sub.add_argument("--delta", type=_bounded(0.0, 1.0), help="confidence parameter")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built at first use.

    Every parse shares it, so it holds no per-call state: each subparser
    names its handler with ``set_defaults(run=...)``, a subcommand that reads
    the seed variable names its own parser (``parser=...``), and the
    list-valued defaults are tuples that no handler can change in place.
    """
    parser = argparse.ArgumentParser(
        prog="epistemic-ledger",
        description=(
            "Score information pipelines, issue validation certificates, "
            "classify epistemic states, and run the seeded two-firm simulation."
        ),
        epilog=(
            "Seed precedence for simulate, sweep scalability and sweep montecarlo: "
            f"--seed, then ${ENV_SEED}, then the scenario's seed."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(required=True)

    p_score = sub.add_parser("score", help="score pipelines from a CSV file")
    p_score.set_defaults(run=_cmd_score)
    p_score.add_argument("pipelines", help="pipelines CSV")
    _add_policy_flags(p_score)
    p_score.add_argument("--out", help="write the table here instead of stdout")

    p_cert = sub.add_parser("certify", help="issue a validation certificate")
    p_cert.set_defaults(run=_cmd_certify)
    p_cert.add_argument("records", help="evaluation records CSV (component,loss)")
    p_cert.add_argument("--pipeline-id", type=_checked(check_pipeline_id), required=True)
    p_cert.add_argument(
        "--kind",
        choices=[k.value for k in PipelineKind],
        default=PipelineKind.FULL.value,
    )
    p_cert.add_argument("--cost", type=_bounded(0.0, closed=True), required=True, help="measured seconds")
    p_cert.add_argument(
        "--method", choices=[m.value for m in BoundMethod], default=BoundMethod.WILSON.value
    )
    p_cert.add_argument("--fold-strategy", type=_checked(check_text, "fold_strategy"), default="holdout")
    p_cert.add_argument(
        "--timestamp", type=_checked(check_timestamp), help="ISO 8601 timestamp to embed (default: now)"
    )
    _add_policy_flags(p_cert)
    p_cert.add_argument("--out", help="write the certificate here instead of stdout")

    p_classify = sub.add_parser("classify", help="emit an audit report with doctrine findings")
    p_classify.set_defaults(run=_cmd_classify)
    p_classify.add_argument("--propositions", required=True, help="propositions CSV")
    p_classify.add_argument("--pipelines", required=True, help="pipelines CSV")
    p_classify.add_argument("--executions", help="executions CSV (optional)")
    p_classify.add_argument("--seed", type=_seed, help="seed echoed into the report header")
    _add_policy_flags(p_classify)
    p_classify.add_argument("--out", help="write the report here instead of stdout")

    p_sim = sub.add_parser("simulate", help="run the docket simulation")
    p_sim.set_defaults(run=_cmd_simulate, parser=p_sim)
    p_sim.add_argument("--scenario", default=DEFAULT_SCENARIO_NAME, help="scenario file or packaged name")
    p_sim.add_argument("--seed", type=_seed, help="override the scenario seed")
    p_sim.add_argument("--summary", action="store_true", help="append capacity rows")
    p_sim.add_argument("--export-corpus", dest="export_corpus", help="also write the corpus here")
    p_sim.add_argument("--out", help="write the CSV here instead of stdout")

    p_sweep = sub.add_parser("sweep", help="sensitivity, scalability, or Monte Carlo sweeps")
    sweep_sub = p_sweep.add_subparsers(required=True)

    def sweep_parser(name: str, run) -> argparse.ArgumentParser:
        p = sweep_sub.add_parser(name)
        p.set_defaults(run=run, parser=p)
        p.add_argument("--scenario", default=DEFAULT_SCENARIO_NAME)
        p.add_argument("--out")
        return p

    p_sens = sweep_parser("sensitivity", _cmd_sensitivity)
    p_sens.add_argument("--eps-grid", dest="eps_grid", type=_eps_grid, default=_eps_grid("0:0.5:0.01"))
    p_scale = sweep_parser("scalability", _cmd_scalability)
    p_scale.add_argument("--seed", type=_seed)
    p_scale.add_argument(
        "--sizes", type=_sizes, default=_sizes("60,100,200,300,400,500,600,700,800,900,1000")
    )
    p_mc = sweep_parser("montecarlo", _cmd_montecarlo)
    p_mc.add_argument("--seed", type=_seed)
    p_mc.add_argument("--runs", type=_bounded(1, closed=True, cast=int), default=15)
    p_mc.add_argument("--jitter", type=_bounded(0.0, closed=True), default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CertificationRefusedError) else 1


if __name__ == "__main__":
    sys.exit(main())
