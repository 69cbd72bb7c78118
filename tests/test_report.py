"""The audit report renders each frontier point, certificate and distinct rationale
line once; its text must equal that of the renderer that writes every line anew."""

import random

import pytest

from epistemic_ledger.artifacts import _cell, audit_report, fmt, policy_hash
from epistemic_ledger.doctrine import (
    AvoidanceEvidence,
    Doctrine,
    ExecutionRecord,
    Verdict,
    classify,
)
from epistemic_ledger.metrics import (
    ComponentErrors,
    Docket,
    PipelineKind,
    PipelineSpec,
    PolicyParams,
    Proposition,
    capacity_index,
    epistemic_frontier,
    knowledge_predicate,
    org_score,
)
from epistemic_ledger.validation import lower_bound_capacity, lower_bound_score

from test_validation import make_cert

POLICY = PolicyParams()


def _reference_report(
    version, policy, docket, findings, org_scores, certificates, capacity_point, capacity_lower,
    inputs_hash, seed,
):
    """The audit report one line at a time, rendering every point and finding anew."""
    lines = [
        "# audit report (model classification, not legal advice)",
        f"version = {version}",
        f"policy_hash = {policy_hash(policy)}",
        f"inputs_hash = {inputs_hash}",
        f"seed = {seed}",
        f"tau_star = {fmt(policy.tau_star)}",
        f"theta_c = {fmt(policy.theta_c)}",
    ]
    for prop in docket.propositions:
        pipes = docket.pipeline_sets.get(prop.id, ())
        finding = findings[prop.id]
        lines.append("")
        lines.append(f"[proposition {prop.id}]")
        lines.append(f"description = {prop.description}")
        lines.append(f"weight = {fmt(prop.salience_weight)}")
        lines.append(f"threshold = {fmt(prop.threshold)}")
        score = org_scores.get(prop.id)
        lines.append(f"org_score = {fmt(score) if score is not None else 'none'}")
        lines.append(f"predicate = {_cell(score is not None and score >= prop.threshold)}")
        frontier = "none"
        if pipes:
            frontier = "; ".join(
                f"{p.pipeline_id}:{fmt(p.cost)}:{fmt(p.total_error)}" for p in epistemic_frontier(pipes)
            )
        lines.append(f"frontier = {frontier}")
        certs = certificates.get(prop.id, ())
        if certs:
            rendered = "; ".join(
                f"{c.pipeline_id}:s_lb={fmt(lower_bound_score(c, policy.tau_star))}" for c in certs
            )
            lines.append(f"certificates = {rendered}")
        else:
            lines.append("certificates = none")
        applicable = ",".join(sorted(d.value for d in finding.applicable)) or "none"
        lines.append(f"applicable = {applicable}")
        lines.append(f"primary = {finding.primary.value if finding.primary else 'none'}")
        for doctrine, detail in finding.rationale:
            rendered = " ".join(f"{k}={_cell(v)}" for k, v in sorted(detail.items()))
            lines.append(f"rationale.{doctrine.value} = {rendered}")
    lines.append("")
    lines.append("[capacity]")
    lines.append(f"point = {fmt(capacity_point) if capacity_point is not None else 'none'}")
    lines.append(f"lower_bound = {fmt(capacity_lower) if capacity_lower is not None else 'none'}")
    lines.append(f"theta_neg = {fmt(policy.theta_neg)}")
    return "\n".join(lines) + "\n"


def _pipelines(rng):
    # Three cheap, exact pipelines, the wilful-blindness candidates: one costs
    # -0.0, one has a joint error of -0.0, and one has 0 for both. Their
    # frontier points and findings differ from each other only by id and sign.
    pipes = [
        PipelineSpec("z_cost", PipelineKind.FULL, -0.0),
        PipelineSpec("z_joint", PipelineKind.FULL, 0.0, joint_error=-0.0),
        PipelineSpec("z_zero", PipelineKind.FULL, 0.0),
    ]
    for i in range(6):
        errors = ComponentErrors(retrieval=rng.choice([0.0, 0.02, 0.2]), verification=rng.choice([0.0, 0.05]))
        pipes.append(PipelineSpec(f"p{i}", PipelineKind.FULL, rng.choice([0.5, 2.06, 5.9, 12.0]), errors))
    return pipes


def _bench_pipelines(rng):
    """As on the bench's docket, many pipelines: those of ``_pipelines``, four that tie
    on cost and total error, and 30 of assorted cost and error, so org scores vary."""
    tied = [PipelineSpec(f"t{i}", PipelineKind.FULL, 1.5, ComponentErrors(retrieval=0.1)) for i in range(4)]
    assorted = [
        PipelineSpec(
            f"r{i:02d}", PipelineKind.FULL, round(rng.uniform(0.2, 14.0), 4),
            ComponentErrors(retrieval=round(rng.uniform(0.0, 0.2), 4)),
        )
        for i in range(30)
    ]
    return _pipelines(rng) + tied + assorted


def _record(rng, prop_id, pipes, certs):
    pipeline_id = rng.choice(pipes).id
    executed = rng.random() < 0.7
    return ExecutionRecord(
        pipeline_id=pipeline_id,
        proposition_id=prop_id,
        executed=executed,
        certificate=certs[pipeline_id] if executed and rng.random() < 0.6 else None,
        outcome=rng.choice(list(Verdict)) if executed else None,
        avoidance_evidence=rng.choice([AvoidanceEvidence.NONE] * 3 + list(AvoidanceEvidence)),
    )


def _docket(seed, size, pipelines=_pipelines, counts=(0, 3)):
    """Findings of a docket whose propositions share pipelines and certificates; each
    proposition lists ``counts[0]`` to ``counts[1]`` pipelines and records."""
    rng = random.Random(seed)
    pipes = pipelines(rng)
    # One certificate per pipeline, good, middling or grossly poor, shared by every record naming it.
    certs = {
        p.id: make_cert(rng.choice([0.05, 0.25, 0.6]), rng.choice([0.0, 1.0]), pipeline_id=p.id)
        for p in pipes
    }
    props, sets, records = [], {}, {}
    for i in range(size):
        prop = Proposition(f"q{i}", f"Proposition {i % 7}", rng.choice([1.0, 2.0]), rng.choice([0.6, 0.7, 0.8]))
        props.append(prop)
        available = tuple(rng.sample(pipes, rng.randint(*counts)))
        sets[prop.id] = available
        records[prop.id] = [_record(rng, prop.id, pipes, certs) for _ in range(rng.randint(*counts))]
    docket = Docket(tuple(props), sets)
    org_scores = {p.id: org_score(sets[p.id], POLICY) if sets[p.id] else None for p in props}
    by_prop = {
        p.id: tuple(r.certificate for r in records[p.id] if r.certificate is not None) for p in props
    }
    # Capacities of 0.61-0.65 lie below theta_neg, so negligence appears too.
    capacity = capacity_index(docket, org_scores)
    findings = {
        p.id: classify(p, sets[p.id], records[p.id], POLICY, capacity=capacity, score=org_scores[p.id])
        for p in props
    }
    return dict(
        version="0.1.0",
        policy=POLICY,
        docket=docket,
        findings=findings,
        org_scores=org_scores,
        certificates=by_prop,
        capacity_point=capacity,
        capacity_lower=lower_bound_capacity(docket, by_prop, POLICY),
        inputs_hash="0123456789ab",
        seed=str(seed),
    )


@pytest.mark.parametrize("seed", range(6))
def test_report_equals_the_line_by_line_reference(seed):
    report = _docket(seed, 400)
    findings = report["findings"].values()
    assert {d for f in findings for d in f.applicable} == set(Doctrine)
    lines = [(d, *detail.items()) for f in findings for d, detail in f.rationale]
    assert len(set(lines)) < len(lines) / 2  # rationale lines repeat, so the per-line memo is exercised
    text = audit_report(**report)
    assert "z_cost:-0.0000:0.0000" in text and "z_joint:0.0000:-0.0000" in text
    assert "expected_cost=-0.0000" in text and "total_error=-0.0000" in text
    assert text == _reference_report(**report)


@pytest.mark.parametrize("seed", range(3))
def test_report_of_distinct_verdicts_and_tied_pipelines_equals_the_reference(seed):
    # As on the bench's docket: most verdicts differ as a whole while their lines
    # repeat, and pipelines that tie on cost and total error are listed in either order.
    report = _docket(seed, 400, _bench_pipelines, counts=(1, 4))
    findings = report["findings"].values()
    verdicts = {tuple((d, *detail.items()) for d, detail in f.rationale) for f in findings}
    assert len(verdicts) > len(findings) / 2
    lines = [(d, *detail.items()) for f in findings for d, detail in f.rationale]
    assert len(set(lines)) < len(lines) / 2
    tied = [
        ids for ids in (
            [p.id for p in pipes if p.id.startswith("t")] for pipes in report["docket"].pipeline_sets.values()
        )
        if len(ids) > 1
    ]
    assert any(ids == sorted(ids) for ids in tied) and any(ids != sorted(ids) for ids in tied)
    text = audit_report(**report)
    assert "t0:1.5000:0.1000" in text
    assert text == _reference_report(**report)


def test_report_of_specs_sharing_an_id_equals_the_reference():
    # A docket built in code may list different specs under one id. Each is its
    # own frontier point, and the signed zeros of z print apart in both its
    # point and the wilful-blindness line that names it.
    x_cheap, x_dear = PipelineSpec("x", PipelineKind.FULL, 1.0), PipelineSpec("x", PipelineKind.FULL, 9.0)
    z_zero, z_negative = PipelineSpec("z", PipelineKind.FULL, 0.0), PipelineSpec("z", PipelineKind.FULL, -0.0)
    sets = {
        "p": (x_cheap,), "q": (x_dear,), "r": (z_zero,), "s": (z_negative,),
        "t": (z_zero, z_negative), "u": (z_negative, z_zero),
    }
    props = tuple(Proposition(pid, f"Proposition {pid}", 1.0, 0.7) for pid in sets)
    docket = Docket(props, sets)
    org_scores = {pid: org_score(pipes, POLICY) for pid, pipes in sets.items()}
    flagged = AvoidanceEvidence.SUPPRESSED_QUERY
    findings = {
        p.id: classify(p, sets[p.id], [ExecutionRecord("y", p.id, False, avoidance_evidence=flagged)], POLICY)
        for p in props
    }
    report = dict(
        version="0.1.0", policy=POLICY, docket=docket, findings=findings, org_scores=org_scores,
        certificates={}, capacity_point=capacity_index(docket, org_scores), capacity_lower=None,
        inputs_hash="0123456789ab", seed="0",
    )
    text = audit_report(**report)
    blocks = _sections(text)
    assert blocks["proposition p"]["frontier"] == "x:1.0000:0.0000"
    assert blocks["proposition q"]["frontier"] == "x:9.0000:0.0000"
    assert [blocks[f"proposition {pid}"]["frontier"] for pid in "rstu"] == [
        "z:0.0000:0.0000", "z:-0.0000:0.0000", "z:0.0000:0.0000", "z:-0.0000:0.0000"
    ]
    assert "expected_cost=-0.0000" in blocks["proposition s"]["rationale.wilful_blindness"]
    assert text == _reference_report(**report)


def test_report_without_pipelines_certificates_or_capacity():
    report = _docket(0, 30)
    report.update(
        docket=Docket(report["docket"].propositions, {}),
        certificates={},
        org_scores={},
        capacity_point=None,
        capacity_lower=None,
    )
    text = audit_report(**report)
    assert "frontier = none\ncertificates = none\n" in text and "point = none\n" in text
    assert text == _reference_report(**report)


def _sections(text):
    """Each ``[name]`` block of a report, as name -> {key: value}."""
    blocks = {}
    for chunk in text.split("\n\n")[1:]:
        header, *lines = chunk.strip("\n").split("\n")
        blocks[header[1:-1]] = dict(line.split(" = ", 1) for line in lines)
    return blocks


@pytest.mark.parametrize("seed", range(3))
def test_each_predicate_line_is_k_s_and_the_point_capacity_their_weighted_share(seed):
    report = _docket(seed, 400)
    sections = _sections(audit_report(**report))
    held = total = 0.0
    for prop in report["docket"].propositions:
        block = sections[f"proposition {prop.id}"]
        score = report["org_scores"][prop.id]
        assert block["predicate"] == _cell(score is not None and knowledge_predicate(score, prop.threshold))
        total += float(block["weight"])
        held += float(block["weight"]) if block["predicate"] == "true" else 0.0
    assert 0.0 < held < total
    assert sections["capacity"]["point"] == fmt(held / total)
