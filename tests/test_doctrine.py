"""Unit tests for the doctrine classification layer."""

import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epistemic_ledger.doctrine import (
    CHEAPNESS_FACTOR,
    MAX_ERROR,
    PRECEDENCE,
    RECKLESSNESS_MARGIN,
    AvoidanceEvidence,
    Doctrine,
    DoctrineFinding,
    ExecutionRecord,
    Verdict,
    _cheap_unexecuted,
    actual_knowledge_test,
    classify,
    constructive_knowledge_test,
    negligence_test,
    recklessness_test,
    wilful_blindness_test,
)
from epistemic_ledger.metrics import (
    ComponentErrors,
    FrontierPoint,
    PipelineKind,
    PipelineSpec,
    PolicyParams,
    Proposition,
    org_score,
)
from epistemic_ledger.validation import lower_bound_score

from test_validation import make_cert

POLICY = PolicyParams()


def pipe(pid, cost, ret=0.0, ver=0.0):
    return PipelineSpec(
        id=pid,
        kind=PipelineKind.FULL,
        expected_cost=cost,
        errors=ComponentErrors(retrieval=ret, verification=ver),
    )


def executed(prop="phi", pid="pi", s_lb=None, outcome=Verdict.ESTABLISHED, evidence=AvoidanceEvidence.NONE):
    cert = None
    if s_lb is not None:
        # A zero-cost certificate whose lower-bound score is exactly s_lb.
        cert = make_cert(1.0 - s_lb, 0.0, pipeline_id=pid)
    return ExecutionRecord(
        pipeline_id=pid,
        proposition_id=prop,
        executed=True,
        certificate=cert,
        outcome=outcome,
        avoidance_evidence=evidence,
    )


def unexecuted(prop="phi", pid="pi", evidence=AvoidanceEvidence.NONE):
    return ExecutionRecord(
        pipeline_id=pid,
        proposition_id=prop,
        executed=False,
        avoidance_evidence=evidence,
    )


class TestActualKnowledge:
    def test_certified_high_score(self):
        record = executed(s_lb=0.83)
        assert actual_knowledge_test(record, 0.7, 10.0) is True

    def test_requires_an_epistemic_act(self):
        assert actual_knowledge_test(unexecuted(), 0.7, 10.0) is False

    def test_boundary_below_threshold(self):
        assert actual_knowledge_test(executed(s_lb=0.69), 0.7, 10.0) is False

    def test_missing_certificate_fails(self):
        record = executed(s_lb=None)
        assert actual_knowledge_test(record, 0.7, 10.0) is False

    def test_inconclusive_outcome_fails(self):
        record = executed(s_lb=0.83, outcome=Verdict.INCONCLUSIVE)
        assert actual_knowledge_test(record, 0.7, 10.0) is False


class TestConstructiveKnowledge:
    def test_available_but_unexecuted(self):
        assert constructive_knowledge_test(org_score([pipe("modern", 2.06)], POLICY), [], POLICY)

    def test_no_capable_pipeline(self):
        score = org_score([pipe("legacy", 6.05, ret=1.0)], POLICY)
        assert not constructive_knowledge_test(score, [], POLICY)

    def test_actual_supersedes(self):
        assert not constructive_knowledge_test(
            org_score([pipe("modern", 2.06)], POLICY), [executed(s_lb=0.83)], POLICY
        )

    def test_empty_available_is_false(self):
        assert not constructive_knowledge_test(None, [], POLICY)


class TestWilfulBlindness:
    def test_cheap_certain_pipeline_avoided(self):
        cheap = pipe("cheap", 0.5, ver=0.01)
        records = [unexecuted(pid="cheap", evidence=AvoidanceEvidence.SUPPRESSED_QUERY)]
        assert wilful_blindness_test([cheap], records, POLICY) is True

    def test_no_avoidance_evidence_is_not_blindness(self):
        cheap = pipe("cheap", 0.5, ver=0.01)
        assert wilful_blindness_test([cheap], [unexecuted(pid="cheap")], POLICY) is False

    def test_unreliable_pipeline_does_not_qualify(self):
        shaky = pipe("shaky", 0.5, ver=0.3)
        records = [unexecuted(pid="shaky", evidence=AvoidanceEvidence.DISABLED_INDEX)]
        assert wilful_blindness_test([shaky], records, POLICY) is False

    def test_expensive_pipeline_does_not_qualify(self):
        slow = pipe("slow", 5.0, ver=0.01)  # above kappa * tau_star = 1 s
        records = [unexecuted(pid="slow", evidence=AvoidanceEvidence.FILTERED_ALERTS)]
        assert wilful_blindness_test([slow], records, POLICY) is False

    def test_executed_pipeline_does_not_qualify(self):
        cheap = pipe("cheap", 0.5, ver=0.01)
        records = [executed(pid="cheap", s_lb=0.9, evidence=AvoidanceEvidence.SUPPRESSED_QUERY)]
        assert wilful_blindness_test([cheap], records, POLICY) is False

    def test_toggling_evidence_always_flips_positive_findings(self):
        rng = random.Random(13)
        for _ in range(200):
            cheap = pipe("cheap", rng.uniform(0, 1.0), ver=rng.uniform(0, 0.05))
            evidence = rng.choice(
                [e for e in AvoidanceEvidence if e is not AvoidanceEvidence.NONE]
            )
            records = [unexecuted(pid="cheap", evidence=evidence)]
            if wilful_blindness_test([cheap], records, POLICY):
                stripped = [unexecuted(pid="cheap")]
                assert not wilful_blindness_test([cheap], stripped, POLICY)


class TestRecklessness:
    def test_no_certificate_is_reckless(self):
        assert recklessness_test(executed(s_lb=None), 0.7, 10.0) is True

    def test_grossly_low_score(self):
        assert recklessness_test(executed(s_lb=0.2), 0.7, 10.0) is True

    def test_merely_below_threshold_is_not_gross(self):
        assert recklessness_test(executed(s_lb=0.69), 0.7, 10.0) is False

    def test_requires_execution(self):
        with pytest.raises(ValueError):
            recklessness_test(unexecuted(), 0.7, 10.0)


class TestNegligence:
    def test_zero_capacity(self):
        assert negligence_test(0.0, 0.5) is True

    def test_full_capacity(self):
        assert negligence_test(1.0, 0.5) is False

    def test_boundary_strict(self):
        assert negligence_test(0.5, 0.5) is False

    def test_raising_threshold_never_clears_negligence(self):
        rng = random.Random(41)
        for _ in range(200):
            capacity = rng.random()
            low, high = sorted((rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)))
            if negligence_test(capacity, low):
                assert negligence_test(capacity, high)


class TestClassify:
    PROP = Proposition(id="phi", description="a salient fact", threshold=0.7)

    def test_actual_takes_precedence(self):
        finding = classify(
            self.PROP,
            [pipe("modern", 2.06)],
            [executed(s_lb=0.83, pid="modern")],
            POLICY,
        )
        assert finding.primary is Doctrine.ACTUAL_KNOWLEDGE
        assert Doctrine.CONSTRUCTIVE_KNOWLEDGE not in finding.applicable

    def test_wilful_blindness_with_low_capacity(self):
        cheap = pipe("cheap", 0.5, ver=0.01)
        finding = classify(
            self.PROP,
            [cheap],
            [unexecuted(pid="cheap", evidence=AvoidanceEvidence.SUPPRESSED_QUERY)],
            POLICY,
            capacity=0.0,
        )
        assert finding.primary is Doctrine.WILFUL_BLINDNESS
        assert Doctrine.NEGLIGENCE in finding.applicable

    def test_wilful_blindness_names_smallest_unexecuted_id(self):
        finding = classify(
            self.PROP,
            [pipe("cheap_c", 0.5, ver=0.01), pipe("cheap_a", 0.5), pipe("cheap_b", 0.4)],
            [
                executed(pid="cheap_a", s_lb=0.9),
                unexecuted(pid="cheap_b", evidence=AvoidanceEvidence.DISABLED_INDEX),
            ],
            POLICY,
        )
        detail = dict(finding.rationale)[Doctrine.WILFUL_BLINDNESS]
        assert detail["pipeline_id"] == "cheap_b"
        assert detail["avoidance_evidence"] == "disabled_index"

    def test_nothing_triggers(self):
        finding = classify(
            self.PROP,
            [pipe("weak", 20.0, ret=0.5)],
            [],
            POLICY,
            capacity=0.9,
        )
        assert finding.applicable == frozenset()
        assert finding.primary is None

    def test_default_capacity_is_per_proposition_indicator(self):
        # With no capable pipeline the proposition's own indicator is 0, so
        # negligence applies by default.
        finding = classify(self.PROP, [pipe("weak", 20.0, ret=0.5)], [], POLICY)
        assert finding.primary is Doctrine.NEGLIGENCE

    def test_rationale_reports_each_applicable_doctrine(self):
        finding = classify(
            self.PROP,
            [pipe("modern", 2.06)],
            [executed(pid="modern", s_lb=None, outcome=Verdict.ESTABLISHED)],
            POLICY,
            capacity=1.0,
        )
        doctrines = [d for d, _ in finding.rationale]
        assert set(doctrines) == set(finding.applicable)
        assert finding.primary is Doctrine.RECKLESSNESS
        reckless_detail = dict(finding.rationale)[Doctrine.RECKLESSNESS]
        assert reckless_detail["certificate"] == "absent"

    def test_pure_function(self):
        args = (
            self.PROP,
            [pipe("modern", 2.06)],
            [executed(s_lb=0.83, pid="modern")],
            POLICY,
        )
        assert classify(*args) == classify(*args)

    def test_ignores_records_for_other_propositions(self):
        finding = classify(
            self.PROP,
            [pipe("modern", 2.06)],
            [executed(prop="other", s_lb=0.83, pid="modern")],
            POLICY,
        )
        assert finding.primary is Doctrine.CONSTRUCTIVE_KNOWLEDGE

    def test_raising_thresholds_never_creates_knowledge_findings(self):
        rng = random.Random(59)
        for _ in range(100):
            score_pipe = pipe("p", rng.uniform(0, 15), ret=rng.random())
            low = rng.uniform(0.05, 0.9)
            high = rng.uniform(low, 0.95)
            score = org_score([score_pipe], POLICY)
            base = constructive_knowledge_test(score, [], replace(POLICY, theta_ck=low))
            raised = constructive_knowledge_test(score, [], replace(POLICY, theta_ck=high))
            if not base:
                assert not raised


def _pipelines(ids):
    costs = st.sampled_from([0.2, 0.5, 2.0, 8.0])
    errors = st.sampled_from([0.0, 0.01, 0.04, 0.3])
    return st.tuples(*(st.builds(pipe, st.just(i), costs, errors) for i in ids))


_RECORD = st.builds(
    lambda prop, pid, act, s_lb, outcome, evidence: (
        executed(prop, pid, s_lb, outcome, evidence)
        if act
        else ExecutionRecord(pid, prop, False, executed(pid=pid, s_lb=s_lb).certificate, None, evidence)
    ),
    st.sampled_from(["phi", "other"]),
    st.sampled_from(["a", "b", "c", "z"]),
    st.booleans(),
    st.sampled_from([None, 0.2, 0.6, 0.83]),
    st.sampled_from([None, *Verdict]),
    st.sampled_from(list(AvoidanceEvidence)),
)


# classify's inputs: available pipelines, execution records, threshold, capacity.
_CLASSIFY_INPUTS = (
    st.sampled_from([(), ("a",), ("a", "b"), ("a", "b", "c")]).flatmap(_pipelines),
    st.lists(_RECORD, max_size=5),
    st.sampled_from([0.5, 0.7, 0.9]),
    st.one_of(st.none(), st.sampled_from([0.0, 0.5, 0.7, 1.0])),
)


def _reference_classify(proposition, available, executions, policy, capacity=None, score=None):
    """``classify`` as first written: findings gathered by doctrine, then put in PRECEDENCE order."""
    records = [r for r in executions if r.proposition_id == proposition.id]
    best = score
    if best is None and available:
        best = org_score(available, policy)
    if capacity is None:
        capacity = 1.0 if (best or 0.0) >= proposition.threshold else 0.0
    found = {}

    actual = next(
        (r for r in records if actual_knowledge_test(r, policy.theta_ak, policy.tau_star)), None
    )
    if actual is not None:
        found[Doctrine.ACTUAL_KNOWLEDGE] = {
            "pipeline_id": actual.pipeline_id,
            "lower_bound_score": lower_bound_score(actual.certificate, policy.tau_star),
            "theta_ak": policy.theta_ak,
        }

    if wilful_blindness_test(available, records, policy):
        cheap = min(_cheap_unexecuted(available, records, policy), key=lambda p: p.id)
        flags = sorted({r.avoidance_evidence.value for r in records} - {AvoidanceEvidence.NONE.value})
        found[Doctrine.WILFUL_BLINDNESS] = {
            "pipeline_id": cheap.id,
            "expected_cost": cheap.expected_cost,
            "cost_ceiling": CHEAPNESS_FACTOR * policy.tau_star,
            "total_error": cheap.total_error(),
            "max_error": MAX_ERROR,
            "avoidance_evidence": ",".join(flags),
        }

    reckless = next(
        (r for r in records if r.executed and recklessness_test(r, policy.theta_r, policy.tau_star)),
        None,
    )
    if reckless is not None:
        detail = found[Doctrine.RECKLESSNESS] = {
            "pipeline_id": reckless.pipeline_id,
            "theta_r": policy.theta_r,
            "margin": RECKLESSNESS_MARGIN,
        }
        if reckless.certificate is None:
            detail["certificate"] = "absent"
        else:
            detail["lower_bound_score"] = lower_bound_score(reckless.certificate, policy.tau_star)

    if constructive_knowledge_test(best, records, policy):
        found[Doctrine.CONSTRUCTIVE_KNOWLEDGE] = {"org_score": best, "theta_ck": policy.theta_ck}

    if negligence_test(capacity, policy.theta_neg):
        found[Doctrine.NEGLIGENCE] = {"capacity": capacity, "theta_neg": policy.theta_neg}

    return DoctrineFinding(proposition.id, tuple((d, found[d]) for d in PRECEDENCE if d in found))


class TestClassifyReference:
    """``classify`` against the five public tests, run on the proposition's own records."""

    @settings(max_examples=300, deadline=None)
    @given(*_CLASSIFY_INPUTS)
    def test_findings_match_the_public_tests(self, available, records, threshold, capacity):
        prop = Proposition(id="phi", description="a salient fact", threshold=threshold)
        finding = classify(prop, available, records, POLICY, capacity=capacity)

        own = [r for r in records if r.proposition_id == "phi"]
        score = org_score(available, POLICY) if available else None
        if capacity is None:
            capacity = 1.0 if score is not None and score >= threshold else 0.0
        holds = {
            Doctrine.ACTUAL_KNOWLEDGE: any(
                actual_knowledge_test(r, POLICY.theta_ak, POLICY.tau_star) for r in own
            ),
            Doctrine.WILFUL_BLINDNESS: wilful_blindness_test(available, own, POLICY),
            Doctrine.RECKLESSNESS: any(
                r.executed and recklessness_test(r, POLICY.theta_r, POLICY.tau_star)
                for r in own
            ),
            Doctrine.CONSTRUCTIVE_KNOWLEDGE: constructive_knowledge_test(score, own, POLICY),
            Doctrine.NEGLIGENCE: negligence_test(capacity, POLICY.theta_neg),
        }
        expected = {d for d, held in holds.items() if held}
        assert finding.applicable == expected
        order = [d for d, _ in finding.rationale]
        assert order == [d for d in PRECEDENCE if d in expected]
        assert finding.primary is (order[0] if order else None)


    @settings(max_examples=300, deadline=None)
    @given(*_CLASSIFY_INPUTS)
    def test_findings_match_the_dict_reference(self, available, records, threshold, capacity):
        prop = Proposition(id="phi", description="a salient fact", threshold=threshold)
        finding = classify(prop, available, records, POLICY, capacity=capacity)
        reference = _reference_classify(prop, available, records, POLICY, capacity=capacity)
        assert finding == reference
        # Details in the same key order too, though the report sorts them.
        assert [(d, list(x.items())) for d, x in finding.rationale] == [
            (d, list(x.items())) for d, x in reference.rationale
        ]

    @settings(max_examples=300, deadline=None)
    @given(*_CLASSIFY_INPUTS)
    def test_the_callers_score_gives_the_same_finding(self, available, records, threshold, capacity):
        prop = Proposition(id="phi", description="a salient fact", threshold=threshold)
        score = org_score(available, POLICY) if available else None
        given = classify(prop, available, records, POLICY, capacity=capacity, score=score)
        assert given == classify(prop, available, records, POLICY, capacity=capacity)


class TestDocketIntegration:
    def test_modern_runs_with_certificates_are_actual_knowledge(self):
        # Wire the simulation output through certification and classification:
        # every modern run, once executed and certified on clean eval data,
        # lands as actual knowledge.
        from epistemic_ledger.simlab import default_scenario, run_docket
        from epistemic_ledger.simlab.runner import _pipeline_spec
        from epistemic_ledger.validation import BoundMethod, LossRecord, certify

        scenario = default_scenario()
        rows = [r for r in run_docket(scenario) if r.company == "modern"]
        assert len(rows) == 4
        clean = {
            slot: [LossRecord(None, None, 0.0) for _ in range(1000)]
            for slot in ("retrieval", "generation", "verification")
        }
        for row in rows:
            spec = _pipeline_spec(row.company, row.task_id, row.simulated_time, row.eps_ret, row.eps_ver)
            cert = certify(
                spec, clean, measured_cost=row.simulated_time,
                delta=scenario.policy.delta, method=BoundMethod.HOEFFDING,
            )
            record = ExecutionRecord(
                pipeline_id=spec.id,
                proposition_id=row.task_id,
                executed=True,
                certificate=cert,
                outcome=row.verdict,
            )
            task = next(t for t in scenario.tasks if t.id == row.task_id)
            finding = classify(
                task.proposition_spec(), [spec], [record], scenario.policy, capacity=1.0
            )
            assert finding.primary is Doctrine.ACTUAL_KNOWLEDGE


class TestExecutionRecordInvariants:
    def test_unexecuted_cannot_carry_outcome(self):
        with pytest.raises(ValueError):
            ExecutionRecord(
                pipeline_id="p",
                proposition_id="phi",
                executed=False,
                outcome=Verdict.ESTABLISHED,
            )


# The per-row and per-proposition records are slotted frozen dataclasses.
_RECORDS = {
    "proposition": (
        Proposition("phi", "a fact", 1.5, 0.6),
        "Proposition(id='phi', description='a fact', salience_weight=1.5, threshold=0.6)",
    ),
    "execution": (
        ExecutionRecord("p", "phi", True, None, Verdict.REFUTED, AvoidanceEvidence.NONE, "t"),
        "ExecutionRecord(pipeline_id='p', proposition_id='phi', executed=True, certificate=None, "
        "outcome=<Verdict.REFUTED: 'refuted'>, avoidance_evidence=<AvoidanceEvidence.NONE: 'none'>, "
        "timestamp='t')",
    ),
    "finding": (
        DoctrineFinding("phi", ((Doctrine.NEGLIGENCE, {"capacity": 0.0, "theta_neg": 0.7}),)),
        "DoctrineFinding(proposition_id='phi', rationale=((<Doctrine.NEGLIGENCE: 'negligence'>, "
        "{'capacity': 0.0, 'theta_neg': 0.7}),))",
    ),
    "frontier-point": (
        FrontierPoint(2.0, 0.1, "p"),
        "FrontierPoint(cost=2.0, total_error=0.1, pipeline_id='p')",
    ),
}


@pytest.mark.parametrize("record, text", _RECORDS.values(), ids=_RECORDS.keys())
class TestSlottedRecords:
    def test_frozen(self, record, text):
        first = fields(record)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(record, first, getattr(record, first))
        with pytest.raises(FrozenInstanceError):
            delattr(record, first)
        # A name that is not a field: CPython's frozen slotted dataclasses
        # (3.10 to 3.12 at least) raise TypeError here, not FrozenInstanceError.
        with pytest.raises((FrozenInstanceError, TypeError)):
            record.note = "x"
        assert not hasattr(record, "note")

    def test_value_semantics(self, record, text):
        assert repr(record) == text
        copy = replace(record)
        assert copy == record and copy is not record
        first = fields(record)[0].name
        assert replace(record, **{first: "other"}) != record
        values = tuple(getattr(record, f.name) for f in fields(record))
        if isinstance(record, DoctrineFinding):  # its details are dicts
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
            assert hash(DoctrineFinding("phi", ())) == hash(("phi", ()))
        else:
            assert hash(record) == hash(copy) == hash(values)

    def test_no_instance_dict(self, record, text):
        assert not hasattr(record, "__dict__")
        assert type(record).__slots__ == tuple(f.name for f in fields(record))


def test_replace_still_runs_the_checks():
    with pytest.raises(ValueError, match="threshold"):
        replace(_RECORDS["proposition"][0], threshold=1.5)
    with pytest.raises(ValueError, match="cannot carry an outcome"):
        replace(_RECORDS["execution"][0], executed=False)
