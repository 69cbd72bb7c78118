"""Unit tests for the doctrine classification layer."""

import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epistemic_ledger import doctrine, validation
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
    classify,
    negligence_test,
)
from epistemic_ledger.metrics import (
    ComponentErrors,
    FrontierPoint,
    PipelineKind,
    PipelineSpec,
    PolicyParams,
    Proposition,
    _require,
    knowledge_predicate,
    org_score,
)
from epistemic_ledger.validation import lower_bound_score, plug_in_test

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


def _applies(doctrine, available, records, threshold=0.7, capacity=None, policy=POLICY):
    prop = Proposition(id="phi", description="a salient fact", threshold=threshold)
    return doctrine in classify(prop, available, records, policy, capacity=capacity).applicable


class TestActualKnowledge:
    def test_certified_high_score(self):
        assert _applies(Doctrine.ACTUAL_KNOWLEDGE, [], [executed(s_lb=0.83)])

    def test_requires_an_epistemic_act(self):
        assert not _applies(Doctrine.ACTUAL_KNOWLEDGE, [], [unexecuted()])

    def test_boundary_below_threshold(self):
        assert not _applies(Doctrine.ACTUAL_KNOWLEDGE, [], [executed(s_lb=0.69)])

    def test_missing_certificate_fails(self):
        assert not _applies(Doctrine.ACTUAL_KNOWLEDGE, [], [executed(s_lb=None)])

    def test_inconclusive_outcome_fails(self):
        record = executed(s_lb=0.83, outcome=Verdict.INCONCLUSIVE)
        assert not _applies(Doctrine.ACTUAL_KNOWLEDGE, [], [record])


class TestConstructiveKnowledge:
    def test_available_but_unexecuted(self):
        assert _applies(Doctrine.CONSTRUCTIVE_KNOWLEDGE, [pipe("modern", 2.06)], [])

    def test_no_capable_pipeline(self):
        assert not _applies(Doctrine.CONSTRUCTIVE_KNOWLEDGE, [pipe("legacy", 6.05, ret=1.0)], [])

    def test_actual_supersedes(self):
        assert not _applies(Doctrine.CONSTRUCTIVE_KNOWLEDGE, [pipe("modern", 2.06)], [executed(s_lb=0.83)])

    def test_empty_available_is_false(self):
        assert not _applies(Doctrine.CONSTRUCTIVE_KNOWLEDGE, [], [])


class TestWilfulBlindness:
    def test_cheap_certain_pipeline_avoided(self):
        cheap = pipe("cheap", 0.5, ver=0.01)
        records = [unexecuted(pid="cheap", evidence=AvoidanceEvidence.SUPPRESSED_QUERY)]
        assert _applies(Doctrine.WILFUL_BLINDNESS, [cheap], records)

    def test_no_avoidance_evidence_is_not_blindness(self):
        cheap = pipe("cheap", 0.5, ver=0.01)
        assert not _applies(Doctrine.WILFUL_BLINDNESS, [cheap], [unexecuted(pid="cheap")])

    def test_unreliable_pipeline_does_not_qualify(self):
        shaky = pipe("shaky", 0.5, ver=0.3)
        records = [unexecuted(pid="shaky", evidence=AvoidanceEvidence.DISABLED_INDEX)]
        assert not _applies(Doctrine.WILFUL_BLINDNESS, [shaky], records)

    def test_expensive_pipeline_does_not_qualify(self):
        slow = pipe("slow", 5.0, ver=0.01)  # above kappa * tau_star = 1 s
        records = [unexecuted(pid="slow", evidence=AvoidanceEvidence.FILTERED_ALERTS)]
        assert not _applies(Doctrine.WILFUL_BLINDNESS, [slow], records)

    def test_executed_pipeline_does_not_qualify(self):
        cheap = pipe("cheap", 0.5, ver=0.01)
        records = [executed(pid="cheap", s_lb=0.9, evidence=AvoidanceEvidence.SUPPRESSED_QUERY)]
        assert not _applies(Doctrine.WILFUL_BLINDNESS, [cheap], records)

    def test_toggling_evidence_always_flips_positive_findings(self):
        rng = random.Random(13)
        for _ in range(200):
            cheap = pipe("cheap", rng.uniform(0, 1.0), ver=rng.uniform(0, 0.05))
            evidence = rng.choice(
                [e for e in AvoidanceEvidence if e is not AvoidanceEvidence.NONE]
            )
            records = [unexecuted(pid="cheap", evidence=evidence)]
            if _applies(Doctrine.WILFUL_BLINDNESS, [cheap], records):
                stripped = [unexecuted(pid="cheap")]
                assert not _applies(Doctrine.WILFUL_BLINDNESS, [cheap], stripped)


class TestRecklessness:
    def test_no_certificate_is_reckless(self):
        assert _applies(Doctrine.RECKLESSNESS, [], [executed(s_lb=None)])

    def test_grossly_low_score(self):
        assert _applies(Doctrine.RECKLESSNESS, [], [executed(s_lb=0.2)])

    def test_merely_below_threshold_is_not_gross(self):
        assert not _applies(Doctrine.RECKLESSNESS, [], [executed(s_lb=0.69)])

    def test_requires_execution(self):
        assert not _applies(Doctrine.RECKLESSNESS, [], [unexecuted()])
        # Neither an absent nor a grossly poor certificate makes an unexecuted record reckless.
        poor = ExecutionRecord("pi", "phi", False, executed(s_lb=0.2).certificate)
        assert not _applies(Doctrine.RECKLESSNESS, [], [poor])
        assert doctrine._reckless([unexecuted(), poor], POLICY.theta_r, POLICY.tau_star) is None


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

    def test_no_capacity_judges_no_negligence(self):
        # Negligence is a finding about the firm-wide capacity index; without
        # one it is not judged, even for a proposition no pipeline can know.
        weak = [pipe("weak", 20.0, ret=0.5)]
        assert classify(self.PROP, weak, [], POLICY).applicable == frozenset()
        assert classify(self.PROP, weak, [], POLICY, capacity=0.0).primary is Doctrine.NEGLIGENCE

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

    def test_a_passing_record_is_scored_once_per_doctrine(self, monkeypatch):
        calls = []
        for module in (doctrine, validation):  # every name lower_bound_score is called by here
            bound = module.lower_bound_score
            monkeypatch.setattr(
                module, "lower_bound_score", lambda *args, bound=bound: calls.append(args) or bound(*args)
            )
        finding = classify(self.PROP, [pipe("modern", 2.06)], [executed(s_lb=0.83, pid="modern")], POLICY)
        assert finding.primary is Doctrine.ACTUAL_KNOWLEDGE
        # Once for actual knowledge, which also names it, and once for recklessness.
        assert len(calls) == 2

    def test_the_callers_score_is_checked_whether_or_not_a_record_passes(self):
        for records in ([executed(s_lb=0.83, pid="modern")], []):
            with pytest.raises(ValueError, match=r"^score must lie in \[0, 1\], got 1.5$"):
                classify(self.PROP, [pipe("modern", 2.06)], records, POLICY, score=1.5)

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
            base, raised = (
                _applies(Doctrine.CONSTRUCTIVE_KNOWLEDGE, [score_pipe], [], policy=replace(POLICY, theta_ck=theta))
                for theta in (low, high)
            )
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


# The five doctrine tests and their helper as first written, kept here so
# that the reference below does not share the code that decides each
# doctrine in ``classify``.


def _reference_actual_knowledge_test(record, theta_ak, tau_star):
    if not record.executed or record.certificate is None or record.outcome is Verdict.INCONCLUSIVE:
        return False
    return plug_in_test(record.certificate, theta_ak, tau_star)


def _reference_constructive_knowledge_test(score, executions, policy):
    if score is None or not knowledge_predicate(score, policy.theta_ck):
        return False
    return not any(
        _reference_actual_knowledge_test(r, policy.theta_ak, policy.tau_star) for r in executions
    )


def _reference_cheap_unexecuted(available, records, policy):
    executed_ids = {r.pipeline_id for r in records if r.executed}
    return [
        p
        for p in available
        if p.expected_cost <= CHEAPNESS_FACTOR * policy.tau_star
        and p.total_error() <= MAX_ERROR
        and p.id not in executed_ids
    ]


def _reference_wilful_blindness_test(available, executions, policy):
    deliberate = any(
        r.avoidance_evidence is not AvoidanceEvidence.NONE for r in executions
    )
    return deliberate and bool(_reference_cheap_unexecuted(available, executions, policy))


def _reference_recklessness_test(record, theta_r, tau_star):
    if not record.executed:
        raise ValueError("recklessness_test applies only to executed records")
    if record.certificate is None:
        return True
    return lower_bound_score(record.certificate, tau_star) < theta_r - RECKLESSNESS_MARGIN


def _reference_negligence_test(capacity, theta_neg):
    _require("capacity", capacity, 0, 1)
    return capacity < theta_neg


def _reference_classify(proposition, available, executions, policy, capacity=None, score=None):
    """``classify`` as first written: findings gathered by doctrine, then put in PRECEDENCE order."""
    records = [r for r in executions if r.proposition_id == proposition.id]
    best = score
    if best is None and available:
        best = org_score(available, policy)
    found = {}

    actual = next(
        (r for r in records if _reference_actual_knowledge_test(r, policy.theta_ak, policy.tau_star)), None
    )
    if actual is not None:
        found[Doctrine.ACTUAL_KNOWLEDGE] = {
            "pipeline_id": actual.pipeline_id,
            "lower_bound_score": lower_bound_score(actual.certificate, policy.tau_star),
            "theta_ak": policy.theta_ak,
        }

    if _reference_wilful_blindness_test(available, records, policy):
        cheap = min(_reference_cheap_unexecuted(available, records, policy), key=lambda p: p.id)
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
        (r for r in records if r.executed and _reference_recklessness_test(r, policy.theta_r, policy.tau_star)),
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

    if _reference_constructive_knowledge_test(best, records, policy):
        found[Doctrine.CONSTRUCTIVE_KNOWLEDGE] = {"org_score": best, "theta_ck": policy.theta_ck}

    if capacity is not None and _reference_negligence_test(capacity, policy.theta_neg):
        found[Doctrine.NEGLIGENCE] = {"capacity": capacity, "theta_neg": policy.theta_neg}

    return DoctrineFinding(proposition.id, tuple((d, found[d]) for d in PRECEDENCE if d in found))


def _outcome(test, *args):
    """What ``test(*args)`` gives: its result, or the type and text of the error it raises."""
    try:
        return test(*args)
    except Exception as error:
        return type(error), str(error)


# A theta_r with the 0.2 certificate's lower-bound score (0.19999999999999996)
# exactly RECKLESSNESS_MARGIN below it, so that the margin's strict < is tested.
_ON_THE_MARGIN = lower_bound_score(executed(s_lb=0.2).certificate, POLICY.tau_star) + RECKLESSNESS_MARGIN


class TestClassifyReference:
    """``classify`` against its deciders run one record at a time, and against a
    reference that shares none of its code."""

    @settings(max_examples=300, deadline=None)
    @given(*_CLASSIFY_INPUTS)
    def test_findings_match_the_public_tests(self, available, records, threshold, capacity):
        prop = Proposition(id="phi", description="a salient fact", threshold=threshold)
        finding = classify(prop, available, records, POLICY, capacity=capacity)

        own = [r for r in records if r.proposition_id == "phi"]
        score = org_score(available, POLICY) if available else None
        # Actual knowledge and recklessness name the first own record that qualifies alone.
        actual, reckless = (
            next((d for r in own if (d := decide([r], theta, POLICY.tau_star)) is not None), None)
            for decide, theta in ((doctrine._actual, POLICY.theta_ak), (doctrine._reckless, POLICY.theta_r))
        )
        holds = {
            Doctrine.ACTUAL_KNOWLEDGE: actual,
            Doctrine.WILFUL_BLINDNESS: doctrine._blind(available, own, POLICY),
            Doctrine.RECKLESSNESS: reckless,
            Doctrine.CONSTRUCTIVE_KNOWLEDGE: (
                doctrine._constructive(score, POLICY.theta_ck) if actual is None else None
            ),
            Doctrine.NEGLIGENCE: (
                {"capacity": capacity, "theta_neg": POLICY.theta_neg}
                if capacity is not None and negligence_test(capacity, POLICY.theta_neg)
                else None
            ),
        }
        expected = {d for d, detail in holds.items() if detail is not None}
        assert finding.applicable == expected
        order = [d for d, _ in finding.rationale]
        assert order == [d for d in PRECEDENCE if d in expected]
        assert finding.primary is (order[0] if order else None)
        assert all(detail == holds[d] for d, detail in finding.rationale)

    @settings(max_examples=300, deadline=None)
    @given(*_CLASSIFY_INPUTS, st.sampled_from([0.5, 0.6, 0.7, 0.83, 0.9, _ON_THE_MARGIN]))
    @example((), [executed(s_lb=0.2)], 0.7, None, _ON_THE_MARGIN)  # the margin's strict <, every run
    def test_findings_match_the_dict_reference(self, available, records, threshold, capacity, theta):
        prop = Proposition(id="phi", description="a salient fact", threshold=threshold)
        policy = replace(POLICY, theta_ak=theta, theta_ck=threshold, theta_r=theta, theta_neg=threshold)
        finding = classify(prop, available, records, policy, capacity=capacity)
        reference = _reference_classify(prop, available, records, policy, capacity=capacity)
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

    def test_the_margin_theta_is_on_the_margin(self):
        s_lb = lower_bound_score(executed(s_lb=0.2).certificate, POLICY.tau_star)
        assert _ON_THE_MARGIN - RECKLESSNESS_MARGIN == s_lb
        on_the_margin = replace(POLICY, theta_r=_ON_THE_MARGIN)
        assert not _applies(Doctrine.RECKLESSNESS, [], [executed(s_lb=0.2)], policy=on_the_margin)

    @settings(max_examples=300, deadline=None)
    @given(*_CLASSIFY_INPUTS, st.sampled_from([0.5, 0.6, 0.7, 0.83, 0.9, _ON_THE_MARGIN]))
    def test_each_public_test_matches_its_reference(self, available, records, threshold, capacity, theta):
        """Each decider ``classify`` runs, and ``negligence_test``, against its ``_reference_*`` body."""
        policy = replace(POLICY, theta_ak=theta, theta_ck=threshold, theta_r=theta, theta_neg=threshold)
        tau_star = POLICY.tau_star
        for r in records:
            actual = doctrine._actual([r], theta, tau_star) is not None
            assert actual == _reference_actual_knowledge_test(r, theta, tau_star)
            reckless = doctrine._reckless([r], theta, tau_star) is not None
            if r.executed:
                assert reckless == _reference_recklessness_test(r, theta, tau_star)
            else:  # the reference refuses an unexecuted record; the decider passes it over
                assert not reckless
                assert _outcome(_reference_recklessness_test, r, theta, tau_star)[0] is ValueError
        score = org_score(available, policy) if available else None
        achievable = doctrine._constructive(score, policy.theta_ck) is not None
        assert achievable == _reference_constructive_knowledge_test(score, [], policy)
        blind = doctrine._blind(available, records, policy)
        assert (blind is not None) == _reference_wilful_blindness_test(available, records, policy)
        if blind is not None:
            cheap = _reference_cheap_unexecuted(available, records, policy)
            assert blind["pipeline_id"] == min(p.id for p in cheap)
        args = (capacity, threshold)
        assert _outcome(negligence_test, *args) == _outcome(_reference_negligence_test, *args)

    @settings(max_examples=300, deadline=None)
    @given(*_CLASSIFY_INPUTS, st.data())
    def test_row_order_moves_only_the_named_record(self, available, records, threshold, capacity, data):
        prop = Proposition(id="phi", description="a salient fact", threshold=threshold)
        finding = classify(prop, available, records, POLICY, capacity=capacity)
        shuffled = classify(prop, available, data.draw(st.permutations(records)), POLICY, capacity=capacity)
        assert shuffled.applicable == finding.applicable
        assert shuffled.primary is finding.primary
        # Actual knowledge and recklessness name the first qualifying record in row
        # order; only that record, and the score that goes with it, may move.
        names = ("pipeline_id", "lower_bound_score", "certificate")
        for (doctrine_, detail), (_, moved) in zip(finding.rationale, shuffled.rationale):
            if doctrine_ in (Doctrine.ACTUAL_KNOWLEDGE, Doctrine.RECKLESSNESS):
                detail = {k: v for k, v in detail.items() if k not in names}
                moved = {k: v for k, v in moved.items() if k not in names}
            assert moved == detail, doctrine_


# One draw of classify's inputs: (available, records, threshold, capacity).
_CASE = st.tuples(*_CLASSIFY_INPUTS)
_FLAGS = st.sampled_from([e for e in AvoidanceEvidence if e is not AvoidanceEvidence.NONE])
_THETAS = st.sampled_from([0.5, 0.6, 0.7, 0.83, 0.9])
_CAPACITIES = st.sampled_from([0.0, 0.5, 0.7, 1.0])


class TestDirections:
    """Each doctrine moves one way when the input it reads moves one way."""

    @settings(max_examples=200, deadline=None)
    @given(_CASE, _THETAS, _THETAS)
    def test_raising_theta_ak_never_adds_actual_knowledge(self, case, a, b):
        low, high = sorted((a, b))
        at = lambda theta: _applies(Doctrine.ACTUAL_KNOWLEDGE, *case, replace(POLICY, theta_ak=theta))
        assert at(low) or not at(high)

    @settings(max_examples=200, deadline=None)
    @given(_CASE, _CAPACITIES, _CAPACITIES)
    def test_raising_the_capacity_never_adds_negligence(self, case, a, b):
        available, records, threshold, _ = case
        low, high = sorted((a, b))
        at = lambda capacity: _applies(Doctrine.NEGLIGENCE, available, records, threshold, capacity)
        assert at(low) or not at(high)

    @settings(max_examples=200, deadline=None)
    @given(_CASE, _FLAGS)
    def test_an_avoidance_flag_never_removes_wilful_blindness(self, case, flag):
        available, records, threshold, capacity = case
        if not _applies(Doctrine.WILFUL_BLINDNESS, *case):
            return
        for i, r in enumerate(records):
            if r.avoidance_evidence is AvoidanceEvidence.NONE:
                flagged = [*records[:i], replace(r, avoidance_evidence=flag), *records[i + 1 :]]
                assert _applies(Doctrine.WILFUL_BLINDNESS, available, flagged, threshold, capacity)

    @settings(max_examples=200, deadline=None)
    @given(_CASE, st.sampled_from(["a", "b", "z"]), st.sampled_from([Verdict.ESTABLISHED, Verdict.REFUTED]))
    def test_a_passing_certified_execution_removes_constructive_knowledge(self, case, pid, outcome):
        available, records, threshold, capacity = case
        passing = executed(pid=pid, s_lb=0.83, outcome=outcome)
        assert _applies(Doctrine.ACTUAL_KNOWLEDGE, [], [passing])
        with_it = [*records, passing]
        assert not _applies(Doctrine.CONSTRUCTIVE_KNOWLEDGE, available, with_it, threshold, capacity)

    @settings(max_examples=200, deadline=None)
    @given(_CASE, st.sampled_from([0.0, 0.2, 0.45, 0.6]))
    def test_a_lower_certified_score_never_removes_recklessness(self, case, s_lb):
        available, records, threshold, capacity = case
        if not _applies(Doctrine.RECKLESSNESS, *case):
            return
        for i, r in enumerate(records):
            if r.certificate is not None and s_lb < lower_bound_score(r.certificate, POLICY.tau_star):
                lower = replace(r, certificate=executed(pid=r.pipeline_id, s_lb=s_lb).certificate)
                lowered = [*records[:i], lower, *records[i + 1 :]]
                assert _applies(Doctrine.RECKLESSNESS, available, lowered, threshold, capacity)


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
