"""Unit and property tests for the pipeline scoring core, and for the one range
rule that every public number in the package meets."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from epistemic_ledger.metrics import (
    ComponentErrors,
    Docket,
    FrontierPoint,
    PipelineKind,
    PipelineSpec,
    PolicyParams,
    Proposition,
    UnsupportedCompositionError,
    best_pipeline,
    capacity_index,
    compose,
    efficiency,
    epistemic_frontier,
    knowledge_predicate,
    org_score,
    pipeline_score,
    total_error,
)
from epistemic_ledger.doctrine import Verdict, negligence_test
from epistemic_ledger.simlab import (
    default_scenario,
    generate_corpus,
    monte_carlo,
    run_docket,
    scalability_sweep,
    semantic_search,
    sensitivity_sweep,
    simulated_verifier,
)
from epistemic_ledger.validation import (
    BoundMethod,
    ConfidenceBound,
    EqualMass,
    EqualWidth,
    Grouped,
    KFold,
    LossRecord,
    ModelCandidate,
    RollingWindow,
    ValidationCertificate,
    check_delta,
    check_sample_size,
    ece,
    hoeffding_upper,
    make_folds,
    normal_quantile,
    penalized_select,
    plug_in_test,
    wilson_upper,
)

POLICY = PolicyParams()

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def make_pipeline(pid, cost, ret=0.0, gen=0.0, ver=0.0, kind=PipelineKind.FULL, joint=None):
    return PipelineSpec(
        id=pid,
        kind=kind,
        expected_cost=cost,
        errors=ComponentErrors(retrieval=ret, generation=gen, verification=ver),
        joint_error=joint,
    )


def dominates(a, b):
    """Weakly better on both axes and strictly better on at least one."""
    if a.cost > b.cost or a.total_error > b.total_error:
        return False
    return a.cost < b.cost or a.total_error < b.total_error


def brute_force_frontier(pipelines):
    """O(n^2) dominance filter used as the independent oracle."""
    points = [FrontierPoint(p.expected_cost, p.total_error(), p.id) for p in pipelines]
    kept = []
    for point in points:
        dominated = any(dominates(other, point) for other in points)
        duplicate = any(
            other.cost == point.cost
            and other.total_error == point.total_error
            and other.pipeline_id < point.pipeline_id
            for other in points
        )
        if not dominated and not duplicate:
            kept.append(point)
    return sorted(set(kept), key=lambda fp: (fp.cost, fp.total_error, fp.pipeline_id))


class TestTotalError:
    def test_perfect_pipeline(self):
        assert total_error(ComponentErrors(0, 0, 0)) == 0.0

    def test_certain_component_failure_forces_total_failure(self):
        assert total_error(ComponentErrors(1.0, 0.3, 0.2)) == 1.0

    def test_hand_arithmetic(self):
        # 1 - 0.9 * 1.0 * 0.99
        assert total_error(ComponentErrors(0.1, 0.0, 0.01)) == pytest.approx(0.109)

    def test_joint_error_used_verbatim(self):
        assert total_error(ComponentErrors(0.5, 0.5, 0.5), joint_error=0.123) == 0.123

    def test_out_of_range_component_names_field(self):
        with pytest.raises(ValueError, match="verification"):
            ComponentErrors(0.1, 0.0, 1.5)

    @given(unit, unit, unit)
    def test_range(self, a, b, c):
        assert 0.0 <= total_error(ComponentErrors(a, b, c)) <= 1.0

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_rag_bound_equality_under_independence(self, ret, ver):
        # retrieval recall r = 1 - ret; with no generation error the total
        # equals 1 - r * (1 - ver).
        recall = 1.0 - ret
        tot = total_error(ComponentErrors(retrieval=ret, verification=ver))
        assert tot == pytest.approx(1.0 - recall * (1.0 - ver), abs=1e-12)

    @given(unit, unit, unit)
    def test_bit_identical_to_the_written_out_product(self, r, g, v):
        assert total_error(ComponentErrors(r, g, v)) == 1.0 - ((1.0 - r) * (1.0 - g) * (1.0 - v))

    def test_replaced_spec_works_out_its_own_total_error(self):
        spec = make_pipeline("p", 1.0, ret=0.1, gen=0.2, ver=0.3)
        before = spec.total_error()
        assert before == total_error(spec.errors)
        assert replace(spec, errors=ComponentErrors(0.5, 0.0, 0.0)).total_error() == 0.5
        joint = replace(spec, joint_error=0.25)
        assert joint.total_error() == 0.25
        assert replace(joint, joint_error=None).total_error() == before
        assert spec.total_error() == before


@pytest.mark.parametrize(
    "kind, components",
    [
        (PipelineKind.RETRIEVAL_ONLY, ("retrieval",)),
        (PipelineKind.RETRIEVAL_GENERATION, ("retrieval", "generation")),
        (PipelineKind.FULL, ("retrieval", "generation", "verification")),
    ],
)
def test_kind_components(kind, components):
    assert kind.components == components


class TestEfficiency:
    def test_zero_cost_limit(self):
        assert efficiency(0.0, 10.0) == 1.0

    def test_cost_at_reference_halves(self):
        assert efficiency(10.0, 10.0) == 0.5

    def test_table_back_solve(self):
        # The 5.90 s run scores 0.63 with zero error only if tau* is 10.
        assert efficiency(5.90, 10.0) == pytest.approx(0.6289, abs=5e-5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            efficiency(1.0, 0.0)
        with pytest.raises(ValueError):
            efficiency(-1.0, 10.0)

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_range(self, cost):
        assert 0.0 < efficiency(cost, 10.0) <= 1.0


class TestPipelineScore:
    def test_modern_run(self):
        p = make_pipeline("modern", 2.06)
        assert pipeline_score(p, POLICY) == pytest.approx(0.83, abs=0.005)

    def test_total_retrieval_failure_zeroes_score(self):
        p = make_pipeline("legacy", 6.05, ret=1.0, kind=PipelineKind.RETRIEVAL_ONLY)
        assert pipeline_score(p, POLICY) == 0.0

    def test_perfect_bound(self):
        assert pipeline_score(make_pipeline("ideal", 0.0), POLICY) == 1.0

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
        unit,
        unit,
        unit,
    )
    def test_monotone_in_cost(self, cost, bump, a, b, c):
        cheap = make_pipeline("x", cost, a, b, c)
        dear = make_pipeline("x", cost + bump, a, b, c)
        if total_error(ComponentErrors(a, b, c)) < 1.0:
            assert pipeline_score(dear, POLICY) < pipeline_score(cheap, POLICY)
        else:
            assert pipeline_score(dear, POLICY) == pipeline_score(cheap, POLICY) == 0.0


class TestOrgScore:
    def test_max_over_table_rows(self):
        legacy = make_pipeline("legacy", 5.90, kind=PipelineKind.RETRIEVAL_ONLY)
        modern = make_pipeline("modern", 2.06)
        assert org_score([legacy, modern], POLICY) == pipeline_score(modern, POLICY)

    def test_singleton_identity(self):
        p = make_pipeline("only", 3.0, ret=0.2)
        assert org_score([p], POLICY) == pipeline_score(p, POLICY)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            org_score([], POLICY)

    def test_best_pipeline_tie_breaks_on_id(self):
        a = make_pipeline("a", 1.0)
        b = make_pipeline("b", 1.0)
        winner, _ = best_pipeline([b, a], POLICY)
        assert winner.id == "a"

    # Few costs and errors, so that exact score ties between distinct ids are common.
    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, 1.0, 2.06, 5.9]), st.sampled_from([0.0, 0.05, 0.5, 1.0])),
            min_size=1,
            max_size=6,
        ),
        st.randoms(use_true_random=False),
    )
    def test_org_score_is_the_best_pipelines_score(self, rows, rng):
        pipes = [make_pipeline(f"p{i}", cost, ret) for i, (cost, ret) in enumerate(rows)]
        rng.shuffle(pipes)
        winner, best = best_pipeline(pipes, POLICY)
        assert org_score(pipes, POLICY) == best == pipeline_score(winner, POLICY)

    def test_adding_pipeline_never_lowers(self):
        rng = random.Random(7)
        for _ in range(200):
            pool = [
                make_pipeline(f"p{i}", rng.uniform(0, 20), rng.random(), 0.0, rng.random())
                for i in range(rng.randint(1, 6))
            ]
            extra = make_pipeline("extra", rng.uniform(0, 20), rng.random())
            assert org_score(pool + [extra], POLICY) >= org_score(pool, POLICY)


class TestKnowledgePredicate:
    def test_above_threshold(self):
        assert knowledge_predicate(0.83, 0.7) is True

    def test_below_threshold(self):
        assert knowledge_predicate(0.63, 0.7) is False

    def test_boundary_inclusive(self):
        assert knowledge_predicate(0.7, 0.7) is True


class TestCapacityIndex:
    def _index(self, scores_by_prop, weights=None, threshold=0.7):
        props = tuple(
            Proposition(id=f"phi{i}", salience_weight=1.0 if weights is None else weights[i], threshold=threshold)
            for i in range(len(scores_by_prop))
        )
        scores = {f"phi{i}": score for i, score in enumerate(scores_by_prop)}
        return capacity_index(Docket(propositions=props, pipeline_sets={}), scores)

    def test_all_meet_threshold(self):
        assert self._index([0.83, 0.83, 0.83, 0.83]) == 1.0

    def test_none_meet_threshold(self):
        assert self._index([0.63, 0.0, 0.0, 0.62]) == 0.0

    def test_weighted_two_thirds(self):
        assert self._index([0.8, 0.6], weights=[2.0, 1.0]) == pytest.approx(2.0 / 3.0)

    def test_empty_pipeline_set_contributes_zero(self):
        assert self._index([0.9, None]) == pytest.approx(0.5)

    def test_absent_score_contributes_zero(self):
        docket = Docket(propositions=(Proposition(id="a"), Proposition(id="b")), pipeline_sets={})
        assert capacity_index(docket, {"a": 0.9}) == pytest.approx(0.5)

    def test_threshold_is_inclusive(self):
        assert self._index([0.7], threshold=0.7) == 1.0

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError):
            self._index([0.9], weights=[0.0])

    def test_total_weight_that_overflows_is_rejected(self):
        # Each weight is finite, but their sum is not: the index would be inf / inf.
        with pytest.raises(ValueError, match="total salience weight must be > 0, got inf"):
            self._index([1.0, 1.0], weights=[1e308, 1e308])

    def test_equals_one_iff_every_positive_weight_meets(self):
        assert self._index([0.8, 0.69], weights=[1.0, 1.0]) < 1.0


class TestCompose:
    def test_retrieval_then_verification(self):
        first = make_pipeline("r", 1.0, ret=0.1, kind=PipelineKind.RETRIEVAL_ONLY)
        second = make_pipeline("v", 2.0, ver=0.2)
        merged = compose(first, second)
        assert merged.expected_cost == 3.0
        assert merged.total_error() == pytest.approx(0.28)

    def test_identity_stage(self):
        base = make_pipeline("base", 5.90, ret=0.05)
        null = make_pipeline("null", 0.0, kind=PipelineKind.RETRIEVAL_ONLY)
        merged = compose(base, null)
        assert merged.expected_cost == 5.90
        assert merged.total_error() == pytest.approx(base.total_error())

    def test_double_generation_with_joint_rejected(self):
        a = make_pipeline("a", 1.0, gen=0.1, kind=PipelineKind.RETRIEVAL_GENERATION)
        b = make_pipeline(
            "b", 1.0, gen=0.1, kind=PipelineKind.RETRIEVAL_GENERATION, joint=0.2
        )
        with pytest.raises(UnsupportedCompositionError):
            compose(a, b)

    def test_disjoint_slots_compose_totals(self):
        rng = random.Random(11)
        for _ in range(200):
            a = make_pipeline("a", 1.0, ret=rng.random(), kind=PipelineKind.RETRIEVAL_ONLY)
            b = make_pipeline("b", 1.0, ver=rng.random())
            merged = compose(a, b)
            expected = 1.0 - (1.0 - a.total_error()) * (1.0 - b.total_error())
            assert merged.total_error() == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("second_kind", list(PipelineKind))
    @pytest.mark.parametrize("first_kind", list(PipelineKind))
    def test_kind_of_every_pair_matches_the_engagement_ladder(self, first_kind, second_kind):
        def engages_generation(p):
            return p.kind in (PipelineKind.RETRIEVAL_GENERATION, PipelineKind.FULL) or (
                p.errors.generation > 0.0
            )

        def engages_verification(p):
            return p.kind is PipelineKind.FULL or p.errors.verification > 0.0

        def stages(kind):
            # A stage's errors can engage a component its kind does not run,
            # except generation in a retrieval_only pipeline.
            gens = (0.0,) if kind is PipelineKind.RETRIEVAL_ONLY else (0.0, 0.1)
            return [
                make_pipeline(f"{kind.value}-{g}-{v}", 1.0, ret=0.1, gen=g, ver=v, kind=kind)
                for g in gens
                for v in (0.0, 0.1)
            ]

        for a in stages(first_kind):
            for b in stages(second_kind):
                if engages_verification(a) or engages_verification(b):
                    expected = PipelineKind.FULL
                elif engages_generation(a) or engages_generation(b):
                    expected = PipelineKind.RETRIEVAL_GENERATION
                else:
                    expected = PipelineKind.RETRIEVAL_ONLY
                assert compose(a, b).kind is expected, (a.id, b.id)


class TestFrontier:
    def test_dominated_point_dropped(self):
        pipes = [
            make_pipeline("a", 1.0, joint=0.5),
            make_pipeline("b", 2.0, joint=0.1),
            make_pipeline("c", 3.0, joint=0.1),
        ]
        frontier = epistemic_frontier(pipes)
        assert [(p.cost, p.total_error) for p in frontier] == [(1.0, 0.5), (2.0, 0.1)]

    def test_singleton(self):
        frontier = epistemic_frontier([make_pipeline("only", 4.0, ret=0.2)])
        assert len(frontier) == 1 and frontier[0].pipeline_id == "only"

    def test_exact_tie_keeps_smallest_id(self):
        pipes = [make_pipeline("b", 1.0, joint=0.2), make_pipeline("a", 1.0, joint=0.2)]
        frontier = epistemic_frontier(pipes)
        assert [p.pipeline_id for p in frontier] == ["a"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            epistemic_frontier([])

    def test_matches_brute_force_oracle(self):
        rng = random.Random(99)
        for _ in range(300):
            pipes = [
                make_pipeline(
                    f"p{i}",
                    rng.choice([1.0, 2.0, rng.uniform(0, 10)]),
                    joint=rng.choice([0.1, 0.5, rng.random()]),
                )
                for i in range(rng.randint(1, 12))
            ]
            got = epistemic_frontier(pipes)
            assert got == brute_force_frontier(pipes)

    def test_improving_a_pipeline_never_lowers_org_score(self):
        rng = random.Random(5)
        for _ in range(200):
            pipes = [
                make_pipeline(f"p{i}", rng.uniform(0, 10), ret=rng.random())
                for i in range(rng.randint(1, 5))
            ]
            baseline = org_score(pipes, POLICY)
            target = rng.randrange(len(pipes))
            improved = make_pipeline(
                pipes[target].id,
                pipes[target].expected_cost * rng.random(),
                ret=pipes[target].errors.retrieval,
            )
            swapped = list(pipes)
            swapped[target] = improved
            assert org_score(swapped, POLICY) >= baseline

    def test_improving_a_pipeline_never_shrinks_dominated_region(self):
        # Every (cost, error) point dominated before the improvement is
        # still dominated (or matched) afterwards, checked on a probe grid.
        rng = random.Random(23)

        def dominated(frontier, cost, err):
            return any(
                fp.cost <= cost and fp.total_error <= err for fp in frontier
            )

        for _ in range(200):
            pipes = [
                make_pipeline(f"p{i}", rng.uniform(0, 10), joint=rng.random())
                for i in range(rng.randint(1, 6))
            ]
            target = rng.randrange(len(pipes))
            improved = make_pipeline(
                pipes[target].id,
                pipes[target].expected_cost * rng.random(),
                joint=pipes[target].total_error(),
            )
            swapped = list(pipes)
            swapped[target] = improved
            before = epistemic_frontier(pipes)
            after = epistemic_frontier(swapped)
            probes = [(rng.uniform(0, 12), rng.random()) for _ in range(25)]
            for cost, err in probes:
                if dominated(before, cost, err):
                    assert dominated(after, cost, err)


class TestValidationOfTypes:
    def test_retrieval_only_forbids_generation_error(self):
        with pytest.raises(ValueError, match="generation"):
            make_pipeline("bad", 1.0, gen=0.1, kind=PipelineKind.RETRIEVAL_ONLY)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="expected_cost"):
            make_pipeline("bad", -1.0)

    def test_policy_threshold_bounds(self):
        with pytest.raises(ValueError):
            PolicyParams(theta_c=1.0)
        with pytest.raises(ValueError):
            PolicyParams(tau_star=0.0)

    def test_proposition_threshold_open_interval(self):
        with pytest.raises(ValueError):
            Proposition(id="x", threshold=0.0)


SCENARIO = default_scenario()
TASK = SCENARIO.tasks[0]
CERT = ValidationCertificate("p", 1.0, (), 0.05, "holdout", "")
PLAN = make_folds(4, KFold(2))
DATA = [(i, 0) for i in range(4)]
ZERO = ModelCandidate("zero", lambda train: lambda x: 0, 0.0)
HOEFFDING = BoundMethod.HOEFFDING

# Every public constructor and function that takes a number, as
# (what, call with the number, a value just outside its interval). The
# number must be finite and inside the interval, or a ValueError names it.
# One whose outside value is an int takes an integer, and also refuses an
# integer beyond float range.
RANGES = [
    ("PolicyParams.tau_star", lambda v: PolicyParams(tau_star=v), 0.0),
    *(
        (f"PolicyParams.{name}", lambda v, name=name: PolicyParams(**{name: v}), 1.0)
        for name in ("theta_c", "delta", "theta_ak", "theta_ck", "theta_r", "theta_neg")
    ),
    ("Proposition.salience_weight", lambda v: Proposition("p", salience_weight=v), -1e-9),
    ("Proposition.threshold", lambda v: Proposition("p", threshold=v), 0.0),
    *(
        (f"ComponentErrors.{name}", lambda v, name=name: ComponentErrors(**{name: v}), 1 + 1e-9)
        for name in ("retrieval", "generation", "verification")
    ),
    ("PipelineSpec.expected_cost", lambda v: make_pipeline("p", v), -1e-9),
    ("PipelineSpec.joint_error", lambda v: make_pipeline("p", 1.0, joint=v), 1 + 1e-9),
    ("total_error.joint_error", lambda v: total_error(ComponentErrors(), v), -1e-9),
    ("knowledge_predicate.score", lambda v: knowledge_predicate(v, 0.7), 1 + 1e-9),
    ("knowledge_predicate.theta_c", lambda v: knowledge_predicate(0.5, v), 0.0),
    ("efficiency.cost", lambda v: efficiency(v, 10.0), -1e-9),
    ("efficiency.tau_star", lambda v: efficiency(1.0, v), 0.0),
    ("LossRecord.loss", lambda v: LossRecord(None, None, v), 1 + 1e-9),
    ("check_delta", check_delta, 1.0),
    ("check_sample_size", check_sample_size, -1),
    ("ConfidenceBound.point_estimate", lambda v: ConfidenceBound(v, 1.0, HOEFFDING, 0.05, 9), -1e-9),
    ("ConfidenceBound.upper", lambda v: ConfidenceBound(0.0, v, HOEFFDING, 0.05, 9), 1 + 1e-9),
    ("ConfidenceBound.delta", lambda v: ConfidenceBound(0.0, 0.0, HOEFFDING, v, 0), 0.0),
    ("ConfidenceBound.sample_size", lambda v: ConfidenceBound(0.0, 0.0, HOEFFDING, 0.05, v), -1),
    ("ValidationCertificate.measured_cost", lambda v: replace(CERT, measured_cost=v), -1e-9),
    ("normal_quantile", normal_quantile, 1.0),
    ("hoeffding_upper.risk", lambda v: hoeffding_upper(v, 10, 0.05), 1 + 1e-9),
    ("hoeffding_upper.n", lambda v: hoeffding_upper(0.1, v, 0.05), 0),
    ("hoeffding_upper.delta", lambda v: hoeffding_upper(0.1, 10, v), 0.0),
    ("wilson_upper.successes", lambda v: wilson_upper(v, 10, 0.05), 11),
    ("wilson_upper.n", lambda v: wilson_upper(0, v, 0.05), 0),
    ("wilson_upper.delta", lambda v: wilson_upper(1, 10, v), 1.0),
    ("EqualWidth.bins", EqualWidth, 0),
    ("EqualMass.bins", EqualMass, 0),
    ("ece.confidence", lambda v: ece([(0.5, True), (v, False)]), 1 + 1e-9),
    ("make_folds.n", lambda v: make_folds(v, KFold(2)), 0),
    ("make_folds.kfold_k", lambda v: make_folds(4, KFold(v)), 1),
    ("make_folds.kfold_k_above_n", lambda v: make_folds(4, KFold(v)), 5),
    ("make_folds.kfold_shuffle_seed", lambda v: make_folds(4, KFold(2, shuffle_seed=v)), -1),
    *(
        (
            f"make_folds.rolling_{name}",
            lambda v, name=name: make_folds(9, replace(RollingWindow(2, 1, 1), **{name: v})),
            0,
        )
        for name in ("train_size", "test_size", "step")
    ),
    ("make_folds.grouped_k", lambda v: make_folds(6, Grouped(v), keys="aabbcc"), 1),
    ("ModelCandidate.complexity", lambda v: ModelCandidate("m", ZERO.trainer, v), -1e-9),
    ("penalized_select.lam", lambda v: penalized_select([ZERO], DATA, PLAN, v), -1e-9),
    ("plug_in_test.theta_c", lambda v: plug_in_test(CERT, v, 10.0), 1.0),
    ("negligence_test.capacity", lambda v: negligence_test(v, 0.7), 1 + 1e-9),
    (
        "semantic_search.k",
        lambda v: semantic_search(generate_corpus(SCENARIO, 1), "q", replace(SCENARIO, retrieval_k=v)),
        0,
    ),
    (
        "simulated_verifier.eps_ver",
        lambda v: simulated_verifier(("d",), frozenset({"d"}), Verdict.ESTABLISHED, v, np.random.default_rng(1)),
        1 + 1e-9,
    ),
    ("monte_carlo.runs", lambda v: monte_carlo(SCENARIO, v), 0),
    ("monte_carlo.jitter_sigma", lambda v: monte_carlo(SCENARIO, 2, jitter_sigma=v, seed=1), -1e-9),
    ("monte_carlo.seed", lambda v: monte_carlo(SCENARIO, 2, seed=v), -1),
    ("run_docket.seed", lambda v: run_docket(SCENARIO, seed=v), -1),
    ("generate_corpus.seed", lambda v: generate_corpus(SCENARIO, v), -1),
    ("scalability_sweep.seed", lambda v: scalability_sweep(SCENARIO, [62], seed=v), -1),
    ("sensitivity_sweep.eps", lambda v: sensitivity_sweep(SCENARIO, [0.1, v]), 1 + 1e-9),
    ("scalability_sweep.size", lambda v: scalability_sweep(SCENARIO, [v]), SCENARIO.min_corpus_size() - 1),
    *(
        (f"TaskSpec.{name}", lambda v, name=name: replace(TASK, **{name: v}), 0.0)
        for name in ("legacy_time_scale", "modern_time_scale")
    ),
    *(
        (f"SimScenario.{name}", lambda v, name=name: replace(SCENARIO, **{name: v}), outside)
        for name, outside in [
            ("c_per_doc", -1e-9),
            ("modern_a", -1e-9),
            ("modern_b", -1e-9),
            ("jitter_sigma", -1e-9),
            ("verifier_error", 1 + 1e-9),
            ("retrieval_k", 0),
            ("ground_truth_per_task", 0),
            ("euphemism_ratio", 1 + 1e-9),
            ("corpus_size", SCENARIO.min_corpus_size() - 1),
            ("seed", -1),
        ]
    ),
]


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{what}-{label}")
        for what, call, outside in RANGES
        for label, value in [
            ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("outside", outside),
            *([("10**400", 10**400)] if isinstance(outside, int) or what.startswith("efficiency.") else []),
        ]
    ],
)
def test_a_number_outside_its_interval_is_refused(call, value):
    # The range diagnostic, not some later failure; a scenario's corpus size
    # is judged against the ground-truth documents its tasks need.
    with pytest.raises(ValueError, match="must (lie in|be)|is below the"):
        call(value)


# A count's interval holds 2.5 unless it is named here.
_FRACTIONS = dict.fromkeys(("scalability_sweep.size", "SimScenario.corpus_size"), SCENARIO.min_corpus_size() + 0.5)


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, _FRACTIONS.get(what, 2.5), id=what)
        for what, call, outside in RANGES
        if isinstance(outside, int)
    ],
)
def test_a_fraction_inside_a_counts_interval_is_refused(call, value):
    # A count is whole: a bound is not built on, nor numpy seeded from, a fraction.
    with pytest.raises(ValueError, match=f"must be an integer, got {value}$"):
        call(value)


def _accepts(call, value) -> bool:
    try:
        call(value)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("call, outside", [pytest.param(call, outside, id=what) for what, call, outside in RANGES])
def test_a_number_inside_its_interval_is_accepted_as_each_numeric_type(call, outside):
    # The checks take a fast path for a Python float or int, so a value that they accept
    # must pass as whatever type holds it: a count as an int and a numpy int, any other
    # number as a float, a numpy float and, where a whole number is inside, an int.
    if isinstance(outside, int):
        inside = next(v for v in (outside + 1, outside + 2, outside - 1) if _accepts(call, v))
        assert _accepts(call, np.int64(inside))
    else:
        assert _accepts(call, 0.5) and _accepts(call, np.float64(0.5))
        for whole in (0, 1):
            if _accepts(call, float(whole)):
                assert _accepts(call, whole) and _accepts(call, np.float64(whole))
