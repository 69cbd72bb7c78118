"""Unit tests for bounds, calibration, folds, CV, selection, certificates."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtri

from epistemic_ledger.metrics import (
    ComponentErrors,
    Docket,
    PipelineKind,
    PipelineSpec,
    PolicyParams,
    Proposition,
    pipeline_score,
)
from epistemic_ledger.validation import (
    BoundMethod,
    CertificationRefusedError,
    ConfidenceBound,
    EqualMass,
    EqualWidth,
    Grouped,
    KFold,
    LossRecord,
    ModelCandidate,
    RollingWindow,
    ValidationCertificate,
    certify,
    confidence_bound,
    cv_risk,
    ece,
    empirical_risk,
    hoeffding_upper,
    lower_bound_capacity,
    lower_bound_score,
    make_folds,
    normal_quantile,
    penalized_select,
    plug_in_test,
    wilson_upper,
)

POLICY = PolicyParams()


def loss_records(losses):
    return [LossRecord(predicted=None, actual=None, loss=x) for x in losses]


def make_cert(total_upper, cost, pipeline_id="pi", delta=0.05):
    """Certificate whose retrieval bound carries the whole total upper."""
    ret = ConfidenceBound(0.0, total_upper, BoundMethod.HOEFFDING, delta, 100)
    zero = ConfidenceBound(0.0, 0.0, BoundMethod.HOEFFDING, delta, 100)
    return ValidationCertificate(
        pipeline_id, cost, (ret, zero, zero), delta, "holdout", "2026-01-01T00:00:00+00:00"
    )


class TestEmpiricalRisk:
    def test_all_zero(self):
        assert empirical_risk(loss_records([0, 0, 0])) == 0.0

    def test_hand_mean(self):
        assert empirical_risk(loss_records([1, 0, 0, 1])) == 0.5

    def test_all_one(self):
        assert empirical_risk(loss_records([1, 1])) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_risk([])


class TestHoeffdingUpper:
    def test_hand_evaluation(self):
        # 0.10 + sqrt(ln 20 / 400)
        bound = hoeffding_upper(0.10, 200, 0.05)
        assert bound.upper == pytest.approx(0.18654, abs=1e-4)

    def test_delta_near_one_collapses_to_risk(self):
        bound = hoeffding_upper(0.3, 100, 0.999999)
        assert bound.upper == pytest.approx(0.3, abs=1e-3)

    def test_clamped_to_one(self):
        assert hoeffding_upper(0.99, 10, 0.05).upper == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hoeffding_upper(0.1, 0, 0.05)
        with pytest.raises(ValueError):
            hoeffding_upper(0.1, 100, 1.0)

    def test_coverage_sanity_one_cell(self):
        # Focused version of the coverage property; the acceptance suite
        # runs the full grid.
        rng = np.random.default_rng(2024)
        p, n, trials = 0.2, 50, 500
        risks = rng.binomial(n, p, size=trials) / n
        slack = math.sqrt(math.log(1 / 0.05) / (2 * n))
        coverage = float(np.mean(p <= risks + slack))
        assert coverage >= 0.95


class TestWilsonUpper:
    def test_zero_successes(self):
        bound = wilson_upper(0, 100, 0.05)
        assert bound.upper == pytest.approx(0.02634, abs=5e-5)
        # Exact Clopper-Pearson upper for k=0 is 1 - delta**(1/n); Wilson
        # must stay below that ceiling here.
        assert bound.upper <= 1.0 - 0.05 ** (1.0 / 100)

    def test_all_failures(self):
        assert wilson_upper(100, 100, 0.05).upper == 1.0

    def test_consistency_at_large_n(self):
        n = 10**6
        bound = wilson_upper(n // 2, n, 0.05)
        assert bound.upper == pytest.approx(0.5, abs=1e-3)

    def test_against_clopper_pearson(self):
        for k, n in ((0, 100), (3, 50), (10, 200), (40, 80)):
            wilson = wilson_upper(k, n, 0.05).upper
            cp = float(stats.beta.ppf(0.95, k + 1, n - k)) if k < n else 1.0
            assert k / n <= wilson <= cp + 1e-9

    def test_dominates_point_estimate(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 500)
            k = rng.randint(0, n)
            bound = wilson_upper(k, n, 0.05)
            assert bound.upper >= k / n
            assert bound.upper <= 1.0

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            wilson_upper(5, 4, 0.05)

    def test_bounds_tighten_with_more_data_and_looser_delta(self):
        # At a fixed observed rate, both bound families shrink as n grows
        # and as delta grows (less confidence demanded).
        for upper_of in (
            lambda n, d: hoeffding_upper(0.1, n, d).upper,
            lambda n, d: wilson_upper(n // 10, n, d).upper,
        ):
            by_n = [upper_of(n, 0.05) for n in (50, 200, 1000, 5000)]
            assert by_n == sorted(by_n, reverse=True)
            by_delta = [upper_of(200, d) for d in (0.01, 0.05, 0.2)]
            assert by_delta == sorted(by_delta, reverse=True)


class TestNormalQuantile:
    def test_matches_reference_to_1e7(self):
        for p in np.concatenate(
            (
                np.linspace(1e-9, 0.02, 40),
                np.linspace(0.02, 0.98, 200),
                np.linspace(0.98, 1 - 1e-9, 40),
            )
        ):
            assert normal_quantile(float(p)) == pytest.approx(
                float(ndtri(p)), abs=1e-7
            )

    def test_median(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)


class TestEce:
    def test_perfectly_calibrated_is_zero(self):
        # Three bins where confidence equals empirical accuracy exactly.
        preds = []
        for conf, hits, total in ((0.25, 1, 4), (0.55, 11, 20), (0.85, 17, 20)):
            preds += [(conf, True)] * hits + [(conf, False)] * (total - hits)
        report = ece(preds, EqualWidth(10))
        assert report.ece == pytest.approx(0.0, abs=1e-12)

    def test_single_bin_gap(self):
        preds = [(0.8, True)] * 9 + [(0.8, False)]
        report = ece(preds, EqualWidth(1))
        assert report.ece == pytest.approx(0.1)

    def test_two_bins_weighted(self):
        first = [(0.3, True)] * 25 + [(0.3, False)] * 25  # conf .3, acc .5
        second = [(0.8, True)] * 40 + [(0.8, False)] * 10  # conf .8, acc .8
        report = ece(first + second, EqualWidth(2))
        assert report.ece == pytest.approx(0.1)

    def test_counts_cover_input(self):
        rng = random.Random(17)
        preds = [(rng.random(), rng.random() < 0.5) for _ in range(137)]
        for binning in (EqualWidth(10), EqualMass(7)):
            report = ece(preds, binning)
            assert report.total == len(preds)
            assert 0.0 <= report.ece <= 1.0

    def test_permutation_invariance(self):
        rng = random.Random(23)
        preds = [(rng.random(), rng.random() < 0.4) for _ in range(80)]
        baseline = ece(preds, EqualWidth(10)).ece
        for _ in range(25):
            rng.shuffle(preds)
            assert ece(preds, EqualWidth(10)).ece == pytest.approx(baseline, abs=1e-12)

    @pytest.mark.parametrize(
        "n, bins, counts",
        [
            (9, 2, (5, 4)),
            (10, 5, (2, 2, 2, 2, 2)),
            (7, 3, (3, 2, 2)),
            (1, 1, (1,)),
            (3, 5, (1, 1, 1, 0, 0)),  # more bins than predictions: trailing bins are empty
            (2, 4, (1, 1, 0, 0)),
        ],
        ids=["9-in-2", "10-in-5", "7-in-3", "1-in-1", "3-in-5", "2-in-4"],
    )
    def test_equal_mass_split_sizes(self, n, bins, counts):
        preds = [((i + 1) / (n + 1), True) for i in range(n)]
        report = ece(preds, EqualMass(bins))
        assert report.counts == counts

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ece([], EqualWidth(10))

    def test_binning_names_and_values(self):
        preds = [(0.2, True), (0.9, False)]
        assert ece(preds, EqualWidth(10)).binning == "equal_width(10)"
        assert ece(preds, EqualMass(7)).binning == "equal_mass(7)"
        assert EqualMass(7).describe() == "equal_mass(7)"
        assert repr(EqualMass(7)) == "EqualMass(bins=7)"
        assert repr(EqualWidth()) == "EqualWidth(bins=10)"
        assert EqualWidth(3) == EqualWidth(3)
        assert EqualWidth(3) != EqualMass(3)

    @pytest.mark.parametrize("binning", [EqualWidth, EqualMass])
    @pytest.mark.parametrize("bins", [0, -1])
    def test_bin_count_below_one_rejected(self, binning, bins):
        with pytest.raises(ValueError, match="bin count must be >= 1"):
            binning(bins)


class TestMakeFolds:
    def test_kfold_even_split(self):
        plan = make_folds(10, KFold(5))
        assert [len(f.test) for f in plan.folds] == [2] * 5
        covered = sorted(i for f in plan.folds for i in f.test)
        assert covered == list(range(10))
        for fold in plan.folds:
            assert set(fold.train).isdisjoint(fold.test)
            assert sorted(set(fold.train) | set(fold.test)) == list(range(10))

    def test_kfold_shuffled_deterministic(self):
        a = make_folds(10, KFold(5, shuffle_seed=9))
        b = make_folds(10, KFold(5, shuffle_seed=9))
        assert a == b
        assert a != make_folds(10, KFold(5, shuffle_seed=10))

    @pytest.mark.parametrize("seed", [None, 3])
    def test_kfold_train_keeps_plan_order(self, seed):
        plan = make_folds(23, KFold(5, shuffle_seed=seed))
        indices = [i for f in plan.folds for i in f.test]
        assert [len(f.test) for f in plan.folds] == [5, 5, 5, 4, 4]
        for fold in plan.folds:
            assert list(fold.train) == [i for i in indices if i not in fold.test]

    def test_kfold_too_few_records(self):
        with pytest.raises(ValueError):
            make_folds(3, KFold(5))

    def test_rolling_window_enumeration(self):
        plan = make_folds(9, RollingWindow(train_size=5, test_size=2, step=2))
        assert [f.test for f in plan.folds] == [(5, 6), (7, 8)]
        for fold in plan.folds:
            assert max(fold.train) < min(fold.test)

    def test_rolling_window_needs_monotone_keys(self):
        with pytest.raises(ValueError, match="monotone"):
            make_folds(4, RollingWindow(2, 1, 1), keys=[1, 3, 2, 4])

    def test_grouped_atomicity(self):
        plan = make_folds(4, Grouped(2), keys=["a", "a", "b", "b"])
        tests = sorted(tuple(f.test) for f in plan.folds)
        assert tests == [(0, 1), (2, 3)]

    def test_grouped_too_few_groups(self):
        with pytest.raises(ValueError):
            make_folds(4, Grouped(3), keys=["a", "a", "b", "b"])

    def test_assignments_map_test_membership(self):
        plan = make_folds(6, KFold(3))
        assignments = {i: fold.fold_id for fold in plan.folds for i in fold.test}
        assert sorted(assignments) == list(range(6))
        assert set(assignments.values()) == {0, 1, 2}


def constant_trainer(value):
    def train(_train_pairs):
        return lambda x: value

    return train


class TestCvRisk:
    def test_constant_true_on_all_true(self):
        data = [(i, True) for i in range(8)]
        plan = make_folds(8, KFold(4))
        candidate = ModelCandidate("const", constant_trainer(True), complexity=0.0)
        assert cv_risk(data, plan, candidate) == 0.0

    def test_constant_on_balanced_labels(self):
        data = [(i, i % 2 == 0) for i in range(8)]
        plan = make_folds(8, KFold(4))
        candidate = ModelCandidate("const", constant_trainer(True), complexity=0.0)
        assert cv_risk(data, plan, candidate) == 0.5

    def test_equal_fold_weight_with_unequal_sizes(self):
        # Fold 0 tests one record (always wrong), fold 1 tests three
        # (always right): pooled would give 0.25, fold averaging gives 0.5.
        from epistemic_ledger.validation import Fold, FoldPlan

        data = [(0, False), (1, True), (2, True), (3, True)]
        plan = FoldPlan(
            "manual", (Fold(0, (1, 2, 3), (0,)), Fold(1, (0,), (1, 2, 3)))
        )
        candidate = ModelCandidate("const", constant_trainer(True), complexity=0.0)
        assert cv_risk(data, plan, candidate) == 0.5

    def test_deterministic_with_seeded_trainer(self):
        def seeded_trainer(train_pairs):
            rng = random.Random(1234 + len(train_pairs))
            flips = {x: rng.random() < 0.5 for x, _ in train_pairs}
            return lambda x: flips.get(x, True)

        data = [(i, i % 3 == 0) for i in range(30)]
        plan = make_folds(30, KFold(5, shuffle_seed=77))
        candidate = ModelCandidate("seeded", seeded_trainer, complexity=1.0)
        first = cv_risk(data, plan, candidate)
        second = cv_risk(data, plan, candidate)
        assert first == second

    def test_trainer_failure_names_fold(self):
        def broken(_train):
            raise RuntimeError("boom")

        data = [(i, True) for i in range(4)]
        plan = make_folds(4, KFold(2))
        candidate = ModelCandidate("broken", broken, complexity=0.0)
        with pytest.raises(RuntimeError, match="fold 0"):
            cv_risk(data, plan, candidate)


class TestPenalizedSelect:
    def _data_plan(self):
        data = [(i, True) for i in range(10)]
        return data, make_folds(10, KFold(5))

    def test_lambda_zero_is_pure_risk_argmin(self):
        data, plan = self._data_plan()
        good = ModelCandidate("good", constant_trainer(True), complexity=9.0)
        bad = ModelCandidate("bad", constant_trainer(False), complexity=0.0)
        assert penalized_select([bad, good], data, plan, lam=0.0).id == "good"

    def test_penalty_flips_choice(self):
        # risks 0.10 vs 0.12, complexities 5 vs 1, lambda 0.01:
        # 0.15 vs 0.13, so the simpler one wins.
        from epistemic_ledger.validation import Fold, FoldPlan

        data = [(i, True) for i in range(100)]
        plan = FoldPlan("manual", (Fold(0, tuple(range(50, 100)), tuple(range(50))),))

        def fixed_risk_trainer(wrong_count):
            def train(_pairs):
                return lambda x: x >= wrong_count  # wrong on the first few test xs

            return train

        complex_cand = ModelCandidate("complex", fixed_risk_trainer(5), complexity=5.0)
        simple_cand = ModelCandidate("simple", fixed_risk_trainer(6), complexity=1.0)
        winner = penalized_select([complex_cand, simple_cand], data, plan, lam=0.01)
        assert winner.id == "simple"

    def test_tie_breaks_on_complexity(self):
        data, plan = self._data_plan()
        heavy = ModelCandidate("heavy", constant_trainer(True), complexity=2.0)
        light = ModelCandidate("light", constant_trainer(True), complexity=1.0)
        assert penalized_select([heavy, light], data, plan, lam=0.0).id == "light"

    def test_empty_candidates_rejected(self):
        data, plan = self._data_plan()
        with pytest.raises(ValueError):
            penalized_select([], data, plan, lam=0.0)

    @pytest.mark.parametrize("order", ["abc", "bca", "cab"])
    def test_nan_complexity_is_rejected_whatever_the_order(self, order):
        # Sorting on a NaN key would pick a, c and c in these three orders.
        data, plan = self._data_plan()
        specs = {
            "a": (constant_trainer(True), math.nan),
            "b": (constant_trainer(False), 0.0),
            "c": (constant_trainer(True), 1.0),
        }
        with pytest.raises(ValueError, match="complexity must be >= 0, got nan"):
            penalized_select([ModelCandidate(c, *specs[c]) for c in order], data, plan, lam=0.1)


class TestConfidenceBound:
    @pytest.mark.parametrize("method", list(BoundMethod))
    def test_no_samples_is_the_synthetic_zero_bound(self, method):
        bound = confidence_bound(method, 0.0, 0, 0.05)
        assert bound == ConfidenceBound(0.0, 0.0, method, 0.05, 0)
        assert bound.synthetic
        with pytest.raises(ValueError, match="no samples"):
            confidence_bound(method, 0.1, 0, 0.05)

    def test_each_method_is_its_bound(self):
        assert confidence_bound(BoundMethod.WILSON, 0.25, 40, 0.05) == wilson_upper(10, 40, 0.05)
        assert confidence_bound(BoundMethod.HOEFFDING, 0.3, 7, 0.05) == hoeffding_upper(0.3, 7, 0.05)
        assert not hoeffding_upper(0.3, 7, 0.05).synthetic

    def test_wilson_point_is_a_count_over_n(self):
        with pytest.raises(ValueError, match="k/n"):
            confidence_bound(BoundMethod.WILSON, 0.3, 4, 0.05)


class TestCertify:
    def _pipeline(self, kind=PipelineKind.FULL):
        return PipelineSpec(id="pi", kind=kind, expected_cost=2.06)

    def _zero_sets(self, n=1000):
        return {
            slot: loss_records([0.0] * n)
            for slot in ("retrieval", "generation", "verification")
        }

    def test_zero_error_hoeffding_bounds(self):
        cert = certify(
            self._pipeline(),
            self._zero_sets(),
            measured_cost=2.06,
            delta=0.05,
            method=BoundMethod.HOEFFDING,
        )
        # sqrt(ln 20 / 2000) per component, composed multiplicatively.
        assert cert.bounds[0].upper == pytest.approx(0.0387023, abs=1e-6)
        assert cert.total_upper == pytest.approx(0.1116712, abs=1e-6)
        assert lower_bound_score(cert, 10.0) == pytest.approx(0.7365910, abs=1e-6)

    def test_retrieval_only_gets_synthetic_zero_bounds(self):
        cert = certify(
            self._pipeline(PipelineKind.RETRIEVAL_ONLY),
            {"retrieval": loss_records([0.0] * 50)},
            measured_cost=5.9,
            delta=0.05,
        )
        _, gen, ver = cert.bounds
        assert gen.upper == 0.0
        assert gen.synthetic
        assert ver.upper == 0.0

    def test_smaller_delta_widens_total_upper(self):
        loose = certify(
            self._pipeline(), self._zero_sets(), 2.06, delta=0.05,
            method=BoundMethod.HOEFFDING,
        )
        tight = certify(
            self._pipeline(), self._zero_sets(), 2.06, delta=0.01,
            method=BoundMethod.HOEFFDING,
        )
        assert tight.total_upper > loose.total_upper

    def test_missing_component_refused(self):
        sets = self._zero_sets()
        del sets["verification"]
        with pytest.raises(CertificationRefusedError, match="verification"):
            certify(self._pipeline(), sets, 2.06, delta=0.05)

    def test_wilson_needs_binary_losses(self):
        sets = self._zero_sets(10)
        sets["retrieval"] = loss_records([0.5] * 10)
        with pytest.raises(ValueError, match="Wilson"):
            certify(self._pipeline(), sets, 2.06, delta=0.05, method=BoundMethod.WILSON)
        certify(self._pipeline(), sets, 2.06, delta=0.05, method=BoundMethod.HOEFFDING)

    def test_wilson_tighter_than_hoeffding_at_zero_error(self):
        wilson = certify(self._pipeline(), self._zero_sets(), 2.06, 0.05)
        hoeff = certify(
            self._pipeline(), self._zero_sets(), 2.06, 0.05, method=BoundMethod.HOEFFDING
        )
        assert wilson.total_upper < hoeff.total_upper

    def test_total_upper_at_least_each_component(self):
        sets = {
            "retrieval": loss_records([0, 0, 1, 0] * 25),
            "generation": loss_records([0, 1] * 50),
            "verification": loss_records([0] * 100),
        }
        cert = certify(self._pipeline(), sets, 2.06, delta=0.05)
        for bound in cert.bounds:
            assert cert.total_upper >= bound.upper

    @given(
        st.lists(st.tuples(st.integers(1, 60), st.integers(0, 60)), min_size=3, max_size=3),
        st.sampled_from(list(BoundMethod)),
    )
    def test_total_upper_bit_identical_to_the_written_out_product(self, counts, method):
        sets = {
            slot: loss_records([1.0] * min(k, n) + [0.0] * (n - min(k, n)))
            for slot, (n, k) in zip(("retrieval", "generation", "verification"), counts)
        }
        cert = certify(self._pipeline(), sets, 2.06, delta=0.05, method=method)
        r, g, v = (bound.upper for bound in cert.bounds)
        assert cert.total_upper == 1.0 - ((1.0 - r) * (1.0 - g) * (1.0 - v))

    def test_union_delta_recorded(self):
        cert = certify(self._pipeline(), self._zero_sets(), 2.06, delta=0.05)
        assert cert.union_delta == pytest.approx(0.15)


class TestPlugInAndLowerBound:
    def test_zero_upper_passes(self):
        assert plug_in_test(make_cert(0.0, 2.06), 0.7, 10.0) is True

    def test_total_upper_one_fails(self):
        assert plug_in_test(make_cert(1.0, 2.06), 0.01, 10.0) is False

    def test_marginal_upper_fails(self):
        # 0.8292 * 0.80 = 0.663 < 0.7
        assert plug_in_test(make_cert(0.20, 2.06), 0.7, 10.0) is False

    def test_plug_in_literally_matches_lower_bound(self):
        rng = random.Random(31)
        for _ in range(200):
            cert = make_cert(rng.random(), rng.uniform(0, 20))
            theta = rng.uniform(0.05, 0.95)
            assert plug_in_test(cert, theta, 10.0) == (
                lower_bound_score(cert, 10.0) >= theta
            )

    def test_lower_bound_perfect(self):
        assert lower_bound_score(make_cert(0.0, 0.0), 10.0) == 1.0

    def test_lower_bound_certified_example(self):
        cert = make_cert(0.1116712, 2.06)
        assert lower_bound_score(cert, 10.0) == pytest.approx(0.7365910, abs=1e-6)

    def test_monotone_in_total_upper(self):
        uppers = [0.0, 0.1, 0.3, 0.7, 1.0]
        scores = [lower_bound_score(make_cert(u, 2.06), 10.0) for u in uppers]
        assert scores == sorted(scores, reverse=True)


class TestLowerBoundCapacity:
    def _docket(self, weights):
        props = tuple(
            Proposition(id=f"phi{i}", salience_weight=w, threshold=0.7)
            for i, w in enumerate(weights)
        )
        return Docket(propositions=props, pipeline_sets={})

    def test_all_certified(self):
        docket = self._docket([1.0, 1.0])
        certs = {"phi0": [make_cert(0.0, 2.0)], "phi1": [make_cert(0.05, 1.0)]}
        assert lower_bound_capacity(docket, certs, POLICY) == 1.0

    def test_no_certificates(self):
        docket = self._docket([1.0, 1.0])
        assert lower_bound_capacity(docket, {}, POLICY) == 0.0

    def test_half_certified(self):
        # s_lb values 0.71 and 0.65 against threshold 0.7.
        docket = self._docket([1.0, 1.0])
        certs = {
            "phi0": [make_cert(1.0 - 0.71 / (1 / 1.2), 2.0)],
            "phi1": [make_cert(1.0 - 0.65 / (1 / 1.2), 2.0)],
        }
        assert lower_bound_capacity(docket, certs, POLICY) == 0.5

    def test_zero_weight_rejected(self):
        docket = self._docket([0.0])
        with pytest.raises(ValueError):
            lower_bound_capacity(docket, {}, POLICY)


class TestCertificateConservatism:
    def test_lower_bound_rarely_exceeds_truth(self):
        # Certified lower-bound score must stay below the true score in at
        # least a 1 - 3*delta share of seeded trials.
        rng = np.random.default_rng(404)
        delta = 0.05
        trials, n = 400, 80
        true = ComponentErrors(retrieval=0.08, generation=0.05, verification=0.1)
        spec = PipelineSpec(
            id="true", kind=PipelineKind.FULL, expected_cost=2.0, errors=true
        )
        true_score = pipeline_score(spec, POLICY)
        ok = 0
        for _ in range(trials):
            sets = {
                "retrieval": loss_records(rng.binomial(1, true.retrieval, n).tolist()),
                "generation": loss_records(rng.binomial(1, true.generation, n).tolist()),
                "verification": loss_records(rng.binomial(1, true.verification, n).tolist()),
            }
            cert = certify(spec, sets, measured_cost=2.0, delta=delta)
            if lower_bound_score(cert, POLICY.tau_star) <= true_score:
                ok += 1
        assert ok / trials >= 1.0 - 3.0 * delta
