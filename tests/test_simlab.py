"""Tests for the corpus, searches, verifier, and experiment runners."""

import dataclasses
import math
import re
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epistemic_ledger.artifacts import InputError
from epistemic_ledger.doctrine import Verdict
from epistemic_ledger.metrics import Docket, capacity_index, efficiency, org_score
from epistemic_ledger.simlab import (
    LEGACY,
    MODERN,
    SimScenario,
    company_capacity,
    default_scenario,
    embed,
    export_corpus,
    generate_corpus,
    keyword_search,
    load_scenario,
    monte_carlo,
    parse_scenario,
    run_docket,
    scalability_sweep,
    semantic_search,
    sensitivity_sweep,
    simulated_verifier,
)
from epistemic_ledger.simlab import corpus as corpus_module
from epistemic_ledger.simlab import runner, search
from epistemic_ledger.simlab.corpus import (
    Corpus,
    Document,
    EMBED_DIM,
    TAG_DISTRACTOR,
    TAG_EUPHEMISM,
    TAG_LITERAL,
    _DISTRACTOR_TOPICS,
    _EUPHEMISM_TEMPLATE,
    _FILLER_WORDS,
    _GENERIC_EUPHEMISMS,
    _LITERAL_TEMPLATE,
    _STOPWORDS,
    _draws,
    _token_index,
    token_text,
    tokenize,
)

SCENARIO = default_scenario()
SYNONYMS = SCENARIO.synonym_table()


def pipeline_spec(row):
    """The spec a run row was scored by."""
    return runner._pipeline_spec(row.company, row.task_id, row.simulated_time, row.eps_ret, row.eps_ver)


class TestCorpus:
    def test_default_size(self):
        corpus = generate_corpus(SCENARIO, seed=42)
        assert len(corpus) == 62

    def test_every_task_has_ground_truth(self):
        corpus = generate_corpus(SCENARIO, seed=42)
        for task in SCENARIO.tasks:
            assert len(corpus.ground_truth_ids(task.id)) == 2

    def test_euphemism_task_ground_truth_tagged_euphemism_only(self):
        corpus = generate_corpus(SCENARIO, seed=42)
        for task in SCENARIO.tasks:
            for doc_id in corpus.ground_truth_ids(task.id):
                doc = next(d for d in corpus.documents if d.id == doc_id)
                if task.ground_truth == "euphemism":
                    assert TAG_EUPHEMISM in doc.tags and TAG_LITERAL not in doc.tags
                else:
                    assert TAG_LITERAL in doc.tags

    def test_deterministic(self):
        assert generate_corpus(SCENARIO, seed=42) == generate_corpus(SCENARIO, seed=42)
        assert generate_corpus(SCENARIO, seed=42) != generate_corpus(SCENARIO, seed=43)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="ground-truth"):
            generate_corpus(dataclasses.replace(SCENARIO, corpus_size=5), seed=42)

    def test_export_format(self):
        corpus = generate_corpus(SCENARIO, seed=42)
        lines = export_corpus(corpus).strip().split("\n")
        assert len(lines) == 62
        assert all(len(line.split("\t")) == 4 for line in lines)


def _reference_corpus(scenario, seed):
    """The corpus as drawn through ``np.random.Generator``, one document at a time."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    docs = []
    for task in scenario.tasks:
        for j in range(scenario.ground_truth_per_task):
            doc_id = f"doc-{len(docs):04d}"
            if task.ground_truth == "literal":
                phrase = task.literal_phrases[j % len(task.literal_phrases)]
                text = _LITERAL_TEMPLATE.format(num=doc_id[-4:], phrase=phrase)
                tags = frozenset({TAG_LITERAL})
            else:
                phrase = task.euphemism_phrases[j % len(task.euphemism_phrases)]
                text = _EUPHEMISM_TEMPLATE.format(num=doc_id[-4:], phrase=phrase)
                tags = frozenset({TAG_EUPHEMISM})
            docs.append(Document(doc_id, text, tags, frozenset({task.id})))
    n_distractors = scenario.corpus_size - len(docs)
    n_euphemistic = int(round(scenario.euphemism_ratio * n_distractors))
    for j in range(n_distractors):
        doc_id = f"doc-{len(docs):04d}"
        topic = _DISTRACTOR_TOPICS[int(rng.integers(len(_DISTRACTOR_TOPICS)))]
        fillers = rng.choice(len(_FILLER_WORDS), size=2, replace=False)
        text = topic.format(num=doc_id[-4:]) + " reference tag {} {}.".format(
            _FILLER_WORDS[int(fillers[0])], _FILLER_WORDS[int(fillers[1])]
        )
        tags = {TAG_DISTRACTOR}
        if j < n_euphemistic:
            softener = _GENERIC_EUPHEMISMS[j % len(_GENERIC_EUPHEMISMS)]
            text += f" filed under the {softener}."
            tags.add(TAG_EUPHEMISM)
        docs.append(Document(doc_id, text, frozenset(tags), frozenset()))
    return Corpus(tuple(docs))


def _corpus_bits(seed):
    return np.random.PCG64(np.random.SeedSequence([seed, 101]))


def _filler_pairs(draws):
    """The two distinct filler indices of each ``(9, 10, 2)`` draw triple, as ``generate_corpus`` makes them."""
    pairs = []
    for first, second, swap in np.reshape(draws, (-1, 3)).tolist():
        if second == first:
            second = 9
        pairs.append([second, first] if swap == 0 else [first, second])
    return pairs


def _words(bits):
    """The bit generator's 32-bit words, one raw word at a time: its low half, then its high half."""
    while True:
        raw = int(bits.random_raw())
        yield raw & 0xFFFFFFFF
        yield raw >> 32


def _scalar_lemire(bits, bounds):
    """Lemire's bounded integers, one word at a time in Python ints: (draws, words read)."""
    words, draws, read = _words(bits), [], 0
    for k in bounds:
        while True:
            product = next(words) * k
            read += 1
            if product & 0xFFFFFFFF >= (2**32 - k) % k:
                draws.append(product >> 32)
                break
    return draws, read


class _LeadingZeroWord:
    """A bit generator whose 32-bit words are 0, then those of ``PCG64(seed)``."""

    def __init__(self, seed):
        self._bits = np.random.PCG64(seed)
        self._high = np.zeros(1, np.uint64)

    def random_raw(self, size):
        raw = self._bits.random_raw(size)
        # Shifted by one word: a raw word is the last one's high half, then this one's low half.
        shifted = (raw << np.uint64(32)) | np.concatenate((self._high, raw[:-1] >> np.uint64(32)))
        self._high = raw[-1:] >> np.uint64(32)
        return shifted


class TestDistractorDraws:
    """``_draws`` on PCG64's 32-bit words is NumPy's ``integers`` and ``choice``."""

    def test_first_draws_are_pinned(self):
        draws = _draws(_corpus_bits(20), (8, 9, 10, 2) * 4).tolist()
        assert draws == [0, 7, 8, 1, 6, 7, 1, 1, 1, 2, 2, 0, 7, 5, 1, 0]

    @pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 10])
    def test_draw_is_generator_integers(self, k):
        for seed in range(200):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
            assert _draws(_corpus_bits(seed), [k] * 2000).tolist() == rng.integers(k, size=2000).tolist()

    def test_floyd_pair_is_generator_choice(self):
        for seed in range(200):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
            pairs = _filler_pairs(_draws(_corpus_bits(seed), (9, 10, 2) * 2000))
            assert pairs == [rng.choice(10, size=2, replace=False).tolist() for _ in range(2000)]

    @staticmethod
    def _after_a_zero_word(seed):
        """A Generator whose next 32-bit word is 0, and a bit generator whose words ``_draws`` reads for it.

        A word of 0 is biased for k = 9 and 10, whose thresholds (2**32 - k) % k
        are 4 and 6, so NumPy rejects it; a seeded stream almost never holds one.
        """
        bits = np.random.PCG64(seed)
        bits.state = {**bits.state, "has_uint32": 1, "uinteger": 0}
        return np.random.Generator(bits), _LeadingZeroWord(seed)

    @pytest.mark.parametrize("k", [9, 10])
    def test_rejected_word_is_skipped_as_integers_skips_it(self, k):
        rng, bits = self._after_a_zero_word(7)
        assert _draws(bits, [k] * 50).tolist() == rng.integers(k, size=50).tolist()

    def test_rejected_word_is_skipped_as_choice_skips_it(self):
        rng, bits = self._after_a_zero_word(7)
        pairs = _filler_pairs(_draws(bits, (9, 10, 2) * 50))
        assert pairs == [rng.choice(10, size=2, replace=False).tolist() for _ in range(50)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", [2**31 + 1, 2**31 + 3, 3 * 2**30])
    def test_bounds_that_reject_words_equal_the_scalar_reference(self, k, seed):
        # For k just over 2**31 about half the words are rejected; for 3 * 2**30, a quarter.
        bounds = [k, 8, k, 9] * 250
        draws, read = _scalar_lemire(_corpus_bits(seed), bounds)
        assert read > len(bounds) * 1.1
        assert _draws(_corpus_bits(seed), bounds).tolist() == draws

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0),
        bounds=st.lists(
            st.one_of(st.integers(2**31 - 2**10, 2**31 + 2**10), st.integers(1, 2**32)), max_size=300
        ),
    )
    def test_any_bounds_equal_the_scalar_reference(self, seed, bounds):
        assert _draws(_corpus_bits(seed), bounds).tolist() == _scalar_lemire(_corpus_bits(seed), bounds)[0]

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0),
        size=st.integers(min_value=SCENARIO.min_corpus_size(), max_value=300),
        ratio=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_corpus_equals_the_generator_reference(self, seed, size, ratio):
        scenario = dataclasses.replace(SCENARIO, corpus_size=size, euphemism_ratio=ratio)
        assert generate_corpus(scenario, seed).documents == _reference_corpus(scenario, seed).documents

    def test_ids_past_9999_wrap_to_four_digits_in_the_text_as_in_the_reference(self):
        scenario = dataclasses.replace(SCENARIO, corpus_size=10_050)
        documents = generate_corpus(scenario, 3).documents
        assert documents == _reference_corpus(scenario, 3).documents
        assert documents[10_001].id == "doc-10001" and " 0001: " in documents[10_001].text


def _reference_embed(text, synonyms=None):
    """The dense hashed bag-of-tokens unit vector, built token by token."""
    if not text or not text.strip():
        raise ValueError("cannot embed empty text")
    tokens = tokenize(text)
    if synonyms:
        padded = token_text(text)
        for phrase, concept_tokens in synonyms.items():
            needle = token_text(phrase)
            if needle.strip() and needle in padded:
                tokens.extend(concept_tokens)
    vector = np.zeros(EMBED_DIM, dtype=np.float64)
    for token in tokens:
        vector[_token_index(token)] += 1.0
    norm = float(np.linalg.norm(vector))
    if norm == 0.0:
        raise ValueError(f"text has no indexable tokens: {text!r}")
    return vector / norm


def _embedding_or_error(embed_fn, text, synonyms):
    """The embedding's bytes, or the text of the ``ValueError`` it raises."""
    try:
        return embed_fn(text, synonyms).tobytes()
    except ValueError as error:
        return str(error)


LIST_SYNONYMS = {phrase: list(concepts) for phrase, concepts in SYNONYMS.items()}
SCENARIO_WORDS = sorted(
    {
        word
        for task in SCENARIO.tasks
        for text in (task.concept_query, *task.keywords, *task.literal_phrases, *task.euphemism_phrases)
        for word in text.split()
    }
    | set(_FILLER_WORDS)
    | set(" ".join(_GENERIC_EUPHEMISMS).split())
)


class TestEmbed:
    def test_identical_text_identical_vector(self):
        a = embed("the quarterly report was filed", SYNONYMS)
        b = embed("the quarterly report was filed", SYNONYMS)
        assert float(a @ b) == pytest.approx(1.0, abs=1e-12)

    def test_euphemism_maps_to_concept(self):
        sim = float(embed("market harmony", SYNONYMS) @ embed("price fixing", SYNONYMS))
        assert sim > 0.2

    def test_synonym_phrases_match_whole_tokens(self):
        (task,) = [t for t in SCENARIO.tasks if t.id == "regional_pricing"]
        query = embed(task.concept_query, SYNONYMS)
        assert float(embed("supermarket harmonyx memo", SYNONYMS) @ query) == 0.0
        assert float(embed("market harmony memo", SYNONYMS) @ query) > 0.2

    def test_disjoint_vocabulary_is_orthogonal(self):
        sim = float(embed("granite willow copper") @ embed("orchid maple fern"))
        assert sim == 0.0

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            embed("   ")

    @settings(max_examples=100, deadline=None)
    @given(
        pieces=st.lists(
            st.sampled_from(
                SCENARIO_WORDS + sorted(_STOPWORDS) + sorted(SYNONYMS) + ["!", "--", ",", "?.", "", " ", "\t", "\n"]
            ),
            max_size=8,
        ),
        synonyms=st.sampled_from([None, {}, SYNONYMS, LIST_SYNONYMS]),
    )
    def test_embed_equals_the_reference(self, pieces, synonyms):
        text = " ".join(pieces)
        assert _embedding_or_error(embed, text, synonyms) == _embedding_or_error(_reference_embed, text, synonyms)

    def test_synonym_values_may_be_lists_or_tuples(self):
        assert embed("market harmony memo", LIST_SYNONYMS).tobytes() == embed("market harmony memo", SYNONYMS).tobytes()
        corpus = generate_corpus(SCENARIO, seed=42)
        for task in SCENARIO.tasks:
            hits = [semantic_search(corpus, task.concept_query, SCENARIO, table)[0] for table in (LIST_SYNONYMS, SYNONYMS)]
            assert hits[0] == hits[1]

    def test_a_string_synonym_value_is_refused_naming_its_phrase(self):
        table = {**SYNONYMS, "market harmony": "price"}
        corpus = generate_corpus(SCENARIO, seed=42)
        searches = [
            lambda: embed("market harmony memo", table),
            lambda: semantic_search(corpus, "price fixing", SCENARIO, table),
        ]
        for search_with_table in searches:
            with pytest.raises(ValueError, match="synonym phrase 'market harmony' maps to the string 'price'"):
                search_with_table()


class TestKeywordSearch:
    CORPUS = generate_corpus(SCENARIO, seed=42)

    def test_literal_keywords_hit_ground_truth(self):
        task = SCENARIO.tasks[0]  # literal ground truth
        hits, cost = keyword_search(self.CORPUS, task.keywords, SCENARIO)
        assert self.CORPUS.ground_truth_ids(task.id) <= set(hits)
        assert cost == pytest.approx(SCENARIO.c_per_doc * 62)

    def test_euphemistic_ground_truth_missed(self):
        task = SCENARIO.tasks[2]  # regional_pricing, euphemism ground truth
        hits, _ = keyword_search(self.CORPUS, task.keywords, SCENARIO)
        assert not (self.CORPUS.ground_truth_ids(task.id) & set(hits))

    def test_empty_keywords_rejected(self):
        with pytest.raises(ValueError):
            keyword_search(self.CORPUS, [], SCENARIO)

    def test_phrase_must_match_contiguously(self):
        # "rate failure" reverses the phrase tokens; nothing should match it
        # even though both words appear in the ground-truth documents.
        hits, _ = keyword_search(self.CORPUS, ["rate failure"], SCENARIO)
        assert hits == ()


class TestSemanticSearch:
    CORPUS = generate_corpus(SCENARIO, seed=42)

    def test_finds_ground_truth_for_every_task(self):
        for task in SCENARIO.tasks:
            hits, cost = semantic_search(self.CORPUS, task.concept_query, SCENARIO, SYNONYMS)
            assert self.CORPUS.ground_truth_ids(task.id) <= set(hits)
            assert cost == pytest.approx(SCENARIO.modern_a + SCENARIO.modern_b * math.log(62))

    def test_k_equal_corpus_returns_all(self):
        hits, _ = semantic_search(self.CORPUS, "anything at all", dataclasses.replace(SCENARIO, retrieval_k=62), SYNONYMS)
        assert len(hits) == 62

    def test_k_above_corpus_clamped(self):
        hits, _ = semantic_search(self.CORPUS, "anything at all", dataclasses.replace(SCENARIO, retrieval_k=500), SYNONYMS)
        assert len(hits) == 62

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            semantic_search(self.CORPUS, "x", dataclasses.replace(SCENARIO, retrieval_k=0), SYNONYMS)


class TestSimulatedVerifier:
    GT = frozenset({"doc-0000"})

    def test_zero_error_returns_truth(self):
        rng = np.random.default_rng(1)
        verdict = simulated_verifier(["doc-0000"], self.GT, Verdict.REFUTED, 0.0, rng)
        assert verdict is Verdict.REFUTED

    def test_certain_error_always_wrong(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            verdict = simulated_verifier(
                ["doc-0000"], self.GT, Verdict.ESTABLISHED, 1.0, rng
            )
            assert verdict is Verdict.REFUTED

    def test_missing_ground_truth_is_inconclusive(self):
        rng = np.random.default_rng(1)
        verdict = simulated_verifier(["doc-0099"], self.GT, Verdict.ESTABLISHED, 0.0, rng)
        assert verdict is Verdict.INCONCLUSIVE

    def test_error_frequency(self):
        rng = np.random.default_rng(7)
        trials = 10_000
        wrong = sum(
            simulated_verifier(["doc-0000"], self.GT, Verdict.ESTABLISHED, 0.3, rng)
            is Verdict.REFUTED
            for _ in range(trials)
        )
        assert wrong / trials == pytest.approx(0.3, abs=0.01)


class TestRunDocket:
    ROWS = run_docket(SCENARIO)

    def test_eight_rows(self):
        assert len(self.ROWS) == 8

    def test_errors_are_binary(self):
        for row in self.ROWS:
            assert row.eps_ret in (0.0, 1.0)
            assert row.eps_ver in (0.0, 1.0)
            assert row.eps_tot in (0.0, 1.0)

    def test_modern_retrieves_everything(self):
        assert all(r.eps_ret == 0.0 for r in self.ROWS if r.company == MODERN)

    def test_legacy_misses_exactly_the_euphemism_tasks(self):
        euphemistic = {t.id for t in SCENARIO.tasks if t.ground_truth == "euphemism"}
        for row in self.ROWS:
            if row.company == LEGACY:
                assert row.eps_ret == (1.0 if row.task_id in euphemistic else 0.0)

    def test_scores_delegate_to_pipeline_scorer(self):
        for row in self.ROWS:
            expected = efficiency(row.simulated_time, SCENARIO.policy.tau_star) * (
                1.0 - row.eps_tot
            )
            assert row.score == pytest.approx(expected, abs=1e-12)

    def test_deterministic(self):
        assert run_docket(SCENARIO) == self.ROWS

    @pytest.mark.parametrize(
        "scenario",
        [SCENARIO, dataclasses.replace(SCENARIO, c_per_doc=0.0371, modern_b=1.25)],
        ids=["packaged", "edited-costs"],
    )
    def test_each_time_is_the_scenarios_cost_model(self, scenario):
        # The docket's times come from the same two cost models as the sweeps.
        tasks = {task.id: task for task in scenario.tasks}
        n = scenario.corpus_size
        for row in run_docket(scenario):
            task = tasks[row.task_id]
            if row.company == LEGACY:
                assert row.simulated_time == scenario.legacy_cost(n) * task.legacy_time_scale
            else:
                assert row.simulated_time == scenario.modern_cost(n, task.modern_time_scale)

    def test_capacities(self):
        assert company_capacity(SCENARIO, self.ROWS, MODERN) == 1.0
        assert company_capacity(SCENARIO, self.ROWS, LEGACY) == 0.0

    def test_capacity_is_the_index_over_each_runs_org_score(self):
        docket = Docket(tuple(t.proposition_spec() for t in SCENARIO.tasks), {})
        for seed in range(10):
            rows = run_docket(SCENARIO, seed=seed)
            for company in (LEGACY, MODERN):
                scores = {
                    r.task_id: org_score((pipeline_spec(r),), SCENARIO.policy)
                    for r in rows
                    if r.company == company
                }
                assert company_capacity(SCENARIO, rows, company) == capacity_index(docket, scores)

    def test_retrieval_pattern_survives_a_larger_corpus(self):
        # Five times the distractors must not perturb what either search
        # finds; only the simulated times (and so the scores) move.
        import dataclasses

        big = dataclasses.replace(SCENARIO, corpus_size=300)
        rows = run_docket(big)
        euphemistic = {t.id for t in big.tasks if t.ground_truth == "euphemism"}
        for row in rows:
            if row.company == MODERN:
                assert row.eps_ret == 0.0 and row.eps_ver == 0.0
            else:
                assert row.eps_ret == (1.0 if row.task_id in euphemistic else 0.0)
        assert company_capacity(big, rows, MODERN) == 1.0
        assert company_capacity(big, rows, LEGACY) == 0.0


class TestMonteCarlo:
    def test_zero_jitter_collapses(self):
        result = monte_carlo(SCENARIO, runs=3, jitter_sigma=0.0)
        for cell in result.cells:
            assert len(set(cell.scores)) == 1

    def test_jitter_moves_times_but_never_flips_errors(self):
        result = monte_carlo(SCENARIO, runs=10)
        for cell in result.cells:
            if cell.company == MODERN:
                assert all(s > 0.8 for s in cell.scores)
            elif cell.task_id in ("screening_bias", "regional_pricing"):
                assert all(s == 0.0 for s in cell.scores)
            else:
                assert all(0.55 < s < 0.7 for s in cell.scores)

    def test_reproducible(self):
        assert monte_carlo(SCENARIO, runs=5) == monte_carlo(SCENARIO, runs=5)

    def test_runs_validated(self):
        with pytest.raises(ValueError):
            monte_carlo(SCENARIO, runs=0)


class TestScalability:
    def test_shape_of_curves(self):
        points = scalability_sweep(SCENARIO, [60, 200, 1000])
        legacy = [p.legacy_cost for p in points]
        modern = [p.modern_cost for p in points]
        assert legacy == sorted(legacy)
        assert modern == sorted(modern)
        # Legacy grows roughly 16x over this span, modern stays near flat.
        assert legacy[-1] / legacy[0] > 10
        assert modern[-1] / modern[0] < 2

    def test_sizes_must_ascend(self):
        with pytest.raises(ValueError):
            scalability_sweep(SCENARIO, [100, 60])

    def test_sizes_must_be_given(self):
        with pytest.raises(ValueError, match="^scalability_sweep requires at least one size$"):
            scalability_sweep(SCENARIO, [])

    @pytest.mark.parametrize("size", [100.5, 100.0])
    def test_sizes_must_be_integers(self, size):
        with pytest.raises(ValueError, match=f"corpus_size must be an integer, got {size}"):
            scalability_sweep(SCENARIO, [60, size])

    def test_deterministic(self):
        assert scalability_sweep(SCENARIO, [60, 1000]) == scalability_sweep(
            SCENARIO, [60, 1000]
        )


class TestSensitivity:
    def test_zero_error_matches_docket_score(self):
        curve = sensitivity_sweep(SCENARIO, [0.0])
        assert curve.points[0].score == pytest.approx(0.83, abs=0.005)

    def test_half_error_halves_score(self):
        curve = sensitivity_sweep(SCENARIO, [0.0, 0.5])
        assert curve.points[1].score == pytest.approx(0.415, abs=0.01)

    def test_crossing_reported(self):
        grid = [round(0.01 * i, 10) for i in range(51)]
        curve = sensitivity_sweep(SCENARIO, grid)
        assert curve.first_crossing == pytest.approx(0.16)

    def test_grid_validated(self):
        with pytest.raises(ValueError):
            sensitivity_sweep(SCENARIO, [0.2, 1.5])

    def test_grid_must_be_given(self):
        with pytest.raises(ValueError, match="^sensitivity_sweep requires a non-empty grid$"):
            sensitivity_sweep(SCENARIO, [])


class TestScenarioParsing:
    def test_default_scenario_loads(self):
        assert SCENARIO.corpus_size == 62
        assert len(SCENARIO.tasks) == 4
        assert SCENARIO.policy.theta_c == 0.7

    def test_load_by_path(self, tmp_path):
        from importlib import resources

        text = (
            resources.files("epistemic_ledger.simlab")
            .joinpath("data", "appendix_a.scenario")
            .read_text()
        )
        path = tmp_path / "copy.scenario"
        path.write_text(text)
        assert load_scenario(path) == SCENARIO

    def test_unknown_scenario(self):
        with pytest.raises(InputError):
            load_scenario("no_such_scenario")

    def test_malformed_line_reports_position(self):
        with pytest.raises(InputError, match=r"bad\.scenario:2"):
            parse_scenario("seed = 1\nnot a kv line\n", "bad.scenario")

    def test_duplicate_key_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            parse_scenario("seed = 1\nseed = 2\n", "dup.scenario")

    def test_bad_number_reports_line(self):
        text = "seed = 1\n[corpus]\nsize = sixty\n"
        with pytest.raises(InputError, match=r":3"):
            parse_scenario(text, "num.scenario")

    def test_missing_task_key_rejected(self):
        text = "[task.t1]\ndoctrine = x\n"
        with pytest.raises(InputError, match="missing key"):
            parse_scenario(text, "short.scenario")

    def test_truth_vocabulary(self):
        text = (
            "[task.t1]\nproposition = p\ntruth = maybe\nkeywords = k\n"
            "concept_query = q\nground_truth = literal\nliteral_phrases = k\n"
        )
        with pytest.raises(InputError, match="established or refuted"):
            parse_scenario(text, "verdict.scenario")


def _reference_semantic(corpus, query, synonyms):
    """Per-document dot products of dense embeddings, ranked by (-score, id)."""
    q = _reference_embed(query, synonyms)
    scored = sorted((-float(np.dot(q, _reference_embed(d.text, synonyms))), d.id) for d in corpus.documents)
    return tuple(doc_id for _, doc_id in scored)


def _contains_phrase(tokens, phrase):
    """True when the phrase's tokens appear consecutively in the token list."""
    needle = re.findall(r"[a-z0-9]+", phrase.lower())
    if not needle:
        return False
    span = len(needle)
    return any(list(tokens[i : i + span]) == needle for i in range(len(tokens) - span + 1))


def _reference_keyword(corpus, keywords):
    """Documents whose own token list holds any keyword's tokens consecutively."""
    return tuple(
        d.id
        for d in corpus.documents
        if any(_contains_phrase(re.findall(r"[a-z0-9]+", d.text.lower()), kw) for kw in keywords)
    )


class TestCorpusIndex:
    """The cached index ranks and scans exactly as the per-document path."""

    @pytest.mark.parametrize("size", [62, 2000])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_semantic_hits_equal_brute_force(self, seed, size):
        scenario = dataclasses.replace(SCENARIO, corpus_size=size, retrieval_k=size)
        corpus = generate_corpus(scenario, seed=seed)
        for task in SCENARIO.tasks:
            hits, _ = semantic_search(corpus, task.concept_query, scenario, SYNONYMS)
            assert hits == _reference_semantic(corpus, task.concept_query, SYNONYMS)

    @pytest.mark.parametrize(
        "keywords",
        [
            ["FAILURE Rate"],  # mixed case
            ["failure-rate!", "(bid) correlation, audit"],  # punctuation
            ["rate failure"],  # reversed phrase
            ["documented by the operations group"],  # spans stopwords
            ["documented operations"],  # the same phrase with its stopwords left out
            ["ailure rat"],  # token fragments
            ["...", "--"],  # punctuation only: no tokens, so no match
            ["?", "price fixing"],
            *[list(task.keywords) for task in SCENARIO.tasks],
        ],
    )
    def test_keyword_hits_equal_per_document_scan(self, keywords):
        corpus = generate_corpus(dataclasses.replace(SCENARIO, corpus_size=300), seed=3)
        hits, _ = keyword_search(corpus, keywords, SCENARIO)
        assert hits == _reference_keyword(corpus, keywords)

    def test_punctuation_only_keyword_matches_nothing(self):
        # Not even a document that has no tokens either.
        docs = generate_corpus(SCENARIO, seed=42).documents[:3]
        corpus = Corpus(docs + (Document("doc-blank", "!!! --", frozenset(), frozenset()),))
        hits, _ = keyword_search(corpus, ["...", " "], SCENARIO)
        assert hits == _reference_keyword(corpus, ["...", " "]) == ()

    def test_monte_carlo_embeds_each_document_once(self, monkeypatch):
        builds, queries = [], Counter()
        build_rows, embed_query = Corpus._embed_rows, search.embed

        def counting_build(corpus, *args, **kwargs):
            builds.append(len(corpus))
            return build_rows(corpus, *args, **kwargs)

        def counting_embed(text, *args, **kwargs):
            queries[text] += 1
            return embed_query(text, *args, **kwargs)

        monkeypatch.setattr(Corpus, "_embed_rows", counting_build)
        monkeypatch.setattr(search, "embed", counting_embed)
        runs = 3
        monte_carlo(SCENARIO, runs=runs)
        corpus = generate_corpus(SCENARIO, seed=SCENARIO.seed)
        # Each query embeds as a one-document corpus; the scenario's corpus is built once.
        assert [n for n in builds if n > 1] == [len(corpus)]
        assert set(queries) == {task.concept_query for task in SCENARIO.tasks}
        assert sum(queries.values()) == len(SCENARIO.tasks)

    @pytest.mark.parametrize("runs", [1, 5])
    def test_monte_carlo_searches_each_task_once(self, monkeypatch, runs):
        calls = Counter()

        def counting(name, search_fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return search_fn(*args, **kwargs)

            monkeypatch.setattr(runner, name, wrapper)

        counting("keyword_search", runner.keyword_search)
        counting("semantic_search", runner.semantic_search)
        monte_carlo(SCENARIO, runs=runs)
        tasks = len(SCENARIO.tasks)
        assert calls == {"keyword_search": tasks, "semantic_search": tasks}

    def test_searches_return_the_unjittered_cost(self):
        corpus = generate_corpus(SCENARIO, seed=42)
        scenario = dataclasses.replace(SCENARIO, c_per_doc=0.003, modern_a=0.41, modern_b=0.40)
        _, cost = keyword_search(corpus, ["price fixing"], scenario, time_scale=1.7)
        assert cost == 0.003 * len(corpus) * 1.7
        _, cost = semantic_search(corpus, "price fixing", scenario, SYNONYMS, time_scale=0.6)
        assert cost == (0.41 + 0.40 * math.log(len(corpus))) * 0.6

    def test_index_is_kept_per_synonym_table(self):
        corpus = generate_corpus(SCENARIO, seed=42)
        assert corpus.hashed_rows(SYNONYMS) is corpus.hashed_rows(dict(SYNONYMS))
        assert corpus.hashed_rows(None) is corpus.hashed_rows({})
        assert corpus.hashed_rows(None) is not corpus.hashed_rows(SYNONYMS)


def _assert_rows_equal_dense_embeddings(corpus, synonyms):
    """The corpus rows hold exactly the nonzero entries of each document's reference embedding."""
    indices, weights, offsets = [], [], [0]
    for doc in corpus.documents:
        vector = _reference_embed(doc.text, synonyms)
        nonzero = np.flatnonzero(vector)
        indices.extend(nonzero.tolist())
        weights.extend(vector[nonzero].tolist())
        offsets.append(len(indices))
    rows = corpus.hashed_rows(synonyms)
    assert np.array_equal(rows.indices, indices)
    assert np.array_equal(rows.offsets, offsets)
    assert rows.weights.tobytes() == np.array(weights).tobytes()


class TestHashedRows:
    """The one-pass rows are the per-document dense embeddings, bit for bit."""

    @pytest.mark.parametrize("synonyms", [None, SYNONYMS], ids=["plain", "synonyms"])
    @pytest.mark.parametrize("size", [62, 2000])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_rows_equal_dense_embeddings(self, seed, size, synonyms):
        _assert_rows_equal_dense_embeddings(generate_corpus(dataclasses.replace(SCENARIO, corpus_size=size), seed=seed), synonyms)

    def test_repeated_tokens_are_counted(self):
        # "rate" three times, and a synonym phrase whose concept tokens
        # repeat tokens of the text.
        doc = Document("doc-x", "Rate, rate and RATE of the fixing price", frozenset(), frozenset())
        synonyms = {"fixing price": ("price", "fixing", "cartel")}
        _assert_rows_equal_dense_embeddings(Corpus((doc,)), synonyms)

    @pytest.mark.parametrize("text", ["", "   ", "!!! --", "the and of"])
    def test_document_without_tokens_is_rejected_as_embed_rejects_it(self, text):
        docs = generate_corpus(SCENARIO, seed=42).documents[:3]
        corpus = Corpus(docs + (Document("doc-blank", text, frozenset(), frozenset()),))
        with pytest.raises(ValueError) as expected:
            embed(text, SYNONYMS)
        with pytest.raises(ValueError) as raised:
            corpus.hashed_rows(SYNONYMS)
        assert str(raised.value) == str(expected.value)


def _rows_or_error(corpus, synonyms):
    """The rows' arrays as bytes, or the text of the ``ValueError`` the build raises."""
    try:
        rows = corpus.hashed_rows(synonyms)
    except ValueError as error:
        return str(error)
    return rows.indices.tobytes(), rows.weights.tobytes(), rows.offsets.tobytes()


def _reference_rows_or_error(corpus, synonyms):
    """``_rows_or_error`` from each document's reference embedding; the first failing document's error."""
    indices, weights, offsets = [], [], [0]
    for doc in corpus.documents:
        try:
            vector = _reference_embed(doc.text, synonyms)
        except ValueError as error:
            return str(error)
        nonzero = np.flatnonzero(vector)
        indices.extend(nonzero.tolist())
        weights.extend(vector[nonzero].tolist())
        offsets.append(len(indices))
    return (
        np.array(indices, np.intc).tobytes(),
        np.array(weights, np.float64).tobytes(),
        np.array(offsets, np.int64).tobytes(),
    )


def _corpus_of(texts):
    return Corpus(tuple(Document(f"doc-{i:04d}", text, frozenset(), frozenset()) for i, text in enumerate(texts)))


# Text pieces that probe the joined token text: line breaks, punctuation only,
# stopwords only, characters whose lower case is not one ASCII letter ("İ"
# lowers to "i" and a combining dot; the Kelvin sign lowers to "k"; "Σ" lowers
# by its context; "ß" stays one non-ASCII letter), control and separator
# characters that str.splitlines breaks at, and a lone surrogate.
TRICKY_PIECES = SCENARIO_WORDS[:40] + sorted(_STOPWORDS)[:8] + sorted(SYNONYMS) + [
    "\n", "\n\n", "!", "--", "?.", " ", "\t", "İ", "\u212a", "\u212aelvin", "İnternal", "k", "i",
    "Σ", "ß", "\r", "\x0b", "\x1c", "\x85", "\u2028", "\ud800",
]
TRICKY_TEXTS = st.lists(st.sampled_from(TRICKY_PIECES), max_size=8).map(" ".join) | st.lists(
    st.sampled_from(TRICKY_PIECES), max_size=8
).map("".join)


def _reference_token_text(text):
    """The token text by the per-document regex rule: the ``[a-z0-9]+`` runs of the lower-cased text."""
    return f" {' '.join(re.findall('[a-z0-9]+', text.lower()))} "


class TestTokenText:
    """The one-pass byte-table tokeniser is the per-document regex rule."""

    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(TRICKY_TEXTS | st.text(st.characters(exclude_categories=())), max_size=6))
    def test_token_text_tokenize_and_the_corpus_text_equal_the_regex_rule(self, texts):
        expected = [_reference_token_text(text) for text in texts]
        assert [token_text(text) for text in texts] == expected
        assert [tokenize(text) for text in texts] == [
            [t for t in padded.split() if t not in _STOPWORDS] for padded in expected
        ]
        text, starts = _corpus_of(texts)._token_text
        assert text == "\n".join(expected)
        assert starts.tolist() == list(accumulate((len(padded) + 1 for padded in expected), initial=0))


class TestJoinedTokenText:
    """Phrase scans of the one joined token text are the per-document scans."""

    @settings(max_examples=150, deadline=None)
    @given(
        texts=st.lists(TRICKY_TEXTS, max_size=6),
        keywords=st.lists(TRICKY_TEXTS, min_size=1, max_size=3),
        synonyms=st.sampled_from([None, SYNONYMS, {"k i": ("kelvin",), "internal memo": ("the", "memo")}]),
    )
    def test_scans_and_rows_equal_the_per_document_references(self, texts, keywords, synonyms):
        corpus = _corpus_of(texts)
        hits, _ = keyword_search(corpus, keywords, SCENARIO)
        assert hits == _reference_keyword(corpus, keywords)
        assert _rows_or_error(corpus, synonyms) == _reference_rows_or_error(corpus, synonyms)

    def test_a_phrase_across_two_documents_hits_neither(self):
        corpus = _corpus_of(["records show price", "fixing across regions", "price fixing"])
        assert keyword_search(corpus, ["price fixing"], SCENARIO)[0] == ("doc-0002",)
        assert keyword_search(corpus, ["show price fixing across"], SCENARIO)[0] == ()
        synonyms = {"price fixing": ("cartel",)}
        assert corpus.rows_containing("price fixing") == [2]
        _assert_rows_equal_dense_embeddings(corpus, synonyms)

    def test_a_phrase_twice_in_a_document_names_its_row_once(self):
        corpus = _corpus_of(["market harmony memo", "market harmony and market harmony", "memo"])
        assert corpus.rows_containing("Market, harmony!") == [0, 1]
        _assert_rows_equal_dense_embeddings(corpus, SYNONYMS)

    def test_a_phrase_at_the_first_token_of_a_document_is_in_that_row(self):
        corpus = _corpus_of(["alpha beta", "beta gamma", "gamma beta"])
        assert corpus.rows_containing("beta") == [0, 1, 2]
        assert corpus.rows_containing("gamma") == [1, 2]

    def test_the_first_of_two_documents_without_tokens_is_named(self):
        corpus = _corpus_of(["price memo", "!!! --", "fixing memo", "the and of"])
        with pytest.raises(ValueError, match=re.escape("text has no indexable tokens: '!!! --'")):
            corpus.hashed_rows(None)

    def test_cells_past_int32_are_int64(self, monkeypatch):
        # 1,100 rows of 2**21 buckets: cell ids pass 2**31 in the whole corpus,
        # and fit int32 in each one-document corpus.
        monkeypatch.setattr(corpus_module, "EMBED_DIM", 2**21)
        docs = generate_corpus(dataclasses.replace(SCENARIO, corpus_size=1100), seed=1).documents
        rows = Corpus(docs).hashed_rows(SYNONYMS)
        singles = [Corpus((doc,)).hashed_rows(SYNONYMS) for doc in docs]
        assert rows.indices.max() >= 2**20
        assert np.array_equal(rows.indices, np.concatenate([r.indices for r in singles]))
        assert rows.weights.tobytes() == np.concatenate([r.weights for r in singles]).tobytes()
