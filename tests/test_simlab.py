"""Tests for the corpus, searches, verifier, and experiment runners."""

import dataclasses
import itertools
import math
import re
from collections import Counter

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
from epistemic_ledger.simlab import runner, search
from epistemic_ledger.simlab.corpus import (
    Corpus,
    Document,
    TAG_DISTRACTOR,
    TAG_EUPHEMISM,
    TAG_LITERAL,
    _DISTRACTOR_TOPICS,
    _EUPHEMISM_TEMPLATE,
    _FILLER_WORDS,
    _GENERIC_EUPHEMISMS,
    _LITERAL_TEMPLATE,
    _draw,
    _uint32s,
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


def _corpus_words(seed):
    return _uint32s(np.random.PCG64(np.random.SeedSequence([seed, 101])))


def _filler_pair(halves):
    """The two distinct filler indices a distractor draws, as ``generate_corpus`` draws them."""
    first, second = _draw(halves, 9), _draw(halves, 10)
    if second == first:
        second = 9
    return [second, first] if _draw(halves, 2) == 0 else [first, second]


class TestDistractorDraws:
    """``_draw`` on PCG64's 32-bit words is NumPy's ``integers`` and ``choice``."""

    def test_first_draws_are_pinned(self):
        halves = _corpus_words(20)
        draws = [_draw(halves, k) for k in (8, 9, 10, 2) * 4]
        assert draws == [0, 7, 8, 1, 6, 7, 1, 1, 1, 2, 2, 0, 7, 5, 1, 0]

    @pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 10])
    def test_draw_is_generator_integers(self, k):
        for seed in range(200):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
            halves = _corpus_words(seed)
            assert [_draw(halves, k) for _ in range(2000)] == rng.integers(k, size=2000).tolist()

    def test_floyd_pair_is_generator_choice(self):
        for seed in range(200):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
            halves = _corpus_words(seed)
            for _ in range(2000):
                assert _filler_pair(halves) == rng.choice(10, size=2, replace=False).tolist()

    @staticmethod
    def _after_a_zero_word(seed):
        """A Generator whose next 32-bit word is 0, and the words ``_draw`` reads for it.

        A word of 0 is biased for k = 9 and 10, whose thresholds (2**32 - k) % k
        are 4 and 6, so NumPy rejects it; a seeded stream almost never holds one.
        """
        bits = np.random.PCG64(seed)
        bits.state = {**bits.state, "has_uint32": 1, "uinteger": 0}
        return np.random.Generator(bits), itertools.chain([0], _uint32s(np.random.PCG64(seed)))

    @pytest.mark.parametrize("k", [9, 10])
    def test_rejected_word_is_skipped_as_integers_skips_it(self, k):
        rng, halves = self._after_a_zero_word(7)
        assert [_draw(halves, k) for _ in range(50)] == rng.integers(k, size=50).tolist()

    def test_rejected_word_is_skipped_as_choice_skips_it(self):
        rng, halves = self._after_a_zero_word(7)
        for _ in range(50):
            assert _filler_pair(halves) == rng.choice(10, size=2, replace=False).tolist()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0),
        size=st.integers(min_value=SCENARIO.min_corpus_size(), max_value=300),
        ratio=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_corpus_equals_the_generator_reference(self, seed, size, ratio):
        scenario = dataclasses.replace(SCENARIO, corpus_size=size, euphemism_ratio=ratio)
        assert generate_corpus(scenario, seed).documents == _reference_corpus(scenario, seed).documents


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


class TestKeywordSearch:
    CORPUS = generate_corpus(SCENARIO, seed=42)

    def test_literal_keywords_hit_ground_truth(self):
        task = SCENARIO.tasks[0]  # literal ground truth
        hits, cost = keyword_search(self.CORPUS, task.keywords, SCENARIO.c_per_doc)
        assert self.CORPUS.ground_truth_ids(task.id) <= set(hits)
        assert cost == pytest.approx(SCENARIO.c_per_doc * 62)

    def test_euphemistic_ground_truth_missed(self):
        task = SCENARIO.tasks[2]  # regional_pricing, euphemism ground truth
        hits, _ = keyword_search(self.CORPUS, task.keywords, SCENARIO.c_per_doc)
        assert not (self.CORPUS.ground_truth_ids(task.id) & set(hits))

    def test_empty_keywords_rejected(self):
        with pytest.raises(ValueError):
            keyword_search(self.CORPUS, [], SCENARIO.c_per_doc)

    def test_phrase_must_match_contiguously(self):
        # "rate failure" reverses the phrase tokens; nothing should match it
        # even though both words appear in the ground-truth documents.
        hits, _ = keyword_search(self.CORPUS, ["rate failure"], SCENARIO.c_per_doc)
        assert hits == ()


class TestSemanticSearch:
    CORPUS = generate_corpus(SCENARIO, seed=42)

    def test_finds_ground_truth_for_every_task(self):
        for task in SCENARIO.tasks:
            hits, cost = semantic_search(
                self.CORPUS,
                task.concept_query,
                SCENARIO.retrieval_k,
                SCENARIO.modern_a,
                SCENARIO.modern_b,
                SYNONYMS,
            )
            assert self.CORPUS.ground_truth_ids(task.id) <= set(hits)
            assert cost == pytest.approx(SCENARIO.modern_a + SCENARIO.modern_b * math.log(62))

    def test_k_equal_corpus_returns_all(self):
        hits, _ = semantic_search(
            self.CORPUS, "anything at all", 62, 0.41, 0.40, SYNONYMS
        )
        assert len(hits) == 62

    def test_k_above_corpus_clamped(self):
        hits, _ = semantic_search(
            self.CORPUS, "anything at all", 500, 0.41, 0.40, SYNONYMS
        )
        assert len(hits) == 62

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            semantic_search(self.CORPUS, "x", 0, 0.41, 0.40, SYNONYMS)


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
    q = embed(query, synonyms)
    scored = sorted((-float(np.dot(q, embed(d.text, synonyms))), d.id) for d in corpus.documents)
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
        corpus = generate_corpus(dataclasses.replace(SCENARIO, corpus_size=size), seed=seed)
        for task in SCENARIO.tasks:
            hits, _ = semantic_search(corpus, task.concept_query, size, 0.41, 0.40, SYNONYMS)
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
        hits, _ = keyword_search(corpus, keywords, SCENARIO.c_per_doc)
        assert hits == _reference_keyword(corpus, keywords)

    def test_punctuation_only_keyword_matches_nothing(self):
        # Not even a document that has no tokens either.
        docs = generate_corpus(SCENARIO, seed=42).documents[:3]
        corpus = Corpus(docs + (Document("doc-blank", "!!! --", frozenset(), frozenset()),))
        hits, _ = keyword_search(corpus, ["...", " "], SCENARIO.c_per_doc)
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
        assert builds == [len(corpus)]
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
        _, cost = keyword_search(corpus, ["price fixing"], 0.003, time_scale=1.7)
        assert cost == 0.003 * len(corpus) * 1.7
        _, cost = semantic_search(corpus, "price fixing", 5, 0.41, 0.40, SYNONYMS, time_scale=0.6)
        assert cost == (0.41 + 0.40 * math.log(len(corpus))) * 0.6

    def test_index_is_kept_per_synonym_table(self):
        corpus = generate_corpus(SCENARIO, seed=42)
        assert corpus.hashed_rows(SYNONYMS) is corpus.hashed_rows(dict(SYNONYMS))
        assert corpus.hashed_rows(None) is corpus.hashed_rows({})
        assert corpus.hashed_rows(None) is not corpus.hashed_rows(SYNONYMS)


def _assert_rows_equal_dense_embeddings(corpus, synonyms):
    """The corpus rows hold exactly the nonzero entries of each document's dense ``embed``."""
    indices, weights, offsets = [], [], [0]
    for doc in corpus.documents:
        vector = embed(doc.text, synonyms)
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
