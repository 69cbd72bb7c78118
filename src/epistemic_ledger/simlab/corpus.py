"""Synthetic corporate corpus, the hashed bag-of-tokens embedding, and the
corpus index that every search over one corpus shares.

Documents are template-generated from the scenario's task specs: literal
ground-truth documents carry a task's keyword phrases verbatim, euphemistic
ground-truth documents carry only oblique phrasing, and distractors are
routine operations notes with vocabulary disjoint from every concept query.
The embedding hashes tokens into a fixed-dimension unit vector; an explicit
synonym table expands euphemism phrases into their concept tokens, which is
what lets a conceptual search find what a literal keyword scan misses.

A ``Corpus`` is immutable, so its index is built on first use and kept on
it. Each document is tokenised once per corpus, into its padded token text
(``token_texts``), which the keyword scan tests for phrases. Per synonym
table, one pass over those token texts turns every counted token into a
(document, bucket) cell id, hashing each distinct token once, and one
``np.unique`` over the cells counts them. That gives the embeddings of all
documents as one sparse N x dim hashed design matrix (``HashedRows``, the
feature-hashing view of Weinberger et al., 2009); its product with a query
vector scores every document at once. ``embed`` is the dense form of one
row: it embeds queries, and the rows equal its vectors bit for bit, as the
counts are exact integers and the norm and division round the same way.

Distractors draw from a seeded PCG64's raw words by the rule in
``generate_corpus``, as NumPy fixes bit-generator streams across releases
but not ``Generator``'s algorithms (NEP 19), and a seed keeps its corpus.
"""

from __future__ import annotations

import hashlib
import re
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

if TYPE_CHECKING:  # scenario imports tokenize from here
    from .scenario import SimScenario

EMBED_DIM = 512

TAG_LITERAL = "literal_match"
TAG_EUPHEMISM = "euphemism"
TAG_DISTRACTOR = "distractor"

_STOPWORDS = frozenset(
    "a an and are as at be by for from has have in is it its no not of on or "
    "our the their this to was were with".split()
)
_TOKEN_RE = re.compile(r"[a-z0-9]+")

_LITERAL_TEMPLATE = (
    "internal memo {num}: quarterly review records that {phrase} findings "
    "were documented by the operations group and filed for follow up."
)
_EUPHEMISM_TEMPLATE = (
    "internal memo {num}: leadership summary notes {phrase} across regional "
    "teams this quarter. circulation restricted to senior staff."
)
_DISTRACTOR_TOPICS = (
    "facilities bulletin {num}: elevator maintenance scheduled over the weekend.",
    "cafeteria notice {num}: seasonal menu rotation begins monday morning.",
    "parking services {num}: permit renewal window opens friday afternoon.",
    "helpdesk update {num}: toner cartridges restocked near floor three.",
    "onboarding note {num}: welcome packet templates gained badge guidance.",
    "travel office {num}: reimbursement forms migrate onto the portal soon.",
    "mailroom memo {num}: courier pickup moves earlier during renovations.",
    "library circular {num}: periodical shelving reorganised along east wall.",
)
_GENERIC_EUPHEMISMS = (
    "headcount smoothing initiative",
    "synergy capture program",
    "resource cadence alignment",
)
_FILLER_WORDS = (
    "orchid", "granite", "maple", "willow", "copper",
    "slate", "fern", "cobalt", "amber", "pearl",
)


def tokenize(text: str) -> list[str]:
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in _STOPWORDS]


def token_text(text: str) -> str:
    """The text's lower-case tokens, joined and padded by single spaces.

    A phrase's tokens appear consecutively in a text exactly when the
    phrase's token text is a substring of the text's. A phrase without
    tokens matches no text, but its token text (two spaces) is a substring
    of that of every other text without tokens.
    """
    return f" {' '.join(_TOKEN_RE.findall(text.lower()))} "


def _token_index(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % EMBED_DIM


def embed(text: str, synonyms: Mapping[str, tuple[str, ...]] | None = None) -> np.ndarray:
    """Hashed bag-of-tokens unit vector, with synonym-table expansion.

    Any synonym-table phrase whose tokens appear consecutively in the text
    contributes its mapped concept tokens alongside the text's own tokens.
    Identical text always embeds to the identical vector.
    """
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


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    tags: frozenset[str]
    ground_truth_for: frozenset[str]


@dataclass(frozen=True)
class HashedRows:
    """Unit-vector embeddings as a sparse N x dim matrix in CSR form.

    Row i keeps only the nonzero entries of its ``embed`` vector: bucket
    ``indices[offsets[i]:offsets[i + 1]]`` (int32, ascending) has weight
    ``weights[...]`` (float64, bit for bit the dense vector's).
    """

    indices: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray

    def dot(self, query: np.ndarray) -> np.ndarray:
        """Each row's dot product with the dense ``query``.

        Every row must hold a nonzero entry (``embed`` rejects text without
        tokens): ``reduceat`` reads an empty row as the next row's first entry.
        """
        return np.add.reduceat(self.weights * query[self.indices], self.offsets[:-1])


@dataclass(frozen=True)
class Corpus:
    documents: tuple[Document, ...]
    # HashedRows per synonym table, built on first use.
    _hashed_rows: dict[tuple, HashedRows] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.documents)

    @cached_property
    def token_texts(self) -> tuple[str, ...]:
        """Each document's ``token_text``, for phrase scans."""
        return tuple(token_text(doc.text) for doc in self.documents)

    @cached_property
    def id_ranks(self) -> np.ndarray:
        """Each document's position in id order, the tie-break of a ranking."""
        order = sorted(range(len(self.documents)), key=lambda i: self.documents[i].id)
        ranks = np.empty(len(order), dtype=np.int64)
        ranks[order] = np.arange(len(order))
        return ranks

    def hashed_rows(self, synonyms: Mapping[str, tuple[str, ...]] | None) -> HashedRows:
        """Every document's ``embed`` under ``synonyms``, built on first use."""
        key = tuple(sorted(synonyms.items())) if synonyms else ()
        rows = self._hashed_rows.get(key)
        if rows is None:
            rows = self._hashed_rows[key] = self._embed_rows(key)
        return rows

    def _embed_rows(self, synonyms: Iterable[tuple[str, tuple[str, ...]]]) -> HashedRows:
        """The rows ``embed`` gives each document, from one ``np.unique`` over cell ids.

        A document adds the cell ``row * EMBED_DIM + bucket`` for each of its
        non-stopword tokens (each distinct token hashed once; a stopword maps
        to -1) and each concept token of a synonym phrase its token text holds.
        The unique cells are each row's buckets in ascending order; their counts
        and summed squares are exact integers, and ``np.sqrt`` and the division
        round as ``embed``'s norm does, so every weight is the dense vector's.
        """
        expansions = [
            (needle, [_token_index(t) for t in concepts])
            for phrase, concepts in synonyms
            if (needle := token_text(phrase)).strip()
        ]
        buckets = dict.fromkeys(_STOPWORDS, -1)
        cells = array("q")
        for row, (doc, padded) in enumerate(zip(self.documents, self.token_texts)):
            base, start = row * EMBED_DIM, len(cells)
            for token in padded.split():
                bucket = buckets.get(token)
                if bucket is None:
                    bucket = buckets[token] = _token_index(token)
                if bucket >= 0:
                    cells.append(base + bucket)
            for needle, concepts in expansions:
                if needle in padded:
                    cells.extend(base + bucket for bucket in concepts)
            if len(cells) == start:  # embed's errors: an empty row would corrupt ``dot``
                if not doc.text.strip():
                    raise ValueError("cannot embed empty text")
                raise ValueError(f"text has no indexable tokens: {doc.text!r}")
        del buckets  # freed before the arrays below are made, to lower the peak memory
        cells, counts = np.unique(np.frombuffer(cells, np.int64), return_counts=True)
        sizes = np.bincount(cells // EMBED_DIM, minlength=len(self.documents))
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        norms = np.sqrt(np.add.reduceat(counts * counts, offsets[:-1]))
        return HashedRows((cells % EMBED_DIM).astype(np.intc), counts / np.repeat(norms, sizes), offsets)

    def ground_truth_ids(self, task_id: str) -> frozenset[str]:
        return frozenset(
            d.id for d in self.documents if task_id in d.ground_truth_for
        )


def _uint32s(bits: np.random.PCG64) -> Iterator[int]:
    """The bit generator's 32-bit words: each raw word's low half, then its high half."""
    while True:
        words = bits.random_raw(1024)
        yield from np.column_stack((words & 0xFFFFFFFF, words >> 32)).ravel().tolist()


def _draw(halves: Iterator[int], k: int) -> int:
    """A uniform integer in ``[0, k)`` by Lemire's method, rejecting biased words."""
    threshold = (2**32 - k) % k
    while True:
        m = next(halves) * k
        if m & 0xFFFFFFFF >= threshold:
            return m >> 32


def generate_corpus(scenario: SimScenario, seed: int) -> Corpus:
    """Deterministically build the scenario's corpus of ``corpus_size`` documents.

    Ground-truth documents come first (stable ids), then seeded distractors,
    a slice of which use generic corporate euphemisms per the scenario's
    euphemism ratio. Each distractor takes ``topic = draw(8)``, the two
    fillers of Floyd's pair ``a = draw(9)``, ``b = draw(10)`` (``b = 9`` if
    ``b == a``), and swaps them if ``draw(2) == 0``. ``draw(k)`` is Lemire's
    bounded integer on the next 32-bit word of ``PCG64(SeedSequence([seed,
    101]))``: the draws NumPy 2's ``Generator.integers(8)`` and ``choice(10,
    size=2, replace=False)`` make, written out as NEP 19 lets those change.
    """
    halves = _uint32s(np.random.PCG64(np.random.SeedSequence([seed, 101])))
    docs: list[Document] = []

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
        topic = _DISTRACTOR_TOPICS[_draw(halves, len(_DISTRACTOR_TOPICS))]
        first, second = _draw(halves, len(_FILLER_WORDS) - 1), _draw(halves, len(_FILLER_WORDS))
        if second == first:
            second = len(_FILLER_WORDS) - 1
        if _draw(halves, 2) == 0:
            first, second = second, first
        text = topic.format(num=doc_id[-4:]) + " reference tag {} {}.".format(
            _FILLER_WORDS[first], _FILLER_WORDS[second]
        )
        tags = {TAG_DISTRACTOR}
        if j < n_euphemistic:
            softener = _GENERIC_EUPHEMISMS[j % len(_GENERIC_EUPHEMISMS)]
            text += f" filed under the {softener}."
            tags.add(TAG_EUPHEMISM)
        docs.append(Document(doc_id, text, frozenset(tags), frozenset()))

    return Corpus(tuple(docs))


def export_corpus(corpus: Corpus) -> str:
    """One record per line: id, text, tags, ground-truth task ids (tab-separated)."""
    lines = []
    for doc in corpus.documents:
        lines.append(
            "\t".join(
                (
                    doc.id,
                    doc.text,
                    ",".join(sorted(doc.tags)) or "-",
                    ",".join(sorted(doc.ground_truth_for)) or "-",
                )
            )
        )
    return "\n".join(lines) + "\n"
