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
it. ``_token_texts`` tokenises all documents in one pass: their texts (line
breaks made spaces) are joined by ``"\\n"``, lower-cased and UTF-8 encoded
once, one ``bytes.translate`` makes every byte but ``a-z0-9\\n`` a space,
and each line's spaces collapse, one padding each end. That equals each
lower-cased text's ``[a-z0-9]+`` runs: a non-ASCII character (a lone
surrogate too) encodes to bytes >= 0x80, and ``"\\n"`` is neither cased nor
case-ignorable, so lowering the join lowers each text alike. The corpus
keeps that one text and where each document starts; a token text holds no
``"\\n"``, so ``rows_containing`` finds a phrase's documents with
``str.find`` and a ``bisect``; the keyword scan and the synonym expansion
both use it. Per synonym table, each document's token buckets stream into
one array (each distinct token hashed once), and one ``np.unique`` over the
(document, bucket) cell ids counts them. That gives the embeddings of all
documents as one sparse N x dim hashed design matrix (``HashedRows``, the
feature-hashing view of Weinberger et al., 2009); its product with a query
vector scores every document at once. ``embed``, which embeds queries, is
the dense form of a text's row in a one-document corpus, so a query and a
document embed by one rule.

Distractors draw from a seeded PCG64's raw words by the rule in
``generate_corpus``, as NumPy fixes bit-generator streams across releases
but not ``Generator``'s algorithms (NEP 19), and a seed keeps its corpus.
All of a corpus's draws are made in one vectorised pass (``_draws``).
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from ..metrics import _count

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
_TOKEN_BYTES = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789\n" else 32 for b in range(256))

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


def _token_texts(texts: Sequence[str]) -> tuple[str, array]:
    """Each text's ``token_text``, joined by ``"\\n"``, and where each starts, then the end + 1."""
    if not texts:
        return "", array("q", [0])
    data = "\n".join(text.replace("\n", " ") for text in texts).lower().encode("utf-8", "surrogatepass")
    lines = list(map(b" ".join, map(bytes.split, data.translate(_TOKEN_BYTES).split(b"\n"))))
    starts = array("q", accumulate((len(line) + 3 for line in lines), initial=0))
    return " " + b" \n ".join(lines).decode("ascii") + " ", starts


def token_text(text: str) -> str:
    """The text's lower-case ``[a-z0-9]+`` runs by the one-pass rule, joined and padded by single spaces.

    A phrase's tokens appear consecutively in a text exactly when the
    phrase's token text is a substring of the text's. A phrase without
    tokens matches no text, but its token text (two spaces) is a substring
    of that of every other text without tokens.
    """
    return _token_texts((text,))[0]


def tokenize(text: str) -> list[str]:
    return [t for t in token_text(text).split() if t not in _STOPWORDS]


def _token_index(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % EMBED_DIM


class _Buckets(dict):
    """Token -> bucket, hashing a token on its first lookup (stopwords map to -1)."""

    def __missing__(self, token: str) -> int:
        bucket = self[token] = _token_index(token)
        return bucket


def embed(text: str, synonyms: Mapping[str, Sequence[str]] | None = None) -> np.ndarray:
    """Hashed bag-of-tokens unit vector, with synonym-table expansion.

    The dense form of the text's row in a one-document ``Corpus``: a query
    embeds by the documents' rule. Any synonym-table phrase whose tokens
    appear consecutively in the text adds its concept tokens (any sequence).
    """
    rows = Corpus((Document("", text, frozenset(), frozenset()),)).hashed_rows(synonyms)
    vector = np.zeros(EMBED_DIM)
    vector[rows.indices] = rows.weights
    return vector


def _concepts(phrase: str, concepts: Sequence[str]) -> tuple[str, ...]:
    if isinstance(concepts, str):
        raise ValueError(
            f"synonym phrase {phrase!r} maps to the string {concepts!r}, not to a sequence of tokens"
        )
    return tuple(concepts)


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    tags: frozenset[str]
    ground_truth_for: frozenset[str]


@dataclass(frozen=True)
class HashedRows:
    """Unit-vector embeddings as a sparse N x dim matrix in CSR form.

    Row i keeps only the nonzero entries of document i's unit vector: bucket
    ``indices[offsets[i]:offsets[i + 1]]`` (int32, ascending) has weight
    ``weights[...]`` (float64).
    """

    indices: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray

    def dot(self, query: np.ndarray) -> np.ndarray:
        """Each row's dot product with the dense ``query``.

        Every row must hold a nonzero entry (``_embed_rows`` rejects text without
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
    def _token_text(self) -> tuple[str, array]:
        """Every document's ``token_text`` joined by ``"\\n"``, and their starts, then the end + 1.

        A token text holds only ``[a-z0-9 ]``, so no phrase spans two documents.
        """
        return _token_texts([doc.text for doc in self.documents])

    def rows_containing(self, phrase: str) -> list[int]:
        """The rows, ascending, whose token text holds the phrase's tokens consecutively (none if it has none)."""
        needle = token_text(phrase)
        if not needle.strip():
            return []
        text, starts = self._token_text
        rows = []
        at = text.find(needle)
        while at >= 0:
            rows.append(row := bisect_right(starts, at) - 1)
            at = text.find(needle, starts[row + 1])
        return rows

    @cached_property
    def id_ranks(self) -> np.ndarray:
        """Each document's position in id order, the tie-break of a ranking."""
        order = sorted(range(len(self.documents)), key=[doc.id for doc in self.documents].__getitem__)
        ranks = np.empty(len(order), dtype=np.int64)
        ranks[order] = np.arange(len(order))
        return ranks

    def hashed_rows(self, synonyms: Mapping[str, Sequence[str]] | None) -> HashedRows:
        """Every document's embedding under ``synonyms``, built on first use.

        A phrase's concepts are a sequence of tokens; a ``str`` is refused, as
        it would expand into one token per character.
        """
        key = tuple(sorted((phrase, _concepts(phrase, c)) for phrase, c in (synonyms or {}).items()))
        rows = self._hashed_rows.get(key)
        if rows is None:
            rows = self._hashed_rows[key] = self._embed_rows(key)
        return rows

    def _embed_rows(self, synonyms: Iterable[tuple[str, tuple[str, ...]]]) -> HashedRows:
        """Each document's unit-vector row, from one ``np.unique`` over ``_cells``.

        The unique cells are each row's buckets in ascending order; a weight is
        a cell's count over the root of its row's summed squared counts. This
        is the one embedding rule: ``embed`` is a one-document corpus's row.
        """
        cells, counts = np.unique(self._cells(synonyms), return_counts=True)
        sizes = np.bincount(cells // EMBED_DIM, minlength=len(self.documents))
        if not sizes.all():  # an empty row would corrupt ``dot``
            doc = self.documents[int(np.argmin(sizes))]
            if not doc.text.strip():
                raise ValueError("cannot embed empty text")
            raise ValueError(f"text has no indexable tokens: {doc.text!r}")
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        norms = np.sqrt(np.add.reduceat(counts * counts, offsets[:-1]))
        return HashedRows((cells % EMBED_DIM).astype(np.intc), counts / np.repeat(norms, sizes), offsets)

    def _cells(self, synonyms: Iterable[tuple[str, tuple[str, ...]]]) -> np.ndarray:
        """The cells ``row * EMBED_DIM + bucket`` that the rows count, unsorted.

        A row counts one per non-stopword token and one per concept token of
        each synonym phrase it holds. Cells are int32 while every id fits; that,
        and freeing this build's arrays on return, lowers ``np.unique``'s peak.
        """
        text, starts = self._token_text
        buckets = _Buckets.fromkeys(_STOPWORDS, -1)
        ids, sizes = array("i"), array("q")
        for start, end in zip(starts, starts[1:]):
            words = text[start:end].split()
            ids.extend(map(buckets.__getitem__, words))
            sizes.append(len(words))
        cell = np.int32 if len(self.documents) * EMBED_DIM <= 2**31 else np.int64
        ids = np.frombuffer(ids, np.intc)
        cells = np.repeat(np.arange(len(sizes), dtype=cell) * EMBED_DIM, sizes) + ids
        concepts = [
            np.add.outer(np.array(rows, cell) * EMBED_DIM, np.array([_token_index(t) for t in tokens], cell)).ravel()
            for phrase, tokens in synonyms
            if (rows := self.rows_containing(phrase))
        ]
        return np.concatenate([cells[ids >= 0], *concepts])

    def ground_truth_ids(self, task_id: str) -> frozenset[str]:
        return frozenset(
            d.id for d in self.documents if task_id in d.ground_truth_for
        )


def _draws(bits: np.random.PCG64, bounds: Sequence[int]) -> np.ndarray:
    """A uniform integer in ``[0, k)`` for each bound ``k``, in order, by Lemire's method.

    A draw reads the next 32-bit word ``u`` (each raw word's low half, then its
    high half) and gives ``(u * k) >> 32``, unless ``(u * k) mod 2**32 <
    (2**32 - k) mod k`` rejects ``u`` as biased and the draw reads the next
    word. One vectorised pass draws up to the first rejected word, then
    restarts on the word after it.
    """
    bounds = np.asarray(bounds, np.uint64)
    draws, words = [np.empty(0, np.uint64)], np.empty(0, np.uint64)
    while len(bounds):
        if len(words) < len(bounds):
            raw = bits.random_raw((len(bounds) - len(words) + 1) // 2)
            words = np.concatenate((words, np.column_stack((raw & 0xFFFFFFFF, raw >> 32)).ravel()))
        products = words[: len(bounds)] * bounds
        rejected = np.flatnonzero(products & 0xFFFFFFFF < (2**32 - bounds) % bounds)
        accepted = int(rejected[0]) if len(rejected) else len(bounds)
        draws.append(products[:accepted] >> 32)
        bounds, words = bounds[accepted:], words[accepted + 1 :]
    return np.concatenate(draws)


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
    bits = np.random.PCG64(np.random.SeedSequence([_count("seed", seed, 0), 101]))
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
    bounds = (len(_DISTRACTOR_TOPICS), len(_FILLER_WORDS) - 1, len(_FILLER_WORDS), 2)
    draws = _draws(bits, bounds * n_distractors).reshape(-1, len(bounds)).tolist()
    topics = [topic.split("{num}") for topic in _DISTRACTOR_TOPICS]
    softeners = [f" filed under the {softener}." for softener in _GENERIC_EUPHEMISMS]
    plain, softened, no_truth = frozenset({TAG_DISTRACTOR}), frozenset({TAG_DISTRACTOR, TAG_EUPHEMISM}), frozenset()
    for j, (topic, first, second, swap) in enumerate(draws):
        doc_id = f"doc-{len(docs):04d}"
        if second == first:
            second = len(_FILLER_WORDS) - 1
        if swap == 0:
            first, second = second, first
        suffix, tags = (softeners[j % len(softeners)], softened) if j < n_euphemistic else ("", plain)
        head, tail = topics[topic]
        text = f"{head}{doc_id[-4:]}{tail} reference tag {_FILLER_WORDS[first]} {_FILLER_WORDS[second]}.{suffix}"
        docs.append(Document(doc_id, text, tags, no_truth))

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
