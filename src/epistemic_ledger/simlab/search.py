"""The two firms' retrieval procedures and the simulated verifier.

Keyword search scans every document for literal phrase matches at linear
cost; semantic search ranks documents by cosine similarity of hashed
embeddings at logarithmic cost. Each returns its hits and the cost its
scenario cost model gives, without jitter: the hits depend only on the
corpus and the query, so the runner searches once per corpus and multiplies
the cost by a fresh jitter factor in each run. Retrieval error for a
task is 1 when any ground-truth document is missed, else 0.

Both searches read the corpus index (see ``corpus``), built on a corpus's
first search and reused by every later one: the keyword scan finds each
phrase's documents with ``Corpus.rows_containing``, one ``str.find`` scan of
the corpus's joined token text, and semantic search scores all documents
with one sparse product of the hashed embedding rows and the query vector,
which ``embed`` builds by the rows' own rule. Synonym values may be any
token sequence. ``document_matches``, the scan's test of one document, has
no caller in the package; it stays only as a seam the benchmark traces,
until the trace moves into the package.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from ..doctrine import Verdict
from ..metrics import _count, _require
from .corpus import Corpus, Document, embed


def keyword_search(
    corpus: Corpus,
    keywords: Sequence[str],
    c_per_doc: float,
    *,
    time_scale: float = 1.0,
) -> tuple[tuple[str, ...], float]:
    """Linear scan for literal phrase matches: (hit ids, simulated seconds)."""
    if not keywords:
        raise ValueError("keyword_search requires a non-empty keyword list")
    rows = sorted(set().union(*map(corpus.rows_containing, keywords)))
    hits = tuple(corpus.documents[row].id for row in rows)
    return hits, c_per_doc * len(corpus) * time_scale


def document_matches(doc: Document, phrase: str) -> bool:
    """Whether ``keyword_search`` for the phrase hits the document."""
    return bool(keyword_search(Corpus((doc,)), [phrase], 0.0)[0])


def semantic_search(
    corpus: Corpus,
    concept_query: str,
    k: int,
    a: float,
    b: float,
    synonyms: Mapping[str, Sequence[str]] | None = None,
    *,
    time_scale: float = 1.0,
) -> tuple[tuple[str, ...], float]:
    """Exact top-k by cosine similarity (ties by id): (hit ids, seconds).

    Simulated cost is a + b * ln(corpus size); k is clamped to the corpus
    size.
    """
    _count("k", k, 1)
    k = min(k, len(corpus))
    query_vec = embed(concept_query, synonyms)
    scores = corpus.hashed_rows(synonyms).dot(query_vec)
    ranked = np.lexsort((corpus.id_ranks, -scores))
    hits = tuple(corpus.documents[i].id for i in ranked[:k])
    return hits, (a + b * math.log(len(corpus))) * time_scale


def _flip(verdict: Verdict) -> Verdict:
    return Verdict.REFUTED if verdict is Verdict.ESTABLISHED else Verdict.ESTABLISHED


def simulated_verifier(
    hits: Sequence[str],
    ground_truth_ids: frozenset[str],
    truth: Verdict,
    eps_ver: float,
    rng: np.random.Generator,
) -> Verdict:
    """Deterministic stand-in for an LLM verifier.

    With no ground-truth document among the hits there is nothing to verify
    and the verdict is inconclusive. Otherwise the true verdict is returned
    with probability 1 - eps_ver and the wrong one with probability eps_ver,
    driven by the supplied seeded generator.
    """
    _require("eps_ver", eps_ver, 0, 1)
    if not ground_truth_ids or not (ground_truth_ids & set(hits)):
        return Verdict.INCONCLUSIVE
    wrong = float(rng.random()) < eps_ver
    return _flip(truth) if wrong else truth
