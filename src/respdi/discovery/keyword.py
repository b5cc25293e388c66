"""IR-style keyword search over table metadata (tutorial §3.1).

The first formulation of dataset discovery the tutorial describes: the
query is a set of keywords and results are tables ranked by relevance.
We index each table's name, column names, and (a sample of) its
categorical values as a bag of tokens, and rank by TF-IDF cosine score —
the standard IR recipe Google Dataset Search popularized for tables.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from respdi.errors import EmptyInputError, SpecificationError
from respdi.table import Table

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> List[str]:
    """Lowercased alphanumeric tokens of *text*."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class KeywordHit:
    table_name: str
    score: float


@dataclass(frozen=True)
class CorpusStats:
    """Document-frequency statistics a TF-IDF score is computed against.

    Normally implicit (an index scores against its own corpus), made
    explicit so statistics can be *merged* across index shards —
    ``CorpusStats`` over a union of disjoint corpora is the sum of the
    per-shard stats (:meth:`merge`) — and *broadcast* back so each shard
    scores its local documents with global IDF.  A shard's score under
    the merged stats is bit-for-bit the score the single global index
    would compute, which is what makes scatter-gathered keyword results
    byte-identical to unsharded ones.
    """

    n_docs: int
    doc_freq: Counter

    @classmethod
    def merge(cls, parts: "list[CorpusStats]") -> "CorpusStats":
        """Sum per-shard statistics into the global corpus view."""
        doc_freq: Counter = Counter()
        n_docs = 0
        for part in parts:
            n_docs += part.n_docs
            doc_freq.update(part.doc_freq)
        return cls(n_docs=n_docs, doc_freq=doc_freq)


def table_token_counts(
    name: str,
    table: Table,
    description: Optional[str] = None,
    values_per_column: int = 50,
    unique_values: Optional[Dict[str, List]] = None,
) -> Counter:
    """The bag of tokens :class:`KeywordIndex` indexes for one table.

    Exposed separately so a catalog can compute (and persist) the token
    counts once at registration time and rehydrate the index later via
    :meth:`KeywordIndex.add_document` without re-reading the table.

    *unique_values* lets a caller that already holds each categorical
    column's sorted distinct values (``table.unique`` output — the
    artifact builder computes them for the joinability substrate anyway)
    share them instead of re-deriving per column.
    """
    tokens: List[str] = tokenize(name)
    if description:
        tokens += tokenize(description)
    for column in table.column_names:
        tokens += tokenize(column)
    for column in table.schema.categorical_names:
        if unique_values is not None and column in unique_values:
            distinct = unique_values[column]
        else:
            distinct = table.unique(column)
        for value in distinct[:values_per_column]:
            tokens += tokenize(str(value))
    return Counter(tokens)


class KeywordIndex:
    """TF-IDF index over table metadata."""

    def __init__(self, values_per_column: int = 50) -> None:
        if values_per_column < 0:
            raise SpecificationError("values_per_column must be >= 0")
        self.values_per_column = values_per_column
        self._docs: Dict[str, Counter] = {}
        self._doc_freq: Counter = Counter()
        #: ``(stats, table)`` of the last search: :meth:`_term_table` under
        #: *stats* (``None`` for this index's own statistics).
        self._terms: Optional[tuple] = None

    def add_table(
        self, name: str, table: Table, description: Optional[str] = None
    ) -> None:
        """Index *table* under *name* with an optional free-text description."""
        self.add_document(
            name,
            table_token_counts(
                name, table, description, values_per_column=self.values_per_column
            ),
        )

    def add_document(self, name: str, token_counts: Counter) -> None:
        """Index precomputed token counts under *name* (warm path)."""
        if name in self._docs:
            raise SpecificationError(f"table {name!r} already indexed")
        counts = Counter(token_counts)
        self._docs[name] = counts
        for token in counts:
            self._doc_freq[token] += 1
        self._terms = None

    def remove_table(self, name: str) -> None:
        """Drop *name* and its document-frequency contributions."""
        if name not in self._docs:
            raise SpecificationError(f"table {name!r} is not indexed")
        for token in self._docs[name]:
            self._doc_freq[token] -= 1
            if self._doc_freq[token] <= 0:
                del self._doc_freq[token]
        del self._docs[name]
        self._terms = None

    def document(self, name: str) -> Counter:
        """The indexed token counts of *name* (for persistence)."""
        if name not in self._docs:
            raise SpecificationError(f"table {name!r} is not indexed")
        return Counter(self._docs[name])

    def corpus_stats(self) -> CorpusStats:
        """This index's document-frequency statistics (for scatter-gather)."""
        return CorpusStats(
            n_docs=len(self._docs), doc_freq=Counter(self._doc_freq)
        )

    def _term_table(self, stats: Optional[CorpusStats]) -> tuple:
        """Every document's ``(name, doc_norm, {token: (position, weight, idf)})``.

        Only the query's tokens change a score, so a document's TF-IDF
        weights and norm are computed once per statistics object and
        reused while later searches pass the same one (``is``); adding or
        removing a document drops the table.  Two threads racing on a
        first search each build the same immutable tuple, and one
        assignment wins.
        """
        cached = self._terms
        if cached is not None and cached[0] is stats:
            return cached[1]
        if stats is None:
            n_docs, doc_freq = len(self._docs), self._doc_freq
        else:
            n_docs, doc_freq = stats.n_docs, stats.doc_freq
        rows = []
        for name, doc in self._docs.items():
            doc_norm = 0.0
            terms: Dict[str, Tuple[int, float, float]] = {}
            for position, (token, tf) in enumerate(doc.items()):
                idf = math.log((1 + n_docs) / (1 + doc_freq[token])) + 1.0
                weight = (1 + math.log(tf)) * idf
                doc_norm += weight * weight
                terms[token] = (position, weight, idf)
            rows.append((name, doc_norm, terms))
        table = tuple(rows)
        self._terms = (stats, table)
        return table

    def search(
        self, query: str, k: int = 10, stats: Optional[CorpusStats] = None
    ) -> List[KeywordHit]:
        """Top-*k* tables by TF-IDF cosine relevance to *query*.

        With *stats*, IDF comes from the given (e.g. merged-over-shards)
        corpus statistics instead of this index's own; each document's
        score is then exactly what a single index over the full corpus
        would compute for it.  A document's score sums its matched
        tokens' products in the document's token order, so it is the
        float the full per-token loop computes.
        """
        if k < 1:
            raise SpecificationError("k must be >= 1")
        if not self._docs:
            raise EmptyInputError("no tables indexed")
        query_tokens = Counter(tokenize(query))
        if not query_tokens:
            raise SpecificationError("query contains no indexable tokens")
        query_tf = [
            (token, 1 + math.log(count)) for token, count in query_tokens.items()
        ]
        results: List[KeywordHit] = []
        for name, doc_norm, terms in self._term_table(stats):
            matched = sorted(
                (terms[token], tf_factor)
                for token, tf_factor in query_tf
                if token in terms
            )
            score = 0.0
            for (_, weight, idf), tf_factor in matched:
                score += weight * (tf_factor * idf)
            if score > 0 and doc_norm > 0:
                results.append(KeywordHit(name, score / math.sqrt(doc_norm)))
        results.sort(key=lambda hit: (-hit.score, hit.table_name))
        return results[:k]
