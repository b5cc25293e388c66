"""The query kernels return the floats of their per-pair references.

Keyword search keeps a per-document weight table, union search takes
each candidate table's column-pair Jaccards in one stacked comparison,
containment search tests LSH bands for a block of a partition's keys at
once, and ``canonicalize`` memoizes its string transform.  Each must return exactly what the loop
it replaced returned.  Those loops, as commit ``4cfcb5f`` had them, are
copied below verbatim as references (``parent_*``) and compared against
the live kernels on hypothesis-drawn inputs, float for float and in the
same order, including the errors they raise.
"""

import math
import sys
import threading
import unicodedata
from collections import Counter, defaultdict
from typing import Dict, Hashable, List, Mapping, Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from respdi.discovery import lshensemble
from respdi.discovery.keyword import CorpusStats, KeywordHit, KeywordIndex, tokenize
from respdi.discovery.lazo import LazoSketch
from respdi.discovery.lshensemble import (
    LSHEnsemble,
    containment_to_jaccard,
    partition_max_map,
    scatter_containment_hits,
)
from respdi.discovery.minhash import MinHasher, MinHashSignature
from respdi.discovery.unionsearch import UnionCandidate, UnionSearch
from respdi.errors import EmptyInputError, SpecificationError
from respdi.linkage.views import _canonical_form, canonicalize
from respdi.table import Schema, Table

# -- references: the per-pair loops of 4cfcb5f --------------------------------


def parent_keyword_search(self, query, k=10, stats=None):
    """``KeywordIndex.search`` at 4cfcb5f; *self* is the index."""
    if k < 1:
        raise SpecificationError("k must be >= 1")
    if not self._docs:
        raise EmptyInputError("no tables indexed")
    query_tokens = Counter(tokenize(query))
    if not query_tokens:
        raise SpecificationError("query contains no indexable tokens")
    if stats is None:
        n_docs, doc_freq = len(self._docs), self._doc_freq
    else:
        n_docs, doc_freq = stats.n_docs, stats.doc_freq
    results: List[KeywordHit] = []
    for name, doc in self._docs.items():
        score = 0.0
        doc_norm = 0.0
        for token, tf in doc.items():
            idf = math.log((1 + n_docs) / (1 + doc_freq[token])) + 1.0
            weight = (1 + math.log(tf)) * idf
            doc_norm += weight * weight
            if token in query_tokens:
                query_weight = (1 + math.log(query_tokens[token])) * idf
                score += weight * query_weight
        if score > 0 and doc_norm > 0:
            results.append(KeywordHit(name, score / math.sqrt(doc_norm)))
    results.sort(key=lambda hit: (-hit.score, hit.table_name))
    return results[:k]


def parent_union_search(self, query, k=10, columns=None):
    """``UnionSearch.search`` at 4cfcb5f; *self* is the index."""
    if k < 1:
        raise SpecificationError("k must be >= 1")
    if not self._sketches:
        raise EmptyInputError("no tables indexed")
    query_columns = list(columns) if columns else list(query.schema.categorical_names)
    if not query_columns:
        raise SpecificationError("query has no categorical columns")
    query_sketches = {
        name: LazoSketch.build(query.unique(name), self.hasher)
        for name in query_columns
        if query.unique(name)
    }
    if not query_sketches:
        raise EmptyInputError("query columns are all empty")
    results: List[UnionCandidate] = []
    ordered_query = sorted(query_sketches)
    for table_name, column_sketches in self._sketches.items():
        if not column_sketches:
            continue
        ordered_candidate = sorted(column_sketches)
        scores = np.zeros((len(ordered_query), len(ordered_candidate)))
        for i, qc in enumerate(ordered_query):
            for j, cc in enumerate(ordered_candidate):
                scores[i, j] = query_sketches[qc].estimate(
                    column_sketches[cc]
                ).jaccard
        row_idx, col_idx = linear_sum_assignment(-scores)
        alignment = [
            (ordered_query[i], ordered_candidate[j])
            for i, j in zip(row_idx, col_idx)
            if scores[i, j] > 0
        ]
        score = float(scores[row_idx, col_idx].sum()) / len(query_columns)
        results.append(UnionCandidate(table_name, score, alignment))
    results.sort(key=lambda c: (-c.score, c.table_name))
    return results[:k]


def parent_choose_bands(num_hashes: int, jaccard_threshold: float) -> Tuple[int, int]:
    best = (1, num_hashes)
    best_gap = float("inf")
    for rows in range(1, num_hashes + 1):
        bands = num_hashes // rows
        if bands < 1:
            break
        inflection = (1.0 / bands) ** (1.0 / rows)
        gap = abs(inflection - jaccard_threshold)
        if gap < best_gap:
            best_gap = gap
            best = (bands, rows)
    return best


def parent_shares_band(
    signature: MinHashSignature,
    query_signature: MinHashSignature,
    bands: int,
    rows: int,
) -> bool:
    used = bands * rows
    agree = (
        signature.values[:used].reshape(bands, rows)
        == query_signature.values[:used].reshape(bands, rows)
    )
    return bool(agree.all(axis=1).any())


def parent_containment_estimate(
    query_signature: MinHashSignature, signature: MinHashSignature, q: int
) -> float:
    jaccard = query_signature.jaccard(signature)
    union_bound = q + signature.cardinality
    intersection = (
        jaccard * union_bound / (1.0 + jaccard) if jaccard > 0 else 0.0
    )
    intersection = min(intersection, float(q), float(signature.cardinality))
    return intersection / q


def parent_scatter_containment_hits(
    signatures: Mapping[Hashable, MinHashSignature],
    query_signature: MinHashSignature,
    containment_threshold: float,
    partition_max: Mapping[Hashable, int],
    num_hashes: int,
) -> List[Tuple[Hashable, float]]:
    q = query_signature.cardinality
    by_max: Dict[int, List[Hashable]] = defaultdict(list)
    for key in signatures:
        by_max[partition_max[key]].append(key)
    results: List[Tuple[Hashable, float]] = []
    for max_size, keys in by_max.items():
        jaccard_threshold = containment_to_jaccard(
            containment_threshold, q, max_size
        )
        bands, rows = parent_choose_bands(num_hashes, jaccard_threshold)
        for key in keys:
            signature = signatures[key]
            if not parent_shares_band(signature, query_signature, bands, rows):
                continue
            containment = parent_containment_estimate(query_signature, signature, q)
            if containment >= containment_threshold:
                results.append((key, containment))
    return results


def parent_canonicalize(value: Optional[object]) -> Optional[str]:
    if value is None:
        return None
    text = str(value)
    for _ in range(4):
        decomposed = unicodedata.normalize("NFKD", text)
        stripped = "".join(
            ch for ch in decomposed if not unicodedata.combining(ch)
        )
        folded = stripped.casefold()
        spaced = "".join(ch if ch.isalnum() else " " for ch in folded)
        result = " ".join(sorted(spaced.split()))
        if result == text:
            break
        text = result
    return text


# -- helpers -----------------------------------------------------------------


def outcome(call, *args, **kwargs):
    """``("ok", result)`` or ``("error", type name, message)``."""
    try:
        return ("ok", call(*args, **kwargs))
    except (SpecificationError, EmptyInputError) as exc:
        return ("error", type(exc).__name__, str(exc))


VOCAB = ("alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta", "iota")
documents = st.dictionaries(
    st.sampled_from(VOCAB), st.integers(1, 7), min_size=1, max_size=len(VOCAB)
)
queries = st.lists(
    st.sampled_from(VOCAB + ("absent",)), min_size=1, max_size=5
).map(" ".join)


# -- keyword -----------------------------------------------------------------

keyword_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("search"), queries, st.integers(1, 8),
            st.sampled_from(["own", "held", "fresh"]),
        ),
        st.tuples(st.just("add"), documents),
        st.tuples(st.just("remove"), st.integers(0, 20)),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(
    initial=st.lists(documents, min_size=0, max_size=6),
    other_shard=st.lists(documents, min_size=0, max_size=4),
    ops=keyword_ops,
)
def test_keyword_search_matches_per_token_loop(initial, other_shard, ops):
    index = KeywordIndex()
    for n, doc in enumerate(initial):
        index.add_document(f"t{n}", Counter(doc))
    other = KeywordIndex()
    for n, doc in enumerate(other_shard):
        other.add_document(f"o{n}", Counter(doc))
    # One statistics object reused across searches (the pinned vector's
    # merged stats), against a new object per search.
    held = CorpusStats.merge([index.corpus_stats(), other.corpus_stats()])
    added = len(initial)
    for op in ops:
        if op[0] == "add":
            index.add_document(f"t{added}", Counter(op[1]))
            added += 1
            continue
        if op[0] == "remove":
            names = list(index._docs)
            if names:
                index.remove_table(names[op[1] % len(names)])
            continue
        _, text, k, mode = op
        stats = {
            "own": None,
            "held": held,
            "fresh": CorpusStats.merge([index.corpus_stats(), other.corpus_stats()]),
        }[mode]
        expected = outcome(parent_keyword_search, index, text, k=k, stats=stats)
        assert outcome(index.search, text, k=k, stats=stats) == expected, (text, mode)


def test_keyword_table_is_built_by_the_first_search_and_dropped_on_change():
    index = KeywordIndex()
    index.add_document("a", Counter({"alpha": 2, "beta": 1}))
    index.add_document("b", Counter({"beta": 3, "gamma": 1}))
    assert index._terms is None
    stats = index.corpus_stats()
    first = index.search("beta", stats=stats)
    table = index._terms
    assert table is not None and table[0] is stats
    index.search("gamma alpha", stats=stats)
    assert index._terms is table
    index.add_document("c", Counter({"beta": 1}))
    assert index._terms is None
    assert index.search("beta", stats=stats) == parent_keyword_search(
        index, "beta", stats=stats
    )
    index.remove_table("c")
    assert index._terms is None
    assert index.search("beta", stats=stats) == first


def test_racing_first_searches_all_see_the_reference_scores():
    docs = {
        f"t{n}": Counter({VOCAB[(n + i) % len(VOCAB)]: 1 + (n * i) % 5 for i in range(6)})
        for n in range(40)
    }
    text = "alpha gamma eta gamma"
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            index = KeywordIndex()
            for name, doc in docs.items():
                index.add_document(name, doc)
            stats = index.corpus_stats()
            expected = parent_keyword_search(index, text, k=40, stats=stats)
            answers: List[list] = []
            workers = [
                threading.Thread(
                    target=lambda: answers.append(index.search(text, k=40, stats=stats))
                )
                for _ in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
            assert answers == [expected] * 8
    finally:
        sys.setswitchinterval(previous)


# -- union -------------------------------------------------------------------

value_sets = st.one_of(
    st.sets(st.integers(0, 24).map(lambda i: f"v{i}"), min_size=1, max_size=20),
    # A domain no query draws from: a zero-overlap candidate column.
    st.sets(st.integers(0, 24).map(lambda i: f"z{i}"), min_size=1, max_size=8),
)
candidate_tables = st.lists(
    st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), value_sets, max_size=4),
    min_size=1,
    max_size=6,
)
query_columns = st.dictionaries(
    st.sampled_from(["a", "b", "x"]),
    st.lists(
        st.one_of(st.none(), st.integers(0, 30).map(lambda i: f"v{i}")),
        min_size=12,
        max_size=12,
    ),
    min_size=1,
    max_size=3,
)


def _query_table(columns: Dict[str, list]) -> Table:
    names = sorted(columns)
    schema = Schema([(name, "categorical") for name in names])
    return Table.from_rows(schema, list(zip(*(columns[name] for name in names))))


def _union_index(tables, hasher) -> UnionSearch:
    search = UnionSearch(hasher=hasher)
    for n, columns in enumerate(tables):
        search.add_sketches(
            f"t{n}",
            {name: LazoSketch.build(values, hasher) for name, values in columns.items()},
        )
    return search


@settings(max_examples=150, deadline=None)
@given(
    tables=candidate_tables,
    query=query_columns,
    k=st.integers(1, 8),
    restrict=st.booleans(),
    num_hashes=st.sampled_from([8, 32, 128]),
)
def test_union_search_matches_per_pair_loop(tables, query, k, restrict, num_hashes):
    hasher = MinHasher(num_hashes, rng=3)
    search = _union_index(tables, hasher)
    table = _query_table(query)
    columns = sorted(query)[:1] if restrict else None
    expected = outcome(parent_union_search, search, table, k=k, columns=columns)
    assert outcome(search.search, table, k=k, columns=columns) == expected


def test_union_search_raises_what_the_per_pair_path_raised():
    hasher = MinHasher(32, rng=3)
    table = _query_table({"a": [f"v{i}" for i in range(10)]})
    search = _union_index([{"a": {"v1", "v2"}}, {}], hasher)
    signature = hasher.signature(["v1", "v3"])
    search.add_sketches("empty", {"b": LazoSketch(signature, cardinality=0)})
    expected = outcome(parent_union_search, search, table)
    assert expected[0] == "error" and "cardinalities" in expected[2]
    assert outcome(search.search, table) == expected
    search.remove_table("empty")
    short = MinHashSignature(signature.values[:16], 2, hasher.hasher_id)
    search.add_sketches("short", {"b": LazoSketch(short, cardinality=2)})
    expected = outcome(parent_union_search, search, table)
    assert expected[0] == "error" and "lengths differ" in expected[2]
    assert outcome(search.search, table) == expected
    search.remove_table("short")
    search.hasher = MinHasher(32, rng=4)
    expected = outcome(parent_union_search, search, table)
    assert expected[0] == "error" and "different MinHashers" in expected[2]
    assert outcome(search.search, table) == expected


# -- containment -------------------------------------------------------------

#: A domain keeps a share of the query's values plus values of its own, so
#: containments spread over [0, 1] and many sit near any threshold, where
#: the band test decides.
domains = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.sets(st.integers(100, 400), max_size=80)),
    min_size=1,
    max_size=16,
)


@settings(max_examples=200, deadline=None)
@given(
    domain_specs=domains,
    query=st.sets(st.integers(0, 99), min_size=1, max_size=60),
    threshold=st.one_of(
        st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]),
        st.floats(0.0, 1.0),
    ),
    num_partitions=st.integers(1, 6),
    num_hashes=st.sampled_from([16, 64, 128]),
    shard=st.integers(0, 2),
    block=st.sampled_from([1, 3, lshensemble._BAND_BLOCK]),
)
def test_containment_hits_match_per_key_loop(
    domain_specs, query, threshold, num_partitions, num_hashes, shard, block
):
    ordered = sorted(query)
    domain_sets = [
        set(ordered[: round(keep * len(ordered))]) | extra or {100}
        for keep, extra in domain_specs
    ]
    hasher = MinHasher(num_hashes, rng=5)
    signatures = {
        (f"t{n % 4}", f"c{n}"): hasher.signature(values)
        for n, values in enumerate(domain_sets)
    }
    partition_max = partition_max_map(
        {key: signature.cardinality for key, signature in signatures.items()},
        num_partitions,
    )
    # The scatter case: one shard scores its own keys under the layout
    # of every shard's keys.
    local = {key: sig for n, (key, sig) in enumerate(signatures.items()) if n % 3 != shard}
    query_signature = hasher.signature(query)
    # A partition wider than the band block is tested block by block.
    with mock.patch.object(lshensemble, "_BAND_BLOCK", block):
        for subset in (signatures, local):
            args = (subset, query_signature, threshold, partition_max, num_hashes)
            assert scatter_containment_hits(*args) == parent_scatter_containment_hits(
                *args
            )

        ensemble = LSHEnsemble(hasher=hasher, num_partitions=num_partitions)
        for key, signature in signatures.items():
            ensemble.index_signature(key, signature)
        ensemble.freeze()
        expected = parent_scatter_containment_hits(
            signatures, query_signature, threshold, partition_max, num_hashes
        )
        expected.sort(key=lambda item: (-item[1], repr(item[0])))
        assert ensemble.query(query, threshold) == expected


# -- canonical form ----------------------------------------------------------

names = st.one_of(
    st.none(),
    st.text(max_size=30),
    st.text(alphabet="aáAÁeéñÑ ,.-'øØßẞﬁ İı", max_size=20),
    st.integers(),
    st.floats(allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(names, max_size=20), clear=st.booleans())
def test_canonicalize_matches_unmemoized_transform(values, clear):
    if clear:
        _canonical_form.cache_clear()
    for value in values + values:
        assert canonicalize(value) == parent_canonicalize(value)


def test_canonical_memo_is_bounded():
    assert _canonical_form.cache_info().maxsize == 4096
    for n in range(5000):
        canonicalize(f"name {n}")
    assert _canonical_form.cache_info().currsize <= 4096


@pytest.mark.parametrize("value", ["Núñez, Ana", "ana nunez", "", "  ", 1.0, True, 0])
def test_canonicalize_examples_match_reference(value):
    assert canonicalize(value) == parent_canonicalize(value)
