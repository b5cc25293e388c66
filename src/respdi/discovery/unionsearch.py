"""Table union search (Nargesian et al., VLDB 2018).

Two tables are unionable when their columns can be aligned so that each
aligned pair draws from the same domain.  We score column pairs by
(estimated or exact) Jaccard similarity of their value sets, then score a
table pair by the **optimal one-to-one column alignment** (assignment
problem over the pairwise scores, solved exactly with the Hungarian
algorithm) normalized by the query's column count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from respdi.discovery.lazo import LazoSketch
from respdi.discovery.minhash import MinHasher
from respdi.errors import EmptyInputError, SpecificationError
from respdi.table import Table


def column_unionability(a: set, b: set) -> float:
    """Exact Jaccard similarity of two value sets (0 when either empty)."""
    if not a or not b:
        return 0.0
    intersection = len(a & b)
    return intersection / (len(a) + len(b) - intersection)


def table_unionability(
    query: Table,
    candidate: Table,
    columns: Optional[Sequence[str]] = None,
) -> Tuple[float, List[Tuple[str, str]]]:
    """Exact unionability score and the optimal column alignment.

    Only categorical columns participate (numeric columns union on type,
    which carries no evidence).  The score is the total Jaccard of the
    optimal alignment divided by the number of query columns considered,
    so it lies in [0, 1].
    """
    query_columns = list(columns) if columns else list(query.schema.categorical_names)
    candidate_columns = list(candidate.schema.categorical_names)
    if not query_columns:
        raise SpecificationError("query has no categorical columns to align")
    if not candidate_columns:
        return 0.0, []
    query_sets = {name: set(query.unique(name)) for name in query_columns}
    candidate_sets = {name: set(candidate.unique(name)) for name in candidate_columns}
    scores = np.zeros((len(query_columns), len(candidate_columns)))
    for i, qc in enumerate(query_columns):
        for j, cc in enumerate(candidate_columns):
            scores[i, j] = column_unionability(query_sets[qc], candidate_sets[cc])
    row_idx, col_idx = linear_sum_assignment(-scores)
    alignment = [
        (query_columns[i], candidate_columns[j])
        for i, j in zip(row_idx, col_idx)
        if scores[i, j] > 0
    ]
    total = float(scores[row_idx, col_idx].sum())
    return total / len(query_columns), alignment


@dataclass
class UnionCandidate:
    """One ranked result of a union search."""

    table_name: str
    score: float
    alignment: List[Tuple[str, str]]


class UnionSearch:
    """Sketch-based table union search over a registered corpus.

    Column value sets are summarized by :class:`LazoSketch`; candidate
    scoring mirrors :func:`table_unionability` but uses estimated Jaccard,
    so the index never rescans table contents at query time.
    """

    def __init__(
        self,
        num_hashes: int = 128,
        rng=None,
        hasher: Optional[MinHasher] = None,
    ) -> None:
        self.hasher = hasher if hasher is not None else MinHasher(num_hashes, rng)
        self._sketches: Dict[str, Dict[str, LazoSketch]] = {}

    def add_table(self, name: str, table: Table) -> None:
        sketches: Dict[str, LazoSketch] = {}
        for column in table.schema.categorical_names:
            values = table.unique(column)
            if values:
                sketches[column] = LazoSketch.build(values, self.hasher)
        self.add_sketches(name, sketches)

    def add_sketches(self, name: str, sketches: Dict[str, LazoSketch]) -> None:
        """Index *name* from already-built per-column sketches (warm path)."""
        if name in self._sketches:
            raise SpecificationError(f"table {name!r} already indexed")
        for column, sketch in sketches.items():
            if sketch.signature.hasher_id != self.hasher.hasher_id:
                raise SpecificationError(
                    f"sketch for column {column!r} comes from a different "
                    "MinHasher than this index's"
                )
        self._sketches[name] = dict(sketches)

    def remove_table(self, name: str) -> None:
        """Drop *name* from the index."""
        if name not in self._sketches:
            raise SpecificationError(f"table {name!r} is not indexed")
        del self._sketches[name]

    def column_sketches(self, name: str) -> Dict[str, LazoSketch]:
        """The per-column sketches indexed for *name* (for persistence)."""
        if name not in self._sketches:
            raise SpecificationError(f"table {name!r} is not indexed")
        return dict(self._sketches[name])

    def search(
        self, query: Table, k: int = 10, columns: Optional[Sequence[str]] = None
    ) -> List[UnionCandidate]:
        """Top-*k* unionable tables for *query*, scored by estimated
        optimal alignment.

        Each candidate table's (query column, candidate column) Jaccard
        estimates come from one stacked signature comparison, so scratch
        memory is bounded by the widest table: a row mean of 0/1
        agreements is an exact count over the same length, so each score
        is the float :meth:`LazoSketch.estimate` computes pair by pair.
        """
        if k < 1:
            raise SpecificationError("k must be >= 1")
        if not self._sketches:
            raise EmptyInputError("no tables indexed")
        query_columns = list(columns) if columns else list(query.schema.categorical_names)
        if not query_columns:
            raise SpecificationError("query has no categorical columns")
        query_sketches: Dict[str, LazoSketch] = {}
        for name in query_columns:
            values = query.unique(name)
            if values:
                query_sketches[name] = LazoSketch.build(values, self.hasher)
        if not query_sketches:
            raise EmptyInputError("query columns are all empty")
        ordered_query = sorted(query_sketches)
        query_stack = np.stack(
            [query_sketches[column].signature.values for column in ordered_query]
        )
        # Every query sketch comes from this index's hasher and is
        # non-empty, so checking one against a candidate column checks
        # every pair the alignment compares.
        probe = query_sketches[ordered_query[0]]
        results: List[UnionCandidate] = []
        for table_name, column_sketches in self._sketches.items():
            if not column_sketches:
                continue
            ordered_candidate = sorted(column_sketches)
            for column in ordered_candidate:
                probe.check_comparable(column_sketches[column])
            candidate_stack = np.stack(
                [column_sketches[column].signature.values for column in ordered_candidate]
            )
            scores = (query_stack[:, None] == candidate_stack[None]).mean(axis=2)
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
