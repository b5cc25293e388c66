"""A unified discovery facade over a registered data lake.

:class:`DataLakeIndex` combines the discovery primitives into the
interface a responsible-integration pipeline actually calls:

* keyword search over metadata;
* unionable-table search (sketch-based alignment);
* joinable-column search (exact overlap);
* containment-threshold domain search (LSH Ensemble);
* **unbiased feature discovery** (tutorial §5): rank joinable numeric
  features by estimated post-join correlation with the query's target
  while *penalizing* association with the query's sensitive attribute —
  "informative but not biased" made operational.

All sketch-based sub-indexes share one :class:`MinHasher`, so a table is
sketched exactly once.  The per-table sketch state is factored into
:class:`TableArtifacts` (built by :func:`build_table_artifacts`): the
cold path builds artifacts from a :class:`~respdi.table.Table` and
registers them; the warm path (:mod:`respdi.catalog`) deserializes the
same artifacts from disk and registers them without touching raw data —
which is what makes warm and cold query results identical.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, MutableMapping, Optional, Tuple

import numpy as np

from respdi.discovery.correlation_sketches import CorrelationSketch
from respdi.discovery.joinability import JoinabilityIndex, JoinCandidate
from respdi.discovery.keyword import KeywordHit, KeywordIndex, table_token_counts
from respdi.discovery.lazo import LazoSketch
from respdi.discovery.lshensemble import LSHEnsemble
from respdi.discovery.minhash import MinHasher
from respdi.discovery.unionsearch import UnionCandidate, UnionSearch
from respdi.errors import EmptyInputError, SpecificationError
from respdi.obs import counted, timed
from respdi.parallel import ExecutionContext, map_tables
from respdi.stats.dependence import correlation_ratio, pearson_correlation
from respdi.table import Table


@dataclass(frozen=True)
class FeatureCandidate:
    """A discovered joinable feature, scored for use and for bias."""

    table_name: str
    key_column: str
    feature_column: str
    estimated_target_correlation: float
    estimated_sensitive_association: float
    score: float
    sample_size: int


@dataclass
class TableArtifacts:
    """Everything the index keeps per registered table.

    ``column_values`` holds the distinct values of each non-empty
    categorical column (the exact joinability substrate);
    ``column_sketches`` the per-column Lazo sketches (union + containment
    search); ``token_counts`` the keyword document; ``feature_sketches``
    the per-(key column, feature column) correlation sketches.
    """

    name: str
    description: Optional[str]
    schema: List[Tuple[str, str]]
    row_count: int
    token_counts: Counter
    column_values: Dict[str, List[Hashable]]
    column_sketches: Dict[str, LazoSketch]
    feature_sketches: Dict[Tuple[str, str], CorrelationSketch] = field(
        default_factory=dict
    )


def build_table_artifacts(
    name: str,
    table: Table,
    description: Optional[str] = None,
    hasher: Optional[MinHasher] = None,
    sketch_size: int = 64,
    values_per_column: int = 50,
) -> TableArtifacts:
    """Sketch *table* once into the artifacts every sub-index consumes."""
    if hasher is None:
        raise SpecificationError("build_table_artifacts requires a hasher")
    # One `unique` pass per categorical column, shared by the keyword
    # document, the joinability substrate, and the Lazo sketches.
    unique_values: Dict[str, List[Hashable]] = {
        column: table.unique(column)
        for column in table.schema.categorical_names
    }
    token_counts = table_token_counts(
        name,
        table,
        description,
        values_per_column=values_per_column,
        unique_values=unique_values,
    )
    column_values: Dict[str, List[Hashable]] = {}
    column_sketches: Dict[str, LazoSketch] = {}
    for column, values in unique_values.items():
        if not values:
            continue
        column_values[column] = values
        column_sketches[column] = LazoSketch.build(values, hasher)
    feature_sketches: Dict[Tuple[str, str], CorrelationSketch] = {}
    for key_column in table.schema.categorical_names:
        keys = table.column(key_column)
        for feature_column in table.schema.numeric_names:
            values = table.column(feature_column)
            try:
                sketch = CorrelationSketch.build(keys, values, size=sketch_size)
            except EmptyInputError:
                continue
            feature_sketches[(key_column, feature_column)] = sketch
    return TableArtifacts(
        name=name,
        description=description,
        schema=[(spec.name, spec.ctype.value) for spec in table.schema],
        row_count=len(table),
        token_counts=token_counts,
        column_values=column_values,
        column_sketches=column_sketches,
        feature_sketches=feature_sketches,
    )


class _ArtifactTask:
    """Sketch one ``(name, table)`` pair into :class:`TableArtifacts`.

    A module-level class (not a closure) so the ``processes`` backend
    can pickle it; the shared hasher rides along by value, which is safe
    because signing only *reads* its coefficient arrays.
    """

    __slots__ = ("descriptions", "hasher", "sketch_size", "values_per_column")

    def __init__(self, descriptions, hasher, sketch_size, values_per_column):
        self.descriptions = descriptions
        self.hasher = hasher
        self.sketch_size = sketch_size
        self.values_per_column = values_per_column

    def __call__(self, name: str, table: Table) -> TableArtifacts:
        return build_table_artifacts(
            name,
            table,
            self.descriptions.get(name),
            hasher=self.hasher,
            sketch_size=self.sketch_size,
            values_per_column=self.values_per_column,
        )


class DataLakeIndex:
    """Register tables once; run every flavor of discovery against them."""

    def __init__(
        self,
        num_hashes: int = 128,
        sketch_size: int = 64,
        rng=None,
        num_partitions: int = 4,
        hasher: Optional[MinHasher] = None,
    ) -> None:
        self.hasher = hasher if hasher is not None else MinHasher(num_hashes, rng)
        self.keyword = KeywordIndex()
        self.joinability = JoinabilityIndex()
        self.union = UnionSearch(hasher=self.hasher)
        self.sketch_size = sketch_size
        self.num_partitions = num_partitions
        self.tables: MutableMapping[str, Table] = {}
        self._registered: Dict[str, TableArtifacts] = {}
        self._feature_sketches: Dict[Tuple[str, str, str], CorrelationSketch] = {}
        self._domain_signatures: Dict[Tuple[str, str], object] = {}
        self._containment: Optional[LSHEnsemble] = None

    @property
    def table_names(self) -> List[str]:
        """Registered table names, in registration order."""
        return list(self._registered)

    @property
    def domain_signatures(self) -> Dict[Tuple[str, str], object]:
        """``{(table, column): MinHashSignature}`` for every indexed domain.

        The substrate scatter-gather containment search scores shard-
        locally under a globally computed partition layout (see
        :func:`respdi.discovery.lshensemble.scatter_containment_hits`).
        """
        return dict(self._domain_signatures)

    def artifacts(self, name: str) -> TableArtifacts:
        """The artifacts registered for *name* (for persistence)."""
        if name not in self._registered:
            raise SpecificationError(f"table {name!r} is not registered")
        return self._registered[name]

    @timed("discovery.lake_index.register")
    def register(
        self, name: str, table: Table, description: Optional[str] = None
    ) -> None:
        """Add *table* to every sub-index (cold path: sketches it now)."""
        if name in self._registered:
            raise SpecificationError(f"table {name!r} already registered")
        artifacts = build_table_artifacts(
            name,
            table,
            description,
            hasher=self.hasher,
            sketch_size=self.sketch_size,
            values_per_column=self.keyword.values_per_column,
        )
        self.register_artifacts(artifacts, table=table)

    @timed("discovery.lake_index.register_tables")
    def register_tables(
        self,
        tables: Dict[str, Table],
        descriptions: Optional[Dict[str, str]] = None,
        context: Optional[ExecutionContext] = None,
        n_jobs: Optional[int] = None,
    ) -> None:
        """Bulk cold registration: sketch every table, fanning out per table.

        Sketching — the expensive part — runs under the resolved
        :class:`~respdi.parallel.ExecutionContext`; registration itself
        happens serially in input order, so the resulting index is
        identical to calling :meth:`register` in a loop whatever the
        backend (the engine's serial-equivalence contract).
        """
        descriptions = dict(descriptions or {})
        for name in tables:
            if name in self._registered:
                raise SpecificationError(f"table {name!r} already registered")
        task = _ArtifactTask(
            descriptions,
            self.hasher,
            self.sketch_size,
            self.keyword.values_per_column,
        )
        artifacts = map_tables(
            task,
            tables,
            context=context,
            n_jobs=n_jobs,
            label="discovery.lake_index.register_tables",
        )
        for name, table in tables.items():
            self.register_artifacts(artifacts[name], table=table)

    def register_artifacts(
        self, artifacts: TableArtifacts, table: Optional[Table] = None
    ) -> None:
        """Add a table from precomputed :class:`TableArtifacts` (warm path).

        When *table* is omitted the index serves every sketch-backed
        query; only :attr:`tables` (raw-data access) stays empty for it.
        """
        name = artifacts.name
        if name in self._registered:
            raise SpecificationError(f"table {name!r} already registered")
        self.keyword.add_document(name, artifacts.token_counts)
        for column, values in artifacts.column_values.items():
            self.joinability.add_column((name, column), values)
        self.union.add_sketches(name, artifacts.column_sketches)
        for column, sketch in artifacts.column_sketches.items():
            self._domain_signatures[(name, column)] = sketch.signature
        for (key_column, feature_column), sketch in artifacts.feature_sketches.items():
            self._feature_sketches[(name, key_column, feature_column)] = sketch
        self._registered[name] = artifacts
        self._containment = None
        if table is not None:
            self.tables[name] = table

    def unregister(self, name: str) -> None:
        """Remove *name* from every sub-index."""
        if name not in self._registered:
            raise SpecificationError(f"table {name!r} is not registered")
        artifacts = self._registered.pop(name)
        self.keyword.remove_table(name)
        self.joinability.remove_table(name)
        self.union.remove_table(name)
        for column in artifacts.column_sketches:
            del self._domain_signatures[(name, column)]
        for key_column, feature_column in artifacts.feature_sketches:
            del self._feature_sketches[(name, key_column, feature_column)]
        self._containment = None
        self.tables.pop(name, None)

    # -- search modes --------------------------------------------------------

    @counted("discovery.lake_index.keyword_queries")
    def keyword_search(self, query: str, k: int = 10) -> List[KeywordHit]:
        return self.keyword.search(query, k)

    @timed("discovery.lake_index.union_query")
    def unionable_tables(self, query: Table, k: int = 10) -> List[UnionCandidate]:
        return self.union.search(query, k)

    @timed("discovery.lake_index.join_query")
    def joinable_columns(
        self, values, k: int = 10, min_overlap: int = 1
    ) -> List[JoinCandidate]:
        return self.joinability.query(values, k, min_overlap)

    @timed("discovery.lake_index.containment_query")
    def containment_search(
        self, values, containment_threshold: float, k: Optional[int] = None
    ) -> List[Tuple[Tuple[str, str], float]]:
        """Columns whose domains contain the query set above the threshold.

        Returns ``[((table, column), estimated_containment)]`` sorted by
        estimate, descending.  The LSH Ensemble is rebuilt lazily from
        the shared-hasher domain signatures when the registered set has
        changed — partitioning is cheap, sketching is not, and the
        signatures are already in hand.
        """
        if k is not None and k < 1:
            raise SpecificationError("k must be >= 1")
        if not self._domain_signatures:
            raise EmptyInputError("no tables registered")
        if self._containment is None:
            ensemble = LSHEnsemble(
                hasher=self.hasher, num_partitions=self.num_partitions
            )
            for key, signature in self._domain_signatures.items():
                ensemble.index_signature(key, signature)
            ensemble.freeze()
            self._containment = ensemble
        hits = self._containment.query(values, containment_threshold)
        return hits[:k] if k is not None else hits

    @timed("discovery.lake_index.feature_query")
    def discover_features(
        self,
        query: Table,
        key_column: str,
        target_column: str,
        sensitive_column: Optional[str] = None,
        k: int = 10,
        bias_penalty: float = 1.0,
        min_sample: int = 3,
    ) -> List[FeatureCandidate]:
        """Unbiased feature discovery.

        For every registered (table, key, numeric feature) sketch, the
        candidate's retained keys are joined against the *local* query
        table (fully known, no sketching needed on the query side) to
        estimate, on that coordinated sample:

        * Pearson correlation between the feature and ``target_column``;
        * correlation ratio between the feature and ``sensitive_column``.

        Candidates are ranked by
        ``|target correlation| - bias_penalty * sensitive association``
        — the §5 "informative but not biased" objective.
        """
        query.schema.require([key_column, target_column])
        if not query.schema[target_column].is_numeric:
            raise SpecificationError("target_column must be numeric")
        if sensitive_column is not None:
            query.schema.require([sensitive_column])
        if bias_penalty < 0:
            raise SpecificationError("bias_penalty must be non-negative")

        target_by_key: Dict[Hashable, float] = {}
        sensitive_by_key: Dict[Hashable, Hashable] = {}
        key_values = query.column(key_column)
        target_values = np.asarray(query.column(target_column), dtype=float)
        sensitive_values = (
            query.column(sensitive_column) if sensitive_column else None
        )
        for i, key in enumerate(key_values):
            if key is None or np.isnan(target_values[i]):
                continue
            if key not in target_by_key:
                target_by_key[key] = target_values[i]
                if sensitive_values is not None:
                    sensitive_by_key[key] = sensitive_values[i]

        if not target_by_key:
            raise EmptyInputError("query has no usable (key, target) pairs")

        results: List[FeatureCandidate] = []
        for (name, cand_key, cand_feature), sketch in self._feature_sketches.items():
            pairs = [
                (key, value)
                for _, key, value in sketch.entries
                if key in target_by_key
            ]
            if len(pairs) < min_sample:
                continue
            feature_sample = np.array([value for _, value in pairs])
            target_sample = np.array([target_by_key[key] for key, _ in pairs])
            correlation = pearson_correlation(feature_sample, target_sample)
            if sensitive_column is not None:
                categories = [sensitive_by_key.get(key) for key, _ in pairs]
                association = correlation_ratio(categories, feature_sample)
            else:
                association = 0.0
            score = abs(correlation) - bias_penalty * association
            results.append(
                FeatureCandidate(
                    table_name=name,
                    key_column=cand_key,
                    feature_column=cand_feature,
                    estimated_target_correlation=correlation,
                    estimated_sensitive_association=association,
                    score=score,
                    sample_size=len(pairs),
                )
            )
        results.sort(key=lambda c: (-c.score, c.table_name, c.feature_column))
        return results[:k]
