"""LSH Ensemble: containment-threshold domain search (Zhu et al., VLDB 2016).

Containment ``|Q ∩ X| / |Q|`` is the right relevance measure for finding
joinable/unionable domains, but plain MinHash LSH indexes Jaccard, whose
relationship to containment depends on the candidate's cardinality.  LSH
Ensemble fixes this by **partitioning the indexed domains by
cardinality**: within a partition whose largest domain has ``u`` values,
a containment threshold ``t`` for a query of size ``q`` translates to
the Jaccard threshold

    J(t, q, u) = t * q / (q + u - t * q)

so each partition runs an ordinary banded MinHash LSH tuned to its own
(stricter or looser) Jaccard threshold at query time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from respdi.discovery.minhash import MinHasher, MinHashSignature
from respdi.errors import EmptyInputError, SpecificationError
from respdi.obs import counted, timed


def containment_to_jaccard(t: float, query_size: int, max_candidate_size: int) -> float:
    """The Jaccard threshold equivalent to containment *t* for a query of
    *query_size* against candidates no larger than *max_candidate_size*."""
    if not 0.0 <= t <= 1.0:
        raise SpecificationError(f"containment threshold {t} out of [0, 1]")
    if query_size < 1 or max_candidate_size < 1:
        raise SpecificationError("sizes must be positive")
    denominator = query_size + max_candidate_size - t * query_size
    return (t * query_size) / denominator if denominator > 0 else 1.0


#: Keys band-tested in one stacked comparison: bounds a query's scratch
#: memory at this many signatures however large a partition grows.
_BAND_BLOCK = 1024


def _choose_bands(num_hashes: int, jaccard_threshold: float) -> Tuple[int, int]:
    """Pick (bands, rows) with bands*rows <= num_hashes whose S-curve
    inflection ``(1/b)^(1/r)`` best matches the threshold."""
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


@dataclass
class _Partition:
    """One cardinality partition: its domains and size bounds."""

    max_size: int
    keys: List[Hashable]
    signatures: Dict[Hashable, MinHashSignature]


def partition_max_map(
    cardinalities: Mapping[Hashable, int], num_partitions: int
) -> Dict[Hashable, int]:
    """Map each domain key to the max cardinality of its partition.

    This is the ensemble's partitioning function factored out as a pure
    function of ``{key: cardinality}``: domains are ordered by
    ``(cardinality, repr(key))`` — a *total* order, so the layout never
    depends on insertion order — and split into ``num_partitions``
    near-equal chunks.  Because the layout is a pure function of the
    domain set, a sharded catalog can recompute the exact global
    partitioning from per-shard cardinality maps and score its local
    domains under it (:func:`scatter_containment_hits`), which is what
    makes scatter-gathered containment results byte-identical to a
    single ensemble over all domains.
    """
    if num_partitions < 1:
        raise SpecificationError("num_partitions must be >= 1")
    ordered = sorted(cardinalities, key=lambda key: (cardinalities[key], repr(key)))
    chunks = np.array_split(np.arange(len(ordered)), num_partitions)
    partition_max: Dict[Hashable, int] = {}
    for chunk in chunks:
        if len(chunk) == 0:
            continue
        keys = [ordered[i] for i in chunk]
        max_size = max(cardinalities[key] for key in keys)
        for key in keys:
            partition_max[key] = max_size
    return partition_max


def _containment_estimate(
    query_signature: MinHashSignature, signature: MinHashSignature, q: int
) -> float:
    """Signature-based containment estimate of the query in *signature*."""
    jaccard = query_signature.jaccard(signature)
    union_bound = q + signature.cardinality
    intersection = (
        jaccard * union_bound / (1.0 + jaccard) if jaccard > 0 else 0.0
    )
    intersection = min(intersection, float(q), float(signature.cardinality))
    return intersection / q


def scatter_containment_hits(
    signatures: Mapping[Hashable, MinHashSignature],
    query_signature: MinHashSignature,
    containment_threshold: float,
    partition_max: Mapping[Hashable, int],
    num_hashes: int,
) -> List[Tuple[Hashable, float]]:
    """Containment hits among *signatures* under a precomputed layout.

    *partition_max* assigns every key its partition's max cardinality
    (:func:`partition_max_map`); it may cover a superset of *signatures*
    — the scatter case, where the layout spans every shard's domains but
    each shard scores only its own.  Candidacy and estimation are
    per-key given the layout, so the union of per-shard results equals
    the single-ensemble result exactly.  Returns unsorted ``(key,
    estimate)`` pairs; callers order them (:class:`LSHEnsemble.query`'s
    sort is ``(-estimate, repr(key))``).
    """
    q = query_signature.cardinality
    by_max: Dict[int, List[Hashable]] = defaultdict(list)
    for key in signatures:
        by_max[partition_max[key]].append(key)
    results: List[Tuple[Hashable, float]] = []
    for max_size, keys in by_max.items():
        jaccard_threshold = containment_to_jaccard(
            containment_threshold, q, max_size
        )
        bands, rows = _choose_bands(num_hashes, jaccard_threshold)
        used = bands * rows
        query_bands = query_signature.values[:used].reshape(bands, rows)
        # One comparison per block of keys: a key is a candidate when
        # every coordinate of at least one band agrees.
        for start in range(0, len(keys), _BAND_BLOCK):
            block = keys[start:start + _BAND_BLOCK]
            stacked = np.stack([signatures[key].values[:used] for key in block])
            agree = stacked.reshape(len(block), bands, rows) == query_bands
            shares_band = agree.all(axis=2).any(axis=1)
            for key, candidate in zip(block, shares_band.tolist()):
                if not candidate:
                    continue
                containment = _containment_estimate(
                    query_signature, signatures[key], q
                )
                if containment >= containment_threshold:
                    results.append((key, containment))
    return results


class LSHEnsemble:
    """Containment search index over many value domains.

    Usage::

        ensemble = LSHEnsemble(num_hashes=128, num_partitions=4, rng=0)
        ensemble.index("tbl.col", values)        # repeat for all domains
        ensemble.freeze()
        hits = ensemble.query(query_values, containment_threshold=0.5)

    ``query`` returns candidate keys whose *estimated* containment of the
    query meets the threshold (LSH recall is probabilistic; the estimate
    used for final filtering is the signature-based one, so results are
    deterministic given the hasher seed).
    """

    def __init__(
        self,
        num_hashes: int = 128,
        num_partitions: int = 4,
        rng=None,
        hasher: Optional[MinHasher] = None,
    ) -> None:
        if num_partitions < 1:
            raise SpecificationError("num_partitions must be >= 1")
        self.hasher = hasher if hasher is not None else MinHasher(num_hashes, rng)
        self.num_partitions = num_partitions
        self._pending: Dict[Hashable, MinHashSignature] = {}
        self._partitions: List[_Partition] = []
        self._frozen = False

    @counted("discovery.lshensemble.domains_indexed")
    def index(self, key: Hashable, values: Iterable[Hashable]) -> None:
        """Add a domain under *key* (must be called before :meth:`freeze`)."""
        self.index_signature(key, self.hasher.signature(values))

    def index_signature(self, key: Hashable, signature: MinHashSignature) -> None:
        """Add a domain from an already-computed signature.

        This is the warm-start path: a catalog that persisted signatures
        can rebuild the ensemble without touching raw values.  The
        signature must come from this ensemble's own hasher.
        """
        if self._frozen:
            raise SpecificationError("cannot index after freeze()")
        if key in self._pending:
            raise SpecificationError(f"duplicate domain key {key!r}")
        if signature.hasher_id != self.hasher.hasher_id:
            raise SpecificationError(
                "signature comes from a different MinHasher than this ensemble's"
            )
        self._pending[key] = signature

    @property
    def signatures(self) -> Dict[Hashable, MinHashSignature]:
        """All indexed domain signatures, keyed as indexed (for persistence)."""
        return dict(self._pending)

    @timed("discovery.lshensemble.freeze")
    def freeze(self) -> None:
        """Partition indexed domains by cardinality; enables querying.

        The layout comes from :func:`partition_max_map`, a pure function
        of ``{key: cardinality}`` with a total (insertion-order-free)
        ordering — the property that lets a sharded catalog reproduce
        this exact partitioning from per-shard metadata.
        """
        if not self._pending:
            raise EmptyInputError("nothing indexed")
        cardinalities = {
            key: signature.cardinality
            for key, signature in self._pending.items()
        }
        partition_max = partition_max_map(cardinalities, self.num_partitions)
        grouped: Dict[int, List[Hashable]] = defaultdict(list)
        for key, max_size in partition_max.items():
            grouped[max_size].append(key)
        self._partitions = [
            _Partition(
                max_size=max_size,
                keys=keys,
                signatures={key: self._pending[key] for key in keys},
            )
            for max_size, keys in sorted(grouped.items())
        ]
        self._frozen = True

    @timed("discovery.lshensemble.query")
    def query(
        self, values: Iterable[Hashable], containment_threshold: float
    ) -> List[Tuple[Hashable, float]]:
        """Keys whose estimated containment of the query >= threshold.

        Returns ``[(key, estimated_containment)]`` sorted by estimate,
        descending (ties broken by ``repr(key)``).
        """
        if not self._frozen:
            raise SpecificationError("call freeze() before query()")
        query_signature = self.hasher.signature(values)
        partition_max = {
            key: partition.max_size
            for partition in self._partitions
            for key in partition.keys
        }
        results = scatter_containment_hits(
            self._pending,
            query_signature,
            containment_threshold,
            partition_max,
            self.hasher.num_hashes,
        )
        results.sort(key=lambda item: (-item[1], repr(item[0])))
        return results
