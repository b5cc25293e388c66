"""Lazo-style coupled estimation of Jaccard similarity and containment.

Fernandez et al. (ICDE 2019) observed that a MinHash signature plus the
exact set cardinality suffice to estimate *both* Jaccard similarity and
containment: from the Jaccard estimate ``J`` and cardinalities
``|A|, |B|`` the intersection is ``J * (|A| + |B|) / (1 + J)``, from
which containment in either direction follows.  This removes the need
for a separate containment sketch in data-lake search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from respdi.discovery.minhash import MinHasher, MinHashSignature
from respdi.errors import SpecificationError


@dataclass(frozen=True)
class LazoEstimate:
    """Joint similarity estimate between a query set A and candidate B."""

    jaccard: float
    intersection: float
    containment_of_query: float  # |A ∩ B| / |A|
    containment_of_candidate: float  # |A ∩ B| / |B|


@dataclass(frozen=True)
class LazoSketch:
    """MinHash signature plus exact cardinality for one value set."""

    signature: MinHashSignature
    cardinality: int

    @classmethod
    def build(cls, values: Iterable[Hashable], hasher: MinHasher) -> "LazoSketch":
        signature = hasher.signature(values)
        return cls(signature=signature, cardinality=signature.cardinality)

    def check_comparable(self, other: "LazoSketch") -> None:
        """Raise unless :meth:`estimate` can compare this sketch with
        *other*: signatures of one hasher and length, both sets non-empty."""
        self.signature.check_comparable(other.signature)
        if self.cardinality <= 0 or other.cardinality <= 0:
            raise SpecificationError("sketch cardinalities must be positive")

    def estimate(self, other: "LazoSketch") -> LazoEstimate:
        """Estimate Jaccard/containment between this sketch (query) and
        *other* (candidate)."""
        self.check_comparable(other)
        jaccard = self.signature.jaccard(other.signature)
        union_bound = self.cardinality + other.cardinality
        intersection = jaccard * union_bound / (1.0 + jaccard) if jaccard > 0 else 0.0
        # The estimator can slightly exceed the smaller cardinality due to
        # signature noise; clamp to the feasible region.
        intersection = min(
            intersection, float(self.cardinality), float(other.cardinality)
        )
        return LazoEstimate(
            jaccard=jaccard,
            intersection=intersection,
            containment_of_query=intersection / self.cardinality,
            containment_of_candidate=intersection / other.cardinality,
        )
