"""MinHash signatures for Jaccard estimation.

A :class:`MinHasher` owns ``k`` universal hash functions over the
Mersenne-prime field ``2^31 - 1``; :meth:`MinHasher.signature` maps a
value set to the elementwise minimum of each hash over the set.  For two
sets, the fraction of agreeing signature coordinates is an unbiased
estimator of their Jaccard similarity.  Signatures from the *same*
hasher are comparable; mixing hashers is a caller bug and is detected.

Values are first reduced to stable 32-bit integers with blake2b (the
builtin ``hash`` is salted per process, which would make signatures
non-reproducible across runs).  With 32-bit value hashes and 31-bit
coefficients every product fits in ``uint64``, so signing is fully
vectorized.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from respdi._rng import RngLike, ensure_rng
from respdi.errors import EmptyInputError, SpecificationError
from respdi.obs import timed
from respdi.table.hashing import minhash_mins, stable_hash32_array

_MERSENNE_PRIME = np.uint64((1 << 31) - 1)


def _stable_hash32(value: Hashable) -> int:
    """Deterministic 32-bit hash of a value (stable across processes).

    Scalar reference; batch signing goes through
    :func:`respdi.table.hashing.stable_hash32_array`, which is proven
    byte-identical to this by the differential suite.
    """
    digest = hashlib.blake2b(repr(value).encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class MinHashSignature:
    """A MinHash signature: coordinate minima plus the set cardinality."""

    values: np.ndarray
    cardinality: int
    hasher_id: int

    def __len__(self) -> int:
        return len(self.values)

    def check_comparable(self, other: "MinHashSignature") -> None:
        """Raise unless *other* comes from the same hasher at the same length."""
        if self.hasher_id != other.hasher_id:
            raise SpecificationError(
                "signatures come from different MinHashers and are not comparable"
            )
        if len(self.values) != len(other.values):
            raise SpecificationError("signature lengths differ")

    def jaccard(self, other: "MinHashSignature") -> float:
        """Estimated Jaccard similarity with *other*."""
        self.check_comparable(other)
        return float((self.values == other.values).mean())


class MinHasher:
    """A family of ``num_hashes`` universal hash functions.

    ``h_i(x) = (a_i * stable32(x) + b_i) mod (2^31 - 1)``; coefficients
    are drawn from *rng* so experiments can fix a seed.
    """

    # itertools.count.__next__ is atomic under the GIL, so hashers built
    # concurrently (the threads backend) can never mint duplicate ids —
    # a duplicate would silently defeat the mixed-hasher comparison guard.
    _ids = itertools.count()

    def __init__(self, num_hashes: int = 128, rng: RngLike = None) -> None:
        if num_hashes < 1:
            raise SpecificationError("num_hashes must be >= 1")
        generator = ensure_rng(rng)
        self.num_hashes = num_hashes
        prime = int(_MERSENNE_PRIME)
        self._a = generator.integers(1, prime, size=num_hashes, dtype=np.uint64)
        self._b = generator.integers(0, prime, size=num_hashes, dtype=np.uint64)
        self.hasher_id = next(MinHasher._ids)

    @classmethod
    def from_coefficients(cls, a: np.ndarray, b: np.ndarray) -> "MinHasher":
        """Rebuild a hasher from persisted coefficient arrays.

        The reconstructed hasher produces signatures byte-identical to
        the original's, but carries a fresh ``hasher_id``: persisted
        signatures must be re-tagged with it on load (mixing ids is how
        cross-hasher comparison bugs are caught in memory).
        """
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        if a.ndim != 1 or a.shape != b.shape or a.size < 1:
            raise SpecificationError(
                "coefficient arrays must be equal-length 1-D and non-empty"
            )
        prime = int(_MERSENNE_PRIME)
        if int(a.max()) >= prime or int(a.min()) < 1 or int(b.max()) >= prime:
            raise SpecificationError(
                "coefficients out of range for the 2^31 - 1 field"
            )
        hasher = cls.__new__(cls)
        hasher.num_hashes = int(a.size)
        hasher._a = a
        hasher._b = b
        hasher.hasher_id = next(MinHasher._ids)
        return hasher

    @property
    def coefficients(self) -> "tuple[np.ndarray, np.ndarray]":
        """Copies of the ``(a, b)`` coefficient arrays (for persistence)."""
        return self._a.copy(), self._b.copy()

    @property
    def fingerprint(self) -> str:
        """Stable blake2b hex digest of the coefficient arrays.

        Two hashers with equal fingerprints produce identical signatures
        for identical inputs, so persisted signatures are only loadable
        under a hasher whose fingerprint matches the one recorded at
        save time.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(self._a.tobytes())
        digest.update(self._b.tobytes())
        return digest.hexdigest()

    @timed("discovery.minhash.signature")
    def signature(self, values: Iterable[Hashable]) -> MinHashSignature:
        """Signature of the distinct values in *values*."""
        distinct = set(values)
        if not distinct:
            raise EmptyInputError("cannot sign an empty set")
        # Batched/memoized value hashing + chunked in-place transform;
        # a_i * h_j + b_i fits in uint64 (31 + 32 bits), and the minima
        # are bit-identical to the seed one-shot broadcast.
        hashes = stable_hash32_array(distinct)
        mins = minhash_mins(self._a, self._b, hashes)
        return MinHashSignature(
            mins, cardinality=len(distinct), hasher_id=self.hasher_id
        )
