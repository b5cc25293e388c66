"""Multi-strength matcher views: Exact, Normalized, Fuzzy.

The paper's §2 argues that representation is decided *by the pipeline
itself*: which matcher strength a tenant picks changes who gets linked —
and therefore who counts as covered downstream.  This module makes that
choice a first-class, measurable knob.  One interface, three strengths:

* **Exact** — raw key equality.  Two records link iff their key tuples
  are byte-equal.  Free, precise, and blind to every transcription
  artifact (case, punctuation, token order, typos).
* **Normalized** — equality after canonicalization
  (:func:`canonicalize`: casefold, diacritic stripping, whitespace and
  punctuation collapse, token sort).  Recovers formatting variants;
  still blind to typos and nicknames.
* **Fuzzy** — similarity-thresholded matching over blocked candidate
  pairs (reusing :class:`~respdi.linkage.matching.RecordMatcher`),
  closed transitively via single-link clustering.  Recovers typos at
  the cost of compute and precision risk.

The strengths are **nested by construction**: equal raw keys imply
equal canonical keys (canonicalization is a function), and the fuzzy
view seeds its match graph with the normalized view's edges before
adding similarity edges, so for any table::

    ExactView.links ⊆ NormalizedView.links ⊆ FuzzyView.links

A link set is the *transitive closure* of the pairwise decisions — all
within-cluster pairs — so nesting of edges yields nesting of link sets,
and the monotonicity is testable per request, not just on average.
"""

from __future__ import annotations

import functools
import unicodedata
from dataclasses import dataclass, field
from typing import (
    Callable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from respdi import obs
from respdi.errors import SpecificationError
from respdi.linkage.blocking import key_blocking, sorted_neighborhood_blocking
from respdi.linkage.matching import (
    FieldComparator,
    RecordMatcher,
    cluster_matches,
)
from respdi.linkage.similarity import jaro_winkler_similarity
from respdi.parallel import ExecutionContext
from respdi.table import Table

Pair = Tuple[int, int]

#: The matcher strengths, weakest first.  Every consumer that ranks or
#: steps through strengths (the evaluation harness, the CLI, the serve
#: path) iterates this tuple, so the order is defined exactly once.
STRENGTH_ORDER: Tuple[str, ...] = ("exact", "normalized", "fuzzy")


def canonicalize(value: Optional[object]) -> Optional[str]:
    """Canonical key form: the Normalized view's equality domain.

    Casefolds, strips diacritics (NFKD decomposition, combining marks
    dropped), maps every non-alphanumeric character to a space, collapses
    whitespace, and sorts the remaining tokens — so ``"Núñez, Ana"`` and
    ``"ana nunez"`` canonicalize identically.  ``None`` stays ``None``
    (an unrecorded key is evidence of nothing and never links).

    The transform is idempotent — ``canonicalize(canonicalize(x)) ==
    canonicalize(x)`` — which the property suite enforces; equality of
    canonical forms is therefore a genuine equivalence relation.

    The fuzzy view canonicalizes every key for blocking and again for
    each scored pair, so the string transform is memoized on
    ``str(value)``, bounded at 4,096 forms.
    """
    if value is None:
        return None
    return _canonical_form(str(value))


@functools.lru_cache(maxsize=4096)
def _canonical_form(text: str) -> str:
    """:func:`canonicalize`'s transform of one string (memoized)."""
    # One pass can expose new decomposables (a casefold may produce a
    # precomposed character); iterate to the fixpoint so the result is
    # idempotent by construction.  Two passes settle every practical
    # input; the bound is defensive.
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


@dataclass(frozen=True)
class MatcherLinks:
    """One view's verdict on one table: the transitively closed link set.

    ``pairs`` holds every within-cluster pair ``(i, j)`` with ``i < j``;
    ``clusters`` the connected components (singletons included, sorted
    by smallest member) — the same shape
    :func:`~respdi.linkage.matching.cluster_matches` produces.
    """

    strength: str
    n_records: int
    pairs: frozenset = field(default_factory=frozenset)
    clusters: Tuple[Tuple[int, ...], ...] = ()

    @property
    def num_links(self) -> int:
        return len(self.pairs)

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def sorted_pairs(self) -> List[Pair]:
        """The link set as a sorted list — the deterministic render form."""
        return sorted(self.pairs)


def _closure(strength: str, n_records: int, edges: Set[Pair]) -> MatcherLinks:
    """Close *edges* transitively into a :class:`MatcherLinks`."""
    clusters = cluster_matches(n_records, edges)
    pairs: Set[Pair] = set()
    for members in clusters:
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                pairs.add((members[a], members[b]))
    return MatcherLinks(
        strength=strength,
        n_records=n_records,
        pairs=frozenset(pairs),
        clusters=tuple(tuple(members) for members in clusters),
    )


class _RawKey:
    """Blocking key: the raw key tuple (picklable, hashseed-free)."""

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence[str]) -> None:
        self.columns = tuple(columns)

    def __call__(self, row: dict) -> Optional[Tuple]:
        key = tuple(row.get(column) for column in self.columns)
        if any(part is None for part in key):
            return None
        return tuple(str(part) for part in key)


class _CanonicalKey:
    """Blocking key: the canonicalized key tuple."""

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence[str]) -> None:
        self.columns = tuple(columns)

    def __call__(self, row: dict) -> Optional[Tuple]:
        key = tuple(canonicalize(row.get(column)) for column in self.columns)
        if any(part is None for part in key):
            return None
        return key


class CanonicalSimilarity:
    """Similarity over canonical forms (module-level, hence picklable).

    Wraps a raw string similarity so the fuzzy view scores what the
    normalized view equates: ``sim(canonicalize(a), canonicalize(b))``.
    Identical canonical forms score exactly 1.0 regardless of the
    wrapped function, keeping the fuzzy threshold semantics aligned
    with the normalized view for any threshold <= 1.
    """

    __slots__ = ("similarity",)

    def __init__(
        self, similarity: Callable[[Optional[str], Optional[str]], float]
    ) -> None:
        self.similarity = similarity

    def __call__(self, a: object, b: object) -> float:
        ca = canonicalize(a)
        cb = canonicalize(b)
        if ca is None or cb is None:
            return 0.0
        if ca == cb:
            return 1.0
        return float(self.similarity(ca, cb))


class MatcherView:
    """One matcher strength behind a uniform interface.

    Subclasses implement :meth:`_edges` — the pairwise decisions — and
    inherit :meth:`link`, which closes them transitively and reports the
    result as a :class:`MatcherLinks`.
    """

    strength: str = "abstract"

    def __init__(self, key_columns: Sequence[str]) -> None:
        if not key_columns:
            raise SpecificationError("a matcher view needs key columns")
        self.key_columns: Tuple[str, ...] = tuple(key_columns)

    def _edges(
        self,
        table: Table,
        context: Optional[ExecutionContext],
        n_jobs: Optional[int],
    ) -> Set[Pair]:
        raise NotImplementedError

    def link(
        self,
        table: Table,
        context: Optional[ExecutionContext] = None,
        n_jobs: Optional[int] = None,
    ) -> MatcherLinks:
        """Link *table*'s records at this view's strength."""
        table.schema.require(list(self.key_columns))
        with obs.trace(
            "linkage.views.link", strength=self.strength, records=len(table)
        ):
            edges = self._edges(table, context, n_jobs)
            links = _closure(self.strength, len(table), edges)
        obs.inc(f"linkage.views.{self.strength}.links", links.num_links)
        return links


class ExactView(MatcherView):
    """Raw key equality: the strictest (and cheapest) strength."""

    strength = "exact"

    def _edges(self, table, context, n_jobs):
        return key_blocking(table, _RawKey(self.key_columns))


class NormalizedView(MatcherView):
    """Equality after :func:`canonicalize` — formatting-proof linking."""

    strength = "normalized"

    def _edges(self, table, context, n_jobs):
        return key_blocking(table, _CanonicalKey(self.key_columns))


class FuzzyView(MatcherView):
    """Similarity-thresholded single-link clustering over blocked pairs.

    Candidate pairs come from two sources whose union is the match
    graph's edge set:

    1. the **normalized seed** — every canonical-equality pair (so the
       fuzzy view can never un-link what normalization links, the
       containment guarantee);
    2. **sorted-neighborhood blocking** over the canonical key, scored
       by a :class:`~respdi.linkage.matching.RecordMatcher` whose
       comparators default to canonical Jaro-Winkler per key column;
       pairs scoring at or above *threshold* become edges.

    Scoring fans out over :mod:`respdi.parallel` (the matcher chunks
    pairs deterministically), so serial and threaded runs produce
    byte-identical link sets.
    """

    strength = "fuzzy"

    def __init__(
        self,
        key_columns: Sequence[str],
        threshold: float = 0.85,
        window: int = 8,
        comparators: Optional[Sequence[FieldComparator]] = None,
    ) -> None:
        super().__init__(key_columns)
        if window < 2:
            raise SpecificationError("window must be >= 2")
        self.window = int(window)
        if comparators is None:
            comparators = [
                FieldComparator(
                    column=column,
                    similarity=CanonicalSimilarity(jaro_winkler_similarity),
                )
                for column in self.key_columns
            ]
        self.matcher = RecordMatcher(list(comparators), threshold=threshold)

    @property
    def threshold(self) -> float:
        return self.matcher.threshold

    def _edges(self, table, context, n_jobs):
        seed = key_blocking(table, _CanonicalKey(self.key_columns))
        candidates = sorted_neighborhood_blocking(
            table, _CanonicalKey(self.key_columns), window=self.window
        )
        to_score = candidates - seed
        edges: Set[Pair] = set(seed)
        if to_score:
            result = self.matcher.match(
                table, to_score, context=context, n_jobs=n_jobs
            )
            edges |= result.matches
        return edges


def build_view(
    strength: str,
    key_columns: Sequence[str],
    threshold: float = 0.85,
    window: int = 8,
    comparators: Optional[Sequence[FieldComparator]] = None,
) -> MatcherView:
    """Construct the view for *strength* (``exact|normalized|fuzzy``).

    The single factory every entry point (pipeline, serve path, CLI,
    harness) routes through, so a strength name means the same matcher
    everywhere — the precondition for the serve-path differential.
    """
    if strength == "exact":
        return ExactView(key_columns)
    if strength == "normalized":
        return NormalizedView(key_columns)
    if strength == "fuzzy":
        return FuzzyView(
            key_columns,
            threshold=threshold,
            window=window,
            comparators=comparators,
        )
    raise SpecificationError(
        f"unknown match strength {strength!r}; pick one of "
        f"{', '.join(STRENGTH_ORDER)}"
    )
