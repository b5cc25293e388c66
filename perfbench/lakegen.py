"""Seeded inputs: lake CSVs and serve requests, written with the stdlib only.

The program under test sees nothing but these files and request lines.
Shapes (table count, row counts, columns, request mix) are fixed per
workload; the seed only changes cell values and which requests are drawn,
so two seeds produce inputs of the same size and the same cache pressure.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

TOPICS = (
    "sales", "clinic", "census", "survey",
    "loans", "school", "transit", "energy",
)
REGIONS = (
    "north", "south", "east", "west", "central", "coastal",
    "alpine", "delta", "prairie", "harbor", "valley", "upland",
)
WORDS = tuple(
    f"{a}{b}"
    for a in ("bo", "ca", "di", "fe", "ga", "hu", "ki", "lo", "mu", "ne")
    for b in ("ra", "to", "vin", "sel", "dun", "mar", "pol", "qui", "ret", "sum")
)
COLUMNS = (
    ("key", "categorical"),
    ("region", "categorical"),
    ("segment", "categorical"),
    ("amount", "numeric"),
    ("score", "numeric"),
)
SHARED_DOMAIN = 30000
FIRST_NAMES = (
    "ana", "ben", "carla", "dmitri", "eve", "farid", "gina", "hiro",
    "ines", "jonas", "kemal", "lena", "mateo", "nadia", "omar", "priya",
)
LAST_NAMES = (
    "garcia", "smith", "nguyen", "okafor", "muller", "rossi", "tanaka",
    "kowalski", "haddad", "silva", "jensen", "dubois", "ivanova", "khan",
)


@dataclass(frozen=True)
class LakeShape:
    """How many tables, how skewed their row counts, how many keys shared."""

    tables: int
    max_rows: int
    skew: float = 0.9

    def rows(self, index: int) -> int:
        return max(50, int(self.max_rows / (1 + index) ** self.skew))

    def shared(self, index: int) -> bool:
        # A quarter of the tables draw keys from one shared domain.
        return index % 4 == 0


def table_name(index: int) -> str:
    return f"{TOPICS[index % len(TOPICS)]}_{index:02d}"


def key_domain(index: int, shape: LakeShape) -> Tuple[str, int]:
    """``(prefix, size)`` of the key values table *index* draws from."""
    if shape.shared(index):
        return "c", SHARED_DOMAIN
    return f"{TOPICS[index % len(TOPICS)][:3]}{index:02d}-", 4 * shape.rows(index)


def _key(prefix: str, j: int) -> str:
    return f"{prefix}{j:06d}"


def table_rows(
    index: int, shape: LakeShape, seed: int, version: int = 0
) -> List[list]:
    """Cell values of one table; *version* re-draws them at the same shape."""
    rng = random.Random(f"{seed}:{index}:{version}")
    prefix, size = key_domain(index, shape)
    segment_words = WORDS[(index * 7) % 60:(index * 7) % 60 + 40]
    rows = []
    for _ in range(shape.rows(index)):
        amount = "" if rng.random() < 0.01 else f"{rng.lognormvariate(3, 1):.2f}"
        rows.append([
            _key(prefix, rng.randrange(size)),
            REGIONS[min(int(rng.expovariate(0.4)), len(REGIONS) - 1)],
            f"{rng.choice(segment_words)} {rng.choice(WORDS)}",
            amount,
            f"{rng.gauss(50, 15):.3f}",
        ])
    return rows


def write_table(path: Path, columns: Sequence[Tuple[str, str]], rows) -> int:
    """Write a typed CSV (``#types:`` line, header, rows); returns its bytes."""
    with open(path, "w", newline="") as handle:
        handle.write("#types:" + ",".join(ctype for _, ctype in columns) + "\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([name for name, _ in columns])
        writer.writerows(rows)
    return path.stat().st_size


def replace_table(path: Path, columns, rows) -> None:
    """Atomically replace *path* (the way a producer publishes a new file)."""
    tmp = path.with_name(path.name + ".tmp")
    write_table(tmp, columns, rows)
    os.replace(tmp, path)


def write_lake(directory: Path, shape: LakeShape, seed: int) -> Dict[str, object]:
    """Write every lake table; returns bytes and distinct-value counts."""
    directory.mkdir(parents=True, exist_ok=True)
    total = 0
    distinct: set = set()
    for index in range(shape.tables):
        rows = table_rows(index, shape, seed)
        total += write_table(directory / f"{table_name(index)}.csv", COLUMNS, rows)
        for row in rows:
            distinct.update(row[:3])
    return {
        "tables": shape.tables,
        "rows": sum(shape.rows(i) for i in range(shape.tables)),
        "csv_bytes": total,
        "distinct_categorical_values": len(distinct),
    }


# -- serve requests -------------------------------------------------------------

#: Request kinds and their share of the cold (never repeated) stream.
COLD_MIX = (
    ("keyword", 0.20),
    ("join_values", 0.20),
    ("join_csv", 0.15),
    ("containment", 0.15),
    ("union_csv", 0.15),
    ("match_csv", 0.15),
)
CSV_KINDS = ("join_csv", "union_csv", "match_csv")
#: Request CSV files per CSV-backed kind, per second of run.  Each file
#: pairs with K_CHOICES values of k (or of the match threshold), so a
#: 25-second run has 5,000 distinct cold requests per kind: room for
#: about ten times the request rate this host serves.
CSV_POOL_PER_SECOND = 20
K_CHOICES = 10
MATCH_ROWS = 32
MATCH_STRENGTHS = ("exact", "normalized", "fuzzy")
KEYWORD_VOCABULARY = TOPICS + REGIONS
KEYWORD_PAIRS = len(KEYWORD_VOCABULARY) * len(WORDS)


class StreamExhausted(RuntimeError):
    """A connection used up every distinct cold request the run has."""


@dataclass(frozen=True)
class MixShape:
    """The request stream: a hot subset that repeats plus a cold stream."""

    hot_requests: int = 32
    hot_share: float = 0.75
    #: Lines drawn per connection and second before the clock starts;
    #: a faster server draws the rest as it goes.
    pregenerate_per_second: int = 600


class RequestFactory:
    """Builds request objects for one lake; CSV-backed kinds use files."""

    def __init__(self, directory: Path, shape: LakeShape, seed: int, seconds: int) -> None:
        self.directory = directory
        self.shape = shape
        self.seed = seed
        self.pool = CSV_POOL_PER_SECOND * max(1, seconds)
        self.keyword_offset = random.Random(f"{seed}:keyword").randrange(KEYWORD_PAIRS)
        directory.mkdir(parents=True, exist_ok=True)
        self.csvs: Dict[str, List[str]] = {}

    def _keys(self, rng: random.Random, count: int) -> List[str]:
        index = rng.randrange(self.shape.tables)
        prefix, size = key_domain(index, self.shape)
        return [_key(prefix, rng.randrange(size)) for _ in range(count)]

    def write_csv_pools(self) -> None:
        rng = random.Random(f"{self.seed}:csv-pool")
        for kind in CSV_KINDS:
            paths = []
            for n in range(self.pool):
                path = self.directory / f"{kind}-{n:04d}.csv"
                if kind == "join_csv":
                    rows = [[key] for key in self._keys(rng, 16)]
                    write_table(path, [("key", "categorical")], rows)
                elif kind == "union_csv":
                    index = rng.randrange(self.shape.tables)
                    rows = table_rows(index, self.shape, self.seed, 1000 + n)[:40]
                    write_table(path, COLUMNS, rows)
                else:
                    write_table(path, [("name", "categorical")], _dirty_names(rng))
                paths.append(str(path))
            self.csvs[kind] = paths

    def make(self, kind: str, rng: random.Random, ordinal: int) -> dict:
        """One request of *kind*; *ordinal* picks a distinct CSV/k pairing."""
        if kind == "keyword":
            # 7919 is prime to KEYWORD_PAIRS: each block of ordinals maps
            # onto every word pair once, and later blocks raise k.
            n = (ordinal * 7919 + self.keyword_offset) % KEYWORD_PAIRS
            words = [KEYWORD_VOCABULARY[n % len(KEYWORD_VOCABULARY)],
                     WORDS[n // len(KEYWORD_VOCABULARY)]]
            return {"op": "keyword", "text": " ".join(words), "k": 10 + ordinal // KEYWORD_PAIRS}
        if kind == "join_values":
            return {"op": "join", "values": self._keys(rng, 16), "k": 5}
        if kind == "containment":
            return {
                "op": "containment", "values": self._keys(rng, 24),
                "threshold": 0.5, "k": 5,
            }
        if ordinal >= self.pool * K_CHOICES:
            raise StreamExhausted(
                f"{kind}: all {self.pool * K_CHOICES} distinct CSV/k pairings are "
                "used; raise CSV_POOL_PER_SECOND"
            )
        path = self.csvs[kind][ordinal % self.pool]
        k = 1 + (ordinal // self.pool) % K_CHOICES
        if kind == "join_csv":
            return {"op": "join", "csv": path, "column": "key", "k": k}
        if kind == "union_csv":
            return {"op": "union", "csv": path, "k": k}
        return {
            "op": "match", "csv": path,
            "match_strength": MATCH_STRENGTHS[ordinal % len(MATCH_STRENGTHS)],
            "keys": ["name"], "threshold": round(0.79 + 0.01 * k, 2),
        }

    def streams(self, connections: int, mix: MixShape, seconds: int) -> List["RequestStream"]:
        """One stream per connection, each with its first lines drawn."""
        hot_rng = random.Random(f"{self.seed}:hot")
        kinds = [kind for kind, _ in COLD_MIX]
        hot = [
            _line(self.make(kinds[n % len(kinds)], hot_rng, n))
            for n in range(mix.hot_requests)
        ]
        streams = [
            RequestStream(self, mix, hot, connection, connections)
            for connection in range(connections)
        ]
        for stream in streams:
            stream[mix.pregenerate_per_second * max(1, seconds) - 1]
        return streams


class RequestStream:
    """One connection's request lines, drawn in order as they are needed.

    Line *n* depends only on the seed, the connection and *n*.  Cold
    requests never repeat: connection *c* of *C* takes the ordinals
    ``c, c + C, c + 2C, ...`` of each kind, above the hot set's.
    """

    def __init__(self, factory: RequestFactory, mix: MixShape, hot: List[bytes],
                 connection: int, connections: int) -> None:
        self.factory = factory
        self.mix = mix
        self.hot = hot
        self.connections = connections
        self.rng = random.Random(f"{factory.seed}:requests:{connection}")
        self.kinds = [kind for kind, _ in COLD_MIX]
        self.weights = [weight for _, weight in COLD_MIX]
        self.ordinals = {kind: mix.hot_requests + connection for kind in self.kinds}
        self.lines: List[bytes] = []

    def __len__(self) -> int:
        return len(self.lines)

    def __getitem__(self, n: int) -> bytes:
        lines, rng = self.lines, self.rng
        while n >= len(lines):
            if rng.random() < self.mix.hot_share:
                lines.append(rng.choice(self.hot))
                continue
            kind = rng.choices(self.kinds, self.weights)[0]
            lines.append(_line(self.factory.make(kind, rng, self.ordinals[kind])))
            self.ordinals[kind] += self.connections
        return lines[n]


def _dirty_names(rng: random.Random) -> List[List[str]]:
    """MATCH_ROWS person names with near-duplicates (case, accents, typos)."""
    rows = []
    while len(rows) < MATCH_ROWS:
        name = f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}"
        rows.append([name])
        if rng.random() < 0.5:
            variant = name.title() if rng.random() < 0.5 else name.replace("a", "á", 1)
            if rng.random() < 0.3 and len(variant) > 4:
                cut = rng.randrange(1, len(variant) - 1)
                variant = variant[:cut] + variant[cut + 1:]
            rows.append([variant])
    rows = rows[:MATCH_ROWS]
    rng.shuffle(rows)
    return rows


def _line(request: dict) -> bytes:
    return (json.dumps(request) + "\n").encode("utf-8")
