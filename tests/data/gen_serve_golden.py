"""Record ``serve_golden.json``: the served answers of commit ``4cfcb5f``.

``4cfcb5f`` is the last commit whose query kernels scored every
candidate pair by pair: keyword search recomputed each document's TF-IDF
weights per search, union search estimated one Jaccard per column pair,
containment search tested LSH bands one key at a time, and the fuzzy
matcher canonicalized both values of every scored pair.  Later kernels
compute the same floats with less work, and this file is the on-disk
proof: ``tests/test_serve_golden.py`` replays every request below over
a plain and a 2-shard catalog and requires the rendered ``results`` to
equal the recording.

The requests cover every kind (keyword, join by values and by CSV
column, union, containment with and without ``k``, match at all three
strengths) over a lake from :func:`generate_lake` (``rng=11``); request
CSVs are written next to the catalogs.  The recording was produced by
copying this script into an export of ``4cfcb5f`` and running it there:

    mkdir "$DIR" && git archive 4cfcb5f | tar -x -C "$DIR"
    cp tests/data/gen_serve_golden.py "$DIR/tests/data/"
    (cd "$DIR" && PYTHONPATH=src python tests/data/gen_serve_golden.py)
    cp "$DIR/tests/data/serve_golden.json" tests/data/

Running it at a later commit would record that commit's answers and
prove nothing, so it refuses to overwrite an existing recording.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from typing import List, Tuple

from respdi.catalog import CatalogStore, ShardedCatalogStore
from respdi.datagen import LakeSpec, NameNoiseModel, generate_gold_registry, generate_lake
from respdi.service import QueryService
from respdi.service.server import handle_request
from respdi.table import Table, write_csv

OUT = Path(__file__).with_name("serve_golden.json")
LAKE_SEED = 11
BUILD_OPTS = dict(rng=7)
NUM_SHARDS = 2


def lake_tables() -> dict:
    return generate_lake(LakeSpec(n_distractors=5), rng=LAKE_SEED).tables


def _csv(directory: Path, name: str, table: Table) -> str:
    path = directory / f"{name}.csv"
    write_csv(table, path)
    return path.name


def requests(directory: Path, tables: dict) -> List[dict]:
    """The recorded requests; CSV-backed ones write their CSV into *directory*.

    A request's ``csv`` field names a file in *directory*; the caller
    joins the two before serving.
    """
    query = tables["query"]
    query_values = query.unique("q_c0")
    union_values = tables["union_2"].unique("u2_c1")
    joinable_keys = tables["joinable_1"].unique("key")
    distractor = tables["distractor_3"]
    out: List[dict] = []
    for text, k in [
        ("union", 10), ("distractor", 3), ("key", 5), ("joinable feat", 10),
        ("q c0 target", 4), ("u0 c1 u0", 10),
        (f"{query_values[0]} union {query_values[1]}", 6),
        (f"{union_values[3]} {union_values[3]} distractor key", 10),
    ]:
        out.append({"op": "keyword", "text": text, "k": k})
    for values, k, min_overlap in [
        (query_values[:40], 5, 1), (union_values[10:60], 10, 1),
        (joinable_keys[:25], 3, 5), (query_values[::7] + union_values[::9], 8, 2),
    ]:
        out.append({"op": "join", "values": list(values), "k": k, "min_overlap": min_overlap})
    key_csv = _csv(directory, "join-keys", query.project(["key"]))
    out.append({"op": "join", "csv": key_csv, "column": "key", "k": 5})
    out.append({"op": "join", "csv": key_csv, "column": "key", "k": 2, "min_overlap": 10})
    union_csvs = [
        _csv(directory, "union-query", query),
        _csv(directory, "union-u2", tables["union_2"].head(60)),
        _csv(directory, "union-d3", distractor.head(120)),
        _csv(directory, "union-joinable", tables["joinable_0"]),
    ]
    for path, k in zip(union_csvs, (10, 3, 5, 4)):
        out.append({"op": "union", "csv": path, "k": k})
    for values, threshold, k in [
        (query_values[:50], 0.5, None), (query_values[:50], 0.1, None),
        (query_values[::3], 0.3, 3), (query_values[:120], 0.7, None),
        (query_values, 0.9, 1), (union_values[:30], 0.5, 5),
        (joinable_keys[:40] + query_values[:10], 0.2, None),
        (distractor.unique("d3_c2")[:15], 0.6, 2),
    ]:
        request = {"op": "containment", "values": list(values), "threshold": threshold}
        if k is not None:
            request["k"] = k
        out.append(request)
    for seed in (17, 23, 31):
        registry = generate_gold_registry(
            30, duplicates_per_entity=2, noise=NameNoiseModel(),
            group_intensity={"blue": 1.4}, rng=seed,
        )
        path = _csv(directory, f"registry-{seed}", registry.table)
        for strength in ("exact", "normalized", "fuzzy"):
            out.append({"op": "match", "csv": path, "match_strength": strength, "keys": ["name"]})
    out.append({
        "op": "match", "csv": path, "match_strength": "fuzzy", "keys": ["name"],
        "threshold": 0.8, "window": 5,
    })
    return out


def build_catalogs(directory: Path, tables: dict) -> Tuple[Path, Path]:
    """A plain and a 2-shard catalog of *tables* under *directory*."""
    plain, sharded = directory / "plain", directory / "sharded"
    CatalogStore.build(plain, tables, **BUILD_OPTS)
    ShardedCatalogStore.build(sharded, tables, num_shards=NUM_SHARDS, **BUILD_OPTS)
    return plain, sharded


def serve(service: QueryService, directory: Path, request: dict) -> list:
    """The rendered ``results`` of *request*, its CSV resolved in *directory*."""
    request = dict(request)
    if "csv" in request:
        request["csv"] = str(directory / request["csv"])
    response = handle_request(service, request, cached=False)
    return json.loads(json.dumps(response["results"]))


def main() -> int:
    if OUT.exists():
        print(f"{OUT} exists; it must keep the answers 4cfcb5f served", file=sys.stderr)
        return 1
    tables = lake_tables()
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        plain, sharded = build_catalogs(directory, tables)
        services = (QueryService(plain), QueryService(sharded))
        recorded = []
        for request in requests(directory, tables):
            answers = [serve(service, directory, request) for service in services]
            if answers[0] != answers[1]:
                print(f"plain and sharded answers differ for {request}", file=sys.stderr)
                return 1
            recorded.append({"request": request, "results": answers[0]})
    lines = ",\n".join(json.dumps(answer) for answer in recorded)
    OUT.write_text('{"commit": "4cfcb5f", "answers": [\n' + lines + "\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
