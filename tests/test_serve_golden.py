"""Served answers equal the ones commit ``4cfcb5f`` recorded.

``tests/data/serve_golden.json`` holds the rendered ``results`` of
requests of every kind (keyword, join, union, containment, match at all
three strengths), served by ``4cfcb5f`` — the last commit that scored
every candidate pair by pair (see ``tests/data/gen_serve_golden.py``).
Every request is replayed here over a plain and a 2-shard catalog of the
same seeded lake; the answers must be the recorded ones, float for
float.
"""

import json
from pathlib import Path

import pytest
import tests.data.gen_serve_golden as gen

from respdi.service import QueryService

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "serve_golden.json").read_text(encoding="utf-8")
)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    directory = tmp_path_factory.mktemp("serve-golden")
    tables = gen.lake_tables()
    plain, sharded = gen.build_catalogs(directory, tables)
    requests = gen.requests(directory, tables)
    return directory, requests, (QueryService(plain), QueryService(sharded))


def test_recording_covers_every_kind_and_strength():
    ops = {answer["request"]["op"] for answer in GOLDEN["answers"]}
    assert ops == {"keyword", "join", "union", "containment", "match"}
    strengths = {
        answer["request"]["match_strength"]
        for answer in GOLDEN["answers"]
        if answer["request"]["op"] == "match"
    }
    assert strengths == {"exact", "normalized", "fuzzy"}
    assert GOLDEN["commit"] == "4cfcb5f"


def test_requests_are_the_recorded_ones(served):
    _, requests, _ = served
    assert requests == [answer["request"] for answer in GOLDEN["answers"]]


@pytest.mark.parametrize("layout", ["plain", "sharded"])
def test_answers_equal_the_recording(served, layout):
    directory, _, services = served
    service = services[0 if layout == "plain" else 1]
    for answer in GOLDEN["answers"]:
        results = gen.serve(service, directory, answer["request"])
        assert json.dumps(results) == json.dumps(answer["results"]), answer["request"]
