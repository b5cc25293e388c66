"""Check the matching smoke's served links against the strength harness.

Reads ``served.jsonl`` (the serve loop's answers to one ``match`` request
per strength) and ``strengths.json`` (``respdi-audit --match-json``) from
the working directory and asserts:

* every served response is ``ok``, and the link sets nest:
  exact ⊆ normalized ⊆ fuzzy, with fuzzy strictly larger than exact;
* the harness reports its views as nested, and each served link set
  equals the harness's for the same strength;
* entity coverage rises strictly from exact to normalized to fuzzy.

    PYTHONPATH=src python tests/data/check_match_ladder.py
"""

from __future__ import annotations

import json


def main() -> None:
    served = {}
    with open("served.jsonl") as handle:
        for line in handle:
            response = json.loads(line)
            assert response["ok"], response
            result = response["results"][0]
            served[result["strength"]] = {
                tuple(pair) for pair in result["links"]
            }
    assert served["exact"] <= served["normalized"] <= served["fuzzy"]
    assert len(served["exact"]) < len(served["fuzzy"])
    with open("strengths.json") as handle:
        harness = json.load(handle)
    assert harness["nested"] is True
    for strength, links in served.items():
        from_harness = {
            tuple(pair)
            for pair in harness["views"][strength]["links"]
        }
        assert links == from_harness, f"{strength} served != harness"
    coverages = [
        harness["views"][s]["entity_coverage"]
        for s in ("exact", "normalized", "fuzzy")
    ]
    assert coverages[0] < coverages[1] < coverages[2], coverages
    print("exact ⊆ normalized ⊆ fuzzy; served links match the harness;"
          f" coverage ladder {coverages}")


if __name__ == "__main__":
    main()
