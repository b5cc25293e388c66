"""Write the matching smoke's corrupted registry as ``dirty.csv`` in the working directory.

60 entities with two noisy duplicates each (``NameNoiseModel``, group
``blue`` corrupted 1.4 times as often), seeded with ``rng=17``; the gold
entity ids ride along in the table:

    PYTHONPATH=src python tests/data/gen_match_registry.py
"""

from __future__ import annotations

from respdi.datagen import NameNoiseModel, generate_gold_registry
from respdi.table import write_csv


def main() -> None:
    registry = generate_gold_registry(
        60, duplicates_per_entity=2, noise=NameNoiseModel(),
        group_intensity={"blue": 1.4}, rng=17,
    )
    write_csv(registry.table, "dirty.csv")
    print(f"{registry.n_records} records, {registry.n_pairs} gold pairs")


if __name__ == "__main__":
    main()
