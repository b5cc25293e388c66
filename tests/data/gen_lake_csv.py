"""Write the seeded smoke lake as ``lakecsv/<table>.csv`` in the working directory.

The catalog, shard, ingest and serve smoke jobs in CI all build their
catalogs from this one lake (``generate_lake(LakeSpec(n_distractors=5),
rng=11)``):

    PYTHONPATH=src python tests/data/gen_lake_csv.py
"""

from __future__ import annotations

from pathlib import Path

from respdi.datagen import LakeSpec, generate_lake
from respdi.table import write_csv


def main() -> None:
    out = Path("lakecsv")
    out.mkdir()
    lake = generate_lake(LakeSpec(n_distractors=5), rng=11)
    for name, table in lake.tables.items():
        write_csv(table, out / f"{name}.csv")


if __name__ == "__main__":
    main()
