"""Discover → tailor → clean → audit → document, with provenance."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from respdi import obs
from respdi._rng import RngLike, ensure_rng
from respdi.cleaning.imputers import Imputer
from respdi.discovery.lake_index import DataLakeIndex
from respdi.errors import EmptyInputError, SpecificationError
from respdi.faults.plan import fault_point
from respdi.parallel import ExecutionContext
from respdi.profiling.datasheets import Datasheet, build_datasheet
from respdi.profiling.labels import NutritionalLabel, build_nutritional_label
from respdi.requirements.base import AuditReport, RequirementCheck
from respdi.requirements.checks import audit_requirements
from respdi.table import Schema, Table
from respdi.tailoring.engine import TailoringResult, tailor
from respdi.tailoring.policies import Policy, RatioCollPolicy
from respdi.tailoring.sources import TableSource
from respdi.tailoring.specs import TailoringSpec


@contextmanager
def _stage(name: str, timings: List[Tuple[str, float]]):
    """Time one pipeline stage: always into *timings* (so provenance can
    report wall-times), and as a ``pipeline.stage.<name>`` span when
    observability is enabled.  Each stage boundary is also a
    ``pipeline.stage.<name>`` fault-injection point, so tests can fail
    or stall any stage and assert the failure surfaces instead of
    yielding a half-documented result."""
    start = time.perf_counter()
    fault_point(f"pipeline.stage.{name}")
    with obs.trace(f"pipeline.stage.{name}"):
        yield
    timings.append((name, time.perf_counter() - start))


@dataclass
class PipelineResult:
    """Everything a downstream consumer needs from one pipeline run."""

    table: Table
    tailoring: Optional[TailoringResult]
    audit: Optional[AuditReport]
    label: Optional[NutritionalLabel]
    datasheet: Optional[Datasheet]
    sources_used: List[str]
    provenance: List[str]
    stage_timings: List[Tuple[str, float]] = field(default_factory=list)
    """Per-stage wall times, ``(stage_name, seconds)``, in execution order."""

    @property
    def fit_for_use(self) -> bool:
        """True when the audit ran and every requirement passed."""
        return self.audit is not None and self.audit.passed

    def render_provenance(self) -> str:
        return "\n".join(f"{i + 1}. {step}" for i, step in enumerate(self.provenance))

    def export(self, directory) -> Dict[str, str]:
        """Write the full artifact bundle to *directory*.

        Produces ``data.csv`` (the integrated table, type-headered),
        ``label.json``, ``datasheet.md``, ``provenance.txt``, and —
        when an audit ran — ``audit.json``.  Returns ``{artifact: path}``.
        The bundle is what §2.5 asks to ship *with* the data.
        """
        import os

        from respdi.profiling.export import dump_json
        from respdi.table import write_csv

        os.makedirs(directory, exist_ok=True)
        paths: Dict[str, str] = {}

        data_path = os.path.join(directory, "data.csv")
        write_csv(self.table, data_path)
        paths["data"] = data_path

        if self.label is not None:
            label_path = os.path.join(directory, "label.json")
            dump_json(self.label, label_path)
            paths["label"] = label_path
        if self.datasheet is not None:
            sheet_path = os.path.join(directory, "datasheet.md")
            with open(sheet_path, "w") as handle:
                handle.write(self.datasheet.render())
            paths["datasheet"] = sheet_path
        if self.audit is not None:
            audit_path = os.path.join(directory, "audit.json")
            dump_json(self.audit, audit_path)
            paths["audit"] = audit_path
        provenance_path = os.path.join(directory, "provenance.txt")
        with open(provenance_path, "w") as handle:
            handle.write(self.render_provenance() + "\n")
        paths["provenance"] = provenance_path
        return paths


class ResponsibleIntegrationPipeline:
    """Configurable pipeline over a data lake or explicit source tables.

    Typical use::

        pipeline = ResponsibleIntegrationPipeline(
            sensitive_columns=("gender", "race"), target_column="y",
        )
        result = pipeline.run(
            source_tables={"clinicA": a, "clinicB": b},
            spec=CountSpec(("gender", "race"), {...}),
            source_costs={"clinicA": 1.0, "clinicB": 3.0},
            requirements=[...],
            rng=0,
        )
    """

    def __init__(
        self,
        sensitive_columns: Sequence[str],
        target_column: Optional[str] = None,
        policy: Optional[Policy] = None,
        imputers: Sequence[Imputer] = (),
        coverage_threshold: int = 10,
        match_strength: Optional[str] = None,
        match_keys: Sequence[str] = (),
        match_threshold: float = 0.85,
        execution_context: Optional[ExecutionContext] = None,
        n_jobs: Optional[int] = None,
    ) -> None:
        if not sensitive_columns:
            raise SpecificationError("pipeline needs sensitive columns")
        self.sensitive_columns = tuple(sensitive_columns)
        self.target_column = target_column
        self.policy = policy if policy is not None else RatioCollPolicy()
        self.imputers = list(imputers)
        self.coverage_threshold = coverage_threshold
        #: Matcher strength for the optional duplicate-resolution stage
        #: (``exact`` / ``normalized`` / ``fuzzy`` over *match_keys*).
        #: The strength a tenant picks decides who gets linked — and so
        #: who the audit/label stages count — which is why it is a
        #: pipeline-level knob rather than a hard-coded policy.  The
        #: view is built eagerly so a bad strength name fails at
        #: construction, not mid-run.
        self.match_view = None
        if match_strength is not None:
            if not match_keys:
                raise SpecificationError(
                    "match_strength needs match_keys to link on"
                )
            from respdi.linkage.views import build_view

            self.match_view = build_view(
                match_strength, match_keys, threshold=match_threshold
            )
        #: Context for fan-out work the pipeline triggers (e.g. sketching
        #: a raw table mapping in :meth:`discover_sources`).  Resolved
        #: once at construction: explicit ``execution_context`` wins,
        #: then ``n_jobs`` (threads), then ``RESPDI_DEFAULT_JOBS``.
        self.execution_context = ExecutionContext.resolve(
            execution_context, n_jobs
        )

    # -- step: discovery ------------------------------------------------------

    def discover_sources(
        self,
        lake: Optional[DataLakeIndex] = None,
        query: Optional[Table] = None,
        k: int = 5,
        min_score: float = 0.1,
        service=None,
    ) -> Dict[str, Table]:
        """Unionable tables in *lake* for the query's schema, as candidate
        sources.  Only candidates exposing every sensitive column (after
        alignment) qualify — a source that cannot identify groups cannot
        participate in tailoring.

        *lake* may also be a :class:`~respdi.catalog.CatalogStore` (any
        object exposing ``index()``) — the pipeline then warm-starts from
        the persisted catalog, loading candidate tables lazily — or a
        plain ``{name: Table}`` mapping, which is sketched into a
        transient index under the pipeline's execution context (a fixed
        hasher seed keeps this convenience path deterministic).

        Alternatively pass ``service=`` (a
        :class:`~respdi.service.QueryService`, plain or sharded catalog)
        instead of *lake*: the candidates are then the service's own
        cached union query against one pinned vector — one committed
        generation per shard, consistent even while a writer refreshes —
        and each candidate's table is loaded from the shard that holds
        it, instead of re-opening the store."""
        if query is None:
            raise SpecificationError("discover_sources needs a query table")
        if service is not None:
            if lake is not None:
                raise SpecificationError(
                    "pass either lake or service=, not both"
                )
            from respdi.service.queries import UnionQuery

            vector = service.snapshot()
            candidates = service._query_at(
                UnionQuery(table=query, k=k), vector, cached=True
            )
            load_table = vector.table
        elif lake is None:
            raise SpecificationError(
                "discover_sources needs a lake (index, catalog, or mapping) "
                "or service="
            )
        else:
            if not isinstance(lake, DataLakeIndex) and hasattr(lake, "index"):
                lake = lake.index()
            elif not isinstance(lake, DataLakeIndex) and hasattr(lake, "items"):
                index = DataLakeIndex(rng=0)
                index.register_tables(
                    dict(lake), context=self.execution_context
                )
                lake = index
            candidates = lake.unionable_tables(query, k=k)
            load_table = lake.tables.__getitem__
        out: Dict[str, Table] = {}
        for candidate in candidates:
            if candidate.score < min_score:
                continue
            aligned = dict(candidate.alignment)
            if not all(col in aligned for col in self.sensitive_columns):
                continue
            source_table = load_table(candidate.table_name)
            rename = {src: dst for dst, src in aligned.items()}
            out[candidate.table_name] = source_table.rename(rename)
        return out

    # -- the full run -----------------------------------------------------------

    def run(
        self,
        source_tables: Dict[str, Table],
        spec: TailoringSpec,
        requirements: Sequence[RequirementCheck] = (),
        source_costs: Optional[Dict[str, float]] = None,
        budget: float = float("inf"),
        max_steps: int = 1_000_000,
        datasheet_motivation: str = "integrated via respdi pipeline",
        rng: RngLike = None,
    ) -> PipelineResult:
        """Tailor from *source_tables*, clean, audit, and document."""
        if not source_tables:
            raise EmptyInputError("no source tables supplied")
        generator = ensure_rng(rng)
        provenance: List[str] = []
        timings: List[Tuple[str, float]] = []
        costs = source_costs or {}
        sources = []
        for name in sorted(source_tables):
            table = source_tables[name]
            table.schema.require(list(self.sensitive_columns))
            sources.append(TableSource(name, table, cost=costs.get(name, 1.0)))
        provenance.append(
            f"tailoring from {len(sources)} source(s) "
            f"{[s.name for s in sources]} with policy "
            f"{type(self.policy).__name__}"
        )

        with obs.trace("pipeline.run", sources=len(sources)):
            obs.inc("pipeline.runs")

            with _stage("tailor", timings):
                tailoring_result = tailor(
                    sources, spec, self.policy, budget=budget,
                    max_steps=max_steps, rng=generator,
                )
            provenance.append(
                f"collected {len(tailoring_result.rows)} row(s) at cost "
                f"{tailoring_result.total_cost:.1f}; satisfied="
                f"{tailoring_result.satisfied}"
            )

            reference_schema: Schema = source_tables[sorted(source_tables)[0]].schema
            table = tailoring_result.collected_table(reference_schema)

            with _stage("clean", timings):
                for imputer in self.imputers:
                    before = int(table.missing_mask(imputer.column).sum())
                    table = imputer.fit_transform(table)
                    provenance.append(
                        f"imputed column {imputer.column!r} with "
                        f"{type(imputer).__name__} ({before} missing cell(s))"
                    )
            obs.inc("pipeline.rows_cleaned", len(table))

            if self.match_view is not None:
                with _stage("resolve", timings):
                    from respdi.linkage.matching import deduplicate

                    links = self.match_view.link(
                        table, context=self.execution_context
                    )
                    before_rows = len(table)
                    table = deduplicate(table, set(links.pairs))
                    provenance.append(
                        f"resolved duplicates with the "
                        f"{self.match_view.strength!r} matcher view over "
                        f"keys {list(self.match_view.key_columns)}: "
                        f"{before_rows} row(s) -> {len(table)} "
                        f"({links.num_links} link(s), "
                        f"{links.num_clusters} cluster(s))"
                    )
                obs.inc("pipeline.rows_resolved", len(table))

            audit: Optional[AuditReport] = None
            with _stage("audit", timings):
                if requirements:
                    audit = audit_requirements(table, list(requirements))
                    provenance.append(
                        f"audited {len(requirements)} requirement(s): "
                        f"{'PASS' if audit.passed else 'FAIL'}"
                    )
            if audit is not None:
                obs.inc(
                    "pipeline.audits.passed" if audit.passed
                    else "pipeline.audits.failed"
                )

            with _stage("document", timings):
                label = build_nutritional_label(
                    table,
                    self.sensitive_columns,
                    self.target_column,
                    coverage_threshold=self.coverage_threshold,
                )
                provenance.append("built nutritional label")

                limitations = []
                if tailoring_result and not tailoring_result.satisfied:
                    limitations.append(
                        f"tailoring stopped before satisfying the spec; deficits: "
                        f"{tailoring_result.deficits}"
                    )
                if label.uncovered_patterns:
                    limitations.append(
                        f"under-represented groups remain: "
                        f"{label.uncovered_patterns}"
                    )
                datasheet = build_datasheet(
                    title="respdi integrated dataset",
                    table=table,
                    motivation=datasheet_motivation,
                    collection_process=(
                        "distribution tailoring over "
                        f"{len(sources)} source(s) with policy "
                        f"{type(self.policy).__name__}"
                    ),
                    preprocessing=(
                        "; ".join(
                            type(imputer).__name__ for imputer in self.imputers
                        )
                        or "none"
                    ),
                    recommended_uses=["model training with group-aware evaluation"],
                    discouraged_uses=[
                        "inference about groups absent from the coverage report"
                    ],
                    known_limitations=(
                        limitations or ["none identified by automated audit"]
                    ),
                )
                provenance.append("built datasheet")

        provenance.append(
            "stage timings (s): "
            + " ".join(f"{name}={seconds:.4f}" for name, seconds in timings)
        )

        return PipelineResult(
            table=table,
            tailoring=tailoring_result,
            audit=audit,
            label=label,
            datasheet=datasheet,
            sources_used=[s.name for s in sources],
            provenance=provenance,
            stage_timings=timings,
        )
