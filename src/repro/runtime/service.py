"""The sweep service: parallel use-case sweeps with a persistent store.

The paper's headline workflow — estimate every (sampled) use-case of a
gallery analytically — is embarrassingly parallel across use-cases and
perfectly cacheable: the estimate of a use-case depends only on the
gallery (how the graphs were generated), the use-case itself, the
waiting model and the analysis method.  :class:`SweepService` exploits
both:

* **fan-out** — misses become one group of service
  :class:`~repro.service.protocol.Query` objects, solved by the serving
  stack: inline on an :class:`~repro.service.pool.EnginePool` for
  ``jobs=1``, or on a :class:`~repro.service.workers.SolverPool` of
  ``jobs`` worker processes (capped at the misses and the CPU count),
  which splits the group into one strided chunk per process
  (interleaving use-case sizes so chunks cost about the same).
  Each worker builds the gallery and its analysis engines once and then
  estimates its use-cases incrementally (warm-started weight-only
  solves), so the per-worker structural cost is paid once, not per
  use-case;
* **memoization** — results land in a :class:`ResultStore`, a JSON-lines
  file keyed by ``(gallery, seed, application count, use-case, waiting
  model, analysis method)``; a repeated sweep is pure cache hits and
  touches no solver at all.

Galleries are described by :class:`GallerySpec` — a *recipe*, not the
graphs themselves — so a spec pickles cheaply to workers and keys the
store deterministically: an estimate is a pure function of its key.
"""

from __future__ import annotations

import asyncio
import json
import os
import time as _time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.registry import validate_model_spec
from repro.exceptions import ResourceManagerError
from repro.experiments.setup import (
    BenchmarkSuite,
    DEFAULT_SEED,
    paper_benchmark_suite,
)
from repro.platform.mapping import index_mapping
from repro.platform.usecase import (
    DEFAULT_SWEEP_SEED,
    UseCase,
    sampled_use_cases_by_size,
)
from repro.sdf.analysis import AnalysisMethod
from repro.telemetry import get_registry, get_tracer

#: Gallery kinds a :class:`GallerySpec` can rebuild from scratch.
GALLERY_KINDS: Tuple[str, ...] = ("paper", "media")

#: Application names of the fixed media gallery, in suite order.
_MEDIA_NAMES: Tuple[str, ...] = ("h263", "mp3", "jpeg", "modem", "src")


@dataclass(frozen=True)
class GallerySpec:
    """A reproducible application gallery, by recipe.

    ``paper`` regenerates the seeded benchmark suite
    (:func:`~repro.experiments.setup.paper_benchmark_suite`); ``media``
    is the fixed hand-built media-device gallery (``seed`` is kept in
    the key for uniformity but does not influence the graphs).
    """

    kind: str = "paper"
    seed: int = DEFAULT_SEED
    application_count: int = 8

    def __post_init__(self) -> None:
        if self.kind not in GALLERY_KINDS:
            raise ResourceManagerError(
                f"unknown gallery kind {self.kind!r} "
                f"(choose from {', '.join(GALLERY_KINDS)})"
            )
        if self.application_count < 1:
            raise ResourceManagerError(
                f"application_count must be >= 1, "
                f"got {self.application_count}"
            )
        if self.kind == "media" and self.application_count > len(
            _MEDIA_NAMES
        ):
            raise ResourceManagerError(
                f"the media gallery has {len(_MEDIA_NAMES)} "
                f"applications, got application_count="
                f"{self.application_count}"
            )

    def build(self) -> BenchmarkSuite:
        """Regenerate the gallery (graphs + platform + mapping)."""
        if self.kind == "paper":
            return paper_benchmark_suite(
                seed=self.seed,
                application_count=self.application_count,
            )
        from repro.generation.gallery import media_device_suite

        graphs = media_device_suite()[: self.application_count]
        mapping = index_mapping(graphs)
        return BenchmarkSuite(
            graphs=tuple(graphs),
            platform=mapping.platform,
            mapping=mapping,
            seed=self.seed,
        )

    def application_names(self) -> Tuple[str, ...]:
        """Gallery application names without building any graph."""
        if self.kind == "paper":
            from repro.experiments.setup import APPLICATION_NAMES

            if self.application_count <= len(APPLICATION_NAMES):
                return APPLICATION_NAMES[: self.application_count]
            return tuple(
                f"A{i}" for i in range(self.application_count)
            )
        return _MEDIA_NAMES[: self.application_count]

    def label(self) -> str:
        return f"{self.kind}:{self.seed}:{self.application_count}"


@dataclass(frozen=True)
class SweepRecord:
    """One stored/computed estimate: periods of one use-case."""

    use_case: Tuple[str, ...]
    model: str
    method: str
    periods: Dict[str, float]
    isolation: Dict[str, float]
    from_store: bool = False


class ResultStore:
    """JSON-lines store of sweep estimates, loaded once and appended to.

    Each line is ``{"key": {...}, "periods": {...}, "isolation":
    {...}}``; the key fields are the gallery label, the use-case label,
    the waiting model and the analysis method.  Corrupt or foreign
    lines fail loudly — the store is an artefact, not a cache that may
    silently rot.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._records: Dict[Tuple[str, str, str, str], SweepRecord] = {}
        if self.path.exists():
            for line_number, line in enumerate(
                self.path.read_text().splitlines(), start=1
            ):
                if not line.strip():
                    continue
                try:
                    data = json.loads(line)
                    key = data["key"]
                    record = SweepRecord(
                        use_case=tuple(key["use_case"].split("+")),
                        model=key["model"],
                        method=key["method"],
                        periods=dict(data["periods"]),
                        isolation=dict(data["isolation"]),
                        from_store=True,
                    )
                    self._records[
                        (
                            key["gallery"],
                            key["use_case"],
                            key["model"],
                            key["method"],
                        )
                    ] = record
                except (json.JSONDecodeError, KeyError, TypeError) as error:
                    raise ResourceManagerError(
                        f"result store {self.path}: bad line "
                        f"{line_number}: {error}"
                    ) from None

    def __len__(self) -> int:
        return len(self._records)

    @staticmethod
    def key(
        gallery: GallerySpec,
        use_case: UseCase,
        model: str,
        method: AnalysisMethod,
        fixed_point_iterations: int = 1,
    ) -> Tuple[str, str, str, str]:
        # Refinement depth changes the numbers, so it must change the
        # key; single-pass estimates keep the historical plain-model
        # spelling so existing store files stay valid.
        if fixed_point_iterations != 1:
            model = f"{model}#iterations={fixed_point_iterations}"
        return (
            gallery.label(),
            use_case.label(),
            model,
            method.value,
        )

    def get(
        self, key: Tuple[str, str, str, str]
    ) -> Optional[SweepRecord]:
        return self._records.get(key)

    def put(
        self, key: Tuple[str, str, str, str], record: SweepRecord
    ) -> None:
        if key in self._records:
            return
        self._records[key] = record
        gallery, use_case, model, method = key
        line = json.dumps(
            {
                "key": {
                    "gallery": gallery,
                    "use_case": use_case,
                    "model": model,
                    "method": method,
                },
                "periods": record.periods,
                "isolation": record.isolation,
            },
            sort_keys=True,
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as handle:
            handle.write(line + "\n")


@dataclass
class SweepOutcome:
    """Everything a sweep produced, in use-case selection order."""

    results: List[SweepRecord]
    hits: int
    misses: int
    jobs: int
    elapsed_seconds: float
    gallery: GallerySpec
    model: str
    method: str

    @property
    def use_case_count(self) -> int:
        return len(self.results)


class SweepService:
    """Batched, parallel, store-backed use-case sweeps.

    Parameters
    ----------
    store:
        Optional :class:`ResultStore`; omitted means every sweep
        recomputes (hits stay 0).
    jobs:
        Worker processes for misses, capped at the miss count and at
        ``os.cpu_count()``.  A cap of ``1`` runs inline — no pool, no
        pickling.  More drives a
        :class:`~repro.service.workers.SolverPool` with one strided
        chunk per process; :attr:`SweepOutcome.jobs` reports the
        processes that ran (1 inline).
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
    ) -> None:
        if jobs < 1:
            raise ResourceManagerError(
                f"jobs must be >= 1, got {jobs}"
            )
        self.store = store
        self.jobs = jobs
        registry = get_registry()
        self._tracer = get_tracer()
        self._metric_hits = registry.counter(
            "repro_sweep_store_hits_total",
            "Sweep use-cases answered from the result store",
        )
        self._metric_misses = registry.counter(
            "repro_sweep_store_misses_total",
            "Sweep use-cases that required an estimate",
        )

    def sweep(
        self,
        gallery: GallerySpec,
        model: str = "second_order",
        method: AnalysisMethod = AnalysisMethod.MCR,
        samples_per_size: Optional[int] = None,
        sweep_seed: int = DEFAULT_SWEEP_SEED,
        fixed_point_iterations: int = 1,
    ) -> SweepOutcome:
        """Estimate every (sampled) use-case of ``gallery``.

        Use-case selection follows the library-wide convention
        (:func:`~repro.platform.usecase.sampled_use_cases_by_size`), so
        the service's numbers are comparable with the experiment
        runner's and the CLI's.
        """
        started = _time.perf_counter()
        # Resolve the model through the registry *before* any work (or
        # worker processes) starts: an unknown name or a bad argument
        # fails here with the registered catalogue instead of inside a
        # pool worker.  Passing the gallery's application names also
        # catches per-app parameters naming apps outside the gallery
        # (e.g. 'wrr:Z=2') at submission — the same eager path the
        # service protocol and the placement search use.
        validate_model_spec(model, gallery.application_names())
        selected = sampled_use_cases_by_size(
            gallery.application_names(),
            samples_per_size=samples_per_size,
            seed=sweep_seed,
        )
        keys = [
            ResultStore.key(
                gallery, use_case, model, method, fixed_point_iterations
            )
            for use_case in selected
        ]
        by_key: Dict[Tuple[str, str, str, str], SweepRecord] = {}
        misses: List[Tuple[UseCase, Tuple[str, str, str, str]]] = []
        for use_case, key in zip(selected, keys):
            record = self.store.get(key) if self.store else None
            if record is not None:
                by_key[key] = record
            else:
                misses.append((use_case, key))

        self._metric_hits.inc(len(selected) - len(misses))
        self._metric_misses.inc(len(misses))
        jobs = 1
        if misses:
            with self._tracer.span(
                "sweep.compute",
                gallery=gallery.label(),
                model=model,
                method=method.value,
                misses=len(misses),
                jobs=self.jobs,
            ):
                payloads, jobs = self._compute(
                    [use_case for use_case, _ in misses],
                    gallery,
                    model,
                    method,
                    fixed_point_iterations,
                )
                for (use_case, key), payload in zip(misses, payloads):
                    record = SweepRecord(
                        use_case=tuple(use_case.applications),
                        model=model,
                        method=method.value,
                        periods=payload["periods"],  # type: ignore[arg-type]
                        isolation=payload["isolation"],  # type: ignore[arg-type]
                    )
                    by_key[key] = record
                    if self.store is not None:
                        self.store.put(key, record)

        return SweepOutcome(
            results=[by_key[key] for key in keys],
            hits=len(selected) - len(misses),
            misses=len(misses),
            jobs=jobs,
            elapsed_seconds=_time.perf_counter() - started,
            gallery=gallery,
            model=model,
            method=method.value,
        )

    # ------------------------------------------------------------------
    def _compute(
        self,
        use_cases: List[UseCase],
        gallery: GallerySpec,
        model: str,
        method: AnalysisMethod,
        fixed_point_iterations: int,
    ) -> Tuple[List[Dict[str, object]], int]:
        """Solve the misses as one service query group; returns one
        answer payload per use-case, in order, and the solver's process
        count (1 inline)."""
        # Function-local: the service layer imports this module.
        from repro.service.pool import EnginePool
        from repro.service.protocol import Query
        from repro.service.workers import SolverPool

        queries = [
            Query(gallery=gallery, use_case=use_case, model=model, method=method)
            for use_case in use_cases
        ]
        # One process per chunk, never more than the misses or the
        # machine: processes beyond the CPU count only time-slice each
        # other.  ``split_threshold=1`` makes the pool split into
        # exactly that many strided chunks, ``queries[i::processes]``.
        processes = min(self.jobs, len(queries), os.cpu_count() or 1)
        if processes == 1:
            pool = EnginePool()
            return pool.solve(queries, fixed_point_iterations), 1
        workers = SolverPool(workers=processes, split_threshold=1)
        try:
            payloads = asyncio.run(
                workers.solve(queries, fixed_point_iterations)
            )
        finally:
            workers.shutdown()
        return payloads, workers.workers
