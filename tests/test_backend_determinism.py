"""Byte-level determinism across the scalar/batched split and worker counts.

The batched kernels accelerate estimation; they must not perturb
anything the system *records*:

* the runtime manager's decision log is produced by the scalar
  admission path by design, so its JSON is byte-identical whether or
  not its engines served a batched sweep before;
* a :class:`~repro.runtime.service.SweepService` sweep stores the same
  records whether misses run inline (``jobs=1``) or fan out over
  worker processes (``jobs=4``) — same keys, same bytes (only the
  append order may differ, hence the sorted comparison), although
  small worker chunks run the scalar loop and large ones the kernels;
* the stored periods equal the forced scalar reference loop's, bit for
  bit.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis_engine import build_engines
from repro.backend import BATCH_MIN_ROWS, numpy_available
from repro.core.estimator import ProbabilisticEstimator
from repro.experiments.setup import paper_benchmark_suite
from repro.generation.workload import WorkloadConfig, WorkloadGenerator
from repro.platform.usecase import UseCase, all_use_cases
from repro.runtime.log import log_to_json
from repro.runtime.manager import ResourceManager, gallery_from_graphs
from repro.runtime.service import GallerySpec, ResultStore, SweepService

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed"
)

GALLERY = GallerySpec(kind="paper", seed=7, application_count=4)


def _runtime_log_json(after_batched_sweep: bool) -> str:
    suite = paper_benchmark_suite(application_count=4)
    specs = gallery_from_graphs(list(suite.graphs), slack=1.5)
    engines = build_engines(list(suite.graphs))
    if after_batched_sweep:
        ProbabilisticEstimator(
            list(suite.graphs), mapping=suite.mapping, engines=engines
        ).estimate_many(
            all_use_cases(suite.application_names) * BATCH_MIN_ROWS
        )
        assert any(engine._batch_cache for engine in engines.values())
    generator = WorkloadGenerator(
        [spec.name for spec in specs],
        quality_levels={
            spec.name: spec.ladder.level_names for spec in specs
        },
        config=WorkloadConfig(
            mean_interarrival=40.0, mean_holding=250.0
        ),
    )
    trace = generator.generate(seed=99, events=400)
    manager = ResourceManager(
        specs, mapping=suite.mapping, policy="downgrade", engines=engines
    )
    log = manager.replay(trace)
    return log_to_json(log)


def _canonical_log(serialized: str) -> bytes:
    """Log JSON with wall-clock fields nulled.

    ``elapsed_seconds``/``decision_seconds`` are measured wall time and
    differ even between two runs of the *same* configuration; every
    decision, period, utilization and downgrade must match to the byte.
    """
    data = json.loads(serialized)
    data["elapsed_seconds"] = None
    for record in data["records"]:
        record["decision_seconds"] = None
    return json.dumps(data, sort_keys=True).encode()


def test_runtime_logs_are_byte_identical_across_backends():
    fresh = _runtime_log_json(after_batched_sweep=False)
    shared = _runtime_log_json(after_batched_sweep=True)
    assert _canonical_log(fresh) == _canonical_log(shared)


def _sorted_store_lines(path) -> list:
    return sorted(
        line
        for line in path.read_text().splitlines()
        if line.strip()
    )


class TestJobsDeterminism:
    def test_store_is_byte_identical_across_worker_counts(
        self, tmp_path
    ):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("needs >= 2 CPUs for a meaningful pool")
        serial_path = tmp_path / "serial.jsonl"
        parallel_path = tmp_path / "parallel.jsonl"
        serial = SweepService(
            store=ResultStore(serial_path), jobs=1
        ).sweep(GALLERY)
        parallel = SweepService(
            store=ResultStore(parallel_path), jobs=4
        ).sweep(GALLERY)
        assert serial.use_case_count == parallel.use_case_count
        assert _sorted_store_lines(serial_path) == _sorted_store_lines(
            parallel_path
        )

    def test_sweep_results_ignore_worker_count(self, tmp_path):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("needs >= 2 CPUs for a meaningful pool")
        serial = SweepService(jobs=1).sweep(GALLERY)
        parallel = SweepService(jobs=4).sweep(GALLERY)
        for one, many in zip(serial.results, parallel.results):
            assert one.use_case == many.use_case
            assert one.periods == many.periods
            assert one.isolation == many.isolation


class TestBackendStoreKeys:
    def test_store_keys_coincide_across_backends(self, tmp_path):
        """The store holds one record per use-case, keyed like the
        forced scalar reference's use-cases, with its bits."""
        path = tmp_path / "store.jsonl"
        outcome = SweepService(store=ResultStore(path)).sweep(GALLERY)
        assert outcome.use_case_count >= BATCH_MIN_ROWS
        suite = GALLERY.build()
        reference = ProbabilisticEstimator(
            list(suite.graphs), mapping=suite.mapping, backend="python"
        )
        stored = {
            record["key"]["use_case"]: record["periods"]
            for record in map(json.loads, path.read_text().splitlines())
        }
        assert sorted(stored) == sorted(
            use_case.label() for use_case in all_use_cases(suite.application_names)
        )
        for result in outcome.results:
            expected = reference.estimate(UseCase(result.use_case)).periods
            assert result.periods == expected
            assert stored["+".join(result.use_case)] == expected
