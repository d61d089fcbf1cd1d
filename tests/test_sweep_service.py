"""Sweep service: result store semantics, parallel/serial parity."""

from __future__ import annotations

import json

import pytest

import repro.service.workers as workers_module

from repro.core.estimator import ProbabilisticEstimator
from repro.exceptions import ResourceManagerError
from repro.runtime.service import (
    GallerySpec,
    ResultStore,
    SweepService,
)
from repro.sdf.analysis import AnalysisMethod

GALLERY = GallerySpec(kind="paper", seed=77, application_count=3)


class TestGallerySpec:
    def test_paper_names_match_built_suite(self):
        suite = GALLERY.build()
        assert GALLERY.application_names() == suite.application_names

    def test_media_names_match_built_suite(self):
        spec = GallerySpec(kind="media", application_count=4)
        suite = spec.build()
        assert spec.application_names() == suite.application_names

    def test_rejects_unknown_kind(self):
        with pytest.raises(ResourceManagerError):
            GallerySpec(kind="cloud")

    def test_media_rejects_overflowing_count(self):
        with pytest.raises(ResourceManagerError):
            GallerySpec(kind="media", application_count=8)

    def test_label_keys_the_recipe(self):
        assert GALLERY.label() == "paper:77:3"


class TestResultStore:
    def test_first_sweep_misses_second_hits(self, tmp_path):
        path = tmp_path / "results.jsonl"
        first = SweepService(store=ResultStore(path)).sweep(GALLERY)
        assert (first.hits, first.misses) == (0, 7)
        # A fresh store instance reloads from disk.
        second = SweepService(store=ResultStore(path)).sweep(GALLERY)
        assert (second.hits, second.misses) == (7, 0)
        for a, b in zip(first.results, second.results):
            assert a.use_case == b.use_case
            assert a.periods == b.periods
            assert a.isolation == b.isolation
            assert b.from_store

    def test_lines_are_valid_json(self, tmp_path):
        path = tmp_path / "results.jsonl"
        SweepService(store=ResultStore(path)).sweep(GALLERY)
        lines = path.read_text().splitlines()
        assert len(lines) == 7
        for line in lines:
            data = json.loads(line)
            assert data["key"]["gallery"] == "paper:77:3"
            assert set(data) == {"key", "periods", "isolation"}

    def test_key_discriminates_model_method_and_gallery(self, tmp_path):
        store = ResultStore(tmp_path / "results.jsonl")
        service = SweepService(store=store)
        service.sweep(GALLERY, model="second_order")
        outcome = service.sweep(GALLERY, model="worst_case")
        assert outcome.misses == 7
        outcome = service.sweep(
            GALLERY,
            model="second_order",
            method=AnalysisMethod.STATE_SPACE,
        )
        assert outcome.misses == 7
        other_seed = GallerySpec(
            kind="paper", seed=78, application_count=3
        )
        assert service.sweep(other_seed).misses == 7
        # And the original combination is still fully cached.
        assert service.sweep(GALLERY).hits == 7

    def test_corrupt_store_fails_loudly(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text('{"not": "a record"}\n')
        with pytest.raises(ResourceManagerError):
            ResultStore(path)

    def test_store_is_optional(self):
        outcome = SweepService().sweep(GALLERY)
        assert (outcome.hits, outcome.misses) == (0, 7)


class TestParity:
    def test_results_match_direct_estimator(self):
        outcome = SweepService().sweep(GALLERY, samples_per_size=2)
        suite = GALLERY.build()
        estimator = ProbabilisticEstimator(
            list(suite.graphs),
            mapping=suite.mapping,
            waiting_model="second_order",
        )
        direct = estimator.sweep_all_sizes(samples_per_size=2)
        assert len(outcome.results) == len(direct)
        for record, result in zip(outcome.results, direct):
            assert record.use_case == result.use_case.applications
            assert record.periods == result.periods

    def test_parallel_matches_serial(self, tmp_path):
        serial = SweepService(jobs=1).sweep(GALLERY)
        parallel = SweepService(jobs=2).sweep(GALLERY)
        assert serial.use_case_count == parallel.use_case_count
        for a, b in zip(serial.results, parallel.results):
            assert a.use_case == b.use_case
            assert a.periods == b.periods

    def test_rejects_bad_jobs(self):
        with pytest.raises(ResourceManagerError):
            SweepService(jobs=0)

    def test_jobs_capped_at_cpu_count(self, monkeypatch):
        # Regression: jobs far above the CPU count used to size the
        # process pool at jobs, oversubscribing the machine.  The solver
        # pool the sweep drives must never exceed os.cpu_count(), and
        # the outcome reports the capped count, not the request.
        pools = []
        original_init = workers_module.SolverPool.__init__

        def recording_init(pool, *args, **kwargs):
            original_init(pool, *args, **kwargs)
            pools.append(pool)

        monkeypatch.setattr(
            workers_module.SolverPool, "__init__", recording_init
        )
        monkeypatch.setattr(workers_module.os, "cpu_count", lambda: 2)
        outcome = SweepService(jobs=8).sweep(GALLERY)
        assert [pool.workers for pool in pools] == [2]
        assert outcome.jobs == 2
        assert outcome.misses == 7
