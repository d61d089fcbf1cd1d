"""Shared fixtures: the paper's graphs, small benchmark suites and a
batcher hold for the estimation-server tests."""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro.experiments.setup import BenchmarkSuite, paper_benchmark_suite
from repro.generation.gallery import paper_two_apps
from repro.sdf.builder import GraphBuilder
from repro.sdf.graph import SDFGraph


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help=(
            "regenerate tests/goldens/*.json from the current code "
            "instead of comparing against them (review the diff before "
            "committing!)"
        ),
    )


@pytest.fixture(scope="session")
def update_goldens(request: pytest.FixtureRequest) -> bool:
    return bool(request.config.getoption("--update-goldens"))


@pytest.fixture
def app_a() -> SDFGraph:
    """Application A of the paper's Figure 2 (Per = 300 in isolation)."""
    return paper_two_apps()[0]


@pytest.fixture
def app_b() -> SDFGraph:
    """Application B of the paper's Figure 2 (Per = 300 in isolation)."""
    return paper_two_apps()[1]


@pytest.fixture
def two_apps(app_a: SDFGraph, app_b: SDFGraph) -> tuple:
    return app_a, app_b


@pytest.fixture
def simple_chain() -> SDFGraph:
    """Minimal two-actor ring: src(10) -> dst(20) -> src, one token."""
    return (
        GraphBuilder("chain")
        .actor("src", 10)
        .actor("dst", 20)
        .channel("src", "dst")
        .channel("dst", "src", initial_tokens=1)
        .build()
    )


@pytest.fixture(scope="session")
def small_suite() -> BenchmarkSuite:
    """Four-application suite for integration tests (fast)."""
    return paper_benchmark_suite(application_count=4)


@pytest.fixture(scope="session")
def full_suite() -> BenchmarkSuite:
    """The paper-scale ten-application suite (session-cached)."""
    return paper_benchmark_suite()


@contextlib.asynccontextmanager
async def _held_batcher(server, arrivals):
    """Keep ``server``'s batcher from draining until ``arrivals`` more
    estimate requests have reached it; on exit it drains them as one
    batch.  Concurrent arrival without a timer."""
    # Let a just-started batcher reach its wait on the arrival event;
    # a fresh event then takes every submit's wake-up until the held
    # one is handed back.
    await asyncio.sleep(0)
    held, server._arrival = server._arrival, asyncio.Event()
    expected = server.stats.estimate_requests + arrivals
    loop = asyncio.get_running_loop()
    deadline = loop.time() + 30.0
    try:
        yield
        while server.stats.estimate_requests < expected:
            assert loop.time() < deadline, "requests never reached the server"
            await asyncio.sleep(0.001)
    finally:
        server._arrival = held
        held.set()


@pytest.fixture
def held_batcher():
    """``async with held_batcher(server, arrivals):`` — the misses sent
    inside the block drain as one batch once ``arrivals`` estimate
    requests have reached the server."""
    return _held_batcher
