"""repro — probabilistic resource-contention performance estimation.

A from-scratch reproduction of *"A Probabilistic Approach to Model
Resource Contention for Performance Estimation of Multi-featured Media
Devices"* (Kumar, Mesman, Corporaal, Theelen, Ha — DAC 2007).

Quick start::

    from repro import (
        GraphBuilder, estimate_use_case, simulate, index_mapping
    )

    app_a = (GraphBuilder("A")
             .actor("a0", 100).actor("a1", 50).actor("a2", 100)
             .channel("a0", "a1", production=2, consumption=1)
             .channel("a1", "a2", production=1, consumption=2)
             .channel("a2", "a0", initial_tokens=1)
             .build())
    # ... build app_b, then:
    estimate = estimate_use_case([app_a, app_b],
                                 waiting_model="second_order")
    reference = simulate([app_a, app_b])

Subpackages
-----------
``repro.sdf``
    SDF graphs, repetition vectors, HSDF expansion, period analysis.
``repro.analysis_engine``
    Incremental per-application analysis engine: cached HSDF expansion,
    warm-started MCR, response-time memoization (the sweep hot path).
``repro.generation``
    Random benchmark graphs and the hand-built gallery.
``repro.platform``
    Processors, mappings, use-cases.
``repro.simulation``
    Discrete-event reference simulator (non-preemptive FCFS).
``repro.core``
    The paper's probabilistic contention analysis (Eq. 1-9, Fig. 4).
``repro.wcrt``
    Worst-case response-time baselines ([3], [6]).
``repro.admission``
    Run-time admission control on the composability algebra.
``repro.runtime``
    The event-driven resource manager: scenario traces, quality
    ladders, QoS policies (reject / evict / downgrade), runtime logs,
    and the parallel store-backed sweep service.
``repro.search``
    Contention-aware placement: candidate spaces over mappings,
    arbitration weights and priorities, batched candidate evaluation,
    seeded search strategies, and the byte-deterministic
    ``PlacementResult`` behind ``repro place`` and the served
    ``place`` verb.
``repro.experiments``
    Reproduction of every evaluation artefact (Table 1, Figures 5-6,
    timing, runtime throughput).
``repro.backend``
    The scalar and batched flavours of the estimation arithmetic, which
    give the same bits.  A batch runs on the NumPy kernels when NumPy
    is importable and it has at least ``BATCH_MIN_ROWS`` rows, and on
    the scalar loop otherwise; ``backend="python"`` on the estimator
    forces the scalar reference loop.
"""

from repro.admission import AdmissionController, AdmissionDecision
from repro.backend import ArrayBackend, get_backend
from repro.analysis_engine import AnalysisEngine, EngineStats, build_engines
from repro.core import (
    ActorProfile,
    Composite,
    EstimationResult,
    ProbabilisticEstimator,
    build_profiles,
    compose,
    compose_all,
    decompose,
    estimate_use_case,
    make_waiting_model,
)
from repro.exceptions import (
    AdmissionError,
    AnalysisError,
    DeadlockError,
    ExperimentError,
    GraphError,
    InconsistentGraphError,
    MappingError,
    ReproError,
    ResourceManagerError,
)
from repro.generation import (
    GeneratorConfig,
    WorkloadConfig,
    WorkloadGenerator,
    random_sdf_graph,
)
from repro.platform import (
    Mapping,
    Platform,
    Processor,
    UseCase,
    all_use_cases,
    index_mapping,
    use_cases_of_size,
)
from repro.sdf import (
    Actor,
    AnalysisMethod,
    Channel,
    GraphBuilder,
    SDFGraph,
    period,
    repetition_vector,
    throughput,
)
from repro.runtime import (
    AppSpec,
    QualityLadder,
    QualityLevel,
    ResourceManager,
    RuntimeLog,
    ScenarioEvent,
    SweepService,
    Trace,
    gallery_from_graphs,
)
from repro.simulation import SimulationConfig, Simulator, simulate

__version__ = "1.0.0"

__all__ = [
    "Actor",
    "ActorProfile",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionError",
    "AnalysisEngine",
    "AnalysisError",
    "AnalysisMethod",
    "AppSpec",
    "ArrayBackend",
    "Channel",
    "Composite",
    "DeadlockError",
    "EngineStats",
    "EstimationResult",
    "ExperimentError",
    "GeneratorConfig",
    "GraphBuilder",
    "GraphError",
    "InconsistentGraphError",
    "Mapping",
    "MappingError",
    "Platform",
    "ProbabilisticEstimator",
    "Processor",
    "QualityLadder",
    "QualityLevel",
    "ReproError",
    "ResourceManager",
    "ResourceManagerError",
    "RuntimeLog",
    "SDFGraph",
    "ScenarioEvent",
    "SimulationConfig",
    "Simulator",
    "SweepService",
    "Trace",
    "UseCase",
    "WorkloadConfig",
    "WorkloadGenerator",
    "all_use_cases",
    "build_engines",
    "build_profiles",
    "compose",
    "compose_all",
    "decompose",
    "estimate_use_case",
    "gallery_from_graphs",
    "get_backend",
    "index_mapping",
    "period",
    "random_sdf_graph",
    "repetition_vector",
    "simulate",
    "throughput",
    "use_cases_of_size",
]
