"""Golden-regression fixtures for the paper's evaluation artefacts.

Frozen JSON snapshots of Table 1, Figure 5 and Figure 6 (at a reduced,
seconds-scale configuration) live under ``tests/goldens/``.  Any change
that moves a reproduced number by more than 1e-9 *relative* fails here —
whether it comes from a refactor, a change to the batched kernels, or an
accidental semantic change.  A batch runs on the NumPy kernels when NumPy
is importable and it has at least ``BATCH_MIN_ROWS`` rows, and on the
scalar loop otherwise; the two give the same bits, so the same fixtures
gate both CI legs (numpy installed and numpy absent) unchanged.

Regeneration (after an *intentional* numeric change)::

    PYTHONPATH=src python -m pytest tests/test_goldens.py \
        --update-goldens

then review the fixture diff before committing.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.estimator import ProbabilisticEstimator
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import run_figure6
from repro.experiments.runner import SweepConfig, run_sweep
from repro.experiments.setup import paper_benchmark_suite
from repro.experiments.table1 import run_table1
from repro.sdf.analysis import AnalysisMethod

GOLDENS_DIR = Path(__file__).parent / "goldens"

#: The frozen evaluation configuration.  Small enough for the tier-1
#: suite, large enough to exercise every technique and use-case size.
APPLICATION_COUNT = 6
SWEEP_CONFIG = SweepConfig(
    target_iterations=40, samples_per_size=6, seed=1
)
FIGURE5_ITERATIONS = 60

#: The contention-model fixture: the registry-shipped priority and
#: weighted-round-robin models on the 4-app gallery, frozen under both
#: period-analysis methods.
CONTENTION_APPLICATIONS = 4
CONTENTION_PRIORITIES = {"A": 2, "B": 1, "C": 1, "D": 0}
CONTENTION_MODELS = (
    "priority_preemptive",
    "weighted_round_robin:A=2,C=3",
)

#: Relative drift at which a golden comparison fails.  The tiny
#: absolute floor only absorbs float noise around exact zeros — it is
#: three orders below the relative term for any value above 1e-3, so
#: the gate stays genuinely relative even for sub-unit magnitudes
#: (inaccuracy percentages can be < 1).
TOLERANCE = 1e-9
ABSOLUTE_FLOOR = 1e-12


@pytest.fixture(scope="module")
def artefacts():
    """One shared sweep feeding all three golden artefacts."""
    suite = paper_benchmark_suite(
        application_count=APPLICATION_COUNT
    )
    sweep = run_sweep(suite, config=SWEEP_CONFIG)
    table1 = run_table1(suite, sweep=sweep)
    figure6 = run_figure6(suite, sweep=sweep)
    figure5 = run_figure5(
        suite, target_iterations=FIGURE5_ITERATIONS
    )
    contention_suite = paper_benchmark_suite(
        application_count=CONTENTION_APPLICATIONS
    )
    contention_mapping = contention_suite.mapping.with_priorities(
        CONTENTION_PRIORITIES
    )
    contention: dict = {}
    for model_spec in CONTENTION_MODELS:
        by_method: dict = {}
        for method in AnalysisMethod:
            estimator = ProbabilisticEstimator(
                list(contention_suite.graphs),
                mapping=contention_mapping,
                waiting_model=model_spec,
                analysis_method=method,
            )
            results = estimator.sweep_all_sizes(samples_per_size=None)
            by_method[method.value] = {
                "+".join(result.use_case): {
                    app: result.periods[app]
                    for app in result.use_case
                }
                for result in results
            }
        contention[model_spec] = by_method
    return {
        "contention_models": {
            "applications": CONTENTION_APPLICATIONS,
            "priorities": dict(CONTENTION_PRIORITIES),
            "models": contention,
        },
        "table1": {
            "use_case_count": table1.use_case_count,
            "summaries": [
                {
                    "method": summary.method,
                    "throughput_percent": summary.throughput_percent,
                    "period_percent": summary.period_percent,
                }
                for summary in table1.summaries
            ],
        },
        "figure5": {
            "applications": list(figure5.applications),
            "series": {
                name: list(values)
                for name, values in figure5.series.items()
            },
        },
        "figure6": {
            "sizes": list(figure6.sizes),
            "series": {
                name: list(values)
                for name, values in figure6.series.items()
            },
            "samples_per_size": {
                str(size): count
                for size, count in figure6.samples_per_size.items()
            },
        },
    }


def _assert_matches(golden, actual, path: str) -> None:
    """Recursive comparison; floats at :data:`TOLERANCE` relative."""
    if isinstance(golden, dict):
        assert isinstance(actual, dict), path
        assert sorted(golden) == sorted(actual), (
            f"{path}: keys differ: {sorted(golden)} vs {sorted(actual)}"
        )
        for key in golden:
            _assert_matches(golden[key], actual[key], f"{path}.{key}")
    elif isinstance(golden, list):
        assert isinstance(actual, list), path
        assert len(golden) == len(actual), (
            f"{path}: length {len(golden)} vs {len(actual)}"
        )
        for index, (g, a) in enumerate(zip(golden, actual)):
            _assert_matches(g, a, f"{path}[{index}]")
    elif isinstance(golden, float) or isinstance(actual, float):
        drift = abs(float(golden) - float(actual))
        bound = TOLERANCE * abs(float(golden)) + ABSOLUTE_FLOOR
        assert drift <= bound, (
            f"{path}: {actual!r} drifted from golden {golden!r} "
            f"({drift:.3e} absolute, allowed {bound:.3e} = "
            f"{TOLERANCE} relative + {ABSOLUTE_FLOOR} floor)"
        )
    else:
        assert golden == actual, (
            f"{path}: {actual!r} != golden {golden!r}"
        )


@pytest.mark.parametrize(
    "name", ["table1", "figure5", "figure6", "contention_models"]
)
def test_golden(name: str, artefacts, update_goldens: bool) -> None:
    path = GOLDENS_DIR / f"{name}.json"
    if update_goldens:
        GOLDENS_DIR.mkdir(exist_ok=True)
        path.write_text(
            json.dumps(artefacts[name], indent=2, sort_keys=True)
            + "\n"
        )
        return
    assert path.exists(), (
        f"golden fixture {path} missing; generate it with "
        "'pytest tests/test_goldens.py --update-goldens'"
    )
    golden = json.loads(path.read_text())
    _assert_matches(golden, artefacts[name], name)
