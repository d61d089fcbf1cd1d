"""The batched estimator's per-actor tables: exact golden and semantics.

The backend-parity tests compare ``waiting_times``/``response_times``
with the scalar reference loop; this file pins their bits against a
fixture.  The fixture
``tests/goldens/estimator_tables.json`` stores every value as
``float.hex`` for all 15 use-cases of the 4-application paper suite
(seed 11) on the numpy backend, per waiting model and fixed-point
iteration count.  At ``iterations=10`` the contended rows of
``second_order`` and ``priority_preemptive`` converge after 6, 7 or 8
passes while others run to the cap, so a frozen row that lost its
final pass's values, or a value scattered into the wrong
``(application, actor)`` column, fails here.

Regeneration (after an *intentional* numeric change)::

    PYTHONPATH=src python -m pytest tests/test_estimator_tables.py \
        --update-goldens

then review the fixture diff before committing.

The batched path returns the tables as lazy read-only mappings; the
semantics tests below pin that they behave as the scalar path's dicts
wherever a caller can tell: ``==``, key order, ``dict``/JSON/pickle/
deepcopy round trips and ``dataclasses.replace``.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import pickle
from pathlib import Path

import pytest

from repro.backend import BATCH_MIN_ROWS, numpy_available
from repro.core.estimator import ProbabilisticEstimator
from repro.exceptions import ExperimentError
from repro.experiments.setup import paper_benchmark_suite
from repro.platform.usecase import UseCase

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not installed"
)

GOLDEN = Path(__file__).parent / "goldens" / "estimator_tables.json"

MODELS = ("second_order", "priority_preemptive", "wrr:A=2")
ITERATIONS = (1, 3, 10)
TABLES = ("waiting_times", "response_times")


def _results() -> dict:
    suite = paper_benchmark_suite(seed=11, application_count=4)
    names = [g.name for g in suite.graphs]
    use_cases = [
        UseCase(combination)
        for size in range(1, len(names) + 1)
        for combination in itertools.combinations(names, size)
    ]
    results: dict = {}
    for model in MODELS:
        estimator = ProbabilisticEstimator(
            list(suite.graphs),
            mapping=suite.mapping,
            waiting_model=model,
            backend="numpy",
        )
        for iterations in ITERATIONS:
            results[f"{model}@{iterations}"] = estimator.estimate_many(
                use_cases, iterations=iterations
            )
    return results


def _encode(result) -> dict:
    row: dict = {"use_case": list(result.use_case)}
    for table in TABLES:
        row[table] = [
            [app, actor, value.hex()]
            for (app, actor), value in getattr(result, table).items()
        ]
    return row


def _dump(tables: dict) -> str:
    """One use-case row per line, so a fixture diff shows the rows."""
    blocks = [
        f"{json.dumps(case)}: [\n"
        + ",\n".join(json.dumps(row, separators=(",", ":")) for row in rows)
        + "\n]"
        for case, rows in tables.items()
    ]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def _decode(entries) -> dict:
    return {
        (app, actor): float.fromhex(value) for app, actor, value in entries
    }


def test_tables_match_golden_bit_for_bit(update_goldens):
    results = _results()
    actual = {
        case: [_encode(result) for result in rows]
        for case, rows in results.items()
    }
    if update_goldens:
        GOLDEN.write_text(_dump(actual))
        pytest.skip("golden regenerated")
    golden = json.loads(GOLDEN.read_text())
    assert list(actual) == list(golden)
    for case, rows in golden.items():
        assert len(actual[case]) == len(rows), case
        for result, got, want in zip(results[case], actual[case], rows):
            # Same use-case, keys in the same order, same bits.
            assert got == want, (case, want["use_case"])
            for table in TABLES:
                assert getattr(result, table) == _decode(want[table])


@pytest.fixture(scope="module")
def suite():
    return paper_benchmark_suite(seed=11, application_count=4)


def _estimator(suite, backend):
    return ProbabilisticEstimator(
        list(suite.graphs),
        mapping=suite.mapping,
        waiting_model="second_order",
        backend=backend,
    )


@pytest.fixture(scope="module")
def result(suite):
    # Enough rows for the batched kernels, whose tables are the views.
    return _estimator(suite, "numpy").estimate_many(
        [UseCase(("A", "B", "D"))] * BATCH_MIN_ROWS, iterations=3
    )[0]


@pytest.mark.parametrize("table", TABLES)
class TestRowTableSemantics:
    def test_compares_equal_to_a_plain_dict(self, result, table):
        view = getattr(result, table)
        plain = dict(view)
        assert view == plain and plain == view
        assert not view != plain
        assert view != {**plain, ("A", "t0"): -1.0}
        assert view != {}
        assert list(view) == list(plain)
        assert len(view) == len(plain) == 8 + 8 + 10

    def test_is_read_only(self, result, table):
        view = getattr(result, table)
        with pytest.raises(TypeError):
            view[("A", "t0")] = 0.0  # type: ignore[index]

    def test_json_round_trip(self, result, table):
        # JSON objects need string keys; the tuple keys travel as pairs.
        view = getattr(result, table)
        text = json.dumps([[*key, value] for key, value in dict(view).items()])
        back = {(app, actor): value for app, actor, value in json.loads(text)}
        assert back == view
        assert list(back) == list(view)

    def test_pickle_and_deepcopy_round_trips(self, result, table):
        view = getattr(result, table)
        for clone in (
            pickle.loads(pickle.dumps(view)),
            copy.deepcopy(view),
            copy.copy(view),
        ):
            assert clone == view
            assert list(clone.items()) == list(view.items())
        whole = pickle.loads(pickle.dumps(result))
        assert getattr(whole, table) == view
        assert copy.deepcopy(result) == result

    def test_dataclasses_replace(self, result, table):
        view = getattr(result, table)
        renamed = dataclasses.replace(result, model_name="renamed")
        assert getattr(renamed, table) == view
        swapped = dataclasses.replace(result, **{table: dict(view)})
        assert swapped == result


def test_keys_run_in_use_case_then_actor_order(suite):
    use_case = UseCase(("D", "A", "C"))
    batched = _estimator(suite, "numpy").estimate_many(
        [use_case] * BATCH_MIN_ROWS
    )[0]
    scalar = _estimator(suite, "python").estimate(use_case)
    graphs = {g.name: g for g in suite.graphs}
    expected = [
        (app, actor) for app in use_case for actor in graphs[app].actor_names
    ]
    for table in TABLES:
        assert list(getattr(batched, table)) == expected
        # The scalar path keys the same actors, processor by processor.
        assert set(getattr(scalar, table)) == set(expected)


def test_unknown_application_error_matches_the_scalar_path(suite):
    messages = []
    for backend in ("python", "numpy"):
        with pytest.raises(ExperimentError) as info:
            _estimator(suite, backend).estimate_many(
                [UseCase(("A",))] * (BATCH_MIN_ROWS - 1)
                + [UseCase(("B", "Z"))]
            )
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "unknown applications: ['Z']" in messages[0]
