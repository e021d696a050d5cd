"""Tests of the benchmark's own logic.

Run from the checkout root with ``python3 -m pytest perfbench -q``.
They cover the rung rule behind ``sustained_rps``, seeded schedules and
payloads, the per-layer self-time arithmetic, the metric names against
``BENCHMARK.json``, and the refusal to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from common import ReferenceKernel, Span, layer_report  # noqa: E402
from inputs import rng_for  # noqa: E402
from loadgen import (  # noqa: E402
    LADDER_RPS,
    REFERENCE_RPS,
    RUNG_RATIO,
    RungResult,
    next_probe,
    poisson_offsets,
    sustained_rate,
)
from metrics import END_TO_END, PER_LAYER, UNITS, names  # noqa: E402


def rung(rate: float, p99_ms: float, answered: int = 1000, sent: int = 1000, growth: float = 1.0) -> RungResult:
    latencies = np.full(answered, p99_ms)
    return RungResult(rate, sent, answered, sent - answered, latencies, np.zeros(sent), growth=growth)


# ---------------------------------------------------------------------- #
# Rung selection
# ---------------------------------------------------------------------- #
def test_rung_passes_on_latency_answers_and_backlog():
    assert rung(100, 39.0).passes()
    assert not rung(100, 41.0).passes()
    assert not rung(100, 5.0, answered=998).passes()  # 99.8% < 99.9% answered
    assert rung(100, 5.0, answered=999).passes()
    assert not rung(100, 20.0, growth=3.0).passes()  # latency still climbing
    assert not rung(100, 5.0, answered=0, sent=0).passes()


def test_sustained_rate_is_highest_pass_below_first_failure():
    probes = [rung(200, 80.0), rung(50, 10.0), rung(100, 30.0), rung(400, 90.0)]
    assert sustained_rate(probes) == 100
    # A pass above a failure does not count: the rung rule is monotone.
    assert sustained_rate([rung(50, 10.0), rung(100, 50.0), rung(200, 20.0)]) == 50
    assert sustained_rate([rung(50, 60.0), rung(200, 20.0)]) == 0.0
    assert sustained_rate([]) == 0.0


@pytest.mark.parametrize("capacity_index", [0, 5, 12, 30, len(LADDER_RPS) - 1])
def test_bisection_settles_on_the_capacity_rung(capacity_index):
    """Against a system that passes up to one rung, the search finds exactly that rung."""
    start = LADDER_RPS.index(REFERENCE_RPS)
    probes = []
    for _ in range(20):
        index = next_probe(LADDER_RPS, probes, start)
        if index is None:
            break
        probes.append(rung(LADDER_RPS[index], 10.0 if index <= capacity_index else 100.0))
    else:
        pytest.fail("bisection did not settle")
    assert sustained_rate(probes) == LADDER_RPS[capacity_index]
    assert len(probes) <= 8


def test_bisection_below_the_ladder_gives_zero():
    start = LADDER_RPS.index(REFERENCE_RPS)
    probes = []
    while (index := next_probe(LADDER_RPS, probes, start)) is not None:
        probes.append(rung(LADDER_RPS[index], 100.0))
    assert sustained_rate(probes) == 0.0
    assert probes[-1].rate == LADDER_RPS[0]


def test_ladder_is_fixed_and_steps_under_ten_percent():
    assert REFERENCE_RPS in LADDER_RPS
    steps = np.diff(LADDER_RPS) / np.asarray(LADDER_RPS[:-1])
    assert np.all(steps > 0) and np.all(steps < 0.10)
    assert RUNG_RATIO < 1.10
    assert LADDER_RPS[0] == 25.0


# ---------------------------------------------------------------------- #
# Determinism under a seed
# ---------------------------------------------------------------------- #
def test_poisson_schedule_is_deterministic_per_seed():
    a = poisson_offsets(200.0, 5.0, rng_for(7, "reference"))
    b = poisson_offsets(200.0, 5.0, rng_for(7, "reference"))
    c = poisson_offsets(200.0, 5.0, rng_for(8, "reference"))
    np.testing.assert_array_equal(a, b)
    assert len(a) != len(c) or not np.array_equal(a, c)
    assert np.all(np.diff(a) > 0) and a[-1] < 5.0
    assert 800 < len(a) < 1200  # ~rate * duration


def test_streams_of_one_seed_are_independent():
    assert rng_for(3, "ladder").random() != rng_for(3, "reference").random()


def test_payloads_and_model_are_deterministic_per_seed():
    from inputs import POOL, SERVING_SYS, serving_model, serving_payloads

    a, b = serving_payloads(5), serving_payloads(5)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (POOL, SERVING_SYS, SERVING_SYS)
    np.testing.assert_array_equal(a, np.round(a, 3))
    assert not np.array_equal(a, serving_payloads(6))
    first = [p.data for p in serving_model(5).parameters()]
    second = [p.data for p in serving_model(5).parameters()]
    for x, y in zip(first, second):
        np.testing.assert_array_equal(x, y)


# ---------------------------------------------------------------------- #
# Per-layer report
# ---------------------------------------------------------------------- #
def test_layer_report_self_time_and_unattributed():
    spans = [
        Span("root", "r1", 0.000, 0.010),
        Span("a", "r1", 0.001, 0.004, "root"),
        Span("b", "r1", 0.003, 0.007, "root"),  # overlaps a: the union counts once
        Span("c", "r1", 0.004, 0.006, "b"),
    ]
    report = layer_report(spans, root="root")
    layers = report["layers"]
    assert report["unattributed_ms"] == pytest.approx(4.0)  # 10 ms - union(1..7 ms)
    assert layers["b"]["self_median_ms"] == pytest.approx(2.0)
    assert layers["c"]["self_median_ms"] == pytest.approx(2.0)
    # Self times add up to the root plus the 1 ms where siblings a and b overlap.
    assert sum(row["self_total_ms"] for row in layers.values()) == pytest.approx(11.0)
    assert layers["root"]["share"] == pytest.approx(0.4)


def test_reference_kernels_time_fixed_work():
    scipy_fft = pytest.importorskip("scipy.fft")
    for fft in (np.fft, scipy_fft):
        kernel = ReferenceKernel((2, 16, 16), fft=fft)
        assert 0.0 < kernel.time_s() < 1.0


def test_median_rate_ignores_a_stall():
    """One long stall empties a few stretches; the median rate keeps the steady rate."""
    from loadgen import STRETCH, ClosedResult

    gaps = np.full(20 * STRETCH, 0.002)  # 500 answers/s ...
    gaps[5 * STRETCH] = 1.0  # ... but for one 1 s stall
    times = np.cumsum(gaps)
    result = ClosedResult(2, float(times[-1]), len(times), 0, np.ones(len(times)), times)
    assert result.median_rate() == pytest.approx(500.0)
    assert result.throughput < 400.0  # the mean rate pays for the stall in full


# ---------------------------------------------------------------------- #
# Metric names against BENCHMARK.json
# ---------------------------------------------------------------------- #
def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert names(False) == tuple(m["name"] for m in spec["end_to_end"])
    assert names(True) == tuple(m["name"] for m in spec["per_layer"])
    assert set(UNITS) == set(names(False)) | set(names(True))
    assert {w["name"] for w in spec["workloads"]} == {"http-classify", "fleet-classify", "design-200"}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ---------------------------------------------------------------------- #
# No program, no result
# ---------------------------------------------------------------------- #
def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "http-classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
