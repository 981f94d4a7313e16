"""The benchmark's own tests: seeded inputs, tracer hygiene, verdicts.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
from common import count_failures
from serve_open import ServeOpen
from workloads import FleetClean, StreamReplay, TrainHarness

_BENCH = Path(__file__).resolve().parents[1]


#: The smallest inputs of each workload.
TINY = {
    "stream-replay": functools.partial(StreamReplay, captures=4),
    "fleet-clean": functools.partial(FleetClean, sessions=8),
    "serve-open": functools.partial(ServeOpen, captures=1),
    "train-harness": functools.partial(TrainHarness,
                                       programs=["bitcount", "sha"]),
}


def _tiny(name, seed=0):
    return TINY[name](seed)


def _ready(workload):
    workload.generate()
    workload.setup()
    workload.reference()
    return workload


@pytest.mark.parametrize("cls,kwargs", [
    (StreamReplay, {"captures": 2}),
    (FleetClean, {"sessions": 4}),
    (ServeOpen, {"captures": 1}),
    (TrainHarness, {"programs": ["bitcount"]}),
])
def test_input_digest_follows_the_seed(cls, kwargs):
    first = cls(7, **kwargs).generate()["input_digest"]
    again = cls(7, **kwargs).generate()["input_digest"]
    other = cls(8, **kwargs).generate()["input_digest"]
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", sorted(run._workloads()))
def test_tiny_run_passes_its_verdict_check(name):
    record = run.run(_tiny(name), seconds=0.5, trace=False)
    assert record["attempted"] > 0
    assert record["failed"] == 0
    assert set(record["metrics"]) == {n for n, _ in run.END_TO_END}
    assert all(v > 0 for v in record["metrics"].values())


def test_traced_run_restores_every_wrapper():
    before = tracer.bindings()
    workload = _ready(_tiny("fleet-clean"))
    workload.warmup()
    base, traced, metrics = run.measure_traced(workload, 0.2)
    after = tracer.bindings()
    assert all(a is b for a, b in zip(before, after))
    assert not any(hasattr(b, "__perfbench_wrapped__") for b in after)
    assert traced.failed == 0
    assert metrics["trace.attribution"] >= 0.9
    assert metrics["stream.batchkernel.sessions_per_dispatch"] > 1
    assert set(metrics) == {n for n, _ in run.PER_LAYER}


def test_low_attribution_fails_the_traced_run(monkeypatch):
    # With no wrapped bindings no span covers the timed work, as if a
    # refactor had moved every call away from the traced bindings.
    monkeypatch.setattr(tracer, "traced",
                        functools.partial(tracer.traced, targets=()))
    record = run.run(_tiny("stream-replay"), seconds=0.2, trace=True)
    assert record["metrics"]["trace.attribution"] < run.MIN_ATTRIBUTION
    assert not record["attributed"]
    assert record["failed"] == 1


def test_wrappers_are_installed_inside_the_block():
    before = tracer.bindings()
    with tracer.traced(tracer.Tracer()):
        inside = tracer.bindings()
    assert all(a is not b for a, b in zip(before, inside))
    assert all(a is b for a, b in zip(before, tracer.bindings()))


def test_corrupted_verdict_counts_as_failed():
    workload = _ready(_tiny("stream-replay"))
    windows, reports, times = workload.expected[3]
    workload.expected[3] = (windows, reports + (("bogus",),), times)
    assert workload.measure(0.0).failed == 1


def test_lost_or_extra_chunks_count_as_failed():
    expected = [(16, ()), (16, ((0.5, "r", 3, "anomaly"),))]
    assert count_failures(expected, expected) == 0
    assert count_failures(expected[:1], expected) == 1
    assert count_failures(expected + [(1, ())], expected) == 1
    assert count_failures([(16, ()), (16, ())], expected) == 1


def test_result_line_matches_the_contract(monkeypatch, capsys):
    monkeypatch.setattr(run, "_workloads",
                        lambda: {"train-harness": TINY["train-harness"]})
    assert run.main(["--workload", "train-harness", "--seconds", "0.2",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((_BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert [m["name"] for m in spec["per_layer"]] == [
        name for name, _ in run.PER_LAYER
    ]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(_BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(_BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
