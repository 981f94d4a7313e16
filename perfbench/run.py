"""EDDIE performance benchmark: one seeded workload, timed and verdict-checked.

Run from the repository root::

    python3 perfbench/run.py --workload stream-replay --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0    # every workload in turn

Workloads (see ``BENCHMARK.json`` for why each exists):

- ``stream-replay``: one StreamingMonitor over alternating clean and
  loop-injected bitcount captures;
- ``fleet-clean``: a 64-session FleetScheduler, two kernel groups;
- ``serve-open``: a server child process driven over two loopback
  connections, first open loop at a fixed rate, then saturated;
- ``train-harness``: serial training of all ten MiBench programs plus
  a batch monitor of one clean and one injected capture each.

The run generates its inputs from ``--seed`` (untimed), times the user's
set-up several times, computes an untimed verdict reference, runs one
untimed warm-up pass, then measures for ``--seconds``. Every chunk's
verdict is compared with the reference; a mismatch, an ERROR frame, a
missing REPORT or a lost window is counted as a failed operation.

End-to-end metrics, every workload:

- ``windows_per_s``: median over timed passes (stream-replay: the whole
  stream; fleet-clean: all 64 sessions to completion; train-harness: the
  batch monitor of one round), or serve-open's mean over the saturation
  slices that ran with little CPU steal;
- ``chunk_p50_ms`` / ``chunk_tail_ms``: median and highest percentile
  with ten samples beyond it, of the chunk-to-verdict latency. The
  replayed workloads take each chunk's median over passes first (a slow
  chunk is slow in every pass; a stall of the machine hits one pass);
  serve-open times each chunk from when it was due and takes the median
  of each figure over the open-loop passes that ran with little CPU
  steal; the batch harness times each capture per chunk of it. The
  output names the percentile, the sample count and what one sample is;
- ``models_per_s``: detectors trained per second (train-harness: the
  serial training of all ten programs; elsewhere the set-up's training);
- ``state_bytes_per_session``: largest ``StreamingMonitor.resident_bytes()``
  seen while replaying the run's streams;
- ``setup_s``: median of several timed set-ups (at least
  ``SETUP_REPEATS``, and at least ``SETUP_SECONDS`` of them).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run
(half the time untraced for the overhead baseline, half traced); a
traced run whose spans cover less than ``MIN_ATTRIBUTION`` of the timed
wall time counts one failed operation. A
record with the seed, input digest, environment and all details is
written under ``.perfbench/``.

``--freeze-models`` rewrites ``perfbench/frozen_models.json``, the
train-harness oracle, from the current training code.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import (
    WORK,
    cpu_ticks,
    environment,
    have_sources,
    median,
    prepare_environment,
    write_record,
)

#: Set-up is timed at least this many times per run, and until
#: SETUP_SECONDS have gone into it, so that the reported median spans
#: more than one of the host's second-long slow phases.
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0

#: Least share of the timed wall time that per-layer self times (or, for
#: serve-open, matched request spans) must cover in a traced run.
MIN_ATTRIBUTION = 0.9

END_TO_END = (
    ("windows_per_s", "1/s"),
    ("chunk_p50_ms", "ms"),
    ("chunk_tail_ms", "ms"),
    ("models_per_s", "1/s"),
    ("state_bytes_per_session", "B"),
    ("setup_s", "s"),
)

#: Spans whose self time is reported as ``<span>.self_ms``.
SELF_SPANS = (
    "core.monitor.step", "core.monitor.plan", "core.monitor.commit",
    "core.monitor.run_signal", "core.stats.ks", "core.peaks", "core.stft",
    "stream.engine.feed", "stream.batchkernel.dispatch",
    "stream.fleet.round", "serve.protocol.decode", "serve.protocol.encode",
    "arch.simulate", "em.capture", "core.training",
)

PER_LAYER = tuple((f"{s}.self_ms", "ms") for s in SELF_SPANS) + (
    ("core.monitor.scalar_windows", "count"),
    ("core.monitor.planned_windows", "count"),
    ("core.monitor.fast_windows", "count"),
    ("core.monitor.fast_share", "ratio"),
    ("core.monitor.plan_yield", "ratio"),
    ("core.stats.ks.rows", "count"),
    ("core.peaks.rows", "count"),
    ("core.stft.frames", "count"),
    ("stream.batchkernel.sessions_per_dispatch", "count"),
    ("stream.fleet.chunks_per_round", "count"),
    ("serve.protocol.bytes_in", "B"),
    ("serve.server.wait_ms", "ms"),
    ("serve.server.chunks_per_round", "count"),
    ("serve.wire_ms", "ms"),
    ("serve.registry.load_ms", "ms"),
    ("arch.runs", "count"),
    ("core.training.ks_tests", "count"),
    ("trace.attribution", "ratio"),
    ("trace.overhead_windows_per_s", "1/s"),
)


def _workloads():
    from serve_open import ServeOpen
    from workloads import FleetClean, StreamReplay, TrainHarness

    return {
        "stream-replay": StreamReplay,
        "fleet-clean": FleetClean,
        "serve-open": ServeOpen,
        "train-harness": TrainHarness,
    }


def layer_metrics(tracer, traced, base) -> dict:
    """Per-layer metrics of one traced measurement."""
    self_ms = tracer.self_ms()
    counts, calls = tracer.counts, tracer.calls
    out = {f"{s}.self_ms": self_ms.get(s, 0.0) for s in SELF_SPANS}
    scalar = counts["core.monitor.scalar_windows"]
    fast = counts["core.monitor.fast_windows"]
    planned = counts["core.monitor.planned_windows"]

    def per_call(metric):
        return counts[metric] / calls[metric] if calls[metric] else 0.0

    out.update({
        "core.monitor.scalar_windows": scalar,
        "core.monitor.planned_windows": planned,
        "core.monitor.fast_windows": fast,
        "core.monitor.fast_share": fast / (fast + scalar) if fast + scalar
        else 0.0,
        "core.monitor.plan_yield": fast / planned if planned else 0.0,
        "core.stats.ks.rows": counts["core.stats.ks.rows"],
        "core.peaks.rows": counts["core.peaks.rows"],
        "core.stft.frames": counts["core.stft.frames"],
        "stream.batchkernel.sessions_per_dispatch": per_call(
            "stream.batchkernel.sessions"),
        "stream.fleet.chunks_per_round": per_call("stream.fleet.chunks"),
        "serve.protocol.bytes_in": counts["serve.protocol.bytes_in"],
        "serve.server.wait_ms": 0.0,
        "serve.server.chunks_per_round": 0.0,
        "serve.wire_ms": 0.0,
        "serve.registry.load_ms": self_ms.get("serve.registry.load", 0.0),
        "arch.runs": counts["arch.runs"],
        "core.training.ks_tests": counts["core.training.ks_tests"],
        "trace.attribution": tracer.root_ms() / (traced.wall_s * 1e3),
        "trace.overhead_windows_per_s": (
            traced.windows_per_s - base.windows_per_s),
    })
    return out


def measure_traced(workload, seconds):
    """Untraced half (overhead baseline), then a traced half."""
    from tracer import Tracer, traced

    base = workload.measure(seconds / 2)
    tracer = Tracer()
    with traced(tracer):
        m = workload.measure(seconds / 2)
    tracer.write(WORK / f"spans-{workload.name}.json")
    return base, m, layer_metrics(tracer, m, base)


def run(workload, seconds: float, trace: bool) -> dict:
    record = {"workload": workload.name, "seed": workload.seed,
              "seconds": seconds, "trace": trace}
    record["inputs"] = workload.generate()
    workload.trace = trace
    setups, trains = [], []
    try:
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            workload.close()
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
            trains.append(workload.train_s)
        record["reference"] = workload.reference()
        record["warmup"] = workload.warmup()
        warm = workload.warmup_result
        ticks = cpu_ticks()
        if trace:
            if hasattr(workload, "measure_traced"):
                base, m, metrics = workload.measure_traced(seconds)
            else:
                base, m, metrics = measure_traced(workload, seconds)
            phases = (warm, base, m)
        else:
            m = workload.measure(seconds)
            phases = (warm, m)
        stolen, total = (b - a for a, b in zip(ticks, cpu_ticks()))
    finally:
        workload.close()
    if not trace:
        lat = m.latency()
        record["latency"] = lat
        metrics = {
            "windows_per_s": m.windows_per_s,
            "chunk_p50_ms": lat["chunk_p50_ms"],
            "chunk_tail_ms": lat["chunk_tail_ms"],
            "models_per_s": (
                m.models_per_s if m.models_per_s is not None
                else workload.models_trained / median(trains)
            ),
            "state_bytes_per_session":
                record["warmup"]["state_bytes_per_session"],
            "setup_s": median(setups),
        }
    record["setup_s_samples"] = setups
    record["measurement"] = dict(
        m.extra, wall_s=m.wall_s,
        cpu_steal_share=stolen / total if total else 0.0,
    )
    record["pass_rates"] = m.pass_rates
    record["attempted"] = sum(p.attempted for p in phases)
    record["failed"] = sum(p.failed for p in phases)
    if trace:
        # The attribution check is one more operation: a traced run whose
        # spans cover too little of the timed wall time has lost a layer.
        record["attributed"] = metrics["trace.attribution"] >= MIN_ATTRIBUTION
        record["attempted"] += 1
        record["failed"] += not record["attributed"]
    record["metrics"] = metrics
    return record


def freeze_models() -> None:
    from pathlib import Path

    from repro.programs.mibench import BENCHMARKS
    from workloads import model_digest, train

    frozen = {name: model_digest(train(name).model) for name in BENCHMARKS}
    path = Path(__file__).parent / "frozen_models.json"
    path.write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def report(name: str, args) -> dict:
    """Run one workload, print its metrics, return its result object."""
    workload = _workloads()[name](args.seed)
    record = run(workload, args.seconds, bool(args.trace))
    record["environment"] = environment()
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {
        metric: {"value": float(record["metrics"][metric]), "unit": unit}
        for metric, unit in units.items()
    }
    path = write_record(
        f"{name}-seed{args.seed}-trace{args.trace}.json", record)
    print(f"== {name}")
    for metric, m in metrics.items():
        print(f"{metric:<44} {m['value']:>14.6g} {m['unit']}")
    if args.trace:
        print(f"trace.attribution >= {MIN_ATTRIBUTION:g}: "
              f"{'yes' if record['attributed'] else 'NO, counted as failed'}")
    else:
        lat = record["latency"]
        print(f"chunk_tail_ms is p{lat['tail_percentile']:g} over "
              f"{lat['latency_samples']} samples "
              f"({lat['tail_samples_beyond']} beyond); one sample is the "
              f"{lat['latency_basis']}")
    for key, value in sorted(record["measurement"].items()):
        print(f"{key:<44} {value:>14.6g}")
    print(f"inputs {record['inputs']['input_digest']}  record {path}")
    return {
        "correct": record["failed"] == 0,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze-models", action="store_true")
    args = parser.parse_args(argv)
    if not have_sources():
        print("perfbench: no src/repro next to perfbench/; run from a "
              "full checkout", file=sys.stderr)
        return 2
    prepare_environment()
    if args.freeze_models:
        freeze_models()
        return 0
    names = list(_workloads())
    if args.workload not in names + ["all"]:
        parser.error(f"--workload must be 'all' or one of {names}")
    if args.workload != "all":
        print(json.dumps(report(args.workload, args)))
        return 0
    results = {name: report(name, args) for name in names}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
