"""The in-process workloads: stream-replay, fleet-clean, train-harness.

Each workload follows the same shape, driven by ``run.py``:

- ``generate()`` makes the seeded inputs (untimed) and returns their
  description for the run record;
- ``setup()`` is what a user pays before the first verdict (trains the
  model(s) and builds the sessions); ``run.py`` times it several times;
- ``reference()`` computes the untimed verdict oracle;
- ``warmup()`` runs one untimed pass, checks it, and samples state size;
- ``measure(seconds)`` runs timed passes until the time is spent and
  returns a :class:`Measurement`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from common import (
    CHUNK_SAMPLES,
    count_failures,
    digest,
    input_seeds,
    median,
    per_item_medians,
    report_key,
    tail,
    verdict_of,
    whole_chunks,
)

_pc = time.perf_counter


@dataclass
class Measurement:
    """What one timed phase produced."""

    windows_per_s: float
    latencies_ms: List[float]
    wall_s: float
    attempted: int = 0
    failed: int = 0
    models_per_s: Optional[float] = None
    extra: Dict[str, object] = field(default_factory=dict)
    #: windows/s of every timed pass, in order (run record only)
    pass_rates: List[float] = field(default_factory=list)
    #: what one latency sample is
    latency_basis: str = "chunk"
    #: samples for the median when they differ from the tail's
    p50_samples: Optional[List[float]] = None
    #: equally long passes whose own p50 and tail are taken before the
    #: median over passes; when set, replaces ``latencies_ms``
    pass_latencies_ms: List[List[float]] = field(default_factory=list)

    def latency(self) -> Dict[str, float]:
        passes = self.pass_latencies_ms or [self.latencies_ms]
        tails = [tail(p) for p in passes]
        return {
            "chunk_p50_ms": median(self.p50_samples) if self.p50_samples
            else median([median(p) for p in passes]),
            "chunk_tail_ms": median([t[0] for t in tails]),
            "tail_percentile": tails[0][1],
            "tail_samples_beyond": tails[0][2],
            "latency_samples": len(passes[0]),
            "latency_basis": self.latency_basis,
        }


def _scale():
    from repro.experiments.runner import Scale

    return Scale.quick()


def em_scenario(name: str):
    """The EM capture set-up of one MiBench program at quick scale."""
    from repro.arch.config import CoreConfig
    from repro.em.scenario import EmScenario
    from repro.programs.mibench import BENCHMARKS

    core = CoreConfig.iot_inorder(clock_hz=_scale().clock_hz)
    return EmScenario.build(BENCHMARKS[name](), core=core)


def capture(scenario, name: str, seed: int, injected: bool):
    """One capture; a loop-injected one as in the Table 1/2 protocol."""
    from repro.programs.mibench import INJECTION_LOOPS
    from repro.programs.workloads import injection_mix

    sim = scenario.simulator
    if injected:
        sim.set_loop_injection(INJECTION_LOOPS[name], injection_mix(4, 4), 1.0)
    try:
        return scenario.capture(seed=seed)
    finally:
        sim.clear_injections()


def train(name: str):
    """The user's training call: one detector at quick scale.

    Training always uses the quick scale's own seed, whatever ``--seed``
    is, so every run's models equal the frozen ones; ``--seed`` picks
    the monitored inputs only.
    """
    from repro.experiments.runner import build_detector
    from repro.programs.mibench import BENCHMARKS

    return build_detector(BENCHMARKS[name](), _scale(), source="em")


def injected_share(traces, offsets, times, window_s) -> float:
    """Share of windows overlapping an injected span of their capture."""
    starts = np.asarray(offsets, dtype=float)
    hit = 0
    for t in times:
        k = int(np.searchsorted(starts, t, side="right")) - 1
        local = t - starts[k]
        if traces[k].contains_injection(local - window_s / 2,
                                        local + window_s / 2):
            hit += 1
    return hit / len(times) if len(times) else 0.0


def stream_verdicts(model, chunks) -> tuple:
    """Per-chunk verdicts of an isolated StreamingMonitor run, and the
    finished monitor."""
    from repro.stream import StreamingMonitor

    monitor = StreamingMonitor(model)
    out = [verdict_of(monitor.feed(c)) for c in chunks]
    monitor.finish()
    return out, monitor


def max_resident(model, chunks) -> int:
    """Largest resident state of a StreamingMonitor over the chunks."""
    from repro.stream import StreamingMonitor

    monitor = StreamingMonitor(model)
    peak = 0
    for c in chunks:
        monitor.feed(c)
        peak = max(peak, monitor.resident_bytes())
    monitor.finish()
    return peak


def model_digest(model) -> list:
    """A trained model's config fingerprint and a digest of its
    per-region references: what ``frozen_models.json`` pins."""
    import hashlib

    from repro.serialize import config_fingerprint

    h = hashlib.sha256()
    for region in sorted(model.profiles):
        profile = model.profiles[region]
        h.update(region.encode())
        h.update(np.ascontiguousarray(profile.reference).tobytes())
        h.update(str((profile.num_peaks, profile.group_size)).encode())
    return [config_fingerprint(model.config), h.hexdigest()[:16]]


class Workload:
    """Defaults shared by every workload."""

    name = ""
    #: Models a set-up trains (for ``models_per_s`` outside train-harness).
    models_trained = 1
    #: Set before set-up when the run is traced.
    trace = False
    warmup_result: Measurement

    def close(self) -> None:
        """Release what a set-up holds (processes, sockets)."""


class StreamReplay(Workload):
    """One StreamingMonitor, closed loop, alternating clean and
    loop-injected bitcount captures in one long stream."""

    name = "stream-replay"
    program = "bitcount"

    def __init__(self, seed: int, captures: int = 16) -> None:
        self.seed = seed
        self.n_captures = captures

    def generate(self) -> dict:
        scenario = em_scenario(self.program)
        seeds = input_seeds(self.seed, self.n_captures, 0)
        self.traces = [
            capture(scenario, self.program, s, injected=bool(k % 2))
            for k, s in enumerate(seeds)
        ]
        parts = [t.iq.samples for t in self.traces]
        rate = self.traces[0].iq.sample_rate
        self.offsets = np.cumsum([0] + [len(p) for p in parts[:-1]]) / rate
        self.chunks = whole_chunks(np.concatenate(parts))
        self.samples = np.concatenate(self.chunks)
        return {
            "input_digest": digest(parts),
            "captures": len(parts),
            "samples": len(self.samples),
            "chunks": len(self.chunks),
        }

    def setup(self) -> None:
        from repro.stream import StreamingMonitor

        t0 = _pc()
        self.detector = train(self.program)
        self.train_s = _pc() - t0
        self.monitor = StreamingMonitor(self.detector.model)

    def reference(self) -> dict:
        """Per-chunk verdicts sliced out of one batch monitor run."""
        from repro.core.stft import StreamingStft
        from repro.types import Signal

        model = self.detector.model
        batch = self.detector.monitor(
            Signal(self.samples, model.sample_rate)
        ).result
        cfg = model.config
        w = cfg.window_samples
        hop = StreamingStft(model.sample_rate, w, cfg.overlap).hop

        def completed(n_samples: int) -> int:
            return 1 + (n_samples - w) // hop if n_samples >= w else 0

        index = np.asarray(batch.report_indices, dtype=int)
        self.expected = []
        done = fed = 0
        for chunk in self.chunks:
            fed += len(chunk)
            upto = completed(fed)
            picks = np.flatnonzero((index >= done) & (index < upto))
            self.expected.append((
                upto - done,
                tuple(report_key(batch.reports[i]) for i in picks),
                tuple(batch.times[done:upto].tolist()),
            ))
            done = upto
        return {
            "windows": len(batch.times),
            "reports_per_stream": len(batch.reports),
            "injected_window_share": injected_share(
                self.traces, self.offsets, batch.times,
                w / model.sample_rate,
            ),
        }

    def _verdicts(self, per_chunk) -> list:
        return [
            verdict_of(results) + (
                tuple(t for r in results for t in r.times.tolist()),
            )
            for results in per_chunk
        ]

    def warmup(self) -> dict:
        self.warmup_result = self.measure(0.0)
        return {"state_bytes_per_session": max_resident(
            self.detector.model, self.chunks)}

    def measure(self, seconds: float) -> Measurement:
        from repro.stream import StreamingMonitor

        model = self.detector.model
        deadline = _pc() + seconds
        rates: List[float] = []
        passes: List[List[float]] = []
        wall = 0.0
        attempted = failed = 0
        monitor = self.monitor
        while True:
            per_chunk = []
            latencies = []
            t_pass = _pc()
            for chunk in self.chunks:
                t0 = _pc()
                results = monitor.feed(chunk)
                latencies.append((_pc() - t0) * 1e3)
                per_chunk.append(results)
            summary = monitor.finish()
            elapsed = _pc() - t_pass
            wall += elapsed
            rates.append(summary.windows / elapsed)
            passes.append(latencies)
            attempted += len(self.chunks)
            failed += count_failures(self._verdicts(per_chunk), self.expected)
            monitor = StreamingMonitor(model)
            if _pc() >= deadline:
                break
        self.monitor = monitor
        return Measurement(
            median(rates), per_item_medians(passes), wall, attempted, failed,
            pass_rates=rates,
            latency_basis=f"feed time per chunk, median of {len(passes)} "
                          f"passes",
        )


class FleetClean(Workload):
    """An in-process FleetScheduler of 64 clean sessions in two kernel
    groups (bitcount and susan), stepped round by round to completion."""

    name = "fleet-clean"
    programs = ("bitcount", "susan")
    models_trained = len(programs)

    def __init__(self, seed: int, sessions: int = 64) -> None:
        self.seed = seed
        self.n_sessions = sessions

    def generate(self) -> dict:
        per_program = self.n_sessions // len(self.programs)
        self.streams = []  # (session id, program, chunks)
        parts = []
        for p, name in enumerate(self.programs):
            scenario = em_scenario(name)
            for k, s in enumerate(input_seeds(self.seed, per_program, p)):
                samples = scenario.capture(seed=s).iq.samples
                parts.append(samples)
                self.streams.append(
                    (f"{name}-{k:03d}", name, whole_chunks(samples))
                )
        return {
            "input_digest": digest(parts),
            "sessions": len(self.streams),
            "samples": int(sum(len(p) for p in parts)),
            "chunks": sum(len(c) for _, _, c in self.streams),
        }

    def setup(self) -> None:
        t0 = _pc()
        self.models = {name: train(name).model for name in self.programs}
        self.train_s = _pc() - t0
        self.fleet = self._fleet()

    def _fleet(self):
        from repro.stream import FleetScheduler

        self.observed: Dict[str, list] = {
            sid: [] for sid, _, _ in self.streams
        }
        fleet = FleetScheduler(
            max_sessions=len(self.streams),
            on_result=lambda sid, r: self.observed[sid].append(
                verdict_of([r])
            ),
        )
        for sid, program, chunks in self.streams:
            fleet.add_session(sid, self.models[program], source=iter(chunks))
        return fleet

    def reference(self) -> dict:
        self.expected = {}
        windows = reports = 0
        for sid, program, chunks in self.streams:
            verdicts, monitor = stream_verdicts(self.models[program], chunks)
            # The result sink only hears chunks that completed a window.
            self.expected[sid] = [v for v in verdicts if v[0]]
            windows += monitor.windows_seen
            reports += len(monitor.reports)
        return {
            "windows": windows,
            "reports_per_stream": reports / len(self.streams),
            "injected_window_share": 0.0,
        }

    def warmup(self) -> dict:
        self.warmup_result = self.measure(0.0)
        return {"state_bytes_per_session": max(
            max_resident(self.models[program], chunks)
            for _, program, chunks in self.streams
        )}

    def measure(self, seconds: float) -> Measurement:
        deadline = _pc() + seconds
        rates: List[float] = []
        passes: List[List[float]] = []
        wall = 0.0
        attempted = failed = 0
        fleet = self.fleet
        while True:
            latencies = []
            t_pass = _pc()
            while True:
                t0 = _pc()
                live = fleet.step_round()
                latencies.append((_pc() - t0) * 1e3)
                if not live:
                    break
            elapsed = _pc() - t_pass
            wall += elapsed
            passes.append(latencies)
            windows = sum(s.windows for s in fleet.summaries.values())
            rates.append(windows / elapsed)
            for sid, expected in self.expected.items():
                attempted += len(expected)
                failed += count_failures(self.observed[sid], expected)
            fleet = self._fleet()
            if _pc() >= deadline:
                break
        self.fleet = fleet
        # Every chunk of round r waits for the whole round; the round
        # that finds no chunk left (the last call) is weighted zero.
        lengths = [len(c) for _, _, c in self.streams]
        weights = [sum(n > r for n in lengths) for r in range(len(passes[0]))]
        return Measurement(
            median(rates), per_item_medians(passes, weights), wall,
            attempted, failed, pass_rates=rates,
            latency_basis=f"step_round time per chunk, median of "
                          f"{len(passes)} passes",
        )


class TrainHarness(Workload):
    """Serial training of every MiBench program, cache off, then a batch
    monitor of one clean and one loop-injected capture per program."""

    name = "train-harness"

    def __init__(self, seed: int, programs: Optional[List[str]] = None):
        from repro.programs.mibench import BENCHMARKS

        self.seed = seed
        self.programs = list(programs or BENCHMARKS)

    def generate(self) -> dict:
        seeds = input_seeds(self.seed, 2 * len(self.programs), 0)
        self.traces = []  # (program, trace) pairs, clean then injected
        for p, name in enumerate(self.programs):
            scenario = em_scenario(name)
            for injected in (False, True):
                self.traces.append((name, capture(
                    scenario, name, seeds[2 * p + injected], injected)))
        return {
            "input_digest": digest(t.iq.samples for _, t in self.traces),
            "programs": len(self.programs),
            "captures": len(self.traces),
        }

    def setup(self) -> None:
        t0 = _pc()
        train(self.programs[0])
        self.train_s = _pc() - t0

    def reference(self) -> dict:
        import json
        from pathlib import Path

        frozen = json.loads(
            (Path(__file__).parent / "frozen_models.json").read_text()
        )
        self.expected_models = {p: frozen[p] for p in self.programs}
        return {"frozen_models": len(self.expected_models)}

    def warmup(self) -> dict:
        """One untimed round; its batch verdicts must equal a streaming
        replay of the same captures and become the per-round oracle."""
        self.expected_verdicts = None
        m = self.warmup_result = self.measure(0.0)
        mismatched = peak = windows = reports = injected = 0
        for (name, trace), verdict, times in zip(
            self.traces, self.expected_verdicts, self._last_times
        ):
            model = self._last_detectors[name].model
            streamed, _ = stream_verdicts(model, [trace.iq.samples])
            mismatched += streamed[0] != verdict
            peak = max(peak, max_resident(
                model, whole_chunks(trace.iq.samples)))
            windows += verdict[0]
            reports += len(verdict[1])
            w = model.config.window_samples / model.sample_rate
            injected += sum(
                trace.contains_injection(t - w / 2, t + w / 2) for t in times
            )
        m.failed += mismatched
        return {
            "state_bytes_per_session": peak,
            "windows": windows,
            "reports_per_stream": reports / len(self.traces),
            "injected_window_share": injected / windows,
        }

    def measure(self, seconds: float) -> Measurement:
        deadline = _pc() + seconds
        model_rates: List[float] = []
        window_rates: List[float] = []
        wall = 0.0
        attempted = failed = 0
        rounds: List[List[float]] = []
        while True:
            t_round = _pc()
            detectors = {name: train(name) for name in self.programs}
            t_trained = _pc()
            verdicts = []
            self._last_times = []
            rounds.append([])
            windows = 0
            for name, trace in self.traces:
                t0 = _pc()
                report = detectors[name].monitor(trace)
                # Per chunk of capture: capture lengths vary with the
                # seed, and a whole capture's time would follow them.
                rounds[-1].append((_pc() - t0) * 1e3 * CHUNK_SAMPLES
                                  / len(trace.iq.samples))
                verdicts.append(verdict_of([report.result]))
                self._last_times.append(report.result.times)
                windows += len(report.result.times)
            t_end = _pc()
            wall += t_end - t_round
            model_rates.append(len(detectors) / (t_trained - t_round))
            window_rates.append(windows / (t_end - t_trained))
            attempted += len(detectors) + len(verdicts)
            failed += sum(
                model_digest(d.model) != self.expected_models[name]
                for name, d in detectors.items()
            )
            if self.expected_verdicts is None:
                self.expected_verdicts = verdicts
            failed += count_failures(verdicts, self.expected_verdicts)
            self._last_detectors = detectors
            if _pc() >= deadline:
                break
        # Twenty captures of ten programs: the median of pooled samples
        # would jump between two programs' latencies from run to run, so
        # it is taken over per-capture medians; twenty items leave no
        # percentile above p50 with ten beyond, so the tail pools all.
        return Measurement(
            median(window_rates), [x for r in rounds for x in r], wall,
            attempted, failed, models_per_s=median(model_rates),
            pass_rates=window_rates,
            latency_basis=f"batch monitor time of a capture per "
                          f"{CHUNK_SAMPLES}-sample chunk, all {len(rounds)} "
                          f"rounds (p50: per-capture medians)",
            p50_samples=per_item_medians(rounds),
        )
