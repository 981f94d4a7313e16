"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of each layer *at the binding its
caller looks up* -- a module global such as
``repro.stream.engine.peak_matrix`` or a class attribute such as
``Monitor.step`` -- records one span per call (name, start, duration,
parent, request id) and restores every original binding afterwards. Nothing in
``src/`` is edited; the wrappers live only inside :func:`traced`.

Spans are kept by a private :class:`repro.obs.trace.TraceCollector`.
Self time is span time minus the time its child spans cover, so the
self times of all spans sum to the time spent under the outermost
wrapped calls. A span nested inside one that counts the same unit
(``plan_chunks_pooled`` falling back to ``Monitor.plan_chunk``) splits
time correctly and leaves the counting to the outer span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.obs.trace import TraceCollector

_now = time.perf_counter


def _rows(result) -> int:
    return int(result.shape[0])


def _frames(result) -> int:
    return int(result[0].shape[0])


def _plan_k(result) -> int:
    return int(result.k) if result is not None else 0


def _pooled_k(result) -> int:
    return sum(int(p.k) for p in result if p is not None)


def _job_rows(args) -> int:
    return sum(len(job.rows) for job in args[0])


def _items(args) -> int:
    return len(args[1])  # a method's batch, after ``self``


def _frame_bytes(args) -> int:
    return len(args[0].payload)


#: Every wrapped binding: (module, owner attribute or None for a module
#: global, attribute, span name, count metric, how to count).
#: A counter taking ``result`` reads the return value; one taking
#: ``args`` reads the call's positional arguments (``self`` first, for
#: methods); ``None`` counts calls.
TARGETS: Tuple[tuple, ...] = (
    # stream layer
    ("repro.stream.engine", "StreamingMonitor", "feed",
     "stream.engine.feed", None, None),
    ("repro.stream.fleet", "FleetScheduler", "step_round",
     "stream.fleet.round", "stream.fleet.rounds", None),
    ("repro.stream.fleet", "FleetScheduler", "feed_many",
     "stream.fleet.round", "stream.fleet.chunks", ("args", _items)),
    ("repro.stream.batchkernel", "FleetKernel", "dispatch",
     "stream.batchkernel.dispatch", "stream.batchkernel.sessions",
     ("args", _items)),
    # STFT: staging/emission per chunk plus the frame transform itself
    ("repro.core.stft", "StreamingStft", "begin_feed", "core.stft", None,
     None),
    ("repro.core.stft", "StreamingStft", "finish_feed", "core.stft", None,
     None),
    ("repro.core.stft", None, "_transform_frames", "core.stft",
     "core.stft.frames", ("result", _frames)),
    ("repro.stream.batchkernel", None, "_transform_frames", "core.stft",
     "core.stft.frames", ("result", _frames)),
    ("repro.core.monitor", None, "stft", "core.stft", None, None),
    ("repro.core.training", None, "stft", "core.stft", None, None),
    # peak extraction
    ("repro.stream.engine", None, "peak_matrix", "core.peaks",
     "core.peaks.rows", ("result", _rows)),
    ("repro.stream.batchkernel", None, "peak_rows", "core.peaks",
     "core.peaks.rows", ("result", _rows)),
    ("repro.core.monitor", None, "peak_matrix", "core.peaks",
     "core.peaks.rows", ("result", _rows)),
    ("repro.core.training", None, "peak_matrix", "core.peaks",
     "core.peaks.rows", ("result", _rows)),
    # Algorithm 1: fast-path plan/commit and the scalar step
    ("repro.core.monitor", "Monitor", "plan_chunk", "core.monitor.plan",
     "core.monitor.planned_windows", ("result", _plan_k)),
    ("repro.stream.batchkernel", None, "plan_chunks_pooled",
     "core.monitor.plan", "core.monitor.planned_windows",
     ("result", _pooled_k)),
    ("repro.stream.engine", None, "plan_suffix", "core.monitor.plan",
     "core.monitor.planned_windows", ("result", _plan_k)),
    ("repro.core.monitor", "Monitor", "commit_chunk", "core.monitor.commit",
     "core.monitor.fast_windows", ("result", int)),
    ("repro.core.monitor", "Monitor", "step", "core.monitor.step",
     "core.monitor.scalar_windows", None),
    ("repro.core.monitor", "Monitor", "run_signal",
     "core.monitor.run_signal", None, None),
    # K-S scoring: pooled jobs, the batched scalar path, candidate probes
    ("repro.stream.engine", None, "score_ks_jobs", "core.stats.ks",
     "core.stats.ks.rows", ("args", _job_rows)),
    ("repro.stream.batchkernel", None, "score_ks_jobs", "core.stats.ks",
     "core.stats.ks.rows", ("args", _job_rows)),
    ("repro.core.monitor", None, "ks_statistic_batch", "core.stats.ks",
     "core.stats.ks.rows", ("args", lambda args: len(args[0]))),
    ("repro.core.monitor", None, "two_sample_reject", "core.stats.ks",
     "core.stats.ks.rows", None),
    # Training's own K-S tests stay in core.training's self time.
    ("repro.core.training", None, "two_sample_reject", "core.training",
     "core.training.ks_tests", None),
    # training and signal synthesis
    ("repro.core.training", "Trainer", "add_run", "core.training", None,
     None),
    ("repro.core.training", "Trainer", "build", "core.training", None,
     None),
    ("repro.em.scenario", "EmScenario", "capture", "em.capture", None,
     None),
    ("repro.arch.simulator", "Simulator", "run", "arch.simulate",
     "arch.runs", None),
    # serving: framing on the server's event loop, registry loads
    ("repro.serve.protocol", None, "decode_chunk", "serve.protocol.decode",
     "serve.protocol.bytes_in", ("args", _frame_bytes)),
    ("repro.serve.server", None, "json_frame", "serve.protocol.encode",
     None, None),
    ("repro.serve.registry", "ModelRegistry", "load", "serve.registry.load",
     None, None),
)


class Tracer:
    """Span and count recorder for the traced run; see :func:`traced`.

    Spans go to a private :class:`repro.obs.trace.TraceCollector`, which
    keeps the per-thread open-span stack and the parent links, so this
    works whether or not observability is enabled. What the collector
    has no field for is kept beside it, keyed by span index: the request
    id and the count metric of each span.

    ``request_id`` is an optional hook ``(span name, args, result) ->
    str or None`` that tags spans belonging to one request (the served
    workload tags decode/encode spans with ``session:seq``).
    """

    def __init__(
        self,
        request_id: Optional[Callable[[str, tuple, object], Optional[str]]]
        = None,
    ) -> None:
        self.collector = TraceCollector()
        self.request_ids: Dict[int, str] = {}
        self.counts: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self._metric_of: Dict[int, str] = {}
        self._lock = threading.Lock()
        self._request_id = request_id

    def wrap(self, fn, name, metric, how):
        tracer, collector = self, self.collector

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = collector.current_parent()
            index = collector.open_span(name)
            if metric is not None:
                tracer._metric_of[index] = metric
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                # Process CPU time is not sampled: it would cost a system
                # call per span and no metric uses it.
                collector.close_span(index, start, _now() - start, 0.0)
            if tracer._request_id is not None:
                rid = tracer._request_id(name, args, result)
                if rid is not None:
                    tracer.request_ids[index] = rid
            # A unit is counted once, at the outermost span that counts
            # it (pooled planning re-enters plan_chunk).
            if metric is not None and tracer._metric_of.get(parent) != metric:
                if how is None:
                    n = 1
                elif how[0] == "result":
                    n = how[1](result)
                else:
                    n = how[1](args)
                with tracer._lock:
                    tracer.calls[metric] += 1
                    tracer.counts[metric] += n
            return result

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    # -- aggregation ---------------------------------------------------------

    def self_ms(self) -> dict:
        """Self time (ms) per span name: wall time minus children's."""
        spans = self.collector.spans
        covered = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                covered[s.parent] += s.wall_s
        totals: Dict[str, float] = defaultdict(float)
        for s, child_s in zip(spans, covered):
            totals[s.name] += (s.wall_s - child_s) * 1e3
        return dict(totals)

    def root_ms(self) -> float:
        """Time covered by outermost spans, i.e. the sum of all self times."""
        return sum(
            s.wall_s for s in self.collector.spans if s.parent < 0) * 1e3

    # -- across the server child's process boundary ----------------------

    def write(self, path: Path) -> None:
        """Write the spans (``TraceCollector.export`` form), request ids
        and counts. Call with no wrapped call in flight: export drops
        open spans, which would shift the indices the side tables use."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            path.write_text(json.dumps({
                "spans": self.collector.export(),
                "request_ids": self.request_ids,
                "counts": self.counts,
                "calls": self.calls,
            }))

    def merge(self, path: Path) -> None:
        """Add the spans and counts another process wrote with
        :meth:`write` (its root spans stay roots here)."""
        data = json.loads(Path(path).read_text())
        offset = len(self.collector.spans)
        self.collector.merge(data["spans"])
        for index, rid in data["request_ids"].items():
            self.request_ids[int(index) + offset] = rid
        for table, key in ((self.counts, "counts"), (self.calls, "calls")):
            for metric, n in data[key].items():
                table[metric] += n


def _owner(module_name: str, owner_name: Optional[str]):
    module = importlib.import_module(module_name)
    return module if owner_name is None else getattr(module, owner_name)


def install(tracer: Tracer, targets: Sequence[tuple] = TARGETS) -> list:
    """Wrap every target binding; returns what :func:`restore` needs."""
    saved = []
    for module_name, owner_name, attr, name, metric, how in targets:
        owner = _owner(module_name, owner_name)
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, metric, how))
    return saved


def restore(saved: list) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


def bindings(targets: Sequence[tuple] = TARGETS) -> list:
    """The objects currently bound at every target (for restore checks)."""
    return [
        _owner(module_name, owner_name).__dict__[attr]
        for module_name, owner_name, attr, *_ in targets
    ]


@contextlib.contextmanager
def traced(tracer: Tracer, targets: Sequence[tuple] = TARGETS):
    """Install the wrappers for the duration of the block."""
    saved = install(tracer, targets)
    try:
        yield tracer
    finally:
        restore(saved)
