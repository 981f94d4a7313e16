"""The serve-open workload: a server child process, two loopback sessions.

The generator (this process) drives two connections with clean bitcount
captures. A run is :data:`ROUNDS` rounds of two phases, each phase on
fresh sessions:

1. **open loop** at :data:`OPEN_RATE` chunks per second over both
   connections, whatever the replies do. Each chunk is timed from when
   it was *due*, so generator lateness and a growing server queue show
   up as latency instead of hiding in a slower send rate;
2. **saturation**: closed loop, :data:`WINDOW` chunks in flight per
   connection, for ``windows_per_s``.

Each phase goes on through the streams where the last one stopped: the
cost of a chunk depends on its capture, and a run's phases together
cover every capture more than once, so no metric rests on a few of the
seed's captures. Each phase also records the CPU steal of the machine
while it ran; the metrics come from the open-loop passes and the
saturation slices that ran with at most the run's median steal
(:func:`common.quiet_passes`). Interleaving the phases spreads both
over the whole run, so a burst of steal costs each of them a pass
rather than a whole metric.

Every REPORT is compared with a local StreamingMonitor fed the same
chunks, and each session's closing summary with the local summary.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (
    CHUNK_SAMPLES,
    WORK,
    cpu_ticks,
    digest,
    input_seeds,
    median,
    quiet_passes,
    report_key,
    steal_since,
    tail,
    verdict_of,
)
from workloads import Measurement, Workload, em_scenario, train

#: Fixed open-loop rate, chunks per second over both connections:
#: about a third of the ~250 chunks/s the unchanged code saturates at on
#: a shared 2-core x86-64 box. Frozen, so later changes are compared at
#: one load; below half so that the queue stays short even when the box
#: runs at half speed, which it sometimes does.
OPEN_RATE = 80.0

#: Chunks in flight per connection during saturation.
WINDOW = 8

#: Rounds of (open-loop pass, saturation slice) per run.
ROUNDS = 5

#: Share of each round spent in the open loop; the rest saturates. At
#: 10 s a pass holds 100 chunks, enough for a p90 tail with ten beyond.
OPEN_SHARE = 0.625

SESSIONS = 2
WARMUP_CHUNKS = 24
_CHILD = Path(__file__).resolve().parent / "serve_child.py"
_TIMEOUT_S = 20.0

_ns = time.perf_counter_ns


class _Connection:
    """One monitoring session; a thread reads its frames as they come."""

    def __init__(self, host: str, port: int, spec: str) -> None:
        from repro.serve.protocol import (
            PROTOCOL_VERSIONS,
            FrameType,
            json_frame,
            parse_json,
            recv_frame,
            send_frame,
        )

        self._send_frame = send_frame
        sock = socket.create_connection((host, port), timeout=_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        send_frame(sock, json_frame(
            FrameType.HELLO, {"versions": list(PROTOCOL_VERSIONS)}))
        recv_frame(sock)
        send_frame(sock, json_frame(FrameType.OPEN, {
            "model": spec, "t0": 0.0, "window": WINDOW}))
        ack = recv_frame(sock)
        if ack is None or ack.type != FrameType.OPEN:
            raise RuntimeError(f"session refused: {ack}")
        self.session = str(parse_json(ack)["session"])
        self.seq = 0
        self.sent_ns: Dict[int, int] = {}
        self.recv_ns: Dict[int, int] = {}
        self.payloads: Dict[int, dict] = {}
        self.errors: List[dict] = []
        self.summary: Optional[dict] = None
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        from repro.serve.protocol import FrameType, parse_json, recv_frame

        while True:
            try:
                frame = recv_frame(self.sock)
            except (OSError, ValueError):
                frame = None
            now = _ns()
            if frame is None:
                break
            if frame.type == FrameType.REPORT:
                payload = parse_json(frame)
                with self._cond:
                    self.recv_ns[payload["seq"]] = now
                    self.payloads[payload["seq"]] = payload
                    self._cond.notify_all()
            elif frame.type == FrameType.CLOSE:
                with self._cond:
                    self.summary = parse_json(frame)
                    self._cond.notify_all()
                break
            elif frame.type == FrameType.ERROR:
                with self._cond:
                    self.errors.append(parse_json(frame))
                    self._cond.notify_all()
        with self._cond:
            self._cond.notify_all()

    def send(self, frame: bytes) -> int:
        """Send one CHUNK; a dead connection is recorded as an error (its
        chunk then never gets a REPORT and fails verification)."""
        self.seq += 1
        sent = _ns()
        self.sent_ns[self.seq] = sent
        try:
            self._send_frame(self.sock, frame)
        except OSError as error:
            with self._cond:
                self.errors.append({"code": "send_failed",
                                    "message": str(error)})
        return sent

    @property
    def outstanding(self) -> int:
        return self.seq - len(self.recv_ns)

    def wait_all(self, timeout: float = _TIMEOUT_S, window: int = 0) -> bool:
        """Block until at most ``window`` sent chunks lack their REPORT
        (or time runs out, or the server sent an ERROR)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self.seq - len(self.recv_ns) > window and not self.errors:
                left = deadline - time.monotonic()
                if left <= 0 or not self._reader.is_alive():
                    return False
                self._cond.wait(left)
        return not self.errors

    def close_session(self) -> Optional[dict]:
        from repro.serve.protocol import FrameType, json_frame

        try:
            self._send_frame(self.sock, json_frame(FrameType.CLOSE, {}))
        except OSError:
            return None
        self._reader.join(_TIMEOUT_S)
        return self.summary

    def shutdown(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._reader.join(_TIMEOUT_S)


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One line from the child's stdout, or an error after ``timeout``."""
    out = b""
    deadline = time.monotonic() + timeout
    fd = proc.stdout.fileno()
    while not out.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise RuntimeError("server child did not answer in time")
        part = os.read(fd, 4096)
        if not part:
            raise RuntimeError("server child exited")
        out += part
    return out.decode().strip()


class ServeOpen(Workload):
    """Open-loop then saturated serving over two loopback connections."""

    name = "serve-open"
    program = "bitcount"

    def __init__(self, seed: int, captures: int = 8) -> None:
        self.seed = seed
        self.n_captures = captures
        self.proc: Optional[subprocess.Popen] = None
        self.conns: List[_Connection] = []
        self.registry_dir: Optional[Path] = None
        self.cpus = sorted(os.sched_getaffinity(0))

    # -- inputs ---------------------------------------------------------------

    def generate(self) -> dict:
        scenario = em_scenario(self.program)
        self.streams = []
        parts = []
        for s in range(SESSIONS):
            captures = [
                scenario.capture(seed=x).iq.samples
                for x in input_seeds(self.seed, self.n_captures, s)
            ]
            parts.extend(captures)
            self.streams.append(np.concatenate(captures))
        return {
            "input_digest": digest(parts),
            "sessions": SESSIONS,
            "captures_per_session": self.n_captures,
            "samples_per_cycle": [len(s) for s in self.streams],
        }

    def chunk(self, session: int, index: int) -> np.ndarray:
        """Chunk ``index`` of a session: its captures, cycled endlessly."""
        stream = self.streams[session]
        start = (index * CHUNK_SAMPLES) % len(stream)
        stop = start + CHUNK_SAMPLES
        if stop <= len(stream):
            return stream[start:stop]
        return np.concatenate([stream[start:], stream[:stop - len(stream)]])

    def _frame(self, session: int) -> bytes:
        from repro.serve.protocol import encode_chunk

        conn = self.conns[session]
        return encode_chunk(conn.seq + 1,
                            self.chunk(session, self.first + conn.seq))

    # -- set-up and teardown --------------------------------------------------

    def setup(self) -> None:
        from repro.serve import ModelRegistry

        t0 = time.perf_counter()
        self.model = train(self.program).model
        self.train_s = time.perf_counter() - t0
        WORK.mkdir(parents=True, exist_ok=True)
        self.registry_dir = Path(tempfile.mkdtemp(prefix="registry-",
                                                  dir=WORK))
        self.spec = ModelRegistry(self.registry_dir).publish(self.model).spec
        cmd = [sys.executable, str(_CHILD), str(self.registry_dir)]
        if self.trace:
            cmd.append("--trace")
        if len(self.cpus) > 1:
            # The server gets a core of its own and the generator the
            # rest. Left to the scheduler, the server's threads settle
            # on one placement per process, and the open-loop median
            # moved by a fifth from one server process to the next.
            cmd += ["--cpu", str(self.cpus[0])]
            os.sched_setaffinity(0, self.cpus[1:])
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
        )
        self.address = json.loads(_read_line(self.proc, 60.0))
        self._open_sessions()

    def _open_sessions(self, first: int = 0) -> None:
        """Open a fresh pair of sessions that start at chunk ``first`` of
        their streams."""
        from repro.stream import StreamingMonitor

        self.first = first
        self.conns = [
            _Connection(self.address["host"], self.address["port"],
                        self.spec)
            for _ in range(SESSIONS)
        ]
        self.local = [StreamingMonitor(self.model) for _ in range(SESSIONS)]
        self.verified = [0] * SESSIONS

    def command(self, text: str) -> None:
        self.proc.stdin.write((text + "\n").encode())
        self.proc.stdin.flush()
        if _read_line(self.proc, 30.0) != "ok":
            raise RuntimeError(f"server child refused {text!r}")

    def close(self) -> None:
        for conn in self.conns:
            conn.shutdown()
        self.conns = []
        if self.proc is not None:
            try:
                self.proc.stdin.write(b"stop\n")
                self.proc.stdin.close()
                self.proc.wait(_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc = None
        if self.registry_dir is not None:
            shutil.rmtree(self.registry_dir, ignore_errors=True)
            self.registry_dir = None
        os.sched_setaffinity(0, self.cpus)

    # -- verdicts -------------------------------------------------------------

    def verify(self) -> Tuple[int, int]:
        """Check every REPORT received since the last call against the
        local oracle; returns (attempted, failed)."""
        attempted = failed = 0
        for s, conn in enumerate(self.conns):
            local = self.local[s]
            for seq in range(self.verified[s] + 1, conn.seq + 1):
                expected = verdict_of(
                    local.feed(self.chunk(s, self.first + seq - 1)))
                self.state_bytes = max(self.state_bytes,
                                       local.resident_bytes())
                payload = conn.payloads.get(seq)
                observed = None if payload is None else (
                    int(payload["windows"]),
                    tuple((float(r["time"]), r["region"], int(r["streak"]),
                           r["kind"]) for r in payload["reports"]),
                )
                attempted += 1
                failed += observed != expected
            self.verified[s] = conn.seq
            failed += len(conn.errors)
            conn.errors.clear()
        return attempted, failed

    def _rotate(self, m: Measurement, reopen: bool = True,
                first: int = 0) -> None:
        """Check and close both sessions (REPORTs and closing summaries
        against the local oracle), then open a fresh pair starting at
        chunk ``first``.

        Every phase starts on new sessions: a session's checkpoints grow
        with its report history, so phases on aged sessions would
        measure the session's age rather than the code.
        """
        from repro.serve.protocol import summary_from_json

        attempted, failed = self.verify()
        for s, conn in enumerate(self.conns):
            summary = conn.close_session()
            conn.shutdown()
            local = self.local[s].finish()
            attempted += 1
            if summary is None:
                failed += 1
                continue
            remote = summary_from_json(summary)
            failed += (
                remote.windows, remote.chunks, remote.samples, remote.status,
                [report_key(r) for r in remote.reports],
            ) != (
                local.windows, local.chunks, local.samples, local.status,
                [report_key(r) for r in local.reports],
            )
        self.conns = []
        m.attempted += attempted
        m.failed += failed
        if reopen:
            self._open_sessions(first)

    def reference(self) -> dict:
        return {"oracle": "local StreamingMonitor per session"}

    # -- phases ---------------------------------------------------------------

    def _closed_loop(self, seconds: float, chunks: Optional[int] = None):
        """Keep WINDOW chunks in flight per connection; returns scored
        windows per second."""
        first = [c.seq + 1 for c in self.conns]
        start = _ns()
        deadline = start + int(seconds * 1e9)

        def drive(s: int) -> None:
            conn = self.conns[s]
            sent = 0
            while (_ns() < deadline if chunks is None else sent < chunks):
                if not conn.wait_all(window=WINDOW - 1):
                    return
                conn.send(self._frame(s))
                sent += 1

        threads = [threading.Thread(target=drive, args=(s,))
                   for s in range(SESSIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for conn in self.conns:
            conn.wait_all()
        # Windows whose REPORT arrived before the deadline; the drain
        # after it is not part of the rate.
        windows = sum(
            int(conn.payloads[seq]["windows"])
            for s, conn in enumerate(self.conns)
            for seq in range(first[s], conn.seq + 1)
            if seq in conn.payloads and conn.recv_ns[seq] <= deadline
        )
        return windows / seconds if seconds else 0.0

    def _open_loop(self, seconds: float) -> Tuple[list, list, int, int]:
        """One fixed-rate pass on the current sessions; returns per-chunk
        latency from the due time (ms), generator lateness (ms), and the
        backlog when the first and the last chunk were due."""
        n = max(1, int(round(OPEN_RATE * seconds)))
        period = 1e9 / OPEN_RATE
        chunks = []  # (connection, seq, due_ns, sent_ns)
        t0 = _ns() + 20_000_000
        backlog = []
        for i in range(n):
            conn = self.conns[i % SESSIONS]
            frame = self._frame(i % SESSIONS)
            due = t0 + int(i * period)
            wait = due - _ns()
            if wait > 0:
                time.sleep(wait / 1e9)
            if i in (0, n - 1):
                backlog.append(sum(c.outstanding for c in self.conns))
            sent = conn.send(frame)
            chunks.append((conn, conn.seq, due, sent))
        for conn in self.conns:
            conn.wait_all()
        # A chunk without its REPORT is a failure (see verify) and misses
        # any latency limit: it counts as the full wait.
        latencies = [
            (conn.recv_ns.get(seq, due + int(_TIMEOUT_S * 1e9)) - due) / 1e6
            for conn, seq, due, _ in chunks
        ]
        lateness = [(sent - due) / 1e6 for _, _, due, sent in chunks]
        return latencies, lateness, backlog[0], backlog[-1]

    def warmup(self) -> dict:
        self.state_bytes = 0
        self._closed_loop(0.0, chunks=WARMUP_CHUNKS)
        attempted, failed = self.verify()
        self.warmup_result = Measurement(0.0, [], 0.0, attempted, failed)
        return {"state_bytes_per_session": self.state_bytes}

    def _phases(self, seconds: float, m: Measurement) -> List[_Connection]:
        """ROUNDS rounds of an open-loop pass and a saturation slice, each
        on fresh sessions; fills ``m`` and returns every connection used.
        """
        t0 = time.perf_counter()
        used: List[_Connection] = []
        passes, lateness, start, end, open_steal = [], [], [], [], []
        rates, rate_steal = [], []
        span = seconds / ROUNDS
        first = 0  # the chunk the next phase starts at
        for _ in range(ROUNDS):
            self._rotate(m, first=first)
            used += self.conns
            ticks = cpu_ticks()
            lat, late, b0, b1 = self._open_loop(span * OPEN_SHARE)
            open_steal.append(steal_since(ticks))
            passes.append(lat)
            lateness += late
            start.append(b0)
            end.append(b1)
            first += max(conn.seq for conn in self.conns)
            self._rotate(m, first=first)
            used += self.conns
            ticks = cpu_ticks()
            rates.append(self._closed_loop(span * (1 - OPEN_SHARE)))
            rate_steal.append(steal_since(ticks))
            first += max(conn.seq for conn in self.conns)
        quiet_open = quiet_passes(open_steal)
        quiet_rates = quiet_passes(rate_steal)
        # Slices last equally long: the mean rate is windows over time.
        m.windows_per_s = float(np.mean([rates[i] for i in quiet_rates]))
        m.pass_latencies_ms = [passes[i] for i in quiet_open]
        m.pass_rates = rates
        m.latency_basis = (
            f"due-to-REPORT time per chunk at {OPEN_RATE:g} chunks/s in one "
            f"open-loop pass; both figures are medians over the "
            f"{len(quiet_open)} of {ROUNDS} passes with at most the median "
            f"steal")
        m.wall_s = time.perf_counter() - t0
        late_tail = tail(lateness)
        m.extra = {
            "open_rate_chunks_per_s": OPEN_RATE,
            "open_chunks_per_pass": len(passes[0]),
            "lateness_p50_ms": median(lateness),
            "lateness_tail_ms": late_tail[0],
            "lateness_tail_percentile": late_tail[1],
            "backlog_at_start_max": max(start),
            "backlog_at_end_max": max(end),
            "open_steal_share_kept_max": max(
                open_steal[i] for i in quiet_open),
            "open_steal_share_max": max(open_steal),
            "saturation_steal_share_kept_max": max(
                rate_steal[i] for i in quiet_rates),
            "saturation_steal_share_max": max(rate_steal),
        }
        return used

    def measure(self, seconds: float) -> Measurement:
        m = Measurement(0.0, [], 0.0)
        self._phases(seconds, m)
        self._rotate(m, reopen=False)
        return m

    def measure_traced(self, seconds: float):
        from run import layer_metrics
        from tracer import Tracer

        base = Measurement(0.0, [], 0.0)
        self._rotate(base)
        base.windows_per_s = self._closed_loop(seconds / 3)
        self.command("trace on")
        m = Measurement(0.0, [], 0.0)
        used = self._phases(2 * seconds / 3, m)
        self.command("trace off")
        self._rotate(m, reopen=False)
        path = WORK / f"spans-{self.name}.json"
        self.command(f"spans {path}")
        tracer = Tracer()
        tracer.merge(path)
        metrics = layer_metrics(tracer, m, base)
        metrics.update(self._serve_layers(tracer, used))
        return base, m, metrics

    def _serve_layers(self, tracer, conns: List[_Connection]) -> dict:
        """Split each traced chunk's client round trip into wire time,
        server framing, scoring and queue/batcher wait."""
        decode, encode, rounds = {}, {}, {}
        seen: Dict[str, int] = {}
        spans = tracer.collector.spans
        for index in sorted(tracer.request_ids,
                            key=lambda i: spans[i].t_start):
            span, rid = spans[index], tracer.request_ids[index]
            if span.name == "serve.protocol.decode":
                decode[rid] = span
            elif span.name == "serve.protocol.encode":
                encode[rid] = span
            elif span.name == "stream.fleet.round":
                for sid in rid.split(","):
                    seen[sid] = seen.get(sid, 0) + 1
                    rounds[f"{sid}:{seen[sid]}"] = span
        wait = wire = matched = total = 0.0
        for conn in conns:
            for seq, got in conn.recv_ns.items():
                rtt = (got - conn.sent_ns[seq]) / 1e6
                total += rtt
                rid = f"{conn.session}:{seq}"
                d, e, r = decode.get(rid), encode.get(rid), rounds.get(rid)
                if d is None or e is None or r is None:
                    continue
                residence = (e.t_start + e.wall_s - d.t_start) * 1e3
                wait += residence - (d.wall_s + e.wall_s + r.wall_s) * 1e3
                wire += rtt - residence
                matched += rtt
        return {
            "serve.server.wait_ms": wait,
            "serve.wire_ms": wire,
            "serve.server.chunks_per_round":
                tracer.counts["stream.fleet.chunks"]
                / max(tracer.calls["stream.fleet.chunks"], 1),
            "trace.attribution": matched / total if total else 0.0,
        }
