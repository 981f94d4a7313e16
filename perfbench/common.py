"""Shared pieces of the benchmark: environment, inputs, verdicts, stats."""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import sys
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for registries, span files and run records.
WORK = ROOT / ".perfbench"

CHUNK_SAMPLES = 4096

#: Tail percentiles tried from the top; the first with >= 10 samples
#: beyond it is reported.
_TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
_TAIL_MIN_BEYOND = 10


def have_sources() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def prepare_environment() -> None:
    """Import path, artifact cache off, observability off.

    The environment variables are dropped before ``repro`` is imported,
    so neither ``REPRO_CACHE_DIR`` nor ``REPRO_OBS`` can reach a timed
    run; the explicit calls pin the same state for code that imported
    ``repro`` earlier.
    """
    os.environ.pop("REPRO_CACHE_DIR", None)
    os.environ.pop("REPRO_OBS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro.cache
    import repro.obs

    repro.cache.configure(None)
    repro.obs.disable()


def input_seeds(seed: int, count: int, stream: int) -> List[int]:
    """``count`` capture seeds for input stream ``stream`` of a run."""
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(1 << 20, 1 << 30, size=count)]


def digest(arrays: Iterable[np.ndarray]) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def whole_chunks(samples: np.ndarray) -> List[np.ndarray]:
    """The samples as full chunks; a partial last chunk is dropped, so
    every stream ends chunk-aligned and its state size is comparable."""
    return [
        samples[i:i + CHUNK_SAMPLES]
        for i in range(0, len(samples) - CHUNK_SAMPLES + 1, CHUNK_SAMPLES)
    ]


# -- verdicts -----------------------------------------------------------------

Verdict = Tuple[int, tuple]  # (windows, ((time, region, streak, kind), ...))


def report_key(report) -> tuple:
    return (float(report.time), report.region, int(report.streak),
            report.kind)


def verdict_of(results) -> Verdict:
    """One chunk's verdict from the MonitorResults a feed returned."""
    return (
        sum(len(r.times) for r in results),
        tuple(report_key(rep) for r in results for rep in r.reports),
    )


def count_failures(observed: Sequence, expected: Sequence) -> int:
    """Chunks whose verdict differs from the reference, or is missing."""
    failed = sum(1 for o, e in zip(observed, expected) if o != e)
    return failed + abs(len(expected) - len(observed))


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def per_item_medians(passes: Sequence[Sequence[float]],
                     weights: Sequence[int] = ()) -> List[float]:
    """Each item's median over identical passes, item ``i`` repeated
    ``weights[i]`` times. A replayed workload's slow items stay slow in
    every pass; a stall of the machine hits one pass and drops out."""
    medians = np.median(np.asarray(passes, dtype=float), axis=0)
    if len(weights):
        medians = np.repeat(medians, weights)
    return medians.tolist()


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest ladder
    percentile that leaves at least ten samples beyond it."""
    n = len(values)
    for pct in _TAIL_LADDER:
        beyond = int(math.floor(n * (100.0 - pct) / 100.0 + 1e-9))
        if beyond >= _TAIL_MIN_BEYOND:
            return float(np.percentile(values, pct)), pct, beyond
    return float(max(values)), 100.0, 0


def cpu_ticks() -> Tuple[int, int]:
    """(stolen, total) CPU ticks of the machine so far, from /proc/stat;
    (0, 0) where that file does not exist. Time the hypervisor gives to
    other guests shows up as steal and slows every wall-clock metric."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_since(ticks: Tuple[int, int]) -> float:
    """Share of the machine's CPU ticks stolen since ``cpu_ticks()``
    returned ``ticks``."""
    stolen, total = (b - a for a, b in zip(ticks, cpu_ticks()))
    return stolen / total if total else 0.0


def quiet_passes(steals: Sequence[float]) -> List[int]:
    """Indices, in order, of the passes that ran with at most the median
    CPU steal of the run: at least half of them, all on a quiet host.

    On a shared host the hypervisor's steal comes in bursts of a second
    or so and slows every wall-clock figure taken during one. Passes
    are chosen by the steal seen while they ran, never by their own
    figures, so a slower program still reads slower.
    """
    limit = median(steals)
    return [i for i, steal in enumerate(steals) if steal <= limit]


def environment() -> dict:
    """Machine and software record, from the run-manifest block."""
    import scipy

    from repro.obs.manifest import build_manifest

    env = dict(build_manifest("perfbench")["environment"])
    env["cores"] = len(os.sched_getaffinity(0))
    env["scipy"] = scipy.__version__
    return env


def write_record(name: str, record: dict) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / name
    path.write_text(json.dumps(record, indent=2, sort_keys=True,
                               default=str) + "\n")
    return path
