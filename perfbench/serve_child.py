"""Server process of the serve-open workload.

Usage (started by ``serve_open.py``, not by hand)::

    python3 perfbench/serve_child.py REGISTRY_DIR [--trace] [--cpu N]

Starts an :class:`~repro.serve.EddieServer` with the default
:class:`~repro.serve.ServerConfig` over ``REGISTRY_DIR`` and prints one
JSON line with its address. It then reads commands, one per line, from
stdin and answers each with one line:

- ``trace on`` / ``trace off``: install / restore the layer wrappers;
- ``spans PATH``: write the recorded spans to ``PATH``;
- ``stop``: stop the server and exit.

With ``--trace`` registry loads are traced from the start, so the model
load that a session OPEN triggers during set-up is recorded too. With
``--cpu N`` the process, and every thread it starts, runs on CPU ``N``
only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import prepare_environment  # noqa: E402


def _caller_session(depth: int = 3):
    """Session id of the server frame that called the wrapped function."""
    state = sys._getframe(depth).f_locals.get("state")
    return getattr(state, "session_id", None)


def request_id(name, args, result):
    """Tag spans with ``session:seq`` (framing) or the round's sessions."""
    from repro.serve.protocol import FrameType

    if name == "serve.protocol.decode":
        return f"{_caller_session()}:{result[0]}"
    if name == "serve.protocol.encode" and args[0] == FrameType.REPORT:
        return f"{_caller_session()}:{args[1]['seq']}"
    if name == "stream.fleet.round" and len(args) > 1:
        return ",".join(sid for sid, _ in args[1])
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("registry")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})  # before any thread starts
    prepare_environment()
    from repro.serve import ModelRegistry, ServerConfig, serve_in_thread
    from tracer import TARGETS, Tracer, install, restore

    registry = ModelRegistry(args.registry)
    tracer = Tracer(request_id=request_id)
    load_targets = [t for t in TARGETS if t[3] == "serve.registry.load"]
    layer_targets = [t for t in TARGETS if t not in load_targets]
    saved = install(tracer, load_targets) if args.trace else []
    handle = serve_in_thread(registry, ServerConfig())
    host, port = handle.address
    print(json.dumps({"host": host, "port": port}), flush=True)
    layers = []
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on" and not layers:
                layers = install(tracer, layer_targets)
            elif command == "trace off":
                restore(layers)
                layers = []
            elif command.startswith("spans "):
                tracer.write(Path(command[len("spans "):]))
            elif command == "stop":
                break
            print("ok", flush=True)
    finally:
        handle.stop()
        restore(layers)
        restore(saved)
    return 0


if __name__ == "__main__":
    sys.exit(main())
