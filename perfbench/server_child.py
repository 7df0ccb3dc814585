"""Server process of the end-to-end benchmark.

Started by ``run.py`` as ``python3 perfbench/server_child.py [--trace]``.
It builds the benchmark's service, serves it through the program's
default ``make_server(service)`` on a free loopback port, and prints
one JSON line ``{"port", "server"}``.  It then answers one JSON line
per command read from standard input:

``mark``   drop recorded spans; reply with ``stats``
``stats``  ``{"cpu_s", "maxrss_kb", "deser"}`` — process CPU seconds,
           peak RSS, and request deserializations by kind
``stop``   stop the server; reply ``{"spans": [...]}`` and exit

With ``--trace`` the server's layers and the handlers record spans
(see ``tracing.py``).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from service import build_service  # noqa: E402
from tracing import SpanLog, install_server_layers  # noqa: E402
from repro.server import make_server  # noqa: E402


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _stats(service) -> dict:
    return {
        "cpu_s": time.process_time(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "deser": {kind.value: n for kind, n in service.deserializer.stats.items()},
    }


def main() -> int:
    log = SpanLog() if "--trace" in sys.argv[1:] else None
    wrap = (lambda fn: log.wrap(fn, "server.handler")) if log else None
    service = build_service(wrap)
    if log is not None:
        install_server_layers(log)
    server = make_server(service)
    server.start()
    try:
        _reply({"port": server.port, "server": type(server).__name__})
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                if log is not None:
                    log.clear()
                _reply(_stats(service))
            elif command == "stats":
                _reply(_stats(service))
            elif command == "stop":
                break
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        server.stop()
    _reply({"spans": log.records() if log is not None else []})
    return 0


if __name__ == "__main__":
    sys.exit(main())
