"""End-to-end SOAP call benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady-update --seed 1 --seconds 20 --trace 0

Runs one workload against a live server in a child process and prints
its metrics, one per line, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the workload untraced and
then traced, each for half of ``--seconds``, and reports the per-layer
metrics, writing every span to ``.perfbench/``.  The exit code is 0 only
when every response was correct and the workload stayed on its path.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per measured run; setup_s is their median.
SETUPS = 3
#: Equal slices of the timed window; rates and CPU per call are the
#: median over slices, so a short disturbance moves one slice only.
SLICES = 10
#: Printed but not reported in the JSON line: error_rate is 0 on a
#: correct run (any error fails the run), and the tail latency spreads
#: between runs on a shared machine by more than any bound allows
#: (see README.md, "Run-to-run spread").
PRINTED_ONLY = ("error_rate", "call_p99_ms")
#: Hard stop for a whole run (the child is killed on the way out).
RUN_TIMEOUT_S = 160
#: The program's layers whose mean ms per call the traced run reports.
SPAN_LAYERS = (
    "client.send", "client.transport_send", "client.connect", "client.recv",
    "client.fault_check", "client.deserialize", "server.handle_wire",
    "server.delta_apply", "server.deserialize", "server.full_parse",
    "server.seektable_compile", "server.skipscan_apply", "server.handler",
    "server.respond",
)
MATCH_KINDS = ("first-time", "content", "perfect-structural", "partial-structural")


# ----------------------------------------------------------------------
# server child
# ----------------------------------------------------------------------
class ServerChild:
    """The server process and its line-based control channel."""

    def __init__(self, trace: bool) -> None:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, str(HERE / "server_child.py")] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env
        )
        hello = self._read()
        self.port: int = hello["port"]
        self.server: str = hello["server"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server child exited (code {self.proc.poll()})")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> List[list]:
        """Stop the server; return its spans.  Always reaps the process."""
        try:
            out, _ = self.proc.communicate("stop\n", timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("server child did not stop") from None
        lines = out.splitlines()
        if self.proc.returncode != 0 or not lines:
            raise RuntimeError(f"server child ended with code {self.proc.returncode}")
        return json.loads(lines[-1])["spans"]


def scrape_metrics(port: int) -> Dict[str, float]:
    """``GET /metrics`` over a fresh connection, as ``{"name{labels}": value}``."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                raise RuntimeError("server closed /metrics connection early")
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = None
        for line in head.split(b"\r\n")[1:]:
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value)
        if not head.startswith(b"HTTP/1.1 200") or length is None:
            raise RuntimeError(f"bad /metrics response: {head[:80]!r}")
        while len(body) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise RuntimeError("short /metrics body")
            body += chunk
    out: Dict[str, float] = {}
    for line in body.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            out[key] = float(value)
    return out


def _sum_of(metrics: Dict[str, float], prefix: str) -> float:
    return sum(v for k, v in metrics.items() if k.startswith(prefix))


def server_window(before: Dict[str, float], after: Dict[str, float],
                  stats0: dict, stats1: dict) -> Dict[str, float]:
    """Server-side counts over the timed window (and totals at its end)."""

    def delta(prefix: str) -> float:
        return _sum_of(after, prefix) - _sum_of(before, prefix)

    events = 'repro_skipscan_events_total{event="'
    return {
        "handled_total": after.get("repro_requests_handled_total", 0.0),
        "skipscan_hits": delta(events + 'hit"') + delta(events + "hit-vector"),
        "skipscan_fallbacks": delta(events + "fallback-"),
        "delta_frames": delta('repro_delta_frames_total{outcome="applied"'),
        "rejects": _sum_of(after, "repro_http_rejects_total")
        + _sum_of(after, "repro_requests_rejected_total"),
        "state_bytes": _sum_of(after, "repro_state_bytes"),
        "full_parses": stats1["deser"].get("full", 0) - stats0["deser"].get("full", 0),
        "maxrss_kb": stats1["maxrss_kb"],
    }


# ----------------------------------------------------------------------
# one phase: set up, warm up, measure, tear down
# ----------------------------------------------------------------------
class Setup:
    """A started server child with warmed-up callers."""

    def __init__(self, workload, seed: int, trace: bool, log) -> None:
        t0 = perf_counter()
        self.child = ServerChild(trace)
        self.callers = []
        try:
            self.callers = [
                workload.caller(i, self.child.port, seed, log) for i in range(workload.callers)
            ]
            self.warm = Tally()
            for caller in self.callers:
                for _ in range(workload.warmup_calls):
                    caller.call(self.warm)
        except BaseException:
            self.close()
            raise
        self.seconds = perf_counter() - t0

    def close(self) -> List[list]:
        for caller in self.callers:
            caller.close()
        return self.child.stop()


def _closed_loop(caller, tally, deadline: float, errors: list) -> None:
    try:
        while perf_counter() < deadline:
            caller.call(tally)
    except Exception:  # a benchmark bug, not a failed call: abort the run
        errors.append(traceback.format_exc())


def measure(setup: Setup, seconds: float, log) -> dict:
    """Drive every caller in its own thread for *seconds*; gather results."""
    port = setup.child.port
    before = scrape_metrics(port)
    stats0 = setup.child.ask("mark")
    if log is not None:
        log.clear()
    tallies = [Tally() for _ in setup.callers]
    errors: List[str] = []
    cpu0 = time.process_time()
    start = perf_counter()
    threads = [
        threading.Thread(target=_closed_loop, args=(c, t, start + seconds, errors))
        for c, t in zip(setup.callers, tallies)
    ]
    for thread in threads:
        thread.start()
    marks = [(start, cpu0, stats0["cpu_s"], 0)]
    for i in range(1, SLICES + 1):
        time.sleep(max(0.0, start + seconds * i / SLICES - perf_counter()))
        marks.append((perf_counter(), time.process_time(), setup.child.ask("stats")["cpu_s"],
                      sum(t.answered for t in tallies)))
    for thread in threads:
        thread.join()
    stats1 = setup.child.ask("stats")
    after = scrape_metrics(port)
    if errors:
        raise RuntimeError("caller thread crashed:\n" + errors[0])
    timed = Tally()
    for tally in tallies:
        timed.merge(tally)
    return {
        "timed": timed,
        "slices": [
            {"s": b[0] - a[0], "client_cpu_s": b[1] - a[1], "server_cpu_s": b[2] - a[2],
             "calls": b[3] - a[3]}
            for a, b in zip(marks, marks[1:])
        ],
        "server": server_window(before, after, stats0, stats1),
        "server_class": setup.child.server,
    }


def check(workload, setup: Setup, result: dict) -> List[str]:
    """Oracle, census and counter reconciliation for one measured phase."""
    timed, warm, server = result["timed"], setup.warm, result["server"]
    problems = []
    if warm.failed or warm.wrong:
        problems.append(f"warm-up: {warm.failed} failed, {warm.wrong} wrong calls")
    if timed.failed or timed.wrong:
        problems.append(f"{timed.failed} failed and {timed.wrong} wrong of {timed.attempted} calls")
    if timed.answered == 0:
        problems.append("no call completed")
        return problems
    handled = warm.answered + timed.answered
    if server["handled_total"] != handled:
        problems.append(
            f"server handled {server['handled_total']:.0f} requests, client completed {handled}"
        )
    if server["rejects"]:
        problems.append(f"server rejected {server['rejects']:.0f} requests")
    problems += workload.census(timed, server)
    return problems


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(result: dict, setups: List[float]) -> Dict[str, Tuple[float, str]]:
    timed, server, slices = result["timed"], result["server"], result["slices"]
    calls = timed.answered
    lat = np.asarray(timed.latencies)

    def per_slice(num: str, den: str, scale: float = 1.0) -> float:
        return statistics.median(x[num] / x[den] * scale for x in slices if x[den])

    return {
        "calls_per_s": (per_slice("calls", "s"), "calls/s"),
        "call_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms"),
        "call_p99_ms": (float(np.percentile(lat, 99)) * 1e3, "ms"),
        "error_rate": ((timed.failed + timed.wrong) / timed.attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "wire_bytes_per_call": ((timed.request_bytes + timed.response_bytes) / calls, "B"),
        "client_cpu_ms_per_call": (per_slice("client_cpu_s", "calls", 1e3), "ms"),
        "server_cpu_ms_per_call": (per_slice("server_cpu_s", "calls", 1e3), "ms"),
        "client_peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "server_peak_rss_mb": (server["maxrss_kb"] / 1024, "MiB"),
    }


def counts(result: dict) -> Dict[str, Tuple[float, str]]:
    """Per-layer counts of an untraced phase."""
    timed, server = result["timed"], result["server"]
    calls = timed.answered
    out = {f"client.match.{k}": (timed.match[k] / calls, "ratio") for k in MATCH_KINDS}
    plans = timed.plan_hits + timed.plan_misses
    hits = server["skipscan_hits"]
    out.update({
        "client.delta_share": (timed.delta / calls, "ratio"),
        "client.plan_hit_ratio": (timed.plan_hits / plans if plans else 0.0, "ratio"),
        "client.retries": (float(timed.retries), "count"),
        "server.skipscan_hit_ratio": (
            hits / (hits + server["skipscan_fallbacks"]) if hits else 0.0, "ratio"),
        "server.delta_frames": (server["delta_frames"] / calls, "ratio"),
        "server.rejects": (server["rejects"], "count"),
        "server.state_bytes": (server["state_bytes"], "B"),
        "wire.request_bytes": (timed.request_bytes / calls, "B"),
        "wire.response_bytes": (timed.response_bytes / calls, "B"),
    })
    return out


def layer_times(result: dict, client_spans: List[list], server_spans: List[list],
                untraced_p50_ms: float) -> Tuple[Dict[str, Tuple[float, str]], dict]:
    """Mean ms per call of each layer in a traced phase."""
    calls = result["timed"].answered
    summary = summarize(client_spans)
    summary.update(summarize(server_spans))
    per_call = {
        name: summary.get(name, {}).get("inclusive_s", 0.0) / calls * 1e3 for name in SPAN_LAYERS
    }
    out = {f"{name}.ms": (value, "ms") for name, value in per_call.items()}
    out["client.serialize.ms"] = (per_call["client.send"] - per_call["client.transport_send"], "ms")
    out["server.frontend.ms"] = (per_call["client.recv"] - per_call["server.handle_wire"], "ms")
    out["client.residue.ms"] = (summary["client.call"]["self_s"] / calls * 1e3, "ms")
    traced_p50 = float(np.percentile(result["timed"].latencies, 50)) * 1e3
    out["trace.overhead"] = (traced_p50 / untraced_p50_ms - 1.0, "ratio")
    return out, summary


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_phase(workload, seed: int, seconds: float, trace: bool, setups: int):
    """Set up *setups* times, measure with the last; return its pieces."""
    log = SpanLog() if trace else None
    if log is not None:
        install_client_layers(log)
    try:
        times = []
        for _ in range(setups - 1):
            extra = Setup(workload, seed, trace, log)
            times.append(extra.seconds)
            extra.close()
        setup = Setup(workload, seed, trace, log)
        times.append(setup.seconds)
        try:
            result = measure(setup, seconds, log)
        finally:
            server_spans = setup.close()
        client_spans = log.records() if log is not None else []
    finally:
        if log is not None:
            log.unpatch()
    return setup, result, times, client_spans, server_spans


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not args.trace:
        setup, result, setups, _, _ = run_phase(workload, args.seed, args.seconds, False, SETUPS)
        metrics = end_to_end(result, setups)
        problems = check(workload, setup, result)
        shown = metrics
        reported = {k: v for k, v in metrics.items() if k not in PRINTED_ONLY}
    else:
        half = args.seconds / 2
        setup, result, _, _, _ = run_phase(workload, args.seed, half, False, 1)
        problems = check(workload, setup, result)
        base = end_to_end(result, [setup.seconds])
        reported = counts(result)
        t_setup, t_result, _, client_spans, server_spans = run_phase(
            workload, args.seed, half, True, 1)
        problems += [f"traced: {p}" for p in check(workload, t_setup, t_result)]
        layers, summary = layer_times(t_result, client_spans, server_spans, base["call_p50_ms"][0])
        reported.update(layers)
        shown = dict(reported)
        shown["client.residue share of call_p50_ms"] = (
            layers["client.residue.ms"][0] / base["call_p50_ms"][0], "ratio")
        write_trace(args, t_result, client_spans, server_spans, summary)

    timed = result["timed"]
    print(f"workload {workload.name}  seed {args.seed}  server {result['server_class']}  "
          f"callers {workload.callers} (closed loop)  calls {timed.attempted}  "
          f"latency samples {len(timed.latencies)}")
    for name, (value, unit) in shown.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print("  slices (calls/s, client/server CPU ms per call): " + "  ".join(
        f"{x['calls'] / x['s']:.1f}/{x['client_cpu_s'] / max(1, x['calls']) * 1e3:.2f}/"
        f"{x['server_cpu_s'] / max(1, x['calls']) * 1e3:.2f}" for x in result["slices"]))
    if not args.trace and len(timed.latencies) < 1000:
        print(f"warning: call_p99_ms rests on {len(timed.latencies)} samples, under 1000",
              file=sys.stderr)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": timed.attempted,
        "failed": timed.failed + timed.wrong,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0 if not problems else 1


def write_trace(args, result: dict, client_spans, server_spans, summary) -> None:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "server": result["server_class"],
        "calls": result["timed"].answered,
        "span_fields": ["name", "request", "start_s", "end_s", "parent"],
        "summary": summary,
        "client_spans": client_spans,
        "server_spans": server_spans,
    }
    path.write_text(json.dumps(doc))


def _timeout(_signum, _frame):
    raise TimeoutError(f"run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np  # noqa: E402

    from tracing import SpanLog, install_client_layers, summarize  # noqa: E402
    from workloads import WORKLOADS, Tally  # noqa: E402

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_TIMEOUT_S)
    sys.exit(main())
