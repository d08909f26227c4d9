"""End-to-end benchmark of the join service.

    python3 e2ebench/run.py --workload plan_zipf --seed 1 --seconds 8 --trace 0

Run from the root of a checkout.  Workloads (see ``BENCHMARK.json``):

* ``plan_zipf`` — closed loop, two keep-alive HTTP connections to
  ``repro serve``, binary plan requests whose (τg, τb) follow a seeded
  Zipf over a growing catalog (a fixed quarter are first sightings);
* ``multiway_star3`` — closed loop, two HTTP connections to
  ``repro serve --multiway-scenario star3``, 80% plans / 20% executes.

``--trace 0`` measures the end-to-end metrics: set-up is repeated
``SETUPS`` times and ``setup_s`` is their median.  ``--trace 1`` runs the
timed traffic twice, untraced and then with span recording installed in
the serving process, and reports the per-layer ledger; on ``plan_zipf``
both windows end with ``workloads.burst`` (binary warm executes and
queued plans), the only traffic that forms a queue.  Every answer is
checked against a serial in-process reference of the same request; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ledger  # noqa: E402
import selftest  # noqa: E402
import workloads  # noqa: E402

#: testbed scale the service runs at (the CLI default)
SCALE = 0.6
#: set-ups per untraced run (setup_s is their median)
SETUPS = 3
#: concurrent keep-alive connections of the closed loops
CONNECTIONS = 2
#: pause before the last request of the traced burst (a warm execute
#: takes about 100 ms, so the queue is still full when it arrives)
BURST_SETTLE = 0.02
#: server start-up limit before the run is abandoned
START_TIMEOUT = 150.0
REQUEST_TIMEOUT = 60.0

#: the bounded end-to-end metrics (BENCHMARK.json); the CPU-bound figures
#: are printed beside them, unbounded (see README.md, "Steadiness")
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("plan_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
)
UNBOUNDED: Tuple[Tuple[str, str], ...] = (
    ("request_p90_ms", "ms"),
    ("cpu_ms_per_request", "ms"),
    ("plan_p90_ms", "ms"),
    ("execute_p50_ms", "ms"),
    ("execute_p90_ms", "ms"),
    ("error_rate", "ratio"),
    ("degraded_rate", "ratio"),
    ("unsatisfied_rate", "ratio"),
)


class BenchmarkError(RuntimeError):
    """The run could not be carried out (not a wrong answer)."""


# -- helpers -----------------------------------------------------------------------


def _percentile(values: List[float], share: float) -> float:
    """Linear-interpolated percentile (share in [0, 1]) of *values*."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread per process: the service's concurrency is its own
    # worker pool, and spinning BLAS threads on a two-CPU machine make
    # every CPU-bound figure swing by a fifth from run to run.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def _load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _git(root: str, *args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(root: str, args: argparse.Namespace, versions: Dict[str, str]) -> Dict[str, Any]:
    head = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if head else None
    return {
        "git_head": head,
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "versions": versions,
        "scale": SCALE,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- the HTTP server session -------------------------------------------------------


class ServerSession:
    """One ``repro serve`` child: spawn, set up, serve, drain."""

    def __init__(self, root: str, work: str, workload: str, trace: bool) -> None:
        self.root = root
        self.work = work
        self.workload = workload
        self.trace = trace
        self.out = os.path.join(work, "server.json")
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.setup_s = 0.0
        self.setup_answers: List[Tuple[Dict[str, Any], Any]] = []

    def start(self) -> None:
        argv = [
            sys.executable, os.path.join(HERE, "child.py"), "serve",
            "--out", self.out, "--trace", str(int(self.trace)), "--",
            "--host", self.host, "--port", "0",
            "--store", os.path.join(self.work, "store"),
            "--scale", str(SCALE),
        ]
        if self.workload == "multiway_star3":
            argv += ["--multiway-scenario", "star3"]
        spawned = time.monotonic()
        self.stderr = open(os.path.join(self.work, "server.stderr"), "wb")
        self.proc = subprocess.Popen(
            argv, cwd=self.root, env=_child_env(self.root),
            stdout=subprocess.PIPE, stderr=self.stderr,
        )
        watchdog = threading.Timer(START_TIMEOUT, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline().decode("utf-8", "replace")
        finally:
            watchdog.cancel()
        if "http://" not in line:
            self.stop()
            raise BenchmarkError(f"server did not start: {line.strip()!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])
        # Set-up traffic: what a fresh service needs before serving.
        if self.workload == "multiway_star3":
            setup = [workloads.star3_payload(
                "plan", workloads.MULTIWAY_WARMUP_TAU_GOOD, workloads.MULTIWAY_TAU_BAD
            )]
        else:
            setup = [workloads.SEED_EXECUTE]
        connection = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT)
        try:
            for body in setup:
                status, answer = _post(connection, workloads.encode(body))
                if status != 200:
                    raise BenchmarkError(f"set-up request failed ({status}): {answer}")
                self.setup_answers.append((body, answer))
        finally:
            connection.close()
        self.setup_s = time.monotonic() - spawned

    def cpu_s(self) -> float:
        return _proc_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return _proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> Dict[str, Any]:
        if self.proc is None:
            return {}
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()
        self.proc = None
        if os.path.exists(self.out):
            return _load(self.out)
        return {}


def _send(connection: http.client.HTTPConnection, body: bytes) -> None:
    connection.request(
        "POST", "/v1/join", body=body,
        headers={"Content-Type": "application/json"},
    )


def _receive(connection: http.client.HTTPConnection) -> Tuple[int, Any]:
    response = connection.getresponse()
    data = response.read()
    try:
        answer = json.loads(data)
    except ValueError:
        answer = data.decode("utf-8", "replace")
    return response.status, answer


def _post(connection: http.client.HTTPConnection, body: bytes) -> Tuple[int, Any]:
    _send(connection, body)
    return _receive(connection)


def _settle(entry: Dict[str, Any], status: int, answer: Any) -> None:
    entry["recv"] = time.monotonic()
    if status == 200:
        entry["answer"] = answer
    else:
        entry["error"] = f"HTTP {status}: {answer}"


def http_burst(session: ServerSession, bodies: List[Dict[str, Any]], first: int) -> List[Dict[str, Any]]:
    """Send *bodies* at once, one connection each, so a queue forms.

    Every connection is open before the first request goes out, and each
    response is read by its own thread.  The last request goes out
    ``BURST_SETTLE`` seconds after the others, once the server has queued
    them, so that it meets the queue (see ``workloads.BURST_MODES``).
    """
    entries: List[Dict[str, Any]] = []
    readers: List[threading.Thread] = []

    def exchange(entry: Dict[str, Any], connection: http.client.HTTPConnection) -> None:
        try:
            _settle(entry, *_receive(connection))
        except (OSError, http.client.HTTPException) as error:
            entry["recv"] = time.monotonic()
            entry["error"] = f"{type(error).__name__}: {error}"
        finally:
            connection.close()

    connections = []
    try:
        for _ in bodies:
            connection = http.client.HTTPConnection(session.host, session.port, timeout=REQUEST_TIMEOUT)
            connections.append(connection)
            connection.connect()
        for offset, (body, connection) in enumerate(zip(bodies, connections)):
            if offset == len(bodies) - 1:
                time.sleep(BURST_SETTLE)
            entry: Dict[str, Any] = {"index": first + offset, "body": body}
            entries.append(entry)
            entry["send"] = time.monotonic()
            _send(connection, workloads.encode(body))
            reader = threading.Thread(target=exchange, args=(entry, connection))
            reader.start()
            readers.append(reader)
    except (OSError, http.client.HTTPException) as error:
        raise BenchmarkError(f"burst could not be sent: {error}") from error
    finally:
        for reader in readers:
            reader.join()
        for connection in connections:
            connection.close()
    return entries


def closed_loop(
    session: ServerSession, workload: str, seed: int, seconds: float, burst: bool
) -> Dict[str, Any]:
    """Two keep-alive connections send back-to-back for *seconds*; with
    *burst*, ``workloads.burst`` closes the window."""
    bodies: Dict[int, bytes] = {}
    # Pre-encode the likely prefix so generation stays outside the window.
    for index in range(4000 if workload == "plan_zipf" else 2000):
        bodies[index] = workloads.encode(workloads.payload(workload, seed, index))
    counter = itertools.count()
    entries: List[Dict[str, Any]] = []
    exhausted: List[str] = []
    cpu0 = session.cpu_s()
    start = time.monotonic()
    stop_at = start + seconds

    def client() -> None:
        connection = http.client.HTTPConnection(session.host, session.port, timeout=REQUEST_TIMEOUT)
        try:
            while time.monotonic() < stop_at:
                index = next(counter)
                body = bodies.get(index)
                if body is None:
                    try:
                        body = workloads.encode(workloads.payload(workload, seed, index))
                    except workloads.CatalogExhausted as error:
                        exhausted.append(str(error))
                        break
                entry: Dict[str, Any] = {"index": index}
                entry["send"] = time.monotonic()
                try:
                    status, answer = _post(connection, body)
                except (OSError, http.client.HTTPException) as error:
                    entry["recv"] = time.monotonic()
                    entry["error"] = f"{type(error).__name__}: {error}"
                    connection.close()
                    connection = http.client.HTTPConnection(
                        session.host, session.port, timeout=REQUEST_TIMEOUT
                    )
                    entries.append(entry)
                    continue
                _settle(entry, status, answer)
                entries.append(entry)
        finally:
            connection.close()

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if exhausted:
        raise BenchmarkError(exhausted[0])
    entries.sort(key=lambda e: e["index"])
    for entry in entries:
        entry["body"] = workloads.payload(workload, seed, entry["index"])
    if burst:
        entries += http_burst(session, workloads.burst(seed), len(entries))
    end = time.monotonic()
    cpu1 = session.cpu_s()
    for entry in entries:
        body = entry["body"]
        entry["mode"] = body["mode"]
        entry["tau_good"] = body["tau_good"]
        entry["tau_bad"] = body["tau_bad"]
        entry["latency_ms"] = (entry["recv"] - entry["send"]) * 1000.0
    return {
        "window": [start, end],
        "entries": entries,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": session.peak_rss_mb(),
    }


def http_timed(root: str, work: str, args, trace: bool) -> Dict[str, Any]:
    session = ServerSession(root, work, args.workload, trace)
    try:
        session.start()
        burst = bool(args.trace) and args.workload == "plan_zipf"
        measured = closed_loop(session, args.workload, args.seed, args.seconds, burst)
    finally:
        child = session.stop()
    if child.get("status") != 0:
        raise BenchmarkError(f"server did not drain cleanly: {child.get('status')}")
    measured["setup_s"] = session.setup_s
    measured["setup_answers"] = session.setup_answers
    measured["child"] = child
    return measured


def http_setup_only(root: str, work: str, workload: str) -> float:
    session = ServerSession(root, work, workload, trace=False)
    try:
        session.start()
    finally:
        session.stop()
    return session.setup_s


def http_references(root: str, work: str, workload: str, bodies: List[Dict[str, Any]]) -> Dict[str, Any]:
    wanted = workloads.reference_requests(bodies)
    path = os.path.join(work, "reference-input.json")
    out = os.path.join(work, "reference.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(wanted, handle)
    argv = [
        sys.executable, os.path.join(HERE, "child.py"), "reference",
        "--out", out, "--work", work, "--workload", workload,
        "--input", path, "--scale", str(SCALE),
    ]
    done = subprocess.run(
        argv, cwd=root, env=_child_env(root), capture_output=True, timeout=170
    )
    if done.returncode != 0:
        raise BenchmarkError(
            "reference run failed: " + done.stderr.decode("utf-8", "replace")[-400:]
        )
    return _load(out)["references"]


# -- reduction -------------------------------------------------------------------------


def verify(timed: List[Dict[str, Any]], references: Dict[str, Any]) -> List[str]:
    """Mark every timed entry ok/failed; returns the failure reasons."""
    failures: List[str] = []
    for entry in timed:
        reason = entry.get("error")
        if reason is None:
            reason = workloads.check_answer(entry["body"], entry.get("answer"), references)
        entry["failed"] = reason is not None
        if reason is not None:
            failures.append(f"request {entry.get('index')}: {reason}")
    return failures


def _completed(measured: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [e for e in measured["entries"] if not e["failed"]]


def _cpu_ms_per_request(measured: Dict[str, Any]) -> float:
    return measured["cpu_s"] * 1000.0 / max(len(_completed(measured)), 1)


def end_to_end(measured: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    """The bounded end-to-end metrics (``END_TO_END``)."""
    ok = _completed(measured)
    start, end = measured["window"]
    return {
        "setup_s": statistics.median(setups),
        "plan_p50_ms": _percentile([e["latency_ms"] for e in ok if e["mode"] == "plan"], 0.5),
        "throughput_rps": len(ok) / max(end - start, 1e-9),
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def by_mode(measured: Dict[str, Any]) -> Dict[str, Any]:
    """The unbounded figures (``UNBOUNDED``), printed beside the bounded ones."""
    entries = measured["entries"]
    ok = _completed(measured)
    executes = [e for e in ok if e["mode"] == "execute"]
    degraded = [e for e in ok if e["answer"].get("degraded")]
    ran = [e for e in executes if not e["answer"].get("degraded")]
    unsatisfied = [e for e in ran if e["answer"].get("satisfied") is False]
    counts: Dict[str, int] = {}
    for entry in entries:
        counts[entry["mode"]] = counts.get(entry["mode"], 0) + 1
    attempted = max(len(entries), 1)
    return {
        "requests_by_mode": counts,
        "request_p90_ms": _percentile([e["latency_ms"] for e in ok], 0.9),
        "cpu_ms_per_request": _cpu_ms_per_request(measured),
        "plan_p90_ms": _percentile([e["latency_ms"] for e in ok if e["mode"] == "plan"], 0.9),
        "execute_p50_ms": _percentile([e["latency_ms"] for e in executes], 0.5),
        "execute_p90_ms": _percentile([e["latency_ms"] for e in executes], 0.9),
        "execute_samples": len(executes),
        "plan_samples": len(ok) - len(executes),
        "error_rate": (len(entries) - len(ok)) / attempted,
        "degraded_rate": len(degraded) / attempted,
        "unsatisfied_rate": len(unsatisfied) / max(len(ran), 1),
    }


def _setup_failures(measured: Dict[str, Any], references: Dict[str, Any]) -> List[str]:
    failures = []
    for body, answer in measured.get("setup_answers", []):
        reason = workloads.check_answer(body, answer, references)
        if reason is not None:
            failures.append(f"set-up request: {reason}")
    return failures


# -- the run ---------------------------------------------------------------------------


def run(args: argparse.Namespace, root: str, work: str) -> Dict[str, Any]:
    sessions: List[Dict[str, Any]] = []
    setups: List[float] = []

    def fresh(name: str) -> str:
        path = os.path.join(work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    if not args.trace:
        for number in range(SETUPS - 1):
            directory = fresh(f"setup-{number}")
            setups.append(http_setup_only(root, directory, args.workload))
            shutil.rmtree(directory, ignore_errors=True)
    for trace in ((False, True) if args.trace else (False,)):
        measured = http_timed(root, fresh(f"traced-{int(trace)}"), args, trace)
        setups.append(measured["setup_s"])
        sessions.append(measured)

    bodies = [e["body"] for m in sessions for e in m["entries"]]
    bodies += [body for m in sessions for body, _ in m["setup_answers"]]
    references = http_references(root, fresh("reference"), args.workload, bodies)

    failures: List[str] = []
    attempted = 0
    for measured in sessions:
        failures += verify(measured["entries"], references)
        failures += _setup_failures(measured, references)
        attempted += len(measured["entries"])
        child = measured["child"]
        if child.get("left_wrapped"):
            failures.append(f"functions left wrapped: {child['left_wrapped']}")
    base = sessions[0]
    summary: Dict[str, Any] = {
        "end_to_end": end_to_end(base, setups),
        "by_mode": by_mode(base),
        "setups_s": setups,
        "failures": failures,
        "attempted": attempted,
        "versions": base["child"].get("versions", {}),
    }
    if args.trace:
        traced = sessions[1]
        child = traced["child"]
        metrics, detail = ledger.build_ledger(
            child.get("records", []),
            tuple(traced["window"]),
            clients=[e for e in traced["entries"] if "answer" in e],
            set_up={"import_s": child.get("import_s", 0.0)},
        )
        untraced = _cpu_ms_per_request(base)
        metrics["trace.overhead_ratio"] = (
            _cpu_ms_per_request(traced) / untraced if untraced else 0.0
        )
        summary["per_layer"] = metrics
        summary["ledger_detail"] = detail
        summary["missing_targets"] = child.get("missing_targets", [])
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("e2ebench: src/repro not found; run from a full checkout", file=sys.stderr)
        return 2
    problems = selftest.quick()
    if problems:
        print("e2ebench: self-check failed: " + "; ".join(problems), file=sys.stderr)
        return 3
    work = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        summary = run(args, root, work)
    except (BenchmarkError, subprocess.TimeoutExpired, OSError) as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only if no other run uses it
        except OSError:
            pass

    facts = provenance(root, args, summary["versions"])
    facts["requests_by_mode"] = summary["by_mode"]["requests_by_mode"]
    facts["setups_s"] = summary["setups_s"]
    print("provenance " + json.dumps(facts, sort_keys=True))
    for failure in summary["failures"][:20]:
        print("FAILED " + failure)
    metrics: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        for name, unit in ledger.per_layer_names():
            metrics[name] = {"value": summary["per_layer"].get(name, 0.0), "unit": unit}
        print("ledger " + json.dumps(summary["ledger_detail"], sort_keys=True))
        if summary["missing_targets"]:
            print("untraced (entry point not found): " + ", ".join(summary["missing_targets"]))
    else:
        for name, unit in END_TO_END:
            metrics[name] = {"value": summary["end_to_end"][name], "unit": unit}
        modes = summary["by_mode"]
        for name, unit in UNBOUNDED:
            print(f"{name:>22} {modes[name]:12.4f} {unit}")
        print(f"{'samples':>22} plan={modes['plan_samples']} execute={modes['execute_samples']}")
    for name, entry in metrics.items():
        print(f"{name:>34} {entry['value']:14.4f} {entry['unit']}")
    # A failure outside the timed requests (a set-up answer, a leftover
    # wrapper) fails the run as a whole; count it against one request.
    failed = min(len(summary["failures"]), summary["attempted"])
    result = {
        "correct": not summary["failures"],
        "attempted": summary["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
