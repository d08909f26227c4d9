"""Child processes of the benchmark: the server and the reference.

    python3 e2ebench/child.py serve --out FILE --trace 0|1 -- <repro serve args>
    python3 e2ebench/child.py reference --out FILE --workload W --input FILE ...

``serve`` runs ``repro serve`` unchanged; with ``--trace 1`` it first
installs the span recorder (``ledger.Tracer``) and restores every
original function once the server has drained.  Without tracing it
checks that no function is wrapped.  ``reference`` answers a list of
payloads serially, in process, on a fresh service, for answer
verification.

``PYTHONPATH`` must reach ``src/``; the parent (``run.py``) sets it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from typing import Any, Dict, List, Optional

import ledger
import workloads


def _import_repro() -> float:
    """Import the serving stack; returns the seconds it took."""
    began = time.monotonic()
    import repro.cli  # noqa: F401
    import repro.service.http  # noqa: F401
    import repro.service.service  # noqa: F401

    return time.monotonic() - began


def _versions() -> Dict[str, str]:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _dump(path: str, payload: Dict[str, Any]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def _install(trace: bool) -> Optional[ledger.Tracer]:
    if not trace:
        return None
    return ledger.Tracer().install()


def _finish_trace(tracer: Optional[ledger.Tracer], out: Dict[str, Any]) -> None:
    if tracer is not None:
        tracer.restore()
        out["records"] = tracer.records
        out["missing_targets"] = tracer.missing
    out["left_wrapped"] = ledger.wrapped_functions()


# -- serve ----------------------------------------------------------------------


def cmd_serve(args: argparse.Namespace, serve_argv: List[str]) -> int:
    # The parent drains the server with SIGINT; a shell that started the
    # benchmark in the background may have left SIGINT ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    import_s = _import_repro()
    tracer = _install(args.trace)
    from repro.cli import main

    status = main(["serve", *serve_argv])
    out: Dict[str, Any] = {
        "import_s": import_s,
        "status": status,
        "versions": _versions(),
    }
    _finish_trace(tracer, out)
    _dump(args.out, out)
    return 0 if status == 0 else 1


# -- reference ---------------------------------------------------------------------


def _service(task, store: str, multiway=None):
    from repro.service.service import JoinService

    return JoinService(task, store, workers=2, multiway=multiway)


def _request(body: Dict[str, Any]):
    from repro.service.service import JoinRequest

    return JoinRequest.from_payload(body)


def _answer_serially(
    task, store: str, bodies: List[Dict[str, Any]], seed_first: bool,
    multiway=None, warmup: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Answer *bodies* one at a time on a fresh service (the reference)."""
    shutil.rmtree(store, ignore_errors=True)
    service = _service(task, store, multiway=multiway)
    answers: Dict[str, Any] = {}
    try:
        if seed_first:
            seed = workloads.SEED_EXECUTE
            answers[workloads.request_key(seed)] = service.execute(_request(seed))
        if warmup is not None:
            service.execute(_request(warmup))
        for body in bodies:
            key = workloads.request_key(body)
            if key in answers:
                continue
            try:
                answers[key] = service.execute(_request(body))
            except Exception as error:  # noqa: BLE001 — an answer too
                answers[key] = {"error": f"{type(error).__name__}: {error}"}
    finally:
        service.close()
    return answers


def cmd_reference(args: argparse.Namespace) -> int:
    _import_repro()
    from repro.experiments.testbed import (
        TestbedConfig,
        build_multiway_testbed,
        build_testbed,
    )

    with open(args.input, encoding="utf-8") as handle:
        bodies = json.load(handle)
    task = build_testbed(TestbedConfig(seed=11, scale=args.scale)).task()
    multiway = None
    warmup = None
    if args.workload == "multiway_star3":
        multiway = build_multiway_testbed().scenario("star3")
        warmup = workloads.star3_payload(
            "plan", workloads.MULTIWAY_WARMUP_TAU_GOOD, workloads.MULTIWAY_TAU_BAD
        )
    answers = _answer_serially(
        task,
        os.path.join(args.work, "reference-store"),
        bodies,
        seed_first=args.workload != "multiway_star3",
        multiway=multiway,
        warmup=warmup,
    )
    _dump(args.out, {"references": answers})
    return 0


def main(argv: List[str]) -> int:
    serve_argv: List[str] = []
    if "--" in argv:
        split = argv.index("--")
        argv, serve_argv = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("command", choices=("serve", "reference"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--work", default=".")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scale", type=float, default=0.6)
    parser.add_argument("--workload", default="plan_zipf")
    parser.add_argument("--input", default=None)
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    if args.command == "serve":
        return cmd_serve(args, serve_argv)
    return cmd_reference(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
