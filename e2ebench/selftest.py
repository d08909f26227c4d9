"""Self-tests of the benchmark itself.

    PYTHONPATH=src python3 e2ebench/selftest.py

* generation purity — the payload of request ``i`` is a pure function of
  ``(workload, seed, i)``, whatever the order of generation;
* catalog — ``plan_zipf`` fails once its catalog has no unseen pair left,
  instead of serving a repeat as a first sighting;
* verification — a corrupted answer (plan, prediction, count, or
  ``satisfied`` flipped) is caught, and a faithful one passes;
* traced-run hygiene — installing the span recorder wraps every target,
  restoring it leaves every public function of ``repro`` unwrapped (the
  untraced run checks the same in its serving process).

:func:`quick` (the first three) runs at the start of every benchmark run.
"""

from __future__ import annotations

import copy
import os
import random
import sys
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def check_purity() -> List[str]:
    problems: List[str] = []
    for workload in workloads.WORKLOADS:
        for seed in (1, 2):
            forward = [workloads.payload(workload, seed, i) for i in range(200)]
            order = list(range(200))
            random.Random(seed).shuffle(order)
            shuffled = {i: workloads.payload(workload, seed, i) for i in order}
            if any(shuffled[i] != forward[i] for i in range(200)):
                problems.append(f"{workload}: payload depends on generation order")
            again = [workloads.payload(workload, seed, i) for i in range(200)]
            if again != forward:
                problems.append(f"{workload}: payload not repeatable")
        if [workloads.payload(workload, 1, i) for i in range(64)] == [
            workloads.payload(workload, 2, i) for i in range(64)
        ]:
            problems.append(f"{workload}: seed does not change the sequence")
    if workloads.burst(1) != workloads.burst(1):
        problems.append("plan_zipf: burst not repeatable")
    return problems


def check_catalog() -> List[str]:
    """plan_zipf refuses to reuse a pair as a first sighting."""
    pairs = len(workloads.ZIPF_TAU_GOOD) * len(workloads.ZIPF_TAU_BAD)
    block = workloads.ZIPF_BLOCK
    last_full = (pairs // workloads.ZIPF_NEW_PER_BLOCK - 1) * block
    try:
        for index in range(last_full, last_full + block):
            workloads.payload("plan_zipf", 1, index)
    except workloads.CatalogExhausted:
        return ["plan_zipf: catalog exhausted before its last first sighting"]
    beyond = -(-pairs // workloads.ZIPF_NEW_PER_BLOCK) * block
    try:
        for index in range(beyond, beyond + block):
            workloads.payload("plan_zipf", 1, index)
    except workloads.CatalogExhausted:
        return []
    return ["plan_zipf: an exhausted catalog is reused silently"]


def _plan_answer() -> Dict[str, object]:
    return {
        "plan": "OIJN θ1=0.4 θ2=0.4 X1=AQG X2=(JN) outer=R1",
        "feasible": 12,
        "predicted_good": 41.5,
        "predicted_bad": 10.25,
        "predicted_time": 300.0,
        "effort_fraction": 0.5,
    }


def check_verification() -> List[str]:
    problems: List[str] = []
    plan = {"tau_good": 40, "tau_bad": 1000, "mode": "plan"}
    execute = {"tau_good": 40, "tau_bad": 1000, "mode": "execute"}
    executed = {"plan": "IDJN", "good": 50, "bad": 3, "satisfied": True}
    references = {
        workloads.request_key(plan): _plan_answer(),
        workloads.request_key(execute): executed,
    }
    if workloads.check_answer(plan, _plan_answer(), references) is not None:
        problems.append("a faithful plan answer was rejected")
    if workloads.check_answer(execute, dict(executed), references) is not None:
        problems.append("a faithful execute answer was rejected")
    degraded = dict(_plan_answer(), mode="execute", degraded=True)
    if workloads.check_answer(execute, degraded, references) is not None:
        problems.append("a faithful degraded answer was rejected")
    corruptions = [
        (plan, dict(_plan_answer(), plan="IDJN θ1=0.8")),
        (plan, dict(_plan_answer(), predicted_good=41.6)),
        (plan, dict(_plan_answer(), feasible=11)),
        (execute, dict(executed, good=51)),
        (execute, dict(executed, satisfied=False)),
        (execute, dict(degraded, predicted_time=1.0)),
        (execute, None),
        ({"tau_good": 41, "tau_bad": 1000, "mode": "plan"}, _plan_answer()),
    ]
    for body, answer in corruptions:
        if workloads.check_answer(body, copy.deepcopy(answer), references) is None:
            problems.append(f"corrupted answer not caught: {body} -> {answer}")
    return problems


def quick() -> List[str]:
    """The checks that need no ``repro`` import (run before every run)."""
    return check_purity() + check_catalog() + check_verification()


def check_hygiene() -> List[str]:
    """Install and restore the tracer in this process (imports ``repro``)."""
    import ledger
    import repro.cli  # noqa: F401
    import repro.service.http  # noqa: F401

    problems: List[str] = []
    if ledger.wrapped_functions():
        problems.append("functions wrapped before installation")
    tracer = ledger.Tracer().install()
    wrapped = ledger.wrapped_functions()
    if tracer.missing:
        problems.append(f"entry points not found: {tracer.missing}")
    if len(wrapped) < len(ledger.TARGETS) - len(tracer.missing):
        problems.append(f"only {len(wrapped)} functions wrapped")
    tracer.restore()
    left = ledger.wrapped_functions()
    if left:
        problems.append(f"left wrapped after restore: {left}")
    from repro.service.service import JoinRequest

    request = JoinRequest.from_payload({"tau_good": 1, "tau_bad": 2, "mode": "plan"})
    if request.tau_good != 1 or tracer.records:
        problems.append("a restored function still records spans")
    return problems


def main() -> int:
    problems = quick() + check_hygiene()
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
