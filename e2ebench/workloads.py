"""Seeded request generation and answer verification for the benchmark.

Everything here is pure standard-library code: the orchestrator imports
it without paying for ``repro`` (numpy, scipy) start-up, and the
children import it to turn payloads into requests.

Generation contract: the payload sent as request ``index`` of a run is a
pure function of ``(workload, seed, index)``.  Nothing depends on the
order in which indices are generated, on how many were generated before,
or on any process state.  Draws are *stratified* in fixed-size blocks
(each block holds an exact share of every mode and level, shuffled by a
per-block seeded permutation) so that two seeds differ in order, not in
composition: that keeps the spread between seeds small without fixing
the sequence.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: the execute request that seeds the statistics store during set-up; at
#: τg=20 the cold run takes both pilot rounds, so later warm executes pull
#: no fresh documents and leave the store unchanged (at τg=40 it stops
#: after one round and the first warm execute rewrites the store)
SEED_EXECUTE: Dict[str, Any] = {
    "tau_good": 20,
    "tau_bad": 99999,
    "mode": "execute",
}

# -- plan_zipf ---------------------------------------------------------------

#: τg levels (the wide grid) and τb levels; every (τg, τb) pair is a
#: distinct plan-cache entry.  The τb levels only widen the catalog: 141
#: τg levels alone would run out of first sightings after 564 requests,
#: fewer than a run serves once a cached plan costs a few milliseconds.
ZIPF_TAU_GOOD: Tuple[int, ...] = tuple(range(10, 151))
ZIPF_TAU_BAD: Tuple[int, ...] = tuple(range(200, 2001, 50))
#: every block of ZIPF_BLOCK requests introduces exactly ZIPF_NEW_PER_BLOCK
#: never-seen (τg, τb) pairs; the rest repeat an already introduced pair
ZIPF_BLOCK = 8
ZIPF_NEW_PER_BLOCK = 2
#: Zipf exponent over introduced pairs (rank 1 = the earliest introduced)
ZIPF_EXPONENT = 1.1

# -- the closing burst of a traced plan_zipf run ----------------------------

#: τg levels of the burst's warm executes and plans (τb unbounded); the
#: unbounded τb keeps them outside the plan_zipf catalog
BURST_TAU_GOOD: Tuple[int, ...] = (20, 40, 60, 100)
BURST_TAU_BAD = 99999
#: modes of the burst, sent at once on one connection each: two executes
#: occupy both workers, the plans queue behind them, and the last execute
#: meets a queue of six or more and is degraded.  Nine requests never
#: reach the queue limit of 8 with a plan, so nothing is shed.
BURST_MODES: Tuple[str, ...] = ("execute", "execute") + ("plan",) * 6 + ("execute",)

# -- multiway_star3 ----------------------------------------------------------

MULTIWAY_TAU_GOOD: Tuple[int, ...] = (30, 35, 40, 45)
MULTIWAY_TAU_BAD = 120
#: one block: each τg once as an execute, four times as a plan (20% / 80%)
MULTIWAY_PLANS_PER_LEVEL = 4
MULTIWAY_BLOCK = len(MULTIWAY_TAU_GOOD) * (1 + MULTIWAY_PLANS_PER_LEVEL)
#: the set-up request that builds the multiway catalog and planner; its
#: τg is outside MULTIWAY_TAU_GOOD, so no timed request is pre-cached
MULTIWAY_WARMUP_TAU_GOOD = 1

STAR3_RELATIONS: Tuple[Dict[str, Any], ...] = (
    {"name": "HQ", "attributes": ["Company", "Location"]},
    {"name": "EX", "attributes": ["Company", "CEO"]},
    {"name": "MG", "attributes": ["Company", "MergedWith"]},
)
STAR3_EDGES: Tuple[str, ...] = ("HQ.Company=EX.Company", "HQ.Company=MG.Company")

WORKLOADS: Tuple[str, ...] = ("plan_zipf", "multiway_star3")


def _rng(*parts: Any) -> random.Random:
    """A generator seeded by a stable digest of *parts* (not ``hash()``)."""
    text = "|".join(str(part) for part in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _block_slot(workload: str, seed: int, index: int, size: int) -> int:
    """The stratum of request *index*: a seeded permutation per block."""
    block, position = divmod(index, size)
    order = list(range(size))
    _rng(workload, seed, "block", block).shuffle(order)
    return order[position]


def star3_payload(mode: str, tau_good: int, tau_bad: int) -> Dict[str, Any]:
    return {
        "tau_good": tau_good,
        "tau_bad": tau_bad,
        "mode": mode,
        "relations": [
            dict(
                relation,
                attributes=list(relation["attributes"]),
                thetas=[0.4, 0.8],
                access_paths=["SC", "FS"],
            )
            for relation in STAR3_RELATIONS
        ],
        "edges": list(STAR3_EDGES),
    }


# -- plan_zipf: a growing catalog with Zipf popularity ------------------------


def _zipf_pairs(seed: int) -> List[Tuple[int, int]]:
    pairs = [(g, b) for g in ZIPF_TAU_GOOD for b in ZIPF_TAU_BAD]
    _rng("plan_zipf", seed, "grid").shuffle(pairs)
    return pairs


_ZIPF_PAIRS: Dict[int, List[Tuple[int, int]]] = {}


class CatalogExhausted(ValueError):
    """A run served more requests than the plan_zipf catalog can feed
    with first sightings; widen the catalog instead of reusing pairs."""


def _zipf_pair(seed: int, index: int) -> Tuple[int, int]:
    pairs = _ZIPF_PAIRS.get(seed)
    if pairs is None:
        pairs = _ZIPF_PAIRS.setdefault(seed, _zipf_pairs(seed))
    block, position = divmod(index, ZIPF_BLOCK)
    slot = _block_slot("plan_zipf", seed, index, ZIPF_BLOCK)
    # Pairs introduced by earlier blocks, plus this block's new ones that
    # come earlier in the block.
    order = [
        _block_slot("plan_zipf", seed, block * ZIPF_BLOCK + p, ZIPF_BLOCK)
        for p in range(position)
    ]
    new_before = sum(1 for s in order if s < ZIPF_NEW_PER_BLOCK)
    introduced = block * ZIPF_NEW_PER_BLOCK + new_before
    if slot < ZIPF_NEW_PER_BLOCK or introduced == 0:
        if introduced >= len(pairs):
            raise CatalogExhausted(
                f"plan_zipf request {index} needs first sighting "
                f"{introduced + 1} of a {len(pairs)}-pair catalog"
            )
        return pairs[introduced]
    # A repeat: a Zipf-ranked draw over the pairs introduced so far.
    rng = _rng("plan_zipf", seed, "rank", index)
    weights_total = _harmonic(introduced)
    target = rng.random() * weights_total
    rank = _zipf_rank(introduced, target)
    return pairs[rank - 1]


_HARMONIC: List[float] = [0.0]


def _harmonic(n: int) -> float:
    """Generalised harmonic number H(n, ZIPF_EXPONENT), memoized."""
    while len(_HARMONIC) <= n:
        k = len(_HARMONIC)
        _HARMONIC.append(_HARMONIC[-1] + 1.0 / k**ZIPF_EXPONENT)
    return _HARMONIC[n]


def _zipf_rank(n: int, target: float) -> int:
    """Smallest rank r ≤ n whose cumulative weight reaches *target*."""
    _harmonic(n)
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if _HARMONIC[mid] >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


# -- the generators ------------------------------------------------------------


def payload(workload: str, seed: int, index: int) -> Dict[str, Any]:
    """The payload of request *index* of *workload* under *seed*."""
    if index < 0:
        raise ValueError("request index must be non-negative")
    if workload == "plan_zipf":
        tau_good, tau_bad = _zipf_pair(seed, index)
        return {"tau_good": tau_good, "tau_bad": tau_bad, "mode": "plan"}
    if workload == "multiway_star3":
        slot = _block_slot(workload, seed, index, MULTIWAY_BLOCK)
        levels = len(MULTIWAY_TAU_GOOD)
        mode = "execute" if slot < levels else "plan"
        return star3_payload(
            mode, MULTIWAY_TAU_GOOD[slot % levels], MULTIWAY_TAU_BAD
        )
    raise ValueError(f"unknown workload {workload!r}")


def burst(seed: int) -> List[Dict[str, Any]]:
    """The burst that closes both windows of a traced ``plan_zipf`` run
    (see BURST_MODES); its τg levels are seeded."""
    rng = _rng("plan_zipf", seed, "burst")
    return [
        {"tau_good": rng.choice(BURST_TAU_GOOD), "tau_bad": BURST_TAU_BAD, "mode": mode}
        for mode in BURST_MODES
    ]


def encode(body: Dict[str, Any]) -> bytes:
    """Wire form of a payload (what the program receives)."""
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def request_key(body: Dict[str, Any]) -> str:
    """Identity of a request for reference lookups (mode, taus, graph)."""
    return encode(body).decode()


# -- verification -----------------------------------------------------------------

#: fields an answer must reproduce exactly, by answer kind
PLAN_FIELDS: Tuple[str, ...] = (
    "plan",
    "feasible",
    "predicted_good",
    "predicted_bad",
    "predicted_time",
    "effort_fraction",
)
EXECUTE_FIELDS: Tuple[str, ...] = ("plan", "good", "bad", "satisfied")


def plan_key(body: Dict[str, Any]) -> str:
    """The plan-mode request a degraded answer must agree with."""
    return request_key(dict(body, mode="plan"))


def check_answer(
    body: Dict[str, Any],
    answer: Optional[Dict[str, Any]],
    references: Dict[str, Dict[str, Any]],
) -> Optional[str]:
    """None if *answer* matches the serial reference, else the reason.

    Plan answers must reproduce the plan, feasibility and predictions;
    execute answers the plan, good/bad counts and ``satisfied``; a
    degraded answer (a plan-only answer to an execute request) must
    reproduce the plan reference of the same requirement.
    """
    if not isinstance(answer, dict):
        return "no answer"
    degraded = bool(answer.get("degraded"))
    if degraded:
        key, fields = plan_key(body), PLAN_FIELDS
    elif body.get("mode") == "execute":
        key, fields = request_key(body), EXECUTE_FIELDS
    else:
        key, fields = request_key(body), PLAN_FIELDS
    reference = references.get(key)
    if reference is None:
        return "no reference answer"
    for name in fields:
        if answer.get(name) != reference.get(name):
            return (
                f"{name}: got {answer.get(name)!r}, "
                f"reference {reference.get(name)!r}"
            )
    return None


def reference_requests(bodies: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Distinct requests whose serial answers verify *bodies*.

    Every execute request also needs the plan reference of its
    requirement, in case admission answered it degraded.
    """
    wanted: Dict[str, Dict[str, Any]] = {}
    for body in bodies:
        wanted.setdefault(request_key(body), body)
        if body.get("mode") == "execute":
            wanted.setdefault(plan_key(body), dict(body, mode="plan"))
    return [wanted[key] for key in sorted(wanted)]
