"""The traced run's span recorder and its per-layer ledger.

Two halves:

* :class:`Tracer` (child side) wraps the public entry points of each
  layer of ``repro`` from outside the package — no file under ``src/``
  knows about it.  Each wrapped call appends one span record
  ``[layer, thread id, start, end, extra]`` (``time.monotonic()``, the
  system-wide ``CLOCK_MONOTONIC``, so spans from the server process line
  up with the client's timestamps).  Hot leaf calls (the OIJN kernel,
  ``fsync``) are *folded* into the innermost open span of their thread as
  a count and a busy time instead of becoming spans of their own.
  :meth:`Tracer.restore` puts every original object back, and
  :func:`wrapped_functions` proves nothing is left wrapped.
* :func:`build_ledger` (parent side, pure) attributes spans to requests
  by thread and time interval and reduces them to the per-layer metrics.
"""

from __future__ import annotations

import bisect
import os
import statistics
import sys
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: attribute every wrapper carries, pointing at the function it wraps
MARK = "__e2ebench_wrapped__"

def _self_of(args: tuple) -> Any:
    return args[0] if args else None


# -- extras: what each wrapped call records besides its interval ----------------


def _decide_extra(args, kwargs, result, before) -> Dict[str, Any]:
    return {"action": getattr(result, "action", None)}


def _plancache_extra(args, kwargs, result, before) -> Dict[str, Any]:
    hit = bool(result[1]) if isinstance(result, tuple) and len(result) > 1 else None
    return {"hit": hit}


def _coalesce_before(args, kwargs) -> Any:
    return getattr(_self_of(args), "attached", 0)


def _coalesce_extra(args, kwargs, result, before) -> Dict[str, Any]:
    return {"attached": getattr(_self_of(args), "attached", 0) - (before or 0)}


def _optimize_before(args, kwargs) -> Any:
    pruning = getattr(_self_of(args), "pruning", None)
    return getattr(pruning, "plans_pruned", 0)


def _optimize_extra(args, kwargs, result, before) -> Dict[str, Any]:
    plans = args[1] if len(args) > 1 else kwargs.get("plans", ())
    pruning = getattr(_self_of(args), "pruning", None)
    after = getattr(pruning, "plans_pruned", 0)
    try:
        count = len(plans)
    except TypeError:
        count = 0
    return {"plans": count, "pruned": after - (before or 0)}


def _join_extra(args, kwargs, result, before) -> Dict[str, Any]:
    report = getattr(result, "report", None)
    docs = getattr(report, "documents_processed", None) or {}
    queries = getattr(report, "queries_issued", None) or {}
    return {"docs": sum(docs.values()), "queries": sum(queries.values())}


def _planner_extra(args, kwargs, result, before) -> Dict[str, Any]:
    tallies = getattr(result, "tallies", None)
    return {
        "subplans": getattr(tallies, "subplans_total", 0),
        "pruned": getattr(tallies, "subplans_pruned_bound", 0),
    }


def _fit_extra(args, kwargs, result, before) -> Dict[str, Any]:
    return {"fit": 1}


#: (module, qualified name, layer, how, before-hook, extra-hook)
#: ``how`` is "span", "fold", or a special recorder for the service frames.
TARGETS: Tuple[Tuple[str, str, str, str, Any, Any], ...] = (
    ("repro.experiments.testbed", "build_testbed", "testbed", "span", None, None),
    ("repro.experiments.testbed", "build_multiway_testbed", "testbed", "span", None, None),
    ("repro.service.service", "JoinRequest.from_payload", "http.parse", "span", None, None),
    ("repro.service.service", "response_json", "http.serialize", "span", None, None),
    ("repro.service.service", "JoinService.submit", "service.submit", "submit", None, None),
    ("repro.service.service", "JoinService._handle", "service.handle", "handle", None, None),
    ("repro.service.service", "JoinService._stored_catalog", "store.catalog", "span", None, None),
    ("repro.service.admission", "AdmissionController.decide", "admission", "span", None, _decide_extra),
    ("repro.service.plancache", "PlanCache.optimize", "plancache", "span", None, _plancache_extra),
    ("repro.service.coalesce", "RequestCoalescer.join", "coalesce", "span", _coalesce_before, _coalesce_extra),
    ("repro.service.store", "StatisticsStore.warm_start_for", "store.warm_start", "span", None, None),
    ("repro.service.store", "StatisticsStore.curves_for", "store.curves_for", "span", None, None),
    ("repro.service.shards", "ShardedStatisticsStore.save", "store.save", "span", None, None),
    ("os", "fsync", "store.fsync", "fsync", None, None),
    ("repro.optimizer.adaptive", "AdaptiveJoinExecutor.run", "adaptive", "span", None, None),
    ("repro.estimation.online", "estimate_side", "estimation", "span", None, _fit_extra),
    ("repro.estimation.online", "estimate_overlap", "estimation", "span", None, None),
    ("repro.optimizer.optimizer", "JoinOptimizer.__init__", "optimizer.construct", "span", None, None),
    ("repro.optimizer.optimizer", "JoinOptimizer.optimize", "optimizer", "span", _optimize_before, _optimize_extra),
    ("repro.models.distributions", "NoneExtractedBatch.evaluate", "models.none_extracted", "fold", None, None),
    ("repro.joins.idjn", "IndependentJoin.run", "joins", "span", None, _join_extra),
    ("repro.joins.oijn", "OuterInnerJoin.run", "joins", "span", None, _join_extra),
    ("repro.joins.zgjn", "ZigZagJoin.run", "joins", "span", None, _join_extra),
    ("repro.planner.planner", "MultiwayPlanner.optimize", "planner", "span", None, _planner_extra),
    ("repro.multiway.executor", "MultiwayIndependentJoin.run", "multiway", "span", None, None),
    ("repro.observability.events", "FlightRecorder.record", "observability", "span", None, None),
    ("repro.observability.slo", "SLOTracker.observe", "observability", "span", None, None),
)


def _resolve(module_name: str, qualname: str) -> Optional[Tuple[Any, str, Any]]:
    """(owner, attribute, raw value) of a target, or None if it is gone.

    For a method the owner is the class whose ``__dict__`` defines it —
    an inherited name is not wrapped on the subclass.
    """
    module = sys.modules.get(module_name)
    if module is None:
        try:
            __import__(module_name)
        except ImportError:
            return None
        module = sys.modules[module_name]
    owner: Any = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    name = parts[-1]
    if isinstance(owner, type):
        if name not in owner.__dict__:
            return None
        return owner, name, owner.__dict__[name]
    if not hasattr(owner, name):
        return None
    return owner, name, getattr(owner, name)


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self.missing: List[str] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._tokens: Dict[int, int] = {}
        self._token_lock = threading.Lock()
        self._next_token = 0
        #: fsync'd file sizes by inode, for bytes-written accounting
        self._sizes: Dict[Tuple[int, int], int] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        for module_name, qualname, layer, how, before, extra in TARGETS:
            resolved = _resolve(module_name, qualname)
            if resolved is None:
                self.missing.append(f"{module_name}:{qualname}")
                continue
            owner, name, raw = resolved
            function = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapper = self._wrapper(function, layer, how, before, extra)
            value = staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper
            self._patch(owner, name, raw, value)
            if not isinstance(owner, type):
                # Modules that imported the function by name hold their
                # own reference; rebind those too.
                for module in list(sys.modules.values()):
                    module_name_ = getattr(module, "__name__", "") or ""
                    if module is owner or not module_name_.startswith("repro"):
                        continue
                    for attr, held in list(vars(module).items()):
                        if held is function:
                            self._patch(module, attr, held, wrapper)
        return self

    def _patch(self, owner: Any, name: str, original: Any, value: Any) -> None:
        self._patched.append((owner, name, original))
        setattr(owner, name, value)

    def restore(self) -> None:
        """Put every original object back, in reverse patch order."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, function, layer, how, before_hook, extra_hook):
        tracer = self
        records = self.records
        clock = time.monotonic
        ident = threading.get_ident

        if how == "fold":

            def folded(*args, **kwargs):
                stack = tracer._stack()
                start = clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    end = clock()
                    if stack:
                        extra = stack[-1][4]
                        extra[layer + ".n"] = extra.get(layer + ".n", 0) + 1
                        extra[layer + ".s"] = extra.get(layer + ".s", 0.0) + (end - start)
                    else:
                        records.append([layer, ident(), start, end, {}])

            wrapper = folded
        elif how == "fsync":

            def fsync(fd):
                stack = tracer._stack()
                start = clock()
                function(fd)
                end = clock()
                written = tracer._written(fd)
                if stack:
                    extra = stack[-1][4]
                    extra["store.fsync.n"] = extra.get("store.fsync.n", 0) + 1
                    extra["store.fsync.bytes"] = extra.get("store.fsync.bytes", 0) + written
                else:
                    records.append([layer, ident(), start, end, {"store.fsync.n": 1, "store.fsync.bytes": written}])

            wrapper = fsync
        else:

            def spanned(*args, **kwargs):
                stack = tracer._stack()
                if any(open_span[0] == layer for open_span in stack):
                    return function(*args, **kwargs)  # re-entry: outermost only
                record = [layer, ident(), clock(), 0.0, {}]
                stack.append(record)
                state = before_hook(args, kwargs) if before_hook else None
                if how == "submit":
                    record[4].update(tracer._submit_fields(args, kwargs))
                elif how == "handle":
                    record[4]["token"] = tracer._claim(args, kwargs)
                ok = False
                try:
                    result = function(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    record[3] = clock()
                    stack.pop()
                    if ok and extra_hook is not None:
                        record[4].update(extra_hook(args, kwargs, result, state))
                    if not ok:
                        record[4]["raised"] = True
                    if ok and how == "submit":
                        tracer._on_done(result, record[4]["token"])
                    records.append(record)

            wrapper = spanned
        setattr(wrapper, MARK, function)
        wrapper.__name__ = getattr(function, "__name__", "wrapped")
        wrapper.__qualname__ = getattr(function, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = getattr(function, "__doc__", None)
        return wrapper

    def _written(self, fd: int) -> int:
        """Bytes a file grew by since its last fsync (new files: all)."""
        try:
            info = os.fstat(fd)
        except OSError:
            return 0
        key = (info.st_dev, info.st_ino)
        grown = max(info.st_size - self._sizes.get(key, 0), 0)
        self._sizes[key] = info.st_size
        return grown

    def _submit_fields(self, args: tuple, kwargs: dict) -> Dict[str, Any]:
        request = args[1] if len(args) > 1 else kwargs.get("request")
        with self._token_lock:
            self._next_token += 1
            token = self._next_token
            self._tokens[id(request)] = token
        return {
            "token": token,
            "mode": getattr(request, "mode", None),
            "tau_good": getattr(request, "tau_good", None),
            "tau_bad": getattr(request, "tau_bad", None),
            "multiway": getattr(request, "graph", None) is not None,
        }

    def _claim(self, args: tuple, kwargs: dict) -> Optional[int]:
        request = args[2] if len(args) > 2 else kwargs.get("request")
        with self._token_lock:
            return self._tokens.pop(id(request), None)

    def _on_done(self, future: Any, token: int) -> None:
        records = self.records

        def done(_future: Any) -> None:
            now = time.monotonic()
            records.append(["service.done", threading.get_ident(), now, now, {"token": token}])

        add = getattr(future, "add_done_callback", None)
        if add is not None:
            add(done)


def wrapped_functions() -> List[str]:
    """Every function of a loaded ``repro`` module (or ``os.fsync``) that
    still carries a benchmark wrapper; empty means fully unwrapped."""
    found: List[str] = []
    if hasattr(os.fsync, MARK):
        found.append("os.fsync")
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, MARK):
                found.append(f"{name}.{attr}")
            elif isinstance(value, type) and value.__module__ == name:
                for member, raw in list(vars(value).items()):
                    function = getattr(raw, "__func__", raw)
                    if hasattr(function, MARK):
                        found.append(f"{name}.{attr}.{member}")
    return found


# -- parent side: attribution and reduction ----------------------------------------

#: per-layer metrics: name -> (unit, kind, source)
#: kinds: "p50"/"total" of per-request busy ms of a layer, "count" per
#: request of the modes that incurred it, or special reductions.
TIME_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("http.parse_ms", "http.parse"),
    ("http.serialize_ms", "http.serialize"),
    ("http.overhead_ms", "http.overhead"),
    ("admission.queue_wait_ms", "admission.queue"),
    ("plancache.optimize_ms", "plancache"),
    ("store.catalog_ms", "store.catalog"),
    ("store.warm_start_ms", "store.warm_start"),
    ("store.curves_for_ms", "store.curves_for"),
    ("store.save_ms", "store.save"),
    ("adaptive.run_ms", "adaptive"),
    ("estimation.fit_ms", "estimation"),
    ("optimizer.optimize_ms", "optimizer"),
    ("models.none_extracted_ms", "models.none_extracted"),
    ("joins.run_ms", "joins"),
    ("planner.optimize_ms", "planner"),
    ("multiway.run_ms", "multiway"),
    ("observability.record_ms", "observability"),
    ("trace.unattributed_ms", "trace.unattributed"),
)

#: count metrics: name -> counter key in the per-request tallies
COUNT_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("admission.admitted", "admission.admit", "1/req"),
    ("admission.degraded", "admission.degrade", "1/req"),
    ("admission.shed", "admission.shed", "1/req"),
    ("plancache.hits", "plancache.hit", "1/req"),
    ("plancache.misses", "plancache.miss", "1/req"),
    ("coalesce.attached", "coalesce.attached", "1/req"),
    ("store.saves", "store.save", "1/req"),
    ("store.fsyncs", "store.fsync.n", "1/req"),
    ("store.bytes_written", "store.fsync.bytes", "bytes/req"),
    ("estimation.fits", "estimation.fit", "1/req"),
    ("optimizer.constructions", "optimizer.construct", "1/req"),
    ("optimizer.optimize_calls", "optimizer", "1/req"),
    ("models.none_extracted_calls", "models.none_extracted.n", "1/req"),
    ("joins.documents_processed", "joins.docs", "1/req"),
    ("joins.queries_issued", "joins.queries", "1/req"),
    ("planner.subplans_total", "planner.subplans", "1/req"),
)

#: layers whose spans cover request time (service.* frames do not)
COVERING = {
    "admission",
    "admission.queue",
    "plancache",
    "coalesce",
    "store.catalog",
    "store.warm_start",
    "store.curves_for",
    "store.save",
    "store.fsync",
    "adaptive",
    "estimation",
    "optimizer.construct",
    "optimizer",
    "models.none_extracted",
    "joins",
    "planner",
    "multiway",
    "observability",
}


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names: List[Tuple[str, str]] = [
        ("startup.import_s", "s"),
        ("testbed.build_s", "s"),
    ]
    for name, _ in TIME_LAYERS:
        names += [(name, "ms"), (name + ".total", "ms")]
    for name, _, unit in COUNT_METRICS:
        names.append((name, unit))
    names += [
        ("plancache.hit_ratio", "ratio"),
        ("optimizer.pruned_ratio", "ratio"),
        ("planner.pruned_fraction", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return names


def _union(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    end_ = None
    start_ = None
    for start, end in sorted(intervals):
        if end_ is None or start > end_:
            if end_ is not None:
                total += end_ - start_
            start_, end_ = start, end
        else:
            end_ = max(end_, end)
    if end_ is not None:
        total += end_ - start_
    return total


def _clip(intervals, low: float, high: float):
    for start, end in intervals:
        start, end = max(start, low), min(end, high)
        if end > start:
            yield start, end


class _Request:
    __slots__ = ("mode", "frame", "threads", "busy", "counts", "covered", "fields")

    def __init__(self, mode: str, fields: Dict[str, Any]) -> None:
        self.mode = mode
        self.fields = fields
        self.frame: Tuple[float, float] = (0.0, 0.0)
        #: (thread, start, end) windows whose spans belong to this request
        self.threads: List[Tuple[int, float, float]] = []
        self.busy: Dict[str, List[Tuple[float, float]]] = {}
        self.counts: Dict[str, float] = {}
        self.covered: List[Tuple[float, float]] = []

    def add(self, layer: str, start: float, end: float) -> None:
        self.busy.setdefault(layer, []).append((start, end))
        if layer in COVERING:
            self.covered.append((start, end))

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount


def build_ledger(
    records: Sequence[list],
    window: Tuple[float, float],
    clients: Optional[Sequence[Dict[str, Any]]] = None,
    set_up: Optional[Dict[str, float]] = None,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Reduce span *records* to per-layer metrics for requests in *window*.

    A request is identified by its ``service.submit`` span (thread S,
    interval) and, when a worker ran it, its ``service.handle`` span
    (thread W); a span belongs to the request whose window on the same
    thread contains it.  *clients* (HTTP workloads) carries each client
    request's send/receive times and fields; the HTTP overhead of a
    request is its client latency minus its submit→result time.
    Returns ``(metrics, detail)``.
    """
    low, high = window
    submits: Dict[int, list] = {}
    handles: Dict[int, list] = {}
    done: Dict[int, float] = {}
    by_thread: Dict[int, List[list]] = {}
    for record in records:
        layer, thread, start, end, extra = record
        if layer == "service.submit":
            submits[extra["token"]] = record
        elif layer == "service.handle":
            if extra.get("token") is not None:
                handles[extra["token"]] = record
        elif layer == "service.done":
            done.setdefault(extra["token"], start)
        else:
            by_thread.setdefault(thread, []).append(record)
    for spans in by_thread.values():
        spans.sort(key=lambda r: r[2])

    requests: List[_Request] = []
    for token, submit in sorted(submits.items(), key=lambda item: item[1][2]):
        _, thread, s0, s1, extra = submit
        if s0 < low or s0 > high:
            continue
        finish = done.get(token, s1)
        request = _Request(extra.get("mode") or "?", extra)
        request.frame = (s0, finish)
        request.threads.append((thread, s0, s1))
        handle = handles.get(token)
        if handle is not None:
            _, worker, h0, h1, _ = handle
            request.threads.append((worker, h0, h1))
            if h0 > s1:
                request.add("admission.queue", s1, h0)
        requests.append(request)

    # Attribute every layer span to the request whose thread window holds it.
    windows: Dict[int, List[Tuple[float, float, _Request]]] = {}
    for request in requests:
        for thread, start, end in request.threads:
            windows.setdefault(thread, []).append((start, end, request))
    for thread, entries in windows.items():
        entries.sort(key=lambda e: e[0])
        spans = by_thread.get(thread, [])
        index = 0
        for start, end, request in entries:
            while index < len(spans) and spans[index][2] < start:
                index += 1
            probe = index
            while probe < len(spans) and spans[probe][2] <= end:
                _attribute(request, spans[probe])
                probe += 1

    # HTTP: parse precedes and serialize follows each submit on its thread.
    overhead: List[float] = []
    if clients is not None:
        _attribute_http(requests, by_thread, clients, overhead)

    unattributed: List[float] = []
    for request in requests:
        f0, f1 = request.frame
        covered = _union(_clip(request.covered, f0, f1))
        unattributed.append(max((f1 - f0) - covered, 0.0) * 1000.0)

    metrics: Dict[str, float] = {}
    detail: Dict[str, Any] = {"requests": len(requests), "modes": {}}
    for request in requests:
        detail["modes"][request.mode] = detail["modes"].get(request.mode, 0) + 1
    for name, layer in TIME_LAYERS:
        if layer == "http.overhead":
            values = overhead
        elif layer == "trace.unattributed":
            values = unattributed
        else:
            values = [
                _union(request.busy[layer]) * 1000.0
                for request in requests
                if layer in request.busy
            ]
        # The per-request p50 is over the requests the layer worked for.
        touched = [v for v in values if v > 0.0]
        metrics[name] = statistics.median(touched) if touched else 0.0
        metrics[name + ".total"] = sum(values)
    for name, key, _ in COUNT_METRICS:
        total = 0.0
        modes = set()
        for request in requests:
            value = request.counts.get(key, 0.0)
            if value:
                total += value
                modes.add(request.mode)
        base = sum(1 for r in requests if r.mode in modes)
        metrics[name] = total / base if base else 0.0
        detail.setdefault("count_modes", {})[name] = sorted(modes)
    hits = sum(r.counts.get("plancache.hit", 0.0) for r in requests)
    misses = sum(r.counts.get("plancache.miss", 0.0) for r in requests)
    metrics["plancache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    plans = sum(r.counts.get("optimizer.plans", 0.0) for r in requests)
    pruned = sum(r.counts.get("optimizer.pruned", 0.0) for r in requests)
    metrics["optimizer.pruned_ratio"] = pruned / plans if plans else 0.0
    subplans = sum(r.counts.get("planner.subplans", 0.0) for r in requests)
    sub_pruned = sum(r.counts.get("planner.pruned", 0.0) for r in requests)
    metrics["planner.pruned_fraction"] = sub_pruned / subplans if subplans else 0.0
    set_up = set_up or {}
    metrics["startup.import_s"] = set_up.get("import_s", 0.0)
    metrics["testbed.build_s"] = sum(
        end - start for layer, _, start, end, _ in records if layer == "testbed"
    )
    return metrics, detail


def _attribute(request: _Request, record: list) -> None:
    layer, _, start, end, extra = record
    request.add(layer, start, end)
    if layer == "admission":
        request.count("admission." + str(extra.get("action")))
    elif layer == "plancache":
        request.count("plancache.hit" if extra.get("hit") else "plancache.miss")
    elif layer == "coalesce":
        request.count("coalesce.attached", extra.get("attached", 0))
    elif layer == "store.save":
        request.count("store.save")
    elif layer == "estimation" and extra.get("fit"):
        request.count("estimation.fit")
    elif layer == "optimizer.construct":
        request.count("optimizer.construct")
    elif layer == "optimizer":
        request.count("optimizer")
        request.count("optimizer.plans", extra.get("plans", 0))
        request.count("optimizer.pruned", extra.get("pruned", 0))
    elif layer == "joins":
        request.count("joins.docs", extra.get("docs", 0))
        request.count("joins.queries", extra.get("queries", 0))
    elif layer == "models.none_extracted":
        request.count("models.none_extracted.n")
    elif layer == "planner":
        request.count("planner.subplans", extra.get("subplans", 0))
        request.count("planner.pruned", extra.get("pruned", 0))
    for key, value in extra.items():
        if key.endswith(".n") or key.endswith(".bytes"):
            request.count(key, value)
        elif key.endswith(".s"):
            layer_name = key[:-2]
            # Folded leaf time: credit it as a busy interval of its own
            # layer ending at the parent's end (only its length matters).
            request.busy.setdefault(layer_name, []).append((end - value, end))


def _attribute_http(
    requests: List[_Request],
    by_thread: Dict[int, List[list]],
    clients: Sequence[Dict[str, Any]],
    overhead: List[float],
) -> None:
    """Pair parse/serialize spans and client latencies with requests."""
    parses: Dict[int, Tuple[List[float], List[list]]] = {}
    serializes: Dict[int, Tuple[List[float], List[list]]] = {}
    for thread, spans in by_thread.items():
        for layer, table in (("http.parse", parses), ("http.serialize", serializes)):
            chosen = [r for r in spans if r[0] == layer]
            table[thread] = ([r[2] for r in chosen], chosen)
    for request in requests:
        thread, s0, s1 = request.threads[0]
        starts, chosen = parses.get(thread, ([], []))
        # The thread's last parse that began before the submit.
        position = bisect.bisect_right(starts, s0) - 1
        if position >= 0 and chosen[position][3] <= s0:
            request.add("http.parse", chosen[position][2], chosen[position][3])
        starts, chosen = serializes.get(thread, ([], []))
        # Its first serialize after the submit returned.
        position = bisect.bisect_left(starts, s1)
        if position < len(chosen):
            record = chosen[position]
            request.add("http.serialize", record[2], record[3])
            # The result was in hand no later than serialization began.
            request.frame = (request.frame[0], min(request.frame[1], record[2]))
    # Client requests: contain the server frame and carry the same fields.
    pool = sorted(clients, key=lambda c: c["send"])
    active: List[Dict[str, Any]] = []
    position = 0
    for request in sorted(requests, key=lambda r: r.frame[0]):
        f0, f1 = request.frame
        while position < len(pool) and pool[position]["send"] <= f0:
            active.append(pool[position])
            position += 1
        active = [c for c in active if c["recv"] >= f0]
        matches = [
            c
            for c in active
            if c["recv"] >= f1
            and c.get("mode") == request.fields.get("mode")
            and c.get("tau_good") == request.fields.get("tau_good")
            and c.get("tau_bad") == request.fields.get("tau_bad")
        ]
        if not matches:
            continue
        client = max(matches, key=lambda c: c["send"])
        active.remove(client)
        latency = client["recv"] - client["send"]
        extra = max(latency - (f1 - f0), 0.0)
        overhead.append(extra * 1000.0)
        request.busy.setdefault("http.overhead", []).append((0.0, extra))
