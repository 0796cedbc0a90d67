"""Span tracing from outside the program, for the per-layer table.

Every traced entry point is a public function or method of one layer.  It
is wrapped by rebinding its name in the module (or class) that calls it, so
the program's own code is untouched.  Spans are kept in memory and written
out once, when the run ends.

A span's *self time* is its duration minus the time covered by the spans it
caused.  Summed over every layer, self times plus ``unattributed_s`` (time in
no span: the benchmark's own bookkeeping) add up to the traced wall time.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The layer a span belongs to, by the span name's prefix (before the first dot).
LAYER_OF_PREFIX = {
    "service": "service", "sessions": "service", "protocol": "service",
    "loadgen": "loadgen",
    "engine": "engine",
    "spig": "spig",
    "candidates": "candidates",
    "verify": "verify",
    "pool": "pool",
    "modify": "modify",
    "gspan": "mining", "dif": "mining",
    "index": "index", "persist": "index", "arena": "index",
}
LAYERS = (
    "service", "loadgen", "engine", "spig", "candidates", "verify", "pool",
    "modify", "mining", "index",
)


def layer_of(name: str) -> str:
    return LAYER_OF_PREFIX[name.split(".", 1)[0]]


class Tracer:
    """In-memory span store plus counters, shared by every thread."""

    def __init__(self) -> None:
        #: (trace id, name, start, end, self seconds)
        self.spans: List[Tuple[str, str, float, float, float]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- context ---------------------------------------------------------
    def set_trace(self, trace_id: str) -> None:
        """Trace id stamped on spans opened by this thread from now on."""
        self._local.trace = trace_id

    def add(self, counter: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[counter] += value

    def maximum(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] = max(self.counters[counter], value)

    # -- spans -----------------------------------------------------------
    def span_call(self, name: str, fn: Callable, args, kwargs, trace=None):
        """Call ``fn`` inside a span; returns its result."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        if trace is not None and not stack:
            local.trace = trace
        child = [0.0]
        stack.append(child)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            self.spans.append((
                getattr(local, "trace", "-"), name, start, end,
                duration - child[0],
            ))

    def wrap(
        self, owner: Any, attr: str, name: str,
        observe: Optional[Callable[["Tracer", tuple, dict, Any], None]] = None,
        trace_of: Optional[Callable[[tuple, dict], str]] = None,
    ) -> None:
        """Rebind ``owner.attr`` to a spanned wrapper (undone by ``unwrap``)."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            trace = trace_of(args, kwargs) if trace_of else None
            result = tracer.span_call(name, original, args, kwargs, trace)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def unwrap(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- export ----------------------------------------------------------
    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "spans": self.spans, "counters": dict(self.counters),
        }))


# ----------------------------------------------------------------------
# what is wrapped, per layer
# ----------------------------------------------------------------------
def _arg(args: tuple, kwargs: dict, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _on_spig(t: Tracer, args, kwargs, spig) -> None:
    t.add("spig.vertices", spig.num_vertices)


def _on_exact_candidates(t: Tracer, args, kwargs, rq) -> None:
    t.add("candidates.rq_total", len(rq))


def _on_exact_verification(t: Tracer, args, kwargs, ids) -> None:
    rq = _arg(args, kwargs, 1, "candidates")
    free = _arg(args, kwargs, 3, "verification_free")
    t.add("verify.candidates", len(rq))
    t.add("verify.answers", len(ids))
    if free:
        t.add("verify.free", len(rq))


def _on_similar_results(t: Tracer, args, kwargs, matches) -> None:
    candidates = _arg(args, kwargs, 1, "candidates")
    every = candidates.all_candidates()
    free = set()
    for ids in candidates.free.values():
        free |= ids
    t.add("verify.candidates", len(every))
    t.add("verify.answers", len(matches))
    t.add("verify.free", len(free & every))


def _on_pool_map(t: Tracer, args, kwargs, result) -> None:
    t.add("pool.dispatches")
    t.add("pool.items", len(_arg(args, kwargs, 2, "payloads")))


def _on_len(counter: str):
    def observe(t: Tracer, args, kwargs, result) -> None:
        t.add(counter, len(result))
    return observe


def _on_saved(t: Tracer, args, kwargs, written) -> None:
    t.add("persist.bytes", written)


def _on_warm(t: Tracer, args, kwargs, arena) -> None:
    from repro.core.pool import arena_segment_bytes

    t.maximum("arena.bytes", arena_segment_bytes())


def install_engine(t: Tracer) -> None:
    """Online layers: engine, SPIG, candidates, verification, pool, modify."""
    import repro.core.prague as prague
    from repro.core.plane import SharedPlane
    from repro.core.pool import WarmPool
    from repro.spig.manager import SpigManager

    engine = prague.PragueEngine
    t.wrap(engine, "add_edge", "engine.new")
    t.wrap(engine, "delete_edge", "engine.modify")
    t.wrap(engine, "enable_similarity", "engine.simquery")
    t.wrap(engine, "run", "engine.run")
    t.wrap(SpigManager, "on_new_edge", "spig.on_new_edge", _on_spig)
    t.wrap(prague, "exact_sub_candidates", "candidates.exact",
           _on_exact_candidates)
    t.wrap(prague, "similar_sub_candidates", "candidates.similar")
    t.wrap(prague, "exact_verification", "verify.exact",
           _on_exact_verification)
    t.wrap(prague, "similar_results_gen", "verify.similar",
           _on_similar_results)
    t.wrap(WarmPool, "map", "pool.map", _on_pool_map)
    t.wrap(prague, "apply_deletion", "modify.apply")
    t.wrap(prague, "suggest_deletion", "modify.suggest")
    t.wrap(SharedPlane, "warm", "arena.publish", _on_warm)


def install_build(t: Tracer) -> None:
    """Offline layers: gSpan, DIF level 1 and extensions, index assembly."""
    import repro.index.builder as builder
    import repro.mining.dif as dif

    t.wrap(builder, "mine_frequent_fragments", "gspan.mine",
           _on_len("gspan.fragments"))
    t.wrap(builder, "mine_difs", "dif.mine", _on_len("dif.fragments"))
    t.wrap(dif, "dif_level1", "dif.level1")
    t.wrap(dif, "dif_extensions", "dif.extensions")
    t.wrap(builder, "A2FIndex", "index.assemble")
    t.wrap(builder, "A2IIndex", "index.assemble")


def install_persistence(t: Tracer, caller: Any) -> None:
    """Index save and load, rebound in the module ``caller`` that calls them."""
    t.wrap(caller, "save_indexes", "persist.save", _on_saved)
    t.wrap(caller, "load_indexes", "persist.load")


def install_server(t: Tracer) -> None:
    """Server-side service layer: handler, session manager, payload shaping."""
    import repro.service.http as http
    from repro.service.sessions import SessionManager

    t.wrap(http.ServiceHandler, "_route", "service.handler",
           trace_of=lambda args, kwargs: args[0]._request_id)
    t.wrap(SessionManager, "act", "sessions.act")
    for name in ("session_payload", "result_payload"):
        t.wrap(http, name, "protocol.payload")


def install_client(t: Tracer) -> None:
    """Client-side round trips; the trace id is the request id sent."""
    from repro.service.client import ServiceClient

    t.wrap(ServiceClient, "request", "service.request",
           trace_of=lambda args, kwargs: kwargs.get("request_id") or "-")


# ----------------------------------------------------------------------
# the layer table
# ----------------------------------------------------------------------
def canonical_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, float]:
    hits = sum(after[k] - before[k] for k in ("graph_hits", "lru_hits"))
    misses = after["misses"] - before["misses"]
    return {"canonical.calls": hits + misses, "canonical.misses": misses}


def merge_server(client_spans: List[tuple], server_spans: List[tuple]) -> List[tuple]:
    """Nest each server request under the client round trip that caused it.

    The server's ``service.handler`` span ran inside the client's
    ``service.request`` span with the same request id, so its duration comes
    off the client span's self time (what is left is transport).  Requests
    no client span knows of (the boot probe) stay inside the boot window.
    """
    handled: Dict[str, float] = defaultdict(float)
    for trace, name, start, end, _self in server_spans:
        if name == "service.handler":
            handled[trace] += end - start
    merged = []
    for trace, name, start, end, self_s in client_spans:
        if name == "service.request":
            self_s -= handled.pop(trace, 0.0)
        merged.append((trace, name, start, end, self_s))
    return merged + list(server_spans)


def layer_metrics(
    spans: List[tuple], counters: Dict[str, float], wall_s: float,
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every per-layer metric (zero where the workload bypasses the layer)."""
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    self_by_layer: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for _trace, name, start, end, self_s in spans:
        total[name] += end - start
        calls[name] += 1
        self_by_layer[layer_of(name)] += self_s
    c = defaultdict(float, counters)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {
        "service.wall_s": total["service.request"],
        "service.engine_s": c["service.engine_s"],
        "service.residual_s": total["service.request"] - c["service.engine_s"],
        "sessions.act_s": total["sessions.act"],
        "protocol.payload_s": total["protocol.payload"],
        "service.requests": calls["service.request"],
        "service.failed": c["service.failed"],
        "loadgen.late_p99_s": c["loadgen.late_p99_s"],
        "loadgen.open_p50_s": c["loadgen.open_p50_s"],
        "loadgen.open_p90_s": c["loadgen.open_p90_s"],
        "canonical.calls": c["canonical.calls"],
        "canonical.misses": c["canonical.misses"],
        "canonical.hit_ratio": ratio(
            c["canonical.calls"] - c["canonical.misses"], c["canonical.calls"]
        ),
        "spig.vertices": c["spig.vertices"],
        "candidates.rq_size": ratio(c["candidates.rq_total"],
                                    calls["candidates.exact"]),
        "verify.candidates": c["verify.candidates"],
        "verify.answers": c["verify.answers"],
        "verify.useful_ratio": ratio(c["verify.answers"], c["verify.candidates"]),
        "verify.free_share": ratio(c["verify.free"], c["verify.candidates"]),
        "pool.dispatches": c["pool.dispatches"],
        "pool.items": c["pool.items"],
        "pool.run_share": ratio(total["pool.map"], total["engine.run"]),
        "gspan.fragments": c["gspan.fragments"],
        "dif.fragments": c["dif.fragments"],
        "persist.bytes": c["persist.bytes"],
        "arena.bytes": c["arena.bytes"],
    }
    for span_name in (
        "engine.new", "engine.modify", "engine.simquery", "engine.run",
        "spig.on_new_edge", "candidates.exact", "candidates.similar",
        "verify.exact", "verify.similar", "pool.map", "modify.apply",
        "modify.suggest", "gspan.mine", "dif.level1", "dif.extensions",
        "index.assemble", "persist.save", "persist.load", "arena.publish",
    ):
        out[f"{span_name}_s"] = total[span_name]
    for span_name in ("engine.new", "engine.modify", "engine.simquery", "engine.run"):
        out[f"{span_name}_calls"] = calls[span_name]
    for layer, self_s in self_by_layer.items():
        out[f"self.{layer}_s"] = self_s
    out["trace.wall_s"] = wall_s
    out["unattributed_s"] = wall_s - sum(self_by_layer.values())
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def render_table(metrics: Dict[str, float]) -> str:
    """The per-layer table printed by a traced run."""
    wall = metrics["trace.wall_s"]
    lines = [f"{'layer':<12}{'self_s':>12}{'share':>9}"]
    for layer in LAYERS:
        self_s = metrics[f"self.{layer}_s"]
        lines.append(f"{layer:<12}{self_s:>12.4f}{self_s / wall:>9.1%}")
    lines.append(f"{'unattrib.':<12}{metrics['unattributed_s']:>12.4f}"
                 f"{metrics['unattributed_s'] / wall:>9.1%}")
    lines.append(f"{'wall':<12}{wall:>12.4f}   overhead x"
                 f"{metrics['trace.overhead_ratio']:.3f}")
    for key in sorted(metrics):
        if not key.startswith("self.") and key not in (
            "trace.wall_s", "unattributed_s", "trace.overhead_ratio"
        ):
            lines.append(f"  {key:<26}{metrics[key]:.6g}")
    return "\n".join(lines)
