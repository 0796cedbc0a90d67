"""The flight recorder — an always-on bounded ring of structured events.

Spans and histograms tell you where time went; when a session *diverges* or
a verification pool falls over you instead need to know **what just
happened**, in order, with arguments.  The flight recorder is the black box
for that: a bounded ``deque`` of structured events that every interesting
site appends to — action boundaries, cache hit/miss *transitions* (recorded
only when the streak flips, so steady-state hits cost one dict probe),
verification-pool runs and fallbacks, and exceptions with their tracebacks.

It is always on (``force(False)`` silences it in-process) precisely because
it only pays off for the failures nobody planned to reproduce: the ring
holds the last :data:`RECORDER_SIZE` events at a per-event cost bounded by
``benchmarks/bench_obs_overhead.py``.

:meth:`FlightRecorder.dump` freezes the ring into a schema-versioned
post-mortem bundle (see :mod:`repro.obs.export`); the differential-oracle
harness embeds one in every divergence report, a pool fallback writes one to
``REPRO_POSTMORTEM_DIR`` when set, and ``python -m repro postmortem
<bundle>`` renders either back into a timeline:

>>> recorder = FlightRecorder(size=4)
>>> recorder.force(True)
>>> recorder.record("action.start", op="new")
>>> recorder.transition("a2f.lookup", "hit")
>>> recorder.transition("a2f.lookup", "hit")   # same streak: not recorded
>>> recorder.transition("a2f.lookup", "miss")  # flip: recorded
>>> [e["kind"] for e in recorder.snapshot()]
['action.start', 'transition', 'transition']
"""

from __future__ import annotations

import json
import time
import traceback as _traceback
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Union

from repro.obs.exporter import EXPORTER as _EXPORTER
from repro.obs import requests as _requests

#: Ring capacity of the process recorder: it keeps the last 512 events.
RECORDER_SIZE = 512


class FlightRecorder:
    """Process-wide bounded event ring."""

    def __init__(self, size: Optional[int] = None) -> None:
        self.enabled: bool = True
        self._size: int = RECORDER_SIZE if size is None else size
        self._events: Deque[Dict[str, Any]] = deque(maxlen=self._size)
        self._seq: int = 0
        self._dumps: int = 0
        self._last_state: Dict[str, str] = {}
        #: Count of record/transition *invocations* while enabled — the
        #: per-session volume the overhead benchmark multiplies by per-call
        #: cost (deduplicated transitions still pay the probe, so they count).
        self.calls: int = 0

    # ------------------------------------------------------------------
    # switching
    # ------------------------------------------------------------------
    def force(self, enabled: Optional[bool]) -> None:
        """Switch the recorder on or off; ``None`` restores the default (on)."""
        self.enabled = True if enabled is None else enabled

    def reset(self) -> None:
        """Drop all events and transition memory (test/bench isolation)."""
        self._events.clear()
        self._last_state.clear()
        self._seq = 0
        self.calls = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, kind: str, **fields: Any) -> None:
        """Append one structured event (no-op while disabled)."""
        if not self.enabled:
            return
        self.calls += 1
        self._append(kind, fields)

    def transition(self, name: str, state: str) -> None:
        """Record ``name``'s state only when it *changes* (streak compression).

        Cache sites call this per probe; a run of 10 000 hits costs 10 000
        dict probes but records exactly one event per flip, so the ring holds
        history instead of noise.
        """
        if not self.enabled:
            return
        self.calls += 1
        previous = self._last_state.get(name)
        if previous == state:
            return
        self._last_state[name] = state
        self._append("transition", {"name": name, "from": previous, "to": state})

    def _append(self, kind: str, fields: Dict[str, Any]) -> None:
        self._seq += 1
        event: Dict[str, Any] = {
            "seq": self._seq,
            "t_s": time.perf_counter(),
            "kind": kind,
        }
        event.update(fields)
        # Module-attribute guard before the thread-local lookup: processes
        # that never enter a request scope (benches, batch replays) keep the
        # pre-correlation record price.
        if _requests._EVER_SCOPED:
            request_id = getattr(_requests._SCOPE, "request_id", None)
            if request_id is not None:
                event.setdefault("request_id", request_id)
        self._events.append(event)
        if _EXPORTER.active:
            _EXPORTER.emit(event)
            if kind == "action.end":
                _EXPORTER.tick()

    def merge(self, events: List[Dict[str, Any]],
              source: Optional[str] = None) -> None:
        """Interleave another process's event snapshot into this ring.

        Events arrive from a verification worker's delta
        (:mod:`repro.obs.snapshot`): each is tagged with its ``source``
        provenance label (``src`` field) and slotted into the ring by its
        ``t_s`` timestamp — ``perf_counter`` is CLOCK_MONOTONIC, shared
        across forked processes, so parent and worker timelines are directly
        comparable.  Sequence numbers are reassigned over the merged order
        (they are per-ring, not global), and the ring bound still holds:
        oldest merged events fall off first.  Merged events also stream to
        the continuous exporter, so a tailing ``repro top`` sees worker
        activity as soon as the pool returns.
        """
        if not self.enabled or not events:
            return
        incoming: List[Dict[str, Any]] = []
        for event in events:
            event = dict(event)
            if source is not None:
                event.setdefault("src", source)
            incoming.append(event)
        combined = sorted(
            list(self._events) + incoming,
            key=lambda e: e.get("t_s", 0.0),
        )
        self._seq += len(incoming)
        retained = combined[-self._size:]
        for seq, event in enumerate(
            retained, start=self._seq - len(retained) + 1
        ):
            event["seq"] = seq
        self._events = deque(retained, maxlen=self._size)
        if _EXPORTER.active:
            for event in incoming:
                _EXPORTER.emit(event)

    def record_exception(self, kind: str, exc: BaseException,
                         **fields: Any) -> None:
        """Append an exception event carrying the full traceback text."""
        if not self.enabled:
            return
        self.record(
            kind,
            error=f"{type(exc).__name__}: {exc}",
            traceback="".join(_traceback.format_exception(
                type(exc), exc, exc.__traceback__
            )),
            **fields,
        )

    # ------------------------------------------------------------------
    # post-mortems
    # ------------------------------------------------------------------
    def snapshot(self) -> List[Dict[str, Any]]:
        """The ring's current contents, oldest first (copied)."""
        return [dict(event) for event in self._events]

    def dump(self, reason: str = "manual", **extra: Any) -> Dict[str, Any]:
        """Freeze the ring into a schema-versioned post-mortem bundle."""
        from repro.obs.export import envelope

        self._dumps += 1
        payload: Dict[str, Any] = {
            "reason": reason,
            "dump_index": self._dumps,
            "capacity": self._size,
            "dropped": max(0, self._seq - len(self._events)),
            "events": self.snapshot(),
        }
        payload.update(extra)
        return envelope("postmortem", payload)

    def dump_to_dir(
        self,
        reason: str,
        directory: Union[str, Path, None] = None,
        **extra: Any,
    ) -> Optional[Path]:
        """Write a post-mortem bundle under ``directory`` (or the
        ``REPRO_POSTMORTEM_DIR`` knob); returns the path, or ``None`` when no
        directory is configured or the recorder is disabled."""
        from repro.config import postmortem_dir

        if not self.enabled:
            return None
        if directory is None:
            directory = postmortem_dir()
        if directory is None:
            return None
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        bundle = self.dump(reason=reason, **extra)
        slug = "".join(c if c.isalnum() else "-" for c in reason)
        path = directory / f"postmortem-{bundle['dump_index']:04d}-{slug}.json"
        path.write_text(json.dumps(bundle, indent=2, default=str) + "\n")
        return path


#: The process-wide recorder every instrumented site appends to.
RECORDER = FlightRecorder()


def render_postmortem(bundle: Dict[str, Any]) -> str:
    """A post-mortem bundle as a human-readable timeline.

    Accepts the bundle as loaded from JSON (schema-enveloped) and renders a
    header plus one line per event: sequence number, milliseconds since the
    first retained event, kind, and the event's fields.
    """
    events = bundle.get("events", [])
    lines = [
        f"post-mortem: {bundle.get('reason', '?')} "
        f"(schema {bundle.get('schema', 1)}, "
        f"{len(events)} events, {bundle.get('dropped', 0)} older dropped, "
        f"capacity {bundle.get('capacity', '?')})"
    ]
    if not events:
        lines.append("(recorder ring was empty)")
        return "\n".join(lines)
    t0 = events[0].get("t_s", 0.0)
    width = max(len(str(e.get("seq", ""))) for e in events)
    for event in events:
        skip = {"seq", "t_s", "kind", "traceback"}
        fields = " ".join(
            f"{k}={event[k]}" for k in event if k not in skip
        )
        offset_ms = 1000 * (event.get("t_s", t0) - t0)
        lines.append(
            f"  #{event.get('seq', 0):>{width}}  +{offset_ms:9.2f} ms  "
            f"{event.get('kind', '?'):<18}{fields}"
        )
        if "traceback" in event:
            for tb_line in str(event["traceback"]).rstrip().splitlines():
                lines.append(f"      | {tb_line}")
    return "\n".join(lines)
