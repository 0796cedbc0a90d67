"""Declarative service-level objectives with rolling-window burn rates.

PRAGUE's operational promise is a *latency* promise: per-action work hides
inside the ≥2 s GUI window (Section VIII-B), so the service's primary SLO
is "actions complete within the window", with error rate and admission
rate alongside.  Each objective is a target fraction of *good* samples
over a rolling time window (:data:`SLO_WINDOW_S`, one hour):

* ``attainment`` — good / total over the window (``None`` with no samples);
* ``burn_rate`` — ``(1 - attainment) / (1 - target)``: the speed at which
  the error budget is being spent.  1.0 means failures arrive exactly at
  the budgeted rate (the budget lasts the window); 2.0 burns it twice as
  fast; below 1.0 the objective is being met with room to spare.

The tracker takes explicit ``t``/``now`` timestamps (defaulting to
``time.monotonic``) so the math is property-testable against a brute-force
reference without clock control.  Feeds are one deque append under a lock —
cheap enough for the request hot path, bounded by ``bench_obs_overhead``.

The service feeds the plane through two calls: :func:`record_action_latency`
once per session action and :func:`record_request` once per HTTP request.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, Optional, Tuple

from collections import deque

from repro.config import DEFAULT_EDGE_LATENCY_SECONDS
from repro.obs.histogram import observe
from repro.obs.metrics import count
from repro.obs.recorder import RECORDER
from repro.obs.requests import REQUEST_LOG

#: Rolling window, in seconds, over which attainment and burn are computed:
#: the objectives in ``/obs`` describe the last hour of traffic.
SLO_WINDOW_S = 3600.0


@dataclass(frozen=True)
class SloObjective:
    """One objective: ``target`` fraction of samples must be *good*."""

    name: str
    description: str
    target: float


#: The service's default objectives.  ``request_errors`` deliberately treats
#: 503 as non-error: admission rejections are the ``admission`` objective's
#: budget, not a server fault.
DEFAULT_OBJECTIVES: Tuple[SloObjective, ...] = (
    SloObjective(
        "action_latency",
        "session actions complete within the GUI-latency window",
        0.99,
    ),
    SloObjective(
        "request_errors",
        "HTTP requests answered without a server error (5xx, excluding 503)",
        0.999,
    ),
    SloObjective(
        "admission",
        "session creates admitted under the capacity gate",
        0.99,
    ),
)


class SloTracker:
    """Rolling-window attainment + burn rate over declarative objectives."""

    def __init__(
        self,
        objectives: Iterable[SloObjective] = DEFAULT_OBJECTIVES,
        window_s: Optional[float] = None,
        max_samples: int = 4096,
    ) -> None:
        self._objectives: Dict[str, SloObjective] = {
            objective.name: objective for objective in objectives
        }
        self.window_s = SLO_WINDOW_S if window_s is None else \
            max(float(window_s), 1e-9)
        self._lock = threading.Lock()
        self._samples: Dict[str, Deque[Tuple[float, bool]]] = {
            name: deque(maxlen=max(int(max_samples), 1))
            for name in self._objectives
        }

    def objectives(self) -> Tuple[SloObjective, ...]:
        return tuple(self._objectives.values())

    def record(self, name: str, good: bool, t: Optional[float] = None) -> None:
        """Feed one sample; unknown objective names are ignored (hot path)."""
        samples = self._samples.get(name)
        if samples is None:
            return
        if t is None:
            t = time.monotonic()
        with self._lock:
            samples.append((float(t), bool(good)))

    def _window_counts_locked(self, name: str, now: float) -> Tuple[int, int]:
        """(good, total) inside the window; prunes aged-out samples."""
        samples = self._samples[name]
        horizon = now - self.window_s
        while samples and samples[0][0] < horizon:
            samples.popleft()
        good = sum(1 for _, is_good in samples if is_good)
        return good, len(samples)

    def attainment(self, name: str, now: Optional[float] = None) -> Optional[float]:
        """Good fraction over the window, ``None`` without samples."""
        if name not in self._samples:
            return None
        if now is None:
            now = time.monotonic()
        with self._lock:
            good, total = self._window_counts_locked(name, now)
        return good / total if total else None

    def burn_rate(self, name: str, now: Optional[float] = None) -> Optional[float]:
        """Error-budget burn speed; ``None`` without samples or budget."""
        objective = self._objectives.get(name)
        if objective is None:
            return None
        return _burn(self.attainment(name, now=now), objective.target)

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Dict[str, Any]]:
        """Per-objective state, the shape ``/obs`` and ``repro top`` render."""
        if now is None:
            now = time.monotonic()
        out: Dict[str, Dict[str, Any]] = {}
        for name, objective in self._objectives.items():
            with self._lock:
                good, total = self._window_counts_locked(name, now)
            attainment = good / total if total else None
            burn = _burn(attainment, objective.target)
            out[name] = {
                "description": objective.description,
                "objective": objective.target,
                "window_s": self.window_s,
                "samples": total,
                "good": good,
                "bad": total - good,
                "attainment": attainment,
                "burn_rate": burn,
                "budget_remaining": (1.0 - burn) if burn is not None else None,
                "met": (attainment >= objective.target)
                if attainment is not None
                else None,
            }
        return out

    def reset(self) -> None:
        with self._lock:
            for samples in self._samples.values():
                samples.clear()


def _burn(attainment: Optional[float], target: float) -> Optional[float]:
    """``(1 - attainment) / (1 - target)``; ``None`` without samples, or for
    a 100 % objective, which has no budget to burn."""
    budget = 1.0 - target
    if attainment is None or budget <= 0.0:
        return None
    return (1.0 - attainment) / budget


#: Process-wide tracker over :data:`DEFAULT_OBJECTIVES`.
SLO = SloTracker()


def record_action_latency(elapsed_s: float) -> None:
    """Feed one served session action: the ``service.actions`` counter, the
    ``service.action`` histogram and the ``action_latency`` objective
    (good iff within :data:`~repro.config.DEFAULT_EDGE_LATENCY_SECONDS`)."""
    count("service.actions")
    observe("service.action", elapsed_s)
    SLO.record("action_latency", elapsed_s <= DEFAULT_EDGE_LATENCY_SECONDS)


def record_request(
    request_id: str,
    method: str,
    path: str,
    status: int,
    duration_s: float,
    session_id: Optional[str] = None,
) -> None:
    """Feed one completed HTTP request: the ``request_errors`` objective (5xx
    other than 503 burns budget), the :data:`REQUEST_LOG` ring and the
    ``service.request`` access-log event."""
    SLO.record("request_errors", status < 500 or status == 503)
    REQUEST_LOG.record(
        request_id=request_id, method=method, path=path, status=status,
        duration_s=duration_s, session_id=session_id,
    )
    RECORDER.record(
        "service.request", method=method, path=path, status=status,
        duration_ms=round(1000.0 * duration_s, 3), session_id=session_id,
    )


def record_admission(admitted: bool) -> None:
    """Feed one session-create admission decision."""
    SLO.record("admission", admitted)
