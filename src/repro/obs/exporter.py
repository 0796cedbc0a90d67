"""Continuous telemetry export — stream a session instead of autopsying it.

Spans, histograms and the flight recorder all answer questions *after* the
fact; a long-running session serving real traffic needs to be watchable
*while it runs*.  When ``REPRO_OBS_EXPORT`` names a directory, the exporter
keeps three files there live:

* ``events.jsonl`` — every flight-recorder event, appended the moment it is
  recorded (one schema-v2 ``obs-event`` envelope per line).  Worker events
  merged back from the verification pool stream too, ``src``-labelled;
* ``metrics.prom`` — the full metrics snapshot (counters, gauges, latency
  histograms) in Prometheus text exposition format, rewritten at most once
  per :data:`EXPORT_INTERVAL_S` seconds;
* ``snapshot.json`` — the same snapshot as a schema-v2 ``metrics-snapshot``
  envelope with pid/timestamp/sequence metadata, the machine-readable twin
  ``python -m repro top`` tails.

Both metric files are written atomically (temp file + ``os.replace``) so a
tailing reader never sees a half-written snapshot.

The export target is read once, when the exporter is built;
:meth:`ContinuousExporter.force` retargets or silences it in-process (the
oracle's replays use it to stay out of a live session's stream).

Verification-pool workers inherit the parent's exporter state on fork;
:func:`repro.obs.snapshot.begin_worker_capture` calls :meth:`suspend` so a
worker never appends to the parent's files — its events arrive in the
stream only via the parent-side merge, timestamp-interleaved and labelled.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional, TextIO, Union

from repro.config import obs_export_dir

#: Minimum seconds between metrics-file rewrites; the JSONL event stream is
#: unaffected.  ``0`` rewrites after every completed engine action.
EXPORT_INTERVAL_S = 1.0

#: What :meth:`ContinuousExporter.force` accepts: a directory, ``False``
#: (export nothing) or ``None`` (the ``REPRO_OBS_EXPORT`` value read at start).
ExportTarget = Union[str, Path, bool, None]


class ContinuousExporter:
    """Process-wide streaming exporter."""

    def __init__(self) -> None:
        self._directory: Optional[Path] = None
        self._events_file: Optional[TextIO] = None
        self._last_write: float = 0.0
        self._suspended: bool = False  # set in pool workers, never cleared
        self._override: ExportTarget = None
        #: Lifetime accounting, reported in every snapshot.json.
        self.events_emitted: int = 0
        self.snapshots_written: int = 0
        self.active: bool = False
        self._configured: Optional[str] = obs_export_dir()
        self._configure(self._configured)

    # ------------------------------------------------------------------
    # switching
    # ------------------------------------------------------------------
    def force(self, target: ExportTarget) -> ExportTarget:
        """Export to directory ``target``, or nowhere with ``False``.

        ``None`` restores the ``REPRO_OBS_EXPORT`` value read at start.
        Returns the override it replaced, so a caller can put it back.
        """
        previous, self._override = self._override, target
        self._configure(self._configured if target is None else target)
        return previous

    def _configure(self, target: ExportTarget) -> None:
        if self._events_file is not None:
            try:
                self._events_file.close()
            except OSError:  # pragma: no cover - close failures are benign
                pass
            self._events_file = None
        if not target or self._suspended:
            self._directory = None
            self.active = False
            return
        self._directory = Path(target)
        self._directory.mkdir(parents=True, exist_ok=True)
        self.active = True
        self._last_write = 0.0  # first tick writes immediately

    def suspend(self) -> None:
        """Permanently deactivate in this process (called in pool workers).

        A forked worker shares the parent's open JSONL handle; writing from
        both would interleave garbage.  Worker telemetry instead rides the
        delta merge (:mod:`repro.obs.snapshot`) back into the parent's
        stream.
        """
        self._suspended = True
        self._directory = None
        self.active = False
        self._events_file = None  # never close: the fd belongs to the parent

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def emit(self, event: Dict[str, Any]) -> None:
        """Append one event to ``events.jsonl`` (no-op while inactive).

        Each line is a flat schema-v2 ``obs-event`` envelope around the
        flight-recorder event dict.  The file is line-buffered so a tailing
        ``repro top`` sees events promptly without per-event ``fsync`` cost.
        """
        if not self.active:
            return
        if self._events_file is None:
            self._events_file = open(
                self._directory / "events.jsonl", "a",
                buffering=1, encoding="utf-8",
            )
        from repro.obs.export import envelope

        payload = dict(event)
        # The recorder's event kind would clobber the envelope's artifact
        # kind — it rides as "event" instead.
        payload["event"] = payload.pop("kind", "?")
        line = json.dumps(
            envelope("obs-event", payload), separators=(",", ":"), default=str
        )
        try:
            self._events_file.write(line + "\n")
        except (OSError, ValueError):  # target vanished mid-session: drop
            self.active = False
            return
        self.events_emitted += 1

    def tick(self, force: bool = False) -> Optional[Path]:
        """Rewrite ``metrics.prom`` + ``snapshot.json`` if the interval is up.

        Called after every completed engine action; the interval bounds the
        file I/O no matter how chatty the session is.  Returns the snapshot
        path when a write happened.
        """
        if not self.active:
            return None
        now = time.monotonic()
        if not force and self._last_write and \
                now - self._last_write < EXPORT_INTERVAL_S:
            return None
        self._last_write = now
        from repro.obs.export import envelope, render_prometheus
        from repro.obs.metrics import full_snapshot

        snapshot = full_snapshot()
        payload = envelope("metrics-snapshot", {
            "written_at": time.time(),
            "pid": os.getpid(),
            "sequence": self.snapshots_written + 1,
            "events_emitted": self.events_emitted,
            "metrics": snapshot,
        })
        try:
            self._atomic_write(
                "metrics.prom", render_prometheus(snapshot) + "\n"
            )
            path = self._atomic_write(
                "snapshot.json",
                json.dumps(payload, indent=2, default=str) + "\n",
            )
        except OSError:  # export target vanished: deactivate quietly
            self.active = False
            return None
        self.snapshots_written += 1
        self._write_profiles()
        return path

    def _write_profiles(self) -> None:
        """Refresh the ``profiles/`` section when the sampler has samples.

        Two files, same atomicity contract as the metrics pair:
        ``profiles/profile.folded`` (collapsed stacks, flamegraph.pl input)
        and ``profiles/profile.json`` (the full attributed profile with its
        summary).  Skipped entirely — no directory created — while the
        sampler is off or empty.
        """
        from repro.obs.export import envelope
        from repro.obs.profiler import PROFILER, folded_lines, profile_summary

        if not PROFILER.enabled or not PROFILER.samples:
            return
        try:
            (self._directory / "profiles").mkdir(exist_ok=True)
            profile = PROFILER.collect()
            self._atomic_write(
                "profiles/profile.folded",
                "\n".join(folded_lines(PROFILER.stacks())) + "\n",
            )
            self._atomic_write(
                "profiles/profile.json",
                json.dumps(envelope("profile", {
                    "profile": profile,
                    "summary": profile_summary(profile),
                }), indent=2, default=str) + "\n",
            )
        except OSError:  # pragma: no cover - same contract as tick()
            pass

    def _atomic_write(self, name: str, text: str) -> Path:
        path = self._directory / name
        tmp = path.with_name(f".{path.name}.tmp")
        tmp.write_text(text)
        os.replace(tmp, path)
        return path


#: The process-wide exporter; inert unless ``REPRO_OBS_EXPORT`` is set at
#: start or :meth:`ContinuousExporter.force` names a directory.
EXPORTER = ContinuousExporter()
