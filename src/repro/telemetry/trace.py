"""Process-local tracing with Chrome trace-event export.

The :class:`Tracer` records nested duration spans (``ph: "B"`` / ``"E"``
events in the `Chrome trace-event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_)
and exports them as a single JSON document loadable in Perfetto or
``chrome://tracing``.

Design constraints (see docs/OBSERVABILITY.md):

* **Zero dependency** — stdlib only, importable from every layer
  (``infer``, ``runtime``, ``driver``) without cycles.
* **Near-zero cost when off** — hot call sites guard on the single
  ``tracer.enabled`` attribute; :meth:`Tracer.span` returns a
  preallocated no-op singleton when disabled so a stray unguarded call
  allocates nothing.
* **One process, one row** — every check runs in the calling process,
  so every event carries this process's pid and tid 0.

Timestamps are microseconds (floats) relative to the tracer's
``perf_counter`` epoch.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

#: Environment variable that opts the process into tracing.  Any non-empty
#: value enables the tracer; if the value looks like a file path (it is not
#: just ``1``/``true``/``yes``/``on``) the CLI writes the export there on
#: exit unless ``--trace`` named an explicit destination.
TRACE_ENV = "REPRO_TRACE"


class _NoopSpan:
    """Singleton context manager returned by a disabled tracer.

    ``__enter__``/``__exit__`` on a preallocated instance allocate
    nothing, which the telemetry tests pin with a gc-count assertion.
    """

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP_SPAN = _NoopSpan()


class _Span:
    """Context manager emitting a matched B/E event pair."""

    __slots__ = ("_tracer", "_name")

    def __init__(self, tracer: "Tracer", name: str,
                 args: Optional[Dict[str, Any]]):
        self._tracer = tracer
        self._name = name
        tracer._emit("B", name, args)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._tracer._emit("E", self._name, None)
        return False


class Tracer:
    """Collects Chrome trace events for one process.

    All spans are attributed to this process's pid and to tid 0, its one
    row.
    """

    __slots__ = ("enabled", "pid", "_epoch_pc", "_events")

    def __init__(self):
        self.enabled = False
        self._events: List[Dict[str, Any]] = []
        self.pid = os.getpid()
        self._epoch_pc = time.perf_counter()

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- recording -----------------------------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch_pc) * 1e6

    def _emit(self, ph: str, name: str,
              args: Optional[Dict[str, Any]]) -> None:
        event: Dict[str, Any] = {
            "name": name,
            "ph": ph,
            "ts": self._now_us(),
            "pid": self.pid,
            "tid": 0,
            "cat": "repro",
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def begin(self, name: str, **args: Any) -> None:
        """Open a span (must be closed with a matching :meth:`end`)."""
        if self.enabled:
            self._emit("B", name, args or None)

    def end(self, name: str) -> None:
        if self.enabled:
            self._emit("E", name, None)

    def span(self, name: str, **args: Any):
        """Context manager span; a no-op singleton when disabled."""
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, name, args or None)

    def instant(self, name: str, **args: Any) -> None:
        """A zero-duration marker (``ph: "i"``)."""
        if self.enabled:
            event = {"name": name, "ph": "i", "ts": self._now_us(),
                     "pid": self.pid, "tid": 0, "cat": "repro", "s": "t"}
            if args:
                event["args"] = args
            self._events.append(event)

    # -- export ---------------------------------------------------------------

    def drain(self) -> List[Dict[str, Any]]:
        """Return and clear the buffered events."""
        events, self._events = self._events, []
        return events

    def export(self) -> Dict[str, Any]:
        """The full Chrome trace-event document (object form)."""
        metadata = [{
            "name": "process_name", "ph": "M", "ts": 0.0,
            "pid": self.pid, "tid": 0,
            "args": {"name": "repro"},
        }]
        return {
            "traceEvents": metadata + list(self._events),
            "displayTimeUnit": "ms",
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.export(), handle)
            handle.write("\n")


def validate_events(events: List[Dict[str, Any]]) -> None:
    """Check a list of trace events for Chrome trace-event well-formedness.

    Raises :class:`ValueError` describing the first problem found:

    * every event carries ``name``/``ph``/``ts``/``pid``/``tid``;
    * per ``(pid, tid)`` row, B/E events obey stack discipline — every
      ``E`` closes the most recent open ``B`` of the same name (which is
      exactly "no overlapping siblings"), and no ``B`` is left open.
    """
    stacks: Dict[Any, List[Any]] = {}
    for event in events:
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                raise ValueError(f"event missing {key!r}: {event!r}")
        ph = event["ph"]
        if ph in ("M", "i"):
            continue
        if ph not in ("B", "E"):
            raise ValueError(f"unexpected phase {ph!r}: {event!r}")
        row = (event["pid"], event["tid"])
        stack = stacks.setdefault(row, [])
        if ph == "B":
            stack.append((event["name"], event["ts"]))
        else:
            if not stack:
                raise ValueError(
                    f"E event with no open span on row {row}: {event!r}")
            open_name, open_ts = stack.pop()
            if open_name != event["name"]:
                raise ValueError(
                    f"E {event['name']!r} closes open span {open_name!r} "
                    f"on row {row} (overlapping siblings)")
            if event["ts"] < open_ts:
                raise ValueError(
                    f"E {event['name']!r} ends before it begins on row "
                    f"{row}")
    for row, stack in stacks.items():
        if stack:
            raise ValueError(
                f"unclosed span(s) {[name for name, _ in stack]!r} "
                f"on row {row}")


def validate_trace_document(doc: Any) -> List[Dict[str, Any]]:
    """Validate a full export document; returns its event list."""
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("trace document must be an object with traceEvents")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    validate_events(events)
    return events


def env_trace_path() -> Optional[str]:
    """The output path implied by ``REPRO_TRACE``, if it names one."""
    value = os.environ.get(TRACE_ENV, "")
    if value and value.lower() not in ("1", "true", "yes", "on"):
        return value
    return None


#: The process-global tracer.  Disabled by default; the CLI (``--trace``)
#: or the ``REPRO_TRACE`` environment variable switches it on.
TRACER = Tracer()

if os.environ.get(TRACE_ENV):
    TRACER.enable()
