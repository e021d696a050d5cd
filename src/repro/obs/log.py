"""Structured JSON-lines logging, trace-aware.

Operational events in the serving stack -- replica restarts and their
backoff, autoscaler decisions, drain-deadline overruns, version swaps --
were plain ``logging`` format strings: greppable by a human, useless to
a pipeline, and impossible to correlate with the request that suffered.
:class:`JsonLogger` replaces that with one JSON object per line, routed
through the stdlib :mod:`logging` tree (handlers, levels and ``caplog``
keep working), and stamps the current trace id automatically whenever an
event fires inside a traced request's context.

Events also land in a small in-memory ring (``records()``) so tests can
assert on structured fields without installing handlers.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.obs.trace import current_trace

__all__ = ["JsonLogger", "get_logger"]

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


def _finite(value):
    """``value`` with every non-finite float, nested ones too, replaced by ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if type(value) in (list, tuple):
        return type(value)(_finite(item) for item in value)
    return value


class JsonLogger:
    """One JSON object per event, through stdlib logging.

    Every record carries ``event`` (a stable machine-readable name),
    ``level``, a wall-clock ``ts``, the caller's keyword fields, and --
    when the event fires inside a traced request -- the ``trace_id``
    linking it to the request's spans.  Values that do not serialize are
    stringified rather than raised on: a log line must never take down
    the path it narrates.  Non-finite floats (a percentile of an empty
    window is NaN) become ``null`` in the line and the ring alike, so
    every line parses as strict JSON.
    """

    def __init__(self, name: str = "repro.obs", *, keep: int = 256, clock=time.time):
        self.name = name
        self._logger = logging.getLogger(name)
        self._ring: deque = deque(maxlen=int(keep))
        self._lock = threading.Lock()
        self._clock = clock

    def log(
        self,
        event: str,
        *,
        level: str = "info",
        trace_id: Optional[str] = None,
        **fields,
    ) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "ts": self._clock(),
            "level": level,
            "event": str(event),
        }
        if trace_id is None:
            trace = current_trace()
            if trace is not None:
                trace_id = trace.trace_id
        if trace_id is not None:
            record["trace_id"] = trace_id
        record.update(_finite(fields))
        line = json.dumps(record, separators=(",", ":"), sort_keys=False, default=str)
        with self._lock:
            self._ring.append(record)
        self._logger.log(_LEVELS.get(level, logging.INFO), "%s", line)
        return record

    def debug(self, event: str, **fields) -> Dict[str, Any]:
        return self.log(event, level="debug", **fields)

    def info(self, event: str, **fields) -> Dict[str, Any]:
        return self.log(event, level="info", **fields)

    def warning(self, event: str, **fields) -> Dict[str, Any]:
        return self.log(event, level="warning", **fields)

    def error(self, event: str, **fields) -> Dict[str, Any]:
        return self.log(event, level="error", **fields)

    def records(self, event: Optional[str] = None) -> List[Dict[str, Any]]:
        """Recent records (optionally filtered by event name), oldest first."""
        with self._lock:
            records = list(self._ring)
        if event is not None:
            records = [record for record in records if record.get("event") == event]
        return records

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()


_logger = JsonLogger()


def get_logger() -> JsonLogger:
    """The process-wide structured logger the serving stack shares."""
    return _logger
