"""Prometheus text exposition, by hand: counters, gauges, histograms.

``GET /metrics`` renders the serving stack's numbers in the Prometheus
text format (version 0.0.4) without importing a client library.  The
format is small enough to emit directly -- ``# HELP``/``# TYPE`` header
lines, then one sample per line -- and emitting it ourselves keeps three
invariants the stack cares about:

* **NaN-free by construction.**  Percentile windows answer ``nan``
  before any traffic; :class:`MetricsWriter.sample` silently skips
  non-finite values, so an idle server scrapes clean (the strict-JSON
  twin of the ``/v1/stats`` regression).
* **Counters are monotonic.**  Everything rendered as ``counter`` maps
  to an ever-increasing Python int maintained by the stats objects.
* **Histograms are fixed-bucket and cumulative.**  :class:`Histogram`
  records observations into a constant set of latency buckets (O(log
  buckets) per observe, no allocation), rendered as the standard
  ``_bucket{le=...}`` / ``_sum`` / ``_count`` triplet.

:func:`render_server_metrics` is the one composition point: a pure
function of the ``GET /v1/stats`` body (per-model rows with their replica
rows, autoscaler snapshot and store identity; the gateway limits; the
tracer counters), so ``/metrics`` and ``/v1/stats`` show one snapshot.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import Dict, List, Optional

__all__ = ["Histogram", "MetricsWriter", "render_server_metrics", "DEFAULT_BUCKETS_MS"]

#: Fixed latency buckets (milliseconds): sub-ms engine calls through
#: multi-second stragglers, roughly logarithmic.
DEFAULT_BUCKETS_MS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    ``observe`` is O(log buckets) (a bisect into the constant bound
    tuple) and allocation-free; non-finite observations are dropped so
    the rendered output can never carry NaN.  Buckets are *non*-
    cumulative internally and cumulated at render time.
    """

    __slots__ = ("bounds", "counts", "count", "sum")

    def __init__(self, bounds=DEFAULT_BUCKETS_MS):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a non-empty ascending sequence")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            return
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def cumulative(self) -> List[int]:
        """Per-bucket cumulative counts (last entry equals ``count``)."""
        out, running = [], 0
        for bucket in self.counts:
            running += bucket
            out.append(running)
        return out

    def as_dict(self) -> dict:
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "count": self.count, "sum": self.sum}


def _escape_label(value: str) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(value)


class MetricsWriter:
    """Accumulates exposition lines; headers are emitted once per metric."""

    def __init__(self):
        self._lines: List[str] = []
        self._described: set = set()

    def header(self, name: str, help_text: str, metric_type: str) -> None:
        if name in self._described:
            return
        self._described.add(name)
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {metric_type}")

    def sample(self, name: str, labels: Optional[Dict[str, str]], value) -> None:
        if value is None:
            return
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float)):
            return
        if not math.isfinite(float(value)):
            return  # NaN/Inf never reach the wire
        rendered = ""
        if labels:
            pairs = ",".join(f'{key}="{_escape_label(val)}"' for key, val in labels.items())
            rendered = "{" + pairs + "}"
        self._lines.append(f"{name}{rendered} {_format_value(value)}")

    def counter(self, name: str, help_text: str, value, labels=None) -> None:
        self.header(name, help_text, "counter")
        self.sample(name, labels, value)

    def gauge(self, name: str, help_text: str, value, labels=None) -> None:
        self.header(name, help_text, "gauge")
        self.sample(name, labels, value)

    def histogram(self, name: str, help_text: str, hist: dict, labels=None) -> None:
        """One histogram from its snapshot form (:meth:`Histogram.as_dict`)."""
        self.header(name, help_text, "histogram")
        labels = dict(labels or {})
        for bound, cum in zip(list(hist["bounds"]) + [math.inf], accumulate(hist["counts"])):
            self.sample(f"{name}_bucket", {**labels, "le": _format_value(float(bound))}, cum)
        self.sample(f"{name}_sum", labels, hist["sum"])
        self.sample(f"{name}_count", labels, hist["count"])

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


# ---------------------------------------------------------------------- #
# The serving stack's exposition
# ---------------------------------------------------------------------- #
_COUNTERS = (
    ("submitted", "Requests accepted into the batcher queue."),
    ("completed", "Requests resolved with a result."),
    ("rejected", "Requests refused because the bounded queue was full."),
    ("deadline_missed", "Requests failed on an expired latency deadline."),
    ("shed_retried", "Shed requests handed to the one-shot rescue hook."),
    ("shed_recovered", "Shed requests the rescue hook answered."),
    ("batches", "Fused engine calls."),
)

_REPLICA_COUNTERS = (
    ("dispatched", "Fused batches this replica answered."),
    ("failures", "Calls this replica failed (crash, timeout or error answer)."),
    ("restarts", "Times this replica's worker was restarted."),
)

_AUTOSCALER_COUNTERS = (
    ("scale_ups", "Autoscaler scale-up actions."),
    ("scale_downs", "Autoscaler scale-down actions."),
    ("holds", "Autoscaler hold decisions."),
    ("nan_holds", "Holds forced by a cold percentile window."),
    ("idle_demotions", "Idle models demoted to the registry's LRU front."),
    ("errors", "Autoscaler steps that failed."),
)


def render_server_metrics(body: dict) -> str:
    """The ``GET /metrics`` text of one ``GET /v1/stats`` body (its JSON, parsed, renders the same).

    ``body`` is all it reads: ``models`` (name -> ``BatcherStats.as_dict()``
    row), ``gateway`` (the limits snapshot) and ``obs`` (tracer counters).
    """
    writer = MetricsWriter()
    for model, row in sorted(body.get("models", {}).items()):
        labels = {"model": model}
        for key, help_text in _COUNTERS:
            writer.counter(f"repro_{key}_total", help_text, row.get(key), labels)
        writer.gauge("repro_largest_batch", "Largest fused batch so far.", row.get("largest_batch"), labels)
        writer.gauge("repro_mean_batch_size", "Mean fused batch size.", row.get("mean_batch_size"), labels)
        histograms = row.get("histograms") or {}
        for key, help_text in (
            ("request_latency_ms", "End-to-end request latency (ms)."),
            ("queue_wait_ms", "Submit-to-batch-start wait (ms)."),
            ("batch_compute_ms", "Fused engine-call duration (ms)."),
        ):
            if key in histograms:
                writer.histogram(f"repro_{key}", help_text, histograms[key], labels)
        quantiles = [(q, row.get(f"p{key}_latency_ms")) for q, key in (("0.5", 50), ("0.95", 95), ("0.99", 99))]
        if all(isinstance(value, float) and math.isfinite(value) for _, value in quantiles):
            # Quantile gauges only exist once the window has samples -- an empty
            # window answers NaN (null in JSON), and NaN never reaches the wire.
            for quantile, value in quantiles:
                writer.gauge(
                    "repro_request_latency_quantile_ms",
                    "Sliding-window request latency quantiles (ms).",
                    value,
                    {**labels, "quantile": quantile},
                )
        for replica in row.get("replicas") or []:
            rlabels = {**labels, "replica": str(replica.get("replica"))}
            writer.gauge("repro_replica_alive",
                         "Worker up (1 = handshaken and connected; a draining replica still reads 1).",
                         replica.get("alive"), rlabels)
            writer.gauge("repro_replica_in_flight", "Batches dispatched at this replica.",
                         replica.get("in_flight"), rlabels)
            writer.gauge("repro_replica_ewma_latency_ms", "EWMA call latency (ms).",
                         replica.get("ewma_latency_ms"), rlabels)
            writer.gauge("repro_replica_threads", "BLAS/OpenMP thread budget the worker started with.",
                         replica.get("threads"), rlabels)
            for key, help_text in _REPLICA_COUNTERS:
                writer.counter(f"repro_replica_{key}_total", help_text, replica.get(key), rlabels)
        scaler = row.get("autoscaler")
        if scaler:
            writer.gauge("repro_autoscaler_fleet", "Replica fleet size.", scaler.get("fleet"), labels)
            writer.gauge("repro_autoscaler_alive", "Routable replicas.", scaler.get("alive"), labels)
            for key, help_text in _AUTOSCALER_COUNTERS:
                writer.counter(f"repro_autoscaler_{key}_total", help_text, scaler.get(key), labels)
        store = row.get("store")
        if store:
            writer.gauge(
                "repro_model_store_info",
                "Store identity of the serving version (labels carry the detail).",
                1,
                {
                    **labels,
                    "version": str(store.get("version_tag", store.get("version", "?"))),
                    "content_hash": str(store.get("content_hash", "?"))[:12],
                },
            )
    gateway = body.get("gateway")
    if gateway:
        for key in ("open_connections", "inflight", "max_connections", "max_inflight"):
            writer.gauge(f"repro_gateway_{key}", f"Gateway {key.replace('_', ' ')}.",
                         gateway.get(key))
        for key in ("total_connections", "total_requests", "connections_rejected", "requests_rejected"):
            writer.counter(f"repro_gateway_{key}_total", f"Gateway {key.replace('_', ' ')}.",
                           gateway.get(key))
    obs = body.get("obs")
    if obs:
        writer.gauge("repro_obs_sample_rate", "Trace sampling rate.", obs.get("sample_rate"))
        writer.gauge("repro_obs_traces_buffered", "Finished traces retained.", obs.get("buffered"))
        for key in ("started", "sampled_out", "finished", "evicted"):
            writer.counter(f"repro_obs_traces_{key}_total", f"Traces {key.replace('_', ' ')}.",
                           obs.get(key))
    return writer.render()
