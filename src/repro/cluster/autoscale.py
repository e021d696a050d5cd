"""SLO-driven autoscaling: hold a p99 budget at minimum process count.

The routers already balance *within* a fixed fleet on in-flight depth
and EWMA latency, and the serving layer's :class:`~repro.serve.metrics`
windows already measure the p99 the fleet actually delivers -- this
module closes the loop.  An :class:`Autoscaler` periodically reads one
model's ``BatcherStats.as_dict()`` row (the p99 ``GET /v1/stats``
serves) plus its :class:`~repro.cluster.ReplicaGroup` depth and drives the group's
elastic primitives (:meth:`~repro.cluster.ReplicaGroup.scale_to`,
drain-before-terminate underneath) so the fleet is as small as the
latency budget allows.  The objective is the iso-metrics framing from
the asymmetric-multicore evaluation literature: maximize *iso-latency
throughput per core* -- sustained request rate under the p99 budget,
divided by worker-process count.

Control-loop shape
------------------
Plain threshold hysteresis, deliberately boring:

* **Scale up** when the windowed p99 crosses ``high_fraction * slo`` (or
  queue depth per replica exceeds ``max_inflight_per_replica``, which
  leads the latency signal under a sudden step), one replica at a time,
  never past ``max_replicas``, and never twice within ``up_cooldown_s``.
* **Scale down** when the p99 sits below ``low_fraction * slo`` *and*
  the remaining fleet could absorb the current in-flight depth, never
  below ``min_replicas``, and never twice within ``down_cooldown_s``.
  The gap between the two fractions is the hysteresis band that keeps
  a borderline fleet from flapping.
* **Hold** otherwise -- and *always* hold while the percentile window
  is cold (NaN percentiles carry no information; a cold window must
  never trigger a membership change) or while fewer than
  ``min_samples`` requests completed since the last action (a window
  still dominated by pre-action traffic would re-trigger on stale
  evidence).
* **Idle**: with ``idle_timeout_s`` set, a model with no traffic at all
  shrinks straight to ``min_replicas``, once per idle spell.

Every decision -- including the reason for holding -- is observable via
:meth:`Autoscaler.snapshot`, which ``InferenceServer.stats()`` and
``GET /v1/stats`` attach per model.

Thread-safety: :meth:`Autoscaler.step` is designed to be called from a
single periodic driver (the server runs it in the event loop's executor;
membership changes block for spawn/drain time).  :meth:`snapshot` is
safe from any thread.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Optional

from repro.obs.log import get_logger as _obs_logger

__all__ = ["AutoscaleConfig", "Autoscaler", "Decision"]


@dataclass(frozen=True)
class Decision:
    """One evaluation of the control loop (returned by :meth:`Autoscaler.evaluate`).

    ``action`` is ``"up"``/``"down"``/``"hold"``; ``target`` the fleet
    size the action aims for (current size for holds); ``reason`` a
    short machine-stable tag (``"p99-over-budget"``, ``"cold-window"``,
    ``"up-cooldown"``, ``"at-max-fleet"``, ``"idle"``, ...).
    """

    action: str
    target: int
    reason: str
    p99_ms: float
    fleet: int
    in_flight: int

    def as_dict(self) -> dict:
        """JSON-friendly row (NaN p99 becomes ``None``, never NaN)."""
        return {
            "action": self.action,
            "target": self.target,
            "reason": self.reason,
            "p99_ms": None if math.isnan(self.p99_ms) else float(self.p99_ms),
            "fleet": self.fleet,
            "in_flight": self.in_flight,
        }


@dataclass
class AutoscaleConfig:
    """Tuning for one model's autoscaler.

    Parameters
    ----------
    slo_p99_ms:
        The latency budget the loop defends: windowed p99 of end-to-end
        request latency, milliseconds.
    min_replicas / max_replicas:
        Fleet bounds.  The loop never shrinks below the floor (even
        idle) and never grows past the cap (the "at-max-fleet" hold is
        visible in the decision history instead).
    interval_s:
        How often the server's driver task calls :meth:`Autoscaler.step`.
    high_fraction / low_fraction:
        Hysteresis thresholds as fractions of the budget: scale up at
        ``p99 >= high_fraction * slo``, consider scaling down only at
        ``p99 <= low_fraction * slo``.  The band between them is where a
        correctly-sized fleet rests.
    up_cooldown_s / down_cooldown_s:
        Minimum spacing between consecutive same-direction actions, so
        one burst cannot ratchet the fleet to the cap before the first
        new replica has absorbed anything.  Down is typically the larger
        of the two: shrinking too eagerly costs a re-spawn.
    min_samples:
        Requests that must complete *after* an action before the next
        one -- the freshness gate that keeps stale window samples from
        re-triggering.
    max_inflight_per_replica:
        Queue-depth trip-wire: mean dispatched-batch depth per replica
        above this scales up even before the latency window catches up,
        and a scale-down is vetoed unless the remaining fleet could
        absorb the current depth under this bound.
    idle_timeout_s:
        With no completed traffic for this long, shrink to
        ``min_replicas``.  ``None`` (default) disables the idle path.
    stats_window:
        Percentile-window capacity the server configures the model's
        batcher with (smaller than the monitoring default so post-action
        traffic displaces stale samples quickly).
    history:
        Bounded decision-history length kept for :meth:`Autoscaler.snapshot`.
    """

    slo_p99_ms: float
    min_replicas: int = 1
    max_replicas: int = 4
    interval_s: float = 0.25
    high_fraction: float = 0.9
    low_fraction: float = 0.5
    up_cooldown_s: float = 1.0
    down_cooldown_s: float = 5.0
    min_samples: int = 20
    max_inflight_per_replica: float = 3.0
    idle_timeout_s: Optional[float] = None
    stats_window: int = 256
    history: int = 64

    def __post_init__(self) -> None:
        if self.slo_p99_ms <= 0:
            raise ValueError("slo_p99_ms must be > 0")
        if self.min_replicas < 1 or self.max_replicas < self.min_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if not (0.0 < self.low_fraction < self.high_fraction):
            raise ValueError("need 0 < low_fraction < high_fraction (the hysteresis band)")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if self.up_cooldown_s < 0 or self.down_cooldown_s < 0:
            raise ValueError("cooldowns must be >= 0")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.max_inflight_per_replica <= 0:
            raise ValueError("max_inflight_per_replica must be > 0")
        if self.idle_timeout_s is not None and self.idle_timeout_s <= 0:
            raise ValueError("idle_timeout_s must be > 0 (or None to disable)")
        if self.stats_window < 1 or self.history < 1:
            raise ValueError("stats_window and history must be >= 1")

    @classmethod
    def from_options(cls, options) -> "AutoscaleConfig":
        """Coerce ``InferenceServer.add_model(name, group, autoscale=...)`` input: config or kwargs dict."""
        if isinstance(options, cls):
            return options
        if isinstance(options, dict):
            return cls(**options)
        raise TypeError(
            f"autoscale must be an AutoscaleConfig or a kwargs dict "
            f"(e.g. {{'slo_p99_ms': 50}}), got {type(options).__name__}"
        )


class Autoscaler:
    """The control loop for one model: stats in, membership changes out.

    Parameters
    ----------
    group:
        The :class:`~repro.cluster.ReplicaGroup` to resize (anything with
        ``__len__``, ``total_in_flight()``, ``alive_count()`` and
        ``scale_to()`` works -- tests drive fakes through the same seam).
    stats:
        Anything with ``as_dict()`` returning ``completed`` and
        ``p99_latency_ms``: the model's :class:`~repro.serve.BatcherStats`
        (one call per evaluation, the row ``GET /v1/stats`` serves).
    config:
        An :class:`AutoscaleConfig`.
    model:
        The model name its events and snapshot carry (default: the
        group's name).
    clock:
        Monotonic time source for cooldown/idle bookkeeping when
        :meth:`evaluate`/:meth:`step` are called without an explicit
        ``now``.  Tests inject a fake so cooldown assertions advance
        virtual time instead of sleeping; production runs on
        ``time.monotonic``.
    """

    def __init__(
        self,
        group,
        stats,
        config: AutoscaleConfig,
        *,
        model: Optional[str] = None,
        clock=None,
    ):
        self.group = group
        self.stats = stats
        self.config = config
        self.model = model or getattr(group, "name", "model")
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._last_up_at: Optional[float] = None
        self._last_down_at: Optional[float] = None
        self._completed_at_action = 0
        self._last_completed = 0
        self._last_traffic_at: Optional[float] = None
        self._idle_handled = False
        self.scale_ups = 0
        self.scale_downs = 0
        self.holds = 0
        self.nan_holds = 0
        self.errors = 0
        self._decisions: "deque[dict]" = deque(maxlen=config.history)
        self._last_decision: Optional[Decision] = None

    # ------------------------------------------------------------------ #
    # Decision function (pure read of group + stats; no membership change)
    # ------------------------------------------------------------------ #
    def evaluate(self, now: Optional[float] = None) -> Decision:
        """One pass of the control law; returns what :meth:`step` would do.

        Reads telemetry and updates idle bookkeeping but never touches
        the fleet, so tests can drive the law directly against fakes.
        """
        now = self._clock() if now is None else now
        cfg = self.config
        fleet = len(self.group)
        in_flight = int(self.group.total_in_flight())
        row = self.stats.as_dict()
        completed = int(row["completed"])
        p99 = float(row["p99_latency_ms"])

        # Idle bookkeeping: any completion or live dispatch counts as traffic.
        if self._last_traffic_at is None:
            self._last_traffic_at = now
        if completed != self._last_completed or in_flight > 0:
            self._last_completed = completed
            self._last_traffic_at = now
            self._idle_handled = False

        def decision(action: str, target: int, reason: str) -> Decision:
            return Decision(action, target, reason, p99, fleet, in_flight)

        # Idle path first: it must fire even on a cold window (a model
        # that never saw traffic will never fill it) and bypasses the
        # freshness gate (no traffic will ever provide fresh samples).
        if (
            cfg.idle_timeout_s is not None
            and now - self._last_traffic_at >= cfg.idle_timeout_s
            and not self._idle_handled
        ):
            if fleet > cfg.min_replicas:
                return decision("down", cfg.min_replicas, "idle")
            return decision("hold", fleet, "idle")

        # NaN guard: a cold percentile window carries no information --
        # no scaling action until it has samples.
        if math.isnan(p99):
            return decision("hold", fleet, "cold-window")

        # Freshness gate: stale window samples from before the last
        # membership change must not re-trigger it.
        if completed - self._completed_at_action < cfg.min_samples:
            return decision("hold", fleet, "awaiting-samples")

        depth_per_replica = in_flight / max(1, fleet)
        over_latency = p99 >= cfg.high_fraction * cfg.slo_p99_ms
        over_depth = depth_per_replica >= cfg.max_inflight_per_replica
        if over_latency or over_depth:
            if fleet >= cfg.max_replicas:
                return decision("hold", fleet, "at-max-fleet")
            if self._last_up_at is not None and now - self._last_up_at < cfg.up_cooldown_s:
                return decision("hold", fleet, "up-cooldown")
            return decision("up", fleet + 1, "p99-over-budget" if over_latency else "queue-depth")

        # Shrink only when comfortably inside the budget *and* the
        # remaining fleet could absorb today's depth under the trip-wire.
        relaxed = p99 <= cfg.low_fraction * cfg.slo_p99_ms
        absorbable = (fleet - 1) * cfg.max_inflight_per_replica >= in_flight
        if relaxed and absorbable:
            if fleet <= cfg.min_replicas:
                return decision("hold", fleet, "at-min-fleet")
            if self._last_down_at is not None and now - self._last_down_at < cfg.down_cooldown_s:
                return decision("hold", fleet, "down-cooldown")
            return decision("down", fleet - 1, "p99-under-budget")

        return decision("hold", fleet, "in-band")

    # ------------------------------------------------------------------ #
    # Acting
    # ------------------------------------------------------------------ #
    def step(self, now: Optional[float] = None) -> Decision:
        """Evaluate and *apply*: resize the fleet.

        Membership changes run synchronously (spawn/drain time), so call
        this off the event loop -- ``InferenceServer`` drives it from an
        executor task every ``config.interval_s``.  A failed resize is
        logged and counted (``errors``), never raised: the control loop
        must outlive one bad spawn.
        """
        now = self._clock() if now is None else now
        verdict = self.evaluate(now)
        if verdict.action == "up":
            self._resize(verdict, now)
        elif verdict.action == "down":
            self._resize(verdict, now)
        else:
            with self._lock:
                self.holds += 1
                if verdict.reason == "cold-window":
                    self.nan_holds += 1
        if verdict.reason == "idle":
            self._idle_handled = True  # once per idle spell
        self._record(verdict, now)
        return verdict

    def _resize(self, verdict: Decision, now: float) -> None:
        try:
            self.group.scale_to(verdict.target)
        except Exception as exc:  # noqa: BLE001 - loop must survive a bad spawn
            with self._lock:
                self.errors += 1
            _obs_logger().warning(
                "autoscale.resize_failed",
                model=self.model,
                target=verdict.target,
                error=str(exc),
                fleet=len(self.group),
            )
        else:
            with self._lock:
                if verdict.action == "up":
                    self.scale_ups += 1
                else:
                    self.scale_downs += 1
            _obs_logger().info(
                "autoscale.scaled",
                model=self.model,
                action=verdict.action,
                target=verdict.target,
                reason=verdict.reason,
                p99_ms=verdict.p99_ms,
                in_flight=verdict.in_flight,
            )
        # Cooldowns and the freshness gate restart even on failure: an
        # immediate retry of a failing spawn is exactly the crash-loop
        # shape the replica-level restart backoff exists to prevent.
        if verdict.action == "up":
            self._last_up_at = now
        else:
            self._last_down_at = now
        self._completed_at_action = int(self.stats.as_dict()["completed"])

    def _record(self, verdict: Decision, now: float) -> None:
        with self._lock:
            previous = self._last_decision
            self._last_decision = verdict
            # Actions always enter the history; holds only when the
            # *reason* changes, so the bounded log reads as a sequence of
            # state transitions rather than one repeated line per tick.
            if verdict.action == "hold" and previous is not None and previous.reason == verdict.reason:
                return
            self._decisions.append({"t": now, **verdict.as_dict()})

    # ------------------------------------------------------------------ #
    # Telemetry
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """JSON-friendly state: config, counters, decision history.

        This is what ``InferenceServer.stats()`` attaches as
        ``BatcherStats.autoscaler`` and the gateway serves under
        ``GET /v1/stats`` -- finite numbers or ``None`` only, never NaN.
        """
        with self._lock:
            last = self._last_decision
            return {
                "model": self.model,
                "fleet": len(self.group),
                "alive": int(self.group.alive_count()),
                "in_flight": int(self.group.total_in_flight()),
                "scale_ups": self.scale_ups,
                "scale_downs": self.scale_downs,
                "holds": self.holds,
                "nan_holds": self.nan_holds,
                "errors": self.errors,
                "last_decision": last.as_dict() if last is not None else None,
                "decisions": list(self._decisions),
                "config": asdict(self.config),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Autoscaler(model={self.model!r}, fleet={len(self.group)}, "
            f"ups={self.scale_ups}, downs={self.scale_downs})"
        )
