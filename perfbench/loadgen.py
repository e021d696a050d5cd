"""Open-loop Poisson load at fixed absolute rates, and the rung search.

One single-threaded asyncio loop issues every request at its scheduled
instant, whether or not earlier answers are back, and times each
request from that scheduled instant: a stall in the server (or in the
generator itself) shows up in the latency of every request it delays.
How late the generator actually sent is recorded separately as lag.

Rates come from a fixed geometric ladder (:data:`LADDER_RPS`), never
from a capacity measured in the same run, so ``sustained_rps`` means
the same thing on every commit.  :func:`sustained_rate` is the rung
rule: the highest probed rung that meets the latency limit, below the
lowest probed rung that does not.

:func:`run_closed` is the saturation mode: ``window`` callers that each
send their next request as soon as the previous one is answered, as a
client with ``window`` busy connections.  Its rate is reported as the
median over short stretches of answers (:meth:`ClosedResult.median_rate`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Sequence

import numpy as np

from common import percentile

#: Latency limit on the p99 of answered requests at a rung, ms.
P99_LIMIT_MS = 40.0
#: Share of sent requests that must be answered correctly at a rung.
MIN_ANSWERED = 0.999
#: Ratio between neighbouring rungs: ``sustained_rps`` moves in 6% steps.
RUNG_RATIO = 1.06
#: The fixed absolute rate ladder, requests per second: 25 to 782 rps.
LADDER_RPS = tuple(round(25.0 * RUNG_RATIO**k, 1) for k in range(60))
#: Reference rung for the open-loop latency figures (50.3 rps).
REFERENCE_RPS = LADDER_RPS[12]
#: A generator later than this (p99) at the reference rung invalidates the measurement.
MAX_REFERENCE_LAG_MS = 10.0
#: How long a rung's stragglers may take to answer once sending stops.
DRAIN_TIMEOUT_S = 10.0
#: Answers per stretch in the closed loop's median answer rate.
STRETCH = 32

#: ``call(index)`` sends request ``index`` and returns ``True`` when the
#: answer was correct, ``False`` when it was wrong; raising counts as failed.
CallFn = Callable[[int], Awaitable[bool]]


def poisson_offsets(rate: float, duration_s: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets (seconds from rung start) of a Poisson process."""
    if rate <= 0 or duration_s <= 0:
        return np.empty(0)
    expected = int(rate * duration_s * 1.5) + 16
    gaps = rng.exponential(1.0 / rate, size=expected)
    offsets = np.cumsum(gaps)
    while offsets[-1] < duration_s:  # pragma: no cover - 1.5x headroom practically never runs out
        more = np.cumsum(rng.exponential(1.0 / rate, size=expected)) + offsets[-1]
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration_s]


@dataclass
class RungResult:
    """Outcome of one open-loop run at one rate."""

    rate: float
    sent: int
    answered: int
    failed: int
    latencies_ms: np.ndarray
    lag_ms: np.ndarray
    #: Latency of the last third of answers over that of the first third.
    growth: float = 1.0
    errors: Dict[str, int] = field(default_factory=dict)

    @property
    def p50_ms(self) -> float:
        return percentile(self.latencies_ms, 50.0)

    @property
    def p99_ms(self) -> float:
        return percentile(self.latencies_ms, 99.0)

    @property
    def backlog_growing(self) -> bool:
        """Latency still climbing at the end of the rung: the queue grows."""
        return self.growth > 2.0 and self.p99_ms > 10.0

    def passes(self) -> bool:
        if self.sent == 0:
            return False
        return self.answered / self.sent >= MIN_ANSWERED and self.p99_ms <= P99_LIMIT_MS and not self.backlog_growing


def _growth(latencies_ms: Sequence[float]) -> float:
    n = len(latencies_ms) // 3
    if n < 5:
        return 1.0
    first = float(np.median(latencies_ms[:n]))
    last = float(np.median(latencies_ms[-n:]))
    return last / first if first > 0 else 1.0


async def run_rung(
    call: CallFn,
    rate: float,
    duration_s: float,
    rng: np.random.Generator,
    *,
    first_index: int = 0,
) -> RungResult:
    """Send a Poisson stream at ``rate`` for ``duration_s`` and collect outcomes."""
    loop = asyncio.get_running_loop()
    offsets = poisson_offsets(rate, duration_s, rng)
    latencies: List[float] = []
    order: List[float] = []
    lag: List[float] = []
    errors: Dict[str, int] = {}
    failed = 0

    async def one(index: int, due: float) -> None:
        nonlocal failed
        try:
            ok = await call(index)
        except Exception as exc:  # noqa: BLE001 - every failure kind is counted
            name = type(exc).__name__
            errors[name] = errors.get(name, 0) + 1
            failed += 1
            return
        if not ok:
            errors["wrong_answer"] = errors.get("wrong_answer", 0) + 1
            failed += 1
            return
        latencies.append((loop.time() - due) * 1000.0)
        order.append(due)

    tasks: List[asyncio.Task] = []
    start = loop.time() + 0.005
    for i, offset in enumerate(offsets):
        due = start + float(offset)
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lag.append(max(0.0, (loop.time() - due) * 1000.0))
        tasks.append(loop.create_task(one(first_index + i, due)))
    if tasks:
        done, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
            errors["drain_timeout"] = len(pending)
            failed += len(pending)
    ranked = [lat for _, lat in sorted(zip(order, latencies))]
    return RungResult(
        rate=rate,
        sent=len(offsets),
        answered=len(latencies),
        failed=failed,
        latencies_ms=np.asarray(latencies, dtype=float),
        lag_ms=np.asarray(lag, dtype=float),
        growth=_growth(ranked),
        errors=errors,
    )


def sustained_rate(results: Sequence[RungResult]) -> float:
    """Highest passing probed rate below the lowest failing probed rate.

    Probes need not be contiguous or sorted; rates with no passing probe
    beneath the first failure give ``0.0``.
    """
    best = 0.0
    for result in sorted(results, key=lambda r: r.rate):
        if not result.passes():
            break
        best = result.rate
    return best


def next_probe(ladder: Sequence[float], results: Sequence[RungResult], start_index: int) -> Optional[int]:
    """Ladder index to probe next in a bisection for the sustained rung.

    ``results`` are the probes so far.  Returns ``None`` once the
    highest passing rung and the lowest failing rung are neighbours (or
    the ladder's end is reached), i.e. when :func:`sustained_rate` is
    settled.
    """
    if not results:
        return start_index
    index = {rate: i for i, rate in enumerate(ladder)}
    hi = min((index[r.rate] for r in results if not r.passes()), default=len(ladder))
    # Passes above a failure are ignored, as in sustained_rate.
    lo = max((index[r.rate] for r in results if r.passes() and index[r.rate] < hi), default=-1)
    if hi - lo <= 1:
        return None
    return (lo + hi) // 2


@dataclass
class LadderRun:
    """The probes of one rung search plus the settled rate."""

    probes: List[RungResult]
    sustained_rps: float


async def search_ladder(
    call: CallFn,
    rng: np.random.Generator,
    *,
    budget_s: float,
    probe_s: float,
    probes: Sequence[RungResult] = (),
    first_index: int = 0,
) -> LadderRun:
    """Bisect the fixed ladder for the highest rung that meets the limit.

    ``probes`` are rungs already measured (the reference rung), which
    the bisection starts from.
    """
    ladder = LADDER_RPS
    start_index = ladder.index(REFERENCE_RPS)
    probes = list(probes)
    deadline = time.monotonic() + budget_s
    sent = first_index
    while time.monotonic() + probe_s <= deadline + 1e-9:
        index = next_probe(ladder, probes, start_index)
        if index is None:
            break
        result = await run_rung(call, ladder[index], probe_s, rng, first_index=sent)
        sent += result.sent
        probes.append(result)
        await asyncio.sleep(0.2)  # let a failed rung's queue empty before the next
    return LadderRun(probes=probes, sustained_rps=sustained_rate(probes))


@dataclass
class ClosedResult:
    """Outcome of a closed-loop saturation run."""

    window: int
    elapsed_s: float
    sent: int
    failed: int
    latencies_ms: np.ndarray
    #: When each correct answer arrived, seconds from the start, in arrival order.
    answered_at_s: np.ndarray
    errors: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Correct answers per second over the whole run."""
        return len(self.latencies_ms) / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def median_rate(self, stretch: int = STRETCH) -> float:
        """Median answer rate over back-to-back stretches of ``stretch`` answers.

        A stall on the shared host empties the stretches it falls in and
        no others, so this moves with the program's speed, not with how
        many stalls a run happened to catch (which the mean rate does).
        """
        times = self.answered_at_s
        if len(times) <= stretch:
            return self.throughput
        ends = np.arange(stretch, len(times), stretch)
        spans = times[ends] - times[ends - stretch]
        return float(np.median(stretch / np.maximum(spans, 1e-9)))


async def run_closed(call: CallFn, window: int, duration_s: float, *, first_index: int = 0) -> ClosedResult:
    """Keep ``window`` requests outstanding, back to back, for ``duration_s``."""
    loop = asyncio.get_running_loop()
    latencies: List[float] = []
    answered_at: List[float] = []
    errors: Dict[str, int] = {}
    counter = iter(range(first_index, first_index + 10**9))
    sent = failed = 0
    start = loop.time()
    stop_at = start + duration_s

    async def caller() -> None:
        nonlocal sent, failed
        while loop.time() < stop_at:
            index = next(counter)
            sent += 1
            began = loop.time()
            try:
                ok = await call(index)
            except Exception as exc:  # noqa: BLE001 - every failure kind is counted
                errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
                failed += 1
                continue
            if ok:
                now = loop.time()
                latencies.append((now - began) * 1000.0)
                answered_at.append(now - start)
            else:
                errors["wrong_answer"] = errors.get("wrong_answer", 0) + 1
                failed += 1

    await asyncio.gather(*(caller() for _ in range(window)))
    return ClosedResult(
        window=window,
        elapsed_s=loop.time() - start,
        sent=sent,
        failed=failed,
        latencies_ms=np.asarray(latencies, dtype=float),
        answered_at_s=np.asarray(answered_at, dtype=float),
        errors=errors,
    )
