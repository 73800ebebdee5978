"""Open-loop load generation against ``BrookService.submit``.

One generator thread (the caller's) submits requests on a fixed schedule
whether or not earlier ones completed, as independent cameras would.
Each request's latency is timed from its *due* time, so a generator or
service stall is charged to every request it delays.  The generator's own
lag and the backlog over time are recorded; a rate whose backlog keeps
growing is not sustained, whatever its percentiles say.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

#: Time from the step's first due time to the earliest send, so the
#: schedule never starts late because of the set-up of the step itself.
START_DELAY_S = 0.02


@dataclass
class RateStep:
    """Outcome of one fixed-rate step of the open loop."""

    rate: float
    due: np.ndarray
    sent: np.ndarray
    #: Seconds from due time to completion (NaN for a failed request).
    latency_s: np.ndarray
    responses: List[object] = field(repr=False)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.due)

    def latency_ms(self, q: float) -> float:
        """Percentile ``q`` of latency from due time; a failure counts as late."""
        values = np.where(np.isnan(self.latency_s), np.inf, self.latency_s)
        return float(np.percentile(values, q, method="linear")) * 1e3

    @property
    def lag_ms(self) -> np.ndarray:
        return (self.sent - self.due) * 1e3

    def backlog(self) -> np.ndarray:
        """Requests sent but not completed, sampled at every send."""
        done = self.due + np.where(np.isnan(self.latency_s), np.inf,
                                   self.latency_s)
        completed = np.searchsorted(np.sort(done), self.sent, side="right")
        return np.arange(1, len(self.sent) + 1) - completed

    def backlog_grows(self) -> bool:
        """Whether the backlog of the last third exceeds the first third's.

        A stable queue fluctuates around a level; a rate above capacity
        adds ``rate - capacity`` requests per second, so its backlog late
        in the step sits well above the backlog early in the step.
        """
        backlog = self.backlog()
        third = max(1, len(backlog) // 3)
        early = float(np.median(backlog[:third]))
        late = float(np.median(backlog[-third:]))
        return late > 2.0 * early + 4.0

    def achieved_rps(self) -> float:
        done = self.due + self.latency_s
        span = np.nanmax(done) - self.due[0]
        return float(np.sum(~np.isnan(self.latency_s)) / span)



def run_rate(submit: Callable[[int], object], rate: float, seconds: float,
             clock: Callable[[], float] = time.perf_counter,
             sleep: Callable[[float], None] = time.sleep) -> RateStep:
    """Send ``rate`` requests per second for ``seconds``; wait for all.

    ``submit(i)`` sends request ``i`` and returns its future, whose
    ``result()`` is a ``ServiceResponse`` (``latency_s`` is measured by
    the service from the moment ``submit`` accepted it).
    """
    count = max(1, int(round(rate * seconds)))
    start = clock() + START_DELAY_S
    due = start + np.arange(count, dtype=np.float64) / rate
    sent = np.empty(count)
    futures = []
    for index in range(count):
        delay = due[index] - clock()
        if delay > 0:
            sleep(delay)
        sent[index] = clock()
        futures.append(submit(index))
    latency = np.full(count, np.nan)
    responses: List[object] = []
    failed = 0
    for index, future in enumerate(futures):
        try:
            response = future.result(timeout=60.0)
        except Exception:  # noqa: BLE001 - a failed request is counted
            failed += 1
            responses.append(None)
            continue
        responses.append(response)
        latency[index] = sent[index] - due[index] + response.latency_s
    return RateStep(rate, due, sent, latency, responses, failed)


def median_latency_ms(blocks: List[RateStep], q: float) -> float:
    """Median over blocks of each block's latency percentile ``q``.

    Latency on a shared host comes in bursts that spoil a block now and
    then; the median over blocks spread across the run reports the
    rate's usual latency instead of whichever burst hit it.
    """
    return float(np.median([block.latency_ms(q) for block in blocks]))


def rate_meets(blocks: List[RateStep], limit_ms: float, q: float) -> bool:
    """No failure, median percentile within the limit, backlog not growing."""
    growing = sum(block.backlog_grows() for block in blocks)
    return (all(block.failed == 0 for block in blocks)
            and median_latency_ms(blocks, q) <= limit_ms
            and 2 * growing < len(blocks))


def sustained_rate(by_rate: Dict[float, List[RateStep]], limit_ms: float,
                   q: float) -> Optional[float]:
    """Highest rate meeting the limit, interpolated between ladder rates.

    Walks the ladder upwards to the first rate that misses the limit.
    Between the last passing rate and that one, the crossing of the limit
    is interpolated linearly in the median percentile, so the answer
    moves continuously with the service rather than in ladder steps.
    When the failing rate failed on errors or backlog rather than
    latency, or no rate fails, the last passing rate's achieved
    completion rate stands.  ``None`` when even the lowest rate fails.
    """
    best = None
    for rate in sorted(by_rate):
        if not rate_meets(by_rate[rate], limit_ms, q):
            break
        best = rate
    else:
        rate = None
    if best is None:
        return None
    achieved = float(np.median([b.achieved_rps() for b in by_rate[best]]))
    if rate is None:
        return achieved
    low_ms = median_latency_ms(by_rate[best], q)
    high_ms = median_latency_ms(by_rate[rate], q)
    if not np.isfinite(high_ms) or high_ms <= limit_ms:
        return achieved
    share = (limit_ms - low_ms) / (high_ms - low_ms)
    return float(best + share * (rate - best))
