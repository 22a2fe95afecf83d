"""Calibrated timing: a speed sampler, timed items, and pass records.

The host's speed changes by tens of percent, often several times a second
(within one run, the calibration probe below takes anywhere from about 0.4
to 0.9 ms on the reference machine), so raw wall time of the same work does
not repeat.
While a pass runs, a SIGALRM timer runs a tiny fixed probe every
SAMPLE_INTERVAL_S; the probe calls no ladderkit code.  Each timed item is
reported in calibrated seconds,

    calibrated = raw * mean(PROBE_REF_S / d  for the probe samples d
                            taken during the item, or the nearest ones),

i.e. the raw time scaled by the host's mean speed during the item relative
to the reference duration PROBE_REF_S fixed in reference.json.  Raw times
exclude the time spent in the sampler.  Raw seconds and probe samples are
kept next to the calibrated values, so the calibration hides nothing.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
PROBE_REF_S = REFERENCE["probe_ref_s"]

SAMPLE_INTERVAL_S = 0.05
MIN_SAMPLES = 5  # an item shorter than this many samples borrows its nearest ones

_P = 101
_PROBE_MATS = [(np.arange(36, dtype=np.int64).reshape(6, 6) * (k + 3) + k * k + np.eye(6, dtype=np.int64)) % _P for k in range(8)]


def probe_once() -> int:
    """Fixed work with the engine's cost profile, about half a millisecond:
    Gauss-Jordan steps on tiny int64 arrays mod p, a small einsum, and
    Fraction arithmetic."""
    acc = 0
    for k in range(6):
        m = _PROBE_MATS[k % 8].copy()
        for c in range(6):
            nz = np.nonzero(m[c:, c])[0]
            if nz.size == 0:
                continue
            r = c + int(nz[0])
            if r != c:
                m[[c, r]] = m[[r, c]]
            m[c] = m[c] * pow(int(m[c, c]), _P - 2, _P) % _P
            col = m[:, c].copy()
            col[c] = 0
            m = (m - np.outer(col, m[c])) % _P
        acc += int(np.einsum("ij,jk->ik", m, _PROBE_MATS[(k + 1) % 8]).sum())
    q = Fraction(0)
    for k in range(1, 20):
        q += Fraction(k, k + 1)
    return acc + q.numerator % 7


class Sampler:
    """Runs probe_once from a SIGALRM handler every SAMPLE_INTERVAL_S and
    keeps the start and end of every sample."""

    def __init__(self):
        self.starts: list = []
        self.ends: list = []
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        probe_once()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self._busy = False

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def durations(self, t0: float = float("-inf"), t1: float = float("inf")) -> list:
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return [self.ends[i] - self.starts[i] for i in range(lo, hi)]

    def busy_within(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent inside the sampler."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(max(0.0, min(self.ends[i], t1) - max(self.starts[i], t0)) for i in range(lo, hi))

    def factor(self, t0: float, t1: float) -> float:
        """Mean of PROBE_REF_S / d over the samples taken in [t0, t1], or
        over the MIN_SAMPLES samples nearest to it when it holds fewer."""
        n = len(self.starts)
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        while hi - lo < min(MIN_SAMPLES, n):
            if lo > 0 and (hi == n or t0 - self.starts[lo - 1] <= self.starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            return 1.0
        return statistics.fmean(PROBE_REF_S / (self.ends[i] - self.starts[i]) for i in range(lo, hi))


@dataclass
class Timing:
    """One timed item: the windows of its calls, calibrated on demand."""

    name: str
    sampler: Sampler
    windows: list = field(default_factory=list)  # (command, start, end)

    @property
    def start(self) -> float:
        return self.windows[0][1]

    @property
    def end(self) -> float:
        return self.windows[-1][2]

    @property
    def parts(self) -> dict:
        """Raw seconds per command, sampler time excluded."""
        out: dict = {}
        for command, t0, t1 in self.windows:
            out[command] = out.get(command, 0.0) + (t1 - t0) - self.sampler.busy_within(t0, t1)
        return out

    @property
    def raw_s(self) -> float:
        return sum(self.parts.values())

    @property
    def factor(self) -> float:
        return self.sampler.factor(self.start, self.end) if self.windows else 1.0

    @property
    def cal_s(self) -> float:
        return self.raw_s * self.factor

    def call(self, command: str, fn, *args, **kwargs):
        """Run fn and add its window to this item."""
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.windows.append((command, t0, time.perf_counter()))


class Clock:
    """Collects the timed items of a pass.

    on_item, if given, is called with each item's name as it starts (the
    traced pass uses it to tag spans with their workload input).
    """

    def __init__(self, sampler: Sampler, on_item=None):
        self.sampler = sampler
        self.on_item = on_item
        self.timings: list[Timing] = []

    @contextmanager
    def item(self, name: str):
        if self.on_item is not None:
            self.on_item(name)
        timing = Timing(name, self.sampler)
        try:
            yield timing
        finally:
            self.timings.append(timing)


@dataclass
class Checks:
    """Output checks of one pass; an exception counts as a failed check."""

    attempted: int = 0
    failed: list = field(default_factory=list)

    def check(self, label: str, ok: bool, detail=None):
        self.attempted += 1
        if not ok:
            self.failed.append({"check": label, "detail": detail})

    def error(self, label: str, exc: BaseException):
        self.attempted += 1
        self.failed.append({"check": label, "detail": f"{type(exc).__name__}: {exc}"})


@dataclass
class PassRecord:
    """Setup and item timings of one pass over a workload's inputs."""

    setup: Timing
    items: list
    checks: Checks
    output: object = None  # what the workload's run returned (the suite report)

    def command_s(self, command: str) -> float:
        return sum(t.parts.get(command, 0.0) * t.factor for t in self.items)

    @property
    def wall_s(self) -> float:
        return sum(t.cal_s for t in self.items)

    @property
    def raw_wall_s(self) -> float:
        return sum(t.raw_s for t in self.items)

    @property
    def max_item(self) -> Timing:
        return max(self.items, key=lambda t: t.cal_s)

    @property
    def probes(self) -> list:
        """Durations of the probe samples taken during the pass."""
        timings = [self.setup] + self.items
        start = min(t.start for t in timings if t.windows)
        end = max(t.end for t in timings if t.windows)
        return self.setup.sampler.durations(start, end)
