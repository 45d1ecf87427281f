"""Host-speed probes, for times that compare across runs.

The benchmark host is a share of a busy machine.  Its speed drifts by up
to 2x over seconds to minutes, in CPU time as much as in wall time, so no
raw timing of one run compares with another.  A probe is a fixed piece of
interpreter work of the kind omegacalc does most (bitmask arithmetic,
small frozensets, dict stores), about 5 ms on an idle 2.1 GHz Xeon.

While a pass runs, ``Sampler`` fires a probe every ``PERIOD_S`` from a
SIGALRM handler in the measured process itself, so the probes share the
core and the moment of the work they calibrate; the parent adds a few
probes right before and after each pass.  A time measured over
``[start, end]`` is then converted to *reference seconds*: multiplied by
the mean of ``PROBE_REF_S / d`` over the probes that ran from one period
before ``start`` to one period after ``end`` (``d`` is a probe's own
time).  The time spent in probes is subtracted from every measurement
first.  Start-up (from spawn to the end of the imports) is scaled by the
square root of that factor only; see STARTUP_EXPONENT.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_REF_S = 0.005  # a probe counts as this many reference seconds
PERIOD_S = 0.1
# Interpreter start-up and imports (exec, dynamic loading, page faults)
# slow down far less than the probe.  In two sets of ~230 start-ups of the
# auto-n16 child, their time grew as the 0.53 and the 0.42 power of the
# probe's time: when the probe took 2x longer, start-up took ~1.4x longer,
# and full scaling would have reported it ~28% shorter.  Start-up is
# scaled by this power of the probe factor.
STARTUP_EXPONENT = 0.5


def probe() -> float:
    """Seconds taken by one probe."""
    start = time.perf_counter()
    seen = {}
    for i in range(3_000):
        mask = (i * 2654435761) & 0xFFFF
        seen[mask & 0xFFF] = len(frozenset(j for j in range(6) if mask >> j & 1)) + bin(mask).count("1")
    return time.perf_counter() - start


def probes(count: int) -> list[list[float]]:
    """``count`` probes in a row, in the form of ``Sampler.samples``."""
    out = []
    for _ in range(count):
        began = time.monotonic()
        seconds = probe()
        out.append([began, seconds, seconds])
    return out


class Sampler:
    """Probes the host's speed every PERIOD_S while the process runs."""

    def __init__(self) -> None:
        # [monotonic start, probe seconds, handler seconds] per probe
        self.samples: list[list[float]] = []
        self.running = False

    def start(self) -> None:
        self.running = True
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> None:
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _fire(self, signum, frame) -> None:
        if not self.running:
            return
        began = time.monotonic()
        seconds = probe()
        # re-armed one-shot, so a handler never runs inside another
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        self.samples.append([began, seconds, time.monotonic() - began])


def reference_seconds(
    samples: list[list[float]], start: float, end: float, exponent: float = 1.0
) -> float:
    """The time from ``start`` to ``end``, less the probes run in it, in
    reference seconds: times the probe factor raised to ``exponent``."""
    net = end - start - sum(h for t, _, h in samples if start <= t <= end)
    window = [d for t, d, _ in samples if start - PERIOD_S <= t <= end + PERIOD_S]
    if not window:  # only when the samples miss the window: take the nearest
        window = [min(samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]]
    return net * statistics.mean(PROBE_REF_S / d for d in window) ** exponent
