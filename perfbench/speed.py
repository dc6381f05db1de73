"""Host-speed normalization of measured times.

On a shared host the interpreter's speed drifts: a fixed loop runs up to
twice as long in one second as in the next, with plateaus of seconds to
minutes. Raw op times carry that drift, so a run cannot be compared with
another run made a few minutes later.

While a ``Speed`` sampler is active, SIGALRM runs a fixed reference loop
every SAMPLE_EVERY_S seconds in the benchmark's own thread. ``timed``
returns an op's net seconds (its time minus the time the sampler took
inside it) and its normalized seconds. Each sample stands for a slice of
the op that ran at REFERENCE_S over the sample's time of the reference
speed, so the normalized seconds are the net seconds times the mean of
REFERENCE_S / sample over the samples taken during the op. An op too
short to hold a sample uses the last three samples before it.
REFERENCE_S is the reference loop's 1st-percentile time on the
reference host, so normalized seconds read as seconds on that host when
its core is not shared.
"""

from __future__ import annotations

import signal
from time import perf_counter

REFERENCE_S = 140e-6
SAMPLE_EVERY_S = 0.01


MAX_SAMPLES = 1 << 16  # 11 minutes of samples


def reference_loop(acc: dict) -> int:
    """Fixed interpreter work like the program's: tuples, dicts, int bits.
    ``acc`` must already hold every key the loop builds."""
    for i in range(400):
        key = (i & 7, (i >> 1) & 7, -1, 3)
        acc[key] += (i ^ (i << 1)).bit_length()
    return len(acc)


class Speed:
    def __init__(self):
        # The sampler fires at random moments. Growing a list or a dict
        # there would move the C heap's layout, and with it the program's
        # peak RSS, from run to run; so the buffer is allocated up front
        # and the loop's dict has fixed keys.
        self.samples = [0.0] * MAX_SAMPLES  # seconds per reference loop
        self._acc = dict.fromkeys({(i & 7, (i >> 1) & 7, -1, 3) for i in range(400)}, 0)
        self.count = 0
        self.stolen = 0.0  # seconds spent in the sampler
        self._old = None

    def _tick(self, *_):
        t0 = perf_counter()
        reference_loop(self._acc)
        t1 = perf_counter()
        if self.count < MAX_SAMPLES:
            self.samples[self.count] = t1 - t0
            self.count += 1
        self.stolen += perf_counter() - t0

    def __enter__(self) -> "Speed":
        self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def recorded(self) -> list[float]:
        return self.samples[: self.count]

    def timed(self, fn):
        """(fn's result, net seconds, normalized seconds)."""
        seen, stolen = self.count, self.stolen
        t0 = perf_counter()
        out = fn()
        net = perf_counter() - t0 - (self.stolen - stolen)
        end = self.count
        lo = seen if end > seen else max(0, end - 3)
        speed = sum(REFERENCE_S / self.samples[i] for i in range(lo, end)) / (end - lo)
        return out, net, net * speed
