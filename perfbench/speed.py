"""Host-speed sampling that puts the benchmark's times on one scale.

The benchmark's host is a small VM on a shared machine.  Its speed changes
by up to ~1.8x from one second to the next, as the load of its neighbours
comes and goes.  So while a worker runs, a wall-clock timer interrupts it
every INTERVAL_S and runs a probe: a fixed pure-Python kernel of the
operations grouplie spends its time on (small-int polynomial products with
reduction, Fraction arithmetic, tuple hashing), under a millisecond long.
The probe's speed, REFERENCE_S over its duration, samples the host's speed.

A timed interval is rescaled to the reference host speed: its time, less
the time spent in the probes it contains, times the mean speed of those
probes.  This is the time it would take on a host where the probe always
takes REFERENCE_S.  The probe does not touch grouplie, so a change to
grouplie moves the rescaled times as it moves the raw ones.

Never change the kernel, REFERENCE_S or INTERVAL_S: each changes every
rescaled time.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left
from fractions import Fraction

# About the probe's duration on the 2-CPU Xeon VM at its faster speed, in
# seconds; it only sets the scale of the rescaled times.
REFERENCE_S = 0.0006
INTERVAL_S = 0.025
# A single probe reads within ~10 % of its neighbours, so an interval's speed
# is taken from the probes of at least this much time around it.  Wider
# windows blur the speed of a short unit: on suite-small's ~10 ms units the
# spread of their median between passes grew from 5 % at 0.1 s to 9 % at 1 s.
SPEED_WINDOW_S = 0.1

_DEGREE = 16
_A = tuple((7 * i) % 5 - 2 for i in range(_DEGREE))
_B = tuple((3 * i) % 7 - 3 for i in range(_DEGREE))
_TOP = tuple((-1) ** i * (i % 3) for i in range(_DEGREE))
_ROUNDS = 16


def _kernel() -> int:
    d = _DEGREE
    seen: dict[tuple, int] = {}
    q = Fraction(0)
    for r in range(_ROUNDS):
        s = r % d
        acc = [0] * (2 * d - 1)
        for i, ai in enumerate(_A[s:] + _A[:s]):
            if ai:
                for j, bj in enumerate(_B):
                    if bj:
                        acc[i + j] += ai * bj
        out = acc[:d]
        for k in range(d, 2 * d - 1):
            ck = acc[k]
            if ck:
                for i, t in enumerate(_TOP):
                    if t:
                        out[i] += ck * t
        key = tuple(out)
        seen[key] = seen.get(key, 0) + 1
        q += Fraction(out[r % d] + 1, r + 3)
    return len(seen) + q.denominator % 7


class SpeedSampler:
    """Probes the host's speed every INTERVAL_S of wall time (SIGALRM).

    A sample is the wall start, wall seconds and CPU seconds of one probe.
    The probes run inside whatever the process is doing, so an interval's
    time includes them; `rescale` takes them out again.
    """

    def __init__(self):
        self.start_s: list[float] = []
        self.wall_s: list[float] = []
        self.cpu_s: list[float] = []
        self._previous = None

    def _sample(self, *_):
        w0, c0 = time.perf_counter(), time.process_time()
        _kernel()
        self.start_s.append(w0)
        self.wall_s.append(time.perf_counter() - w0)
        self.cpu_s.append(time.process_time() - c0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def window(self, t0: float, t1: float) -> tuple[float, float, float, float]:
        """(probe wall s, probe CPU s, wall speed, CPU speed) from t0 to t1.

        The probe times sum the probes that started inside the window; the
        speeds are their mean speeds.  A window without a probe takes the
        speed of the last probe before it and has no probe time.
        """
        first = bisect_left(self.start_s, t0)
        last = bisect_left(self.start_s, t1)
        if last == first:
            i = max(last - 1, 0)
            return (0.0, 0.0, REFERENCE_S / self.wall_s[i],
                    REFERENCE_S / max(self.cpu_s[i], 1e-9))
        walls, cpus = self.wall_s[first:last], self.cpu_s[first:last]
        return (sum(walls), sum(cpus),
                sum(REFERENCE_S / w for w in walls) / len(walls),
                sum(REFERENCE_S / max(c, 1e-9) for c in cpus) / len(cpus))

    def rescale(self, t0: float, t1: float, wall: float, cpu: float) -> tuple[float, float]:
        """(wall, cpu) of the interval from t0 to t1 at the reference speed.

        wall and cpu are the interval's raw times.  The probes inside it are
        taken out, and the rest is multiplied by the mean speed of the
        probes in the interval widened to SPEED_WINDOW_S around its middle,
        so rescale an interval only once the sampler has run past it.
        """
        probe_wall, probe_cpu, _, _ = self.window(t0, t1)
        half = max(t1 - t0, SPEED_WINDOW_S) / 2
        mid = (t0 + t1) / 2
        _, _, speed_wall, speed_cpu = self.window(mid - half, mid + half)
        return (wall - probe_wall) * speed_wall, (cpu - probe_cpu) * speed_cpu
