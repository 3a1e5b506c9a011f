"""Machine speed, measured with fixed work that uses nothing from qbsc.

The benchmark runs on a share of a host whose speed drifts for every process
alike: the same pure-Python loop takes 1.0x to 1.7x its fastest time, in
states that last from seconds to minutes, and process CPU time drifts with
wall time (so it is not time lost to other processes). Over the length of a
run that moves every timing by tens of percent.

``reference_work`` is a fixed mix of the kinds of work the workloads do:
an interpreter loop over tuples and lists, compiling and executing source,
building and sorting containers and strings, and small numpy kernels with
per-call ``default_rng`` set-up. ``Speed`` times it every ``EVERY_S`` seconds
between ops. A timed interval's factor is ``REFERENCE_S`` over the mean
reference time within ``WINDOW_S`` of it; a time multiplied by it is the time
the machine would have taken at the speed it had when the benchmark was
defined (the reference taking ``REFERENCE_S``). Each op gets its own factor
because a run often spends part of its time in a fast state and part in a
slow one: one factor per run corrects means but not the percentiles of such
a mix. Over eight minutes of drift on a 2-vCPU Xeon VM, 40-second windows of
work like each workload's spread by 0.34-0.43 of their median (quartile
distance) unscaled and by 0.015-0.025 scaled; over five runs each, per-op
factors cut the p50/p90 spreads of ``wide`` from 0.10/0.14 with one factor
per run to 0.05/0.07, and of ``sample`` from 0.06/0.11 to 0.04/0.08. The code
here uses nothing from qbsc, so a change to qbsc moves scaled times as much
as raw ones.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Mean reference time on the 2-vCPU Xeon VM the benchmark was defined on.
REFERENCE_S = 0.009
EVERY_S = 0.25
WINDOW_S = 0.5

_SOURCE = "\n".join(
    f"def f{i}(a, b=2):\n    x = [a, b, {i}]\n    return {{'k': x, 's': str(a) + 'q{i}'}}\n"
    f"class C{i}:\n    y = {i}\n"
    for i in range(24))


def _interpret() -> int:
    table = list(range(64))
    acc = 0
    for i in range(10000):
        bits = (i & 63, (i >> 3) & 63, i & 1)
        if table[bits[0]] ^ (table[bits[1]] & bits[2]):
            acc += 1
    return acc


def _compile() -> int:
    namespace: dict = {}
    exec(compile(_SOURCE, "<reference>", "exec"), namespace)
    return len(namespace)


def _containers() -> int:
    rows = [(i, str(i), (i * 7) % 13) for i in range(1500)]
    index = {s: (a, c) for a, s, c in rows}
    rows.sort(key=lambda r: (r[2], r[1]))
    return len(index) + len(",".join(r[1] for r in rows).split(","))


def _numpy() -> float:
    state = np.zeros(1 << 10, complex)
    state[0] = 1
    total = 0.0
    for k in range(8):
        total += np.random.default_rng([7, k]).random()
        view = state.reshape(2, -1)
        view[[0, 1]] = view[[1, 0]]
    return total


def reference_work() -> None:
    """About equal parts of the four kinds of work, ~9 ms in all."""
    _interpret()
    _compile()
    _containers()
    _numpy()


class Speed:
    """Reference timings taken through one phase of a run, and the factors
    they give to the intervals timed in it."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (wall time at end, seconds)
        self._last = -float("inf")

    def probe(self):
        t0 = time.thread_time()           # the clock ops are timed with
        reference_work()
        seconds = time.thread_time() - t0
        self._last = time.perf_counter()
        self.samples.append((self._last, seconds))

    def maybe_probe(self):
        """Probe if ``EVERY_S`` wall seconds have passed since the last one."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.probe()

    def mean_s(self) -> float:
        return statistics.fmean(s for _, s in self.samples)

    def factor(self, start: float, end: float) -> float:
        """The factor for an interval timed between wall times ``start`` and
        ``end``: from the probes within ``WINDOW_S`` of it, or from all."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_S / (statistics.fmean(near) if near else self.mean_s())
