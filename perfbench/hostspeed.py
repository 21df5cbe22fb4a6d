"""Rescaling of measured times to a reference host speed.

On a shared host, other tenants slow this CPU by up to a factor of two, in
episodes of seconds to minutes, and every wall time moves with them. The
program's own CPU time moves the same way, so it is no remedy. A fixed probe
of small-array numpy calls and Python float arithmetic, which runs no figwasp
code, is timed in CPU time before, during and after each measured interval.
During an optimisation run it runs every few generations through the
engine's ``on_generation`` hook; during a study, whose runs execute in pool
workers, it runs from a background thread. The interval, less the probes
the measured thread ran itself, is scaled by the reference probe time over
the mean of the probes. On a shared 2-vCPU Intel Xeon host this cut the
spread of task medians between 20-second runs several-fold.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import threading
import time

import numpy as np

PROBE_ITERATIONS = 300
# Seconds per probe iteration that define the reference speed: about what an
# idle 2-vCPU Intel Xeon host takes.
REFERENCE_S_PER_ITERATION = 7e-6
# Generations between probes inside an optimisation run.
PROBE_EVERY = 20
# Seconds between probes of the background thread.
SAMPLING_PERIOD_S = 0.1


class HostSpeed:
    def __init__(self):
        self._x = np.random.Generator(np.random.Philox(0)).random(30)
        self.history: list[float] = []
        self._samples: list[float] = []
        self._spent = 0.0
        self._generation = 0
        self._probe()  # warm-up

    def _probe(self, inline: bool = True) -> float:
        """CPU seconds per probe iteration.

        An ``inline`` probe runs in the measured thread, so its wall time is
        left out of the interval.
        """
        rng = np.random.Generator(np.random.Philox(1))
        x, acc = self._x, 0.0
        wall, cpu = time.perf_counter(), time.thread_time()
        for i in range(PROBE_ITERATIONS):
            y = np.clip(x * 1.5 - 0.2, 0.0, 1.0)
            acc += float(np.sum(y * y)) + rng.random() * 0.5 - (i % 7) ** 2 / 49.0
        cpu = time.thread_time() - cpu
        if inline:
            self._spent += time.perf_counter() - wall
        return cpu / PROBE_ITERATIONS

    def begin(self) -> None:
        """Probe, as the start of an interval to be measured."""
        self._samples = [self._probe()]
        self._spent = 0.0
        self._generation = 0

    def sample(self) -> None:
        """Probe inside the interval being measured."""
        self._samples.append(self._probe())

    def tick(self, _snapshot=None) -> None:
        """``on_generation`` hook: probe every ``PROBE_EVERY`` generations."""
        self._generation += 1
        if self._generation % PROBE_EVERY == 0:
            self.sample()

    @contextlib.contextmanager
    def sampling(self):
        """Probe from a background thread while the block runs.

        The work runs in other processes on any CPU, so the thread probes
        each CPU it may run on in turn.
        """
        stop = threading.Event()
        cpus = sorted(os.sched_getaffinity(0))

        def loop():
            turn = 0
            while not stop.wait(SAMPLING_PERIOD_S):
                os.sched_setaffinity(0, {cpus[turn % len(cpus)]})  # this thread only
                self._samples.append(self._probe(inline=False))
                turn += 1

        thread = threading.Thread(target=loop, name="host-speed-probe")
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def end(self, elapsed: float) -> tuple[float, float]:
        """(net, scaled) for an interval of wall time ``elapsed`` that ended just now.

        ``net`` leaves out the inline probes taken inside the interval;
        ``scaled`` is ``net`` at the reference speed.
        """
        net = elapsed - self._spent
        self._samples.append(self._probe())
        speed = statistics.fmean(self._samples)
        self.history.append(speed)
        return net, net * REFERENCE_S_PER_ITERATION / speed
