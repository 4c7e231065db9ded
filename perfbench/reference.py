"""Machine-speed references: fixed benchmark-owned kernels timed between pieces of measured work.

A shared machine's speed moves by up to half, flipping within seconds as
other tenants come and go; pure-Python code slows more than vectorised NumPy
code. A :class:`Meter` times a short fixed kernel often while a workload
runs (between rounds, between oracle values, between CLI jobs), on the core
the workload is pinned to, never inside a timed interval. The trimmed mean
of those samples is how much slower than nominal the machine ran during the
measurement, and the end-to-end timings are reported in reference seconds:
measured seconds divided by that slowdown. The kernels use no ``bctsim``
code, so a change to the package cannot move them.

There are two kernels because the two kinds of work slow down differently:
``numpy`` mirrors a sweep batch (draws, folds, selects and a sine over 250k
elements), ``python`` mirrors scalar rounds (slot lookups, 0-d NumPy
arithmetic, frozen records, JSON round trips).
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from bisect import bisect_right
from dataclasses import asdict, dataclass, replace
from enum import Enum

import numpy as np

#: the scale of a reference second: about what one kernel call takes on a quiet
#: 2-vCPU Intel Xeon KVM guest (Python 3.11, NumPy 2.4); comparisons between runs
#: use only the ratio, so the exact values do not matter
NOMINAL_S = {"numpy": 0.015, "python": 0.0035}
#: seconds of work between samples where the work can be interrupted
TICK_S = 0.1


def _numpy_kernel() -> None:
    rng = np.random.default_rng(12345)
    x = rng.uniform(0.0, 2 * math.pi, 250_000)
    y = np.mod(x - 1.0, 2 * math.pi)
    slot = np.where(y < 1.885, 0, np.where(y < 3.77, 1, 2))
    accept = 1.0 - 0.9424777960769379 * np.sin(np.minimum(y, 2 * math.pi - y))
    (rng.random(250_000) < accept)[slot == 1].sum()


class _Branch(str, Enum):
    SAME = "same-slot"
    CROSS = "cross-slot"


@dataclass(frozen=True)
class _Message:
    cell: int
    alpha: int
    beta: int
    gamma: int


@dataclass(frozen=True)
class _Record:
    a: float
    b: float
    theta: float
    message: _Message
    coin: float
    accept: float
    branch: str
    slot: int
    boundary: float
    u: float
    negated: bool


_BOUNDS = sorted(j * math.pi / 5 for j in range(10)) + [2 * math.pi]


def _python_kernel() -> None:
    """Thirty scalar "rounds": slot lookups, 0-d NumPy arithmetic, records and JSON."""
    for i in range(30):
        theta = (i * 0.0377) % 1.885
        a, b = (i * 0.731) % (2 * math.pi), (i * 1.913) % (2 * math.pi)
        cell = bisect_right(_BOUNDS, a) - 1
        z = np.mod(np.asarray(b, dtype=float) - np.asarray(theta, dtype=float), 2 * math.pi)
        slot = int(np.where(z < 1.885, 0, np.where(z < 3.77, 1, 2)).astype(np.int64))
        mine = np.broadcast_to(np.asarray(cell % 3, dtype=np.int64), z.shape)
        u = float(np.minimum(z, 2 * math.pi - z))
        accept = float(np.where(mine == slot, 1.0, np.clip(1.0 - 0.9424777960769379 * np.sin(u), 0.0, 1.0)))
        branch = _Branch.SAME if mine == slot else _Branch.CROSS
        record = _Record(a, b, theta, _Message(cell, cell, slot, (slot + 1) % 3), 0.5, accept,
                         branch.value, slot, float(z), u, False)
        record = replace(record, a=a + 1e-9)
        text = json.dumps(asdict(record))
        data = json.loads(text)
        data["message"] = _Message(**data["message"])
        _Record(**data)


KERNELS = {"numpy": _numpy_kernel, "python": _python_kernel}


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


class Meter:
    """Slowdown samples of one kernel, and the wall and CPU time spent taking them."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.kernel = KERNELS[kind]
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._last = time.perf_counter()

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            c0 = _cpu()
            t0 = time.perf_counter()
            self.kernel()
            self._last = time.perf_counter()
            self.samples.append((self._last - t0) / NOMINAL_S[self.kind])
            self.spent_s += self._last - t0
            self.spent_cpu_s += _cpu() - c0

    def tick(self) -> None:
        """Take a sample if ``TICK_S`` of work has passed since the last one."""
        if time.perf_counter() - self._last >= TICK_S:
            self.sample()

    def slowdown(self) -> float:
        """Mean slowdown over the samples, less the fifth above and below.

        Trimming drops the samples a preemption happened to land on; without
        it, runs spread about half as much again.
        """
        ordered = sorted(self.samples)
        cut = len(ordered) // 5
        return statistics.fmean(ordered[cut:len(ordered) - cut])
