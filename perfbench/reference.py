"""Frozen reference loop that tracks the machine's speed during a run.

On a shared host the same work can take 30% longer from one minute to
the next, and the speed swings within seconds. Several times a second
the benchmark times a short run of this loop, a frozen likeness of the
simulator's step at the time the benchmark was defined: dense flock
kernel, farthest-agent drive, a validated state object per step and CSV
rendering, at N = 20. Counting each operation's time in steps of this
loop, at the loop's speed measured during it, gives a figure that moves
when the program changes but not when the host slows down. The loop
must stay as it is: editing it rescales every later figure.
"""
from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

N = 20
STEPS = 1000
R_S = 20.0
K_SEP, K_ALI, K_COH, K_FLIGHT = 100.0, 0.5, 2.0, 500.0
K_ATT, K_REP, K_GOAL = 10.0, 1000.0, 4.5
EPS = 1e-9


def _velocities(pos: np.ndarray, prev: np.ndarray, dog: np.ndarray) -> np.ndarray:
    diff = pos[None, :, :] - pos[:, None, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    near = dist <= R_S
    np.fill_diagonal(near, False)
    denom = np.maximum(near.sum(axis=1), 1).astype(float)[:, None]
    clamped = np.maximum(dist, EPS)
    toward = diff / clamped[..., None]
    mask = near[..., None]
    separation = (-toward / (clamped**2)[..., None] * mask).sum(axis=1) / denom
    cohesion = (toward * mask).sum(axis=1) / denom
    speed = np.hypot(prev[:, 0], prev[:, 1])
    headings = np.zeros_like(prev)
    moving = speed >= EPS
    headings[moving] = prev[moving] / speed[moving, None]
    alignment = (headings[None, :, :] * mask).sum(axis=1) / denom
    away = pos - dog
    dog_dist = np.maximum(np.hypot(away[:, 0], away[:, 1]), EPS)
    flight = away / dog_dist[:, None] / (dog_dist**2)[:, None]
    return K_SEP * separation + K_ALI * alignment + K_COH * cohesion + K_FLIGHT * flight


def _unit(v: np.ndarray) -> np.ndarray:
    return v / max(float(np.hypot(v[0], v[1])), EPS)


@dataclass(frozen=True)
class _State:
    pos: np.ndarray
    prev: np.ndarray
    dog: np.ndarray

    def __post_init__(self) -> None:
        pos = np.array(self.pos, dtype=float)
        if pos.ndim != 2 or not np.all(np.isfinite(pos)):
            raise ValueError("bad state")
        pos.setflags(write=False)
        object.__setattr__(self, "pos", pos)


def steps_per_s(steps: int = STEPS) -> float:
    """Steps per second of the reference drive, rendering each row as CSV."""
    rng = np.random.default_rng(0)
    radius = np.sqrt(N / (np.pi * 0.0012))
    r = radius * np.sqrt(rng.random(N))
    theta = 2.0 * np.pi * rng.random(N)
    state = _State(np.column_stack((r * np.cos(theta), r * np.sin(theta))), np.zeros((N, 2)),
                   np.array([-30.0, 50.0]))
    goal = np.zeros(2)
    rows = []
    t0 = time.perf_counter()
    for k in range(steps):
        pos, dog = state.pos, state.dog
        idx = np.asarray(sorted(set(range(N))), dtype=int)
        tracked = int(idx[np.argmax(np.hypot(*(pos[idx] - goal).T))])
        nearest = int(idx[np.argmin(np.hypot(*(pos[idx] - dog).T))])
        off = dog - pos[nearest]
        v_dog = (K_ATT * _unit(pos[tracked] - dog)
                 + K_REP * _unit(off) / max(float(np.hypot(off[0], off[1])), EPS) ** 2
                 + K_GOAL * _unit(dog - goal))
        v = _velocities(pos, state.prev, dog)
        state = _State(pos + v, v, dog + v_dog)
        if k % 4 == 0:
            rows.append(",".join(f"{x:.9g}" for x in state.pos.ravel()))
    return steps / (time.perf_counter() - t0)


class HostSampler:
    """Times a short run of the loop every `interval` seconds, in the main thread.

    A one-shot SIGALRM timer, re-armed when each sample ends, interrupts
    whatever runs (between two bytecodes) to time `steps` steps of the
    loop. Each sample is kept as (start, duration, steps per second) on
    the perf_counter clock, so that timings can leave the sampling out
    and each operation can be rescaled by the speed measured around it.
    Use it as a context manager; it samples once on entry.
    """

    def __init__(self, interval: float, steps: int):
        self.interval = interval
        self.steps = steps
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        rate = steps_per_s(self.steps)
        self.samples.append((t0, time.perf_counter() - t0, rate))
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self) -> HostSampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def paused_between(self, t0: float, t1: float) -> float:
        """Seconds of sampling inside [t0, t1]."""
        return sum(min(s + d, t1) - max(s, t0) for s, d, _ in self.samples if s < t1 and s + d > t0)

    def rate_between(self, t0: float, t1: float) -> float:
        """Mean speed of the samples taken within one interval of [t0, t1]."""
        rates = [r for s, _, r in self.samples if t0 - self.interval <= s <= t1 + self.interval]
        return statistics.fmean(rates or [r for _, _, r in self.samples])

    def mean_rate(self) -> float:
        return statistics.fmean(r for _, _, r in self.samples)
