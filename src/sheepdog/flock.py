"""Discrete-time flocking dynamics for the sheep.

Each step a sheep blends four influences over its neighborhood: an
inverse-square push away from nearby flockmates, alignment with their
previous headings, a unit-vector pull toward them, and an inverse-square
flight response away from the dog. Velocities are applied directly, so a
sheep's displacement per step equals its velocity for that step.

The neighbor test takes the differences of all N x N pairs as one
C-ordered (2, N, N) array, whose planes are dx and dy. A small flock
takes the distance of every pair with ``np.hypot``. From
``_BOX_MIN_N`` sheep on, only the pairs with |dx| <= r_s and |dy| <= r_s
get a distance: a faithfully rounded hypot is never below either leg,
so no pair outside that box is within r_s, and a non-finite difference
fails both tests. Either way the same pairs come out in row-major order
with the same distances.

The three neighborhood terms are evaluated only for these P pairs, with
each pair's direction taken from the dx, dy that gave its distance: one
``take`` of the pairs' (2, P) differences and one divide. The
terms fill one (7, P) matrix whose last row is all ones, and one
``np.bincount`` sums every row per sheep, so the same call counts the
neighbours that divide the sums. That gives the same bits as summing
masked (N, N, 2) arrays along axis 1: both add each sheep's terms one at
a time in ascending neighbor order starting from +0, and the masked-out
terms a dense sum would add are exact zeros, which change no non-zero
partial sum and leave a zero sum at +0.

What does not change from call to call is built once: the gain column
per ``SheepParams``, and below ``_BOX_MIN_N`` the per-size tables that
give each pair's bincount keys and neighbour index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .vec import EPS, UNIT_X, as_point

# Row offsets of the pair-term matrix, scaled by N into bincount bins.
_TERM_ROWS = np.arange(7)[:, None]

# Flock size from which the box test beats N x N hypot calls. Kernel time,
# box / dense, on in-episode states: 1.07 at N = 10, 0.99 at N = 20,
# 0.95 at N = 24, 0.88 at N = 32, 0.44 at N = 100.
_BOX_MIN_N = 32


@dataclass(frozen=True)
class SheepParams:
    """Gains and sensing radius for the sheep update rule."""

    r_s: float = 20.0
    k_separation: float = 100.0
    k_alignment: float = 0.5
    k_cohesion: float = 2.0
    k_flight: float = 500.0

    def __post_init__(self) -> None:
        if not 0 < self.r_s < math.inf:
            raise ValueError("r_s must be positive and finite")
        for name in ("k_separation", "k_alignment", "k_cohesion", "k_flight"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        # The kernel scales its (6, N) neighbourhood means by this column.
        # It is built here, once per params; not a field, so equality,
        # hashing and repr see the gains alone.
        gains = np.repeat((self.k_separation, self.k_alignment, self.k_cohesion), 2)[:, None]
        gains.setflags(write=False)
        object.__setattr__(self, "_gains", gains)


@dataclass(frozen=True, eq=False)
class FlockState:
    """Snapshot of one step: sheep positions, their previous velocities, dog position."""

    step: int
    sheep_pos: np.ndarray
    sheep_vel_prev: np.ndarray
    dog_pos: np.ndarray

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError("step must be non-negative")
        pos = np.array(self.sheep_pos, dtype=float)
        vel = np.array(self.sheep_vel_prev, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError("sheep_pos must have shape (N, 2) with N >= 1")
        if vel.shape != pos.shape:
            raise ValueError("sheep_vel_prev must match sheep_pos in shape")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))):
            raise ValueError("flock state must be finite")
        for arr in (pos, vel):
            arr.setflags(write=False)
        object.__setattr__(self, "sheep_pos", pos)
        object.__setattr__(self, "sheep_vel_prev", vel)
        object.__setattr__(self, "dog_pos", as_point(self.dog_pos))
        self.dog_pos.setflags(write=False)

    @classmethod
    def _unchecked(cls, step: int, sheep_pos: np.ndarray, sheep_vel_prev: np.ndarray, dog_pos: np.ndarray) -> FlockState:
        """Snapshot without the copies and checks, for the episode loop.

        The caller passes fresh float arrays of matching shape that nobody
        writes to, and checks finiteness itself when the episode ends.
        """
        state = object.__new__(cls)
        vars(state).update(step=step, sheep_pos=sheep_pos, sheep_vel_prev=sheep_vel_prev, dog_pos=dog_pos)
        return state

    @property
    def n(self) -> int:
        return self.sheep_pos.shape[0]


# Bound at import, so that swapping a module's FlockState name for a
# wrapper (a tracer, say) leaves the per-step snapshots as they are.
_snapshot = FlockState._unchecked


@lru_cache(maxsize=64)
def _pair_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """For every flat pair index i*N + j: its bincount key in each term
    row, shape (7, N*N), and its neighbour j. Built once per flock size."""
    i, j = np.divmod(np.arange(n * n), n)
    keys = _TERM_ROWS * n + i
    keys.setflags(write=False)
    j.setflags(write=False)
    return keys, j


def _neighbour_pairs(xy: np.ndarray, r_s: float) -> tuple[np.ndarray, ...]:
    """Flat indices i*N + j of the pairs i != j within r_s, ascending, with
    their distances and, as the rows of one (2, P) array, their
    differences x_j - x_i and y_j - y_i. xy holds the x and y rows."""
    n = xy.shape[1]
    # diff[:, i, j] = xy[:, j] - xy[:, i]; C order keeps each axis's plane contiguous.
    diff = np.subtract(xy[:, None, :], xy[:, :, None], order="C")
    dx, dy = diff[0], diff[1]
    flat = diff.reshape(2, n * n)
    if n < _BOX_MIN_N:
        dist = np.hypot(dx, dy)
        neighbors = dist <= r_s
        neighbors.flat[:: n + 1] = False
        pairs = neighbors.ravel().nonzero()[0]
        return pairs, dist.take(pairs), flat.take(pairs, axis=1)
    # One N x N temporary per axis, not one (2, N, N) for both.
    box = np.abs(dx) <= r_s
    box &= np.abs(dy) <= r_s
    box.flat[:: n + 1] = False
    candidates = box.ravel().nonzero()[0]
    cand_diff = flat.take(candidates, axis=1)
    cand_dist = np.hypot(cand_diff[0], cand_diff[1])
    inside = cand_dist <= r_s
    return candidates[inside], cand_dist[inside], cand_diff.compress(inside, axis=1)


def flock_velocities(state: FlockState, params: SheepParams) -> np.ndarray:
    """Velocities for every sheep computed from the same state snapshot.

    Sheep with no neighbors get zero separation, alignment, and cohesion;
    the flight term away from the dog always applies. Distances in
    denominators are clamped below by EPS and an exactly coincident pair
    repels along +x.
    """
    xy = state.sheep_pos.T
    n = xy.shape[1]

    pairs, pair_dist, pair_diff = _neighbour_pairs(xy, params.r_s)
    # Bincount keys of the pair-term matrix, flattened, and each pair's
    # neighbour j. Small flocks look them up: their tables hold 8 N * N
    # integers, under 62 kB. Larger flocks split the pairs afresh, so that
    # their memory does not grow with N * N between calls.
    if n < _BOX_MIN_N:
        key_table, neighbour = _pair_tables(n)
        keys, j = key_table.take(pairs, axis=1).ravel(), neighbour.take(pairs)
    else:
        i, j = np.divmod(pairs, n)
        keys = (_TERM_ROWS * n + i).ravel()

    clamped = np.maximum(pair_dist, EPS)
    # Rows: separation x/y, alignment x/y, cohesion x/y, neighbour count.
    terms = np.empty((7, pairs.size))
    toward = np.divide(pair_diff, clamped, out=terms[4:6])
    # away / clamped**2 with away = -toward: negating the divisor instead
    # gives the same bits.
    np.divide(toward, -(clamped**2), out=terms[0:2])
    coincident = pair_dist == 0.0
    if np.count_nonzero(coincident):
        toward[:, coincident] = UNIT_X[:, None]
        terms[0:2, coincident] = UNIT_X[:, None] / clamped[coincident] ** 2

    prev = state.sheep_vel_prev.T
    prev_norm = np.hypot(prev[0], prev[1])
    headings = np.divide(prev, prev_norm, out=np.zeros((2, n)), where=prev_norm >= EPS)
    headings.take(j, axis=1, out=terms[2:4])
    terms[6] = 1.0

    # One bincount sums every (row, sheep) bin, adding its weights in input
    # order, so sheep i sums over j ascending.
    sums = np.bincount(keys, weights=terms.ravel(), minlength=7 * n).reshape(7, n)
    weighted = sums[:6] / np.maximum(sums[6], 1.0)
    weighted *= params._gains

    flight = np.subtract(xy, state.dog_pos[:, None], order="C")
    dog_dist = np.hypot(flight[0], flight[1])
    dog_clamped = np.maximum(dog_dist, EPS)
    flight /= dog_clamped
    dog_coincident = dog_dist == 0.0
    if np.count_nonzero(dog_coincident):
        flight[:, dog_coincident] = UNIT_X[:, None]
    flight /= dog_clamped**2
    flight *= params.k_flight

    v = weighted[0:2] + weighted[2:4]
    v += weighted[4:6]
    return np.add(v.T, flight.T, order="C")  # laid out like sheep_pos


def step_flock(state: FlockState, params: SheepParams) -> FlockState:
    """Advance every sheep one step; the dog does not move here.

    The result is an unchecked snapshot: its caller checks the last state
    of a run, as placement.warmup does.
    """
    v = flock_velocities(state, params)
    return _snapshot(state.step + 1, state.sheep_pos + v, v, state.dog_pos)
