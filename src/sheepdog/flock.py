"""Discrete-time flocking dynamics for the sheep.

Each step a sheep blends four influences over its neighborhood: an
inverse-square push away from nearby flockmates, alignment with their
previous headings, a unit-vector pull toward them, and an inverse-square
flight response away from the dog. Velocities are applied directly, so a
sheep's displacement per step equals its velocity for that step.

A flock of fewer than ``_LIST_MIN_N`` sheep takes the differences of
all N x N pairs as one C-ordered (2, N, N) array, whose planes are dx
and dy, and the distance of every pair with ``np.hypot``. A larger
flock searches a NeighbourList, a Verlet list that its caller keeps
across the steps of one run. A build lists the pairs whose legs |dx|
and |dy| are both within 2 r_s. Each step takes the differences and
distances of the listed pairs alone, and the list is rebuilt once a
coordinate of a sheep has moved more than 0.45 r_s since the build,
about once every 11 steps in an N = 100 episode. The class docstring
says why that misses no neighbour: an unlisted pair stays more than
1.1 r_s apart. Either way the same pairs come out in row-major order
with the same distances and differences.

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
per ``SheepParams``, and below ``_LIST_MIN_N`` the per-size tables that
give each pair's bincount keys and neighbour index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .vec import EPS, UNIT_X, as_point, offsets

# Row offsets of the pair-term matrix, scaled by N into bincount bins.
_TERM_ROWS = np.arange(7)[:, None]

# Flock size from which the kernel searches a NeighbourList. Kernel time,
# list / dense, over the states of T = 600 fat episodes (min of 9, median
# of seeds 0-4, 0.45 r_s rebuilds): 1.07-1.08 at N = 20, 1.00-1.04 at
# N = 24, 0.98-0.99 at N = 28, 0.90-0.93 at N = 32, 0.79 at N = 40,
# 0.68-0.69 at N = 50.
_LIST_MIN_N = 32

# A NeighbourList is rebuilt once a coordinate has moved more than this
# many r_s since its build; below 1/2, so that no pair is missed. List
# builds per 100 steps in N = 100, T = 600 fat episodes, seeds 0-5: 17.1
# at r_s / 4, 9.0 at 0.45 r_s.
_REBUILD_MOVE = 0.45


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
    """Snapshot of the flock: sheep positions, their previous velocities, dog position."""

    sheep_pos: np.ndarray
    sheep_vel_prev: np.ndarray
    dog_pos: np.ndarray

    def __post_init__(self) -> None:
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

    @classmethod
    def _unchecked(cls, sheep_pos: np.ndarray, sheep_vel_prev: np.ndarray, dog_pos: np.ndarray) -> FlockState:
        """Snapshot without the copies and checks, for the episode loop.

        The caller passes fresh float arrays of matching shape that nobody
        writes to, and checks finiteness itself when the episode ends.
        """
        state = object.__new__(cls)
        vars(state).update(sheep_pos=sheep_pos, sheep_vel_prev=sheep_vel_prev, dog_pos=dog_pos)
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
    dist = np.hypot(diff[0], diff[1])
    neighbors = dist <= r_s
    neighbors.flat[:: n + 1] = False
    pairs = neighbors.ravel().nonzero()[0]
    return pairs, dist.take(pairs), diff.reshape(2, n * n).take(pairs, axis=1)


class NeighbourList:
    """The pairs of one flock that may be within r_s, kept across steps
    (a Verlet list; Verlet 1967).

    A build takes the N x N differences and lists the pairs i != j whose
    legs |dx| and |dy| are both at most 2 r_s, in ascending i*N + j
    order, and keeps the positions it saw. A query takes x_j - x_i,
    y_j - y_i and ``np.hypot`` for the listed pairs alone and keeps
    those within r_s. It rebuilds first unless no coordinate of any
    sheep has changed by more than _REBUILD_MOVE = 0.45 r_s since the
    build. A nan or inf change fails that test, so a flock that turned
    non-finite is searched afresh on every step.

    No neighbour is missed. An unlisted pair had a leg longer than 2 r_s
    at the build, or one that was not finite, which finite positions
    give only by overflowing. Each of its two sheep has since moved at
    most 0.45 r_s along that axis, so the leg is still longer than
    2 r_s - 2 * 0.45 r_s = 1.1 r_s, and a faithfully rounded hypot is
    never below either leg. That margin of 0.1 r_s is far larger than
    the rounding of the few operations involved, each of which errs by
    at most a part in 2**53 of its result. The one exception, 0.45 r_s
    for a subnormal r_s, rounds to at most r_s / 2, and legs and moves
    that small are exact differences. A listed pair is tested with the
    same subtraction and hypot as in an N x N search, so a query gives
    the same pairs, in the same order, with the same distances and
    differences.
    """

    __slots__ = ("_pos", "_r_s", "_ij")

    def __init__(self) -> None:
        self._pos = None

    def _build(self, pos: np.ndarray, r_s: float) -> None:
        xy = pos.T
        n = xy.shape[1]
        reach = 2.0 * r_s
        diff = np.subtract(xy[:, None, :], xy[:, :, None], order="C")
        box = np.abs(diff[0]) <= reach
        box &= np.abs(diff[1]) <= reach
        box.flat[:: n + 1] = False
        listed = box.ravel().nonzero()[0]
        self._ij = np.empty((2, listed.size), dtype=listed.dtype)
        np.divmod(listed, n, out=(self._ij[0], self._ij[1]))
        # A copy, so that a caller who writes to pos cannot hide a move.
        self._pos, self._r_s = pos.copy(), r_s

    def pairs(self, pos: np.ndarray, r_s: float) -> tuple[np.ndarray, ...]:
        """Each pair i != j within r_s of the (N, 2) positions pos, in
        ascending i*N + j order: its i, its j, its distance and, as the
        rows of one (2, P) array, its differences x_j - x_i and y_j - y_i."""
        built = self._pos
        stale = built is None or built.shape != pos.shape or r_s != self._r_s
        if stale or not np.abs(pos - built).max() <= _REBUILD_MOVE * r_s:
            self._build(pos, r_s)
        ij = self._ij
        diff = np.subtract(pos.take(ij[1], axis=0), pos.take(ij[0], axis=0))
        dist = np.hypot(diff[:, 0], diff[:, 1])
        inside = (dist <= r_s).nonzero()[0]
        i, j = ij.take(inside, axis=1)
        return i, j, dist.take(inside), diff.take(inside, axis=0).T


def flock_velocities(state: FlockState, params: SheepParams, near: NeighbourList | None = None,
                     from_dog: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Velocities for every sheep computed from the same state snapshot.

    Sheep with no neighbors get zero separation, alignment, and cohesion;
    the flight term away from the dog always applies. Distances in
    denominators are clamped below by EPS and an exactly coincident pair
    repels along +x. A flock of ``_LIST_MIN_N`` sheep or more finds its
    pairs through near, a NeighbourList that the caller keeps from step
    to step of one flock, or through a new one if near is None.

    from_dog, if given, is the state's sheep - dog differences, shape
    (2, N), and their np.hypot distances, as vec.offsets gives them; the
    kernel reads them and does not write to them. Without it the kernel
    calls vec.offsets itself.
    """
    xy = state.sheep_pos.T
    n = xy.shape[1]

    # Bincount keys of the pair-term matrix, flattened, and each pair's
    # neighbour j. Small flocks look them up: their tables hold 8 N * N
    # integers, under 62 kB. Larger flocks build them from the pairs, so
    # that their memory does not grow with N * N between calls.
    if n < _LIST_MIN_N:
        pairs, pair_dist, pair_diff = _neighbour_pairs(xy, params.r_s)
        key_table, neighbour = _pair_tables(n)
        keys, j = key_table.take(pairs, axis=1).ravel(), neighbour.take(pairs)
    else:
        if near is None:
            near = NeighbourList()
        i, j, pair_dist, pair_diff = near.pairs(state.sheep_pos, params.r_s)
        keys = (_TERM_ROWS * n + i).ravel()

    clamped = np.maximum(pair_dist, EPS)
    # Rows: separation x/y, alignment x/y, cohesion x/y, neighbour count.
    terms = np.empty((7, j.size))
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

    away, dog_dist = offsets(state.sheep_pos, state.dog_pos[:, None]) if from_dog is None else from_dog
    dog_clamped = np.maximum(dog_dist, EPS)
    flight = np.divide(away, dog_clamped)
    dog_coincident = dog_dist == 0.0
    if np.count_nonzero(dog_coincident):
        flight[:, dog_coincident] = UNIT_X[:, None]
    flight /= dog_clamped**2
    flight *= params.k_flight

    v = weighted[0:2] + weighted[2:4]
    v += weighted[4:6]
    return np.add(v.T, flight.T, order="C")  # laid out like sheep_pos


def step_flock(state: FlockState, params: SheepParams, near: NeighbourList | None = None) -> FlockState:
    """Advance every sheep one step; the dog does not move here.

    The result is an unchecked snapshot: its caller checks the last state
    of a run, as placement.warmup does.
    """
    v = flock_velocities(state, params, near)
    return _snapshot(state.sheep_pos + v, v, state.dog_pos)
