"""Discrete-time flocking dynamics for the sheep.

Each step a sheep blends four influences over its neighborhood: an
inverse-square push away from nearby flockmates, alignment with their
previous headings, a unit-vector pull toward them, and an inverse-square
flight response away from the dog. Velocities are applied directly, so a
sheep's displacement per step equals its velocity for that step.

The flight has the form of the push (as in Strömbom et al. 2014), so the
dog is the kernel's last neighbour row. Entry (i, j) is sheep j seen
from p_i, sheep i for i < N and the dog for i = N, with difference
d = x_j - p_i and distance c. The dog's N entries follow the pairs, and
their push (d/c) / -(c**2) times -k_flight is the flight term
(d/c) / c**2 * k_flight, bit for bit, as negation is exact; a sheep on
the dog holds -UNIT_X / c**2 there, so that it flees along +x.

Every call reads the pass of its state (sheep_offsets): one C-ordered
(2, R, N) difference of the sheep from every sheep (below
``_LIST_MIN_N`` only), the dog and any points of the caller's, planes
dx and dy, and one ``np.hypot``. A small flock's entries are the pass's
rows :N within r_s and all of row N. A larger flock searches a
NeighbourList that its caller keeps across the steps of one run, and
appends the pass's dog row to the pairs it lists. Either way the same
entries come out in row-major order with the same distances and
differences, and with their columns of a key table (_key_table): of
every pair, cached per flock size, or of the list's pairs, built with
it. sheep_distances splits alike: one sheep's row of a small flock's
pass, or the same subtraction and hypot of its own.

The pairs' terms fill one (7, P) matrix whose last row is all ones, and
one ``np.bincount`` sums every row per sheep, counting the neighbours
that divide the sums. That gives the same bits as summing masked
(N, N, 2) arrays along axis 1: both add each sheep's terms one at a time
in ascending neighbor order starting from +0, and the masked-out terms
a dense sum would add are exact zeros, which change no non-zero partial
sum and leave a zero sum at +0.

The module also holds the package's constants and its input checks.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Distances below EPS are clamped before they reach a denominator.
EPS = 1e-9

UNIT_X = np.array([1.0, 0.0])

# Row offsets of the term matrix, scaled by N into bincount bins.
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


def as_point(value) -> np.ndarray:
    """A read-only float64 copy of value, a finite (2,) vector; the caller's array stays writeable."""
    pt = np.array(value, dtype=float)
    if pt.shape != (2,):
        raise ValueError(f"expected a 2-vector, got shape {pt.shape}")
    if not np.all(np.isfinite(pt)):
        raise ValueError("vector components must be finite")
    pt.setflags(write=False)
    return pt


def _count(name: str, value, least: int = 0) -> int:
    """value as an int of at least least, 0 or 1; operator.index refuses a float, which int() would truncate."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be {'positive' if least else 'non-negative'}, got {value}")
    return value


def _real(name: str, value, positive: bool = False) -> None:
    """Refuse value unless it is a finite real number (numpy scalars included), positive or non-negative."""
    if not (isinstance(value, numbers.Real) and (0 < value if positive else 0 <= value) and value < math.inf):
        raise ValueError(f"{name} must be {'positive' if positive else 'non-negative'} and finite, got {value!r}")


@dataclass(frozen=True)
class SheepParams:
    """Gains and sensing radius for the sheep update rule."""

    r_s: float = 20.0
    k_separation: float = 100.0
    k_alignment: float = 0.5
    k_cohesion: float = 2.0
    k_flight: float = 500.0

    def __post_init__(self) -> None:
        _real("r_s", self.r_s, positive=True)
        for name in ("k_separation", "k_alignment", "k_cohesion", "k_flight"):
            _real(name, getattr(self, name))
        # The kernel scales its (6, N) neighbourhood means by this column.
        # It is built here, once per params; not a field, so equality,
        # hashing and repr see the gains alone.
        gains = np.repeat((self.k_separation, self.k_cohesion, self.k_alignment), 2)[:, None]
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


def _largest(values: np.ndarray) -> float:
    """values.max() read at its argmax, a nan if any: the same value without
    ndarray.max()'s Python-level wrapper, a third of the cost on 20-200 floats."""
    return values.item(values.argmax())


# Bound at import, so that swapping a module's FlockState name for a
# wrapper (a tracer, say) leaves the per-step snapshots as they are.
_snapshot = FlockState._unchecked


def _key_table(flat: np.ndarray, n: int) -> np.ndarray:
    """The (8, L) key table of the flat pair indices i*n + j: row r < 7 holds
    r*n + i, the pair's bincount key in term row r, and row 7 holds j."""
    table = np.empty((8, flat.size), dtype=flat.dtype)
    np.divmod(flat, n, out=(table[0], table[7]))
    np.add(_TERM_ROWS[1:] * n, table[0], out=table[1:7])
    return table


@lru_cache(maxsize=64)
def _pair_table(n: int) -> np.ndarray:
    """The key table of every flat pair index i*N + j, built once per flock size."""
    table = _key_table(np.arange(n * n), n)
    table.setflags(write=False)
    return table


def pass_points(n: int, *extra: np.ndarray) -> np.ndarray:
    """A (2, R, 1) array for sheep_offsets: rows for the kernel's points
    of an n-sheep flock, every sheep (below _LIST_MIN_N only) and the dog,
    then the extra points."""
    rows = n + 1 if n < _LIST_MIN_N else 1
    at = np.empty((2, rows + len(extra), 1))
    at[:, rows:, 0] = np.transpose(extra)
    return at


def sheep_offsets(state: FlockState, points: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The pass of one state: the differences of the sheep from points, a
    pass_points array whose kernel rows this sets from state, shape
    (2, R, N), and their distances, shape (R, N)."""
    n = state.n
    points = pass_points(n) if points is None else points
    dog = n if n < _LIST_MIN_N else 0
    if dog:
        points[:, :dog, 0] = state.sheep_pos.T
    points[:, dog, 0] = state.dog_pos
    diff = np.subtract(state.sheep_pos.T[:, None], points, order="C")
    return diff, np.hypot(diff[0], diff[1])


def sheep_distances(state: FlockState, measured: tuple[np.ndarray, np.ndarray], t: int) -> np.ndarray:
    """Every sheep's distance to sheep t: row t of the state's pass below
    _LIST_MIN_N, and from there the pass's subtraction and hypot of its own."""
    if state.n < _LIST_MIN_N:
        return measured[1][t]
    pos = state.sheep_pos
    diff = np.subtract(pos.T, pos[t, :, None], order="C")
    return np.hypot(diff[0], diff[1])


def _neighbour_pairs(diff: np.ndarray, dist: np.ndarray, r_s: float) -> tuple[np.ndarray, ...]:
    """From the pass of an N-sheep state: the flat indices i*N + j of the
    pairs i != j within r_s and then of the dog's N entries, ascending,
    with their distances and, as one (2, P) array, their differences."""
    n = dist.shape[1]
    neighbors = dist[: n + 1] <= r_s
    neighbors.flat[:: n + 1] = False
    neighbors[n] = True
    pairs = neighbors.ravel().nonzero()[0]
    return pairs, dist.ravel().take(pairs), diff.reshape(2, -1).take(pairs, axis=1)


class NeighbourList:
    """The pairs of one flock that may be within r_s, kept across steps
    (a Verlet list; Verlet 1967).

    A build lists the pairs i != j whose legs |dx| and |dy| are both at
    most 2 r_s, in ascending i*N + j order, as the columns of their key
    table. A query measures the listed pairs alone, with the pass's
    subtraction and hypot, and keeps those within r_s and their columns.
    It rebuilds first unless no coordinate of any sheep has moved by more
    than _REBUILD_MOVE = 0.45 r_s since the build (nan and inf moves fail
    that test). No neighbour is missed: an unlisted pair had a
    leg longer than 2 r_s at the build (or not finite, which finite
    positions give only by overflowing), so after two moves of 0.45 r_s
    it is still longer than 1.1 r_s, and a faithfully rounded hypot is
    never below either leg. That margin dwarfs the rounding involved; for
    a subnormal r_s, 0.45 r_s rounds to at most r_s / 2, and legs and
    moves that small are exact differences.
    """

    __slots__ = ("_pos", "_r_s", "_table")

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
        self._table = _key_table(box.ravel().nonzero()[0], n)
        # A copy, so that a caller who writes to pos cannot hide a move.
        self._pos, self._r_s = pos.copy(), r_s

    def pairs(self, pos: np.ndarray, r_s: float) -> tuple[np.ndarray, ...]:
        """Each pair i != j within r_s of the (N, 2) positions pos, in
        ascending i*N + j order: its column of the key table (row 0 is i,
        row 7 is j), its distance and, as the rows of one (2, P) array,
        its differences x_j - x_i and y_j - y_i."""
        built = self._pos
        stale = built is None or built.shape != pos.shape or r_s != self._r_s
        if stale or not _largest(np.abs(pos - built)) <= _REBUILD_MOVE * r_s:
            self._build(pos, r_s)
        table = self._table
        diff = np.subtract(pos.take(table[7], axis=0), pos.take(table[0], axis=0))
        dist = np.hypot(diff[:, 0], diff[:, 1])
        inside = (dist <= r_s).nonzero()[0]
        return table.take(inside, axis=1), dist.take(inside), diff.take(inside, axis=0).T


def flock_velocities(state: FlockState, params: SheepParams, near: NeighbourList | None = None,
                     measured: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Velocities for every sheep computed from the same state snapshot.

    Sheep with no neighbors get zero separation, alignment, and cohesion;
    the flight term away from the dog always applies. Distances in
    denominators are clamped below by EPS, and an exactly coincident pair
    repels along +x, as does the dog from a sheep on it. The kernel reads
    measured, the state's pass from sheep_offsets (its own if None), and
    writes to no row of it. From ``_LIST_MIN_N`` sheep on it searches
    near, a NeighbourList that the caller keeps across the steps of one
    flock (a new one if None).
    """
    n = state.n
    diff, dist = sheep_offsets(state) if measured is None else measured

    # The pairs' columns of a key table (_key_table): small flocks take
    # them from a table of 8 N * N integers per flock size, under 62 kB,
    # and larger flocks from the list's. The dog's N entries follow.
    if n < _LIST_MIN_N:
        pairs, pair_dist, pair_diff = _neighbour_pairs(diff, dist, params.r_s)
        table = _pair_table(n).take(pairs[:-n], axis=1)
    else:
        table, pair_dist, pair_diff = (near or NeighbourList()).pairs(state.sheep_pos, params.r_s)
        pair_dist = np.concatenate((pair_dist, dist[0]))
        pair_diff = np.concatenate((pair_diff, diff[:, 0]), axis=1)
    keys, j = table[:7].ravel(), table[7]

    clamped = np.maximum(pair_dist, EPS)
    # Rows: separation x/y and cohesion x/y of every entry.
    push = np.empty((4, pair_dist.size))
    toward = np.divide(pair_diff, clamped, out=push[2:4])
    # away / clamped**2 with away = -toward: negating the divisor instead
    # gives the same bits.
    np.divide(toward, -(clamped**2), out=push[0:2])
    flight = push[0:2, -n:]  # the dog's; see the module docstring
    coincident = pair_dist == 0.0
    if np.count_nonzero(coincident):
        toward[:, coincident] = UNIT_X[:, None]
        push[0:2, coincident] = UNIT_X[:, None] / clamped[coincident] ** 2
        np.negative(flight, out=flight, where=coincident[-n:])  # -UNIT_X / c**2

    # Rows: separation x/y, cohesion x/y, alignment x/y, neighbour count.
    terms = np.empty((7, j.size))
    terms[0:4] = push[:, :-n]
    prev = state.sheep_vel_prev.T
    prev_norm = np.hypot(prev[0], prev[1])
    headings = np.divide(prev, prev_norm, out=np.zeros((2, n)), where=prev_norm >= EPS)
    headings.take(j, axis=1, out=terms[4:6])
    terms[6] = 1.0

    # One bincount sums every (row, sheep) bin, adding its weights in input
    # order, so sheep i sums over j ascending.
    sums = np.bincount(keys, weights=terms.ravel(), minlength=7 * n).reshape(7, n)
    weighted = sums[:6] / np.maximum(sums[6], 1.0)
    weighted *= params._gains
    flight *= -params.k_flight

    v = weighted[0:2] + weighted[4:6]  # separation, alignment, cohesion: the dense sum's order
    v += weighted[2:4]
    return np.add(v.T, flight.T, order="C")  # laid out like sheep_pos


def step_flock(state: FlockState, params: SheepParams, near: NeighbourList | None = None) -> FlockState:
    """Advance every sheep one step; the dog does not move here.

    The result is an unchecked snapshot: its caller checks the last state
    of a run, as placement.warmup does.
    """
    v = flock_velocities(state, params, near)
    return _snapshot(state.sheep_pos + v, v, state.dog_pos)
