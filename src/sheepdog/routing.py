"""Open-path tour planning over the flock's initial positions.

The cost of a visiting order is the length of the open path that starts
at the dog, passes every sheep in order, and ends at the goal. Orders
are improved by randomized local search: propose one mutation per
iteration and keep it whenever it is not worse. Each mutation changes at
most four edges, so a candidate whose O(1) change in cost is clearly
positive is rejected without being built. Any candidate near acceptance
is built and its path re-summed from its first changed edge on, starting
from the current path's running total there: the edges before it are the
same floats added in the same order, so results are bit-identical to
re-summing every candidate's full path. That holds on every instance the
search accepts; it rejects two points more than the largest float apart,
whose O(1) change would be inf - inf.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import getitem

import numpy as np

STRATEGIES = ("reverse", "exchange", "jump")


@dataclass(frozen=True)
class Tour:
    """A visiting order: permutation of sheep indices 0..N-1."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        order = tuple(int(i) for i in self.order)
        object.__setattr__(self, "order", order)
        if sorted(order) != list(range(len(order))):
            raise ValueError(f"not a permutation of 0..{len(order) - 1}: {order}")

    @property
    def n(self) -> int:
        return len(self.order)


@dataclass(frozen=True, eq=False)
class TourInstance:
    """Frozen inputs for planning: dog start, sheep starts, goal point."""

    dog_start: np.ndarray
    sheep_start: np.ndarray
    goal: np.ndarray

    def __post_init__(self) -> None:
        dog = np.array(self.dog_start, dtype=float).reshape(2)
        sheep = np.array(self.sheep_start, dtype=float)
        goal = np.array(self.goal, dtype=float).reshape(2)
        if sheep.ndim != 2 or sheep.shape[1] != 2 or sheep.shape[0] < 1:
            raise ValueError("sheep_start must have shape (N, 2) with N >= 1")
        if not all(np.all(np.isfinite(a)) for a in (dog, sheep, goal)):
            raise ValueError("tour instance coordinates must be finite")
        for arr in (dog, sheep, goal):
            arr.setflags(write=False)
        object.__setattr__(self, "dog_start", dog)
        object.__setattr__(self, "sheep_start", sheep)
        object.__setattr__(self, "goal", goal)

    @property
    def n(self) -> int:
        return self.sheep_start.shape[0]


@dataclass(frozen=True)
class RlsConfig:
    strategy: str
    iterations: int
    seed: int

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True, eq=False)
class RlsResult:
    best_tour: Tour
    best_cost: float
    cost_trace: np.ndarray
    initial_tour: Tour
    initial_cost: float


def _distance_table(instance: TourInstance) -> list[list[float]]:
    # Node 0 is the dog start, 1..N the sheep, N+1 the goal.
    pts = np.vstack([instance.dog_start, instance.sheep_start, instance.goal])
    with np.errstate(over="ignore"):  # finite points can lie more than the largest float apart
        diff = pts[:, None, :] - pts[None, :, :]
        table = np.hypot(diff[..., 0], diff[..., 1])
    if not np.isfinite(table).all():
        raise ValueError("tour instance distances must be finite")
    return table.tolist()


def _running_costs(table: list[list[float]], path: tuple[int, ...], start: int, total: float) -> list[float]:
    """Running totals of the path's edge lengths from node path[start] on.

    Entry m is total plus the edges up to node path[start + m], added one
    at a time in path order, so a list begun at the dog with total 0.0
    holds the cost of every prefix and ends with the full path cost.
    """
    edges = map(getitem, map(table.__getitem__, path[start:-1]), path[start + 1 :])
    return list(accumulate(edges, initial=total))


def reverse_segment(order: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """Reverse the inclusive slice [a, b]."""
    return order[:a] + order[a : b + 1][::-1] + order[b + 1 :]

def exchange_positions(order: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """Swap the elements at positions a and b."""
    lst = list(order)
    lst[a], lst[b] = lst[b], lst[a]
    return tuple(lst)

def jump_insert(order: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    """Remove the element at position a and re-insert it at position b."""
    lst = list(order)
    lst.insert(b, lst.pop(a))
    return tuple(lst)


# Cost changes of the moves at positions a < b. path holds table nodes:
# the dog, the sheep in visiting order, the goal; so order position i is
# path[i + 1]. Only the edges a move replaces enter the sum.

def _reverse_delta(t: list[list[float]], path: list[int], a: int, b: int) -> float:
    p, x, y, q = path[a], path[a + 1], path[b + 1], path[b + 2]
    return t[p][y] + t[x][q] - t[p][x] - t[y][q]

def _exchange_delta(t: list[list[float]], path: list[int], a: int, b: int) -> float:
    if b == a + 1:  # swapping neighbours reverses a segment of two
        return _reverse_delta(t, path, a, b)
    p, x, xn, yp, y, q = path[a], path[a + 1], path[a + 2], path[b], path[b + 1], path[b + 2]
    return t[p][y] + t[y][xn] + t[yp][x] + t[x][q] - t[p][x] - t[x][xn] - t[yp][y] - t[y][q]

def _jump_delta(t: list[list[float]], path: list[int], a: int, b: int) -> float:
    p, x, xn, y, q = path[a], path[a + 1], path[a + 2], path[b + 1], path[b + 2]
    return t[p][xn] + t[y][x] + t[x][q] - t[p][x] - t[x][xn] - t[y][q]


# strategy -> (move, its cost change)
_KERNELS = {
    "reverse": (reverse_segment, _reverse_delta),
    "exchange": (exchange_positions, _exchange_delta),
    "jump": (jump_insert, _jump_delta),
}

# A candidate is rejected on its O(1) cost change only when that change
# exceeds this fraction of the current cost. Both full path sums carry a
# rounding error near (2N + 8) * 2**-53 * cost, orders of magnitude below.
_REJECT_MARGIN = 1e-9
# Position pairs are drawn this many at a time.
_DRAW_CHUNK = 4096


def _drawn_positions(rng: np.random.Generator, n: int, iterations: int):
    """Uniform unordered pairs a < b of distinct positions, drawn in chunks.

    Each pair takes two draws, a from [0, n) and b from [0, n - 1), and b
    skips past a, so the stream is the same as drawing one pair at a time.
    """
    highs = np.tile([n, n - 1], min(iterations, _DRAW_CHUNK))
    for start in range(0, iterations, _DRAW_CHUNK):
        k = min(_DRAW_CHUNK, iterations - start)
        draws = rng.integers(0, highs[: 2 * k]).reshape(k, 2)
        a, b = draws[:, 0], draws[:, 1]
        b = b + (b >= a)
        yield from zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist())


def random_tour(n: int, rng: np.random.Generator) -> Tour:
    return Tour(tuple(int(i) for i in rng.permutation(n)))


def rls_optimize(
    instance: TourInstance,
    config: RlsConfig,
    initial: Tour | None = None,
) -> RlsResult:
    """Randomized local search: accept a mutation whenever it is not worse.

    Runs exactly config.iterations mutations. When initial is omitted the
    starting order is drawn uniformly from the seeded stream.
    """
    rng = np.random.default_rng(config.seed)
    if initial is None:
        initial = random_tour(instance.n, rng)
    elif initial.n != instance.n:
        raise ValueError(f"initial tour over {initial.n} sheep does not match instance of {instance.n}")

    table = _distance_table(instance)
    move, delta = _KERNELS[config.strategy]
    n = instance.n
    # Table nodes: the dog, the sheep in visiting order, the goal; so order
    # position i is path[i + 1], and the moves apply to path at i + 1.
    path = (0, *(i + 1 for i in initial.order), n + 1)
    totals = _running_costs(table, path, 0, 0.0)
    cost = initial_cost = totals[-1]

    # The trace is piecewise constant: it changes only where a candidate
    # is accepted, and accepted_at[i] is where costs[i] begins.
    accepted_at = [0]
    costs = [cost]
    if n >= 2:
        margin = _REJECT_MARGIN * cost
        for it, (a, b) in enumerate(_drawn_positions(rng, n, config.iterations)):
            if delta(table, path, a, b) <= margin:
                # A move first changes the edge into order position a, so
                # the candidate's sum goes on from the current total at path[a].
                candidate = move(path, a + 1, b + 1)
                tail = _running_costs(table, candidate, a, totals[a])
                if tail[-1] <= cost:
                    path = candidate
                    totals[a:] = tail
                    cost = tail[-1]
                    margin = _REJECT_MARGIN * cost
                    accepted_at.append(it)
                    costs.append(cost)

    trace = np.repeat(costs, np.diff([*accepted_at, config.iterations]))
    trace.setflags(write=False)
    return RlsResult(
        best_tour=Tour(tuple(node - 1 for node in path[1:-1])),
        best_cost=cost,
        cost_trace=trace,
        initial_tour=initial,
        initial_cost=initial_cost,
    )

