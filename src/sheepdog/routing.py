"""Open-path tour planning over the flock's initial positions.

The cost of a visiting order is the length of the open path that starts
at the dog, passes every sheep in order, and ends at the goal. Orders
are improved by randomized local search: propose one mutation per
iteration and keep it whenever it is not worse. A search draws every
iteration's position pair up front, in one call. It keeps the
path, its edges (edges[k] is the table entry from path[k] to path[k + 1])
and their running totals, and moves the path in place on acceptance. A
mutation changes at most four edges, so a candidate whose O(1) change in
cost is clearly positive is rejected without being built. A candidate
near acceptance gets only its changed edges, and its path is re-summed
from the first of them on, from the current running total there. Each
edge is the float the table holds, a reversal's interior read backwards
because the table is exactly symmetric, and each sum adds the same floats
in the same order, one at a time (never with sum(), which compensates its
rounding from Python 3.12 on). So results are bit-identical to re-summing
every candidate's full path. That holds on every instance the search
accepts; it rejects two points more than the largest float apart, whose
O(1) change would be inf - inf.

Once the search has settled, nearly every candidate is rejected on its
O(1) change. After _WINDOW_AFTER candidates in a row score above the
margin, the pairs already drawn are scored a window at a time: one numpy
pass takes every pair's change against the unchanged path from the same
table floats in the same order as the scalar change, so each score is the
same float, overflow to inf or nan included. The first pair that scores
at or under the margin goes back to the scalar scan, which scores it
again and tests it as before; every pair ahead of it would have been
rejected on the same score. The draws, the margin and the acceptance test
do not change, so neither do the tours, the costs or the trace.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

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


def _distance_table(instance: TourInstance) -> np.ndarray:
    # Node 0 is the dog start, 1..N the sheep, N+1 the goal.
    pts = np.vstack([instance.dog_start, instance.sheep_start, instance.goal])
    with np.errstate(over="ignore"):  # finite points can lie more than the largest float apart
        diff = pts[:, None, :] - pts[None, :, :]
        table = np.hypot(diff[..., 0], diff[..., 1])
    if not np.isfinite(table).all():
        raise ValueError("tour instance distances must be finite")
    return table


# Cost changes of the moves at order positions a < b. path holds table
# nodes: the dog, the sheep in visiting order, the goal; so order position
# i is path[i + 1]. edges[k] is the table entry from path[k] to path[k + 1],
# so each edge a move removes is read from edges, the same float the table
# holds. Only the edges a move replaces enter the sum. A node's new edges
# are read from its own row, t[x][u] for t[u][x]: the same float, because
# the table is exactly symmetric.

def _reverse_delta(t: list[list[float]], path: list[int], edges: list[float], a: int, b: int) -> float:
    return t[path[a]][path[b + 1]] + t[path[a + 1]][path[b + 2]] - edges[a] - edges[b + 1]

def _exchange_delta(t: list[list[float]], path: list[int], edges: list[float], a: int, b: int) -> float:
    if b == a + 1:  # swapping neighbours reverses a segment of two
        return _reverse_delta(t, path, edges, a, b)
    x, y = t[path[a + 1]], t[path[b + 1]]
    added = y[path[a]] + y[path[a + 2]] + x[path[b]] + x[path[b + 2]]
    return added - edges[a] - edges[a + 1] - edges[b] - edges[b + 1]

def _jump_delta(t: list[list[float]], path: list[int], edges: list[float], a: int, b: int) -> float:
    x = t[path[a + 1]]
    return t[path[a]][path[a + 2]] + x[path[b + 1]] + x[path[b + 2]] - edges[a] - edges[a + 1] - edges[b + 1]


# The candidate's edges at positions a .. b + 1, the only ones a move
# changes, read as its cost change reads them. The edges between come
# from edges: a reversal walks them backwards, the same floats by the
# table's symmetry; a jump shifts them down by one.

def _reverse_edges(t: list[list[float]], path: list[int], edges: list[float], a: int, b: int) -> list[float]:
    return [t[path[a]][path[b + 1]], *edges[b:a:-1], t[path[a + 1]][path[b + 2]]]

def _exchange_edges(t: list[list[float]], path: list[int], edges: list[float], a: int, b: int) -> list[float]:
    if b == a + 1:
        return _reverse_edges(t, path, edges, a, b)
    x, y = t[path[a + 1]], t[path[b + 1]]
    return [y[path[a]], y[path[a + 2]], *edges[a + 2 : b], x[path[b]], x[path[b + 2]]]

def _jump_edges(t: list[list[float]], path: list[int], edges: list[float], a: int, b: int) -> list[float]:
    x = t[path[a + 1]]
    return [t[path[a]][path[a + 2]], *edges[a + 2 : b + 1], x[path[b + 1]], x[path[b + 2]]]


# The accepted move, applied to path in place.

def _reverse(path: list[int], a: int, b: int) -> None:
    path[a + 1 : b + 2] = path[b + 1 : a : -1]

def _exchange(path: list[int], a: int, b: int) -> None:
    path[a + 1], path[b + 1] = path[b + 1], path[a + 1]

def _jump(path: list[int], a: int, b: int) -> None:
    path.insert(b + 1, path.pop(a + 1))


# The same cost changes for arrays of positions a < b against one path:
# t is the flattened table, so t[u * m + v] is the scalar t[u][v], and
# path is an array of its m nodes, so path[s:].take(a) is path[a + s].
# Each sum adds the same floats in the same order as its scalar twin.

def _reverse_deltas(t: np.ndarray, path: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m = path.size
    p, x, y, q = path.take(a), path[1:].take(a), path[1:].take(b), path[2:].take(b)
    pm, xm, ym = p * m, x * m, y * m
    return t.take(pm + y) + t.take(xm + q) - t.take(pm + x) - t.take(ym + q)

def _exchange_deltas(t: np.ndarray, path: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m = path.size
    p, x, xn = path.take(a), path[1:].take(a), path[2:].take(a)
    yp, y, q = path.take(b), path[1:].take(b), path[2:].take(b)
    pm, xm, ypm, ym = p * m, x * m, yp * m, y * m
    py, xq, px, yq = t.take(pm + y), t.take(xm + q), t.take(pm + x), t.take(ym + q)
    apart = py + t.take(ym + xn) + t.take(ypm + x) + xq - px - t.take(xm + xn) - t.take(ypm + y) - yq
    # Neighbours: the scalar delta takes the reversal's four edges.
    return np.where(b == a + 1, py + xq - px - yq, apart)

def _jump_deltas(t: np.ndarray, path: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m = path.size
    p, x, xn, y, q = path.take(a), path[1:].take(a), path[2:].take(a), path[1:].take(b), path[2:].take(b)
    pm, xm, ym = p * m, x * m, y * m
    return t.take(pm + xn) + t.take(ym + x) + t.take(xm + q) - t.take(pm + x) - t.take(xm + xn) - t.take(ym + q)


# strategy -> (cost change, changed edges, move in place, a window's cost changes)
_KERNELS = {
    "reverse": (_reverse_delta, _reverse_edges, _reverse, _reverse_deltas),
    "exchange": (_exchange_delta, _exchange_edges, _exchange, _exchange_deltas),
    "jump": (_jump_delta, _jump_edges, _jump, _jump_deltas),
}

# A candidate is rejected on its O(1) cost change only when that change
# exceeds this fraction of the current cost. Both full path sums carry a
# rounding error near (2N + 8) * 2**-53 * cost, orders of magnitude below.
_REJECT_MARGIN = 1e-9
# After this many candidates in a row score above the margin, the next
# ones are scored a window at a time. A window starts at _FIRST_WINDOW
# pairs and doubles, up to _MAX_WINDOW, until one pair scores at or under
# the margin.
_WINDOW_AFTER = 256
_FIRST_WINDOW = 256
_MAX_WINDOW = 1024


def _drawn_positions(rng: np.random.Generator, n: int, iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform unordered pairs a < b of distinct positions, one per iteration.

    Returns the arrays of a and of b, from the two columns of one array
    of draws. Each pair takes two draws, a from [0, n) and b from
    [0, n - 1), and b skips past a, so the stream is the same as drawing
    one pair at a time.
    """
    a, b = rng.integers(0, (n, n - 1), size=(iterations, 2)).T
    b += b >= a
    return np.minimum(a, b), np.maximum(a, b)


def _first_hit(deltas, table: np.ndarray, path: list[int], a: np.ndarray, b: np.ndarray,
               start: int, margin: float) -> int:
    """The first index from start on whose pair a[i], b[i] changes the
    cost of path by at most margin, or len(a) if none does."""
    flat, nodes = table.ravel(), np.fromiter(path, np.intp, len(path))
    window = _FIRST_WINDOW
    # Sums near the largest float overflow to inf, and inf - inf is nan,
    # as in the scalar deltas; only numpy would warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        while start < a.size:
            stop = min(start + window, a.size)
            hits = (deltas(flat, nodes, a[start:stop], b[start:stop]) <= margin).nonzero()[0]
            if hits.size:
                return start + int(hits[0])
            start = stop
            window = min(2 * window, _MAX_WINDOW)
    return a.size


def random_tour(n: int, rng: np.random.Generator) -> Tour:
    return Tour(tuple(int(i) for i in rng.permutation(n)))


def rls_optimize(instance: TourInstance, config: RlsConfig) -> RlsResult:
    """Randomized local search: accept a mutation whenever it is not worse.

    Runs exactly config.iterations mutations from a starting order drawn
    uniformly from the seeded stream.
    """
    rng = np.random.default_rng(config.seed)
    initial = random_tour(instance.n, rng)

    # Windows read the array; the scalar scan reads the same floats as lists.
    table_array = _distance_table(instance)
    table = table_array.tolist()
    delta, new_edges, move, deltas = _KERNELS[config.strategy]
    n = instance.n
    # Table nodes: the dog, the sheep in visiting order, the goal.
    path = [0, *(i + 1 for i in initial.order), n + 1]
    edges = [table[u][v] for u, v in zip(path, path[1:])]
    # totals[k] is the cost of the path up to path[k], one edge at a time.
    totals = list(accumulate(edges, initial=0.0))
    cost = initial_cost = totals[-1]

    # The trace is piecewise constant: it changes only where a candidate
    # is accepted, and accepted_at[i] is where costs[i] begins.
    accepted_at = [0]
    costs = [cost]
    if n >= 2:
        margin = _REJECT_MARGIN * cost
        quiet = 0  # how many of the latest candidates in a row scored above the margin
        pairs_a, pairs_b = _drawn_positions(rng, n, config.iterations)
        i = 0
        while i < config.iterations:
            if quiet >= _WINDOW_AFTER:
                i = _first_hit(deltas, table_array, path, pairs_a, pairs_b, i, margin)
                if i == config.iterations:
                    break
                # The scalar stretch below scores the hit again; quiet
                # counts from just before it, so the stretch runs on
                # _WINDOW_AFTER candidates past the hit.
                quiet = -1
            stop = min(config.iterations, i + _WINDOW_AFTER - quiet)
            last = i - 1 - quiet  # index of the latest hit
            for j, a, b in zip(range(i, stop), pairs_a[i:stop].tolist(), pairs_b[i:stop].tolist()):
                if delta(table, path, edges, a, b) <= margin:
                    last = j
                    # A move first changes the edge into order position a, so
                    # the candidate's sum goes on from the current total at path[a].
                    changed = new_edges(table, path, edges, a, b)
                    tail = list(accumulate(changed + edges[b + 2 :], initial=totals[a]))
                    if tail[-1] <= cost:
                        move(path, a, b)
                        edges[a : b + 2] = changed
                        totals[a:] = tail
                        cost = tail[-1]
                        margin = _REJECT_MARGIN * cost
                        accepted_at.append(j)
                        costs.append(cost)
            quiet = stop - 1 - last
            i = stop

    trace = np.repeat(costs, np.diff([*accepted_at, config.iterations]))
    trace.setflags(write=False)
    best_tour = Tour(tuple(node - 1 for node in path[1:-1]))
    return RlsResult(best_tour, cost, trace, initial, initial_cost)
