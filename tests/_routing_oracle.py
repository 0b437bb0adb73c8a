"""Reference tour search, kept for tests only.

`mutate` draws one position pair at a time with two scalar draws, so
`_reference_rls` in `test_routing.py` checks the package's one draw per
search against an independent stream, and `_path_cost` re-sums a full path
from the dog, apart from the package's running totals.
The three tuple moves build each mutated order from scratch, apart from
the package's in-place moves on its path list.
`brute_force_tour` is the exact optimum that the search must never beat.
"""
from __future__ import annotations

import itertools

import numpy as np

from sheepdog.routing import STRATEGIES, Tour, TourInstance, _distance_table

# Exhaustive search is only sane for small flocks.
BRUTE_FORCE_LIMIT = 10


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


_MOVES = {"reverse": reverse_segment, "exchange": exchange_positions, "jump": jump_insert}


def _path_cost(table: list[list[float]], order: tuple[int, ...]) -> float:
    """Full path sum, one edge at a time from the dog: the plain cost that
    the package's running totals must reproduce."""
    goal_node = len(table) - 1
    prev = order[0]
    total = table[0][prev + 1]
    for nxt in order[1:]:
        total += table[prev + 1][nxt + 1]
        prev = nxt
    return total + table[prev + 1][goal_node]


def tour_cost(tour: Tour, instance: TourInstance) -> float:
    """Length of the open path dog -> sheep in tour order -> goal."""
    if tour.n != instance.n:
        raise ValueError(f"tour over {tour.n} sheep does not match instance of {instance.n}")
    return _path_cost(_distance_table(instance).tolist(), tour.order)


def _draw_positions(rng: np.random.Generator, n: int) -> tuple[int, int]:
    # Uniform unordered pair of distinct positions, returned as a < b.
    a = int(rng.integers(n))
    b = int(rng.integers(n - 1))
    if b >= a:
        b += 1
    return (a, b) if a < b else (b, a)


def mutate(tour: Tour, strategy: str, rng: np.random.Generator) -> Tour:
    """One random mutation of tour; a single-sheep tour is returned unchanged."""
    if strategy not in _MOVES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    if tour.n < 2:
        return tour
    a, b = _draw_positions(rng, tour.n)
    return Tour(_MOVES[strategy](tour.order, a, b))


def brute_force_tour(instance: TourInstance) -> tuple[Tour, float]:
    """Exact optimum by enumeration; ties go to the lexicographically smallest order."""
    if instance.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force supports at most {BRUTE_FORCE_LIMIT} sheep, got {instance.n}")
    table = _distance_table(instance).tolist()
    best_order: tuple[int, ...] | None = None
    best_cost = np.inf
    for order in itertools.permutations(range(instance.n)):
        cost = _path_cost(table, order)
        if cost < best_cost:
            best_order = order
            best_cost = cost
    assert best_order is not None
    return Tour(best_order), best_cost
