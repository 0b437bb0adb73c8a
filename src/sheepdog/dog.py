"""Steering laws for the dog.

The drive law chases the candidate sheep farthest from a destination
while an inverse-square term keeps the dog off the nearest candidate's
back and a unit term pushes it away from the destination, so the dog
ends up herding from the far side. The approach law is the same chase
without the destination term, used to reach the first sheep of a tour.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .flock import FlockState
from .vec import clamped_norm, safe_unit


@dataclass(frozen=True)
class DogParams:
    """Gains for the dog update rule plus the first-contact radius r_d."""

    r_d: float = 30.0
    k_attraction: float = 10.0
    k_repulsion: float = 1000.0
    k_goal_repulsion: float = 4.5

    def __post_init__(self) -> None:
        if self.r_d <= 0:
            raise ValueError("r_d must be positive")
        for name in ("k_attraction", "k_repulsion", "k_goal_repulsion"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True, eq=False)
class SteeringCommand:
    v_d: np.ndarray
    target_index: int
    nearest_index: int


def _normalized_candidates(candidates: Iterable[int], n: int) -> np.ndarray:
    """Sorted distinct candidate indices as an int array, checked against n.

    A 1-D int array that is already strictly increasing, such as the one
    the guidance controller keeps per phase, is used as it is.
    """
    idx = candidates
    if not (
        isinstance(idx, np.ndarray)
        and idx.dtype == int
        and idx.ndim == 1
        and np.all(idx[1:] > idx[:-1])
    ):
        idx = np.asarray(sorted(set(int(c) for c in candidates)), dtype=int)
    if idx.size == 0:
        raise ValueError("candidate set must not be empty")
    if idx[0] < 0 or idx[-1] >= n:
        raise IndexError(f"candidate index out of range for flock of {n}")
    return idx


def _farthest(idx: np.ndarray, point: np.ndarray, state: FlockState) -> int:
    diff = state.sheep_pos[idx] - point
    dist = np.hypot(diff[:, 0], diff[:, 1])
    return int(idx[np.argmax(dist)])


def _nearest(idx: np.ndarray, state: FlockState) -> int:
    diff = state.sheep_pos[idx] - state.dog_pos
    dist = np.hypot(diff[:, 0], diff[:, 1])
    return int(idx[np.argmin(dist)])


def farthest_from(point: np.ndarray, candidates: Iterable[int], state: FlockState) -> int:
    """Candidate sheep farthest from point; ties go to the smallest index."""
    idx = _normalized_candidates(candidates, state.n)
    return _farthest(idx, np.asarray(point, dtype=float), state)


def nearest_to_dog(candidates: Iterable[int], state: FlockState) -> int:
    """Candidate sheep nearest the dog; ties go to the smallest index."""
    return _nearest(_normalized_candidates(candidates, state.n), state)


def dog_velocity(
    state: FlockState,
    params: DogParams,
    tracked: int,
    nearest: int,
    repel_point: np.ndarray,
) -> np.ndarray:
    """Drive velocity: chase tracked, stand off nearest, keep clear of repel_point."""
    dog = state.dog_pos
    attraction = safe_unit(state.sheep_pos[tracked] - dog)
    off_nearest = dog - state.sheep_pos[nearest]
    repulsion = safe_unit(off_nearest) / clamped_norm(off_nearest) ** 2
    away_from_point = safe_unit(dog - np.asarray(repel_point, dtype=float))
    return (
        params.k_attraction * attraction
        + params.k_repulsion * repulsion
        + params.k_goal_repulsion * away_from_point
    )


def approach_velocity(state: FlockState, params: DogParams, target: np.ndarray) -> np.ndarray:
    """Approach velocity toward target with the stand-off term over all sheep."""
    dog = state.dog_pos
    attraction = safe_unit(np.asarray(target, dtype=float) - dog)
    nearest = _nearest(np.arange(state.n), state)
    off_nearest = dog - state.sheep_pos[nearest]
    repulsion = safe_unit(off_nearest) / clamped_norm(off_nearest) ** 2
    return params.k_attraction * attraction + params.k_repulsion * repulsion


def steering_command(
    state: FlockState,
    params: DogParams,
    candidates: Iterable[int],
    destination: np.ndarray,
) -> SteeringCommand:
    """Select tracked and nearest candidates for destination, then steer.

    With all sheep as candidates and the goal as destination this is the
    classic farthest-agent-tracking drive.
    """
    idx = _normalized_candidates(candidates, state.n)
    destination = np.asarray(destination, dtype=float)
    tracked = _farthest(idx, destination, state)
    nearest = _nearest(idx, state)
    v = dog_velocity(state, params, tracked, nearest, destination)
    return SteeringCommand(v_d=v, target_index=tracked, nearest_index=nearest)
