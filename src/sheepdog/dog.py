"""Steering laws for the dog.

The drive law chases the candidate sheep farthest from a destination
while an inverse-square term keeps the dog off the nearest candidate's
back and a unit term pushes it away from the destination, so the dog
ends up herding from the far side. The approach law is the same chase
without the destination term, used to reach the first sheep of a tour.
Both take every sheep's distance to the dog, and the drive its distance
to the destination, as rows the episode loop computes once per state;
the drive's candidates come as the tour prefix, built once per phase.

The laws compute on Python floats and return two of them, which costs
far less per step than numpy 2-vectors and gives the same bits: a
length is abs(complex(x, y)), the C library's hypot that np.hypot also
calls (math.hypot rounds differently), and the stand-off square is
float ** 2, the C library's pow that numpy's scalar power also calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flock import EPS, FlockState


@dataclass(frozen=True)
class DogParams:
    """Gains for the dog update rule plus the first-contact radius r_d."""

    r_d: float = 30.0
    k_attraction: float = 10.0
    k_repulsion: float = 1000.0
    k_goal_repulsion: float = 4.5

    def __post_init__(self) -> None:
        if not 0 < self.r_d < math.inf:
            raise ValueError("r_d must be positive and finite")
        for name in ("k_attraction", "k_repulsion", "k_goal_repulsion"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")


def _pick(dist: np.ndarray, idx: np.ndarray | None, farthest: bool) -> int:
    """Candidate with the largest (or smallest) of the per-sheep distances
    dist; ties go to the smallest index."""
    if idx is not None:
        dist = dist.take(idx)
    k = int(dist.argmax() if farthest else dist.argmin())
    return k if idx is None else int(idx[k])


def _length(x: float, y: float) -> float:
    """Length of (x, y) as np.hypot gives it: inf where it overflows."""
    try:
        return abs(complex(x, y))
    except OverflowError:  # finite legs whose hypot exceeds the largest float
        return math.inf


def _unit(x: float, y: float) -> tuple[float, float, float]:
    """Direction of (x, y) and its length clamped below by EPS; zero points along +x."""
    length = _length(x, y)
    clamped = max(length, EPS)
    if length == 0.0:
        return 1.0, 0.0, clamped
    return x / clamped, y / clamped, clamped


def _stand_off(params: DogParams, dog: list[float], sheep: list[float]) -> tuple[float, float]:
    """Inverse-square push of the dog away from one sheep."""
    ux, uy, clamped = _unit(dog[0] - sheep[0], dog[1] - sheep[1])
    try:
        square = clamped**2
    except OverflowError:
        square = math.inf
    return params.k_repulsion * (ux / square), params.k_repulsion * (uy / square)


def dog_velocity(
    state: FlockState,
    params: DogParams,
    tracked: int,
    nearest: int,
    repel_point: np.ndarray,
) -> tuple[float, float]:
    """Drive velocity: chase tracked, stand off nearest, keep clear of repel_point."""
    dog = state.dog_pos.tolist()
    tx, ty = state.sheep_pos[tracked].tolist()
    px, py = repel_point.tolist()
    ax, ay, _ = _unit(tx - dog[0], ty - dog[1])
    rx, ry = _stand_off(params, dog, state.sheep_pos[nearest].tolist())
    gx, gy, _ = _unit(dog[0] - px, dog[1] - py)
    ka, kg = params.k_attraction, params.k_goal_repulsion
    return ka * ax + rx + kg * gx, ka * ay + ry + kg * gy


def approach_velocity(
    state: FlockState, params: DogParams, target: np.ndarray, to_dog: np.ndarray
) -> tuple[float, float]:
    """Approach velocity toward target with the stand-off term over all sheep.

    to_dog holds every sheep's distance to the dog in this state.
    """
    dog = state.dog_pos.tolist()
    tx, ty = target.tolist()
    ax, ay, _ = _unit(tx - dog[0], ty - dog[1])
    nearest = int(to_dog.argmin())
    rx, ry = _stand_off(params, dog, state.sheep_pos[nearest].tolist())
    ka = params.k_attraction
    return ka * ax + rx, ka * ay + ry


def steering_command(
    state: FlockState,
    params: DogParams,
    idx: np.ndarray | None,
    destination: np.ndarray,
    to_dog: np.ndarray,
    to_destination: np.ndarray,
) -> tuple[float, float]:
    """Drive velocity: track the candidate farthest from destination, stand off the one nearest the dog.

    idx must be sorted and distinct (it is not checked), or None for every
    sheep; with idx None and the goal as destination this is the classic
    farthest-agent-tracking drive. to_dog and to_destination hold
    every sheep's distance to the dog and to destination in this state.
    """
    tracked = _pick(to_destination, idx, True)
    nearest = _pick(to_dog, idx, False)
    return dog_velocity(state, params, tracked, nearest, destination)
