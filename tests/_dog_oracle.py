"""Vector reference for the dog's steering laws, kept for tests only.

These are the drive and approach laws written on numpy 2-vectors with
`safe_unit` and `clamped_norm`; `dog.steering_command`,
`dog.dog_velocity` and `dog.approach_velocity` must reproduce them bit
for bit. `candidate_index`, `distances_to`, `select`, `farthest_from`
and `nearest_to_dog` are not references: they build the index array
`steering_command` takes, measure with `_flock_oracle.offsets` and
call the package's own selection, so tests can pick the sheep that
`steering_command` steers by and hand the laws their distance rows.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from _flock_oracle import offsets
from sheepdog.dog import DogParams, _pick
from sheepdog.flock import EPS, UNIT_X, FlockState


def candidate_index(candidates: Iterable[int], n: int) -> np.ndarray | None:
    """Sorted distinct indices as `steering_command` takes them, or None
    when they are every one of the n sheep. Nothing is range-checked."""
    idx = np.array(sorted(set(int(c) for c in candidates)), dtype=int)
    return None if idx.tolist() == list(range(n)) else idx


def distances_to(state: FlockState, point) -> np.ndarray:
    """Every sheep's distance to point, as the episode loop hands it to the dog's laws."""
    return offsets(state.sheep_pos, np.reshape(np.asarray(point, dtype=float), (2, 1)))[1]


def select(state: FlockState, idx: np.ndarray | None, point, farthest: bool) -> int:
    """Candidate farthest from (or nearest to) point; ties go to the smallest index."""
    return _pick(distances_to(state, point), idx, farthest)


def farthest_from(point: np.ndarray, candidates: Iterable[int], state: FlockState) -> int:
    """Candidate sheep farthest from point; ties go to the smallest index."""
    return select(state, candidate_index(candidates, state.n), point, True)


def nearest_to_dog(candidates: Iterable[int], state: FlockState) -> int:
    """Candidate sheep nearest the dog; ties go to the smallest index."""
    return select(state, candidate_index(candidates, state.n), state.dog_pos, False)


def safe_unit(v: np.ndarray) -> np.ndarray:
    """Direction of v. Exactly coincident endpoints fall back to +x."""
    n = np.hypot(v[0], v[1])
    if n == 0.0:
        return UNIT_X.copy()
    return v / max(n, EPS)


def clamped_norm(v: np.ndarray) -> float:
    return max(np.hypot(v[0], v[1]), EPS)


def _nearest(idx: np.ndarray, state: FlockState) -> int:
    diff = state.sheep_pos[idx] - state.dog_pos
    return int(idx[np.argmin(np.hypot(diff[:, 0], diff[:, 1]))])


def _farthest(idx: np.ndarray, point: np.ndarray, state: FlockState) -> int:
    diff = state.sheep_pos[idx] - point
    return int(idx[np.argmax(np.hypot(diff[:, 0], diff[:, 1]))])


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


def steering(
    state: FlockState,
    params: DogParams,
    candidates: np.ndarray,
    destination: np.ndarray,
) -> tuple[np.ndarray, int, int]:
    """(v_d, tracked, nearest) for sorted distinct candidate indices."""
    destination = np.asarray(destination, dtype=float)
    tracked = _farthest(candidates, destination, state)
    nearest = _nearest(candidates, state)
    return dog_velocity(state, params, tracked, nearest, destination), tracked, nearest
