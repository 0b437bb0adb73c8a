"""Vector reference for the dog's steering laws, kept for tests only.

These are the drive and approach laws written on numpy 2-vectors with
`safe_unit` and `clamped_norm`; `dog.steering_command` and
`dog.approach_velocity` must reproduce them bit for bit.
`candidate_index`, `distances_to`, `select`, `farthest_from`,
`nearest_to_dog` and `drive_with_picks` are not references: they build
the index array `steering_command` takes, measure with
`_flock_oracle.offsets`, call the package's own selection, and hand
`steering_command` rows that fix its picks, so tests can pick the sheep
that `steering_command` steers by and hand the laws their distance rows.

`batched_drive` and `batched_approach` are the laws on `(B,)` arrays, B
episodes of N sheep each, written as a lockstep engine would run them:
the picks by masked `argmax`/`argmin`, the unit vectors by `np.hypot`
and the stand-off square by `np.float_power(x, 2.0)`. Tests require them
to give each episode's scalar drive and approach bit for bit.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from _flock_oracle import offsets
from sheepdog.dog import DogParams, _pick, steering_command
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


def drive_with_picks(state: FlockState, params: DogParams, tracked: int, nearest: int,
                     repel_point) -> tuple[float, float]:
    """`steering_command` over every sheep, handed a row from the destination whose only
    maximum is at tracked and a row from the dog whose only minimum is at nearest: the drive
    that chases tracked, stands off nearest and keeps clear of repel_point."""
    to_dog, to_destination = np.zeros(state.n), np.zeros(state.n)
    to_dog[nearest], to_destination[tracked] = -1.0, 1.0
    return steering_command(state, params, None, np.asarray(repel_point, dtype=float), to_dog, to_destination)


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


def _units(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`dog._unit` on arrays: directions, zero legs along +x, and lengths clamped below by EPS."""
    length = np.hypot(x, y)
    clamped = np.maximum(length, EPS)
    zero = length == 0.0
    return np.where(zero, 1.0, x / clamped), np.where(zero, 0.0, y / clamped), clamped


def _stand_offs(params: DogParams, dog: np.ndarray, sheep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`dog._stand_off` on arrays: the (B, 2) dogs pushed away from one (B, 2) sheep each."""
    ux, uy, clamped = _units(dog[:, 0] - sheep[:, 0], dog[:, 1] - sheep[:, 1])
    square = np.float_power(clamped, 2.0)
    return params.k_repulsion * (ux / square), params.k_repulsion * (uy / square)


def batched_drive(dogs, sheep, params, candidates, destinations, to_dog, to_destination) -> np.ndarray:
    """(B, 2) drive velocities of B episodes: dogs and destinations (B, 2), sheep (B, N, 2),
    candidates a (B, N) mask, to_dog and to_destination (B, N) distance rows.

    The picks are masked argmax/argmin with the non-candidates at -inf/+inf, so ties go to
    the smallest index, as `dog._pick` breaks them. Where every candidate is +inf from the dog,
    the nearest pick is the first candidate, not a +inf filler before it.
    """
    rows = np.arange(len(dogs))
    tracked = np.where(candidates, to_destination, -np.inf).argmax(axis=1)
    masked = np.where(candidates, to_dog, np.inf)
    nearest = masked.argmin(axis=1)
    nearest = np.where(masked[rows, nearest] == np.inf, candidates.argmax(axis=1), nearest)
    ax, ay, _ = _units(sheep[rows, tracked, 0] - dogs[:, 0], sheep[rows, tracked, 1] - dogs[:, 1])
    rx, ry = _stand_offs(params, dogs, sheep[rows, nearest])
    gx, gy, _ = _units(dogs[:, 0] - destinations[:, 0], dogs[:, 1] - destinations[:, 1])
    ka, kg = params.k_attraction, params.k_goal_repulsion
    return np.stack((ka * ax + rx + kg * gx, ka * ay + ry + kg * gy), axis=1)


def batched_approach(dogs, sheep, params, targets, to_dog) -> np.ndarray:
    """(B, 2) approach velocities of B episodes toward their (B, 2) targets."""
    ax, ay, _ = _units(targets[:, 0] - dogs[:, 0], targets[:, 1] - dogs[:, 1])
    rx, ry = _stand_offs(params, dogs, sheep[np.arange(len(dogs)), to_dog.argmin(axis=1)])
    ka = params.k_attraction
    return np.stack((ka * ax + rx, ka * ay + ry), axis=1)
