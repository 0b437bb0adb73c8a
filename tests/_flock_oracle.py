"""Dense reference for the sheep update rule, kept for tests only.

`dense_flock_velocities` evaluates every (i, j) pair on (N, N, 2)
arrays and masks the non-neighbors to zero; `flock.flock_velocities`
must reproduce it bit for bit. It copies the state's arrays to C order
first, because its axis sums follow memory layout. `offsets` is the
reference for the package's distance rows: the pass of
`flock.sheep_offsets` and `flock.sheep_distances` must give its bits.
"""
from __future__ import annotations

import numpy as np

from sheepdog.flock import EPS, UNIT_X, FlockState, SheepParams


def offsets(pos: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Differences of every row of pos, shape (N, 2), from each point of
    points, shape (..., 2, 1), as shape (..., 2, N), and their distances,
    shape (..., N).

    The differences come out in one C-ordered array, so np.hypot reads a
    contiguous row per axis and point.
    """
    diff = np.subtract(pos.T, points, order="C")
    return diff, np.hypot(diff[..., 0, :], diff[..., 1, :])


def neighbor_set(i: int, state: FlockState, r_s: float) -> tuple[int, ...]:
    """Indices of sheep within r_s of sheep i (boundary inclusive), excluding i."""
    if not 0 <= i < state.n:
        raise IndexError(f"sheep index {i} out of range for flock of {state.n}")
    diff = state.sheep_pos - state.sheep_pos[i]
    dist = np.hypot(diff[:, 0], diff[:, 1])
    mask = dist <= r_s
    mask[i] = False
    return tuple(int(j) for j in np.nonzero(mask)[0])


def dense_flock_velocities(state: FlockState, params: SheepParams) -> np.ndarray:
    """Every sheep's velocity from masked sums over all N x N pairs."""
    pos = np.ascontiguousarray(state.sheep_pos)
    n = state.n

    diff = pos[None, :, :] - pos[:, None, :]  # diff[i, j] = x_j - x_i
    dist = np.hypot(diff[..., 0], diff[..., 1])
    neighbors = dist <= params.r_s
    np.fill_diagonal(neighbors, False)
    counts = neighbors.sum(axis=1)
    denom = np.maximum(counts, 1).astype(float)[:, None]

    clamped = np.maximum(dist, EPS)
    toward = diff / clamped[..., None]
    away = -toward
    coincident = (dist == 0.0)[..., None]
    if coincident.any():
        toward = np.where(coincident, UNIT_X, toward)
        away = np.where(coincident, UNIT_X, away)

    mask = neighbors[..., None]
    separation = (away / (clamped**2)[..., None] * mask).sum(axis=1) / denom
    cohesion = (toward * mask).sum(axis=1) / denom

    prev = np.ascontiguousarray(state.sheep_vel_prev)
    prev_norm = np.hypot(prev[:, 0], prev[:, 1])
    headings = np.zeros_like(prev)
    moving = prev_norm >= EPS
    if moving.any():
        headings[moving] = prev[moving] / prev_norm[moving, None]
    alignment = (headings[None, :, :] * mask).sum(axis=1) / denom

    dog_diff = pos - state.dog_pos[None, :]
    dog_dist = np.hypot(dog_diff[:, 0], dog_diff[:, 1])
    dog_clamped = np.maximum(dog_dist, EPS)
    flee = dog_diff / dog_clamped[:, None]
    dog_coincident = (dog_dist == 0.0)[:, None]
    if dog_coincident.any():
        flee = np.where(dog_coincident, UNIT_X, flee)
    flight = flee / (dog_clamped**2)[:, None]

    return (
        params.k_separation * separation
        + params.k_alignment * alignment
        + params.k_cohesion * cohesion
        + params.k_flight * flight
    )


def sheep_velocity(i: int, state: FlockState, params: SheepParams) -> np.ndarray:
    """Velocity of sheep i for this step (row i of the dense kernel)."""
    if not 0 <= i < state.n:
        raise IndexError(f"sheep index {i} out of range for flock of {state.n}")
    return dense_flock_velocities(state, params)[i].copy()
