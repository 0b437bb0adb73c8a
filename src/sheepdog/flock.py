"""Discrete-time flocking dynamics for the sheep.

Each step a sheep blends four influences over its neighborhood: an
inverse-square push away from nearby flockmates, alignment with their
previous headings, a unit-vector pull toward them, and an inverse-square
flight response away from the dog. Velocities are applied directly, so a
sheep's displacement per step equals its velocity for that step.

The neighbor test runs over all N x N pairs, but the three neighborhood
terms are evaluated only for the P pairs inside r_s and summed per sheep
with one ``np.bincount``. That gives the same bits as summing masked
(N, N, 2) arrays along axis 1: both add each sheep's terms one at a time
in ascending neighbor order starting from +0, and the masked-out terms a
dense sum would add are exact zeros, which change no non-zero partial
sum and leave a zero sum at +0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vec import EPS, UNIT_X, as_point

# One bincount bin per (sheep, column) of the pair terms.
_TERM_COLUMNS = np.arange(6)


@dataclass(frozen=True)
class SheepParams:
    """Gains and sensing radius for the sheep update rule."""

    r_s: float = 20.0
    k_separation: float = 100.0
    k_alignment: float = 0.5
    k_cohesion: float = 2.0
    k_flight: float = 500.0

    def __post_init__(self) -> None:
        if self.r_s <= 0:
            raise ValueError("r_s must be positive")
        for name in ("k_separation", "k_alignment", "k_cohesion", "k_flight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True, eq=False)
class FlockState:
    """Snapshot of one step: sheep positions, their previous velocities, dog position."""

    step: int
    sheep_pos: np.ndarray
    sheep_vel_prev: np.ndarray
    dog_pos: np.ndarray

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError("step must be non-negative")
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
        self.dog_pos.setflags(write=False)

    @property
    def n(self) -> int:
        return self.sheep_pos.shape[0]


def flock_velocities(state: FlockState, params: SheepParams) -> np.ndarray:
    """Velocities for every sheep computed from the same state snapshot.

    Sheep with no neighbors get zero separation, alignment, and cohesion;
    the flight term away from the dog always applies. Distances in
    denominators are clamped below by EPS and an exactly coincident pair
    repels along +x.
    """
    pos = state.sheep_pos
    n = state.n

    x, y = pos[:, 0], pos[:, 1]
    dist = np.hypot(x - x[:, None], y - y[:, None])  # dist[i, j] = |x_j - x_i|
    neighbors = dist <= params.r_s
    np.fill_diagonal(neighbors, False)
    pairs = np.flatnonzero(neighbors)  # row-major: j ascends within each i
    i, j = np.divmod(pairs, n)
    denom = np.maximum(np.bincount(i, minlength=n), 1).astype(float)[:, None]

    pair_dist = dist.ravel()[pairs]
    clamped = np.maximum(pair_dist, EPS)[:, None]
    toward = (pos[j] - pos[i]) / clamped
    away = -toward
    coincident = (pair_dist == 0.0)[:, None]
    if coincident.any():
        toward = np.where(coincident, UNIT_X, toward)
        away = np.where(coincident, UNIT_X, away)

    prev = state.sheep_vel_prev
    prev_norm = np.hypot(prev[:, 0], prev[:, 1])
    headings = np.zeros_like(prev)
    moving = prev_norm >= EPS
    if moving.any():
        headings[moving] = prev[moving] / prev_norm[moving, None]

    # Columns: separation x/y, cohesion x/y, alignment x/y. bincount adds
    # each bin's weights in input order, so sheep i sums over j ascending.
    terms = np.hstack((away / clamped**2, toward, headings[j]))
    keys = (i[:, None] * 6 + _TERM_COLUMNS).ravel()
    sums = np.bincount(keys, weights=terms.ravel(), minlength=6 * n).reshape(n, 6)
    separation = sums[:, 0:2] / denom
    cohesion = sums[:, 2:4] / denom
    alignment = sums[:, 4:6] / denom

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


def step_flock(state: FlockState, params: SheepParams) -> FlockState:
    """Advance every sheep one step; the dog does not move here."""
    v = flock_velocities(state, params)
    return FlockState(
        step=state.step + 1,
        sheep_pos=state.sheep_pos + v,
        sheep_vel_prev=v,
        dog_pos=state.dog_pos,
    )
