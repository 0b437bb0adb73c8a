"""Initial flock placement and the pre-episode warm-up."""
from __future__ import annotations

import math

import numpy as np

from .flock import FlockState, NeighbourList, _count, _real, step_flock
from .scenario import ScenarioConfig, stream_seed


def placement_radius(n: int, rho: float) -> float:
    """Radius of the disk that holds n sheep at mean density rho."""
    _real("rho", rho, positive=True)
    return math.sqrt(_count("n", n, 1) / (math.pi * rho))


def initial_placement(config: ScenarioConfig, rng: np.random.Generator) -> FlockState:
    """Sheep sampled uniformly on the goal-centered disk, dog at its start.

    Radii use the sqrt transform so area density is uniform. Previous
    velocities start at zero.
    """
    n = config.n_sheep
    radius = placement_radius(n, config.rho)
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    pos = config.goal.center + np.column_stack((r * np.cos(theta), r * np.sin(theta)))
    return FlockState(
        sheep_pos=pos,
        sheep_vel_prev=np.zeros((n, 2)),
        dog_pos=config.dog_start,
    )


@np.errstate(over="ignore", invalid="ignore")  # sound for the reasons guidance._run_episode gives
def warmup(state: FlockState, params, steps: int) -> FlockState:
    """Let the flock settle for steps updates while the dog stands still.

    The steps share one neighbour list and are unchecked snapshots; the
    settled state is rebuilt through the checked constructor, which
    raises if any value turned non-finite on the way.
    """
    near = NeighbourList()
    for _ in range(_count("steps", steps)):
        state = step_flock(state, params, near)
    return FlockState(sheep_pos=state.sheep_pos, sheep_vel_prev=state.sheep_vel_prev, dog_pos=state.dog_pos)


def prepare_start_state(config: ScenarioConfig, *, base_seed: int, trial: int = 0) -> FlockState:
    """Place and warm up; planning and the episode both start from this settled state.

    The settled velocities are kept so the first episode step sees the
    same headings the warm-up ended with.
    """
    seed = stream_seed(base_seed, config.n_sheep, config.rho, trial, "placement")
    state = initial_placement(config, np.random.default_rng(seed))
    return warmup(state, config.sheep, config.warmup_steps)
