"""Dog steering: target selection, the three-term control law, and approach."""
import numpy as np
import pytest

from sheepdog.dog import (
    DogParams,
    approach_velocity,
    dog_velocity,
    farthest_from,
    nearest_to_dog,
    steering_command,
)
from sheepdog.flock import FlockState

DEFAULTS = DogParams()


def make_state(sheep_pos, dog_pos):
    sheep_pos = np.asarray(sheep_pos, dtype=float)
    return FlockState(
        step=0,
        sheep_pos=sheep_pos,
        sheep_vel_prev=np.zeros_like(sheep_pos),
        dog_pos=np.asarray(dog_pos, dtype=float),
    )


# ----------------------------------------------------------------- selection

def test_farthest_from_picks_largest_distance():
    state = make_state([[1.0, 0.0], [-3.0, 0.0]], [0.0, 0.0])
    assert farthest_from(np.zeros(2), {0, 1}, state) == 1


def test_farthest_from_tie_goes_to_smallest_index():
    state = make_state([[5.0, 0.0], [0.0, 5.0]], [0.0, 0.0])
    assert farthest_from(np.zeros(2), {0, 1}, state) == 0


def test_nearest_to_dog_picks_smallest_distance():
    state = make_state([[1.0, 0.0], [2.0, 0.0]], [0.0, 0.0])
    assert nearest_to_dog({0, 1}, state) == 0


def test_nearest_to_dog_tie_goes_to_smallest_index():
    state = make_state([[0.0, 2.0], [2.0, 0.0]], [0.0, 0.0])
    assert nearest_to_dog({0, 1}, state) == 0


def test_singleton_candidate_sets():
    state = make_state([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [9.0, 9.0])
    assert farthest_from(np.zeros(2), {2}, state) == 2
    assert nearest_to_dog({2}, state) == 2


def test_selection_rejects_empty_and_out_of_range():
    state = make_state([[0.0, 0.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        farthest_from(np.zeros(2), set(), state)
    with pytest.raises(ValueError):
        nearest_to_dog(set(), state)
    with pytest.raises(IndexError):
        farthest_from(np.zeros(2), {0, 1}, state)


def test_selection_invariant_under_uniform_scaling():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        state = make_state(rng.normal(size=(n, 2)) * 40.0, rng.normal(size=2) * 40.0)
        point = rng.normal(size=2) * 40.0
        center = rng.normal(size=2) * 10.0
        scale = float(rng.uniform(0.1, 7.0))
        scaled = make_state(
            (state.sheep_pos - center) * scale + center,
            (state.dog_pos - center) * scale + center,
        )
        scaled_point = (point - center) * scale + center
        cand = set(range(n))
        assert farthest_from(point, cand, state) == farthest_from(scaled_point, cand, scaled)
        assert nearest_to_dog(cand, state) == nearest_to_dog(cand, scaled)


# ----------------------------------------------------------------- velocity

def test_dog_velocity_hand_value():
    # Attraction down, close-range repulsion up, goal repulsion up: (0, 4.5).
    state = make_state([[0.0, 0.0]], [0.0, 10.0])
    v = dog_velocity(state, DEFAULTS, tracked=0, nearest=0, repel_point=np.array([0.0, -10.0]))
    assert np.allclose(v, [0.0, 4.5], atol=1e-12)


def test_dog_velocity_zero_gains():
    state = make_state([[0.0, 0.0]], [0.0, 10.0])
    params = DogParams(k_attraction=0.0, k_repulsion=0.0, k_goal_repulsion=0.0)
    v = dog_velocity(state, params, tracked=0, nearest=0, repel_point=np.array([0.0, -10.0]))
    assert np.array_equal(v, np.zeros(2))


def test_dog_velocity_mirror_equivariance():
    state = make_state([[3.0, 1.0], [-2.0, 4.0]], [1.0, 7.0])
    mirrored = make_state(state.sheep_pos * [-1.0, 1.0], state.dog_pos * [-1.0, 1.0])
    repel = np.array([2.0, -5.0])
    v = dog_velocity(state, DEFAULTS, 0, 1, repel)
    v_m = dog_velocity(mirrored, DEFAULTS, 0, 1, repel * [-1.0, 1.0])
    assert np.allclose(v_m, v * [-1.0, 1.0], atol=1e-12)


def test_dog_velocity_rigid_motion_equivariance():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        state = make_state(rng.uniform(-50, 50, (n, 2)), rng.uniform(-50, 50, 2))
        repel = rng.uniform(-50, 50, 2)
        theta = rng.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        shift = rng.uniform(-30, 30, 2)
        moved = make_state(state.sheep_pos @ rot.T + shift, state.dog_pos @ rot.T + shift)
        tracked, nearest = 0, n - 1
        v = dog_velocity(state, DEFAULTS, tracked, nearest, repel)
        v_m = dog_velocity(moved, DEFAULTS, tracked, nearest, repel @ rot.T + shift)
        assert np.allclose(v_m, v @ rot.T, atol=1e-9)


def test_approach_velocity_hand_value():
    # Unit attraction to the target plus inverse-cube repulsion from the
    # nearest sheep: 10*(1,0) + 1000*(0,100)/100^3 = (10, 0.1).
    state = make_state([[0.0, -100.0]], [0.0, 0.0])
    v = approach_velocity(state, DEFAULTS, np.array([10.0, 0.0]))
    assert np.allclose(v, [10.0, 0.1], atol=1e-12)


def test_approach_velocity_pure_attraction_when_repulsion_off():
    state = make_state([[500.0, 500.0]], [0.0, 0.0])
    params = DogParams(k_repulsion=0.0)
    v = approach_velocity(state, params, np.array([0.0, 5.0]))
    assert np.allclose(v, [0.0, params.k_attraction], atol=1e-12)


def test_approach_velocity_at_target_uses_fallback_direction():
    state = make_state([[1000.0, 0.0]], [4.0, 4.0])
    v = approach_velocity(state, DEFAULTS, np.array([4.0, 4.0]))
    assert np.all(np.isfinite(v))


def test_steering_command_composes_selection_and_velocity():
    rng = np.random.default_rng(29)
    state = make_state(rng.uniform(-80, 80, (6, 2)), rng.uniform(-80, 80, 2))
    goal = np.zeros(2)
    cmd = steering_command(state, DEFAULTS, set(range(6)), goal)
    assert cmd.target_index == farthest_from(goal, set(range(6)), state)
    assert cmd.nearest_index == nearest_to_dog(set(range(6)), state)
    expected = dog_velocity(state, DEFAULTS, cmd.target_index, cmd.nearest_index, goal)
    assert np.allclose(cmd.v_d, expected, atol=1e-12)
    # Index arrays, sorted or not, select the same sheep as the set.
    for idx in (np.arange(6), np.array([5, 3, 3, 0, 1, 2, 4])):
        same = steering_command(state, DEFAULTS, idx, goal)
        assert (same.target_index, same.nearest_index) == (cmd.target_index, cmd.nearest_index)
        assert same.v_d.tobytes() == cmd.v_d.tobytes()
    with pytest.raises(IndexError):
        steering_command(state, DEFAULTS, np.arange(7), goal)


def test_params_validation():
    with pytest.raises(ValueError):
        DogParams(r_d=0.0)
    with pytest.raises(ValueError):
        DogParams(k_attraction=-1.0)
