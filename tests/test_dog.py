"""Dog steering: target selection, the three-term control law, and approach."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import _dog_oracle as oracle
from _dog_oracle import drive_with_picks, farthest_from, nearest_to_dog
from sheepdog.dog import DogParams, approach_velocity, steering_command
from sheepdog.flock import EPS, FlockState

DEFAULTS = DogParams()


def to_dog(state):
    return oracle.distances_to(state, state.dog_pos)


def make_state(sheep_pos, dog_pos):
    sheep_pos = np.asarray(sheep_pos, dtype=float)
    return FlockState(
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
    v = drive_with_picks(state, DEFAULTS, tracked=0, nearest=0, repel_point=np.array([0.0, -10.0]))
    assert np.allclose(v, [0.0, 4.5], atol=1e-12)


def test_dog_velocity_zero_gains():
    state = make_state([[0.0, 0.0]], [0.0, 10.0])
    params = DogParams(k_attraction=0.0, k_repulsion=0.0, k_goal_repulsion=0.0)
    v = drive_with_picks(state, params, tracked=0, nearest=0, repel_point=np.array([0.0, -10.0]))
    assert np.array_equal(v, np.zeros(2))


def test_dog_velocity_mirror_equivariance():
    state = make_state([[3.0, 1.0], [-2.0, 4.0]], [1.0, 7.0])
    mirrored = make_state(state.sheep_pos * [-1.0, 1.0], state.dog_pos * [-1.0, 1.0])
    repel = np.array([2.0, -5.0])
    v = drive_with_picks(state, DEFAULTS, 0, 1, repel)
    v_m = drive_with_picks(mirrored, DEFAULTS, 0, 1, repel * [-1.0, 1.0])
    assert np.allclose(v_m, np.array(v) * [-1.0, 1.0], atol=1e-12)


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
        v = drive_with_picks(state, DEFAULTS, tracked, nearest, repel)
        v_m = drive_with_picks(moved, DEFAULTS, tracked, nearest, repel @ rot.T + shift)
        assert np.allclose(v_m, v @ rot.T, atol=1e-9)


def test_approach_velocity_hand_value():
    # Unit attraction to the target plus inverse-cube repulsion from the
    # nearest sheep: 10*(1,0) + 1000*(0,100)/100^3 = (10, 0.1).
    state = make_state([[0.0, -100.0]], [0.0, 0.0])
    v = approach_velocity(state, DEFAULTS, np.array([10.0, 0.0]), to_dog(state))
    assert np.allclose(v, [10.0, 0.1], atol=1e-12)


def test_approach_velocity_pure_attraction_when_repulsion_off():
    state = make_state([[500.0, 500.0]], [0.0, 0.0])
    params = DogParams(k_repulsion=0.0)
    v = approach_velocity(state, params, np.array([0.0, 5.0]), to_dog(state))
    assert np.allclose(v, [0.0, params.k_attraction], atol=1e-12)


def test_approach_velocity_at_target_uses_fallback_direction():
    state = make_state([[1000.0, 0.0]], [4.0, 4.0])
    v = approach_velocity(state, DEFAULTS, np.array([4.0, 4.0]), to_dog(state))
    assert np.all(np.isfinite(v))


def test_steering_command_composes_selection_and_velocity():
    rng = np.random.default_rng(29)
    state = make_state(rng.uniform(-80, 80, (6, 2)), rng.uniform(-80, 80, 2))
    goal = np.zeros(2)
    rows = to_dog(state), oracle.distances_to(state, goal)
    v = steering_command(state, DEFAULTS, None, goal, *rows)
    tracked = farthest_from(goal, set(range(6)), state)
    nearest = nearest_to_dog(set(range(6)), state)
    # The set of all sheep skips the indexing; an explicit index array
    # must select the same two sheep.
    idx = np.arange(6)
    assert oracle.select(state, idx, goal.tolist(), True) == tracked
    assert oracle.select(state, idx, state.dog_pos.tolist(), False) == nearest
    expected = drive_with_picks(state, DEFAULTS, tracked, nearest, goal)
    assert np.array(v).tobytes() == np.array(expected).tobytes()
    # The explicit array of every index steers as None does.
    assert np.array(steering_command(state, DEFAULTS, idx, goal, *rows)).tobytes() == np.array(v).tobytes()


# ------------------------------------------------- float laws = vector oracle

_coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 10.0, -10.0]),  # shared values give +-0 offsets
    st.floats(-1e-8, 1e-8),  # lengths below EPS
    st.floats(-200.0, 200.0),
)
_point = st.tuples(_coordinate, _coordinate)
_gain = st.one_of(st.just(0.0), st.floats(0.0, 2000.0))


@st.composite
def steering_cases(draw, n=None, params=None):
    n = draw(st.integers(1, 12)) if n is None else n
    points = draw(st.lists(_point, min_size=1, max_size=n))
    pos = draw(st.lists(st.sampled_from(points), min_size=n, max_size=n))
    destination = draw(st.one_of(_point, st.sampled_from(pos)))
    dog = draw(st.one_of(_point, st.sampled_from(pos), st.just(destination)))
    destination = draw(st.one_of(st.just(destination), st.just(dog)))
    params = DogParams(30.0, draw(_gain), draw(_gain), draw(_gain)) if params is None else params
    candidates = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    tracked, nearest = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    return make_state(pos, dog), params, candidates, np.array(destination), tracked, nearest


# math.hypot(3.6, 20.8) and 31.086 * 31.086 each miss C's hypot and pow by an ulp.
ULP_MISS = (make_state([[-31.086, 0.0]], [0.0, 0.0]), DEFAULTS, [0], np.array([-3.6, -20.8]), 0, 0)
# The dog stands exactly on a sheep: a zero leg, which points along +x.
ON_A_SHEEP = (make_state([[10.0, -10.0], [3.0, 4.0]], [10.0, -10.0]), DEFAULTS, [0, 1], np.array([0.0, 0.0]), 0, 0)
# Subnormal legs, to the sheep and to the destination.
SUBNORMAL_LEGS = (make_state([[0.0, 0.0], [1e-310, -2e-310]], [5e-324, 5e-324]), DEFAULTS, [0, 1],
                  np.array([-1e-320, 0.0]), 1, 0)
# The stand-off square of 1e200 overflows to inf, and so does the
# length of (1.5e308, 1.5e308); numpy gives inf for both.
HUGE = [make_state([[0.0, 0.0]], [1e200, 0.0]), make_state([[-1.5e308, 0.0]], [0.0, 1.5e308])]
# The one candidate, sheep 1, is +inf from the dog, and sheep 0, not a candidate, is 1 from it:
# the nearest pick is sheep 1, not the +inf filler at index 0.
INF_CANDIDATE = (make_state([[1.0, 1.5e308], [-1.5e308, 0.0]], [0.0, 1.5e308]), DEFAULTS, [1], np.zeros(2), 0, 0)


@settings(max_examples=400, deadline=None)
@given(steering_cases())
@example(ULP_MISS)
@example(ON_A_SHEEP)
@example(SUBNORMAL_LEGS)
def test_steering_laws_are_bitwise_the_vector_oracle(case):
    state, params, candidates, destination, tracked, nearest = case
    idx = np.array(sorted(set(candidates)))
    v_ref, tracked_ref, nearest_ref = oracle.steering(state, params, idx, destination)
    checked = oracle.candidate_index(candidates, state.n)
    assert oracle.select(state, checked, destination.tolist(), True) == tracked_ref
    assert oracle.select(state, checked, state.dog_pos.tolist(), False) == nearest_ref
    rows = to_dog(state), oracle.distances_to(state, destination)
    assert np.array(steering_command(state, params, checked, destination, *rows)).tobytes() == v_ref.tobytes()
    assert (
        np.array(drive_with_picks(state, params, tracked, nearest, destination)).tobytes()
        == oracle.dog_velocity(state, params, tracked, nearest, destination).tobytes()
    )
    assert (
        np.array(approach_velocity(state, params, destination, rows[0])).tobytes()
        == oracle.approach_velocity(state, params, destination).tobytes()
    )


def test_huge_distances_overflow_like_the_vector_oracle():
    for state in HUGE:
        with np.errstate(over="ignore", invalid="ignore"):
            approach = approach_velocity(state, DEFAULTS, np.zeros(2), to_dog(state))
            approach_ref = oracle.approach_velocity(state, DEFAULTS, np.zeros(2))
            drive = drive_with_picks(state, DEFAULTS, 0, 0, np.zeros(2))
            drive_ref = oracle.dog_velocity(state, DEFAULTS, 0, 0, np.zeros(2))
        assert np.array(approach).tobytes() == approach_ref.tobytes()
        assert np.array(drive).tobytes() == drive_ref.tobytes()


def assert_batch_is_the_scalar_laws(cases):
    """The (B,) laws give each episode's steering_command and approach_velocity bit for bit."""
    states = [case[0] for case in cases]
    params, n = cases[0][1], states[0].n
    dogs = np.array([state.dog_pos for state in states])
    sheep = np.array([state.sheep_pos for state in states])
    destinations = np.array([case[3] for case in cases])
    candidates = np.zeros((len(cases), n), dtype=bool)
    for b, case in enumerate(cases):
        candidates[b, case[2]] = True
    to_dogs = np.array([to_dog(state) for state in states])
    to_destinations = np.array([oracle.distances_to(state, d) for state, d in zip(states, destinations)])
    drive = oracle.batched_drive(dogs, sheep, params, candidates, destinations, to_dogs, to_destinations)
    approach = oracle.batched_approach(dogs, sheep, params, destinations, to_dogs)
    for b, (state, _, picked, destination, _, _) in enumerate(cases):
        idx = oracle.candidate_index(picked, n)
        v = steering_command(state, params, idx, destination, to_dogs[b], to_destinations[b])
        assert np.array(v).tobytes() == drive[b].tobytes()
        v = approach_velocity(state, params, destination, to_dogs[b])
        assert np.array(v).tobytes() == approach[b].tobytes()


@st.composite
def batched_steering_cases(draw):
    """Two to six episodes of one flock size and one set of gains, each with its own candidates."""
    n = draw(st.integers(1, 12))
    params = DogParams(30.0, draw(_gain), draw(_gain), draw(_gain))
    return draw(st.lists(steering_cases(n, params), min_size=2, max_size=6))


def _with_candidates(case, candidates):
    return (case[0], case[1], candidates, *case[3:])


@settings(max_examples=300, deadline=None)
@given(batched_steering_cases())
@example([ULP_MISS, ULP_MISS])
@example([ON_A_SHEEP, SUBNORMAL_LEGS, _with_candidates(ON_A_SHEEP, [1]), _with_candidates(SUBNORMAL_LEGS, [0])])
def test_batched_laws_are_bitwise_the_scalar_laws(cases):
    assert_batch_is_the_scalar_laws(cases)


def test_batched_laws_overflow_like_the_scalar_laws():
    with np.errstate(over="ignore", invalid="ignore"):
        assert_batch_is_the_scalar_laws([(state, DEFAULTS, [0], np.zeros(2), 0, 0) for state in HUGE])
        assert_batch_is_the_scalar_laws([INF_CANDIDATE, _with_candidates(INF_CANDIDATE, [0, 1])])


def test_float_power_squares_as_the_laws_pow_does():
    # The stand-off square is float ** 2, C's pow; np.float_power calls the
    # same pow, where np.power(x, 2.0) is x * x. A numpy or libm whose loop
    # rounds apart fails here before any batched law could use it.
    rng = np.random.default_rng(0)
    x = np.concatenate((10.0 ** rng.uniform(-304.0, 304.0, 200_000), [EPS, 1e154, 1.4e154, 1e200, 5e-324, 0.0]))
    with np.errstate(over="ignore"):
        got = np.float_power(x, 2.0)

    def square(v):
        try:
            return v**2
        except OverflowError:
            return math.inf

    want = np.array([square(v) for v in x.tolist()])
    assert np.isinf(got).any() and (got == 0.0).any()
    assert got.tobytes() == want.tobytes()


def test_params_validation():
    with pytest.raises(ValueError):
        DogParams(r_d=0.0)
    with pytest.raises(ValueError):
        DogParams(k_attraction=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="r_d must be positive and finite"):
            DogParams(r_d=bad)
        with pytest.raises(ValueError, match="k_repulsion must be non-negative and finite"):
            DogParams(k_repulsion=bad)
