"""Sheep dynamics: neighbor sets, the four velocity terms, and step invariants."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _flock_oracle import dense_flock_velocities, neighbor_set, sheep_velocity
from sheepdog import flock, guidance
from sheepdog.flock import (
    FlockState,
    SheepParams,
    flock_velocities,
    step_flock,
)
from sheepdog.guidance import run_fat
from sheepdog.placement import prepare_start_state
from sheepdog.scenario import ScenarioConfig

DEFAULTS = SheepParams()


def make_state(sheep_pos, dog_pos, vel_prev=None, step=0):
    sheep_pos = np.asarray(sheep_pos, dtype=float)
    if vel_prev is None:
        vel_prev = np.zeros_like(sheep_pos)
    return FlockState(
        step=step,
        sheep_pos=sheep_pos,
        sheep_vel_prev=np.asarray(vel_prev, dtype=float),
        dog_pos=np.asarray(dog_pos, dtype=float),
    )


def random_state(rng, n=8, spread=60.0):
    return make_state(
        rng.uniform(-spread, spread, size=(n, 2)),
        rng.uniform(-spread, spread, size=2),
        vel_prev=rng.normal(size=(n, 2)),
    )


# ---------------------------------------------------------------- neighbors

def test_neighbor_set_boundary_inclusive():
    state = make_state([[0.0, 0.0], [20.0, 0.0], [20.0 + 1e-6, 10.0]], [100.0, 100.0])
    assert neighbor_set(0, state, r_s=20.0) == (1,)


def test_neighbor_set_excludes_self_and_far_sheep():
    state = make_state([[0.0, 0.0], [5.0, 0.0], [100.0, 0.0]], [50.0, 50.0])
    assert neighbor_set(0, state, r_s=20.0) == (1,)
    assert neighbor_set(2, state, r_s=20.0) == ()


def test_neighbor_set_rejects_bad_index():
    state = make_state([[0.0, 0.0]], [1.0, 1.0])
    with pytest.raises(IndexError):
        neighbor_set(1, state, r_s=20.0)
    with pytest.raises(IndexError):
        neighbor_set(-1, state, r_s=20.0)


# ---------------------------------------------------------- velocity values

def test_lone_sheep_flees_dog():
    # Flight magnitude at distance 10 is K_s4 / 100 = 5, pointing away.
    state = make_state([[0.0, 0.0]], [0.0, 10.0])
    v = flock_velocities(state, DEFAULTS)[0]
    assert np.allclose(v, [0.0, -5.0], atol=1e-12)


def test_lone_sheep_zero_flight_gain_is_still():
    state = make_state([[0.0, 0.0]], [0.0, 10.0])
    params = SheepParams(k_flight=0.0)
    assert np.array_equal(flock_velocities(state, params)[0], np.zeros(2))


def test_two_sheep_separation_cohesion_and_weak_flight():
    # Neighbor at distance 10: separation 100/100 pushes away, cohesion 2
    # pulls toward, net (1, 0). The dog 1000 away adds 500/1000^2 downward.
    state = make_state([[0.0, 0.0], [10.0, 0.0]], [0.0, 1000.0])
    v = flock_velocities(state, DEFAULTS)[0]
    assert np.allclose(v, [1.0, -5.0e-4], atol=1e-12)


def test_alignment_averages_previous_step_headings():
    state = make_state(
        [[0.0, 0.0], [10.0, 0.0]],
        [1000.0, 1000.0],
        vel_prev=[[0.0, 0.0], [3.0, 4.0]],
    )
    params = SheepParams(k_separation=0.0, k_cohesion=0.0, k_flight=0.0, k_alignment=0.5)
    v = flock_velocities(state, params)[0]
    assert np.allclose(v, [0.5 * 0.6, 0.5 * 0.8], atol=1e-12)


def test_alignment_skips_zero_norm_neighbors_but_counts_them():
    # Two neighbors, one still: the average divides by |S| = 2 regardless.
    state = make_state(
        [[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]],
        [1000.0, 1000.0],
        vel_prev=[[0.0, 0.0], [2.0, 0.0], [0.0, 0.0]],
    )
    params = SheepParams(k_separation=0.0, k_cohesion=0.0, k_flight=0.0, k_alignment=1.0)
    v = flock_velocities(state, params)[0]
    assert np.allclose(v, [0.5, 0.0], atol=1e-12)


def test_empty_neighborhood_with_zero_flight_gain_is_exactly_zero():
    state = make_state([[0.0, 0.0], [500.0, 0.0]], [300.0, 300.0])
    params = SheepParams(k_flight=0.0)
    assert np.array_equal(flock_velocities(state, params)[0], np.zeros(2))


def test_flock_velocities_matches_per_sheep_evaluation():
    rng = np.random.default_rng(11)
    state = random_state(rng, n=12)
    vel = flock_velocities(state, DEFAULTS)
    for i in range(12):
        assert vel[i].tobytes() == sheep_velocity(i, state, DEFAULTS).tobytes()


# ------------------------------------------------- sparse kernel = dense oracle

R_S = 20.0
_coordinate = st.one_of(
    st.integers(-3, 3).map(lambda k: k * R_S),  # lattice: pairs at exactly r_s
    st.floats(-60.0, 60.0),
)
_point = st.tuples(_coordinate, _coordinate)
_velocity_component = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0))
_gain = st.one_of(st.just(0.0), st.floats(0.0, 1000.0))


@st.composite
def flocks(draw):
    n = draw(st.integers(1, 40))
    # Fewer distinct points than sheep puts several sheep on one spot.
    points = draw(st.lists(_point, min_size=1, max_size=n))
    pos = draw(st.lists(st.sampled_from(points), min_size=n, max_size=n))
    vel = draw(st.lists(st.tuples(_velocity_component, _velocity_component), min_size=n, max_size=n))
    dog = draw(st.one_of(st.sampled_from(pos), _point))
    params = SheepParams(R_S, *(draw(_gain) for _ in range(4)))
    return make_state(pos, dog, vel_prev=vel), params


# Values of flock._BOX_MIN_N that send every flock down the box path and
# down the dense path of the neighbour search.
BOTH_PAIR_SEARCHES = (1, 10**9)


@settings(max_examples=300, deadline=None)
@given(flocks())
def test_flock_velocities_are_bitwise_the_dense_oracle(flock_and_params):
    state, params = flock_and_params
    fortran = make_state(
        np.asfortranarray(state.sheep_pos), state.dog_pos, vel_prev=np.asfortranarray(state.sheep_vel_prev)
    )
    for box_min_n in BOTH_PAIR_SEARCHES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flock, "_BOX_MIN_N", box_min_n)
            assert flock_velocities(state, params).flags.c_contiguous
            for layout in (state, fortran):
                velocities = flock_velocities(layout, params)
                assert velocities.tobytes() == dense_flock_velocities(layout, params).tobytes()


def test_both_pair_searches_skip_non_finite_pairs(monkeypatch):
    # Sheep 0 and 1 are the only finite pair within r_s; every other pair
    # has an inf or nan difference.
    x = np.array([0.0, 5.0, np.inf, -np.inf, np.nan, 10.0, np.inf])
    y = np.array([0.0, 5.0, 0.0, np.inf, 1.0, np.nan, np.inf])
    found = []
    for box_min_n in BOTH_PAIR_SEARCHES:
        monkeypatch.setattr(flock, "_BOX_MIN_N", box_min_n)
        with np.errstate(invalid="ignore"):
            pairs = flock._neighbour_pairs(x, y, R_S)
        assert pairs[0].tolist() == [1, 7]  # (0, 1) and (1, 0), row-major
        found.append([a.tobytes() for a in pairs])
    assert found[0] == found[1]


def test_large_fat_episode_is_bitwise_the_dense_oracle(monkeypatch):
    cfg = ScenarioConfig(n_sheep=100, rho=0.0012, horizon=200)

    def episode():
        start = prepare_start_state(cfg, base_seed=0)
        return start, run_fat(cfg, start)

    sparse_start, sparse = episode()
    monkeypatch.setattr(flock, "flock_velocities", dense_flock_velocities)
    monkeypatch.setattr(guidance, "flock_velocities", dense_flock_velocities)
    dense_start, dense = episode()
    assert sparse_start.sheep_pos.tobytes() == dense_start.sheep_pos.tobytes()
    assert sparse.k_end == dense.k_end
    assert sparse.sheep_traces.tobytes() == dense.sheep_traces.tobytes()
    assert sparse.dog_trace.tobytes() == dense.dog_trace.tobytes()
    assert sparse.total_distance == dense.total_distance


# ------------------------------------------------------------------ stepping

def test_step_applies_velocity_to_positions():
    state = make_state([[0.0, 0.0]], [0.0, 10.0])
    nxt = step_flock(state, DEFAULTS)
    assert nxt.step == 1
    assert np.allclose(nxt.sheep_pos[0], [0.0, -5.0], atol=1e-12)
    assert np.allclose(nxt.sheep_vel_prev[0], [0.0, -5.0], atol=1e-12)
    assert np.array_equal(nxt.dog_pos, state.dog_pos)


def test_lone_sheep_without_flight_is_a_fixpoint():
    state = make_state([[3.0, 4.0]], [50.0, 50.0])
    params = SheepParams(k_flight=0.0)
    for _ in range(5):
        state = step_flock(state, params)
    assert np.array_equal(state.sheep_pos[0], [3.0, 4.0])


def test_step_is_deterministic():
    rng = np.random.default_rng(23)
    state = random_state(rng)
    a = step_flock(state, DEFAULTS)
    b = step_flock(state, DEFAULTS)
    assert np.array_equal(a.sheep_pos, b.sheep_pos)
    assert np.array_equal(a.sheep_vel_prev, b.sheep_vel_prev)


def test_permutation_equivariance():
    rng = np.random.default_rng(31)
    state = random_state(rng, n=9)
    perm = rng.permutation(9)
    permuted = make_state(
        state.sheep_pos[perm], state.dog_pos, vel_prev=state.sheep_vel_prev[perm]
    )
    direct = step_flock(state, DEFAULTS).sheep_pos[perm]
    relabeled = step_flock(permuted, DEFAULTS).sheep_pos
    assert np.allclose(direct, relabeled, atol=1e-12)


def test_isometry_equivariance():
    rng = np.random.default_rng(43)
    for reflect in (False, True):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        if reflect:
            rot = rot @ np.array([[1.0, 0.0], [0.0, -1.0]])
        shift = rng.uniform(-100.0, 100.0, size=2)
        state = random_state(rng, n=10)
        moved = make_state(
            state.sheep_pos @ rot.T + shift,
            state.dog_pos @ rot.T + shift,
            vel_prev=state.sheep_vel_prev @ rot.T,
        )
        expected = step_flock(state, DEFAULTS).sheep_pos @ rot.T + shift
        actual = step_flock(moved, DEFAULTS).sheep_pos
        assert np.allclose(actual, expected, atol=1e-9)


def test_outputs_stay_finite_under_crowded_fuzzing():
    rng = np.random.default_rng(57)
    for _ in range(300):
        n = int(rng.integers(1, 15))
        state = make_state(
            rng.uniform(-5.0, 5.0, size=(n, 2)),
            rng.uniform(-5.0, 5.0, size=2),
            vel_prev=rng.normal(size=(n, 2)),
        )
        assert np.all(np.isfinite(flock_velocities(state, DEFAULTS)))


def test_coincident_dog_and_sheep_stays_finite():
    state = make_state([[1.0, 1.0]], [1.0, 1.0])
    v = flock_velocities(state, DEFAULTS)[0]
    assert np.all(np.isfinite(v))
    assert v[0] > 0.0 and v[1] == 0.0  # fallback repulsion points along +x


def test_params_validation():
    with pytest.raises(ValueError):
        SheepParams(r_s=-1.0)
    with pytest.raises(ValueError):
        SheepParams(k_separation=-0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="r_s must be positive and finite"):
            SheepParams(r_s=bad)
        with pytest.raises(ValueError, match="k_flight must be non-negative and finite"):
            SheepParams(k_flight=bad)
