"""Sheep dynamics: neighbor sets, the four velocity terms, and step invariants;
planar helpers: point validation, and the oracle's norms and coincident-point fallback."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _dog_oracle import clamped_norm, safe_unit
from _flock_oracle import dense_flock_velocities, neighbor_set, offsets, sheep_velocity
from _recorder import Recorder
from sheepdog import flock, guidance
from sheepdog.experiments import run_trial
from sheepdog.flock import (
    _REBUILD_MOVE,
    EPS,
    UNIT_X,
    FlockState,
    NeighbourList,
    SheepParams,
    as_point,
    flock_velocities,
    pass_points,
    sheep_distances,
    sheep_offsets,
    step_flock,
)
from sheepdog.guidance import run_fat
from sheepdog.placement import prepare_start_state
from sheepdog.scenario import GoalSpec, ScenarioConfig

DEFAULTS = SheepParams()


def make_state(sheep_pos, dog_pos, vel_prev=None):
    sheep_pos = np.asarray(sheep_pos, dtype=float)
    if vel_prev is None:
        vel_prev = np.zeros_like(sheep_pos)
    return FlockState(
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


# Values of flock._LIST_MIN_N that send every flock down the neighbour
# list and down the dense path of the neighbour search.
BOTH_PAIR_SEARCHES = (1, 10**9)


# The flight term is the dog's separation entry times -k_flight. These pin
# its signs: a sheep on the dog must flee along +x, a -0.0 difference must
# keep its sign with a zero gain, and a square that overflows must give 0.
_K_FLIGHT_ZERO = SheepParams(R_S, 100.0, 0.5, 2.0, 0.0)
_NEIGHBOUR_GAINS_ZERO = SheepParams(R_S, 0.0, 0.0, 0.0, 500.0)


@settings(max_examples=300, deadline=None)
@given(flocks())
@example((make_state([[3.0, 4.0], [10.0, 4.0], [3.0, 30.0]], [3.0, 4.0]), DEFAULTS))
@example((make_state([[-0.0, 5.0], [-0.0, -3.0]], [0.0, -3.0], vel_prev=[[-0.0, 1.0], [0.0, -0.0]]), _K_FLIGHT_ZERO))
@example((make_state([[-0.0, 5.0], [-0.0, -3.0]], [0.0, -3.0], vel_prev=[[-0.0, 1.0], [0.0, -0.0]]), _NEIGHBOUR_GAINS_ZERO))
@example((make_state([[1e155, 0.0], [0.0, 0.0], [5.0, 0.0]], [0.0, 1.0]), DEFAULTS))
def test_flock_velocities_are_bitwise_the_dense_oracle(flock_and_params):
    state, params = flock_and_params
    fortran = make_state(
        np.asfortranarray(state.sheep_pos), state.dog_pos, vel_prev=np.asfortranarray(state.sheep_vel_prev)
    )
    # From about 1.3e154 off the dog the flight's square overflows to inf;
    # the episode ignores that overflow, and so does this test.
    far = np.abs(state.sheep_pos - state.dog_pos).max() > 1e154
    for list_min_n in BOTH_PAIR_SEARCHES:
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore" if far else "warn"):
            mp.setattr(flock, "_LIST_MIN_N", list_min_n)
            assert flock_velocities(state, params).flags.c_contiguous
            for layout in (state, fortran):
                velocities = flock_velocities(layout, params)
                assert velocities.tobytes() == dense_flock_velocities(layout, params).tobytes()


@settings(max_examples=50, deadline=None)
@given(flocks(), _point)
def test_one_pass_gives_the_episode_rows_and_the_kernel_bits(flock_and_params, goal):
    # The episode measures each state once, the kernel's points and then
    # the goal centre, and hands the pass to the kernel, which must give
    # the bits of its own pass and write to no row of the episode's.
    state, params = flock_and_params
    for list_min_n in BOTH_PAIR_SEARCHES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flock, "_LIST_MIN_N", list_min_n)
            diff, dist = measured = sheep_offsets(state, pass_points(state.n, np.array(goal)))
            assert diff.shape[1] == dist.shape[0] == (state.n + 2 if state.n < list_min_n else 2)
            for row, point in ((-2, state.dog_pos), (-1, goal)):
                point_diff, point_dist = offsets(state.sheep_pos, np.array(point)[:, None])
                assert diff[:, row].tobytes() == point_diff.tobytes()
                assert dist[row].tobytes() == point_dist.tobytes()
            before = diff.tobytes(), dist.tobytes()
            given_pass = flock_velocities(state, params, None, measured)
            assert given_pass.tobytes() == flock_velocities(state, params).tobytes()
            assert (diff.tobytes(), dist.tobytes()) == before


@settings(max_examples=50, deadline=None)
@given(flocks(), st.integers(0, 39))
@example((make_state([[3.0, 4.0], [10.0, -2.0], [3.0, 4.0]], [0.0, 0.0]), DEFAULTS), 2)
@example((make_state([[-0.0, 0.0], [0.0, -0.0], [-0.0, 5.0]], [0.0, -0.0]), DEFAULTS), 1)
@example((make_state([[0.0, 0.0], [1.5e308, 1.5e308], [1.3e154, -1.3e154]], [0.0, 1.0]), DEFAULTS), 0)
def test_sheep_distances_are_bitwise_the_offsets_reference(flock_and_params, t):
    # The gather measures every sheep from its target, sheep t: below
    # _LIST_MIN_N that is row t of the state's pass, from there a
    # subtraction of its own. Either way it must give the reference's bits
    # and write to no row of the pass.
    state = flock_and_params[0]
    pos = state.sheep_pos
    t %= state.n
    # Legs of 1.5e308 overflow the hypot to inf; the episode ignores that
    # overflow, and so does this test.
    far = np.abs(pos).max() > 1e154
    for list_min_n in BOTH_PAIR_SEARCHES:
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore" if far else "warn"):
            mp.setattr(flock, "_LIST_MIN_N", list_min_n)
            diff, dist = measured = sheep_offsets(state, pass_points(state.n, np.zeros(2)))
            before = diff.tobytes(), dist.tobytes()
            got = sheep_distances(state, measured, t)
            assert got.tobytes() == offsets(pos, pos[t, :, None])[1].tobytes()
            assert np.shares_memory(got, dist) == (state.n < list_min_n)
            assert (diff.tobytes(), dist.tobytes()) == before


def test_kernel_constants_stay_with_their_params_and_flock_size():
    # The gain column is built per SheepParams and the pair tables per
    # flock size; alternating both must never carry one call's into the next.
    rng = np.random.default_rng(61)
    params = (DEFAULTS, replace(DEFAULTS, r_s=25.0, k_separation=40.0, k_alignment=3.0, k_cohesion=0.25))
    # Two sizes of the dense search, then one of the neighbour list.
    states = tuple(random_state(rng, n=n, spread=spread) for n, spread in ((9, 25.0), (14, 30.0), (40, 45.0)))
    for _ in range(3):
        for p in params:
            for state in states:
                assert flock_velocities(state, p).tobytes() == dense_flock_velocities(state, p).tobytes()
    # The column is no field: equality, hashing and repr see the gains alone.
    assert hash(SheepParams()) == hash(DEFAULTS) and SheepParams() == DEFAULTS
    assert "_gains" not in repr(DEFAULTS)


def test_both_pair_searches_skip_non_finite_pairs():
    # Sheep 0 and 1 are the only finite pair within r_s; every other pair
    # has an inf or nan difference. The pass's dog entries follow, one per sheep.
    x = np.array([0.0, 5.0, np.inf, -np.inf, np.nan, 10.0, np.inf])
    y = np.array([0.0, 5.0, 0.0, np.inf, 1.0, np.nan, np.inf])
    pos = np.column_stack((x, y))
    near = NeighbourList()
    with np.errstate(invalid="ignore"):
        pairs, dist, diff = flock._neighbour_pairs(*sheep_offsets(flock._snapshot(pos, pos, np.array((1.0, 2.0)))), R_S)
        assert pairs[2:].tolist() == list(range(49, 56))  # (7, j), the dog's
        # The second query sees a nan displacement and rebuilds the list.
        for _ in range(2):
            table, listed_dist, listed_diff = near.pairs(pos, R_S)
            # (0, 1) and (1, 0), row-major; rows 0 and 7 of the key table are i and j.
            assert (table[0] * x.size + table[7]).tolist() == pairs[:2].tolist() == [1, 7]
            assert listed_dist.tobytes() == dist[:2].tobytes()
            assert listed_diff.tobytes() == diff[:, :2].tobytes()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([32, 40, 100]), st.integers(0, 2**32 - 1), st.lists(st.floats(0.0, 0.6), min_size=1, max_size=4))
def test_the_lists_key_table_is_the_small_flocks_at_the_same_pairs(n, seed, moves):
    # Both searches feed the kernel columns of one key table layout. A kept
    # list's pairs must carry _pair_table(n)'s columns at their flat pairs
    # i*N + j, and be the pairs within r_s that the small-flock search finds.
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-3.0, 3.0, size=(n, 2)) * R_S * np.sqrt(n / 32)
    near = NeighbourList()
    for move in (0.0, *moves):
        pos = pos + rng.uniform(-move, move, size=pos.shape) * R_S
        table, dist, diff = near.pairs(pos, R_S)
        flat = table[0] * n + table[7]
        expected = flock._pair_table(n).take(flat, axis=1)
        assert table.dtype == expected.dtype and table.tobytes() == expected.tobytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flock, "_LIST_MIN_N", BOTH_PAIR_SEARCHES[1])  # the pass of every sheep
            pairs, pair_dist, pair_diff = flock._neighbour_pairs(*sheep_offsets(flock._snapshot(pos, pos, pos[0])), R_S)
        assert flat.tolist() == pairs[:-n].tolist()
        assert dist.tobytes() == pair_dist[:-n].tobytes()
        assert diff.tobytes() == np.ascontiguousarray(pair_diff[:, :-n]).tobytes()


def test_large_fat_episode_is_bitwise_the_dense_oracle(monkeypatch):
    # The warm-ups and episodes feed the kernel through a neighbour list:
    # fat and proposed:reverse at N = 100, and fat at N = 32, the cut-over.
    runs = ((100, ["fat", "proposed:reverse"]), (32, ["fat"]))

    def episodes():
        out = []
        for n, methods in runs:
            cfg = ScenarioConfig(n_sheep=n, rho=0.0012, horizon=200)
            rows = Recorder()
            outcomes = run_trial(cfg, methods, 0, 0, 200, sink=rows)
            out.append(([(o.record.success, o.record.k_end, o.record.total_distance) for o in outcomes.values()], rows))
        return out

    listed = episodes()

    def dense(state, params, near=None, measured=None):
        return dense_flock_velocities(state, params)

    monkeypatch.setattr(flock, "flock_velocities", dense)
    monkeypatch.setattr(guidance, "flock_velocities", dense)
    for (listed_runs, listed_rows), (dense_runs, dense_rows) in zip(listed, episodes(), strict=True):
        assert listed_runs == dense_runs
        # Two zero-row traces would compare equal below without checking a step.
        assert len(listed_rows) == len(dense_rows) == sum(k_end + 1 for _, k_end, _ in listed_runs)
        assert listed_rows.sheep_traces.tobytes() == dense_rows.sheep_traces.tobytes()
        assert listed_rows.dog_trace.tobytes() == dense_rows.dog_trace.tobytes()


def test_a_large_episode_reuses_its_neighbour_list(monkeypatch):
    # Sheep move about 1.1 per step against 0.45 r_s = 9, so a list lasts
    # about 11 steps (53 builds in 600 steps); a rebuild at r_s / 4 = 5,
    # about every 6 steps (103 builds), would fail here.
    cfg = ScenarioConfig(n_sheep=100, rho=0.0012, horizon=600)
    start = prepare_start_state(cfg, base_seed=0)
    build, builds = NeighbourList._build, []

    def counted(self, pos, r_s):
        builds.append(1)
        build(self, pos, r_s)

    monkeypatch.setattr(NeighbourList, "_build", counted)
    record = run_fat(cfg, start)
    assert record.k_end == 600
    assert 0 < len(builds) < record.k_end / 8


# Moves of a walk, in units of r_s: still, a small step, just under, at and
# just over the move that triggers a rebuild, and jumps over 2 r_s. The
# walks also draw sizes up to 0.6 and close the flock in, so a list kept
# past moves of r_s / 2 misses pairs (one kept to 0.55 r_s fails here).
_MOVES = (0.0, 0.01, np.nextafter(_REBUILD_MOVE, 0.0), _REBUILD_MOVE, np.nextafter(_REBUILD_MOVE, 1.0), 2.0, 2.5)
# Walks keep every coordinate within this, so no difference overflows.
_COORD_LIMIT = 4e307


@st.composite
def walks(draw):
    n = draw(st.one_of(st.integers(32, 60), st.integers(1, 31)))
    r_s = draw(st.one_of(st.sampled_from([R_S, 1e-3, 1e308]), st.floats(1e-3, 1e308)))
    # Lattice points put pairs at exactly r_s; fewer points than sheep
    # put several sheep on one spot.
    unit = st.one_of(st.integers(-3, 3).map(float), st.floats(-3.0, 3.0))
    points = draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=n))
    start = np.array(draw(st.lists(st.sampled_from(points), min_size=n, max_size=n)))
    steps = []
    for _ in range(draw(st.integers(2, 30))):
        size = draw(st.one_of(st.sampled_from(_MOVES), st.floats(0.0, 0.6)))
        # None closes the flock in: sheep on either side of its median
        # step towards each other, as an unlisted pair must to be missed.
        seed = draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
        steps.append((size, seed))
    dog = draw(st.tuples(unit, unit))
    return r_s, start, steps, dog


def _walk_states(r_s, start, steps, dog):
    """Checked states along the walk: each step moves every sheep by
    size * r_s or not at all along each axis, with a random sign or
    towards the flock's median."""
    pos = np.clip(start * r_s, -_COORD_LIMIT, _COORD_LIMIT)
    dog_pos = np.clip(np.array(dog) * r_s, -_COORD_LIMIT, _COORD_LIMIT)
    state = make_state(pos, dog_pos)
    yield state
    for size, seed in steps:
        if seed is None:
            signs = -np.sign(pos - np.median(pos, axis=0))
        else:
            signs = np.random.default_rng(seed).integers(-1, 2, size=pos.shape)
        # Python floats: a jump over 2 r_s = inf is cut to a finite one.
        length = min(float(size) * r_s, 2 * _COORD_LIMIT)
        moved = np.clip(pos + signs * length, -_COORD_LIMIT, _COORD_LIMIT)
        state = make_state(moved, dog_pos, vel_prev=moved - pos)
        pos = moved
        yield state


@settings(max_examples=60, deadline=None)
@given(walks())
def test_neighbour_list_walks_are_bitwise_the_dense_oracle(walk):
    r_s, start, steps, dog = walk
    params, near = SheepParams(r_s), NeighbourList()
    # Huge r_s overflows the squares of the distances; the terms go to 0 on both sides.
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
        mp.setattr(flock, "_LIST_MIN_N", 1)
        for state in _walk_states(r_s, start, steps, dog):
            listed = flock_velocities(state, params, near)
            assert listed.tobytes() == flock_velocities(state, params).tobytes()
            assert listed.tobytes() == dense_flock_velocities(state, params).tobytes()


def test_a_walk_that_turns_non_finite_matches_the_kernel_without_a_list(monkeypatch):
    # A sheep's position turns nan after step 5; the list then rebuilds on
    # every step, and each step still gives the no-list kernel's bits.
    cfg = ScenarioConfig(n_sheep=40, rho=0.0012)
    state = prepare_start_state(cfg, base_seed=3)
    params, near = cfg.sheep, NeighbourList()
    build, rebuilt_at = NeighbourList._build, set()

    def counted(self, pos, r_s):
        if self is near:
            rebuilt_at.add(k)  # the step of the loop below
        build(self, pos, r_s)

    monkeypatch.setattr(NeighbourList, "_build", counted)
    for k in range(12):
        listed = flock_velocities(state, params, near)
        assert listed.tobytes() == flock_velocities(state, params).tobytes()
        pos = state.sheep_pos + listed
        if k == 5:
            pos[7] = np.nan
        state = flock._snapshot(pos, listed, state.dog_pos)
    assert np.isnan(state.sheep_pos[7]).all()
    assert rebuilt_at >= set(range(6, 12))


# ------------------------------------------------------------------ stepping

def test_step_applies_velocity_to_positions():
    state = make_state([[0.0, 0.0]], [0.0, 10.0])
    nxt = step_flock(state, DEFAULTS)
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


# ----------------------------------------------------------- planar helpers

def norm(v: np.ndarray) -> float:
    return float(np.hypot(v[0], v[1]))


def test_as_point_accepts_sequences():
    p = as_point([3, 4])
    assert p.shape == (2,)
    assert p.dtype == np.float64
    assert norm(p) == 5.0


def test_as_point_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValueError):
        as_point([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        as_point([np.nan, 0.0])
    with pytest.raises(ValueError):
        as_point([np.inf, 0.0])


def test_held_points_are_read_only_copies_of_the_callers_arrays():
    def held(make):
        given = np.array([1.0, 2.0])
        point = make(given)
        given[0] = 7.0  # the caller's array stays writeable ...
        return point

    for point in (
        held(as_point),
        held(lambda c: GoalSpec(center=c, radius=5.0).center),
        held(lambda d: ScenarioConfig(dog_start=d).dog_start),
        held(lambda d: FlockState(np.zeros((1, 2)), np.zeros((1, 2)), dog_pos=d).dog_pos),
    ):
        # ... and the held copy neither follows it nor takes writes.
        assert point.tolist() == [1.0, 2.0]
        assert not point.flags.writeable


def test_safe_unit_returns_unit_vectors():
    rng = np.random.default_rng(7)
    for _ in range(200):
        v = rng.normal(scale=50.0, size=2)
        u = safe_unit(v)
        assert np.isclose(norm(u), 1.0, atol=1e-12)
        assert np.allclose(u * norm(v), v, atol=1e-9)


def test_safe_unit_zero_vector_falls_back_to_unit_x():
    assert np.array_equal(safe_unit(np.zeros(2)), UNIT_X)


def test_clamped_norm_floors_at_eps():
    assert clamped_norm(np.zeros(2)) == EPS
    assert clamped_norm(np.array([0.0, 2.0])) == 2.0
