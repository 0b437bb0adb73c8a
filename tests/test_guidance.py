"""Episode orchestration: goal test, phase machine, both guidance laws."""
import tracemalloc
from functools import reduce
from operator import add

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import assume, given, settings, strategies as st

import _dog_oracle as dog_oracle
from _dog_oracle import farthest_from, nearest_to_dog
from _flock_oracle import dense_flock_velocities, offsets
from _recorder import Recorder, has_placeholder_traces, run_recorded
from sheepdog import flock, guidance
from sheepdog.dog import dog_velocity
from sheepdog.flock import FlockState, SheepParams, flock_velocities
from sheepdog.guidance import (
    GuidanceMode,
    goal_reached,
    run_fat,
    run_proposed,
)
from sheepdog.placement import prepare_start_state
from sheepdog.routing import RlsConfig, Tour, TourInstance, rls_optimize
from sheepdog.scenario import GoalSpec, ScenarioConfig, stream_seed

# Forward order used by the monotonicity invariant.
MODE_ORDER = (
    GuidanceMode.APPROACH_FIRST,
    GuidanceMode.PROVISIONAL_GATHER,
    GuidanceMode.FINAL_DRIVE,
    GuidanceMode.DONE,
)


def make_state(sheep_pos, dog_pos):
    sheep_pos = np.asarray(sheep_pos, dtype=float)
    return FlockState(
        sheep_pos=sheep_pos,
        sheep_vel_prev=np.zeros_like(sheep_pos),
        dog_pos=np.asarray(dog_pos, dtype=float),
    )


def mode_sequence(record):
    seq = []
    for _, mode, _ in record.phases:
        if not seq or seq[-1] is not mode:
            seq.append(mode)
    return seq


# -------------------------------------------------------------- goal predicate

def test_goal_reached_trivials():
    goal = GoalSpec(center=np.zeros(2), radius=20.0)

    def reached(sheep_pos):
        return goal_reached(offsets(np.array(sheep_pos), goal.center[:, None])[1], goal)

    assert reached([[0.0, 0.0], [1.0, 1.0]])
    assert reached([[20.0, 0.0]])
    assert not reached([[20.0 + 1e-6, 0.0]])


@st.composite
def _distance_rows(draw):
    radius = draw(st.one_of(st.just(20.0), st.floats(5e-324, 1e308)))
    # Specials, the radius and its neighbours, in any position and repeated for ties.
    special = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               radius, np.nextafter(radius, 0.0), np.nextafter(radius, np.inf), 1e308])
    value = st.one_of(special, st.floats(allow_nan=True, allow_infinity=True))
    return np.array(draw(st.lists(value, min_size=1, max_size=200))), radius


@settings(max_examples=500, deadline=None)
@given(_distance_rows())
def test_goal_reached_is_the_max_test(row):
    values, radius = row
    goal = GoalSpec(center=np.zeros(2), radius=radius)
    assert goal_reached(values, goal) is bool(values.max() <= radius)


# ------------------------------------------------------------------- edge cases

def test_zero_horizon_fails_without_moving():
    cfg = ScenarioConfig(n_sheep=2, rho=0.0012, horizon=0)
    state = make_state([[40.0, 0.0], [45.0, 0.0]], cfg.dog_start)
    for (run, rows), start_mode in ((run_recorded(run_fat, cfg, initial_state=state), GuidanceMode.FINAL_DRIVE),
                                    (run_recorded(run_proposed, cfg, Tour((0, 1)), initial_state=state),
                                     GuidanceMode.APPROACH_FIRST)):
        assert not run.success
        assert run.k_end == 0
        assert run.total_distance == 0.0
        assert rows.dog_trace.shape == (1, 2)
        # Exactly the start phase, never DONE.
        assert run.phases == ((0, start_mode, 1),)


def test_already_at_goal_succeeds_immediately():
    cfg = ScenarioConfig(n_sheep=3, rho=0.0012)
    state = make_state([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], cfg.dog_start)
    for run in (run_fat(cfg, initial_state=state),
                run_proposed(cfg, Tour((0, 1, 2)), initial_state=state)):
        assert run.success
        assert run.k_end == 0
        assert run.total_distance == 0.0
        assert run.phases == ((0, GuidanceMode.DONE, 1),)


def test_first_contact_is_inclusive_at_r_d():
    # The tour's first sheep exactly r_d from the dog is in contact, so the
    # gather begins at step 0; one ulp farther out the dog still approaches.
    cfg = ScenarioConfig(n_sheep=2, rho=0.0012, horizon=1)
    dog = cfg.dog_start
    assert cfg.dog.r_d == 30.0
    for dx, mode, nu in ((30.0, GuidanceMode.PROVISIONAL_GATHER, 2),
                         (np.nextafter(30.0, np.inf), GuidanceMode.APPROACH_FIRST, 1)):
        first = dog + (dx, 0.0)
        assert np.hypot(*(first - dog)) == dx
        run = run_proposed(cfg, Tour((0, 1)), initial_state=make_state([first, [60.0, -60.0]], dog))
        assert not run.success and run.k_end == 1
        assert run.phases == ((0, mode, nu),)


def test_gather_collection_is_inclusive_at_the_goal_radius():
    # A still flock (every gain 0): sheep 0 is in contact at step 0, and at
    # step 1 sheep 1, exactly g_r from it, collects it, so the drive begins;
    # one ulp farther out the gather goes on.
    still = SheepParams(k_separation=0.0, k_alignment=0.0, k_cohesion=0.0, k_flight=0.0)
    cfg = ScenarioConfig(n_sheep=2, rho=0.0012, horizon=2, sheep=still)
    dog = np.array([-30.0, 50.0])
    assert (cfg.dog.r_d, cfg.goal.radius) == (30.0, 20.0)
    gather = (0, GuidanceMode.PROVISIONAL_GATHER, 2)
    for dx, phases in ((20.0, (gather, (1, GuidanceMode.FINAL_DRIVE, 3))), (np.nextafter(20.0, np.inf), (gather,))):
        run = run_proposed(cfg, Tour((0, 1)), initial_state=make_state([[0.0, 50.0], [dx, 50.0]], dog))
        assert not run.success and run.k_end == 2
        assert run.phases == phases


def test_mismatched_sizes_are_rejected():
    cfg = ScenarioConfig(n_sheep=3, rho=0.0012)
    state = make_state([[30.0, 0.0]], cfg.dog_start)
    with pytest.raises(ValueError, match="state has 1 sheep"):
        run_fat(cfg, initial_state=state)
    with pytest.raises(ValueError, match="state has 1 sheep"):
        run_proposed(cfg, Tour((0, 1, 2)), initial_state=state)
    with pytest.raises(ValueError):
        run_proposed(cfg, Tour((0, 1)), initial_state=None)


@pytest.mark.parametrize("method", ["fat", "proposed"])
def test_non_finite_state_mid_episode_raises(monkeypatch, method):
    # Steps are unchecked snapshots; the end state is validated, with a sink
    # or without, and a non-finite velocity leaves every later position non-finite.
    cfg = ScenarioConfig(n_sheep=5, rho=0.0012, horizon=40)
    start = prepare_start_state(cfg, base_seed=0, trial=3)
    calls = []

    def blows_up_at_step_ten(state, params, near, measured):
        calls.append(state)
        v = flock_velocities(state, params, near, measured)
        return np.full_like(v, np.inf) if len(calls) == 10 else v

    monkeypatch.setattr(guidance, "flock_velocities", blows_up_at_step_ten)
    for sink in (Recorder(), None):
        calls.clear()
        # The steps after the blow-up run on inf and nan until the end check.
        with pytest.raises(ValueError, match="flock state must be finite"):
            if method == "fat":
                run_fat(cfg, initial_state=start, sink=sink)
            else:
                run_proposed(cfg, Tour(tuple(range(5))), initial_state=start, sink=sink)
        assert len(calls) > 10


def test_steps_do_not_go_through_a_patched_flock_state(monkeypatch):
    # A tracer swaps FlockState for a wrapper in both modules; the loop's
    # snapshots must still be FlockState and only the end state is rebuilt.
    cfg = ScenarioConfig(n_sheep=6, rho=0.0012, horizon=60)
    start = prepare_start_state(cfg, base_seed=0, trial=1)
    plain, plain_rows = run_recorded(run_fat, cfg, initial_state=start)
    builds = []

    def counted(*args, **kwargs):
        builds.append(1)
        return FlockState(*args, **kwargs)

    monkeypatch.setattr(guidance, "FlockState", counted)
    monkeypatch.setattr(flock, "FlockState", counted)
    wrapped, wrapped_rows = run_recorded(run_fat, cfg, initial_state=start)
    assert len(builds) == 1
    assert wrapped.k_end == plain.k_end > 0
    # Two zero-row traces would compare equal below without checking a step.
    assert wrapped_rows.dog_trace.shape[0] == plain_rows.dog_trace.shape[0] == plain.k_end + 1
    assert wrapped_rows.sheep_traces.tobytes() == plain_rows.sheep_traces.tobytes()
    assert wrapped_rows.dog_trace.tobytes() == plain_rows.dog_trace.tobytes()


# ------------------------------------------------------------------ single sheep

def test_single_sheep_approach_then_drive():
    # One sheep just outside the goal ring, dog beyond it: the episode
    # must pass through approach and final drive, skipping gathering.
    cfg = ScenarioConfig(n_sheep=1, rho=0.0012, horizon=300)
    state = make_state([[25.0, 0.0]], [60.0, 0.0])
    rec = run_proposed(cfg, Tour((0,)), initial_state=state)
    assert rec.success
    assert 0 < rec.k_end < 300
    seq = mode_sequence(rec)
    assert seq == [GuidanceMode.APPROACH_FIRST, GuidanceMode.FINAL_DRIVE, GuidanceMode.DONE]
    assert GuidanceMode.PROVISIONAL_GATHER not in seq


def test_fat_delivers_a_lone_sheep_from_seeded_starts():
    # The drive law must pull an outside sheep into the goal disk from
    # any placement; checked over 50 seeded starts.
    cfg = ScenarioConfig(n_sheep=1, rho=0.00002, horizon=600)
    delivered = 0
    for trial in range(50):
        state = prepare_start_state(cfg, base_seed=0, trial=trial)
        d0 = float(np.linalg.norm(state.sheep_pos[0] - cfg.goal.center))
        if d0 <= cfg.goal.radius:
            continue
        rec, rows = run_recorded(run_fat, cfg, initial_state=state)
        assert rec.success, f"trial {trial}: lone sheep not delivered"
        d1 = float(np.linalg.norm(rows.sheep_traces[-1, 0] - cfg.goal.center))
        assert d1 < d0
        delivered += 1
    assert delivered >= 40  # nearly every start should begin outside


# --------------------------------------------------------------- phase machine

@pytest.fixture(scope="module")
def small_cell_run():
    cfg = ScenarioConfig(n_sheep=10, rho=0.0012)
    state = prepare_start_state(cfg, base_seed=0, trial=0)
    instance = TourInstance(state.dog_pos, state.sheep_pos, cfg.goal.center)
    seed = stream_seed(0, 10, 0.0012, 0, "plan:reverse")
    plan = rls_optimize(instance, RlsConfig("reverse", 10_000, seed))
    return (cfg, plan.best_tour, *run_recorded(run_proposed, cfg, plan.best_tour, initial_state=state))


def test_small_cell_episode_succeeds(small_cell_run):
    _, _, rec, _ = small_cell_run
    assert rec.success
    k_last, last, _ = rec.phases[-1]
    assert (k_last, last) == (rec.k_end, GuidanceMode.DONE)


def test_phase_change_steps_are_strictly_increasing(small_cell_run):
    _, _, rec, _ = small_cell_run
    steps = [k for k, _, _ in rec.phases]
    assert steps[0] == 0
    assert all(a < b for a, b in zip(steps, steps[1:]))
    assert steps[-1] <= rec.k_end


def test_each_phase_entry_is_a_change(small_cell_run):
    # One entry per change of (mode, nu): the rows phases.csv prints.
    _, _, rec, _ = small_cell_run
    keys = [(mode, nu) for _, mode, nu in rec.phases]
    assert all(a != b for a, b in zip(keys, keys[1:]))


def test_cut_short_run_keeps_only_its_changes(small_cell_run):
    # A run that runs out of time ends on its last change, with no terminal copy.
    cfg, tour, full, _ = small_cell_run
    cut = replace(cfg, horizon=full.phases[-2][0] + 5)
    rec = run_proposed(cut, tour, initial_state=prepare_start_state(cut, base_seed=0, trial=0))
    assert not rec.success
    assert rec.phases == full.phases[:-1]


def test_phase_modes_only_move_forward(small_cell_run):
    _, _, rec, _ = small_cell_run
    ranks = [MODE_ORDER.index(mode) for _, mode, _ in rec.phases]
    assert ranks == sorted(ranks)


def test_collected_grows_in_tour_order(small_cell_run):
    # The collected sheep are the tour prefix order[: nu - 1]: each phase
    # change collects the next sheep on the tour, and the drive starts once
    # nu - 1 is every sheep. The terminal entry keeps the drive's nu.
    _, tour, rec, _ = small_cell_run
    n = tour.n
    assert [(mode, nu) for _, mode, nu in rec.phases] == [
        (GuidanceMode.APPROACH_FIRST, 1),
        *[(GuidanceMode.PROVISIONAL_GATHER, nu) for nu in range(2, n + 1)],
        (GuidanceMode.FINAL_DRIVE, n + 1),
        (GuidanceMode.DONE, n + 1),
    ]


def test_every_sheep_ends_inside_goal(small_cell_run):
    cfg, _, _, rows = small_cell_run
    final = rows.sheep_traces[-1]
    dist = np.linalg.norm(final - cfg.goal.center, axis=1)
    assert np.all(dist <= cfg.goal.radius + 1e-9)


def test_traces_and_distance_are_consistent(small_cell_run):
    _, _, rec, rows = small_cell_run
    assert rows.dog_trace.shape == (rec.k_end + 1, 2)
    assert rows.sheep_traces.shape[0] == rec.k_end + 1
    steps = np.diff(rows.dog_trace, axis=0)
    recomputed = float(np.hypot(steps[:, 0], steps[:, 1]).sum())
    assert rec.total_distance == pytest.approx(recomputed, rel=1e-9)


def test_total_distance_adds_each_legs_hypot_in_step_order(monkeypatch):
    # J is each step's dog velocity length as np.hypot gives it, added left to
    # right from 0.0. A long episode's total absorbs a one-ulp change in a leg,
    # so the legs' rounding is read from one-step episodes, whose J is their one
    # leg: math.hypot rounds 8 of these 2,000 legs otherwise.
    legs = []

    def recorded(law):
        def wrapper(*args):
            legs.append(law(*args))
            return legs[-1]
        return wrapper

    monkeypatch.setattr(guidance, "approach_velocity", recorded(guidance.approach_velocity))
    monkeypatch.setattr(guidance, "steering_command", recorded(guidance.steering_command))

    def assert_total_is_the_legs_sum(rec):
        assert len(legs) == rec.k_end
        assert rec.total_distance == reduce(add, (np.hypot(vx, vy) for vx, vy in legs), 0.0)
        legs.clear()

    one_step, rng = ScenarioConfig(n_sheep=3, rho=0.0012, horizon=1), np.random.default_rng(0)
    for _ in range(1000):
        state = make_state(rng.uniform(-100.0, 100.0, (3, 2)), rng.uniform(-100.0, 100.0, 2))
        assert_total_is_the_legs_sum(run_fat(one_step, initial_state=state))
        assert_total_is_the_legs_sum(run_proposed(one_step, Tour((0, 1, 2)), initial_state=state))
    cfg = ScenarioConfig(n_sheep=20, rho=0.0012, horizon=2000)
    rec = run_fat(cfg, initial_state=prepare_start_state(cfg, base_seed=0, trial=0))
    assert rec.k_end == 2000
    assert_total_is_the_legs_sum(rec)


def test_episode_is_deterministic(small_cell_run):
    cfg, tour, rec, rows = small_cell_run
    state = prepare_start_state(cfg, base_seed=0, trial=0)
    again, again_rows = run_recorded(run_proposed, cfg, tour, initial_state=state)
    assert again.success == rec.success
    assert again.k_end == rec.k_end
    assert np.array_equal(again_rows.dog_trace, rows.dog_trace)
    assert np.array_equal(again_rows.sheep_traces, rows.sheep_traces)


def _assert_same_run_without_traces(bare, rec, rows):
    # bare ran without a sink, rec with the recording sink that filled rows.
    assert rows.dog_trace.shape[0] == rec.k_end + 1
    for run in (bare, rec):
        assert has_placeholder_traces(run)
    assert (bare.success, bare.k_end, bare.total_distance) == (rec.success, rec.k_end, rec.total_distance)
    assert bare.phases == rec.phases


def test_unrecorded_run_keeps_everything_but_the_traces(small_cell_run):
    cfg, tour, rec, rows = small_cell_run
    bare = run_proposed(cfg, tour, initial_state=prepare_start_state(cfg, base_seed=0, trial=0))
    assert rec.success and len(rec.phases) == 12  # approach, ten collections, done
    _assert_same_run_without_traces(bare, rec, rows)


def test_unrecorded_failed_fat_run_keeps_everything_but_the_traces():
    cfg = ScenarioConfig(n_sheep=20, rho=0.0012, horizon=300)
    start = prepare_start_state(cfg, base_seed=0, trial=0)
    rec, rows = run_recorded(run_fat, cfg, initial_state=start)
    assert not rec.success and rec.k_end == 300
    _assert_same_run_without_traces(run_fat(cfg, initial_state=start), rec, rows)


def test_candidates_are_built_once_per_phase_not_per_step(small_cell_run, monkeypatch):
    # The candidate set changes only when a sheep is collected, so each
    # gather phase builds its sorted tour prefix once and hands the same
    # array to every one of its steps; the drive hands None (every sheep),
    # in a tour episode and in a whole baseline episode.
    cfg, tour, rec, _ = small_cell_run
    steer, calls = guidance.steering_command, []

    def recorded(state, params, idx, *rows):
        calls.append(idx)
        return steer(state, params, idx, *rows)

    monkeypatch.setattr(guidance, "steering_command", recorded)
    start = prepare_start_state(cfg, base_seed=0, trial=0)
    again = run_proposed(cfg, tour, initial_state=start)
    assert (again.success, again.k_end, again.total_distance) == (True, rec.k_end, rec.total_distance)
    built = list({id(idx): idx for idx in calls}.values())
    assert len(calls) > len(built)
    assert [None if idx is None else idx.tolist() for idx in built] == [
        sorted(tour.order[:nu - 1]) for nu in range(2, cfg.n_sheep + 1)
    ] + [None]
    calls.clear()
    fat_cfg = ScenarioConfig(n_sheep=20, rho=0.0012, horizon=300)
    fat = run_fat(fat_cfg, initial_state=prepare_start_state(fat_cfg, base_seed=0, trial=0))
    assert fat.k_end == 300 and len(calls) == 300 and all(idx is None for idx in calls)


def test_unrecorded_episode_peak_memory_stays_flat():
    # A recording sink keeps a snapshot per step; an episode without a sink keeps none.
    cfg = ScenarioConfig(n_sheep=20, rho=0.0012, horizon=1000)
    start = prepare_start_state(cfg, base_seed=0)
    run_fat(replace(cfg, horizon=5), initial_state=start)  # first-call allocations
    peaks = {}
    for recorded in (False, True):
        sink = Recorder() if recorded else None
        tracemalloc.start()
        try:
            rec = run_fat(cfg, initial_state=start, sink=sink)
            peaks[recorded] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rec.success, rec.k_end) == (False, 1000)
    assert peaks[False] < 200_000
    assert peaks[False] < peaks[True] / 10


# ------------------------------------------------------------------- drive law

def test_fat_trace_matches_manual_stepping():
    cfg = ScenarioConfig(n_sheep=5, rho=0.0012, horizon=10)
    start = prepare_start_state(cfg, base_seed=0, trial=1)
    _, rows = run_recorded(run_fat, cfg, initial_state=start)

    state = start
    expected = [state.dog_pos]
    everyone = set(range(5))
    for _ in range(10):
        tracked = farthest_from(cfg.goal.center, everyone, state)
        nearest = nearest_to_dog(everyone, state)
        v_dog = dog_velocity(state, cfg.dog, tracked, nearest, cfg.goal.center)
        v_sheep = flock_velocities(state, cfg.sheep)
        state = FlockState(
            sheep_pos=state.sheep_pos + v_sheep,
            sheep_vel_prev=v_sheep,
            dog_pos=state.dog_pos + v_dog,
        )
        expected.append(state.dog_pos)
    assert rows.dog_trace.tobytes() == np.array(expected).tobytes()


def _manual_proposed(cfg, order, state):
    """A proposed episode stepped by hand from the vector dog laws and the
    dense flock kernel, with its own phase machine; also the steps at which
    a collection in the gather phase hands the dog its next target."""
    n = len(order)
    mode, nu, collected = GuidanceMode.APPROACH_FIRST, 1, ()
    dog_pts, sheep_pts, phases, retargets = [state.dog_pos], [state.sheep_pos], [], []
    total = 0.0

    def distances_to(point, idx):
        diff = state.sheep_pos[list(idx)] - point
        return np.hypot(diff[:, 0], diff[:, 1])

    def collect(sheep):
        nonlocal mode, nu, collected
        collected += (sheep,)
        nu += 1
        mode = GuidanceMode.FINAL_DRIVE if len(collected) == n else GuidanceMode.PROVISIONAL_GATHER

    success = distances_to(cfg.goal.center, range(n)).max() <= cfg.goal.radius
    for k in range(0 if success else cfg.horizon):
        if mode is GuidanceMode.APPROACH_FIRST:
            if distances_to(state.dog_pos, [order[0]])[0] <= cfg.dog.r_d:
                collect(order[0])
        elif mode is GuidanceMode.PROVISIONAL_GATHER:
            target = order[nu - 1]
            if distances_to(state.sheep_pos[target], collected).max() <= cfg.goal.radius:
                collect(target)
                if mode is GuidanceMode.PROVISIONAL_GATHER:
                    retargets.append(k)
        if not phases or phases[-1][1:] != (mode, nu):
            phases.append((k, mode, nu))
            # The collected sheep are the tour prefix the episode reads from nu.
            assert collected == order[: nu - 1]

        if mode is GuidanceMode.APPROACH_FIRST:
            v_dog = dog_oracle.approach_velocity(state, cfg.dog, state.sheep_pos[order[0]])
        else:
            destination = state.sheep_pos[order[nu - 1]] if mode is GuidanceMode.PROVISIONAL_GATHER else cfg.goal.center
            v_dog, _, _ = dog_oracle.steering(state, cfg.dog, np.array(sorted(collected)), destination)
        v_sheep = dense_flock_velocities(state, cfg.sheep)
        state = FlockState(
            sheep_pos=state.sheep_pos + v_sheep,
            sheep_vel_prev=v_sheep,
            dog_pos=state.dog_pos + v_dog,
        )
        total += float(np.hypot(v_dog[0], v_dog[1]))
        dog_pts.append(state.dog_pos)
        sheep_pts.append(state.sheep_pos)
        if distances_to(cfg.goal.center, range(n)).max() <= cfg.goal.radius:
            success = True
            break
    return success, total, np.array(dog_pts), np.array(sheep_pts), phases, retargets


def test_proposed_trace_matches_manual_stepping():
    # Through approach, gather and drive to the goal. Six of the gather
    # steps collect a sheep and steer by the next target in the same step.
    cfg = ScenarioConfig(n_sheep=8, rho=0.0012, horizon=1500)
    start = prepare_start_state(cfg, base_seed=2, trial=0)
    instance = TourInstance(start.dog_pos, start.sheep_pos, cfg.goal.center)
    tour = rls_optimize(instance, RlsConfig("reverse", 2000, 5)).best_tour
    rec, rows = run_recorded(run_proposed, cfg, tour, initial_state=start)

    success, total, dog_trace, sheep_traces, phases, retargets = _manual_proposed(cfg, tour.order, start)
    assert success and len(retargets) == 6
    assert [mode for _, mode, _ in phases] == [
        GuidanceMode.APPROACH_FIRST, *[GuidanceMode.PROVISIONAL_GATHER] * 7, GuidanceMode.FINAL_DRIVE
    ]
    assert (rec.success, rec.k_end) == (success, dog_trace.shape[0] - 1)
    assert rows.dog_trace.tobytes() == dog_trace.tobytes()
    assert rows.sheep_traces.tobytes() == sheep_traces.tobytes()
    assert rec.total_distance == total
    assert list(rec.phases[:-1]) == phases
    assert rec.phases[-1][:2] == (rec.k_end, GuidanceMode.DONE)


def test_fat_run_mirrors_with_the_initial_condition():
    cfg = ScenarioConfig(n_sheep=4, rho=0.01, horizon=400)
    state = prepare_start_state(cfg, base_seed=0, trial=2)
    mirror = np.array([-1.0, 1.0])
    cfg_m = replace(cfg, dog_start=cfg.dog_start * mirror)
    state_m = FlockState(
        sheep_pos=state.sheep_pos * mirror,
        sheep_vel_prev=state.sheep_vel_prev * mirror,
        dog_pos=state.dog_pos * mirror,
    )
    rec, rows = run_recorded(run_fat, cfg, initial_state=state)
    rec_m, rows_m = run_recorded(run_fat, cfg_m, initial_state=state_m)
    assert rec_m.success == rec.success
    assert rec_m.k_end == rec.k_end
    assert np.allclose(rows_m.dog_trace, rows.dog_trace * mirror, atol=1e-9)
    assert np.allclose(rows_m.sheep_traces, rows.sheep_traces * mirror, atol=1e-9)


# The axis symmetries of the plane; each maps an (..., 2) array of points exactly.
AXIS_MAPS = {
    "mirror_x": lambda a: a * np.array([-1.0, 1.0]),
    "swap_xy": lambda a: a[..., ::-1],
    "rotate_90": lambda a: np.stack((-a[..., 1], a[..., 0]), axis=-1),
}
COORD = st.floats(-80.0, 80.0, allow_subnormal=False)
SPEED = st.floats(-2.0, 2.0, allow_subnormal=False)


def _unit_x_fires(rows, goal):
    """True when a recorded state has coincident sheep, a dog on a sheep or a dog on the goal."""
    sheep, dog = rows.sheep_traces, rows.dog_trace
    pairs = (sheep[:, :, None] == sheep[:, None, :]).all(axis=-1).sum(axis=(1, 2))
    on_sheep = (sheep == dog[:, None, :]).all(axis=-1)
    return bool((pairs > sheep.shape[1]).any() or on_sheep.any() or (dog == goal).all(axis=-1).any())


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), horizon=st.integers(0, 300), proposed=st.booleans(),
       axis_map=st.sampled_from(sorted(AXIS_MAPS)), data=st.data())
def test_whole_episodes_are_equivariant_under_axis_symmetries(n, horizon, proposed, axis_map, data):
    sheep = np.array(data.draw(st.lists(st.tuples(COORD, COORD), min_size=n, max_size=n)))
    vel = np.array(data.draw(st.lists(st.tuples(SPEED, SPEED), min_size=n, max_size=n)))
    dog, goal = np.array(data.draw(st.tuples(COORD, COORD))), np.array(data.draw(st.tuples(COORD, COORD)))
    tour = Tour(tuple(data.draw(st.permutations(range(n)))))

    def episode(f):
        cfg = ScenarioConfig(n_sheep=n, horizon=horizon, goal=GoalSpec(f(goal), 20.0), dog_start=f(dog))
        state = FlockState(sheep_pos=f(sheep), sheep_vel_prev=f(vel), dog_pos=f(dog))
        if proposed:
            return run_recorded(run_proposed, cfg, tour, initial_state=state)
        return run_recorded(run_fat, cfg, initial_state=state)

    rec, rows = episode(lambda a: a)
    # The phase rows: the start row, one per collection, each raising nu by 1 with the
    # modes only moving forward, and (k_end, DONE, nu) exactly when the episode succeeds.
    # The start row is DONE at the goal, and the first collection's row when the
    # first step starts in contact with the tour's first sheep.
    at_goal = bool((np.hypot(*(sheep - goal).T) <= 20.0).all())
    contact = proposed and horizon > 0 and np.hypot(*(sheep[tour.order[0]] - dog)) <= ScenarioConfig().dog.r_d
    if at_goal:
        start = (0, GuidanceMode.DONE, 1)
    elif contact:
        start = (0, GuidanceMode.PROVISIONAL_GATHER if n > 1 else GuidanceMode.FINAL_DRIVE, 2)
    else:
        start = (0, GuidanceMode.APPROACH_FIRST if proposed else GuidanceMode.FINAL_DRIVE, 1)
    assert rec.phases[0] == start
    steps, modes, _ = zip(*rec.phases)
    assert all(a < b for a, b in zip(steps, steps[1:]))
    ranks = [MODE_ORDER.index(mode) for mode in modes]
    assert ranks == sorted(ranks)
    for (_, _, before), (_, mode, nu) in zip(rec.phases, rec.phases[1:]):
        assert nu == before + (mode is not GuidanceMode.DONE)
    assert (rec.phases[-1][:2] == (rec.k_end, GuidanceMode.DONE)) == rec.success
    assert modes.count(GuidanceMode.DONE) == int(rec.success)
    # UNIT_X stands in for the undefined direction in any such state, which breaks the symmetry by design.
    assume(not _unit_x_fires(rows, goal))
    f = AXIS_MAPS[axis_map]
    mapped, mapped_rows = episode(f)
    assert rows.dog_trace.shape[0] == mapped_rows.dog_trace.shape[0] == rec.k_end + 1
    # Bit for bit but for the sign of a zero: x - x is +0.0 however x is mapped, so + 0.0 drops it.
    assert (f(rows.dog_trace) + 0.0).tobytes() == (mapped_rows.dog_trace + 0.0).tobytes()
    assert (f(rows.sheep_traces) + 0.0).tobytes() == (mapped_rows.sheep_traces + 0.0).tobytes()
    assert (mapped.success, mapped.k_end, mapped.total_distance) == (rec.success, rec.k_end, rec.total_distance)
    assert mapped.phases == rec.phases
