"""Episode orchestration: the two-stage tour guidance and the drive-only baseline.

A tour episode runs three phases. The dog first approaches the tour's
opening sheep; once within first-contact range it gathers the flock
sheep by sheep, holding the already collected group around the live
position of the next sheep on the tour; when every sheep is collected it
drives the whole flock to the goal. The baseline skips straight to the
final drive over all sheep.

An episode is a generator that owns its phase (two locals, mode and nu),
phase rows, sink, distance total and end check; _run_episode steps it,
keeps its neighbour list and makes the kernel calls.

A FlockState is validated at the episode's boundaries only: the start
state is one, and the end state is rebuilt through the checked
constructor, which raises if any value turned non-finite on the way (a
non-finite position or velocity leaves every later position non-finite).
The steps in between are unchecked snapshots, and the episode keeps
none: given a sink, it calls sink(state) on the start state and after
every step, so call k sees the state after k steps.

Each state's distances are taken once, in the kernel's pass
(flock.sheep_offsets) with the goal centre as its last row: one
difference and one ``np.hypot`` from every sheep (below
flock._LIST_MIN_N only), the dog and the goal. The goal check reads the
last row; the phase machine's contact test, its choice of the sheep to
track and to stand off, and the drive's farthest sheep read the last
two; the kernel reads the rest. flock.sheep_distances gives a gather
target's row, once per step and again only when a collection moves the
target within that step. The drive's candidates are the tour prefix,
built once per phase. The kernel, the dog laws (two floats out) and the
goal check are called through this module's names, where a tracer can
wrap them.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dog import _length, approach_velocity, steering_command
from .flock import (FlockState, NeighbourList, _largest, _snapshot, flock_velocities, pass_points, sheep_distances,
                    sheep_offsets)
from .routing import Tour
from .scenario import GoalSpec, ScenarioConfig


class GuidanceMode(Enum):
    APPROACH_FIRST = "approach_first"
    PROVISIONAL_GATHER = "provisional_gather"
    FINAL_DRIVE = "final_drive"
    DONE = "done"


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Outcome of one episode: what it measured, k_end being the steps it took.

    The states themselves go to the episode's sink, if it has one.
    phases holds the change rows (k, mode, nu): mode and the next tour
    position nu (1-based; nu - 1 sheep are collected) govern the steps out
    of state k until the next row. The last row is (k_end, DONE, nu) on success.
    """

    success: bool
    k_end: int
    total_distance: float
    phases: tuple[tuple[int, GuidanceMode, int], ...]

    # No field: one read-only empty array shared by every record, as perfbench's
    # per-episode hook still reads dog_trace.nbytes and sheep_traces.nbytes.
    dog_trace = sheep_traces = np.empty(0)
    dog_trace.setflags(write=False)


def goal_reached(to_goal: np.ndarray, goal: GoalSpec) -> bool:
    """True when every sheep lies within the goal disk (boundary inclusive),
    given every sheep's distance to the goal centre: max() <= radius, with
    the max read at its argmax (flock._largest), so a nan distance fails."""
    return bool(_largest(to_goal) <= goal.radius)


def _episode(scenario: ScenarioConfig, order: tuple[int, ...], state: FlockState, sink):
    """One episode: yields (state, measured) for each step's kernel call, is sent
    the sheep velocities and returns the RunRecord. A collection is tested on the
    step's state before the dog moves, so it changes the steering within the same
    step. An empty order starts in FINAL_DRIVE: the drive-only baseline."""
    if state.n != scenario.n_sheep:
        raise ValueError(f"state has {state.n} sheep, scenario expects {scenario.n_sheep}")

    dog, goal = scenario.dog, scenario.goal
    points = pass_points(state.n, goal.center)  # rows -2 and -1: dog, goal
    measured = sheep_offsets(state, points)

    if sink is not None:
        sink(state)
    mode = GuidanceMode.APPROACH_FIRST if len(order) else GuidanceMode.FINAL_DRIVE
    nu, idx = 1, None  # no prefix in a start mode
    phases: list[tuple[int, GuidanceMode, int]] = []
    k, total = 0, 0.0  # k counts the steps taken
    success = goal_reached(measured[1][-1], goal)
    dog_x, dog_y = state.dog_pos.tolist()

    while not success and k < scenario.horizon:
        pos = state.sheep_pos
        to_dog = measured[1][-2]
        to_target, collected = None, False
        if mode is GuidanceMode.APPROACH_FIRST:
            collected = to_dog[order[0]] <= dog.r_d
        elif mode is GuidanceMode.PROVISIONAL_GATHER:
            to_target = sheep_distances(state, measured, order[nu - 1])
            collected = _largest(to_target.take(idx)) <= goal.radius
        if collected:
            # The drive's candidates, built once per phase: the collected tour
            # prefix, sorted, while gathering, and None (every sheep) in the drive.
            # Python's sorted keeps numpy's sort code (about 0.4 MB resident) unloaded.
            nu += 1
            gathering = nu <= scenario.n_sheep
            mode = GuidanceMode.PROVISIONAL_GATHER if gathering else GuidanceMode.FINAL_DRIVE
            idx, to_target = np.array(sorted(order[: nu - 1])) if gathering else None, None  # target moved
        if collected or not phases:
            phases.append((k, mode, nu))

        if mode is GuidanceMode.APPROACH_FIRST:
            vx, vy = approach_velocity(state, dog, pos[order[0]], to_dog)
        else:
            if mode is GuidanceMode.PROVISIONAL_GATHER:
                destination = pos[order[nu - 1]]
                if to_target is None:
                    to_target = sheep_distances(state, measured, order[nu - 1])
            else:
                destination, to_target = goal.center, measured[1][-1]
            vx, vy = steering_command(state, dog, idx, destination, to_dog, to_target)

        v_sheep = yield state, measured
        dog_x += vx
        dog_y += vy
        state = _snapshot(pos + v_sheep, v_sheep, np.array((dog_x, dog_y)))
        total += _length(vx, vy)
        if sink is not None:
            sink(state)
        measured = sheep_offsets(state, points)
        k += 1
        success = goal_reached(measured[1][-1], goal)

    # The end state takes the checks that the steps skipped; after no step it is the start state.
    FlockState(sheep_pos=state.sheep_pos, sheep_vel_prev=state.sheep_vel_prev, dog_pos=state.dog_pos)
    if success or not phases:  # a failed episode that took a step ends on its last change
        phases.append((k, GuidanceMode.DONE if success else mode, nu))
    return RunRecord(success=success, k_end=k, total_distance=total, phases=tuple(phases))


# Overflow and invalid-operation warnings are silenced once per episode, in
# the loop that steps it (on the generator, errstate would cover only its
# creation). A sheep about 1.3e154 or more from the dog overflows the square
# in the flight term's denominator to inf, and the term is 0, its limit. Any
# other overflow leaves a non-finite state, which the end check rejects
# ("flock state must be finite"). Invalid operations (inf - inf, inf / inf)
# follow once a value is non-finite, and a nan or inf position persists to
# that check. errstate changes no value, only warnings.
@np.errstate(over="ignore", invalid="ignore")
def _run_episode(scenario: ScenarioConfig, order, state: FlockState, sink) -> RunRecord:
    episode, sheep, near = _episode(scenario, order, state, sink), scenario.sheep, NeighbourList()
    try:
        state, measured = next(episode)
        while True:
            state, measured = episode.send(flock_velocities(state, sheep, near, measured))
    except StopIteration as end:
        return end.value


def run_fat(scenario: ScenarioConfig, initial_state: FlockState, *, sink=None) -> RunRecord:
    """Drive-only baseline episode; no tour is needed."""
    return _run_episode(scenario, (), initial_state, sink)


def run_proposed(scenario: ScenarioConfig, tour: Tour, initial_state: FlockState, *, sink=None) -> RunRecord:
    """Tour-guided episode: approach, gather, final drive."""
    if tour.n != scenario.n_sheep:
        raise ValueError(f"tour over {tour.n} sheep does not match scenario of {scenario.n_sheep}")
    return _run_episode(scenario, tour.order, initial_state, sink)
