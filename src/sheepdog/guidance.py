"""Episode orchestration: the two-stage tour guidance and the drive-only baseline.

A tour episode runs three phases. The dog first approaches the tour's
opening sheep; once within first-contact range it gathers the flock
sheep by sheep, holding the already collected group around the live
position of the next sheep on the tour; when every sheep is collected it
drives the whole flock to the goal. The baseline skips straight to the
final drive over all sheep.

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
last row; the controller's contact test, its choice of the sheep to
track and to stand off, and the drive's farthest sheep read the last
two; the kernel reads the rest. flock.sheep_distances gives a gather
target's row, once per step and again only when a collection moves the
target within that step. The drive's candidates are the tour prefix,
built once per phase. The kernel gets one neighbour list per
episode. The kernel, the dog laws (two floats out) and the goal check
are called through this module's names, where a tracer can wrap them.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .dog import _length, approach_velocity, steering_command
from .flock import FlockState, NeighbourList, _snapshot, flock_velocities, pass_points, sheep_distances, sheep_offsets
from .routing import Tour
from .scenario import GoalSpec, ScenarioConfig


class GuidanceMode(Enum):
    APPROACH_FIRST = "approach_first"
    PROVISIONAL_GATHER = "provisional_gather"
    FINAL_DRIVE = "final_drive"
    DONE = "done"


@dataclass(frozen=True)
class GuidancePhase:
    """Phase snapshot: mode and next tour position nu (1-based); nu - 1 sheep are collected."""

    mode: GuidanceMode
    nu: int


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Outcome of one episode.

    The states themselves go to the episode's sink, if it has one.
    dog_trace and sheep_traces are read-only placeholders with zero rows,
    shapes (0, 2) and (0, N, 2): perfbench's per-episode hook reads their
    nbytes, and they can go once it no longer does.
    phases holds the change points (k, phase): phase governs the steps
    out of state k until the next entry. The last entry is the terminal
    phase, DONE at k_end on success.
    """

    success: bool
    k_end: int
    total_distance: float
    dog_trace: np.ndarray
    sheep_traces: np.ndarray
    phases: tuple[tuple[int, GuidancePhase], ...]


def goal_reached(to_goal: np.ndarray, goal: GoalSpec) -> bool:
    """True when every sheep lies within the goal disk (boundary inclusive),
    given every sheep's distance to the goal centre."""
    return bool(to_goal.max() <= goal.radius)


class _TourController:
    """Phase machine for the tour-guided episode.

    Collection checks run against the current snapshot before the dog
    moves, so a collection changes the steering within the same step.
    Started in FINAL_DRIVE it is the drive-only baseline and reads no tour.
    """

    def __init__(self, scenario: ScenarioConfig, order: tuple[int, ...], mode: GuidanceMode):
        self._scenario = scenario
        self._order = order
        self.phase, self._idx = GuidancePhase(mode, 1), None  # no prefix in a start mode

    def _collect(self) -> None:
        # The drive's candidates, built once per phase: the collected tour prefix,
        # sorted, while gathering, and None (every sheep) in the drive. Python's
        # sorted keeps numpy's sort code, about 0.4 MB of resident pages, unloaded.
        nu = self.phase.nu + 1
        gathering = nu <= self._scenario.n_sheep
        self.phase = GuidancePhase(GuidanceMode.PROVISIONAL_GATHER if gathering else GuidanceMode.FINAL_DRIVE, nu)
        self._idx = np.array(sorted(self._order[: nu - 1])) if gathering else None

    def __call__(self, state: FlockState, measured) -> tuple[GuidancePhase, tuple[float, float]]:
        """Phase and dog velocity for state, given its pass (flock.sheep_offsets),
        whose last two rows are taken from the dog and from the goal centre."""
        phase = self.phase
        order = self._order
        scenario = self._scenario
        pos = state.sheep_pos
        to_dog = measured[1][-2]
        to_target = None
        if phase.mode is GuidanceMode.APPROACH_FIRST:
            if to_dog[order[0]] <= scenario.dog.r_d:
                self._collect()
        elif phase.mode is GuidanceMode.PROVISIONAL_GATHER:
            to_target = sheep_distances(state, measured, order[phase.nu - 1])
            if to_target.take(self._idx).max() <= scenario.goal.radius:
                self._collect()
                to_target = None  # the collection moved the target

        phase = self.phase
        if phase.mode is GuidanceMode.APPROACH_FIRST:
            return phase, approach_velocity(state, scenario.dog, pos[order[0]], to_dog)
        if phase.mode is GuidanceMode.PROVISIONAL_GATHER:
            destination = pos[order[phase.nu - 1]]
            if to_target is None:
                to_target = sheep_distances(state, measured, order[phase.nu - 1])
        else:
            destination, to_target = scenario.goal.center, measured[1][-1]
        return phase, steering_command(state, scenario.dog, self._idx, destination, to_dog, to_target)


# Overflow and invalid-operation warnings are silenced once per episode,
# not per kernel call. A sheep about 1.3e154 or more from the dog overflows
# the square in the flight term's denominator to inf, and the term is 0,
# which is its limit. Any other overflow leaves a non-finite state, which
# the end check rejects ("flock state must be finite"). Invalid operations
# (inf - inf, inf / inf) follow once a value is non-finite, and a nan or inf
# position persists to that check. errstate changes no value, only warnings.
@np.errstate(over="ignore", invalid="ignore")
def _run_episode(scenario: ScenarioConfig, controller, state: FlockState, sink=None) -> RunRecord:
    if state.n != scenario.n_sheep:
        raise ValueError(f"state has {state.n} sheep, scenario expects {scenario.n_sheep}")

    goal = scenario.goal
    points = pass_points(state.n, goal.center)  # rows -2 and -1: dog, goal
    measured = sheep_offsets(state, points)

    k = -1  # the last step taken; the loop may take none
    if sink is not None:
        sink(state)
    phases: list[tuple[int, GuidancePhase]] = []
    total = 0.0
    success = goal_reached(measured[1][-1], goal)

    if not success:
        dog_x, dog_y = state.dog_pos.tolist()
        near = NeighbourList()
        for k in range(scenario.horizon):
            phase, (vx, vy) = controller(state, measured)
            # The controller hands out a new phase object only when the phase changes.
            if not phases or phase is not phases[-1][1]:
                phases.append((k, phase))
            v_sheep = flock_velocities(state, scenario.sheep, near, measured)
            dog_x += vx
            dog_y += vy
            state = _snapshot(state.sheep_pos + v_sheep, v_sheep, np.array((dog_x, dog_y)))
            total += _length(vx, vy)
            if sink is not None:
                sink(state)
            measured = sheep_offsets(state, points)
            if goal_reached(measured[1][-1], goal):
                success = True
                break
        # The end state takes the checks that the steps skipped.
        FlockState(sheep_pos=state.sheep_pos, sheep_vel_prev=state.sheep_vel_prev, dog_pos=state.dog_pos)

    k_end = k + 1
    terminal = replace(controller.phase, mode=GuidanceMode.DONE) if success else controller.phase
    if not phases or terminal is not phases[-1][1]:
        phases.append((k_end, terminal))

    dog_trace, sheep_traces = np.empty((0, 2)), np.empty((0, state.n, 2))
    dog_trace.setflags(write=False)
    sheep_traces.setflags(write=False)
    return RunRecord(success=success, k_end=k_end, total_distance=total, dog_trace=dog_trace,
                     sheep_traces=sheep_traces, phases=tuple(phases))


def run_fat(scenario: ScenarioConfig, initial_state: FlockState, *, sink=None) -> RunRecord:
    """Drive-only baseline episode; no tour is needed."""
    controller = _TourController(scenario, (), GuidanceMode.FINAL_DRIVE)
    return _run_episode(scenario, controller, initial_state, sink)


def run_proposed(scenario: ScenarioConfig, tour: Tour, initial_state: FlockState, *, sink=None) -> RunRecord:
    """Tour-guided episode: approach, gather, final drive."""
    if tour.n != scenario.n_sheep:
        raise ValueError(f"tour over {tour.n} sheep does not match scenario of {scenario.n_sheep}")
    controller = _TourController(scenario, tour.order, GuidanceMode.APPROACH_FIRST)
    return _run_episode(scenario, controller, initial_state, sink)
