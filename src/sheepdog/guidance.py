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
The steps in between are unchecked snapshots.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .dog import _check_candidates, approach_velocity, steering_command
from .flock import FlockState, _snapshot, flock_velocities
from .routing import Tour
from .scenario import GoalSpec, ScenarioConfig


class GuidanceMode(Enum):
    APPROACH_FIRST = "approach_first"
    PROVISIONAL_GATHER = "provisional_gather"
    FINAL_DRIVE = "final_drive"
    DONE = "done"


@dataclass(frozen=True)
class GuidancePhase:
    """Phase snapshot: mode, next tour position nu (1-based), collected indices."""

    mode: GuidanceMode
    nu: int
    collected: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class RunRecord:
    """Outcome of one episode.

    dog_trace has shape (k_end + 1, 2) and sheep_traces (k_end + 1, N, 2);
    row k is the state after k steps. phases holds the change points
    (k, phase): phase governs the steps out of row k until the next entry.
    The last entry is the terminal phase, DONE at k_end on success.
    """

    success: bool
    k_end: int
    total_distance: float
    dog_trace: np.ndarray
    sheep_traces: np.ndarray
    phases: tuple[tuple[int, GuidancePhase], ...]


def goal_reached(state: FlockState, goal: GoalSpec) -> bool:
    """True when every sheep lies within the goal disk (boundary inclusive)."""
    diff = state.sheep_pos - goal.center
    return bool(np.hypot(diff[:, 0], diff[:, 1]).max() <= goal.radius)


class _TourController:
    """Phase machine for the tour-guided episode.

    Collection checks run against the current snapshot before the dog
    moves, so a collection changes the steering within the same step.
    Started in FINAL_DRIVE over every sheep it is the drive-only baseline.
    """

    def __init__(self, scenario: ScenarioConfig, order: tuple[int, ...], phase: GuidancePhase):
        self._scenario = scenario
        self._order = order
        self._enter(phase)

    def _enter(self, phase: GuidancePhase) -> None:
        # The collected sheep, checked once per phase, are the drive's candidates.
        self.phase = phase
        self._candidates = _check_candidates(phase.collected, len(self._order)) if phase.collected else None

    def _collect(self, collected: tuple[int, ...]) -> None:
        mode = (
            GuidanceMode.FINAL_DRIVE
            if len(collected) == len(self._order)
            else GuidanceMode.PROVISIONAL_GATHER
        )
        self._enter(GuidancePhase(mode, self.phase.nu + 1, collected))

    def _advance(self, state: FlockState) -> None:
        phase = self.phase
        order = self._order
        pos = state.sheep_pos
        if phase.mode is GuidanceMode.APPROACH_FIRST:
            gap = pos[order[0]] - state.dog_pos
            if np.hypot(gap[0], gap[1]) <= self._scenario.dog.r_d:
                self._collect((order[0],))
        elif phase.mode is GuidanceMode.PROVISIONAL_GATHER:
            diff = pos[self._candidates.idx] - pos[order[phase.nu - 1]]
            if np.hypot(diff[:, 0], diff[:, 1]).max() <= self._scenario.goal.radius:
                self._collect(phase.collected + (order[phase.nu - 1],))

    def __call__(self, state: FlockState) -> tuple[GuidancePhase, np.ndarray]:
        self._advance(state)
        phase = self.phase
        scenario = self._scenario
        if phase.mode is GuidanceMode.APPROACH_FIRST:
            target = state.sheep_pos[self._order[0]]
            return phase, approach_velocity(state, scenario.dog, target)
        if phase.mode is GuidanceMode.PROVISIONAL_GATHER:
            destination = state.sheep_pos[self._order[phase.nu - 1]]
        else:
            destination = scenario.goal.center
        return phase, steering_command(state, scenario.dog, self._candidates, destination)


# Overflow warnings are silenced once per episode, not per kernel call. A
# sheep about 1.3e154 or more from the dog overflows the square in the
# flight term's denominator to inf, and the term is 0, which is its limit.
# Any other overflow leaves a non-finite state, which the end check rejects
# ("flock state must be finite").
@np.errstate(over="ignore")
def _run_episode(scenario: ScenarioConfig, controller, state: FlockState) -> RunRecord:
    if state.n != scenario.n_sheep:
        raise ValueError(f"state has {state.n} sheep, scenario expects {scenario.n_sheep}")

    first_step = state.step
    dog_pts = [state.dog_pos]
    sheep_pts = [state.sheep_pos]
    phases: list[tuple[int, GuidancePhase]] = []
    total = 0.0
    success = goal_reached(state, scenario.goal)

    if not success:
        for k in range(scenario.horizon):
            phase, v_dog = controller(state)
            # The controller hands out a new phase object only when the phase changes.
            if not phases or phase is not phases[-1][1]:
                phases.append((k, phase))
            v_sheep = flock_velocities(state, scenario.sheep)
            state = _snapshot(state.step + 1, state.sheep_pos + v_sheep, v_sheep, state.dog_pos + v_dog)
            total += float(np.hypot(v_dog[0], v_dog[1]))
            dog_pts.append(state.dog_pos)
            sheep_pts.append(state.sheep_pos)
            if goal_reached(state, scenario.goal):
                success = True
                break
        # The end state takes the checks that the steps skipped.
        FlockState(step=state.step, sheep_pos=state.sheep_pos, sheep_vel_prev=state.sheep_vel_prev, dog_pos=state.dog_pos)

    k_end = state.step - first_step
    terminal = replace(controller.phase, mode=GuidanceMode.DONE) if success else controller.phase
    if not phases or terminal is not phases[-1][1]:
        phases.append((k_end, terminal))

    dog_trace = np.array(dog_pts)
    sheep_traces = np.array(sheep_pts)
    dog_trace.setflags(write=False)
    sheep_traces.setflags(write=False)
    return RunRecord(
        success=success,
        k_end=k_end,
        total_distance=total,
        dog_trace=dog_trace,
        sheep_traces=sheep_traces,
        phases=tuple(phases),
    )


def run_fat(scenario: ScenarioConfig, initial_state: FlockState) -> RunRecord:
    """Drive-only baseline episode; no tour is needed."""
    every = tuple(range(scenario.n_sheep))
    controller = _TourController(scenario, every, GuidancePhase(GuidanceMode.FINAL_DRIVE, 1, every))
    return _run_episode(scenario, controller, initial_state)


def run_proposed(scenario: ScenarioConfig, tour: Tour, initial_state: FlockState) -> RunRecord:
    """Tour-guided episode: approach, gather sheep by sheep, then final drive."""
    if tour.n != scenario.n_sheep:
        raise ValueError(f"tour over {tour.n} sheep does not match scenario of {scenario.n_sheep}")
    controller = _TourController(scenario, tour.order, GuidancePhase(GuidanceMode.APPROACH_FIRST, 1, ()))
    return _run_episode(scenario, controller, initial_state)
