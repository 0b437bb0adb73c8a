"""A recording episode sink and the per-row trajectory.csv renderer, for tests only.

An episode keeps no states; a test that reads a trajectory passes a
`Recorder` as the episode's sink and reads its stacked traces.
`trajectory_text` renders those traces one row at a time; it is the
oracle for the `simulate` command, which renders `trajectory.csv` in
blocks of rows while the episode steps.
"""
from __future__ import annotations

import numpy as np

from sheepdog.scenario import NUMBER


class Recorder:
    """Episode sink that keeps each state's dog_pos and sheep_pos.

    Given to run_trial it sees one method's episode after another, so
    its rows are those of every episode in method order.
    """

    def __init__(self):
        self.dog: list[np.ndarray] = []
        self.sheep: list[np.ndarray] = []

    def __call__(self, state) -> None:
        self.dog.append(state.dog_pos)
        self.sheep.append(state.sheep_pos)

    def __len__(self) -> int:
        return len(self.dog)

    @property
    def dog_trace(self) -> np.ndarray:
        """Shape (rows, 2); row k is the dog after k steps."""
        return np.array(self.dog)

    @property
    def sheep_traces(self) -> np.ndarray:
        """Shape (rows, N, 2); row k is the flock after k steps."""
        return np.array(self.sheep)


def run_recorded(run, *args, **kwargs):
    """run(*args, **kwargs) with a fresh Recorder as its sink; returns the result and the Recorder."""
    recorder = Recorder()
    return run(*args, sink=recorder, **kwargs), recorder


def trajectory_text(dog_trace: np.ndarray, sheep_traces: np.ndarray) -> str:
    """trajectory.csv for the stacked traces, rendered one row at a time."""
    row = "%d" + f",{NUMBER}" * (2 + 2 * sheep_traces.shape[1]) + "\n"
    return "".join(
        row % (k, *dog.tolist(), *sheep.ravel().tolist())
        for k, (dog, sheep) in enumerate(zip(dog_trace, sheep_traces))
    )


def has_placeholder_traces(run, n: int) -> bool:
    """True when run's dog_trace and sheep_traces are the read-only, zero-byte
    placeholders of shapes (0, 2) and (0, n, 2)."""
    traces = (run.dog_trace, run.sheep_traces)
    return ([t.shape for t in traces] == [(0, 2), (0, n, 2)]
            and not any(t.flags.writeable or t.nbytes for t in traces))
