"""Small helpers for planar vectors stored as float64 numpy arrays."""
from __future__ import annotations

import numpy as np

# Distances below EPS are clamped before they reach a denominator.
EPS = 1e-9

UNIT_X = np.array([1.0, 0.0])


def as_point(value) -> np.ndarray:
    """A read-only float64 copy of value, which must be finite and of
    shape (2,); a copy, so that the caller's array stays writeable."""
    pt = np.array(value, dtype=float)
    if pt.shape != (2,):
        raise ValueError(f"expected a 2-vector, got shape {pt.shape}")
    if not np.all(np.isfinite(pt)):
        raise ValueError("vector components must be finite")
    pt.setflags(write=False)
    return pt


def offsets(pos: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Differences of every row of pos, shape (N, 2), from each point of
    points, shape (..., 2, 1), as shape (..., 2, N), and their distances,
    shape (..., N).

    The differences come out in one C-ordered array, so np.hypot reads a
    contiguous row per axis and point.
    """
    diff = np.subtract(pos.T, points, order="C")
    return diff, np.hypot(diff[..., 0, :], diff[..., 1, :])


def distances(pos: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The distances of offsets(pos, points)."""
    return offsets(pos, points)[1]
