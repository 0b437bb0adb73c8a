"""Planar helpers: point validation, and the oracle's norms and coincident-point fallback."""
import numpy as np
import pytest

from _dog_oracle import clamped_norm, safe_unit
from sheepdog.flock import EPS, UNIT_X, FlockState, as_point
from sheepdog.scenario import GoalSpec, ScenarioConfig


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
