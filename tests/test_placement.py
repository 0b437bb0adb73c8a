"""Initial placement: disk radius, uniform sampling, warm-up, start states."""
import numpy as np
import pytest
from dataclasses import replace

from sheepdog import flock, placement
from sheepdog.flock import FlockState, SheepParams
from sheepdog.placement import (
    initial_placement,
    placement_radius,
    prepare_start_state,
    warmup,
)
from sheepdog.scenario import ScenarioConfig


def test_placement_radius_formula():
    assert placement_radius(10, 0.0006) == pytest.approx(72.84, abs=0.01)
    assert placement_radius(50, 0.0014) == pytest.approx(106.6, abs=0.1)
    assert placement_radius(1, 1.0 / np.pi) == pytest.approx(1.0)


def test_placement_radius_validation():
    with pytest.raises(ValueError):
        placement_radius(0, 0.001)
    with pytest.raises(ValueError):
        placement_radius(10, 0.0)
    with pytest.raises(ValueError):
        placement_radius(10, -0.5)


def test_initial_placement_support_and_shape():
    cfg = ScenarioConfig(n_sheep=500, rho=0.0012)
    state = initial_placement(cfg, np.random.default_rng(3))
    radius = placement_radius(500, 0.0012)
    dist = np.linalg.norm(state.sheep_pos - cfg.goal.center, axis=1)
    assert state.n == 500
    assert np.all(dist <= radius + 1e-9)
    assert np.array_equal(state.sheep_vel_prev, np.zeros((500, 2)))
    assert np.array_equal(state.dog_pos, cfg.dog_start)


def test_initial_placement_mean_radius_matches_uniform_disk():
    cfg = ScenarioConfig(n_sheep=20_000, rho=0.0012)
    state = initial_placement(cfg, np.random.default_rng(9))
    radius = placement_radius(20_000, 0.0012)
    mean = np.linalg.norm(state.sheep_pos - cfg.goal.center, axis=1).mean()
    assert mean == pytest.approx(2.0 / 3.0 * radius, rel=0.02)


def test_initial_placement_deterministic():
    cfg = ScenarioConfig(n_sheep=40, rho=0.0008)
    a = initial_placement(cfg, np.random.default_rng(42))
    b = initial_placement(cfg, np.random.default_rng(42))
    assert np.array_equal(a.sheep_pos, b.sheep_pos)


def test_warmup_zero_steps_is_identity():
    cfg = ScenarioConfig(n_sheep=10, rho=0.0012)
    state = initial_placement(cfg, np.random.default_rng(1))
    warmed = warmup(state, cfg.sheep, 0)
    assert np.array_equal(warmed.sheep_pos, state.sheep_pos)


def test_warmup_holds_dog_still_and_applies_its_push():
    # A lone distant sheep drifts away from the dog by K_s4/d^2 per step.
    cfg = ScenarioConfig(n_sheep=1, rho=0.0012, dog_start=(0.0, 100.0))
    state = initial_placement(cfg, np.random.default_rng(2))
    state = replace(state, sheep_pos=np.array([[0.0, 0.0]]))
    warmed = warmup(state, cfg.sheep, 1)
    assert np.array_equal(warmed.dog_pos, state.dog_pos)
    assert warmed.sheep_pos[0, 1] == pytest.approx(-500.0 / 100.0**2, rel=1e-9)
    assert warmed.sheep_pos[0, 0] == 0.0


def test_prepare_start_state_keeps_motion():
    cfg = ScenarioConfig(n_sheep=15, rho=0.0012)
    state = prepare_start_state(cfg, base_seed=0, trial=0)
    assert np.array_equal(state.dog_pos, cfg.dog_start)
    # Settled flocks keep their last velocities for the alignment term.
    assert np.any(state.sheep_vel_prev != 0.0)


def test_prepare_start_state_checks_the_flock_twice(monkeypatch):
    # Once as placed and once as settled; the settled state is returned as it is.
    checks, post_init = [], FlockState.__post_init__

    def counted(self):
        checks.append(1)
        post_init(self)

    monkeypatch.setattr(FlockState, "__post_init__", counted)
    prepare_start_state(ScenarioConfig(n_sheep=6, rho=0.0012), base_seed=0)
    assert len(checks) == 2


def test_a_negative_base_seed_is_rejected_before_placement(monkeypatch):
    def no_placement(*args, **kwargs):
        raise AssertionError("the flock was placed before its seed was checked")

    monkeypatch.setattr(placement, "initial_placement", no_placement)
    with pytest.raises(ValueError, match="base_seed must be non-negative, got -1"):
        prepare_start_state(ScenarioConfig(n_sheep=6, rho=0.0012), base_seed=-1)


def test_prepare_start_state_paired_and_trial_separated():
    cfg = ScenarioConfig(n_sheep=8, rho=0.0010)
    a = prepare_start_state(cfg, base_seed=0, trial=3)
    b = prepare_start_state(cfg, base_seed=0, trial=3)
    c = prepare_start_state(cfg, base_seed=0, trial=4)
    assert np.array_equal(a.sheep_pos, b.sheep_pos)
    assert np.array_equal(a.sheep_vel_prev, b.sheep_vel_prev)
    assert not np.array_equal(a.sheep_pos, c.sheep_pos)


def test_warmup_respects_interaction_parameters():
    # With every gain off the warm-up must not move anything.
    cfg = ScenarioConfig(n_sheep=12, rho=0.0012)
    still = SheepParams(k_separation=0.0, k_alignment=0.0, k_cohesion=0.0, k_flight=0.0)
    state = initial_placement(cfg, np.random.default_rng(8))
    warmed = warmup(state, still, 20)
    assert np.array_equal(warmed.sheep_pos, state.sheep_pos)



def test_warmup_steps_skip_a_patched_flock_state(monkeypatch):
    # A tracer swaps flock.FlockState for a wrapper: the steps still call
    # the module's kernel name but build no checked state, and only the
    # settled state is rebuilt (through the class itself) and read-only.
    cfg = ScenarioConfig(n_sheep=6, rho=0.0012)
    placed = initial_placement(cfg, np.random.default_rng(4))
    plain = warmup(placed, cfg.sheep, 30)
    kernel, real_state, calls, builds = flock.flock_velocities, flock.FlockState, [], []

    def counted_kernel(state, params, near):
        calls.append(state)
        return kernel(state, params, near)

    def counted_state(*args, **kwargs):
        builds.append(1)
        return real_state(*args, **kwargs)

    monkeypatch.setattr(flock, "flock_velocities", counted_kernel)
    monkeypatch.setattr(flock, "FlockState", counted_state)
    settled = warmup(placed, cfg.sheep, 30)
    assert len(calls) == 30 and calls[0] is placed and builds == []
    assert not settled.sheep_pos.flags.writeable
    assert settled.sheep_pos.tobytes() == plain.sheep_pos.tobytes()
    assert settled.sheep_vel_prev.tobytes() == plain.sheep_vel_prev.tobytes()


def test_warmup_rejects_a_state_that_turned_non_finite(monkeypatch):
    cfg = ScenarioConfig(n_sheep=6, rho=0.0012)
    placed = initial_placement(cfg, np.random.default_rng(4))
    kernel, calls = flock.flock_velocities, []

    def blows_up_at_step_ten(state, params, near):
        calls.append(state)
        v = kernel(state, params, near)
        return np.full_like(v, bad) if len(calls) == 10 else v

    monkeypatch.setattr(flock, "flock_velocities", blows_up_at_step_ten)
    # nan raises no warning on its own; inf leads to inf - inf. The steps
    # after the blow-up run on nan or inf until the settled state's check.
    for bad in (np.nan, np.inf):
        calls.clear()
        with pytest.raises(ValueError, match="flock state must be finite"):
            warmup(placed, cfg.sheep, 30)
        assert len(calls) == 30
