"""Scenario configuration: defaults, file format round-trip, seed streams."""
import math
import re
from dataclasses import replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheepdog import scenario
from sheepdog.dog import DogParams
from sheepdog.experiments import run_batch, run_trial
from sheepdog.flock import FlockState, SheepParams
from sheepdog.placement import placement_radius, warmup
from sheepdog.routing import RlsConfig
from sheepdog.scenario import (
    GoalSpec,
    ScenarioConfig,
    apply_assignments,
    default_scenario,
    fmt,
    parse_config,
    stream_seed,
)


def _text(value, kind) -> str:
    if kind is int:
        return str(value)
    if kind is float:
        return fmt(value)
    return f"{fmt(value[0])},{fmt(value[1])}"


def dump_config(cfg: ScenarioConfig) -> str:
    """Render cfg in the key=value format accepted by parse_config, its keys in table order."""
    return "".join(
        f"{key} = {_text(reduce(getattr, path, cfg), kind)}\n" for key, (path, kind) in scenario._CONFIG_KEYS.items()
    )


def test_defaults_match_reference_parameter_set():
    cfg = default_scenario()
    assert cfg.n_sheep == 20
    assert cfg.rho == pytest.approx(0.0012)
    assert np.array_equal(cfg.goal.center, [0.0, 0.0])
    assert cfg.goal.radius == 20.0
    assert cfg.dog.r_d == 30.0
    assert cfg.horizon == 10_000
    assert np.array_equal(cfg.dog_start, [-30.0, 50.0])
    assert cfg.sheep.r_s == 20.0
    assert cfg.sheep.k_separation == 100.0
    assert cfg.sheep.k_alignment == 0.5
    assert cfg.sheep.k_cohesion == 2.0
    assert cfg.sheep.k_flight == 500.0
    assert cfg.dog.k_attraction == 10.0
    assert cfg.dog.k_repulsion == 1000.0
    assert cfg.dog.k_goal_repulsion == 4.5
    assert cfg.warmup_steps == 50


def test_dump_parse_round_trip():
    cfg = ScenarioConfig(n_sheep=7, rho=0.0008, horizon=123, warmup_steps=9)
    text = dump_config(cfg)
    back = parse_config(text)
    assert dump_config(back) == text
    assert back.n_sheep == 7
    assert back.rho == pytest.approx(0.0008)
    assert back.horizon == 123
    assert back.warmup_steps == 9


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_gain = st.floats(min_value=0.0, allow_infinity=False)
_steps = st.integers(0, 10**9)
# One value per config key, any that the scenario accepts.
_KEY_VALUES = {
    "N": st.integers(1, 10**6),
    "rho": st.floats(1e-290, 1e290),
    "x_g": st.tuples(_finite, _finite),
    "g_r": _positive,
    "r_d": _positive,
    "T": _steps,
    "x_d0": st.tuples(_finite, _finite),
    "r_s": _positive,
    "K_s1": _gain,
    "K_s2": _gain,
    "K_s3": _gain,
    "K_s4": _gain,
    "K_d1": _gain,
    "K_d2": _gain,
    "K_d3": _gain,
    "warmup_steps": _steps,
}


# Where each key's value lands, written out apart from the package's table.
_FIELD = {
    "N": lambda c: c.n_sheep,
    "rho": lambda c: c.rho,
    "x_g": lambda c: tuple(c.goal.center),
    "g_r": lambda c: c.goal.radius,
    "r_d": lambda c: c.dog.r_d,
    "T": lambda c: c.horizon,
    "x_d0": lambda c: tuple(c.dog_start),
    "r_s": lambda c: c.sheep.r_s,
    "K_s1": lambda c: c.sheep.k_separation,
    "K_s2": lambda c: c.sheep.k_alignment,
    "K_s3": lambda c: c.sheep.k_cohesion,
    "K_s4": lambda c: c.sheep.k_flight,
    "K_d1": lambda c: c.dog.k_attraction,
    "K_d2": lambda c: c.dog.k_repulsion,
    "K_d3": lambda c: c.dog.k_goal_repulsion,
    "warmup_steps": lambda c: c.warmup_steps,
}


def _raw(value):
    return ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)


def _printed(value):
    if isinstance(value, tuple):
        return ",".join(f"{v:.9g}" for v in value)
    return f"{value:.9g}" if isinstance(value, float) else str(value)


def _goal_to_dog_start_is_finite(values):
    # The scenario rejects a goal and dog start whose distance overflows.
    (gx, gy), (dx, dy) = values["x_g"], values["x_d0"]
    return math.isfinite(math.hypot(gx - dx, gy - dy))


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries(_KEY_VALUES).filter(_goal_to_dog_start_is_finite))
def test_dump_parse_round_trip_over_every_key(values):
    keys = list(scenario._CONFIG_KEYS)
    assert sorted(values) == sorted(keys)
    cfg = apply_assignments(default_scenario(), [(key, _raw(values[key])) for key in keys])
    assert {key: _FIELD[key](cfg) for key in keys} == values
    text = dump_config(cfg)
    # Every key prints the value assigned to it, in table order.
    assert text == "".join(f"{key} = {_printed(values[key])}\n" for key in keys)
    assert dump_config(parse_config(text)) == text


def test_parse_ignores_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nN = 4\nrho = 0.001  # inline, = and all\n")
    assert cfg.n_sheep == 4
    assert cfg.rho == pytest.approx(0.001)
    assert cfg.goal.radius == 20.0  # untouched default
    # The README's commented defaults block is itself a valid config file.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Defaults, which are also the reference parameter set:")[1].split("```")[1]
    assert dump_config(parse_config(block)) == dump_config(default_scenario())


def test_parse_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ValueError, match="unknown"):
        parse_config("bogus = 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config("N = 3\nN = 4\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config("just words\n")


def test_parse_rejects_malformed_values():
    with pytest.raises(ValueError):
        parse_config("N = many\n")
    with pytest.raises(ValueError):
        parse_config("x_g = 1\n")
    with pytest.raises(ValueError):
        parse_config("x_g = 1,2,3\n")


def test_apply_assignments_overrides_individual_keys():
    cfg = apply_assignments(default_scenario(), [("N", "5"), ("g_r", "12.5"), ("x_d0", "1,2")])
    assert cfg.n_sheep == 5
    assert cfg.goal.radius == 12.5
    assert np.array_equal(cfg.dog_start, [1.0, 2.0])
    assert cfg.rho == pytest.approx(0.0012)  # untouched


@pytest.mark.parametrize(
    "pairs",
    [
        # Each point is a finite distance from the other, not from the other's default.
        [("x_g", "1.5e308,1.5e308"), ("x_d0", "1.4e308,1.4e308")],
        # rho alone is out of range for the default N = 20, not for N = 1.
        [("rho", "1e-308"), ("N", "1")],
    ],
)
def test_cross_key_checks_see_only_final_values(pairs):
    forward, backward = (apply_assignments(default_scenario(), order) for order in (pairs, pairs[::-1]))
    assert dump_config(forward) == dump_config(backward)


def test_apply_assignments_takes_the_last_of_a_repeated_key():
    cfg = apply_assignments(default_scenario(), [("N", "0"), ("T", "7"), ("N", "5")])
    assert (cfg.n_sheep, cfg.horizon) == (5, 7)


def test_validation_errors():
    with pytest.raises(ValueError):
        ScenarioConfig(n_sheep=0)
    with pytest.raises(ValueError):
        ScenarioConfig(rho=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(horizon=-1)
    with pytest.raises(ValueError):
        GoalSpec(center=np.zeros(2), radius=0.0)
    with pytest.raises(ValueError, match="goal radius must be positive and finite"):
        GoalSpec(center=np.zeros(2), radius=np.nan)
    # rho * 1e10 (the seed key) and sqrt(N / (pi * rho)) must be finite.
    for rho in (1e300, 1e-320):
        with pytest.raises(ValueError, match="out of range"):
            ScenarioConfig(rho=rho)
    # The goal-to-dog-start distance overflows to inf.
    far_goal = GoalSpec(center=np.array([1e308, 0.0]), radius=20.0)
    with pytest.raises(ValueError, match="x_g=.* and x_d0=.* are out of range"):
        ScenarioConfig(goal=far_goal, dog_start=np.array([-1e308, 0.0]))
    # Counts are integers: T=1.5 would run two steps, and a float N or warmup_steps
    # would raise numpy's or range()'s TypeError, which names no field.
    for field, key, value in (("n_sheep", "N", 20.0), ("horizon", "T", 1.5), ("warmup_steps", "warmup_steps", 2.5),
                              ("n_sheep", "N", np.float64(20.0))):
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got {re.escape(repr(value))}$"):
            replace(default_scenario(), **{field: value})
    # numpy ints are integers, and each count is stored as a Python int.
    counts = ScenarioConfig(n_sheep=np.int64(20), horizon=np.int32(300), warmup_steps=np.uint8(50))
    assert [(type(v), v) for v in (counts.n_sheep, counts.horizon, counts.warmup_steps)] == [
        (int, 20), (int, 300), (int, 50)]


# A small cell, so that a check that let a float through would run its trial quickly.
_SMALL = ScenarioConfig(n_sheep=3, rho=0.01, horizon=50)
_STILL = FlockState(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2))


@pytest.mark.parametrize(("field", "call"), [
    pytest.param("iterations", lambda: RlsConfig("reverse", 50.5, 0), id="RlsConfig-iterations-float"),
    pytest.param("seed", lambda: RlsConfig("reverse", 50, 0.5), id="RlsConfig-seed-float"),
    pytest.param("iterations", lambda: RlsConfig("reverse", "5", 0), id="RlsConfig-iterations-str"),
    pytest.param("iterations", lambda: run_trial(_SMALL, ["fat"], 0, 0, 50.5), id="run_trial-iterations-float"),
    pytest.param("trials", lambda: run_batch(_SMALL, [(3, 0.0012)], 1.5, [], 0, 10), id="run_batch-trials-float"),
    pytest.param("steps", lambda: warmup(_STILL, _SMALL.sheep, 2.5), id="warmup-steps-float"),
    pytest.param("n", lambda: placement_radius(2.5, 0.0012), id="placement_radius-n-float"),
    pytest.param("rho", lambda: placement_radius(10, math.nan), id="placement_radius-rho-nan"),
    pytest.param("r_s", lambda: SheepParams(r_s="20"), id="SheepParams-r_s-str"),
    pytest.param("k_flight", lambda: SheepParams(k_flight=None), id="SheepParams-k_flight-None"),
    pytest.param("r_d", lambda: DogParams(r_d="30"), id="DogParams-r_d-str"),
    pytest.param("goal radius", lambda: GoalSpec(np.zeros(2), "20"), id="GoalSpec-radius-str"),
    pytest.param("rho", lambda: ScenarioConfig(rho="0.0012"), id="ScenarioConfig-rho-str"),
])
def test_each_number_check_names_its_field(field, call):
    # A float count would be truncated or raise a TypeError deep inside, and a
    # string or None gain or radius would raise the comparison's TypeError,
    # which names no field.
    with pytest.raises(ValueError, match=f"^{field} must be "):
        call()


def test_numpy_scalars_pass_every_number_check():
    rls = RlsConfig("reverse", np.int64(50), np.uint64(3))
    assert [(type(v), v) for v in (rls.iterations, rls.seed)] == [(int, 50), (int, 3)]
    assert SheepParams(r_s=np.float64(20.0), k_flight=np.float32(500.0)) == SheepParams()
    assert DogParams(r_d=np.float64(30.0), k_repulsion=np.int64(1000)) == DogParams()
    assert GoalSpec(np.zeros(2), np.float64(20.0)).radius == 20.0
    assert ScenarioConfig(rho=np.float64(0.0012)).rho == 0.0012
    assert placement_radius(np.int64(10), np.float64(0.0012)) == placement_radius(10, 0.0012)
    assert warmup(_STILL, _SMALL.sheep, np.uint8(2)).sheep_pos.shape == (2, 2)


def test_stream_seed_is_pure_and_stream_separated():
    a = stream_seed(0, 20, 0.0012, 3, "placement")
    assert a == stream_seed(0, 20, 0.0012, 3, "placement")
    assert a != stream_seed(0, 20, 0.0012, 3, "plan:reverse")
    assert a != stream_seed(0, 20, 0.0012, 4, "placement")
    assert a != stream_seed(0, 10, 0.0012, 3, "placement")
    assert a != stream_seed(0, 20, 0.0014, 3, "placement")
    assert a != stream_seed(1, 20, 0.0012, 3, "placement")
    assert 0 <= a < 2**64


def test_stream_seed_unaffected_by_other_cells():
    # Adding grid cells or trials elsewhere must not perturb this stream.
    before = [stream_seed(0, 20, 0.0012, t, "placement") for t in range(5)]
    _ = [stream_seed(0, 50, 0.0006, t, "placement") for t in range(100)]
    after = [stream_seed(0, 20, 0.0012, t, "placement") for t in range(5)]
    assert before == after


def test_stream_seed_rejects_a_negative_base_seed():
    # Every placement and plan seed goes through here. A negative N or trial is
    # named too, where SeedSequence's own error would name neither.
    for (base_seed, n, trial), name in (((-1, 20, 0), "base_seed"), ((0, -1, 0), "n"), ((0, 20, -1), "trial")):
        with pytest.raises(ValueError, match=f"^{name} must be non-negative, got -1$"):
            stream_seed(base_seed, n, 0.0012, trial, "placement")
    # A float is refused, not truncated: trial 1.5 would be trial 1's seed, and base seed 0.9 seed 0's.
    for (base_seed, n, trial), name, value in (((0.9, 20, 0), "base_seed", "0.9"), ((0, 20.0, 0), "n", "20.0"),
                                               ((0, 20, 1.5), "trial", "1.5")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
            stream_seed(base_seed, n, 0.0012, trial, "placement")
    # numpy ints are integers, and seed as the same Python ints.
    assert stream_seed(np.int64(3), np.int32(20), 0.0012, np.uint8(1), "placement") == stream_seed(
        3, 20, 0.0012, 1, "placement")
