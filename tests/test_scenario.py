"""Scenario configuration: defaults, file format round-trip, seed streams."""
import math
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheepdog import scenario
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
    # Every placement and plan seed goes through here.
    with pytest.raises(ValueError, match="base_seed must be non-negative, got -1"):
        stream_seed(-1, 20, 0.0012, 0, "placement")
