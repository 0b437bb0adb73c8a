"""Scenario configuration, the key=value config format, and seed streams."""
from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from .dog import DogParams
from .flock import SheepParams
from .vec import as_point


@dataclass(frozen=True, eq=False)
class GoalSpec:
    """Goal disk: every sheep must end within radius of center."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_point(self.center))
        self.center.setflags(write=False)
        if self.radius <= 0:
            raise ValueError("goal radius must be positive")


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything that defines one episode family.

    n_sheep and rho set the initial disk via the placement density, the
    rest mirrors the config file keys one to one.
    """

    n_sheep: int = 20
    rho: float = 0.0012
    goal: GoalSpec = None  # type: ignore[assignment]
    horizon: int = 10_000
    dog_start: np.ndarray = None  # type: ignore[assignment]
    sheep: SheepParams = SheepParams()
    dog: DogParams = DogParams()
    warmup_steps: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.goal is None:
            object.__setattr__(self, "goal", GoalSpec(center=np.zeros(2), radius=20.0))
        if self.dog_start is None:
            object.__setattr__(self, "dog_start", np.array([-30.0, 50.0]))
        object.__setattr__(self, "dog_start", as_point(self.dog_start))
        self.dog_start.setflags(write=False)
        if self.n_sheep < 1:
            raise ValueError("N must be at least 1")
        if not 0 < self.rho < np.inf:
            raise ValueError("rho must be positive and finite")
        if self.horizon < 0:
            raise ValueError("T must be non-negative")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def default_scenario() -> ScenarioConfig:
    return ScenarioConfig()


# Config file keys in canonical dump order.
_CONFIG_KEYS = (
    "N", "rho", "x_g", "g_r", "r_d", "T", "x_d0", "r_s",
    "K_s1", "K_s2", "K_s3", "K_s4", "K_d1", "K_d2", "K_d3",
    "warmup_steps",
)


def fmt(x: float) -> str:
    """A number as every config and output file prints it: 9 significant digits."""
    return f"{x:.9g}"


def dump_config(cfg: ScenarioConfig) -> str:
    """Render cfg in the key=value format accepted by parse_config."""
    values = {
        "N": str(cfg.n_sheep),
        "rho": fmt(cfg.rho),
        "x_g": f"{fmt(cfg.goal.center[0])},{fmt(cfg.goal.center[1])}",
        "g_r": fmt(cfg.goal.radius),
        "r_d": fmt(cfg.dog.r_d),
        "T": str(cfg.horizon),
        "x_d0": f"{fmt(cfg.dog_start[0])},{fmt(cfg.dog_start[1])}",
        "r_s": fmt(cfg.sheep.r_s),
        "K_s1": fmt(cfg.sheep.k_separation),
        "K_s2": fmt(cfg.sheep.k_alignment),
        "K_s3": fmt(cfg.sheep.k_cohesion),
        "K_s4": fmt(cfg.sheep.k_flight),
        "K_d1": fmt(cfg.dog.k_attraction),
        "K_d2": fmt(cfg.dog.k_repulsion),
        "K_d3": fmt(cfg.dog.k_goal_repulsion),
        "warmup_steps": str(cfg.warmup_steps),
    }
    return "".join(f"{key} = {values[key]}\n" for key in _CONFIG_KEYS)


def _parse_pair(raw: str, key: str) -> np.ndarray:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"{key} expects two comma-separated numbers, got {raw!r}")
    try:
        return np.array([float(parts[0]), float(parts[1])])
    except ValueError as exc:
        raise ValueError(f"bad value for {key}: {raw!r}") from exc


def _parse_scalar(raw: str, key: str, kind) -> float | int:
    try:
        if kind is int:
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"bad value for {key}: {raw!r}") from exc


def apply_assignments(cfg: ScenarioConfig, pairs: list[tuple[str, str]]) -> ScenarioConfig:
    """Apply (key, raw value) assignments to cfg; unknown keys are rejected."""
    for key, raw in pairs:
        raw = raw.strip()
        if key == "N":
            cfg = replace(cfg, n_sheep=_parse_scalar(raw, key, int))
        elif key == "rho":
            cfg = replace(cfg, rho=_parse_scalar(raw, key, float))
        elif key == "x_g":
            cfg = replace(cfg, goal=GoalSpec(_parse_pair(raw, key), cfg.goal.radius))
        elif key == "g_r":
            cfg = replace(cfg, goal=GoalSpec(cfg.goal.center, _parse_scalar(raw, key, float)))
        elif key == "r_d":
            cfg = replace(cfg, dog=replace(cfg.dog, r_d=_parse_scalar(raw, key, float)))
        elif key == "T":
            cfg = replace(cfg, horizon=_parse_scalar(raw, key, int))
        elif key == "x_d0":
            cfg = replace(cfg, dog_start=_parse_pair(raw, key))
        elif key == "r_s":
            cfg = replace(cfg, sheep=replace(cfg.sheep, r_s=_parse_scalar(raw, key, float)))
        elif key == "K_s1":
            cfg = replace(cfg, sheep=replace(cfg.sheep, k_separation=_parse_scalar(raw, key, float)))
        elif key == "K_s2":
            cfg = replace(cfg, sheep=replace(cfg.sheep, k_alignment=_parse_scalar(raw, key, float)))
        elif key == "K_s3":
            cfg = replace(cfg, sheep=replace(cfg.sheep, k_cohesion=_parse_scalar(raw, key, float)))
        elif key == "K_s4":
            cfg = replace(cfg, sheep=replace(cfg.sheep, k_flight=_parse_scalar(raw, key, float)))
        elif key == "K_d1":
            cfg = replace(cfg, dog=replace(cfg.dog, k_attraction=_parse_scalar(raw, key, float)))
        elif key == "K_d2":
            cfg = replace(cfg, dog=replace(cfg.dog, k_repulsion=_parse_scalar(raw, key, float)))
        elif key == "K_d3":
            cfg = replace(cfg, dog=replace(cfg.dog, k_goal_repulsion=_parse_scalar(raw, key, float)))
        elif key == "warmup_steps":
            cfg = replace(cfg, warmup_steps=_parse_scalar(raw, key, int))
        else:
            raise ValueError(f"unknown config key {key!r}")
    return cfg


def parse_config(text: str) -> ScenarioConfig:
    """Parse key=value lines; blank lines and '#' comments are ignored."""
    pairs: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        pairs.append((key, raw))
    return apply_assignments(default_scenario(), pairs)


def stream_seed(base_seed: int, n: int, rho: float, trial: int, stream: str) -> int:
    """Deterministic 64-bit seed for one named stream of one trial.

    Pure in its arguments, so adding grid cells or trials never perturbs
    the streams of existing ones.
    """
    label = zlib.crc32(stream.encode("ascii"))
    ss = np.random.SeedSequence(
        entropy=[int(base_seed), int(n), int(round(rho * 1e10)), int(trial), label]
    )
    return int(ss.generate_state(1, np.uint64)[0])
