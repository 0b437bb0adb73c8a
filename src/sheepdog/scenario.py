"""Scenario configuration, the key=value config format, and seed streams."""
from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .dog import DogParams
from .flock import SheepParams, _count, _real, as_point


@dataclass(frozen=True, eq=False)
class GoalSpec:
    """Goal disk: every sheep must end within radius of center."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", as_point(self.center))
        _real("goal radius", self.radius, positive=True)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Everything that defines one episode family.

    n_sheep and rho set the initial disk via the placement density, the
    rest mirrors the config file keys one to one.
    """

    n_sheep: int = 20
    rho: float = 0.0012
    goal: GoalSpec = GoalSpec(center=np.zeros(2), radius=20.0)
    horizon: int = 10_000
    dog_start: np.ndarray = field(default_factory=lambda: np.array([-30.0, 50.0]))
    sheep: SheepParams = SheepParams()
    dog: DogParams = DogParams()
    warmup_steps: int = 50

    def __post_init__(self) -> None:
        object.__setattr__(self, "dog_start", as_point(self.dog_start))
        for name, key, least in (("n_sheep", "N", 1), ("horizon", "T", 0), ("warmup_steps", "warmup_steps", 0)):
            object.__setattr__(self, name, _count(key, getattr(self, name), least))
        _real("rho", self.rho, positive=True)
        # rho_key takes rho * 1e10; the placement radius is sqrt(N / (pi * rho)).
        if not (math.isfinite(self.rho * 1e10) and math.isfinite(self.n_sheep / (math.pi * self.rho))):
            raise ValueError(f"rho={self.rho!r} is out of range: rho * 1e10 or sqrt(N / (pi * rho)) is not finite")
        (gx, gy), (dx, dy) = self.goal.center.tolist(), self.dog_start.tolist()
        if not math.isfinite(math.hypot(gx - dx, gy - dy)):
            raise ValueError(f"x_g={gx!r},{gy!r} and x_d0={dx!r},{dy!r} are out of range: their distance is not finite")


def default_scenario() -> ScenarioConfig:
    return ScenarioConfig()


NUMBER = "%.9g"  # the one number spec, which fmt and the trajectory.csv row format share


def fmt(x: float) -> str:
    """A number as every config and output file prints it: 9 significant digits."""
    return NUMBER % x


def rows_text(rows) -> str:
    """Every table's format: one line of comma-joined cells (strings) per row."""
    return "".join([",".join(row) + "\n" for row in rows])


_PAIR = "pair"  # two comma-separated floats

# Config file keys in README's order: key -> (field path, kind).
_CONFIG_KEYS = {
    "N": (("n_sheep",), int),
    "rho": (("rho",), float),
    "x_g": (("goal", "center"), _PAIR),
    "g_r": (("goal", "radius"), float),
    "r_d": (("dog", "r_d"), float),
    "T": (("horizon",), int),
    "x_d0": (("dog_start",), _PAIR),
    "r_s": (("sheep", "r_s"), float),
    "K_s1": (("sheep", "k_separation"), float),
    "K_s2": (("sheep", "k_alignment"), float),
    "K_s3": (("sheep", "k_cohesion"), float),
    "K_s4": (("sheep", "k_flight"), float),
    "K_d1": (("dog", "k_attraction"), float),
    "K_d2": (("dog", "k_repulsion"), float),
    "K_d3": (("dog", "k_goal_repulsion"), float),
    "warmup_steps": (("warmup_steps",), int),
}


def _parse(raw: str, key: str, kind) -> int | float | np.ndarray:
    parts = raw.split(",") if kind is _PAIR else None
    if parts is not None and len(parts) != 2:
        raise ValueError(f"{key} expects two comma-separated numbers, got {raw!r}")
    try:
        return kind(raw) if parts is None else np.array([float(parts[0]), float(parts[1])])
    except ValueError as exc:
        raise ValueError(f"bad value for {key}: {raw!r}") from exc


def apply_assignments(cfg: ScenarioConfig, pairs: list[tuple[str, str]]) -> ScenarioConfig:
    """Apply (key, raw value) assignments to cfg; unknown keys are rejected, a repeated key takes its last value.

    cfg is rebuilt once, after every value is parsed, so checks across keys see only the final values.
    """
    groups: dict[tuple[str, ...], dict] = {}  # () for top-level fields, (name,) for a nested dataclass
    for key, raw in pairs:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        (*group, name), kind = _CONFIG_KEYS[key]
        groups.setdefault(tuple(group), {})[name] = _parse(raw.strip(), key, kind)
    top = groups.pop((), {})
    return replace(cfg, **top, **{head: replace(getattr(cfg, head), **fields) for (head,), fields in groups.items()})


def parse_config(text: str) -> list[tuple[str, str]]:
    """Key=value lines as (key, raw) pairs; skips '#' comments and blank lines, refuses unknown or repeated keys."""
    pairs: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.partition("#")[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        pairs.append((key, raw))
    return pairs


def rho_key(rho: float) -> int:
    """The integer that stands for rho in every seed stream: rho * 1e10, rounded."""
    return int(round(rho * 1e10))


def stream_seed(base_seed: int, n: int, rho: float, trial: int, stream: str) -> int:
    """Deterministic 64-bit seed for one named stream of one trial.

    Pure in its arguments, so adding grid cells or trials never perturbs
    the streams of existing ones.
    """
    # Each is checked by name, as SeedSequence's own error would name none of them.
    base_seed, n, trial = _count("base_seed", base_seed), _count("n", n), _count("trial", trial)
    label = zlib.crc32(stream.encode("ascii"))
    ss = np.random.SeedSequence(entropy=[base_seed, n, rho_key(rho), trial, label])
    return int(ss.generate_state(1, np.uint64)[0])
