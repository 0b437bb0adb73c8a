"""Batch experiments over the (N, rho) grid.

Every method of a trial starts from the identical warmed flock, so
method comparisons are paired. Seeds are derived per (cell, trial,
stream), which keeps trials independent and reorderable.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .guidance import RunRecord, run_fat, run_proposed
from .placement import prepare_start_state
from .routing import STRATEGIES, RlsConfig, RlsResult, TourInstance, rls_optimize
from .scenario import ScenarioConfig, fmt, stream_seed

METHOD_FAT = "fat"


def proposed_method(strategy: str) -> str:
    return f"proposed:{strategy}"


ALL_METHODS = (METHOD_FAT,) + tuple(proposed_method(s) for s in STRATEGIES)


def method_strategy(method: str) -> str | None:
    """Strategy of a proposed method, or None for the baseline; any other name is rejected."""
    if method not in ALL_METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {', '.join(ALL_METHODS)}")
    return None if method == METHOD_FAT else method.partition(":")[2]


@dataclass(frozen=True)
class TrialRecord:
    """One line of the per-trial results table."""

    n: int
    rho: float
    trial: int
    method: str
    success: bool
    k_end: int
    total_distance: float
    tour_cost_initial: float | None
    tour_cost_final: float | None


@dataclass(frozen=True, eq=False)
class MethodOutcome:
    method: str
    run: RunRecord
    plan: RlsResult | None


@dataclass(frozen=True)
class BatchSummary:
    """Aggregates for one (cell, method); recomputable from the trial records."""

    n: int
    rho: float
    method: str
    trials: int
    successes: int
    success_rate: float
    mean_distance_successes: float
    mean_distance_all: float
    distance_samples: tuple[float, ...]


def run_trial(
    config: ScenarioConfig,
    methods: list[str],
    base_seed: int,
    trial: int,
    iterations: int,
) -> dict[str, MethodOutcome]:
    """Run every method once from the shared warmed start state."""
    start = prepare_start_state(config, base_seed=base_seed, trial=trial)
    instance = TourInstance(
        dog_start=start.dog_pos,
        sheep_start=start.sheep_pos,
        goal=config.goal.center,
    )
    outcomes: dict[str, MethodOutcome] = {}
    for method in methods:
        strategy = method_strategy(method)
        if strategy is None:
            outcomes[method] = MethodOutcome(method, run_fat(config, initial_state=start), None)
        else:
            seed = stream_seed(base_seed, config.n_sheep, config.rho, trial, f"plan:{strategy}")
            plan = rls_optimize(instance, RlsConfig(strategy, iterations, seed))
            run = run_proposed(config, plan.best_tour, initial_state=start)
            outcomes[method] = MethodOutcome(method, run, plan)
    return outcomes


def _record(config: ScenarioConfig, trial: int, outcome: MethodOutcome) -> TrialRecord:
    plan = outcome.plan
    return TrialRecord(
        n=config.n_sheep,
        rho=config.rho,
        trial=trial,
        method=outcome.method,
        success=outcome.run.success,
        k_end=outcome.run.k_end,
        total_distance=outcome.run.total_distance,
        tour_cost_initial=None if plan is None else plan.initial_cost,
        tour_cost_final=None if plan is None else plan.best_cost,
    )


def run_batch(
    base: ScenarioConfig,
    grid: list[tuple[int, float]],
    trials: int,
    strategies: list[str],
    base_seed: int,
    iterations: int = 10_000,
    include_fat: bool = True,
) -> tuple[list[TrialRecord], list[BatchSummary]]:
    """Paired trials for every grid cell; returns per-trial records and summaries."""
    methods = ([METHOD_FAT] if include_fat else []) + [proposed_method(s) for s in strategies]
    if not methods:
        raise ValueError("nothing to run: no methods selected")
    records: list[TrialRecord] = []
    for n, rho in grid:
        config = replace(base, n_sheep=n, rho=rho)
        for trial in range(trials):
            outcomes = run_trial(config, methods, base_seed, trial, iterations)
            records.extend(_record(config, trial, outcomes[m]) for m in methods)
    return records, summarize(records)


def summarize(records: list[TrialRecord]) -> list[BatchSummary]:
    """Group records by (cell, method) in first-seen order and aggregate.

    Failed trials carry their full-horizon travel, so the mean over all
    trials is defined even when some runs time out. The mean over
    successes is NaN when nothing succeeded.
    """
    groups: dict[tuple[int, float, str], list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault((rec.n, rec.rho, rec.method), []).append(rec)
    summaries = []
    for (n, rho, method), recs in groups.items():
        distances = tuple(r.total_distance for r in recs)
        wins = [r.total_distance for r in recs if r.success]
        summaries.append(
            BatchSummary(
                n=n,
                rho=rho,
                method=method,
                trials=len(recs),
                successes=len(wins),
                success_rate=len(wins) / len(recs),
                mean_distance_successes=sum(wins) / len(wins) if wins else float("nan"),
                mean_distance_all=sum(distances) / len(distances),
                distance_samples=distances,
            )
        )
    return summaries


def records_csv(records: list[TrialRecord]) -> str:
    """Per-trial table; tour cost fields are empty for the baseline."""
    lines = ["N,rho,trial,method,success,k_end,J,tour_cost_initial,tour_cost_final"]
    for r in records:
        lines.append(
            ",".join(
                (
                    str(r.n),
                    fmt(r.rho),
                    str(r.trial),
                    r.method,
                    str(int(r.success)),
                    str(r.k_end),
                    fmt(r.total_distance),
                    "" if r.tour_cost_initial is None else fmt(r.tour_cost_initial),
                    "" if r.tour_cost_final is None else fmt(r.tour_cost_final),
                )
            )
        )
    return "\n".join(lines) + "\n"


def summary_csv(summaries: list[BatchSummary]) -> str:
    lines = ["N,rho,method,trials,success_rate,mean_J_successes,mean_J_all"]
    for s in summaries:
        lines.append(
            ",".join(
                (
                    str(s.n),
                    fmt(s.rho),
                    s.method,
                    str(s.trials),
                    fmt(s.success_rate),
                    fmt(s.mean_distance_successes),
                    fmt(s.mean_distance_all),
                )
            )
        )
    return "\n".join(lines) + "\n"
