"""Batch experiments over the (N, rho) grid.

Every method of a trial starts from the identical warmed flock, so
method comparisons are paired. Seeds are derived per (cell, trial,
stream), which keeps trials independent and reorderable.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce
from operator import add

from .guidance import GuidanceMode, run_fat, run_proposed
from .placement import prepare_start_state
from .routing import STRATEGIES, RlsConfig, TourInstance, rls_optimize
from .scenario import ScenarioConfig, fmt, rho_key, rows_text, stream_seed

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
    """One line of the per-trial results table, and its episode's phase rows for phases.csv (no column)."""

    n: int
    rho: float
    trial: int
    method: str
    success: bool
    k_end: int
    total_distance: float
    tour_cost_initial: float | None
    tour_cost_final: float | None
    phases: tuple[tuple[int, GuidanceMode, int], ...]


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


def run_trial(
    config: ScenarioConfig,
    methods: list[str],
    base_seed: int,
    trial: int,
    iterations: int,
    *,
    sink=None,
) -> dict[str, TrialRecord]:
    """Run every method once from the shared warmed start state; returns each method's record, in
    methods order, built right after its episode. sink, if given, sees the states of each method's
    episode in turn; a batch keeps no states and passes none."""
    if iterations < 1:  # checked here too: a trial with no proposed method builds no RlsConfig
        raise ValueError(f"iterations must be positive, got {iterations}")
    start = prepare_start_state(config, base_seed=base_seed, trial=trial)
    instance = TourInstance(start.dog_pos, start.sheep_pos, config.goal.center)
    records: dict[str, TrialRecord] = {}
    for method in methods:
        strategy = method_strategy(method)
        if strategy is None:
            run, costs = run_fat(config, initial_state=start, sink=sink), (None, None)
        else:
            seed = stream_seed(base_seed, config.n_sheep, config.rho, trial, f"plan:{strategy}")
            plan = rls_optimize(instance, RlsConfig(strategy, iterations, seed))
            run = run_proposed(config, plan.best_tour, initial_state=start, sink=sink)
            costs = plan.initial_cost, plan.best_cost
        records[method] = TrialRecord(config.n_sheep, config.rho, trial, method, run.success, run.k_end,
                                      run.total_distance, *costs, run.phases)
    return records


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
    for name, count in (("trials", trials), ("iterations", iterations)):
        if count < 1:
            raise ValueError(f"{name} must be positive, got {count}")
    methods = ([METHOD_FAT] if include_fat else []) + [proposed_method(s) for s in strategies]
    if not methods or len(set(methods)) < len(methods):
        raise ValueError(f"bad methods {methods}: none selected, or one given more than once")
    # Every cell is checked before any trial runs. Its seed streams come from (N, rho_key(rho)), so a
    # cell that repeats another's N and printed rho or rho key would run the same trials again.
    configs, seen = [], set()
    for n, rho in grid:
        try:
            configs.append(replace(base, n_sheep=n, rho=rho))
        except ValueError as exc:
            raise ValueError(f"bad grid cell N={n}, rho={rho}: {exc}") from exc
        cell = {(n, fmt(rho)), (n, rho_key(rho))}  # after the config check: round(inf) raises
        if seen & cell:
            raise ValueError(f"bad grid cell N={n}, rho={rho}: repeats an earlier cell's printed rho or seed stream")
        seen |= cell
    records: list[TrialRecord] = []
    for config in configs:
        for trial in range(trials):
            records.extend(run_trial(config, methods, base_seed, trial, iterations).values())
    return records, summarize(records)


def summarize(records: list[TrialRecord]) -> list[BatchSummary]:
    """Group records by (cell, method) in first-seen order and aggregate.

    Failed trials carry their full-horizon travel, so the mean over all
    trials is defined even when some runs time out. The mean over
    successes is NaN when nothing succeeded. Both means add left to right
    from 0.0, as the builtin sum() does only before Python 3.12.
    """
    groups: dict[tuple[int, float, str], list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault((rec.n, rec.rho, rec.method), []).append(rec)
    summaries = []
    for (n, rho, method), recs in groups.items():
        wins = [r.total_distance for r in recs if r.success]
        summaries.append(
            BatchSummary(
                n=n,
                rho=rho,
                method=method,
                trials=len(recs),
                successes=len(wins),
                success_rate=len(wins) / len(recs),
                mean_distance_successes=reduce(add, wins, 0.0) / len(wins) if wins else float("nan"),
                mean_distance_all=reduce(add, (r.total_distance for r in recs), 0.0) / len(recs),
            )
        )
    return summaries


def records_csv(records: list[TrialRecord]) -> str:
    """Per-trial table; tour cost fields are empty for the baseline."""
    return "N,rho,trial,method,success,k_end,J,tour_cost_initial,tour_cost_final\n" + rows_text(
        (str(r.n), fmt(r.rho), str(r.trial), r.method, str(int(r.success)), str(r.k_end), fmt(r.total_distance),
         *("" if c is None else fmt(c) for c in (r.tour_cost_initial, r.tour_cost_final)))
        for r in records)


def summary_csv(summaries: list[BatchSummary]) -> str:
    return "N,rho,method,trials,success_rate,mean_J_successes,mean_J_all\n" + rows_text(
        (str(s.n), fmt(s.rho), s.method, str(s.trials),
         *map(fmt, (s.success_rate, s.mean_distance_successes, s.mean_distance_all)))
        for s in summaries)
