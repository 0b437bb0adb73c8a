"""Command line front end: plan a tour, simulate one episode, or run a batch.

A command returns its files as {name: text} in write order, where a text is a str or a list of str
blocks; only run_cli makes --out and writes them, a block at a time.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import (
    ALL_METHODS,
    METHOD_FAT,
    method_strategy,
    proposed_method,
    records_csv,
    run_trial,
    summary_csv,
    run_batch,
)
from .guidance import RunRecord
from .placement import prepare_start_state
from .routing import STRATEGIES, RlsConfig, RlsResult, TourInstance, rls_optimize
from .scenario import NUMBER, ScenarioConfig, apply_assignments, default_scenario, fmt, parse_config, stream_seed


def _load_scenario(args: argparse.Namespace) -> ScenarioConfig:
    cfg = default_scenario()
    if args.config is not None:
        try:
            cfg = parse_config(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # an undecodable file raises UnicodeDecodeError, a ValueError
            raise ValueError(f"bad config {args.config}: {exc}") from exc
    overrides = []
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"override must look like key=value, got {item!r}")
        key, _, raw = item.partition("=")
        overrides.append((key.strip(), raw))
    return apply_assignments(cfg, overrides)


def _tour_text(order: tuple[int, ...]) -> str:
    # Tour files are 1-based.
    return "".join(f"{i + 1}\n" for i in order)


def _trace_text(result: RlsResult) -> str:
    lines = [f"{i + 1},{fmt(c)}" for i, c in enumerate(result.cost_trace)]
    return "\n".join(lines) + "\n"


def _cmd_plan(args: argparse.Namespace, cfg: ScenarioConfig) -> dict[str, str]:
    start = prepare_start_state(cfg, base_seed=args.seed)
    instance = TourInstance(start.dog_pos, start.sheep_pos, cfg.goal.center)
    seed = stream_seed(args.seed, cfg.n_sheep, cfg.rho, 0, f"plan:{args.strategy}")
    result = rls_optimize(instance, RlsConfig(args.strategy, args.iterations, seed))
    summary = (
        f"strategy={args.strategy}\n"
        f"iterations={args.iterations}\n"
        f"seed={args.seed}\n"
        f"N={cfg.n_sheep}\n"
        f"initial_cost={fmt(result.initial_cost)}\n"
        f"final_cost={fmt(result.best_cost)}\n"
    )
    return {"tour.txt": _tour_text(result.best_tour.order), "cost_trace.csv": _trace_text(result),
            "plan_summary.txt": summary}


# States per rendered block of trajectory.csv rows; a string per row would fragment the heap.
TRAJECTORY_BLOCK = 256


class _TrajectoryRows:
    """Episode sink that renders the states it sees as trajectory.csv rows, a block at a time."""

    def __init__(self, n_sheep: int):
        self._row = "%d" + f",{NUMBER}" * (2 + 2 * n_sheep) + "\n"
        self._k, self._values, self._blocks = 0, [], []

    def __call__(self, state) -> None:
        self._values += (self._k, *state.dog_pos.tolist(), *state.sheep_pos.ravel().tolist())
        self._k += 1
        if self._k % TRAJECTORY_BLOCK == 0:
            self._blocks.append(self._row * TRAJECTORY_BLOCK % tuple(self._values))
            self._values.clear()

    def blocks(self) -> list[str]:
        """The whole file, once the episode has ended: the full blocks, then the rows after them."""
        self._blocks.append(self._row * (self._k % TRAJECTORY_BLOCK) % tuple(self._values))
        self._values.clear()
        return self._blocks


def _phases_text(record: RunRecord) -> str:
    return "".join(f"{k},{phase.mode.value},{phase.nu}\n" for k, phase in record.phases)


def _cmd_simulate(args: argparse.Namespace, cfg: ScenarioConfig) -> dict[str, str | list[str]]:
    rows = _TrajectoryRows(cfg.n_sheep)
    outcome = run_trial(cfg, [args.method], args.seed, trial=0, iterations=args.iterations, sink=rows)[args.method]
    record = outcome.run
    summary = (
        f"method={args.method}\n"
        f"seed={args.seed}\n"
        f"success={int(record.success)}\n"
        f"k_end={record.k_end}\n"
        f"total_distance={fmt(record.total_distance)}\n"
    )
    if outcome.plan is not None:
        summary += (
            f"tour_cost_initial={fmt(outcome.plan.initial_cost)}\n"
            f"tour_cost_final={fmt(outcome.plan.best_cost)}\n"
        )
    return {"trajectory.csv": rows.blocks(), "phases.csv": _phases_text(record), "run_summary.txt": summary}


def _parse_grid(raw: str) -> list[tuple[int, float]]:
    try:
        n_part, _, rho_part = raw.partition(";")
        ns = [int(tok) for tok in n_part.split(",") if tok.strip()]
        rhos = [float(tok) for tok in rho_part.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad grid {raw!r}: {exc}") from exc
    if not ns or not rhos:
        raise ValueError(f"bad grid {raw!r}: expected 'N1,N2,...;rho1,rho2,...'")
    return [(n, rho) for n in ns for rho in rhos]


def _cmd_batch(args: argparse.Namespace, cfg: ScenarioConfig) -> dict[str, str]:
    grid = _parse_grid(args.grid) if args.grid else [(cfg.n_sheep, cfg.rho)]
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    strategies = [s for s in map(method_strategy, methods) if s is not None]  # checks every name
    if len(set(methods)) < len(methods):
        raise ValueError(f"bad methods {args.methods!r}: a method is given more than once")
    records, summaries = run_batch(
        cfg,
        grid,
        trials=args.trials,
        strategies=strategies,
        base_seed=args.seed,
        iterations=args.iterations,
        include_fat=METHOD_FAT in methods,
    )
    return {"trials.csv": records_csv(records), "summary.csv": summary_csv(summaries)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheepdog",
        description="Shepherding simulator: plan sheep tours, run episodes, sweep grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value config file; defaults cover every key")
        p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key")
        p.add_argument("--iterations", type=int, default=10_000)

    plan = sub.add_parser("plan", help="optimize a visiting order for the warmed flock")
    common(plan)
    plan.add_argument("--strategy", choices=STRATEGIES, default="reverse")
    plan.set_defaults(func=_cmd_plan)

    simulate = sub.add_parser("simulate", help="run one guidance episode")
    common(simulate)
    simulate.add_argument("--method", default=proposed_method("reverse"),
                          help="fat or proposed:<strategy> (default proposed:reverse)")
    simulate.set_defaults(func=_cmd_simulate)

    batch = sub.add_parser("batch", help="paired trials over an N x rho grid")
    common(batch)
    batch.add_argument("--grid", help="grid as 'N1,N2,...;rho1,rho2,...' (default: the config cell)")
    batch.add_argument("--trials", type=int, default=100)
    batch.add_argument("--methods", default=",".join(ALL_METHODS),
                       help="comma-separated methods (default: all)")
    batch.set_defaults(func=_cmd_batch)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The one place where a usage or I/O problem becomes an error line and exit 2, and the
    # one place that writes: --out is made only after the command has rendered every file.
    try:
        files = args.func(args, _load_scenario(args))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            # Written as Path.write_text would, but encoded a block at a time.
            with (out / name).open("w") as f:
                f.writelines([text] if isinstance(text, str) else text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
