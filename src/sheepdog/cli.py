"""Command line front end: plan a tour, simulate one episode, or run a batch."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
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


def _check_numbers(args: argparse.Namespace) -> None:
    """Reject out-of-range numeric options before any side effect."""
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if args.iterations < 1:
        raise ValueError(f"--iterations must be positive, got {args.iterations}")
    if getattr(args, "trials", 1) < 1:
        raise ValueError(f"--trials must be positive, got {args.trials}")


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


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _tour_text(order: tuple[int, ...]) -> str:
    # Tour files are 1-based.
    return "".join(f"{i + 1}\n" for i in order)


def _trace_text(result: RlsResult) -> str:
    lines = [f"{i + 1},{fmt(c)}" for i, c in enumerate(result.cost_trace)]
    return "\n".join(lines) + "\n"


def _cmd_plan(args: argparse.Namespace) -> int:
    cfg = _load_scenario(args)
    out = _out_dir(args)
    start = prepare_start_state(cfg, base_seed=args.seed)
    instance = TourInstance(start.dog_pos, start.sheep_pos, cfg.goal.center)
    seed = stream_seed(args.seed, cfg.n_sheep, cfg.rho, 0, f"plan:{args.strategy}")
    result = rls_optimize(instance, RlsConfig(args.strategy, args.iterations, seed))
    (out / "tour.txt").write_text(_tour_text(result.best_tour.order))
    (out / "cost_trace.csv").write_text(_trace_text(result))
    summary = (
        f"strategy={args.strategy}\n"
        f"iterations={args.iterations}\n"
        f"seed={args.seed}\n"
        f"N={cfg.n_sheep}\n"
        f"initial_cost={fmt(result.initial_cost)}\n"
        f"final_cost={fmt(result.best_cost)}\n"
    )
    (out / "plan_summary.txt").write_text(summary)
    return 0


def _trajectory_text(record: RunRecord) -> str:
    row = "%d" + f",{NUMBER}" * (2 + 2 * record.sheep_traces.shape[1]) + "\n"
    return "".join(
        row % (k, *dog.tolist(), *sheep.ravel().tolist())
        for k, (dog, sheep) in enumerate(zip(record.dog_trace, record.sheep_traces))
    )


def _phases_text(record: RunRecord) -> str:
    return "".join(f"{k},{phase.mode.value},{phase.nu}\n" for k, phase in record.phases)


def _cmd_simulate(args: argparse.Namespace) -> int:
    method_strategy(args.method)  # rejects an unknown method before --out is made
    cfg = _load_scenario(args)
    out = _out_dir(args)
    outcome = run_trial(cfg, [args.method], base_seed=args.seed, trial=0, iterations=args.iterations)[args.method]
    record = outcome.run
    (out / "trajectory.csv").write_text(_trajectory_text(record))
    (out / "phases.csv").write_text(_phases_text(record))
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
    (out / "run_summary.txt").write_text(summary)
    return 0


def _parse_grid(raw: str) -> list[tuple[int, float]]:
    try:
        n_part, _, rho_part = raw.partition(";")
        ns = [int(tok) for tok in n_part.split(",") if tok.strip()]
        rhos = [float(tok) for tok in rho_part.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad grid {raw!r}: {exc}") from exc
    if not ns or not rhos:
        raise ValueError(f"bad grid {raw!r}: expected 'N1,N2,...;rho1,rho2,...'")
    if len(set(ns)) < len(ns) or len({fmt(rho) for rho in rhos}) < len(rhos):
        raise ValueError(f"bad grid {raw!r}: an N or a printed rho is given more than once")
    return [(n, rho) for n in ns for rho in rhos]


def _cmd_batch(args: argparse.Namespace) -> int:
    cfg = _load_scenario(args)
    grid = _parse_grid(args.grid) if args.grid else [(cfg.n_sheep, cfg.rho)]
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    strategies = [s for s in map(method_strategy, methods) if s is not None]  # checks every name
    if not methods:
        raise ValueError("nothing to run: no methods selected")
    if len(set(methods)) < len(methods):
        raise ValueError(f"bad methods {args.methods!r}: a method is given more than once")
    for n, rho in grid:
        try:
            replace(cfg, n_sheep=n, rho=rho)
        except ValueError as exc:
            raise ValueError(f"bad grid cell N={n}, rho={rho}: {exc}") from exc
    out = _out_dir(args)
    records, summaries = run_batch(
        cfg,
        grid,
        trials=args.trials,
        strategies=strategies,
        base_seed=args.seed,
        iterations=args.iterations,
        include_fat=METHOD_FAT in methods,
    )
    (out / "trials.csv").write_text(records_csv(records))
    (out / "summary.csv").write_text(summary_csv(summaries))
    return 0


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

    plan = sub.add_parser("plan", help="optimize a visiting order for the warmed flock")
    common(plan)
    plan.add_argument("--strategy", choices=STRATEGIES, default="reverse")
    plan.add_argument("--iterations", type=int, default=10_000)
    plan.set_defaults(func=_cmd_plan)

    simulate = sub.add_parser("simulate", help="run one guidance episode")
    common(simulate)
    simulate.add_argument("--method", default=proposed_method("reverse"),
                          help="fat or proposed:<strategy> (default proposed:reverse)")
    simulate.add_argument("--iterations", type=int, default=10_000)
    simulate.set_defaults(func=_cmd_simulate)

    batch = sub.add_parser("batch", help="paired trials over an N x rho grid")
    common(batch)
    batch.add_argument("--grid", help="grid as 'N1,N2,...;rho1,rho2,...' (default: the config cell)")
    batch.add_argument("--trials", type=int, default=100)
    batch.add_argument("--methods", default=",".join(ALL_METHODS),
                       help="comma-separated methods (default: all)")
    batch.add_argument("--iterations", type=int, default=10_000)
    batch.set_defaults(func=_cmd_batch)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The one place where a usage or I/O problem becomes an error line and exit 2.
    try:
        _check_numbers(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
