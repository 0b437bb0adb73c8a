"""Command line front end: plan a tour, simulate one episode, or run a batch.

A command returns its files as {name: text} in write order, where a text is a str or a list of str
blocks; only run_cli writes them into --out, all or nothing, a block at a time.
"""
from __future__ import annotations

import argparse
import errno
import os
import shutil
import sys
import tempfile
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
from .placement import prepare_start_state
from .routing import STRATEGIES, RlsConfig, TourInstance, rls_optimize
from .scenario import (NUMBER, ScenarioConfig, apply_assignments, default_scenario, fmt, parse_config, rows_text,
                       stream_seed)


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


def _key_values(**fields) -> str:
    """The summary files' format: one key=value line per field, in call order, floats through fmt."""
    return "".join(f"{key}={fmt(value) if isinstance(value, float) else value}\n" for key, value in fields.items())


def _cmd_plan(args: argparse.Namespace, cfg: ScenarioConfig) -> dict[str, str]:
    # The search's numbers are checked before the warm-up runs.
    config = RlsConfig(args.strategy, args.iterations,
                       stream_seed(args.seed, cfg.n_sheep, cfg.rho, 0, f"plan:{args.strategy}"))
    start = prepare_start_state(cfg, base_seed=args.seed)
    result = rls_optimize(TourInstance(start.dog_pos, start.sheep_pos, cfg.goal.center), config)
    summary = _key_values(strategy=args.strategy, iterations=args.iterations, seed=args.seed, N=cfg.n_sheep,
                          initial_cost=result.initial_cost, final_cost=result.best_cost)
    # Tour positions and iterations are numbered from 1.
    return {"tour.txt": rows_text((str(i + 1),) for i in result.best_tour.order),
            "cost_trace.csv": rows_text((str(i), fmt(c)) for i, c in enumerate(result.cost_trace, start=1)),
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


def _cmd_simulate(args: argparse.Namespace, cfg: ScenarioConfig) -> dict[str, str | list[str]]:
    rows = _TrajectoryRows(cfg.n_sheep)
    outcome = run_trial(cfg, [args.method], args.seed, trial=0, iterations=args.iterations, sink=rows)[args.method]
    record = outcome.record
    summary = _key_values(method=args.method, seed=args.seed, success=int(record.success), k_end=record.k_end,
                          total_distance=record.total_distance)
    if record.tour_cost_initial is not None:
        summary += _key_values(tour_cost_initial=record.tour_cost_initial, tour_cost_final=record.tour_cost_final)
    phases = rows_text((str(k), mode.value, str(nu)) for k, mode, nu in outcome.phases)
    return {"trajectory.csv": rows.blocks(), "phases.csv": phases, "run_summary.txt": summary}


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


def _write_files(out: Path, files: dict[str, str | list[str]]) -> None:
    """Write files into out, all or nothing: into a fresh staging directory inside out, so every
    move stays in one directory, then moved in once all are written. A failed write or move leaves
    out as it was, and the staging directory never stays."""
    for name in files:
        if (out / name).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
    # The outermost of out and its parents that is missing; a failed run removes it again.
    made = next((p for p in (*reversed(out.parents), out) if not p.exists()), None)
    try:
        out.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(prefix=".stage.", dir=out))
        try:
            for name, text in files.items():
                # Written as Path.write_text would, but encoded a block at a time.
                with (stage / name).open("w") as f:
                    f.writelines([text] if isinstance(text, str) else text)
            for name in files:
                os.replace(stage / name, out / name)
        finally:
            shutil.rmtree(stage, ignore_errors=True)  # empty once every file has moved
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise


def run_cli(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The one place where a usage or I/O problem becomes an error line and exit 2, and the
    # one place that writes: --out is touched only after the command has rendered every file.
    try:
        _write_files(Path(args.out), args.func(args, _load_scenario(args)))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
