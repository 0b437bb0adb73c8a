"""Layer tracing from outside the package.

The tracer replaces public functions at the module attributes where
their callers look them up (for example ``guidance.flock_velocities``),
so ``src/`` stays untouched. Operation-level calls (batch, trial, episode,
plan, command) are kept as spans with name, start, end, parent and
operation id (the benchmark's pass number). Hot leaf calls are only
aggregated, per operation, into
count, total and self time, so memory stays bounded however many steps
run. A call's self time is its duration minus the time of the traced
calls it made.
"""
from __future__ import annotations

import time
from pathlib import Path

# Layer name -> (end-to-end metric it should move, workloads where it should show).
LAYER_TARGETS = {
    "flock.velocities": ("rel_throughput", "large-flock (about 95% of a step at N=100), batch-ref (about 70% at N=20)"),
    "flock.state": ("rel_throughput", "large-flock, batch-ref"),
    "dog.steering": ("rel_throughput", "batch-ref; near zero share on large-flock"),
    "dog.approach": ("rel_throughput", "batch-ref; near zero share on large-flock"),
    "guidance": ("rel_throughput, peak_rss_mb", "batch-ref, simulate-trace"),
    "guidance.goal_check": ("rel_throughput", "batch-ref"),
    "placement.prepare": ("rel_throughput; setup_s", "batch-ref, large-flock; setup_s on plan-sweep"),
    "routing.rls": ("rel_throughput", "plan-sweep; small share on batch-ref"),
    "experiments.trial": ("rel_throughput", "batch-ref"),
    "experiments.csv": ("rel_throughput", "batch-ref"),
    "cli": ("rel_throughput", "simulate-trace"),
}

# Spans kept one by one; every other traced name is only aggregated.
SPAN_NAMES = frozenset({"experiments.batch", "experiments.trial", "guidance.episode", "routing.rls", "cli"})


class Tracer:
    """Call stack, per-operation aggregates and operation-level spans."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []  # one [child_seconds] cell per open call
        self._span_stack: list[int] = []
        self.op_id = -1
        self.totals: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.per_op: dict[tuple[int, str], list[float]] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, name: str, fn, on_result=None):
        """Traced stand-in for fn; on_result(args, result) adds counters."""
        stack = self._stack
        totals = self.totals
        per_op = self.per_op
        keep_span = name in SPAN_NAMES
        clock = time.perf_counter

        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            span = None
            if keep_span:
                span = self._open_span(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if span is not None:
                    span["start"] = t0
                    span["end"] = t1
                    self._span_stack.pop()
            if on_result is not None:
                on_result(args, result)
            duration = t1 - t0
            own = duration - cell[0]
            agg = totals.get(name)
            if agg is None:
                agg = totals[name] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += own
            key = (self.op_id, name)
            agg = per_op.get(key)
            if agg is None:
                agg = per_op[key] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += own
            if stack:
                # Counter upkeep is charged to nobody, not to the caller.
                stack[-1][0] += clock() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def _open_span(self, name: str) -> dict:
        parent = self._span_stack[-1] if self._span_stack else None
        span = {"name": name, "op": self.op_id, "parent": parent, "start": 0.0, "end": 0.0}
        self._span_stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def patch(self, module, attr: str, name: str, on_result=None) -> None:
        """Replace module.attr by a traced wrapper until unpatch_all()."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, on_result))

    def unpatch_all(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, [0, 0.0, 0.0])[0])

    def dump(self) -> dict:
        return {
            "totals": {k: {"calls": int(v[0]), "total_s": v[1], "self_s": v[2]} for k, v in self.totals.items()},
            "counters": dict(self.counters),
            "per_op": [
                {"op": op, "name": name, "calls": int(v[0]), "total_s": v[1], "self_s": v[2]}
                for (op, name), v in sorted(self.per_op.items())
            ],
            "spans": self.spans,
        }


def out_bytes(directory: str) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


def install(tracer: Tracer, pkg, leaves: bool = True) -> None:
    """Patch the layer boundaries of the sheepdog modules held in pkg.

    Without leaves only operation-level calls are wrapped (a few dozen per
    run), which is what an untraced run uses to split time per episode
    and per plan.
    """
    import numpy as np  # imported here so that set-up time includes numpy

    cli, experiments, flock, guidance = pkg.cli, pkg.experiments, pkg.flock, pkg.guidance

    def on_velocities(args, result):
        n = result.shape[0]
        tracer.count("flock.velocities.pair_evals", n * (n - 1))

    def on_episode(args, record):
        tracer.count("guidance.steps", record.k_end)
        tracer.count("guidance.successes", int(record.success))
        tracer.count("guidance.trace_bytes", record.dog_trace.nbytes + record.sheep_traces.nbytes)

    def on_plan(args, result):
        trace = result.cost_trace
        tracer.count("routing.rls.iterations", trace.size)
        previous = np.concatenate(([result.initial_cost], trace[:-1]))
        tracer.count("routing.rls.improving", int(np.count_nonzero(trace < previous)))

    def on_cli(args, status):
        argv = args[0]
        tracer.count("cli.out_bytes", out_bytes(argv[argv.index("--out") + 1]))

    tracer.patch(experiments, "run_batch", "experiments.batch")
    tracer.patch(experiments, "run_trial", "experiments.trial")
    tracer.patch(cli, "run_trial", "experiments.trial")
    tracer.patch(experiments, "run_fat", "guidance.episode", on_episode)
    tracer.patch(experiments, "run_proposed", "guidance.episode", on_episode)
    tracer.patch(experiments, "rls_optimize", "routing.rls", on_plan)
    tracer.patch(cli, "rls_optimize", "routing.rls", on_plan)
    tracer.patch(pkg.routing, "rls_optimize", "routing.rls", on_plan)
    tracer.patch(cli, "run_cli", "cli", on_cli)
    if not leaves:
        return
    tracer.patch(guidance, "flock_velocities", "flock.velocities", on_velocities)
    tracer.patch(flock, "flock_velocities", "flock.velocities", on_velocities)
    tracer.patch(guidance, "FlockState", "flock.state")
    tracer.patch(flock, "FlockState", "flock.state")
    tracer.patch(guidance, "steering_command", "dog.steering")
    tracer.patch(guidance, "approach_velocity", "dog.approach")
    tracer.patch(guidance, "goal_reached", "guidance.goal_check")
    tracer.patch(experiments, "prepare_start_state", "placement.prepare")
    tracer.patch(cli, "prepare_start_state", "placement.prepare")
    tracer.patch(experiments, "records_csv", "experiments.csv")
    tracer.patch(experiments, "summary_csv", "experiments.csv")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced calls, as name -> (value, unit)."""
    def c(name: str) -> float:
        return tracer.counters.get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    vel_calls = tracer.calls("flock.velocities")
    episodes = tracer.calls("guidance.episode")
    rls_iters = int(c("routing.rls.iterations"))
    return {
        "flock.velocities.calls": (vel_calls, "count"),
        "flock.velocities.self_s": (tracer.self_s("flock.velocities"), "s"),
        "flock.velocities.us_per_call": (ratio(tracer.self_s("flock.velocities") * 1e6, vel_calls), "us"),
        "flock.velocities.pair_evals": (int(c("flock.velocities.pair_evals")), "count"),
        "flock.state.builds": (tracer.calls("flock.state"), "count"),
        "flock.state.self_s": (tracer.self_s("flock.state"), "s"),
        "dog.steering.calls": (tracer.calls("dog.steering"), "count"),
        "dog.steering.self_s": (tracer.self_s("dog.steering"), "s"),
        "dog.approach.calls": (tracer.calls("dog.approach"), "count"),
        "dog.approach.self_s": (tracer.self_s("dog.approach"), "s"),
        "guidance.episodes": (episodes, "count"),
        "guidance.steps": (int(c("guidance.steps")), "count"),
        "guidance.self_s": (tracer.self_s("guidance.episode"), "s"),
        "guidance.goal_check.calls": (tracer.calls("guidance.goal_check"), "count"),
        "guidance.goal_check.self_s": (tracer.self_s("guidance.goal_check"), "s"),
        "guidance.success_ratio": (ratio(c("guidance.successes"), episodes), "ratio"),
        "guidance.trace_mb": (c("guidance.trace_bytes") / 1e6, "MB"),
        "placement.prepare.calls": (tracer.calls("placement.prepare"), "count"),
        "placement.prepare.self_s": (tracer.self_s("placement.prepare"), "s"),
        "routing.rls.calls": (tracer.calls("routing.rls"), "count"),
        "routing.rls.iterations": (rls_iters, "count"),
        "routing.rls.self_s": (tracer.self_s("routing.rls"), "s"),
        "routing.rls.ns_per_iter": (ratio(tracer.self_s("routing.rls") * 1e9, rls_iters), "ns"),
        "routing.rls.improve_ratio": (ratio(c("routing.rls.improving"), rls_iters), "ratio"),
        "experiments.trial.calls": (tracer.calls("experiments.trial"), "count"),
        "experiments.trial.self_s": (tracer.self_s("experiments.trial"), "s"),
        "experiments.csv.self_s": (tracer.self_s("experiments.csv"), "s"),
        "cli.self_s": (tracer.self_s("cli"), "s"),
        "cli.out_bytes": (int(c("cli.out_bytes")), "bytes"),
    }
