"""The four benchmark workloads: inputs, unit operations and output digests.

Each workload draws its inputs from a fixed pool of recorded entries
whose output digests sit in golden.json; the workload seed only picks
the order in which entries are visited, so every run's outputs can be
checked bit for bit. One pass runs one entry and is a fixed list of unit
operations (episodes, plans or CLI commands). Runs stop at pass
boundaries, so the mix of operations never depends on timing.
"""
from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

RHO = 0.0012
ITERATIONS = 10_000
BATCH_GRID = [(10, RHO), (20, RHO)]
LARGE_N = 100
LARGE_T = "600"
PLAN_NS = (20, 100)
PLAN_ENTRIES_PER_RUN = 4
SIM_METHODS = ("fat", "proposed:reverse")


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


@dataclass
class OpResult:
    """One unit operation: its time, work done, and output digests by part.

    fixed_s is the part of seconds that does not grow with work: the plan
    made for an episode and its share of the batch's upkeep. host_rate is
    the reference loop's speed (steps/s) sampled during the operation,
    when a host sampler runs.
    """

    key: str
    seconds: float
    work: int
    digests: dict[str, str] = field(default_factory=dict)
    error: str | None = None
    fixed_s: float = 0.0
    host_rate: float | None = None


@dataclass
class Spec:
    pool: int  # recorded entries
    unit: str  # what one unit operation is
    nominal_pass_s: float  # sizes the fixed-work traced run


# Why each workload exists is stated in BENCHMARK.json.
SPECS = {
    "batch-ref": Spec(24, "episode", 6.0),
    "plan-sweep": Spec(32, "plan", 1.6),
    "large-flock": Spec(16, "episode", 4.0),
    "simulate-trace": Spec(16, "command", 5.0),
}


def entry_order(workload: str, seed: int) -> list[int]:
    """Pool entries in the order the seed visits them."""
    pool = SPECS[workload].pool
    return sorted(range(pool), key=lambda e: sha256(f"{workload}:{seed}:{e}"))


class Workload:
    """Set-up, warm-up and passes of one workload over the sheepdog package."""

    def __init__(self, name: str, pkg, scratch: Path):
        self.name = name
        self.spec = SPECS[name]
        self.pkg = pkg
        self.scratch = scratch
        self.tracer = None  # when set, its spans time each episode of a batch
        self.host = None  # when set, a reference.HostSampler whose pauses timings leave out
        self.base = pkg.scenario.default_scenario()
        self.instances: dict[int, dict[int, object]] = {}

    def setup(self, entries: list[int]) -> None:
        """Build the inputs the timed region needs, then run one warm-up op."""
        pkg = self.pkg
        name = self.name
        if name == "plan-sweep":
            for entry in entries[:PLAN_ENTRIES_PER_RUN]:
                self._instances(entry)
            first = self._instances(entries[0])[PLAN_NS[0]]
            pkg.routing.rls_optimize(first, pkg.routing.RlsConfig("reverse", 200, 1))
        elif name == "simulate-trace":
            self._simulate("fat", 0, ["--set", "T=20", "--iterations", "200"])
        else:
            cfg = pkg.scenario.apply_assignments(self.base, [("T", "20")])
            n = LARGE_N if name == "large-flock" else BATCH_GRID[0][0]
            pkg.experiments.run_batch(cfg, [(n, RHO)], 1, ["reverse"], 0, 200)

    def run_entries(self, entries: list[int]) -> list[int]:
        """Entries a run cycles through; plan-sweep reuses the instances built in setup."""
        if self.name == "plan-sweep":
            return entries[:PLAN_ENTRIES_PER_RUN]
        return entries

    def _instances(self, entry: int) -> dict[int, object]:
        """Warmed planning instances of one entry, built once per process."""
        if entry not in self.instances:
            pkg = self.pkg
            built = {}
            for n in PLAN_NS:
                cfg = replace(self.base, n_sheep=n, rho=RHO)
                start = pkg.placement.prepare_start_state(cfg, base_seed=entry, trial=0)
                built[n] = pkg.routing.TourInstance(start.dog_pos, start.sheep_pos, cfg.goal.center)
            self.instances[entry] = built
        return self.instances[entry]

    def run_pass(self, entry: int) -> list[OpResult]:
        name = self.name
        if name == "batch-ref":
            return self._batch(self.base, BATCH_GRID, list(self.pkg.routing.STRATEGIES), entry)
        if name == "large-flock":
            cfg = self.pkg.scenario.apply_assignments(self.base, [("T", LARGE_T)])
            return self._batch(cfg, [(LARGE_N, RHO)], ["reverse"], entry)
        if name == "plan-sweep":
            return self._plans(entry)
        return [self._simulate(method, entry) for method in SIM_METHODS]

    def _batch(self, cfg, grid, strategies, entry: int) -> list[OpResult]:
        """One run_batch call plus its CSV tables; each table row is one episode."""
        experiments = self.pkg.experiments
        first_span = len(self.tracer.spans) if self.tracer else 0
        t0 = time.perf_counter()
        records, summaries = experiments.run_batch(cfg, grid, 1, strategies, entry, ITERATIONS)
        rows = experiments.records_csv(records).splitlines()[1:]
        summary = experiments.summary_csv(summaries)
        seconds = self._seconds(t0, time.perf_counter())
        times = self._method_seconds(first_span)
        if len(times) != len(records):
            times = [(0.0, 0.0, None)] * len(records)
        # Placement, trial upkeep and the CSV tables are shared equally.
        shared = (seconds - sum(episode + plan for episode, plan, _ in times)) / len(records)
        ops = []
        for record, row, (episode_s, plan_s, rate) in zip(records, rows, times):
            key = f"N{record.n}:{record.method}"
            ops.append(OpResult(key, episode_s + plan_s + shared, record.k_end, {key: sha256(row)},
                                fixed_s=plan_s + shared, host_rate=rate))
        ops[-1].digests["summary"] = sha256(summary)
        return ops

    def _method_seconds(self, first_span: int) -> list[tuple[float, float, float | None]]:
        """(episode, plan made for it) seconds and host rate of each episode since first_span."""
        if self.tracer is None:
            return []
        times = []
        plan_s = 0.0
        plan_start = None
        for span in self.tracer.spans[first_span:]:
            if span["name"] == "routing.rls":
                plan_s += self._seconds(span["start"], span["end"])
                plan_start = plan_start or span["start"]
            elif span["name"] == "guidance.episode":
                rate = self._rate(plan_start or span["start"], span["end"])
                times.append((self._seconds(span["start"], span["end"]), plan_s, rate))
                plan_s = 0.0
                plan_start = None
        return times

    def _seconds(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1, less the host sampling in between."""
        return t1 - t0 - (self.host.paused_between(t0, t1) if self.host else 0.0)

    def _rate(self, t0: float, t1: float) -> float | None:
        return self.host.rate_between(t0, t1) if self.host else None

    def _plans(self, entry: int) -> list[OpResult]:
        routing = self.pkg.routing
        stream_seed = self.pkg.scenario.stream_seed
        ops = []
        for n in PLAN_NS:
            instance = self._instances(entry)[n]
            for strategy in routing.STRATEGIES:
                config = routing.RlsConfig(strategy, ITERATIONS, stream_seed(entry, n, RHO, 0, f"plan:{strategy}"))
                t0 = time.perf_counter()
                result = routing.rls_optimize(instance, config)
                t1 = time.perf_counter()
                digest = sha256(
                    repr((result.initial_tour.order, result.best_tour.order,
                          result.initial_cost, result.best_cost)).encode()
                    + result.cost_trace.tobytes()
                )
                key = f"N{n}:{strategy}"
                ops.append(OpResult(key, self._seconds(t0, t1), result.cost_trace.size, {key: digest},
                                    host_rate=self._rate(t0, t1)))
        return ops

    def _simulate(self, method: str, entry: int, extra: list[str] | None = None) -> OpResult:
        out = Path(tempfile.mkdtemp(prefix="simulate-", dir=self.scratch))
        try:
            argv = ["simulate", "--out", str(out), "--method", method, "--seed", str(entry)] + (extra or [])
            first_span = len(self.tracer.spans) if self.tracer else 0
            t0 = time.perf_counter()
            status = self.pkg.cli.run_cli(argv)
            t1 = time.perf_counter()
            seconds = self._seconds(t0, t1)
            plan_s = sum(plan for _, plan, _ in self._method_seconds(first_span))
            if status != 0:
                return OpResult(method, seconds, 0, error=f"exit status {status}")
            files = sorted(p for p in out.iterdir() if p.is_file())
            blob = b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in files)
            summary = dict(
                line.split("=", 1) for line in (out / "run_summary.txt").read_text().splitlines()
            )
            return OpResult(method, seconds, int(summary["k_end"]), {method: sha256(blob)}, fixed_s=plan_s,
                            host_rate=self._rate(t0, t1))
        finally:
            shutil.rmtree(out, ignore_errors=True)
