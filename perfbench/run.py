"""Benchmark of the sheepdog simulator: one workload per invocation.

    python3 perfbench/run.py --workload batch-ref --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ./src, never
from an installed copy, and the run fails with exit status 2 when ./src
is missing. The workload is a closed loop: one client in one process,
each operation starting when the previous one ends. Outputs of every
operation are hashed and checked against perfbench/golden.json.

--trace 0 measures the end-to-end metrics: passes run until --seconds
have gone by. --trace 1 runs a fixed number of passes with every layer
boundary wrapped (so its counts repeat exactly), each beside an untraced
twin that gives the tracing overhead, then a layer sweep, and prints the
per-layer metrics; it also writes every span and per-operation
aggregate to perfbench/out/. The last stdout line is the result object;
the line before it carries the remaining figures and machine metadata.

    python3 perfbench/run.py --workload batch-ref --record

re-records the golden digests of a workload's whole pool.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

# Before numpy is imported anywhere in this process or its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

from tracer import LAYER_TARGETS, Tracer, install, layer_metrics  # noqa: E402
from workloads import SPECS, Workload, entry_order, sha256  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
# Peak RSS is read after this many passes: a faster program, which fits
# more passes in a run, then does not meet more of the pool's heavy entries.
RSS_PASSES = 2
SETUP_PROBES = 6  # extra fresh-process set-ups; with the run's own, setup_s is a median of 7
# setup_s is given in seconds of a host on which the reference loop runs this
# many steps per second: each set-up is rescaled by the loop's speed timed in
# the same process right after it, so that the host's drift cancels out.
REFERENCE_NOMINAL_STEPS_PER_S = 5000.0
# While the untraced loop runs, this many reference steps are timed every
# interval seconds (about a tenth of the run) to follow the host's speed.
HOST_SAMPLE_STEPS = 100
HOST_SAMPLE_INTERVAL_S = 0.25
SWEEP_FLOCK_CALLS = {10: 1000, 20: 600, 50: 200, 100: 60, 200: 20}
SWEEP_RLS_NS = (20, 50, 100)
SWEEP_RLS_ITERATIONS = 2000
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def load_package() -> SimpleNamespace:
    if not (SRC / "sheepdog" / "__init__.py").is_file():
        raise SetupError(f"no sheepdog sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sheepdog
    from sheepdog import cli, experiments, flock, guidance, placement, routing, scenario

    if not Path(sheepdog.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"sheepdog imported from {sheepdog.__file__}, not from {SRC}")
    return SimpleNamespace(cli=cli, experiments=experiments, flock=flock, guidance=guidance,
                           placement=placement, routing=routing, scenario=scenario)


def set_up(workload: str, seed: int) -> tuple[Workload, list[int], float]:
    """Import, build inputs and warm up; returns the workload, its entries and the time taken."""
    t0 = time.perf_counter()
    pkg = load_package()
    entries = entry_order(workload, seed)
    OUT.mkdir(exist_ok=True)
    wl = Workload(workload, pkg, OUT)
    wl.setup(entries)
    return wl, wl.run_entries(entries), time.perf_counter() - t0


def reference_steps_per_s() -> float:
    import reference

    return reference.steps_per_s()


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of one fresh process, and the reference loop's speed right after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise SetupError(f"set-up probe failed: {done.stderr.strip()}")
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["reference_steps_per_s"]


class Checker:
    """Compares operation digests with the recorded ones and counts failures."""

    def __init__(self, golden: dict):
        self.golden = golden.get("entries", {})
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.mismatches: list[str] = []

    def check(self, entry: int, ops, error: str | None) -> None:
        expected = self.golden.get(str(entry), {})
        units = sum(1 for part in expected if part != "summary")
        if error is not None:
            self.attempted += max(units, 1)
            self.failed += max(units, 1)
            self.mismatches.append(f"entry {entry}: {error}")
            return
        for op in ops:
            self.attempted += 1
            bad = op.error is not None or any(expected.get(p) != d for p, d in op.digests.items())
            if bad:
                self.failed += 1
                self.mismatches.append(f"entry {entry} {op.key}: {op.error or 'digest mismatch'}")
            for part, digest in op.digests.items():
                self.digests[f"{entry}:{part}"] = digest
        missing = units - sum(1 for op in ops if op.key in expected)
        if missing > 0:
            self.attempted += missing
            self.failed += missing
            self.mismatches.append(f"entry {entry}: {missing} operations missing")

    def digest(self) -> str:
        """One SHA-256 over every distinct operation digest this run produced."""
        return sha256("".join(f"{k}={v}\n" for k, v in sorted(self.digests.items())))


def run_pass(wl: Workload, entry: int):
    try:
        return wl.run_pass(entry), None
    except Exception as exc:  # a failing operation is counted, and the run goes on
        return [], f"{type(exc).__name__}: {exc}"


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (1 - pct / 100) >= 10:
            rank = min(n - 1, int(pct / 100 * n + 0.5) - 1)
            return pct, ordered[max(rank, 0)]
    return None


def layer_sweep(wl: Workload, seed: int) -> dict[str, tuple[float, str]]:
    """Kernel cost against N, and RLS cost per iteration per kernel against N."""
    pkg = wl.pkg
    out = {}
    for n, calls in SWEEP_FLOCK_CALLS.items():
        cfg = replace(wl.base, n_sheep=n, warmup_steps=5)
        state = pkg.placement.prepare_start_state(cfg, base_seed=seed)
        t0 = time.perf_counter()
        for _ in range(calls):
            pkg.flock.flock_velocities(state, cfg.sheep)
        out[f"flock.velocities.us_per_call.N{n}"] = ((time.perf_counter() - t0) / calls * 1e6, "us")
    for n in SWEEP_RLS_NS:
        cfg = replace(wl.base, n_sheep=n, warmup_steps=5)
        start = pkg.placement.prepare_start_state(cfg, base_seed=seed)
        instance = pkg.routing.TourInstance(start.dog_pos, start.sheep_pos, cfg.goal.center)
        for strategy in pkg.routing.STRATEGIES:
            config = pkg.routing.RlsConfig(strategy, SWEEP_RLS_ITERATIONS, seed)
            t0 = time.perf_counter()
            pkg.routing.rls_optimize(instance, config)
            ns = (time.perf_counter() - t0) / SWEEP_RLS_ITERATIONS * 1e9
            out[f"routing.rls.ns_per_iter.{strategy}.N{n}"] = (ns, "ns")
    return out


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": sha256(b"".join(p.read_bytes() for p in sorted((SRC / "sheepdog").glob("*.py")))),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def work_rate(ops, weights: dict[str, float], in_reference_steps: bool = False) -> float:
    """Throughput on the pool's mix of operations at this run's costs.

    Each class of operation (say N20:fat) costs its median fixed cost
    (a plan and upkeep) plus its cost per unit of work over the run
    times the pool's mean work for the class. Summing over classes gives
    the cost of an average pass, whichever entries the seed drew. Costs
    are in seconds, or in_reference_steps: each operation's seconds times
    the reference loop's speed sampled around it, so that the host's
    drift cancels out.
    """
    fixed: dict[str, list[float]] = {}
    variable: dict[str, list[float]] = {}  # class -> [cost beyond fixed, work]
    for op in ops:
        if op.work and op.key in weights:
            scale = op.host_rate if in_reference_steps else 1.0
            fixed.setdefault(op.key, []).append(op.fixed_s * scale)
            acc = variable.setdefault(op.key, [0.0, 0])
            acc[0] += (op.seconds - op.fixed_s) * scale
            acc[1] += op.work
    cost = sum(statistics.median(fixed[k]) + weights[k] * s / w for k, (s, w) in variable.items())
    return sum(weights[k] for k in fixed) / cost if cost else 0.0


def measure(wl: Workload, entries: list[int], seconds: float, checker: Checker) -> dict:
    """Untraced closed loop: whole passes until the time is up.

    A few times a second a short run of the frozen reference loop is
    timed to follow the machine's speed; the operations' times leave it out.
    """
    from reference import HostSampler

    peak_rss_mb = None
    ops_tracer = Tracer()
    install(ops_tracer, wl.pkg, leaves=False)
    ops = []
    passes = 0
    t0 = time.perf_counter()
    with HostSampler(HOST_SAMPLE_INTERVAL_S, HOST_SAMPLE_STEPS) as host:
        wl.tracer, wl.host = ops_tracer, host
        try:
            while passes == 0 or time.perf_counter() - t0 < seconds:
                entry = entries[passes % len(entries)]
                ops_tracer.op_id = passes
                results, error = run_pass(wl, entry)
                checker.check(entry, results, error)
                ops.extend(results)
                passes += 1
                if passes == RSS_PASSES:
                    peak_rss_mb = max_rss_mb()
        finally:
            ops_tracer.unpatch_all()
            wl.tracer = wl.host = None
    wall = time.perf_counter() - t0
    return {"ops": ops, "passes": passes, "wall_s": wall, "tracer": ops_tracer, "host": host,
            "reference_steps_per_s": host.mean_rate(),
            "peak_rss_mb": peak_rss_mb if peak_rss_mb is not None else max_rss_mb()}


def traced(wl: Workload, entries: list[int], seconds: float, checker: Checker, seed: int) -> dict:
    """Fixed passes with every layer wrapped, each preceded by the same pass untraced.

    The untraced twin of each pass gives the tracing overhead; running the
    two back to back lets slow drifts of the machine cancel out.
    """
    passes = max(1, int(seconds // wl.spec.nominal_pass_s))
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    for i in range(passes):
        entry = entries[i % len(entries)]
        t0 = time.perf_counter()
        results, error = run_pass(wl, entry)
        untraced_s += time.perf_counter() - t0
        checker.check(entry, results, error)
        install(tracer, wl.pkg)
        wl.tracer = tracer
        tracer.op_id = i
        try:
            t0 = time.perf_counter()
            results, error = run_pass(wl, entry)
            traced_s += time.perf_counter() - t0
        finally:
            tracer.unpatch_all()
            wl.tracer = None
        checker.check(entry, results, error)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_ratio"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    metrics.update(layer_sweep(wl, seed))
    return {"metrics": metrics, "passes": passes, "tracer": tracer,
            "wall_s": {"traced": traced_s, "untraced": untraced_s, "unit": "s"}}


def span_seconds(tracer: Tracer, name: str, host) -> list[float]:
    """Durations of the spans called name, less the host sampling inside them."""
    return [s["end"] - s["start"] - host.paused_between(s["start"], s["end"])
            for s in tracer.spans if s["name"] == name]


def summary_info(wl: Workload, run: dict, checker: Checker) -> dict:
    """Figures beside the bounded metrics: wall time, latency percentiles, rates."""
    tracer, host = run["tracer"], run["host"]
    unit_span = {"episode": "guidance.episode", "plan": "routing.rls", "command": "cli"}[wl.spec.unit]
    latencies = span_seconds(tracer, unit_span, host)
    info = {
        "wall_s": {"value": run["wall_s"], "unit": "s"},
        "passes": run["passes"],
        "op_unit": wl.spec.unit,
        "op_s_p50": {"value": statistics.median(latencies) if latencies else None, "unit": "s",
                     "samples": len(latencies)},
        "failed_ratio": {"value": checker.failed / max(checker.attempted, 1), "unit": "ratio"},
    }
    found = tail(latencies)
    info["op_s_tail"] = {"value": found[1] if found else None, "unit": "s",
                         "percentile": found[0] if found else None, "samples": len(latencies)}
    steps = tracer.counters.get("guidance.steps", 0)
    if steps:
        info["sim_steps_per_s"] = {"value": steps / sum(span_seconds(tracer, "guidance.episode", host)),
                                   "unit": "1/s"}
    iterations = tracer.counters.get("routing.rls.iterations", 0)
    if iterations:
        info["rls_iters_per_s"] = {"value": iterations / sum(span_seconds(tracer, "routing.rls", host)),
                                   "unit": "1/s"}
    return info


def record(workload: str) -> int:
    """Run every pool entry of a workload and store its digests."""
    pkg = load_package()
    OUT.mkdir(exist_ok=True)
    wl = Workload(workload, pkg, OUT)
    digests = {}
    work: dict[str, list[int]] = {}
    for entry in range(wl.spec.pool):
        results = wl.run_pass(entry)
        bad = [op for op in results if op.error]
        if bad:
            print(f"entry {entry}: {bad[0].error}", file=sys.stderr)
            return 1
        digests[str(entry)] = {p: d for op in results for p, d in op.digests.items()}
        for op in results:
            work.setdefault(op.key, []).append(op.work)
        print(f"{workload} entry {entry}: {len(results)} operations", file=sys.stderr, flush=True)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden[workload] = {
        "entries": digests,
        "weights": {k: statistics.mean(v) for k, v in sorted(work.items())},
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true", help="re-record the golden digests of the workload")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        if args.record:
            return record(args.workload)
        if args.setup_only:
            _, _, setup_s = set_up(args.workload, args.seed)
            print(json.dumps({"setup_s": setup_s, "reference_steps_per_s": reference_steps_per_s()}))
            return 0
        golden = json.loads(GOLDEN.read_text()).get(args.workload) if GOLDEN.is_file() else None
        if not golden:
            raise SetupError(f"no recorded digests for {args.workload}; run with --record")
        load_start = os.getloadavg()
        wl, entries, own_setup = set_up(args.workload, args.seed)
        setups = [(own_setup, None)]
        if not args.trace:
            setups = [(own_setup, reference_steps_per_s())]
            setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    checker = Checker(golden)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "setup_s_samples": [t for t, _ in setups],
            "setup_reference_steps_per_s": [r for _, r in setups], "machine": machine()}
    if args.trace:
        run = traced(wl, entries, args.seconds, checker, args.seed)
        metrics = run["metrics"]
        info.update({"wall_s": run["wall_s"], "passes": run["passes"], "layer_targets": LAYER_TARGETS})
    else:
        run = measure(wl, entries, args.seconds, checker)
        throughput = work_rate(run["ops"], golden["weights"])
        metrics = {
            "setup_s": (statistics.median(t * r / REFERENCE_NOMINAL_STEPS_PER_S for t, r in setups), "s"),
            "rel_throughput": (work_rate(run["ops"], golden["weights"], in_reference_steps=True), "ratio"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
        info.update(summary_info(wl, run, checker))
        info["work_per_s"] = {"value": throughput, "unit": "1/s"}
        info["reference_steps_per_s"] = {"value": run["reference_steps_per_s"], "unit": "1/s"}
        info["setup_s_raw"] = {"value": statistics.median(t for t, _ in setups), "unit": "s"}
    info["load_avg"] = {"start": load_start, "end": os.getloadavg()}
    info["digest"] = checker.digest()
    info["mismatches"] = checker.mismatches[:20]

    if args.trace:
        name = f"trace-{args.workload}-seed{args.seed}.json"
        (OUT / name).write_text(json.dumps({"info": info, "metrics": metrics, **run["tracer"].dump()}))
        info["trace_file"] = str((OUT / name).relative_to(ROOT))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
