"""A/B runs of the benchmark on two revisions, in alternating pairs.

    python .github/scripts/ab.py OLD_REV NEW_REV --workload W [--workload ...] --pairs K [--seconds S]

Run it from inside the repository. It extracts each revision with
`git archive` into a temporary directory, and runs each tree's own
perfbench/run.py --trace 0 with --seconds S. Pair i runs both trees with
seed 400 + i, the old tree first in even pairs and the new one first in
odd pairs, so that a slow drift of the host falls on both sides alike.

It prints one JSON object per workload, one per line. For each
end-to-end metric named in the new tree's BENCHMARK.json, the object
holds both sides' values in pair order, their medians and quartiles, the
ratio of the medians (new / old) and the number of pairs the new side
won, ties counting for neither. It exits 1 if any run exits non-zero or
prints a result whose "correct" is not true; such runs are listed under
"bad_runs" and give no values.
"""
from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

SEED_BASE = 400


class Run(NamedTuple):
    """One benchmark process: its exit status and its stdout."""

    status: int
    stdout: str


def quartiles(values: list[float]) -> list[float]:
    """First and third quartiles, interpolated between the sorted values."""
    if len(values) < 2:
        return values * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def result_of(run: Run) -> dict | None:
    """The result object of a run that exited 0 with "correct" true, else None."""
    lines = run.stdout.strip().splitlines()
    if run.status != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if result.get("correct") is True else None


def summarize(pairs: list[tuple[Run, Run]], better: dict[str, str]) -> dict:
    """Each metric's values, medians, quartiles, ratio and new-side wins over (old, new) pairs.

    better maps each end-to-end metric to "higher" or "lower".
    """
    results = [(result_of(old), result_of(new)) for old, new in pairs]
    bad_runs = [f"pair {i} {side}: " + (f"exit {run.status}" if run.status else "not correct")
                for i, (pair, found) in enumerate(zip(pairs, results))
                for side, run, result in zip(("old", "new"), pair, found) if result is None]
    metrics = {}
    for name, direction in better.items():
        values = [tuple(None if r is None else r["metrics"][name]["value"] for r in pair) for pair in results]
        old = [o for o, _ in values if o is not None]
        new = [n for _, n in values if n is not None]
        old_median = statistics.median(old) if old else None
        new_median = statistics.median(new) if new else None
        metrics[name] = {
            "better": direction,
            "old": old, "new": new,
            "old_median": old_median, "new_median": new_median,
            "old_quartiles": quartiles(old), "new_quartiles": quartiles(new),
            "ratio": new_median / old_median if old_median and new_median is not None else None,
            "new_wins": sum(1 for o, n in values if o is not None and n is not None
                            and (n > o if direction == "higher" else n < o)),
        }
    return {"pairs": len(pairs), "bad_runs": bad_runs, "metrics": metrics}


def machine(run: Run) -> dict | None:
    """The host figures (CPU, cores, Python, numpy) from the line before a run's result."""
    lines = run.stdout.strip().splitlines()
    try:
        found = json.loads(lines[-2])["info"]["machine"]
    except (IndexError, KeyError, ValueError):  # a run that printed no info line
        return None
    return {k: found.get(k) for k in ("cpu_model", "nproc", "python", "numpy")}


def exit_status(summaries: list[dict]) -> int:
    return 1 if any(s["bad_runs"] for s in summaries) else 0


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def extract(rev: str, into: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(into, filter="data")


def bench(tree: Path, workload: str, seed: int, seconds: float) -> Run:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"{tree.name} {workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
    return Run(done.returncode, done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    revs = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
            for side, rev in (("old", args.old), ("new", args.new))}
    summaries = []
    with tempfile.TemporaryDirectory(prefix="ab.") as tmp:
        trees = {side: Path(tmp, side) for side in revs}
        for side, tree in trees.items():
            extract(revs[side], tree)
        declared = json.loads((trees["new"] / "BENCHMARK.json").read_text())["end_to_end"]
        better = {m["name"]: m["better"] for m in declared}
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                order = ("old", "new") if i % 2 == 0 else ("new", "old")
                runs = {side: bench(trees[side], workload, SEED_BASE + i, args.seconds) for side in order}
                pairs.append((runs["old"], runs["new"]))
            summary = {"workload": workload, "old": revs["old"], "new": revs["new"], "seconds": args.seconds,
                       "seeds": [SEED_BASE + i for i in range(args.pairs)], "machine": machine(pairs[0][1]),
                       **summarize(pairs, better)}
            print(json.dumps(summary), flush=True)
            summaries.append(summary)
    return exit_status(summaries)


if __name__ == "__main__":
    sys.exit(main())
