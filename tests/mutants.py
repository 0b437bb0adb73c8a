"""A kept kill list of source mutants: each edit must make its named tests fail.

Each entry is (file, old text, new text, test ids). For every entry the
script copies src/, tests/, README.md and pyproject.toml into a fresh
temporary directory (test_parse_ignores_comments_and_blank_lines reads
README.md), replaces the one occurrence of the old text with the new text,
and runs the named tests there with pytest -x and a fixed hypothesis seed.
The mutant is killed when pytest exits 1, a test failed. The script exits 1
if any mutant survives, if an old text is missing or occurs more than once,
or if a named test is not found: pytest's exit 4 (usage error, such as an
unknown test id) or 5 (nothing collected) is not a kill.

Its name keeps it out of pytest's collection. Run it from the repository root:

    python tests/mutants.py            # every entry
    python tests/mutants.py 3 7        # entries 3 and 7 (0-based)
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "README.md", "pyproject.toml")

# The parametrized test whose rows each name one number check's field.
NUMBERS = "tests/test_scenario.py::test_each_number_check_names_its_field"

# (file, old text, new text, test ids that must fail)
MUTANTS = [
    # The tour's first sheep exactly r_d from the dog is already in contact.
    ("src/sheepdog/guidance.py", "collected = to_dog[order[0]] <= dog.r_d", "collected = to_dog[order[0]] < dog.r_d",
     ["tests/test_guidance.py::test_first_contact_is_inclusive_at_r_d"]),
    # A one-trial group's success rate divides by one trial.
    ("src/sheepdog/experiments.py", "success_rate=len(wins) / len(recs),", "success_rate=len(wins) / max(len(recs), 2),",
     ["tests/test_experiments.py::test_summary_of_one_successful_trial_is_that_trial"]),
    # A dog on top of a sheep pushes it along -x, not +x.
    ("src/sheepdog/flock.py", "        np.negative(flight, out=flight, where=coincident[-n:])  # -UNIT_X / c**2\n", "",
     ["tests/test_flock.py::test_coincident_dog_and_sheep_stays_finite",
      "tests/test_flock.py::test_flock_velocities_are_bitwise_the_dense_oracle"]),
    # The goal check's largest value is nan when any value is nan.
    ("src/sheepdog/flock.py", "    return values.item(values.argmax())", "    return float(np.fmax.reduce(values))",
     ["tests/test_guidance.py::test_goal_reached_is_the_max_test"]),
    # The list's bincount keys are r*n + i, the small flocks' layout.
    ("src/sheepdog/flock.py", "        self._table = _key_table(box.ravel().nonzero()[0], n)\n",
     "        self._table = _key_table(box.ravel().nonzero()[0], n)\n        self._table[1:7] += _TERM_ROWS[1:]\n",
     ["tests/test_flock.py::test_the_lists_key_table_is_the_small_flocks_at_the_same_pairs"]),
    # The gather's distances are the pass's hypot, not a rounded-twice square root.
    ("src/sheepdog/flock.py", 'order="C")\n    return np.hypot(diff[0], diff[1])\n',
     'order="C")\n    return np.sqrt(diff[0] ** 2 + diff[1] ** 2)\n',
     ["tests/test_flock.py::test_sheep_distances_are_bitwise_the_offsets_reference"]),
    # --out is staged inside itself, so every move stays in one directory.
    ("src/sheepdog/cli.py", 'tempfile.mkdtemp(prefix=".stage.", dir=out)', 'tempfile.mkdtemp(prefix=".stage.", dir=out.parent)',
     ["tests/test_cli.py::test_a_run_stages_inside_out"]),
    # plan names its stream as run_trial does, so plan, simulate and batch agree.
    ("src/sheepdog/cli.py", 'f"plan:{args.strategy}"', 'f"plan-{args.strategy}"',
     ["tests/test_cli.py::test_plan_simulate_and_batch_agree_on_trial_zero"]),
    # Seeds are pure per (cell, trial, stream): no cell's place in the grid enters them.
    ("src/sheepdog/experiments.py", "records.extend(run_trial(config, methods, base_seed, trial, iterations)",
     "records.extend(run_trial(config, methods, base_seed + configs.index(config), trial, iterations)",
     ["tests/test_experiments.py::test_a_batch_equals_its_cells_and_its_methods_run_apart"]),
    # A record carries its own episode's phase rows, which simulate prints as phases.csv.
    ("src/sheepdog/experiments.py", "*costs, run.phases)", "*costs, ())",
     ["tests/test_golden.py", "tests/test_experiments.py::test_unrecorded_batch_matches_recorded_trials"]),
    # A count is refused, not truncated, when it is not an integer.
    ("src/sheepdog/scenario.py", "_count(key, getattr(self, name), least)", "_count(key, int(getattr(self, name)), least)",
     ["tests/test_scenario.py::test_validation_errors"]),
    # So is a seed stream's base seed, N or trial.
    ("src/sheepdog/scenario.py", '_count("base_seed", base_seed), _count("n", n), _count("trial", trial)',
     '_count("base_seed", int(base_seed)), _count("n", int(n)), _count("trial", int(trial))',
     ["tests/test_scenario.py::test_stream_seed_rejects_a_negative_base_seed"]),
    # The batched nearest pick falls back on the first candidate when all are +inf away.
    ("tests/_dog_oracle.py",
     "    nearest = np.where(masked[rows, nearest] == np.inf, candidates.argmax(axis=1), nearest)\n", "",
     ["tests/test_dog.py::test_batched_laws_overflow_like_the_scalar_laws",
      "tests/test_dog.py::test_batched_laws_are_bitwise_the_scalar_laws"]),
    # The oracle squares as the laws do, through C's pow; np.power squares as x * x.
    ("tests/_dog_oracle.py", "    square = np.float_power(clamped, 2.0)", "    square = np.power(clamped, 2.0)",
     ["tests/test_dog.py::test_batched_laws_are_bitwise_the_scalar_laws"]),
    # The settled flock goes through the checked constructor.
    ("src/sheepdog/placement.py",
     "    return FlockState(sheep_pos=state.sheep_pos, sheep_vel_prev=state.sheep_vel_prev, dog_pos=state.dog_pos)",
     "    return state",
     ["tests/test_placement.py::test_warmup_rejects_a_state_that_turned_non_finite"]),
    # No numpy float reduction enters src/ without a reason.
    ("src/sheepdog/flock.py", "    return values.item(values.argmax())", "    return values.item(values.argmax()) + 0.0 * values.sum()",
     ["tests/test_experiments.py::test_no_module_reduces_floats_through_numpy"]),
    # A failed episode keeps its start row even when it took no step.
    ("src/sheepdog/guidance.py", "    if success or not phases:", "    if success:",
     ["tests/test_guidance.py::test_zero_horizon_fails_without_moving"]),
    # A one-sheep tour starts with the approach too; only the baseline's empty order starts in the drive.
    ("src/sheepdog/guidance.py", "APPROACH_FIRST if len(order) else", "APPROACH_FIRST if len(order) > 1 else",
     ["tests/test_guidance.py::test_single_sheep_approach_then_drive"]),
    # A tour refuses non-integer entries rather than truncating them to a permutation.
    ("src/sheepdog/routing.py", "tuple(operator.index(i) for i in self.order)", "tuple(int(i) for i in self.order)",
     ["tests/test_routing.py::test_tour_validation"]),
    # The search ignores the overflow of its windows' sums; numpy would warn of it.
    ("src/sheepdog/routing.py", '@np.errstate(over="ignore", invalid="ignore")\ndef rls_optimize(', "def rls_optimize(",
     ["tests/test_routing.py::test_windowed_and_scalar_scans_match_full_resum_oracle"]),
    # A sheep exactly g_r from the gather's target is collected.
    ("src/sheepdog/guidance.py", "collected = _largest(to_target.take(idx)) <= goal.radius",
     "collected = _largest(to_target.take(idx)) < goal.radius",
     ["tests/test_guidance.py::test_gather_collection_is_inclusive_at_the_goal_radius"]),
    # J adds each leg's length as np.hypot rounds it; math.hypot rounds some legs otherwise.
    ("src/sheepdog/guidance.py", "total += _length(vx, vy)", 'total += __import__("math").hypot(vx, vy)',
     ["tests/test_guidance.py::test_total_distance_adds_each_legs_hypot_in_step_order"]),
    # The episode's last state goes through the checked constructor.
    ("src/sheepdog/guidance.py",
     "    FlockState(sheep_pos=state.sheep_pos, sheep_vel_prev=state.sheep_vel_prev, dog_pos=state.dog_pos)\n", "",
     ["tests/test_guidance.py::test_non_finite_state_mid_episode_raises"]),
    # An episode takes at most T steps.
    ("src/sheepdog/guidance.py", "k < scenario.horizon:", "k <= scenario.horizon:",
     ["tests/test_guidance.py::test_zero_horizon_fails_without_moving"]),
    # The records' shared trace placeholder is read-only.
    ("src/sheepdog/guidance.py", "    dog_trace.setflags(write=False)\n", "",
     ["tests/test_guidance.py::test_unrecorded_run_keeps_everything_but_the_traces"]),
    # A real parameter is a number: a string or None gets a ValueError, not the comparison's TypeError.
    ("src/sheepdog/flock.py", "isinstance(value, numbers.Real) and (0 < value", "(0 < value",
     [f"{NUMBERS}[SheepParams-r_s-str]", f"{NUMBERS}[SheepParams-k_flight-None]", f"{NUMBERS}[DogParams-r_d-str]",
      f"{NUMBERS}[GoalSpec-radius-str]", f"{NUMBERS}[ScenarioConfig-rho-str]"]),
    # A search's iteration count is refused, not truncated, when it is not an integer.
    ("src/sheepdog/routing.py", '_count("iterations", self.iterations, 1)',
     '_count("iterations", int(self.iterations), 1)', [f"{NUMBERS}[RlsConfig-iterations-float]"]),
    # So is a trial's, fat-only included.
    ("src/sheepdog/experiments.py", 'iterations = _count("iterations", iterations, 1)',
     'iterations = _count("iterations", int(iterations), 1)', [f"{NUMBERS}[run_trial-iterations-float]"]),
    # And a batch's trial count.
    ("src/sheepdog/experiments.py", '_count("trials", trials, 1)', '_count("trials", int(trials), 1)',
     [f"{NUMBERS}[run_batch-trials-float]"]),
    # And the warm-up's step count.
    ("src/sheepdog/placement.py", 'range(_count("steps", steps))', 'range(_count("steps", int(steps)))',
     [f"{NUMBERS}[warmup-steps-float]"]),
    # A trial refuses a repeated method, which would run twice and report once.
    ("src/sheepdog/experiments.py", "if len(strategies) < len(methods):", "if False:",
     ["tests/test_experiments.py::test_trial_rejects_a_repeated_method_before_placement"]),
    # Every table ends its rows with a bare newline.
    ("src/sheepdog/scenario.py", '",".join(row) + "\\n"', '",".join(row) + "\\r\\n"', ["tests/test_golden.py"]),
    # After a window's hit the scalar stretch scores that hit, so the next window starts past it.
    ("src/sheepdog/routing.py", "                last = i\n", "                last = i - 1\n",
     [f"tests/test_routing.py::test_a_windowed_scan_moves_past_each_hit[{s}]" for s in ("reverse", "exchange", "jump")]),
    # An int past the largest float is refused, not passed on as an OverflowError.
    ("src/sheepdog/flock.py", "    except OverflowError:  # an int past the largest float",
     "    except ():  # an int past the largest float",
     [f"{NUMBERS}[ScenarioConfig-rho-int-past-float]", f"{NUMBERS}[SheepParams-k_flight-int-past-float]"]),
    # The config file's values are checked only once the --set pairs are applied over them.
    ("src/sheepdog/cli.py", "            pairs = parse_config(Path(args.config).read_text())\n",
     "            pairs = parse_config(Path(args.config).read_text())\n"
     "            apply_assignments(default_scenario(), pairs)\n",
     ["tests/test_cli.py::test_a_config_file_is_checked_once_its_overrides_are_applied"]),
]


def _copy(tmp: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, tmp / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, tmp / name)


def run(index: int) -> bool:
    """Apply entry index in a temporary copy and run its tests; True when the mutant is killed."""
    file, old, new, tests = MUTANTS[index]
    with tempfile.TemporaryDirectory(prefix="mutant.") as tmp:
        tmp = Path(tmp)
        _copy(tmp)
        text = (tmp / file).read_text()
        if text.count(old) != 1:
            print(f"[{index}] {file}: old text found {text.count(old)} times, expected once: {old!r}")
            return False
        (tmp / file).write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    verdict = {0: "SURVIVED", 1: "killed"}.get(done.returncode, f"pytest exit {done.returncode}, not a kill")
    print(f"[{index}] {file}: {verdict} in {seconds:.1f} s by {' '.join(tests)}")
    if done.returncode == 1:
        print("".join(f"    {line}\n" for line in done.stdout.splitlines() if line.startswith("FAILED")), end="")
    else:
        print(done.stdout[-2000:] + done.stderr[-2000:])
    return done.returncode == 1


def main(argv: list[str]) -> int:
    indices = [int(a) for a in argv] or range(len(MUTANTS))
    start = time.perf_counter()
    killed = [run(i) for i in indices]
    print(f"{sum(killed)} of {len(killed)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 0 if all(killed) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
