"""End-to-end checks of the command line front end."""
import contextlib
import io
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _recorder import run_recorded, trajectory_text
from sheepdog import cli
from sheepdog.cli import TRAJECTORY_BLOCK, _TrajectoryRows, run_cli
from sheepdog.experiments import ALL_METHODS, run_trial
from sheepdog.scenario import _CONFIG_KEYS, _PAIR, apply_assignments, default_scenario, fmt
from test_scenario import dump_config

TINY = ["--set", "N=3", "--set", "rho=0.01", "--set", "T=5000"]


def read_kv(path):
    pairs = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


# ------------------------------------------------------------------------ plan

def test_plan_single_sheep_tour_is_just_one(tmp_path):
    code = run_cli(["plan", "--out", str(tmp_path), "--set", "N=1",
                    "--set", "rho=0.01", "--iterations", "50"])
    assert code == 0
    assert (tmp_path / "tour.txt").read_text() == "1\n"


def test_plan_outputs(tmp_path):
    code = run_cli(["plan", "--out", str(tmp_path), *TINY, "--iterations", "200"])
    assert code == 0

    order = [int(line) for line in (tmp_path / "tour.txt").read_text().split()]
    assert sorted(order) == [1, 2, 3]  # tour files are 1-based

    rows = (tmp_path / "cost_trace.csv").read_text().splitlines()
    assert len(rows) == 200
    iters = [int(r.split(",")[0]) for r in rows]
    costs = [float(r.split(",")[1]) for r in rows]
    assert iters == list(range(1, 201))
    assert all(b <= a for a, b in zip(costs, costs[1:]))

    summary = read_kv(tmp_path / "plan_summary.txt")
    assert summary["strategy"] == "reverse"
    assert summary["iterations"] == "200"
    assert summary["seed"] == "0"
    assert summary["N"] == "3"
    assert float(summary["final_cost"]) <= float(summary["initial_cost"])
    assert float(summary["final_cost"]) == costs[-1]


def test_plan_is_byte_deterministic(tmp_path):
    args = ["plan", *TINY, "--strategy", "jump", "--iterations", "150", "--seed", "7"]
    for sub in ("a", "b"):
        assert run_cli(args + ["--out", str(tmp_path / sub)]) == 0
    for name in ("tour.txt", "cost_trace.csv", "plan_summary.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_plan_reads_config_file_with_overrides(tmp_path):
    cfg_path = tmp_path / "scenario.cfg"
    cfg_path.write_text(dump_config(default_scenario()))
    out = tmp_path / "out"
    code = run_cli(["plan", "--config", str(cfg_path), "--out", str(out),
                    "--set", "N=1", "--set", "rho=0.01", "--iterations", "20"])
    assert code == 0
    assert (out / "tour.txt").read_text() == "1\n"


# -------------------------------------------------------------------- simulate

@pytest.fixture(scope="module", params=["fat", "proposed:reverse"])
def simulate_out(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param.replace(":", "_"))
    code = run_cli(["simulate", "--method", request.param, "--out", str(out),
                    *TINY, "--iterations", "100"])
    assert code == 0
    return request.param, out


def test_simulate_summary(simulate_out):
    method, out = simulate_out
    summary = read_kv(out / "run_summary.txt")
    assert summary["method"] == method
    assert summary["success"] == "1"
    assert int(summary["k_end"]) > 0
    assert float(summary["total_distance"]) > 0
    if method == "fat":
        assert "tour_cost_initial" not in summary
    else:
        assert float(summary["tour_cost_final"]) <= float(summary["tour_cost_initial"])


def test_simulate_trajectory_layout(simulate_out):
    _, out = simulate_out
    summary = read_kv(out / "run_summary.txt")
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == int(summary["k_end"]) + 1
    for k, row in enumerate(rows):
        fields = row.split(",")
        assert len(fields) == 1 + 2 + 2 * 3  # step, dog x/y, three sheep x/y
        assert int(fields[0]) == k


# Every float64 class a trace can hold: ordinary, signed zeros, infinities, nan, subnormals.
ANY_FLOAT = st.floats(width=64) | st.sampled_from(
    [0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, -2.2250738585072e-308, 1.7976931348623157e308]
)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 4), rows=st.integers(1, 5), block_size=st.integers(1, 4), data=st.data())
def test_trajectory_row_is_fmt_of_each_value(n, rows, block_size, data):
    values = np.array(data.draw(st.lists(ANY_FLOAT, min_size=rows * (2 + 2 * n), max_size=rows * (2 + 2 * n))))
    block = values.reshape(rows, 2 + 2 * n)
    # Blocks of one to four rows: whole blocks, a partial last block, or both.
    with mock.patch.object(cli, "TRAJECTORY_BLOCK", block_size):
        sink = _TrajectoryRows(n)
        for row in block:
            sink(SimpleNamespace(dog_pos=row[:2], sheep_pos=row[2:].reshape(n, 2)))
        lines = "".join(sink.blocks()).split("\n")
    assert lines[-1] == ""
    assert lines[:-1] == [",".join([str(k)] + [fmt(v) for v in row.tolist()]) for k, row in enumerate(block)]
    # fmt's %-formatting agrees with the format-spec spelling on every class.
    assert [fmt(v) for v in values.tolist()] == [format(v, ".9g") for v in values.tolist()]


def _simulate_argv(method, seed, n, horizon, rho="0.0012", out="unused"):
    return ["simulate", "--out", str(out), "--method", method, "--seed", str(seed), "--iterations", "50",
            "--set", f"N={n}", "--set", f"T={horizon}", "--set", f"rho={rho}"]


def _simulate_files(method, seed, n, horizon, rho="0.0012"):
    """_cmd_simulate's files for one run, each joined into the text run_cli would write."""
    args = cli.build_parser().parse_args(_simulate_argv(method, seed, n, horizon, rho))
    files = args.func(args, cli._load_scenario(args))
    return {name: text if isinstance(text, str) else "".join(text) for name, text in files.items()}


def _recorded_trajectory(method, seed, n, horizon, rho="0.0012"):
    """trajectory.csv rendered row by row from a recording sink, and the run's k_end."""
    cfg = apply_assignments(default_scenario(), [("N", str(n)), ("T", str(horizon)), ("rho", rho)])
    outcomes, rows = run_recorded(run_trial, cfg, [method], base_seed=seed, trial=0, iterations=50)
    return trajectory_text(rows.dog_trace, rows.sheep_traces), outcomes[method].run.k_end


# A lone sheep at rho = 0.01 starts inside the goal disk, so its runs end at step 0.
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), horizon=st.integers(0, 300), method=st.sampled_from(ALL_METHODS),
       seed=st.integers(0, 50), rho=st.sampled_from(["0.0012", "0.01", "0.05"]))
def test_streamed_trajectory_is_the_per_row_rendering(n, horizon, method, seed, rho):
    expected, k_end = _recorded_trajectory(method, seed, n, horizon, rho)
    assert _simulate_files(method, seed, n, horizon, rho)["trajectory.csv"] == expected
    assert expected.count("\n") == k_end + 1


@pytest.mark.parametrize("method", ["fat", "proposed:reverse"])
@pytest.mark.parametrize("n, seed, rho", [(1, 0, "0.01"), (3, 2, "0.05")])
def test_streamed_trajectory_of_a_run_already_at_the_goal(method, n, seed, rho):
    expected, k_end = _recorded_trajectory(method, seed, n, 300, rho)
    assert k_end == 0
    assert _simulate_files(method, seed, n, 300, rho)["trajectory.csv"] == expected


# Failed N = 20 fat runs of B - 2, B - 1, B and 2B - 1 steps print B - 1, B, B + 1 and 2B rows.
@pytest.mark.parametrize("horizon", [TRAJECTORY_BLOCK - 2, TRAJECTORY_BLOCK - 1, TRAJECTORY_BLOCK,
                                     2 * TRAJECTORY_BLOCK - 1])
def test_streamed_trajectory_at_block_edges(horizon):
    expected, k_end = _recorded_trajectory("fat", 0, 20, horizon)
    assert k_end == horizon
    assert _simulate_files("fat", 0, 20, horizon)["trajectory.csv"] == expected


def test_simulate_peak_memory_is_about_the_trajectory_text(tmp_path):
    # The episode keeps no states, the rows are rendered in blocks, and run_cli
    # writes the blocks one at a time, so the peak is the finished blocks and
    # one block's rendering: 1.32 times the text at 3000 steps. Joining the
    # blocks, or encoding the whole text at once, would make it twice the text.
    assert run_cli(_simulate_argv("fat", 0, 20, 5, out=tmp_path / "warm")) == 0  # first-call allocations
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = run_cli(_simulate_argv("fat", 0, 20, 3000, out=out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (out / "run_summary.txt").read_text().count("k_end=3000") == 1
    assert peak <= 1.4 * (out / "trajectory.csv").stat().st_size


def test_simulate_phase_log(simulate_out):
    method, out = simulate_out
    rows = [r.split(",") for r in (out / "phases.csv").read_text().splitlines()]
    assert rows[0][0] == "0"
    assert rows[-1][1] == "done"
    steps = [int(r[0]) for r in rows]
    assert steps == sorted(steps)
    modes = [r[1] for r in rows]
    if method == "fat":
        assert modes == ["final_drive", "done"]
    else:
        assert modes[0] == "approach_first"
        assert "final_drive" in modes


# ----------------------------------------------------------------------- batch

def test_batch_tables(tmp_path):
    code = run_cli(["batch", "--out", str(tmp_path), "--grid", "3;0.01",
                    "--set", "T=5000", "--trials", "2",
                    "--methods", "fat,proposed:reverse", "--iterations", "50"])
    assert code == 0
    trials = (tmp_path / "trials.csv").read_text().splitlines()
    assert trials[0].startswith("N,rho,trial,method,")
    assert len(trials) == 1 + 2 * 2  # trials x methods
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("N,rho,method,")
    assert len(summary) == 1 + 2


def test_batch_writes_fat_rows_first_whatever_the_methods_order(tmp_path):
    runs = {}
    for methods in ("proposed:jump,fat", "fat,proposed:jump"):
        out = tmp_path / methods.replace(":", "_").replace(",", "-")
        assert run_cli(["batch", "--out", str(out), "--grid", "3;0.01", "--set", "T=5000", "--trials", "2",
                        "--methods", methods, "--iterations", "50"]) == 0
        runs[methods] = [(out / name).read_bytes() for name in ("trials.csv", "summary.csv")]
        trials = [row.split(",") for row in runs[methods][0].decode().splitlines()[1:]]
        assert [(r[2], r[3]) for r in trials] == [
            ("0", "fat"), ("0", "proposed:jump"), ("1", "fat"), ("1", "proposed:jump")]
        summary = [row.split(",")[2] for row in runs[methods][1].decode().splitlines()[1:]]
        assert summary == ["fat", "proposed:jump"]
    assert runs["proposed:jump,fat"] == runs["fat,proposed:jump"]


# ---------------------------------------------------------------- error paths

@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--set", "banana=1"],
        ["plan", "--set", "N"],
        ["plan", "--config", "/does/not/exist.cfg"],
        ["simulate", "--method", "banana"],
        ["simulate", "--method", "proposed:banana"],
        ["batch", "--grid", "x;y"],
        ["batch", "--grid", ";"],
        ["batch", "--grid", "0;0.01"],
        ["batch", "--grid", "5;-1"],
        ["batch", "--grid", "5;nan"],
        ["batch", "--grid", "5;inf"],
        ["batch", "--methods", "banana"],
        ["batch", "--methods", ","],
        ["plan", "--iterations", "0"],
        ["plan", "--seed", "-1"],
        ["simulate", "--iterations", "0"],
        ["simulate", "--seed", "-1"],
        ["batch", "--iterations", "-5"],
        ["batch", "--seed", "-1"],
        ["batch", "--trials", "0"],
        ["batch", "--trials", "-3"],
        ["batch", "--grid", "5;1e300"],
        ["plan", "--set", "rho=1e300"],
        ["simulate", "--set", "rho=1e300"],
        ["simulate", "--set", "rho=1e-320"],
        ["simulate", "--method", "fat", "--set", "g_r=nan"],
        ["simulate", "--method", "fat", "--set", "r_d=nan"],
        ["simulate", "--method", "fat", "--set", "K_s1=nan"],
        ["simulate", "--method", "fat", "--set", "K_d2=inf"],
        ["batch", "--grid", "5;0.01,0.01"],
        ["batch", "--grid", "5,5;0.01"],
        ["batch", "--grid", "5;0.0012,0.00120000000001"],
        ["batch", "--methods", "proposed:reverse,proposed:reverse"],
        ["batch", "--methods", "fat,fat"],
        ["simulate", "--method", "fat", "--set", "x_g=1e308,0", "--set", "x_d0=-1e308,0", "--set", "T=200"],
        ["batch", "--set", "x_g=1e308,0", "--set", "x_d0=-1e308,0", "--set", "T=200"],
        # Passes every argument check; the flock turns non-finite during the run.
        ["simulate", "--method", "fat", "--set", "K_s1=1e308", "--set", "rho=1", "--set", "T=50"],
        ["batch", "--grid", "3;1.00000001e-6,1.00000002e-6", "--methods", "fat", "--trials", "2", "--set", "T=3"],
    ],
)
def test_usage_errors_exit_two(argv, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(argv + ["--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


# Small runs of each command, and the files a successful one writes.
GUARDED_COMMANDS = {
    "plan": (["plan", "--iterations", "30"], {"tour.txt", "cost_trace.csv", "plan_summary.txt"}),
    "simulate": (["simulate", "--iterations", "30"], {"trajectory.csv", "phases.csv", "run_summary.txt"}),
    "batch": (["batch", "--trials", "1", "--iterations", "30"], {"trials.csv", "summary.csv"}),
}
EDGE_VALUES = ["0", "-0", "5e-324", "1e154", "1e308", "inf", "-inf", "nan"]


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(sorted(GUARDED_COMMANDS)),
       keys=st.lists(st.sampled_from(sorted(_CONFIG_KEYS)), min_size=1, max_size=3), data=st.data())
def test_edge_config_values_exit_zero_with_files_or_two_without_out(command, keys, data, tmp_path_factory):
    # Any config key, a pair's either half included, at a float edge value:
    # the run writes all its files, or prints one error line and writes nothing.
    # A flock of 33 searches a NeighbourList, where 0.45 r_s can underflow
    # and 2 r_s overflow.
    n = data.draw(st.sampled_from([3, 33]))
    edge = st.sampled_from(EDGE_VALUES)
    overrides = []
    for key in keys:
        value = f"{data.draw(edge)},{data.draw(edge)}" if _CONFIG_KEYS[key][1] is _PAIR else data.draw(edge)
        overrides += ["--set", f"{key}={value}"]
    argv, files = GUARDED_COMMANDS[command]
    grid = ["--grid", f"{n};0.01"] if command == "batch" else []
    out = tmp_path_factory.mktemp("guard") / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli([*argv, *grid, "--set", f"N={n}", "--set", "T=20", *overrides, "--out", str(out)])
    if code == 0:
        assert {p.name for p in out.iterdir()} == files
        assert all(p.stat().st_size for p in out.iterdir())
    else:
        assert code == 2
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
        assert not out.exists()


def _undecodable_config(tmp):
    (tmp / "bad.cfg").write_bytes(b"N = 5\n\xff\xfe = 3\n")
    return ["plan", "--config", str(tmp / "bad.cfg"), "--out", str(tmp / "out")]


def _out_is_a_file(tmp):
    (tmp / "out").write_text("")
    return ["plan", *TINY, "--iterations", "10", "--out", str(tmp / "out")]


def _trajectory_is_a_directory(tmp):
    (tmp / "out" / "trajectory.csv").mkdir(parents=True)
    return ["simulate", "--method", "fat", *TINY, "--set", "T=5", "--out", str(tmp / "out")]


def _cost_trace_is_a_directory(tmp):
    # A write that fails after tour.txt is written.
    (tmp / "out" / "cost_trace.csv").mkdir(parents=True)
    return ["plan", *TINY, "--iterations", "10", "--out", str(tmp / "out")]


@pytest.mark.parametrize(
    "setup", [_undecodable_config, _out_is_a_file, _trajectory_is_a_directory, _cost_trace_is_a_directory])
def test_io_errors_exit_two(setup, tmp_path, capsys):
    code = run_cli(setup(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_far_flock_runs_without_overflow_warnings(tmp_path):
    # The flight term's square overflows once a sheep is ~1.3e154 from the dog; its limit, 0, is
    # the right value, so the run is data (exit 0), and pytest turns any RuntimeWarning into an error.
    argv = ["simulate", "--method", "fat", "--set", "x_g=1e308,0", "--set", "x_d0=-7e307,0",
            "--set", "T=200", "--out", str(tmp_path)]
    assert run_cli(argv) == 0
    assert read_kv(tmp_path / "run_summary.txt")["success"] == "0"


# ------------------------------------------------------------------ entry point

def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sheepdog.cli", "plan", "--out", str(tmp_path),
         "--set", "N=1", "--set", "rho=0.01", "--iterations", "10"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "tour.txt").read_text() == "1\n"
