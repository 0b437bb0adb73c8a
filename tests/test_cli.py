"""End-to-end checks of the command line front end."""
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sheepdog.cli import _trajectory_text, run_cli
from sheepdog.guidance import RunRecord
from sheepdog.scenario import default_scenario, dump_config, fmt

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
@given(n=st.integers(1, 4), rows=st.integers(1, 3), data=st.data())
def test_trajectory_row_is_fmt_of_each_value(n, rows, data):
    values = np.array(data.draw(st.lists(ANY_FLOAT, min_size=rows * (2 + 2 * n), max_size=rows * (2 + 2 * n))))
    block = values.reshape(rows, 2 + 2 * n)
    record = RunRecord(success=False, k_end=rows - 1, total_distance=0.0, dog_trace=block[:, :2],
                       sheep_traces=block[:, 2:].reshape(rows, n, 2), phases=())
    lines = _trajectory_text(record).split("\n")
    assert lines[-1] == ""
    assert lines[:-1] == [",".join([str(k)] + [fmt(v) for v in row.tolist()]) for k, row in enumerate(block)]
    # fmt's %-formatting agrees with the format-spec spelling on every class.
    assert [fmt(v) for v in values.tolist()] == [format(v, ".9g") for v in values.tolist()]


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
    ],
)
def test_usage_errors_exit_two(argv, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(argv + ["--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
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


@pytest.mark.parametrize("setup", [_undecodable_config, _out_is_a_file, _trajectory_is_a_directory])
def test_io_errors_exit_two(setup, tmp_path, capsys):
    code = run_cli(setup(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
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
