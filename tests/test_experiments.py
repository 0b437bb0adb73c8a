"""Paired trials, grid batches, and the CSV tables built from them."""
import ast
import io
import math
import re
import tokenize
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from _recorder import has_placeholder_traces, run_recorded
from sheepdog import experiments, placement
from sheepdog.experiments import (
    METHOD_FAT,
    BatchSummary,
    TrialRecord,
    method_strategy,
    proposed_method,
    records_csv,
    run_batch,
    run_trial,
    summarize,
    summary_csv,
)
from sheepdog.scenario import ScenarioConfig

ALL_METHODS = [METHOD_FAT, "proposed:reverse", "proposed:exchange", "proposed:jump"]


def tiny_config():
    # Compact three-sheep cell: every method finishes in well under the horizon.
    return ScenarioConfig(n_sheep=3, rho=0.01, horizon=5000)


@pytest.fixture(scope="module")
def tiny_trial():
    return run_recorded(run_trial, tiny_config(), ALL_METHODS, base_seed=0, trial=0, iterations=200)


@pytest.fixture(scope="module")
def tiny_records(tiny_trial):
    return tiny_trial[0]


# -------------------------------------------------------------- method naming

def test_method_name_roundtrip():
    for strategy in ("reverse", "exchange", "jump"):
        assert method_strategy(proposed_method(strategy)) == strategy
    assert method_strategy(METHOD_FAT) is None


def test_unknown_method_names_are_rejected():
    for bad in ("proposed:", "proposed", "baseline", "fat:reverse", ""):
        with pytest.raises(ValueError):
            method_strategy(bad)


# ------------------------------------------------------------------- run_trial

def test_trial_runs_every_method_from_shared_start(tiny_trial):
    tiny_records, rows = tiny_trial
    assert list(tiny_records) == ALL_METHODS
    for method, record in tiny_records.items():
        assert record.method == method
        assert record.success, f"{method} failed on the tiny cell"
    # The sink sees each method's episode in turn, k_end + 1 states each.
    lengths = [r.k_end + 1 for r in tiny_records.values()]
    assert len(rows) == sum(lengths)
    starts = [sum(lengths[:i]) for i in range(len(lengths))]
    # paired: identical warmed start means identical first dog position
    first = {tuple(rows.dog_trace[i]) for i in starts}
    assert len(first) == 1


def test_baseline_has_no_plan_and_planned_methods_do(tiny_records):
    fat = tiny_records[METHOD_FAT]
    assert fat.tour_cost_initial is None and fat.tour_cost_final is None
    for strategy in ("reverse", "exchange", "jump"):
        record = tiny_records[proposed_method(strategy)]
        assert record.tour_cost_initial is not None
        assert record.tour_cost_final <= record.tour_cost_initial


def test_planned_methods_use_distinct_seed_streams(tiny_records):
    # Different strategies draw from different streams, so their random
    # initial tours (and costs) almost surely differ.
    initials = {tiny_records[proposed_method(s)].tour_cost_initial
                for s in ("reverse", "exchange", "jump")}
    assert len(initials) > 1


def test_trial_is_deterministic(tiny_records):
    again = run_trial(tiny_config(), ALL_METHODS, base_seed=0, trial=0, iterations=200)
    for method in ALL_METHODS:
        a, b = tiny_records[method], again[method]
        assert a.k_end == b.k_end
        assert a.total_distance == b.total_distance


# ------------------------------------------------------------------- run_batch

@pytest.fixture(scope="module")
def tiny_batch():
    return run_batch(
        tiny_config(),
        grid=[(3, 0.01), (2, 0.02)],
        trials=2,
        strategies=["reverse"],
        base_seed=0,
        iterations=100,
    )


def test_batch_emits_one_record_per_cell_trial_method(tiny_batch):
    records, summaries = tiny_batch
    assert len(records) == 2 * 2 * 2  # cells x trials x methods
    assert [(r.n, r.trial, r.method) for r in records] == [
        (3, 0, "fat"), (3, 0, "proposed:reverse"),
        (3, 1, "fat"), (3, 1, "proposed:reverse"),
        (2, 0, "fat"), (2, 0, "proposed:reverse"),
        (2, 1, "fat"), (2, 1, "proposed:reverse"),
    ]
    assert len(summaries) == 2 * 2  # cells x methods


def test_batch_summaries_match_recomputation(tiny_batch):
    records, summaries = tiny_batch
    assert summaries == summarize(records)
    for s in summaries:
        recs = [r for r in records if (r.n, r.rho, r.method) == (s.n, s.rho, s.method)]
        assert s.trials == len(recs) == 2
        assert s.successes == sum(r.success for r in recs)
        assert s.success_rate == s.successes / s.trials
        assert s.mean_distance_all == pytest.approx(
            sum(r.total_distance for r in recs) / len(recs), rel=1e-12)


def test_batch_is_bitwise_reproducible(tiny_batch):
    records, summaries = tiny_batch
    again_records, again_summaries = run_batch(
        tiny_config(), grid=[(3, 0.01), (2, 0.02)], trials=2,
        strategies=["reverse"], base_seed=0, iterations=100)
    assert records_csv(records) == records_csv(again_records)
    assert summary_csv(summaries) == summary_csv(again_summaries)


def test_batch_without_fat_or_methods():
    records, summaries = run_batch(
        tiny_config(), grid=[(2, 0.02)], trials=1,
        strategies=["jump"], base_seed=0, iterations=50, include_fat=False)
    assert [r.method for r in records] == ["proposed:jump"]
    assert [s.method for s in summaries] == ["proposed:jump"]
    with pytest.raises(ValueError):
        run_batch(tiny_config(), grid=[(2, 0.02)], trials=1,
                  strategies=[], base_seed=0, include_fat=False)


@pytest.mark.parametrize(
    ("grid", "strategies", "message", "trials", "iterations"),
    [
        ([(3, 0.01), (0, 0.01)], ["reverse"], "bad grid cell N=0, rho=0.01: ", 2, 50),
        ([(3, 0.01), (2, 0.02), (3, 0.01)], ["reverse"], "repeats an earlier cell", 2, 50),
        # The same printed rho, rho * 1e10 rounded apart.
        ([(3, 0.123456789), (3, 0.1234567891)], ["reverse"], "repeats an earlier cell", 2, 50),
        # Printed apart, rho * 1e10 rounded alike: the same seed streams.
        ([(3, 1.00000001e-6), (3, 1.00000002e-6)], ["reverse"], "repeats an earlier cell", 2, 50),
        ([(3, 0.01)], ["reverse", "reverse"], "given more than once", 2, 50),
        # No trials would give tables of headers alone.
        ([(3, 0.01)], ["reverse"], "trials must be positive, got 0", 0, 50),
        ([(3, 0.01)], ["reverse"], "trials must be positive, got -1", -1, 50),
        # Fat alone plans nothing, so no search would reject the count.
        ([(3, 0.01)], [], "iterations must be positive, got 0", 2, 0),
        ([(3, 0.01)], ["reverse"], "iterations must be positive, got 0", 2, 0),
    ],
)
def test_batch_rejects_its_arguments_before_any_trial(monkeypatch, grid, strategies, message, trials, iterations):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran before the batch's arguments were checked")

    monkeypatch.setattr(experiments, "run_trial", no_trial)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_batch(ScenarioConfig(), grid, trials, strategies, 0, iterations)


def test_trial_rejects_zero_iterations_before_placement(monkeypatch):
    # A fat-only trial plans nothing, so no search would reject the count.
    def no_placement(*args, **kwargs):
        raise AssertionError("the flock was placed before the trial's arguments were checked")

    monkeypatch.setattr(experiments, "prepare_start_state", no_placement)
    with pytest.raises(ValueError, match=re.escape("iterations must be positive, got 0")):
        run_trial(tiny_config(), [METHOD_FAT], 0, 0, 0)


@pytest.mark.parametrize("methods", [[METHOD_FAT, METHOD_FAT], ["proposed:reverse", METHOD_FAT, "proposed:reverse"]])
def test_trial_rejects_a_repeated_method_before_placement(monkeypatch, methods):
    # The records are keyed by method, so a repeat would run two episodes and report one.
    def no_placement(*args, **kwargs):
        raise AssertionError("the flock was placed before the trial's methods were checked")

    monkeypatch.setattr(experiments, "prepare_start_state", no_placement)
    with pytest.raises(ValueError, match=re.escape("given more than once")):
        run_trial(tiny_config(), methods, 0, 0, 10)


def test_trial_rejects_a_negative_trial_before_placement(monkeypatch):
    def no_placement(*args, **kwargs):
        raise AssertionError("the flock was placed before the trial's seed was checked")

    monkeypatch.setattr(placement, "initial_placement", no_placement)
    with pytest.raises(ValueError, match=re.escape("trial must be non-negative, got -1")):
        run_trial(tiny_config(), [METHOD_FAT, "proposed:reverse"], 0, -1, 10)


@settings(max_examples=15, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    st.lists(st.tuples(st.integers(1, 4), st.sampled_from([0.01, 0.02, 0.05])), min_size=1, max_size=2, unique=True),
    st.integers(1, 40),
    st.integers(1, 100),
    st.integers(1, 2),
    st.booleans(),
    st.permutations(["reverse", "exchange", "jump"]).flatmap(lambda s: st.integers(0, 3).map(lambda k: s[:k])),
    st.integers(0, 2**32),
)
def test_a_batch_equals_its_cells_and_its_methods_run_apart(grid, horizon, iterations, trials, fat, strategies,
                                                            base_seed):
    # Seeds are pure per (cell, trial, stream), so no split of a batch's
    # work changes a record, its phase rows included.
    if not fat and not strategies:
        strategies = ["reverse"]
    base = ScenarioConfig(horizon=horizon)

    def batch(cells, strategies=strategies, include_fat=fat):
        return run_batch(base, cells, trials, strategies, base_seed, iterations, include_fat)

    def rows(text):  # a table without its header line
        return text.partition("\n")[2]

    records, summaries = batch(grid)
    cells = [batch([cell]) for cell in grid]
    assert records == [r for recs, _ in cells for r in recs]
    assert records_csv(records) == records_csv([]) + "".join(rows(records_csv(recs)) for recs, _ in cells)
    assert summary_csv(summaries) == summary_csv([]) + "".join(rows(summary_csv(sums)) for _, sums in cells)
    if fat and strategies:
        fat_records, fat_summaries = batch(grid, [], True)
        proposed_records, proposed_summaries = batch(grid, strategies, False)
        k = len(strategies)
        assert records == [r for i, f in enumerate(fat_records) for r in [f, *proposed_records[i * k : (i + 1) * k]]]
        assert summary_csv(summaries) == summary_csv(
            [s for i, f in enumerate(fat_summaries) for s in [f, *proposed_summaries[i * k : (i + 1) * k]]])


@pytest.mark.parametrize("base_seed", [0, 1])
def test_unrecorded_batch_matches_recorded_trials(monkeypatch, base_seed):
    # run_batch passes no sink; its records must equal those of trials run
    # with a recording sink field for field, J by ==, full-horizon failures included.
    base = ScenarioConfig(horizon=300)
    grid = [(3, 0.01), (20, 0.0012)]
    runs, plans = [], []

    def kept(fn, results):
        def wrapper(*args, **kwargs):
            results.append(fn(*args, **kwargs))
            return results[-1]
        return wrapper

    monkeypatch.setattr(experiments, "run_fat", kept(experiments.run_fat, runs))
    monkeypatch.setattr(experiments, "run_proposed", kept(experiments.run_proposed, runs))
    monkeypatch.setattr(experiments, "rls_optimize", kept(experiments.rls_optimize, plans))
    records, _ = run_batch(base, grid, trials=2, strategies=["reverse", "exchange", "jump"],
                           base_seed=base_seed, iterations=200)
    assert len(runs) == len(records) == 16
    assert all(map(has_placeholder_traces, runs))
    # Each row is its own episode's result and phase rows, and a proposed row carries its own plan's two costs.
    for run, record in zip(runs, records):
        assert ((record.success, record.k_end, record.total_distance, record.phases)
                == (run.success, run.k_end, run.total_distance, run.phases))
    proposed = [r for r in records if r.method != METHOD_FAT]
    assert len(plans) == len(proposed) == 12
    for plan, record in zip(plans, proposed):
        assert (record.tour_cost_initial, record.tour_cost_final) == (plan.initial_cost, plan.best_cost)
    assert all(r.tour_cost_initial is None and r.tour_cost_final is None for r in records if r.method == METHOD_FAT)
    monkeypatch.undo()

    expected = []
    for n, rho in grid:
        config = replace(base, n_sheep=n, rho=rho)
        for trial in range(2):
            for method in ALL_METHODS:
                # One method per trial, so that each episode has a sink of its own.
                records_apart, rows = run_recorded(run_trial, config, [method], base_seed, trial, 200)
                record = records_apart[method]
                assert len(rows) == record.k_end + 1
                expected.append(record)
    assert records == expected
    assert {(r.success, r.k_end == 300) for r in records} == {(True, False), (False, True)}


def test_summary_mean_over_successes_is_nan_when_none_succeed():
    failed = [
        TrialRecord(n=5, rho=0.001, trial=t, method="fat", success=False,
                    k_end=100, total_distance=250.0, tour_cost_initial=None,
                    tour_cost_final=None, phases=())
        for t in range(3)
    ]
    (s,) = summarize(failed)
    assert s.successes == 0
    assert s.success_rate == 0.0
    assert math.isnan(s.mean_distance_successes)
    assert s.mean_distance_all == pytest.approx(250.0)


def test_summary_of_one_successful_trial_is_that_trial():
    # A group of one: the rate divides by one trial and the mean over
    # successes is that trial's J, not a share of a larger count.
    won = TrialRecord(n=5, rho=0.001, trial=0, method="proposed:reverse", success=True, k_end=412,
                      total_distance=1234.5678, tour_cost_initial=300.0, tour_cost_final=250.0, phases=())
    (s,) = summarize([won])
    assert (s.trials, s.successes) == (1, 1)
    assert s.success_rate == 1.0
    assert s.mean_distance_successes == s.mean_distance_all == 1234.5678


def test_summary_means_add_left_to_right_from_zero():
    # 1e16 + 1.0 rounds back to 1e16, so adding left to right loses both
    # ones, while compensated summation (the builtin sum() from Python 3.12
    # on) keeps them; the two means differ in their bits.
    js = [1e16, 1.0, 1.0]
    recs = [TrialRecord(n=5, rho=0.001, trial=t, method="fat", success=True, k_end=10, total_distance=j,
                        tour_cost_initial=None, tour_cost_final=None, phases=()) for t, j in enumerate(js)]
    (s,) = summarize(recs)
    left_to_right = ((0.0 + js[0]) + js[1]) + js[2]
    assert left_to_right / 3 != math.fsum(js) / 3
    assert s.mean_distance_successes == s.mean_distance_all == left_to_right / 3


def _other_float_sums(source: str) -> list[int]:
    """Lines of source that call sum() or math.fsum, or import statistics."""
    def banned(node) -> bool:
        if isinstance(node, ast.Call):
            func = node.func
            return (isinstance(func, ast.Name) and func.id in ("sum", "fsum")
                    or isinstance(func, ast.Attribute) and func.attr == "fsum")
        if isinstance(node, ast.Import):
            return any(alias.name.partition(".")[0] == "statistics" for alias in node.names)
        return isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "statistics"

    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if banned(node))


def test_no_module_calls_the_builtin_sum():
    # The package adds floats left to right, so that its bits do not depend
    # on the interpreter; sum() compensates its rounding from Python 3.12 on,
    # and math.fsum and the statistics module round otherwise as well.
    caught = "sum(a)\nmath.fsum(a)\nfsum(a)\nimport statistics\nfrom statistics import mean\nimport os, statistics.x\n"
    assert _other_float_sums(caught) == [1, 2, 3, 4, 5, 6]
    assert _other_float_sums("math.hypot(a, b)\nnp.sum(a)\nimport math\nfrom math import isfinite\n") == []
    modules = sorted(Path(experiments.__file__).parent.glob("*.py"))
    calls = [f"{path.name}:{line}" for path in modules for line in _other_float_sums(path.read_text())]
    assert len(modules) > 1 and calls == []


def _numpy_float_reductions(source: str) -> list[int]:
    """Lines of source that reduce floats through numpy: a .sum( or .mean( call,
    np.add.reduce, np.dot, np.linalg or the @ operator. A line is allowed when
    it carries a comment "# fixed bits: <why>" saying why its sum's bits do not
    depend on the loop numpy picks."""
    def banned(node) -> bool:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            return node.func.attr in ("sum", "mean")
        if isinstance(node, ast.Attribute):
            return (node.attr in ("dot", "linalg")
                    or node.attr == "reduce" and isinstance(node.value, ast.Attribute) and node.value.attr == "add")
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            return isinstance(node.op, ast.MatMult)
        if isinstance(node, ast.ImportFrom):
            return "linalg" in (node.module or "") or any(alias.name == "linalg" for alias in node.names)
        return False

    allowed = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
               if tok.type == tokenize.COMMENT and re.match(r"# fixed bits: \S", tok.string)}
    return sorted({node.lineno for node in ast.walk(ast.parse(source)) if banned(node)} - allowed)


def test_no_module_reduces_floats_through_numpy():
    # A numpy reduction may block its sum pairwise, and how depends on the
    # SIMD loop numpy picks for the host CPU; the package adds left to right
    # (functools.reduce, np.bincount) or not at all, so its bits do not.
    caught = ("x.sum()\nx.mean(axis=0)\nnp.sum(a)\nnp.mean(a)\nnp.add.reduce(a)\nnp.dot(a, b)\na @ b\na @= b\n"
              "np.linalg.norm(a)\nfrom numpy import linalg\nfrom numpy.linalg import norm\n"
              "x.sum()  # fixed bits:\nx.sum()  # why not\n")
    assert _numpy_float_reductions(caught) == list(range(1, 14))
    allowed = ("np.hypot(a, b)\nnp.bincount(k, w)\nreduce(add, a, 0.0)\nx.argmax()\n"
               "x.sum()  # fixed bits: integer counts\n")
    assert _numpy_float_reductions(allowed) == []
    modules = sorted(Path(experiments.__file__).parent.glob("*.py"))
    calls = [f"{path.name}:{line}" for path in modules for line in _numpy_float_reductions(path.read_text())]
    assert len(modules) > 1 and calls == []


# ------------------------------------------------------------------ CSV tables

def test_records_csv_layout(tiny_batch):
    records, _ = tiny_batch
    lines = records_csv(records).splitlines()
    assert lines[0] == "N,rho,trial,method,success,k_end,J,tour_cost_initial,tour_cost_final"
    assert len(lines) == 1 + len(records)
    for line, rec in zip(lines[1:], records):
        fields = line.split(",")
        assert len(fields) == 9
        assert fields[3] == rec.method
        assert fields[4] in {"0", "1"}
        if rec.method == METHOD_FAT:
            assert fields[7] == "" and fields[8] == ""
        else:
            assert float(fields[8]) <= float(fields[7])


def test_summary_csv_layout(tiny_batch):
    _, summaries = tiny_batch
    lines = summary_csv(summaries).splitlines()
    assert lines[0] == "N,rho,method,trials,success_rate,mean_J_successes,mean_J_all"
    assert len(lines) == 1 + len(summaries)
    for line, s in zip(lines[1:], summaries):
        fields = line.split(",")
        assert len(fields) == 7
        assert fields[2] == s.method
        assert float(fields[4]) == s.success_rate


def test_csv_nan_mean_is_spelled_nan():
    summary = BatchSummary(
        n=5, rho=0.001, method="fat", trials=2, successes=0, success_rate=0.0,
        mean_distance_successes=float("nan"), mean_distance_all=10.0)
    line = summary_csv([summary]).splitlines()[1]
    assert line.split(",")[5] == "nan"
