"""Smoke tests of the scripts under ``scripts/``, run on tiny inputs so they
stay in step with the library's rule tables."""

import importlib.util
import os
import sys
import time
from pathlib import Path

import pytest

from robustfl.aggregators import AGGREGATOR_NAMES
from robustfl.preaggregators import PRE_AGGREGATOR_NAMES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_script(name: str, monkeypatch):
    # The microbenchmark pins BLAS threads on import; undo that afterwards.
    for var in BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_microbench_prints_a_row_per_rule_and_search(monkeypatch, capsys):
    bench = load_script("microbench_rules", monkeypatch)
    monkeypatch.setattr(bench, "SHAPES", ((5, 8, 1), (7, 12, 2)))
    monkeypatch.setattr(bench, "BUDGET_S", 0.0)
    monkeypatch.setattr(bench, "MIN_CALLS", 1)
    monkeypatch.setattr(bench, "SUBSET_ENUMERATION_LIMIT", 6)
    monkeypatch.setattr(bench, "EVALUATION", (3, 40))
    # CPU time of this process, not wall time, so that a busy machine does not fail the bound.
    start = time.process_time()
    assert bench.main() == 0
    assert time.process_time() - start < 2.0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    rules = [row for row in rows
             if row[0] not in ("attack", "kernel", "model", "round", "cohort", "evaluation", "stacked", "server")]
    names = list(AGGREGATOR_NAMES) + list(PRE_AGGREGATOR_NAMES)
    assert [row[1] for row in rules if row[2] == "5"] == names
    assert [row[1] for row in rules if row[2] == "7"] == names
    assert [row[1] for row in rules if row[-2] == "skipped"] == ["MDA", "SMEA"]
    # "attack search" and "attack step" are two words, so the name is the third.
    assert [row[2] for row in rows if row[:2] == ["attack", "search"]] == [
        "Optimal_ALIE", "Optimal_IPM", "Optimal_ALIE:TrMean", "Optimal_ALIE:NNM>Median", "Optimal_ALIE@2cores"
    ]
    searches = [row for row in rows if row[:2] == ["attack", "search"]]
    assert all(row[3:6] == ["7", "12", "2"] and float(row[6]) > 0 for row in searches)
    steps = [row for row in rows if row[:2] == ["attack", "step"]]
    assert [row[2:6] for row in steps] == [["Optimal_ALIE", "7", "12", "2"]]
    assert float(steps[0][6]) > 0
    stacked = [row for row in rows if row[0] == "stacked"]
    stages = ["SignFlipping", "InnerProductManipulation", "ALittleIsEnough", "Average", "Median", "TrMean", "NNM"]
    assert [row[1:5] for row in stacked] == [[f"{stage}@{runs}", "12", "33", "2"]
                                             for runs in (1, 4, 8) for stage in stages]
    assert all(float(row[5]) > 0 for row in stacked)
    passes = [row for row in rows if row[:2] == ["server", "pass"]]
    assert [row[2:6] for row in passes] == [[f"{kind}@{runs}", "12", "33", "2"]
                                            for runs in (8, 16) for kind in ("real", "noop")]
    assert all(float(row[6]) > 0 for row in passes)
    kernels = [row for row in rows if row[0] == "kernel"]
    assert [row[1:5] for row in kernels] == [
        ["pairwise_sq_dists", "7", "12", "2"], ["gram_sq_dists", "7", "12", "2"], ["ALIE_parts", "7", "12", "2"]
    ]
    assert all(float(row[5]) > 0 for row in kernels)
    models = [row for row in rows if row[0] == "model"]
    assert [row[1:5] for row in models] == [["linear", "25", "33", "-"], ["mlp", "25", "50890", "-"]]
    assert all(float(row[5]) > 0 for row in models)
    rounds = [row for row in rows if row[0] == "round"]
    assert [row[1:5] for row in rounds] == [
        ["linear", "10", "33", "-"], ["mlp", "30", "50890", "-"], ["fedavg_flip", "5", "33", "2"]
    ]
    assert all(float(row[5]) > 0 for row in rounds)
    cohorts = [row for row in rows if row[0] == "cohort"]
    assert [row[1:5] for row in cohorts] == [
        ["dsgd", "1", "33", "-"], ["dsgd", "8", "33", "-"], ["fedavg", "1", "33", "2"], ["fedavg", "8", "33", "2"]
    ]
    assert all(float(row[5]) > 0 for row in cohorts)
    evaluations = [row for row in rows if row[0] == "evaluation"]
    assert [row[1:5] for row in evaluations] == [
        ["grouped", "3", "50890", "-"], ["one_by_one", "3", "50890", "-"],
        ["accuracy", "1", "33", "-"], ["accuracy", "7", "33", "-"],
    ]
    assert all(float(row[5]) > 0 for row in evaluations)


def test_microbench_times_each_row_in_its_own_process(monkeypatch):
    bench = load_script("microbench_rules", monkeypatch)
    assert bench.in_fresh_process(lambda: (float(os.getpid()), 1)) != (float(os.getpid()), 1)
    with pytest.raises(RuntimeError, match="failed in its own process"):
        bench.in_fresh_process(lambda: 1 / 0)


def test_demo_prints_the_three_rows_the_readme_quotes(monkeypatch, capsys):
    demo = load_script("demo_robustness", monkeypatch)
    monkeypatch.setattr(sys, "argv", ["demo_robustness.py", "--steps", "2", "--delta", "1"])
    demo.main()
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["attack", "server", "f", "best", "final"]
    assert [row[:-2] for row in rows] == [
        ["none", "Average", "0"],
        ["IPM", "tau=5", "Average", "2"],
        ["IPM", "tau=5", "TrMean", "+", "NNM", "2"],
    ]
    for row in rows:
        best, final = map(float, row[-2:])
        assert 0.0 <= final <= best <= 1.0


def test_every_tracer_target_is_an_attribute_of_its_owner():
    # perfbench patches each target where it is looked up; one that moved
    # would make ``perfbench/run.py --trace 1`` fail with a KeyError.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", SCRIPTS.parent / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.trace_targets()
    assert targets
    for owner, attr, _, _ in targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
