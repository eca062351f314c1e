"""Self-tests of the benchmark: its spec, tracer, checks and inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import robustfl  # noqa: E402
import run  # noqa: E402
from checks import check_results, expected_steps, fingerprint  # noqa: E402
from tracing import Tracer, trace_targets  # noqa: E402
from workloads import WORKLOADS, synth_digits, write_idx  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
INTERACTIONS = json.loads((BENCH_DIR / "interactions.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def names(section: str) -> list[str]:
    return [m["name"] for m in SPEC[section]]


def tiny_config(results_dir: Path):
    """The sample grid cut to four steps, for tests that need real results."""
    doc = WORKLOADS["sample_grid"].config(results_dir)
    doc["benchmark_config"]["nb_steps"] = 4
    doc["evaluation_and_results"]["evaluation_delta"] = 2
    return robustfl.parse_config(json.dumps(doc))


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_metric_names_and_units():
    everything = [w["name"] for w in SPEC["workloads"]] + names("end_to_end") + names("per_layer")
    assert len(everything) == len(set(everything))
    for name in everything:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower"), m


def test_every_metric_reported(tmp_path):
    cfg = tiny_config(tmp_path / "results")
    e2e = run.end_to_end(WORKLOADS["sample_grid"], cfg, tmp_path, seconds=0)
    layers = run.per_layer(cfg, tmp_path)
    for trace, out, section in ((False, e2e, "end_to_end"), (True, layers, "per_layer")):
        assert not out.problems
        result = run.report(SPEC, "tiny", trace, out)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == names(section)
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))
    assert e2e.values["wcma"] > 0 and layers.values["simulator.client_grad.calls"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_configs_parse(tmp_path, workload):
    cfg = robustfl.parse_config(json.dumps(WORKLOADS[workload].config(tmp_path)))
    assert robustfl.expand_grid(cfg)
    assert (cfg.model.dataset_name == "mnist") == WORKLOADS[workload].uses_seed


def test_end_to_end_command_prints_one_result():
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "fedavg_flip", "--seed", "3", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().split("\n")[-1])
    assert result["correct"] and list(result["metrics"]) == names("end_to_end")
    for name in names("end_to_end"):
        assert re.search(rf"^fedavg_flip\s+{re.escape(name)}\s", done.stdout, re.M), name


def test_shims_removed_after_traced_pass(tmp_path):
    targets = trace_targets()
    originals = [vars(owner)[attr] for owner, attr, _, _ in targets]
    tracer = Tracer()
    with tracer.installed(targets):
        assert all(vars(owner)[attr] is not o for (owner, attr, _, _), o in zip(targets, originals))
        robustfl.run_benchmark(tiny_config(tmp_path / "results"), parallelism=1)
    assert all(vars(owner)[attr] is o for (owner, attr, _, _), o in zip(targets, originals))
    assert len(tracer.label) == len(tracer.start) == len(tracer.end) == len(tracer.parent) > 0
    assert {"simulator.client_grad", "simulator.step", "aggregators.Median"} <= set(tracer.labels)


def test_shims_removed_when_the_pass_raises():
    targets = trace_targets()
    originals = [vars(owner)[attr] for owner, attr, _, _ in targets]
    with pytest.raises(RuntimeError):
        with Tracer().installed(targets):
            raise RuntimeError("interrupted")
    assert all(vars(owner)[attr] is o for (owner, attr, _, _), o in zip(targets, originals))


def test_check_rejects_truncated_metrics(tmp_path):
    cfg = tiny_config(tmp_path / "results")
    robustfl.run_benchmark(cfg, parallelism=1)
    assert check_results(cfg, tmp_path / "results") == []
    assert expected_steps(cfg) == [0, 2, 4]
    run_dir = tmp_path / "results" / robustfl.expand_grid(cfg)[0].run_id
    metrics = run_dir / "metrics.csv"
    text = metrics.read_text()
    lines = text.splitlines(keepends=True)
    for damaged in ("".join(lines[:-1]), text[: len(text) - 5], text.replace(lines[-1].split(",")[1], "nan")):
        metrics.write_text(damaged)
        assert check_results(cfg, tmp_path / "results"), damaged
    metrics.write_text(text)
    assert check_results(cfg, tmp_path / "results") == []
    (run_dir / "metrics.csv").unlink()
    assert check_results(cfg, tmp_path / "results")


def test_fingerprint_sees_every_byte(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "metrics.csv").write_text("step\n0\n")
    before = fingerprint(tmp_path)
    (tmp_path / "a" / "metrics.csv").write_text("step\n1\n")
    assert fingerprint(tmp_path) != before


def test_sample_config_is_the_repository_copy():
    original = ROOT / "scripts" / "sample_config.json"
    if not original.is_file():
        pytest.skip("no scripts/sample_config.json in this tree")
    assert (BENCH_DIR / "configs" / "sample_config.json").read_bytes() == original.read_bytes()


def test_synthetic_digits_follow_the_seed(tmp_path):
    a_train, _ = synth_digits(5)
    b_train, _ = synth_digits(5)
    c_train, _ = synth_digits(6)
    assert a_train[0].tobytes() == b_train[0].tobytes() and a_train[1].tobytes() == b_train[1].tobytes()
    assert a_train[0].tobytes() != c_train[0].tobytes()
    write_idx(tmp_path, 5)
    train = robustfl.load_idx(tmp_path / "train-images-idx3-ubyte", tmp_path / "train-labels-idx1-ubyte")
    assert train.features.shape[1] == 784 and train.n_classes == 10
    assert (train.features * 255).round().astype("uint8").tobytes() == a_train[0].tobytes()


def test_interaction_table_covers_every_layer_metric():
    table = INTERACTIONS["per_layer"]
    assert list(table) == names("per_layer")
    workloads, e2e = set(WORKLOADS), set(names("end_to_end"))
    for name, entry in table.items():
        moves = entry["moves"]
        moved = [] if moves is None else [moves] if isinstance(moves, str) else moves
        assert set(moved) <= e2e, name
        assert set(entry["on"]) | set(entry.get("unchanged_on", [])) <= workloads, name
        assert moves is None or entry["on"], name


def test_coverage_list_names_exactly_the_unexercised_choices(tmp_path):
    from robustfl import ATTACK_NAMES, DISTRIBUTION_NAMES, PRE_AGGREGATOR_NAMES
    from robustfl.aggregators import AGGREGATOR_NAMES

    used = {"aggregators": set(), "pre_aggregators": set(), "attacks": set(), "data_distributions": set()}
    for workload in WORKLOADS.values():
        cfg = robustfl.parse_config(json.dumps(workload.config(tmp_path)))
        used["aggregators"] |= {r.name for r in cfg.aggregators}
        used["pre_aggregators"] |= {r.name for r in cfg.pre_aggregators}
        used["attacks"] |= {r.name for r in cfg.attacks}
        used["data_distributions"] |= {name for name, _ in cfg.data_distributions}
    every = {"aggregators": AGGREGATOR_NAMES, "pre_aggregators": PRE_AGGREGATOR_NAMES, "attacks": ATTACK_NAMES,
             "data_distributions": DISTRIBUTION_NAMES}
    for family, choices in every.items():
        assert INTERACTIONS["not_covered"][family] == [c for c in choices if c not in used[family]], family


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample_grid", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0 and "{" not in done.stdout
