#!/usr/bin/env python3
"""Benchmark of robustfl's grid runner, driven through the public library API.

    python3 perfbench/run.py --workload sample_grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25 --trace 0

``--trace 0`` is the end-to-end pass. It runs the workload's grid with
``run_benchmark(cfg, parallelism=2)`` from an empty results directory, again
and again until ``--seconds`` are spent, and between grids times ``import
robustfl`` through ``expand_grid`` in fresh processes (``setup_s``); it
reports medians. ``--trace 1`` is the per-layer pass: one parallel and one serial
untraced grid, one serial grid with timing shims on the library's entry
points, a resume over the finished grid and the evaluation report.

Every pass checks the results it wrote. Lines before the last one print each
metric with its unit, the environment and the results' fingerprint; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when every check passes, 1 when one fails,
and 2 when the arguments are wrong or there is no ``src/robustfl`` to run.
"""

import os

# One BLAS thread per process, set before numpy loads, so the two pool
# workers use the two cores of the reference machine without contending.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import check_results, fingerprint  # noqa: E402
from tracing import Tracer, summarize, trace_targets  # noqa: E402
from workloads import WORKLOADS, write_idx  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"

PARALLELISM = 2
# Fresh-interpreter setups timed before each grid and after the last one.
# The machine's speed shifts for seconds at a time, so setups spread over
# the run sample more of those states than a single batch would.
SETUPS_PER_GAP = 4

# Runs in a fresh interpreter; times what a user waits for before the first
# grid point starts.
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
from pathlib import Path
import robustfl
cfg = robustfl.parse_config(Path(sys.argv[1]).read_text())
keys = robustfl.expand_grid(cfg)
Path(cfg.evaluation.results_directory).mkdir(parents=True, exist_ok=True)
print(time.perf_counter() - t0)
"""


# --------------------------------------------------------------------------- #
# Environment
# --------------------------------------------------------------------------- #


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def load_1min() -> float | None:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


# --------------------------------------------------------------------------- #
# Measurements
# --------------------------------------------------------------------------- #


def with_results_dir(cfg, path: Path):
    return dataclasses.replace(cfg, evaluation=dataclasses.replace(cfg.evaluation, results_directory=str(path)))


def timed_grid(cfg, parallelism: int) -> tuple[float, dict]:
    """Run the grid from an empty results directory; (seconds, summary)."""
    from robustfl import run_benchmark

    shutil.rmtree(cfg.evaluation.results_directory, ignore_errors=True)
    start = time.perf_counter()
    summary = run_benchmark(cfg, parallelism=parallelism)
    return time.perf_counter() - start, summary


def setup_times(workload, work: Path, count: int) -> list[float]:
    setup_dir = work / "setup"
    config = work / "setup_config.json"
    config.write_text(json.dumps(workload.config(setup_dir)))
    times = []
    for _ in range(count):
        shutil.rmtree(setup_dir, ignore_errors=True)
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(config)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def wcma(results) -> float:
    """Mean over heatmap cells of the worst-case maximal accuracy.

    A cell is one server setup (rule, its parameters and pre-aggregators) at
    one (distribution, parameter, f); its attacks and seeds are the inputs of
    ``worst_case_maximal_accuracy``.
    """
    from robustfl import worst_case_maximal_accuracy

    cells: dict[tuple, dict[str, list]] = defaultdict(lambda: defaultdict(list))
    for r in results:
        k = r.key
        server = (k.aggregator.name, json.dumps(k.aggregator.parameters, sort_keys=True),
                  tuple(p.name for p in k.pre_aggregators))
        attack = f"{k.attack.name} {json.dumps(k.attack.parameters, sort_keys=True)}"
        cells[(server, k.distribution_name, k.distribution_parameter, k.f)][attack].append((k.seed, r.test_accuracy))
    if not cells:
        return 0.0
    scores = [
        worst_case_maximal_accuracy({a: [acc for _, acc in sorted(runs)] for a, runs in by_attack.items()})
        for by_attack in cells.values()
    ]
    return sum(scores) / len(scores)


@dataclasses.dataclass
class Outcome:
    values: dict
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    fingerprints: dict = dataclasses.field(default_factory=dict)

    def record(self, cfg, summary: dict, runs: int) -> None:
        self.attempted += runs
        self.failed += summary["failed"]
        self.problems += [f"{run_id}: {message}" for run_id, message in summary["failures"]]
        self.problems += check_results(cfg, cfg.evaluation.results_directory)


def end_to_end(workload, cfg, work: Path, seconds: float) -> Outcome:
    from robustfl import expand_grid, list_results

    out = Outcome({})
    runs = len(expand_grid(cfg))
    grid_times: list[float] = []
    setups: list[float] = []
    digests = set()
    begin = time.perf_counter()
    while True:
        setups += setup_times(workload, work, SETUPS_PER_GAP)
        grid_s, summary = timed_grid(cfg, PARALLELISM)
        grid_times.append(grid_s)
        out.record(cfg, summary, runs)
        digests.add(fingerprint(cfg.evaluation.results_directory))
        spent = time.perf_counter() - begin
        # Start another grid only if it should end within the budget.
        if spent + spent / len(grid_times) > seconds:
            break
    if len(digests) != 1:
        out.problems.append(f"{len(grid_times)} repeats of the grid wrote {len(digests)} different result sets")
    setups += setup_times(workload, work, SETUPS_PER_GAP)
    grid_s = statistics.median(grid_times)
    out.values.update(
        setup_s=statistics.median(setups),
        grid_s=grid_s,
        steps_per_s=runs * cfg.nb_steps / grid_s,
        peak_rss_mb=peak_rss_mb(),
        wcma=wcma(list_results(cfg.evaluation.results_directory)),
    )
    out.fingerprints["parallel"] = digests.pop()
    out.values["repeats"] = len(grid_times)
    return out


def per_layer(cfg, work: Path) -> Outcome:
    from robustfl import emit_curves, emit_heatmaps, expand_grid, list_results, run_benchmark

    out = Outcome({})
    runs = len(expand_grid(cfg))
    passes = {name: with_results_dir(cfg, work / name) for name in ("parallel", "serial", "traced")}
    parallel_s, summary = timed_grid(passes["parallel"], PARALLELISM)
    out.record(passes["parallel"], summary, runs)
    serial_s, summary = timed_grid(passes["serial"], 1)
    out.record(passes["serial"], summary, runs)

    targets = trace_targets()
    originals = [vars(owner)[attr] for owner, attr, _, _ in targets]
    tracer = Tracer()
    with tracer.installed(targets):
        traced_s, summary = timed_grid(passes["traced"], 1)
    out.record(passes["traced"], summary, runs)
    if any(vars(owner)[attr] is not original for (owner, attr, _, _), original in zip(targets, originals)):
        out.problems.append("a tracing shim is still installed after the traced pass")
    (work / "spans.json").write_text(json.dumps(tracer.to_json()))

    start = time.perf_counter()
    summary = run_benchmark(passes["traced"], parallelism=PARALLELISM)
    resume_s = time.perf_counter() - start
    if summary["skipped"] != runs or summary["completed"] or summary["failed"]:
        out.problems.append(f"resume over a finished grid did work: {summary}")
    start = time.perf_counter()
    results = list_results(passes["traced"].evaluation.results_directory)
    emit_heatmaps(results, work / "plots")
    emit_curves(results, work / "plots")
    report_s = time.perf_counter() - start

    for name, pass_cfg in passes.items():
        out.fingerprints[name] = fingerprint(pass_cfg.evaluation.results_directory)
    if len(set(out.fingerprints.values())) != 1:
        out.problems.append(f"serial, traced and parallel passes wrote different bytes: {out.fingerprints}")

    out.values = summarize(tracer, traced_s)
    out.values.update({
        "benchmark.resume_s": resume_s,
        "evaluate.report_s": report_s,
        "benchmark.pool_efficiency": serial_s / (PARALLELISM * parallel_s),
        "trace.overhead": traced_s / serial_s - 1.0,
        "grid_s.parallel": parallel_s,
        "grid_s.serial": serial_s,
        "grid_s.traced": traced_s,
    })
    return out


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #


def report(spec: dict, workload: str, trace: bool, out: Outcome) -> dict:
    """Print every metric with its unit; return the result object."""
    listed = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": out.values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"{workload:<14} {name:<42} {metric['value']:.6g} {metric['unit']}")
    fail_ratio = out.failed / out.attempted if out.attempted else 1.0
    print(f"{workload:<14} {'fail_ratio':<42} {fail_ratio:.6g} ratio ({out.failed}/{out.attempted} runs)")
    for name in sorted(set(out.values) - set(metrics)):
        print(f"{workload:<14} {name:<42} {out.values[name]:.6g} (informational)")
    for name, digest in out.fingerprints.items():
        print(f"{workload:<14} fingerprint.{name:<30} sha256:{digest}")
    for problem in dict.fromkeys(out.problems):
        print(f"{workload:<14} CHECK FAILED: {problem}")
    return {"correct": not out.problems, "attempted": out.attempted, "failed": out.failed, "metrics": metrics}


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import robustfl
    from robustfl.benchmark import DATASET_ENV_VAR

    if Path(robustfl.__file__).resolve().parent != (SRC / "robustfl").resolve():
        print(f"error: imported robustfl from {robustfl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env = environment()
    env["seed"] = args.seed if workload.uses_seed else f"{args.seed} (ignored: run seeds are fixed by the config)"
    env["load_1min_before"] = load_1min()
    if workload.uses_seed:
        write_idx(work / "data", args.seed)
        os.environ[DATASET_ENV_VAR] = str(work / "data")
    cfg = robustfl.parse_config(json.dumps(workload.config(work / "results")))
    if args.trace:
        out = per_layer(cfg, work)
    else:
        out = end_to_end(workload, cfg, work, args.seconds)
    env["load_1min_after"] = load_1min()
    (work / "env.json").write_text(json.dumps(env, indent=2) + "\n")
    print(f"{workload.name:<14} env {json.dumps(env)}")
    result = report(spec, workload.name, bool(args.trace), out)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "robustfl" / "__init__.py").is_file():
        print(f"error: no robustfl package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
