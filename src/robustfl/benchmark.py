"""JSON-configured experiment grids: parse, expand, execute, persist.

A config names lists of aggregators, attacks, Byzantine counts, data
distributions, and a seed count; the grid is their cartesian product. Every
run is a pure function of (config, seed): all randomness is derived from the
run seed via purpose labels, so serial and parallel execution write
bit-identical results and finished runs are skipped on resume.

Results land under ``results_directory/<run_id>/`` as a ``metrics.csv``
(written atomically, last) plus a ``key.json`` sidecar describing the grid
point.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
import os
import re
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .aggregators import AggregatorSpec, RuleSpec
from .attacks import AttackSpec
from .config import FRACTION, NONNEGATIVE, POSITIVE, REQUIRED, Bound, Key, ListOf, Obj, Param, at_least, one_of
from .datadist import DISTRIBUTIONS, LabeledDataset, make_partition
from .models import (
    DEFAULT_HIDDEN_UNITS,
    LinearArch,
    LrSchedule,
    MlpArch,
    evaluate_accuracy,
    forward_loss,
    init_params,
    load_idx,
    make_blobs,
    param_count,
)
from .numerics import block_rows
from .preaggregators import PreAggregatorSpec, build_pipeline
from .seeding import derive_rng
from .simulator import (
    ByzantineClientGroup,
    HonestClient,
    ServerPass,
    ServerState,
    dsgd_step,
    fedavg_round,
    sampled_count,
)

log = logging.getLogger(__name__)

DATASET_ENV_VAR = "ROBUSTFL_DATA_DIR"


# --------------------------------------------------------------------------- #
# Datasets and architectures
# --------------------------------------------------------------------------- #


def _blob_datasets(cfg: ModelConfig, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    params = cfg.dataset_params
    n_classes, dim, spread = params["n_classes"], params["dim"], params["spread"]
    rng = derive_rng(seed, "dataset")
    centers = rng.standard_normal((n_classes, dim))
    return tuple(
        make_blobs(n_classes, [len(part) for part in np.array_split(range(params[size]), n_classes)], dim, spread,
                   rng, centers)
        for size in ("train_size", "test_size")
    )


def _mnist_datasets(cfg: ModelConfig, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    root = os.environ.get(DATASET_ENV_VAR)
    if not root:
        raise ValueError(f"dataset 'mnist' needs the {DATASET_ENV_VAR} environment variable to point at the IDX files")

    def find(stem: str) -> Path:
        for candidate in (Path(root) / stem, Path(root) / f"{stem}.gz"):
            if candidate.exists():
                return candidate
        raise ValueError(f"missing {stem}[.gz] under {root}")

    train = load_idx(find("train-images-idx3-ubyte"), find("train-labels-idx1-ubyte"))
    test = load_idx(find("t10k-images-idx3-ubyte"), find("t10k-labels-idx1-ubyte"))
    return train, test


class Dataset(NamedTuple):
    """One row of ``DATASETS``: the (train, test) loader, the keys of ``model.dataset_params`` and the
    training set's (input dim, classes) from the config alone, None where only the files tell."""

    load: Callable[[ModelConfig, int], tuple[LabeledDataset, LabeledDataset]]
    params: dict[str, Key]
    shape: Callable[[ModelConfig], tuple[int, int]] | None


DATASETS = {
    "blobs": Dataset(_blob_datasets, {
        "n_classes": Key(Param(int, at_least(2)), 3),
        "dim": Key(Param(int, at_least(1)), 20),
        "train_size": Key(Param(int, at_least(1)), 6000),
        "test_size": Key(Param(int, at_least(1)), 1000),
        "spread": Key(Param(float, NONNEGATIVE), 1.0),
    }, lambda cfg: (cfg.dataset_params["dim"], cfg.dataset_params["n_classes"])),
    "mnist": Dataset(_mnist_datasets, {}, None),
}


# Model name -> its architecture, built from (model config, input dim, classes).
ARCHS = {
    "linear": lambda cfg, in_dim, n_classes: LinearArch(in_dim, n_classes),
    "mlp": lambda cfg, in_dim, n_classes: MlpArch(in_dim, cfg.hidden, n_classes),
}


# --------------------------------------------------------------------------- #
# The schema and parsing
# --------------------------------------------------------------------------- #


def _rule(spec: type) -> Obj:
    """Reader for one rule entry: its ``spec``, which casts the parameters by its family's table."""
    return Obj(spec, {"name": Key(Param(str)), "parameters": Key(Param(dict), {})})


_AGGREGATOR, _PRE_AGGREGATOR, _ATTACK = _rule(AggregatorSpec), _rule(PreAggregatorSpec), _rule(AttackSpec)

_FEDAVG = {
    "proportion_selected_clients": Key(Param(float, FRACTION), 1.0),
    "local_steps_per_client": Key(Param(int, at_least(1)), 1),
}
_TRAINING_ALGORITHM = Obj.record("TrainingAlgorithmConfig", __name__, {}, ("name", {
    "DSGD": {"parameters": Key(Obj(dict, {}), {})},
    "FedAvg": {"parameters": Key(Obj(dict, _FEDAVG), {})},
}))

# The parameter list is required and bounded where the splitter takes the
# parameter; otherwise it only names the runs.
_DISTRIBUTION = Obj(lambda name, distribution_parameter: (name, distribution_parameter), {}, ("name", {
    name: {"distribution_parameter": Key(ListOf(Param(float, row.parameter)), REQUIRED if row.parameter else [0.0])}
    for name, row in DISTRIBUTIONS.items()
}))

_BENCHMARK = Obj(lambda f, data_distribution, **rest: dict(rest, f_values=f, data_distributions=data_distribution), {
    "training_algorithm": Key(_TRAINING_ALGORITHM),
    "nb_steps": Key(Param(int, at_least(1))),
    "nb_training_seeds": Key(Param(int, at_least(1)), 1),
    "nb_honest_clients": Key(Param(int, at_least(1))),
    "f": Key(ListOf(Param(int, at_least(0))), [0]),
    "data_distribution": Key(ListOf(_DISTRIBUTION), {"name": "iid"}),
})

_MODEL = Obj.record("ModelConfig", __name__, {
    "name": Key(one_of(ARCHS)),
    "learning_rate": Key(Param(float, POSITIVE)),
    "loss": Key(one_of(("NLLLoss",)), "NLLLoss"),
    "learning_rate_decay": Key(Param(float, FRACTION), 1.0),
    "milestones": Key(ListOf(Param(int, at_least(0)), empty_ok=True), []),
    "hidden": Key(Param(int, at_least(1)), DEFAULT_HIDDEN_UNITS),
}, ("dataset_name", {name: {"dataset_params": Key(Obj(dict, row.params), {})} for name, row in DATASETS.items()}))

_HONEST_CLIENTS = Obj.record("HonestClientsConfig", __name__, {
    "momentum": Key(Param(float, Bound(lambda m: 0 <= m < 1, "lie in [0, 1)")), 0.0),
    "weight_decay": Key(Param(float, NONNEGATIVE), 0.0),
    "batch_size": Key(Param(int, at_least(1)), 25),
})

_EVALUATION = Obj.record("EvaluationConfig", __name__, {
    "evaluation_delta": Key(Param(int, at_least(1))),
    "results_directory": Key(Param(str)),
    "store_per_client_metrics": Key(Param(bool), False),
})

# Each section's record, bound to its name so that a parsed config pickles into pool workers.
TrainingAlgorithmConfig, ModelConfig, HonestClientsConfig, EvaluationConfig = (
    section.build for section in (_TRAINING_ALGORITHM, _MODEL, _HONEST_CLIENTS, _EVALUATION))


@dataclass
class BenchmarkConfig:
    training_algorithm: TrainingAlgorithmConfig
    nb_steps: int
    nb_training_seeds: int
    nb_honest_clients: int
    f_values: list[int]
    data_distributions: list[tuple[str, list[float]]]
    model: ModelConfig
    aggregators: list[AggregatorSpec]
    pre_aggregators: list[PreAggregatorSpec]
    honest_clients: HonestClientsConfig
    attacks: list[AttackSpec]
    evaluation: EvaluationConfig

    def __post_init__(self) -> None:
        delta = self.evaluation.evaluation_delta
        if delta > self.nb_steps:
            raise ValueError(f"evaluation_delta ({delta}) cannot exceed nb_steps ({self.nb_steps})")
        if self.model.dataset_name == "blobs":
            blobs, at = self.model.dataset_params, "model.dataset_params."
            for size, floor, name in (("train_size", blobs["n_classes"], f"{at}n_classes"),
                                      ("test_size", blobs["n_classes"], f"{at}n_classes"),
                                      ("train_size", self.nb_honest_clients, "benchmark_config.nb_honest_clients")):
                if blobs[size] < floor:
                    raise ValueError(f"{at}{size} ({blobs[size]}) cannot be below {name} ({floor})")


SCHEMA = Obj(lambda benchmark_config, aggregator, attack, evaluation_and_results, **sections: BenchmarkConfig(
    **benchmark_config, **sections, aggregators=aggregator, attacks=attack, evaluation=evaluation_and_results
), {
    "benchmark_config": Key(_BENCHMARK),
    "model": Key(_MODEL),
    "aggregator": Key(ListOf(_AGGREGATOR)),
    "pre_aggregators": Key(ListOf(_PRE_AGGREGATOR, empty_ok=True), []),
    "honest_clients": Key(_HONEST_CLIENTS, {}),
    "attack": Key(ListOf(_ATTACK)),
    "evaluation_and_results": Key(_EVALUATION),
})


_STRING_OR_COMMENT = re.compile(r'("(?:\\.|[^"\\\n])*")|//[^\n]*')


def strip_json_comments(text: str) -> str:
    """Drop ``//`` line comments that occur outside string literals."""
    return _STRING_OR_COMMENT.sub(lambda m: m.group(1) or "", text)


def parse_config(text: str) -> BenchmarkConfig:
    """Parse and validate a benchmark config document against ``SCHEMA``.

    Raises ``ValueError`` naming the dotted path of any unknown key, missing
    required key, mistyped or out-of-range value.
    """
    stripped = strip_json_comments(text)
    try:
        raw = json.loads(stripped) if stripped.strip() else {}
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    return SCHEMA(raw, "")


def parse_config_file(path) -> BenchmarkConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


# --------------------------------------------------------------------------- #
# Grid expansion
# --------------------------------------------------------------------------- #


def _sanitize(token: str) -> str:
    return re.sub(r"[^A-Za-z0-9.+-]", "-", token)


def _number_token(value: float) -> str:
    """``value`` in ``:g`` form when that reads back as the same number, else
    its ``repr``, so distinct values never share a run id."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def _rule_token(rule: RuleSpec) -> str:
    token = rule.name
    for key, value in sorted(rule.parameters.items()):
        try:
            token += f"-{key}{_number_token(value)}"
        except OverflowError:
            raise ValueError(f"{rule.name} parameter {key} is too large for a run id to spell") from None
    return _sanitize(token)


@dataclass
class ExperimentKey:
    """One grid point: everything that distinguishes a run. The aggregator
    and pre-aggregator specs carry the key's ``f``."""

    aggregator: AggregatorSpec
    pre_aggregators: list[PreAggregatorSpec]
    attack: AttackSpec
    f: int
    distribution_name: str
    distribution_parameter: float
    seed: int

    @property
    def server_token(self) -> str:
        """The aggregator with its parameters, then the pre-aggregator names."""
        parts = [_rule_token(self.aggregator)]
        if self.pre_aggregators:
            parts.append("-".join(_sanitize(p.name) for p in self.pre_aggregators))
        return "_".join(parts)

    @property
    def attack_token(self) -> str:
        return _rule_token(self.attack)

    @property
    def distribution_token(self) -> str:
        """Short family name ("gamma" for gamma_similarity_niid), without the parameter."""
        dist = DISTRIBUTIONS.get(self.distribution_name)
        return self.distribution_name if dist is None else dist.token

    @property
    def parameter_token(self) -> str:
        """The distribution parameter as run ids and plots spell it."""
        return _number_token(self.distribution_parameter)

    @property
    def run_id(self) -> str:
        dist = f"{self.distribution_token}{self.parameter_token}"
        return "_".join([self.server_token, self.attack_token, f"f{self.f}", dist, f"seed{self.seed}"])

    def to_json_dict(self) -> dict:
        return {
            "id": self.run_id,
            "aggregator": {"name": self.aggregator.name, "parameters": self.aggregator.parameters},
            "pre_aggregators": [{"name": p.name, "parameters": p.parameters} for p in self.pre_aggregators],
            "attack": {"name": self.attack.name, "parameters": self.attack.parameters},
            "f": self.f,
            "data_distribution": {"name": self.distribution_name, "parameter": self.distribution_parameter},
            "seed": self.seed,
        }


# Reader of the key.json that ``ExperimentKey.to_json_dict`` writes; its rules are read like a config's.
KEY_JSON = Obj(lambda aggregator, pre_aggregators, attack, f, data_distribution, seed, **_: ExperimentKey(
    replace(aggregator, f=f), [replace(p, f=f) for p in pre_aggregators], attack, f, *data_distribution, seed), {
    "id": Key(Param(str)),
    "aggregator": Key(_AGGREGATOR),
    "pre_aggregators": Key(ListOf(_PRE_AGGREGATOR, empty_ok=True)),
    "attack": Key(_ATTACK),
    "f": Key(Param(int, at_least(0))),
    "data_distribution": Key(Obj(lambda name, parameter: (name, parameter),
                                 {"name": Key(Param(str)), "parameter": Key(Param(float))})),
    "seed": Key(Param(int, at_least(0))),
}, document="key.json")


def expand_grid(cfg: BenchmarkConfig) -> list[ExperimentKey]:
    """Cartesian product: aggregators x attacks x f x (distribution,
    parameter) x seeds, in that nesting order."""
    grid = itertools.product(cfg.aggregators, cfg.attacks, cfg.f_values, cfg.data_distributions)
    keys = [
        ExperimentKey(replace(aggregator, f=f), [replace(p, f=f) for p in cfg.pre_aggregators], attack, f,
                      dist_name, parameter, seed)
        for aggregator, attack, f, (dist_name, params) in grid
        for parameter in params
        for seed in range(cfg.nb_training_seeds)
    ]
    ids = [k.run_id for k in keys]
    longest = max(ids, key=len, default="")  # ASCII: one byte per character
    if len(longest) > 255:
        raise ValueError(f"run id {longest!r} is longer than the 255-byte file-name limit")
    if len(set(ids)) != len(ids):
        duplicate = next(i for i in ids if ids.count(i) > 1)
        raise ValueError(f"grid produces duplicate run id {duplicate!r}")
    return keys


def honest_rows(cfg: BenchmarkConfig) -> int:
    """The honest rows one step aggregates: every client's under DSGD, the sampled clients' under FedAvg."""
    algorithm, n = cfg.training_algorithm, cfg.nb_honest_clients
    return sampled_count(algorithm.parameters["proportion_selected_clients"], n) if algorithm.name == "FedAvg" else n


def check_pipelines(cfg: BenchmarkConfig, keys: list[ExperimentKey]) -> None:
    """Aggregate a seeded (rows + f, 2) matrix once per (server setup, f), rows + f being what one step of
    that run aggregates; a rule that rejects it (an infeasible f, a pivot past the rows) raises
    ``ValueError`` naming the first such run."""
    rows = honest_rows(cfg)
    firsts: dict[tuple[str, int], ExperimentKey] = {}
    for key in keys:
        firsts.setdefault((key.server_token, key.f), key)
    for key in firsts.values():
        pipeline = build_pipeline(key.aggregator, key.pre_aggregators, rng=derive_rng(0, "bucketing"))
        try:
            pipeline(derive_rng(0, "validate").standard_normal((rows + key.f, 2)))
        except ValueError as exc:
            raise ValueError(f"run {key.run_id}: {exc}") from None


# --------------------------------------------------------------------------- #
# Single-run execution
# --------------------------------------------------------------------------- #


@dataclass
class ExperimentResult:
    """Evaluation series for one run; one row per evaluated step."""

    key: ExperimentKey
    steps: list[int]
    test_accuracy: list[float]
    train_loss: list[float]
    client_losses: list[list[float]] | None = None


@dataclass
class _Member:
    """A task's run: series, server, attack, (m + f, d) step rows (its cohort's bank trains m + seats), its cohort's
    bank pass ``train(lr, members)`` and ``score`` of its snapshots, taken ``group_size`` at a time, unscored steps."""

    result: ExperimentResult
    server: ServerState
    byz: ByzantineClientGroup
    rows: np.ndarray
    train: Callable[[float, list[_Member]], None]
    score: Callable[[_Member], None]
    group_size: int
    snapshots: list[np.ndarray] = field(default_factory=list)


def run_cohort(cfg: BenchmarkConfig, keys: list[ExperimentKey], cores: int = 1) -> list[ExperimentResult | Exception]:
    """Execute grid points from scratch, in lockstep. Runs that share (seed, distribution, parameter) form a cohort,
    which loads its data, draws its initial vector and each step's batches once and trains its runs' client rows in
    one bank pass, each at its run's parameters; one server pass (``dsgd_step``, ``fedavg_round``) then steps every
    run on a ``ServerPass``, planned when the runs start and again when one leaves. Returns each run's series, bit
    for bit its series alone, or the exception that ended it (the others go on); what a cohort shares raises for its
    runs. Attack searches run on ``cores`` cores."""
    hc, n, m = cfg.honest_clients, cfg.nb_honest_clients, honest_rows(cfg)
    schedule = LrSchedule(cfg.model.learning_rate, cfg.model.learning_rate_decay, tuple(cfg.model.milestones))
    fedavg = cfg.training_algorithm.parameters if cfg.training_algorithm.name == "FedAvg" else None
    per_client = cfg.evaluation.store_per_client_metrics
    outcomes: list[ExperimentResult | Exception | None] = [None] * len(keys)
    live: dict[int, _Member] = {}

    def each(work, runs) -> None:
        """``work(i)`` for every run i of ``runs``; a run whose work raises leaves the task with its exception."""
        for i in list(runs):
            try:
                work(i)
            except Exception as exc:  # noqa: BLE001 - one bad run must not sink its task
                outcomes[i] = exc
                live.pop(i, None)

    def start(seed: int, name: str, parameter: float, runs: list[int]) -> None:
        """Start the cohort of ``runs``, which share ``seed`` and the split ``name`` at ``parameter``."""
        train, test = DATASETS[cfg.model.dataset_name].load(cfg.model, seed)
        partition = make_partition(train, name, parameter, n, derive_rng(seed, "datadist"))
        arch = ARCHS[cfg.model.name](cfg.model, train.features.shape[1], train.n_classes)
        init = init_params(arch, derive_rng(seed, "init"))  # every run's first parameters, behind read-only views
        sampling = derive_rng(seed, "sampling")
        subsets = [np.concatenate(partition.assignments)] + (partition.assignments if per_client else [])
        # A run's snapshots (read-only) are scored in groups whose (k, d) and (k, rows) arrays fit in BLOCK_ELEMENTS.
        group_size = block_rows(max(param_count(arch), len(train.labels), len(test.labels)))

        def bank(lr: float, members: list[_Member]) -> None:
            flats, heads = [run.server.flat for run in members], [run.rows[: m + run.byz.seats] for run in members]
            if fedavg is None:
                clients.compute_update(arch, flats, heads)
            else:
                chosen = np.sort(sampling.choice(n, size=m, replace=False))
                clients.local_delta(arch, flats, lr, fedavg["local_steps_per_client"], chosen, heads)

        def score(member: _Member) -> None:
            flats, result = np.stack(member.snapshots), member.result
            member.snapshots.clear()
            result.test_accuracy.extend(evaluate_accuracy(arch, flats, test))
            for loss, *client_losses in forward_loss(arch, flats, train.features, train.labels, subsets):
                result.train_loss.append(loss)
                if result.client_losses is not None:
                    result.client_losses.append(client_losses)

        def join(i: int) -> None:
            key, rows = keys[i], np.zeros((m + keys[i].f, param_count(arch)))
            pipeline = build_pipeline(key.aggregator, key.pre_aggregators, rng=derive_rng(seed, "bucketing"))
            result = ExperimentResult(key, [], [], [], [] if per_client else None)
            live[i] = _Member(result, ServerState(init, pipeline), ByzantineClientGroup(key.f, key.attack, cores), rows,
                              bank, score, group_size)
            outcomes[i] = result

        each(join, runs)
        seats = max((live[i].byz.seats for i in runs if i in live), default=0)
        rngs = [derive_rng(seed, f"client.{i}") for i in range(n)]
        rngs += [derive_rng(seed, f"byz.{j}") for j in range(seats)]
        clients = HonestClient(train, partition.assignments, hc.batch_size, hc.momentum, hc.weight_decay, rngs, seats)
        each(lambda i: record(live[i], 0), [i for i in runs if i in live])

    def record(member: _Member, step: int) -> None:
        member.result.steps.append(step)
        member.snapshots.append(member.server.flat)
        if len(member.snapshots) == member.group_size:
            member.score(member)

    cohorts: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        cohorts.setdefault((key.seed, key.distribution_name, key.distribution_parameter), []).append(i)
    for (seed, name, parameter), runs in cohorts.items():
        try:
            start(seed, name, parameter, runs)
        except Exception as exc:  # noqa: BLE001 - what a cohort shares failed for each of its runs
            for i in runs:
                outcomes[i] = exc
                live.pop(i, None)
    plan = None
    for step in range(1, cfg.nb_steps + 1):
        if not live:
            break
        if plan is None or len(plan.runs) != len(live):  # planned anew when a run leaves
            plan, ids, banks = ServerPass(live.values()), list(live), {}
            for member in live.values():
                banks.setdefault(member.train, []).append(member)
        lr = schedule.lr_at(step - 1)
        for train, members in banks.items():
            train(lr, members)
        for i, error in zip(ids, dsgd_step(plan, lr) if fedavg is None else fedavg_round(plan)):
            if error is not None:
                outcomes[i] = error
                del live[i]
        if step % cfg.evaluation.evaluation_delta == 0 or step == cfg.nb_steps:
            each(lambda i: record(live[i], step), live)
    del plan  # the stacks, and below each run's rows, before the last groups' scores
    for member in live.values():
        del member.rows
    each(lambda i: live[i].snapshots and live[i].score(live[i]), live)
    return outcomes


def run_single(cfg: BenchmarkConfig, key: ExperimentKey, cores: int = 1) -> ExperimentResult:
    """Execute one grid point from scratch, a task of one run, and return its series or raise what ended it."""
    [result] = run_cohort(cfg, [key], cores)
    if isinstance(result, Exception):
        raise result
    return result


# --------------------------------------------------------------------------- #
# Persistence
# --------------------------------------------------------------------------- #


_METRICS_HEADER = ["step", "test_accuracy", "train_loss"]


def _atomic_write(path: Path, content: str) -> None:
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(content, encoding="utf-8")
    os.replace(tmp, path)


def write_result(base_dir, result: ExperimentResult) -> Path:
    """Persist one run: key sidecar first, metrics (the resume marker) last."""
    run_dir = Path(base_dir) / result.key.run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(run_dir / "key.json", json.dumps(result.key.to_json_dict(), indent=2) + "\n")
    header = list(_METRICS_HEADER)
    if result.client_losses is not None:
        header += [f"client{i}_loss" for i in range(len(result.client_losses[0]))]
    lines = [",".join(header)]
    for i, step in enumerate(result.steps):
        row = [str(step), repr(result.test_accuracy[i]), repr(result.train_loss[i])]
        if result.client_losses is not None:
            row += [repr(v) for v in result.client_losses[i]]
        lines.append(",".join(row))
    _atomic_write(run_dir / "metrics.csv", "\n".join(lines) + "\n")
    return run_dir


def read_result(base_dir, run_id: str) -> ExperimentResult:
    """Load one persisted run; raises ``FileNotFoundError`` when absent and
    ``ValueError`` naming ``key.json`` or ``metrics.csv`` when it is malformed."""
    run_dir = Path(base_dir) / run_id
    metrics = run_dir / "metrics.csv"
    if not metrics.exists():
        raise FileNotFoundError(f"result absent: {metrics}")
    key_path = run_dir / "key.json"
    try:
        key = KEY_JSON(json.loads(key_path.read_text(encoding="utf-8")), "")
    except ValueError as exc:
        raise ValueError(f"{key_path}: {exc}") from None
    header, *rows = list(csv.reader(metrics.read_text(encoding="utf-8").strip().splitlines())) or [[]]
    try:
        if header[:3] != _METRICS_HEADER or not rows:
            raise ValueError(f"needs the header {','.join(_METRICS_HEADER)},... and at least one row")
        for line, row in enumerate(rows, 2):
            if len(row) != len(header):
                raise ValueError(f"line {line} has {len(row)} cells, the header {len(header)}")
        steps = [int(row[0]) for row in rows]
        values = [[float(v) for v in row[1:]] for row in rows]
    except ValueError as exc:
        raise ValueError(f"{metrics}: {exc}") from None
    per_client = [v[2:] for v in values] if len(header) > 3 else None
    return ExperimentResult(key, steps, [v[0] for v in values], [v[1] for v in values], per_client)


def list_results(base_dir) -> list[ExperimentResult]:
    """Load every completed run under a results directory, sorted by run id."""
    base = Path(base_dir)
    if not base.is_dir():
        return []
    results = []
    for entry in sorted(base.iterdir()):
        if (entry / "metrics.csv").exists() and (entry / "key.json").exists():
            results.append(read_result(base, entry.name))
    return results


# --------------------------------------------------------------------------- #
# Grid execution
# --------------------------------------------------------------------------- #


def _execute_cohort(cfg: BenchmarkConfig, keys: list[ExperimentKey], base_dir: str, cores: int) -> list[str | None]:
    """Run one task on ``cores`` cores and persist each of its runs; returns each one's error message or None."""
    try:
        outcomes = run_cohort(cfg, keys, cores)
    except Exception as exc:  # noqa: BLE001 - what the task raises fails each of its runs
        return [f"{type(exc).__name__}: {exc}"] * len(keys)
    messages = []
    for outcome in outcomes:
        if isinstance(outcome, ExperimentResult):
            try:
                write_result(base_dir, outcome)
            except Exception as exc:  # noqa: BLE001 - one bad run must not sink the grid
                outcome = exc
        messages.append(f"{type(outcome).__name__}: {outcome}" if isinstance(outcome, Exception) else None)
    return messages


def _cohorts(cfg: BenchmarkConfig, keys: list[ExperimentKey], parallelism: int) -> list[list[ExperimentKey]]:
    """``keys`` as pool tasks: the runs cohort by cohort (those that share (seed, distribution, parameter)), cohorts
    in grid order of their first run, cut into tasks of min(block_rows((n + max f) * d), ceil(len(keys) / parallelism))
    runs: a task's stacked step rows fit in ``BLOCK_ELEMENTS`` and every worker gets a task. Runs on a dataset whose
    files alone tell d (mnist) go alone."""
    shape, size = DATASETS[cfg.model.dataset_name].shape, 1
    if shape is not None:
        d = param_count(ARCHS[cfg.model.name](cfg.model, *shape(cfg.model)))
        size = min(block_rows((cfg.nb_honest_clients + max(cfg.f_values)) * d), math.ceil(len(keys) / parallelism))
    shared: dict[tuple, list[ExperimentKey]] = {}
    for key in keys:
        shared.setdefault((key.seed, key.distribution_name, key.distribution_parameter), []).append(key)
    runs = [key for cohort in shared.values() for key in cohort]
    return [runs[i : i + size] for i in range(0, len(runs), max(size, 1))]


def run_benchmark(cfg: BenchmarkConfig, parallelism: int = 1) -> dict:
    """Execute every grid point that is not already on disk.

    Returns ``{"completed": int, "skipped": int, "failed": int, "failures":
    [(run_id, message), ...]}``. Individual failures are recorded and the
    remaining runs proceed. A pool worker that dies (OOM kill, signal) breaks
    its pool: the runs that pool left unfinished and not on disk run again in
    a fresh pool, and once a second pool breaks, each in a one-worker pool of
    its own. Only a run whose lone worker dies is recorded as failed, with the
    ``BrokenProcessPool`` message. The runs execute as tasks (``_cohorts``), each task's attack searches on
    max(1, parallelism // tasks to execute) cores.
    """
    at_least(1).check(parallelism, "parallelism")
    keys = expand_grid(cfg)
    base = Path(cfg.evaluation.results_directory)
    base.mkdir(parents=True, exist_ok=True)
    pending = [k for k in keys if not (base / k.run_id / "metrics.csv").exists()]
    skipped = len(keys) - len(pending)
    tasks = _cohorts(cfg, pending, parallelism)
    cores = max(1, parallelism // max(1, len(tasks)))
    log.info("grid has %d runs: %d already on disk, %d to execute", len(keys), skipped, len(pending))

    failures: list[tuple[str, str]] = []
    completed = 0

    def record(cohort: list[ExperimentKey], errors: list[str | None]) -> None:
        nonlocal completed
        for key, error in zip(cohort, errors):
            if error is None:
                completed += 1
                log.info("completed %s", key.run_id)
            else:
                failures.append((key.run_id, error))
                log.error("failed %s: %s", key.run_id, error)

    def run_pool(batch: list[list[ExperimentKey]]) -> list[ExperimentKey]:
        """Run the tasks of ``batch`` in one pool; returns the runs a broken pool left unfinished and not on disk."""
        lost = []
        with ProcessPoolExecutor(max_workers=min(parallelism, len(batch))) as pool:
            futures = {pool.submit(_execute_cohort, cfg, cohort, str(base), cores): cohort for cohort in batch}
            for future in as_completed(futures):
                try:
                    record(futures[future], future.result())
                except BrokenProcessPool as exc:
                    for key in futures[future]:
                        if (base / key.run_id / "metrics.csv").exists():
                            record([key], [None])
                        elif batch == [[key]]:
                            record([key], [f"{type(exc).__name__}: {exc}"])
                        else:
                            lost.append(key)
        if lost:
            log.warning("a pool worker died; %d unfinished runs will run again", len(lost))
        return lost

    if parallelism == 1 or len(tasks) <= 1:
        for cohort in tasks:
            record(cohort, _execute_cohort(cfg, cohort, str(base), cores))
    else:
        lost = run_pool(tasks)
        if lost:
            lost = run_pool(_cohorts(cfg, lost, parallelism))
        for key in lost:
            run_pool([[key]])
    failures.sort()
    return {"completed": completed, "skipped": skipped, "failed": len(failures), "failures": failures}
