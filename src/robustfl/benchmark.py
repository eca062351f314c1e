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

import json
import logging
import math
import os
import re
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .aggregators import AggregatorSpec
from .attacks import AttackSpec
from .datadist import DISTRIBUTION_NAMES, DISTRIBUTIONS, LabeledDataset, make_partition
from .models import (
    DEFAULT_HIDDEN_UNITS,
    LinearArch,
    LrSchedule,
    MlpArch,
    forward_loss,
    init_params,
    load_idx,
    make_blobs,
)
from .preaggregators import Pipeline, PreAggregatorSpec, build_pipeline
from .seeding import derive_rng
from .simulator import (
    ByzantineClientGroup,
    FedAvgParams,
    HonestClient,
    ServerState,
    dsgd_step,
    evaluate_accuracy,
    fedavg_round,
)

log = logging.getLogger(__name__)

DATASET_ENV_VAR = "ROBUSTFL_DATA_DIR"

_TOP_LEVEL_KEYS = {
    "benchmark_config",
    "model",
    "aggregator",
    "pre_aggregators",
    "honest_clients",
    "attack",
    "evaluation_and_results",
}

_BLOB_DEFAULTS = {"n_classes": 3, "dim": 20, "train_size": 6000, "test_size": 1000, "spread": 1.0}


# --------------------------------------------------------------------------- #
# Config model
# --------------------------------------------------------------------------- #


@dataclass
class RuleConfig:
    """A named rule (aggregator, pre-aggregator, or attack) plus parameters."""

    name: str
    parameters: dict = field(default_factory=dict)


@dataclass
class TrainingAlgorithmConfig:
    name: str
    parameters: dict = field(default_factory=dict)


@dataclass
class ModelConfig:
    name: str
    dataset_name: str
    learning_rate: float
    loss: str = "NLLLoss"
    learning_rate_decay: float = 1.0
    milestones: list[int] = field(default_factory=list)
    hidden: int = DEFAULT_HIDDEN_UNITS
    dataset_params: dict = field(default_factory=dict)


@dataclass
class HonestClientsConfig:
    momentum: float = 0.0
    weight_decay: float = 0.0
    batch_size: int = 25


@dataclass
class EvaluationConfig:
    evaluation_delta: int
    results_directory: str
    store_per_client_metrics: bool = False


@dataclass
class BenchmarkConfig:
    training_algorithm: TrainingAlgorithmConfig
    nb_steps: int
    nb_honest_clients: int
    model: ModelConfig
    aggregators: list[RuleConfig]
    attacks: list[RuleConfig]
    evaluation: EvaluationConfig
    nb_training_seeds: int = 1
    f_values: list[int] = field(default_factory=lambda: [0])
    data_distributions: list[tuple[str, list[float]]] = field(default_factory=lambda: [("iid", [0.0])])
    pre_aggregators: list[RuleConfig] = field(default_factory=list)
    honest_clients: HonestClientsConfig = field(default_factory=HonestClientsConfig)


# --------------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------------- #


def strip_json_comments(text: str) -> str:
    """Drop ``//`` line comments that occur outside string literals."""
    out_lines = []
    for line in text.splitlines():
        in_string = False
        escaped = False
        cut = len(line)
        for i, ch in enumerate(line):
            if escaped:
                escaped = False
                continue
            if ch == "\\" and in_string:
                escaped = True
                continue
            if ch == '"':
                in_string = not in_string
                continue
            if not in_string and ch == "/" and line[i : i + 2] == "//":
                cut = i
                break
        out_lines.append(line[:cut])
    return "\n".join(out_lines)


def _as_obj(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object")
    return value


def _as_rule_list(value, where: str) -> list[RuleConfig]:
    entries = [value] if isinstance(value, dict) else value
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{where} must be a non-empty list of rule objects")
    rules = []
    for i, entry in enumerate(entries):
        entry = _as_obj(entry, f"{where}[{i}]")
        name = entry.get("name")
        if not isinstance(name, str):
            raise ValueError(f"{where}[{i}].name must be a string")
        params = _as_obj(entry.get("parameters", {}), f"{where}[{i}].parameters")
        rules.append(RuleConfig(name, dict(params)))
    return rules


def _as_int(value, where: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{where} must be an integer")
    if minimum is not None and value < minimum:
        raise ValueError(f"{where} must be >= {minimum}, got {value}")
    return value


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number")
    return float(value)


def parse_config(text: str) -> BenchmarkConfig:
    """Parse and validate a benchmark config document.

    Raises ``ValueError`` naming the offending field on any unknown top-level
    key, missing required field, or out-of-range value.
    """
    stripped = strip_json_comments(text)
    if not stripped.strip():
        raw = {}
    else:
        try:
            raw = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
    raw = _as_obj(raw, "config")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ValueError(f"unknown top-level key: {sorted(unknown)[0]!r}")
    for required in ("benchmark_config", "model", "aggregator", "attack", "evaluation_and_results"):
        if required not in raw:
            raise ValueError(f"missing {required}")

    bench = _as_obj(raw["benchmark_config"], "benchmark_config")
    algo_obj = _as_obj(bench.get("training_algorithm"), "benchmark_config.training_algorithm")
    algo_name = algo_obj.get("name")
    if algo_name not in ("DSGD", "FedAvg"):
        raise ValueError(f"benchmark_config.training_algorithm.name must be 'DSGD' or 'FedAvg', got {algo_name!r}")
    algo = TrainingAlgorithmConfig(algo_name, dict(algo_obj.get("parameters", {})))
    if algo.name == "FedAvg":
        _fedavg_params(algo)  # validate eagerly

    nb_steps = _as_int(bench.get("nb_steps"), "benchmark_config.nb_steps", minimum=1)
    nb_seeds = _as_int(bench.get("nb_training_seeds", 1), "benchmark_config.nb_training_seeds", minimum=1)
    nb_honest = _as_int(bench.get("nb_honest_clients"), "benchmark_config.nb_honest_clients", minimum=1)

    f_raw = bench.get("f", [0])
    if not isinstance(f_raw, list) or not f_raw:
        raise ValueError("benchmark_config.f must be a non-empty list of integers")
    f_values = [_as_int(v, "benchmark_config.f[]", minimum=0) for v in f_raw]

    dist_raw = bench.get("data_distribution", [{"name": "iid", "distribution_parameter": [0.0]}])
    if isinstance(dist_raw, dict):
        dist_raw = [dist_raw]
    if not isinstance(dist_raw, list) or not dist_raw:
        raise ValueError("benchmark_config.data_distribution must be a non-empty list")
    distributions: list[tuple[str, list[float]]] = []
    for i, entry in enumerate(dist_raw):
        entry = _as_obj(entry, f"benchmark_config.data_distribution[{i}]")
        name = entry.get("name")
        if name not in DISTRIBUTIONS:
            raise ValueError(
                f"benchmark_config.data_distribution[{i}].name must be one of {DISTRIBUTION_NAMES}, got {name!r}"
            )
        params = entry.get("distribution_parameter", None if DISTRIBUTIONS[name].takes_parameter else [0.0])
        if params is None:
            raise ValueError(f"benchmark_config.data_distribution[{i}].distribution_parameter is required for {name}")
        if not isinstance(params, list) or not params:
            raise ValueError(f"benchmark_config.data_distribution[{i}].distribution_parameter must be a non-empty list")
        distributions.append((name, [_as_float(p, "distribution_parameter[]") for p in params]))

    model_obj = _as_obj(raw["model"], "model")
    for required in ("name", "dataset_name", "learning_rate"):
        if required not in model_obj:
            raise ValueError(f"model.{required} is required")
    lr = _as_float(model_obj["learning_rate"], "model.learning_rate")
    if lr <= 0:
        raise ValueError(f"model.learning_rate must be positive, got {lr}")
    decay = _as_float(model_obj.get("learning_rate_decay", 1.0), "model.learning_rate_decay")
    if not 0 < decay <= 1:
        raise ValueError(f"model.learning_rate_decay must lie in (0, 1], got {decay}")
    loss_name = model_obj.get("loss", "NLLLoss")
    if loss_name != "NLLLoss":
        raise ValueError(f"model.loss: only 'NLLLoss' is supported, got {loss_name!r}")
    milestones = model_obj.get("milestones", [])
    if not isinstance(milestones, list):
        raise ValueError("model.milestones must be a list of integers")
    model = ModelConfig(
        name=str(model_obj["name"]),
        dataset_name=str(model_obj["dataset_name"]),
        learning_rate=lr,
        loss=loss_name,
        learning_rate_decay=decay,
        milestones=[_as_int(m, "model.milestones[]", minimum=0) for m in milestones],
        hidden=_as_int(model_obj.get("hidden", DEFAULT_HIDDEN_UNITS), "model.hidden", minimum=1),
        dataset_params=dict(_as_obj(model_obj.get("dataset_params", {}), "model.dataset_params")),
    )

    aggregators = _as_rule_list(raw["aggregator"], "aggregator")
    for rule in aggregators:
        AggregatorSpec(rule.name, 0, dict(rule.parameters))  # eager name/param validation
    pre_aggregators = _as_rule_list(raw["pre_aggregators"], "pre_aggregators") if raw.get("pre_aggregators") else []
    for rule in pre_aggregators:
        PreAggregatorSpec(rule.name, 0, dict(rule.parameters))
    attacks = _as_rule_list(raw["attack"], "attack")
    for rule in attacks:
        AttackSpec(rule.name, params=dict(rule.parameters))

    hc_obj = _as_obj(raw.get("honest_clients", {}), "honest_clients")
    honest = HonestClientsConfig(
        momentum=_as_float(hc_obj.get("momentum", 0.0), "honest_clients.momentum"),
        weight_decay=_as_float(hc_obj.get("weight_decay", 0.0), "honest_clients.weight_decay"),
        batch_size=_as_int(hc_obj.get("batch_size", 25), "honest_clients.batch_size", minimum=1),
    )
    if not 0.0 <= honest.momentum < 1.0:
        raise ValueError(f"honest_clients.momentum must lie in [0, 1), got {honest.momentum}")
    if honest.weight_decay < 0:
        raise ValueError(f"honest_clients.weight_decay must be nonnegative, got {honest.weight_decay}")

    eval_obj = _as_obj(raw["evaluation_and_results"], "evaluation_and_results")
    delta = _as_int(eval_obj.get("evaluation_delta"), "evaluation_and_results.evaluation_delta", minimum=1)
    if delta > nb_steps:
        raise ValueError(f"evaluation_delta ({delta}) cannot exceed nb_steps ({nb_steps})")
    results_dir = eval_obj.get("results_directory")
    if not isinstance(results_dir, str) or not results_dir:
        raise ValueError("evaluation_and_results.results_directory must be a non-empty string")
    store = eval_obj.get("store_per_client_metrics", False)
    if not isinstance(store, bool):
        raise ValueError("evaluation_and_results.store_per_client_metrics must be a boolean")
    evaluation = EvaluationConfig(delta, results_dir, store)

    return BenchmarkConfig(
        training_algorithm=algo,
        nb_steps=nb_steps,
        nb_honest_clients=nb_honest,
        model=model,
        aggregators=aggregators,
        attacks=attacks,
        evaluation=evaluation,
        nb_training_seeds=nb_seeds,
        f_values=f_values,
        data_distributions=distributions,
        pre_aggregators=pre_aggregators,
        honest_clients=honest,
    )


def parse_config_file(path) -> BenchmarkConfig:
    return parse_config(Path(path).read_text())


def _fedavg_params(algo: TrainingAlgorithmConfig) -> FedAvgParams:
    params = algo.parameters
    known = {"proportion_selected_clients", "local_steps_per_client"}
    unknown = set(params) - known
    if unknown:
        raise ValueError(f"training_algorithm.parameters: unknown key {sorted(unknown)[0]!r}")
    return FedAvgParams(
        proportion=float(params.get("proportion_selected_clients", 1.0)),
        local_steps=int(params.get("local_steps_per_client", 1)),
    )


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


def _rule_token(rule: RuleConfig) -> str:
    token = rule.name
    if rule.parameters:
        token += "".join(f"-{k}{_number_token(v)}" for k, v in sorted(rule.parameters.items()))
    return _sanitize(token)


@dataclass
class ExperimentKey:
    """One grid point: everything that distinguishes a run."""

    aggregator: RuleConfig
    pre_aggregators: list[RuleConfig]
    attack: RuleConfig
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
    def run_id(self) -> str:
        dist = f"{self.distribution_token}{_number_token(self.distribution_parameter)}"
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

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ExperimentKey":
        return cls(
            aggregator=RuleConfig(obj["aggregator"]["name"], dict(obj["aggregator"]["parameters"])),
            pre_aggregators=[RuleConfig(p["name"], dict(p["parameters"])) for p in obj["pre_aggregators"]],
            attack=RuleConfig(obj["attack"]["name"], dict(obj["attack"]["parameters"])),
            f=obj["f"],
            distribution_name=obj["data_distribution"]["name"],
            distribution_parameter=obj["data_distribution"]["parameter"],
            seed=obj["seed"],
        )


def expand_grid(cfg: BenchmarkConfig) -> list[ExperimentKey]:
    """Cartesian product: aggregators x attacks x f x (distribution,
    parameter) x seeds, in that nesting order."""
    keys = []
    for aggregator in cfg.aggregators:
        for attack in cfg.attacks:
            for f in cfg.f_values:
                for dist_name, params in cfg.data_distributions:
                    for parameter in params:
                        for seed in range(cfg.nb_training_seeds):
                            keys.append(
                                ExperimentKey(
                                    aggregator=aggregator,
                                    pre_aggregators=list(cfg.pre_aggregators),
                                    attack=attack,
                                    f=f,
                                    distribution_name=dist_name,
                                    distribution_parameter=parameter,
                                    seed=seed,
                                )
                            )
    ids = [k.run_id for k in keys]
    if len(set(ids)) != len(ids):
        duplicate = next(i for i in ids if ids.count(i) > 1)
        raise ValueError(f"grid produces duplicate run id {duplicate!r}; disambiguate rule parameters")
    return keys


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


def _split_total(total: int, parts: int) -> list[int]:
    base, rem = divmod(total, parts)
    return [base + 1 if i < rem else base for i in range(parts)]


def _blob_datasets(cfg: ModelConfig, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    params = {**_BLOB_DEFAULTS, **cfg.dataset_params}
    n_classes, dim = int(params["n_classes"]), int(params["dim"])
    rng = derive_rng(seed, "dataset")
    centers = rng.standard_normal((n_classes, dim))
    spread = float(params["spread"])
    train = make_blobs(n_classes, _split_total(int(params["train_size"]), n_classes), dim, spread, rng, centers)
    test = make_blobs(n_classes, _split_total(int(params["test_size"]), n_classes), dim, spread, rng, centers)
    return train, test


def _mnist_datasets() -> tuple[LabeledDataset, LabeledDataset]:
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


def _resolve_datasets(cfg: ModelConfig, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    if cfg.dataset_name == "blobs":
        return _blob_datasets(cfg, seed)
    if cfg.dataset_name == "mnist":
        return _mnist_datasets()
    raise ValueError(f"unknown dataset_name {cfg.dataset_name!r}; expected 'blobs' or 'mnist'")


def _resolve_arch(cfg: ModelConfig, in_dim: int, n_classes: int):
    if cfg.name == "linear":
        return LinearArch(in_dim, n_classes)
    if cfg.name == "mlp":
        return MlpArch(in_dim, cfg.hidden, n_classes)
    if cfg.name == "cnn_mnist":
        log.warning("model 'cnn_mnist' has no convolutional implementation here; substituting the MLP")
        return MlpArch(in_dim, cfg.hidden, n_classes)
    raise ValueError(f"unknown model {cfg.name!r}; expected 'linear' or 'mlp'")


def _build_run_pipeline(cfg: BenchmarkConfig, key: ExperimentKey, seed: int) -> Pipeline:
    agg_spec = AggregatorSpec(key.aggregator.name, f=key.f, params=dict(key.aggregator.parameters))
    pre_specs = [PreAggregatorSpec(p.name, f=key.f, params=dict(p.parameters)) for p in key.pre_aggregators]
    return build_pipeline(agg_spec, pre_specs, rng=derive_rng(seed, "bucketing"))


def _build_attack_spec(rule: RuleConfig) -> AttackSpec:
    return AttackSpec(rule.name, params=dict(rule.parameters))


def run_single(cfg: BenchmarkConfig, key: ExperimentKey) -> ExperimentResult:
    """Execute one grid point from scratch and return its evaluation series."""
    seed = key.seed
    train, test = _resolve_datasets(cfg.model, seed)
    partition = make_partition(
        train, key.distribution_name, key.distribution_parameter, cfg.nb_honest_clients, derive_rng(seed, "datadist")
    )
    arch = _resolve_arch(cfg.model, train.features.shape[1], train.n_classes)
    schedule = LrSchedule(cfg.model.learning_rate, cfg.model.learning_rate_decay, tuple(cfg.model.milestones))
    pipeline = _build_run_pipeline(cfg, key, seed)
    hc = cfg.honest_clients
    clients = [
        HonestClient(i, train, partition.assignments[i], hc.batch_size, hc.momentum, hc.weight_decay,
                     derive_rng(seed, f"client.{i}"))
        for i in range(cfg.nb_honest_clients)
    ]
    attack_spec = _build_attack_spec(key.attack)
    flip_clients = None
    if key.f > 0 and attack_spec.name == "LabelFlipping":
        flip_clients = [
            HonestClient(
                cfg.nb_honest_clients + j,
                train,
                partition.assignments[j % cfg.nb_honest_clients],
                hc.batch_size,
                hc.momentum,
                hc.weight_decay,
                derive_rng(seed, f"byz.{j}"),
                flip_labels=True,
            )
            for j in range(key.f)
        ]
    byz = ByzantineClientGroup(key.f, attack_spec, flip_clients)
    server = ServerState(arch, init_params(arch, derive_rng(seed, "init")), pipeline, schedule)
    fedavg = _fedavg_params(cfg.training_algorithm) if cfg.training_algorithm.name == "FedAvg" else None
    sampling_rng = derive_rng(seed, "sampling")

    union = np.concatenate(partition.assignments)
    steps: list[int] = []
    accuracy: list[float] = []
    losses: list[float] = []
    per_client: list[list[float]] | None = [] if cfg.evaluation.store_per_client_metrics else None

    def record(step: int) -> None:
        steps.append(step)
        accuracy.append(evaluate_accuracy(arch, server.flat, test))
        loss, _ = forward_loss(arch, server.flat, train.features[union], train.labels[union])
        losses.append(loss)
        if per_client is not None:
            per_client.append([c.partition_loss(arch, server.flat) for c in clients])

    record(0)
    for step in range(1, cfg.nb_steps + 1):
        if fedavg is None:
            dsgd_step(server, clients, byz)
        else:
            fedavg_round(server, clients, byz, fedavg, sampling_rng)
        if step % cfg.evaluation.evaluation_delta == 0 or step == cfg.nb_steps:
            record(step)

    return ExperimentResult(key, steps, accuracy, losses, per_client)


# --------------------------------------------------------------------------- #
# Persistence
# --------------------------------------------------------------------------- #


def _atomic_write(path: Path, content: str) -> None:
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(content)
    os.replace(tmp, path)


def write_result(base_dir, result: ExperimentResult) -> Path:
    """Persist one run: key sidecar first, metrics (the resume marker) last."""
    run_dir = Path(base_dir) / result.key.run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(run_dir / "key.json", json.dumps(result.key.to_json_dict(), indent=2) + "\n")
    header = ["step", "test_accuracy", "train_loss"]
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
    """Load one persisted run; raises ``FileNotFoundError`` when absent."""
    run_dir = Path(base_dir) / run_id
    metrics = run_dir / "metrics.csv"
    if not metrics.exists():
        raise FileNotFoundError(f"result absent: {metrics}")
    key = ExperimentKey.from_json_dict(json.loads((run_dir / "key.json").read_text()))
    lines = metrics.read_text().strip().splitlines()
    header = lines[0].split(",")
    n_client_cols = sum(1 for h in header if h.startswith("client"))
    steps, accuracy, losses = [], [], []
    per_client: list[list[float]] | None = [] if n_client_cols else None
    for line in lines[1:]:
        cells = line.split(",")
        steps.append(int(cells[0]))
        accuracy.append(float(cells[1]))
        losses.append(float(cells[2]))
        if per_client is not None:
            per_client.append([float(v) for v in cells[3 : 3 + n_client_cols]])
    return ExperimentResult(key, steps, accuracy, losses, per_client)


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


def _execute_key(cfg: BenchmarkConfig, key: ExperimentKey, base_dir: str) -> str | None:
    """Run one grid point and persist it; returns an error message or None."""
    try:
        write_result(base_dir, run_single(cfg, key))
        return None
    except Exception as exc:  # noqa: BLE001 - one bad run must not sink the grid
        return f"{type(exc).__name__}: {exc}"


def run_benchmark(cfg: BenchmarkConfig, parallelism: int = 1) -> dict:
    """Execute every grid point that is not already on disk.

    Returns ``{"completed": int, "skipped": int, "failed": int, "failures":
    [(run_id, message), ...]}``. Individual failures are recorded and the
    remaining runs proceed. A pool worker that dies (OOM kill, signal) breaks
    the pool: every run that had not finished by then is recorded as failed
    with the ``BrokenProcessPool`` message, and runs already on disk stay.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be >= 1, got {parallelism}")
    keys = expand_grid(cfg)
    base = Path(cfg.evaluation.results_directory)
    base.mkdir(parents=True, exist_ok=True)
    pending = [k for k in keys if not (base / k.run_id / "metrics.csv").exists()]
    skipped = len(keys) - len(pending)
    log.info("grid has %d runs: %d already on disk, %d to execute", len(keys), skipped, len(pending))

    failures: list[tuple[str, str]] = []
    completed = 0

    def record(key: ExperimentKey, error: str | None) -> None:
        nonlocal completed
        if error is None:
            completed += 1
            log.info("completed %s", key.run_id)
        else:
            failures.append((key.run_id, error))
            log.error("failed %s: %s", key.run_id, error)

    if parallelism == 1 or len(pending) <= 1:
        for key in pending:
            record(key, _execute_key(cfg, key, str(base)))
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            futures = {pool.submit(_execute_key, cfg, key, str(base)): key for key in pending}
            for future in as_completed(futures):
                try:
                    error = future.result()
                except BrokenProcessPool as exc:
                    error = f"{type(exc).__name__}: {exc}"
                record(futures[future], error)
    failures.sort()
    return {"completed": completed, "skipped": skipped, "failed": len(failures), "failures": failures}
