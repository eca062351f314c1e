"""Every row of every rule table agrees with its function, the config parser
and the command line; a new rule is one function and one row; the README's
config table agrees with the schema; and every entry point the benchmark's
tracer shims exists where it looks."""

import argparse
import ast
import importlib.util
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest
from config_fixtures import tiny_config_text

from robustfl.aggregators import AGGREGATOR_NAMES, AGGREGATORS, AggregatorSpec, Rule, make_aggregator
from robustfl.attacks import (
    ATTACKS,
    AttackContext,
    AttackSpec,
    a_little_is_enough,
    crafted,
    optimize_attack_scale,
)
from robustfl.benchmark import SCHEMA, expand_grid, parse_config, run_single
from robustfl.cli import build_parser, entrypoint, format_value
from robustfl.config import POSITIVE, REQUIRED, Bound, Key, ListOf, Obj, Param, at_least
from robustfl.datadist import DISTRIBUTIONS, LabeledDataset, make_partition
from robustfl.preaggregators import PRE_AGGREGATORS, ConfiguredPreAggregator, PreAggregatorSpec, build_pipeline

TABLES = {"aggregator": AGGREGATORS, "pre_aggregators": PRE_AGGREGATORS, "attack": ATTACKS}
ROWS = [(section, name, rule) for section, table in TABLES.items() for name, rule in table.items()]
ROW_IDS = [name for _, name, _ in ROWS]
KEYWORD_KINDS = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
# Closed-form attacks are the ones computed from the honest rows alone.
CLOSED_FORM = tuple(
    name for name, rule in ATTACKS.items() if rule.fn is not None and "honest" in inspect.signature(rule.fn).parameters
)
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def cli_choices(command: str, option: str) -> tuple:
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in subparsers.choices[command]._actions if option in a.option_strings)
    return tuple(action.choices)


@pytest.mark.parametrize("section, name, rule", ROWS, ids=ROW_IDS)
def test_row_parameters_are_keywords_of_its_function(section, name, rule):
    if rule.fn is None:
        assert name == "LabelFlipping" and not rule.params and not rule.carried
        return
    signature = inspect.signature(rule.fn).parameters
    for key, param in rule.params.items():
        assert param.kind in (float, int) and (param.bound is None or isinstance(param.bound, Bound))
        assert key in signature and signature[key].kind in KEYWORD_KINDS, key
    for key in rule.carried:
        assert key in signature and signature[key].kind in KEYWORD_KINDS, key
    if section != "attack":
        assert rule.needs_f == ("f" in signature)


@pytest.mark.parametrize("section, name, rule", ROWS, ids=ROW_IDS)
def test_row_name_parses(section, name, rule):
    entry = {"name": name, "parameters": {key: 1 for key in rule.params}}
    cfg = parse_config(tiny_config_text("/tmp/x", **{section: [entry]}))
    rules = {"aggregator": cfg.aggregators, "pre_aggregators": cfg.pre_aggregators, "attack": cfg.attacks}[section]
    assert [r.name for r in rules] == [name]


@pytest.mark.parametrize("section, name, rule", [row for row in ROWS if row[0] != "attack"],
                         ids=[name for section, name, _ in ROWS if section != "attack"])
def test_stage_leaves_its_input_untouched(section, name, rule):
    # The simulator hands the pipeline its live momentum rows, and a search its
    # reused candidate buffer: no stage may write to its input.
    rng = np.random.default_rng(7)
    xs = rng.normal(size=(7, 5))
    xs[3] = xs[1]
    xs[:, 2] = -0.0
    before = xs.tobytes()
    xs.flags.writeable = False
    parameters = {key: 1 for key in rule.params}
    if section == "aggregator":
        stage = make_aggregator(AggregatorSpec(name, parameters, f=2))
    else:
        stage = ConfiguredPreAggregator(PreAggregatorSpec(name, parameters, f=2), np.random.default_rng(1))
    for _ in range(2):
        stage(xs)
    assert xs.tobytes() == before


def running_mean(xs, f: int, weight: float, floor: float = 1.0, history=None):
    """A new aggregator: the mean of every weighted call so far, plus floor."""
    history.append(weight * np.asarray(xs).mean(axis=0))
    return np.mean(history, axis=0) + floor


def noisy_copies(xs, copies: int, scale: float = 1.0, rng=None):
    """A new pre-aggregator: ``copies`` stacked copies of the rows plus noise."""
    xs = np.tile(xs, (copies, 1))
    return xs + scale * rng.standard_normal(xs.shape)


NEW_ROWS = {
    "aggregator": (AGGREGATORS, "RunningMean", Rule(
        running_mean, {"weight": Param(float), "floor": Param(float, POSITIVE)}, needs_f=True,
        carried={"history": lambda rng: []},
    )),
    "pre_aggregators": (PRE_AGGREGATORS, "NoisyCopies", Rule(
        noisy_copies, {"copies": Param(int, at_least(1)), "scale": Param(float, POSITIVE)},
        carried={"rng": lambda rng: rng},
    )),
}


@pytest.fixture
def new_rows(monkeypatch):
    for table, name, rule in NEW_ROWS.values():
        monkeypatch.setitem(table, name, rule)


@pytest.mark.parametrize(
    "section, parameters, message",
    [
        ("aggregator", {}, "RunningMean requires parameter weight"),
        ("aggregator", {"weight": 2, "floor": -0.5}, "RunningMean parameter floor must be positive, got -0.5"),
        ("pre_aggregators", {}, "NoisyCopies requires parameter copies"),
        ("pre_aggregators", {"copies": 0}, "NoisyCopies parameter copies must be >= 1, got 0"),
        ("pre_aggregators", {"copies": 1, "scale": 0}, "NoisyCopies parameter scale must be positive, got 0.0"),
    ],
    ids=["missing-weight", "floor-negative", "missing-copies", "copies-0", "scale-0"],
)
def test_new_row_bounds_and_required_parameters_checked_at_parse_time(new_rows, section, parameters, message):
    name = NEW_ROWS[section][1]
    with pytest.raises(ValueError, match=message):
        parse_config(tiny_config_text("/tmp/x", **{section: [{"name": name, "parameters": parameters}]}))


def test_new_rows_run_and_keep_their_state_across_calls(new_rows, tmp_path):
    cfg = parse_config(tiny_config_text(
        tmp_path,
        aggregator=[{"name": "RunningMean", "parameters": {"weight": 2}}],
        pre_aggregators=[{"name": "NoisyCopies", "parameters": {"copies": 2, "scale": 0.5}}],
    ))
    key = expand_grid(cfg)[0]
    assert key.server_token == "RunningMean-weight2_NoisyCopies"
    assert run_single(cfg, key).steps == [0, 2, 4]

    xs = np.arange(6.0).reshape(3, 2)
    pre = PreAggregatorSpec("NoisyCopies", parameters={"copies": 2})
    pipeline = build_pipeline(AggregatorSpec("RunningMean", parameters={"weight": 2}), [pre], np.random.default_rng(5))
    stream, history = np.random.default_rng(5), []
    for _ in range(3):
        rows = np.tile(xs, (2, 1)) + stream.standard_normal((6, 2))
        history.append(2.0 * rows.mean(axis=0))
        np.testing.assert_array_equal(pipeline(xs), np.mean(history, axis=0) + 1.0)
    assert len(pipeline.aggregator.carried["history"]) == 3
    with pytest.raises(ValueError, match="NoisyCopies requires a seeded numpy Generator"):
        build_pipeline(AggregatorSpec("RunningMean", parameters={"weight": 2}), [pre])


def test_every_trace_target_resolves_in_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.trace_targets()
    for owner, attr, _, _ in targets:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"
    tracer = tracing.Tracer()
    pipeline = build_pipeline(AggregatorSpec("TrMean", f=1), [PreAggregatorSpec("NNM", f=1)])
    honest = np.arange(12.0).reshape(4, 3) ** 0.5
    with tracer.installed(targets):
        optimize_attack_scale(AttackContext(honest, 1, pipeline), a_little_is_enough, (0.0, 1.0))
    assert {"attacks.clone", "preaggregators.Pipeline", "preaggregators.NNM", "aggregators.TrMean",
            "numerics.pairwise_sq_dists"} <= set(tracer.labels)


@pytest.mark.parametrize("name", list(DISTRIBUTIONS))
def test_distribution_row_parses_and_splits(name):
    dist = [{"name": name, "distribution_parameter": [0.5]}]
    cfg = parse_config(tiny_config_text("/tmp/x", **{"benchmark_config.data_distribution": dist}))
    assert cfg.data_distributions == [(name, [0.5])]
    dataset = LabeledDataset(np.arange(24.0).reshape(12, 2), np.arange(12) % 3, 3)
    partition = make_partition(dataset, name, 0.5, 4, np.random.default_rng(0))
    assert partition.n_clients == 4


def test_agg_rule_choices_are_the_aggregator_table():
    assert cli_choices("agg", "--rule") == AGGREGATOR_NAMES


def test_attack_name_choices_are_the_closed_form_rows():
    assert CLOSED_FORM == ("SignFlipping", "InnerProductManipulation", "ALittleIsEnough")
    assert cli_choices("attack", "--name") == CLOSED_FORM


@pytest.mark.parametrize(
    "name, tau", [(name, None) for name in CLOSED_FORM] + [("InnerProductManipulation", 2.0), ("ALittleIsEnough", 2.0)]
)
def test_cli_attack_prints_attack_vector(capsys, tmp_path, name, tau):
    path = tmp_path / "honest.csv"
    path.write_text("1,2,3\n4,5,7\n0.5,8,9\n")
    honest = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 7.0], [0.5, 8.0, 9.0]])
    argv = ["attack", "--name", name, "--input", str(path)] + ([] if tau is None else ["--tau", str(tau)])
    assert entrypoint(argv) == 0
    params = {} if tau is None else {"tau": tau}
    expected = crafted(AttackSpec(name, parameters=params), AttackContext(honest, 0, None))
    assert capsys.readouterr().out.strip() == ",".join(format_value(v) for v in expected)


def test_cli_attack_rejects_tau_the_attack_does_not_take(capsys, tmp_path):
    path = tmp_path / "honest.csv"
    path.write_text("1,2\n3,4\n")
    assert entrypoint(["attack", "--name", "SignFlipping", "--tau", "2", "--input", str(path)]) == 1
    assert "SignFlipping does not accept parameters ['tau']" in capsys.readouterr().err


def schema_keys(reader, where: str = ""):
    """(dotted path, ``Key``) for every key below ``reader``, list entries as
    ``[]``; a variant's tag key reads nothing here."""
    if isinstance(reader, ListOf):
        yield from schema_keys(reader.item, f"{where}[]")
    elif isinstance(reader, Obj):
        keys = list(reader.keys.items())
        if reader.variants:
            tag, table = reader.variants
            keys += [(tag, Key(None))] + [item for extra in table.values() for item in extra.items()]
        for key, spec in keys:
            path = f"{where}.{key}" if where else key
            yield path, spec
            yield from schema_keys(spec.read, path)


def schema_defaults(reader) -> dict[str, set]:
    """Dotted path -> the JSON text of each default the schema gives that
    key, or "required"."""
    found: dict[str, set] = {}
    for path, key in schema_keys(reader):
        found.setdefault(path, set()).add("required" if key.default is REQUIRED else json.dumps(key.default))
    return found


def readme_config_table(column: int = 2) -> dict[str, str]:
    """The README's config key table: key -> its cell in ``column`` (1 type, 2 default, 3 bound)."""
    section = README.read_text().split("## Benchmark configs", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip().strip("|").split("|") for line in section.splitlines() if line.startswith("| `")]
    return {cells[0].strip().strip("`"): cells[column].strip() for cells in rows}


def test_readme_config_table_lists_exactly_the_schema_keys_and_defaults():
    schema, table = schema_defaults(SCHEMA), readme_config_table()
    assert sorted(table) == sorted(schema)
    for key, defaults in schema.items():
        if len(defaults) == 1:
            assert table[key].strip("`") == next(iter(defaults)), key


KIND_NOUNS = {int: "integer", float: "number", bool: "boolean", str: "string", dict: "object"}


def test_readme_type_cells_name_the_kind_each_param_reads():
    types = readme_config_table(column=1)
    checked = 0
    for path, key in schema_keys(SCHEMA):
        param, plural = (key.read.item, "s") if isinstance(key.read, ListOf) else (key.read, "")
        if isinstance(param, Param):
            named = {noun for noun in KIND_NOUNS.values() if re.search(rf"\b{noun}{plural}\b", types[path])}
            assert named == {KIND_NOUNS[param.kind]}, (path, types[path])
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize("section, attribute", [
    ("model", "model"), ("honest_clients", "honest_clients"), ("evaluation_and_results", "evaluation"),
])
def test_new_key_is_one_key_in_its_section_and_parses_into_its_record(section, attribute):
    # A copy of the schema whose section gains one Key, and nothing else.
    key = SCHEMA.keys[section]
    toy = Obj.record("Toy", __name__, {**key.read.keys, "toy_key": Key(Param(int, at_least(0)), 7)}, key.read.variants)
    schema = SCHEMA._replace(keys={**SCHEMA.keys, section: key._replace(read=toy)})

    def read(**tweaks):
        return getattr(schema(json.loads(tiny_config_text("/tmp/x", **tweaks)), ""), attribute)

    assert read().toy_key == 7
    written = read(**{f"{section}.toy_key": 3.0})
    assert written.toy_key == 3 and type(written.toy_key) is int
    with pytest.raises(ValueError, match=re.escape(f"{section}.toy_key must be >= 0, got -1")):
        read(**{f"{section}.toy_key": -1})
    assert not hasattr(getattr(parse_config(tiny_config_text("/tmp/x")), attribute), "toy_key")


def test_config_module_imports_nothing_else_from_the_package():
    tree = ast.parse((ROOT / "src" / "robustfl" / "config.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = [node.module for node in imports if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in imports if isinstance(node, ast.Import) for alias in node.names]
    assert not any(getattr(node, "level", 0) for node in imports)
    assert not any(module.startswith("robustfl") for module in modules), modules
