"""Every row of every rule table agrees with its function, the config parser
and the command line, and the README's config table agrees with the schema."""

import argparse
import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from config_fixtures import tiny_config_text

from robustfl.aggregators import AGGREGATOR_NAMES, AGGREGATORS
from robustfl.attacks import ATTACKS, AttackContext, AttackSpec, attack_vector
from robustfl.benchmark import REQUIRED, SCHEMA, Key, ListOf, Obj, parse_config
from robustfl.cli import build_parser, entrypoint, format_value
from robustfl.datadist import DISTRIBUTIONS, LabeledDataset, make_partition
from robustfl.preaggregators import PRE_AGGREGATORS

TABLES = {"aggregator": AGGREGATORS, "pre_aggregators": PRE_AGGREGATORS, "attack": ATTACKS}
ROWS = [(section, name, rule) for section, table in TABLES.items() for name, rule in table.items()]
ROW_IDS = [name for _, name, _ in ROWS]
KEYWORD_KINDS = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
# Closed-form attacks are the ones computed from the honest rows alone.
CLOSED_FORM = tuple(
    name for name, rule in ATTACKS.items() if rule.fn is not None and "honest" in inspect.signature(rule.fn).parameters
)
README = Path(__file__).resolve().parent.parent / "README.md"


def cli_choices(command: str, option: str) -> tuple:
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in subparsers.choices[command]._actions if option in a.option_strings)
    return tuple(action.choices)


@pytest.mark.parametrize("section, name, rule", ROWS, ids=ROW_IDS)
def test_row_parameters_are_keywords_of_its_function(section, name, rule):
    if rule.fn is None:
        assert name == "LabelFlipping" and not rule.params
        return
    signature = inspect.signature(rule.fn).parameters
    for key, kind in rule.params.items():
        assert kind in (float, int)
        assert key in signature and signature[key].kind in KEYWORD_KINDS, key
    if section != "attack":
        assert rule.needs_f == ("f" in signature)


@pytest.mark.parametrize("section, name, rule", ROWS, ids=ROW_IDS)
def test_row_name_parses(section, name, rule):
    entry = {"name": name, "parameters": {key: 1 for key in rule.params}}
    cfg = parse_config(tiny_config_text("/tmp/x", **{section: [entry]}))
    rules = {"aggregator": cfg.aggregators, "pre_aggregators": cfg.pre_aggregators, "attack": cfg.attacks}[section]
    assert [r.name for r in rules] == [name]


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
    expected = attack_vector(AttackSpec(name, scale=tau), AttackContext(honest, 0, None))
    assert capsys.readouterr().out.strip() == ",".join(format_value(v) for v in expected)


def test_cli_attack_rejects_tau_the_attack_does_not_take(capsys, tmp_path):
    path = tmp_path / "honest.csv"
    path.write_text("1,2\n3,4\n")
    assert entrypoint(["attack", "--name", "SignFlipping", "--tau", "2", "--input", str(path)]) == 1
    assert "SignFlipping does not accept parameters ['tau']" in capsys.readouterr().err


def schema_defaults(reader, where: str = "") -> dict[str, set]:
    """Dotted path (list entries as ``[]``) -> the JSON text of each default
    the schema gives that key, or "required"."""
    if isinstance(reader, ListOf):
        return schema_defaults(reader.item, f"{where}[]")
    if not isinstance(reader, Obj):
        return {}
    keys = list(reader.keys.items())
    if reader.variants:
        tag, table = reader.variants
        keys += [(tag, Key(None))] + [item for extra in table.values() for item in extra.items()]
    found: dict[str, set] = {}
    for key, spec in keys:
        path = f"{where}.{key}" if where else key
        found.setdefault(path, set()).add("required" if spec.default is REQUIRED else json.dumps(spec.default))
        for sub, defaults in schema_defaults(spec.read, path).items():
            found.setdefault(sub, set()).update(defaults)
    return found


def readme_config_table() -> dict[str, str]:
    """The README's config key table: key -> its default cell."""
    section = README.read_text().split("## Benchmark configs", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip().strip("|").split("|") for line in section.splitlines() if line.startswith("| `")]
    return {cells[0].strip().strip("`"): cells[2].strip() for cells in rows}


def test_readme_config_table_lists_exactly_the_schema_keys_and_defaults():
    schema, table = schema_defaults(SCHEMA), readme_config_table()
    assert sorted(table) == sorted(schema)
    for key, defaults in schema.items():
        if len(defaults) == 1:
            assert table[key].strip("`") == next(iter(defaults)), key
