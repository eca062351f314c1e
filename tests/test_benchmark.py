import dataclasses
import functools
import json
import math
import multiprocessing
import os
import pickle
import re
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from config_fixtures import NON_FINITE_CASES, SAMPLE_CONFIG, tiny_config_text
from hypothesis import given
from hypothesis import strategies as st

from robustfl import benchmark
from robustfl.aggregators import AggregatorSpec
from robustfl.attacks import AttackSpec
from robustfl.benchmark import (
    KEY_JSON,
    ExperimentKey,
    expand_grid,
    list_results,
    parse_config,
    read_result,
    run_benchmark,
    run_cohort,
    run_single,
    strip_json_comments,
    write_result,
)
from robustfl.datadist import make_partition
from robustfl.models import LrSchedule, evaluate_accuracy, forward_loss, init_params
from robustfl.preaggregators import PreAggregatorSpec, build_pipeline
from robustfl.seeding import derive_rng
from robustfl.simulator import (
    ByzantineClientGroup,
    HonestClient,
    ServerState,
    dsgd_step,
    fedavg_round,
    sampled_count,
)

FEDAVG_PATH = "benchmark_config.training_algorithm.parameters"
DISTRIBUTION_PATH = "benchmark_config.data_distribution[0]"


def fedavg(**parameters) -> dict:
    return {"benchmark_config.training_algorithm": {"name": "FedAvg", "parameters": parameters}}


def distribution(name: str, *parameters) -> dict:
    return {"benchmark_config.data_distribution": [{"name": name, "distribution_parameter": list(parameters)}]}


class TestStripJsonComments:
    def test_removes_comment_lines(self):
        text = '{\n// gone\n"a": 1 // also gone\n}'
        assert json.loads(strip_json_comments(text)) == {"a": 1}

    def test_preserves_slashes_inside_strings(self):
        text = '{"url": "http://host//x" // note\n}'
        assert json.loads(strip_json_comments(text)) == {"url": "http://host//x"}

    def test_escaped_quote_does_not_end_the_string(self):
        text = '{"a": "x\\"y//z"}'
        assert json.loads(strip_json_comments(text)) == {"a": 'x"y//z'}


class TestParseConfig:
    def test_sample_config_fields(self):
        cfg = parse_config(SAMPLE_CONFIG)
        assert cfg.training_algorithm.name == "FedAvg"
        assert cfg.training_algorithm.parameters == {
            "proportion_selected_clients": 0.6,
            "local_steps_per_client": 5,
        }
        assert cfg.nb_steps == 800
        assert cfg.nb_training_seeds == 3
        assert cfg.nb_honest_clients == 10
        assert cfg.f_values == [1, 2, 3, 4]
        assert cfg.data_distributions == [("gamma_similarity_niid", [1.0, 0.66, 0.33])]
        assert cfg.model.name == "mlp"
        assert cfg.model.dataset_name == "mnist"
        assert cfg.model.loss == "NLLLoss"
        assert cfg.model.learning_rate == 0.1
        assert cfg.model.learning_rate_decay == 0.5
        assert cfg.model.milestones == [200, 400]
        assert [a.name for a in cfg.aggregators] == ["Median", "TrMean"]
        assert [(p.name, p.parameters) for p in cfg.pre_aggregators] == [("Clipping", {"c": 2.0})]
        assert cfg.honest_clients.momentum == 0.9
        assert cfg.honest_clients.weight_decay == 0.0001
        assert cfg.honest_clients.batch_size == 25
        assert [a.name for a in cfg.attacks] == ["SignFlipping", "ALittleIsEnough"]
        assert cfg.evaluation.evaluation_delta == 50
        assert cfg.evaluation.store_per_client_metrics is True
        assert cfg.evaluation.results_directory == "./results"

    def test_parsed_config_round_trips_through_pickle(self):
        # The grid pool pickles the config into each worker.
        for text in (SAMPLE_CONFIG, tiny_config_text("/tmp/x", **fedavg(local_steps_per_client=2))):
            cfg = parse_config(text)
            assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_sections_are_frozen_records_that_replace_builds_anew(self):
        cfg = parse_config(tiny_config_text("/tmp/x"))
        moved = dataclasses.replace(cfg, evaluation=dataclasses.replace(cfg.evaluation, results_directory="/tmp/y"))
        assert moved.evaluation.results_directory == "/tmp/y" and cfg.evaluation.results_directory == "/tmp/x"
        assert moved.evaluation.evaluation_delta == cfg.evaluation.evaluation_delta and moved.model == cfg.model
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.honest_clients.batch_size = 1

    def test_empty_text(self):
        with pytest.raises(ValueError, match="missing benchmark_config"):
            parse_config("")

    def test_missing_sections_named(self):
        whole = json.loads(strip_json_comments(SAMPLE_CONFIG))
        for section in ("benchmark_config", "model", "aggregator", "attack", "evaluation_and_results"):
            partial = {k: v for k, v in whole.items() if k != section}
            with pytest.raises(ValueError, match=f"missing {section}"):
                parse_config(json.dumps(partial))

    def test_invalid_json(self):
        with pytest.raises(ValueError, match="config is not valid JSON"):
            parse_config("{nope")

    def test_non_object_root(self):
        with pytest.raises(ValueError, match="config must be an object"):
            parse_config("[1, 2]")

    def test_unknown_top_level_key(self):
        text = tiny_config_text("/tmp/x")
        raw = json.loads(text)
        raw["extra_section"] = {}
        with pytest.raises(ValueError, match="unknown top-level key: 'extra_section'"):
            parse_config(json.dumps(raw))

    def test_defaults(self):
        raw = json.loads(tiny_config_text("/tmp/x"))
        bench = raw["benchmark_config"]
        del bench["f"], bench["data_distribution"], bench["nb_training_seeds"]
        del raw["honest_clients"]
        cfg = parse_config(json.dumps(raw))
        assert cfg.f_values == [0]
        assert cfg.data_distributions == [("iid", [0.0])]
        assert cfg.nb_training_seeds == 1
        assert cfg.pre_aggregators == []
        assert cfg.honest_clients.momentum == 0.0
        assert cfg.honest_clients.weight_decay == 0.0
        assert cfg.honest_clients.batch_size == 25

    def test_iid_parameter_defaults_but_others_require_one(self):
        cfg = parse_config(tiny_config_text("/tmp/x", **{"benchmark_config.data_distribution": [{"name": "iid"}]}))
        assert cfg.data_distributions == [("iid", [0.0])]
        with pytest.raises(ValueError, match=re.escape(f"missing {DISTRIBUTION_PATH}.distribution_parameter")):
            parse_config(
                tiny_config_text("/tmp/x", **{"benchmark_config.data_distribution": [{"name": "dirichlet_niid"}]})
            )

    def test_bad_training_algorithm(self):
        with pytest.raises(ValueError, match="must be 'DSGD' or 'FedAvg'"):
            parse_config(tiny_config_text("/tmp/x", **{"benchmark_config.training_algorithm": {"name": "SCAFFOLD"}}))

    def test_fedavg_parameters_checked_eagerly(self):
        algo = {"name": "FedAvg", "parameters": {"proportion_selected_clients": 0.0}}
        with pytest.raises(ValueError, match=r"parameters\.proportion_selected_clients must lie in \(0, 1\], got 0\.0"):
            parse_config(tiny_config_text("/tmp/x", **{"benchmark_config.training_algorithm": algo}))
        algo = {"name": "FedAvg", "parameters": {"local_steps": 5}}
        with pytest.raises(ValueError, match=re.escape(f"unknown key '{FEDAVG_PATH}.local_steps'")):
            parse_config(tiny_config_text("/tmp/x", **{"benchmark_config.training_algorithm": algo}))

    def test_rule_names_checked_eagerly(self):
        with pytest.raises(ValueError, match="unknown aggregator 'Krumm'"):
            parse_config(tiny_config_text("/tmp/x", aggregator=[{"name": "Krumm"}]))
        with pytest.raises(ValueError, match="unknown attack 'Backdoor'"):
            parse_config(tiny_config_text("/tmp/x", attack=[{"name": "Backdoor"}]))
        with pytest.raises(ValueError, match="unknown pre-aggregator 'Smoothing'"):
            parse_config(tiny_config_text("/tmp/x", pre_aggregators=[{"name": "Smoothing"}]))

    @pytest.mark.parametrize(
        "attack",
        [
            {"name": "ALittleIsEnough", "parameters": {"tua": 3}},
            {"name": "SignFlipping", "parameters": {"tau": 2}},
            {"name": "Optimal_ALittleIsEnough", "parameters": {"tau": 2}},
            {"name": "Optimal_InnerProductManipulation", "parameters": {"tau": 2}},
        ],
        ids=["misspelt-key", "tau-on-SignFlipping", "tau-on-Optimal_ALIE", "tau-on-Optimal_IPM"],
    )
    def test_attack_parameters_checked_against_the_attack_table(self, attack):
        key = next(iter(attack["parameters"]))
        with pytest.raises(ValueError, match=rf"{attack['name']} does not accept parameters \['{key}'\]"):
            parse_config(tiny_config_text("/tmp/x", attack=[attack]))

    def test_attack_tau_accepted_where_the_attack_takes_it(self):
        cfg = parse_config(tiny_config_text("/tmp/x", attack=[{"name": "ALittleIsEnough", "parameters": {"tau": 3}}]))
        assert expand_grid(cfg)[0].attack_token == "ALittleIsEnough-tau3"

    @pytest.mark.parametrize(
        "section, rule, message",
        [
            ("aggregator", {"name": "MoNNA", "parameters": {"pivot": 1.5}}, "MoNNA parameter pivot must be an integer"),
            ("aggregator", {"name": "CenteredClipping", "parameters": {"iters": 2.5}}, "iters must be an integer"),
            ("pre_aggregators", {"name": "Bucketing", "parameters": {"s": 2.5}}, "Bucketing parameter s must be an"),
            ("aggregator", {"name": "CenteredClipping", "parameters": {"tau": "big"}}, "tau must be a number"),
            ("aggregator", {"name": "CenteredClipping", "parameters": {"tau": 0}},
             "CenteredClipping parameter tau must be positive, got 0.0"),
            ("aggregator", {"name": "CenteredClipping", "parameters": {"tau": -1.5}},
             "CenteredClipping parameter tau must be positive, got -1.5"),
            ("aggregator", {"name": "CenteredClipping", "parameters": {"iters": 0}},
             "CenteredClipping parameter iters must be >= 1, got 0"),
            ("aggregator", {"name": "MoNNA", "parameters": {"pivot": -1}},
             "MoNNA parameter pivot must be >= 0, got -1"),
        ],
        ids=["pivot-1.5", "iters-2.5", "s-2.5", "tau-string", "tau-0", "tau-negative", "iters-0", "pivot-negative"],
    )
    def test_rule_parameter_values_checked_eagerly(self, section, rule, message):
        with pytest.raises(ValueError, match=message):
            parse_config(tiny_config_text("/tmp/x", **{section: [rule]}))

    def test_integral_floats_pass_as_integers(self):
        monna = {"name": "MoNNA", "parameters": {"pivot": 2.0}}
        bucketing = {"name": "Bucketing", "parameters": {"s": 3.0}}
        cfg = parse_config(tiny_config_text("/tmp/x", aggregator=[monna], pre_aggregators=[bucketing]))
        assert expand_grid(cfg)[0].server_token == "MoNNA-pivot2_Bucketing"
        assert AggregatorSpec("MoNNA", parameters={"pivot": 2.0}).parameters == {"pivot": 2}
        assert type(PreAggregatorSpec("Bucketing", parameters={"s": 3.0}).parameters["s"]) is int
        # The parsed config holds the specs themselves, parameters cast.
        assert cfg.aggregators == [AggregatorSpec("MoNNA", {"pivot": 2})]
        assert type(cfg.aggregators[0].parameters["pivot"]) is int
        ipm = {"name": "InnerProductManipulation", "parameters": {"tau": 1}}
        cfg = parse_config(tiny_config_text("/tmp/x", pre_aggregators=[{"name": "Clipping", "parameters": {"c": 2}}],
                                            attack=[ipm]))
        assert cfg.pre_aggregators == [PreAggregatorSpec("Clipping", {"c": 2.0})]
        assert cfg.attacks == [AttackSpec("InnerProductManipulation", {"tau": 1.0})]
        assert type(cfg.pre_aggregators[0].parameters["c"]) is float and type(cfg.attacks[0].parameters["tau"]) is float

    def test_range_validation(self):
        cases = {
            "benchmark_config.nb_steps": (0, "nb_steps must be >= 1"),
            "benchmark_config.nb_honest_clients": (0, "nb_honest_clients must be >= 1"),
            "benchmark_config.f": ([-1], r"f\[0\] must be >= 0"),
            "model.learning_rate": (0.0, "learning_rate must be positive"),
            "model.learning_rate_decay": (1.5, r"learning_rate_decay must lie in \(0, 1\]"),
            "model.loss": ("MSE", "model.loss must be 'NLLLoss', got 'MSE'"),
            "honest_clients.momentum": (1.0, r"momentum must lie in \[0, 1\)"),
            "honest_clients.weight_decay": (-0.1, "weight_decay must be nonnegative"),
            "honest_clients.batch_size": (0, "batch_size must be >= 1"),
            "evaluation_and_results.evaluation_delta": (0, "evaluation_delta must be >= 1"),
            "evaluation_and_results.store_per_client_metrics": (1, "must be a boolean"),
            "evaluation_and_results.results_directory": ("", "non-empty string"),
        }
        for dotted, (value, message) in cases.items():
            with pytest.raises(ValueError, match=message):
                parse_config(tiny_config_text("/tmp/x", **{dotted: value}))

    def test_delta_cannot_exceed_steps(self):
        with pytest.raises(ValueError, match=r"evaluation_delta \(9\) cannot exceed nb_steps \(4\)"):
            parse_config(tiny_config_text("/tmp/x", **{"evaluation_and_results.evaluation_delta": 9}))

    @pytest.mark.parametrize(
        "tweaks, message",
        [
            ({"model.dataset_params.train_size": 2},
             r"model\.dataset_params\.train_size \(2\) cannot be below model\.dataset_params\.n_classes \(3\)"),
            ({"model.dataset_params.test_size": 2},
             r"model\.dataset_params\.test_size \(2\) cannot be below model\.dataset_params\.n_classes \(3\)"),
            ({"model.dataset_params.n_classes": 61},
             r"model\.dataset_params\.train_size \(60\) cannot be below model\.dataset_params\.n_classes \(61\)"),
            ({"benchmark_config.nb_honest_clients": 5, "model.dataset_params.train_size": 4},
             r"model\.dataset_params\.train_size \(4\) cannot be below benchmark_config\.nb_honest_clients \(5\)"),
        ],
        ids=["train-below-classes", "test-below-classes", "classes-above-train", "train-below-clients"],
    )
    def test_blob_sizes_bounded_by_other_keys(self, tweaks, message):
        with pytest.raises(ValueError, match=message):
            parse_config(tiny_config_text("/tmp/x", **tweaks))

    def test_blob_sizes_at_their_floors_parse(self):
        floors = {"model.dataset_params.n_classes": 3, "model.dataset_params.train_size": 3,
                  "model.dataset_params.test_size": 3, "benchmark_config.nb_honest_clients": 3}
        assert parse_config(tiny_config_text("/tmp/x", **floors)).model.dataset_params["train_size"] == 3

    def test_mnist_has_no_blob_bounds(self):
        cfg = parse_config(tiny_config_text("/tmp/x", **{"model.dataset_name": "mnist", "model.dataset_params": {},
                                                         "benchmark_config.nb_honest_clients": 100}))
        assert cfg.model.dataset_params == {}


def rule_site(name: str, key: str) -> tuple:
    """A rule parameter as a read site: tweaks writing v there, and the value read back."""
    return (lambda v: {"aggregator": [{"name": name, "parameters": {key: v}}]},
            lambda cfg: cfg.aggregators[0].parameters[key])


# Four places a user writes a number, two config keys and two rule
# parameters: site -> (kind, the name its messages start with, tweaks writing
# v there, the value read back from the parsed config).
READ_SITES = {
    "nb_steps": (int, "benchmark_config.nb_steps", lambda v: {"benchmark_config.nb_steps": v}, lambda c: c.nb_steps),
    "learning_rate": (float, "model.learning_rate", lambda v: {"model.learning_rate": v},
                      lambda c: c.model.learning_rate),
    "pivot": (int, "MoNNA parameter pivot", *rule_site("MoNNA", "pivot")),
    "tau": (float, "CenteredClipping parameter tau", *rule_site("CenteredClipping", "tau")),
}
# One table for every site: a written value -> what an int site and a float
# site make of it, the value read or the rest of the "<where> must ..." error.
READ_OUTCOMES = {
    "true": (True, "be an integer, got True", "be a number, got True"),
    "string": ("1", "be an integer, got '1'", "be a number, got '1'"),
    "2.5": (2.5, "be an integer, got 2.5", 2.5),
    "2.0": (2.0, 2, 2.0),
    "nan": (math.nan, "be an integer, got nan", "be positive, got nan"),
    "inf": (math.inf, "be an integer, got inf", "be finite, got inf"),
    "minus-inf": (-math.inf, "be an integer, got -inf", "be positive, got -inf"),
    "401-digits": (10**400, 10**400, f"be finite, got {10**400}"),
}


class TestOneReader:
    """Config keys and rule parameters are read by one ``Param``, so the same
    written value meets the same outcome at every site of its kind."""

    @pytest.mark.parametrize("site", READ_SITES)
    @pytest.mark.parametrize("value, as_int, as_float", READ_OUTCOMES.values(), ids=READ_OUTCOMES)
    def test_same_value_same_outcome_at_every_site(self, site, value, as_int, as_float):
        kind, where, tweaks, read_back = READ_SITES[site]
        expected = as_int if kind is int else as_float
        text = tiny_config_text("/tmp/x", **tweaks(value))
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=re.escape(f"{where} must {expected}")):
                parse_config(text)
        else:
            read = read_back(parse_config(text))
            assert read == expected and type(read) is kind

    @pytest.mark.parametrize("name, key", [("MoNNA", "pivot"), ("CenteredClipping", "iters")])
    def test_401_digit_integer_parameter_reads_but_names_no_run(self, name, key):
        cfg = parse_config(tiny_config_text("/tmp/x", aggregator=[{"name": name, "parameters": {key: 10**400}}]))
        assert cfg.aggregators[0].parameters[key] == 10**400
        with pytest.raises(ValueError, match=f"^{name} parameter {key} is too large for a run id to spell$"):
            expand_grid(cfg)

    def test_run_id_over_the_file_name_limit_is_rejected(self):
        cfg = parse_config(tiny_config_text("/tmp/x", aggregator=[{"name": "MoNNA", "parameters": {"pivot": 10**300}}]))
        with pytest.raises(ValueError, match="^run id 'MoNNA-pivot10{300}_.*' is longer than the 255-byte file-name"):
            expand_grid(cfg)


class TestSchema:
    """Every object of the config schema rejects a key it does not know."""

    @pytest.mark.parametrize(
        "tweaks, path",
        [
            ({"benchmark_config.nb_step": 4}, "benchmark_config.nb_step"),
            ({"benchmark_config.training_algorithm.paramters": {}}, "benchmark_config.training_algorithm.paramters"),
            (fedavg(local_step_per_client=2), f"{FEDAVG_PATH}.local_step_per_client"),
            (
                {"benchmark_config.training_algorithm": {"name": "DSGD", "parameters": {"local_steps_per_client": 2}}},
                f"{FEDAVG_PATH}.local_steps_per_client",
            ),
            (
                {"benchmark_config.data_distribution": [{"name": "iid", "distribution_parameters": [0.0]}]},
                f"{DISTRIBUTION_PATH}.distribution_parameters",
            ),
            ({"model.learning_rat": 0.1}, "model.learning_rat"),
            ({"model.dataset_params.dims": 4}, "model.dataset_params.dims"),
            ({"model.dataset_name": "mnist"}, "model.dataset_params.dim"),
            ({"honest_clients.momentun": 0.9}, "honest_clients.momentun"),
            ({"evaluation_and_results.results_dir": "x"}, "evaluation_and_results.results_dir"),
            ({"aggregator": [{"name": "TrMean", "paramters": {}}]}, "aggregator[0].paramters"),
            ({"pre_aggregators": [{"name": "NNM", "paramters": {}}]}, "pre_aggregators[0].paramters"),
            ({"attack": [{"name": "SignFlipping", "paramters": {}}]}, "attack[0].paramters"),
        ],
        ids=[
            "benchmark_config", "training_algorithm", "FedAvg-parameters", "DSGD-given-FedAvg-parameters",
            "data_distribution-entry", "model", "blobs-dataset_params", "mnist-dataset_params", "honest_clients",
            "evaluation_and_results", "aggregator-entry", "pre_aggregators-entry", "attack-entry",
        ],
    )
    def test_misspelt_key_names_its_dotted_path(self, tweaks, path):
        with pytest.raises(ValueError, match=re.escape(f"unknown key '{path}'")):
            parse_config(tiny_config_text("/tmp/x", **tweaks))

    @pytest.mark.parametrize(
        "tweaks, message",
        [
            (fedavg(local_steps_per_client=2.7), f"{FEDAVG_PATH}.local_steps_per_client must be an integer, got 2.7"),
            (fedavg(local_steps_per_client=0), f"{FEDAVG_PATH}.local_steps_per_client must be >= 1, got 0"),
            (
                fedavg(proportion_selected_clients="0.5"),
                f"{FEDAVG_PATH}.proportion_selected_clients must be a number, got '0.5'",
            ),
            ({"model.dataset_params.dim": 2.5}, "model.dataset_params.dim must be an integer, got 2.5"),
            (
                distribution("gamma_similarity_niid", 0.5, 1.5),
                f"{DISTRIBUTION_PATH}.distribution_parameter[1] must lie in [0, 1], got 1.5",
            ),
            (
                distribution("dirichlet_niid", -1),
                f"{DISTRIBUTION_PATH}.distribution_parameter[0] must be positive, got -1.0",
            ),
        ],
        ids=["local_steps-2.7", "local_steps-0", "proportion-string", "dim-2.5", "gamma-1.5", "alpha-negative"],
    )
    def test_mistyped_or_out_of_range_value_names_its_dotted_path(self, tweaks, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(tiny_config_text("/tmp/x", **tweaks))

    @pytest.mark.parametrize("tweaks, message", NON_FINITE_CASES.values(), ids=NON_FINITE_CASES)
    def test_nan_and_infinity_rejected_naming_the_path_or_parameter(self, tweaks, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(tiny_config_text("/tmp/x", **tweaks))

    def test_defaults_are_applied_and_typed_at_parse_time(self):
        tweaks = {**fedavg(local_steps_per_client=3), "model.dataset_params": {"dim": 7}}
        cfg = parse_config(tiny_config_text("/tmp/x", **tweaks))
        assert cfg.training_algorithm.parameters == {"proportion_selected_clients": 1.0, "local_steps_per_client": 3}
        assert type(cfg.training_algorithm.parameters["proportion_selected_clients"]) is float
        blobs = {"n_classes": 3, "dim": 7, "train_size": 6000, "test_size": 1000, "spread": 1.0}
        assert cfg.model.dataset_params == blobs
        assert type(cfg.model.dataset_params["spread"]) is float


class TestExperimentKey:
    def test_documented_id_layout(self):
        key = ExperimentKey(
            aggregator=AggregatorSpec("TrMean", f=2),
            pre_aggregators=[PreAggregatorSpec("Clipping", {"c": 2.0}, f=2), PreAggregatorSpec("NNM", f=2)],
            attack=AttackSpec("SignFlipping"),
            f=2,
            distribution_name="gamma_similarity_niid",
            distribution_parameter=0.33,
            seed=1,
        )
        assert key.run_id == "TrMean_Clipping-NNM_SignFlipping_f2_gamma0.33_seed1"

    def test_parameters_enter_the_rule_tokens(self):
        key = ExperimentKey(
            aggregator=AggregatorSpec("CenteredClipping", {"tau": 2.0, "iters": 5.0}),
            pre_aggregators=[],
            attack=AttackSpec("InnerProductManipulation", {"tau": 0.5}),
            f=0,
            distribution_name="dirichlet_niid",
            distribution_parameter=0.5,
            seed=0,
        )
        assert key.run_id == "CenteredClipping-iters5-tau2_InnerProductManipulation-tau0.5_f0_dirichlet0.5_seed0"

    def test_underscores_in_names_are_sanitized(self):
        key = ExperimentKey(
            aggregator=AggregatorSpec("Average", f=3),
            pre_aggregators=[],
            attack=AttackSpec("Optimal_ALittleIsEnough"),
            f=3,
            distribution_name="iid",
            distribution_parameter=0.0,
            seed=2,
        )
        assert key.run_id == "Average_Optimal-ALittleIsEnough_f3_iid0_seed2"

    def test_rule_parameters_six_digits_cannot_tell_apart_get_distinct_ids(self):
        ids = []
        for tau in (1.0000001, 1.0000002):
            attack = {"name": "ALittleIsEnough", "parameters": {"tau": tau}}
            ids.append(expand_grid(parse_config(tiny_config_text("/tmp/x", attack=[attack])))[0].run_id)
        assert ids == [
            "TrMean_ALittleIsEnough-tau1.0000001_f1_iid0_seed0",
            "TrMean_ALittleIsEnough-tau1.0000002_f1_iid0_seed0",
        ]

    def test_distribution_parameters_six_digits_cannot_tell_apart_get_distinct_ids(self):
        def run_id(gamma):
            return ExperimentKey(
                aggregator=AggregatorSpec("TrMean", f=1),
                pre_aggregators=[],
                attack=AttackSpec("SignFlipping"),
                f=1,
                distribution_name="gamma_similarity_niid",
                distribution_parameter=gamma,
                seed=0,
            ).run_id

        assert run_id(0.3333331) == "TrMean_SignFlipping_f1_gamma0.3333331_seed0"
        assert run_id(0.3333332) == "TrMean_SignFlipping_f1_gamma0.3333332_seed0"
        # A value that six significant digits already give exactly keeps its short id.
        assert run_id(0.333333) == "TrMean_SignFlipping_f1_gamma0.333333_seed0"

    @staticmethod
    def gamma_key(gamma: float) -> ExperimentKey:
        return ExperimentKey(AggregatorSpec("TrMean", f=1), [], AttackSpec("SignFlipping"), 1, "gamma_similarity_niid",
                             gamma, 0)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_parameter_token_reads_back_as_its_value(self, value):
        key = self.gamma_key(value)
        assert float(key.parameter_token) == value
        assert key.run_id.endswith(f"_gamma{key.parameter_token}_seed0")

    @given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False))
    def test_distinct_parameters_get_distinct_tokens(self, a, b):
        if a != b:
            assert self.gamma_key(a).parameter_token != self.gamma_key(b).parameter_token

    def test_json_round_trip(self):
        key = ExperimentKey(
            aggregator=AggregatorSpec("MoNNA", {"pivot": 0.0}, f=1),
            pre_aggregators=[PreAggregatorSpec("NNM", f=1)],
            attack=AttackSpec("ALittleIsEnough", {"tau": 1.5}),
            f=1,
            distribution_name="gamma_similarity_niid",
            distribution_parameter=0.66,
            seed=4,
        )
        assert KEY_JSON(json.loads(json.dumps(key.to_json_dict())), "") == key


class TestExpandGrid:
    def test_sample_config_has_144_keys(self):
        keys = expand_grid(parse_config(SAMPLE_CONFIG))
        assert len(keys) == 144
        assert len({k.run_id for k in keys}) == 144
        assert {k.aggregator.name for k in keys} == {"Median", "TrMean"}
        assert {k.f for k in keys} == {1, 2, 3, 4}
        assert {k.seed for k in keys} == {0, 1, 2}
        assert {k.distribution_parameter for k in keys} == {1.0, 0.66, 0.33}
        assert all(k.pre_aggregators[0].name == "Clipping" for k in keys)

    def test_singleton_grid(self):
        keys = expand_grid(parse_config(tiny_config_text("/tmp/x")))
        assert len(keys) == 1
        assert keys[0].run_id == "TrMean_SignFlipping_f1_iid0_seed0"

    def test_f_zero_keeps_the_attack_in_the_key(self):
        keys = expand_grid(parse_config(tiny_config_text("/tmp/x", **{"benchmark_config.f": [0]})))
        assert keys[0].attack.name == "SignFlipping"
        assert keys[0].f == 0

    def test_duplicate_rules_are_rejected(self):
        # The message names the run id and blames nothing: a repeated f or
        # distribution value collides as well as a repeated rule.
        for tweaks, run_id in [
            ({"aggregator": [{"name": "Median"}, {"name": "Median"}]}, "Median_SignFlipping_f1_iid0_seed0"),
            ({"benchmark_config.f": [1, 1]}, "TrMean_SignFlipping_f1_iid0_seed0"),
            (distribution("gamma_similarity_niid", 1.0, 1), "TrMean_SignFlipping_f1_gamma1_seed0"),
        ]:
            with pytest.raises(ValueError, match=f"^grid produces duplicate run id '{run_id}'$"):
                expand_grid(parse_config(tiny_config_text("/tmp/x", **tweaks)))

    def test_specs_carry_the_key_f(self):
        tweaks = {"pre_aggregators": [{"name": "NNM"}, {"name": "Clipping", "parameters": {"c": 2}}],
                  "benchmark_config.f": [0, 2, 1]}
        cfg = parse_config(tiny_config_text("/tmp/x", **tweaks))
        keys = expand_grid(cfg)
        assert [k.f for k in keys] == [0, 2, 1]
        for key in keys:
            assert key.aggregator == AggregatorSpec("TrMean", f=key.f)
            assert key.pre_aggregators == [PreAggregatorSpec("NNM", f=key.f),
                                           PreAggregatorSpec("Clipping", {"c": 2.0}, f=key.f)]
        assert [p.f for p in cfg.pre_aggregators] == [0, 0]

    def test_parameterised_run_ids_match_the_written_spelling(self):
        tweaks = {
            "aggregator": [{"name": "CenteredClipping", "parameters": {"tau": 2.5, "iters": 5}},
                           {"name": "MoNNA", "parameters": {"pivot": 2.0}}],
            "pre_aggregators": [{"name": "Clipping", "parameters": {"c": 2}}, {"name": "NNM"}],
            "attack": [{"name": "InnerProductManipulation", "parameters": {"tau": 0.5}}, {"name": "SignFlipping"}],
            "benchmark_config.f": [1, 2],
        }
        ids = [k.run_id for k in expand_grid(parse_config(tiny_config_text("/tmp/x", **tweaks)))]
        assert ids == [
            "CenteredClipping-iters5-tau2.5_Clipping-NNM_InnerProductManipulation-tau0.5_f1_iid0_seed0",
            "CenteredClipping-iters5-tau2.5_Clipping-NNM_InnerProductManipulation-tau0.5_f2_iid0_seed0",
            "CenteredClipping-iters5-tau2.5_Clipping-NNM_SignFlipping_f1_iid0_seed0",
            "CenteredClipping-iters5-tau2.5_Clipping-NNM_SignFlipping_f2_iid0_seed0",
            "MoNNA-pivot2_Clipping-NNM_InnerProductManipulation-tau0.5_f1_iid0_seed0",
            "MoNNA-pivot2_Clipping-NNM_InnerProductManipulation-tau0.5_f2_iid0_seed0",
            "MoNNA-pivot2_Clipping-NNM_SignFlipping_f1_iid0_seed0",
            "MoNNA-pivot2_Clipping-NNM_SignFlipping_f2_iid0_seed0",
        ]


class TestRunSingle:
    def test_series_shape_and_ranges(self, tmp_path):
        cfg = parse_config(tiny_config_text(tmp_path / "results"))
        result = run_single(cfg, expand_grid(cfg)[0])
        assert result.steps == [0, 2, 4]
        assert all(0.0 <= a <= 1.0 for a in result.test_accuracy)
        assert all(math.isfinite(v) for v in result.train_loss)
        assert result.client_losses is None

    def test_final_step_recorded_off_grid(self, tmp_path):
        cfg = parse_config(tiny_config_text(tmp_path / "results", **{"benchmark_config.nb_steps": 5}))
        result = run_single(cfg, expand_grid(cfg)[0])
        assert result.steps == [0, 2, 4, 5]

    def test_per_client_metrics(self, tmp_path):
        cfg = parse_config(
            tiny_config_text(tmp_path / "results", **{"evaluation_and_results.store_per_client_metrics": True})
        )
        result = run_single(cfg, expand_grid(cfg)[0])
        assert len(result.client_losses) == len(result.steps)
        assert all(len(row) == 3 for row in result.client_losses)

    def test_pure_function_of_key(self, tmp_path):
        cfg = parse_config(tiny_config_text(tmp_path / "results"))
        key = expand_grid(cfg)[0]
        a, b = run_single(cfg, key), run_single(cfg, key)
        assert a.test_accuracy == b.test_accuracy
        assert a.train_loss == b.train_loss

    def test_label_flipping_and_fedavg_paths(self, tmp_path):
        algo = {"name": "FedAvg", "parameters": {"proportion_selected_clients": 0.6, "local_steps_per_client": 2}}
        cfg = parse_config(
            tiny_config_text(
                tmp_path / "results",
                attack=[{"name": "LabelFlipping", "parameters": {}}],
                **{"benchmark_config.training_algorithm": algo},
            )
        )
        result = run_single(cfg, expand_grid(cfg)[0])
        assert result.steps == [0, 2, 4]

    def test_unknown_dataset_and_model_names(self, tmp_path):
        with pytest.raises(ValueError, match="model.dataset_name must be 'blobs' or 'mnist', got 'cifar'"):
            parse_config(tiny_config_text(tmp_path / "results", **{"model.dataset_name": "cifar"}))
        with pytest.raises(ValueError, match="model.name must be 'linear' or 'mlp', got 'transformer'"):
            parse_config(tiny_config_text(tmp_path / "results", **{"model.name": "transformer"}))

    def test_cnn_mnist_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="model.name must be 'linear' or 'mlp', got 'cnn_mnist'"):
            parse_config(tiny_config_text(tmp_path / "results", **{"model.name": "cnn_mnist"}))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        cfg = parse_config(
            tiny_config_text(tmp_path / "results", **{"evaluation_and_results.store_per_client_metrics": True})
        )
        key = expand_grid(cfg)[0]
        result = run_single(cfg, key)
        run_dir = write_result(tmp_path / "results", result)
        assert (run_dir / "key.json").exists()
        loaded = read_result(tmp_path / "results", key.run_id)
        assert loaded.key == key
        assert loaded.steps == result.steps
        assert loaded.test_accuracy == result.test_accuracy
        assert loaded.train_loss == result.train_loss
        assert loaded.client_losses == result.client_losses

    def test_schema_without_per_client_columns(self, tmp_path):
        cfg = parse_config(tiny_config_text(tmp_path / "results"))
        key = expand_grid(cfg)[0]
        write_result(tmp_path / "results", run_single(cfg, key))
        header = (tmp_path / "results" / key.run_id / "metrics.csv").read_text().splitlines()[0]
        assert header == "step,test_accuracy,train_loss"

    def test_missing_result(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="result absent"):
            read_result(tmp_path, "no_such_run")

    def test_list_results_sorted_and_filtered(self, tmp_path):
        cfg = parse_config(tiny_config_text(tmp_path / "results", aggregator=[{"name": "Median"}, {"name": "Average"}]))
        for key in expand_grid(cfg):
            write_result(tmp_path / "results", run_single(cfg, key))
        (tmp_path / "results" / "junk").mkdir()
        results = list_results(tmp_path / "results")
        assert [r.key.aggregator.name for r in results] == ["Average", "Median"]
        assert list_results(tmp_path / "nowhere") == []


def replay_evaluating_each_step(cfg, key) -> benchmark.ExperimentResult:
    """``run_single`` as a hand-rolled loop that scores each evaluation step
    right after it, alone, as a group of one."""
    seed, n, hc = key.seed, cfg.nb_honest_clients, cfg.honest_clients
    train, test = benchmark.DATASETS[cfg.model.dataset_name].load(cfg.model, seed)
    partitions = make_partition(train, key.distribution_name, key.distribution_parameter, n,
                                derive_rng(seed, "datadist")).assignments
    arch = benchmark.ARCHS[cfg.model.name](cfg.model, train.features.shape[1], train.n_classes)
    byz = ByzantineClientGroup(key.f, key.attack)
    rngs = [derive_rng(seed, f"client.{i}") for i in range(n)]
    rngs += [derive_rng(seed, f"byz.{j}") for j in range(byz.seats)]
    clients = HonestClient(train, partitions, hc.batch_size, hc.momentum, hc.weight_decay, rngs, byz.seats)
    pipeline = build_pipeline(key.aggregator, key.pre_aggregators, rng=derive_rng(seed, "bucketing"))
    server = ServerState(init_params(arch, derive_rng(seed, "init")), pipeline)
    schedule = LrSchedule(cfg.model.learning_rate, cfg.model.learning_rate_decay, tuple(cfg.model.milestones))
    sampling = derive_rng(seed, "sampling")
    fedavg = cfg.training_algorithm.parameters if cfg.training_algorithm.name == "FedAvg" else None
    m = n if fedavg is None else sampled_count(fedavg["proportion_selected_clients"], n)
    rows = np.zeros((m + key.f, len(server.flat)))
    subsets = [np.concatenate(partitions)] + (partitions if cfg.evaluation.store_per_client_metrics else [])
    result = benchmark.ExperimentResult(key, [], [], [], [] if cfg.evaluation.store_per_client_metrics else None)
    for step in range(cfg.nb_steps + 1):
        if step and fedavg is not None:
            chosen = np.sort(sampling.choice(n, size=m, replace=False))
            clients.local_delta(arch, [server.flat], schedule.lr_at(step - 1), fedavg["local_steps_per_client"],
                                chosen, [rows[: m + byz.seats]])
            fedavg_round(server, rows, byz)
        elif step:
            clients.compute_update(arch, [server.flat], [rows[: n + byz.seats]])
            dsgd_step(server, rows, byz, schedule.lr_at(step - 1))
        if step % cfg.evaluation.evaluation_delta == 0 or step == cfg.nb_steps:
            result.steps.append(step)
            result.test_accuracy.append(evaluate_accuracy(arch, [server.flat], test)[0])
            [[loss, *client_losses]] = forward_loss(arch, [server.flat], train.features, train.labels, subsets)
            result.train_loss.append(loss)
            if result.client_losses is not None:
                result.client_losses.append(client_losses)
    return result


# An MLP whose evaluations group: 1,100 rows x 64 inputs x 16 hidden units is
# 1,126,400 multiply-adds per snapshot, above BLOCK_ELEMENTS, at width 16.
GROUPING_MLP = {
    "model.name": "mlp",
    "model.hidden": 16,
    "model.dataset_params": {"n_classes": 3, "dim": 64, "train_size": 1100, "test_size": 1100, "spread": 2.0},
    "benchmark_config.nb_steps": 7,
    "evaluation_and_results.evaluation_delta": 3,
    "evaluation_and_results.store_per_client_metrics": True,
}


# A linear model whose parameter count, 41 x 3 = 123, exceeds its 60 training and 21 test rows.
WIDE_LINEAR = {"model.dataset_params": {"n_classes": 3, "dim": 40, "train_size": 60, "test_size": 21, "spread": 0.5}}


class TestGroupedEvaluation:
    """``run_single`` evaluates its snapshots in groups of
    ``block_rows(max(d, train rows, test rows))``; every series equals the
    hand-rolled loop's, bit for bit."""

    @staticmethod
    def run_counting(cfg, monkeypatch) -> tuple[benchmark.ExperimentResult, list[int]]:
        """``run_single`` on the config's one key, and the group size of each evaluation call."""
        sizes = []
        evaluate = benchmark.evaluate_accuracy
        monkeypatch.setattr(benchmark, "evaluate_accuracy",
                            lambda arch, flat, dataset: sizes.append(len(flat)) or evaluate(arch, flat, dataset))
        return run_single(cfg, expand_grid(cfg)[0]), sizes

    @pytest.mark.parametrize("algorithm", [{}, fedavg(proportion_selected_clients=0.7, local_steps_per_client=2)],
                             ids=["DSGD", "FedAvg"])
    @pytest.mark.parametrize("model, sizes", [(GROUPING_MLP, [4]), ({}, [3]),
                                              ({**GROUPING_MLP, "model.hidden": 10}, [4])],
                             ids=["mlp-groups", "linear", "mlp-width-10"])
    def test_run_equals_the_loop_that_evaluates_each_step(self, tmp_path, monkeypatch, algorithm, model, sizes):
        cfg = parse_config(tiny_config_text(tmp_path, **{**model, **algorithm}))
        result, seen = self.run_counting(cfg, monkeypatch)
        assert seen == sizes
        expected = replay_evaluating_each_step(cfg, expand_grid(cfg)[0])
        assert dataclasses.astuple(result) == dataclasses.astuple(expected)

    @pytest.mark.parametrize("model, bound", [(GROUPING_MLP, 1100), (WIDE_LINEAR, 123)],
                             ids=["mlp-rows-bind", "linear-parameters-bind"])
    def test_a_group_that_fills_mid_run_is_evaluated_then(self, tmp_path, monkeypatch, model, bound):
        cfg = parse_config(tiny_config_text(tmp_path, **{
            **model, "benchmark_config.nb_steps": 7, "evaluation_and_results.evaluation_delta": 1,
            "attack": [{"name": "LabelFlipping", "parameters": {}}]}))
        asked = []
        monkeypatch.setattr(benchmark, "block_rows", lambda row_elements: asked.append(row_elements) or 3)
        result, seen = self.run_counting(cfg, monkeypatch)
        assert asked == [bound]
        assert seen == [3, 3, 2]
        assert dataclasses.astuple(result) == dataclasses.astuple(replay_evaluating_each_step(cfg, expand_grid(cfg)[0]))


def written(directory) -> dict:
    """Every file under ``directory``, by relative path, with its bytes."""
    return {p.relative_to(directory): p.read_bytes() for p in sorted(Path(directory).rglob("*")) if p.is_file()}


# 2 rules x 2 attacks x f in {1, 2} x 2 gammas x 2 seeds = 32 runs: four groups of 8 that share a seed and a split.
COHORT_GRID = {
    "aggregator": [{"name": "TrMean"}, {"name": "CenteredClipping"}],
    "attack": [{"name": "LabelFlipping"}, {"name": "InnerProductManipulation"}],
    "benchmark_config.f": [1, 2],
    "benchmark_config.nb_training_seeds": 2,
    "benchmark_config.nb_honest_clients": 5,
    "benchmark_config.nb_steps": 6,
    **distribution("gamma_similarity_niid", 0.5, 1.0),
}
ALGORITHMS = pytest.mark.parametrize(
    "algorithm", [{}, fedavg(proportion_selected_clients=0.6, local_steps_per_client=2)], ids=["DSGD", "FedAvg"])


class TestCohorts:
    """Runs that share a seed and a data split train in lockstep on one bank;
    each writes the bytes it writes alone, whichever runs share its cohort."""

    @ALGORITHMS
    def test_a_grid_writes_the_bytes_of_each_run_alone(self, tmp_path, algorithm):
        cfg = parse_config(tiny_config_text(tmp_path / "alone", **COHORT_GRID, **algorithm))
        for key in expand_grid(cfg):
            write_result(tmp_path / "alone", run_single(cfg, key))
        alone = written(tmp_path / "alone")
        assert len(alone) == 2 * 32
        for parallelism in (1, 2):
            out = tmp_path / str(parallelism)
            cfg = parse_config(tiny_config_text(out, **COHORT_GRID, **algorithm))
            assert [len(cohort) for cohort in benchmark._cohorts(cfg, expand_grid(cfg), parallelism)] == [8] * 4
            assert run_benchmark(cfg, parallelism)["completed"] == 32
            assert written(out) == alone

    @ALGORITHMS
    def test_a_member_leaving_changes_no_siblings_bytes(self, tmp_path, algorithm):
        cfg = parse_config(tiny_config_text(tmp_path, **COHORT_GRID, **algorithm))
        keys = [key for key in expand_grid(cfg) if (key.seed, key.distribution_parameter) == (1, 0.5)]
        for result in run_cohort(cfg, keys):
            write_result(tmp_path / "full", result)
        full = written(tmp_path / "full")
        for gone in range(len(keys)):
            out = tmp_path / f"without{gone}"
            for result in run_cohort(cfg, keys[:gone] + keys[gone + 1 :]):
                write_result(out, result)
            assert written(out) == {path: data for path, data in full.items() if path.parts[0] != keys[gone].run_id}

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_diverged_member_fails_alone_and_its_siblings_keep_their_bytes(self, tmp_path):
        # Average under IPM with tau = 1e300 overflows mid-run; the cohort's
        # other runs finish with the bytes they write alone.
        ipm = {"name": "InnerProductManipulation", "parameters": {"tau": 1e300}}
        tweaks = {"aggregator": [{"name": "Average"}], "benchmark_config.nb_steps": 20,
                  "honest_clients.weight_decay": 1e-4,
                  "attack": [{"name": "SignFlipping"}, ipm, {"name": "LabelFlipping"}, {"name": "ALittleIsEnough"}]}
        cfg = parse_config(tiny_config_text(tmp_path / "alone", **tweaks))
        keys = expand_grid(cfg)
        diverged = keys[1].run_id
        for key in keys[:1] + keys[2:]:
            write_result(tmp_path / "alone", run_single(cfg, key))
        with pytest.raises(ValueError, match="matrix contains NaN or Inf"):
            run_single(cfg, keys[1])
        cfg = parse_config(tiny_config_text(tmp_path / "grid", **tweaks))
        assert [len(cohort) for cohort in benchmark._cohorts(cfg, keys, 1)] == [4]
        summary = run_benchmark(cfg)
        assert summary["completed"] == 3 and summary["failures"] == [
            (diverged, "ValueError: matrix contains NaN or Inf")]
        assert written(tmp_path / "grid") == written(tmp_path / "alone")

    def test_a_run_that_cannot_be_written_fails_alone(self, tmp_path, monkeypatch):
        cfg = parse_config(tiny_config_text(tmp_path, **COHORT_GRID))
        victim = expand_grid(cfg)[3].run_id
        write = benchmark.write_result

        def write_or_refuse(base_dir, result):
            if result.key.run_id == victim:
                raise OSError("disk full")
            return write(base_dir, result)

        monkeypatch.setattr(benchmark, "write_result", write_or_refuse)
        summary = run_benchmark(cfg)
        assert summary["completed"] == 31 and summary["failures"] == [(victim, "OSError: disk full")]

    def test_runs_that_do_not_share_a_split_are_refused(self, tmp_path):
        cfg = parse_config(tiny_config_text(tmp_path, **COHORT_GRID))
        first, *rest = expand_grid(cfg)
        for other in (next(k for k in rest if k.seed != first.seed),
                      next(k for k in rest if k.distribution_parameter != first.distribution_parameter)):
            with pytest.raises(ValueError, match=r"must share \(seed, distribution, parameter\)"):
                run_cohort(cfg, [first, other])

    def test_the_initial_vector_is_drawn_once_and_shared_read_only(self, tmp_path, monkeypatch):
        cfg = parse_config(tiny_config_text(tmp_path, **COHORT_GRID))
        keys = [key for key in expand_grid(cfg) if (key.seed, key.distribution_parameter) == (1, 0.5)]
        drawn, views = [], []
        monkeypatch.setattr(benchmark, "init_params", lambda *args: drawn.append(init_params(*args)) or drawn[-1])

        def server(flat, pipeline):
            made = ServerState(flat, pipeline)
            views.append(made.flat)
            return made

        monkeypatch.setattr(benchmark, "ServerState", server)
        run_cohort(cfg, keys)
        assert len(keys) == 8 and len(drawn) == 1 and len(views) == 8
        assert all(view.base is drawn[0] and not view.flags.writeable for view in views)

    @pytest.mark.parametrize("algorithm, rows", [
        ({}, 5), (fedavg(proportion_selected_clients=0.55, local_steps_per_client=1), 3)], ids=["DSGD", "FedAvg"])
    def test_honest_rows_are_every_client_or_the_sampled_ones(self, tmp_path, algorithm, rows):
        assert benchmark.honest_rows(parse_config(tiny_config_text(tmp_path, **COHORT_GRID, **algorithm))) == rows

    @pytest.mark.parametrize("tweaks, parallelism, sizes", [
        ({}, 1, [8] * 4),
        ({}, 8, [4] * 8),
        ({}, 64, [1] * 32),
        # d = 3 x 40,001 parameters: (5 + 2) d rows' worth of entries exceed BLOCK_ELEMENTS, so every run is alone.
        ({"model.dataset_params.dim": 40_000}, 1, [1] * 32),
        ({"model.dataset_name": "mnist", "model.dataset_params": {}}, 1, [1] * 32),
    ], ids=["serial", "eight-workers", "more-workers-than-runs", "wide-model", "mnist"])
    def test_cohort_size_rule(self, tmp_path, tweaks, parallelism, sizes):
        cfg = parse_config(tiny_config_text(tmp_path, **{**COHORT_GRID, **tweaks}))
        cohorts = benchmark._cohorts(cfg, expand_grid(cfg), parallelism)
        assert [len(cohort) for cohort in cohorts] == sizes
        order = [key.run_id for key in expand_grid(cfg)]
        assert sorted(order.index(key.run_id) for cohort in cohorts for key in cohort) == list(range(len(order)))
        positions = [[order.index(key.run_id) for key in cohort] for cohort in cohorts]
        assert all(places == sorted(places) for places in positions)
        assert all(len({(k.seed, k.distribution_name, k.distribution_parameter) for k in c}) == 1 for c in cohorts)


class TestRunBenchmark:
    def test_execute_then_resume(self, tmp_path):
        cfg = parse_config(tiny_config_text(tmp_path / "results", **{"benchmark_config.nb_training_seeds": 2}))
        summary = run_benchmark(cfg)
        assert summary == {"completed": 2, "skipped": 0, "failed": 0, "failures": []}
        before = {
            p: p.read_bytes() for p in sorted((tmp_path / "results").rglob("*")) if p.is_file()
        }
        summary = run_benchmark(cfg)
        assert summary == {"completed": 0, "skipped": 2, "failed": 0, "failures": []}
        after = {p: p.read_bytes() for p in sorted((tmp_path / "results").rglob("*")) if p.is_file()}
        assert before == after

    def test_partial_resume_fills_gaps(self, tmp_path):
        cfg = parse_config(tiny_config_text(tmp_path / "results", **{"benchmark_config.nb_training_seeds": 2}))
        run_benchmark(cfg)
        victim = expand_grid(cfg)[0].run_id
        (tmp_path / "results" / victim / "metrics.csv").unlink()
        summary = run_benchmark(cfg)
        assert summary["completed"] == 1 and summary["skipped"] == 1

    def test_infeasible_key_is_recorded_not_raised(self, tmp_path):
        cfg = parse_config(
            tiny_config_text(
                tmp_path / "results",
                **{"benchmark_config.nb_honest_clients": 2, "benchmark_config.f": [2]},
            )
        )
        summary = run_benchmark(cfg)
        assert summary["completed"] == 0 and summary["failed"] == 1
        run_id, message = summary["failures"][0]
        assert "TrMean requires n > 2f (got n=4, f=2)" in message
        assert not (tmp_path / "results" / run_id / "metrics.csv").exists()

    def test_parallel_matches_serial_bitwise(self, tmp_path):
        grids = {}
        for mode, parallelism in (("serial", 1), ("parallel", 3)):
            out = tmp_path / mode
            cfg = parse_config(
                tiny_config_text(
                    out,
                    aggregator=[{"name": "Median"}, {"name": "GeometricMedian"}],
                    **{"benchmark_config.nb_training_seeds": 2, "benchmark_config.nb_steps": 10},
                )
            )
            summary = run_benchmark(cfg, parallelism=parallelism)
            assert summary["completed"] == 4
            grids[mode] = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        assert grids["serial"] == grids["parallel"]

    def test_crashed_worker_is_recorded_not_raised(self, tmp_path, monkeypatch):
        results = tmp_path / "results"
        cfg = parse_config(tiny_config_text(results, **{"benchmark_config.nb_training_seeds": 3}))
        *others, victim = [key.run_id for key in expand_grid(cfg)]
        real_run_cohort = benchmark.run_cohort

        def run_cohort_or_die(cfg, keys, cores=1):
            # The victim dies like an OOM-killed worker once the other runs are
            # on disk and their results have had time to reach the parent.
            if victim not in [key.run_id for key in keys]:
                return real_run_cohort(cfg, keys, cores)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and not all((results / r / "metrics.csv").exists() for r in others):
                time.sleep(0.01)
            time.sleep(0.5)
            os._exit(1)

        # Forked workers inherit the patched module attribute.
        monkeypatch.setattr(benchmark, "run_cohort", run_cohort_or_die)
        monkeypatch.setattr(
            benchmark,
            "ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")),
        )
        summary = run_benchmark(cfg, parallelism=2)
        assert summary["completed"] == 2 and summary["failed"] == 1
        run_id, message = summary["failures"][0]
        assert run_id == victim and message.startswith("BrokenProcessPool: ")
        for run_id in others:
            assert (results / run_id / "metrics.csv").exists()
        assert not (results / victim / "metrics.csv").exists()

    def test_worker_dying_at_its_start_costs_only_its_own_run(self, tmp_path, monkeypatch):
        results = tmp_path / "results"
        cfg = parse_config(tiny_config_text(results, **{"benchmark_config.nb_training_seeds": 6}))
        victim, *others = [key.run_id for key in expand_grid(cfg)]
        real_run_cohort = benchmark.run_cohort

        def run_cohort_or_die(cfg, keys, cores=1):
            if victim in [key.run_id for key in keys]:
                os._exit(1)
            return real_run_cohort(cfg, keys, cores)

        monkeypatch.setattr(benchmark, "run_cohort", run_cohort_or_die)
        monkeypatch.setattr(
            benchmark,
            "ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")),
        )
        summary = run_benchmark(cfg, parallelism=2)
        assert summary["completed"] == len(others) and summary["failed"] == 1
        [(run_id, message)] = summary["failures"]
        assert run_id == victim and message.startswith("BrokenProcessPool: ")
        for run_id in others:
            assert (results / run_id / "metrics.csv").exists()
        assert not (results / victim / "metrics.csv").exists()

    def test_a_victim_sharing_its_cohort_costs_only_its_own_run(self, tmp_path, monkeypatch):
        # Two seeds of four runs each, so two cohorts of four at parallelism 2:
        # the cohort holding the victim dies in both pools, then its runs go
        # one to a pool and only the victim's lone worker dies.
        results = tmp_path / "results"
        cfg = parse_config(tiny_config_text(results, aggregator=[{"name": "Median"}, {"name": "Average"}],
                                            **{"benchmark_config.nb_training_seeds": 2, "benchmark_config.f": [1, 2]}))
        keys = expand_grid(cfg)
        victim = keys[2].run_id
        real_run_cohort = benchmark.run_cohort

        def run_cohort_or_die(cfg, keys, cores=1):
            if victim in [key.run_id for key in keys]:
                os._exit(1)
            return real_run_cohort(cfg, keys, cores)

        monkeypatch.setattr(benchmark, "run_cohort", run_cohort_or_die)
        monkeypatch.setattr(
            benchmark,
            "ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")),
        )
        summary = run_benchmark(cfg, parallelism=2)
        assert summary["completed"] == len(keys) - 1 and summary["failed"] == 1
        [(run_id, message)] = summary["failures"]
        assert run_id == victim and message.startswith("BrokenProcessPool: ")
        for key in keys:
            assert (results / key.run_id / "metrics.csv").exists() == (key.run_id != victim)
        shared = [key.run_id for key in keys if key.seed == keys[2].seed]
        assert len(shared) == 4 and victim in shared

    @pytest.mark.parametrize("seeds, parallelism, cores", [(1, 2, 2), (3, 2, 1), (1, 1, 1), (2, 4, 2), (3, 8, 2)])
    def test_each_run_gets_the_cores_its_grid_leaves_idle(self, tmp_path, monkeypatch, seeds, parallelism, cores):
        def run_cohort_naming_its_cores(cfg, keys, cores=1):
            raise RuntimeError(f"cores={cores}")

        # Forked workers inherit the patched module attribute.
        monkeypatch.setattr(benchmark, "run_cohort", run_cohort_naming_its_cores)
        monkeypatch.setattr(
            benchmark,
            "ProcessPoolExecutor",
            functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")),
        )
        cfg = parse_config(tiny_config_text(tmp_path / "results", **{"benchmark_config.nb_training_seeds": seeds}))
        summary = run_benchmark(cfg, parallelism=parallelism)
        assert [message for _, message in summary["failures"]] == [f"RuntimeError: cores={cores}"] * seeds

    def test_a_lone_optimal_run_writes_the_same_bytes_on_two_cores(self, tmp_path):
        grids = {}
        for parallelism in (1, 2):
            out = tmp_path / str(parallelism)
            cfg = parse_config(tiny_config_text(out, attack=[{"name": "Optimal_ALittleIsEnough"}],
                                                pre_aggregators=[{"name": "NNM"}]))
            assert run_benchmark(cfg, parallelism=parallelism)["completed"] == 1
            grids[parallelism] = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        assert grids[1] == grids[2]

    def test_the_lone_run_left_by_a_resume_gets_every_core(self, tmp_path, monkeypatch):
        cfg = parse_config(tiny_config_text(tmp_path / "results", **{"benchmark_config.nb_training_seeds": 3}))
        run_benchmark(cfg)
        (tmp_path / "results" / expand_grid(cfg)[1].run_id / "metrics.csv").unlink()
        seen = []
        real_run_cohort = benchmark.run_cohort

        def run_cohort_noting_its_cores(cfg, keys, cores=1):
            seen.append(cores)
            return real_run_cohort(cfg, keys, cores)

        monkeypatch.setattr(benchmark, "run_cohort", run_cohort_noting_its_cores)
        assert run_benchmark(cfg, parallelism=2)["completed"] == 1
        assert seen == [2]

    def test_gamma_split_with_empty_clients_runs(self, tmp_path):
        # 8 rows over 6 clients at similarity 0.5 leave two gamma clients
        # empty until they take a sample each from the largest.
        tweaks = {**distribution("gamma_similarity_niid", 0.5), "benchmark_config.nb_honest_clients": 6,
                  "model.dataset_params.train_size": 8}
        summary = run_benchmark(parse_config(tiny_config_text(tmp_path / "results", **tweaks)))
        assert summary["failed"] == 0 and summary["completed"] == 1, summary["failures"]

    def test_rejects_bad_parallelism(self, tmp_path):
        cfg = parse_config(tiny_config_text(tmp_path / "results"))
        with pytest.raises(ValueError, match="parallelism must be >= 1"):
            run_benchmark(cfg, parallelism=0)
