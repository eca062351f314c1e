import functools
import json
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest
from config_fixtures import SAMPLE_CONFIG, tiny_config_text

from robustfl import benchmark
from robustfl.benchmark import (
    ExperimentKey,
    RuleConfig,
    expand_grid,
    list_results,
    parse_config,
    read_result,
    run_benchmark,
    run_single,
    strip_json_comments,
    write_result,
)

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
        assert cfg.model.name == "cnn_mnist"
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
        with pytest.raises(ValueError, match="distribution_parameter is required for dirichlet_niid"):
            parse_config(
                tiny_config_text("/tmp/x", **{"benchmark_config.data_distribution": [{"name": "dirichlet_niid"}]})
            )

    def test_bad_training_algorithm(self):
        with pytest.raises(ValueError, match="must be 'DSGD' or 'FedAvg'"):
            parse_config(tiny_config_text("/tmp/x", **{"benchmark_config.training_algorithm": {"name": "SCAFFOLD"}}))

    def test_fedavg_parameters_checked_eagerly(self):
        algo = {"name": "FedAvg", "parameters": {"proportion_selected_clients": 0.0}}
        with pytest.raises(ValueError, match=r"proportion must lie in \(0, 1\]"):
            parse_config(tiny_config_text("/tmp/x", **{"benchmark_config.training_algorithm": algo}))
        algo = {"name": "FedAvg", "parameters": {"local_steps": 5}}
        with pytest.raises(ValueError, match="unknown key 'local_steps'"):
            parse_config(tiny_config_text("/tmp/x", **{"benchmark_config.training_algorithm": algo}))

    def test_rule_names_checked_eagerly(self):
        with pytest.raises(ValueError, match="unknown aggregator 'Krumm'"):
            parse_config(tiny_config_text("/tmp/x", aggregator=[{"name": "Krumm"}]))
        with pytest.raises(ValueError, match="unknown attack 'Backdoor'"):
            parse_config(tiny_config_text("/tmp/x", attack=[{"name": "Backdoor"}]))
        with pytest.raises(ValueError, match="unknown pre-aggregator 'Smoothing'"):
            parse_config(tiny_config_text("/tmp/x", pre_aggregators=[{"name": "Smoothing"}]))

    def test_range_validation(self):
        cases = {
            "benchmark_config.nb_steps": (0, "nb_steps must be >= 1"),
            "benchmark_config.nb_honest_clients": (0, "nb_honest_clients must be >= 1"),
            "benchmark_config.f": ([-1], r"f\[\] must be >= 0"),
            "model.learning_rate": (0.0, "learning_rate must be positive"),
            "model.learning_rate_decay": (1.5, r"learning_rate_decay must lie in \(0, 1\]"),
            "model.loss": ("MSE", "only 'NLLLoss' is supported"),
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


class TestExperimentKey:
    def test_documented_id_layout(self):
        key = ExperimentKey(
            aggregator=RuleConfig("TrMean"),
            pre_aggregators=[RuleConfig("Clipping", {"c": 2.0}), RuleConfig("NNM")],
            attack=RuleConfig("SignFlipping"),
            f=2,
            distribution_name="gamma_similarity_niid",
            distribution_parameter=0.33,
            seed=1,
        )
        assert key.run_id == "TrMean_Clipping-NNM_SignFlipping_f2_gamma0.33_seed1"

    def test_parameters_enter_the_rule_tokens(self):
        key = ExperimentKey(
            aggregator=RuleConfig("CenteredClipping", {"tau": 2.0, "iters": 5.0}),
            pre_aggregators=[],
            attack=RuleConfig("InnerProductManipulation", {"tau": 0.5}),
            f=0,
            distribution_name="dirichlet_niid",
            distribution_parameter=0.5,
            seed=0,
        )
        assert key.run_id == "CenteredClipping-iters5-tau2_InnerProductManipulation-tau0.5_f0_dirichlet0.5_seed0"

    def test_underscores_in_names_are_sanitized(self):
        key = ExperimentKey(
            aggregator=RuleConfig("Average"),
            pre_aggregators=[],
            attack=RuleConfig("Optimal_ALittleIsEnough"),
            f=3,
            distribution_name="iid",
            distribution_parameter=0.0,
            seed=2,
        )
        assert key.run_id == "Average_Optimal-ALittleIsEnough_f3_iid0_seed2"

    def test_json_round_trip(self):
        key = ExperimentKey(
            aggregator=RuleConfig("MoNNA", {"pivot": 0.0}),
            pre_aggregators=[RuleConfig("NNM")],
            attack=RuleConfig("ALittleIsEnough", {"tau": 1.5}),
            f=1,
            distribution_name="gamma_similarity_niid",
            distribution_parameter=0.66,
            seed=4,
        )
        assert ExperimentKey.from_json_dict(json.loads(json.dumps(key.to_json_dict()))) == key


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
        text = tiny_config_text("/tmp/x", aggregator=[{"name": "Median"}, {"name": "Median"}])
        with pytest.raises(ValueError, match="duplicate run id"):
            expand_grid(parse_config(text))


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
        cfg = parse_config(tiny_config_text(tmp_path / "results", **{"model.dataset_name": "cifar"}))
        with pytest.raises(ValueError, match="unknown dataset_name 'cifar'"):
            run_single(cfg, expand_grid(cfg)[0])
        cfg = parse_config(tiny_config_text(tmp_path / "results", **{"model.name": "transformer"}))
        with pytest.raises(ValueError, match="unknown model 'transformer'"):
            run_single(cfg, expand_grid(cfg)[0])

    def test_cnn_mnist_substitution_warns(self, tmp_path, caplog):
        import logging

        cfg = parse_config(tiny_config_text(tmp_path / "results", **{"model.name": "cnn_mnist", "model.hidden": 8}))
        with caplog.at_level(logging.WARNING, logger="robustfl.benchmark"):
            run_single(cfg, expand_grid(cfg)[0])
        assert "substituting the MLP" in caplog.text


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
        real_run_single = benchmark.run_single

        def run_single_or_die(cfg, key):
            # The victim dies like an OOM-killed worker once the other runs are
            # on disk and their results have had time to reach the parent.
            if key.run_id != victim:
                return real_run_single(cfg, key)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and not all((results / r / "metrics.csv").exists() for r in others):
                time.sleep(0.01)
            time.sleep(0.5)
            os._exit(1)

        # Forked workers inherit the patched module attribute.
        monkeypatch.setattr(benchmark, "run_single", run_single_or_die)
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

    def test_rejects_bad_parallelism(self, tmp_path):
        cfg = parse_config(tiny_config_text(tmp_path / "results"))
        with pytest.raises(ValueError, match="parallelism must be >= 1"):
            run_benchmark(cfg, parallelism=0)
