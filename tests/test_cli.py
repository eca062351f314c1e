import io
import json
import logging
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from config_fixtures import HUGE_INT, NON_FINITE_CASES, SAMPLE_CONFIG, tiny_config_text

from robustfl import benchmark
from robustfl.aggregators import AggregatorSpec
from robustfl.attacks import AttackSpec
from robustfl.benchmark import ExperimentKey, ExperimentResult, write_result
from robustfl.cli import entrypoint, format_value

X3_TEXT = "1,2,3\n4,5,6\n7,8,9\n"
REPO = Path(__file__).resolve().parents[1]
SAMPLE_GRID = REPO / "scripts" / "sample_config.json"


def run_cli(capsys, *argv):
    code = entrypoint(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_vector(out: str) -> list[float]:
    return [float(v) for v in out.strip().split(",")]


@pytest.fixture
def x3_csv(tmp_path):
    path = tmp_path / "x3.csv"
    path.write_text(X3_TEXT)
    return str(path)


class TestFormatValue:
    def test_round_trip_precision(self):
        for value in (1 / 3, 2.5, 1e-17, 123456.789, -0.25):
            assert float(format_value(value)) == value

    def test_negative_zero_prints_as_zero(self):
        assert format_value(-0.0) == "0"


class TestAgg:
    def test_multi_krum_with_nnm_golden(self, capsys, x3_csv):
        code, out, _ = run_cli(capsys, "agg", "--rule", "MultiKrum", "--f", "1", "--pre", "NNM", "--input", x3_csv)
        assert code == 0
        assert out.strip() == "2.5,3.5,4.5"
        np.testing.assert_allclose(parse_vector(out), [2.5, 3.5, 4.5], atol=1e-9)

    def test_average_reads_stdin_by_default(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(X3_TEXT))
        code, out, _ = run_cli(capsys, "agg", "--rule", "Average")
        assert code == 0
        assert out.strip() == "4,5,6"

    def test_trmean_discards_the_flipped_row(self, capsys, tmp_path):
        path = tmp_path / "x4.csv"
        path.write_text(X3_TEXT + "-4,-5,-6\n")
        code, out, _ = run_cli(capsys, "agg", "--rule", "TrMean", "--f", "1", "--input", str(path))
        assert code == 0
        np.testing.assert_allclose(parse_vector(out), [2.5, 3.5, 4.5], atol=1e-9)

    def test_unknown_rule_is_a_usage_error_naming_the_rules(self, capsys, x3_csv):
        with pytest.raises(SystemExit) as excinfo:
            entrypoint(["agg", "--rule", "Unknown", "--input", x3_csv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "MultiKrum" in err and "GeometricMedian" in err

    def test_pre_aggregator_parameters(self, capsys, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("3,4\n")
        code, out, _ = run_cli(capsys, "agg", "--rule", "Average", "--pre", "Clipping:c=2", "--input", str(path))
        assert code == 0
        np.testing.assert_allclose(parse_vector(out), [1.2, 1.6], atol=1e-12)

    def test_bucketing_seed_is_deterministic(self, capsys, x3_csv):
        args = ("agg", "--rule", "Median", "--pre", "Bucketing:s=2", "--seed", "5", "--input", x3_csv)
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_comments_and_blank_lines_are_skipped(self, capsys, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("# header\n\n1,2\n3,4\n")
        code, out, _ = run_cli(capsys, "agg", "--rule", "Average", "--input", str(path))
        assert code == 0
        assert out.strip() == "2,3"

    @pytest.mark.parametrize("pre", [(), ("--pre", "NNM")])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_exits_one(self, capsys, tmp_path, bad, pre):
        path = tmp_path / "bad.csv"
        path.write_text(f"1,2\n3,{bad}\n5,6\n")
        code, out, err = run_cli(capsys, "agg", "--rule", "TrMean", "--f", "1", *pre, "--input", str(path))
        assert code == 1 and out == ""
        assert "matrix contains NaN or Inf" in err

    def test_ragged_rows_report_the_line_number(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n")
        code, _, err = run_cli(capsys, "agg", "--rule", "Average", "--input", str(path))
        assert code == 2
        assert "line 2: expected 2 values, got 1" in err

    def test_non_numeric_cell(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,x\n")
        code, _, err = run_cli(capsys, "agg", "--rule", "Average", "--input", str(path))
        assert code == 2
        assert "line 1" in err

    def test_empty_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, _, err = run_cli(capsys, "agg", "--rule", "Average")
        assert code == 2
        assert "no vectors" in err

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "agg", "--rule", "Average", "--input", str(tmp_path / "nope.csv"))
        assert code == 2
        assert "cannot read" in err

    def test_domain_violation_exits_one(self, capsys, x3_csv):
        code, _, err = run_cli(capsys, "agg", "--rule", "TrMean", "--f", "2", "--input", x3_csv)
        assert code == 1
        assert "TrMean requires n > 2f" in err

    def test_param_too_large_for_a_float_exits_one(self, capsys, x3_csv):
        param = f"tau={HUGE_INT}"
        code, _, err = run_cli(capsys, "agg", "--rule", "CenteredClipping", "--param", param, "--input", x3_csv)
        assert code == 1
        assert "CenteredClipping parameter tau must be finite" in err

    def test_bad_param_value_is_a_usage_error(self, capsys, x3_csv):
        code, _, err = run_cli(capsys, "agg", "--rule", "CenteredClipping", "--param", "tau=big", "--input", x3_csv)
        assert code == 2
        assert "must be numeric" in err


class TestAttack:
    def test_sign_flipping_golden(self, capsys, x3_csv):
        code, out, _ = run_cli(capsys, "attack", "--name", "SignFlipping", "--input", x3_csv)
        assert code == 0
        assert out.strip() == "-4,-5,-6"

    def test_inner_product_tau_zero_prints_plain_zeros(self, capsys, x3_csv):
        code, out, _ = run_cli(capsys, "attack", "--name", "InnerProductManipulation", "--tau", "0", "--input", x3_csv)
        assert code == 0
        assert out.strip() == "0,0,0"

    def test_default_tau_matches_the_library_default(self, capsys, x3_csv):
        code, out, _ = run_cli(capsys, "attack", "--name", "InnerProductManipulation", "--input", x3_csv)
        assert code == 0
        np.testing.assert_allclose(parse_vector(out), [-3.6, -4.5, -5.4], atol=1e-12)

    def test_empty_stdin_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, _, err = run_cli(capsys, "attack", "--name", "SignFlipping")
        assert code == 2
        assert "no vectors" in err

    def test_unknown_attack_name(self, capsys, x3_csv):
        with pytest.raises(SystemExit) as excinfo:
            entrypoint(["attack", "--name", "Backdoor", "--input", x3_csv])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestRun:
    def test_summary_line_and_exit_zero(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(tiny_config_text(tmp_path / "results"))
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        assert out.strip() == '{"completed": 1, "failed": 0, "failures": [], "skipped": 0}'
        assert json.loads(out) == {"completed": 1, "failed": 0, "failures": [], "skipped": 0}

    def test_rerun_skips(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(tiny_config_text(tmp_path / "results"))
        run_cli(capsys, "run", "--config", str(cfg))
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["skipped"] == 1

    def test_config_defaults_to_cwd_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(tiny_config_text(tmp_path / "results"))
        code, out, _ = run_cli(capsys, "run")
        assert code == 0
        assert json.loads(out)["completed"] == 1

    def test_failures_exit_one(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            tiny_config_text(
                tmp_path / "results",
                **{"benchmark_config.nb_honest_clients": 2, "benchmark_config.f": [2]},
            )
        )
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        summary = json.loads(out)
        assert summary["failed"] == 1
        assert "TrMean requires n > 2f" in summary["failures"][0][1]

    def test_parallel_flag(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(tiny_config_text(tmp_path / "results", **{"benchmark_config.nb_training_seeds": 2}))
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--parallel", "2")
        assert code == 0
        assert json.loads(out)["completed"] == 2

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--config", str(tmp_path / "missing.json"))
        assert code == 2
        assert "error:" in err

    def test_invalid_config_exits_one_naming_the_field(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(tiny_config_text(tmp_path / "results", **{"model.learning_rate": 0.0}))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "learning_rate" in err


class TestPlot:
    @pytest.fixture
    def results_dir(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            tiny_config_text(
                tmp_path / "results",
                attack=[{"name": "SignFlipping", "parameters": {}}, {"name": "LabelFlipping", "parameters": {}}],
            )
        )
        assert entrypoint(["run", "--config", str(cfg)]) == 0
        capsys.readouterr()
        return tmp_path / "results"

    def test_curves(self, capsys, results_dir, tmp_path):
        out_dir = tmp_path / "plots"
        code, out, _ = run_cli(capsys, "plot", "curve", "--results", str(results_dir), "--out", str(out_dir))
        assert code == 0
        assert json.loads(out) == {"files": 2, "warnings": 0}
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "curve_TrMean_f1_iid0.csv",
            "curve_TrMean_f1_iid0.svg",
        ]

    def test_heatmaps(self, capsys, results_dir, tmp_path):
        out_dir = tmp_path / "plots"
        code, out, _ = run_cli(capsys, "plot", "heatmap", "--results", str(results_dir), "--out", str(out_dir))
        assert code == 0
        assert json.loads(out) == {"files": 2, "warnings": 0}
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "heatmap_TrMean_iid.csv",
            "heatmap_TrMean_iid.svg",
        ]

    def test_empty_results_warn_but_succeed(self, capsys, tmp_path, caplog):
        out_dir = tmp_path / "plots"
        with caplog.at_level(logging.WARNING):
            code, out, _ = run_cli(capsys, "plot", "curve", "--results", str(tmp_path / "none"), "--out", str(out_dir))
        assert code == 0
        assert json.loads(out) == {"files": 0, "warnings": 1}
        assert "no completed runs to plot" in caplog.text

    def test_key_json_naming_an_unknown_aggregator_exits_one_naming_the_file(self, capsys, results_dir, tmp_path):
        key_path = next(results_dir.glob("*/key.json"))
        key = json.loads(key_path.read_text())
        key["aggregator"]["name"] = "Krumm"
        key_path.write_text(json.dumps(key))
        code, out, err = run_cli(capsys, "plot", "curve", "--results", str(results_dir), "--out", str(tmp_path / "p"))
        assert code == 1 and out == ""
        assert f"{key_path}: aggregator: unknown aggregator 'Krumm'" in err

    def test_key_json_missing_a_key_exits_one_naming_the_file(self, capsys, results_dir, tmp_path):
        key_path = next(results_dir.glob("*/key.json"))
        key = json.loads(key_path.read_text())
        del key["seed"]
        key_path.write_text(json.dumps(key))
        code, out, err = run_cli(capsys, "plot", "heatmap", "--results", str(results_dir), "--out", str(tmp_path / "p"))
        assert code == 1 and out == ""
        assert f"{key_path}: missing seed" in err

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda key: [1, 2], "key.json must be an object, got [1, 2]"),
            (lambda key: dict(key, data_distribution=[1, 2]), "data_distribution must be an object, got [1, 2]"),
            (lambda key: dict(key, data_distribution={"name": "iid"}), "missing data_distribution.parameter"),
            (lambda key: dict(key, pre_aggregators=["NNM"]), "pre_aggregators[0] must be an object, got 'NNM'"),
            (lambda key: dict(key, f="1"), "f must be an integer, got '1'"),
            (lambda key: dict(key, extra=1), "unknown top-level key: 'extra'"),
        ],
        ids=["list", "distribution-list", "distribution-without-parameter", "rule-string", "f-string", "extra-key"],
    )
    def test_malformed_key_json_exits_one_naming_the_file_and_key(self, capsys, results_dir, tmp_path, damage, message):
        key_path = next(results_dir.glob("*/key.json"))
        key_path.write_text(json.dumps(damage(json.loads(key_path.read_text()))))
        code, out, err = run_cli(capsys, "plot", "curve", "--results", str(results_dir), "--out", str(tmp_path / "p"))
        assert code == 1 and out == ""
        assert f"{key_path}: {message}" in err

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda text: "", "needs the header step,test_accuracy,train_loss,... and at least one row"),
            (lambda text: text.splitlines()[0] + "\n", "needs the header"),
            (lambda text: text.rstrip("\n") + ",1\n", "has 4 cells, the header 3"),
            (lambda text: text.rsplit(",", 1)[0] + "\n", "has 2 cells, the header 3"),
            (lambda text: text.rsplit(",", 1)[0] + ",abc\n", "could not convert string to float: 'abc'"),
            (lambda text: "step,accuracy,loss\n" + text.split("\n", 1)[1], "needs the header"),
        ],
        ids=["empty", "header-only", "row-a-cell-long", "row-a-cell-short", "non-numeric", "wrong-header"],
    )
    def test_malformed_metrics_csv_exits_one_naming_the_file(self, capsys, results_dir, tmp_path, damage, message):
        metrics = next(results_dir.glob("*/metrics.csv"))
        metrics.write_text(damage(metrics.read_text()))
        code, out, err = run_cli(capsys, "plot", "curve", "--results", str(results_dir), "--out", str(tmp_path / "p"))
        assert code == 1 and out == ""
        assert f"error: {metrics}: " in err and message in err

    def test_bad_kind_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            entrypoint(["plot", "scatter", "--results", str(tmp_path), "--out", str(tmp_path)])
        assert excinfo.value.code == 2


class TestValidate:
    def test_sample_config_key_count(self, capsys, tmp_path):
        cfg = tmp_path / "sample.json"
        cfg.write_text(SAMPLE_CONFIG)
        code, out, _ = run_cli(capsys, "validate", "--config", str(cfg))
        assert code == 0
        assert out.strip() == "144"

    def test_invalid_config_exits_one_naming_the_field(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(tiny_config_text(tmp_path / "results", **{"honest_clients.momentum": 2.0}))
        code, _, err = run_cli(capsys, "validate", "--config", str(cfg))
        assert code == 1
        assert "momentum" in err

    @pytest.mark.parametrize("tweaks, message", NON_FINITE_CASES.values(), ids=NON_FINITE_CASES)
    def test_nan_or_infinity_exits_one_naming_the_field(self, capsys, tmp_path, tweaks, message):
        cfg = tmp_path / "non_finite.json"
        cfg.write_text(tiny_config_text(tmp_path / "results", **tweaks))
        code, out, err = run_cli(capsys, "validate", "--config", str(cfg))
        assert code == 1 and out == ""
        assert message in err

    def test_misspelt_nested_key_exits_one_naming_its_path(self, capsys, tmp_path):
        cfg = tmp_path / "typo.json"
        cfg.write_text(tiny_config_text(tmp_path / "results", **{"honest_clients.momentun": 0.9}))
        code, out, err = run_cli(capsys, "validate", "--config", str(cfg))
        assert code == 1 and out == ""
        assert "unknown key 'honest_clients.momentun'" in err

    @pytest.mark.parametrize(
        "tweaks, keys",
        [
            ({"model.dataset_params.train_size": 2}, ("train_size", "model.dataset_params.n_classes")),
            ({"model.dataset_params.test_size": 2}, ("test_size", "model.dataset_params.n_classes")),
            ({"benchmark_config.nb_honest_clients": 5, "model.dataset_params.train_size": 4},
             ("train_size", "benchmark_config.nb_honest_clients")),
        ],
        ids=["train-below-classes", "test-below-classes", "train-below-clients"],
    )
    def test_blob_size_below_another_key_exits_one(self, capsys, tmp_path, tweaks, keys):
        cfg = tmp_path / "small.json"
        cfg.write_text(tiny_config_text(tmp_path / "results", **tweaks))
        code, out, err = run_cli(capsys, "validate", "--config", str(cfg))
        assert code == 1 and out == ""
        assert f"model.dataset_params.{keys[0]}" in err and keys[1] in err

    @pytest.mark.parametrize("name, key", [("MoNNA", "pivot"), ("CenteredClipping", "iters")])
    def test_401_digit_integer_parameter_exits_one_naming_it(self, capsys, tmp_path, name, key):
        cfg = tmp_path / "huge.json"
        huge = [{"name": name, "parameters": {key: 10**400}}]
        cfg.write_text(tiny_config_text(tmp_path / "results", aggregator=huge))
        code, out, err = run_cli(capsys, "validate", "--config", str(cfg))
        assert code == 1 and out == ""
        assert f"{name} parameter {key} is too large for a run id to spell" in err

    def test_cnn_mnist_exits_one(self, capsys, tmp_path):
        cfg = tmp_path / "cnn.json"
        cfg.write_text(tiny_config_text(tmp_path / "results", **{"model.name": "cnn_mnist"}))
        code, out, err = run_cli(capsys, "validate", "--config", str(cfg))
        assert code == 1 and out == ""
        assert "model.name must be 'linear' or 'mlp', got 'cnn_mnist'" in err

    MONNA = {"name": "MoNNA", "parameters": {"pivot": 9}}
    FEDAVG = {"name": "FedAvg", "parameters": {"proportion_selected_clients": 0.5}}

    @pytest.mark.parametrize("tweaks, message", [
        ({"benchmark_config.f": [3]}, "run TrMean_SignFlipping_f3_iid0_seed0: TrMean requires n > 2f (got n=6, f=3)"),
        ({"aggregator": [MONNA]}, "run MoNNA-pivot9_SignFlipping_f1_iid0_seed0: pivot must lie in [0, 4), got 9"),
        # 3 honest clients and f = 1 give 4 rows; FedAvg samples 2 of the 3, Bucketing halves the 4.
        ({"aggregator": [dict(MONNA, parameters={"pivot": 3})], "benchmark_config.training_algorithm": FEDAVG},
         "run MoNNA-pivot3_SignFlipping_f1_iid0_seed0: pivot must lie in [0, 3), got 3"),
        ({"aggregator": [dict(MONNA, parameters={"pivot": 2})],
          "pre_aggregators": [{"name": "Bucketing", "parameters": {"s": 2}}]},
         "run MoNNA-pivot2_Bucketing_SignFlipping_f1_iid0_seed0: pivot must lie in [0, 2), got 2"),
        ({"aggregator": [{"name": "MDA", "parameters": {}}], "benchmark_config.nb_honest_clients": 25},
         "run MDA_SignFlipping_f1_iid0_seed0: MDA enumerates subsets and requires n <= 25, got n=26"),
        ({"aggregator": [{"name": "Median", "parameters": {}}, {"name": "TrMean", "parameters": {}}],
          "benchmark_config.f": [0, 3], "benchmark_config.nb_training_seeds": 2},
         "run TrMean_SignFlipping_f3_iid0_seed0: TrMean requires n > 2f"),
    ], ids=["trmean-f", "monna-pivot", "fedavg-sampled-rows", "bucketed-rows", "mda-rows", "first-failing-run"])
    def test_run_that_cannot_aggregate_exits_one_naming_it(self, capsys, tmp_path, tweaks, message):
        cfg = tmp_path / "infeasible.json"
        cfg.write_text(tiny_config_text(tmp_path / "results", **tweaks))
        code, out, err = run_cli(capsys, "validate", "--config", str(cfg))
        assert code == 1 and out == ""
        assert f"error: {message}" in err

    def test_each_server_setup_and_f_aggregates_once(self, capsys, monkeypatch):
        built = []
        real = benchmark.build_pipeline
        monkeypatch.setattr(benchmark, "build_pipeline", lambda *args, **kw: built.append(args) or real(*args, **kw))
        code, out, _ = run_cli(capsys, "validate", "--config", str(SAMPLE_GRID))
        assert code == 0 and out.strip() == "32"
        assert [(spec.name, spec.f) for spec, _ in built] == [("Median", 1), ("Median", 2), ("TrMean", 1), ("TrMean", 2)]

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", "--config", str(tmp_path / "missing.json"))
        assert code == 2
        assert "error:" in err

    def test_config_flag_is_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            entrypoint(["validate"])
        assert excinfo.value.code == 2


class TestTextFilesAreUtf8:
    """Configs are read and plots written as UTF-8 whatever the locale's encoding."""

    ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}

    def robustfl(self, *argv):
        env = {**os.environ, **self.ASCII_LOCALE, "PYTHONPATH": str(REPO / "src")}
        return subprocess.run([sys.executable, "-m", "robustfl.cli", *argv], capture_output=True, text=True, env=env)

    def test_heatmap_with_a_missing_cell(self, tmp_path):
        for f in (0, 1):
            for gamma in (0.5, 1.0):
                if (f, gamma) != (1, 1.0):
                    key = ExperimentKey(AggregatorSpec("Median", f=f), [], AttackSpec("SignFlipping"), f,
                                        "gamma_similarity_niid", gamma, 0)
                    write_result(tmp_path / "results", ExperimentResult(key, [0, 1], [0.5, 0.75], [1.0, 0.5]))
        run = self.robustfl("plot", "heatmap", "--results", str(tmp_path / "results"), "--out", str(tmp_path / "plots"))
        assert (run.returncode, run.stdout.strip()) == (0, '{"files": 2, "warnings": 1}'), run.stderr
        svg = (tmp_path / "plots" / "heatmap_Median_gamma.svg").read_bytes()
        assert ">–<".encode("utf-8") in svg
        ET.fromstring(svg)

    def test_validate_reads_a_non_ascii_comment(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("// Réglages: σ = 1\n" + SAMPLE_GRID.read_text(encoding="utf-8"), encoding="utf-8")
        run = self.robustfl("validate", "--config", str(cfg))
        assert (run.returncode, run.stdout.strip()) == (0, "32"), run.stderr
