import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustfl.aggregators import AggregatorSpec
from robustfl.attacks import AttackSpec
from robustfl.benchmark import ExperimentKey, ExperimentResult
from robustfl.evaluate import emit_curves, emit_heatmaps, worst_case_maximal_accuracy
from robustfl.preaggregators import PreAggregatorSpec
from robustfl.svgplot import ramp_color, render_heatmap, render_line_chart


def make_result(
    accuracy,
    aggregator="Median",
    pre_aggregators=(),
    attack="SignFlipping",
    f=1,
    distribution_name="gamma_similarity_niid",
    distribution_parameter=1.0,
    seed=0,
):
    key = ExperimentKey(
        aggregator=AggregatorSpec(aggregator, f=f),
        pre_aggregators=[PreAggregatorSpec(*pre, f=f) for pre in pre_aggregators],
        attack=AttackSpec(attack),
        f=f,
        distribution_name=distribution_name,
        distribution_parameter=distribution_parameter,
        seed=seed,
    )
    accuracy = list(accuracy)
    return ExperimentResult(
        key=key,
        steps=list(range(len(accuracy))),
        test_accuracy=accuracy,
        train_loss=[0.0] * len(accuracy),
    )


class TestWorstCaseMaximalAccuracy:
    def test_minimum_over_attacks(self):
        series = {
            "SignFlipping": [[0.5, 0.6, 0.55]],
            "ALittleIsEnough": [[0.9, 0.7, 0.85]],
        }
        assert worst_case_maximal_accuracy(series) == 0.6

    def test_best_step_not_last_step(self):
        assert worst_case_maximal_accuracy({"SignFlipping": [[0.1, 0.9, 0.7]]}) == 0.9

    def test_seeds_averaged_before_the_minimum(self):
        series = {"SignFlipping": [[0.8, 0.0], [0.2, 0.6]]}
        assert worst_case_maximal_accuracy(series) == pytest.approx(0.7, abs=1e-15)

    def test_never_exceeds_any_single_attack_score(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            series = {
                f"attack{i}": [list(rng.uniform(0.0, 1.0, size=rng.integers(1, 6))) for _ in range(3)]
                for i in range(rng.integers(1, 5))
            }
            score = worst_case_maximal_accuracy(series)
            assert 0.0 <= score <= 1.0
            for seed_series in series.values():
                per_attack = sum(max(s) for s in seed_series) / len(seed_series)
                assert score <= per_attack + 1e-15

    def test_adding_an_attack_never_raises_the_score(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            base = {"a": [list(rng.uniform(0.0, 1.0, size=4))]}
            extended = dict(base)
            extended["b"] = [list(rng.uniform(0.0, 1.0, size=4))]
            assert worst_case_maximal_accuracy(extended) <= worst_case_maximal_accuracy(base)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError, match="at least one attack"):
            worst_case_maximal_accuracy({})
        with pytest.raises(ValueError, match="no seed series"):
            worst_case_maximal_accuracy({"a": []})
        with pytest.raises(ValueError, match="empty accuracy series"):
            worst_case_maximal_accuracy({"a": [[]]})


class TestEmitCurves:
    def test_one_column_per_attack(self, tmp_path):
        results = []
        for attack in ("SignFlipping", "ALittleIsEnough", "LabelFlipping"):
            for seed in (0, 1):
                results.append(make_result([0.2 + seed / 10, 0.5, 0.8], attack=attack, seed=seed))
        files, warnings = emit_curves(results, tmp_path)
        assert warnings == []
        assert [p.name for p in files] == ["curve_Median_f1_gamma1.csv", "curve_Median_f1_gamma1.svg"]
        lines = files[0].read_text().splitlines()
        assert lines[0] == "step,ALittleIsEnough,LabelFlipping,SignFlipping"
        assert len(lines) == 4
        first_row = lines[1].split(",")
        assert first_row[0] == "0"
        assert [float(v) for v in first_row[1:]] == [pytest.approx(0.25)] * 3

    def test_seed_average_is_exact(self, tmp_path):
        a, b = [0.12345678901234567, 0.5], [0.3, 0.9876543210987654]
        files, _ = emit_curves([make_result(a, seed=0), make_result(b, seed=1)], tmp_path)
        rows = files[0].read_text().splitlines()[1:]
        for i, row in enumerate(rows):
            assert row.split(",")[1] == repr(sum((a[i], b[i])) / 2)

    def test_seeds_enter_in_seed_order_whatever_the_input_order(self, tmp_path):
        # Float addition is not associative: 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1.
        results = [make_result([value], seed=seed) for seed, value in ((2, 0.3), (1, 0.2), (0, 0.1))]
        curve, _ = emit_curves(results, tmp_path / "curve")
        heatmap, _ = emit_heatmaps(results, tmp_path / "heatmap")
        expected = repr((0.1 + 0.2 + 0.3) / 3)
        assert curve[0].read_text().splitlines()[1] == f"0,{expected}"
        assert heatmap[0].read_text().splitlines()[1] == f"1,{expected}"

    def test_groups_split_by_configuration(self, tmp_path):
        results = [
            make_result([0.5], aggregator="TrMean", pre_aggregators=(("Clipping", {"c": 2.0}), ("NNM",)), f=2,
                        distribution_parameter=0.33),
            make_result([0.5], aggregator="Median", distribution_name="iid", distribution_parameter=0.0),
            make_result([0.5], aggregator="Median", f=3),
        ]
        files, _ = emit_curves(results, tmp_path)
        assert [p.name for p in files if p.suffix == ".csv"] == [
            "curve_Median_f1_iid0.csv",
            "curve_Median_f3_gamma1.csv",
            "curve_TrMean_Clipping-NNM_f2_gamma0.33.csv",
        ]

    def test_no_results(self, tmp_path):
        files, warnings = emit_curves([], tmp_path)
        assert files == []
        assert warnings == ["no completed runs to plot"]
        assert list(tmp_path.iterdir()) == []

    def test_uneven_seed_lengths_truncate_with_warning(self, tmp_path):
        results = [make_result([0.1, 0.2, 0.3], seed=0), make_result([0.4, 0.5], seed=1)]
        files, warnings = emit_curves(results, tmp_path)
        assert len(warnings) == 1 and "truncating to 2 points" in warnings[0]
        assert len(files[0].read_text().splitlines()) == 3

    def test_axis_pinned_to_unit_interval(self, tmp_path):
        files, _ = emit_curves([make_result([0.41, 0.42, 0.43])], tmp_path)
        svg = files[1].read_text()
        assert ">0.25<" in svg and ">0.75<" in svg


class TestEmitHeatmaps:
    @staticmethod
    def full_grid(values_by_cell, attacks=("SignFlipping", "ALittleIsEnough"), seeds=(0, 1)):
        """One result per (cell, attack, seed); values_by_cell[(f, param)][attack][seed] is a series."""
        results = []
        for (f, param), by_attack in values_by_cell.items():
            for attack in attacks:
                for seed in seeds:
                    results.append(
                        make_result(by_attack[attack][seed], attack=attack, f=f,
                                    distribution_parameter=param, seed=seed)
                    )
        return results

    @staticmethod
    def grid_values(rng, fs=(1, 2), params=(0.33, 0.66), attacks=("SignFlipping", "ALittleIsEnough"), n_seeds=2):
        return {
            (f, p): {a: [rng.uniform(0.0, 1.0, size=3).tolist() for _ in range(n_seeds)] for a in attacks}
            for f in fs
            for p in params
        }

    def test_cells_match_independent_recomputation(self, tmp_path):
        cells = self.grid_values(np.random.default_rng(3))
        files, warnings = emit_heatmaps(self.full_grid(cells), tmp_path)
        assert warnings == []
        assert [p.name for p in files] == ["heatmap_Median_gamma.csv", "heatmap_Median_gamma.svg"]
        lines = files[0].read_text().splitlines()
        assert lines[0] == "f,0.33,0.66"
        for row, f in zip(lines[1:], (1, 2)):
            tokens = row.split(",")
            assert tokens[0] == str(f)
            for text, param in zip(tokens[1:], (0.33, 0.66)):
                assert text == repr(worst_case_maximal_accuracy(cells[(f, param)]))

    def test_rows_and_columns_sorted(self, tmp_path):
        cells = self.grid_values(np.random.default_rng(4), fs=(4, 1, 2), params=(0.9, 0.1))
        results = self.full_grid(cells)
        results.reverse()
        files, _ = emit_heatmaps(results, tmp_path)
        lines = files[0].read_text().splitlines()
        assert lines[0] == "f,0.1,0.9"
        assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "4"]

    def test_missing_cell_renders_as_gap(self, tmp_path):
        cells = self.grid_values(np.random.default_rng(5))
        del cells[(2, 0.66)]
        files, warnings = emit_heatmaps(self.full_grid(cells), tmp_path)
        assert any("no runs for f=2, parameter=0.66" in w for w in warnings)
        last_row = files[0].read_text().splitlines()[-1]
        assert last_row.endswith(",")
        svg = files[1].read_text()
        assert "#d9d9d9" in svg and ">–<" in svg

    def test_missing_attack_warns_but_still_scores(self, tmp_path):
        cells = self.grid_values(np.random.default_rng(6))
        results = [
            r
            for r in self.full_grid(cells)
            if not (r.key.f == 1 and r.key.distribution_parameter == 0.33 and r.key.attack.name == "SignFlipping")
        ]
        files, warnings = emit_heatmaps(results, tmp_path)
        assert any("lacks attacks ['SignFlipping']" in w for w in warnings)
        value = files[0].read_text().splitlines()[1].split(",")[1]
        only = {"ALittleIsEnough": cells[(1, 0.33)]["ALittleIsEnough"]}
        assert value == repr(worst_case_maximal_accuracy(only))

    def test_svg_colors_follow_the_csv_values(self, tmp_path):
        cells = self.grid_values(np.random.default_rng(8))
        files, _ = emit_heatmaps(self.full_grid(cells), tmp_path)
        svg = files[1].read_text()
        for row in files[0].read_text().splitlines()[1:]:
            for text in row.split(",")[1:]:
                value = float(text)
                assert f'fill="{ramp_color(value)}"' in svg
                assert f">{value:.2f}<" in svg

    def test_color_scale_pinned_to_unit_interval(self, tmp_path):
        cells = {(1, 0.33): {"SignFlipping": [[0.9]]}}
        files, _ = emit_heatmaps(self.full_grid(cells, attacks=("SignFlipping",), seeds=(0,)), tmp_path)
        assert f'fill="{ramp_color(0.9)}"' in files[1].read_text()

    def test_one_board_per_aggregator_and_distribution(self, tmp_path):
        results = [
            make_result([0.5], aggregator="TrMean"),
            make_result([0.5], aggregator="Median"),
            make_result([0.5], aggregator="Median", distribution_name="iid", distribution_parameter=0.0),
        ]
        files, _ = emit_heatmaps(results, tmp_path)
        assert [p.name for p in files if p.suffix == ".csv"] == [
            "heatmap_Median_gamma.csv",
            "heatmap_Median_iid.csv",
            "heatmap_TrMean_gamma.csv",
        ]

    def test_no_results(self, tmp_path):
        files, warnings = emit_heatmaps([], tmp_path)
        assert files == [] and warnings == ["no completed runs to plot"]


class TestParameterSpelling:
    """Plots spell a distribution parameter the way its run id does."""

    CLOSE = (0.3333331, 0.3333332)  # both read 0.333333 in :g form

    def close_results(self):
        return [make_result([0.5, 0.6], attack=attack, distribution_parameter=gamma)
                for gamma in self.CLOSE for attack in ("SignFlipping", "ALittleIsEnough")]

    def test_close_parameters_get_their_own_curves(self, tmp_path):
        files, _ = emit_curves(self.close_results(), tmp_path)
        names = [p.name for p in files]
        assert names == [f"curve_Median_f1_gamma{g}.{ext}" for g in self.CLOSE for ext in ("csv", "svg")]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
        assert "gamma=0.3333332" in files[3].read_text()

    def test_close_parameters_get_their_own_heatmap_columns(self, tmp_path):
        files, warnings = emit_heatmaps(self.close_results(), tmp_path)
        assert warnings == []
        assert files[0].read_text().splitlines()[0] == "f,0.3333331,0.3333332"
        svg = files[1].read_text()
        assert ">0.3333331<" in svg and ">0.3333332<" in svg


class TestSvgPrimitives:
    def test_ramp_endpoints_and_midpoint(self):
        assert ramp_color(0.0) == "#440154"
        assert ramp_color(0.5) == "#21918c"
        assert ramp_color(1.0) == "#fde725"
        assert ramp_color(-3.0) == ramp_color(0.0)
        assert ramp_color(7.0) == ramp_color(1.0)

    def test_line_chart_is_deterministic(self):
        series = [("run", [0.0, 1.0, 2.0], [0.1, 0.5, 0.9])]
        first = render_line_chart(series, "t", "x", "y")
        assert first == render_line_chart(series, "t", "x", "y")
        assert first.startswith("<svg ") and first.endswith("</svg>\n")

    def test_line_chart_validation(self):
        with pytest.raises(ValueError, match="at least one series"):
            render_line_chart([], "t", "x", "y")
        with pytest.raises(ValueError, match="equal, nonzero"):
            render_line_chart([("bad", [0.0], [])], "t", "x", "y")

    def test_heatmap_nan_cell(self):
        svg = render_heatmap([[0.5, math.nan]], ["f=1"], ["0.1", "0.9"], "t", "x", "y")
        assert ">–<" in svg and "#d9d9d9" in svg

    def test_heatmap_shape_validation(self):
        with pytest.raises(ValueError, match="match the label grid shape"):
            render_heatmap([[0.5]], ["r"], ["c1", "c2"], "t", "x", "y")
        with pytest.raises(ValueError, match="at least one row"):
            render_heatmap([], [], ["c"], "t", "x", "y")


GOLDENS = Path(__file__).parent / "goldens"
# Nine series wrap the eight line colors; the last is a single x, labelled with all three escaped characters.
GOLDEN_SERIES = [(f"attack{i}", [0.0, 50.0, 100.0], [0.1 * i, 0.5, 1.0 - 0.05 * i]) for i in range(8)]
GOLDEN_SERIES.append(("a&b <c> d", [50.0], [0.75]))
GOLDEN_HEATMAP = ([[0.0, 0.5, math.nan], [1.0, 0.123, 0.9876]], ["f=1", "f=2"], ["0.1", "a<b", "x&y>z"])

labels = st.text(alphabet="ab z0.=&<>\"'–σ", max_size=8)
line_series = st.lists(
    st.integers(1, 6).flatmap(lambda k: st.tuples(
        labels,
        st.one_of(st.lists(st.floats(-10.0, 1000.0), min_size=k, max_size=k).map(sorted),
                  st.floats(0.0, 500.0).map(lambda x: [x] * k)),
        st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0), min_size=k, max_size=k))),
    min_size=1, max_size=10)
heatmap_cells = st.sampled_from([math.nan, 0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


class TestWellFormedSvg:
    """Every SVG parses as XML: no element repeats an attribute and all text is escaped."""

    @settings(max_examples=60, deadline=None)
    @given(line_series, labels, labels, labels)
    def test_line_charts_parse(self, series, title, x_label, y_label):
        root = ET.fromstring(render_line_chart(series, title, x_label, y_label))
        texts = [el.text or "" for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[0] == title and [label for label, _, _ in series] == texts[-len(series):]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 7), st.data())
    def test_heatmaps_parse(self, n_rows, n_cols, data):
        values = data.draw(st.lists(st.lists(heatmap_cells, min_size=n_cols, max_size=n_cols),
                                    min_size=n_rows, max_size=n_rows))
        row_labels = data.draw(st.lists(labels, min_size=n_rows, max_size=n_rows))
        col_labels = data.draw(st.lists(labels, min_size=n_cols, max_size=n_cols))
        title, x_label, y_label = data.draw(st.tuples(labels, labels, labels))
        root = ET.fromstring(render_heatmap(values, row_labels, col_labels, title, x_label, y_label))
        assert len(root.findall("{http://www.w3.org/2000/svg}rect")) == 1 + n_rows * n_cols

    def test_written_curves_and_heatmaps_parse(self, tmp_path):
        results = [make_result([0.2, 0.5 + seed / 10], aggregator=aggregator, attack=attack, f=f,
                               distribution_parameter=gamma, seed=seed)
                   for aggregator in ("Median", "TrMean") for attack in ("SignFlipping", "ALittleIsEnough")
                   for f in (1, 2) for gamma in (0.33, 1.0) for seed in (0, 1)
                   if (f, gamma) != (2, 1.0) or aggregator == "Median"]  # TrMean's board misses a cell
        curves, _ = emit_curves(results, tmp_path / "curves")
        heatmaps, warnings = emit_heatmaps(results, tmp_path / "heatmaps")
        assert warnings == ["heatmap_TrMean_gamma: no runs for f=2, parameter=1"]
        svgs = [p for p in curves + heatmaps if p.suffix == ".svg"]
        assert len(svgs) == 7 + 2  # four Median curves, three TrMean curves, two heatmaps
        for path in svgs:
            ET.fromstring(path.read_bytes())

    @pytest.mark.parametrize("kind", [np.float32, np.int64, int])
    def test_coordinates_of_any_number_type_get_two_decimals(self, kind):
        svg = render_line_chart([("a", [kind(0), kind(3)], [np.float32(0.5), 1])], "t", "x", "y")
        root = ET.fromstring(svg)
        coordinates = [value for el in list(root)[2:] for name, value in el.attrib.items()
                       if name in ("x", "y", "x1", "y1", "x2", "y2", "width", "height") and value != "18"]
        assert coordinates and all(re.fullmatch(r"-?\d+\.\d\d", value) for value in coordinates)

    def test_line_chart_golden(self):
        svg = render_line_chart(GOLDEN_SERIES, "Median_NNM f=2 gamma=0.33 & <all>", "step", "test accuracy")
        assert svg.encode("utf-8") == (GOLDENS / "line_chart.svg").read_bytes()

    def test_heatmap_golden(self):
        svg = render_heatmap(*GOLDEN_HEATMAP, "TrMean (<gamma> & co)", "distribution parameter", "Byzantine clients")
        assert svg.encode("utf-8") == (GOLDENS / "heatmap.svg").read_bytes()
