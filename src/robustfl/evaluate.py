"""Turn persisted runs into robustness summaries, curves, and heatmaps.

The headline number for a configuration is its worst-case maximal accuracy:
take the best test accuracy each seed ever reached, average that over seeds,
then keep the minimum over attacks. A rule only scores well if no attack in
the suite drags it down.
"""

from __future__ import annotations

import math
from collections import defaultdict
from pathlib import Path

from .benchmark import ExperimentResult
from .svgplot import render_heatmap, render_line_chart

# A board is (server setup, distribution family). A cell is (f, parameter,
# the parameter as the run id spells it), and maps each attack to its runs
# in seed order.
Board = dict[tuple[int, float, str], dict[str, list[ExperimentResult]]]


def worst_case_maximal_accuracy(series_by_attack: dict[str, list[list[float]]]) -> float:
    """Min over attacks of the seed-averaged best accuracy along each run.

    ``series_by_attack`` maps an attack name to one accuracy series per seed.
    """
    if not series_by_attack:
        raise ValueError("need at least one attack series")
    per_attack = []
    for attack, seed_series in series_by_attack.items():
        if not seed_series:
            raise ValueError(f"attack {attack!r} has no seed series")
        maxima = []
        for series in seed_series:
            if not series:
                raise ValueError(f"attack {attack!r} has an empty accuracy series")
            maxima.append(max(series))
        per_attack.append(sum(maxima) / len(maxima))
    return min(per_attack)


def _mean_series(seed_series: list[list[float]], label: str, warnings: list[str]) -> list[float]:
    length = min(len(s) for s in seed_series)
    if any(len(s) != length for s in seed_series):
        warnings.append(f"{label}: seeds disagree on series length; truncating to {length} points")
    return [sum(s[i] for s in seed_series) / len(seed_series) for i in range(length)]


def _boards(results: list[ExperimentResult]) -> dict[tuple[str, str], Board]:
    boards: dict[tuple[str, str], Board] = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    for result in sorted(results, key=lambda r: r.key.seed):
        key = result.key
        cell = (key.f, key.distribution_parameter, key.parameter_token)
        boards[(key.server_token, key.distribution_token)][cell][key.attack_token].append(result)
    return boards


def _report(results: list[ExperimentResult], out_dir, charts) -> tuple[list[Path], list[str]]:
    """Write the CSV and SVG of every (stem, CSV rows, SVG) that
    ``charts(boards, warnings)`` yields; returns the paths and warnings."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not results:
        return [], ["no completed runs to plot"]
    files: list[Path] = []
    warnings: list[str] = []
    for stem, rows, svg in charts(_boards(results), warnings):
        for path, text in ((out / f"{stem}.csv", "\n".join(rows) + "\n"), (out / f"{stem}.svg", svg)):
            path.write_text(text, encoding="utf-8")
            files.append(path)
    return files, warnings


def _curves(boards: dict[tuple[str, str], Board], warnings: list[str]):
    # Charts come in (server setup, f, family, parameter) order, the order of the returned paths.
    cells = [(token, f, dist, param, label, by_attack)
             for (token, dist), board in boards.items() for (f, param, label), by_attack in board.items()]
    for token, f, dist, _, label, by_attack in sorted(cells, key=lambda cell: cell[:4]):
        stem = f"curve_{token}_f{f}_{dist}{label}"
        attacks = sorted(by_attack)
        columns = {a: _mean_series([r.test_accuracy for r in by_attack[a]], f"{stem}/{a}", warnings) for a in attacks}
        length = min(len(col) for col in columns.values())
        steps = max((r.steps for r in by_attack[attacks[0]]), key=len)[:length]
        rows = ["step," + ",".join(attacks)]
        rows += [",".join([str(steps[i])] + [repr(float(columns[a][i])) for a in attacks]) for i in range(length)]
        series = [(a, [float(s) for s in steps], columns[a][:length]) for a in attacks]
        yield stem, rows, render_line_chart(series, f"{token} f={f} {dist}={label}", "step", "test accuracy")


def emit_curves(results: list[ExperimentResult], out_dir) -> tuple[list[Path], list[str]]:
    """Write one accuracy-vs-step chart (CSV + SVG) per configuration.

    A configuration is (aggregator, pre-aggregators, f, distribution,
    parameter); each chart carries one seed-averaged line per attack.
    Returns the written paths and any warnings.
    """
    return _report(results, out_dir, _curves)


def _heatmaps(boards: dict[tuple[str, str], Board], warnings: list[str]):
    for (token, dist), board in sorted(boards.items()):
        stem = f"heatmap_{token}_{dist}"
        f_values = sorted({f for f, _, _ in board})
        params = sorted({(param, label) for _, param, label in board})
        all_attacks = {a for cell in board.values() for a in cell}
        grid: list[list[float]] = []
        for f in f_values:
            row = []
            for param, label in params:
                cell = board.get((f, param, label))
                if not cell:
                    warnings.append(f"{stem}: no runs for f={f}, parameter={label}")
                    row.append(math.nan)
                    continue
                if set(cell) != all_attacks:
                    missing = sorted(all_attacks - set(cell))
                    warnings.append(f"{stem}: f={f}, parameter={label} lacks attacks {missing}")
                series = {attack: [r.test_accuracy for r in runs] for attack, runs in cell.items()}
                row.append(worst_case_maximal_accuracy(series))
            grid.append(row)
        labels = [label for _, label in params]
        rows = ["f," + ",".join(labels)]
        rows += [",".join([str(f)] + ["" if math.isnan(v) else repr(float(v)) for v in row])
                 for f, row in zip(f_values, grid)]
        svg = render_heatmap(grid, [f"f={f}" for f in f_values], labels, f"{token} ({dist})",
                             "distribution parameter", "Byzantine clients")
        yield stem, rows, svg


def emit_heatmaps(results: list[ExperimentResult], out_dir) -> tuple[list[Path], list[str]]:
    """Write one worst-case-accuracy heatmap (CSV + SVG) per aggregator setup.

    Rows are Byzantine counts ascending, columns are distribution parameters
    ascending; a cell with no completed runs renders as missing. Returns the
    written paths and any warnings.
    """
    return _report(results, out_dir, _heatmaps)
