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


def emit_curves(results: list[ExperimentResult], out_dir) -> tuple[list[Path], list[str]]:
    """Write one accuracy-vs-step chart (CSV + SVG) per configuration.

    A configuration is (aggregator, pre-aggregators, f, distribution,
    parameter); each chart carries one seed-averaged line per attack.
    Returns the written paths and any warnings.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not results:
        return [], ["no completed runs to plot"]
    groups: dict[tuple, dict[str, list[ExperimentResult]]] = defaultdict(lambda: defaultdict(list))
    for result in results:
        key = result.key
        group = (key.server_token, key.f, key.distribution_token, key.distribution_parameter)
        groups[group][key.attack_token].append(result)

    files: list[Path] = []
    warnings: list[str] = []
    for (token, f, dist, param), by_attack in sorted(groups.items()):
        stem = f"curve_{token}_f{f}_{dist}{param:g}"
        attacks = sorted(by_attack)
        columns: dict[str, list[float]] = {}
        steps: list[int] = []
        for attack in attacks:
            runs = sorted(by_attack[attack], key=lambda r: r.key.seed)
            columns[attack] = _mean_series([r.test_accuracy for r in runs], f"{stem}/{attack}", warnings)
            steps = max((r.steps for r in runs), key=len) if not steps else steps
        length = min(len(col) for col in columns.values())
        steps = steps[:length]

        lines = ["step," + ",".join(attacks)]
        for i in range(length):
            lines.append(",".join([str(steps[i])] + [repr(float(columns[a][i])) for a in attacks]))
        csv_path = out / f"{stem}.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        svg_path = out / f"{stem}.svg"
        series = [(a, [float(s) for s in steps], columns[a][:length]) for a in attacks]
        svg_path.write_text(
            render_line_chart(series, f"{token} f={f} {dist}={param:g}", "step", "test accuracy", y_range=(0.0, 1.0))
        )
        files.extend([csv_path, svg_path])
    return files, warnings


def emit_heatmaps(results: list[ExperimentResult], out_dir) -> tuple[list[Path], list[str]]:
    """Write one worst-case-accuracy heatmap (CSV + SVG) per aggregator setup.

    Rows are Byzantine counts ascending, columns are distribution parameters
    ascending; a cell with no completed runs renders as missing. Returns the
    written paths and any warnings.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not results:
        return [], ["no completed runs to plot"]
    boards: dict[tuple, dict[tuple, dict[str, list[ExperimentResult]]]] = defaultdict(
        lambda: defaultdict(lambda: defaultdict(list))
    )
    for result in results:
        key = result.key
        boards[(key.server_token, key.distribution_token)][(key.f, key.distribution_parameter)][
            key.attack_token
        ].append(result)

    files: list[Path] = []
    warnings: list[str] = []
    for (token, dist), cells in sorted(boards.items()):
        f_values = sorted({f for f, _ in cells})
        params = sorted({p for _, p in cells})
        all_attacks = {a for cell in cells.values() for a in cell}
        grid: list[list[float]] = []
        for f in f_values:
            row = []
            for param in params:
                cell = cells.get((f, param))
                if not cell:
                    warnings.append(f"heatmap_{token}_{dist}: no runs for f={f}, parameter={param:g}")
                    row.append(math.nan)
                    continue
                if set(cell) != all_attacks:
                    missing = sorted(all_attacks - set(cell))
                    warnings.append(
                        f"heatmap_{token}_{dist}: f={f}, parameter={param:g} lacks attacks {missing}"
                    )
                series = {
                    attack: [r.test_accuracy for r in sorted(runs, key=lambda r: r.key.seed)]
                    for attack, runs in cell.items()
                }
                row.append(worst_case_maximal_accuracy(series))
            grid.append(row)

        stem = f"heatmap_{token}_{dist}"
        lines = ["f," + ",".join(f"{p:g}" for p in params)]
        for f, row in zip(f_values, grid):
            cells_text = ["" if math.isnan(v) else repr(float(v)) for v in row]
            lines.append(",".join([str(f)] + cells_text))
        csv_path = out / f"{stem}.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        svg_path = out / f"{stem}.svg"
        svg_path.write_text(
            render_heatmap(
                grid,
                [f"f={f}" for f in f_values],
                [f"{p:g}" for p in params],
                f"{token} ({dist})",
                "distribution parameter",
                "Byzantine clients",
                value_range=(0.0, 1.0),
            )
        )
        files.extend([csv_path, svg_path])
    return files, warnings
