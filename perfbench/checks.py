"""Correctness checks on a results directory, and its fingerprint.

``check_results`` returns a list of problems, empty when every grid point
has a ``key.json`` naming it and a ``metrics.csv`` with one row per expected
evaluation step, finite values and accuracies in [0, 1]. ``fingerprint`` is
a sha256 over every file's relative path and bytes; it is informational, so
arithmetic drift shows without failing the run.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

HEADER = "step,test_accuracy,train_loss"


def expected_steps(cfg) -> list[int]:
    """Steps at which ``run_single`` evaluates: 0, every evaluation_delta-th
    step, and the last step."""
    delta = cfg.evaluation.evaluation_delta
    return [0] + [s for s in range(1, cfg.nb_steps + 1) if s % delta == 0 or s == cfg.nb_steps]


def _check_csv(path: Path, steps: list[int]) -> list[str]:
    lines = path.read_text().split("\n")
    if lines[-1] != "":
        return [f"{path}: does not end in a newline"]
    lines = lines[:-1]
    if not lines or lines[0] != HEADER:
        return [f"{path}: header is not {HEADER!r}"]
    rows = lines[1:]
    if len(rows) != len(steps):
        return [f"{path}: {len(rows)} evaluation rows, expected {len(steps)}"]
    problems = []
    for expected, row in zip(steps, rows):
        cells = row.split(",")
        try:
            step, accuracy, loss = int(cells[0]), float(cells[1]), float(cells[2])
        except (IndexError, ValueError):
            problems.append(f"{path}: malformed row {row!r}")
            continue
        if len(cells) != 3 or step != expected:
            problems.append(f"{path}: row {row!r} is not step {expected}")
        elif not (math.isfinite(accuracy) and 0.0 <= accuracy <= 1.0):
            problems.append(f"{path}: step {step} accuracy {accuracy!r} outside [0, 1]")
        elif not (math.isfinite(loss) and loss >= 0.0):
            problems.append(f"{path}: step {step} loss {loss!r} is not finite and nonnegative")
    return problems


def check_results(cfg, base) -> list[str]:
    """Problems with the results of ``cfg``'s grid under ``base``."""
    from robustfl.benchmark import expand_grid

    base = Path(base)
    steps = expected_steps(cfg)
    keys = expand_grid(cfg)
    problems = []
    found = {p.name for p in base.iterdir()} if base.is_dir() else set()
    extra = found - {k.run_id for k in keys}
    if extra:
        problems.append(f"{base}: unexpected entries {sorted(extra)}")
    for key in keys:
        run_dir = base / key.run_id
        if not (run_dir / "metrics.csv").is_file() or not (run_dir / "key.json").is_file():
            problems.append(f"{run_dir}: missing key.json or metrics.csv")
            continue
        try:
            run_id = json.loads((run_dir / "key.json").read_text()).get("id")
        except json.JSONDecodeError:
            run_id = None
        if run_id != key.run_id:
            problems.append(f"{run_dir}/key.json: id is {run_id!r}")
        problems += _check_csv(run_dir / "metrics.csv", steps)
    return problems


def fingerprint(base) -> str:
    """sha256 over the relative path and bytes of every file under ``base``."""
    base = Path(base)
    digest = hashlib.sha256()
    for path in sorted(p for p in base.rglob("*") if p.is_file()):
        digest.update(path.relative_to(base).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()
