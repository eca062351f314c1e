"""Command-line front end: aggregate vectors, craft attacks, run grids, plot.

Exit codes: 0 on success, 1 when a valid invocation fails on its inputs
(unknown rule, config violation, missing results), 2 on malformed usage
(bad flags, ragged input files).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

import numpy as np

from .aggregators import AGGREGATOR_NAMES, AggregatorSpec
from .attacks import ATTACKS, AttackContext, AttackSpec, attack_vector
from .benchmark import check_pipelines, expand_grid, list_results, parse_config_file, run_benchmark
from .evaluate import emit_curves, emit_heatmaps
from .preaggregators import PRE_AGGREGATOR_NAMES, PreAggregatorSpec, build_pipeline
from .seeding import derive_rng

CLOSED_FORM_ATTACKS = tuple(name for name, rule in ATTACKS.items() if rule.fn is not None and not rule.needs_f)


class UsageError(Exception):
    """Malformed invocation or input file; maps to exit code 2."""


def format_value(value: float) -> str:
    # + 0.0 turns IEEE negative zero into plain zero before formatting.
    return f"{float(value) + 0.0:.17g}"


def _read_matrix(path: str) -> np.ndarray:
    text = sys.stdin.read() if path == "-" else _read_file(path)
    rows: list[list[float]] = []
    width: int | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            row = [float(cell) for cell in stripped.split(",")]
        except ValueError as exc:
            raise UsageError(f"line {line_no}: {exc}") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise UsageError(f"line {line_no}: expected {width} values, got {len(row)}")
        rows.append(row)
    if not rows:
        raise UsageError("input holds no vectors")
    return np.asarray(rows, dtype=np.float64)


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _parse_kv(pairs: list[str], where: str) -> dict:
    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise UsageError(f"{where}: expected key=value, got {pair!r}")
        try:
            value: float | int = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError as exc:
                raise UsageError(f"{where}: value of {key!r} must be numeric, got {raw!r}") from exc
        params[key] = value
    return params


def _parse_pre(text: str, f: int) -> PreAggregatorSpec:
    name, sep, raw = text.partition(":")
    params = _parse_kv(raw.split(","), f"--pre {name}") if sep and raw else {}
    return PreAggregatorSpec(name, params, f=f)


def _cmd_agg(args) -> int:
    matrix = _read_matrix(args.input)
    spec = AggregatorSpec(args.rule, _parse_kv(args.param, "--param"), f=args.f)
    pre_specs = [_parse_pre(text, args.f) for text in args.pre]
    pipeline = build_pipeline(spec, pre_specs, rng=derive_rng(args.seed, "bucketing"))
    print(",".join(format_value(v) for v in pipeline(matrix)))
    return 0


def _cmd_attack(args) -> int:
    honest = _read_matrix(args.input)
    params = {} if args.tau is None else {"tau": args.tau}
    vector = attack_vector(AttackSpec(args.name, params), AttackContext(honest, 0, None))
    print(",".join(format_value(v) for v in vector))
    return 0


def _cmd_run(args) -> int:
    cfg = parse_config_file(args.config)
    summary = run_benchmark(cfg, parallelism=args.parallel)
    print(json.dumps(summary, sort_keys=True))
    return 1 if summary["failed"] else 0


def _cmd_plot(args) -> int:
    results = list_results(args.results)
    emit = emit_curves if args.kind == "curve" else emit_heatmaps
    files, warnings = emit(results, args.out)
    for warning in warnings:
        logging.getLogger(__name__).warning("%s", warning)
    print(json.dumps({"files": len(files), "warnings": len(warnings)}, sort_keys=True))
    return 0


def _cmd_validate(args) -> int:
    cfg = parse_config_file(args.config)
    keys = expand_grid(cfg)
    check_pipelines(cfg, keys)
    print(len(keys))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="robustfl", description="Robust distributed training toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    agg = sub.add_parser("agg", help="aggregate row vectors from a CSV file or stdin")
    agg.add_argument("--rule", required=True, choices=AGGREGATOR_NAMES)
    agg.add_argument("--f", type=int, default=0, help="assumed number of corrupted rows")
    agg.add_argument("--pre", action="append", default=[], metavar="NAME[:k=v,...]",
                     help=f"pre-aggregation stage, applied in order ({', '.join(PRE_AGGREGATOR_NAMES)})")
    agg.add_argument("--param", action="append", default=[], metavar="K=V", help="rule parameter")
    agg.add_argument("--seed", type=int, default=0, help="seed for randomized stages")
    agg.add_argument("--input", default="-", help="CSV path, '-' for stdin")
    agg.set_defaults(handler=_cmd_agg)

    attack = sub.add_parser("attack", help="emit a closed-form attack vector for honest rows")
    attack.add_argument("--name", required=True, choices=CLOSED_FORM_ATTACKS)
    attack.add_argument("--tau", type=float, default=None, help="attack factor (per-attack default when omitted)")
    attack.add_argument("--input", default="-", help="CSV path, '-' for stdin")
    attack.set_defaults(handler=_cmd_attack)

    run = sub.add_parser("run", help="execute a benchmark config")
    run.add_argument("--config", default="./config.json")
    run.add_argument("--parallel", type=int, default=1, help="cores the grid may use")
    run.set_defaults(handler=_cmd_run)

    plot = sub.add_parser("plot", help="render charts from a results directory")
    plot.add_argument("kind", choices=("curve", "heatmap"))
    plot.add_argument("--results", required=True)
    plot.add_argument("--out", required=True)
    plot.set_defaults(handler=_cmd_plot)

    validate = sub.add_parser("validate", help="check a config and report its grid size")
    validate.add_argument("--config", required=True)
    validate.set_defaults(handler=_cmd_validate)
    return parser


def entrypoint(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(entrypoint())
