"""Outside-in span tracing of the library's public entry points.

``Tracer.installed`` swaps each traced callable for a timing shim in the
module or class that looks it up, and puts every original back when the
block ends. A module-level function is patched where its caller finds it:
``robustfl.benchmark.dsgd_step``, not ``robustfl.simulator.dsgd_step``.

Spans stay in memory, in the order they opened, so a parent always precedes
its children. A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import contextlib
import math
import time
from array import array
from collections import defaultdict
from pathlib import Path

AGGREGATOR_RULES = ("Median", "TrMean", "MeaMed", "CenteredClipping", "MultiKrum", "GeometricMedian", "CAF")
PRE_AGGREGATORS = ("NNM", "Bucketing")
LAYERS = ("models", "simulator", "attacks", "preaggregators", "aggregators", "numerics", "datadist", "benchmark")


def _rule_name(prefix):
    return lambda args: f"{prefix}.{args[0].spec.name}"


def _pairwise_bytes(args) -> int:
    n, d = args[0].shape
    return n * n * d * 8


def _result_dir(args) -> Path:
    return Path(args[0]) / args[1].key.run_id


def trace_targets() -> list[tuple[object, str, object, object]]:
    """(owner, attribute, span name or namer, extra-recorder) for each shim."""
    from robustfl import aggregators, benchmark, preaggregators, simulator

    client, byz = simulator.HonestClient, simulator.ByzantineClientGroup
    pipeline = preaggregators.Pipeline
    return [
        (benchmark, "run_single", "benchmark.run_single", None),
        (benchmark, "write_result", "benchmark.write_result", _result_dir),
        (benchmark, "load_idx", "models.dataset", None),
        (benchmark, "make_blobs", "models.dataset", None),
        (benchmark, "make_partition", "datadist.make_partition", None),
        (benchmark, "dsgd_step", "simulator.step", None),
        (benchmark, "fedavg_round", "simulator.step", None),
        (benchmark, "evaluate_accuracy", "simulator.eval", None),
        (benchmark, "forward_loss", "simulator.eval", None),
        (client, "compute_update", "simulator.client_grad", None),
        (client, "local_delta", "simulator.client_grad", None),
        (byz, "gradient_rows", "attacks", None),
        (byz, "delta_rows", "attacks", None),
        (pipeline, "__call__", "preaggregators.Pipeline", None),
        (pipeline, "clone", "attacks.clone", None),
        (preaggregators.ConfiguredPreAggregator, "__call__", _rule_name("preaggregators"), None),
        (aggregators.ConfiguredAggregator, "__call__", _rule_name("aggregators"), None),
        (preaggregators, "pairwise_sq_dists", "numerics.pairwise_sq_dists", _pairwise_bytes),
        (aggregators, "pairwise_sq_dists", "numerics.pairwise_sq_dists", _pairwise_bytes),
        (aggregators, "top_eigenpair", "numerics.top_eigenpair", None),
    ]


class Tracer:
    """Records one span per call of every installed shim.

    Span fields live in flat arrays rather than one object per span, so a
    pass with a few hundred thousand calls does not wake the garbage
    collector: ``label[i]`` indexes ``labels``, ``parent[i]`` is -1 for a
    top-level span, and ``extras`` maps a span index to what its recorder
    returned.
    """

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.extras: dict[int, object] = {}
        self._stack = [-1]

    def _label_id(self, name: str) -> int:
        if name not in self._label_ids:
            self._label_ids[name] = len(self.labels)
            self.labels.append(name)
        return self._label_ids[name]

    def shim(self, fn, name, extra=None):
        label, start, end, parent, extras, stack = self.label, self.start, self.end, self.parent, self.extras, self._stack
        clock, label_id = time.perf_counter, self._label_id
        fixed = None if callable(name) else label_id(name)

        def traced(*args, **kwargs):
            index = len(label)
            label.append(label_id(name(args)) if fixed is None else fixed)
            parent.append(stack[-1])
            end.append(0.0)
            if extra is not None:
                extras[index] = extra(args)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        saved = []
        try:
            for owner, attr, name, extra in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.shim(original, name, extra))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def to_json(self) -> dict:
        return {"labels": self.labels, "label": self.label.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(), "parent": self.parent.tolist()}


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list; 0.0 when it is empty."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))]


def summarize(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall_s`` seconds.

    Every rule and stage named in ``AGGREGATOR_RULES`` and ``PRE_AGGREGATORS``
    gets its entries, zero when the pass never called it, so that every
    workload reports the same metric names.
    """
    names = [tracer.labels[i] for i in tracer.label]
    durations_all = [e - s for s, e in zip(tracer.start, tracer.end)]
    parents = tracer.parent
    child = [0.0] * len(names)
    in_attack = [False] * len(names)
    for i, name in enumerate(names):
        parent = parents[i]
        if parent >= 0:
            child[parent] += durations_all[i]
            in_attack[i] = in_attack[parent]
        in_attack[i] = in_attack[i] or name == "attacks"

    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    layer_self: dict[str, float] = defaultdict(float)
    pairwise_bytes = 0
    pipeline_evals = 0
    attack_span_s = 0.0
    written: list[Path] = []
    for i, name in enumerate(names):
        duration = durations_all[i]
        own = duration - child[i]
        calls[name] += 1
        self_s[name] += own
        durations[name].append(duration)
        layer_self[name.split(".", 1)[0]] += own
        if name == "numerics.pairwise_sq_dists":
            pairwise_bytes += tracer.extras[i]
        elif name == "benchmark.write_result":
            written.append(tracer.extras[i])
        elif name == "preaggregators.Pipeline" and in_attack[i]:
            pipeline_evals += 1
        elif name == "attacks":
            attack_span_s += duration

    out: dict[str, float] = {}
    for name in ("simulator.client_grad", "simulator.step", "simulator.eval", "attacks",
                 "numerics.pairwise_sq_dists", "numerics.top_eigenpair", "benchmark.write_result"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    steps = sorted(durations["simulator.step"])
    out["simulator.step_ms.p50"] = 1e3 * _quantile(steps, 0.50)
    out["simulator.step_ms.p99"] = 1e3 * _quantile(steps, 0.99)
    out["attacks.pipeline_evals"] = pipeline_evals
    out["attacks.clone.self_s"] = self_s["attacks.clone"]
    out["attacks.span_share"] = attack_span_s / wall_s
    for pre in PRE_AGGREGATORS:
        out[f"preaggregators.{pre}.calls"] = calls[f"preaggregators.{pre}"]
        out[f"preaggregators.{pre}.self_s"] = self_s[f"preaggregators.{pre}"]
    for rule in AGGREGATOR_RULES:
        name = f"aggregators.{rule}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.ms_p50"] = 1e3 * _quantile(sorted(durations[name]), 0.50)
    out["numerics.pairwise_sq_dists.bytes"] = pairwise_bytes
    out["datadist.make_partition.self_s"] = self_s["datadist.make_partition"]
    out["models.dataset.self_s"] = self_s["models.dataset"]
    out["benchmark.write_result.bytes"] = sum(
        (d / f).stat().st_size for d in written for f in ("key.json", "metrics.csv")
    )
    # Time outside every span is the grid runner's own: it goes to the
    # benchmark layer, so the shares add up to one.
    traced_elsewhere = sum(v for layer, v in layer_self.items() if layer != "benchmark")
    for layer in LAYERS:
        own = wall_s - traced_elsewhere if layer == "benchmark" else layer_self[layer]
        out[f"{layer}.share"] = own / wall_s
    return out
