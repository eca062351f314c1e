#!/usr/bin/env python3
"""Median milliseconds per call of every aggregation rule and pre-aggregator,
of two attack searches and of the models' gradient.

    PYTHONPATH=src python3 scripts/microbench_rules.py

Each rule runs on an (n, d) matrix of n - f honest rows around a common mean
plus f identical rows in the style of ALittleIsEnough, at (n, d, f) = (12,
1,000, 2) and (33, 50,890, 3), the second the shape of the ``mnist_rules``
benchmark workload. Every row is timed in its own process, forked from the
one that built its input, so that no row runs on what the rows before it
allocated. After one warm-up call a rule is timed over repeated calls, as
many as fit in about half a second (between 3 and 100), and the median is
printed. MDA and SMEA enumerate row subsets and refuse n above
``SUBSET_ENUMERATION_LIMIT``; they are reported as skipped there. Clipping
runs with c = 1. Search rows time one whole ``optimize_attack_scale``
over the default 41-point grid on the n - f honest rows of the last shape:
Optimal_ALittleIsEnough (``Optimal_ALIE``, the per-step attack cost of the
``mnist_optimal`` workload) and Optimal_InnerProductManipulation
(``Optimal_IPM``) against TrMean behind NNM, then Optimal_ALittleIsEnough
against TrMean alone and against Median behind NNM (the pipeline follows a
colon in the name); a fifth, ``Optimal_ALIE@2cores``, times the first search
dealt to two processes, as a lone run's search is on two cores. The ``attack
step`` row times what a ``mnist_optimal`` step does after its clients'
training, one ``simulator.dsgd_step``: one Optimal_ALittleIsEnough attack by
``ByzantineClientGroup.gradient_rows`` on those honest rows against TrMean
behind NNM, plus the server's update, which adds the search's winning
aggregate instead of running the pipeline again. Three kernel rows
time, at that shape, one ``numerics.pairwise_sq_dists`` call on the n rows
(the exact distance kernel of MDA and of the orderings' fallback), one
``numerics.gram_sq_dists`` call on them (the Gram-form distances and their
error bound that NNM, MultiKrum and GeometricMedian order rows by) and
ALittleIsEnough's per-search parts, the mean and std of the n - f honest
rows. Two model rows time one ``loss_and_gradient``
call on a seeded batch of 25 (n is the batch, d the parameter count): the
linear 10 -> 3 model of ``sample_grid``, where this call is most of the time,
and the 784 -> 64 -> 10 MLP of the ``mnist_*`` workloads. Three round rows
time the clients' training in one step, on a bank of clients drawing
batches of 25 with momentum 0.9 from 100 seeded samples each. Two time the
honest half of one DSGD step, ``HonestClient.compute_update``, over n
clients: 10 on the linear model (``sample_grid``) and 30 on the MLP
(``mnist_*``). The ``fedavg_flip`` row times one LabelFlipping round of
federated averaging at that workload's shape, ``HonestClient.local_delta``
with 5 local steps on the linear model for n = 5 of 10 clients plus f = 2
LabelFlipping seats, which train in the same call. Four cohort rows time
that training pass at the blob shape for one run and for a cohort of 8 runs,
each at parameters of its own, sharing one bank: ``dsgd`` is
``compute_update`` for 10 honest rows per run, ``fedavg`` is
``local_delta`` for the ``fedavg_flip`` round's 5 sampled rows and 2 seats
per run (n is the runs). Two evaluation rows time
the training loss of a ``mnist_rules`` run's 13 evaluation snapshots of the
MLP on 6,000 seeded rows (n is the snapshots): ``grouped`` is one
``forward_loss`` call on the (13, d) group, which shares each row block's
first-layer product among the snapshots, and ``one_by_one`` a call per
snapshot, each a group of one. Two ``accuracy`` rows time one
``evaluate_accuracy`` call of the linear model on a blob workload's test set,
500 seeded rows of 10 features and 3 classes, for a group of one snapshot
and for a run's 7. One BLAS thread is used, as in the benchmark's workers.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from robustfl.aggregators import (  # noqa: E402
    AGGREGATOR_NAMES,
    SUBSET_ENUMERATION_LIMIT,
    AggregatorSpec,
    make_aggregator,
)
from robustfl.attacks import (  # noqa: E402
    AFFINE_BASES,
    AttackContext,
    AttackSpec,
    a_little_is_enough,
    inner_product_manipulation,
    optimize_attack_scale,
)
from robustfl.datadist import LabeledDataset  # noqa: E402
from robustfl.models import (  # noqa: E402
    LinearArch,
    MlpArch,
    evaluate_accuracy,
    forward_loss,
    init_params,
    loss_and_gradient,
    param_count,
)
from robustfl.numerics import gram_sq_dists, pairwise_sq_dists  # noqa: E402
from robustfl.preaggregators import (  # noqa: E402
    PRE_AGGREGATOR_NAMES,
    ConfiguredPreAggregator,
    PreAggregatorSpec,
    build_pipeline,
)
from robustfl.simulator import ByzantineClientGroup, HonestClient, ServerState, dsgd_step  # noqa: E402

SHAPES = ((12, 1_000, 2), (33, 50_890, 3))
SEED = 0
BUDGET_S = 0.5
MIN_CALLS, MAX_CALLS = 3, 100
SUBSET_RULES = ("MDA", "SMEA")
# (row name, attack base, aggregator, pre-aggregators, cores)
SEARCHES = (
    ("Optimal_ALIE", a_little_is_enough, "TrMean", ("NNM",), 1),
    ("Optimal_IPM", inner_product_manipulation, "TrMean", ("NNM",), 1),
    ("Optimal_ALIE:TrMean", a_little_is_enough, "TrMean", (), 1),
    ("Optimal_ALIE:NNM>Median", a_little_is_enough, "Median", ("NNM",), 1),
    ("Optimal_ALIE@2cores", a_little_is_enough, "TrMean", ("NNM",), 2),
)
# (name, architecture, clients in its round row)
MODELS = (("linear", LinearArch(10, 3), 10), ("mlp", MlpArch(784, 64, 10), 30))
MODEL_BATCH = 25
SAMPLES_PER_CLIENT = 100
# (name, clients, sampled clients, seats, local steps) of the federated round row, on the linear model
FEDAVG_ROUND = ("fedavg_flip", 10, 5, 2, 5)
# Runs in each cohort row: one alone, and the 8 runs that share a seed and data split in the blob grids
COHORTS = (1, 8)
# (snapshots, rows) of the evaluation rows, on the MLP: a mnist_rules run's evaluation steps and training rows
EVALUATION = (13, 6_000)
# (snapshots in each row, rows) of the accuracy rows, on the linear model: a blob run's test set
ACCURACY = ((1, 7), 500)


def attacked_rows(n: int, d: int, f: int, rng: np.random.Generator) -> np.ndarray:
    honest = rng.normal(size=d) * 0.01 + rng.normal(size=(n - f, d)) * 0.01
    attack = honest.mean(axis=0) - 1.5 * honest.std(axis=0)
    return np.vstack([honest, np.tile(attack, (f, 1))])


def median_ms(fn, xs) -> tuple[float, int]:
    """Median milliseconds of ``fn(xs)`` and the number of timed calls, in a
    process of its own (``in_fresh_process``)."""
    return in_fresh_process(time_calls, fn, xs)


def in_fresh_process(job, *args) -> tuple[float, int]:
    """``job(*args)``, an (ms, calls) pair, computed in a child forked from
    this process, which has run no timed call."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            os.write(write, "{!r} {}".format(*job(*args)).encode())
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        reply = pipe.read().split()
    if os.waitpid(pid, 0)[1] != 0:
        raise RuntimeError("a timed row failed in its own process")
    return float(reply[0]), int(reply[1])


def time_calls(fn, xs) -> tuple[float, int]:
    start = time.perf_counter()
    fn(xs)
    first = time.perf_counter() - start
    calls = min(MAX_CALLS, max(MIN_CALLS, math.ceil(BUDGET_S / max(first, 1e-9))))
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn(xs)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times), calls


def callables(n: int, f: int):
    for name in AGGREGATOR_NAMES:
        if name in SUBSET_RULES and n > SUBSET_ENUMERATION_LIMIT:
            yield "aggregator", name, None
        else:
            yield "aggregator", name, make_aggregator(AggregatorSpec(name, f=f))
    for name in PRE_AGGREGATOR_NAMES:
        params = {"c": 1.0} if name == "Clipping" else {}
        spec = PreAggregatorSpec(name, f=f, parameters=params)
        yield "pre-aggregator", name, ConfiguredPreAggregator(spec, np.random.default_rng(0))


def seeded_bank(arch, clients: int, seats: int, rng: np.random.Generator) -> HonestClient:
    """A bank of ``clients`` rows of ``SAMPLES_PER_CLIENT`` seeded samples each, plus ``seats``."""
    m = clients * SAMPLES_PER_CLIENT
    dataset = LabeledDataset(rng.normal(size=(m, arch.in_dim)), rng.integers(0, arch.n_classes, m), arch.n_classes)
    rngs = [np.random.default_rng([SEED, i]) for i in range(clients + seats)]
    return HonestClient(dataset, np.array_split(np.arange(m), clients), MODEL_BATCH, 0.9, 0.0, rngs, seats)


def main() -> int:
    print(f"# python {platform.python_version()}, numpy {np.__version__}, {os.cpu_count()} cpus, "
          f"{platform.processor() or platform.machine()}")
    print(f"{'kind':<15} {'name':<17} {'n':>3} {'d':>6} {'f':>2} {'ms/call':>10} {'calls':>6}")
    for n, d, f in SHAPES:
        xs = attacked_rows(n, d, f, np.random.default_rng(SEED))
        for kind, name, fn in callables(n, f):
            if fn is None:
                print(f"{kind:<15} {name:<17} {n:>3} {d:>6} {f:>2} {'skipped':>10} {'-':>6}")
                continue
            ms, calls = median_ms(fn, xs)
            print(f"{kind:<15} {name:<17} {n:>3} {d:>6} {f:>2} {ms:>10.3f} {calls:>6}")
    n, d, f = SHAPES[-1]
    attacked = attacked_rows(n, d, f, np.random.default_rng(SEED))
    honest = attacked[: n - f]
    for name, base, rule, pres, cores in SEARCHES:
        pipeline = build_pipeline(AggregatorSpec(rule, f=f), [PreAggregatorSpec(pre, f=f) for pre in pres])
        ms, calls = median_ms(lambda rows: optimize_attack_scale(AttackContext(rows, f, pipeline, cores), base), honest)
        print(f"{'attack search':<15} {name:<17} {n:>3} {d:>6} {f:>2} {ms:>10.3f} {calls:>6}")
    group = ByzantineClientGroup(f, AttackSpec("Optimal_ALittleIsEnough"))
    pipeline = build_pipeline(AggregatorSpec("TrMean", f=f), [PreAggregatorSpec("NNM", f=f)])
    server = ServerState(np.zeros(d), pipeline)
    ms, calls = median_ms(lambda rows: dsgd_step(server, rows, group, 0.05), attacked.copy())
    print(f"{'attack step':<15} {'Optimal_ALIE':<17} {n:>3} {d:>6} {f:>2} {ms:>10.3f} {calls:>6}")
    for name, fn, xs in (("pairwise_sq_dists", pairwise_sq_dists, attacked),
                         ("gram_sq_dists", gram_sq_dists, attacked),
                         ("ALIE_parts", AFFINE_BASES[a_little_is_enough].parts, honest)):
        ms, calls = median_ms(fn, xs)
        print(f"{'kernel':<15} {name:<17} {n:>3} {d:>6} {f:>2} {ms:>10.3f} {calls:>6}")
    rng = np.random.default_rng(SEED)
    for name, arch, _ in MODELS:
        flat = init_params(arch, rng)
        features = rng.normal(size=(MODEL_BATCH, arch.in_dim))
        labels = rng.integers(0, arch.n_classes, MODEL_BATCH)
        ms, calls = median_ms(lambda x: loss_and_gradient(arch, flat, x, labels), features)
        print(f"{'model':<15} {name:<17} {MODEL_BATCH:>3} {param_count(arch):>6} {'-':>2} {ms:>10.4f} {calls:>6}")
    for name, arch, clients in MODELS:
        flat = init_params(arch, rng)
        bank = seeded_bank(arch, clients, 0, rng)
        head = np.zeros((clients, param_count(arch)))
        ms, calls = median_ms(lambda x: bank.compute_update(arch, [x], [head]), flat)
        print(f"{'round':<15} {name:<17} {clients:>3} {param_count(arch):>6} {'-':>2} {ms:>10.4f} {calls:>6}")
    name, clients, sampled, seats, local_steps = FEDAVG_ROUND
    arch = MODELS[0][1]
    d = param_count(arch)
    flat = init_params(arch, rng)
    bank = seeded_bank(arch, clients, seats, rng)
    chosen = np.sort(rng.choice(clients, size=sampled, replace=False))
    out = np.empty((sampled + seats, d))
    ms, calls = median_ms(lambda x: bank.local_delta(arch, [x], 0.05, local_steps, chosen, [out]), flat)
    print(f"{'round':<15} {name:<17} {sampled:>3} {d:>6} {seats:>2} {ms:>10.4f} {calls:>6}")
    for runs in COHORTS:
        flats = [init_params(arch, rng) for _ in range(runs)]
        bank, heads = seeded_bank(arch, clients, 0, rng), [np.zeros((clients, d)) for _ in flats]
        ms, calls = median_ms(lambda xs: bank.compute_update(arch, xs, heads), flats)
        print(f"{'cohort':<15} {'dsgd':<17} {runs:>3} {d:>6} {'-':>2} {ms:>10.4f} {calls:>6}")
    for runs in COHORTS:
        flats = [init_params(arch, rng) for _ in range(runs)]
        bank, outs = seeded_bank(arch, clients, seats, rng), [np.empty((sampled + seats, d)) for _ in flats]
        ms, calls = median_ms(lambda xs: bank.local_delta(arch, xs, 0.05, local_steps, chosen, outs), flats)
        print(f"{'cohort':<15} {'fedavg':<17} {runs:>3} {d:>6} {seats:>2} {ms:>10.4f} {calls:>6}")
    snapshots, rows = EVALUATION
    arch = MODELS[1][1]
    group = np.stack([init_params(arch, rng) for _ in range(snapshots)])
    features, labels = rng.random((rows, arch.in_dim)), rng.integers(0, arch.n_classes, rows)
    subsets = [np.arange(rows)]
    for name, fn in (("grouped", lambda flats: forward_loss(arch, flats, features, labels, subsets)),
                     ("one_by_one", lambda flats: [forward_loss(arch, [flat], features, labels, subsets)
                                                   for flat in flats])):
        ms, calls = median_ms(fn, group)
        print(f"{'evaluation':<15} {name:<17} {snapshots:>3} {param_count(arch):>6} {'-':>2} {ms:>10.3f} {calls:>6}")
    counts, rows = ACCURACY
    arch = MODELS[0][1]
    test = LabeledDataset(rng.normal(size=(rows, arch.in_dim)), rng.integers(0, arch.n_classes, rows), arch.n_classes)
    for snapshots in counts:
        group = np.stack([init_params(arch, rng) for _ in range(snapshots)])
        ms, calls = median_ms(lambda flats: evaluate_accuracy(arch, flats, test), group)
        print(f"{'evaluation':<15} {'accuracy':<17} {snapshots:>3} {param_count(arch):>6} {'-':>2} {ms:>10.4f} {calls:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
