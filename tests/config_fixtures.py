"""Shared benchmark-config fixtures for the test suite."""

import json
import math

SAMPLE_CONFIG = """\
{
    "benchmark_config": {
        // Option 1: Distributed SGD (DSGD)
        // "training_algorithm": {"name": "DSGD", "parameters": {}},

        // Option 2: Federated Averaging (FedAvg)
        "training_algorithm": {
            "name": "FedAvg",
            "parameters": {
                "proportion_selected_clients": 0.6,
                "local_steps_per_client": 5
            }
        },

        "nb_steps": 800,
        "nb_training_seeds": 3,
        "nb_honest_clients": 10,
        "f": [1, 2, 3, 4],
        "data_distribution": [
            {
                "name": "gamma_similarity_niid",
                "distribution_parameter": [1.0, 0.66, 0.33]
            }
        ]
    },

    "model": {
        "name": "mlp",
        "dataset_name": "mnist",
        "loss": "NLLLoss",
        "learning_rate": 0.1,
        "learning_rate_decay": 0.5,
        "milestones": [200, 400]
    },

    "aggregator": [
        {"name": "Median", "parameters": {}},
        {"name": "TrMean", "parameters": {}}
    ],

    "pre_aggregators": [
        {"name": "Clipping", "parameters": {"c": 2.0}}
    ],

    "honest_clients": {
        "momentum": 0.9,
        "weight_decay": 0.0001,
        "batch_size": 25
    },

    "attack": [
        {"name": "SignFlipping", "parameters": {}},
        {"name": "ALittleIsEnough", "parameters": {}}
    ],

    "evaluation_and_results": {
        "evaluation_delta": 50,
        "store_per_client_metrics": true,
        "results_directory": "./results"
    }
}
"""


def tiny_config_text(results_dir, **tweaks) -> str:
    """A one-key blobs benchmark that finishes in milliseconds.

    ``tweaks`` are dotted paths into the raw JSON tree, e.g.
    ``**{"benchmark_config.nb_steps": 10}`` or ``aggregator=[...]``.
    """
    raw = {
        "benchmark_config": {
            "training_algorithm": {"name": "DSGD", "parameters": {}},
            "nb_steps": 4,
            "nb_training_seeds": 1,
            "nb_honest_clients": 3,
            "f": [1],
            "data_distribution": [{"name": "iid", "distribution_parameter": [0.0]}],
        },
        "model": {
            "name": "linear",
            "dataset_name": "blobs",
            "loss": "NLLLoss",
            "learning_rate": 0.05,
            "dataset_params": {"n_classes": 3, "dim": 4, "train_size": 60, "test_size": 21, "spread": 0.5},
        },
        "aggregator": [{"name": "TrMean", "parameters": {}}],
        "honest_clients": {"momentum": 0.9, "weight_decay": 0.0, "batch_size": 5},
        "attack": [{"name": "SignFlipping", "parameters": {}}],
        "evaluation_and_results": {
            "evaluation_delta": 2,
            "store_per_client_metrics": False,
            "results_directory": str(results_dir),
        },
    }
    for dotted, value in tweaks.items():
        node = raw
        *head, last = dotted.split(".")
        for part in head:
            node = node[part]
        node[last] = value
    return json.dumps(raw)


# An integer literal too large for a float (401 digits).
HUGE_INT = 10**400

# Config tweaks that write NaN, an infinity or ``HUGE_INT`` where a float
# goes, each with the parse error it must raise: a bound's own words where
# the value fails the bound, else "must be finite".
NON_FINITE_CASES = {
    "learning_rate-inf": ({"model.learning_rate": math.inf}, "model.learning_rate must be finite, got inf"),
    "learning_rate-minus-inf": ({"model.learning_rate": -math.inf}, "model.learning_rate must be positive, got -inf"),
    "spread-nan": (
        {"model.dataset_params.spread": math.nan},
        "model.dataset_params.spread must be nonnegative, got nan",
    ),
    "weight_decay-inf": (
        {"honest_clients.weight_decay": math.inf},
        "honest_clients.weight_decay must be finite, got inf",
    ),
    "dirichlet-inf": (
        {"benchmark_config.data_distribution": [{"name": "dirichlet_niid", "distribution_parameter": [math.inf]}]},
        "benchmark_config.data_distribution[0].distribution_parameter[0] must be finite, got inf",
    ),
    "alie-tau-nan": (
        {"attack": [{"name": "ALittleIsEnough", "parameters": {"tau": math.nan}}]},
        "ALittleIsEnough parameter tau must be finite, got nan",
    ),
    "clipping-c-inf": (
        {"pre_aggregators": [{"name": "Clipping", "parameters": {"c": math.inf}}]},
        "Clipping parameter c must be finite, got inf",
    ),
    "learning_rate-401-digits": (
        {"model.learning_rate": HUGE_INT},
        f"model.learning_rate must be finite, got {HUGE_INT}",
    ),
    "centered-clipping-tau-401-digits": (
        {"aggregator": [{"name": "CenteredClipping", "parameters": {"tau": HUGE_INT}}]},
        f"CenteredClipping parameter tau must be finite, got {HUGE_INT}",
    ),
    "minus-401-digits-fails-the-bound": (
        {"honest_clients.weight_decay": -HUGE_INT},
        "honest_clients.weight_decay must be nonnegative, got -inf",
    ),
}
