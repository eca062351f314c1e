"""Shared benchmark-config fixtures for the test suite."""

import json

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
