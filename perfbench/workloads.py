"""The benchmark's workloads: one config grid each, plus the seeded inputs.

Every workload is a ``robustfl`` config document. ``sample_grid`` is the
repository's sample config, copied verbatim into ``configs/``; the others are
built here. The two ``mnist_*`` workloads train on synthetic 28x28 digits
generated from the workload seed and handed to the program as IDX files, so
the program sees only generated inputs and ``load_idx`` is on the measured
path. The blob workloads draw their data from the run seeds fixed in their
configs and ignore the workload seed.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

IMAGE_SIDE = 28
N_DIGITS = 10
# Sizes of the synthetic digit sets; 6,000 test images keep the sampling
# noise of an accuracy reading near half a point.
MNIST_TRAIN = 6000
MNIST_TEST = 6000
# Pixel noise around each class template, and the largest share of a second
# class's template blended into an image. Blends above one half relabel the
# image in effect, which caps accuracy near 0.83; with the noise this keeps
# the task hard enough that the rules under attack end at different
# accuracies.
MNIST_NOISE = 0.35
MNIST_BLEND = 0.6
TEMPLATE_SEED = 784

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _sample_grid(results_dir: str) -> dict:
    from robustfl.benchmark import strip_json_comments

    doc = json.loads(strip_json_comments((CONFIG_DIR / "sample_config.json").read_text()))
    doc["evaluation_and_results"]["results_directory"] = results_dir
    return doc


def _blob_model() -> dict:
    return {
        "name": "linear",
        "dataset_name": "blobs",
        "loss": "NLLLoss",
        "learning_rate": 0.05,
        "dataset_params": {"n_classes": 3, "dim": 10, "train_size": 2000, "test_size": 500, "spread": 1.0},
    }


def _honest_clients() -> dict:
    return {"momentum": 0.9, "weight_decay": 0.0001, "batch_size": 25}


def _fedavg_flip(results_dir: str) -> dict:
    return {
        "benchmark_config": {
            "training_algorithm": {
                "name": "FedAvg",
                "parameters": {"proportion_selected_clients": 0.5, "local_steps_per_client": 5},
            },
            "nb_steps": 120,
            "nb_training_seeds": 2,
            "nb_honest_clients": 10,
            "f": [1, 2],
            "data_distribution": [{"name": "gamma_similarity_niid", "distribution_parameter": [0.33, 1.0]}],
        },
        "model": _blob_model(),
        "aggregator": [{"name": "CenteredClipping", "parameters": {}}, {"name": "MeaMed", "parameters": {}}],
        "pre_aggregators": [{"name": "Bucketing", "parameters": {}}],
        "honest_clients": _honest_clients(),
        "attack": [{"name": "LabelFlipping", "parameters": {}}, {"name": "InnerProductManipulation", "parameters": {}}],
        "evaluation_and_results": {"evaluation_delta": 20, "results_directory": results_dir},
    }


def _mnist_model() -> dict:
    return {"name": "mlp", "hidden": 64, "dataset_name": "mnist", "loss": "NLLLoss", "learning_rate": 0.05}


def _mnist_rules(results_dir: str) -> dict:
    return {
        "benchmark_config": {
            "training_algorithm": {"name": "DSGD", "parameters": {}},
            "nb_steps": 12,
            "nb_training_seeds": 1,
            "nb_honest_clients": 30,
            "f": [3],
            "data_distribution": [{"name": "gamma_similarity_niid", "distribution_parameter": [0.5]}],
        },
        "model": _mnist_model(),
        # Slowest rule first, so the two pool workers finish close together.
        "aggregator": [
            {"name": "GeometricMedian", "parameters": {}},
            {"name": "MultiKrum", "parameters": {}},
            {"name": "MeaMed", "parameters": {}},
            {"name": "CAF", "parameters": {}},
        ],
        "honest_clients": _honest_clients(),
        "attack": [{"name": "ALittleIsEnough", "parameters": {}}],
        "evaluation_and_results": {"evaluation_delta": 1, "results_directory": results_dir},
    }


def _mnist_optimal(results_dir: str) -> dict:
    # One run of one step: that step scores 41 candidate attacks and takes
    # 15-20 s on two cores, which is a whole measured run.
    return {
        "benchmark_config": {
            "training_algorithm": {"name": "DSGD", "parameters": {}},
            "nb_steps": 1,
            "nb_training_seeds": 1,
            "nb_honest_clients": 30,
            "f": [3],
            "data_distribution": [{"name": "gamma_similarity_niid", "distribution_parameter": [0.5]}],
        },
        "model": _mnist_model(),
        "aggregator": [{"name": "TrMean", "parameters": {}}],
        "pre_aggregators": [{"name": "NNM", "parameters": {}}],
        "honest_clients": _honest_clients(),
        "attack": [{"name": "Optimal_ALittleIsEnough", "parameters": {}}],
        "evaluation_and_results": {"evaluation_delta": 1, "results_directory": results_dir},
    }


@dataclass(frozen=True)
class Workload:
    """A named grid; why each one exists is recorded in BENCHMARK.json."""

    name: str
    build: Callable[[str], dict]
    uses_seed: bool

    def config(self, results_dir: Path) -> dict:
        return self.build(str(results_dir))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sample_grid", _sample_grid, uses_seed=False),
        Workload("fedavg_flip", _fedavg_flip, uses_seed=False),
        Workload("mnist_rules", _mnist_rules, uses_seed=True),
        Workload("mnist_optimal", _mnist_optimal, uses_seed=True),
    )
}


# --------------------------------------------------------------------------- #
# Synthetic digits
# --------------------------------------------------------------------------- #


def synth_digits(seed: int) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Seeded 28x28 uint8 images in ten classes, as (train, test) pairs.

    The ten class templates are fixed, like the glyphs of a font; the seed
    draws the images. An image is its class template blended with a second
    class's template, plus pixel noise, clipped to [0, 1] and quantised to
    bytes.
    """
    templates = np.random.default_rng(TEMPLATE_SEED).random((N_DIGITS, IMAGE_SIDE * IMAGE_SIDE))
    rng = np.random.default_rng(seed)

    def draw(count: int) -> tuple[np.ndarray, np.ndarray]:
        labels = np.arange(count) % N_DIGITS
        rng.shuffle(labels)
        other = (labels + rng.integers(1, N_DIGITS, count)) % N_DIGITS
        blend = MNIST_BLEND * rng.random((count, 1))
        pixels = (1.0 - blend) * templates[labels] + blend * templates[other]
        pixels += MNIST_NOISE * rng.standard_normal(pixels.shape)
        images = np.round(np.clip(pixels, 0.0, 1.0) * 255.0).astype(np.uint8)
        return images, labels.astype(np.uint8)

    return draw(MNIST_TRAIN), draw(MNIST_TEST)


def write_idx(directory: Path, seed: int) -> None:
    """Write the four MNIST-named IDX files of ``synth_digits(seed)``."""
    directory.mkdir(parents=True, exist_ok=True)
    for prefix, (images, labels) in zip(("train", "t10k"), synth_digits(seed)):
        header = struct.pack(">IIII", IDX_IMAGES_MAGIC, len(images), IMAGE_SIDE, IMAGE_SIDE)
        (directory / f"{prefix}-images-idx3-ubyte").write_bytes(header + images.tobytes())
        header = struct.pack(">II", IDX_LABELS_MAGIC, len(labels))
        (directory / f"{prefix}-labels-idx1-ubyte").write_bytes(header + labels.tobytes())
