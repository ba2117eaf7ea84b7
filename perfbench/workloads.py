"""Workload definitions: the relulab command and config each workload runs.

Every dataset, corpus, batch and init seed is ``base + seed``.  At seed 0
the two suite workloads equal ``EARLY_BINARY`` and ``GLOBAL_POLY`` in
``scripts/run_suite.py``, so their numbers stay comparable with the
ROADMAP baseline table.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

CORPUS_SIZE = 1000
CORPUS_SIDE = 8          # 8x8 pixels, so d = 64
CORPUS_CLASSES = 10


def write_corpus(directory: Path, seed: int) -> tuple[Path, Path]:
    """Write a seeded uint8 IDX image/label pair through relulab's own writer.

    Pixels are |N(0,1)| scaled to 0..255 with at least one nonzero pixel per
    image (the loader rejects all-zero rows); labels cycle through the ten
    classes.
    """
    from relulab.datasets import write_idx_images, write_idx_labels

    gen = np.random.default_rng([seed, 0x1DC])
    pixels = np.clip(np.abs(gen.standard_normal((CORPUS_SIZE, CORPUS_SIDE ** 2))) * 64.0,
                     0.0, 255.0).astype(np.uint8)
    pixels[:, 0] = np.maximum(pixels[:, 0], 1)
    labels = (np.arange(CORPUS_SIZE) % CORPUS_CLASSES).astype(np.uint8)
    images_path = directory / "images-idx3-ubyte"
    labels_path = directory / "labels-idx1-ubyte"
    write_idx_images(images_path, pixels, CORPUS_SIDE, CORPUS_SIDE)
    write_idx_labels(labels_path, labels)
    return images_path, labels_path


def config(name: str, seed: int, corpus: tuple[Path, Path] | None = None) -> tuple[str, dict]:
    """(subcommand, config) for one workload at one seed."""
    if name == "early-binary":
        return "verify", {
            "kind": "early-binary",
            "dataset": {"type": "synthetic", "n": 40, "d": 30, "seed": seed},
            "model": {"m": 4096, "kappa": "auto"},
            "loss": "quadratic",
            "schedule": {"type": "constant", "eta": 0.01},
            "train": {"steps": 46},
            "delta": 0.01,
            "seed": seed,
        }
    if name == "global-poly":
        return "verify", {
            "kind": "global-poly",
            "dataset": {"type": "synthetic", "n": 20, "d": 25, "seed": 3 + seed},
            "model": {"m": 1024, "kappa": "auto"},
            "loss": "exp",
            "schedule": {"type": "two-stage-poly", "eta0": 0.25,
                         "c": 1.0 / (6.0 * (1.0 + 2.0 * 0.25) ** 2 + 2.0),
                         "T0": 10 ** 9, "cprime": 0.5, "r": 1.0},
            "train": {"steps": 2000},
            "delta": 0.01,
            "seed": 3 + seed,
        }
    if name == "multiclass-sgd":
        images, labels = corpus
        return "verify", {
            "kind": "early-multiclass",
            "dataset": {"type": "mnist", "images": str(images), "labels": str(labels),
                        "count": CORPUS_SIZE},
            "model": {"m": 200, "kappa": "auto"},
            "loss": "logistic",
            "schedule": {"type": "constant", "eta": 0.01},
            "train": {"steps": 34, "batch": {"B": 64, "seed": 1 + seed}},
            "delta": 0.01,
            "seed": seed,
        }
    if name == "prm-population":
        return "prm", {
            "kind": "prm",
            "prm": {"d": 40, "m": 40, "M": 40, "kappa": 0.1,
                    "eta": "auto", "steps": 2000, "seed": seed},
        }
    raise ValueError(f"unknown workload {name!r}")


def write_config(directory: Path, name: str, seed: int) -> tuple[str, Path]:
    """Write the workload's inputs under ``directory``; return (subcommand, config path)."""
    directory.mkdir(parents=True, exist_ok=True)
    corpus = write_corpus(directory, seed) if name == "multiclass-sgd" else None
    command, cfg = config(name, seed, corpus)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(cfg, indent=2))
    return command, path
