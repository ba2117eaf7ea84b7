#!/usr/bin/env python3
"""Check that two checkouts write byte-identical outputs for the seed-0 configs.

Usage:

    python3 scripts/same_outputs.py PARENT_DIR CHANGE_DIR

The inputs are written once, from the change tree: the regimes of
``scripts/run_suite.py`` (the early-multiclass regime on the benchmark's
IDX corpus), the four workload configs of ``perfbench/workloads.py`` (read,
never changed), a ``train`` run at its default horizon, at ``train.steps:
10`` and at ``train.record_every: 5``, ``prm`` in extension mode (M > d, so
some teachers are random) at the suite's scale and at d = 40, m = 40, M = 60
for 300 steps, at a fixed numeric ``eta``, at d = 40, m = 33, M = 40 for 300
steps (a non-square student-teacher kernel matrix at the benchmark's scale),
for 20 000 steps (its steps.csv is streamed), and at kappa = 0.9, where the
certified horizon is empty, with and without ``prm.steps``, ``gen-data`` on a binary dataset with and without the
antipodal pair and on the IDX corpus, a two-cell ``sweep``, a small
early-binary ``verify`` at eta = 1e-4 with its default horizon (T_e =
2204), three ``verify`` runs whose partition checks fail (the early-binary
workload at m = 512, kappa = 100; the global-poly workload and the suite's
global-exp regime at kappa = 1 for 300 steps), a ``verify`` of the
early-binary and global-poly workloads at ``train.record_every: 5``, three
runs of the streamed steps.csv (a global-poly ``verify`` at ``train.steps:
5000`` and ``record_every: 7``, an early-binary ``train`` that aborts at
t = 10, and a ``train`` of the multiclass-sgd workload at ``record_every:
4``), four
``verify`` runs whose certificates are partly unmeasured (the suite's
early-binary regime at ``train.steps: 5`` and ``train.steps: 0``, the
multiclass-sgd workload at ``train.steps: 0`` and at full batch), and
``report`` on every verify and prm run directory.
Each command then runs through each tree's own CLI (``python -m
relulab.cli`` with that tree's ``src`` on the path and BLAS at one thread,
as in the benchmark), in a fresh working directory per tree, with relative
output paths.  Every output file, and each command's exit code, stdout and
stderr (with the tree's path written as ``<tree>``), is compared byte for byte.  Exit code 0 only when all of them match.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_inputs(change: Path, inputs: Path) -> list:
    """Write every config and the IDX corpus under ``inputs``; return the
    commands as (name, argv) with output paths relative to the working directory."""
    sys.path.insert(0, str(change / "src"))
    suite = _load(change / "scripts" / "run_suite.py", "run_suite")
    workloads = _load(change / "perfbench" / "workloads.py", "perfbench_workloads")
    corpus = inputs / "corpus"
    corpus.mkdir(parents=True)
    images, labels = workloads.write_corpus(corpus, 0)
    shutil.copy(images, corpus / "train-images-idx3-ubyte")
    shutil.copy(labels, corpus / "train-labels-idx1-ubyte")

    configs = {   # name -> (subcommand, config)
        "suite-early-binary": ("verify", suite.EARLY_BINARY),
        "suite-global-exp": ("verify", suite.GLOBAL_EXP),
        "suite-global-poly": ("verify", suite.GLOBAL_POLY),
        "suite-certify-only": ("verify", suite.CERTIFY_ONLY),
        "suite-prm": ("prm", suite.PRM),
        "prm-extension-mode": ("prm", {"kind": "prm", "prm": dict(suite.PRM["prm"], M=14)}),
        "prm-fixed-eta": ("prm", {"kind": "prm", "prm": dict(suite.PRM["prm"], eta=0.003,
                                                              steps=20)}),
        # kappa >= 1/pi: the certified horizon T*+1 is empty (-4.42).
        "prm-kappa-0.9": ("prm", {"kind": "prm", "prm": dict(suite.PRM["prm"], kappa=0.9)}),
        "prm-kappa-0.9-no-steps": ("prm", {"kind": "prm", "prm": {
            k: v for k, v in dict(suite.PRM["prm"], kappa=0.9).items() if k != "steps"}}),
        "suite-early-multiclass": ("verify", suite.early_multiclass_config(corpus)),
        "train-early-binary": ("train", suite.EARLY_BINARY),
        "train-steps-10": ("train", dict(suite.EARLY_BINARY, train={"steps": 10})),
        "train-record-every-5": ("train", dict(suite.GLOBAL_POLY,
                                               train={"steps": 2000, "record_every": 5})),
        "gen-data-antipodal": ("gen-data", {"type": "synthetic", "n": 40, "d": 30, "seed": 0}),
        "gen-data-no-antipodal": ("gen-data", {"type": "synthetic", "n": 12, "d": 6, "seed": 0,
                                               "antipodal": False}),
        "gen-data-idx": ("gen-data", {"type": "mnist", "images": str(images),
                                      "labels": str(labels), "count": 200}),
        "sweep": ("sweep", {"base": dict(suite.EARLY_BINARY, model={"m": 256, "kappa": "auto"}),
                            "axes": [{"path": "seed", "values": [0, 1]}]}),
        # t* = 4479 and T_e = 2204: the hitting-time search far past the workloads' T_e.
        "small-rate-early-binary": ("verify", {
            "kind": "early-binary", "dataset": {"type": "synthetic", "n": 6, "d": 8, "seed": 1},
            "model": {"m": 16, "kappa": "auto"}, "loss": "quadratic",
            "schedule": {"type": "constant", "eta": 1e-4}, "delta": 0.01, "seed": 1}),
    }
    for name in ("early-binary", "global-poly", "multiclass-sgd", "prm-population"):
        command, cfg = workloads.config(name, 0, (images, labels))
        configs[f"perfbench-{name}"] = (command, cfg)
    # A non-square student-teacher kernel matrix at the benchmark's scale.
    population = workloads.config("prm-population", 0)[1]
    configs["prm-odd-shapes"] = ("prm", {"kind": "prm", "prm": dict(population["prm"], m=33,
                                                                   steps=300)})
    configs["prm-extension-mode-40-60"] = ("prm", {"kind": "prm", "prm": dict(
        population["prm"], M=60, steps=300)})
    configs["prm-20000-steps"] = ("prm", {"kind": "prm", "prm": dict(suite.PRM["prm"],
                                                                    steps=20_000)})
    # Runs whose partition checks fail, so the violations are compared too.
    early, poly = (workloads.config(name, 0)[1] for name in ("early-binary", "global-poly"))
    configs["partition-fails-early-binary"] = ("verify", dict(early, model={"m": 512,
                                                                           "kappa": 100}))
    for name, cfg in (("global-poly", poly), ("global-exp", suite.GLOBAL_EXP)):
        configs[f"partition-fails-{name}"] = ("verify", dict(
            cfg, model=dict(cfg["model"], kappa=1), train={"steps": 300}))
    # Certificates read every step's record whatever the steps.csv thinning.
    for name, cfg in (("early-binary", early), ("global-poly", poly)):
        configs[f"record-every-5-{name}"] = ("verify", dict(
            cfg, train=dict(cfg["train"], record_every=5)))
    # steps.csv is streamed: a long run whose last step (5000) is no multiple
    # of record_every, a run that aborts partway (at constant eta = 5 the loss
    # overflows at t = 10; the row of its last step, 9, is written when it
    # stops), and a thinned train run.
    configs["streamed-global-poly-5000-every-7"] = ("verify", dict(
        poly, train={"steps": 5000, "record_every": 7}))
    configs["streamed-early-binary-aborts"] = ("train", dict(
        early, schedule={"type": "constant", "eta": 5.0},
        train={"steps": 300, "record_every": 7}))
    multi = configs["perfbench-multiclass-sgd"][1]
    configs["streamed-train-multiclass-sgd-every-4"] = ("train", dict(
        multi, train=dict(multi["train"], record_every=4)))

    # Runs that measure only part of their kind's certificates.
    for steps in (5, 0):
        configs[f"early-binary-steps-{steps}"] = ("verify", dict(suite.EARLY_BINARY,
                                                                 train={"steps": steps}))
    configs["multiclass-sgd-steps-0"] = ("verify", dict(multi, train=dict(multi["train"], steps=0)))
    configs["multiclass-sgd-full-batch"] = ("verify", dict(multi, train={
        k: v for k, v in multi["train"].items() if k != "batch"}))

    commands = []
    for name, (command, cfg) in configs.items():
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2))
        commands.append((name, [command, "--config", str(path), "--out", name]))
    commands += [(f"report-{name}", ["report", "--out", name])
                 for name, (command, _) in configs.items() if command in ("verify", "prm")]
    return commands


def run_tree(tree: Path, commands: list, workdir: Path) -> dict:
    """Run every command through ``tree``'s CLI in ``workdir``; return
    {relative path: bytes} of every output plus each command's transcript."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    outputs = {}
    for name, argv in commands:
        proc = subprocess.run([sys.executable, "-m", "relulab.cli", *argv], cwd=workdir,
                              env=env, capture_output=True)
        outputs[f"<{name}: exit code>"] = str(proc.returncode).encode()
        outputs[f"<{name}: stdout>"] = proc.stdout
        # A warning names the source file, which lies under each tree's own path.
        outputs[f"<{name}: stderr>"] = proc.stderr.replace(str(tree.resolve()).encode(), b"<tree>")
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            outputs[str(path.relative_to(workdir))] = path.read_bytes()
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        commands = write_inputs(args.change.resolve(), root / "inputs")
        runs = {side: run_tree(tree, commands, root / side)
                for side, tree in (("parent", args.parent), ("change", args.change))}
    parent, change = runs["parent"], runs["change"]
    differing = sorted(k for k in parent.keys() | change.keys() if parent.get(k) != change.get(k))
    for key in differing:
        state = ("only in parent" if key not in change else
                 "only in change" if key not in parent else "differs")
        print(f"{state}: {key}")
    print(f"{len(commands)} commands, {len(parent.keys() | change.keys())} outputs compared, "
          f"{len(differing)} differ")
    return 0 if not differing else 1


if __name__ == "__main__":
    sys.exit(main())
