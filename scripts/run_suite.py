#!/usr/bin/env python3
"""Run the full verification suite and print a certificate scoreboard.

Executes one representative experiment per regime through the command-line
interface, then summarizes every emitted certificate.  A failed certificate
is a finding, not a crash: the script prints it and exits 1 so automation
can notice, while the per-run artifacts under --out hold the details.

At seed 0 the early-binary and global-poly workloads of the benchmark
(``perfbench/workloads.py``) are ``EARLY_BINARY`` and ``GLOBAL_POLY``.

Usage:
    python3 scripts/run_suite.py --out runs/suite [--data-dir data/digits]
"""

import argparse
import json
from pathlib import Path

from relulab.certificates import holds, verdict
from relulab.cli import main as cli_main

EARLY_BINARY = {
    "kind": "early-binary",
    "dataset": {"type": "synthetic", "n": 40, "d": 30, "seed": 0},
    "model": {"m": 4096, "kappa": "auto"},
    "loss": "quadratic",
    "schedule": {"type": "constant", "eta": 0.01},
    "train": {"steps": 46},
    "delta": 0.01,
    "seed": 0,
}

GLOBAL_EXP = {
    "kind": "global-exp",
    "dataset": {"type": "synthetic", "n": 20, "d": 25, "seed": 3},
    "model": {"m": 1024, "kappa": "auto"},
    "loss": "exp",
    "schedule": {"type": "loss-inverse", "eta0": 0.25, "c": 0.5},
    "train": {"steps": 1000},
    "delta": 0.01,
    "seed": 3,
}

GLOBAL_POLY = {
    "kind": "global-poly",
    "dataset": {"type": "synthetic", "n": 20, "d": 25, "seed": 3},
    "model": {"m": 1024, "kappa": "auto"},
    "loss": "exp",
    "schedule": {"type": "two-stage-poly", "eta0": 0.25,
                 "c": 1.0 / (6.0 * (1.0 + 2.0 * 0.25) ** 2 + 2.0),
                 "T0": 10 ** 9, "cprime": 0.5, "r": 1.0},
    "train": {"steps": 2000},
    "delta": 0.01,
    "seed": 3,
}

CERTIFY_ONLY = {
    "kind": "certify-only",
    "dataset": {"type": "synthetic", "n": 40, "d": 30, "seed": 0},
    "model": {"m": 4096, "kappa": "auto"},
    "delta": 0.01,
    "seed": 0,
}

PRM = {
    "kind": "prm",
    "prm": {"d": 10, "m": 10, "M": 10, "kappa": 0.1,
            "eta": "auto", "steps": 10, "seed": 0},
}


def early_multiclass_config(data_dir: Path) -> dict:
    return {
        "kind": "early-multiclass",
        "dataset": {"type": "mnist",
                    "images": str(data_dir / "train-images-idx3-ubyte"),
                    "labels": str(data_dir / "train-labels-idx1-ubyte"),
                    "count": 1000},
        "model": {"m": 200, "kappa": "auto"},
        "loss": "logistic",
        "schedule": {"type": "constant", "eta": 0.01},
        "train": {"steps": 34, "batch": {"B": 64, "seed": 1}},
        "delta": 0.01,
        "seed": 0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--data-dir", default=None,
                        help="directory with IDX image/label files; enables "
                             "the multi-class image run")
    args = parser.parse_args()

    experiments = {
        "early-binary": EARLY_BINARY,
        "global-exp": GLOBAL_EXP,
        "global-poly": GLOBAL_POLY,
        "certify-only": CERTIFY_ONLY,
        "prm": PRM,
    }
    if args.data_dir:
        experiments["early-multiclass"] = early_multiclass_config(Path(args.data_dir))

    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    total_failed = 0
    for name, config in experiments.items():
        run_dir = out_root / name
        cfg_path = out_root / f"{name}.json"
        cfg_path.write_text(json.dumps(config, indent=2))
        cmd = "prm" if name == "prm" else "verify"
        code = cli_main([cmd, "--config", str(cfg_path), "--out", str(run_dir)])
        certs = json.loads((run_dir / "certificates.json").read_text())
        print(f"\n== {name} (exit {code}) ==")
        for cert in certs:
            total_failed += not holds(cert)
            print(f"  {verdict(cert):12s} {cert['cert_id']:34s} "
                  f"measured={cert['measured']:+.6g} "
                  f"bound={cert['theoretical']:+.6g}")
    print(f"\n{total_failed} certificate(s) failed across "
          f"{len(experiments)} experiments")
    return 1 if total_failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
