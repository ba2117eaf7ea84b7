"""Batch experiment runner: config parsing, runs, sweeps, certificates, reports.

Subcommands
-----------
``gen-data``  write a dataset (CSV + JSON sidecar) from a dataset spec
``train``     run one experiment; write steps.csv, summary.json, manifest.json
``verify``    train + evaluate the experiment kind's certificates (certificates.json)
``sweep``     cross-product of axis values over a base config; aggregate.csv
``prm``       teacher-student population-risk run + descent certificate
``report``    print a human-readable summary of a stored run directory

Configs are strict JSON: unknown keys are errors, so a misspelled constant
cannot silently fall back to a default.  Exit code is 0 iff no certificate
failed and no run aborted.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .datasets import (
    LabeledDataset,
    compute_gamma_constants,
    compute_V,
    export_dataset_csv,
    gen_orthant_separable,
    load_cifar10,
    load_mnist,
    validate_concentrated,
    validate_separable,
)
from .losses import LOSS_KEYS, loss_family
from .models import BinaryNet, InitSpec, init_binary, init_multi
from .training import (
    Constant,
    Full,
    LossInverse,
    Stochastic,
    TrainConfig,
    TwoStagePoly,
    exp_hitting_time_Te,
    run,
    steps_csv,
    tstar,
)
from . import certificates as certs
from . import partition as part
from . import prm as prm_mod

EXPERIMENT_KINDS = ("early-binary", "early-multiclass", "global-poly",
                    "global-exp", "prm", "certify-only")


class ConfigError(ValueError):
    pass


def _strict(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return obj[key]


# ---------------------------------------------------------------------------
# Dataset / schedule / model construction
# ---------------------------------------------------------------------------

def build_dataset(spec: dict, default_seed: int = 0) -> LabeledDataset:
    where = "dataset"
    kind = _require(spec, "type", where)
    if kind == "synthetic":
        _strict(spec, {"type", "n", "d", "seed", "antipodal"}, where)
        return gen_orthant_separable(
            n=int(_require(spec, "n", where)), d=int(_require(spec, "d", where)),
            seed=int(spec.get("seed", default_seed)),
            include_antipodal=bool(spec.get("antipodal", True)))
    if kind == "mnist":
        _strict(spec, {"type", "images", "labels", "count", "normalize"}, where)
        return load_mnist(_require(spec, "images", where), _require(spec, "labels", where),
                          count=int(spec.get("count", 1000)),
                          normalize=bool(spec.get("normalize", True)))
    if kind == "cifar10":
        _strict(spec, {"type", "path", "count", "normalize"}, where)
        return load_cifar10(_require(spec, "path", where), count=int(spec.get("count", 1000)),
                            normalize=bool(spec.get("normalize", True)))
    raise ConfigError(f"{where}: unknown type {kind!r}")


def build_schedule(spec: dict):
    where = "schedule"
    kind = _require(spec, "type", where)
    if kind == "constant":
        _strict(spec, {"type", "eta"}, where)
        return Constant(eta=float(_require(spec, "eta", where)))
    if kind == "loss-inverse":
        _strict(spec, {"type", "eta0", "c"}, where)
        return LossInverse(eta0=float(_require(spec, "eta0", where)),
                           c=float(_require(spec, "c", where)))
    if kind == "two-stage-poly":
        _strict(spec, {"type", "eta0", "c", "T0", "cprime", "r", "force_stage2_at"}, where)
        return TwoStagePoly(eta0=float(_require(spec, "eta0", where)),
                            c=float(_require(spec, "c", where)),
                            T0=int(_require(spec, "T0", where)),
                            cprime=float(_require(spec, "cprime", where)),
                            r=float(_require(spec, "r", where)),
                            force_stage2_at=spec.get("force_stage2_at"))
    raise ConfigError(f"{where}: unknown type {kind!r}")


def derive_kappa(raw, kind: str, eta: float, ds: LabeledDataset,
                 batch: Optional[int]) -> float:
    """Resolve kappa: explicit number, or "auto" from the experiment kind's cap."""
    if raw != "auto":
        return float(raw)
    if kind == "early-binary":
        rep = validate_separable(ds)
        mu0 = rep.mu0 if rep.mu0 is not None else 1.0
        return min(1e-3, eta / 2000.0, eta / (3.0 * ds.n), eta * mu0 / (3.0 * ds.n))
    if kind == "early-multiclass":
        B = batch if batch is not None else ds.n
        return min(eta / 10.0, eta / (3.0 * B))
    if kind in ("global-poly", "global-exp", "certify-only"):
        rep = validate_separable(ds)
        mu0 = rep.mu0 if rep.mu0 is not None else 1.0
        return min(1e-3, eta * mu0 / (3.0 * ds.n))
    raise ConfigError(f"kappa auto-derivation undefined for kind {kind!r}")


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------

_TOP_KEYS = {"kind", "dataset", "model", "loss", "schedule", "train", "delta", "seed", "prm"}


def run_experiment(config: dict, keep_params: bool = True):
    """Execute a non-PRM experiment config; returns (record, context dict)."""
    _strict(config, _TOP_KEYS, "config")
    kind = _require(config, "kind", "config")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"config: unknown kind {kind!r}")
    if kind == "prm":
        raise ConfigError("use run_prm_experiment for prm configs")
    ds = build_dataset(_require(config, "dataset", "config"), default_seed=config.get("seed", 0))
    delta = float(config.get("delta", 0.01))
    loss_key = config.get("loss", "quadratic" if kind != "early-multiclass" else "logistic")
    if loss_key not in LOSS_KEYS:
        raise ConfigError(f"config: unknown loss {loss_key!r}; known: {', '.join(LOSS_KEYS)}")
    loss = loss_family(loss_key)
    if kind == "certify-only" and "schedule" not in config:
        schedule = Constant(eta=0.01)   # certify-only takes no training steps
    else:
        schedule = build_schedule(_require(config, "schedule", "config"))

    model_spec = dict(_require(config, "model", "config"))
    _strict(model_spec, {"m", "kappa"}, "model")
    m = int(_require(model_spec, "m", "model"))

    train_spec = dict(config.get("train", {}))
    _strict(train_spec, {"steps", "batch", "trained_layers", "record_every"}, "train")
    batch_spec = train_spec.get("batch")
    batch_size = None
    if batch_spec is not None:
        _strict(batch_spec, {"B", "seed"}, "train.batch")
        batch_size = int(_require(batch_spec, "B", "train.batch"))

    eta_for_kappa = schedule.eta if isinstance(schedule, Constant) else schedule.eta0
    kappa = derive_kappa(model_spec.get("kappa", "auto"), kind, eta_for_kappa, ds, batch_size)
    seed = int(config.get("seed", 0))
    init = InitSpec(kappa=kappa, seed=seed)

    if kind == "early-multiclass":
        if ds.label_kind != "onehot":
            raise ConfigError("early-multiclass requires a one-hot dataset")
        net0 = init_multi(m, ds.d, ds.num_classes, init)
        variant = "multi"
    else:
        if ds.label_kind != "binary":
            raise ConfigError(f"{kind} requires a binary dataset")
        net0 = init_binary(m, ds.d, init)
        variant = "binary"

    if kind == "certify-only":
        default_steps = 0
    elif isinstance(schedule, Constant):
        default_steps = tstar(eta_for_kappa, variant)
    else:
        default_steps = 1000
    steps = int(train_spec.get("steps", default_steps))
    batching = Full() if batch_spec is None else Stochastic(
        B=batch_size, seed=int(batch_spec.get("seed", seed + 1)))
    tconf = TrainConfig(
        steps=steps, batching=batching,
        trained_layers=train_spec.get("trained_layers",
                                      "input_only" if kind == "global-exp" else "all"),
        record_every=int(train_spec.get("record_every", 1)),
        keep_params=keep_params,
    )
    record = run(net0, ds, loss, schedule, tconf)
    ctx = {"ds": ds, "net0": net0, "loss": loss, "schedule": schedule,
           "kind": kind, "delta": delta, "kappa": kappa, "variant": variant,
           "batch_size": batch_size, "seed": seed, "m": m}
    return record, ctx


def evaluate_certificates(record, ctx) -> list:
    """Certificates appropriate to the experiment kind; list of report dicts."""
    kind = ctx["kind"]
    ds, delta, m = ctx["ds"], ctx["delta"], ctx["m"]
    out = []

    if kind == "early-binary":
        g1, g2 = compute_gamma_constants(ds)
        consts = certs.TheoryConstants(n=ds.n, d=ds.d, m=m, delta=delta,
                                       eta=ctx["schedule"].eta, kappa=ctx["kappa"],
                                       gamma1=g1, gamma2=g2)
        budget = certs.probability_budget(consts, "binary_early")
        ts = tstar(consts.eta, "binary")
        te = exp_hitting_time_Te(consts.eta, ds.n, m, delta, "binary")
        losses = {r.t: r.loss for r in record.records}
        if 0 in losses and ts in losses:
            bound = certs.descent_bound_binary(consts)
            measured = losses[0] - losses[ts]
            out.append(certs.CertificateReport(
                "early-descent-binary", bound, measured, measured >= bound,
                measured - bound, inconclusive=budget >= 1.0,
                context={"budget": budget, "t_star": ts, "T_e": te}).as_dict())
        mt = record.measured_T
        out.append(certs.CertificateReport(
            "hitting-time-at-least-tstar", float(ts), float(mt if mt >= 0 else len(record.records)),
            mt < 0 or mt >= ts, float((mt if mt >= 0 else len(record.records)) - ts),
            context={"sentinel_not_yet_hit": mt < 0}).as_dict())
        if record.nets:
            horizon = min(ts, len(record.nets) - 1)
            worst_block, worst_lower = None, None
            grad_sq = {r.t: r.grad_norm ** 2 for r in record.records}
            grad_lower = []   # (slack, t, bound, measured) for every recorded t
            for t in range(1, horizon + 1):
                G = certs.gram_matrix(record.nets[t], ds)
                rb = certs.check_block_structure(G, ds)
                rl = certs.check_gram_lower_bound(G, ds, consts)
                if worst_block is None or rb.slack < worst_block.slack:
                    worst_block = rb
                if worst_lower is None or rl.slack < worst_lower.slack:
                    worst_lower = rl
                if t in grad_sq:
                    gl = certs.gradient_lower_bound_early(t, consts)
                    grad_lower.append((grad_sq[t] - gl, t, gl, grad_sq[t]))
            if grad_lower:
                # A bound <= 0 holds trivially; with no positive bound at
                # any step the certificate says nothing.
                live = [g for g in grad_lower if g[2] > 0.0]
                slack, t, gl, measured = min(live or grad_lower)
                out.append(certs.CertificateReport(
                    "early-gradient-lower", gl, measured, bool(live) and slack >= 0.0,
                    slack, inconclusive=not live,
                    context={"t": t,
                             "failing_steps": [g[1] for g in live if g[0] < 0.0]}).as_dict())
            if worst_block:
                out.append(worst_block.as_dict())
            if worst_lower:
                out.append(worst_lower.as_dict())
            viols = part.check_dynamics_early(record.nets[:horizon + 1], ds)
            out.append(certs.CertificateReport(
                "partition-dynamics-early", 0.0, float(len(viols)),
                len(viols) == 0, -float(len(viols)),
                context={"first": viols[0].__dict__ if viols else None}).as_dict())

    elif kind == "early-multiclass":
        eta = ctx["schedule"].eta
        consts = certs.TheoryConstants(n=ds.n, d=ds.d, m=m, delta=delta, eta=eta,
                                       kappa=ctx["kappa"], batch=ctx["batch_size"],
                                       num_classes=ds.num_classes)
        budget = certs.probability_budget(consts, "multi_early") if ctx["batch_size"] else None
        ts = tstar(eta, "multi")
        losses = {r.t: r.loss for r in record.records}
        if 0 in losses and ts in losses:
            bound = certs.descent_bound_multi()
            measured = losses[0] - losses[ts]
            out.append(certs.CertificateReport(
                "early-descent-multi", bound, measured, measured >= bound,
                measured - bound, context={"budget": budget, "t_star": ts}).as_dict())
        if record.nets:
            horizon = min(ts, len(record.nets) - 1)
            minima = certs.multi_gram_min_entry(record.nets[1:horizon + 1], ds)
            if minima:
                worst = min(minima)
                out.append(certs.CertificateReport(
                    "multi-gram-entries-at-least-one", 1.0, worst, worst >= 1.0,
                    worst - 1.0).as_dict())
        if record.batch_alignments:
            worst_align = min(record.batch_alignments)
            out.append(certs.CertificateReport(
                "stochastic-gradient-alignment", certs.STOCHASTIC_ALIGNMENT_BOUND,
                worst_align, worst_align >= certs.STOCHASTIC_ALIGNMENT_BOUND,
                worst_align - certs.STOCHASTIC_ALIGNMENT_BOUND).as_dict())

    elif kind in ("global-poly", "global-exp"):
        dc = compute_V(ds, m, delta)
        sched = ctx["schedule"]
        c = sched.c
        kind_env = "poly_stage1" if kind == "global-poly" else "exponential"
        rep = certs.fit_convergence_rate(record.records, kind_env, dc.V, c)
        if dc.vacuous:
            rep = certs.CertificateReport(rep.cert_id, rep.theoretical, rep.measured,
                                          rep.passed, rep.slack, inconclusive=True,
                                          context=dict(rep.context, vacuous_V=True))
        out.append(rep.as_dict())
        cc = part.check_correct_classification(record)
        out.append(certs.CertificateReport(
            "correct-classification", 0.0,
            0.0 if cc is None else cc[1], cc is None,
            0.0 if cc is None else cc[1],
            context={"first_violation": cc}).as_dict())
        if record.nets:
            viols = part.check_dynamics_global(record.nets, ds)
            out.append(certs.CertificateReport(
                "partition-dynamics-global", 0.0, float(len(viols)),
                len(viols) == 0, -float(len(viols)),
                context={"first": viols[0].__dict__ if viols else None}).as_dict())

    elif kind == "certify-only":
        if ds.label_kind == "binary":
            rep = validate_separable(ds)
            g1, g2 = compute_gamma_constants(ds)
            dc = compute_V(ds, m, delta)
            out.append(certs.CertificateReport(
                "gamma-sandwich", g2 / 2.0, g1, g2 / 2.0 <= g1 <= g2,
                min(g1 - g2 / 2.0, g2 - g1),
                context={"gamma1": g1, "gamma2": g2, "V": dc.V,
                         "separable": rep.separable, "mu0": rep.mu0}).as_dict())
        else:
            rep = validate_concentrated(ds)
            out.append(certs.CertificateReport(
                "concentration", -1.0, rep.s, rep.concentrated,
                rep.s + 1.0).as_dict())
    return out


# ---------------------------------------------------------------------------
# PRM execution
# ---------------------------------------------------------------------------

def run_prm_experiment(config: dict):
    _strict(config, {"kind", "prm", "seed"}, "config")
    spec = dict(_require(config, "prm", "config"))
    _strict(spec, {"d", "m", "M", "kappa", "eta", "steps", "seed"}, "prm")
    d = int(_require(spec, "d", "prm"))
    m = int(_require(spec, "m", "prm"))
    M = int(spec.get("M", d))
    kappa = float(_require(spec, "kappa", "prm"))
    seed = int(spec.get("seed", config.get("seed", 0)))
    probe = prm_mod.TeacherStudentConfig(d=d, m=m, M=M, kappa=kappa, eta=1.0,
                                         seed=seed, steps=0)
    eta_raw = spec.get("eta", "auto")
    eta = prm_mod.max_compliant_eta(probe) if eta_raw == "auto" else float(eta_raw)
    cfg = prm_mod.TeacherStudentConfig(d=d, m=m, M=M, kappa=kappa, eta=eta, seed=seed,
                                       steps=int(spec.get("steps",
                                                          math.ceil(prm_mod.prm_tstar_plus_one(
                                                              prm_mod.TeacherStudentConfig(
                                                                  d=d, m=m, M=M, kappa=kappa,
                                                                  eta=eta, seed=seed, steps=0))) + 2)))
    record = prm_mod.run_prm_gd(cfg)
    cert = prm_mod.prm_descent_certificate(cfg, record)
    return cfg, record, cert


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return _sha256_text(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n"


def _emit_run(outdir: Path, config: dict, record, ctx, cert_dicts=None) -> bool:
    outdir.mkdir(parents=True, exist_ok=True)
    csv_text = steps_csv(record)
    digests = {"steps.csv": _write(outdir / "steps.csv", csv_text)}
    first = record.records[0]
    last = record.records[-1]
    summary = {
        "kind": ctx["kind"],
        "status": record.status,
        "n": ctx["ds"].n, "d": ctx["ds"].d, "m": ctx["m"],
        "kappa": ctx["kappa"], "delta": ctx["delta"],
        "seed": ctx["seed"],
        "initial_loss": first.loss, "final_loss": last.loss,
        "descent": first.loss - last.loss,
        "measured_T": record.measured_T,
        "steps": record.records[-1].t,
        "dataset_digest": ctx["ds"].digest(),
        "net0_digest": ctx["net0"].digest(),
        "run_digest": record.digest(),
    }
    digests["summary.json"] = _write(outdir / "summary.json", _json_dump(summary))
    ok = record.status in ("completed", "converged-exactly")
    if cert_dicts is not None:
        digests["certificates.json"] = _write(outdir / "certificates.json",
                                              _json_dump(cert_dicts))
        ok = ok and all(c["passed"] or c.get("inconclusive") for c in cert_dicts)
    manifest = {
        "config": config,
        "versions": {"artifact": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "digests": digests,
    }
    _write(outdir / "manifest.json", _json_dump(manifest))
    return ok


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(config: dict, outdir: Path, seed: Optional[int]) -> int:
    ds = build_dataset(config, default_seed=seed if seed is not None else 0)
    outdir.mkdir(parents=True, exist_ok=True)
    export_dataset_csv(ds, outdir / "dataset.csv", outdir / "dataset.json")
    print(f"wrote {outdir / 'dataset.csv'} ({ds.n} x {ds.d}, {ds.label_kind})")
    return 0


def cmd_train(config: dict, outdir: Path, seed: Optional[int]) -> int:
    if seed is not None:
        config = dict(config, seed=seed)
    record, ctx = run_experiment(config)
    ok = _emit_run(outdir, config, record, ctx, cert_dicts=None)
    print(f"run {ctx['kind']}: status={record.status} "
          f"loss {record.records[0].loss:.6g} -> {record.records[-1].loss:.6g}")
    return 0 if ok else 1


def cmd_verify(config: dict, outdir: Path, seed: Optional[int]) -> int:
    if seed is not None:
        config = dict(config, seed=seed)
    record, ctx = run_experiment(config)
    cert_dicts = evaluate_certificates(record, ctx)
    ok = _emit_run(outdir, config, record, ctx, cert_dicts=cert_dicts)
    failed = [c for c in cert_dicts if not (c["passed"] or c.get("inconclusive"))]
    for c in cert_dicts:
        verdict = "PASS" if c["passed"] else ("INCONCLUSIVE" if c.get("inconclusive") else "FAIL")
        print(f"  [{verdict}] {c['cert_id']}: bound={c['theoretical']:.6g} "
              f"measured={c['measured']:.6g} slack={c['slack']:.3g}")
    return 0 if ok and not failed else 1


def _set_path(obj: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    cur = obj
    for p in parts[:-1]:
        cur = cur.setdefault(p, {})
    cur[parts[-1]] = value


_SWEEP_COLUMNS = ["run_dir", "status", "initial_loss", "final_loss",
                  "descent", "measured_T", "certificates_failed"]


def _sweep_entry(args):
    """Run one sweep cell; returns (ok, row).  A cell whose config is invalid
    becomes a ``status=error:<msg>`` row with empty numeric fields, so the
    other cells' rows are kept."""
    base, assignment, subdir = args
    config = json.loads(json.dumps(base))
    for path, value in assignment:
        _set_path(config, path, value)
    row = dict.fromkeys(_SWEEP_COLUMNS, "")
    row["run_dir"] = str(subdir)
    row.update(assignment)
    try:
        record, ctx = run_experiment(config)
        cert_dicts = evaluate_certificates(record, ctx)
        ok = _emit_run(Path(subdir), config, record, ctx, cert_dicts=cert_dicts)
    except (ValueError, FileNotFoundError) as exc:   # ConfigError included
        row["status"] = f"error:{exc}"
        return False, row
    first, last = record.records[0], record.records[-1]
    row.update({
        "status": record.status,
        "initial_loss": first.loss,
        "final_loss": last.loss,
        "descent": first.loss - last.loss,
        "measured_T": record.measured_T,
        "certificates_failed": sum(
            0 if c["passed"] or c.get("inconclusive") else 1 for c in cert_dicts),
    })
    return ok, row


def cmd_sweep(spec: dict, outdir: Path, jobs: int) -> int:
    _strict(spec, {"base", "axes"}, "sweep")
    base = _require(spec, "base", "sweep")
    axes = _require(spec, "axes", "sweep")
    for ax in axes:
        _strict(ax, {"path", "values"}, "sweep.axes")
    combos = list(itertools.product(*[[(ax["path"], v) for v in ax["values"]] for ax in axes]))
    if len(combos) > 10_000:
        raise ConfigError(f"sweep cross-product {len(combos)} exceeds 10000")
    outdir.mkdir(parents=True, exist_ok=True)
    tasks = [(base, assignment, str(outdir / f"run_{i:04d}"))
             for i, assignment in enumerate(combos)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(_sweep_entry, tasks))
    else:
        results = [_sweep_entry(t) for t in tasks]
    cols = [ax["path"] for ax in axes] + _SWEEP_COLUMNS
    with open(outdir / "aggregate.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for _, row in results:
            writer.writerow(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                            for c in cols)
    errors = [row for _, row in results if row["status"].startswith("error:")]
    for row in errors:
        print(f"{row['run_dir']}: {row['status']}", file=sys.stderr)
    if errors:
        print(f"sweep: {len(results)} runs, {len(errors)} errored")
        return 2
    all_ok = all(ok for ok, _ in results)
    print(f"sweep: {len(results)} runs, {'all certificates passed' if all_ok else 'FAILURES present'}")
    return 0 if all_ok else 1


def cmd_prm(config: dict, outdir: Path, seed: Optional[int]) -> int:
    if seed is not None:
        config = dict(config)
        config.setdefault("prm", {})
        config["prm"] = dict(config["prm"], seed=seed)
    cfg, record, cert = run_prm_experiment(config)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_text = prm_mod.prm_csv(record)
    digests = {"steps.csv": _write(outdir / "steps.csv", csv_text)}
    summary = {
        "kind": "prm",
        "d": cfg.d, "m": cfg.m, "M": cfg.M, "kappa": cfg.kappa,
        "eta": cfg.eta, "steps": cfg.steps, "seed": cfg.seed,
        "eta_compliant": record.eta_compliant,
        "extension_mode": cfg.extension_mode,
        "initial_loss": record.losses[0], "final_loss": record.losses[-1],
        "loss_at_origin": prm_mod.loss_at_origin(cfg),
        "measured_T": record.measured_T,
        "norm_monotone": record.norm_monotone,
    }
    digests["summary.json"] = _write(outdir / "summary.json", _json_dump(summary))
    cert_dicts = [cert.as_dict()]
    digests["certificates.json"] = _write(outdir / "certificates.json", _json_dump(cert_dicts))
    manifest = {"config": config,
                "versions": {"artifact": __version__, "numpy": np.__version__,
                             "python": sys.version.split()[0]},
                "digests": digests}
    _write(outdir / "manifest.json", _json_dump(manifest))
    verdict = "PASS" if cert.passed else ("INCONCLUSIVE" if cert.inconclusive else "FAIL")
    print(f"  [{verdict}] prm-two-term-descent: bound={cert.theoretical:.6g} "
          f"measured={cert.measured:.6g}")
    return 0 if cert.passed or cert.inconclusive else 1


def cmd_report(rundir: Path) -> int:
    summary = json.loads((rundir / "summary.json").read_text())
    print(f"run directory: {rundir}")
    for key in sorted(summary):
        print(f"  {key:>18}: {summary[key]}")
    cert_path = rundir / "certificates.json"
    ok = True
    if cert_path.exists():
        cert_dicts = json.loads(cert_path.read_text())
        print(f"  certificates ({len(cert_dicts)}):")
        for c in cert_dicts:
            verdict = "PASS" if c["passed"] else ("INCONCLUSIVE" if c.get("inconclusive") else "FAIL")
            ok = ok and (c["passed"] or c.get("inconclusive"))
            print(f"    [{verdict}] {c['cert_id']}: bound={c['theoretical']} "
                  f"measured={c['measured']} slack={c['slack']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="relulab",
                                     description="Verification laboratory for two-layer ReLU training dynamics")
    parser.add_argument("command", choices=["gen-data", "train", "verify", "sweep", "prm", "report"])
    parser.add_argument("--config", type=Path, help="JSON config path")
    parser.add_argument("--out", type=Path, required=True, help="output (or report input) directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            return cmd_report(args.out)
        if args.config is None:
            parser.error("--config is required for this command")
        config = json.loads(args.config.read_text())
        if args.command == "gen-data":
            return cmd_gen_data(config, args.out, args.seed)
        if args.command == "train":
            return cmd_train(config, args.out, args.seed)
        if args.command == "verify":
            return cmd_verify(config, args.out, args.seed)
        if args.command == "sweep":
            return cmd_sweep(config, args.out, args.jobs)
        if args.command == "prm":
            return cmd_prm(config, args.out, args.seed)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
