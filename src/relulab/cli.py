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
cannot silently fall back to a default.  What a kind trains and certifies,
and the ids of its certificates, is one ``Kind`` record in ``_KINDS``.  Exit code 0: no certificate failed and no
run aborted; 1: one did; 2: a usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

from . import __version__
from .datasets import (
    LabeledDataset,
    SeparabilityReport,
    compute_gamma_constants,
    compute_V,
    export_dataset_csv,
    gen_orthant_separable,
    load_cifar10,
    load_mnist,
    validate_separable,
)
from .losses import LOSS_KEYS, loss_family
from .models import InitSpec, digest, init_binary, init_multi
from .training import (
    Constant,
    Full,
    LossInverse,
    StepLog,
    StepWindow,
    Stochastic,
    TrainConfig,
    TwoStagePoly,
    exp_hitting_time_Te,
    run,
    tstar,
)
from . import certificates as certs
from . import partition as part
from . import prm as prm_mod


class ConfigError(ValueError):
    pass


def _object(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object, not {json.dumps(obj)}")
    return obj


def _strict(obj, allowed: set, where: str) -> dict:
    unknown = set(_object(obj, where)) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")
    return obj


def _require(obj: dict, key: str, where: str, cast=None):
    if key not in obj:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return obj[key] if cast is None else _cast(obj[key], f"{where}.{key}", cast)


def _cast(value, where: str, cast=float):
    """``cast(value)``; a JSON type the cast refuses (null, an array, an object;
    a number for a path) is a ConfigError, a malformed string a ValueError."""
    try:
        return cast(value)
    except TypeError:
        raise ConfigError(f"{where}: cannot read {json.dumps(value)} as {cast.__name__}") from None


# ---------------------------------------------------------------------------
# Dataset / schedule / model construction
# ---------------------------------------------------------------------------

def build_dataset(spec: dict, default_seed: int = 0) -> LabeledDataset:
    where = "dataset"
    kind = _require(_object(spec, where), "type", where)
    if kind == "synthetic":
        _strict(spec, {"type", "n", "d", "seed", "antipodal"}, where)
        return gen_orthant_separable(
            n=_require(spec, "n", where, int), d=_require(spec, "d", where, int),
            seed=_cast(spec.get("seed", default_seed), "dataset.seed", int),
            include_antipodal=bool(spec.get("antipodal", True)))
    if kind == "mnist":
        _strict(spec, {"type", "images", "labels", "count", "normalize"}, where)
        return load_mnist(_require(spec, "images", where, Path),
                          _require(spec, "labels", where, Path),
                          count=_cast(spec.get("count", 1000), "dataset.count", int),
                          normalize=bool(spec.get("normalize", True)))
    if kind == "cifar10":
        _strict(spec, {"type", "path", "count", "normalize"}, where)
        return load_cifar10(_require(spec, "path", where, Path),
                            count=_cast(spec.get("count", 1000), "dataset.count", int),
                            normalize=bool(spec.get("normalize", True)))
    raise ConfigError(f"{where}: unknown type {kind!r}")


def build_schedule(spec: dict):
    where = "schedule"
    kind = _require(_object(spec, where), "type", where)
    if kind == "constant":
        _strict(spec, {"type", "eta"}, where)
        return Constant(eta=_require(spec, "eta", where, float))
    if kind == "loss-inverse":
        _strict(spec, {"type", "eta0", "c"}, where)
        return LossInverse(eta0=_require(spec, "eta0", where, float),
                           c=_require(spec, "c", where, float))
    if kind == "two-stage-poly":
        _strict(spec, {"type", "eta0", "c", "T0", "cprime", "r"}, where)
        return TwoStagePoly(eta0=_require(spec, "eta0", where, float),
                            c=_require(spec, "c", where, float),
                            T0=_require(spec, "T0", where, int),
                            cprime=_require(spec, "cprime", where, float),
                            r=_require(spec, "r", where, float))
    raise ConfigError(f"{where}: unknown type {kind!r}")


# ---------------------------------------------------------------------------
# Experiment kinds
# ---------------------------------------------------------------------------

def _separability(ctx) -> SeparabilityReport:
    """``validate_separable`` of the run's dataset, computed at most once per
    run: without an antipodal pair it is an O(n^3) witness search."""
    if "separability" not in ctx:
        ctx["separability"] = validate_separable(ctx["ds"])
    return ctx["separability"]


def _mu0(ctx) -> float:
    rep = _separability(ctx)
    return rep.mu0 if rep.mu0 is not None else 1.0


def _kappa_early_binary(eta: float, ctx) -> float:
    n = ctx["ds"].n
    return min(1e-3, eta / 2000.0, eta / (3.0 * n), eta * _mu0(ctx) / (3.0 * n))


def _kappa_early_multi(eta: float, ctx) -> float:
    B = ctx["batch_size"] if ctx["batch_size"] is not None else ctx["ds"].n
    return min(eta / 10.0, eta / (3.0 * B))


def _kappa_global(eta: float, ctx) -> float:
    return min(1e-3, eta * _mu0(ctx) / (3.0 * ctx["ds"].n))


def _partition_report(cert_id: str, viols: list) -> dict:
    return certs.at_most(cert_id, 0.0, float(len(viols)),
                         first=viols[0].__dict__ if viols else None).as_dict()


def _hitting_time_report(record, ts: int) -> dict:
    # Not hit: T is at least the last step reached (the window rule reads a
    # run that stopped before t*).  A violation at t <= 1 is a hit with T = -1.
    hit = record.first_violation is not None
    measured = record.measured_T if hit else record.records.last.t
    return certs.CertificateReport(
        "hitting-time-at-least-tstar", float(ts), float(measured), not hit or measured >= ts,
        float(measured - ts), context={"sentinel_not_yet_hit": not hit}).as_dict()


def _early_descent_report(cert_id: str, bound: float, records, ts: int,
                          inconclusive: bool = False, **context) -> list:
    """L(0) - L(t*) of the records of steps 0..t* against the early-descent
    bound; no report when the run did not reach t*."""
    if len(records) <= ts:
        return []
    measured = records[0].loss - records[ts].loss
    return [certs.at_least(cert_id, bound, measured, inconclusive, t_star=ts, **context).as_dict()]


# Each ``_certify_*`` takes the run context before training and returns
# (observers, report): the observers watch every training step, and
# ``report(record)`` reads them and the run record into report dicts.  Every
# reader of the step records is an observer with bounded state: the early
# kinds keep the records of steps 0..t*, a window the config fixes.  A
# builder emits only what the run measured; ``evaluate_certificates`` fills
# in the rest of the kind's ``cert_ids``.

def _certify_early_binary(ctx):
    ds, delta, m, ts = ctx["ds"], ctx["delta"], ctx["m"], ctx["tstar"]
    g1, g2 = compute_gamma_constants(ds)
    consts = certs.TheoryConstants(n=ds.n, d=ds.d, m=m, delta=delta,
                                   eta=ctx["schedule"].eta, gamma1=g1, gamma2=g2)
    budget = certs.probability_budget(consts, "binary_early")
    te = exp_hitting_time_Te(consts.eta, ds.n, m, delta, "binary")
    gram = certs.GramChecks(ds, consts, range(1, ts + 1))
    dynamics = part.EarlyDynamics(ds, range(ts + 1))
    window = StepWindow(range(ts + 1))

    def report(record) -> list:
        out = _early_descent_report("early-descent-binary", certs.descent_bound_binary(consts),
                                    window.records, ts, inconclusive=budget >= 1.0,
                                    budget=budget, T_e=te)
        if window.records:
            out.append(_hitting_time_report(record, ts))
        steps = window.records[1:]
        if steps:
            bound = np.array([certs.gradient_lower_bound_early(r.t, consts) for r in steps])
            measured = np.array([r.grad_norm ** 2 for r in steps])
            k = certs.worst_entry(bound, measured)
            failing = [r.t for r, b, g in zip(steps, bound, measured) if not g >= b]
            out.append(certs.at_least("early-gradient-lower", float(bound[k]), float(measured[k]),
                                      t=steps[k].t, failing_steps=failing).as_dict())
        out.extend(r.as_dict() for r in gram.reports())
        if dynamics.seen > 1:   # steps 0 and 1: the first-step rules
            out.append(_partition_report("partition-dynamics-early", dynamics.violations()))
        return out

    return [gram, dynamics, window], report


def _certify_early_multiclass(ctx):
    ds, ts = ctx["ds"], ctx["tstar"]
    consts = certs.TheoryConstants(n=ds.n, d=ds.d, m=ctx["m"], delta=ctx["delta"],
                                   eta=ctx["schedule"].eta, batch=ctx["batch_size"])
    budget = certs.probability_budget(consts, "multi_early") if ctx["batch_size"] else None
    gram = certs.MultiGramMin(ds, range(1, ts + 1))
    window = StepWindow(range(ts + 1))

    def report(record) -> list:
        out = _early_descent_report("early-descent-multi", certs.descent_bound_multi(),
                                    window.records, ts,
                                    inconclusive=budget is not None and budget >= 1.0,
                                    budget=budget)
        if gram.minima:
            out.append(certs.at_least("multi-gram-entries-at-least-one", 1.0,
                                      min(gram.minima)).as_dict())
        if record.min_batch_alignment is not None:
            out.append(certs.at_least("stochastic-gradient-alignment",
                                      certs.STOCHASTIC_ALIGNMENT_BOUND,
                                      record.min_batch_alignment).as_dict())
        return out

    return [gram, window], report


def _certify_global(ctx, envelope: str):
    ds = ctx["ds"]
    dc = compute_V(ds, ctx["m"], ctx["delta"])
    dynamics = part.GlobalDynamics(ds)
    rate = certs.RateEnvelope(envelope, dc.V, ctx["schedule"].c)
    margins = part.CorrectClassification()

    def report(record) -> list:
        # Stage II starts at t = 1, and its claims say how the run goes on
        # from there: a run that reached no t >= 2 shows only what failed.
        reached = len(record.records) > 2
        out = []
        if reached:
            rep = certs.fit_convergence_rate(rate)
            if dc.vacuous:
                rep = dataclasses.replace(rep, inconclusive=True,
                                          context=dict(rep.context, vacuous_V=True))
            out.append(rep.as_dict())
        cc = margins.first_violation
        if reached or cc is not None:
            # A strict bound, margin > 0 from t = 1 on; the least margin is the slack.
            t, least = margins.least
            out.append(certs.CertificateReport(
                "correct-classification", 0.0, least, cc is None, least,
                context={"t": t, "first_violation": cc}).as_dict())
        viols = dynamics.violations()
        if reached or viols:
            out.append(_partition_report("partition-dynamics-global", viols))
        return out

    return [dynamics, rate, margins], report


def _certify_dataset(ctx):
    def report(record) -> list:
        ds = ctx["ds"]
        rep = _separability(ctx)
        g1, g2 = compute_gamma_constants(ds)
        dc = compute_V(ds, ctx["m"], ctx["delta"])
        return [certs.CertificateReport(
            "gamma-sandwich", g2 / 2.0, g1, g2 / 2.0 <= g1 <= g2,
            min(g1 - g2 / 2.0, g2 - g1),
            context={"gamma1": g1, "gamma2": g2, "V": dc.V,
                     "separable": rep.separable, "mu0": rep.mu0}).as_dict()]

    return [], report


@dataclass(frozen=True)
class Kind:
    """What one experiment kind trains and certifies."""

    variant: str                  # "binary" | "multi": the network and the label kind
    loss: str                     # default loss key
    loss_kinds: Tuple[str, ...]   # LossFamily.kind values the certificates are derived for
    trained_layers: str           # default train.trained_layers
    schedules: Tuple[str, ...]    # schedule types the certificates can read
    kappa_cap: Callable[[float, dict], float]   # (eta, run context) -> kappa for "auto"
    certify: Callable[[dict], tuple]   # ctx -> (observers, report(record) -> report dicts)
    cert_ids: Tuple[str, ...]     # the certificates of every verify run, in this order
    trains: bool = True           # False: no schedule and no training steps by default


_ANY_LOSS = ("quadratic", "general", "exptype")
_GLOBAL_IDS = ("correct-classification", "partition-dynamics-global")
_KINDS = {
    "early-binary": Kind("binary", "quadratic", _ANY_LOSS, "all", ("constant",),
                         _kappa_early_binary, _certify_early_binary,
                         ("early-descent-binary", "hitting-time-at-least-tstar",
                          "early-gradient-lower", "gram-cross-class-zero",
                          "gram-same-class-lower", "partition-dynamics-early")),
    "early-multiclass": Kind("multi", "logistic", ("general", "exptype"), "all", ("constant",),
                             _kappa_early_multi, _certify_early_multiclass,
                             ("early-descent-multi", "multi-gram-entries-at-least-one",
                              "stochastic-gradient-alignment")),
    "global-poly": Kind("binary", "exp", ("exptype",), "all", ("loss-inverse", "two-stage-poly"),
                        _kappa_global, functools.partial(_certify_global, envelope="poly_stage1"),
                        ("rate-poly_stage1",) + _GLOBAL_IDS),
    "global-exp": Kind("binary", "exp", ("exptype",), "input_only",
                       ("loss-inverse", "two-stage-poly"),
                       _kappa_global, functools.partial(_certify_global, envelope="exponential"),
                       ("rate-exponential",) + _GLOBAL_IDS),
    "certify-only": Kind("binary", "quadratic", _ANY_LOSS, "all",
                         ("constant", "loss-inverse", "two-stage-poly"),
                         _kappa_global, _certify_dataset, ("gamma-sandwich",), trains=False),
}


# ---------------------------------------------------------------------------
# Experiment execution
# ---------------------------------------------------------------------------

_TOP_KEYS = {"kind", "dataset", "model", "loss", "schedule", "train", "delta", "seed"}


def run_experiment(config: dict, certify: bool = True, outdir: Optional[Path] = None):
    """Execute a non-PRM experiment config; returns (record, context dict).

    With ``certify`` the kind's certificate observers watch every training
    step and ``evaluate_certificates`` reads them and the run record
    afterwards; no network and no step record beyond the observers' windows
    is kept.  With ``outdir``, the run streams steps.csv into that directory
    (made once the run is set up) one row at a time, at
    ``train.record_every``; ``record.records.digest()`` is the file's SHA-256.
    A malformed section or value, or a kind that cannot use the config's
    train keys, loss, schedule or dataset labels, is a ``ConfigError`` raised
    before training and, but for the labels, before the dataset is built.
    """
    kind = _require(_object(config, "config"), "kind", "config")
    spec = _KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise ConfigError("use run_prm_experiment for prm configs" if kind == "prm" else
                          f"config: unknown kind {kind!r}; known: {', '.join(_KINDS)}, prm")
    _strict(config, _TOP_KEYS, "config")
    train_spec = _strict(config.get("train", {}), {"steps", "batch", "trained_layers", "record_every"},
                         "train")
    if not spec.trains and "steps" in train_spec:
        raise ConfigError(f"{kind} certifies the dataset and takes no train.steps")
    trained_layers = train_spec.get("trained_layers", spec.trained_layers)
    if spec.variant == "multi" and trained_layers == "input_only":
        raise ConfigError(f"{kind}: input-only training is defined for the binary network only")
    loss_key = config.get("loss", spec.loss)
    if loss_key not in LOSS_KEYS:
        raise ConfigError(f"config: unknown loss {loss_key!r}; known: {', '.join(LOSS_KEYS)}")
    loss = loss_family(loss_key)
    if loss.kind not in spec.loss_kinds:
        raise ConfigError(f"{kind} takes a loss of kind {' or '.join(spec.loss_kinds)}, "
                          f"not {loss_key!r} ({loss.kind})")
    if spec.trains or "schedule" in config:
        schedule_spec = _require(config, "schedule", "config")
        schedule = build_schedule(schedule_spec)
        if schedule_spec["type"] not in spec.schedules:
            raise ConfigError(f"{kind} takes a {' or '.join(spec.schedules)} schedule, "
                              f"not {schedule_spec['type']!r}")
    else:
        schedule = Constant(eta=0.01)   # certify-only takes no training steps
    delta = _cast(config.get("delta", 0.01), "config.delta")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"config: delta must lie in (0, 1), not {delta!r}")
    seed = _cast(config.get("seed", 0), "config.seed", int)
    model_spec = _strict(_require(config, "model", "config"), {"m", "kappa"}, "model")
    m = _require(model_spec, "m", "model", int)
    kappa = model_spec.get("kappa", "auto")
    kappa = kappa if kappa == "auto" else _cast(kappa, "model.kappa")
    batch_spec = train_spec.get("batch")
    if batch_spec is not None and spec.variant != "multi":
        raise ConfigError(f"{kind} is certified for full-batch training only and takes no train.batch")
    batch_size = (None if batch_spec is None else
                  _require(_strict(batch_spec, {"B", "seed"}, "train.batch"), "B", "train.batch", int))
    eta = schedule.eta if isinstance(schedule, Constant) else schedule.eta0
    ts = None   # t*: the early kinds' default horizon and their certificates' window
    if spec.trains and isinstance(schedule, Constant) and (certify or "steps" not in train_spec):
        try:
            ts = tstar(eta, spec.variant)
        except ValueError as exc:
            raise ConfigError(f"schedule.eta: {exc} to define t*, not {eta!r}") from None
    default_steps = ts if ts is not None else 1000 if spec.trains else 0
    steps = _cast(train_spec.get("steps", default_steps), "train.steps", int)
    if steps < 0:
        raise ConfigError("steps must be >= 0")
    record_every = _cast(train_spec.get("record_every", 1), "train.record_every", int)
    if record_every < 1:
        raise ConfigError("record_every must be >= 1")

    ds = build_dataset(_require(config, "dataset", "config"), default_seed=seed)
    labels = "onehot" if spec.variant == "multi" else "binary"
    if ds.label_kind != labels:
        raise ConfigError(f"{kind} requires a dataset with {labels} labels")
    ctx = {"ds": ds, "schedule": schedule, "kind": kind, "delta": delta, "tstar": ts,
           "batch_size": batch_size, "seed": seed, "m": m}
    kappa = spec.kappa_cap(eta, ctx) if kappa == "auto" else kappa
    init = InitSpec(kappa=kappa, seed=seed)
    net0 = (init_multi(m, ds.d, ds.num_classes, init) if spec.variant == "multi"
            else init_binary(m, ds.d, init))
    batching = Full() if batch_spec is None else Stochastic(
        B=batch_size, seed=_cast(batch_spec.get("seed", seed + 1), "train.batch.seed", int))
    tconf = TrainConfig(steps=steps, batching=batching, trained_layers=trained_layers)
    ctx.update(net0=net0, kappa=kappa)
    observers, ctx["report"] = spec.certify(ctx) if certify else ((), None)
    if outdir is None:
        return run(net0, ds, loss, schedule, tconf, observers, StepLog(record_every)), ctx
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "steps.csv", "w") as sink:
        record = run(net0, ds, loss, schedule, tconf, observers, StepLog(record_every, sink))
    return record, ctx


def evaluate_certificates(record, ctx) -> list:
    """One report dict per id of the kind's ``cert_ids``, in order, for a run
    made with ``certify``.  An id that no builder emitted reads INCONCLUSIVE
    with NaN values, and so does a report that did not fail of an early run
    that stopped before t*; both carry ``context["reason"]``.  An undeclared
    or repeated id is a RuntimeError."""
    cert_ids, ts = _KINDS[ctx["kind"]].cert_ids, ctx["tstar"]
    emitted = {}
    for rep in ctx["report"](record):
        if rep["cert_id"] not in cert_ids or rep["cert_id"] in emitted:
            raise RuntimeError(f"{ctx['kind']} emitted {rep['cert_id']!r} twice or outside {cert_ids}")
        emitted[rep["cert_id"]] = rep
    last = record.records.last.t if record.records else -1
    reached = f"the run reached t = {last}" if record.records else "the run reached no step"
    out = []
    for cert_id in cert_ids:
        rep = emitted.get(cert_id)
        if rep is None:
            rep = certs.CertificateReport(cert_id, math.nan, math.nan, False, math.nan, True,
                                          {"reason": f"not measured; {reached}"}).as_dict()
        elif ts is not None and last < ts and certs.holds(rep):
            rep = dict(rep, passed=False, inconclusive=True, context=dict(
                rep["context"], reason=f"the claim covers t <= t* = {ts}; {reached}"))
        out.append(rep)
    return out


# ---------------------------------------------------------------------------
# PRM execution
# ---------------------------------------------------------------------------

def run_prm_experiment(config: dict, outdir: Optional[Path] = None):
    """Validate a prm config, then run it: (config, record, report).  With
    ``outdir``, the run's steps.csv is written there as the steps happen."""
    _strict(config, {"kind", "prm", "seed"}, "config")
    spec = _strict(_require(config, "prm", "config"),
                   {"d", "m", "M", "kappa", "eta", "steps", "seed"}, "prm")
    d = _require(spec, "d", "prm", int)
    cfg = prm_mod.TeacherStudentConfig(
        d=d, m=_require(spec, "m", "prm", int), M=_cast(spec.get("M", d), "prm.M", int),
        kappa=_require(spec, "kappa", "prm", float), eta=1.0,
        seed=_cast(spec.get("seed", config.get("seed", 0)), "prm.seed", int), steps=0)
    eta = spec.get("eta", "auto")
    cfg = dataclasses.replace(
        cfg, eta=prm_mod.max_compliant_eta(cfg) if eta == "auto" else _cast(eta, "prm.eta"))
    horizon = prm_mod.prm_tstar_plus_one(cfg)
    if "steps" not in spec and horizon <= 0.0:
        raise ConfigError(f"prm: the certified horizon T*+1 = {horizon:.6g} is empty at "
                          f"prm.kappa = {cfg.kappa!r} >= 1/pi; set prm.steps")
    steps = spec["steps"] if "steps" in spec else math.ceil(horizon) + 2
    cfg = dataclasses.replace(cfg, steps=_cast(steps, "prm.steps", int))
    if outdir is None:
        record = prm_mod.run_prm_gd(cfg)
    else:
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "steps.csv", "w") as sink:
            record = prm_mod.run_prm_gd(cfg, sink)
    cert = prm_mod.prm_descent_certificate(cfg, record)
    return cfg, record, cert


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n"


def _write_run_dir(outdir: Path, config: dict, steps_digest: str, summary: dict,
                   cert_dicts: Optional[list] = None) -> None:
    """Write summary.json, certificates.json (when given) and a manifest.json
    holding the config, versions and the digests of the others, beside the
    steps.csv already in ``outdir`` whose digest is ``steps_digest``."""
    digests = {"steps.csv": steps_digest,
               "summary.json": _write(outdir / "summary.json", _json_dump(summary))}
    if cert_dicts is not None:
        digests["certificates.json"] = _write(outdir / "certificates.json",
                                              _json_dump(cert_dicts))
    manifest = {
        "config": config,
        "versions": {"artifact": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "digests": digests,
    }
    _write(outdir / "manifest.json", _json_dump(manifest))


def _emit_run(outdir: Path, config: dict, certify: bool):
    """Run an experiment config and write its run directory: steps.csv as
    the run goes, the other files once it has stopped.

    Returns (summary, report dicts, ok); ok is False when the run aborted
    or a certificate failed.
    """
    record, ctx = run_experiment(config, certify=certify, outdir=outdir)
    cert_dicts = evaluate_certificates(record, ctx) if certify else None
    steps_digest = record.records.digest()
    summary = {
        "kind": ctx["kind"],
        "status": record.status,
        "n": ctx["ds"].n, "d": ctx["ds"].d, "m": ctx["m"],
        "kappa": ctx["kappa"], "delta": ctx["delta"],
        "seed": ctx["seed"],
        # A run that aborts at step 0 reaches no step: no losses, no step count.
        "initial_loss": None, "final_loss": None, "descent": None, "steps": None,
        "measured_T": record.measured_T,
        "dataset_digest": ctx["ds"].digest(),
        "net0_digest": digest(ctx["net0"]),
        "run_digest": steps_digest,
    }
    if record.records:
        first, last = record.records.first, record.records.last
        summary.update(initial_loss=first.loss, final_loss=last.loss,
                       descent=first.loss - last.loss, steps=last.t)
    _write_run_dir(outdir, config, steps_digest, summary, cert_dicts)
    cert_dicts = cert_dicts or []
    return summary, cert_dicts, _run_holds(record.status, cert_dicts)


def _run_holds(status: str, cert_dicts: list) -> bool:
    """True when the run did not abort and no certificate failed."""
    return status in ("completed", "converged-exactly") and all(certs.holds(c) for c in cert_dicts)


def _reason(c: dict) -> str:
    return f" ({c['context']['reason']})" if "reason" in c["context"] else ""


def _print_certificates(cert_dicts: list) -> None:
    for c in cert_dicts:
        print(f"  [{certs.verdict(c)}] {c['cert_id']}: bound={c['theoretical']:.6g} "
              f"measured={c['measured']:.6g} slack={c['slack']:.3g}{_reason(c)}")


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
    summary, _, ok = _emit_run(outdir, config, certify=False)
    losses = ("" if summary["steps"] is None else
              f" loss {summary['initial_loss']:.6g} -> {summary['final_loss']:.6g}")
    print(f"run {summary['kind']}: status={summary['status']}{losses}")
    return 0 if ok else 1


def cmd_verify(config: dict, outdir: Path, seed: Optional[int]) -> int:
    if seed is not None:
        config = dict(config, seed=seed)
    _, cert_dicts, ok = _emit_run(outdir, config, certify=True)
    _print_certificates(cert_dicts)
    return 0 if ok else 1


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
        summary, cert_dicts, ok = _emit_run(Path(subdir), config, certify=True)
    except (ValueError, FileNotFoundError) as exc:   # ConfigError included
        row["status"] = f"error:{exc}"
        return False, row
    row.update({key: "" if summary[key] is None else summary[key]
                for key in ("status", "initial_loss", "final_loss", "descent", "measured_T")})
    row["certificates_failed"] = sum(not certs.holds(c) for c in cert_dicts)
    return ok, row


def cmd_sweep(spec: dict, outdir: Path, jobs: int) -> int:
    _strict(spec, {"base", "axes"}, "sweep")
    base = _object(_require(spec, "base", "sweep"), "sweep.base")
    axes = _require(spec, "axes", "sweep")
    if not isinstance(axes, list):
        raise ConfigError(f"sweep.axes: expected a JSON array, not {json.dumps(axes)}")
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
        config = dict(config, prm=dict(_object(config.get("prm", {}), "prm"), seed=seed))
    cfg, record, cert = run_prm_experiment(config, outdir)
    summary = {
        "kind": "prm",
        "d": cfg.d, "m": cfg.m, "M": cfg.M, "kappa": cfg.kappa,
        "eta": cfg.eta, "steps": cfg.steps, "seed": cfg.seed,
        "eta_compliant": record.eta_compliant,
        "extension_mode": cfg.extension_mode,
        "initial_loss": record.losses.first.loss, "final_loss": record.losses.last.loss,
        "loss_at_origin": prm_mod.loss_at_origin(cfg),
        "measured_T": record.measured_T,
        "norm_monotone": record.norm_monotone,
    }
    cert_dicts = [cert.as_dict()]
    _write_run_dir(outdir, config, record.losses.digest(), summary, cert_dicts)
    _print_certificates(cert_dicts)
    return 0 if certs.holds(cert_dicts[0]) else 1


def cmd_report(rundir: Path) -> int:
    summary = json.loads((rundir / "summary.json").read_text())
    print(f"run directory: {rundir}")
    for key in sorted(summary):
        print(f"  {key:>18}: {summary[key]}")
    cert_path = rundir / "certificates.json"
    cert_dicts = []
    if cert_path.exists():
        cert_dicts = json.loads(cert_path.read_text())
        print(f"  certificates ({len(cert_dicts)}):")
    for c in cert_dicts:
        print(f"    [{certs.verdict(c)}] {c['cert_id']}: bound={c['theoretical']} "
              f"measured={c['measured']} slack={c['slack']}{_reason(c)}")
    # A prm summary carries no status: its run cannot abort.
    return 0 if _run_holds(summary.get("status", "completed"), cert_dicts) else 1


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
        config = _object(json.loads(args.config.read_text()), "config")
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
