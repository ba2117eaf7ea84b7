"""Every public top-level name of ``src/relulab`` is on the production path.

A public name in any module but ``oracles.py`` (the reference
implementations that tests compare against) must be referenced from one of:

* other package code, outside ``oracles.py`` and ``__all__``;
* a script under ``scripts/``;
* ``perfbench/tracing.py::TRACED``, the spans the benchmark records, which
  this test reads without changing;
* ``PENDING``, which names the ROADMAP item that will reach it from a
  subcommand.

So a name only tests use fails here: it belongs in ``oracles.py`` or nowhere.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "relulab"

PENDING = {
    "certificates.gradient_lower_bound_global": "ROADMAP item 2: the global-gradient-lower report",
    "certificates.check_hessian_bound": "ROADMAP item 2: the hessian-* reports",
    "partition.initial_partition_stats": "ROADMAP item 3: partition.json",
    "partition.partition_counts_csv": "ROADMAP item 3: partition.json",
}


def _defined(stmt):
    """Names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    names = []
    for target in targets:
        elts = target.elts if isinstance(target, ast.Tuple) else [target]
        names += [e.id for e in elts if isinstance(e, ast.Name)]
    return names


def _referenced(node):
    """Identifiers a syntax tree uses: names, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _traced():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {f"{module.rsplit('.', 1)[-1]}.{attr}" for module, attr in tracing.TRACED.values()}


def _unreached(package=PACKAGE):
    definitions = []        # (qualified name, module, index of the defining statement)
    uses = []               # (module, statement index, identifiers it uses)
    for path in sorted(package.glob("*.py")):
        if path.stem == "oracles":
            continue
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            names = _defined(stmt)
            if names == ["__all__"]:
                continue
            definitions += [(f"{path.stem}.{n}", path.stem, i) for n in names if not n.startswith("_")]
            uses.append((path.stem, i, _referenced(stmt)))
    from_scripts = set().union(*(_referenced(ast.parse(p.read_text()))
                                 for p in sorted((ROOT / "scripts").glob("*.py"))))
    traced = _traced()
    return {qualified for qualified, module, i in definitions
            if qualified not in traced
            and qualified.split(".")[1] not in from_scripts
            and not any(qualified.split(".")[1] in used
                        for m, j, used in uses if (m, j) != (module, i))}


def test_every_public_name_is_reached_from_the_production_path():
    unreached = _unreached()
    assert unreached - set(PENDING) == set(), "reached only by tests: move to oracles.py or delete"
    assert set(PENDING) - unreached == set(), "now reached: drop from PENDING"


def test_the_guard_sees_a_name_nothing_reaches(tmp_path):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "extra.py").write_text("def only_tests_call_me():\n    return 1\n")
    assert _unreached(tmp_path) - set(PENDING) == {"extra.only_tests_call_me"}
