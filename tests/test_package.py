import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import softvote

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "softvote").glob("*.py"))


def test_public_names():
    names = softvote.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert all(hasattr(softvote, name) for name in names)
    namespace = {}
    exec("from softvote import *", namespace)
    assert set(names) <= set(namespace)
    removed = {"Chromosome", "BreedingError", "GenerationStats", "draw_fitness_sample", "default_class_names"}
    assert not removed & set(dir(softvote))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses (name: line): {unused}"


def _is_command(node):
    """Whether ``node`` is decorated ``@cli.command(...)``, so that click, not softvote's code, calls it."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
        for d in getattr(node, "decorator_list", ())
    )


def _defined(node):
    """The module-level names that top-level statement ``node`` binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    if isinstance(node, (ast.If, ast.Try)):
        return [name for n in ast.walk(node) if isinstance(n, (ast.Assign, ast.AnnAssign)) for name in _defined(n)]
    return []


def _referred(node, modules):
    """The names ``node`` uses: names read, names imported, and ``module.name`` for a softvote module."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            yield n.id
        elif isinstance(n, ast.ImportFrom):
            yield from (alias.name for alias in n.names)
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules:
            yield n.attr


def test_every_module_level_name_is_used():
    # A name is used when a statement other than the one that defines it
    # refers to it, or when ``_MODULE_OF`` makes it public. Click calls the
    # command functions, so they are exempt.
    modules = {path.stem for path in SOURCES}
    statements = [(path.stem, node) for path in SOURCES for node in ast.parse(path.read_text(encoding="utf-8")).body]
    users = {}
    for _, node in statements:
        for name in set(_referred(node, modules)):
            users.setdefault(name, set()).add(id(node))
    orphans = []
    for module, node in statements:
        if module == "cli" and _is_command(node):
            continue
        for name in _defined(node):
            if not name.startswith("__") and name not in softvote._MODULE_OF and not users.get(name, set()) - {id(node)}:
                orphans.append(f"{module}.{name}")
    assert not orphans, f"module-level names that nothing else in src/ uses: {orphans}"


# Names the benchmark's tracer wraps that a refactor already removed; each
# zeroes a per-layer metric until the tracer stops naming attributes.
_TRACER_TARGETS_GONE = {
    "core._fuse_tensor", "ga._fuse_tensor", "ga.select_parents", "ga.mutate_parents", "ga.crossover_fill",
}


def test_the_tracer_wraps_names_that_exist():
    # perfbench/tracing.py replaces each (module, attribute) of ``PATCHES``,
    # and ``EnsembleInputs.tensor`` and ``ga.run_ga`` besides, when the
    # attribute is in the module's (or class's) ``vars``; a missing one
    # silently reads 0. Read from its source, so the tracer is not imported.
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    (patches,) = [
        node.value for node in tree.body if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHES"]
    ]
    targets = [(entry.elts[0].value, entry.elts[1].value) for entry in patches.elts] + [("ga", "run_ga")]
    assert len(targets) > 30
    modules = {name: importlib.import_module(f"softvote.{name}") for name, _ in targets}
    missing = {f"{module}.{attr}" for module, attr in targets if attr not in vars(modules[module])}
    if "tensor" not in vars(modules["core"].EnsembleInputs):
        missing.add("core.EnsembleInputs.tensor")
    assert not missing - _TRACER_TARGETS_GONE, f"tracer targets gone from src/: {sorted(missing - _TRACER_TARGETS_GONE)}"


def _python(args, cwd=None, **env):
    """``python *args`` on the checkout's src/, with no OPENBLAS_NUM_THREADS unless ``env`` sets it."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base.update(PYTHONPATH=str(ROOT / "src"), **env)
    run = subprocess.run([sys.executable, *args], cwd=cwd, env=base, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


_IMPORT_ALONE = """
import json, os, sys
import softvote
state = {
    "loaded": sorted(m for m in sys.modules if m == "numpy" or m.startswith(("numpy.", "softvote."))),
    "variable": os.environ.get("OPENBLAS_NUM_THREADS"),
}
for name in softvote.__all__:
    getattr(softvote, name)
state["not_kept"] = [n for n in softvote.__all__ if n not in vars(softvote)]
state["undir"] = sorted(set(softvote.__all__) - set(dir(softvote)))
try:
    softvote.no_such_name
except AttributeError as exc:
    state["unknown"] = str(exc)
print(json.dumps(state))
"""


class TestLazyImport:
    def test_import_alone_loads_nothing_and_every_name_resolves(self):
        state = json.loads(_python(["-c", _IMPORT_ALONE]))
        assert state["loaded"] == []
        assert state["variable"] is None
        assert state["not_kept"] == []
        assert state["undir"] == []
        assert state["unknown"] == "module 'softvote' has no attribute 'no_such_name'"

    @pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")])
    def test_cli_import_sets_one_openblas_thread_unless_set(self, given, expected):
        env = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
        code = "import os, softvote.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert _python(["-c", code], **env) == f"{expected}\n"

    def test_cli_import_loads_every_layer_module(self):
        # perfbench/run.py imports softvote.cli alone, then its output checks and tracer read
        # softvote.metrics and the other layers as attributes; a CLI that imported its layers
        # only inside each command would fail the benchmark's operations.
        code = "import json, sys, softvote.cli; print(json.dumps(sorted(sys.modules)))"
        layers = ["core", "errors", "ga", "ingest", "metrics", "rng", "synthgen"]
        assert {f"softvote.{name}" for name in layers} <= set(json.loads(_python(["-c", code])))

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="no /proc/self/status to count this process's threads"
    )
    @pytest.mark.parametrize(
        "code",
        [
            "import softvote.cli",
            # The `python -m softvote.cli` path, as perfbench/child.py takes it.
            "import runpy, sys; sys.argv = ['softvote', '--help']\n"
            "try:\n    runpy.run_module('softvote.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit:\n    pass",
        ],
        ids=["import", "run-module"],
    )
    def test_cli_starts_no_thread(self, code):
        code += "\nprint(next(l for l in open('/proc/self/status') if l.startswith('Threads:')), end='')"
        assert _python(["-c", code]).splitlines()[-1].split() == ["Threads:", "1"]

    def test_chain_writes_the_same_bytes_whatever_the_openblas_threads(self, tmp_path):
        profiles = [{"name": n, "accuracy": a, "sharpness": 2.0} for n, a in (("a", 0.9), ("b", 0.7), ("c", 0.6))]
        spec = {"num_classes": 4, "num_samples": 300, "seed": 3, "classifiers": profiles}
        manifest = ["--manifest", "bundle/manifest.json"]
        weighted = [*manifest, "--weights", "w.json"]
        trees = []
        for env in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
            work = tmp_path / str(len(trees))
            work.mkdir()
            (work / "gen.json").write_text(json.dumps(spec), encoding="utf-8")
            for args in (
                ["simulate", "--config", "gen.json", "--out", "bundle"],
                ["search-weights", *manifest, "--seed", "5", "--out", "w.json"],
                ["evaluate", *weighted, "--format", "json", "--out", "r.json"],
                ["fuse", *weighted, "--out", "f.csv"],
            ):
                _python(["-m", "softvote.cli", *args], cwd=work, **env)
            trees.append({p.relative_to(work).as_posix(): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()})
        assert {"w.json", "r.json", "f.csv", "bundle/manifest.json"} <= set(trees[0])
        assert trees[0] == trees[1]


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    # With this repository's pytest settings (warnings are errors), a failing
    # @given test must be reported as one failure, and the run must go on.
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(n):\n    assert n < 0\n\n\n"
        "def test_passes():\n    pass\n",
        encoding="utf-8",
    )
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml")]
    command += ["--rootdir", str(tmp_path), "test_two.py"]
    run = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
