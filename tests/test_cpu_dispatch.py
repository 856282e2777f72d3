"""Output bytes must not depend on the CPU code paths numpy dispatches to.

numpy picks, at import, the fastest build of some loops (``np.log`` among
them) that the CPU supports; ``NPY_DISABLE_CPU_FEATURES`` turns those
choices off. The pinned searches and a CLI search and evaluate are run
again in a process with every dispatchable target of this CPU turned off.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from softvote import write_ensemble
from softvote.cli import cli

from conftest import random_ensemble

ROOT = Path(__file__).resolve().parents[1]


# Prints the names among argv[1:] that this CPU has and numpy may dispatch to.
_DISPATCHED = """
import sys
try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath
features = _multiarray_umath.__cpu_features__
print(" ".join(name for name in sys.argv[1:] or _multiarray_umath.__cpu_dispatch__ if features.get(name)))
"""


def _dispatched_targets() -> list[str]:
    """The targets above numpy's baseline that this CPU supports, as ``NPY_DISABLE_CPU_FEATURES`` names them."""
    run = subprocess.run([sys.executable, "-c", _DISPATCHED], capture_output=True, text=True, timeout=60, check=True)
    return run.stdout.split()


TARGETS = _dispatched_targets()

pytestmark = pytest.mark.skipif(
    not TARGETS, reason="numpy dispatches to no target above its baseline on this CPU, so there is none to turn off"
)


def _undispatched(args, cwd):
    """``python *args`` on the checkout's src/ with every target in ``TARGETS`` turned off."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), NPY_DISABLE_CPU_FEATURES=" ".join(TARGETS))
    run = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    return run.stdout


def test_targets_are_turned_off(tmp_path):
    assert _undispatched(["-c", _DISPATCHED, *TARGETS], tmp_path) == "\n"


def test_pinned_searches_hold():
    tests = [
        "tests/test_ga.py::test_search_matches_pinned_results",
        "tests/test_ga.py::test_continuous_search_matches_pinned_result",
        "tests/test_population_nll.py",
    ]
    out = _undispatched(["-m", "pytest", "-q", "-p", "no:cacheprovider", *tests], ROOT)
    assert re.search(r"^\d+ passed in ", out, re.M), out


def test_cli_search_and_evaluate_write_the_same_bytes(tmp_path, monkeypatch):
    # Continuous rows: a synthgen row holds two distinct values, so its
    # log inputs hardly vary and a 1-ulp log difference would rarely show.
    inputs = random_ensemble(np.random.default_rng(17), 4, 1500, 10, alpha=0.5)
    write_ensemble(inputs, tmp_path / "bundle")
    commands = [
        ["search-weights", "--manifest", "bundle/manifest.json", "--seed", "3", "--out", "{}.weights.json"],
        ["evaluate", "--manifest", "bundle/manifest.json", "--weights", "{}.weights.json", "--format", "json",
         "--out", "{}.report.json"],
    ]
    monkeypatch.chdir(tmp_path)
    for command in commands:
        result = CliRunner().invoke(cli, [arg.format("here") for arg in command])
        assert result.exit_code == 0, result.output
    for command in commands:
        _undispatched(["-m", "softvote.cli", *(arg.format("there") for arg in command)], tmp_path)
    for kind in ("weights", "report"):
        assert (tmp_path / f"here.{kind}.json").read_bytes() == (tmp_path / f"there.{kind}.json").read_bytes()
