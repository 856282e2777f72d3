"""The workflow's console-script steps, run as tier-1 tests.

``.github/workflows/tier1.yml`` runs each ``ci/*.sh`` after ``pip install .``,
so there ``softvote`` and ``import softvote`` are the installed package.
Tier-1 runs the same scripts against ``src/``, not an installed package:
a ``softvote`` shim on ``PATH`` runs ``python -m softvote.cli``, and
``PYTHONPATH`` points at ``src/``. So the start-up script checks the
source tree's import here and the installed package's in CI.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _workflow_scripts() -> list[str]:
    """The ``ci/`` scripts the workflow runs, in its order (a plain text match: PyYAML is no test dependency)."""
    return re.findall(r"^ +run: bash (ci/\S+\.sh)$", (ROOT / ".github/workflows/tier1.yml").read_text(), re.M)


def test_the_workflow_runs_every_ci_script_once():
    scripts = _workflow_scripts()
    assert sorted(scripts) == sorted(f"ci/{p.name}" for p in (ROOT / "ci").glob("*.sh"))
    assert len(set(scripts)) == len(scripts)


def test_the_ci_scripts_pass_in_order(tmp_path):
    # The workflow runs these steps in one RUNNER_TEMP, each from the checkout's root.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, command in (("softvote", "-m softvote.cli"), ("python", "")):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {command} "$@"\n', encoding="utf-8")
        shim.chmod(0o755)
    env = dict(
        os.environ,
        PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
        PYTHONPATH=str(ROOT / "src"),
        RUNNER_TEMP=str(tmp_path),
    )
    for script in _workflow_scripts():
        run = subprocess.run(["bash", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, f"{script} exited {run.returncode}\n{run.stdout}\n{run.stderr}"
