import os
import re
import subprocess
import sys
from pathlib import Path

import softvote

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def _block(text, heading):
    """The first fenced block after ``heading``, as CI's awk extracts it."""
    section = text[text.index(f"\n## {heading}\n") :]
    return re.search(r"^```[^\n]*\n(.*?)^```", section, re.S | re.M).group(1)


def test_readme_library_use_runs_as_written(tmp_path, monkeypatch, capsys):
    # The bundle is the quick start's: its generator spec, simulated in process.
    text = README.read_text(encoding="utf-8")
    spec = re.search(r"<<'EOF'\n(.*?\n)EOF\n", _block(text, "Quick start"), re.S).group(1)
    (tmp_path / "gen.json").write_text(spec, encoding="utf-8")
    inputs = softvote.generate(softvote.read_generator_spec(tmp_path / "gen.json"))
    softvote.write_ensemble(inputs, tmp_path / "bundle")
    monkeypatch.chdir(tmp_path)
    exec(compile(_block(text, "Library use"), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # One line per generation from the observer, then the report's NLL and accuracy.
    assert [line.split()[0] for line in lines[:-1]] == ["0", "1", "2", "3", "4"]
    nll, accuracy = map(float, lines[-1].split())
    assert 0.0 < nll and 0.0 <= accuracy <= 100.0


def test_readme_quick_start_runs_as_written(tmp_path):
    # As the workflow's quick-start step runs it: the block under bash -euo
    # pipefail, with a `softvote` on PATH, here one that runs the checkout's src/.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "softvote"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m softvote.cli "$@"\n', encoding="utf-8")
    shim.chmod(0o755)
    (tmp_path / "quickstart.sh").write_text(_block(README.read_text(encoding="utf-8"), "Quick start"), encoding="utf-8")
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}", PYTHONPATH=str(ROOT / "src"))
    command = ["bash", "-euo", "pipefail", "quickstart.sh"]
    run = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert re.search(r"^Accuracy: ", run.stdout, re.M)
    lines = [line for line in run.stderr.splitlines() if re.match("generation |full-data nll: ", line)]
    steps = [re.sub(r": [0-9.]+$", ":", re.sub("=.*", "", line)) for line in lines]
    assert steps == [f"generation {g}: best_nll" for g in range(5)] + ["full-data nll:"]


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
