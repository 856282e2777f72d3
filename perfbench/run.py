"""softvote benchmark: end-to-end CLI timings, or a traced per-layer run.

    python3 perfbench/run.py --workload search-heavy --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. The program under test is the
checkout's own ``src/``: CLI children get it on ``PYTHONPATH`` and the
in-process checks import it from there. ``--workload all`` runs every
workload in turn.

``--trace 0`` drives ``python -m softvote.cli`` as a closed loop, one child
at a time, and reports end-to-end metrics. ``--trace 1`` runs case 0 of the
workload in-process through ``softvote.cli.cli`` with tracing on, runs each
command after the bundle build untraced as well, and reports per-layer
metrics (see tracing.py).

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
run record (environment, every sample, digests, failures) and, for a
traced run, the spans go to ``perfbench/out/``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checks import Checker, compare_outputs, digests
from tracing import LAYERS, PER_LAYER, Tracer, accounting_errors, layer_metrics
from workloads import MAX_CASES, WORKLOADS, Chain, Op, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
STARTUP_REPEATS = 3
# A run must end within 180 s: children still running this long after the
# start of the run are killed, and later ones are not started.
RUN_DEADLINE_S = 165.0
# End-to-end metrics in the JSON result, as listed in BENCHMARK.json. The
# per-command medians of simulate, evaluate and fuse are printed and
# recorded too; with one or two samples a run they spread too widely
# between runs on a 2-vCPU VM to carry a bound.
END_TO_END = ("setup_s", "search_s", "rows_per_s", "peak_rss_mb", "fused_nll")


@dataclass
class Result:
    workload: str
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)  # not in the JSON result
    samples: dict[str, int] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)


# ------------------------------------------------------------------ runners


class SubprocessRunner:
    """Runs ``python -m softvote.cli`` (through child.py) and waits for it to end."""

    def __init__(self, logs: Path):
        self.logs = logs
        self.deadline = perf_counter() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )

    def __call__(self, op: Op) -> Op:
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            op.ok, op.error = False, "not started: the run's time limit has passed"
            return op
        self.logs.mkdir(parents=True, exist_ok=True)
        name = op.label.replace("/", "_")
        log, peak = self.logs / (name + ".err"), self.logs / (name + ".peak")
        with open(log, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), str(peak), *op.argv],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT,
                env=self.env,
            )
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            op.wall = perf_counter() - start
        if peak.is_file():
            op.rss_kb = int(peak.read_text())
        if proc.returncode != 0:
            op.ok = False
            op.error = f"exit {proc.returncode}: " + log.read_text(errors="replace")[-400:]
        return op


class InProcessRunner:
    """Runs one CLI command through ``softvote.cli.cli`` in this process."""

    def __init__(self, softvote, tracer: Tracer | None = None):
        self.cli = softvote.cli.cli
        self.tracer = tracer

    def __call__(self, op: Op) -> Op:
        sink = io.StringIO()
        traced = self.tracer.command(op.kind, op.label) if self.tracer else contextlib.nullcontext()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), traced:
                self.cli.main(args=op.argv, prog_name="softvote", standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                op.ok, op.error = False, f"exit {exc.code}: {sink.getvalue()[-400:]}"
        except Exception:  # the op boundary: record the failure and go on
            op.ok, op.error = False, traceback.format_exc(limit=3)
        op.wall = perf_counter() - start
        return op


# ----------------------------------------------------------------- helpers


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def charge(ops: list[Op], failures: list[tuple[Path, str]], root: Path) -> None:
    """Mark the op that wrote each failing file as failed."""
    by_output = {}
    for op in ops:
        for arg in op.outputs:
            by_output[arg] = op
    for path, message in failures:
        op = next((by_output[p] for p in (path, *path.parents) if p in by_output), None)
        if op is None:
            op = Op("check", str(path.relative_to(root)), ok=False)
            ops.append(op)
        op.ok = False
        op.error = (op.error + "; " if op.error else "") + message


def check_cases(checker: Checker, wl: Workload, cases, ops: list[Op], root: Path) -> dict[int, dict]:
    quality = {}
    for case in cases:
        try:
            failures, quality[case.index] = checker.check_case(wl, case)
        except Exception as exc:  # a malformed output must not stop the run
            failures = [(case.weights, f"check raised {exc!r}")]
        charge(ops, failures, root)
    return quality


# --------------------------------------------------------------- end to end


def end_to_end(softvote, wl: Workload, seed: int, seconds: float, work: Path) -> Result:
    chain = Chain(wl, seed, work, SubprocessRunner(work / "logs"))
    setup_times = []
    for i in range(SETUP_REPEATS):
        start = perf_counter()
        chain.setup(f"setup{i}")
        setup_times.append(perf_counter() - start)

    cases = []
    start = perf_counter()
    # Start another case only while it is expected to end within `seconds`.
    while len(cases) < wl.scored_cases or (
        len(cases) < MAX_CASES
        and (perf_counter() - start) * (len(cases) + 1) / len(cases) <= seconds
    ):
        cases.append(chain.case(len(cases)))
        chain.execute(chain.case_ops(cases[-1]))
    scored = cases[: wl.scored_cases]
    case_end = len(chain.ops)
    repeat = chain.again(cases[0], "-repeat")
    chain.execute(chain.case_ops(repeat))

    quality = check_cases(Checker(softvote), wl, cases, chain.ops, work)
    charge(chain.ops, compare_outputs(cases[0], repeat), work)

    result = Result(wl.name, ops=chain.ops)
    ops = chain.ops
    # Every case runs the same commands, so the command mix behind
    # rows_per_s does not depend on how many cases fit in the run. The
    # repeat skips `simulate` and is left out.
    timed = [op for op in ops[:case_end] if op.timed]

    def put(name, value, unit, n=None):
        (result.metrics if name in END_TO_END else result.extra)[name] = (value, unit)
        if n is not None:
            result.samples[name] = n

    put("setup_s", median_of(setup_times), "s", len(setup_times))
    for kind in ("simulate", "search", "evaluate", "fuse"):
        walls = [op.wall for op in ops if op.kind == kind]
        if walls:
            put(f"{kind}_s", median_of(walls), "s", len(walls))
    put("rows_per_s", sum(op.rows for op in timed) / sum(op.wall for op in timed), "1/s", len(timed))
    put("peak_rss_mb", max(op.rss_kb for op in ops) / 1024.0, "MB", len(ops))
    fused = [quality[c.index]["fused_nll"] for c in scored if "fused_nll" in quality.get(c.index, {})]
    put("fused_nll", statistics.fmean(fused) if fused else 0.0, "nats", len(fused))
    gaps = [quality[c.index]["nll_gap"] for c in scored if "nll_gap" in quality.get(c.index, {})]
    if gaps:
        put("nll_gap", statistics.fmean(gaps), "nats", len(gaps))
    result.notes = {
        "cases": len(cases),
        "scored_cases": len(scored),
        "digests": {f"case{c.index}": digests(c) for c in scored},
    }
    return result


# ------------------------------------------------------------------- traced


def traced_run(softvote, wl: Workload, seed: int, work: Path, spans_path: Path) -> Result:
    ops: list[Op] = []
    probe = SubprocessRunner(work / "logs")
    startups = []
    for i in range(STARTUP_REPEATS):
        ops.append(probe(Op("help", f"startup{i}", ["--help"])))
        startups.append(ops[-1].wall)

    tracer = Tracer(softvote)
    plain = InProcessRunner(softvote)
    chain = Chain(wl, seed, work, InProcessRunner(softvote, tracer))
    chain.setup("trace", warm_up=False)  # search-heavy's bundle build is traced here

    # Case 0 traced, and again untraced on the same bundle. The two passes
    # alternate command by command, so slow spells of the machine hit both.
    first = chain.case(0)
    second = chain.again(first, "-untraced")
    traced_ops = chain.case_ops(first)
    untraced_ops = chain.case_ops(second)
    lead = len(traced_ops) - len(untraced_ops)  # the traced simulate that builds the bundle
    chain.execute(traced_ops[:lead])
    for i, (t_op, u_op) in enumerate(zip(traced_ops[lead:], untraced_ops)):
        if i % 2:
            chain.execute([t_op])
            chain.execute([u_op], plain)
        else:
            chain.execute([u_op], plain)
            chain.execute([t_op])
    ops += chain.ops
    tracer.write(spans_path)

    checker = Checker(softvote)
    if tracer.ga_runs:  # the search already loaded this bundle; check against that load
        checker.preload(first.manifest, tracer.ga_runs[-1].args[0])
    quality = check_cases(checker, wl, [first], ops, work)
    charge(ops, compare_outputs(first, second), work)

    # The same search again on two threads must return the same bytes.
    threads = Op("threads", "run_ga-threads2")
    ops.append(threads)
    threads2_s = 0.0
    if tracer.ga_runs:
        run = tracer.ga_runs[-1]
        start = perf_counter()
        again = softvote.ga.run_ga(*run.args, **{**run.kwargs, "threads": 2})
        threads2_s = threads.wall = perf_counter() - start
        if (again.weights.tobytes() != run.result.weights.tobytes()
                or again.full_data_nll != run.result.full_data_nll):
            threads.ok, threads.error = False, "run_ga threads=2 differs from threads=1"
    else:
        threads.ok, threads.error = False, "no traced run_ga call"

    accounting = Op("accounting", "span-accounting")
    ops.append(accounting)
    errors = accounting_errors(tracer.spans)
    if errors:
        accounting.ok, accounting.error = False, "; ".join(errors[:5])

    untraced_s = sum(op.wall for op in untraced_ops)
    traced_s = sum(op.wall for op in traced_ops[lead:])
    values = layer_metrics(tracer, wl.samples, wl.classifiers)
    values.update({
        "cli.startup_s": median_of(startups),
        "ga.run_threads2_s": threads2_s,
        "ga.nll_gap": quality.get(0, {}).get("nll_gap", 0.0),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    result = Result(wl.name, ops=ops)
    for name, value in values.items():
        result.metrics[name] = (value, PER_LAYER[name][0])
    result.notes = {
        "spans": len(tracer.spans),
        "unpatched_names": sorted(tracer.missing),
        "self_s_sum": sum(values[f"{layer}.self_s"] for layer in LAYERS),
        "digests": {"case0": digests(first)},
    }
    return result


# ------------------------------------------------------------------- output


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(wl: Workload, args) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "softvote").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": wl.shape,
        "ga_config": wl.ga_config,
    }


def report(result: Result, env: dict) -> None:
    print(f"workload {result.workload}  seed {env['seed']}  shape "
          f"{'x'.join(str(v) for v in env['shape'].values())}  trace {env['trace']}")
    attempted = len(result.ops)
    extra = dict(result.extra, failed_fraction=(result.failed / attempted, ""))
    for title, group in (("", result.metrics), ("not in the JSON result:", extra)):
        if title:
            print(f"  {title}")
        for name, (value, unit) in group.items():
            n = result.samples.get(name)
            print(f"  {name:<28} {value:>16.6g} {unit:<6}" + (f" (n={n})" if n is not None else ""))
    print(f"  ({result.failed} of {attempted} operations failed)")
    for op in result.ops:
        if not op.ok:
            print(f"  FAILED {op.label}: {op.error}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))


def save(result: Result, env: dict, path: Path) -> None:
    record = {
        "env": env,
        "metrics": {k: {"value": v, "unit": u, "samples": result.samples.get(k)}
                    for k, (v, u) in result.metrics.items()},
        "extra": {k: {"value": v, "unit": u, "samples": result.samples.get(k)}
                  for k, (v, u) in result.extra.items()},
        "attempted": len(result.ops),
        "failed": result.failed,
        "notes": result.notes,
        "ops": [{"label": op.label, "kind": op.kind, "wall_s": op.wall, "rss_kb": op.rss_kb,
                 "timed": op.timed, "ok": op.ok, "error": op.error} for op in result.ops],
    }
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "softvote" / "cli.py").is_file():
        print(f"error: {SRC / 'softvote'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(SRC))
    import softvote.cli  # noqa: F401  (loads every layer module)

    if Path(softvote.__file__).resolve().parent != SRC / "softvote":
        print(f"error: imported softvote from {softvote.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        wl = WORKLOADS[name]
        stem = OUT / f"{name}-seed{args.seed}-trace{args.trace}"
        work = OUT / f"work-{name}-{os.getpid()}"
        try:
            if args.trace:
                result = traced_run(softvote, wl, args.seed, work, stem.with_suffix(".spans.jsonl"))
            else:
                result = end_to_end(softvote, wl, args.seed, args.seconds, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        env = environment(wl, args)
        report(result, env)
        save(result, env, stem.with_suffix(".json"))
        prefix = f"{name}." if len(names) > 1 else ""
        combined["correct"] = combined["correct"] and result.failed == 0
        combined["attempted"] += len(result.ops)
        combined["failed"] += result.failed
        for metric, (value, unit) in result.metrics.items():
            combined["metrics"][prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
