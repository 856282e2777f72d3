"""The benchmark's workloads and the softvote command chains they run.

A workload is a shape of synthetic classifier dumps plus the order in which
the CLI is driven over them. Its unit of work is a *case*:

* ``small-batch`` and ``wide-io``: one freshly simulated bundle per case,
  taken through ``simulate -> search-weights -> evaluate [-> evaluate
  --subset] -> fuse``.
* ``search-heavy``: one bundle built during set-up; a case is one
  ``search-weights`` at its own GA seed, then ``evaluate`` and ``fuse``
  with its weights.

The first ``scored_cases`` cases always run and feed the quality figures,
so those repeat exactly for a seed whatever the machine's speed. Further
cases run while the measuring time lasts and add timing samples only.
Case 0 is then run again from ``search-weights`` on, and its outputs must
match the first pass byte for byte.

Every input the program sees (generator specs, GA config, bundles) is
derived from the workload seed here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

# Cases beyond the scored ones are capped so a very fast machine still
# finishes a run in bounded time.
MAX_CASES = 64


@dataclass(frozen=True)
class Workload:
    name: str
    classifiers: int
    samples: int
    classes: int
    ga_config: dict | None  # written as search-weights --config; None: defaults
    subset: tuple[str, ...]  # names for an extra `evaluate --subset`; () for none
    prebuilt: bool  # one bundle built in set-up; each case is one GA seed on it
    scored_cases: int
    why: str

    @property
    def rows(self) -> int:
        """Prediction rows in one bundle: classifiers x samples."""
        return self.classifiers * self.samples

    @property
    def shape(self) -> dict:
        return {"classifiers": self.classifiers, "samples": self.samples, "classes": self.classes}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-batch", 8, 4000, 10, None, ("net_0", "net_1"), False, 3,
            "acceptance shape: process start-up and per-file fixed costs dominate, "
            "the GA is a small share",
        ),
        Workload(
            "search-heavy", 8, 5000, 10, {"generations": 60}, (), True, 2,
            "population scoring dominates search-weights; the bundle is built "
            "during set-up, so no timed command writes a bundle",
        ),
        Workload(
            "wide-io", 4, 1500, 100, None, (), False, 2,
            "100-class dumps: CSV parse and write dominate, and GA cost grows "
            "with the class count",
        ),
    )
}


def derive_seed(seed: int, *labels: object) -> int:
    """A 32-bit seed for one program input, fixed by the workload seed."""
    text = ":".join(str(x) for x in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def generator_spec(wl: Workload, seed: int) -> dict:
    """Fixed classifier profiles (strong to weak); only the draws vary by seed."""
    last = max(wl.classifiers - 1, 1)
    return {
        "num_classes": wl.classes,
        "num_samples": wl.samples,
        "seed": seed,
        "classifiers": [
            {
                "name": f"net_{i}",
                "accuracy": round(0.90 - 0.35 * i / last, 4),
                "sharpness": round(3.0 - 1.75 * i / last, 4),
            }
            for i in range(wl.classifiers)
        ],
    }


@dataclass(frozen=True)
class Case:
    index: int
    dir: Path
    bundle: Path
    ga_seed: int
    spec: Path | None  # generator spec; None when the bundle is prebuilt

    @property
    def manifest(self) -> Path:
        return self.bundle / "manifest.json"

    @property
    def weights(self) -> Path:
        return self.dir / "weights.json"

    @property
    def report(self) -> Path:
        return self.dir / "report.json"

    @property
    def subset_report(self) -> Path:
        return self.dir / "report_subset.json"

    @property
    def fused(self) -> Path:
        return self.dir / "fused.csv"


@dataclass
class Op:
    """One CLI invocation: what to run, then how it went."""

    kind: str  # help, simulate, search, evaluate, fuse
    label: str
    argv: list[str] = field(default_factory=list)  # after the program name
    timed: bool = False
    rows: int = 0  # prediction rows the command carries
    outputs: tuple[Path, ...] = ()
    wall: float = 0.0
    rss_kb: int = 0
    ok: bool = True
    error: str = ""


# A runner executes one op and fills in its wall time and outcome.
Runner = Callable[[Op], Op]


class Chain:
    """Builds one workload's CLI ops and runs them through a runner."""

    def __init__(self, wl: Workload, seed: int, work: Path, runner: Runner):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.runner = runner
        self.ops: list[Op] = []
        self.base = work

    def execute(self, ops: list[Op], runner: Runner | None = None) -> None:
        for op in ops:
            for out in op.outputs:
                out.parent.mkdir(parents=True, exist_ok=True)
            (runner or self.runner)(op)
            self.ops.append(op)

    def _op(self, kind: str, label: str, argv: list, out: Path, timed: bool = True) -> Op:
        return Op(kind, label, [str(a) for a in argv], timed, self.wl.rows, (out,))

    def setup(self, tag: str, warm_up: bool = True) -> None:
        """Write every spec and config, and build a bundle from spec 0."""
        self.base = self.work / tag
        self.base.mkdir(parents=True)
        n_specs = 1 if self.wl.prebuilt else MAX_CASES
        for k in range(n_specs):
            spec = generator_spec(self.wl, derive_seed(self.seed, self.wl.name, "bundle", k))
            (self.base / f"spec{k}.json").write_text(json.dumps(spec, indent=2) + "\n")
        if self.wl.ga_config is not None:
            (self.base / "ga.json").write_text(json.dumps(self.wl.ga_config) + "\n")
        if warm_up:
            # Fills the page cache and bytecode cache before anything is timed.
            self.execute([Op("help", f"{tag}/help", ["--help"])])
        if self.wl.prebuilt or warm_up:
            # The shared bundle of a prebuilt workload. Elsewhere it is a
            # warm-up build: it runs the generator and the CSV writer once
            # before anything is timed, and no case reads it.
            bundle = self.base / "bundle"
            self.execute([self._op("simulate", f"{tag}/simulate",
                                   ["simulate", "--config", self.base / "spec0.json", "--out", bundle],
                                   bundle, timed=False)])

    def case(self, k: int, tag: str = "") -> Case:
        ga_seed = derive_seed(self.seed, self.wl.name, "ga", k)
        case_dir = self.base / f"case{k}{tag}"
        if self.wl.prebuilt:
            return Case(k, case_dir, self.base / "bundle", ga_seed, None)
        return Case(k, case_dir, case_dir / "bundle", ga_seed, self.base / f"spec{k}.json")

    @staticmethod
    def again(case: Case, tag: str) -> Case:
        """The same case in its own directory, reusing the first pass's bundle."""
        return replace(case, dir=case.dir.with_name(case.dir.name + tag), spec=None)

    def case_ops(self, case: Case) -> list[Op]:
        """A case's commands; a case without a spec reuses an existing bundle."""
        label = case.dir.relative_to(self.work).as_posix()
        ops = []
        if case.spec is not None:
            ops.append(self._op("simulate", f"{label}/simulate",
                                ["simulate", "--config", case.spec, "--out", case.bundle],
                                case.bundle))
        argv = ["search-weights", "--manifest", case.manifest, "--seed", case.ga_seed,
                "--out", case.weights]
        if self.wl.ga_config is not None:
            argv += ["--config", self.base / "ga.json"]
        ops.append(self._op("search", f"{label}/search", argv, case.weights))
        common = ["--manifest", case.manifest, "--weights", case.weights]
        ops.append(self._op("evaluate", f"{label}/evaluate",
                            ["evaluate", *common, "--format", "json", "--out", case.report],
                            case.report))
        if self.wl.subset:
            ops.append(self._op("evaluate", f"{label}/evaluate-subset",
                                ["evaluate", *common, "--subset", ",".join(self.wl.subset),
                                 "--format", "json", "--out", case.subset_report],
                                case.subset_report))
        ops.append(self._op("fuse", f"{label}/fuse", ["fuse", *common, "--out", case.fused],
                            case.fused))
        return ops


def output_files(case: Case) -> dict[str, Path]:
    """Files a case wrote, keyed by file name so a repeat's files pair up."""
    paths = (case.weights, case.report, case.subset_report, case.fused)
    return {p.name: p for p in paths if p.exists()}
