"""One rule for every number a caller or a file hands in.

An integer is a ``numbers.Integral`` that is not a bool, and it is stored
as ``int``; a real is a ``numbers.Real`` that is not a bool. Each row of
``SITES`` is one (constructor or function, numeric argument) pair that the
shared checker serves, so a site that drifts from the rule fails here:
``True`` is refused everywhere, ``2.5`` wherever an integer is taken, a
numpy integer is accepted (and stored as ``int`` where an integer is
stored), and a value too long to print is named by its bit count. A range
message that shows no value (``sample_count must be non-negative``) is
pinned as it is.
"""

import sys
from typing import Callable, NamedTuple

import numpy as np
import pytest

from softvote import (
    ClassifierProfile,
    EvaluationReport,
    GAConfig,
    GeneratorSpec,
    Manifest,
    ManifestEntry,
    SplitSpec,
    ValidationError,
    brute_force_weights,
    confusion_matrix,
    load_labels,
    load_predictions,
    read_ga_config,
    read_manifest,
    run_ga,
    write_ga_config,
    write_manifest,
)
from softvote import ingest
from softvote.rng import check_seed

from conftest import build_ensemble

BITS = "an integer of 16610 bits"
NEGATIVE_BITS = "a negative integer of 16610 bits"
HUGE = 10**5000


class Site(NamedTuple):
    id: str
    build: Callable  # (value, tmp_path) -> the constructed object or the function's result
    integer: bool
    wrong_type: str  # the message for a value of the wrong type, "{}" standing for it
    huge: int | None  # an out-of-range value too long to print, None where every integer is legal
    huge_message: str
    valid: int | None = None  # an integer the site accepts, None where no integer is legal
    stored: Callable | None = None  # reads the value back from what ``build`` returned


def _inputs():
    return build_ensemble([[[1.0, 0.0], [0.0, 1.0]]], [0, 1])


def _report(**values):
    fields = {"nll": 0.5, "accuracy_percent": 100.0, "classifier_names": ("a",), "sample_count": 1, **values}
    return EvaluationReport(confusion=[[100.0]], per_class_accuracy=[100.0], **fields)


def _csv(tmp_path, text):
    p = tmp_path / "in.csv"
    p.write_text(text, encoding="utf-8")
    return p


def _ga(field, low, valid):
    return Site(
        f"GAConfig.{field}",
        lambda v, _: GAConfig(**{field: v}),
        True,
        f"{field} must be an integer, got {{}}",
        HUGE,
        f"{field} must be in [{low}, 100000], got {BITS}",
        valid,
        lambda c: getattr(c, field),
    )


def _fraction(field, interval="(0, 1]"):
    return Site(
        f"GAConfig.{field}",
        lambda v, _: GAConfig(**{field: v}),
        False,
        f"{field} must be a real number, got {{}}",
        HUGE,
        f"{field} must be in {interval}, got {BITS}",
        1,
        lambda c: getattr(c, field),
    )


def _profile(**values):
    return ClassifierProfile(**{"name": "a", "accuracy": 0.9, "sharpness": 2.0, **values})


def _spec(**values):
    return GeneratorSpec(**{"num_classes": 3, "num_samples": 10, "profiles": (_profile(),), **values})


def _manifest(num_classes):
    return Manifest(num_classes, ("a",), (ManifestEntry("a", "a.csv"),), "l.csv")


def _seed(site_id, build, stored=lambda x: x.seed):
    return Site(
        site_id,
        build,
        True,
        "seed must be an integer, got {}",
        HUGE,
        f"seed must be in [0, 2**64), got {BITS}",
        7,
        stored,
    )


SITES = [
    _ga("population_size", 2, 20),
    _ga("generations", 1, 3),
    _seed("GAConfig.seed", lambda v, _: GAConfig(seed=v)),
    _fraction("elite_fraction"),
    _fraction("extra_parent_fraction"),
    _fraction("fitness_sample_fraction"),
    _fraction("mutation_rate", "[0, 1]"),
    Site(
        "ClassifierProfile.accuracy",
        lambda v, _: _profile(accuracy=v),
        False,
        "accuracy must be a real number, got {}",
        HUGE,
        f"accuracy must be in (0, 1], got {BITS}",
        1,
        lambda p: p.accuracy,
    ),
    Site(
        "ClassifierProfile.sharpness",
        lambda v, _: _profile(sharpness=v),
        False,
        "sharpness must be a real number, got {}",
        HUGE,
        f"sharpness must be inf or at most {sys.float_info.max!r}, got {BITS}",
        2,
        lambda p: p.sharpness,
    ),
    Site(
        "GeneratorSpec.num_classes",
        lambda v, _: _spec(num_classes=v),
        True,
        "num_classes must be an integer, got {}",
        HUGE,
        f"num_classes must be in [1, 1000], got {BITS}",
        3,
        lambda s: s.num_classes,
    ),
    Site(
        "GeneratorSpec.num_samples",
        lambda v, _: _spec(num_samples=v),
        True,
        "num_samples must be an integer, got {}",
        HUGE,
        f"num_samples must be in [1, 1000000], got {BITS}",
        10,
        lambda s: s.num_samples,
    ),
    _seed("GeneratorSpec.seed", lambda v, _: _spec(seed=v)),
    Site(
        "SplitSpec.train_fraction",
        lambda v, _: SplitSpec(train_fraction=v),
        False,
        "train_fraction must be a real number, got {}",
        HUGE,
        f"train_fraction must be in (0, 1), got {BITS}",
    ),
    _seed("SplitSpec.seed", lambda v, _: SplitSpec(seed=v)),
    _seed("check_seed", lambda v, _: check_seed(v), lambda seed: seed),
    Site(
        "run_ga.threads",
        lambda v, _: run_ga(_inputs(), GAConfig(generations=1), threads=v),
        True,
        "threads must be a positive integer, got {}",
        -HUGE,
        f"threads must be a positive integer, got {NEGATIVE_BITS}",
        2,
    ),
    Site(
        "brute_force_weights.grid_step",
        lambda v, _: brute_force_weights(_inputs(), v),
        False,
        "grid_step must be in (0, 0.5], got {}",
        HUGE,
        f"grid_step must be in (0, 0.5], got {BITS}",
    ),
    Site(
        "EvaluationReport.nll",
        lambda v, _: _report(nll=v),
        False,
        "nll must be a non-negative real, got {}",
        HUGE,
        f"nll must be a non-negative real, got {BITS}",
        0,
        lambda r: r.nll,
    ),
    Site(
        "EvaluationReport.accuracy_percent",
        lambda v, _: _report(accuracy_percent=v),
        False,
        "accuracy_percent out of [0, 100]: {}",
        HUGE,
        f"accuracy_percent out of [0, 100]: {BITS}",
        100,
        lambda r: r.accuracy_percent,
    ),
    Site(
        "EvaluationReport.sample_count",
        lambda v, _: _report(sample_count=v),
        True,
        "sample_count must be an integer, got {}",
        -HUGE,
        "sample_count must be non-negative",
        4,
        lambda r: r.sample_count,
    ),
    Site(
        "confusion_matrix.num_classes",
        lambda v, _: confusion_matrix(np.full((1, 2), 0.5), [0], v),
        True,
        "num_classes must be an integer, got {}",
        -HUGE,
        "num_classes must be >= 1",
        2,
    ),
    Site(
        "json-int",
        lambda v, _: ingest._number(v, "k", int, "f.json"),
        True,
        "f.json: k must be an integer, got {}",
        None,
        "",
        5,
        lambda x: x,
    ),
    Site(
        "json-float",
        lambda v, _: ingest._number(v, "k", float, "f.json"),
        False,
        "f.json: k must be a finite number, got {}",
        HUGE,
        f"f.json: k must be a finite number, got {BITS}",
        5,
        lambda x: x,
    ),
    # The loaders check the class count before they open the file. A huge
    # count is legal there, and builds a header of that many cells.
    Site(
        "load_predictions.num_classes",
        lambda v, tmp_path: load_predictions(_csv(tmp_path, "sample_id,p0,p1\na,1.0,0.0\n"), v),
        True,
        "num_classes must be an integer, got {}",
        -HUGE,
        "num_classes must be >= 1",
        2,
        lambda ps: ps.num_classes,
    ),
    Site(
        "load_labels.num_classes",
        lambda v, tmp_path: load_labels(_csv(tmp_path, "sample_id,label\na,1\n"), v),
        True,
        "num_classes must be an integer, got {}",
        -HUGE,
        "num_classes must be >= 1",
        2,
    ),
    Site(
        "Manifest.num_classes",
        lambda v, _: _manifest(v),
        True,
        "num_classes must be an integer, got {}",
        -HUGE,
        f"num_classes must be >= 1, got {NEGATIVE_BITS}",
        1,
        lambda m: m.num_classes,
    ),
]
INTEGER_SITES = [site for site in SITES if site.integer]
IDS = [site.id for site in SITES]


def _refused(site, value, tmp_path):
    with pytest.raises(ValidationError) as info:
        site.build(value, tmp_path)
    return str(info.value)


@pytest.mark.parametrize("site", SITES, ids=IDS)
def test_a_bool_is_refused(site, tmp_path):
    assert _refused(site, True, tmp_path) == site.wrong_type.format("True")


@pytest.mark.parametrize("site", INTEGER_SITES, ids=[site.id for site in INTEGER_SITES])
def test_a_float_is_refused_where_an_integer_is_taken(site, tmp_path):
    assert _refused(site, 2.5, tmp_path) == site.wrong_type.format("2.5")


@pytest.mark.parametrize("site", [site for site in SITES if site.valid is not None], ids=lambda site: site.id)
def test_a_numpy_integer_is_accepted(site, tmp_path):
    result = site.build(np.int64(site.valid), tmp_path)
    if site.stored is not None:
        value = site.stored(result)
        assert value == site.valid
        if site.integer:
            assert type(value) is int


@pytest.mark.parametrize("site", [site for site in SITES if site.huge is not None], ids=lambda site: site.id)
def test_a_value_too_long_to_print_is_named_by_its_bit_count(site, tmp_path):
    assert _refused(site, site.huge, tmp_path) == site.huge_message


def test_numpy_integers_in_a_ga_config_round_trip_through_its_file(tmp_path):
    config = GAConfig(population_size=np.int64(20), generations=np.uint8(3), seed=np.uint64(2**64 - 1))
    write_ga_config(config, tmp_path / "ga.json")
    assert read_ga_config(tmp_path / "ga.json") == config == GAConfig(population_size=20, generations=3, seed=2**64 - 1)


def test_a_numpy_class_count_in_a_manifest_round_trips_through_its_file(tmp_path):
    write_manifest(_manifest(np.int64(1)), tmp_path / "m.json")
    assert read_manifest(tmp_path / "m.json") == _manifest(1)
