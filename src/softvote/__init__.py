"""Probability-level classifier fusion with genetic weight search.

Combine the softmax outputs of several black-box classifiers into one
decision, either by plain averaging or through per-classifier weights
found by a small genetic algorithm, and score the result with NLL,
accuracy, and a row-percent confusion matrix.

Importing the package loads none of its modules: each public name's
module is imported when the name is first used, so ``import softvote``
alone does not load numpy.
"""

_MODULE_OF = {
    name: module
    for module, names in {
        "core": (
            "EnsembleInputs", "LabeledSamples", "PredictionSet", "ROW_SUM_TOLERANCE", "argmax_class",
            "argmax_classes", "as_weights", "fuse_majority", "fuse_weighted",
        ),
        "errors": (
            "AlignmentError", "ConfigError", "DegenerateWeightsError", "DimensionError", "EmptyInputError",
            "FormatError", "LabelRangeError", "OracleScopeError", "SoftvoteError", "SplitError",
            "ValidationError",
        ),
        "ga": ("GAConfig", "GAResult", "GASnapshot", "run_ga"),
        "ingest": (
            "Manifest", "ManifestEntry", "SplitSpec", "load_ensemble", "load_labels", "load_manifest",
            "load_predictions", "read_ga_config", "read_generator_spec", "read_manifest", "read_report",
            "read_weights", "render_report_table", "report_to_json", "split_samples", "write_ensemble",
            "write_ga_config", "write_labels", "write_manifest", "write_predictions", "write_report",
            "write_weights",
        ),
        "metrics": ("EvaluationReport", "NLL_EPSILON", "accuracy", "confusion_matrix", "evaluate", "nll"),
        "rng": ("make_rng",),
        "synthgen": ("ClassifierProfile", "GeneratorSpec", "brute_force_weights", "generate"),
    }.items()
    for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines public ``name``, and keep the name here for later lookups."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
