"""The package's public names: ``__all__`` is computed from its imports."""

from __future__ import annotations

import importlib
import inspect

import readweight

PUBLIC = {
    "DwellStats", "EvalReport", "EventTable", "FeatureSpace", "GKSummary", "IdCoder", "InsufficientDataError",
    "InteractionEvent", "ItemDwellProfile", "LabeledLog", "LabelKind", "LabelingConfig", "LogFormatError",
    "MigrationCell", "ModelConfig", "MtlNetwork", "NdtParams", "ProfileStore", "QuantileEstimator", "RuleMixConfig",
    "SimConfig", "SlotSpec", "TrainConfig", "UndefinedAucError", "ValidReadLabel", "ValidReadSource", "auc",
    "build_instances", "build_profiles", "composition_report", "derive_scale", "equal_frequency_boundaries",
    "fit_log_normal", "generate", "generate_migration_pair", "generate_rule_mix", "histogram_lnT", "label_log",
    "migration_report", "ndt", "parse_event", "paper_default_params", "read_labeled_log", "read_log", "relaimpr",
    "solve_tau", "train", "write_log",
}


def test_all_names_the_public_api_once():
    assert len(PUBLIC) == 48
    assert sorted(readweight.__all__) == sorted(PUBLIC)


def test_each_public_name_comes_from_a_submodule():
    for name in PUBLIC:
        assert getattr(readweight, name).__module__.startswith("readweight."), name


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from readweight import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_ndt_is_the_function_not_the_module():
    # Importing the submodule again must not rebind the package's name.
    importlib.import_module("readweight.ndt")
    assert inspect.isfunction(readweight.ndt)
    assert readweight.ndt is importlib.import_module("readweight.ndt").ndt
