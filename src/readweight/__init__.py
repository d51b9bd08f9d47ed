"""Reweighting click feedback with dwell time.

The pipeline fits a log-normal model of dwell time, labels valid reads,
derives normalized dwell-time weights, trains a shared-bottom two-tower
model on the relabeled and reweighted instances, and evaluates with AUC,
RelaImpr, and a dwell-time migration report.  A synthetic log generator
provides ground truth for every stage.
"""

from .dwell_stats import (
    DwellStats,
    InsufficientDataError,
    StatsAccumulator,
    fit_log_normal,
    histogram_lnT,
)
from .events import (
    EventTable,
    InteractionEvent,
    LogFormatError,
    parse_event,
    read_log,
    serialize_event,
    write_log,
)
from .evaluation import (
    EvalReport,
    MigrationCell,
    UndefinedAucError,
    activeness_level,
    auc,
    equal_frequency_boundaries,
    migration_report,
    relaimpr,
    weekly_click_counts,
)
from .labeling import (
    LabeledLog,
    LabelKind,
    LabelingConfig,
    ValidReadLabel,
    ValidReadSource,
    composition_report,
    label_event,
    label_log,
    read_labeled_log,
)
from .model import CHECKPOINT_VERSION, ModelConfig, MtlNetwork, SlotSpec
from .ndt import NdtParams, derive_scale, ndt, paper_default_params, solve_tau
from .profiles import (
    STORE_VERSION,
    ItemDwellProfile,
    ProfileStore,
    UserActivityProfile,
    build_profiles,
)
from .quantiles import GKSummary, QuantileEstimator
from .simulate import (
    RuleMixConfig,
    SimConfig,
    analytic_click_rate,
    analytic_light_user_fraction,
    generate,
    generate_migration_pair,
    generate_rule_mix,
)
from .training import FeatureSpace, TrainConfig, build_instances, train

__version__ = "0.1.0"

FORMAT_VERSIONS = {
    "profile_store": STORE_VERSION,
    "checkpoint": CHECKPOINT_VERSION,
}

__all__ = [
    "DwellStats",
    "EvalReport",
    "EventTable",
    "FeatureSpace",
    "GKSummary",
    "InsufficientDataError",
    "InteractionEvent",
    "ItemDwellProfile",
    "LabeledLog",
    "LabelKind",
    "LabelingConfig",
    "LogFormatError",
    "MigrationCell",
    "ModelConfig",
    "MtlNetwork",
    "NdtParams",
    "ProfileStore",
    "QuantileEstimator",
    "RuleMixConfig",
    "SimConfig",
    "SlotSpec",
    "StatsAccumulator",
    "TrainConfig",
    "UndefinedAucError",
    "UserActivityProfile",
    "ValidReadLabel",
    "ValidReadSource",
    "activeness_level",
    "analytic_click_rate",
    "analytic_light_user_fraction",
    "auc",
    "build_instances",
    "build_profiles",
    "composition_report",
    "derive_scale",
    "equal_frequency_boundaries",
    "fit_log_normal",
    "generate",
    "generate_migration_pair",
    "generate_rule_mix",
    "histogram_lnT",
    "label_event",
    "label_log",
    "migration_report",
    "ndt",
    "parse_event",
    "paper_default_params",
    "read_labeled_log",
    "read_log",
    "relaimpr",
    "serialize_event",
    "solve_tau",
    "train",
    "weekly_click_counts",
    "write_log",
]
