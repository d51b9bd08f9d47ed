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
    fit_log_normal,
    histogram_lnT,
)
from .events import (
    EventTable,
    IdCoder,
    InteractionEvent,
    LogFormatError,
    parse_event,
    read_log,
    write_log,
)
from .evaluation import (
    EvalReport,
    MigrationCell,
    UndefinedAucError,
    auc,
    equal_frequency_boundaries,
    migration_report,
    relaimpr,
)
from .labeling import (
    LabeledLog,
    LabelKind,
    LabelingConfig,
    ValidReadLabel,
    ValidReadSource,
    composition_report,
    label_log,
    read_labeled_log,
)
from .model import CHECKPOINT_VERSION, ModelConfig, MtlNetwork, SlotSpec
from .ndt import NdtParams, derive_scale, ndt, paper_default_params, solve_tau
from .profiles import (
    STORE_VERSION,
    ItemDwellProfile,
    ProfileStore,
    build_profiles,
)
from .quantiles import GKSummary, QuantileEstimator
from .simulate import (
    RuleMixConfig,
    SimConfig,
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

# The names imported from the submodules above, not the submodules or the version constants.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and getattr(value, "__module__", "").startswith("readweight.")
]
