"""fedsim: a deterministic federated-averaging simulator.

Synchronous rounds of local mini-batch SGD on synthetic non-i.i.d. user
partitions, aggregated on a parameter server with plain weighted averaging
or Adam-style per-coordinate updates, evaluated by recall at a
false-alarms-per-hour budget, with communication-cost accounting.
"""

from .client import FULL_BATCH, LocalTrainingConfig, local_step_count, train_local
from .data import (
    POSITIVE_LABEL,
    Federation,
    FederationSpec,
    load_federation,
    save_federation,
    split_users,
    synthesize_federation,
)
from .errors import ConfigError, EvaluationError, FederationFormatError
from .evaluation import (
    EvalTargets,
    OperatingPoint,
    federated_eval,
    operating_point,
    pooled_eval,
    score_examples,
)
from .experiment import (
    BaselineMode,
    EvalMode,
    ExperimentConfig,
    ExperimentResult,
    FederationSource,
    MetricsRecord,
    SplitConfig,
    config_from_dict,
    load_config,
    run_baseline,
    run_experiment,
    sweep,
)
from .model import ModelSpec, gradient_from_arrays, loss_from_arrays, xavier_init
from .seeding import derive_seed
from .server import (
    AveragingKind,
    AveragingStrategy,
    RoundConfig,
    RoundRecord,
    ServerState,
    apply_adam,
    apply_plain,
    pseudo_gradient,
    run_round,
    select_clients,
    upload_cost_bytes,
)

__version__ = "0.1.0"
