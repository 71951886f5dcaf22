"""Parameter-server state machine: client selection, pseudo-gradient
aggregation, plain and Adam per-coordinate update rules, round
orchestration, and upload-cost accounting.

The server treats the weighted sum of client deltas as a gradient and
feeds it to the configured update rule; Adam moments persist across
rounds and are never reset.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import model
from .client import ClientUpdate, LocalTrainingConfig, train_local
from .data import Federation
from .errors import ConfigError
from .model import ModelSpec
from .seeding import derive_seed

BYTES_PER_PARAM = 4  # parameters travel as 32-bit floats


class AveragingKind(str, enum.Enum):
    PLAIN = "plain"
    ADAM = "adam"


# Server learning rate when none is given: plain averaging with rate 1 is
# exactly weighted model averaging; 1e-3 is the usual Adam step size.
DEFAULT_ETA_GLOBAL = {AveragingKind.PLAIN: 1.0, AveragingKind.ADAM: 1e-3}


@dataclass(frozen=True)
class AveragingStrategy:
    """Global update rule; beta/epsilon fields matter only for ADAM.

    eta_global defaults (None) to DEFAULT_ETA_GLOBAL for the kind.
    """

    kind: AveragingKind = AveragingKind.ADAM
    eta_global: float | None = None
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "kind", AveragingKind(self.kind))
        if self.eta_global is None:
            object.__setattr__(self, "eta_global", DEFAULT_ETA_GLOBAL[self.kind])
        if self.eta_global <= 0:
            raise ConfigError("eta_global must be positive")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ConfigError("beta1 and beta2 must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")

    @classmethod
    def plain(cls, eta_global: float | None = None) -> "AveragingStrategy":
        return cls(kind=AveragingKind.PLAIN, eta_global=eta_global)

    @classmethod
    def adam(cls, eta_global: float | None = None, **moments) -> "AveragingStrategy":
        """Adam rule; beta1, beta2 and epsilon may be given by keyword."""
        return cls(kind=AveragingKind.ADAM, eta_global=eta_global, **moments)


@dataclass(frozen=True)
class ServerState:
    """Global weights plus optimizer moments and cumulative upload counters."""

    weights: np.ndarray
    round: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    adam_step: int = 0
    cumulative_uploads: int = 0
    cumulative_upload_bytes: int = 0

    def __post_init__(self):
        if self.m is None:
            object.__setattr__(self, "m", np.zeros_like(self.weights))
        if self.v is None:
            object.__setattr__(self, "v", np.zeros_like(self.weights))

    @classmethod
    def initial(cls, weights: np.ndarray) -> "ServerState":
        return cls(weights=np.asarray(weights, dtype=np.float64))


@dataclass(frozen=True)
class RoundRecord:
    """Bookkeeping emitted once per communication round."""

    round: int
    selected_users: tuple[int, ...]
    n_r: int
    pseudo_gradient_norm: float
    train_loss_mean: float
    upload_bytes: int


@dataclass(frozen=True)
class RoundConfig:
    """Everything a round needs besides server state and data."""

    participation: float
    local: LocalTrainingConfig
    strategy: AveragingStrategy
    model: ModelSpec

    def __post_init__(self):
        if not 0.0 < self.participation <= 1.0:
            raise ConfigError("participation ratio must lie in (0, 1]")


def select_clients(user_ids, participation: float, round_seed: int) -> list[int]:
    """Uniform sample without replacement of max(1, round(C*K)) users, sorted."""
    if not 0.0 < participation <= 1.0:
        raise ConfigError("participation ratio must lie in (0, 1]")
    ids = sorted(user_ids)
    if not ids:
        raise ValueError("user id list must be nonempty")
    count = max(1, int(math.floor(participation * len(ids) + 0.5)))
    rng = np.random.default_rng(derive_seed(round_seed, "select"))
    chosen = rng.choice(np.array(ids), size=count, replace=False)
    return sorted(int(u) for u in chosen)


def pseudo_gradient(w_prev: np.ndarray, updates: list[ClientUpdate]) -> np.ndarray:
    """Weighted sum of client deltas, each update weighted by n_k / n_r.

    Summation runs in ascending user-id order so aggregation is bitwise
    permutation-invariant.
    """
    if not updates:
        raise ValueError("updates must be nonempty")
    w_prev = np.asarray(w_prev, dtype=np.float64)
    n_r = sum(u.example_count for u in updates)
    acc = np.zeros_like(w_prev)
    for update in sorted(updates, key=lambda u: u.user_id):
        if update.weights.shape != w_prev.shape:
            raise ValueError(
                f"user {update.user_id}: update shape {update.weights.shape} "
                f"!= server shape {w_prev.shape}"
            )
        acc += (update.example_count / n_r) * (w_prev - update.weights)
    return acc


def apply_plain(state: ServerState, pseudo_grad: np.ndarray, strategy: AveragingStrategy) -> ServerState:
    """w <- w - eta_global * G; moments untouched."""
    if pseudo_grad.shape != state.weights.shape:
        raise ValueError("pseudo-gradient shape does not match server weights")
    weights = state.weights - strategy.eta_global * pseudo_grad
    if not np.all(np.isfinite(weights)):
        raise FloatingPointError("plain averaging produced non-finite weights")
    return replace(state, weights=weights, round=state.round + 1)


def apply_adam(state: ServerState, pseudo_grad: np.ndarray, strategy: AveragingStrategy) -> ServerState:
    """Bias-corrected Adam step on the pseudo-gradient; moments persist across rounds."""
    if pseudo_grad.shape != state.weights.shape:
        raise ValueError("pseudo-gradient shape does not match server weights")
    step = state.adam_step + 1
    m = strategy.beta1 * state.m + (1.0 - strategy.beta1) * pseudo_grad
    v = strategy.beta2 * state.v + (1.0 - strategy.beta2) * pseudo_grad * pseudo_grad
    m_hat = m / (1.0 - strategy.beta1**step)
    v_hat = v / (1.0 - strategy.beta2**step)
    weights = state.weights - strategy.eta_global * m_hat / (np.sqrt(v_hat) + strategy.epsilon)
    if not np.all(np.isfinite(weights)):
        raise FloatingPointError("adam averaging produced non-finite weights")
    return replace(state, weights=weights, m=m, v=v, round=state.round + 1, adam_step=step)


def upload_cost_bytes(param_count: int, participation: float, rounds: int) -> int:
    """Total bytes one average client uploads: param_count * 4 * C * rounds."""
    if param_count < 1:
        raise ConfigError("param_count must be >= 1")
    if not 0.0 < participation <= 1.0:
        raise ConfigError("participation ratio must lie in (0, 1]")
    if rounds < 0:
        raise ConfigError("rounds must be nonnegative")
    return int(math.floor(param_count * BYTES_PER_PARAM * participation * rounds + 0.5))


def run_round(
    state: ServerState,
    federation: Federation,
    train_user_ids,
    cfg: RoundConfig,
    round_seed: int,
) -> tuple[ServerState, RoundRecord]:
    """One synchronous communication round.

    Selected clients all train from the same broadcast weights, their deltas
    are aggregated into a pseudo-gradient, and the configured update rule
    advances the global weights.
    """
    if state.weights.shape != (cfg.model.param_count,):
        raise ValueError(
            f"server weights length {state.weights.shape[0]} does not match "
            f"model parameter count {cfg.model.param_count}"
        )
    selected = select_clients(train_user_ids, cfg.participation, round_seed)
    parts = [federation.partition(uid) for uid in selected]
    w_prev = state.weights
    updates = [train_local(w_prev, part, cfg.local, cfg.model, round_seed) for part in parts]

    grad = pseudo_gradient(w_prev, updates)
    # looked up per call, so a rule wrapped on this module (bench/spans.py) is the one called
    update_rule = {AveragingKind.PLAIN: apply_plain, AveragingKind.ADAM: apply_adam}
    new_state = update_rule[cfg.strategy.kind](state, grad, cfg.strategy)

    n_r = sum(p.size for p in parts)
    train_loss = sum(
        (p.size / n_r) * model.loss(cfg.model, w_prev, p.examples) for p in parts
    )
    upload_bytes = len(selected) * cfg.model.param_count * BYTES_PER_PARAM
    new_state = replace(
        new_state,
        cumulative_uploads=state.cumulative_uploads + len(selected),
        cumulative_upload_bytes=state.cumulative_upload_bytes + upload_bytes,
    )
    record = RoundRecord(
        round=new_state.round,
        selected_users=tuple(selected),
        n_r=n_r,
        pseudo_gradient_norm=float(np.linalg.norm(grad)),
        train_loss_mean=float(train_loss),
        upload_bytes=upload_bytes,
    )
    return new_state, record
