"""Parameter-server state machine: client selection, pseudo-gradient
aggregation, plain and Adam per-coordinate update rules, round
orchestration, the cohort train loss, and upload-cost accounting.

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
from .client import LocalTrainingConfig, local_step_count, train_local, train_one_step
from .data import Federation
from .errors import ConfigError, check_fields
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
        check_fields(self)
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
    """Weights and Adam moments after `round` steps, and the clients' local gradient steps
    so far; building one, by replace too, checks the arrays are finite."""

    weights: np.ndarray
    round: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    local_steps: int = 0

    def __post_init__(self):
        if self.m is None:
            object.__setattr__(self, "m", np.zeros_like(self.weights))
        if self.v is None:
            object.__setattr__(self, "v", np.zeros_like(self.weights))
        # finite weights can hide overflowed moments: Adam's step is about zero once sqrt(v) is inf
        if not all(np.isfinite(a).all() for a in (self.weights, self.m, self.v)):
            raise FloatingPointError("server weights or Adam moments not finite")

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


@dataclass(frozen=True, kw_only=True)
class RoundConfig:
    """Everything a round needs besides server state and data."""

    model: ModelSpec
    local: LocalTrainingConfig = LocalTrainingConfig()
    strategy: AveragingStrategy = AveragingStrategy()
    participation: float = 0.1

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.participation <= 1.0:
            raise ConfigError("participation ratio must lie in (0, 1]")


def select_clients(user_ids, participation: float, round_seed: int) -> list[int]:
    """Uniform sample without replacement of max(1, round(C*K)) users, sorted (RoundConfig checks C)."""
    ids = np.sort(np.asarray(user_ids))
    if not ids.size:
        raise ValueError("user id list must be nonempty")
    count = max(1, int(math.floor(participation * len(ids) + 0.5)))
    rng = np.random.default_rng(derive_seed(round_seed, "select"))
    return np.sort(rng.choice(ids, size=count, replace=False)).tolist()  # choice draws positions


def pseudo_gradient(w_prev: np.ndarray, sizes, client_weights) -> np.ndarray:
    """Weighted sum of client deltas, (n_k / n_r) * (w_prev - w_k) added in the
    order given, n_r = sum(sizes). client_weights yields vectors w_k or (k, P)
    blocks of the next k clients' weights, and may be a generator."""
    if len(sizes) == 0:
        raise ValueError("sizes must be nonempty")
    w_prev = np.asarray(w_prev, dtype=np.float64)
    scale = np.divide(sizes, sum(sizes))  # each n_k / n_r, rounded as Python rounds it
    acc, done = np.zeros_like(w_prev), 0
    for W in map(np.atleast_2d, client_weights):
        if W.shape[1:] != w_prev.shape or done + len(W) > len(sizes):
            raise ValueError(f"client weights {W.shape} after {done} fit neither {w_prev.shape} nor sizes")
        D = w_prev - W
        D *= scale[done : done + len(W), None]
        done += len(W)
        if len(D) == 1:  # the same sum as below, without a reduce's extra pass
            acc += D[0]
        else:  # an axis-0 reduce adds the rows in order, as `acc += d` row by row would
            D[0] += acc
            np.add.reduce(D, axis=0, out=acc)
        del W, D  # before the next block is made
    if done != len(sizes):
        raise ValueError(f"{done} client weights for {len(sizes)} sizes")
    return acc


def apply_plain(state: ServerState, pseudo_grad: np.ndarray, strategy: AveragingStrategy) -> ServerState:
    """w <- w - eta_global * G; moments untouched."""
    if pseudo_grad.shape != state.weights.shape:
        raise ValueError("pseudo-gradient shape does not match server weights")
    return replace(state, weights=state.weights - strategy.eta_global * pseudo_grad, round=state.round + 1)


def apply_adam(state: ServerState, pseudo_grad: np.ndarray, strategy: AveragingStrategy) -> ServerState:
    """Bias-corrected Adam step on the pseudo-gradient; moments persist across rounds."""
    if pseudo_grad.shape != state.weights.shape:
        raise ValueError("pseudo-gradient shape does not match server weights")
    step = state.round + 1
    m = strategy.beta1 * state.m + (1.0 - strategy.beta1) * pseudo_grad
    v = strategy.beta2 * state.v + (1.0 - strategy.beta2) * pseudo_grad * pseudo_grad
    m_hat = m / (1.0 - strategy.beta1**step)
    v_hat = v / (1.0 - strategy.beta2**step)
    weights = state.weights - strategy.eta_global * m_hat / (np.sqrt(v_hat) + strategy.epsilon)
    return replace(state, weights=weights, m=m, v=v, round=step)


def upload_cost_bytes(param_count: int, participation: float, rounds: int) -> int:
    """Total bytes one average client uploads: param_count * 4 * C * rounds (RoundConfig checks C)."""
    if param_count < 1:
        raise ConfigError("param_count must be >= 1")
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

    Selected clients all train from the same broadcast weights in ascending
    user id, and their deltas join the pseudo-gradient as they finish. When
    each takes one local step, they train through train_one_step in blocks of
    whole clients, so a round holds one block's weights and deltas at a
    time; otherwise one at a time through train_local. The configured
    update rule then advances the global weights, and the new state counts
    the cohort's local steps. A client's, the new state's or the
    pseudo-gradient norm's FloatingPointError names the round.
    """
    selected = select_clients(train_user_ids, cfg.participation, round_seed)
    sizes = federation.sizes(selected)
    steps = local_step_count(sizes, cfg.local.batch_size, cfg.local.epochs)
    w_prev = state.weights
    if steps.max() == 1:
        # blocks of whole clients: a new one begins at each client whose first row falls in a new
        # EVAL_ROWS-row block of the cohort's rows, and one holds at most EVAL_ROWS**2 floats of weights
        # (2 MiB, about an EVAL_ROWS-row pass of the paper-scale model); so one-row clients stay bounded too
        most = max(1, model.EVAL_ROWS**2 // cfg.model.param_count)
        starts = np.cumsum(sizes) - sizes
        firsts = np.flatnonzero(np.diff(starts // model.EVAL_ROWS, prepend=-1)).tolist() + [len(selected)]
        blocks = [(lo, min(lo + most, b)) for a, b in zip(firsts, firsts[1:]) for lo in range(a, b, most)]
        client_weights = (train_one_step(w_prev, federation, selected[lo:hi], cfg.local, cfg.model, round_seed)
                          for lo, hi in blocks)
    else:
        client_weights = (train_local(w_prev, federation, u, cfg.local, cfg.model, round_seed) for u in selected)
    try:
        grad = pseudo_gradient(w_prev, sizes.tolist(), client_weights)
        # looked up per call, so a rule wrapped on this module (bench/spans.py) is the one called
        update_rule = apply_adam if cfg.strategy.kind is AveragingKind.ADAM else apply_plain
        new_state = update_rule(state, grad, cfg.strategy)
        # no BLAS dot: called outside a run's one-thread hold, a dot this long wakes a second thread that spins on
        grad_norm = math.sqrt(np.add.reduce(grad * grad))
        # finite coordinates can have a norm that overflows, and the plain rule keeps them finite
        if not math.isfinite(grad_norm):
            raise FloatingPointError("pseudo-gradient norm not finite")
    except FloatingPointError as exc:
        raise FloatingPointError(f"round {state.round + 1}: diverged; {exc}") from None

    new_state = replace(new_state, local_steps=state.local_steps + int(steps.sum()))
    record = RoundRecord(
        round=new_state.round,
        selected_users=tuple(selected),
        n_r=int(sizes.sum()),
        pseudo_gradient_norm=grad_norm,
    )
    return new_state, record


def cohort_loss(spec: ModelSpec, w: np.ndarray, federation: Federation, user_ids) -> float:
    """Mean train loss of the users' examples at weights w, model.loss_from_arrays of their rows
    in ascending user id: the n_k / n_r weighted mean of per-user losses, up to rounding."""
    rows = federation.rows(sorted(user_ids))[0]
    return model.loss_from_arrays(spec, w, federation.X[rows], federation.y[rows])
