"""Client-side local training: mini-batch SGD over one user's rows of a Federation.

Shuffling is reseeded per (round_seed, user_id, epoch), so a client's result
depends only on its own rows: not on the federation's other users, nor on
which other clients train or in what order. The centralized baseline draws
its batches from the same generator. A one-step cohort's epoch-0 orders are
seeded in one pass (epoch_orders) that reproduces numpy's SeedSequence ->
PCG64 seeding word for word.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Final

import numpy as np

from . import model
from .data import Federation
from .errors import ConfigError, require_finite
from .model import ModelSpec
from .seeding import derive_seed, derive_seeds

# Sentinel batch size: one batch covers all of a user's rows.
FULL_BATCH: Final = None


@dataclass(frozen=True)
class LocalTrainingConfig:
    epochs: int = 1
    batch_size: int | None = FULL_BATCH
    eta_local: float = 0.01

    def __post_init__(self):
        require_finite(self)
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size is not FULL_BATCH and self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1 or FULL_BATCH")
        if self.eta_local < 0:
            raise ConfigError("eta_local must be nonnegative")


def local_step_count(n_k: int, batch_size: int | None, epochs: int) -> int:
    """Gradient steps a client performs: epochs * max(ceil(n_k / batch), 1)."""
    if n_k < 1:
        raise ValueError("n_k must be >= 1")
    b = n_k if batch_size is FULL_BATCH else batch_size
    return epochs * max(math.ceil(n_k / b), 1)


def minibatches(n: int, batch_size: int | None, *seed_parts) -> Iterator[np.ndarray]:
    """Endless index arrays of shuffled mini-batches over n examples.

    Each epoch is a fresh permutation seeded by derive_seed(*seed_parts,
    epoch); its final partial batch is yielded as-is.
    """
    batch = n if batch_size is FULL_BATCH else batch_size
    for epoch in itertools.count():
        order = epoch_order(n, *seed_parts, epoch)
        for start in range(0, n, batch):
            yield order[start : start + batch]


def epoch_order(n: int, *seed_parts) -> np.ndarray:
    """The shuffled order of n examples in the epoch that the seed parts, the epoch last, name."""
    return np.random.default_rng(derive_seed(*seed_parts)).permutation(n)


# numpy's SeedSequence: the constants its hashes step through, INIT_A * MULT_A**i (mix_entropy) and
# INIT_B * MULT_B**i (generate_state) mod 2**32, then MIX_MULT_L and MIX_MULT_R; and PCG64's multiplier
_HASH_A = np.array([0x43B0D7E5 * pow(0x931E8875, i, 1 << 32) % (1 << 32) for i in range(17)], np.uint32)[:, None]
_HASH_B = np.array([0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) % (1 << 32) for i in range(9)], np.uint32)[:, None]
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row i of words: xor consts[i], times consts[i + 1], xorshift."""
    words = (words ^ consts[:-1]) * consts[1:]
    return words ^ (words >> _SHIFT)


def epoch_orders(round_seed: int, user_ids, sizes) -> list[np.ndarray]:
    """[epoch_order(n, round_seed, u, 0) for u, n in zip(user_ids, sizes)]: numpy's SeedSequence for all
    users at once in uint32 arithmetic, PCG64's seeding in 128-bit ints, numpy's own permutation."""
    seeds = np.array(derive_seeds((round_seed,), user_ids, (0,)), np.uint64)
    pool = np.zeros((4, len(seeds)), np.uint32)  # a column per user
    pool[:2] = seeds, seeds >> np.uint64(32)  # the entropy: a seed's words, low first, zero-padded
    pool = _hashmix(pool, _HASH_A[:5])
    for src in range(4):  # each word mixed into the three others, in numpy's order
        dst, h = [d for d in range(4) if d != src], _hashmix(pool[src], _HASH_A[4 + 3 * src : 8 + 3 * src])
        mixed = _MIX_L * pool[dst] - _MIX_R * h
        pool[dst] = mixed ^ (mixed >> _SHIFT)
    words = _hashmix(np.tile(pool, (2, 1)), _HASH_B)  # generate_state(4, uint64) as uint32 halves
    words = np.ascontiguousarray(words.T).astype("<u4", copy=False).view("<u8").tolist()
    bit_generator, orders = np.random.PCG64(0), []
    generator, state = np.random.Generator(bit_generator), {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    for (a, b, c, d), n in zip(words, sizes):
        inc = (c << 65 | d << 1 | 1) & _MASK128
        state["state"] = {"state": ((a << 64 | b) + inc) * _PCG_MULT + inc & _MASK128, "inc": inc}
        bit_generator.state = state
        orders.append(generator.permutation(n))
    return orders


def train_local(
    w_start: np.ndarray,
    federation: Federation,
    user_id: int,
    cfg: LocalTrainingConfig,
    spec: ModelSpec,
    round_seed: int,
) -> np.ndarray:
    """Run local SGD on user_id's rows from the broadcast weights; return the trained weights.

    Data is reshuffled once per epoch; the final partial batch is used as-is.
    w_start is never mutated. An unknown user id raises ValueError.
    """
    k = federation.segments([user_id])[0]
    rows = slice(federation.offsets[k], federation.offsets[k + 1])
    X, y = federation.X[rows], federation.y[rows]
    n = len(y)
    w = np.array(w_start, dtype=np.float64, copy=True)
    if w.shape != (spec.param_count,):
        raise ValueError(f"weights have shape {w.shape}, expected ({spec.param_count},)")

    # built once per update; the views of w stay valid because w changes only in place
    buffer = np.empty_like(w)
    workspace = dict(out=buffer, layers=model._layer_views(spec, w), out_layers=model._layer_views(spec, buffer))
    batches = minibatches(n, cfg.batch_size, round_seed, user_id)
    try:
        for idx in itertools.islice(batches, local_step_count(n, cfg.batch_size, cfg.epochs)):
            grad = model.gradient_from_arrays(spec, w, X[idx], y[idx], **workspace)
            grad *= cfg.eta_local
            w -= grad
        # once per update: a non-finite coordinate never turns finite again
        if not np.isfinite(w).all():
            raise FloatingPointError
    except FloatingPointError:
        raise FloatingPointError(f"user {user_id}: local training diverged") from None
    return w


def train_one_step(w_start, federation: Federation, user_ids, cfg: LocalTrainingConfig, spec: ModelSpec,
                   round_seed: int) -> np.ndarray:
    """train_local's results, bit for bit, as rows of a (k, P) matrix, for users
    that each take one local step: the users of one size in one stacked gradient
    pass, each on its epoch-0 order. If a pass raises FloatingPointError or leaves
    a weight non-finite, they train one by one, and train_local names the first."""
    w_start = model._check_params(spec, w_start)
    sizes = federation.sizes(user_ids)
    by_size = np.argsort(sizes, kind="stable")  # a size's users consecutive
    starts, sizes = federation.offsets[federation.segments(user_ids)[by_size]], sizes[by_size]
    orders = epoch_orders(round_seed, np.asarray(user_ids)[by_size].tolist(), sizes.tolist())
    rows = np.concatenate(orders) + np.repeat(starts, sizes)
    X, y = federation.X[rows], federation.y[rows]
    cuts = np.flatnonzero(np.diff(sizes, prepend=0)).tolist() + [len(user_ids)]
    first_rows = (np.cumsum(sizes) - sizes).tolist()
    G, layers = np.empty((len(user_ids), spec.param_count)), model._layer_views(spec, w_start)
    try:
        for a, b in zip(cuts, cuts[1:]):
            k, n, r = b - a, int(sizes[a]), first_rows[a]
            Xk, yk = X[r : r + k * n].reshape(k, n, -1), y[r : r + k * n].reshape(k, n)
            model.gradient_from_arrays(spec, w_start, Xk, yk, out=G[a:b], layers=layers)
        G *= cfg.eta_local
        np.subtract(w_start, G, out=G)
        diverged = not np.isfinite(G).all()
    except FloatingPointError:
        diverged = True
    if diverged:
        return np.stack([train_local(w_start, federation, u, cfg, spec, round_seed) for u in user_ids])
    W = np.empty_like(G)
    W[by_size] = G
    return W
