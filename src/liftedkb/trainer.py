"""BPR negative sampling, lazy ADAM, and the epoch loop.

One epoch is one shuffled pass over the positive facts, each paired with a
freshly sampled unobserved tuple for the same relation. When training the
FSL variant, the lifted losses of *all* rules are added to every batch.
Single-threaded and bitwise deterministic for a fixed seed.

Negatives are drawn for the whole epoch at once, yet the generator yields
exactly what one scalar `rng.integers(n_tuples)` per rejection attempt,
facts in epoch order, would (BPR's uniform rejection sampler, Rendle et al.
2009). This rests on one property of numpy's `Generator.integers`: a call
with `size=m` returns the same values, and leaves the same bit-generator
state, as m scalar calls (bounded draws below 2**32 take one 32-bit output
each, with no buffering across values; `tests/test_trainer.py` pins this by
name). The draws then form one stream that the facts consume in order:
fact j takes draws until one misses the observed facts or the cap is hit,
so a collision only shifts every later fact's first draw by one. The
sampler draws that stream in blocks, each only when the last is used up and
each holding one draw per fact still without a negative, the current fact
included. Every such fact takes at least one more draw, so every value drawn
is used, and the generator ends where the per-attempt loop would leave it.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import model
from .data import FactStore
from .errors import DataError, NumericalError
from .model import Batch, Gradients, LossBreakdown, ModelConfig, ModelParams

log = logging.getLogger(__name__)

MAX_NEGATIVE_ATTEMPTS = 100

# ADAM's moment decay rates and denominator guard, fixed at the defaults of
# Kingma & Ba (2015) as in the paper; only the learning rate is an option.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

# Values per ADAM work buffer: each block's touched rows are updated in slices
# of ADAM_BLOCK // k rows (at least one), so the four (slice, k) buffers take
# 128 KB each and stay in L2 whatever the batch touches.
ADAM_BLOCK = 1 << 14


@dataclass
class TrainOptions:
    epochs: int
    learning_rate: float = 0.005
    batch_size: int = 8192
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class AdamState:
    """First/second moment accumulators mirroring ModelParams, plus step count."""
    m_rel: np.ndarray
    v_rel: np.ndarray
    m_tup: np.ndarray
    v_tup: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n_relations: int, n_tuples: int, k: int) -> "AdamState":
        return cls(np.zeros((n_relations, k)), np.zeros((n_relations, k)),
                   np.zeros((n_tuples, k)), np.zeros((n_tuples, k)))


@dataclass
class EpochStats:
    epoch: int
    loss: LossBreakdown          # mean over batches
    seconds: float
    collision_rate: float        # fraction of negative draws that hit observed facts
    rule_seconds: float = 0.0    # time spent on rule loss/gradients this epoch
    dropped_pairs: int = 0       # positives dropped after the rejection cap
    sample_seconds: float = 0.0  # time spent drawing negatives this epoch
    grad_seconds: float = 0.0    # time spent on reconstruction + L2 gradients
    adam_seconds: float = 0.0    # time spent in ADAM updates
    adam_rows: int = 0           # relation plus tuple rows ADAM updated


def sample_negatives(store: FactStore, relations, rng):
    """Uniform unobserved tuple for each entry of `relations`, by rejection.

    Returns (negatives, attempts), int64 arrays with one entry per relation:
    the sampled tuple id, or -1 when all `MAX_NEGATIVE_ATTEMPTS` draws hit
    observed facts and the pair is dropped, and the draws it took. Values and
    the final generator state equal those of one scalar `rng.integers(n_tuples)`
    per attempt, relations in order, and every value drawn is used (see the
    module docstring).
    """
    relations = np.asarray(relations, dtype=np.int64)
    n, n_tuples, max_attempts = len(relations), len(store.tuples), MAX_NEGATIVE_ATTEMPTS
    observed = store.key_set
    negatives = []
    attempts = np.ones(n, dtype=np.int64)

    def blocks():  # each holds one draw per fact still without a negative
        while True:
            yield rng.integers(n_tuples, size=n - len(negatives)).tolist()

    next_draw = chain.from_iterable(blocks()).__next__
    for j, base in enumerate((relations * n_tuples).tolist()):
        draw = next_draw()
        if base + draw not in observed:
            negatives.append(draw)
            continue
        for tried in range(2, max_attempts + 1):
            draw = next_draw()
            if base + draw not in observed:
                break
        else:  # every draw hit an observed fact: the pair is dropped
            draw, tried = -1, max_attempts
        negatives.append(draw)
        attempts[j] = tried
    return np.array(negatives, dtype=np.int64), attempts


def _adam_update_block(name, theta, grad, m, v, rows, t, options):
    """ADAM on the rows `rows` of one block; `grad` row i belongs to `rows[i]`.

    The checks run on the whole block first, so a bad block leaves every row
    as it was. The rows are then updated in slices of `ADAM_BLOCK // k` rows:
    all touched rows at once would take four (rows, k) buffers, megabytes per
    batch, which overflow L2 and which the allocator hands back to the OS
    after each batch, so they page-fault again on the next. The four slice
    buffers are allocated once per call; each slice gathers m, v and theta
    into them (`np.take` with `mode="clip"`, which skips the bounds pass and
    the copy that `mode="raise"` makes; the rows were checked above), updates
    them in place and scatters them back. Every IEEE operation has the
    operands of `b1 * m + (1 - b1) * grad`, `b2 * v + (1 - b2) * grad * grad`
    and `theta - lr * m_hat / (sqrt(v_hat) + eps)` read left to right, and
    each is elementwise and correctly rounded, so neither the in-place order
    nor the slicing changes a bit of that out-of-place form (the rows are
    distinct, so no slice reads what another wrote).
    """
    if grad.shape[0] != len(rows):
        raise ValueError(f"{name}: gradient buffer has {grad.shape[0]} rows "
                         f"for {len(rows)} touched rows")
    if len(rows) and not 0 <= rows.min() <= rows.max() < len(theta):
        raise IndexError(f"{name}: touched rows outside 0..{len(theta) - 1}")
    if not np.all(np.isfinite(grad)):
        raise NumericalError(f"non-finite gradient in {name}")
    m_scale, v_scale = 1 - ADAM_BETA1 ** t, 1 - ADAM_BETA2 ** t
    k = theta.shape[1]
    step = max(ADAM_BLOCK // k, 1)
    buffers = np.empty((4, min(step, len(rows)), k))
    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        g = grad[start:start + step]
        m_rows, v_rows, theta_rows, scaled = buffers[:, :len(part)]
        np.take(m, part, axis=0, out=m_rows, mode="clip")
        m_rows *= ADAM_BETA1
        np.multiply(1 - ADAM_BETA1, g, out=scaled)
        m_rows += scaled
        np.take(v, part, axis=0, out=v_rows, mode="clip")
        v_rows *= ADAM_BETA2
        np.multiply(1 - ADAM_BETA2, g, out=scaled)
        scaled *= g
        v_rows += scaled
        m[part] = m_rows
        v[part] = v_rows
        m_rows /= m_scale  # m_hat
        v_rows /= v_scale  # v_hat
        np.sqrt(v_rows, out=v_rows)
        v_rows += ADAM_EPSILON
        m_rows *= options.learning_rate
        m_rows /= v_rows
        np.take(theta, part, axis=0, out=theta_rows, mode="clip")
        theta_rows -= m_rows
        theta[part] = theta_rows


def adam_step(params: ModelParams, grads: Gradients, state: AdamState,
              options: TrainOptions) -> None:
    """Bias-corrected ADAM update on the touched parameter rows only.

    `grads` is row-compact (see `model.Gradients`): each block's buffer has
    one row per entry of its row array. Moments of untouched rows are not
    decayed (lazy/sparse semantics), so an epoch's memory is O(nnz) whatever
    the vocabulary sizes (criterion 10), and its work buffers are bounded by
    `ADAM_BLOCK` values, not by the touched rows (see `_adam_update_block`).
    Its time per touched row is not O(1): it grows with |T|, and no gate
    bounds it.
    """
    state.step += 1
    _adam_update_block("relation embeddings", params.relations, grads.relations,
                       state.m_rel, state.v_rel, grads.relation_rows, state.step, options)
    _adam_update_block("tuple pre-activations", params.tuple_pre, grads.tuple_pre,
                       state.m_tup, state.v_tup, grads.tuple_rows, state.step, options)


@dataclass
class TrainResult:
    params: ModelParams
    stats: list[EpochStats]


def train(store: FactStore, rules, config: ModelConfig, options: TrainOptions,
          callbacks=None, cold_relations=()) -> TrainResult:
    """Train the selected variant on `store`; returns the params and epoch stats.

    The ADAM moments are as large as the params and are freed when the call
    returns, so the params are the only |T| x k arrays a result holds.
    Rules are only used by variant FSL (their lifted losses enter every
    batch). The `cold_relations` ids start from `model.COLD_RANGE` (see
    `model.init_params`). Deterministic given (seed, options, inputs).
    A floating-point overflow, invalid operation or division by zero in a
    batch raises NumericalError naming the epoch, whatever the warning filters.
    """
    if len(store) == 0:
        raise DataError("fact store is empty")
    if config.variant == "fsl" and not rules:
        log.warning("variant fsl with no rules: training reduces to fs")
    active_rules = list(rules) if (rules and config.variant == "fsl") else []
    rule_idx = model.rule_index_arrays(active_rules)

    params = model.init_params(config, len(store.relations), len(store.tuples),
                               options.seed, cold_relations)
    state = AdamState.zeros(len(store.relations), len(store.tuples), config.k)
    rng = np.random.default_rng([options.seed, 1])
    facts = store.facts
    n = len(facts)
    stats: list[EpochStats] = []

    for epoch in range(options.epochs):
        t0 = time.perf_counter()
        epoch_facts = facts[rng.permutation(n)]
        relations, positives = epoch_facts[:, 0], epoch_facts[:, 1]
        s0 = time.perf_counter()
        negatives, attempts = sample_negatives(store, relations, rng)
        sample_seconds = time.perf_counter() - s0
        kept = negatives >= 0
        sums = np.zeros(4)  # recon, l2, implication, total
        n_batches = adam_rows = 0
        rule_seconds = grad_seconds = adam_seconds = 0.0
        try:  # a floating-point fault in a batch is a divergence, not a warning
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                for start in range(0, n, options.batch_size):
                    part = slice(start, start + options.batch_size)
                    keep = kept[part]
                    if not keep.any():
                        continue
                    batch = Batch(relations[part][keep], positives[part][keep],
                                  negatives[part][keep])
                    g0 = time.perf_counter()
                    grads, recon, l2 = model.recon_l2_gradients(params, batch, rule_idx, config)
                    grad_seconds += time.perf_counter() - g0
                    if active_rules:
                        r0 = time.perf_counter()
                        implication = model.rule_gradients(params, rule_idx, config, grads)
                        rule_seconds += time.perf_counter() - r0
                    else:
                        implication = 0.0
                    loss = LossBreakdown.build(recon, l2, implication,
                                               config.alpha, config.beta_tilde)
                    if not np.isfinite(loss.total):
                        raise NumericalError(f"non-finite loss at epoch {epoch}: {loss}")
                    sums += (loss.reconstruction, loss.l2, loss.implication, loss.total)
                    n_batches += 1
                    a0 = time.perf_counter()
                    adam_step(params, grads, state, options)
                    adam_seconds += time.perf_counter() - a0
                    adam_rows += len(grads.relation_rows) + len(grads.tuple_rows)
        except FloatingPointError as error:
            raise NumericalError(f"{error} at epoch {epoch}") from None
        attempts_total, n_kept = int(attempts.sum()), int(kept.sum())
        collisions = attempts_total - n_kept  # every draw but each kept pair's last
        if n_batches == 0:
            log.warning("epoch %d ran no batch: all %d pairs were dropped (every "
                        "negative draw hit an observed fact), so its losses read 0",
                        epoch, n - n_kept)
        epoch_stats = EpochStats(
            epoch=epoch,
            loss=LossBreakdown(*(sums / max(n_batches, 1))),
            seconds=time.perf_counter() - t0,
            collision_rate=collisions / max(attempts_total, 1),
            rule_seconds=rule_seconds,
            dropped_pairs=n - n_kept,
            sample_seconds=sample_seconds,
            grad_seconds=grad_seconds,
            adam_seconds=adam_seconds,
            adam_rows=adam_rows,
        )
        stats.append(epoch_stats)
        if callbacks:
            for cb in callbacks:
                cb(epoch_stats)
    return TrainResult(params=params, stats=stats)

