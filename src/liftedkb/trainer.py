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
sampler draws a block of that stream, walks the facts over it in one plain
loop, extends it from the same generator when it runs short, then restores
the saved state and redraws exactly the number of values used, so the
generator ends where the per-attempt loop would have left it.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

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


def sample_negatives(store: FactStore, relations, rng,
                     max_attempts: int = MAX_NEGATIVE_ATTEMPTS):
    """Uniform unobserved tuple for each entry of `relations`, by rejection.

    Returns (negatives, attempts), int64 arrays with one entry per relation:
    the sampled tuple id, or -1 when all `max_attempts` draws hit observed
    facts and the pair is dropped, and the draws it took. Values and the
    final generator state equal those of one scalar `rng.integers(n_tuples)`
    per attempt, relations in order (see the module docstring).
    """
    relations = np.asarray(relations, dtype=np.int64)
    n, n_tuples = len(relations), len(store.tuples)
    observed = store.key_set
    negatives = []
    attempts = np.ones(n, dtype=np.int64)
    saved = rng.bit_generator.state
    draws = rng.integers(n_tuples, size=n + max_attempts).tolist()
    used = 0  # draws consumed; len(draws) - used >= n - j + max_attempts at fact j
    for j, base in enumerate((relations * n_tuples).tolist()):
        draw = draws[used]
        used += 1
        if base + draw not in observed:
            negatives.append(draw)
            continue
        for tried in range(2, max_attempts + 1):
            draw = draws[used]
            used += 1
            if base + draw not in observed:
                break
        else:  # every draw hit an observed fact: the pair is dropped
            draw, tried = -1, max_attempts
        negatives.append(draw)
        attempts[j] = tried
        while len(draws) - used < n - j - 1 + max_attempts:  # the stream continues
            draws += rng.integers(n_tuples, size=len(draws)).tolist()
    rng.bit_generator.state = saved
    rng.integers(n_tuples, size=used)
    return np.array(negatives, dtype=np.int64), attempts


def _adam_update_block(name, theta, grad, m, v, rows, t, options):
    """ADAM on the rows `rows` of one block; `grad` row i belongs to `rows[i]`.

    In place on four row-sized buffers, yet each IEEE operation has the
    operands of `b1 * m + (1 - b1) * grad`, `b2 * v + (1 - b2) * grad * grad`
    and `theta - lr * m_hat / (sqrt(v_hat) + eps)` read left to right, so
    the results are byte-equal to that out-of-place form.
    """
    if grad.shape[0] != len(rows):
        raise ValueError(f"{name}: gradient buffer has {grad.shape[0]} rows "
                         f"for {len(rows)} touched rows")
    if not np.all(np.isfinite(grad)):
        raise NumericalError(f"non-finite gradient in {name}")
    m_rows = m[rows]
    m_rows *= ADAM_BETA1
    scaled = (1 - ADAM_BETA1) * grad
    m_rows += scaled
    v_rows = v[rows]
    v_rows *= ADAM_BETA2
    np.multiply(1 - ADAM_BETA2, grad, out=scaled)
    scaled *= grad
    v_rows += scaled
    m[rows] = m_rows
    v[rows] = v_rows
    m_rows /= 1 - ADAM_BETA1 ** t  # m_hat
    v_rows /= 1 - ADAM_BETA2 ** t  # v_hat
    np.sqrt(v_rows, out=v_rows)
    v_rows += ADAM_EPSILON
    m_rows *= options.learning_rate
    m_rows /= v_rows
    theta_rows = theta[rows]
    theta_rows -= m_rows
    theta[rows] = theta_rows


def adam_step(params: ModelParams, grads: Gradients, state: AdamState,
              options: TrainOptions):
    """Bias-corrected ADAM update on the touched parameter rows only.

    `grads` is row-compact (see `model.Gradients`): each block's buffer has
    one row per entry of its row array. Moments of untouched rows are not
    decayed (lazy/sparse semantics), so an epoch costs O(nnz) regardless of
    vocabulary sizes.
    """
    state.step += 1
    _adam_update_block("relation embeddings", params.relations, grads.relations,
                       state.m_rel, state.v_rel, grads.relation_rows, state.step, options)
    _adam_update_block("tuple pre-activations", params.tuple_pre, grads.tuple_pre,
                       state.m_tup, state.v_tup, grads.tuple_rows, state.step, options)
    return params, state


@dataclass
class TrainResult:
    params: ModelParams
    adam: AdamState
    stats: list[EpochStats]


def train(store: FactStore, rules, config: ModelConfig, options: TrainOptions,
          callbacks=None, cold_relations=()) -> TrainResult:
    """Train the selected variant on `store`; returns params, ADAM state, stats.

    Rules are only used by variant FSL (their lifted losses enter every
    batch). The `cold_relations` ids start from `model.COLD_RANGE` (see
    `model.init_params`). Deterministic given (seed, options, inputs).
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
        for start in range(0, n, options.batch_size):
            part = slice(start, start + options.batch_size)
            keep = kept[part]
            if not keep.any():
                continue
            batch = Batch(relations[part][keep], positives[part][keep], negatives[part][keep])
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
        attempts_total, n_kept = int(attempts.sum()), int(kept.sum())
        collisions = attempts_total - n_kept  # every draw but each kept pair's last
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
    return TrainResult(params=params, adam=state, stats=stats)

