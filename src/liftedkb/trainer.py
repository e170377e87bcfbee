"""BPR negative sampling, lazy ADAM, and the epoch loop.

One epoch is one shuffled pass over the positive facts, each paired with a
freshly sampled unobserved tuple for the same relation. When training the
FSL variant, the lifted losses of *all* rules are added to every batch.
Single-threaded and bitwise deterministic for a fixed seed.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import model
from .data import FactStore
from .errors import DataError, NumericalError
from .model import Batch, Gradients, LossBreakdown, ModelConfig, ModelParams

log = logging.getLogger(__name__)

MAX_NEGATIVE_ATTEMPTS = 100


@dataclass
class TrainOptions:
    epochs: int
    learning_rate: float = 0.005
    batch_size: int = 8192
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("adam betas must lie in [0, 1)")
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


def sample_negative(store: FactStore, relation: int, rng,
                    max_attempts: int = MAX_NEGATIVE_ATTEMPTS):
    """Uniform unobserved tuple for `relation` by rejection sampling.

    Returns (tuple_id or None, attempts). None signals the pair should be
    dropped from the batch (relation observed with nearly every tuple).
    """
    n_tuples = len(store.tuples)
    base = relation * n_tuples
    for attempt in range(1, max_attempts + 1):
        candidate = int(rng.integers(n_tuples))
        if base + candidate not in store.keys:
            return candidate, attempt
    return None, max_attempts


def _adam_update_block(name, theta, grad, m, v, rows, t, options):
    """ADAM on the rows `rows` of one block; `grad` row i belongs to `rows[i]`."""
    if grad.shape[0] != len(rows):
        raise ValueError(f"{name}: gradient buffer has {grad.shape[0]} rows "
                         f"for {len(rows)} touched rows")
    if not np.all(np.isfinite(grad)):
        raise NumericalError(f"non-finite gradient in {name}")
    b1, b2 = options.adam_beta1, options.adam_beta2
    m_rows = b1 * m[rows] + (1 - b1) * grad
    v_rows = b2 * v[rows] + (1 - b2) * grad * grad
    m[rows] = m_rows
    v[rows] = v_rows
    m_hat = m_rows / (1 - b1 ** t)
    v_hat = v_rows / (1 - b2 ** t)
    theta[rows] -= options.learning_rate * m_hat / (np.sqrt(v_hat) + options.adam_epsilon)


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
          callbacks=None, init_overrides=None) -> TrainResult:
    """Train the selected variant on `store`; returns params, ADAM state, stats.

    Rules are only used by variant FSL (their lifted losses enter every
    batch). Deterministic given (seed, options, inputs).
    """
    if len(store) == 0:
        raise DataError("fact store is empty")
    if config.variant == "fsl" and not rules:
        log.warning("variant fsl with no rules: training reduces to fs")
    active_rules = list(rules) if (rules and config.variant == "fsl") else []
    rule_idx = model.rule_index_arrays(active_rules)

    params = model.init_params(config, len(store.relations), len(store.tuples),
                               options.seed, overrides=init_overrides)
    state = AdamState.zeros(len(store.relations), len(store.tuples), config.k)
    rng = np.random.default_rng([options.seed, 1])
    facts = store.facts
    n = len(facts)
    stats: list[EpochStats] = []

    for epoch in range(options.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        sums = np.zeros(4)  # recon, l2, implication, total
        n_batches = 0
        attempts_total = 0
        collisions = 0
        dropped = 0
        rule_seconds = 0.0
        for start in range(0, n, options.batch_size):
            chunk = facts[order[start:start + options.batch_size]].tolist()
            triples = []
            for rel, pos in chunk:
                neg, attempts = sample_negative(store, rel, rng)
                attempts_total += attempts
                if neg is None:
                    collisions += attempts
                    dropped += 1
                    continue
                collisions += attempts - 1
                triples.append((rel, pos, neg))
            if not triples:
                continue
            batch = Batch.from_pairs(triples)
            grads, recon, l2 = model.recon_l2_gradients(params, batch, rule_idx, config)
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
            adam_step(params, grads, state, options)
        denom = max(n_batches, 1)
        mean_loss = LossBreakdown(sums[0] / denom, sums[1] / denom,
                                  sums[2] / denom, sums[3] / denom)
        epoch_stats = EpochStats(
            epoch=epoch,
            loss=mean_loss,
            seconds=time.perf_counter() - t0,
            collision_rate=collisions / max(attempts_total, 1),
            rule_seconds=rule_seconds,
            dropped_pairs=dropped,
        )
        stats.append(epoch_stats)
        if callbacks:
            for cb in callbacks:
                cb(epoch_stats)
    return TrainResult(params=params, adam=state, stats=stats)

