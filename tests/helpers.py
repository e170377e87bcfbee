"""Shared test oracles: finite-difference gradients, brute-force AP, the
per-draw negative sampler and out-of-place ADAM.

These stay independent of the code paths they check: the gradient oracle
only evaluates batch_loss, the AP oracle ranks by pairwise comparison
instead of sorting, the sampler oracle draws one scalar per attempt, and
the ADAM oracle evaluates the textbook expressions with fresh temporaries.
"""

import numpy as np

from liftedkb import model
from liftedkb.model import Batch, ModelConfig, ModelParams
from liftedkb.trainer import (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON,
                              MAX_NEGATIVE_ATTEMPTS)


def batch_from_pairs(triples) -> Batch:
    """Batch from (relation, positive tuple, negative tuple) triples."""
    arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    return Batch(arr[:, 0], arr[:, 1], arr[:, 2])


def sample_negative(store, relation: int, rng, max_attempts: int = MAX_NEGATIVE_ATTEMPTS):
    """Uniform unobserved tuple for `relation` by rejection sampling, one
    scalar draw per attempt: the oracle for `trainer.sample_negatives`.

    Returns (tuple_id or None, attempts); None means every attempt hit an
    observed fact and the pair is dropped.
    """
    n_tuples = len(store.tuples)
    observed = set(store.tuples_of(relation).tolist())
    for attempt in range(1, max_attempts + 1):
        candidate = int(rng.integers(n_tuples))
        if candidate not in observed:
            return candidate, attempt
    return None, max_attempts


def dense_gradients(params: ModelParams, batch: Batch, rules, config: ModelConfig) -> ModelParams:
    """Exact analytic gradients of `batch_loss`, dense and shaped like `params`.

    Scatters the row-compact training buffers into full matrices; rows the
    batch does not touch are zero. Compared against finite differences.
    """
    rule_idx = model.rule_index_arrays(rules)
    grads, _, _ = model.recon_l2_gradients(params, batch, rule_idx, config)
    model.rule_gradients(params, rule_idx, config, grads)
    dense = ModelParams(np.zeros_like(params.relations), np.zeros_like(params.tuple_pre))
    dense.relations[grads.relation_rows] = grads.relations
    dense.tuple_pre[grads.tuple_rows] = grads.tuple_pre
    return dense


def adam_update_oracle(theta, grad, m, v, rows, t, options):
    """Lazy ADAM on rows `rows` of one block, out of place: the oracle that
    `trainer._adam_update_block` must match byte for byte."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m_rows = b1 * m[rows] + (1 - b1) * grad
    v_rows = b2 * v[rows] + (1 - b2) * grad * grad
    m[rows] = m_rows
    v[rows] = v_rows
    m_hat = m_rows / (1 - b1 ** t)
    v_hat = v_rows / (1 - b2 ** t)
    theta[rows] -= options.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def finite_difference_gradients(params: ModelParams, batch: Batch, rules,
                                config: ModelConfig, h: float = 1e-5):
    """Central finite differences of batch_loss w.r.t. every parameter."""
    def loss_at(relations, tuple_pre):
        p = ModelParams(relations, tuple_pre)
        return model.batch_loss(p, batch, rules, config).total

    grad_rel = np.zeros_like(params.relations)
    grad_tup = np.zeros_like(params.tuple_pre)
    for arr, grad in ((params.relations, grad_rel), (params.tuple_pre, grad_tup)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss_at(params.relations, params.tuple_pre)
            arr[idx] = orig - h
            down = loss_at(params.relations, params.tuple_pre)
            arr[idx] = orig
            grad[idx] = (up - down) / (2 * h)
    return grad_rel, grad_tup


def relative_gradient_error(analytic, numeric) -> float:
    a = np.concatenate([g.ravel() for g in analytic])
    n = np.concatenate([g.ravel() for g in numeric])
    denom = np.linalg.norm(a) + np.linalg.norm(n)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(a - n) / denom)


def random_instance(rng, variant: str, n_rel=None, n_tup=None, k=None,
                    n_pairs=None, n_rules=0, scale=1.0):
    """Small random model + batch (+ rules) for gradient checks."""
    from liftedkb.data import Rule

    n_rel = n_rel or int(rng.integers(2, 11))
    n_tup = n_tup or int(rng.integers(2, 11))
    k = k or int(rng.integers(1, 9))
    n_pairs = n_pairs or int(rng.integers(1, 9))
    config = ModelConfig(k=k, variant=variant, alpha=0.01, beta_tilde=0.1, delta=0.01)
    params = ModelParams(rng.normal(0, scale, (n_rel, k)),
                         rng.normal(0, scale, (n_tup, k)))
    triples = [(int(rng.integers(n_rel)), int(rng.integers(n_tup)),
                int(rng.integers(n_tup))) for _ in range(n_pairs)]
    batch = batch_from_pairs(triples)
    rules = []
    if n_rules and n_rel >= 2:
        while len(rules) < n_rules:
            a, c = rng.integers(n_rel, size=2)
            if a != c:
                rules.append(Rule(int(a), int(c)))
    return params, batch, rules, config


def away_from_hinge_kinks(params, rules, delta, margin=1e-6) -> bool:
    """True when no rule dimension sits within `margin` of the hinge kink."""
    for rule in rules:
        diff = params.relations[rule.antecedent] - params.relations[rule.consequent] + delta
        if np.any(np.abs(diff) < margin):
            return False
    return True


def brute_force_average_precision(scores: dict, positives: set) -> float:
    """AP by pairwise rank counting; ties resolved by ascending tuple id.

    For each positive, its rank is 1 + the number of items strictly ahead
    of it; precisions are summed in rank order to mirror float summation.
    """
    if not positives:
        return 0.0
    ranks = {}
    for tup in positives:
        ahead = sum(1 for other, s in scores.items()
                    if s > scores[tup] or (s == scores[tup] and other < tup))
        ranks[tup] = 1 + ahead
    ordered = sorted(positives, key=lambda t: ranks[t])
    precisions = []
    for i, tup in enumerate(ordered, start=1):
        precisions.append(i / ranks[tup])
    return sum(precisions) / len(positives)
