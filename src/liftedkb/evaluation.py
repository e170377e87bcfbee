"""Ranking metrics, the zero-shot protocol, and the asymmetry analysis.

Candidate pool per relation: every tuple not observed with that relation in
training (test positives therefore included). Ranking sorts by score
descending with ties broken by ascending tuple id, so identical scores
always yield identical rankings.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit as sigmoid

from . import model, trainer
from .data import FactStore, Rule
from .errors import DataError
from .model import ModelConfig, ModelParams

log = logging.getLogger(__name__)

# Init range for relations implied by rules in the zero-shot protocol: with
# no training facts, rule hinges can only push their components up, so they
# start deep in negative territory.
ZERO_SHOT_INIT = (-8.1, -7.9)


@dataclass
class RankingTask:
    relation: int
    positives: set[int]
    pool: list[int]


@dataclass
class RelationAP:
    relation: int
    n_test: int
    average_precision: float


@dataclass
class AsymmetryRow:
    rule: Rule
    mean_forward: float     # mean sigmoid(score(consequent, t)) over antecedent train tuples
    mean_backward: float    # mean sigmoid(score(antecedent, t)) over consequent train tuples
    n_forward: int
    n_backward: int

    @property
    def empty(self) -> bool:
        return self.n_forward == 0 or self.n_backward == 0


@dataclass
class ZeroShotCurve:
    points: list[tuple[float, float]]  # (retained fraction, weighted MAP)


def average_precision(ranked, positives) -> float:
    """Mean precision-at-rank over the positives of one ranked list.

    `ranked` is a list of (tuple_id, score) already sorted by descending
    score, ties by ascending id. Returns 0 for an empty positive set.
    """
    ranked_ids = {t for t, _ in ranked}
    missing = set(positives) - ranked_ids
    if missing:
        raise ValueError(f"positives not present in ranking: {sorted(missing)}")
    if not positives:
        return 0.0
    hits = 0
    precisions = []
    for rank, (tup, _) in enumerate(ranked, start=1):
        if tup in positives:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / len(positives)


def rank_pool(params: ModelParams, relation: int, pool, variant: str):
    """Score a candidate pool for one relation and sort (desc score, asc id)."""
    pool = np.asarray(pool, dtype=np.int64)
    scores = model.effective_tuples(params, variant, pool) @ params.relations[relation]
    order = np.lexsort((pool, -scores))
    return [(int(pool[i]), float(scores[i])) for i in order]


def build_tasks(train: FactStore, test: FactStore) -> list[RankingTask]:
    """One RankingTask per relation with test facts, pooled against train."""
    n_tuples = len(train.tuples)
    tasks = []
    for rid in range(len(train.relations)):
        positives = set(test.tuples_of(rid))
        if not positives:
            continue
        observed = set(train.tuples_of(rid))
        pool = [t for t in range(n_tuples) if t not in observed]
        tasks.append(RankingTask(relation=rid, positives=positives, pool=pool))
    return tasks


def weighted_map(tasks, params: ModelParams, variant: str):
    """Weighted mean average precision plus the per-relation table.

    Weighted by each relation's test-fact count; order of tasks does not
    affect the result beyond float summation of independent terms.
    """
    if not tasks:
        raise ValueError("no ranking tasks given")
    rows = []
    for task in tasks:
        if not set(task.positives) <= set(task.pool):
            raise DataError(f"relation {task.relation}: positives not contained in pool")
        ranked = rank_pool(params, task.relation, task.pool, variant)
        ap = average_precision(ranked, task.positives)
        rows.append(RelationAP(task.relation, len(task.positives), ap))
    rows.sort(key=lambda r: (-r.n_test, r.relation))
    total = sum(r.n_test for r in rows)
    wmap = sum(r.n_test * r.average_precision for r in rows) / total
    return wmap, rows


def evaluate(params: ModelParams, train: FactStore, test: FactStore, variant: str):
    return weighted_map(build_tasks(train, test), params, variant)


def asymmetry_report(params: ModelParams, rules, train: FactStore, variant: str):
    """Per-rule forward/backward mean sigmoid scores, plus grand means.

    Forward matches the consequent against the antecedent's training tuples
    (high if the implication holds); backward does the reverse (low unless
    the relations are near-equivalent). Rules whose relations lack training
    facts produce rows flagged empty and are excluded from the grand means.
    """
    rows = []
    for rule in rules:
        t_ant = train.tuples_of(rule.antecedent)
        t_cons = train.tuples_of(rule.consequent)
        fwd = bwd = float("nan")
        if t_ant:
            emb = model.effective_tuples(params, variant, np.asarray(t_ant))
            fwd = float(np.mean(sigmoid(emb @ params.relations[rule.consequent])))
        if t_cons:
            emb = model.effective_tuples(params, variant, np.asarray(t_cons))
            bwd = float(np.mean(sigmoid(emb @ params.relations[rule.antecedent])))
        rows.append(AsymmetryRow(rule, fwd, bwd, len(t_ant), len(t_cons)))
    usable = [r for r in rows if not r.empty]
    grand_forward = float(np.mean([r.mean_forward for r in usable])) if usable else float("nan")
    grand_backward = float(np.mean([r.mean_backward for r in usable])) if usable else float("nan")
    return rows, grand_forward, grand_backward


def subsample_relation_facts(store: FactStore, relations, fraction: float,
                             seed: int) -> FactStore:
    """Keep a seeded `fraction` of the facts of the given relations.

    Original fact order is preserved, so fraction 1.0 returns a store
    identical to the input (same facts, same order, same ids).
    """
    rng = np.random.default_rng(seed)
    dropped: set[tuple[int, int]] = set()
    for rid in sorted(relations):
        tuples = store.tuples_of(rid)
        n = len(tuples)
        keep = int(round(fraction * n))
        if keep >= n:
            continue
        kept_idx = set(rng.permutation(n)[:keep].tolist())
        for i, tup in enumerate(tuples):
            if i not in kept_idx:
                dropped.add((rid, tup))
    if not dropped:
        return store
    return store.subset(lambda p: p not in dropped)


def zero_shot_sweep(train: FactStore, test: FactStore, rules, implied_relations,
                    fractions, config: ModelConfig, options: trainer.TrainOptions,
                    init_range=ZERO_SHOT_INIT) -> ZeroShotCurve:
    """Weighted MAP on the implied relations vs. fraction of their train facts.

    For each fraction, the implied relations' training facts are subsampled
    (seeded), the implied relations are initialized from `init_range`, the
    model is trained, and the implied relations are evaluated on `test`.
    The ranking tasks are built once from the full `train` store so the
    curve compares the same task at every fraction.
    """
    if list(fractions) != sorted(set(fractions)):
        raise ValueError("fractions must be strictly increasing")
    implied = set(implied_relations)
    if not implied:
        raise DataError("no implied relations given")
    overrides = {rid: init_range for rid in sorted(implied)}
    tasks = [t for t in build_tasks(train, test) if t.relation in implied]
    if not tasks:
        raise DataError("implied relations have no test facts")
    points = []
    for fraction in fractions:
        reduced = subsample_relation_facts(train, implied, fraction, options.seed)
        result = trainer.train(reduced, rules, config, options,
                               init_overrides=overrides)
        wmap, _ = weighted_map(tasks, result.params, config.variant)
        points.append((float(fraction), wmap))
    return ZeroShotCurve(points)
