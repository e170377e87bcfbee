"""Ranking metrics, the zero-shot protocol, and the asymmetry analysis.

One `RankingTask` per relation with test facts; its candidate pool is the
complement of its training row (every tuple not observed with the relation
in training, test positives included). The pool is ranked by score
descending, ties broken by ascending tuple id, so rankings are reproducible.

`weighted_map` is the one ranking kernel. It scores `BLOCK` relations at a
time into one reused |T| x `BLOCK` score block from one stream of chunks of
`CHUNK` effective-tuple values, each computed once per call: a generator with
one block, so the |T| x k effective-tuple matrix never exists, and a list
reused by every block otherwise. A positive's rank is 1, plus the number of
pool scores strictly greater than its own (a sort and `searchsorted`), plus
the number of pool ties with a smaller tuple id (counted only for positives
whose score is tied).

For FS and FSL the stream holds `_ranking_sigmoid`, numpy's
`1 / (1 + exp(-x))`, in place of scipy's `expit`, which is most of the cost
of ranking where numpy vectorises `exp` (AVX-512). Without AVX-512 numpy's
`exp` is libm's: the two sigmoids agree bit for bit, and this one costs
10-16% more. They differ by at most 2u (u = 2^-53) in every value measured,
on both of CI's CPU paths; `SIGMOID_ERROR` = 64u allows 32 times that. A rank
needs only the order of the exact scores, and the approximate ones certify
it away from near ties:

- Let e_q be a tuple's `expit` values and a_q its ranking-sigmoid values,
  all in [0, 1], and r the relation. Three dot products enter a rank: the
  approximate pool score A_q = fl(a_q . r), the exact pool score
  S_q = fl(e_q . r) that exact ranking compares, and the positive's own
  score o_p = fl(e_p . r), from its own `expit` rows. Each is within
  gamma_k ||r||_1 of its exact value, gamma_k = ku / (1 - ku), because its
  k terms are products with values in [0, 1]. That holds in any summation
  order, with or without FMA, while nothing underflows or overflows.
- The exact values of a_q . r and e_q . r differ by at most
  SIGMOID_ERROR ||r||_1 = 64u ||r||_1. So
  S_q - S_p >= A_q - o_p - (4 gamma_k + 64u) ||r||_1, and
  S_q - S_p <= A_q - o_p + (4 gamma_k + 64u) ||r||_1.
- The tolerance is tol = (4k + 66) u ||r||_1. Its last 2u ||r||_1 covers
  4 gamma_k - 4ku and the rounding of ||r||_1, of tol and of o_p +- tol,
  for any k that fits in memory.

So a pool score above o_p + tol belongs to a tuple whose exact score beats
the positive's, and one below o_p - tol to a tuple it beats. When each
positive's window [o_p - tol, o_p + tol] holds exactly one pool score, its
own, no exact score ties or crosses the positive's, and the rank is 1 plus
the number of pool scores above the window: the exact rank, so the AP has
the exact path's bits. Otherwise the relation is undecided, and its block is
rescored exactly: from `expit` chunks with the same `np.matmul` calls, ranked
with ties by id, as variant F always is.

A block is scored exactly from the start when some relation's ||r||_1 lies
outside `NORM_RANGE`: it is not finite, or so small or large that underflow
or overflow voids the bound. It is also rescored when its approximate scores
hold a NaN, so the NaN `DataError` fires exactly where exact scores hold one.
`expit` stays the reference for every value trained, written or reported;
the ranking sigmoid only orders scores.

Exact scores equal the whole product `effective_tuples(params, variant) @
relations.T` bit for bit only where the BLAS sums each output element in the
same order at any row offset. OpenBLAS does not always: a chunk product
small enough for its small-matrix kernel, or a one-relation product whose
chunk is not a multiple of its matrix-vector kernel's row group, can differ
in the last bit. Such a difference moves an AP only when two pool scores lie
within that bit of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import expit as sigmoid

from . import model, trainer
from .data import FactStore, Rule
from .errors import DataError
from .model import ModelConfig, ModelParams

# Relations scored per matrix product in `weighted_map`: enough for the
# product to run at matrix-matrix speed, few enough that the one |T| x BLOCK
# score block stays about the size of the |T| x k effective-tuple matrix,
# whose chunks are listed only when there is more than one block.
BLOCK = 64
# float64 values of effective tuple embeddings per chunk of `weighted_map`
# (256 KB, which stays in cache): a chunk is max(CHUNK // k, 1) tuple rows.
CHUNK = 1 << 15
# The largest difference between `_ranking_sigmoid` and `expit` that the
# certified ranking allows, and the range of a relation's L1 norm within
# which it certifies ranks (see the module docstring).
SIGMOID_ERROR = 64 * 2.0**-53
NORM_RANGE = (2.0**-900, 2.0**900)


@dataclass
class RankingTask:
    """Rank `positives` among the tuples 0..n_tuples-1 not in `excluded`.

    `excluded` holds the relation's training tuples as a sorted int64 array;
    the candidate pool is its complement.
    """
    relation: int
    positives: set[int]
    excluded: np.ndarray
    n_tuples: int

    @property
    def pool(self) -> np.ndarray:
        """The candidate pool as tuple ids, for code that counts pool items
        (perfbench's tracer); ranking never builds it."""
        keep = np.ones(self.n_tuples, dtype=bool)
        keep[self.excluded] = False
        return np.flatnonzero(keep)


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


def _ranking_sigmoid(pre: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-pre)) as a new array: within `SIGMOID_ERROR` of `expit`,
    NaN where it is NaN. Below -709.78, `exp` overflows to inf and the value
    is 0, as `expit`'s is, so the overflow is not warned about."""
    with np.errstate(over="ignore"):
        out = np.negative(pre)
        np.exp(out, out=out)
        out += 1.0
        return np.divide(1.0, out, out=out)


def _average_precision(scores: np.ndarray, task: RankingTask, tol: float = 0.0,
                       exact_own=None) -> float | None:
    """AP of `task.positives` in its pool ranked by `scores` (one per tuple).

    With `tol` 0 the scores are exact and ties go by ascending tuple id. With
    `tol` > 0 they are the ranking sigmoid's, `exact_own(positives)` gives the
    sorted positives' exact scores, and the AP is certified as the module
    docstring derives; None means undecided: some positive's window
    [own - tol, own + tol] holds another pool score, or not its own.

    Precisions `hits / rank` are summed in rank order with Python `sum`, so
    the value is the one a walk down the full ranking would give, bit for bit.
    """
    n = len(scores)
    if task.n_tuples != n:
        raise DataError(f"relation {task.relation}: task has {task.n_tuples} tuples, "
                        f"model has {n}")
    if not task.positives:
        return 0.0
    positives = np.array(sorted(task.positives), dtype=np.int64)
    if positives[0] < 0 or positives[-1] >= n:
        raise DataError(f"relation {task.relation}: positive tuple ids outside 0..{n - 1}")
    in_pool = np.ones(n, dtype=bool)
    in_pool[task.excluded] = False
    clash = positives[~in_pool[positives]]
    if clash.size:
        shown = ", ".join(map(str, clash[:10].tolist())) + (", ..." if clash.size > 10 else "")
        raise DataError(f"relation {task.relation}: {clash.size} test tuple(s) are also "
                        f"training tuples and so not in the pool: {shown}")
    pool = np.sort(scores[in_pool])
    if tol:
        own = exact_own(positives)
        low, high = own - tol, own + tol
        upper = np.searchsorted(pool, high, side="right")
        approximate = scores[positives]
        if ((upper - np.searchsorted(pool, low, side="left") != 1).any()
                or not ((low <= approximate) & (approximate <= high)).all()):
            return None
        ranks = 1 + len(pool) - upper
    else:
        own = scores[positives]
        upper = np.searchsorted(pool, own, side="right")
        ranks = 1 + len(pool) - upper
        for i in np.flatnonzero(upper - np.searchsorted(pool, own, side="left") > 1):
            before = positives[i]
            ranks[i] += np.count_nonzero(scores[:before][in_pool[:before]] == own[i])
    ranks.sort()
    precisions = np.arange(1, len(ranks) + 1) / ranks
    return sum(precisions.tolist()) / len(positives)


def build_tasks(train: FactStore, test: FactStore) -> list[RankingTask]:
    """One RankingTask per relation with test facts, in ascending id, pooled
    against train, whose vocabularies (the same `Vocab`s or equal name lists)
    the test store must share. A test fact that is also a training fact could
    never be ranked; the first one, in test order, is reported by name.
    """
    pairs = ((train.relations, test.relations), (train.tuples, test.tuples))
    if not all(ours is theirs or ours.names == theirs.names for ours, theirs in pairs):
        raise DataError(f"test facts name {len(test.relations)} relations and {len(test.tuples)} "
                        f"tuples, training facts {len(train.relations)} and {len(train.tuples)}: "
                        f"the stores must share their vocabularies")
    n_tuples = len(train.tuples)
    keys = test.facts[:, 0] * n_tuples + test.facts[:, 1]
    at = np.searchsorted(train.keys, keys)
    inside = at < len(train.keys)
    clash = np.flatnonzero(inside)[train.keys[at[inside]] == keys[inside]]
    if clash.size:
        r, t = test.facts[clash[0]].tolist()
        raise DataError(f"test fact is also a training fact: "
                        f"{train.relations.name(r)}\t{train.tuples.name(t)}")
    return [RankingTask(rid, set(test.tuples_of(rid).tolist()),
                        np.sort(train.tuples_of(rid)), n_tuples)
            for rid in np.unique(test.facts[:, 0]).tolist()]


def _score(scores: np.ndarray, chunks, relations: np.ndarray) -> bool:
    """Fill `scores` from the effective-tuple `chunks`, in row order, times
    `relations` (k x block); False if the scores hold a NaN."""
    lo = 0
    for chunk in chunks:
        np.matmul(chunk, relations, out=scores[lo:lo + len(chunk)])
        lo += len(chunk)
    return not np.isnan(scores.max())  # max propagates NaN and allocates no mask


def _certified_aps(scores, block, tols, own) -> list[float] | None:
    """The APs of `block` from its ranking-sigmoid `scores`, column j with
    tolerance `tols[j]`, `own(relation, positives)` giving the positives'
    exact scores; None as soon as one relation is undecided."""
    aps = []
    for j, task in enumerate(block):
        ap = _average_precision(scores[:, j], task, tols[j], partial(own, task.relation))
        if ap is None:
            return None
        aps.append(ap)
    return aps


def weighted_map(tasks, params: ModelParams, variant: str):
    """Weighted mean average precision plus the per-relation table.

    Weighted by each relation's test-fact count. The rows are summed after
    they are sorted by (-n_test, relation), so the order of tasks changes
    the result only through an AP ranked exactly at a near tie, where the
    BLAS may sum a relation's scores in another order at another place in
    its block (see the module docstring). A task with no positive scores
    0.0; ValueError if no task holds one.
    """
    tasks = list(tasks)
    if not tasks:
        raise ValueError("no ranking tasks given")
    if not any(task.positives for task in tasks):
        raise ValueError("no ranking task holds a positive")
    n, k = params.tuple_pre.shape
    step = max(CHUNK // k, 1)

    def stream(effective):
        return (effective(slice(lo, lo + step)) for lo in range(0, n, step))

    def exact(rows):
        return model.effective_tuples(params, variant, rows)

    def own(relation, positives):
        return exact(positives) @ params.relations[relation]

    certify = variant != "f"
    if certify:
        chunks = stream(lambda rows: _ranking_sigmoid(params.tuple_pre[rows]))
    else:
        chunks = stream(exact)
    if len(tasks) > BLOCK:  # later blocks reuse the chunks
        chunks = list(chunks)
    buffer = np.empty(n * min(BLOCK, len(tasks)))
    rows = []
    for start in range(0, len(tasks), BLOCK):
        block = tasks[start:start + BLOCK]
        relations = params.relations[[task.relation for task in block]].T
        scores = buffer[:n * len(block)].reshape(n, len(block))
        aps = None
        if certify:
            norms = np.abs(relations).sum(axis=0)
            if ((NORM_RANGE[0] < norms) & (norms < NORM_RANGE[1])).all() \
                    and _score(scores, chunks, relations):
                tols = (4 * k + 66) * 2.0**-53 * norms  # derived in the module docstring
                aps = _certified_aps(scores, block, tols, own)
        if aps is None:
            if not _score(scores, stream(exact) if certify else chunks, relations):
                raise DataError("relation scores contain NaN: the model has non-finite parameters")
            aps = [_average_precision(scores[:, j], task) for j, task in enumerate(block)]
        rows.extend(RelationAP(task.relation, len(task.positives), ap)
                    for task, ap in zip(block, aps))
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
        if len(t_ant):
            emb = model.effective_tuples(params, variant, t_ant)
            fwd = float(np.mean(sigmoid(emb @ params.relations[rule.consequent])))
        if len(t_cons):
            emb = model.effective_tuples(params, variant, t_cons)
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
    identical to the input (same facts, same order, same ids). A fraction
    outside [0, 1], or NaN, raises ValueError.
    """
    if not 0 <= fraction <= 1:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction!r}")
    rng = np.random.default_rng(seed)
    drop = np.zeros(len(store), dtype=bool)
    for rid in sorted(relations):
        positions = store.positions_of(rid)
        n = len(positions)
        keep = int(round(fraction * n))
        if keep >= n:
            continue
        drop[positions] = True
        drop[positions[rng.permutation(n)[:keep]]] = False
    if not drop.any():
        return store
    return store.subset(~drop)


def check_fractions(fractions) -> None:
    """ValueError unless the retained fractions lie in [0, 1] (NaN does not)
    in strictly increasing order."""
    if not all(0 <= f <= 1 for f in fractions):
        raise ValueError(f"fractions must lie in [0, 1], got {fractions}")
    if list(fractions) != sorted(set(fractions)):
        raise ValueError("fractions must be strictly increasing")


def zero_shot_sweep(train: FactStore, test: FactStore, rules, implied,
                    fractions, config: ModelConfig,
                    options: trainer.TrainOptions) -> list[tuple[float, float]]:
    """(retained fraction, weighted MAP) points on the `implied` relation ids.

    For each fraction, the implied relations' training facts are subsampled
    (seeded), the model is trained with the implied relations cold (drawn
    from `model.COLD_RANGE`), and the implied relations are evaluated on
    `test`. The ranking tasks are built once from the full `train` store so
    the curve compares the same task at every fraction. The CLI passes the
    rule consequents as `implied`; an FS baseline passes them with no rules.
    `check_fractions` runs before anything is trained.
    """
    check_fractions(fractions)
    implied = set(implied)
    if not implied:
        raise DataError("no implied relations given")
    tasks = [t for t in build_tasks(train, test) if t.relation in implied]
    if not tasks:
        raise DataError("implied relations have no test facts")
    points = []
    for fraction in fractions:
        reduced = subsample_relation_facts(train, implied, fraction, options.seed)
        result = trainer.train(reduced, rules, config, options, cold_relations=implied)
        wmap, _ = weighted_map(tasks, result.params, config.variant)
        points.append((float(fraction), wmap))
    return points
