"""Parameter storage, scoring, and loss/gradient math for variants F, FS, FSL.

Variant F scores a relation against the raw tuple vector; FS and FSL map
the tuple pre-activation through a component-wise sigmoid first, so the
effective tuple embedding always lies in (0,1)^k. FSL additionally adds,
for every implication rule, a per-dimension hinge between the two relation
vectors (the lifted rule loss), weighted by beta_tilde.

All parameters and losses are double precision; the finite-difference
gradient checks in the test suite rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit as sigmoid

from .data import Rule
from .errors import ParseError

VARIANTS = ("f", "fs", "fsl")


@dataclass
class ModelConfig:
    k: int = 100
    alpha: float = 0.01
    beta_tilde: float = 0.1
    delta: float = 0.01
    variant: str = "fs"
    init_low: float = -0.1
    init_high: float = 0.1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.alpha < 0 or self.beta_tilde < 0 or self.delta < 0:
            raise ValueError("alpha, beta_tilde, delta must be non-negative")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not self.init_low < self.init_high:
            raise ValueError("init_low must be < init_high")

    @property
    def sigmoid_tuples(self) -> bool:
        return self.variant in ("fs", "fsl")


@dataclass
class ModelParams:
    """Dense relation matrix and tuple pre-activation matrix, k columns each."""
    relations: np.ndarray   # (n_relations, k)
    tuple_pre: np.ndarray   # (n_tuples, k)

    def copy(self) -> "ModelParams":
        return ModelParams(self.relations.copy(), self.tuple_pre.copy())


@dataclass
class LossBreakdown:
    reconstruction: float
    l2: float
    implication: float
    total: float

    @classmethod
    def build(cls, reconstruction, l2, implication, alpha, beta_tilde):
        total = reconstruction + alpha * l2 + beta_tilde * implication
        return cls(reconstruction, l2, implication, total)


def effective_tuples(params: ModelParams, variant: str, rows=None) -> np.ndarray:
    """Effective tuple embeddings: raw pre-activations (F) or their sigmoid (FS/FSL)."""
    pre = params.tuple_pre if rows is None else params.tuple_pre[rows]
    if variant == "f":
        return pre
    return sigmoid(pre)


def recon_pair_loss(s):
    """Ranking loss for one (negative, positive) pair: softplus(s), s = r.(t_neg - t_pos).

    Softplus is the numerically stable form of -log(sigmoid(-s)); the naive
    formula overflows for large |s|.
    """
    return np.logaddexp(0.0, s)


def implication_pair_loss(s, delta):
    """Margin hinge max(0, s + delta); exactly 0 once s <= -delta."""
    return np.maximum(0.0, s + delta)


def lifted_rule_loss(params: ModelParams, rule: Rule, delta: float) -> float:
    """Tuple-independent rule loss: hinge summed over dimensions.

    sum_i max(0, r_ant[i] - r_cons[i] + delta). Zero exactly when the
    antecedent vector sits at least delta below the consequent everywhere,
    which makes the implication hold for every non-negative tuple.
    """
    diff = params.relations[rule.antecedent] - params.relations[rule.consequent]
    return float(np.maximum(0.0, diff + delta).sum())


def grounded_rule_loss(params: ModelParams, rule: Rule, tuples, delta: float,
                       variant: str) -> float:
    """Rule loss grounded over explicit tuples (verification oracle only).

    Sums the hinge on the L1-normalized effective embedding of each tuple.
    By convexity this is bounded above by len(tuples) * lifted_rule_loss.
    Never used in training.
    """
    diff = params.relations[rule.antecedent] - params.relations[rule.consequent]
    total = 0.0
    for tup in tuples:
        emb = effective_tuples(params, variant, tup)
        if variant == "f" and np.any(emb < 0):
            raise ValueError(f"tuple {tup} has negative components; the Jensen "
                             "bound requires a non-negative embedding space")
        norm = emb.sum()
        if norm <= 0:
            raise ValueError(f"tuple {tup} has zero L1 norm")
        total += float(implication_pair_loss(diff @ (emb / norm), delta))
    return total


@dataclass
class Batch:
    """A minibatch of BPR pairs: (relation, positive tuple, negative tuple)."""
    relations: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray

    def __len__(self) -> int:
        return len(self.relations)

    @classmethod
    def from_pairs(cls, triples) -> "Batch":
        arr = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        return cls(arr[:, 0], arr[:, 1], arr[:, 2])


@dataclass
class Gradients:
    """Row-compact gradient buffers for the rows one batch touches.

    `relations` has shape (len(relation_rows), k) and `tuple_pre` shape
    (len(tuple_rows), k); row i is the gradient of parameter row
    `relation_rows[i]` / `tuple_rows[i]`. The row arrays are sorted and
    unique, so a buffer position is `np.searchsorted(rows, id)`. Buffer size
    depends on the batch, never on the vocabulary sizes.
    """
    relations: np.ndarray
    tuple_pre: np.ndarray
    relation_rows: np.ndarray
    tuple_rows: np.ndarray


def touched_rows(batch: Batch, rule_idx) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique relation and tuple rows of a batch plus its rule relations.

    `rule_idx` is the (antecedents, consequents) pair of `rule_index_arrays`.
    """
    rel = np.concatenate([batch.relations, *rule_idx])
    tup = np.concatenate([batch.positives, batch.negatives])
    return np.unique(rel), np.unique(tup)


def batch_loss(params: ModelParams, batch: Batch, rules, config: ModelConfig) -> LossBreakdown:
    """Total loss for one batch: BPR reconstruction + L2 + lifted rule losses.

    The L2 term covers the parameter rows touched by this batch (including
    rule relations), each counted once; this is the sparse-training reading
    of the global regularizer and is exactly what `gradients` differentiates.
    """
    t_pos = effective_tuples(params, config.variant, batch.positives)
    t_neg = effective_tuples(params, config.variant, batch.negatives)
    r = params.relations[batch.relations]
    s = np.einsum("ij,ij->i", r, t_neg - t_pos)
    recon = float(recon_pair_loss(s).sum())

    rel_rows, tup_rows = touched_rows(batch, rule_index_arrays(rules))
    l2 = float(np.sum(params.relations[rel_rows] ** 2)
               + np.sum(params.tuple_pre[tup_rows] ** 2))

    implication = 0.0
    if rules:
        for rule in rules:
            implication += lifted_rule_loss(params, rule, config.delta)
    return LossBreakdown.build(recon, l2, implication, config.alpha, config.beta_tilde)


def recon_l2_gradients(params: ModelParams, batch: Batch, rule_idx,
                       config: ModelConfig) -> tuple[Gradients, float, float]:
    """Gradients of the reconstruction + L2 terms; returns (grads, recon, l2).

    The buffers are row-compact over `touched_rows(batch, rule_idx)`, so
    the rule relations already have rows for `rule_gradients` to add into.
    Each row accumulates the same values in the same order as a dense
    buffer indexed by parameter id would.
    """
    rel_rows, tup_rows = touched_rows(batch, rule_idx)
    t_pos = effective_tuples(params, config.variant, batch.positives)
    t_neg = effective_tuples(params, config.variant, batch.negatives)
    r = params.relations[batch.relations]
    s = np.einsum("ij,ij->i", r, t_neg - t_pos)
    recon = float(recon_pair_loss(s).sum())
    w = sigmoid(s)[:, None]  # d softplus(s) / ds

    k = params.relations.shape[1]
    grad_rel = np.zeros((len(rel_rows), k))
    grad_tup = np.zeros((len(tup_rows), k))
    neg_at = np.searchsorted(tup_rows, batch.negatives)
    pos_at = np.searchsorted(tup_rows, batch.positives)
    np.add.at(grad_rel, np.searchsorted(rel_rows, batch.relations), w * (t_neg - t_pos))
    if config.sigmoid_tuples:
        np.add.at(grad_tup, neg_at, w * r * t_neg * (1.0 - t_neg))
        np.add.at(grad_tup, pos_at, -w * r * t_pos * (1.0 - t_pos))
    else:
        np.add.at(grad_tup, neg_at, w * r)
        np.add.at(grad_tup, pos_at, -w * r)

    rel_params = params.relations[rel_rows]
    tup_params = params.tuple_pre[tup_rows]
    grad_rel += 2.0 * config.alpha * rel_params
    grad_tup += 2.0 * config.alpha * tup_params
    l2 = float(np.sum(rel_params ** 2) + np.sum(tup_params ** 2))
    return Gradients(grad_rel, grad_tup, rel_rows, tup_rows), recon, l2


def rule_gradients(params: ModelParams, rule_idx, config: ModelConfig,
                   grads: Gradients) -> float:
    """Add beta_tilde-weighted lifted-rule gradients in place; returns the raw loss.

    The hinge subgradient at the kink is 0 (constraint already satisfied).
    `rule_idx` is a pair of index arrays (antecedents, consequents); every
    rule relation must be in `grads.relation_rows`, as `touched_rows`
    guarantees.
    """
    ant, cons = rule_idx
    if len(ant) == 0:
        return 0.0
    diff = params.relations[ant] - params.relations[cons] + config.delta
    active = diff > 0.0
    loss = float(np.where(active, diff, 0.0).sum())
    contrib = config.beta_tilde * active.astype(np.float64)
    np.add.at(grads.relations, np.searchsorted(grads.relation_rows, ant), contrib)
    np.add.at(grads.relations, np.searchsorted(grads.relation_rows, cons), -contrib)
    return loss


def rule_index_arrays(rules) -> tuple[np.ndarray, np.ndarray]:
    ant = np.array([r.antecedent for r in rules], dtype=np.int64)
    cons = np.array([r.consequent for r in rules], dtype=np.int64)
    return ant, cons


def gradients(params: ModelParams, batch: Batch, rules, config: ModelConfig) -> ModelParams:
    """Exact analytic gradients of `batch_loss`, dense and shaped like `params`.

    Scatters the compact training buffers into full matrices; rows the batch
    does not touch are zero. Only the finite-difference checks use this.
    """
    rule_idx = rule_index_arrays(rules)
    grads, _, _ = recon_l2_gradients(params, batch, rule_idx, config)
    rule_gradients(params, rule_idx, config, grads)
    dense = ModelParams(np.zeros_like(params.relations), np.zeros_like(params.tuple_pre))
    dense.relations[grads.relation_rows] = grads.relations
    dense.tuple_pre[grads.tuple_rows] = grads.tuple_pre
    return dense


def init_params(config: ModelConfig, n_relations: int, n_tuples: int, seed: int,
                overrides=None) -> ModelParams:
    """Uniform initialization with optional per-relation range overrides.

    `overrides` maps relation id -> (low, high); used by the zero-shot
    protocol to start implied relations deep in negative territory.
    Deterministic for a fixed seed, including overrides.
    """
    rng = np.random.default_rng(seed)
    relations = rng.uniform(config.init_low, config.init_high, size=(n_relations, config.k))
    tuple_pre = rng.uniform(config.init_low, config.init_high, size=(n_tuples, config.k))
    if overrides:
        for rid in sorted(overrides):
            low, high = overrides[rid]
            if not low < high:
                raise ValueError(f"invalid override range ({low}, {high}) for relation {rid}")
            relations[rid] = rng.uniform(low, high, size=config.k)
    return ModelParams(relations, tuple_pre)


def save_embeddings(path, params: ModelParams, relation_names, tuple_names) -> None:
    """Text persistence: `k <dim>` header, `R <name> <reals>` / `E <name> <reals>` lines.

    Tuple lines store pre-activations. 17 significant digits make the
    round trip bit-exact for float64. Names must not contain whitespace.
    """
    k = params.relations.shape[1]
    row_format = " ".join(["%.17g"] * k)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"k {k}\n")
        for tag, names, matrix in (("R", relation_names, params.relations),
                                   ("E", tuple_names, params.tuple_pre)):
            for name, row in zip(names, matrix):
                fh.write(f"{tag} {name} {row_format % tuple(row.tolist())}\n")


def load_embeddings(path):
    """Inverse of save_embeddings; returns (params, relation_names, tuple_names).

    A bad header, a malformed or non-numeric row, or a name repeated within
    the R or E rows raises ParseError with the line number.
    """
    rows = {"R": [], "E": []}
    names = {"R": {}, "E": {}}  # name -> line number, in file order
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if (len(header) != 2 or header[0] != "k" or not header[1].isdecimal()
                or int(header[1]) < 1):
            raise ParseError(f"{path}:1: expected `k <dim>` header with dim >= 1")
        k = int(header[1])
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != k + 2 or parts[0] not in rows:
                raise ParseError(f"{path}:{lineno}: malformed embedding line")
            tag, name = parts[0], parts[1]
            if name in names[tag]:
                raise ParseError(f"{path}:{lineno}: duplicate {tag} name {name!r} "
                                 f"(first on line {names[tag][name]})")
            names[tag][name] = lineno
            try:
                rows[tag].append(np.array([float(v) for v in parts[2:]]))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric value") from None
    if not rows["R"] or not rows["E"]:
        raise ParseError(f"{path}: checkpoint has no relations or no tuples")
    params = ModelParams(np.vstack(rows["R"]), np.vstack(rows["E"]))
    return params, list(names["R"]), list(names["E"])
