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

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import expit as sigmoid

from .data import name_problem, names_fit, read_lines
from .errors import ParseError

VARIANTS = ("f", "fs", "fsl")

# Uniform range every parameter is drawn from, and the range `init_params`
# redraws cold relations from: the zero-shot protocol starts the rule
# consequents deep in negative territory, where only the rule hinges (no
# training facts) can push their components up.
INIT_RANGE = (-0.1, 0.1)
COLD_RANGE = (-8.1, -7.9)


@dataclass
class ModelConfig:
    k: int = 100
    alpha: float = 0.01
    beta_tilde: float = 0.1
    delta: float = 0.01
    variant: str = "fs"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        # chained comparisons are False for NaN, so a NaN setting is rejected too
        if not all(0 <= x < math.inf for x in (self.alpha, self.beta_tilde, self.delta)):
            raise ValueError("alpha, beta_tilde, delta must be finite and non-negative")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    @property
    def sigmoid_tuples(self) -> bool:
        return self.variant in ("fs", "fsl")


@dataclass
class ModelParams:
    """Dense relation matrix and tuple pre-activation matrix, k columns each."""
    relations: np.ndarray   # (n_relations, k)
    tuple_pre: np.ndarray   # (n_tuples, k)


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


@dataclass
class Batch:
    """A minibatch of BPR pairs: (relation, positive tuple, negative tuple)."""
    relations: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray

    def __len__(self) -> int:
        return len(self.relations)


@dataclass
class Gradients:
    """Row-compact gradient buffers for the rows one batch touches.

    `relations` has shape (len(relation_rows), k) and `tuple_pre` shape
    (len(tuple_rows), k); row i is the gradient of parameter row
    `relation_rows[i]` / `tuple_rows[i]`, and the row arrays are sorted and
    unique. `rule_rows` holds the buffer positions of the rule relations,
    antecedents then consequents. Buffer size depends on the batch, never on
    the vocabulary sizes.
    """
    relations: np.ndarray
    tuple_pre: np.ndarray
    relation_rows: np.ndarray
    tuple_rows: np.ndarray
    rule_rows: np.ndarray


def scatter_rows(at, values, n_rows: int) -> np.ndarray:
    """(n_rows, k) sums: row i adds the rows `values[j]` with `at[j] == i`.

    Each row is summed from 0.0 in occurrence order, exactly as `np.add.at`
    into zeros sums it: the product of a 0/1 CSR matrix with one entry per
    value, kept in column (occurrence) order within each row, and `values`.
    Each value needs a column of its own, numbered in occurrence order,
    because scipy's COO-to-CSR conversion sorts each row's column indices
    (columns [2, 0, 1] come back as [0, 1, 2], the data reordered with them).
    """
    m = len(at)
    onehot = csr_matrix((np.ones(m), (at, np.arange(m))), shape=(n_rows, m))
    return onehot @ values


def _tuple_contributions(w, r, t, config: ModelConfig) -> np.ndarray:
    """Turns `t`, the (2m, k) effective tuples of the m negatives then the m
    positives, into their per-pair gradients in place and returns it:
    `((w * r) * t) * (1 - t)` (FS, FSL) or `w * r` (F), with `-w` for
    positives. The operand order is that of the per-occurrence form, so the
    bits are too; one m x k scratch buffer holds `w * r`."""
    m = len(r)
    scratch = np.empty_like(r) if config.sigmoid_tuples else None
    for part, weight in ((t[:m], w), (t[m:], -w)):
        if scratch is None:
            np.multiply(weight, r, out=part)
        else:
            np.multiply(weight, r, out=scratch)
            scratch *= part
            np.subtract(1.0, part, out=part)
            part *= scratch
    return t


def recon_l2_gradients(params: ModelParams, batch: Batch, rule_idx,
                       config: ModelConfig) -> tuple[Gradients, float, float]:
    """Gradients of the reconstruction + L2 terms; returns (grads, recon, l2).

    The buffers are row-compact over the unique relations of the batch and
    its rules (`rule_idx`, whose rows `rule_gradients` adds into) and the
    unique tuples of the batch. The tuple sigmoid runs once per unique row;
    one (2m, k) gather of it, negatives then positives, becomes the tuple
    gradients in place. Each row accumulates the same values in the same
    order as a dense buffer indexed by parameter id would.
    """
    m = len(batch)
    rel_rows, rel_at = np.unique(np.concatenate([batch.relations, *rule_idx]),
                                 return_inverse=True)
    tup_rows, tup_at = np.unique(np.concatenate([batch.negatives, batch.positives]),
                                 return_inverse=True)
    t = effective_tuples(params, config.variant, tup_rows)[tup_at]
    r = params.relations[batch.relations]
    diff = t[:m] - t[m:]
    s = np.einsum("ij,ij->i", r, diff)
    recon = float(recon_pair_loss(s).sum())
    w = sigmoid(s)[:, None]  # d softplus(s) / ds

    diff *= w
    grad_rel = scatter_rows(rel_at[:m], diff, len(rel_rows))
    del diff  # freed before `_tuple_contributions` allocates its scratch
    grad_tup = scatter_rows(tup_at, _tuple_contributions(w, r, t, config), len(tup_rows))
    del t, r  # freed before the L2 terms gather their rows

    rel_params = params.relations[rel_rows]
    tup_params = params.tuple_pre[tup_rows]
    grad_rel += 2.0 * config.alpha * rel_params
    grad_tup += 2.0 * config.alpha * tup_params
    l2 = float(np.sum(rel_params ** 2) + np.sum(tup_params ** 2))
    return Gradients(grad_rel, grad_tup, rel_rows, tup_rows, rel_at[m:]), recon, l2


def rule_gradients(params: ModelParams, rule_idx, config: ModelConfig,
                   grads: Gradients) -> float:
    """Add beta_tilde-weighted lifted-rule gradients in place; returns the raw loss.

    The hinge subgradient at the kink is 0 (constraint already satisfied).
    `rule_idx` is a pair of index arrays (antecedents, consequents), and
    `grads.rule_rows` their buffer rows. One `np.add.at` adds into the filled
    rows one value at a time, every antecedent term in rule order, then every
    consequent term; summing the rule terms apart first (`scatter_rows`)
    would round differently.
    """
    ant, cons = rule_idx
    diff = params.relations[ant] - params.relations[cons] + config.delta
    active = diff > 0.0
    loss = float(np.where(active, diff, 0.0).sum())
    contrib = config.beta_tilde * active.astype(np.float64)
    np.add.at(grads.relations, grads.rule_rows, np.concatenate([contrib, -contrib]))
    return loss


def rule_index_arrays(rules) -> tuple[np.ndarray, np.ndarray]:
    ant = np.array([r.antecedent for r in rules], dtype=np.int64)
    cons = np.array([r.consequent for r in rules], dtype=np.int64)
    return ant, cons


def init_params(config: ModelConfig, n_relations: int, n_tuples: int, seed: int,
                cold_relations=()) -> ModelParams:
    """Uniform draws from `INIT_RANGE`, relations first, then tuples; the
    `cold_relations` ids are then redrawn once each, in ascending id order,
    from `COLD_RANGE`. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    relations = rng.uniform(*INIT_RANGE, size=(n_relations, config.k))
    tuple_pre = rng.uniform(*INIT_RANGE, size=(n_tuples, config.k))
    for rid in sorted(set(cold_relations)):
        relations[rid] = rng.uniform(*COLD_RANGE, size=config.k)
    return ModelParams(relations, tuple_pre)


def save_embeddings(path, params: ModelParams, relation_names, tuple_names, variant) -> None:
    """Text persistence: `k <dim> variant <v>` header, `R|E <name> <reals>` lines.

    The header names the variant, which decides how tuples are scored (raw
    for F, sigmoid for FS/FSL). Tuple lines store pre-activations; 17
    significant digits make the round trip bit-exact for float64. What
    `load_embeddings` would reject raises ValueError before the file is
    opened: a variant outside `VARIANTS`, matrices with no columns, no rows
    or of different widths, a name count that differs from its matrix's row
    count, or names that break the name rule of `data`.
    """
    k = params.relations.shape[1]
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if params.tuple_pre.shape[1] != k:
        raise ValueError(f"relations have {k} columns, tuple pre-activations "
                         f"{params.tuple_pre.shape[1]}")
    rows = (("R", "relation", list(relation_names), params.relations),
            ("E", "tuple", list(tuple_names), params.tuple_pre))
    for _, kind, names, matrix in rows:
        if len(names) != len(matrix):
            raise ValueError(f"{len(names)} {kind} names for {len(matrix)} rows")
        if not names:
            raise ValueError(f"no {kind} rows: a checkpoint needs relations and tuples")
        if not names_fit(names, kind):
            seen = set()
            for name in names:
                problem = name_problem(name, kind, seen)
                if problem:
                    raise ValueError(problem)
                seen.add(name)
    row_format = " ".join(["%.17g"] * k)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"k {k} variant {variant}\n")
        for tag, _, names, matrix in rows:
            for name, row in zip(names, matrix):
                fh.write(f"{tag} {name} {row_format % tuple(row.tolist())}\n")


def _raise_bad_line(path, k: int, fallback: str):
    """Raise a ParseError naming the first checkpoint row that fails a check,
    walking the rows after the header one line at a time; with no row to
    blame, `fallback` is the error. Never returns."""
    seen = {"R": set(), "E": set()}  # the names of each tag's rows before this one
    lines = read_lines(path)
    next(lines)  # the header, checked already
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != k + 2 or parts[0] not in seen:
            raise ParseError(f"{path}:{lineno}: malformed embedding line")
        tag, name = parts[0], parts[1]
        problem = name_problem(name, "relation" if tag == "R" else "tuple", seen[tag])
        if problem:
            raise ParseError(f"{path}:{lineno}: {problem}")
        seen[tag].add(name)
        try:
            for value in parts[2:]:
                # numpy's parser rejects `1_0` and non-ASCII digits; float() does not
                if not value.isascii() or "_" in value:
                    raise ValueError(value)
                float(value)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric value") from None
    raise ParseError(f"{path}: {fallback}")


def load_embeddings(path):
    """Inverse of save_embeddings; returns (params, relation_names, tuple_names, variant).

    Any header but `k <dim> variant <f|fs|fsl>` on line 1, dim in ASCII
    digits (the older `k <dim>` too: no variant is assumed), a malformed or
    non-numeric row, or a name the name rule of `data` rejects raises
    ParseError naming the first bad line, whatever its fault. Values are
    ASCII decimals (`nan`, `inf` and out-of-range exponents included): `1_0`
    and non-ASCII digits, which Python's `float()` reads, are non-numeric.

    After the header, one `np.loadtxt` call parses every row into tag, name
    and k-value columns: numpy's tokenizer checks the field count, parses
    the values and skips blank lines, CRLF line ends and runs of tabs or
    spaces. The tag check and the name rule's bulk test run on the columns;
    the lines are walked one at a time only to name a bad one.
    """
    lines = read_lines(path)
    lineno, header = next(lines, (1, ""))
    header = header.split()
    if (lineno != 1 or len(header) != 4 or header[0] != "k"
            or not (header[1].isascii() and header[1].isdecimal())
            or int(header[1]) < 1 or header[2] != "variant" or header[3] not in VARIANTS):
        raise ParseError(f"{path}:1: expected header `k <dim> variant <{'|'.join(VARIANTS)}>`"
                         " with dim >= 1; to a `k <dim>` header append ` variant <v>`,"
                         " v the variant the model was trained with")
    k, variant = int(header[1]), header[3]
    no_rows = "checkpoint has no relations or no tuples"
    if next(lines, None) is None:  # so loadtxt never reads a body of blank lines
        raise ParseError(f"{path}: {no_rows}")
    dtype = [("tag", object), ("name", object), ("values", np.float64, (k,))]
    try:  # each check raises ValueError, and the walk names the bad line
        # loadtxt would allocate rows of k values even where none fits in the file
        if 2 * k > os.path.getsize(path):
            raise ValueError(no_rows)
        rows = np.loadtxt(path, dtype=dtype, comments=None, skiprows=1, ndmin=1,
                          encoding="utf-8")
        tags, names = rows["tag"], rows["name"]
        is_relation = tags == "R"
        relation_names, tuple_names = names[is_relation].tolist(), names[~is_relation].tolist()
        if (not (is_relation | (tags == "E")).all()
                or not names_fit(relation_names, "relation")
                or not names_fit(tuple_names, "tuple")):
            raise ValueError("a row has a bad tag or a reserved or repeated name")
        if not relation_names or not tuple_names:
            raise ValueError(no_rows)
    except ValueError as exc:
        _raise_bad_line(path, k, str(exc))
    values = rows["values"]
    params = ModelParams(values[is_relation], values[~is_relation])
    return params, relation_names, tuple_names, variant
