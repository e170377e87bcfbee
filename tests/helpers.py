"""Shared test oracles and fixtures: the batch loss and its per-occurrence
gradients, finite-difference gradients, the rule loss lifted to one hinge
per dimension and grounded over explicit tuples, brute-force AP, the
per-draw negative sampler, out-of-place ADAM, the per-line fact-file and
checkpoint readers, and a pattern corpus for rule mining.

These stay independent of the code paths they check: `batch_loss` and
`recon_l2_gradients_oracle` take the sigmoid once per pair occurrence, the
latter summing rows with `np.add.at`; `rule_gradients_oracle` finds its rows
with `np.searchsorted`; the finite-difference oracle only evaluates
`batch_loss`, `grounded_rule_loss` sums the hinge tuple by tuple,
the AP oracle ranks by pairwise comparison instead of sorting, the sampler
oracle draws one scalar per attempt, the ADAM oracle evaluates the textbook
expressions with fresh temporaries, and the fact-file and checkpoint
oracles parse, check and number one line at a time.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from liftedkb import model
from liftedkb.data import RESERVED_RELATIONS, FactStore, Rule, Vocab
from liftedkb.errors import DataError, ParseError
from liftedkb.model import (Batch, Gradients, LossBreakdown, ModelConfig, ModelParams,
                            effective_tuples, recon_pair_loss)
from liftedkb.synthetic import clustered_corpus
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


def touched_rows(batch: Batch, rule_idx) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique relation and tuple rows of a batch plus its rule relations.

    `rule_idx` is the (antecedents, consequents) pair of `rule_index_arrays`.
    """
    rel = np.concatenate([batch.relations, *rule_idx])
    tup = np.concatenate([batch.positives, batch.negatives])
    return np.unique(rel), np.unique(tup)


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


def batch_loss(params: ModelParams, batch: Batch, rules, config: ModelConfig) -> LossBreakdown:
    """Total loss for one batch: BPR reconstruction + L2 + lifted rule losses.

    The L2 term covers the parameter rows touched by this batch (including
    rule relations), each counted once; this is the sparse-training reading
    of the global regularizer and is exactly what `recon_l2_gradients` plus
    `rule_gradients` differentiate.
    """
    t_pos = effective_tuples(params, config.variant, batch.positives)
    t_neg = effective_tuples(params, config.variant, batch.negatives)
    r = params.relations[batch.relations]
    s = np.einsum("ij,ij->i", r, t_neg - t_pos)
    recon = float(recon_pair_loss(s).sum())

    rel_rows, tup_rows = touched_rows(batch, model.rule_index_arrays(rules))
    l2 = float(np.sum(params.relations[rel_rows] ** 2)
               + np.sum(params.tuple_pre[tup_rows] ** 2))

    implication = 0.0
    for rule in rules:
        implication += lifted_rule_loss(params, rule, config.delta)
    return LossBreakdown.build(recon, l2, implication, config.alpha, config.beta_tilde)


def recon_l2_gradients_oracle(params: ModelParams, batch: Batch, rule_idx,
                              config: ModelConfig) -> tuple[Gradients, float, float]:
    """`model.recon_l2_gradients` per pair occurrence: the sigmoid on the
    positives and the negatives apart, each term built with fresh
    temporaries in the operand order `((w * r) * t) * (1 - t)`, and every
    row summed from 0.0 by `np.add.at`, negatives' terms before positives'.
    The training path must match it byte for byte."""
    rel_rows, tup_rows = touched_rows(batch, rule_idx)
    t_pos = effective_tuples(params, config.variant, batch.positives)
    t_neg = effective_tuples(params, config.variant, batch.negatives)
    r = params.relations[batch.relations]
    s = np.einsum("ij,ij->i", r, t_neg - t_pos)
    recon = float(recon_pair_loss(s).sum())
    w = expit(s)[:, None]

    grad_rel = np.zeros((len(rel_rows), r.shape[1]))
    np.add.at(grad_rel, np.searchsorted(rel_rows, batch.relations), w * (t_neg - t_pos))
    grad_tup = np.zeros((len(tup_rows), r.shape[1]))
    for rows, weight, t in ((batch.negatives, w, t_neg), (batch.positives, -w, t_pos)):
        term = weight * r
        if config.sigmoid_tuples:
            term = term * t * (1.0 - t)
        np.add.at(grad_tup, np.searchsorted(tup_rows, rows), term)

    rel_params = params.relations[rel_rows]
    tup_params = params.tuple_pre[tup_rows]
    grad_rel += 2.0 * config.alpha * rel_params
    grad_tup += 2.0 * config.alpha * tup_params
    l2 = float(np.sum(rel_params ** 2) + np.sum(tup_params ** 2))
    rule_rows = np.searchsorted(rel_rows, np.concatenate(rule_idx))
    return Gradients(grad_rel, grad_tup, rel_rows, tup_rows, rule_rows), recon, l2


def rule_gradients_oracle(params: ModelParams, rule_idx, config: ModelConfig,
                          grads: Gradients) -> float:
    """`model.rule_gradients` with each rule relation's buffer row found by
    `np.searchsorted` in `grads.relation_rows`, and one `np.add.at` for the
    antecedents' terms, then one for the consequents'. The training path must
    match it byte for byte."""
    ant, cons = rule_idx
    diff = params.relations[ant] - params.relations[cons] + config.delta
    active = diff > 0.0
    contrib = config.beta_tilde * active.astype(np.float64)
    np.add.at(grads.relations, np.searchsorted(grads.relation_rows, ant), contrib)
    np.add.at(grads.relations, np.searchsorted(grads.relation_rows, cons), -contrib)
    return float(np.where(active, diff, 0.0).sum())


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
        return batch_loss(p, batch, rules, config).total

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


def grounded_rule_loss(params: ModelParams, rule: Rule, tuples, delta: float,
                       variant: str) -> float:
    """Rule loss grounded over explicit tuples.

    Sums the hinge on the L1-normalized effective embedding of each tuple.
    By convexity this is bounded above by len(tuples) * lifted_rule_loss.
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


def read_fact_lines(path):
    """A fact file one line at a time: (line number, relation, tuple) for each
    well-formed non-blank line, and (line number, message, breaks the format)
    for each line that breaks the format or the name rule, in file order."""
    lines, faults = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2 or not fields[0] or not fields[1]:
                faults.append((lineno, f"expected `relation<TAB>tuple`, got {line!r}", True))
                continue
            lines.append((lineno, *fields))
            for kind, name in zip(("relation", "tuple"), fields):
                if any(char.isspace() for char in name):
                    faults.append((lineno, f"{kind} name {name!r} holds whitespace", False))
                    break
                if kind == "relation" and name in RESERVED_RELATIONS:
                    faults.append((lineno, f"relation name {name!r} is reserved for a "
                                           "report's summary row", False))
                    break
    if not lines and not faults:
        raise ParseError(f"{path}: no facts found")
    return lines, faults


def load_facts_oracle(path) -> FactStore:
    """`data.load_facts` one line at a time: the first line that breaks the
    format or the name rule is an error; otherwise ids in first-seen order."""
    lines, faults = read_fact_lines(path)
    if faults:
        raise ParseError(f"{path}:{faults[0][0]}: {faults[0][1]}")
    relations: dict[str, int] = {}
    tuples: dict[str, int] = {}
    pairs = [(relations.setdefault(rel, len(relations)), tuples.setdefault(tup, len(tuples)))
             for _, rel, tup in lines]
    return FactStore(Vocab(relations), Vocab(tuples), pairs)


def load_facts_with_vocab_oracle(path, relations: Vocab, tuples: Vocab) -> FactStore:
    """`data.load_facts_with_vocab` one line at a time: a file with a line that
    breaks the format is an error at its first bad line of any kind, as in
    `load_facts_oracle`; then names outside the vocabularies are."""
    lines, faults = read_fact_lines(path)
    if any(breaks_format for _, _, breaks_format in faults):
        raise ParseError(f"{path}:{faults[0][0]}: {faults[0][1]}")
    unknown = ({rel for _, rel, _ in lines if rel not in relations}
               | {tup for _, _, tup in lines if tup not in tuples})
    if unknown:
        lineno = next(n for n, rel, tup in lines if rel not in relations or tup not in tuples)
        raise DataError(f"{path}:{lineno}: names missing from the training vocabulary: "
                        + ", ".join(sorted(unknown)))
    return FactStore(relations, tuples,
                     [(relations.id(rel), tuples.id(tup)) for _, rel, tup in lines])


def load_embeddings_oracle(path):
    """`model.load_embeddings` one line at a time, each value parsed by
    Python's `float()`; it also reads `1_0` and non-ASCII digits, which the
    checkpoint format rejects, in values (not in the header's dim)."""
    with open(path, encoding="utf-8") as fh:
        lines = [(lineno, line.rstrip("\n"))
                 for lineno, line in enumerate(fh, start=1) if not line.isspace()]
    lineno, header = lines[0] if lines else (1, "")
    header = header.split()
    if (lineno != 1 or len(header) != 4 or header[0] != "k"
            or not all("0" <= char <= "9" for char in header[1])
            or int(header[1]) < 1 or header[2] != "variant" or header[3] not in model.VARIANTS):
        raise ParseError(f"{path}:1: expected header `k <dim> variant <f|fs|fsl>`"
                         " with dim >= 1; to a `k <dim>` header append ` variant <v>`,"
                         " v the variant the model was trained with")
    k, variant = int(header[1]), header[3]
    rows = {"R": [], "E": []}
    names = {"R": [], "E": []}  # in file order
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != k + 2 or parts[0] not in rows:
            raise ParseError(f"{path}:{lineno}: malformed embedding line")
        tag, name = parts[0], parts[1]
        kind = "relation" if tag == "R" else "tuple"
        if name in names[tag]:
            raise ParseError(f"{path}:{lineno}: {kind} name {name!r} is repeated")
        if tag == "R" and name in RESERVED_RELATIONS:
            raise ParseError(f"{path}:{lineno}: relation name {name!r} is reserved "
                             "for a report's summary row")
        names[tag].append(name)
        try:
            rows[tag].append(np.array([float(v) for v in parts[2:]]))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric value") from None
    if not rows["R"] or not rows["E"]:
        raise ParseError(f"{path}: checkpoint has no relations or no tuples")
    params = ModelParams(np.vstack(rows["R"]), np.vstack(rows["E"]))
    return params, names["R"], names["E"], variant


@dataclass
class PatternCorpus:
    store: FactStore
    rules: list[Rule]              # the injected implications
    distractors: list[Rule]        # mined too, but the facts do not imply them
    lexicon: list[tuple[str, str]]  # (word, hypernym) edges


def pattern_corpus(**kwargs) -> PatternCorpus:
    """`clustered_corpus(**kwargs)` with dependency-path relation names and a
    hypernym lexicon that mines its injected rules plus distractors.

    Injected pair j of cluster c becomes `p<-w{c}_{j}->q` => `p<-h{c}_{j}->q`,
    with the lexicon edge `w{c}_{j} -> h{c}_{j}`; every other relation i of
    cluster c is `p<-x{c}_{i}->q`. The distractor edges land on existing
    patterns: the reverse of each injected edge (a consequent has facts of
    its own) and, per cluster, one edge between its first two other
    relations. Two more edges land on no pattern and mine nothing.
    """
    corpus = clustered_corpus(**kwargs)
    names = corpus.store.relations.names
    cluster_index = [tuple(map(int, name[1:].split("_r"))) for name in names]
    words = {}
    for rule in corpus.rules:
        c, i = cluster_index[rule.antecedent]
        words[rule.antecedent], words[rule.consequent] = f"w{c}_{i // 2}", f"h{c}_{i // 2}"
    others = {}
    for rid, (c, i) in enumerate(cluster_index):
        if rid not in words:
            words[rid] = f"x{c}_{i}"
            others.setdefault(c, []).append(rid)
    lexicon = [(words[r.antecedent], words[r.consequent]) for r in corpus.rules]
    distractors = [Rule(r.consequent, r.antecedent) for r in corpus.rules]
    distractors += [Rule(*rids[:2]) for rids in others.values() if len(rids) > 1]
    lexicon += [(words[r.antecedent], words[r.consequent]) for r in distractors]
    lexicon += [(words[corpus.rules[0].antecedent], "absent"), ("q", "z")]
    relations = Vocab(f"p<-{words[rid]}->q" for rid in range(len(names)))
    store = FactStore(relations, corpus.store.tuples, corpus.store.facts)
    return PatternCorpus(store, corpus.rules, distractors, lexicon)
