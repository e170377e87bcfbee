"""Synthetic clustered corpora with injected ground-truth implications.

Used for experiments that would otherwise need a licensed corpus: relations
and tuples are grouped into clusters, facts fire mostly within a cluster,
and selected antecedent/consequent relation pairs satisfy a ground-truth
implication (every antecedent fact is copied to the consequent, which also
has extra facts of its own, so the reverse direction does not hold).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FactStore, Rule, Vocab


@dataclass
class SyntheticCorpus:
    store: FactStore
    rules: list[Rule]


def clustered_corpus(n_clusters: int = 4, relations_per_cluster: int = 10,
                     tuples_per_cluster: int = 125, n_rules: int = 10,
                     base_prob: float = 0.15, antecedent_prob: float = 0.4,
                     seed: int = 0) -> SyntheticCorpus:
    """Block-structured facts plus `n_rules` injected implications.

    Rules pair relation 2j (antecedent) with 2j+1 (consequent) inside a
    cluster, round-robin across clusters. Antecedents draw facts densely
    (antecedent_prob), everything else sparsely (base_prob); consequents
    additionally inherit all antecedent facts.
    """
    if n_rules > n_clusters * (relations_per_cluster // 2):
        raise ValueError("not enough relation pairs for the requested rule count")
    rng = np.random.default_rng(seed)
    rel_names = [f"c{c}_r{i}" for c in range(n_clusters)
                 for i in range(relations_per_cluster)]
    tup_names = [f"c{c}_t{j}" for c in range(n_clusters)
                 for j in range(tuples_per_cluster)]

    def rel_id(cluster, i):
        return cluster * relations_per_cluster + i

    rule_pairs = []
    slot = 0
    while len(rule_pairs) < n_rules:
        cluster = slot % n_clusters
        pair = slot // n_clusters
        rule_pairs.append((rel_id(cluster, 2 * pair), rel_id(cluster, 2 * pair + 1)))
        slot += 1
    antecedents = {p for p, _ in rule_pairs}

    fact_tuples: list[set[int]] = []
    for rid, _name in enumerate(rel_names):
        cluster = rid // relations_per_cluster
        prob = antecedent_prob if rid in antecedents else base_prob
        lo = cluster * tuples_per_cluster
        mask = rng.random(tuples_per_cluster) < prob
        fact_tuples.append({lo + j for j in np.flatnonzero(mask)})
    for ant, cons in rule_pairs:
        fact_tuples[cons] |= fact_tuples[ant]

    pairs = [(rel_names[rid], tup_names[t])
             for rid in range(len(rel_names))
             for t in sorted(fact_tuples[rid])]
    store = FactStore.from_named_pairs(pairs)
    rules = [Rule(store.relations.id(rel_names[a]), store.relations.id(rel_names[c]))
             for a, c in rule_pairs]
    return SyntheticCorpus(store=store, rules=rules)


def random_corpus(n_relations: int, n_tuples: int, n_facts: int,
                  seed: int = 0) -> FactStore:
    """Uniform random facts over exactly `r0..` and `t0..` (id = index); for timing runs."""
    if n_facts > n_relations * n_tuples:
        raise ValueError(f"n_facts={n_facts} distinct facts do not fit in n_relations="
                         f"{n_relations} x n_tuples={n_tuples} pairs")
    rng = np.random.default_rng(seed)
    pairs: dict[tuple[int, int], None] = {}  # distinct pairs in first-drawn order
    while len(pairs) < n_facts:
        pairs[int(rng.integers(n_relations)), int(rng.integers(n_tuples))] = None
    return FactStore(Vocab(f"r{i}" for i in range(n_relations)),
                     Vocab(f"t{j}" for j in range(n_tuples)), list(pairs))
