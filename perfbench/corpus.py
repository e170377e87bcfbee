"""Seeded corpus generator for the benchmark workloads.

Tuples fall into blocks (clusters). Each relation lives in one block and
draws its facts from that block, favouring the block's popular tuples, so a
tuple observed with some relations of a block is likely to hold for the
others: the low-rank structure matrix factorization can learn. Relation
sizes follow a Zipf law. Injected implications pair two relations of one
block, and the consequent inherits every fact of the antecedent.

The generator registers no padding facts: a tuple or relation exists in the
training file only through its own facts. The tuple vocabulary may be larger
than the tuples of the blocks; the extra tuples have no facts, as entity
pairs that were mentioned but never observed with a relation. Test facts are kept only when
their relation and tuple both occur in the training file, because `eval`
rejects names outside the checkpoint vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

RELATION_ZIPF = 1.0         # exponent of the relation-size law
TUPLE_ZIPF = 0.5            # exponent of tuple popularity inside a block
TEST_FRACTION = 0.2         # share of each relation's facts held out


@dataclass(frozen=True)
class CorpusSpec:
    n_relations: int
    n_tuples: int           # vocabulary size; tuples beyond the blocks have no facts
    n_blocks: int
    block_size: int         # tuples per block
    n_facts: int            # target fact count before implications add more
    max_cover: float        # cap on a relation's size, as a share of its block
    n_rules: int


@dataclass
class Corpus:
    relation_names: list[str]
    tuple_names: list[str]
    train: list[tuple[int, int]]
    test: list[tuple[int, int]]
    rules: list[tuple[int, int]]

    def write(self, directory: Path) -> dict[str, Path]:
        """Write the train and test fact files and the rule file."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {name: directory / f"{name}.tsv" for name in ("train", "test", "rules")}
        rel = self.relation_names
        self.write_facts(paths["train"], self.train)
        self.write_facts(paths["test"], self.test)
        with open(paths["rules"], "w", encoding="utf-8") as fh:
            fh.writelines(f"{rel[a]}\t=>\t{rel[c]}\n" for a, c in self.rules)
        return paths

    def write_facts(self, path: Path, facts) -> None:
        rel, tup = self.relation_names, self.tuple_names
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{rel[r]}\t{tup[t]}\n" for r, t in facts)


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    return w / w.sum()


def generate(spec: CorpusSpec, seed: int) -> Corpus:
    """Build a corpus from `spec`; the same seed gives the same corpus.

    Every block holds the same number of relations with the same Zipf size
    profile and the same rule slots, so corpora of different seeds differ in
    their draws but not in their shape, and a quality metric measured on them
    is comparable across seeds.
    """
    rng = np.random.default_rng([seed, 7])
    per_block = spec.n_relations // spec.n_blocks
    block_size = spec.block_size
    rules_per_block = spec.n_rules // spec.n_blocks
    if per_block * spec.n_blocks != spec.n_relations or 2 * rules_per_block > per_block \
            or rules_per_block * spec.n_blocks != spec.n_rules \
            or spec.n_blocks * block_size > spec.n_tuples:
        raise ValueError(f"relations, rules and tuples must split evenly over the blocks: {spec}")

    cap = max(2, int(spec.max_cover * block_size))
    slot_sizes = np.rint(_zipf_weights(per_block, RELATION_ZIPF)
                         * spec.n_facts / spec.n_blocks)
    slot_sizes = np.clip(slot_sizes, 2, cap).astype(np.int64)
    # Ids are shuffled so that neither relation nor tuple order carries structure.
    relation_ids = rng.permutation(spec.n_relations).reshape(spec.n_blocks, per_block)
    tuple_ids = rng.permutation(spec.n_tuples)[:spec.n_blocks * block_size]
    tuple_ids = tuple_ids.reshape(spec.n_blocks, block_size)
    # Popularity is shared by the relations of a block, so a popular tuple is
    # observed with many of them and its held-out facts are predictable.
    popularity = _zipf_weights(block_size, TUPLE_ZIPF)

    facts: list[np.ndarray] = [np.empty(0, np.int64)] * spec.n_relations
    rules: list[tuple[int, int]] = []
    for block in range(spec.n_blocks):
        for slot, rid in enumerate(relation_ids[block]):
            facts[rid] = rng.choice(tuple_ids[block], size=int(slot_sizes[slot]),
                                    replace=False, p=popularity)
        # Slot 2j implies slot 2j+1: the antecedent is the larger draw, so
        # after inheritance most of the consequent's facts are implied.
        for j in range(rules_per_block):
            ant, cons = relation_ids[block][2 * j], relation_ids[block][2 * j + 1]
            facts[cons] = np.union1d(facts[cons], facts[ant])
            rules.append((int(ant), int(cons)))

    train: list[tuple[int, int]] = []
    held: list[tuple[int, int]] = []
    for rid, tuples in enumerate(facts):
        tuples = np.sort(tuples)
        n_test = min(int(round(len(tuples) * TEST_FRACTION)), len(tuples) - 1)
        is_test = np.zeros(len(tuples), dtype=bool)
        is_test[rng.choice(len(tuples), size=n_test, replace=False)] = True
        train.extend((rid, int(t)) for t in tuples[~is_test])
        held.extend((rid, int(t)) for t in tuples[is_test])
    train_tuples = {t for _, t in train}
    test = [(r, t) for r, t in held if t in train_tuples]

    return Corpus(relation_names=[f"rel{r}" for r in range(spec.n_relations)],
                  tuple_names=[f"ent{t}|ent{t + 1}" for t in range(spec.n_tuples)],
                  train=train, test=test, rules=rules)
