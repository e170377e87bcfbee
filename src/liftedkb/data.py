"""Vocabularies, fact storage, rule files, and dataset splits.

File formats (stable CLI contracts):
  fact file:  one fact per line, `relation<TAB>tuple`, UTF-8, LF lines.
              The tuple is an opaque token (convention: `entityA|entityB`).
              Names contain no whitespace.
  rule file:  `antecedent => consequent` per line; TAB or space separation
              around the `=>` token.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError

log = logging.getLogger(__name__)


class Vocab:
    """Bidirectional string <-> dense-id map, ids assigned in first-seen order."""

    def __init__(self, names=()):
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = len(self._names)
            self._index[name] = idx
            self._names.append(name)
        return idx

    def id(self, name: str) -> int:
        return self._index[name]

    def name(self, idx: int) -> str:
        return self._names[idx]

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def __contains__(self, name) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self._names)


class FactStore:
    """Immutable set of observed (relation, tuple) facts with id vocabularies.

    Fact order is preserved from construction (deduplicated), so a fact file
    is itself the canonical vocabulary order. Instances are safe for
    concurrent read after construction.
    """

    def __init__(self, relations: Vocab, tuples: Vocab, facts):
        self.relations = relations
        self.tuples = tuples
        self.facts: list[tuple[int, int]] = []
        self.fact_set: set[tuple[int, int]] = set()
        self._by_relation: list[list[int]] = [[] for _ in range(len(relations))]
        self._by_tuple: list[list[int]] = [[] for _ in range(len(tuples))]
        for r, t in facts:
            pair = (int(r), int(t))
            if pair in self.fact_set:
                continue
            self.fact_set.add(pair)
            self.facts.append(pair)
            self._by_relation[pair[0]].append(pair[1])
            self._by_tuple[pair[1]].append(pair[0])

    @classmethod
    def from_named_pairs(cls, pairs) -> "FactStore":
        relations, tuples = Vocab(), Vocab()
        id_pairs = [(relations.add(r), tuples.add(t)) for r, t in pairs]
        return cls(relations, tuples, id_pairs)

    def __len__(self) -> int:
        return len(self.facts)

    def __contains__(self, pair) -> bool:
        return pair in self.fact_set

    def tuples_of(self, relation: int) -> list[int]:
        return self._by_relation[relation]

    def relations_of(self, tup: int) -> list[int]:
        return self._by_tuple[tup]

    def subset(self, keep) -> "FactStore":
        """New store with the same vocabularies and a subset of the facts.

        `keep` is a predicate on (relation_id, tuple_id). Fact order is
        preserved, so id assignment and iteration order are unchanged.
        """
        return FactStore(self.relations, self.tuples,
                         [p for p in self.facts if keep(p)])

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for r, t in self.facts:
                fh.write(f"{self.relations.name(r)}\t{self.tuples.name(t)}\n")


def _read_fact_lines(path) -> list[tuple[int, str, str]]:
    """(line number, relation, tuple) for every non-blank line of a fact file."""
    lines = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2 or not fields[0] or not fields[1]:
                raise ParseError(f"{path}:{lineno}: expected `relation<TAB>tuple`, got {line!r}")
            lines.append((lineno, fields[0], fields[1]))
    if not lines:
        raise ParseError(f"{path}: no facts found")
    return lines


def load_facts(path) -> FactStore:
    """Parse a fact file into a FactStore; errors carry the line number.

    Names containing whitespace are rejected: the checkpoint format
    separates fields by whitespace, so they could not be read back.
    """
    lines = _read_fact_lines(path)
    store = FactStore.from_named_pairs((rel, tup) for _, rel, tup in lines)
    bad = {name for name in store.relations.names + store.tuples.names
           if name.split() != [name]}
    if bad:
        lineno, rel, tup = next(line for line in lines if line[1] in bad or line[2] in bad)
        name = rel if rel in bad else tup
        raise ParseError(f"{path}:{lineno}: whitespace in name {name!r}")
    return store


def load_facts_with_vocab(path, relations: Vocab, tuples: Vocab) -> FactStore:
    """Parse a fact file against fixed vocabularies (e.g. from a checkpoint).

    Names absent from the vocabularies are an error; the message lists them.
    """
    pairs = []
    unknown = set()
    for _, rel, tup in _read_fact_lines(path):
        if rel not in relations:
            unknown.add(rel)
        if tup not in tuples:
            unknown.add(tup)
        if not unknown:
            pairs.append((relations.id(rel), tuples.id(tup)))
    if unknown:
        raise DataError(f"{path}: names missing from checkpoint vocabulary: "
                        + ", ".join(sorted(unknown)))
    return FactStore(relations, tuples, pairs)


@dataclass(frozen=True)
class Rule:
    """An implication between relations: antecedent implies consequent."""
    antecedent: int
    consequent: int


def parse_rule_line(line: str) -> tuple[str, str]:
    """Split `antecedent => consequent` (TAB or space tolerant)."""
    parts = line.replace("\t", " ").split("=>")
    if len(parts) != 2:
        raise ParseError(f"missing `=>` separator in {line!r}")
    ant, cons = parts[0].strip(), parts[1].strip()
    if not ant or not cons:
        raise ParseError(f"empty relation name in {line!r}")
    return ant, cons


def load_rules(path, relations: Vocab) -> tuple[list[Rule], int]:
    """Load a rule file, resolving names against `relations`.

    Rules naming unknown relations are skipped with a warning (the skip
    count is returned); self-implications are rejected with a warning.
    """
    rules: list[Rule] = []
    seen = set()
    skipped = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            try:
                ant, cons = parse_rule_line(line)
            except ParseError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if ant == cons:
                log.warning("%s:%d: self-implication %r rejected", path, lineno, ant)
                skipped += 1
                continue
            if ant not in relations or cons not in relations:
                log.warning("%s:%d: rule references unknown relation, skipped: %s => %s",
                            path, lineno, ant, cons)
                skipped += 1
                continue
            rule = Rule(relations.id(ant), relations.id(cons))
            if rule not in seen:
                seen.add(rule)
                rules.append(rule)
    return rules, skipped


def save_rules(path, rules, relations: Vocab) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rule in rules:
            fh.write(f"{relations.name(rule.antecedent)}\t=>\t{relations.name(rule.consequent)}\n")


@dataclass
class DatasetSplit:
    train: FactStore
    test: FactStore
    test_relations: list[tuple[int, int]]  # (relation id, test fact count)


def holdout_split(store: FactStore, test_fraction: float, seed: int) -> DatasetSplit:
    """Per-relation stratified holdout; deterministic under a fixed seed.

    Relations with a single fact stay entirely in train. Train and test
    share the store's vocabularies, so ids are stable across the split.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0,1), got {test_fraction}")
    if len(store) == 0:
        raise DataError("cannot split an empty fact store")
    rng = np.random.default_rng(seed)
    test_pairs: set[tuple[int, int]] = set()
    for rid in range(len(store.relations)):
        tuples = store.tuples_of(rid)
        n = len(tuples)
        if n < 2:
            continue
        n_test = min(int(round(n * test_fraction)), n - 1)
        if n_test == 0:
            continue
        chosen = rng.choice(n, size=n_test, replace=False)
        for i in chosen:
            test_pairs.add((rid, tuples[i]))
    train = store.subset(lambda p: p not in test_pairs)
    test = store.subset(lambda p: p in test_pairs)
    test_relations = [(rid, len(test.tuples_of(rid)))
                      for rid in range(len(store.relations))
                      if test.tuples_of(rid)]
    return DatasetSplit(train=train, test=test, test_relations=test_relations)
