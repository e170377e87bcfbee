"""Vocabularies, fact storage, rule files, and dataset splits.

File formats (stable CLI contracts):
  fact file:  one fact per line, `relation<TAB>tuple`, UTF-8, LF lines.
              The tuple is an opaque token (convention: `entityA|entityB`).
              Names contain no whitespace.
  rule file:  `antecedent => consequent` per line; TAB or space separation
              around the `=>` token.

A `FactStore` holds its facts once, as an (n, 2) int64 array, with a
per-relation CSR index and a sorted int64 key array beside it; it costs
O(facts) whatever the vocabulary sizes, and splits select facts by boolean
mask.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

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
    """Immutable, deduplicated set of observed (relation, tuple) facts.

    `facts`: read-only (n, 2) int64 array of (relation id, tuple id) rows in
    first-seen order, so a fact file is itself the canonical vocabulary order.
    By relation (CSR): rows `_offsets[r]:_offsets[r + 1]` of `_relation_order`
    (fact positions sorted stably by relation) and of `_relation_tuples`
    (their tuple ids) belong to relation r, in fact order.
    Membership: `keys`, the sorted unique read-only int64 array of
    `relation * len(tuples) + tuple`, and `key_set`, the same as a set; the
    vocabularies must not grow after construction. Ids outside them raise.
    """

    def __init__(self, relations: Vocab, tuples: Vocab, facts):
        self.relations = relations
        self.tuples = tuples
        pairs = np.array(facts, dtype=np.int64).reshape(-1, 2)
        n_relations, n_tuples = len(relations), len(tuples)
        bad = ((pairs < 0) | (pairs >= (n_relations, n_tuples))).any(axis=1)
        if bad.any():
            r, t = pairs[np.argmax(bad)].tolist()
            raise ValueError(f"fact ({r}, {t}) is outside the vocabularies "
                             f"({n_relations} relations, {n_tuples} tuples)")
        self.keys, first = np.unique(pairs[:, 0] * n_tuples + pairs[:, 1], return_index=True)
        if len(self.keys) < len(pairs):  # keep the first occurrence of each fact
            pairs = pairs[np.sort(first)]
        self.facts = pairs
        self._relation_order = np.argsort(pairs[:, 0], kind="stable")
        self._relation_tuples = pairs[self._relation_order, 1]
        self._offsets = np.zeros(n_relations + 1, dtype=np.int64)
        np.cumsum(np.bincount(pairs[:, 0], minlength=n_relations), out=self._offsets[1:])
        for arr in (self.facts, self.keys, self._relation_order, self._relation_tuples,
                    self._offsets):
            arr.setflags(write=False)

    @classmethod
    def from_named_pairs(cls, pairs) -> "FactStore":
        relations, tuples = Vocab(), Vocab()
        id_pairs = [(relations.add(r), tuples.add(t)) for r, t in pairs]
        return cls(relations, tuples, id_pairs)

    def __len__(self) -> int:
        return len(self.facts)

    def __contains__(self, pair) -> bool:
        r, t = pair
        n_tuples = len(self.tuples)
        return (0 <= r < len(self.relations) and 0 <= t < n_tuples
                and r * n_tuples + t in self.key_set)

    @cached_property
    def key_set(self) -> set[int]:
        """`keys` as a set of Python ints, built once: the store never changes."""
        return set(self.keys.tolist())

    def positions_of(self, relation: int) -> np.ndarray:
        """Positions in `facts` of the relation's facts, in fact order (read-only)."""
        return self._relation_order[self._offsets[relation]:self._offsets[relation + 1]]

    def tuples_of(self, relation: int) -> np.ndarray:
        """The relation's tuple ids in fact order (read-only int64 array)."""
        return self._relation_tuples[self._offsets[relation]:self._offsets[relation + 1]]

    def subset(self, keep) -> "FactStore":
        """New store over the same vocabularies with the facts where the boolean
        mask `keep` is True, in fact order (so ids and iteration order hold)."""
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != (len(self),):
            raise ValueError(f"keep must be a boolean mask of shape ({len(self)},)")
        return FactStore(self.relations, self.tuples, self.facts[keep])

    def save(self, path) -> None:
        relations, tuples = self.relations.names, self.tuples.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{relations[r]}\t{tuples[t]}\n" for r, t in self.facts.tolist())


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

    Names absent from the vocabularies are an error; the message names the
    first line that has one and lists them all.
    """
    lines = _read_fact_lines(path)
    unknown = ({rel for _, rel, _ in lines if rel not in relations}
               | {tup for _, _, tup in lines if tup not in tuples})
    if unknown:
        lineno = next(n for n, rel, tup in lines if rel not in relations or tup not in tuples)
        raise DataError(f"{path}:{lineno}: names missing from checkpoint vocabulary: "
                        + ", ".join(sorted(unknown)))
    return FactStore(relations, tuples,
                     [(relations.id(rel), tuples.id(tup)) for _, rel, tup in lines])


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
    in_test = np.zeros(len(store), dtype=bool)
    for rid in range(len(store.relations)):
        positions = store.positions_of(rid)
        n = len(positions)
        if n < 2:
            continue
        n_test = min(int(round(n * test_fraction)), n - 1)
        if n_test == 0:
            continue
        in_test[positions[rng.choice(n, size=n_test, replace=False)]] = True
    test = store.subset(in_test)
    counts = np.bincount(test.facts[:, 0], minlength=len(store.relations))
    test_relations = [(rid, count) for rid, count in enumerate(counts.tolist()) if count]
    return DatasetSplit(train=store.subset(~in_test), test=test, test_relations=test_relations)
