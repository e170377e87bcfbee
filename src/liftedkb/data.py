"""Vocabularies, fact storage, rule files, dataset splits, and the name rule.

The name rule, for the relation and tuple names of fact files and
checkpoints: a name is non-empty, holds no whitespace, is not repeated among
its kind's vocabulary (fact lines repeat names freely), and is not one of the
`RESERVED_RELATIONS` if it names a relation. `names_fit` is its bulk test;
`name_problem` says what is wrong with one name.

File formats (stable CLI contracts), UTF-8 with LF or CRLF lines:
  fact file:  `relation<TAB>tuple` per line; the tuple is an opaque token
              (convention: `entityA|entityB`).
  rule file:  `antecedent => consequent` per line, three tokens apart by
              tabs or spaces (`a=>b` is an error). A rule naming an unknown
              relation, and a self-implication, is skipped with a warning
              naming its line; a repeated rule is kept once.
Rule, lexicon and decision files are read by `read_lines`, which skips blank
and whitespace-only lines (counting them in line numbers), as the checkpoint
reader in `model` does; a fact file skips empty lines only, and a
whitespace-only line is an error.

A fact file is read with one `read()` and split into name columns by
str-level operations. The format is checked on the whole text, the name
rule on the distinct names; only when a check fails are the lines walked,
once, to name the first bad line, whatever its fault.

A `Vocab` is immutable: built once from its names, never grown. A
`FactStore` holds its facts once, as an (n, 2) int64 array, with a
per-relation CSR index and a sorted int64 key array beside it; it costs
O(facts) whatever the vocabulary sizes, and splits select facts by boolean
mask.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import DataError, ParseError

log = logging.getLogger(__name__)

# the names of the summary rows of the `eval` and `analyze asymmetry` CSVs,
# where a relation of either name would write a row identical to the summary
RESERVED_RELATIONS = ("WEIGHTED_MAP", "GRAND_MEAN")


def names_fit(names: list[str], kind: str) -> bool:
    """Whether `names`, all the `kind` ("relation" or "tuple") names of one
    vocabulary, obey the name rule."""
    # with no empty name and no whitespace in one, the names joined by
    # newlines split back into the names
    return ("\n".join(names).split() == names and len(set(names)) == len(names)
            and (kind != "relation" or set(RESERVED_RELATIONS).isdisjoint(names)))


def name_problem(name: str, kind: str, seen=()) -> str | None:
    """What the name rule finds wrong with one `kind` name, or None; `seen`
    holds the names of its kind before it, where a repeat is a fault."""
    if name.split() != [name]:
        problem = "holds whitespace" if name else "is empty"
    elif name in seen:
        problem = "is repeated"
    elif kind == "relation" and name in RESERVED_RELATIONS:
        problem = "is reserved for a report's summary row"
    else:
        return None
    return f"{kind} name {name!r} {problem}"


class Vocab:
    """Immutable bidirectional string <-> dense-id map, ids assigned in
    first-seen order (a repeated name keeps its first id)."""

    def __init__(self, names=()):
        names = list(names)
        index = dict(zip(names, range(len(names))))
        if len(index) < len(names):  # a name repeats
            names = list(dict.fromkeys(names))
            index = dict(zip(names, range(len(names))))
        self._names: list[str] = names
        self._index: dict[str, int] = index

    def id(self, name: str) -> int:
        return self._index[name]

    def ids(self, names) -> np.ndarray:
        """int64 ids of a sequence of names; KeyError on the first unknown one."""
        return np.fromiter(map(self._index.__getitem__, names), np.int64, count=len(names))

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
    `relation * len(tuples) + tuple`, and `key_set`, the same as a set; they
    stay valid because a `Vocab` never grows. Ids outside them raise.
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
        columns = list(zip(*pairs)) or [(), ()]  # no pairs, no columns
        return cls.from_names(*columns)

    @classmethod
    def from_names(cls, relation_names, tuple_names) -> "FactStore":
        """Store of the facts `(relation_names[i], tuple_names[i])`, with
        vocabularies in first-seen order."""
        # dict.fromkeys drops the repeats, so Vocab builds each index once
        relations = Vocab(dict.fromkeys(relation_names))
        tuples = Vocab(dict.fromkeys(tuple_names))
        return cls(relations, tuples,
                   np.column_stack((relations.ids(relation_names), tuples.ids(tuple_names))))

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
        """Write the facts as a fact file, which names only their relations and
        tuples: a `holdout_split` train file lacks the tuples only test facts name."""
        relations, tuples = self.relations.names, self.tuples.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{relations[r]}\t{tuples[t]}\n" for r, t in self.facts.tolist())


def _numbered_lines(text: str):
    """(line number, line) for the non-blank lines of a fact file's text."""
    return ((lineno, line) for lineno, line in enumerate(text.split("\n"), start=1) if line)


def _raise_bad_fact_line(path, text: str):
    """Raise a ParseError naming the first line of a fact file's text that is
    not `relation<TAB>tuple` or holds a name the name rule rejects."""
    for lineno, line in _numbered_lines(text):
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise ParseError(f"{path}:{lineno}: expected `relation<TAB>tuple`, got {line!r}")
        problem = name_problem(fields[0], "relation") or name_problem(fields[1], "tuple")
        if problem:
            raise ParseError(f"{path}:{lineno}: {problem}")


def _read_fact_names(path) -> tuple[str, list[str]]:
    """A fact file's text and its names in order: relation, tuple, relation,
    tuple, ... over the non-blank lines. If a line holds other than one tab,
    or an empty name, the first bad line of any kind is an error. A leading
    UTF-8 byte order mark is dropped."""
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    lines = list(filter(None, text.split("\n")))
    if not lines:
        raise ParseError(f"{path}: no facts found")
    names = "\t".join(lines).split("\t")
    if set(map(str.count, lines, repeat("\t"))) != {1} or "" in names:
        _raise_bad_fact_line(path, text)
    return text, names


def load_facts(path) -> FactStore:
    """Parse a fact file into a FactStore. A line that breaks the format or
    the name rule is an error that names the first such line."""
    text, names = _read_fact_names(path)
    store = FactStore.from_names(names[0::2], names[1::2])
    if not (names_fit(store.relations.names, "relation")
            and names_fit(store.tuples.names, "tuple")):
        _raise_bad_fact_line(path, text)
    return store


def load_facts_with_vocab(path, relations: Vocab, tuples: Vocab) -> FactStore:
    """Parse a fact file against fixed vocabularies: a checkpoint's, or a training fact file's.

    A file that breaks the format is an error as in `load_facts`. Then names
    absent from the vocabularies are an error; the message names the first
    line that has one and lists them all.
    """
    text, names = _read_fact_names(path)
    relation_names, tuple_names = names[0::2], names[1::2]
    try:
        facts = np.column_stack((relations.ids(relation_names), tuples.ids(tuple_names)))
    except KeyError:
        unknown = ({rel for rel in relation_names if rel not in relations}
                   | {tup for tup in tuple_names if tup not in tuples})
        for lineno, line in _numbered_lines(text):
            rel, tup = line.split("\t")
            if rel not in relations or tup not in tuples:
                raise DataError(f"{path}:{lineno}: names missing from the training vocabulary: "
                                + ", ".join(sorted(unknown))) from None
    return FactStore(relations, tuples, facts)


@dataclass(frozen=True, order=True)
class Rule:
    """An implication between relations: antecedent implies consequent.
    Rules sort by (antecedent id, consequent id)."""
    antecedent: int
    consequent: int


def read_lines(path):
    """Stream `(line number, line)` for each line of a UTF-8 text file that
    holds more than whitespace, the newline removed; the skipped lines count.
    A leading byte order mark is dropped."""
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isspace():
                yield lineno, line.rstrip("\n")


def parse_rule_line(line: str, where: str) -> tuple[str, str]:
    """Split `antecedent => consequent`: three tokens between tabs or spaces,
    the middle one `=>`. Errors start with `where` (`path:line`)."""
    parts = line.split()
    if len(parts) == 3 and parts[1] == "=>":  # a name may be `=>` itself
        return parts[0], parts[2]
    if parts.count("=>") != 1:
        problem = "missing `=>` separator"
    elif parts[0] == "=>" or parts[-1] == "=>":
        problem = "empty relation name"
    else:
        problem = "whitespace in relation name"
    raise ParseError(f"{where}: {problem} in {line!r}")


def load_rules(path, relations: Vocab) -> tuple[list[Rule], int]:
    """Load a rule file, resolving names against `relations`; returns the
    distinct rules in file order and the number of lines skipped.

    Rules naming unknown relations and self-implications are skipped with
    a warning naming the line.
    """
    rules: dict[Rule, None] = {}
    skipped = 0
    for lineno, line in read_lines(path):
        ant, cons = parse_rule_line(line, f"{path}:{lineno}")
        if ant == cons:
            log.warning("%s:%d: self-implication %r rejected", path, lineno, ant)
            skipped += 1
        elif ant not in relations or cons not in relations:
            log.warning("%s:%d: rule references unknown relation, skipped: %s => %s",
                        path, lineno, ant, cons)
            skipped += 1
        else:
            rules[Rule(relations.id(ant), relations.id(cons))] = None
    return list(rules), skipped


def save_rules(path, rules, relations: Vocab) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rule in rules:
            fh.write(f"{relations.name(rule.antecedent)}\t=>\t{relations.name(rule.consequent)}\n")


@dataclass
class DatasetSplit:
    train: FactStore
    test: FactStore


def holdout_split(store: FactStore, test_fraction: float, seed: int) -> DatasetSplit:
    """Per-relation stratified holdout into train and test stores;
    deterministic under a fixed seed.

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
    return DatasetSplit(train=store.subset(~in_test), test=store.subset(in_test))
