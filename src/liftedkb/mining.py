"""Candidate implication rules between surface patterns via hypernym substitution.

A surface pattern is a dependency-path string like `appos->diplomat->amod`.
Replacing one word by a hypernym (diplomat -> official) yields a candidate
more-general pattern; if that pattern also occurs in the vocabulary, the
original pattern implies it and a rule is emitted.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from .data import Rule, Vocab, parse_rule_line
from .errors import ParseError

log = logging.getLogger(__name__)

_DELIMITERS = re.compile(r"(->|<-)")


class HypernymLexicon:
    """Flat word -> hypernym-set map loaded from `word<TAB>hypernym` lines."""

    def __init__(self, entries=()):
        self._map: dict[str, set[str]] = {}
        for word, hypernym in entries:
            self.add(word, hypernym)

    def add(self, word: str, hypernym: str) -> bool:
        if word == hypernym:
            log.warning("self-hypernym %r rejected", word)
            return False
        self._map.setdefault(word, set()).add(hypernym)
        return True

    def hypernyms(self, word: str) -> set[str]:
        return self._map.get(word, set())

    def __len__(self) -> int:
        return len(self._map)

    @classmethod
    def load(cls, path) -> "HypernymLexicon":
        lexicon = cls()
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                fields = line.split("\t")
                if len(fields) != 2 or not fields[0] or not fields[1]:
                    raise ParseError(f"{path}:{lineno}: expected `word<TAB>hypernym`")
                lexicon.add(fields[0], fields[1])
        return lexicon


@dataclass(frozen=True)
class MinedRule:
    rule: Rule
    position: int       # token index of the substituted word
    original: str
    hypernym: str


def tokenize_pattern(pattern: str) -> list[str]:
    """Split on `->` / `<-` while keeping the delimiters as tokens.

    Joining the tokens reproduces the input exactly. Word tokens sit at
    even indices (and may be empty for leading/trailing delimiters).
    """
    if not pattern:
        raise ValueError("empty pattern")
    return _DELIMITERS.split(pattern)


def mine_rules(patterns: Vocab, lexicon: HypernymLexicon) -> list[MinedRule]:
    """All single-word hypernym substitutions that land back in the vocabulary.

    Pure function of its inputs: output is deduplicated on the rule pair and
    sorted by (antecedent id, consequent id).
    """
    if len(patterns) == 0:
        raise ValueError("empty pattern vocabulary")
    mined: dict[Rule, MinedRule] = {}
    for pattern in patterns.names:
        tokens = tokenize_pattern(pattern)
        for pos in range(0, len(tokens), 2):
            word = tokens[pos]
            if not word:
                continue
            for hypernym in sorted(lexicon.hypernyms(word)):
                substituted = "".join(tokens[:pos] + [hypernym] + tokens[pos + 1:])
                if substituted == pattern or substituted not in patterns:
                    continue
                rule = Rule(patterns.id(pattern), patterns.id(substituted))
                if rule not in mined:
                    mined[rule] = MinedRule(rule, pos, word, hypernym)
    return sorted(mined.values(), key=lambda m: (m.rule.antecedent, m.rule.consequent))


def canonical_rule_string(rule: Rule, patterns: Vocab) -> str:
    return f"{patterns.name(rule.antecedent)} => {patterns.name(rule.consequent)}"


def filter_rules(mined, decisions_path, patterns: Vocab) -> list[Rule]:
    """Apply an accept/reject decision file to mined rules.

    Decision lines read `accept|reject<TAB>antecedent => consequent`. Mined
    rules without a decision default to rejected; decisions naming unknown
    rules are ignored with a warning.
    """
    known = {canonical_rule_string(m.rule, patterns): m.rule for m in mined}
    accepted: set[str] = set()
    with open(decisions_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            verdict, _, rest = line.partition("\t")
            if verdict not in ("accept", "reject") or not rest:
                raise ParseError(f"{decisions_path}:{lineno}: expected "
                                 f"`accept|reject<TAB>rule`, got {line!r}")
            try:
                ant, cons = parse_rule_line(rest)
            except ParseError as exc:
                raise ParseError(f"{decisions_path}:{lineno}: {exc}") from None
            key = f"{ant} => {cons}"
            if key not in known:
                log.warning("%s:%d: decision for unknown rule ignored: %s",
                            decisions_path, lineno, key)
                continue
            if verdict == "accept":
                accepted.add(key)
    return [m.rule for m in mined
            if canonical_rule_string(m.rule, patterns) in accepted]
