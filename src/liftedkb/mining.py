"""Candidate implication rules between surface patterns via hypernym substitution.

A surface pattern is a dependency-path string like `appos->diplomat->amod`.
Replacing one word by a hypernym (diplomat -> official) yields a candidate
more-general pattern; if that pattern also occurs in the vocabulary, the
original pattern implies it and a rule is emitted. A rule is a `data.Rule`
of pattern ids from the moment it is found or read, as in training.

File formats (stable CLI contracts):
  lexicon file:   `word<TAB>hypernym` per line; a word given as its own
                  hypernym is skipped with a warning naming its line.
  decision file:  `accept|reject<TAB>antecedent => consequent` per line,
                  the rule written as in a rule file. A mined rule with no
                  decision is rejected; a decision for a rule that was not
                  mined is ignored with a warning; the same rule both
                  accepted and rejected is a data error.
Both are read by `data.read_lines`: blank and whitespace-only lines are skipped.
"""

from __future__ import annotations

import logging
import re

from .data import Rule, Vocab, parse_rule_line, read_lines
from .errors import DataError, ParseError

log = logging.getLogger(__name__)

_DELIMITERS = re.compile(r"(->|<-)")


def load_lexicon(path) -> dict[str, set[str]]:
    """word -> its hypernyms, from a `word<TAB>hypernym` lexicon file."""
    lexicon: dict[str, set[str]] = {}
    for lineno, line in read_lines(path):
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise ParseError(f"{path}:{lineno}: expected `word<TAB>hypernym`")
        word, hypernym = fields
        if word == hypernym:
            log.warning("%s:%d: self-hypernym %r rejected", path, lineno, word)
        else:
            lexicon.setdefault(word, set()).add(hypernym)
    return lexicon


def tokenize_pattern(pattern: str) -> list[str]:
    """Split on `->` / `<-` while keeping the delimiters as tokens.

    Joining the tokens reproduces the input exactly. Word tokens sit at
    even indices (and may be empty for leading/trailing delimiters).
    """
    if not pattern:
        raise ValueError("empty pattern")
    return _DELIMITERS.split(pattern)


def mine_rules(patterns: Vocab, lexicon: dict[str, set[str]]) -> list[Rule]:
    """All single-word hypernym substitutions that land back in the vocabulary.

    Pure function of its inputs: the rules are distinct and sorted by
    (antecedent id, consequent id).
    """
    if len(patterns) == 0:
        raise ValueError("empty pattern vocabulary")
    mined: set[Rule] = set()
    for antecedent, pattern in enumerate(patterns.names):
        tokens = tokenize_pattern(pattern)
        for pos in range(0, len(tokens), 2):
            for hypernym in lexicon.get(tokens[pos], ()):
                substituted = "".join(tokens[:pos] + [hypernym] + tokens[pos + 1:])
                if substituted != pattern and substituted in patterns:
                    mined.add(Rule(antecedent, patterns.id(substituted)))
    return sorted(mined)


def filter_rules(mined: list[Rule], decisions_path, patterns: Vocab) -> list[Rule]:
    """The mined rules a decision file accepts, in mined order."""
    known = set(mined)
    verdicts: dict[Rule, tuple[str, int]] = {}  # rule -> (verdict, first line)
    for lineno, line in read_lines(decisions_path):
        verdict, _, rest = line.partition("\t")
        if verdict not in ("accept", "reject") or not rest:
            raise ParseError(f"{decisions_path}:{lineno}: expected "
                             f"`accept|reject<TAB>rule`, got {line!r}")
        ant, cons = parse_rule_line(rest, f"{decisions_path}:{lineno}")
        rule = (Rule(patterns.id(ant), patterns.id(cons))
                if ant in patterns and cons in patterns else None)
        if rule not in known:
            log.warning("%s:%d: decision for unknown rule ignored: %s => %s",
                        decisions_path, lineno, ant, cons)
            continue
        first, first_line = verdicts.setdefault(rule, (verdict, lineno))
        if first != verdict:
            raise DataError(f"{decisions_path}:{lineno}: {verdict} of {ant} => {cons} "
                            f"conflicts with the {first} at line {first_line}")
    accepted = {rule for rule, (verdict, _) in verdicts.items() if verdict == "accept"}
    return [rule for rule in mined if rule in accepted]
