import re

import pytest

from helpers import pattern_corpus
from liftedkb.cli import main
from liftedkb.data import Vocab, load_facts
from liftedkb.errors import ParseError
from liftedkb.mining import filter_rules, load_lexicon, mine_rules, tokenize_pattern


class TestTokenizePattern:
    def test_dependency_path(self):
        assert tokenize_pattern("appos->diplomat->amod") == \
            ["appos", "->", "diplomat", "->", "amod"]

    def test_single_token(self):
        assert tokenize_pattern("a") == ["a"]

    def test_mixed_directions(self):
        assert tokenize_pattern("nsubj<-die->dobj") == \
            ["nsubj", "<-", "die", "->", "dobj"]

    @pytest.mark.parametrize("pattern", [
        "appos->diplomat->amod", "a", "x<-y", "poss<-father->appos",
        "->leading", "trailing->", "a->b<-c->d",
    ])
    def test_round_trip(self, pattern):
        assert "".join(tokenize_pattern(pattern)) == pattern

    def test_empty_pattern_errors(self):
        with pytest.raises(ValueError):
            tokenize_pattern("")


class TestHypernymLexicon:
    def test_load(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("diplomat\tofficial\ndaily\tnewspaper\n\ndiplomat\tperson\n",
                        encoding="utf-8")
        assert load_lexicon(path) == {"diplomat": {"official", "person"},
                                      "daily": {"newspaper"}}

    def test_self_loop_rejected(self, tmp_path, caplog):
        path = tmp_path / "lex.tsv"
        path.write_text("dog\tanimal\nword\tword\n", encoding="utf-8")
        assert load_lexicon(path) == {"dog": {"animal"}}
        assert f"{path}:2: self-hypernym 'word' rejected" in caplog.text

    def test_malformed_line_errors(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("dog\tanimal\njust-one-field\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: expected `word<TAB>hypernym`")):
            load_lexicon(path)


class TestMineRules:
    def test_diplomat_official_example(self):
        vocab = Vocab(["appos->diplomat->amod", "appos->official->amod"])
        lex = {"diplomat": {"official"}}
        mined = mine_rules(vocab, lex)
        assert len(mined) == 1
        m = mined[0]
        assert m.antecedent == vocab.id("appos->diplomat->amod")
        assert m.consequent == vocab.id("appos->official->amod")

    def test_empty_lexicon_mines_nothing(self):
        vocab = Vocab(["a->b", "a->c"])
        assert mine_rules(vocab, {}) == []

    def test_substitution_absent_from_vocab_skipped(self):
        vocab = Vocab(["appos->diplomat->amod"])
        lex = {"diplomat": {"official"}}
        assert mine_rules(vocab, lex) == []

    def test_single_substitution_property(self):
        vocab = Vocab(["x->cat->y", "x->animal->y", "w<-cat->animal",
                       "w<-animal->animal"])
        lex = {"cat": {"animal"}, "y": {"z"}}
        for m in mine_rules(vocab, lex):
            ant = tokenize_pattern(vocab.name(m.antecedent))
            cons = tokenize_pattern(vocab.name(m.consequent))
            assert len(ant) == len(cons)
            assert sum(a != c for a, c in zip(ant, cons)) == 1

    def test_pure_and_ordered(self):
        vocab = Vocab(["b->dog", "b->animal", "a->dog", "a->animal"])
        lex = {"dog": {"animal"}}
        first = mine_rules(vocab, lex)
        second = mine_rules(vocab, lex)
        assert first == second
        keys = [(m.antecedent, m.consequent) for m in first]
        assert keys == sorted(keys)

    def test_both_sides_in_vocabulary(self):
        vocab = Vocab(["p->dog->q", "p->animal->q", "other"])
        lex = {"dog": {"animal"}, "other": {"absent"}}
        for m in mine_rules(vocab, lex):
            assert vocab.name(m.antecedent) in vocab
            assert vocab.name(m.consequent) in vocab

    def test_empty_vocabulary_errors(self):
        with pytest.raises(ValueError):
            mine_rules(Vocab(), {})


class TestFilterRules:
    def mined_fixture(self):
        vocab = Vocab(["a->dog", "a->animal", "b->dog", "b->animal"])
        lex = {"dog": {"animal"}}
        return vocab, mine_rules(vocab, lex)

    def test_accept_subset(self, tmp_path):
        vocab, mined = self.mined_fixture()
        assert len(mined) == 2
        decisions = tmp_path / "d.tsv"
        decisions.write_text("accept\ta->dog => a->animal\n"
                             "reject\tb->dog => b->animal\n", encoding="utf-8")
        accepted = filter_rules(mined, decisions, vocab)
        assert accepted == [mined[0]]

    def test_default_reject(self, tmp_path):
        vocab, mined = self.mined_fixture()
        decisions = tmp_path / "d.tsv"
        decisions.write_text("", encoding="utf-8")
        assert filter_rules(mined, decisions, vocab) == []

    def test_unknown_rule_decision_ignored(self, tmp_path, caplog):
        vocab, mined = self.mined_fixture()
        decisions = tmp_path / "d.tsv"
        decisions.write_text("accept\tno->such => rule->here\n", encoding="utf-8")
        assert filter_rules(mined, decisions, vocab) == []
        assert (f"{decisions}:1: decision for unknown rule ignored: no->such => rule->here"
                in caplog.text)

    def test_malformed_decision_errors(self, tmp_path):
        vocab, mined = self.mined_fixture()
        decisions = tmp_path / "d.tsv"
        decisions.write_text("maybe\ta->dog => a->animal\n", encoding="utf-8")
        with pytest.raises(ParseError):
            filter_rules(mined, decisions, vocab)

    def test_repeated_verdict_allowed(self, tmp_path):
        vocab, mined = self.mined_fixture()
        decisions = tmp_path / "d.tsv"
        decisions.write_text("accept\tb->dog => b->animal\naccept\tb->dog\t=>\tb->animal\n",
                             encoding="utf-8")
        assert filter_rules(mined, decisions, vocab) == [mined[1]]


class TestPatternCorpus:
    """Mining on a clustered corpus whose relations are dependency-path
    patterns: the rule file holds exactly the injected implications and the
    lexicon's distractors, and a decision file can keep only the former."""

    @pytest.fixture
    def mined(self, tmp_path):
        corpus = pattern_corpus(seed=3)
        facts, lexicon = tmp_path / "facts.tsv", tmp_path / "lex.tsv"
        corpus.store.save(facts)
        # the rule ids below are the ids `mine` reads back
        assert load_facts(facts).relations.names == corpus.store.relations.names
        lexicon.write_text("".join(f"{w}\t{h}\n" for w, h in corpus.lexicon), encoding="utf-8")
        return corpus, ["mine", "--facts", str(facts), "--lexicon", str(lexicon),
                        "--out", str(tmp_path / "rules.tsv")]

    @staticmethod
    def rule_line(rule, relations, sep="\t=>\t") -> str:
        return f"{relations.name(rule.antecedent)}{sep}{relations.name(rule.consequent)}\n"

    def test_injected_rules_hold_and_distractors_do_not(self, mined):
        corpus, _ = mined
        assert corpus.rules and corpus.distractors
        for rules, implied in ((corpus.rules, True), (corpus.distractors, False)):
            for r in rules:
                assert implied == (set(corpus.store.tuples_of(r.antecedent))
                                   <= set(corpus.store.tuples_of(r.consequent)))

    def test_rule_file_is_injected_plus_distractors(self, mined, tmp_path):
        corpus, args = mined
        assert main(args) == 0
        assert (tmp_path / "rules.tsv").read_text(encoding="utf-8") == "".join(
            self.rule_line(r, corpus.store.relations)
            for r in sorted(corpus.rules + corpus.distractors))

    def test_decisions_keep_the_injected_rules(self, mined, tmp_path):
        corpus, args = mined
        decisions = tmp_path / "decisions.tsv"
        decisions.write_text("".join(
            f"{verdict}\t{self.rule_line(r, corpus.store.relations, ' => ')}"
            for rules, verdict in ((corpus.distractors, "reject"), (corpus.rules, "accept"))
            for r in rules), encoding="utf-8")
        assert main(args + ["--decisions", str(decisions)]) == 0
        assert (tmp_path / "rules.tsv").read_text(encoding="utf-8") == "".join(
            self.rule_line(r, corpus.store.relations) for r in sorted(corpus.rules))
