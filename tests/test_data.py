import re

import pytest

from liftedkb.data import (FactStore, Rule, Vocab, holdout_split, load_facts,
                           load_facts_with_vocab, load_rules, save_rules)
from liftedkb.errors import DataError, ParseError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadFacts:
    def test_basic_two_facts_one_tuple(self, tmp_path):
        path = write(tmp_path, "f.tsv", "employeeAt\talice|acme\nprofessorAt\talice|acme\n")
        store = load_facts(path)
        assert len(store.relations) == 2
        assert len(store.tuples) == 1
        assert len(store) == 2

    def test_duplicate_line_stored_once(self, tmp_path):
        path = write(tmp_path, "f.tsv", "r\ta|b\nr\ta|b\n")
        store = load_facts(path)
        assert len(store) == 1

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write(tmp_path, "f.tsv", "r\ta|b\nonlyOneField\n")
        with pytest.raises(ParseError, match=":2"):
            load_facts(path)

    def test_empty_file_errors(self, tmp_path):
        path = write(tmp_path, "f.tsv", "")
        with pytest.raises(ParseError):
            load_facts(path)

    @pytest.mark.parametrize("text, lineno, name", [
        ("r\ta|b\nborn in\tA|B\nborn in\tC|D\n", 2, "born in"),
        ("r\ta|b\nr\tc|d\n\nq\tA B\n", 4, "A B"),
        ("r\ta|b\nq\tA\u00a0B\n", 2, "A\u00a0B"),
    ], ids=["relation-space", "tuple-space", "tuple-nbsp"])
    def test_whitespace_in_name_reports_first_line(self, tmp_path, text, lineno, name):
        path = write(tmp_path, "f.tsv", text)
        message = f"f.tsv:{lineno}: whitespace in name {name!r}"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_facts(path)

    def test_crlf_line_endings_read_as_lf(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_bytes(b"r\ta|b\r\nq\tc|d\r\n")
        store = load_facts(path)
        assert store.relations.names == ["r", "q"]
        assert store.tuples.names == ["a|b", "c|d"]

    def test_ids_assigned_in_first_seen_order(self, tmp_path):
        path = write(tmp_path, "f.tsv", "b\tx\na\ty\nb\tz\n")
        store = load_facts(path)
        assert store.relations.names == ["b", "a"]
        assert store.tuples.names == ["x", "y", "z"]

    def test_round_trip_preserves_facts_and_ids(self, tmp_path):
        path = write(tmp_path, "f.tsv", "r1\ta|b\nr2\tc|d\nr1\tc|d\n")
        store = load_facts(path)
        out = tmp_path / "out.tsv"
        store.save(out)
        reloaded = load_facts(out)
        assert reloaded.facts == store.facts
        assert reloaded.relations.names == store.relations.names
        assert reloaded.tuples.names == store.tuples.names

    def test_index_consistency(self, tmp_path):
        path = write(tmp_path, "f.tsv", "r1\ta\nr1\tb\nr2\ta\nr3\tc\n")
        store = load_facts(path)
        for r, t in store.facts:
            assert t in store.tuples_of(r)
            assert r in store.relations_of(t)
        for r in range(len(store.relations)):
            for t in store.tuples_of(r):
                assert (r, t) in store


class TestLoadFactsWithVocab:
    def test_ids_follow_the_given_vocabularies(self, tmp_path):
        path = write(tmp_path, "f.tsv", "a\tx\n\nb\ty\n")
        store = load_facts_with_vocab(path, Vocab(["b", "a"]), Vocab(["y", "x"]))
        assert store.facts == [(1, 1), (0, 0)]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write(tmp_path, "f.tsv", "a\tx\n\nonlyOneField\n")
        with pytest.raises(ParseError, match="f.tsv:3:"):
            load_facts_with_vocab(path, Vocab(["a"]), Vocab(["x"]))

    def test_unknown_names_listed_once_sorted(self, tmp_path):
        path = write(tmp_path, "f.tsv", "a\tz\nq\tx\nq\tz\n")
        with pytest.raises(DataError, match="vocabulary: q, z$"):
            load_facts_with_vocab(path, Vocab(["a"]), Vocab(["x"]))


class TestLoadRules:
    def test_resolves_names(self, tmp_path):
        facts = write(tmp_path, "f.tsv", "professorAt\ta\nemployeeAt\ta\n")
        store = load_facts(facts)
        rules_path = write(tmp_path, "r.tsv", "professorAt\t=>\temployeeAt\n")
        rules, skipped = load_rules(rules_path, store.relations)
        assert skipped == 0
        assert rules == [Rule(store.relations.id("professorAt"),
                              store.relations.id("employeeAt"))]

    def test_space_separated_accepted(self, tmp_path):
        vocab = Vocab(["a", "b"])
        rules_path = write(tmp_path, "r.tsv", "a => b\n")
        rules, _ = load_rules(rules_path, vocab)
        assert rules == [Rule(0, 1)]

    def test_unknown_relation_skipped_with_count(self, tmp_path):
        vocab = Vocab(["a", "b"])
        rules_path = write(tmp_path, "r.tsv", "a => b\nmissing => b\n")
        rules, skipped = load_rules(rules_path, vocab)
        assert len(rules) == 1
        assert skipped == 1

    def test_self_implication_rejected(self, tmp_path):
        vocab = Vocab(["a"])
        rules_path = write(tmp_path, "r.tsv", "a => a\n")
        rules, _ = load_rules(rules_path, vocab)
        assert rules == []

    def test_missing_arrow_errors(self, tmp_path):
        vocab = Vocab(["a", "b"])
        rules_path = write(tmp_path, "r.tsv", "a b\n")
        with pytest.raises(ParseError):
            load_rules(rules_path, vocab)

    def test_round_trip(self, tmp_path):
        vocab = Vocab(["a", "b", "c"])
        rules = [Rule(0, 1), Rule(2, 0)]
        path = tmp_path / "r.tsv"
        save_rules(path, rules, vocab)
        reloaded, skipped = load_rules(path, vocab)
        assert reloaded == rules and skipped == 0


class TestHoldoutSplit:
    def make_store(self, n_facts_per_rel):
        pairs = []
        for r, n in enumerate(n_facts_per_rel):
            for j in range(n):
                pairs.append((f"r{r}", f"t{r}_{j}"))
        return FactStore.from_named_pairs(pairs)

    def test_deterministic_and_sized(self):
        store = self.make_store([10])
        split = holdout_split(store, 0.2, seed=7)
        assert len(split.train) == 8 and len(split.test) == 2
        again = holdout_split(store, 0.2, seed=7)
        assert again.train.facts == split.train.facts
        assert again.test.facts == split.test.facts

    def test_single_fact_relation_stays_in_train(self):
        store = self.make_store([1, 10])
        split = holdout_split(store, 0.3, seed=1)
        assert split.train.tuples_of(0) == store.tuples_of(0)
        assert not split.test.tuples_of(0)

    def test_partition(self):
        store = self.make_store([3, 7, 12, 1])
        split = holdout_split(store, 0.25, seed=3)
        assert len(split.train) + len(split.test) == len(store)
        assert not (split.train.fact_set & split.test.fact_set)

    def test_test_relations_have_facts(self):
        store = self.make_store([5, 8])
        split = holdout_split(store, 0.4, seed=0)
        for rid, count in split.test_relations:
            assert count >= 1
            assert len(split.test.tuples_of(rid)) == count

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.1])
    def test_bad_fraction_errors(self, fraction):
        store = self.make_store([4])
        with pytest.raises(ValueError):
            holdout_split(store, fraction, seed=0)

    def test_empty_store_errors(self):
        store = FactStore(Vocab(), Vocab(), [])
        with pytest.raises(DataError):
            holdout_split(store, 0.2, seed=0)
