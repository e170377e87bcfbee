import hashlib
import re
from collections import Counter

import numpy as np
import pytest

from helpers import load_embeddings_oracle, load_facts_oracle, load_facts_with_vocab_oracle
from liftedkb.data import (FactStore, Rule, Vocab, holdout_split, load_facts,
                           load_facts_with_vocab, load_rules, save_rules)
from liftedkb.errors import DataError, ParseError
from liftedkb.evaluation import subsample_relation_facts
from liftedkb.mining import filter_rules, load_lexicon
from liftedkb.model import load_embeddings
from liftedkb.synthetic import clustered_corpus, random_corpus


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

    @pytest.mark.parametrize("text, lineno, kind, name", [
        ("r\ta|b\nborn in\tA|B\nborn in\tC|D\n", 2, "relation", "born in"),
        ("r\ta|b\nr\tc|d\n\nq\tA B\n", 4, "tuple", "A B"),
        ("r\ta|b\nq\tA\u00a0B\n", 2, "tuple", "A\u00a0B"),
        ("r\ta|b\nq\t x\n", 2, "tuple", " x"),
        ("r\ta|b\nq\tx\u2028\n", 2, "tuple", "x\u2028"),
        ("r\tx\u000by\nq r\tx\n", 1, "tuple", "x\u000by"),
    ], ids=["relation-space", "tuple-space", "tuple-nbsp", "leading-space",
            "line-separator", "vertical-tab"])
    def test_whitespace_in_name_reports_first_line(self, tmp_path, text, lineno, kind, name):
        path = write(tmp_path, "f.tsv", text)
        message = f"f.tsv:{lineno}: {kind} name {name!r} holds whitespace"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_facts(path)

    @pytest.mark.parametrize("name", ["WEIGHTED_MAP", "GRAND_MEAN"])
    def test_reserved_relation_name_reports_its_line(self, tmp_path, name):
        # the name of a report's summary row; as a tuple it is an ordinary name
        path = write(tmp_path, "f.tsv", f"r\t{name}\n\nr\ta|b\r\n{name}\ta|b\n{name}\tc\n")
        message = f"f.tsv:4: relation name {name!r} is reserved for a report's summary row"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_facts(path)

    def test_first_bad_line_whatever_its_fault(self, tmp_path):
        # the reserved name on line 2 is named, not the space on line 3
        path = write(tmp_path, "f.tsv", "r\ta\nWEIGHTED_MAP\tb\nr v\tc\n")
        message = "f.tsv:2: relation name 'WEIGHTED_MAP' is reserved for a report's summary row"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_facts(path)

    def test_crlf_line_endings_read_as_lf(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_bytes(b"r\ta|b\r\nq\tc|d\r\n")
        store = load_facts(path)
        assert store.relations.names == ["r", "q"]
        assert store.tuples.names == ["a|b", "c|d"]

    def test_lone_cr_ends_a_line(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_bytes(b"r\ta|b\rq\tc|d")
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
        assert np.array_equal(reloaded.facts, store.facts)
        assert reloaded.relations.names == store.relations.names
        assert reloaded.tuples.names == store.tuples.names

    def test_index_consistency(self, tmp_path):
        path = write(tmp_path, "f.tsv", "r1\ta\nr1\tb\nr2\ta\nr3\tc\n")
        store = load_facts(path)
        # the relation index lists each relation's facts in fact order, and
        # every fact exactly once
        for r in range(len(store.relations)):
            in_r = store.facts[:, 0] == r
            assert np.array_equal(store.positions_of(r), np.flatnonzero(in_r))
            assert np.array_equal(store.tuples_of(r), store.facts[in_r, 1])
            for t in store.tuples_of(r).tolist():
                assert (r, t) in store
        # each tuple's relations, read off the fact array, are all members
        for t in range(len(store.tuples)):
            for r in store.facts[store.facts[:, 1] == t, 0].tolist():
                assert t in store.tuples_of(r)
        assert (0, 2) not in store and (1, 1) not in store


def load_with_fixed_vocab(path):
    return load_facts_with_vocab(path, Vocab(["r", "q"]), Vocab(["a", "b"]))


class TestFactFileErrors:
    """The errors both fact loaders raise, message for message."""

    @pytest.mark.parametrize("text, message", [
        ("r\ta\n\n\nonlyOneField\nr\tb\n",
         ":4: expected `relation<TAB>tuple`, got 'onlyOneField'"),
        ("r\ta\nq\t\n", ":2: expected `relation<TAB>tuple`, got 'q\\t'"),
        ("\tb\nq\tb\n", ":1: expected `relation<TAB>tuple`, got '\\tb'"),
        ("r\ta\nr\ta\tb\nq\n", ":2: expected `relation<TAB>tuple`, got 'r\\ta\\tb'"),
        ("r\ta\nq\n\nr\ta\tb\n", ":2: expected `relation<TAB>tuple`, got 'q'"),
        ("r\ta\n \n", ":2: expected `relation<TAB>tuple`, got ' '"),
        ("r\ta\r\n\r\nq b\r\n", ":3: expected `relation<TAB>tuple`, got 'q b'"),
        ("r\ta\nbad\nr x\ta\n", ":2: expected `relation<TAB>tuple`, got 'bad'"),
        ("r\ta\nr x\ta\n\nbad\n", ":2: relation name 'r x' holds whitespace"),
        ("", ": no facts found"),
        ("\n\n\r\n", ": no facts found"),
    ], ids=["after-blank-lines", "empty-tuple", "empty-relation", "three-fields",
            "missing-tab-before-extra-tab", "space-only", "crlf", "before-whitespace-check",
            "whitespace-before-missing-tab",
            "empty-file", "blank-lines-only"])
    @pytest.mark.parametrize("loader", [load_facts, load_with_fixed_vocab])
    def test_parse_errors(self, tmp_path, loader, text, message):
        path = tmp_path / "f.tsv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ParseError) as excinfo:
            loader(path)
        assert str(excinfo.value) == f"{path}{message}"

    def test_invalid_utf8_is_a_decode_error(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_bytes(b"r\ta\nq\t\xff\n")
        for loader in (load_facts, load_with_fixed_vocab):
            with pytest.raises(UnicodeDecodeError):
                loader(path)


# Name characters: ASCII, non-ASCII and the tuple separator; a few short
# random names per file, so that names repeat.
NAME_CHARS = list("abxyz019|_.é中Ωß")
# Lines that break a file: a missing or extra tab, an empty field, a name with
# ASCII or Unicode whitespace, a reserved relation name.
BAD_LINES = ["nofield", "a\tb\tc", "\tb", "a\t", " ", "\t", "a b\tx", "a\tx\u00a0y",
             "\u3000a\tx", "a\tx\x1c", "WEIGHTED_MAP\tx"]


def random_fact_file(path, rng, n_bad=0):
    """Write a random fact file: LF or CRLF, blank lines, duplicate facts,
    repeated and non-ASCII names, and `n_bad` lines from BAD_LINES."""
    def names(n):
        return ["".join(rng.choice(NAME_CHARS, size=int(rng.integers(1, 4)))) for _ in range(n)]

    relations, tuples = names(int(rng.integers(1, 6))), names(int(rng.integers(1, 25)))
    n = int(rng.integers(1, 40))
    lines = [f"{relations[r]}\t{tuples[t]}" for r, t in
             zip(rng.integers(len(relations), size=n), rng.integers(len(tuples), size=n))]
    for _ in range(int(rng.integers(0, 4))):
        lines.insert(int(rng.integers(len(lines) + 1)), "")
    for _ in range(n_bad):
        lines.insert(int(rng.integers(len(lines) + 1)), str(rng.choice(BAD_LINES)))
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    end = newline if rng.random() < 0.8 else ""
    path.write_bytes((newline.join(lines) + end).encode("utf-8"))
    return relations + tuples


def outcome(loader, *args):
    """What a loader makes of a file: the store's names and arrays, or its error."""
    try:
        store = loader(*args)
    except (ParseError, DataError) as exc:
        return type(exc), str(exc)
    return (store.relations.names, store.tuples.names,
            store.facts.dtype, store.facts.tolist(), store.keys.tolist())


# Checkpoint name characters: quotes, comment and rule markers, non-ASCII.
CHECKPOINT_NAME_CHARS = list('ab01|_."#=>é中Ω')
# Value spellings the writer emits, and others a hand edit may leave.
CHECKPOINT_VALUES = ["0", "-0", "5e-324", "4.9406564584124654e-324", "2.2250738585072014e-308",
                     "1.7976931348623157e308", "-1.7976931348623157e+308", "nan", "-nan", "inf",
                     "-inf", "1e400", "-1e-400", "Infinity", "+NaN", ".5", "5.", "1E5", "+0.25"]
# Values Python's `float()` rejects too.
NON_NUMERIC = ["abc", "1.2.3", "0x10", "nan(1)", "1e", "--1", "ε", "1,5"]
# Lines both readers skip, and separators they both split on.
BLANK_LINES = ["", "   ", "\t", "\x0c", " \t\x0c "]
SEPARATORS = [" ", "\t", "   ", " \t "]


def random_checkpoint(path, rng, n_bad=0):
    """Write a random checkpoint: interleaved R and E rows with unusual
    names and values, LF or CRLF, tab and multi-space separators, blank
    lines, and `n_bad` corruptions: a wrong field count, a bad tag, a
    reserved R name, a repeated name or a non-numeric value."""
    k = int(rng.integers(1, 5))
    rows = []
    for tag, count in (("R", int(rng.integers(0, 5))), ("E", int(rng.integers(0, 8)))):
        names = {"".join(rng.choice(CHECKPOINT_NAME_CHARS, size=int(rng.integers(1, 4))))
                 for _ in range(count)}
        rows += [[tag, name] for name in sorted(names)]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    for row in rows:
        row += [str(rng.choice(CHECKPOINT_VALUES)) if rng.random() < 0.3
                else "%.17g" % rng.normal(scale=10.0 ** rng.integers(-5, 6)) for _ in range(k)]
    clean = list(rows)
    for _ in range(n_bad):
        row = list(clean[int(rng.integers(len(clean)))]) if clean else ["E", "t"] + ["1"] * k
        fault = rng.integers(5)
        if fault == 0:
            row = row[:-1] if rng.random() < 0.5 else row + ["1"]
        elif fault == 1:
            row[0] = str(rng.choice(["X", "r", "RE", "e", "ER"]))
        elif fault == 2:
            row[:2] = ["R", str(rng.choice(["WEIGHTED_MAP", "GRAND_MEAN"]))]
        elif fault == 4:
            row[2 + int(rng.integers(k))] = str(rng.choice(NON_NUMERIC))
        # fault 3 keeps the row's tag and name: a repeated name
        rows.insert(int(rng.integers(len(rows) + 1)), row)
    lines = [f"k {k} variant {rng.choice(['f', 'fs', 'fsl'])}"]
    for row in rows:
        for _ in range(int(rng.integers(0, 2)) if rng.random() < 0.2 else 0):
            lines.append(str(rng.choice(BLANK_LINES)))
        fields = [row[0]]
        for field in row[1:]:
            fields += [str(rng.choice(SEPARATORS)) if rng.random() < 0.3 else " ", field]
        pad = " " if rng.random() < 0.1 else ""
        lines.append(pad + "".join(fields) + pad)
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    end = newline if rng.random() < 0.8 else ""
    path.write_bytes((newline.join(lines) + end).encode("utf-8"))


def checkpoint_outcome(loader, path):
    """What a checkpoint reader makes of a file: the names, the variant and
    the two matrices' shapes, dtypes and bytes, or its error."""
    try:
        params, relations, tuples, variant = loader(path)
    except ParseError as exc:
        return type(exc), str(exc)
    return (relations, tuples, variant,
            *[(a.shape, a.dtype, a.tobytes()) for a in (params.relations, params.tuple_pre)])


class TestLoadersMatchOracles:
    """The bulk loaders against the per-line ones in tests/helpers.py, on
    seeded random fact files, clean and corrupted."""

    @pytest.mark.parametrize("n_bad", [0, 1, 2])
    def test_load_facts(self, tmp_path, n_bad):
        rng = np.random.default_rng(100 + n_bad)
        path = tmp_path / "f.tsv"
        for _ in range(150):
            random_fact_file(path, rng, n_bad)
            assert outcome(load_facts, path) == outcome(load_facts_oracle, path)

    @pytest.mark.parametrize("n_bad", [0, 1])
    def test_load_facts_with_vocab(self, tmp_path, n_bad):
        rng = np.random.default_rng(200 + n_bad)
        path = tmp_path / "f.tsv"
        for _ in range(150):
            names = random_fact_file(path, rng, n_bad)
            # each vocabulary: a shuffled sample of the file's names and more
            vocabs = [Vocab(rng.permutation(names + ["extra", "é|中"])[:int(rng.integers(
                len(names) // 2, len(names) + 3))].tolist()) for _ in range(2)]
            assert (outcome(load_facts_with_vocab, path, *vocabs)
                    == outcome(load_facts_with_vocab_oracle, path, *vocabs))

    @pytest.mark.parametrize("n_bad", [0, 1, 2])
    def test_load_embeddings(self, tmp_path, n_bad):
        rng = np.random.default_rng(300 + n_bad)
        path = tmp_path / "ckpt.txt"
        faults = ["malformed", "reserved", "repeated", "non-numeric"]
        seen = Counter()  # what the files came to: loaded, or the error's fault
        for _ in range(150):
            random_checkpoint(path, rng, n_bad)
            expected = checkpoint_outcome(load_embeddings_oracle, path)
            assert checkpoint_outcome(load_embeddings, path) == expected
            message = expected[1].split(": ", 1)[1] if expected[0] is ParseError else ""
            seen[next((fault for fault in faults if fault in message), message or "loaded")] += 1
        if n_bad:
            assert set(faults) <= set(seen)
        else:  # the rest have no R or no E rows
            assert seen["loaded"] >= 90, seen


class TestFactStore:
    @pytest.mark.parametrize("pair", [(-1, 0), (2, 0), (0, -1), (0, 2)])
    def test_ids_outside_the_vocabularies_rejected(self, pair):
        # a negative id used to index from the end and file the fact under
        # the last relation or tuple
        facts = [(0, 0), pair, (-5, 7)]
        message = f"fact {pair} is outside the vocabularies (2 relations, 2 tuples)"
        with pytest.raises(ValueError, match=re.escape(message)):
            FactStore(Vocab(["a", "b"]), Vocab(["x", "y"]), facts)

    def test_duplicates_keep_first_seen_order(self):
        store = FactStore(Vocab(["a", "b"]), Vocab(["x", "y"]),
                          [(1, 0), (0, 1), (1, 0), (0, 0), (0, 1)])
        assert store.facts.tolist() == [[1, 0], [0, 1], [0, 0]]
        assert store.tuples_of(0).tolist() == [1, 0]
        assert store.positions_of(0).tolist() == [1, 2]
        assert store.keys.tolist() == [0, 1, 2]

    def test_arrays_are_read_only_copies(self):
        given = np.array([[0, 1], [1, 0]])
        store = FactStore(Vocab(["a", "b"]), Vocab(["x", "y"]), given)
        given[0, 0] = 1
        assert store.facts.tolist() == [[0, 1], [1, 0]]
        for arr in (store.facts, store.keys, store.tuples_of(0), store.positions_of(1)):
            assert arr.dtype == np.int64
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_key_set_is_built_once(self):
        store = FactStore(Vocab(["a", "b"]), Vocab(["x", "y", "z"]),
                          [(1, 2), (0, 1), (1, 0), (0, 1)])
        assert store.key_set is store.key_set
        assert store.key_set == set(store.keys.tolist()) == {1, 3, 5}
        assert all(type(key) is int for key in store.key_set)

    def test_subset_takes_a_boolean_mask(self):
        store = FactStore(Vocab(["a", "b"]), Vocab(["x", "y"]), [(0, 0), (1, 1), (0, 1)])
        kept = store.subset(np.array([True, False, True]))
        assert kept.facts.tolist() == [[0, 0], [0, 1]]
        assert kept.relations is store.relations and kept.tuples is store.tuples
        for keep in (lambda p: True, np.array([1, 0, 1]), np.array([True, False])):
            with pytest.raises(ValueError, match="boolean mask of shape"):
                store.subset(keep)


class TestVocab:
    def test_repeated_name_keeps_its_first_id(self):
        vocab = Vocab(["a", "b", "a"])
        assert vocab.names == ["a", "b"] and len(vocab) == 2
        assert (vocab.id("a"), vocab.id("b"), vocab.name(1)) == (0, 1, "b")

    def test_names_are_a_copy(self):
        given = ["a", "b"]
        vocab = Vocab(given)
        given.append("c")
        vocab.names.append("d")
        assert vocab.names == ["a", "b"] and "c" not in vocab


class TestRandomCorpus:
    def test_exact_vocabularies_and_no_padding_facts(self):
        store = random_corpus(5, 40, 30, seed=0)
        assert len(store) == 30
        assert store.relations.names == [f"r{i}" for i in range(5)]
        assert store.tuples.names == [f"t{j}" for j in range(40)]
        # registering the vocabulary through facts observed r0 with every tuple
        assert len(store.tuples_of(0)) < 40

    def test_more_facts_than_pairs_is_an_error(self):
        # the draw loop could never collect 5 distinct facts from 4 pairs
        with pytest.raises(ValueError, match="n_facts=5 .* n_relations=2 x n_tuples=2"):
            random_corpus(2, 2, 5)
        assert len(random_corpus(2, 2, 4)) == 4


class TestLoadFactsWithVocab:
    def test_ids_follow_the_given_vocabularies(self, tmp_path):
        path = write(tmp_path, "f.tsv", "a\tx\n\nb\ty\n")
        store = load_facts_with_vocab(path, Vocab(["b", "a"]), Vocab(["y", "x"]))
        assert store.facts.tolist() == [[1, 1], [0, 0]]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write(tmp_path, "f.tsv", "a\tx\n\nonlyOneField\n")
        with pytest.raises(ParseError, match="f.tsv:3:"):
            load_facts_with_vocab(path, Vocab(["a"]), Vocab(["x"]))

    def test_unknown_names_listed_once_sorted(self, tmp_path):
        path = write(tmp_path, "f.tsv", "a\tz\nq\tx\nq\tz\n")
        with pytest.raises(DataError, match="vocabulary: q, z$"):
            load_facts_with_vocab(path, Vocab(["a"]), Vocab(["x"]))

    @pytest.mark.parametrize("text, lineno, names", [
        ("a\tz\nq\tx\nq\tz\n", 1, "q, z"),
        ("a\tx\n\na\tx\nx\ta\n", 4, "a, x"),
    ], ids=["first-line", "known-name-in-the-other-column"])
    def test_unknown_names_name_the_first_line(self, tmp_path, text, lineno, names):
        path = write(tmp_path, "f.tsv", text)
        with pytest.raises(DataError) as excinfo:
            load_facts_with_vocab(path, Vocab(["a"]), Vocab(["x"]))
        assert str(excinfo.value) == (f"{path}:{lineno}: names missing from the training "
                                      f"vocabulary: {names}")

    def test_names_are_not_checked_for_whitespace(self, tmp_path):
        # the vocabularies decide which names exist
        path = write(tmp_path, "f.tsv", "a b\tx\n")
        store = load_facts_with_vocab(path, Vocab(["a b"]), Vocab(["x"]))
        assert store.facts.tolist() == [[0, 0]]


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

    def test_names_may_hold_arrows(self, tmp_path):
        # a name may contain `=>`, or be it: the middle of three tokens separates
        vocab = Vocab(["p->a=>x", "p->b=>x", "=>"])
        rules = [Rule(0, 1), Rule(2, 0), Rule(1, 2)]
        path = tmp_path / "r.tsv"
        save_rules(path, rules, vocab)
        assert load_rules(path, vocab) == (rules, 0)

    def test_repeated_rule_kept_once_in_first_order(self, tmp_path):
        vocab = Vocab(["a", "b", "c"])
        path = write(tmp_path, "r.tsv", "b => c\na => b\nb\t=>\tc\n")
        assert load_rules(path, vocab) == ([Rule(1, 2), Rule(0, 1)], 0)

    @pytest.mark.parametrize("line, problem", [
        ("a=>b", "missing `=>` separator"),
        ("a =>b", "missing `=>` separator"),
        ("a => b => c", "missing `=>` separator"),
        ("=> b", "empty relation name"),
        ("a =>", "empty relation name"),
        ("a x => b", "whitespace in relation name"),
    ], ids=["glued", "half-glued", "two-arrows", "no-antecedent", "no-consequent",
            "whitespace"])
    def test_malformed_rule_names_its_line(self, tmp_path, line, problem):
        path = write(tmp_path, "r.tsv", f"a => b\n{line}\n")
        with pytest.raises(ParseError) as info:
            load_rules(path, Vocab(["a", "b"]))
        assert str(info.value) == f"{path}:2: {problem} in {line!r}"


def _checkpoint_arrays(path):
    params, relations, tuples, variant = load_embeddings(path)
    return params.relations.tolist(), params.tuple_pre.tolist(), relations, tuples, variant


# (lines before the gap, lines after it, a malformed line, loader, what loads)
SHARED_READER_CASES = {
    "rules": (["a\t=>\tb"], ["b => a"], "a b",
              lambda path: load_rules(path, Vocab(["a", "b"])),
              ([Rule(0, 1), Rule(1, 0)], 0)),
    "lexicon": (["dog\tanimal"], ["cat\tanimal"], "dog",
                load_lexicon, {"dog": {"animal"}, "cat": {"animal"}}),
    "decisions": (["accept\tp->dog => p->animal"], ["reject\tq->dog\t=>\tq->animal"],
                  "accept\tfoo bar",
                  lambda path: filter_rules([Rule(0, 1), Rule(2, 3)], path,
                                            Vocab(["p->dog", "p->animal", "q->dog", "q->animal"])),
                  [Rule(0, 1)]),
    "checkpoint": (["k 1 variant fs", "R a 0.5"], ["E t 0.25"], "E u",
                   _checkpoint_arrays, ([[0.5]], [[0.25]], ["a"], ["t"], "fs")),
}


@pytest.mark.parametrize("case", SHARED_READER_CASES)
def test_shared_reader_counts_skipped_lines(tmp_path, case):
    """Rule, lexicon, decision and checkpoint files skip blank and
    whitespace-only CRLF lines, and still name a bad line by its number."""
    before, after, bad, load, loaded = SHARED_READER_CASES[case]
    gap = ["", " \t "]
    path = tmp_path / "in.txt"
    path.write_bytes("\r\n".join(before + gap + [bad] + after + [""]).encode())
    with pytest.raises(ParseError, match=re.escape(f"{path}:{len(before) + 3}:")):
        load(path)
    path.write_bytes("\r\n".join(before + gap + after + [""]).encode())
    assert load(path) == loaded


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
        assert np.array_equal(again.train.facts, split.train.facts)
        assert np.array_equal(again.test.facts, split.test.facts)

    def test_single_fact_relation_stays_in_train(self):
        store = self.make_store([1, 10])
        split = holdout_split(store, 0.3, seed=1)
        assert np.array_equal(split.train.tuples_of(0), store.tuples_of(0))
        assert len(split.test.tuples_of(0)) == 0

    def test_partition(self):
        store = self.make_store([3, 7, 12, 1])
        split = holdout_split(store, 0.25, seed=3)
        assert len(split.train) + len(split.test) == len(store)
        assert np.intersect1d(split.train.keys, split.test.keys).size == 0

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.1])
    def test_bad_fraction_errors(self, fraction):
        store = self.make_store([4])
        with pytest.raises(ValueError):
            holdout_split(store, fraction, seed=0)

    def test_empty_store_errors(self):
        store = FactStore(Vocab(), Vocab(), [])
        with pytest.raises(DataError):
            holdout_split(store, 0.2, seed=0)


class TestGoldenSplits:
    # SHA-256 of the int64 (relation, tuple) fact arrays of fixed-seed splits,
    # recorded with the list-backed store (numpy 2.4, x86-64). Equal digests
    # mean split selection changed no fact and no fact order.
    TRAIN = "712e7726e43128a6a7a6f1ff5774ce96d62d2cc77ee16bcbaec9ca5eedb02d63"
    TEST = "22a9326ee2a116a0ad075220ee066eac1f667740431b49130f117aecf5d385e8"
    SUBSAMPLED = {
        0.0: (709, "70bf13ec8bf968c9761f8c0d84863264ea0779cf17aaa6cfae5a4bd3f3fc2e09"),
        0.5: (968, "50eb0c08434f726d4b76fcd0ca68536282cce79499ae886d7389492eb2ffbf8d"),
    }

    @staticmethod
    def digest(store):
        facts = np.asarray(store.facts, dtype=np.int64).reshape(-1, 2)
        return hashlib.sha256(facts.tobytes()).hexdigest()

    @pytest.fixture(scope="class")
    def split(self):
        corpus = clustered_corpus(seed=3)
        return corpus, holdout_split(corpus.store, 0.2, seed=5)

    def test_holdout_split_matches_recorded_digest(self, split):
        corpus, split = split
        assert (len(corpus.store), len(split.train), len(split.test)) == (1543, 1231, 312)
        assert self.digest(split.train) == self.TRAIN
        assert self.digest(split.test) == self.TEST

    @pytest.mark.parametrize("fraction", [0.0, 0.5])
    def test_subsample_matches_recorded_digest(self, split, fraction):
        corpus, split = split
        implied = {rule.consequent for rule in corpus.rules}
        reduced = subsample_relation_facts(split.train, implied, fraction, seed=2)
        assert (len(reduced), self.digest(reduced)) == self.SUBSAMPLED[fraction]
