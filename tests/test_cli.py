import argparse
import csv
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import liftedkb
from liftedkb import cli, model
from liftedkb.cli import build_parser, main
from liftedkb.data import RESERVED_RELATIONS, holdout_split
from liftedkb.model import ModelConfig
from liftedkb.synthetic import clustered_corpus
from liftedkb.trainer import TrainOptions


@pytest.fixture()
def corpus_files(tmp_path):
    corpus = clustered_corpus(n_clusters=2, relations_per_cluster=4,
                              tuples_per_cluster=25, n_rules=2, seed=11)
    split = holdout_split(corpus.store, 0.2, seed=1)
    facts = tmp_path / "train.tsv"
    test = tmp_path / "test.tsv"
    rules = tmp_path / "rules.tsv"
    split.train.save(facts)
    # keep only test facts whose tuple still occurs in training, so the
    # checkpoint vocabulary covers the test file
    split.test.subset(np.isin(split.test.facts[:, 1], split.train.facts[:, 1])).save(test)
    from liftedkb.data import save_rules
    save_rules(rules, corpus.rules, corpus.store.relations)
    return {"facts": facts, "test": test, "rules": rules, "dir": tmp_path}


def run_train(files, outdir, variant="fs", seed=1, epochs=5, extra=()):
    args = ["train", "--facts", str(files["facts"]), "--out", str(outdir),
            "--variant", variant, "--epochs", str(epochs), "--seed", str(seed),
            "--k", "6", "--batch-size", "64"]
    if variant == "fsl":
        args += ["--rules", str(files["rules"])]
    return main(args + list(extra))


class TestTrainCommand:
    def test_writes_outputs_and_manifest(self, corpus_files, tmp_path):
        out = tmp_path / "run"
        assert run_train(corpus_files, out) == 0
        assert (out / "checkpoint.txt").exists()
        assert (out / "metrics.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == [str(out / "checkpoint.txt"), str(out / "metrics.csv")]
        assert manifest["flags"]["k"] == 6
        assert manifest["flags"]["alpha"] == 0.01
        assert manifest["flags"]["learning_rate"] == 0.005
        assert manifest["flags"]["beta_tilde"] == 0.1
        assert manifest["flags"]["delta"] == 0.01
        assert str(corpus_files["facts"]) in manifest["inputs"]

    def test_default_flags_record_reference_hyperparameters(self, corpus_files, tmp_path):
        out = tmp_path / "run"
        args = ["train", "--facts", str(corpus_files["facts"]), "--out", str(out),
                "--epochs", "0", "--seed", "1"]
        assert main(args) == 0
        flags = json.loads((out / "manifest.json").read_text())["flags"]
        assert flags["k"] == 100
        assert flags["alpha"] == 0.01
        assert flags["learning_rate"] == 0.005
        assert flags["batch_size"] == 8192
        assert flags["beta_tilde"] == 0.1
        assert flags["delta"] == 0.01

    def test_rerun_is_byte_identical(self, corpus_files, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_train(corpus_files, out1, variant="fs", seed=3) == 0
        assert run_train(corpus_files, out2, variant="fs", seed=3) == 0
        assert (out1 / "checkpoint.txt").read_bytes() == (out2 / "checkpoint.txt").read_bytes()

    def test_fsl_without_rules_is_usage_error(self, corpus_files, tmp_path):
        args = ["train", "--facts", str(corpus_files["facts"]),
                "--out", str(tmp_path / "x"), "--variant", "fsl", "--epochs", "1"]
        assert main(args) == 1

    @pytest.mark.parametrize("variant", ["f", "fs"])
    def test_rules_without_fsl_is_usage_error_before_loading(self, tmp_path, capsys,
                                                             variant):
        # f and fs train without rules, so a rule file would be validated,
        # listed in the manifest and then ignored
        args = ["train", "--facts", str(tmp_path / "absent.tsv"), "--rules", "absent.tsv",
                "--variant", variant, "--out", str(tmp_path / "x"), "--epochs", "1"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f"usage error: --rules is used only with --variant fsl; --variant {variant}" in err
        assert "absent.tsv" not in err
        assert not (tmp_path / "x").exists()

    def test_unknown_variant_is_usage_error(self, corpus_files, tmp_path):
        args = ["train", "--facts", str(corpus_files["facts"]),
                "--out", str(tmp_path / "x"), "--variant", "bogus", "--epochs", "1"]
        assert main(args) == 1

    def test_metrics_csv_plain_numbers(self, corpus_files, tmp_path):
        out = tmp_path / "run"
        assert run_train(corpus_files, out, variant="fsl", epochs=3) == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "recon", "l2", "implication", "total", "seconds",
                           "collision_rate", "rule_seconds", "dropped_pairs",
                           "sample_seconds", "grad_seconds", "adam_seconds", "adam_rows"]
        assert [row[0] for row in rows[1:]] == ["0", "1", "2"]
        for row in rows[1:]:
            values = [float(cell) for cell in row]
            assert all(np.isfinite(values))
            assert 0.0 <= values[6] <= 1.0
            assert values[7] > 0.0
            assert row[8] == str(int(row[8]))
            # the phase timers are parts of the epoch's `seconds`
            assert all(values[i] > 0.0 for i in (9, 10, 11))
            assert values[7] + sum(values[9:12]) <= values[5]
            assert row[12] == str(int(row[12])) and int(row[12]) > 0

    def test_missing_facts_file(self, tmp_path):
        args = ["train", "--facts", str(tmp_path / "absent.tsv"),
                "--out", str(tmp_path / "x"), "--epochs", "1"]
        assert main(args) == 1

    def test_invalid_flag_value_is_usage_error(self, corpus_files, tmp_path, capsys):
        args = ["train", "--facts", str(corpus_files["facts"]),
                "--out", str(tmp_path / "x"), "--epochs", "1", "--k", "0"]
        assert main(args) == 1
        assert "usage error: k must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--delta", "nan"), ("--alpha", "inf"), ("--beta-tilde", "nan"),
        ("--delta", "inf"), ("--learning-rate", "nan"), ("--learning-rate", "inf")])
    def test_non_finite_setting_is_usage_error_before_loading(self, tmp_path, capsys,
                                                              flag, value):
        args = ["train", "--facts", str(tmp_path / "absent.tsv"), "--rules", "absent.tsv",
                "--variant", "fsl", "--out", str(tmp_path / "x"), "--epochs", "1",
                flag, value]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "must be finite" in err and "absent.tsv" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", [
        ["train"], ["analyze", "zero-shot", "--test", "absent.tsv"]])
    def test_negative_seed_is_usage_error_before_loading(self, tmp_path, capsys, command):
        args = command + ["--facts", str(tmp_path / "absent.tsv"), "--rules", "absent.tsv",
                          "--variant", "fsl", "--out", str(tmp_path / "x"),
                          "--epochs", "1", "--seed", "-1"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "usage error: seed must be >= 0, got -1" in err and "absent.tsv" not in err
        assert not (tmp_path / "x").exists()

    def test_whitespace_in_name_is_data_error(self, tmp_path, capsys):
        facts = tmp_path / "facts.tsv"
        facts.write_text("r\ta|b\nborn in\tA|B\n", encoding="utf-8")
        args = ["train", "--facts", str(facts), "--out", str(tmp_path / "x"),
                "--epochs", "1", "--k", "2"]
        assert main(args) == 2
        assert "facts.tsv:2: relation name 'born in' holds whitespace" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("r\ta|b\nWEIGHTED_MAP\tc|d\nborn in\tA|B\n", "relation name 'WEIGHTED_MAP' is reserved"),
        ("r\ta|b\nborn in\tA|B\n\nnotab\n", "relation name 'born in' holds whitespace"),
    ], ids=["reserved-before-whitespace", "whitespace-before-missing-tab"])
    def test_first_bad_line_is_named_whatever_its_fault(self, tmp_path, capsys, text, message):
        facts = tmp_path / "facts.tsv"
        facts.write_text(text, encoding="utf-8")
        args = ["train", "--facts", str(facts), "--out", str(tmp_path / "x"),
                "--epochs", "1", "--k", "2"]
        assert main(args) == 2
        assert f"facts.tsv:2: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_reserved_relation_name_is_data_error(self, tmp_path, capsys):
        facts = tmp_path / "facts.tsv"
        facts.write_text("r\ta|b\nWEIGHTED_MAP\tc|d\n", encoding="utf-8")
        args = ["train", "--facts", str(facts), "--out", str(tmp_path / "x"),
                "--epochs", "1", "--k", "2"]
        assert main(args) == 2
        assert "facts.tsv:2: relation name 'WEIGHTED_MAP' is reserved" in capsys.readouterr().err

    def test_undecodable_facts_file_is_data_error(self, tmp_path):
        facts = tmp_path / "facts.tsv"
        facts.write_bytes(b"r\ta\xff|b\n")
        args = ["train", "--facts", str(facts), "--out", str(tmp_path / "x"), "--epochs", "1"]
        assert main(args) == 2

    def test_internal_value_error_propagates(self, corpus_files, tmp_path, monkeypatch):
        def broken_train(*args, **kwargs):
            raise ValueError("internal fault")
        monkeypatch.setattr("liftedkb.trainer.train", broken_train)
        with pytest.raises(ValueError, match="internal fault"):
            run_train(corpus_files, tmp_path / "run")


class TestEvalCommand:
    def test_csv_shape_and_summary_row(self, corpus_files, tmp_path):
        out = tmp_path / "run"
        assert run_train(corpus_files, out, epochs=10) == 0
        report = tmp_path / "eval.csv"
        assert main(["eval", "--checkpoint", str(out / "checkpoint.txt"),
                     "--test", str(corpus_files["test"]),
                     "--train-facts", str(corpus_files["facts"]),
                     "--variant", "fs", "--out", str(report)]) == 0
        with open(report, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["relation", "test_facts", "average_precision"]
        assert rows[-1][0] == "WEIGHTED_MAP"
        for row in rows[1:-1]:
            assert 0.0 <= float(row[2]) <= 1.0
        assert (tmp_path / "eval.csv.manifest.json").exists()

    def test_deterministic(self, corpus_files, tmp_path):
        out = tmp_path / "run"
        run_train(corpus_files, out, epochs=5)
        r1, r2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        base = ["eval", "--checkpoint", str(out / "checkpoint.txt"),
                "--test", str(corpus_files["test"]),
                "--train-facts", str(corpus_files["facts"]), "--variant", "fs"]
        assert main(base + ["--out", str(r1)]) == 0
        assert main(base + ["--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def eval_argv(self, corpus_files, checkpoint, out, *variant):
        return ["eval", "--checkpoint", str(checkpoint), "--test", str(corpus_files["test"]),
                "--train-facts", str(corpus_files["facts"]), "--out", str(out), *variant]

    @pytest.mark.parametrize("variant", ["f", "fs", "fsl"])
    def test_variant_comes_from_checkpoint(self, corpus_files, tmp_path, variant):
        assert run_train(corpus_files, tmp_path / "run", variant=variant) == 0
        ckpt = tmp_path / "run" / "checkpoint.txt"
        derived, given = tmp_path / "derived.csv", tmp_path / "given.csv"
        assert main(self.eval_argv(corpus_files, ckpt, derived)) == 0
        assert main(self.eval_argv(corpus_files, ckpt, given, "--variant", variant)) == 0
        assert derived.read_bytes() == given.read_bytes()
        flags = json.loads((tmp_path / "derived.csv.manifest.json").read_text())["flags"]
        assert flags["variant"] == variant

    def test_mismatched_variant_is_usage_error(self, corpus_files, tmp_path, capsys):
        assert run_train(corpus_files, tmp_path / "run", variant="fs", epochs=0) == 0
        argv = self.eval_argv(corpus_files, tmp_path / "run" / "checkpoint.txt",
                              tmp_path / "e.csv", "--variant", "f")
        assert main(argv) == 1
        assert "--variant f does not match the checkpoint's variant fs" in \
            capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    def test_checkpoint_without_variant_is_data_error(self, corpus_files, tmp_path, capsys):
        assert run_train(corpus_files, tmp_path / "run", variant="fs", epochs=0) == 0
        ckpt = tmp_path / "run" / "checkpoint.txt"
        lines = ckpt.read_text(encoding="utf-8").splitlines(keepends=True)
        ckpt.write_text("k 6\n" + "".join(lines[1:]), encoding="utf-8")
        assert main(self.eval_argv(corpus_files, ckpt, tmp_path / "e.csv")) == 2
        assert "checkpoint.txt:1: expected header `k <dim> variant <f|fs|fsl>`" in \
            capsys.readouterr().err

    def vocabulary_mismatch_error(self, corpus_files, tmp_path, capsys, flag):
        """stderr of an eval whose `flag` file has an unknown-name line 2."""
        out = tmp_path / "run"
        run_train(corpus_files, out, epochs=0)
        known = corpus_files["test"].read_text(encoding="utf-8").splitlines()[0]
        bad = tmp_path / "bad.tsv"
        bad.write_text(f"{known}\nno_such_relation\tno_such_tuple\n{known}\n",
                       encoding="utf-8")
        files = {"--test": corpus_files["test"], "--train-facts": corpus_files["facts"],
                 flag: bad}
        code = main(["eval", "--checkpoint", str(out / "checkpoint.txt"),
                     "--test", str(files["--test"]), "--train-facts", str(files["--train-facts"]),
                     "--out", str(tmp_path / "e.csv")])
        assert code == 2
        return bad, capsys.readouterr().err

    def test_vocabulary_mismatch_is_data_error(self, corpus_files, tmp_path, capsys):
        bad, err = self.vocabulary_mismatch_error(corpus_files, tmp_path, capsys, "--test")
        # the first offending line, then every missing name
        assert (f"{bad}:2: names missing from the training vocabulary: "
                "no_such_relation, no_such_tuple\n") in err

    def test_train_facts_vocabulary_mismatch_names_its_line(self, corpus_files, tmp_path,
                                                            capsys):
        bad, err = self.vocabulary_mismatch_error(corpus_files, tmp_path, capsys,
                                                  "--train-facts")
        assert f"{bad}:2: names missing from the training vocabulary" in err

    def test_duplicate_checkpoint_name_is_data_error(self, corpus_files, tmp_path, capsys):
        out = tmp_path / "run"
        run_train(corpus_files, out, epochs=0)
        lines = (out / "checkpoint.txt").read_text(encoding="utf-8").splitlines()
        lines.insert(2, lines[1])
        (out / "checkpoint.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["eval", "--checkpoint", str(out / "checkpoint.txt"),
                     "--test", str(corpus_files["test"]), "--out", str(tmp_path / "e.csv")]) == 2
        err = capsys.readouterr().err
        assert "checkpoint.txt:3: relation name '" in err and "' is repeated" in err

    def test_reformatted_checkpoint_evaluates_the_same(self, corpus_files, tmp_path, capsys):
        # CRLF line ends, tab separators and a blank line read as the
        # writer's layout; a value `float()` would read as 10 is exit 2
        out = tmp_path / "run"
        run_train(corpus_files, out, epochs=2)
        lines = (out / "checkpoint.txt").read_text(encoding="utf-8").splitlines()

        def evaluate(name, text):
            (tmp_path / f"{name}.txt").write_bytes(text.encode("utf-8"))
            return main(["eval", "--checkpoint", str(tmp_path / f"{name}.txt"),
                         "--test", str(corpus_files["test"]),
                         "--out", str(tmp_path / f"{name}.csv")])

        assert evaluate("original", "\n".join(lines) + "\n") == 0
        tabbed = [lines[0], "", *(line.replace(" ", "\t") for line in lines[1:])]
        assert evaluate("reformatted", "\r\n".join(tabbed) + "\r\n") == 0
        assert ((tmp_path / "reformatted.csv").read_bytes()
                == (tmp_path / "original.csv").read_bytes())
        lines[1] = lines[1].rsplit(" ", 1)[0] + " 1_0"
        assert evaluate("underscore", "\n".join(lines) + "\n") == 2
        assert "underscore.txt:2: non-numeric value" in capsys.readouterr().err

    @pytest.mark.parametrize("relation, tuple_name, code", [
        ("WEIGHTED_MAP", "t", 2), ("r", "WEIGHTED_MAP", 0)], ids=["relation", "tuple"])
    def test_reserved_name_in_checkpoint(self, tmp_path, capsys, relation, tuple_name, code):
        # a hand-edited checkpoint: a relation named WEIGHTED_MAP would write a
        # second summary row; a tuple of that name is ordinary
        ckpt, test, out = tmp_path / "ckpt.txt", tmp_path / "test.tsv", tmp_path / "e.csv"
        ckpt.write_text(f"k 2 variant fs\nR s 0.5 -0.5\nR {relation} 0.1 0.2\n"
                        f"E {tuple_name} 1.0 -1.0\nE u -1.0 1.0\n", encoding="utf-8")
        test.write_text(f"{relation}\t{tuple_name}\n", encoding="utf-8")
        assert main(["eval", "--checkpoint", str(ckpt), "--test", str(test),
                     "--out", str(out)]) == code
        if code:
            assert f"{ckpt}:3: relation name 'WEIGHTED_MAP' is reserved" \
                in capsys.readouterr().err
            assert not out.exists()
        else:
            rows = out.read_text(encoding="utf-8").splitlines()
            assert [row.split(",")[0] for row in rows] == ["relation", "r", "WEIGHTED_MAP"]

    def test_test_fact_in_training_facts_is_data_error(self, corpus_files, tmp_path, capsys):
        out = tmp_path / "run"
        run_train(corpus_files, out, epochs=0)
        assert main(["eval", "--checkpoint", str(out / "checkpoint.txt"),
                     "--test", str(corpus_files["facts"]),
                     "--train-facts", str(corpus_files["facts"]),
                     "--out", str(tmp_path / "e.csv")]) == 2
        # the first clashing fact is the file's first line, named as written
        first = corpus_files["facts"].read_text(encoding="utf-8").splitlines()[0]
        assert f"training fact: {first}\n" in capsys.readouterr().err

    def test_empty_test_file_is_data_error(self, corpus_files, tmp_path):
        out = tmp_path / "run"
        run_train(corpus_files, out, epochs=0)
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        assert main(["eval", "--checkpoint", str(out / "checkpoint.txt"),
                     "--test", str(empty), "--out", str(tmp_path / "e.csv")]) == 2


class TestMineCommand:
    def test_decision_without_separator_names_its_line(self, tmp_path, capsys):
        facts = tmp_path / "facts.tsv"
        facts.write_text("p->dog->q\tx\np->animal->q\tx\n", encoding="utf-8")
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("dog\tanimal\n", encoding="utf-8")
        decisions = tmp_path / "decisions.tsv"
        decisions.write_text("reject\tp->dog->q => p->animal->q\naccept\tfoo bar\n",
                             encoding="utf-8")
        assert main(["mine", "--facts", str(facts), "--lexicon", str(lexicon),
                     "--decisions", str(decisions), "--out", str(tmp_path / "r.tsv")]) == 2
        assert f"data error: {decisions}:2: missing `=>` separator in 'foo bar'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("first, second", [("accept", "reject"), ("reject", "accept")])
    def test_conflicting_decisions_name_both_lines(self, tmp_path, capsys, first, second):
        facts = tmp_path / "facts.tsv"
        facts.write_text("p->dog->q\tx\np->animal->q\tx\n", encoding="utf-8")
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("dog\tanimal\n", encoding="utf-8")
        decisions = tmp_path / "decisions.tsv"
        decisions.write_text(f"{first}\tp->dog->q => p->animal->q\n"
                             f"{first}\tp->dog->q => p->animal->q\n"
                             f"{second}\tp->dog->q\t=>\tp->animal->q\n", encoding="utf-8")
        out = tmp_path / "r.tsv"
        assert main(["mine", "--facts", str(facts), "--lexicon", str(lexicon),
                     "--decisions", str(decisions), "--out", str(out)]) == 2
        assert (f"data error: {decisions}:3: {second} of p->dog->q => p->animal->q "
                f"conflicts with the {first} at line 1") in capsys.readouterr().err
        assert not out.exists()

    def test_reference_example(self, tmp_path):
        facts = tmp_path / "facts.tsv"
        facts.write_text("appos->diplomat->amod\ta|b\nappos->official->amod\ta|b\n",
                         encoding="utf-8")
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("diplomat\tofficial\n", encoding="utf-8")
        out = tmp_path / "rules.tsv"
        assert main(["mine", "--facts", str(facts), "--lexicon", str(lexicon),
                     "--out", str(out)]) == 0
        assert out.read_text() == "appos->diplomat->amod\t=>\tappos->official->amod\n"

    def test_mined_rules_train(self, tmp_path):
        # patterns whose words hold `=>`: the rule file `mine` writes is one
        # `train --rules` reads back (the third fact gives a negative tuple)
        facts = tmp_path / "facts.tsv"
        facts.write_text("appos->diplomat=>x->amod\ta|b\nappos->official=>x->amod\ta|b\n"
                         "appos->official=>x->amod\tc|d\n", encoding="utf-8")
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("diplomat=>x\tofficial=>x\n", encoding="utf-8")
        mined = tmp_path / "mined.tsv"
        assert main(["mine", "--facts", str(facts), "--lexicon", str(lexicon),
                     "--out", str(mined)]) == 0
        assert mined.read_text() == "appos->diplomat=>x->amod\t=>\tappos->official=>x->amod\n"
        out = tmp_path / "run"
        assert main(["train", "--facts", str(facts), "--variant", "fsl", "--rules", str(mined),
                     "--epochs", "1", "--k", "4", "--delta", "1", "--out", str(out)]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        # a margin of 1 keeps the loaded rule's hinge open on every dimension
        assert float(row["implication"]) > 0.0
        # and the rule's relations head the matrix columns by name
        matrix = tmp_path / "matrix.csv"
        assert main(["analyze", "matrix", "--checkpoint", str(out / "checkpoint.txt"),
                     "--rules", str(mined), "--out", str(matrix)]) == 0
        with open(matrix, newline="") as fh:
            header = next(csv.reader(fh))
        assert sorted(header[1:]) == ["appos->diplomat=>x->amod", "appos->official=>x->amod"]

    def test_no_matches_writes_empty_file(self, tmp_path, capsys):
        facts = tmp_path / "facts.tsv"
        facts.write_text("a->b\tx\n", encoding="utf-8")
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("q\tz\n", encoding="utf-8")
        out = tmp_path / "rules.tsv"
        assert main(["mine", "--facts", str(facts), "--lexicon", str(lexicon),
                     "--out", str(out)]) == 0
        assert out.read_text() == ""
        assert "mined 0" in capsys.readouterr().out

    def test_rerun_byte_identical(self, tmp_path):
        facts = tmp_path / "facts.tsv"
        facts.write_text("p->dog->q\tx\np->animal->q\tx\n", encoding="utf-8")
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("dog\tanimal\n", encoding="utf-8")
        o1, o2 = tmp_path / "r1.tsv", tmp_path / "r2.tsv"
        for out in (o1, o2):
            assert main(["mine", "--facts", str(facts), "--lexicon", str(lexicon),
                         "--out", str(out)]) == 0
        assert o1.read_bytes() == o2.read_bytes()


class TestAnalyzeCommand:
    def trained(self, corpus_files, tmp_path, variant="fsl"):
        out = tmp_path / "run"
        assert run_train(corpus_files, out, variant=variant, epochs=10) == 0
        return out / "checkpoint.txt"

    def test_asymmetry_csv(self, corpus_files, tmp_path):
        ckpt = self.trained(corpus_files, tmp_path)
        report = tmp_path / "asym.csv"
        assert main(["analyze", "asymmetry", "--checkpoint", str(ckpt),
                     "--rules", str(corpus_files["rules"]),
                     "--train-facts", str(corpus_files["facts"]),
                     "--out", str(report)]) == 0
        with open(report, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["antecedent", "consequent", "mean_forward", "mean_backward"]
        assert rows[-1][0] == "GRAND_MEAN"
        for row in rows[1:-1]:
            assert 0.0 <= float(row[2]) <= 1.0
            assert 0.0 <= float(row[3]) <= 1.0

    def test_summary_rows_name_the_reserved_relations(self, corpus_files, tmp_path):
        # the loaders reject these names as relations, so no relation row can
        # repeat a summary row's name
        ckpt = self.trained(corpus_files, tmp_path)
        reports = {"eval.csv": ["eval", "--test", str(corpus_files["test"])],
                   "asym.csv": ["analyze", "asymmetry", "--rules", str(corpus_files["rules"]),
                                "--train-facts", str(corpus_files["facts"])]}
        last_rows = []
        for name, argv in reports.items():
            assert main(argv + ["--checkpoint", str(ckpt), "--out", str(tmp_path / name)]) == 0
            with open(tmp_path / name, newline="") as fh:
                last_rows.append(list(csv.reader(fh))[-1][0])
        assert last_rows == list(RESERVED_RELATIONS)

    def test_asymmetry_scores_as_the_checkpoint_variant(self, corpus_files, tmp_path):
        ckpt = self.trained(corpus_files, tmp_path, variant="f")

        def run(name, *variant):
            out = tmp_path / name
            assert main(["analyze", "asymmetry", "--checkpoint", str(ckpt),
                         "--rules", str(corpus_files["rules"]),
                         "--train-facts", str(corpus_files["facts"]),
                         "--out", str(out), *variant]) == 0
            flags = json.loads(out.with_suffix(".csv.manifest.json").read_text())["flags"]
            return out.read_bytes(), flags["variant"]

        derived = run("derived.csv")
        assert derived == run("given.csv", "--variant", "f")
        assert derived[1] == "f"

    def test_matrix_csv_sorted_by_l1(self, corpus_files, tmp_path):
        import numpy as np
        ckpt = self.trained(corpus_files, tmp_path)
        report = tmp_path / "matrix.csv"
        assert main(["analyze", "matrix", "--checkpoint", str(ckpt),
                     "--rules", str(corpus_files["rules"]),
                     "--out", str(report)]) == 0
        with open(report, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header[0] == "dimension"
        matrix = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        assert matrix.shape[0] == 6  # k dimensions
        norms = np.abs(matrix).sum(axis=0)
        assert np.all(np.diff(norms) >= 0)

    def test_zero_shot_csv(self, corpus_files, tmp_path):
        report = tmp_path / "zs.csv"
        assert main(["analyze", "zero-shot", "--facts", str(corpus_files["facts"]),
                     "--test", str(corpus_files["test"]),
                     "--rules", str(corpus_files["rules"]),
                     "--fractions", "0,0.25,0.5,1.0",
                     "--k", "6", "--epochs", "3", "--batch-size", "64",
                     "--out", str(report)]) == 0
        with open(report, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["fraction", "weighted_map"]
        assert len(rows) == 5
        assert [float(r[0]) for r in rows[1:]] == [0.0, 0.25, 0.5, 1.0]

    def test_zero_shot_honours_variant(self, corpus_files, tmp_path):
        def run(*variant):
            out = tmp_path / f"zs{'-'.join(variant)}.csv"
            assert main(["analyze", "zero-shot", "--facts", str(corpus_files["facts"]),
                         "--test", str(corpus_files["test"]),
                         "--rules", str(corpus_files["rules"]), "--fractions", "0,1.0",
                         "--k", "6", "--epochs", "3", "--batch-size", "64",
                         "--out", str(out), *variant]) == 0
            flags = json.loads(out.with_suffix(".csv.manifest.json").read_text())["flags"]
            return out.read_bytes(), flags["variant"]

        default, fsl, fs = run(), run("--variant", "fsl"), run("--variant", "fs")
        assert default == (fsl[0], "fsl")
        assert fs[1] == "fs" and fs[0] != fsl[0]

    @pytest.mark.parametrize("fractions", ["0,x", "0.5,0.25", "0,0", "nan", "-0.5,1",
                                           "0,1.5"])
    def test_bad_fractions_are_usage_errors(self, corpus_files, tmp_path, fractions):
        assert main(["analyze", "zero-shot", "--facts", str(corpus_files["facts"]),
                     "--test", str(corpus_files["test"]),
                     "--rules", str(corpus_files["rules"]), f"--fractions={fractions}",
                     "--epochs", "1", "--out", str(tmp_path / "zs.csv")]) == 1

    def test_rules_with_no_known_relation_are_data_errors(self, corpus_files, tmp_path, capsys):
        ckpt = self.trained(corpus_files, tmp_path)
        rules = tmp_path / "unknown.tsv"
        rules.write_text("nowhere\t=>\tnobody\n", encoding="utf-8")
        runs = {"no rule-involved relations to export":
                ["analyze", "matrix", "--checkpoint", str(ckpt)],
                "needs at least one resolvable rule":
                ["analyze", "zero-shot", "--facts", str(corpus_files["facts"]),
                 "--test", str(corpus_files["test"]), "--epochs", "1"]}
        for message, argv in runs.items():
            capsys.readouterr()
            assert main(argv + ["--rules", str(rules), "--out", str(tmp_path / "x.csv")]) == 2
            assert message in capsys.readouterr().err

    def test_missing_mode_inputs_usage_error(self, corpus_files, tmp_path):
        assert main(["analyze", "asymmetry", "--rules", str(corpus_files["rules"]),
                     "--out", str(tmp_path / "x.csv")]) == 1


def _subparser(*names):
    parser = build_parser()
    for name in names:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


class TestFlagSchema:
    @pytest.mark.parametrize("command, own_defaults", [
        (("train",), {}), (("analyze", "zero-shot"), {"variant": "fsl"})],
        ids=["train", "zero-shot"])
    def test_one_flag_per_config_field(self, command, own_defaults):
        actions = {a.option_strings[0]: a for a in _subparser(*command)._actions
                   if a.option_strings}
        for field in dataclasses.fields(ModelConfig) + dataclasses.fields(TrainOptions):
            action = actions["--" + field.name.replace("_", "-")]
            assert action.dest == field.name
            if field.default is dataclasses.MISSING:
                assert action.required
            else:
                assert not action.required
                assert action.default == own_defaults.get(field.name, field.default)


class TestExitCodes:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("case", ["facts-is-directory", "out-is-file",
                                      "facts-under-file", "eval-out-is-directory"])
    def test_path_of_wrong_kind_is_usage_error(self, corpus_files, tmp_path, capsys, case):
        facts, run = str(corpus_files["facts"]), tmp_path / "run"
        train = ["train", "--epochs", "1", "--facts"]
        argv = {
            "facts-is-directory": train + [str(tmp_path), "--out", str(run)],
            "out-is-file": train + [facts, "--out", facts],
            "facts-under-file": train + [f"{facts}/train.tsv", "--out", str(run)],
            "eval-out-is-directory": ["eval", "--checkpoint", str(run / "checkpoint.txt"),
                                      "--test", str(corpus_files["test"]), "--out", str(tmp_path)],
        }[case]
        if case == "eval-out-is-directory":
            assert run_train(corpus_files, run, epochs=0) == 0
            capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len([line for line in err if line.startswith("error: ")]) == 1

    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_non_finite_loss_is_numerical_abort(self, corpus_files, tmp_path, capsys,
                                                monkeypatch):
        real = model.recon_l2_gradients

        def nan_loss(*args):
            grads, _, l2 = real(*args)
            return grads, float("nan"), l2

        monkeypatch.setattr(model, "recon_l2_gradients", nan_loss)
        out = tmp_path / "run"
        assert run_train(corpus_files, out, epochs=1) == 3
        assert capsys.readouterr().err.startswith("numerical abort: non-finite loss at epoch 0")
        assert not any((out / name).exists()
                       for name in ("checkpoint.txt", "metrics.csv", "manifest.json"))

    def test_divergence_is_numerical_abort(self, corpus_files, tmp_path, capsys):
        # a real divergence, under pyproject.toml's RuntimeWarning-as-error
        # filter: the first overflow aborts the run instead of escaping as a
        # RuntimeWarning traceback
        out = tmp_path / "run"
        assert run_train(corpus_files, out, epochs=3, extra=["--learning-rate", "1e300"]) == 3
        assert capsys.readouterr().err.startswith("numerical abort: overflow encountered")
        assert not any((out / name).exists()
                       for name in ("checkpoint.txt", "metrics.csv", "manifest.json"))

    def test_python_dash_m_exit_code(self, tmp_path):
        # a real interpreter, so that the exit code is the one a shell sees
        src = str(Path(liftedkb.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "liftedkb", *argv], cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=120)

        assert run("--help").returncode == 0
        missing = run("train", "--facts", "missing.tsv", "--out", "run", "--epochs", "1")
        assert missing.returncode == 1
        assert "missing.tsv" in missing.stderr and not (tmp_path / "run").exists()


@pytest.fixture()
def workdir(corpus_files, monkeypatch):
    """`corpus_files`' directory as the working directory, with mining inputs
    and an FSL checkpoint at run/checkpoint.txt, so commands take relative paths."""
    monkeypatch.chdir(corpus_files["dir"])
    Path("patterns.tsv").write_text("appos->diplomat->amod\ta|b\nappos->official->amod\ta|b\n",
                                    encoding="utf-8")
    Path("lexicon.tsv").write_text("diplomat\tofficial\n", encoding="utf-8")
    Path("decisions.tsv").write_text("accept\tappos->diplomat->amod => appos->official->amod\n",
                                     encoding="utf-8")
    assert main(["train", "--facts", "train.tsv", "--rules", "rules.tsv", "--variant", "fsl",
                 "--epochs", "0", "--k", "4", "--out", "run"]) == 0
    return corpus_files["dir"]


@pytest.fixture()
def commands_run(monkeypatch):
    """The names of the `cli.cmd_*` functions called, in call order."""
    ran = []
    for name, command in list(vars(cli).items()):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, command=command:
                                ran.append(name) or command(*a))
    return ran


def _manifests(directory):
    return {str(p.relative_to(directory)) for p in directory.rglob("*manifest.json")}


CKPT = ["--checkpoint", "run/checkpoint.txt"]
MINE = ["mine", "--facts", "patterns.tsv", "--lexicon", "lexicon.tsv"]
MANIFEST_CASES = {
    # id: (argv, manifest path, command, input files, outputs)
    "train": (["train", "--facts", "train.tsv", "--rules", "rules.tsv", "--variant", "fsl",
               "--epochs", "1", "--k", "4", "--out", "run2"], "run2/manifest.json", "train",
              ["train.tsv", "rules.tsv"], ["run2/checkpoint.txt", "run2/metrics.csv"]),
    "eval": (["eval", *CKPT, "--test", "test.tsv", "--out", "eval.csv"],
             "eval.csv.manifest.json", "eval", ["run/checkpoint.txt", "test.tsv"],
             ["eval.csv"]),
    "eval-train-facts": (["eval", *CKPT, "--test", "test.tsv", "--train-facts", "train.tsv",
                          "--out", "eval.csv"], "eval.csv.manifest.json", "eval",
                         ["run/checkpoint.txt", "test.tsv", "train.tsv"], ["eval.csv"]),
    "mine": ([*MINE, "--out", "mined.tsv"], "mined.tsv.manifest.json", "mine",
             ["patterns.tsv", "lexicon.tsv"], ["mined.tsv"]),
    "mine-decisions": ([*MINE, "--decisions", "decisions.tsv", "--out", "mined.tsv"],
                       "mined.tsv.manifest.json", "mine",
                       ["patterns.tsv", "lexicon.tsv", "decisions.tsv"], ["mined.tsv"]),
    "asymmetry": (["analyze", "asymmetry", *CKPT, "--rules", "rules.tsv",
                   "--train-facts", "train.tsv", "--out", "asym.csv"],
                  "asym.csv.manifest.json", "analyze asymmetry",
                  ["run/checkpoint.txt", "rules.tsv", "train.tsv"], ["asym.csv"]),
    "matrix-dot-slash": (["analyze", "matrix", *CKPT, "--rules", "rules.tsv",
                          "--out", "./matrix.csv"], "matrix.csv.manifest.json",
                         "analyze matrix", ["run/checkpoint.txt", "rules.tsv"],
                         ["matrix.csv"]),
    "zero-shot": (["analyze", "zero-shot", "--facts", "train.tsv", "--test", "test.tsv",
                   "--rules", "rules.tsv", "--fractions", "0,1", "--epochs", "1", "--k", "4",
                   "--out", "zs.csv"], "zs.csv.manifest.json", "analyze zero-shot",
                  ["train.tsv", "test.tsv", "rules.tsv"], ["zs.csv"]),
}


class TestManifest:
    @pytest.mark.parametrize("argv, manifest, command, inputs, outputs",
                             MANIFEST_CASES.values(), ids=MANIFEST_CASES.keys())
    def test_every_command_records_its_run(self, workdir, argv, manifest, command, inputs,
                                           outputs):
        before = _manifests(workdir)
        assert main(argv) == 0
        assert _manifests(workdir) - before == {manifest}
        record = json.loads((workdir / manifest).read_text(encoding="utf-8"))
        assert record["command"] == command
        assert record["environment"] == {"python": platform.python_version(),
                                         "numpy": np.__version__, "scipy": scipy.__version__}
        assert record["inputs"] == {path: hashlib.sha256((workdir / path).read_bytes())
                                    .hexdigest() for path in inputs}
        assert record["outputs"] == outputs
        assert all((workdir / path).is_file() for path in outputs)

    @pytest.mark.parametrize("argv, flag", [
        (["eval", *CKPT, "--test", "test.tsv", "--out", "./test.tsv"], "--test"),
        (["eval", *CKPT, "--test", "test.tsv", "--out", "run/checkpoint.txt"], "--checkpoint"),
        ([*MINE, "--out", "lexicon.tsv"], "--lexicon"),
        ([*MINE, "--decisions", "decisions.tsv", "--out", "{dir}/decisions.tsv"], "--decisions"),
    ], ids=["eval-test", "eval-checkpoint", "mine-lexicon", "mine-decisions-absolute"])
    def test_out_that_is_an_input_is_usage_error(self, workdir, capsys, argv, flag):
        argv = [arg.format(dir=workdir) for arg in argv]
        target = workdir / argv[-1]
        before, manifests = target.read_bytes(), _manifests(workdir)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --out ")
        assert f"would overwrite the {flag} file" in err[0]
        assert target.read_bytes() == before
        assert _manifests(workdir) == manifests

    @pytest.mark.parametrize("argv, flag, source", [
        (["train", "--facts", "run/metrics.csv", "--epochs", "1", "--k", "4", "--out", "run"],
         "--facts", "train.tsv"),
        (["eval", *CKPT, "--test", "e.csv.manifest.json", "--out", "e.csv"], "--test",
         "test.tsv"),
        (["mine", "--facts", "patterns.tsv", "--lexicon", "mined.tsv.manifest.json",
          "--out", "mined.tsv"], "--lexicon", "lexicon.tsv"),
    ], ids=["train-facts-is-metrics", "eval-test-is-manifest", "mine-lexicon-is-manifest"])
    def test_written_file_that_is_an_input_is_usage_error(self, workdir, capsys, argv, flag,
                                                          source):
        # the input holds what its flag reads, so a run that got past the
        # guard would succeed and overwrite it
        target = argv[argv.index(flag) + 1]
        shutil.copyfile(source, target)
        before = {p: p.read_bytes() for p in workdir.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --out ")
        assert f"would overwrite the {flag} file {target}" in err[0]
        assert {p: p.read_bytes() for p in workdir.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("argv, directory", [
        (["eval", *CKPT, "--test", "test.tsv", "--out", "outdir"], "outdir"),
        (MANIFEST_CASES["train"][0], "run2/checkpoint.txt"),
        (["eval", *CKPT, "--test", "test.tsv", "--out", "e2.csv"], "e2.csv.manifest.json"),
    ], ids=["eval-out", "train-checkpoint", "eval-manifest"])
    def test_written_file_that_is_a_directory_is_usage_error(self, workdir, capsys, commands_run,
                                                              argv, directory):
        # found before the command runs, not after its work
        Path(directory).mkdir(parents=True)
        before = {p: p.read_bytes() for p in workdir.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --out ")
        assert f"would write the file {directory}, which is a directory" in err[0]
        assert commands_run == []
        assert {p: p.read_bytes() for p in workdir.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("argv, folder, problem", [
        (["eval", *CKPT, "--test", "test.tsv", "--out", "missing/e.csv"], "missing",
         "does not exist"),
        ([*MANIFEST_CASES["train"][0][:-1], "notes.txt"], "notes.txt", "is not a directory"),
        ([*MANIFEST_CASES["train"][0][:-1], "notes.txt/run"], "notes.txt", "is not a directory"),
        ([*MANIFEST_CASES["zero-shot"][0][:-1], "missing/zs.csv"], "missing", "does not exist"),
    ], ids=["eval-missing", "train-out-is-file", "train-parent-is-file", "zero-shot-missing"])
    def test_out_whose_directory_is_missing_or_a_file_is_usage_error(
            self, workdir, capsys, commands_run, argv, folder, problem):
        # found before the command runs, not after its work
        Path("notes.txt").write_text("not an input\n", encoding="utf-8")
        before = {p: p.read_bytes() for p in workdir.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: --out {argv[-1]} ")
        assert f"needs the directory {folder}, which {problem}" in err[0]
        assert commands_run == []
        assert {p: p.read_bytes() for p in workdir.rglob("*") if p.is_file()} == before


# names that CSV quoting, the rule arrow or a careless ASCII parser could
# mangle; `x,"y"` is both a relation and a tuple
HOSTILE_RELATIONS = ["born,in", 'said:"hi"', "o'neil#1", "a|b=>c", "café", "rel１２", 'x,"y"']
HOSTILE_TUPLES = ['"Paris","France"', "#7", "l'été", "１２３", "p|q", "=>", 'x,"y"', "Ωmega",
                  "t'#,", "ｆｕｌｌ"]
HOSTILE_RULES = [("born,in", "a|b=>c"), ("café", "rel１２"), ('said:"hi"', 'x,"y"'),
                 ("o'neil#1", "born,in")]


class TestHostileNames:
    """Hostile names round-trip through train, eval and analyze: every CSV
    parses back to the names that went in, and every manifest lists exactly
    the files its run read and wrote."""

    @pytest.fixture()
    def hostile_dir(self, tmp_path, monkeypatch):
        # relation i trains on five consecutive tuples, so every tuple is in
        # the train file, and is tested on the next two
        n = len(HOSTILE_TUPLES)
        train = [(rel, HOSTILE_TUPLES[(i + j) % n])
                 for i, rel in enumerate(HOSTILE_RELATIONS) for j in range(5)]
        test = [(rel, HOSTILE_TUPLES[(i + j) % n])
                for i, rel in enumerate(HOSTILE_RELATIONS) for j in (5, 6)]
        for name, facts in (("train.tsv", train), ("test.tsv", test)):
            (tmp_path / name).write_text("".join(f"{r}\t{t}\n" for r, t in facts),
                                         encoding="utf-8")
        (tmp_path / "rules.tsv").write_text(
            "".join(f"{a}\t=>\t{c}\n" for a, c in HOSTILE_RULES), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    @staticmethod
    def run(argv, manifest, inputs, outputs):
        before = {str(p) for p in Path().rglob("*") if p.is_file()}
        assert main(argv) == 0
        written = {str(p) for p in Path().rglob("*") if p.is_file()} - before
        assert written == {*outputs, manifest}
        record = json.loads(Path(manifest).read_text(encoding="utf-8"))
        assert record["inputs"] == {path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
                                    for path in inputs}
        assert record["outputs"] == outputs

    @staticmethod
    def rows(path):
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))

    @pytest.mark.parametrize("variant", ["f", "fs", "fsl"])
    def test_csv_and_manifest_round_trip(self, hostile_dir, variant):
        rules = ["--rules", "rules.tsv"]
        train_rules = rules if variant == "fsl" else []
        self.run(["train", "--facts", "train.tsv", *train_rules, "--variant", variant,
                  "--k", "2", "--epochs", "1", "--out", "run"], "run/manifest.json",
                 ["train.tsv", *train_rules[1:]], ["run/checkpoint.txt", "run/metrics.csv"])
        ckpt = ["--checkpoint", "run/checkpoint.txt"]
        _, relations, tuples, _ = liftedkb.model.load_embeddings("run/checkpoint.txt")
        assert (relations, tuples) == (HOSTILE_RELATIONS, HOSTILE_TUPLES)

        self.run(["eval", *ckpt, "--test", "test.tsv", "--train-facts", "train.tsv",
                  "--out", "eval.csv"], "eval.csv.manifest.json",
                 ["run/checkpoint.txt", "test.tsv", "train.tsv"], ["eval.csv"])
        assert [row[0] for row in self.rows("eval.csv")] == [
            "relation", *HOSTILE_RELATIONS, "WEIGHTED_MAP"]

        self.run(["analyze", "asymmetry", *ckpt, *rules, "--train-facts", "train.tsv",
                  "--out", "asym.csv"], "asym.csv.manifest.json",
                 ["run/checkpoint.txt", "rules.tsv", "train.tsv"], ["asym.csv"])
        assert [tuple(row[:2]) for row in self.rows("asym.csv")] == [
            ("antecedent", "consequent"), *HOSTILE_RULES, ("GRAND_MEAN", "")]

        self.run(["analyze", "matrix", *ckpt, *rules, "--out", "matrix.csv"],
                 "matrix.csv.manifest.json", ["run/checkpoint.txt", "rules.tsv"], ["matrix.csv"])
        header = self.rows("matrix.csv")[0]
        involved = {name for rule in HOSTILE_RULES for name in rule}
        assert header[0] == "dimension" and sorted(header[1:]) == sorted(involved)
