"""Command-line front end: train / eval / mine / analyze.

`_written_files` names each file a run writes, from the parsed flags:
`checkpoint.txt`, `metrics.csv` and `manifest.json` under a `train --out`
directory, else `--out` itself and `<out>.manifest.json` beside it. Before
anything is read, `main` rejects any of these files that is an existing
directory, checks `--out` and these files against the `INPUT_FLAGS` files,
and rejects an `--out` whose directory is missing or a file (`train` makes
its `--out` directory and any missing parents, so there the nearest existing
one of `--out` and its parents must be a directory). The `cmd_*` writes the
outputs (CSV per RFC 4180, a rule file or the text checkpoint format), then
`main` writes the JSON run manifest: resolved flags, the SHA-256 of each
input file, outputs. Reruns with identical inputs and flags are
byte-identical except for recorded wall-clock fields.

Exit codes: 0 success, 1 usage error (a bad flag value, a path that is
missing or names the wrong kind of file, a file the run would write that is
an input or an existing directory, or an `--out` whose directory is missing or
is a file), 2 data error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import __version__, evaluation, mining, model, trainer
from .data import (RESERVED_RELATIONS, FactStore, load_facts, load_facts_with_vocab,
                   load_rules, save_rules, Vocab)
from .errors import DataError, NumericalError
from .model import ModelConfig
from .trainer import EpochStats, TrainOptions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
WEIGHTED_MAP, GRAND_MEAN = RESERVED_RELATIONS  # the summary rows of eval, analyze asymmetry
# the flags that name files a command reads; the manifest digests each one given
INPUT_FLAGS = ("facts", "rules", "checkpoint", "test", "train_facts", "lexicon", "decisions")


class UsageError(Exception):
    pass


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_files(args) -> dict:
    """{flag: path} for each of the `INPUT_FLAGS` that `args` gives, in that order."""
    return {f: getattr(args, f) for f in INPUT_FLAGS if getattr(args, f, None) is not None}


def _written_files(args) -> list[Path]:
    """The files a run writes: its outputs, in `cmd_*` argument order, then its manifest."""
    out = Path(args.out)
    if args.command == "train":
        return [out / "checkpoint.txt", out / "metrics.csv", out / "manifest.json"]
    return [out, out.with_name(out.name + ".manifest.json")]


def write_manifest(path, args, outputs: list):
    """JSON run manifest: the command, flags and input digests of `args`, and `outputs`."""
    manifest = {
        "engine_version": __version__,
        "command": " ".join(filter(None, (args.command, getattr(args, "mode", None)))),
        "flags": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": {str(p): _sha256(p) for p in _input_files(args).values()},
        "outputs": [str(o) for o in outputs],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _add_model_flags(parser):
    parser.add_argument("--variant", choices=model.VARIANTS, default=ModelConfig.variant)
    parser.add_argument("--k", type=int, default=ModelConfig.k, help="embedding dimension")
    parser.add_argument("--alpha", type=float, default=ModelConfig.alpha, help="L2 weight")
    parser.add_argument("--beta-tilde", type=float, default=ModelConfig.beta_tilde,
                        help="implication-loss weight (fsl)")
    parser.add_argument("--delta", type=float, default=ModelConfig.delta, help="hinge margin")


def _add_train_flags(parser):
    parser.add_argument("--epochs", type=int, required=True)
    parser.add_argument("--learning-rate", type=float, default=TrainOptions.learning_rate)
    parser.add_argument("--batch-size", type=int, default=TrainOptions.batch_size)
    parser.add_argument("--seed", type=int, default=TrainOptions.seed)


def _config_and_options(args) -> tuple[ModelConfig, TrainOptions]:
    """Model and training settings from the same-named flags; bad values are usage errors."""
    try:
        return tuple(cls(**{f.name: getattr(args, f.name) for f in fields(cls)})
                     for cls in (ModelConfig, TrainOptions))
    except ValueError as exc:
        raise UsageError(exc) from None


def cmd_train(args, checkpoint: Path, metrics: Path) -> None:
    config, options = _config_and_options(args)
    if args.variant == "fsl" and args.rules is None:
        raise UsageError("--rules is required with --variant fsl")
    if args.variant != "fsl" and args.rules is not None:
        raise UsageError(f"--rules is used only with --variant fsl; --variant {args.variant} "
                         "trains without rules")
    store = load_facts(args.facts)
    rules, _ = load_rules(args.rules, store.relations) if args.rules else ([], 0)
    checkpoint.parent.mkdir(parents=True, exist_ok=True)

    result = trainer.train(store, rules, config, options)
    model.save_embeddings(checkpoint, result.params,
                          store.relations.names, store.tuples.names, config.variant)
    # one column per EpochStats field, in field order; the loss spreads over four
    header = [col for f in fields(EpochStats) for col in
              (("recon", "l2", "implication", "total") if f.name == "loss" else [f.name])]
    rows = [[repr(float(x)) if isinstance(x, float) else x
             for v in astuple(st) for x in (v if isinstance(v, tuple) else [v])]
            for st in result.stats]
    _write_csv(metrics, header, rows)
    print(f"trained {options.epochs} epochs on {len(store)} facts "
          f"({len(store.relations)} relations, {len(store.tuples)} tuples); "
          f"checkpoint at {checkpoint}")


def _load_checkpoint(args):
    """Load `--checkpoint`; its header sets `args.variant`, which `--variant` must match."""
    params, rel_names, tup_names, variant = model.load_embeddings(args.checkpoint)
    if getattr(args, "variant", None) not in (None, variant):
        raise UsageError(f"--variant {args.variant} does not match the checkpoint's "
                         f"variant {variant}")
    args.variant = variant
    return params, Vocab(rel_names), Vocab(tup_names)


def cmd_eval(args, out: Path) -> None:
    params, relations, tuples = _load_checkpoint(args)
    test = load_facts_with_vocab(args.test, relations, tuples)
    if args.train_facts:
        train_store = load_facts_with_vocab(args.train_facts, relations, tuples)
    else:
        train_store = FactStore(relations, tuples, [])
    wmap, rows = evaluation.evaluate(params, train_store, test, args.variant)
    table = [[relations.name(row.relation), row.n_test, repr(row.average_precision)]
             for row in rows]
    table.append([WEIGHTED_MAP, sum(r.n_test for r in rows), repr(wmap)])
    _write_csv(out, ["relation", "test_facts", "average_precision"], table)
    print(f"weighted MAP {wmap:.4f} over {len(rows)} relations -> {out}")


def cmd_mine(args, out: Path) -> None:
    store = load_facts(args.facts)
    mined = mining.mine_rules(store.relations, mining.load_lexicon(args.lexicon))
    rules = (mining.filter_rules(mined, args.decisions, store.relations)
             if args.decisions else mined)
    save_rules(out, rules, store.relations)
    print(f"mined {len(mined)} candidate rules, wrote {len(rules)} -> {out}")


def cmd_analyze_asymmetry(args, out: Path) -> None:
    params, relations, tuples = _load_checkpoint(args)
    train_store = load_facts_with_vocab(args.train_facts, relations, tuples)
    rules, _ = load_rules(args.rules, relations)
    rows, grand_fwd, grand_bwd = evaluation.asymmetry_report(
        params, rules, train_store, args.variant)
    table = [[relations.name(row.rule.antecedent), relations.name(row.rule.consequent),
              repr(row.mean_forward), repr(row.mean_backward), row.n_forward, row.n_backward]
             for row in rows]
    table.append([GRAND_MEAN, "", repr(grand_fwd), repr(grand_bwd), "", ""])
    _write_csv(out, ["antecedent", "consequent", "mean_forward", "mean_backward",
                     "n_forward", "n_backward"], table)
    print(f"asymmetry report for {len(rows)} rules -> {out}")


def cmd_analyze_matrix(args, out: Path) -> None:
    params, relations, _tuples = _load_checkpoint(args)
    rules, _ = load_rules(args.rules, relations)
    involved = sorted({i for r in rules for i in (r.antecedent, r.consequent)})
    if not involved:
        raise DataError("no rule-involved relations to export")
    norms = [float(np.abs(params.relations[i]).sum()) for i in involved]
    order = sorted(range(len(involved)), key=lambda j: (norms[j], involved[j]))
    columns = [involved[j] for j in order]
    table = [[dim] + [repr(float(params.relations[c, dim])) for c in columns]
             for dim in range(params.relations.shape[1])]
    _write_csv(out, ["dimension"] + [relations.name(c) for c in columns], table)
    print(f"relation matrix with {len(columns)} columns -> {out}")


def cmd_analyze_zero_shot(args, out: Path) -> None:
    config, options = _config_and_options(args)
    try:
        fractions = [float(f) for f in args.fractions.split(",")]
        evaluation.check_fractions(fractions)
    except ValueError as exc:
        raise UsageError(f"--fractions {args.fractions!r}: {exc}") from None
    store = load_facts(args.facts)
    test = load_facts_with_vocab(args.test, store.relations, store.tuples)
    rules, _ = load_rules(args.rules, store.relations)
    if not rules:
        raise DataError("zero-shot analysis needs at least one resolvable rule")
    points = evaluation.zero_shot_sweep(store, test, rules, {r.consequent for r in rules},
                                        fractions, config, options)
    table = [[repr(fraction), repr(wmap)] for fraction, wmap in points]
    _write_csv(out, ["fraction", "weighted_map"], table)
    print(f"zero-shot curve with {len(points)} points -> {out}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liftedkb",
        description="Knowledge-base completion with lifted implication-rule injection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--facts", required=True, help="training fact file (relation<TAB>tuple)")
    p.add_argument("--rules", help="rule file (antecedent => consequent); required for "
                   "fsl, an error for f and fs")
    p.add_argument("--out", required=True, help="output directory")
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank test facts; CSV columns: "
                       f"relation,test_facts,average_precision (+ {WEIGHTED_MAP} row)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True, help="test fact file")
    p.add_argument("--train-facts", help="training facts, excluded from candidate pools")
    p.add_argument("--variant", choices=model.VARIANTS, help="must equal the checkpoint's variant")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mine", help="mine implication rules by hypernym substitution")
    p.add_argument("--facts", required=True, help="fact file supplying the pattern vocabulary")
    p.add_argument("--lexicon", required=True, help="word<TAB>hypernym lexicon file")
    p.add_argument("--decisions", help="accept|reject<TAB>rule decision file")
    p.add_argument("--out", required=True, help="output rule file")
    p.set_defaults(func=cmd_mine)

    analyze = sub.add_parser("analyze", help="asymmetry / matrix / zero-shot reports")
    asub = analyze.add_subparsers(dest="mode", required=True)

    p = asub.add_parser("asymmetry", help="per-rule forward/backward mean scores; "
                        "CSV: antecedent,consequent,mean_forward,mean_backward,"
                        f"n_forward,n_backward (+ {GRAND_MEAN} row)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--train-facts", required=True)
    p.add_argument("--variant", choices=model.VARIANTS, help="must equal the checkpoint's variant")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_asymmetry)

    p = asub.add_parser("matrix", help="rule-involved relation embeddings as CSV "
                        "columns sorted by ascending L1 norm; rows are dimensions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_matrix)

    p = asub.add_parser("zero-shot", help="retrain at several retained fractions of "
                        "the rule consequents' facts; CSV: fraction,weighted_map")
    p.add_argument("--facts", required=True, help="training fact file")
    p.add_argument("--test", required=True, help="test fact file")
    p.add_argument("--rules", required=True)
    p.add_argument("--fractions", default="0,0.25,0.5,1.0",
                   help="comma-separated retained fractions")
    p.add_argument("--out", required=True)
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_analyze_zero_shot, variant="fsl")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    *outputs, manifest = _written_files(args)
    try:
        for path in (*outputs, manifest):
            if path.is_dir():
                raise IsADirectoryError(f"--out {args.out} would write the file {path}, "
                                        "which is a directory")
        written = {Path(p).resolve() for p in (args.out, *outputs, manifest)}
        for flag, path in _input_files(args).items():
            if Path(path).resolve() in written:
                raise FileExistsError(f"--out {args.out} would overwrite the "
                                      f"--{flag.replace('_', '-')} file {path}")
        # train makes its --out directory and any missing parents; the other
        # commands write into a directory that must exist
        out = Path(args.out)
        folder = (next(p for p in (out, *out.parents) if p.exists()) if args.command == "train"
                  else out.parent)
        if not folder.is_dir():
            error, what = ((NotADirectoryError, "is not a directory") if folder.exists()
                           else (FileNotFoundError, "does not exist"))
            raise error(f"--out {args.out} needs the directory {folder}, which {what}")
        args.func(args, *outputs)
        write_manifest(manifest, args, outputs)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError) as exc:
        # a path that names the wrong kind of thing; other OSErrors (a full
        # disk, say) are not usage errors and propagate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
