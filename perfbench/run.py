"""One run of one benchmark workload, in the process that runs this script.

    python3 perfbench/run.py --workload train-sparse --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --write-benchmark-json

Run it from the root of a source checkout: it imports liftedkb from `src/`
beside this directory and fails when it is not there. It pins the BLAS thread
count before numpy is loaded, generates the workload's corpus from the seed,
times set-up, runs one untimed warm-up unit, then repeats the workload's unit
(load -> train -> evaluate) until the time budget is spent, checking every
output. With --trace 1 the units alternate untraced and traced, which gives
both the per-layer figures and the tracing overhead. It prints a summary and,
as the last line, the result JSON. Garbage collection and allocator settings
are left alone, so the program is measured as users run it.
"""

from __future__ import annotations

import os

# One BLAS thread: liftedkb's BLAS calls are small matrix-vector products, and
# with two threads OpenBLAS spun about 40% more CPU time in cli-pipeline for
# no speed-up, contending with the main thread. numpy reads these when it is
# first imported, which is below.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import END_TO_END, PER_LAYER, WORKLOADS, benchmark_json  # noqa: E402

# Set-up is timed SETUP_REPEATS times before the warm-up and SETUP_PER_UNIT
# times before each measured unit, so that its median, like the other
# timings, covers the whole run and not one stretch of the host's load.
SETUP_REPEATS = 5
SETUP_PER_UNIT = 3


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Outcome:
    """Counts checked operations; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)


class Workload:
    def __init__(self, cfg, seed, workdir, outcome, lib):
        self.cfg, self.seed = cfg, seed
        self.workdir, self.outcome, self.lib = workdir, outcome, lib
        self.paths = {}
        self.names = ([], [])    # relation and tuple vocabularies (library workloads)
        self.n_train = 0
        self.first = None        # fingerprint of the first unit's results
        self.setup_times: list[float] = []

    def generate(self) -> None:
        from corpus import CorpusSpec, generate
        corpus = generate(CorpusSpec(**self.cfg["corpus"]), self.seed)
        self.paths = corpus.write(self.workdir / "corpus")
        self.names = (corpus.relation_names, corpus.tuple_names)
        self.n_train = len(corpus.train)
        # Evaluation ranks a bounded, fixed subset: the held-out relations
        # with the most test facts (ties by id).
        counts: dict[int, int] = {}
        for r, _ in corpus.test:
            counts[r] = counts.get(r, 0) + 1
        keep = set(sorted(counts, key=lambda r: (-counts[r], r))[:self.cfg["eval_relations"]])
        self.paths["test"] = self.workdir / "corpus" / "test-eval.tsv"
        corpus.write_facts(self.paths["test"], [f for f in corpus.test if f[0] in keep])

    def load(self):
        data = self.lib["data"]
        if self.cfg["kind"] == "cli":
            store = data.load_facts(self.paths["train"])
        else:
            store = data.load_facts_with_vocab(self.paths["train"], data.Vocab(self.names[0]),
                                               data.Vocab(self.names[1]))
        rules, _skipped = data.load_rules(self.paths["rules"], store.relations)
        return store, rules

    def time_setup(self, repeats: int):
        """Load `repeats` times, adding each wall time to `setup_times`."""
        for _ in range(repeats):
            t0 = perf_counter()
            store, rules = self.load()
            self.setup_times.append(perf_counter() - t0)
        return store, rules

    def setup(self) -> None:
        store, rules = self.time_setup(SETUP_REPEATS)
        self.outcome.check("facts loaded", len(store) == self.n_train,
                           f"{len(store)} of {self.n_train}")
        self.outcome.check("rules loaded", len(rules) == self.cfg["corpus"]["n_rules"],
                           f"{len(rules)} rules")

    def unit(self, index: int) -> dict:
        return self._cli_unit(index) if self.cfg["kind"] == "cli" else self._library_unit()

    def _same_as_first(self, what: str, fingerprint) -> None:
        if self.first is None:
            self.first = fingerprint
        else:
            self.outcome.check(f"same-seed {what} identical", fingerprint == self.first,
                               f"{fingerprint} != {self.first}")

    def _check_wmap(self, wmap: float) -> None:
        self.outcome.check("wmap above floor", wmap >= self.cfg["wmap_floor"],
                           f"{wmap} < {self.cfg['wmap_floor']}")

    def _library_unit(self) -> dict:
        data, trainer, evaluation = self.lib["data"], self.lib["trainer"], self.lib["evaluation"]
        cfg = self.cfg
        config = self.lib["model"].ModelConfig(k=cfg["k"], variant="fsl")
        options = trainer.TrainOptions(epochs=cfg["epochs"], learning_rate=cfg["learning_rate"],
                                       batch_size=cfg["batch_size"], seed=self.seed)
        ticks, stats = [], []

        def on_epoch(st):
            ticks.append(perf_counter())
            stats.append(st)

        t0 = perf_counter()
        store, rules = self.load()
        t1 = perf_counter()
        result = trainer.train(store, rules, config, options, callbacks=[on_epoch])
        t2 = perf_counter()
        test = data.load_facts_with_vocab(self.paths["test"], store.relations, store.tuples)
        t3 = perf_counter()
        wmap, _rows = evaluation.evaluate(result.params, store, test, "fsl")
        t4 = perf_counter()

        self.outcome.check("epochs run", len(stats) == cfg["epochs"], f"{len(stats)} epochs")
        final = float(stats[-1].loss.total) if stats else float("nan")
        self.outcome.check("final loss finite", math.isfinite(final), repr(final))
        self._check_wmap(wmap)
        digest = hashlib.sha256(result.params.relations.tobytes()
                                + result.params.tuple_pre.tobytes()).hexdigest()
        self._same_as_first("train() parameters and wmap", (digest, wmap))
        positives = len(store) * len(stats)
        dropped = sum(getattr(st, "dropped_pairs", 0) for st in stats)
        return {
            "epoch_intervals": [b - a for a, b in zip(ticks, ticks[1:])],
            "train_s": t2 - t1, "eval_s": t4 - t3, "pipeline_s": t4 - t0, "wmap": wmap,
            "final_loss": final,
            "collision_rate": [float(st.collision_rate) for st in stats],
            "rule_seconds": [float(getattr(st, "rule_seconds", 0.0)) for st in stats],
            "dropped_pairs": dropped,
            "failed_pair_rate": dropped / max(positives, 1),
        }

    def _cli_unit(self, index: int) -> dict:
        cli, cfg, paths = self.lib["cli"], self.cfg, self.paths
        out = self.workdir / f"unit{index}"
        train_argv = ["train", "--facts", str(paths["train"]), "--rules", str(paths["rules"]),
                      "--variant", "fsl", "--k", str(cfg["k"]), "--epochs", str(cfg["epochs"]),
                      "--learning-rate", str(cfg["learning_rate"]),
                      "--batch-size", str(cfg["batch_size"]), "--seed", str(self.seed),
                      "--out", str(out)]
        eval_argv = ["eval", "--checkpoint", str(out / "checkpoint.txt"),
                     "--test", str(paths["test"]), "--train-facts", str(paths["train"]),
                     "--variant", "fsl", "--out", str(out / "eval.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            rc_train = cli.main(train_argv)
            t1 = perf_counter()
            rc_eval = cli.main(eval_argv)
            t2 = perf_counter()
        self.outcome.check("cli train exits 0", rc_train == 0, f"exit {rc_train}")
        self.outcome.check("cli eval exits 0", rc_eval == 0, f"exit {rc_eval}")

        epochs = read_metrics_csv(out / "metrics.csv")
        self.outcome.check("epochs run", len(epochs) == cfg["epochs"], f"{len(epochs)} epochs")
        final = epochs[-1][1] if epochs else float("nan")
        self.outcome.check("final loss finite", math.isfinite(final), repr(final))
        rows, wmap = read_eval_csv(out / "eval.csv")
        self._check_wmap(wmap)
        if index == 0:
            self._check_reference_ap(out, rows, wmap)
        self._same_as_first("cli checkpoint.txt and eval.csv",
                            (sha256(out / "checkpoint.txt"), sha256(out / "eval.csv")))
        if index > 0:
            shutil.rmtree(out)
        return {"epoch_intervals": [seconds for _, _, seconds in epochs[1:]],
                "train_s": t1 - t0, "eval_s": t2 - t1, "pipeline_s": t2 - t0, "wmap": wmap,
                "final_loss": final}

    def _check_reference_ap(self, out: Path, rows: dict, wmap: float) -> None:
        """Per-relation AP in eval.csv equals, bit for bit, an AP computed here
        from checkpoint.txt: score descending, ties by ascending tuple id,
        precisions summed in rank order."""
        import numpy as np
        from scipy.special import expit

        rel_names, rel_vecs, tup_names, tup_vecs = [], [], [], []
        with open(out / "checkpoint.txt", encoding="utf-8") as fh:
            fh.readline()
            for line in fh:
                tag, name, *values = line.split()
                (rel_names if tag == "R" else tup_names).append(name)
                (rel_vecs if tag == "R" else tup_vecs).append(values)
        relations = np.array(rel_vecs, dtype=np.float64)
        tuples = expit(np.array(tup_vecs, dtype=np.float64))
        tuple_id = {name: i for i, name in enumerate(tup_names)}
        train, test = facts_by_relation(self.paths["train"]), facts_by_relation(self.paths["test"])

        sample = random.Random(self.seed).sample(sorted(rows), min(self.cfg["checked_relations"],
                                                                   len(rows)))
        for rel in sample:
            observed = {tuple_id[t] for t in train[rel]}
            pool = [i for i in range(len(tup_names)) if i not in observed]
            scores = tuples[pool] @ relations[rel_names.index(rel)]
            ranked = sorted(range(len(pool)), key=lambda j: (-scores[j], pool[j]))
            positives = {tuple_id[t] for t in test[rel]}
            hits, precisions = 0, []
            for rank, j in enumerate(ranked, start=1):
                if pool[j] in positives:
                    hits += 1
                    precisions.append(hits / rank)
            reference = sum(precisions) / len(positives)
            self.outcome.check("eval.csv AP equals reference", rows[rel][1] == reference,
                               f"{rel}: {rows[rel][1]!r} != {reference!r}")
        ordered = sorted(rows.values(), key=lambda v: v[2])  # the order eval summed in
        weighted = sum(n * ap for n, ap, _ in ordered) / sum(n for n, _, _ in ordered)
        self.outcome.check("WEIGHTED_MAP equals weighted mean of rows", weighted == wmap,
                           f"{weighted!r} != {wmap!r}")


def facts_by_relation(path) -> dict:
    out: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rel, tup = line.rstrip("\n").split("\t")
            out.setdefault(rel, []).append(tup)
    return out


def _number(text: str) -> float:
    # metrics.csv writes repr() of numpy scalars, e.g. `np.float64(1.5)`.
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


def read_metrics_csv(path) -> list[tuple[int, float, float]]:
    """(epoch, total loss, seconds) per epoch."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return [(int(r["epoch"]), _number(r["total"]), _number(r["seconds"])) for r in reader]


def read_eval_csv(path):
    """{relation: (test facts, AP, file row index)} and the WEIGHTED_MAP value."""
    rows, wmap = {}, float("nan")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for i, (rel, n, ap) in enumerate(reader):
            if rel == "WEIGHTED_MAP":
                wmap = float(ap)
            else:
                rows[rel] = (int(n), float(ap), i)
    return rows, wmap


def measure(workload: Workload, seconds: float, min_units: int, start_index: int) -> list:
    """Repeat the unit until another would overrun `seconds`, at least `min_units` times."""
    samples = []
    start = perf_counter()
    while True:
        u0 = perf_counter()
        workload.time_setup(SETUP_PER_UNIT)
        samples.append(workload.unit(start_index + len(samples)))
        last = perf_counter() - u0
        if len(samples) >= min_units and perf_counter() - start + last > seconds:
            return samples


def measure_interleaved(workload: Workload, tracer, lib: dict, seconds: float,
                        start_index: int) -> list[tuple[dict, dict]]:
    """(untraced, traced) unit pairs until another pair would overrun `seconds`,
    at least two. The order within a pair alternates (untraced first, then
    traced first), so a drift in machine speed, or a unit that runs slower for
    its position, falls on both sides alike."""
    pairs = []
    start = perf_counter()
    index = start_index
    while True:
        p0 = perf_counter()
        pair = {}
        for traced in ((False, True) if len(pairs) % 2 == 0 else (True, False)):
            if traced:
                tracer.install(lib)
            try:
                pair[traced] = workload.unit(index)
            finally:
                tracer.uninstall()
            index += 1
        pairs.append((pair[False], pair[True]))
        last = perf_counter() - p0
        if len(pairs) >= 2 and perf_counter() - start + last > seconds:
            return pairs


def timings(samples: list) -> dict[str, list[float]]:
    """Every timed sample of the run, by end-to-end metric."""
    return {
        "epoch_s": [x for s in samples for x in s["epoch_intervals"]],
        "train_s": [s["train_s"] for s in samples],
        "eval_s": [s["eval_s"] for s in samples],
        "pipeline_s": [s["pipeline_s"] for s in samples],
    }


def timing_stats(samples: list) -> dict:
    return {name: {"n": len(values), "mean": statistics.fmean(values), "min": min(values),
                   "median": statistics.median(values), "max": max(values)}
            for name, values in timings(samples).items()}


def summarize(samples: list) -> dict:
    """The mean of each timing over the run's samples (the run's total time in
    that operation over its count), and wmap.

    The mean, not the median: this shared host runs in a fast and a slow state,
    about 1.4x apart for liftedkb's Python-heavy code, each lasting 10-50 s. A
    run's median snaps to whichever state held most of its samples, so across
    ten seeds the median of cli-pipeline's eval_s spread 0.25 of its value and
    the mean 0.17.
    """
    return {**{name: st["mean"] for name, st in timing_stats(samples).items()},
            "wmap": samples[0]["wmap"]}


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the checkout root from spec.py")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(benchmark_json(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    src = ROOT / "src"
    if not (src / "liftedkb" / "__init__.py").is_file():
        print(f"no liftedkb sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    try:
        from liftedkb import cli, data, evaluation, model, trainer
    except ImportError as exc:
        print(f"cannot import liftedkb from {src}: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    if Path(cli.__file__).resolve().parent != src / "liftedkb":
        print(f"liftedkb imported from {cli.__file__}, not from this checkout", file=sys.stderr)
        return 2
    lib = {"cli": cli, "data": data, "evaluation": evaluation, "model": model,
           "trainer": trainer}

    cfg = WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{run_id}-{os.getpid()}"
    outcome = Outcome()
    workload = Workload(cfg, args.seed, workdir, outcome, lib)
    results: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                     "environment": environment(), "cli_import_s": import_s}
    tracer = None
    try:
        workload.generate()
        workload.setup()
        # The first unit warms the process (heap arenas, page cache); it is
        # checked like every unit but not timed. In sizing, a cold cli eval
        # took about 1 s longer than a warm one.
        start = perf_counter()
        workload.unit(0)
        remaining = args.seconds - (perf_counter() - start)
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            pairs = measure_interleaved(workload, tracer, lib, remaining, 1)
            plain, traced = [p for p, _ in pairs], [t for _, t in pairs]
            samples = plain + traced
        else:
            samples = measure(workload, remaining, 2, 1)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = {"setup_s": statistics.median(workload.setup_times), **summarize(samples),
           "peak_rss_mb": peak_rss_mb}
    stats = timing_stats(samples)
    results.update(units=len(samples), timing_stats=stats, samples=samples, end_to_end=e2e,
                   failures=outcome.failures)
    if args.trace:
        layers = tracer.layer_metrics(len(traced))
        # Overhead: median over the interleaved pairs of traced / untraced.
        for key, value in (("epoch", lambda s: statistics.median(s["epoch_intervals"])),
                           ("eval", lambda s: s["eval_s"]),
                           ("pipeline", lambda s: s["pipeline_s"])):
            layers[f"trace.{key}_overhead"] = statistics.median(
                value(t) / value(p) for p, t in pairs)
        layers["cli.import_s"] = import_s
        batches = math.ceil(workload.n_train / cfg["batch_size"])
        problems = tracer.epoch_problems(workload.n_train, batches)
        outcome.check("gradient, rule and ADAM spans all fall in epochs, one per batch",
                      not problems, "; ".join(problems[:5]))
        results.update(per_layer=layers, absent_wrappers=tracer.absent, pairs=len(pairs),
                       untraced=summarize(plain), traced=summarize(traced))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, (unit, _better, _bound) in END_TO_END.items()}

    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{run_id}.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    if tracer is not None:
        tracer.dump(out_dir / f"{run_id}-spans.json")

    env = results["environment"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}")
    print(f"{args.workload} seed {args.seed}: {len(samples)} units, {len(outcome.failures)} "
          f"failed checks of {outcome.attempted}; details in {out_dir.name}/{run_id}.json")
    for name, st in stats.items():
        print(f"  {name:12s} mean {st['mean']:.4g} s over {st['n']} samples (median "
              f"{st['median']:.4g} s, fastest {st['min']:.4g} s, slowest {st['max']:.4g} s)")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not outcome.failures, "attempted": outcome.attempted,
                      "failed": len(outcome.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
