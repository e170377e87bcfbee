"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured quantity. Runs single-threaded.
"""

import time
import tracemalloc

import numpy as np
import pytest

from helpers import (away_from_hinge_kinks, brute_force_average_precision,
                     dense_gradients, finite_difference_gradients, grounded_rule_loss,
                     lifted_rule_loss, random_instance, relative_gradient_error)
from liftedkb import evaluation, model, trainer
from liftedkb.cli import main
from liftedkb.data import Rule, holdout_split, save_rules
from liftedkb.evaluation import build_tasks, weighted_map, zero_shot_sweep
from liftedkb.model import ModelConfig, ModelParams
from liftedkb.synthetic import clustered_corpus, random_corpus
from liftedkb.trainer import TrainOptions, train


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


BENCH_OPTS = dict(epochs=400, learning_rate=0.02, batch_size=256)
CRITERION_8_RUNS = 4


def benchmark_corpus(seed):
    # 40 relations in 4 clusters, 500 tuples, 10 injected implications
    return clustered_corpus(n_clusters=4, relations_per_cluster=10,
                            tuples_per_cluster=125, n_rules=10, seed=100 + seed)


def test_criterion_1_jensen_bound_suite():
    """Grounded rule loss never exceeds |tuples| times the lifted loss."""
    rng = np.random.default_rng(10)
    start = time.perf_counter()
    worst = -np.inf
    for _ in range(1000):
        k = int(rng.integers(1, 17))
        n_tup = int(rng.integers(1, 51))
        params = ModelParams(rng.normal(0, 1, (2, k)), rng.normal(0, 2, (n_tup, k)))
        rule = Rule(0, 1)
        grounded = grounded_rule_loss(params, rule, range(n_tup), 0.01, "fs")
        lifted = lifted_rule_loss(params, rule, 0.01)
        bound = n_tup * lifted
        rel_violation = (grounded - bound) / bound if bound > 0 else (
            0.0 if grounded == 0 else np.inf)
        worst = max(worst, rel_violation)
    elapsed = time.perf_counter() - start
    report("criterion 1 (Jensen bound, 1000 instances)",
           worst <= 1e-12 and elapsed < 10,
           f"worst relative violation {worst:.3e}, {elapsed:.1f}s")


def test_criterion_2_ordering_implies_entailment():
    """Zero lifted loss at delta=0.01 orders scores for all non-negative tuples."""
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    violations = 0
    total = 0
    for _ in range(100):
        k = int(rng.integers(2, 17))
        cons = rng.normal(0, 1, k)
        ant = cons - 0.01 - np.abs(rng.normal(0, 1, k))
        params = ModelParams(np.vstack([ant, cons]), np.zeros((1, k)))
        assert lifted_rule_loss(params, Rule(0, 1), 0.01) == 0.0
        tuples = np.abs(rng.normal(0, 1, (10_000, k)))
        diffs = tuples @ ant - tuples @ cons
        violations += int(np.sum(diffs > 0))
        total += 10_000
    elapsed = time.perf_counter() - start
    report("criterion 2 (ordering implies entailment, 100x10^4 samples)",
           violations == 0 and elapsed < 10,
           f"{violations}/{total} violations, {elapsed:.1f}s")


def test_criterion_3_gradient_correctness():
    """Analytic gradients match central finite differences on 200 instances."""
    rng = np.random.default_rng(12)
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    variants = ["f", "fs", "fsl"]
    while checked < 200:
        variant = variants[checked % 3]
        n_rules = 2 if variant == "fsl" else 0
        params, batch, rules, config = random_instance(rng, variant, n_rules=n_rules)
        if rules and not away_from_hinge_kinks(params, rules, config.delta):
            continue
        analytic = dense_gradients(params, batch, rules, config)
        numeric = finite_difference_gradients(params, batch, rules, config, h=1e-5)
        err = relative_gradient_error((analytic.relations, analytic.tuple_pre), numeric)
        worst = max(worst, err)
        checked += 1
    elapsed = time.perf_counter() - start
    report("criterion 3 (gradient check, 200 instances)",
           worst < 1e-4 and elapsed < 30,
           f"worst relative error {worst:.3e}, {elapsed:.1f}s")


def test_criterion_4_metric_oracle():
    """weighted_map matches a brute-force AP oracle exactly, ties included."""
    rng = np.random.default_rng(13)
    start = time.perf_counter()
    instances = 0
    for _ in range(200):
        n_rel = int(rng.integers(1, 5))
        n_tup = int(rng.integers(2, 9))
        # quantized embeddings force score ties, exercising the tie-break
        params = ModelParams(
            rng.integers(-2, 3, (n_rel, 2)).astype(float),
            rng.integers(-2, 3, (n_tup, 2)).astype(float))
        tasks = []
        for r in range(n_rel):
            npos = int(rng.integers(1, n_tup))
            positives = set(rng.choice(n_tup, size=npos, replace=False).tolist())
            tasks.append(evaluation.RankingTask(r, positives, np.array([], dtype=np.int64),
                                                n_tup))
        wmap, _ = weighted_map(tasks, params, "f")
        per_task = []
        effective = model.effective_tuples(params, "f")
        for task in tasks:
            scores = dict(enumerate((effective @ params.relations[task.relation]).tolist()))
            per_task.append((len(task.positives), task.relation,
                             brute_force_average_precision(scores, task.positives)))
        # combine in the same documented order (descending weight, relation id)
        per_task.sort(key=lambda x: (-x[0], x[1]))
        expected = sum(n * ap for n, _, ap in per_task) / sum(n for n, _, _ in per_task)
        assert wmap == expected, f"{wmap!r} != {expected!r}"
        instances += 1
    elapsed = time.perf_counter() - start
    report("criterion 4 (metric oracle, exact match)",
           instances == 200 and elapsed < 5,
           f"{instances} instances matched bitwise, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def benefit_runs():
    """Shared F/FS/FSL training runs over 5 seeds on the benchmark corpus."""
    runs = {}
    for seed in range(5):
        corpus = benchmark_corpus(seed)
        split = holdout_split(corpus.store, 0.2, seed)
        per_variant = {}
        for variant in ("f", "fs", "fsl"):
            config = ModelConfig(k=16, variant=variant)
            rules = corpus.rules if variant == "fsl" else []
            result = train(split.train, rules, config,
                           TrainOptions(seed=seed, **BENCH_OPTS))
            wmap, _ = evaluation.evaluate(result.params, split.train,
                                          split.test, variant)
            per_variant[variant] = (wmap, result)
        runs[seed] = (corpus, split, per_variant)
    return runs


def test_criterion_5_synthetic_fsl_benefit(benefit_runs):
    """Mean over 5 seeds: FSL beats FS, FS within noise of or above F. The
    line also reports FSL - FS per seed, since each seed's runs share a split."""
    means = {v: float(np.mean([benefit_runs[s][2][v][0] for s in range(5)]))
             for v in ("f", "fs", "fsl")}
    paired = [benefit_runs[s][2]["fsl"][0] - benefit_runs[s][2]["fs"][0] for s in range(5)]
    noise = 0.05
    ok = means["fsl"] > means["fs"] and means["fs"] >= means["f"] - noise
    report("criterion 5 (synthetic benefit, 5 seeds)", ok,
           f"mean MAP f={means['f']:.3f} fs={means['fs']:.3f} "
           f"fsl={means['fsl']:.3f}; fsl-fs per seed "
           + " ".join(f"{d:+.3f}" for d in paired))


def test_criterion_6_synthetic_zero_shot(benefit_runs):
    """Rules recover implied relations with all their training facts removed,
    and the same rules reversed recover less."""
    start = time.perf_counter()
    seed = 0
    corpus, split, _ = benefit_runs[seed]
    implied = {r.consequent for r in corpus.rules}
    opts = TrainOptions(seed=seed, **BENCH_OPTS)
    fsl = zero_shot_sweep(split.train, split.test, corpus.rules, implied,
                          [0.0, 1.0], ModelConfig(k=16, variant="fsl"), opts)
    fs_baseline = zero_shot_sweep(split.train, split.test, [], implied,
                                  [0.0], ModelConfig(k=16, variant="fs"), opts)
    gap = fsl[0][1] - fs_baseline[0][1]
    # the control: each rule reversed, so the implied relations imply the
    # relations that hold their facts; seeds 0-4 read correct minus reversed
    # 0.172, 0.100, 0.056, 0.211, 0.121, so the margin sits below the least
    reversed_rules = [Rule(r.consequent, r.antecedent) for r in corpus.rules]
    reversed_sweep = zero_shot_sweep(split.train, split.test, reversed_rules, implied,
                                     [0.0], ModelConfig(k=16, variant="fsl"), opts)
    direction = fsl[0][1] - reversed_sweep[0][1]

    # fraction 1.0 must equal a plain training run bitwise (same seed, same
    # cold relations)
    plain = train(split.train, corpus.rules, ModelConfig(k=16, variant="fsl"),
                  opts, cold_relations=implied)
    tasks = [t for t in build_tasks(split.train, split.test) if t.relation in implied]
    plain_map, _ = weighted_map(tasks, plain.params, "fsl")
    bitwise = fsl[1][1] == plain_map
    elapsed = time.perf_counter() - start
    report("criterion 6 (zero-shot)",
           gap >= 0.2 and direction >= 0.05 and bitwise and elapsed < 300,
           f"FSL {fsl[0][1]:.3f} vs FS baseline "
           f"{fs_baseline[0][1]:.3f} (gap {gap:.3f}), vs reversed rules "
           f"{reversed_sweep[0][1]:.3f} (gap {direction:.3f}), "
           f"fraction-1.0 bitwise equal: {bitwise}, {elapsed:.0f}s")


def test_criterion_7_asymmetry(benefit_runs):
    """Forward mean exceeds backward mean for >= 90% of injected rules."""
    start = time.perf_counter()
    asym_ok = 0
    total = 0
    for seed in (0,):
        corpus, split, per_variant = benefit_runs[seed]
        result = per_variant["fsl"][1]
        rows, _, _ = evaluation.asymmetry_report(result.params, corpus.rules,
                                                 split.train, "fsl")
        for row in rows:
            assert not row.empty
            total += 1
            if row.mean_forward > row.mean_backward:
                asym_ok += 1
    frac = asym_ok / total
    elapsed = time.perf_counter() - start
    report("criterion 7 (asymmetry)",
           frac >= 0.9 and elapsed < 60,
           f"forward>backward for {asym_ok}/{total} rules, {elapsed:.1f}s")


def _rule_epochs(store, rules, k, epochs, seed):
    """FSL training: per epoch after the first (allocation warm-up), the
    rules' share `rule_seconds / (seconds - rule_seconds)`; and the summed
    `rule_seconds` of those epochs."""
    config = ModelConfig(k=k, variant="fsl")
    options = TrainOptions(epochs=epochs, batch_size=8192, seed=seed)
    stats = train(store, rules, config, options).stats[1:]
    shares = [s.rule_seconds / (s.seconds - s.rule_seconds) for s in stats]
    return shares, sum(s.rule_seconds for s in stats)


def test_criterion_8_lifted_cost_scaling():
    """Rule-injection overhead is small and independent of the tuple count.

    The overhead is measured inside the rule runs, as the median over their
    epochs of the time in the rule loss and gradients against the rest of
    the epoch, so a slow spell of the host lands on both sides of it. The
    8,192-fact batches touch (nearly) all 500 relations: the rules add at
    most 2 to the ~22,800 rows ADAM updates an epoch, so `rule_seconds` is
    what they add to the epoch.
    """
    start = time.perf_counter()
    n_rel, n_facts, k, epochs = 500, 20_000, 20, 6
    rules = [Rule(2 * i, 2 * i + 1) for i in range(214)]
    rules += [Rule(2 * i + 1, 2 * i + 2) for i in range(213)]
    assert len(rules) == 427

    store_large = random_corpus(n_rel, 10_000, n_facts, seed=20)
    assert len(store_large) == n_facts and len(store_large.tuples) == 10_000
    shares, rule_times_large = [], []
    for _ in range(CRITERION_8_RUNS):
        run_shares, rule_time = _rule_epochs(store_large, rules, k, epochs, seed=1)
        shares += run_shares
        rule_times_large.append(rule_time)
    overhead = float(np.median(shares))
    rule_time_large = float(np.median(rule_times_large))

    store_small = random_corpus(n_rel, 1_000, n_facts, seed=21)
    _, rule_time_small = _rule_epochs(store_small, rules, k, epochs, seed=1)
    lo, hi = sorted([rule_time_small, rule_time_large])
    ratio = hi / max(lo, 1e-9)
    elapsed = time.perf_counter() - start
    report("criterion 8 (lifted cost scaling)",
           overhead < 0.15 and ratio < 2.5 and elapsed < 300,
           f"epoch overhead with 427 rules {overhead * 100:.1f}% (median over "
           f"{len(shares)} epochs of {CRITERION_8_RUNS} runs, range "
           f"{min(shares) * 100:.1f}-{max(shares) * 100:.1f}%), "
           f"rule-time |T|=10^3 {rule_time_small * 1e3:.2f}ms vs "
           f"|T|=10^4 {rule_time_large * 1e3:.2f}ms (ratio {ratio:.2f}), "
           f"{elapsed:.0f}s")


def test_criterion_9_cli_determinism(tmp_path):
    """cmd_train twice with identical flags yields byte-identical checkpoints."""
    start = time.perf_counter()
    corpus = clustered_corpus(n_clusters=2, relations_per_cluster=6,
                              tuples_per_cluster=30, n_rules=3, seed=30)
    facts = tmp_path / "facts.tsv"
    rules = tmp_path / "rules.tsv"
    corpus.store.save(facts)
    save_rules(rules, corpus.rules, corpus.store.relations)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["train", "--facts", str(facts), "--rules", str(rules),
                     "--variant", "fsl", "--epochs", "5", "--seed", "7",
                     "--k", "8", "--batch-size", "128", "--out", str(out)])
        assert code == 0
        outs.append(out)
    # manifest/metrics embed output paths and wall-clock times; the model
    # state itself must be byte-identical
    identical = ((outs[0] / "checkpoint.txt").read_bytes()
                 == (outs[1] / "checkpoint.txt").read_bytes())
    elapsed = time.perf_counter() - start
    report("criterion 9 (CLI determinism)",
           identical and elapsed < 60,
           f"checkpoint byte-identical: {identical}, {elapsed:.1f}s")


def _epoch_memory_peak(n_tuples, epochs=3):
    """Largest tracemalloc peak of an epoch above the arrays live at its end,
    epoch 0 (whose peak includes set-up) left out."""
    store = random_corpus(500, n_tuples, 20_000, seed=20)
    peaks = []

    def measure(stats):
        current, peak = tracemalloc.get_traced_memory()
        peaks.append(peak - current)
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        train(store, [], ModelConfig(k=20, variant="fs"),
              TrainOptions(epochs=epochs, batch_size=8192, seed=1), callbacks=[measure])
    finally:
        tracemalloc.stop()
    return max(peaks[1:])


def test_criterion_10_epoch_memory_is_o_nnz():
    """An epoch's working memory does not grow with the tuple vocabulary.

    A batch touches at most 2 x batch distinct tuple rows, so above the
    parameter and moment arrays an epoch's peak levels off as |T| grows; a
    buffer sized by |T| (or by all touched rows of an epoch) would not.
    """
    start = time.perf_counter()
    peak_200k, peak_1m = _epoch_memory_peak(200_000), _epoch_memory_peak(1_000_000)
    ratio = peak_1m / peak_200k
    elapsed = time.perf_counter() - start
    report("criterion 10 (epoch memory is O(nnz))",
           ratio <= 1.1 and elapsed < 60,
           f"epoch peak above live arrays {peak_200k / 1e6:.2f} MB at |T|=2*10^5 vs "
           f"{peak_1m / 1e6:.2f} MB at |T|=10^6 (ratio {ratio:.3f}), {elapsed:.1f}s")


def _evaluation_peak(n_relations, n_tuples=20_000, k=50):
    """tracemalloc peak of one FS `weighted_map` call above its inputs."""
    rng = np.random.default_rng(11)
    params = ModelParams(rng.normal(size=(n_relations, k)), rng.normal(size=(n_tuples, k)))
    tasks = [evaluation.RankingTask(r, {r, n_tuples - 1 - r}, np.array([], dtype=np.int64),
                                    n_tuples) for r in range(n_relations)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        weighted_map(tasks, params, "fs")
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_criterion_11_evaluation_memory_is_one_score_block():
    """Evaluation holds one |T| x BLOCK score block at a time.

    With one block, the effective-tuple matrix E (|T| x k) is never built:
    its chunks of `evaluation.CHUNK` values are scored as they are computed.
    With more blocks, the chunks are kept for the later blocks, so E exists
    once. The slack is one chunk and four |T|-long float64 temporaries of
    the AP (the pool's scores and their sorted copy among them).
    """
    n_tuples, k = 20_000, 50
    effective = 8 * n_tuples * k
    details, ok = [], True
    for n_relations in (8, 200):
        peak = _evaluation_peak(n_relations, n_tuples, k)
        block = 8 * n_tuples * min(n_relations, evaluation.BLOCK)
        slack = 8 * (evaluation.CHUNK + 4 * n_tuples)
        bound = block + slack + (effective if n_relations > evaluation.BLOCK else 0)
        ok &= peak <= bound
        details.append(f"{n_relations} relations: {peak / 1e6:.2f} MB (bound {bound / 1e6:.2f})")
    report("criterion 11 (evaluation memory is one score block)", ok,
           f"peak above inputs at |T|={n_tuples}, k={k}: " + "; ".join(details))


def test_criterion_12_trained_model_holds_its_parameters_only():
    """What `train` leaves allocated is its parameters: the ADAM moments,
    each as large as the parameters, end with the call."""
    store = random_corpus(500, 200_000, 20_000, seed=20)
    store.key_set  # the sampler caches it on the store: built before measuring
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = train(store, [], ModelConfig(k=20, variant="fs"),
                       TrainOptions(epochs=1, batch_size=8192, seed=1))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    params = result.params.relations.nbytes + result.params.tuple_pre.nbytes
    bound = params + 1_000_000
    report("criterion 12 (a trained model holds its parameters only)", held <= bound,
           f"{held / 1e6:.2f} MB held after train ({held / params:.3f}x the "
           f"{params / 1e6:.2f} MB of params; bound {bound / 1e6:.2f} MB)")
