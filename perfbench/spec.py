"""What the benchmark measures: workloads, metrics and their bounds.

`BENCHMARK.json` is written from here by
`python3 perfbench/run.py --write-benchmark-json`.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 50

# Each workload: why it exists, its corpus (see corpus.CorpusSpec) and how it
# trains and evaluates. Evaluation ranks the `eval_relations` held-out
# relations with the most test facts, each against its full candidate pool.
WORKLOADS = {
    "train-sparse": {
        "why": "|T|=100k tuple vocabulary, 12k facts, k=100, batch 1024: "
               "per-batch costs that scale with |T| dominate the epoch",
        "kind": "library",
        "corpus": dict(n_relations=1000, n_tuples=100_000, n_blocks=10, block_size=500,
                       n_facts=12_500, max_cover=0.5, n_rules=200),
        "k": 100, "batch_size": 1024, "epochs": 6, "learning_rate": 0.1,
        "eval_relations": 8, "wmap_floor": 0.25,
    },
    "cli-pipeline": {
        "why": "liftedkb train then eval through cli.main on 250 relations x 5k "
               "tuples: checkpoint I/O, full-pool ranking and the sampler dominate",
        "kind": "cli",
        "corpus": dict(n_relations=250, n_tuples=5_000, n_blocks=10, block_size=500,
                       n_facts=20_000, max_cover=0.5, n_rules=50),
        "k": 50, "batch_size": 8192, "epochs": 5, "learning_rate": 0.05,
        "eval_relations": 125, "wmap_floor": 0.18,
        "checked_relations": 12,
    },
}

# name -> (unit, better, bound). Every workload reports every metric. The
# timing bounds are the largest allowed: on a shared 2-vCPU VM, whose speed
# steps by about 1.4x for 10-50 s at a time, the ten-seed interquartile range
# of the timings measured 0.05-0.18 of the median in two sets of 50 s runs.
# wmap is exact per seed and its spread comes from the seed's corpus: 0.03-0.09
# over three ten-seed sets.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "epoch_s": ("s", "lower", 0.25),
    "train_s": ("s", "lower", 0.25),
    "eval_s": ("s", "lower", 0.25),
    "pipeline_s": ("s", "lower", 0.25),
    "wmap": ("score", "higher", 0.15),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# name -> unit. Reported by the traced run (--trace 1) on every workload; a
# layer that does not run on a workload reads 0.
PER_LAYER = {
    "cli.import_s": "s",
    "data.load_facts_s": "s",
    "data.load_rules_s": "s",
    "data.facts_loaded": "count",
    "model.init_s": "s",
    "trainer.train_self_s": "s",
    "trace.epoch_s": "s",
    "trainer.sample_s": "s",
    "trainer.sample_calls": "count",
    "trainer.attempts_per_negative": "ratio",
    "trainer.dropped_pairs": "count",
    "trainer.failed_pair_rate": "ratio",
    "trainer.collision_rate": "ratio",
    "trainer.loop_self_s": "s",
    "model.grad_s": "s",
    "model.grad_calls": "count",
    "model.grad_pairs": "count",
    "model.grad_buffer_bytes": "B-computed",
    "trainer.adam_s": "s",
    "trainer.adam_rows": "count",
    "model.rule_s": "s",
    "model.rule_calls": "count",
    "model.rule_s_per_call": "s",
    "model.rule_ns_per_rule_dim": "ns",
    "trainer.rule_seconds": "s",
    "model.rules_guaranteed": "count",
    "model.save_embeddings_s": "s",
    "trainer.save_adam_state_s": "s",
    "model.checkpoint_bytes": "B",
    "trainer.adam_state_bytes": "B",
    "model.load_embeddings_s": "s",
    "cli.manifest_s": "s",
    "cli.train_self_s": "s",
    "cli.eval_self_s": "s",
    "evaluation.build_tasks_s": "s",
    "evaluation.pool_items": "count",
    "evaluation.rank_s": "s",
    "evaluation.rank_calls": "count",
    "evaluation.ap_s": "s",
    "evaluation.wmap_self_s": "s",
    "trace.epoch_overhead": "ratio",
    "trace.eval_overhead": "ratio",
    "trace.pipeline_overhead": "ratio",
    "trace.absent_wrappers": "count",
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]} for name, w in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better_for(name)}
                      for name, unit in PER_LAYER.items()],
    }


def better_for(name: str) -> str:
    """Direction in which a per-layer metric improves."""
    if name in ("model.rules_guaranteed", "data.facts_loaded"):
        return "higher"
    return "lower"
