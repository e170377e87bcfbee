"""Spans around the public functions of each liftedkb module (traced run only).

`Tracer.install` replaces module attributes with timing wrappers, so calls the
package makes through its own module globals are seen without changing its
source. Each wrapper records a span (name, start, end, parent). Epoch spans
come from a `train` callback the tracer adds. `sample_negative` runs once per
fact, so it is aggregated per epoch (time, calls, attempts) instead of being
recorded as a span per call. A wrapped name that the package no longer has is
listed in `absent` rather than raising. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import json
import os
import statistics
from time import perf_counter

import numpy as np

# (module, attribute, span name). cli imports the loaders by name, so its
# bindings are wrapped too and recorded under the data span names.
WRAPPED = [
    ("trainer", "train", "trainer.train"),
    ("trainer", "sample_negative", "trainer.sample_negative"),
    ("trainer", "adam_step", "trainer.adam_step"),
    ("trainer", "save_adam_state", "trainer.save_adam_state"),
    ("model", "init_params", "model.init_params"),
    ("model", "recon_l2_gradients", "model.recon_l2_gradients"),
    ("model", "rule_gradients", "model.rule_gradients"),
    ("model", "save_embeddings", "model.save_embeddings"),
    ("model", "load_embeddings", "model.load_embeddings"),
    ("evaluation", "build_tasks", "evaluation.build_tasks"),
    ("evaluation", "weighted_map", "evaluation.weighted_map"),
    ("evaluation", "rank_pool", "evaluation.rank_pool"),
    ("evaluation", "average_precision", "evaluation.average_precision"),
    ("data", "load_facts", "data.load_facts"),
    ("data", "load_facts_with_vocab", "data.load_facts"),
    ("data", "load_rules", "data.load_rules"),
    ("cli", "load_facts", "data.load_facts"),
    ("cli", "load_facts_with_vocab", "data.load_facts"),
    ("cli", "load_rules", "data.load_rules"),
    ("cli", "write_manifest", "cli.write_manifest"),
    ("cli", "cmd_train", "cli.cmd_train"),
    ("cli", "cmd_eval", "cli.cmd_eval"),
]


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _guaranteed_rules(args, kwargs, result):
    """Rules whose lifted loss is exactly 0: r_ant - r_cons + delta <= 0 everywhere."""
    rules = _arg(args, kwargs, 1, "rules") or []
    if not rules:
        return {"rules_guaranteed": 0}
    config = _arg(args, kwargs, 2, "config")
    rel = result.params.relations
    ant = np.array([r.antecedent for r in rules])
    cons = np.array([r.consequent for r in rules])
    diff = rel[ant] - rel[cons] + config.delta
    return {"rules_guaranteed": int(np.all(diff <= 0.0, axis=1).sum())}


# Per-span counts, computed after the span ends so they add no time to it.
ATTRS = {
    "trainer.train": _guaranteed_rules,
    "model.recon_l2_gradients": lambda a, kw, res: {
        "pairs": len(_arg(a, kw, 1, "batch")),
        "buffer_bytes": int(res[0].relations.nbytes + res[0].tuple_pre.nbytes)},
    "model.rule_gradients": lambda a, kw, res: {
        "rules": len(_arg(a, kw, 1, "rule_idx")[0]),
        "k": int(_arg(a, kw, 0, "params").relations.shape[1])},
    "trainer.adam_step": lambda a, kw, res: {
        "rows": int(len(_arg(a, kw, 1, "grads").relation_rows)
                    + len(_arg(a, kw, 1, "grads").tuple_rows))},
    "model.save_embeddings": lambda a, kw, res: {
        "bytes": os.path.getsize(_arg(a, kw, 0, "path"))},
    "trainer.save_adam_state": lambda a, kw, res: {
        "bytes": os.path.getsize(_arg(a, kw, 0, "path"))},
    "evaluation.build_tasks": lambda a, kw, res: {
        "pool_items": sum(len(t.pool) for t in res)},
    "data.load_facts": lambda a, kw, res: {"facts": len(res)},
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._sample = [0.0, 0, 0]      # time, calls, attempts in the open epoch
        self._epoch_mark = 0             # first span index of the open epoch

    def install(self, modules: dict) -> None:
        """Wrap every name of WRAPPED; spans accumulate over installs."""
        self.absent = []
        for module_name, attr, span_name in WRAPPED:
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if attr == "sample_negative":
                wrapper = self._sampler(fn)
            else:
                wrapper = self._wrap(span_name, fn)
            setattr(module, attr, wrapper)
            self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, name, fn):
        attrs = ATTRS.get(name)
        is_train = name == "trainer.train"

        def wrapper(*args, **kwargs):
            if is_train:
                if "callbacks" in kwargs or len(args) < 5:
                    kwargs["callbacks"] = list(kwargs.get("callbacks") or []) + [self._on_epoch]
                else:
                    args = args[:4] + (list(args[4] or []) + [self._on_epoch],) + args[5:]
                self._epoch_mark = len(self.spans) + 1
                self._sample = [0.0, 0, 0]
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result
        return wrapper

    def _sampler(self, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            sample = self._sample
            sample[0] += perf_counter() - t0
            sample[1] += 1
            sample[2] += result[1]
            return result
        return wrapper

    def _on_epoch(self, stats) -> None:
        end = perf_counter()
        start = end - stats.seconds
        parent = self._stack[-1] if self._stack else None
        epoch_id = len(self.spans)
        for span in self.spans[self._epoch_mark:]:
            if span["parent"] == parent and span["start"] >= start:
                span["parent"] = epoch_id
        sample_s, calls, attempts = self._sample
        self.spans.append({
            "id": epoch_id, "name": "trainer.epoch", "parent": parent,
            "start": start, "end": end,
            "attrs": {"epoch": stats.epoch, "sample_s": sample_s, "sample_calls": calls,
                      "sample_attempts": attempts,
                      "dropped_pairs": int(getattr(stats, "dropped_pairs", 0)),
                      "collision_rate": float(getattr(stats, "collision_rate", 0.0)),
                      "rule_seconds": float(getattr(stats, "rule_seconds", 0.0))}})
        self._sample = [0.0, 0, 0]
        self._epoch_mark = len(self.spans)

    def epoch_problems(self, n_facts: int, n_batches: int) -> list[str]:
        """What contradicts full attribution of training work to epochs: every
        gradient, rule and ADAM span has an epoch span as parent; each epoch
        holds one gradient and one ADAM span per batch and one sample call per
        fact; no epoch's self time is negative. Wrappers that are absent are
        not checked."""
        problems = []
        by_id = {s["id"]: s for s in self.spans}
        attributed = ("model.recon_l2_gradients", "model.rule_gradients", "trainer.adam_step")
        for span in self.spans:
            parent = by_id.get(span["parent"])
            if span["name"] in attributed and (parent is None
                                               or parent["name"] != "trainer.epoch"):
                problems.append(f"{span['name']} span {span['id']} outside an epoch")
        absent = set(self.absent)
        per_batch = [name for name in ("model.recon_l2_gradients", "trainer.adam_step")
                     if name not in absent]
        for epoch in (s for s in self.spans if s["name"] == "trainer.epoch"):
            kids = [s for s in self.spans if s["parent"] == epoch["id"]]
            for name in per_batch:
                count = sum(1 for s in kids if s["name"] == name)
                if count != n_batches:
                    problems.append(f"epoch {epoch['id']}: {count} {name} spans, "
                                    f"{n_batches} batches")
            calls = epoch["attrs"]["sample_calls"]
            if "trainer.sample_negative" not in absent and calls != n_facts:
                problems.append(f"epoch {epoch['id']}: {calls} sample calls, {n_facts} facts")
            own = (epoch["end"] - epoch["start"] - epoch["attrs"]["sample_s"]
                   - sum(s["end"] - s["start"] for s in kids))
            if own < 0:
                problems.append(f"epoch {epoch['id']}: negative loop self time {own!r}")
        return problems

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)

    def layer_metrics(self, units: int) -> dict:
        """Per-layer figures: per epoch (first epoch of each train call
        excluded), per call, or per unit of the workload, as named."""
        children: dict = {}
        for span in self.spans:
            children.setdefault(span["parent"], []).append(span)

        def dur(span):
            return span["end"] - span["start"]

        def self_time(span):
            own = dur(span) - sum(dur(c) for c in children.get(span["id"], []))
            return own - span.get("attrs", {}).get("sample_s", 0.0) \
                if span["name"] == "trainer.epoch" else own

        def named(name):
            return [s for s in self.spans if s["name"] == name]

        def mean(values):
            return statistics.fmean(values) if values else 0.0

        def total(spans, key=None):
            return sum(s["attrs"][key] if key else dur(s) for s in spans)

        epochs = [s for s in named("trainer.epoch") if s["attrs"]["epoch"] >= 1]
        n_epochs = max(len(epochs), 1)

        def kids(name):
            return [c for e in epochs for c in children.get(e["id"], []) if c["name"] == name]

        grads, rules, adams = (kids("model.recon_l2_gradients"),
                               kids("model.rule_gradients"), kids("trainer.adam_step"))
        calls = sum(e["attrs"]["sample_calls"] for e in epochs)
        rule_per_call = total(rules) / len(rules) if rules else 0.0
        rule_dims = rules[0]["attrs"]["rules"] * rules[0]["attrs"]["k"] if rules else 0
        trains = named("trainer.train")
        evals = named("evaluation.weighted_map")
        n_evals = max(len(evals), 1)
        units = max(units, 1)
        return {
            "data.load_facts_s": total(named("data.load_facts")) / units,
            "data.load_rules_s": total(named("data.load_rules")) / units,
            "data.facts_loaded": total(named("data.load_facts"), "facts") / units,
            "model.init_s": mean([dur(s) for s in named("model.init_params")]),
            "trainer.train_self_s": mean([self_time(s) for s in trains]),
            "trace.epoch_s": total(epochs) / n_epochs,
            "trainer.sample_s": total(epochs, "sample_s") / n_epochs,
            "trainer.sample_calls": calls / n_epochs,
            "trainer.attempts_per_negative": total(epochs, "sample_attempts") / max(calls, 1),
            "trainer.dropped_pairs": total(epochs, "dropped_pairs") / n_epochs,
            "trainer.failed_pair_rate": total(epochs, "dropped_pairs") / max(calls, 1),
            "trainer.collision_rate": total(epochs, "collision_rate") / n_epochs,
            "trainer.loop_self_s": sum(self_time(e) for e in epochs) / n_epochs,
            "model.grad_s": total(grads) / n_epochs,
            "model.grad_calls": len(grads) / n_epochs,
            "model.grad_pairs": total(grads, "pairs") / n_epochs,
            "model.grad_buffer_bytes": total(grads, "buffer_bytes") / max(len(grads), 1),
            "trainer.adam_s": total(adams) / n_epochs,
            "trainer.adam_rows": total(adams, "rows") / n_epochs,
            "model.rule_s": total(rules) / n_epochs,
            "model.rule_calls": len(rules) / n_epochs,
            "model.rule_s_per_call": rule_per_call,
            "model.rule_ns_per_rule_dim": rule_per_call / rule_dims * 1e9 if rule_dims else 0.0,
            "trainer.rule_seconds": total(epochs, "rule_seconds") / n_epochs,
            "model.rules_guaranteed": trains[-1]["attrs"]["rules_guaranteed"] if trains else 0,
            "model.save_embeddings_s": total(named("model.save_embeddings")) / units,
            "trainer.save_adam_state_s": total(named("trainer.save_adam_state")) / units,
            "model.checkpoint_bytes": total(named("model.save_embeddings"), "bytes") / units,
            "trainer.adam_state_bytes": total(named("trainer.save_adam_state"), "bytes") / units,
            "model.load_embeddings_s": total(named("model.load_embeddings")) / units,
            "cli.manifest_s": total(named("cli.write_manifest")) / units,
            "cli.train_self_s": mean([self_time(s) for s in named("cli.cmd_train")]),
            "cli.eval_self_s": mean([self_time(s) for s in named("cli.cmd_eval")]),
            "evaluation.build_tasks_s": mean([dur(s) for s in named("evaluation.build_tasks")]),
            "evaluation.pool_items": mean([s["attrs"]["pool_items"]
                                           for s in named("evaluation.build_tasks")]),
            "evaluation.rank_s": total(named("evaluation.rank_pool")) / n_evals,
            "evaluation.rank_calls": len(named("evaluation.rank_pool")) / n_evals,
            "evaluation.ap_s": total(named("evaluation.average_precision")) / n_evals,
            "evaluation.wmap_self_s": mean([self_time(s) for s in evals]),
            "trace.absent_wrappers": len(self.absent),
        }
