import numpy as np
import pytest

from helpers import brute_force_average_precision
from liftedkb import evaluation, model, trainer
from liftedkb.data import FactStore, Rule, Vocab, holdout_split
from liftedkb.errors import DataError
from liftedkb.evaluation import (RankingTask, build_tasks, subsample_relation_facts,
                                 weighted_map, zero_shot_sweep)
from liftedkb.model import ModelConfig, ModelParams
from liftedkb.synthetic import clustered_corpus
from liftedkb.trainer import TrainOptions


def task(relation, positives, n_tuples, excluded=()):
    return RankingTask(relation, set(positives), np.array(sorted(excluded), dtype=np.int64),
                       n_tuples)


def ranked_ap(scores, positives, excluded=()):
    """AP of `positives` when the tuples are scored `scores`: a one-dimensional
    F model with relation weight 1 makes each tuple's score its own value."""
    params = ModelParams(np.ones((1, 1)), np.array(scores, dtype=float)[:, None])
    _, rows = weighted_map([task(0, positives, len(scores), excluded)], params, "f")
    return rows[0].average_precision


def oracle_ap(params, variant, t):
    """Brute-force AP from scores computed here, independent of the kernel."""
    scores = model.effective_tuples(params, variant) @ params.relations[t.relation]
    pool = sorted(set(range(t.n_tuples)) - set(t.excluded.tolist()))
    return brute_force_average_precision({i: float(scores[i]) for i in pool}, t.positives)


class TestAveragePrecision:
    def test_pos_neg_pos(self):
        assert ranked_ap([3.0, 2.0, 1.0], {0, 2}) == pytest.approx((1.0 + 2 / 3) / 2)

    def test_perfect_ranking(self):
        assert ranked_ap([5.0, 4.0, 3.0, 2.0], {0, 1}) == 1.0

    def test_single_positive_last(self):
        assert ranked_ap([10.0 - i for i in range(5)], {4}) == pytest.approx(1 / 5)

    def test_no_positives_is_zero(self):
        params = ModelParams(np.ones((2, 1)), np.array([[1.0], [2.0]]))
        _, rows = weighted_map([task(0, {1}, 2), task(1, set(), 2)], params, "f")
        assert rows[1].relation == 1 and rows[1].average_precision == 0.0

    def test_missing_positive_errors(self):
        with pytest.raises(DataError, match="outside"):
            ranked_ap([1.0], {7})

    def test_range_and_perfect_iff_front_loaded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            scores = rng.normal(size=n)
            order = sorted(range(n), key=lambda i: (-scores[i], i))
            k = int(rng.integers(1, n))
            positives = set(rng.choice(n, size=k, replace=False).tolist())
            ap = ranked_ap(scores, positives)
            assert 0.0 < ap <= 1.0
            assert (ap == 1.0) == (set(order[:len(positives)]) == positives)


class TestRankPool:
    def test_tie_break_ascending_id(self):
        # all four tuples tie, so tuple i ranks i + 1; an excluded tuple
        # drops out of the ranking ahead of the later ones
        for i in range(4):
            assert ranked_ap([0.0] * 4, {i}) == 1 / (i + 1)
        assert ranked_ap([0.0] * 4, {3}, excluded={1}) == 1 / 3

    def test_sorted_by_score(self):
        # descending score order is 1, 2, 0
        for tup, rank in ((1, 1), (2, 2), (0, 3)):
            assert ranked_ap([0.1, 0.9, 0.5], {tup}) == 1 / rank


class TestWeightedMap:
    def test_hand_weighted_combination(self):
        # relation 0: AP 0.5 with 2 test facts; relation 1: AP 1.0 with 1
        params = ModelParams(np.array([[1.0], [1.0]]),
                             np.array([[4.0], [3.0], [2.0], [1.0]]))
        tasks = [
            task(0, {0, 3}, 4),   # AP (1 + 2/4)/2
            task(1, {0}, 4),      # AP 1.0
        ]
        wmap, rows = weighted_map(tasks, params, "f")
        ap0 = (1.0 + 2 / 4) / 2
        assert wmap == pytest.approx((2 * ap0 + 1 * 1.0) / 3)

    def test_single_relation_equals_its_ap(self):
        params = ModelParams(np.array([[1.0]]), np.array([[2.0], [1.0]]))
        wmap, rows = weighted_map([task(0, {1}, 2)], params, "f")
        assert wmap == rows[0].average_precision

    def test_invariant_to_task_order(self):
        rng = np.random.default_rng(1)
        params = ModelParams(rng.normal(size=(3, 2)), rng.normal(size=(6, 2)))
        tasks = [task(r, {r, r + 3}, 6) for r in range(3)]
        w1, _ = weighted_map(tasks, params, "fs")
        w2, _ = weighted_map(list(reversed(tasks)), params, "fs")
        assert w1 == pytest.approx(w2, rel=1e-15)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n_rel, n_tup = int(rng.integers(1, 5)), int(rng.integers(2, 9))
            params = ModelParams(rng.normal(size=(n_rel, 2)),
                                 rng.normal(size=(n_tup, 2)))
            tasks = []
            for r in range(n_rel):
                k = int(rng.integers(1, n_tup))
                positives = set(rng.choice(n_tup, size=k, replace=False).tolist())
                tasks.append(task(r, positives, n_tup))
            wmap, rows = weighted_map(tasks, params, "fs")
            expected_total = 0.0
            for t in tasks:
                expected_total += len(t.positives) * oracle_ap(params, "fs", t)
            expected = expected_total / sum(len(t.positives) for t in tasks)
            assert wmap == pytest.approx(expected, rel=1e-15)

    def test_empty_tasks_error(self):
        params = ModelParams(np.ones((1, 1)), np.ones((1, 1)))
        with pytest.raises(ValueError):
            weighted_map([], params, "f")

    def test_no_positive_in_any_task_errors_before_scoring(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("scored tasks with no positive")

        monkeypatch.setattr(model, "effective_tuples", unreachable)
        params = ModelParams(np.ones((1, 1)), np.ones((2, 1)))
        with pytest.raises(ValueError, match="no ranking task holds a positive"):
            weighted_map([task(0, set(), 2)], params, "f")


class TestRankingKernel:
    @pytest.mark.parametrize("variant", ["f", "fs"])
    def test_blocks_ties_and_exclusions_match_oracle_exactly(self, variant):
        # 150 relations cross two block boundaries. Integer embeddings in
        # [-2, 2] with k=2 force score ties, and keep every score exact
        # whatever order the matrix product sums in.
        rng = np.random.default_rng(21)
        n_rel, n_tup = 150, 12
        assert n_rel > 2 * evaluation.BLOCK
        params = ModelParams(rng.integers(-2, 3, (n_rel, 2)).astype(float),
                             rng.integers(-2, 3, (n_tup, 2)).astype(float))
        tasks = []
        for r in rng.permutation(n_rel).tolist():
            ids = rng.permutation(n_tup)
            n_excl, n_pos = int(rng.integers(0, 5)), int(rng.integers(1, 6))
            tasks.append(task(r, ids[n_excl:n_excl + n_pos].tolist(), n_tup,
                              ids[:n_excl].tolist()))
        assert sum(len(t.excluded) > 0 for t in tasks) > n_rel // 2
        wmap, rows = weighted_map(tasks, params, variant)
        expected = {t.relation: oracle_ap(params, variant, t) for t in tasks}
        assert {row.relation: row.average_precision for row in rows} == expected
        per_task = [(len(t.positives), t.relation, expected[t.relation]) for t in tasks]
        per_task.sort(key=lambda x: (-x[0], x[1]))  # the documented summation order
        assert wmap == (sum(n * ap for n, _, ap in per_task)
                        / sum(n for n, _, _ in per_task))

    def test_pool_of_only_positives_is_perfect(self):
        # the positives score lowest, but every other tuple is excluded
        params = ModelParams(np.ones((1, 1)), np.arange(6.0)[::-1, None])
        t = task(0, {4, 5}, 6, excluded={0, 1, 2, 3})
        assert set(t.pool.tolist()) == t.positives
        _, rows = weighted_map([t], params, "f")
        assert rows[0].average_precision == 1.0

    @pytest.mark.parametrize("n_rel", [1, 64, 65, 200])
    def test_effective_tuples_once_per_call(self, monkeypatch, n_rel):
        # each tuple row passes through effective_tuples exactly once per
        # call, whatever the number of blocks: the chunk slices cover 0..n
        # once (CHUNK = 12 at k = 3 makes chunks of 4, 4 and 2 rows)
        calls = []
        real = model.effective_tuples

        def counting(*args, **kwargs):
            calls.append(args[1:])
            return real(*args, **kwargs)

        monkeypatch.setattr(model, "effective_tuples", counting)
        monkeypatch.setattr(evaluation, "CHUNK", 12)
        rng = np.random.default_rng(3)
        params = ModelParams(rng.normal(size=(n_rel, 3)), rng.normal(size=(10, 3)))
        weighted_map([task(r, {r % 10}, 10) for r in range(n_rel)], params, "fs")
        assert [variant for variant, _ in calls] == ["fs"] * 3
        assert np.concatenate([np.arange(10)[rows] for _, rows in calls]).tolist() == \
            list(range(10))

    # (variant, CHUNK, tuples, k, relations): a ragged last chunk in one
    # block and in three; k > CHUNK, where a chunk is one row; the shipped
    # CHUNK over several chunks
    CHUNKED = [("f", 12, 10, 3, 1), ("fs", 12, 10, 3, 150), ("f", 2, 7, 5, 3),
               ("fs", 2, 7, 5, 65), ("fs", None, 1000, 100, 70)]

    @staticmethod
    def _chunked_case(monkeypatch, chunk, n_tup, k, n_rel, exact):
        if chunk is not None:
            monkeypatch.setattr(evaluation, "CHUNK", chunk)
        rng = np.random.default_rng(n_tup * k + n_rel)
        if exact:
            # integer relations; tuples whose sigmoid is 0, 0.5 or 1 exactly:
            # every product and sum is exact, in any order
            params = ModelParams(rng.integers(-3, 4, (n_rel, k)).astype(float),
                                 rng.choice([-800.0, 0.0, 800.0], (n_tup, k)))
        else:
            params = ModelParams(rng.normal(size=(n_rel, k)), rng.normal(size=(n_tup, k)))
        tasks = [task(r, {r % n_tup}, n_tup) for r in rng.permutation(n_rel).tolist()]
        return params, tasks

    @pytest.mark.parametrize("variant,chunk,n_tup,k,n_rel", CHUNKED)
    def test_chunked_scores_equal_whole_product(self, monkeypatch, variant, chunk, n_tup,
                                                k, n_rel):
        # every chunk of every block lands in its own rows: with exact
        # arithmetic the scores the AP sees are the whole product's, bit for bit
        params, tasks = self._chunked_case(monkeypatch, chunk, n_tup, k, n_rel, exact=True)
        seen = {}
        real = evaluation._average_precision

        def capture(scores, t):
            seen[t.relation] = scores.copy()
            return real(scores, t)

        monkeypatch.setattr(evaluation, "_average_precision", capture)
        weighted_map(tasks, params, variant)
        whole = model.effective_tuples(params, variant) @ params.relations.T
        assert sorted(seen) == list(range(n_rel))
        for r, scores in seen.items():
            assert np.array_equal(scores, whole[:, r])

    @pytest.mark.parametrize("variant,chunk,n_tup,k,n_rel", CHUNKED)
    def test_chunked_rows_equal_whole_product_rows(self, monkeypatch, variant, chunk,
                                                   n_tup, k, n_rel):
        # real-valued embeddings: the per-relation APs equal, bit for bit,
        # those ranked from the whole product. The scores themselves agree
        # only as far as the BLAS sums each element in the same order at any
        # row offset (see the module docstring)
        params, tasks = self._chunked_case(monkeypatch, chunk, n_tup, k, n_rel, exact=False)
        _, rows = weighted_map(tasks, params, variant)
        whole = model.effective_tuples(params, variant) @ params.relations.T
        expected = {t.relation: evaluation._average_precision(whole[:, t.relation], t)
                    for t in tasks}
        assert {row.relation: row.average_precision for row in rows} == expected

    def test_positive_in_training_row_names_relation_and_tuples(self):
        params = ModelParams(np.ones((4, 1)), np.ones((5, 1)))
        with pytest.raises(DataError, match=r"relation 3: 2 test tuple\(s\) .*: 1, 4$"):
            weighted_map([task(3, {0, 1, 4}, 5, excluded={1, 2, 4})], params, "f")

    def test_task_and_model_vocabularies_must_match(self):
        params = ModelParams(np.ones((1, 1)), np.ones((5, 1)))
        with pytest.raises(DataError, match="task has 4 tuples, model has 5"):
            weighted_map([task(0, {0}, 4)], params, "f")

    def test_nan_scores_are_data_error(self):
        params = ModelParams(np.ones((1, 1)), np.array([[1.0], [np.nan]]))
        with pytest.raises(DataError, match="NaN"):
            weighted_map([task(0, {0}, 2)], params, "f")


class TestBuildTasks:
    def test_pool_excludes_train_observed(self):
        train = FactStore.from_named_pairs([("r", "a"), ("r", "b"), ("q", "c")])
        test = FactStore(train.relations, train.tuples,
                         [(train.relations.id("r"), train.tuples.id("c"))])
        tasks = build_tasks(train, test)
        assert len(tasks) == 1
        task = tasks[0]
        assert task.relation == train.relations.id("r")
        assert task.excluded.dtype == np.int64
        assert task.excluded.tolist() == sorted([train.tuples.id("a"), train.tuples.id("b")])
        assert task.n_tuples == 3
        assert set(task.pool.tolist()) == {train.tuples.id("c")}
        assert task.positives <= set(task.pool.tolist())

    def test_test_fact_in_training_is_named(self):
        train = FactStore.from_named_pairs([("r", "a"), ("r", "b"), ("q", "c")])
        test = FactStore(train.relations, train.tuples,
                         [(train.relations.id("q"), train.tuples.id("a")),
                          (train.relations.id("r"), train.tuples.id("b")),
                          (train.relations.id("q"), train.tuples.id("c"))])
        with pytest.raises(DataError, match="training fact: r\tb$"):
            build_tasks(train, test)

    def test_first_clash_in_test_order_is_named(self):
        # (q, c) has the larger key but comes first in the test file
        train = FactStore.from_named_pairs([("r", "a"), ("r", "b"), ("q", "c")])
        test = FactStore(train.relations, train.tuples,
                         [(train.relations.id("q"), train.tuples.id("c")),
                          (train.relations.id("r"), train.tuples.id("b"))])
        with pytest.raises(DataError, match="training fact: q\tc$"):
            build_tasks(train, test)

    def test_test_store_must_share_the_training_vocabularies(self):
        split = holdout_split(clustered_corpus(seed=0).store, 0.2, seed=0)
        named = [(split.test.relations.name(r), split.test.tuples.name(t))
                 for r, t in split.test.facts.tolist()]
        own = FactStore.from_named_pairs(named)
        sizes = (f"test facts name {len(own.relations)} relations and {len(own.tuples)} "
                 f"tuples, training facts {len(split.train.relations)} and "
                 f"{len(split.train.tuples)}")
        with pytest.raises(DataError, match=sizes):
            build_tasks(split.train, own)
        # equal name lists in other Vocab objects are the same vocabularies
        copied = FactStore(Vocab(split.train.relations.names), Vocab(split.train.tuples.names),
                           split.test.facts)
        assert [t.relation for t in build_tasks(split.train, copied)] == \
            [t.relation for t in build_tasks(split.train, split.test)]

    def test_empty_training_store_has_no_clash(self):
        names = FactStore.from_named_pairs([("r", "a"), ("r", "b")])
        train = FactStore(names.relations, names.tuples, [])
        tasks = build_tasks(train, names)
        assert [task.excluded.tolist() for task in tasks] == [[]]


class TestAsymmetryReport:
    def test_identical_vectors_symmetric(self):
        vec = np.array([0.3, -0.2])
        params = ModelParams(np.vstack([vec, vec]), np.random.default_rng(0).normal(size=(4, 2)))
        train = FactStore.from_named_pairs(
            [("p", "t0"), ("p", "t1"), ("q", "t0"), ("q", "t1")])
        rows, gf, gb = evaluation.asymmetry_report(params, [Rule(0, 1)], train, "fs")
        assert rows[0].mean_forward == pytest.approx(rows[0].mean_backward)
        assert gf == pytest.approx(gb)

    def test_empty_rows_flagged(self):
        params = ModelParams(np.zeros((2, 2)), np.zeros((1, 2)))
        train = FactStore.from_named_pairs([("p", "t0"), ("q", "t0")])
        lonely = FactStore(train.relations, train.tuples, [(0, 0)])
        rows, _, _ = evaluation.asymmetry_report(params, [Rule(0, 1)], lonely, "fs")
        assert rows[0].empty

    def test_one_directional_training_gives_asymmetry(self):
        corpus = clustered_corpus(n_clusters=2, relations_per_cluster=6,
                                  tuples_per_cluster=40, n_rules=2, seed=3)
        config = ModelConfig(k=12, variant="fsl")
        result = trainer.train(corpus.store, corpus.rules, config,
                               TrainOptions(epochs=300, batch_size=128,
                                            learning_rate=0.02, seed=0))
        rows, gf, gb = evaluation.asymmetry_report(result.params, corpus.rules,
                                                   corpus.store, "fsl")
        assert gf > gb
        for row in rows:
            assert 0.0 <= row.mean_forward <= 1.0
            assert 0.0 <= row.mean_backward <= 1.0


class TestZeroShot:
    def test_subsample_preserves_order_and_full_fraction_identity(self):
        store = FactStore.from_named_pairs(
            [("p", f"t{i}") for i in range(10)] + [("q", f"t{i}") for i in range(6)])
        full = subsample_relation_facts(store, {0}, 1.0, seed=0)
        assert np.array_equal(full.facts, store.facts)
        half = subsample_relation_facts(store, {0}, 0.5, seed=0)
        assert len(half.tuples_of(0)) == 5
        assert len(half.tuples_of(1)) == 6
        # kept facts preserve original relative order
        kept = store.tuples_of(0)[np.isin(store.tuples_of(0), half.tuples_of(0))]
        assert np.array_equal(half.tuples_of(0), kept)

    @pytest.mark.parametrize("fraction", [-0.5, 1.5, float("nan")])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        store = FactStore.from_named_pairs([("p", f"t{i}") for i in range(4)])
        with pytest.raises(ValueError, match="fraction must lie in"):
            subsample_relation_facts(store, {0}, fraction, seed=0)

    def test_fraction_one_bitwise_equals_plain_run(self):
        corpus = clustered_corpus(n_clusters=2, relations_per_cluster=4,
                                  tuples_per_cluster=25, n_rules=2, seed=4)
        from liftedkb.data import holdout_split
        split = holdout_split(corpus.store, 0.2, seed=1)
        implied = {r.consequent for r in corpus.rules}
        config = ModelConfig(k=6, variant="fsl")
        opts = TrainOptions(epochs=20, batch_size=64, learning_rate=0.02, seed=2)
        points = zero_shot_sweep(split.train, split.test, corpus.rules, implied,
                                 [1.0], config, opts)
        plain = trainer.train(split.train, corpus.rules, config, opts,
                              cold_relations=implied)
        tasks = [t for t in build_tasks(split.train, split.test)
                 if t.relation in implied]
        wmap, _ = weighted_map(tasks, plain.params, "fsl")
        assert points[0][1] == wmap

    def test_fractions_must_increase(self):
        store = FactStore.from_named_pairs([("p", "a"), ("q", "a")])
        with pytest.raises(ValueError):
            zero_shot_sweep(store, store, [], {0}, [0.5, 0.25],
                            ModelConfig(k=2), TrainOptions(epochs=1))

    @pytest.mark.parametrize("fractions", [[0.0, 0.5, 1.5], [0.0, 0.5, float("nan")],
                                           [0.0, 1.0, 0.5]])
    def test_bad_fractions_fail_before_training(self, monkeypatch, fractions):
        def fail(*args, **kwargs):
            raise AssertionError("trained before the fractions were checked")

        monkeypatch.setattr(trainer, "train", fail)
        train = FactStore.from_named_pairs([("p", "a"), ("q", "a"), ("q", "b")])
        test = FactStore(train.relations, train.tuples, [(0, 1)])  # p b
        with pytest.raises(ValueError, match="fractions must"):
            zero_shot_sweep(train, test, [], {0}, fractions,
                            ModelConfig(k=2), TrainOptions(epochs=1))
