import warnings

import numpy as np
import pytest
from scipy.special import expit as sigmoid

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


def counting(monkeypatch, module, name):
    """Replace `module.name` by a wrapper; returns the list of its calls' args."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def exact_chunks(calls, n):
    """The tuple rows of each exact chunk among `model.effective_tuples` calls:
    chunks are slices, a task's positives are arrays."""
    return [np.arange(n)[rows].tolist() for _, _, rows in calls if isinstance(rows, slice)]


def force_exact_path(monkeypatch, seen=None):
    """Make every certified AP undecided, so `weighted_map` rescores every
    FS/FSL block exactly; `seen` collects the scores each exact AP ranks."""
    real = evaluation._average_precision

    def exact_only(scores, t, tol=0.0, exact_own=None):
        if tol:
            return None
        if seen is not None:
            seen[t.relation] = scores.copy()
        return real(scores, t)

    monkeypatch.setattr(evaluation, "_average_precision", exact_only)


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
        assert w1 == w2

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
        # each tuple row passes through the ranking sigmoid exactly once per
        # call, whatever the number of blocks: its chunks cover the rows once,
        # in order (CHUNK = 12 at k = 3 makes chunks of 4, 4 and 2 rows). No
        # score is near a tie, so no block is rescored, and effective_tuples
        # sees each task's positives once and nothing else
        sigmoid_calls = counting(monkeypatch, evaluation, "_ranking_sigmoid")
        exact_calls = counting(monkeypatch, model, "effective_tuples")
        monkeypatch.setattr(evaluation, "CHUNK", 12)
        rng = np.random.default_rng(3)
        params = ModelParams(rng.normal(size=(n_rel, 3)), rng.normal(size=(10, 3)))
        weighted_map([task(r, {r % 10}, 10) for r in range(n_rel)], params, "fs")
        assert [len(pre) for pre, in sigmoid_calls] == [4, 4, 2]
        assert np.array_equal(np.concatenate([pre for pre, in sigmoid_calls]),
                              params.tuple_pre)
        assert [(variant, rows.tolist()) for _, variant, rows in exact_calls] == \
            [("fs", [r % 10]) for r in range(n_rel)]

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
        # arithmetic the scores the exact path ranks are the whole product's,
        # bit for bit (FS is forced onto that path)
        params, tasks = self._chunked_case(monkeypatch, chunk, n_tup, k, n_rel, exact=True)
        seen = {}
        force_exact_path(monkeypatch, seen)
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


class TestCertifiedRanking:
    """FS and FSL rank from `_ranking_sigmoid` scores where the module
    docstring's bound certifies the exact rank, and rescore exactly elsewhere."""

    def test_sigmoid_within_bound_of_expit(self):
        rng = np.random.default_rng(31)
        special = [0.0, 1e-300, 709.78, 745.2, 800.0, np.inf]
        x = np.concatenate([rng.normal(scale=scale, size=1 << 18) for scale in (1, 5, 40, 300)]
                           + [special, np.negative(special), [np.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            approximate = evaluation._ranking_sigmoid(x)
        reference = sigmoid(x)
        assert np.array_equal(np.isnan(approximate), np.isnan(reference))
        finite = ~np.isnan(reference)
        assert np.abs(approximate[finite] - reference[finite]).max() <= evaluation.SIGMOID_ERROR

    @staticmethod
    def _near_tie_model(case, n_rel):
        """k = 2, relation components powers of two, so every score is exact
        in any summation order; row 5 ties with row 3, or nearly does."""
        rng = np.random.default_rng(32)
        pre = rng.normal(size=(12, 2))
        if case == "repeat":
            pre[5] = pre[3]
        elif case == "ulp":
            pre[5] = pre[3]
            pre[5, 0] = np.nextafter(pre[3, 0], np.inf)
        else:  # saturate: the first component's sigmoid is exactly 1 in both rows
            pre[3, 0], pre[5, 0] = 800.0, 40.0
            pre[5, 1] = pre[3, 1]
        relations = rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0], (n_rel, 2))
        tasks = [task(r, {5, int(rng.integers(6, 12))}, 12, rng.choice(3, 1).tolist())
                 for r in range(n_rel)]
        return ModelParams(relations, pre), tasks

    @pytest.mark.parametrize("variant", ["fs", "fsl"])
    @pytest.mark.parametrize("case", ["repeat", "ulp", "saturate"])
    def test_near_ties_rescore_exactly(self, monkeypatch, variant, case):
        # 70 relations make two blocks; each holds a positive whose window
        # holds row 3, so each is rescored from one pass of exact chunks
        params, tasks = self._near_tie_model(case, 70)
        monkeypatch.setattr(evaluation, "CHUNK", 10)
        with monkeypatch.context() as m:
            calls = counting(m, model, "effective_tuples")
            wmap, rows = weighted_map(tasks, params, variant)
        assert exact_chunks(calls, 12) == [list(range(0, 5)), list(range(5, 10)), [10, 11]] * 2
        expected = {t.relation: oracle_ap(params, variant, t) for t in tasks}
        assert {row.relation: row.average_precision for row in rows} == expected
        force_exact_path(monkeypatch)
        assert weighted_map(tasks, params, variant) == (wmap, rows)

    @pytest.mark.parametrize("variant", ["fs", "fsl"])
    def test_bound_holds_for_any_sigmoid_within_it(self, monkeypatch, variant):
        # a ranking sigmoid 48u low on the positive's row and 48u high on
        # every other: row 0 scores one ulp below the positive, row 1, but its
        # approximate score lands 47u above. The window around the positive's
        # exact score holds it, so the block is rescored: rank 3, behind the
        # rows 4 and 5, not 4
        u = 2.0**-53
        x = 1.0
        below = np.nextafter(x, -np.inf)
        while sigmoid(below) == sigmoid(x):
            below = np.nextafter(below, -np.inf)
        assert sigmoid(x) - sigmoid(below) == u  # both lie in [0.5, 1)
        params = ModelParams(np.ones((1, 1)), np.array([[below], [x], [-3.0], [-2.0],
                                                        [2.0], [3.0]]))
        monkeypatch.setattr(evaluation, "_ranking_sigmoid",
                            lambda pre: sigmoid(pre) + np.where(pre == x, -48 * u, 48 * u))
        t = task(0, {1}, 6)
        _, rows = weighted_map([t], params, variant)
        assert rows[0].average_precision == oracle_ap(params, variant, t) == 1 / 3

    @pytest.mark.parametrize("variant", ["fs", "fsl"])
    def test_trained_models_rescore_nothing(self, monkeypatch, variant):
        # the certificate decides every relation of a trained model: a
        # tolerance so wide that it always rescores would fail here
        corpus = clustered_corpus(seed=5)
        split = holdout_split(corpus.store, 0.2, seed=5)
        result = trainer.train(split.train, corpus.rules, ModelConfig(k=16, variant=variant),
                               TrainOptions(epochs=10, batch_size=256, learning_rate=0.05,
                                            seed=5))
        tasks = build_tasks(split.train, split.test)
        with monkeypatch.context() as m:
            calls = counting(m, model, "effective_tuples")
            certified = weighted_map(tasks, result.params, variant)
        assert exact_chunks(calls, len(split.train.tuples)) == []
        assert len(calls) == sum(bool(t.positives) for t in tasks)
        force_exact_path(monkeypatch)
        assert certified == weighted_map(tasks, result.params, variant)

    @pytest.mark.parametrize("component", [np.inf, -np.inf])
    def test_infinite_relation_takes_exact_path(self, monkeypatch, component):
        # the whole block is scored exactly, and the ranking sigmoid never runs
        rng = np.random.default_rng(33)
        params = ModelParams(np.array([[component, 1.0], [0.5, -1.0]]), rng.normal(size=(6, 2)))
        tasks = [task(0, {2, 4}, 6), task(1, {1}, 6)]
        sigmoid_calls = counting(monkeypatch, evaluation, "_ranking_sigmoid")
        calls = counting(monkeypatch, model, "effective_tuples")
        _, rows = weighted_map(tasks, params, "fs")
        assert sigmoid_calls == []
        assert exact_chunks(calls, 6) == [list(range(6))]
        assert [row.average_precision for row in rows] == \
            [oracle_ap(params, "fs", t) for t in tasks]

    @pytest.mark.parametrize("where", ["relations", "tuple_pre"])
    def test_nan_parameters_are_data_error(self, where):
        params = ModelParams(np.ones((1, 2)), np.ones((3, 2)))
        getattr(params, where)[0, 1] = np.nan
        with pytest.raises(DataError, match="NaN"):
            weighted_map([task(0, {1}, 3)], params, "fs")

    def test_positive_errors_are_those_of_the_exact_path(self):
        params = ModelParams(np.ones((4, 1)), np.arange(5.0)[:, None])
        with pytest.raises(DataError, match=r"relation 0: positive tuple ids outside 0\.\.4$"):
            weighted_map([task(0, {7}, 5)], params, "fs")
        with pytest.raises(DataError, match=r"relation 3: 2 test tuple\(s\) .*: 1, 4$"):
            weighted_map([task(3, {0, 1, 4}, 5, excluded={1, 2, 4})], params, "fs")


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
