import hashlib
import logging
import tracemalloc

import numpy as np
import pytest

from helpers import adam_update_oracle, sample_negative
from liftedkb import model, trainer
from liftedkb.data import FactStore, Rule, Vocab
from liftedkb.errors import DataError, NumericalError
from liftedkb.model import Gradients, ModelConfig, ModelParams
from liftedkb.trainer import AdamState, TrainOptions, sample_negatives, train
from liftedkb.synthetic import clustered_corpus


def small_store():
    pairs = [("r0", f"t{j}") for j in range(5)] + [("r1", "t0"), ("r1", "t2")]
    return FactStore.from_named_pairs(pairs)


# the rule rows of a `Gradients` built by hand: no rules
NO_RULE_ROWS = np.array([], dtype=np.int64)


def sample_like_oracle(store, relations, seed):
    """`sample_negatives` on `relations`, checked against one oracle call per
    entry with the cap `trainer.MAX_NEGATIVE_ATTEMPTS` holds at call time:
    same negatives (-1 for a dropped pair), attempts and final state."""
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    negatives, attempts = sample_negatives(store, relations, rng)
    expected = [sample_negative(store, rel, oracle_rng, trainer.MAX_NEGATIVE_ATTEMPTS)
                for rel in np.asarray(relations).tolist()]
    assert negatives.tolist() == [-1 if neg is None else neg for neg, _ in expected]
    assert attempts.tolist() == [tries for _, tries in expected]
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    return negatives, attempts


def edge_store(n_tuples=4):
    """Relation 0 has no facts, 1 has every tuple but the last, 2 has all."""
    facts = ([(1, t) for t in range(n_tuples - 1)] + [(2, t) for t in range(n_tuples)])
    return FactStore(Vocab(["free", "one_left", "full"]),
                     Vocab([f"t{t}" for t in range(n_tuples)]), facts)


class TestSampleNegative:
    def test_forced_outcome(self):
        # relation observed with every tuple but one
        pairs = [("r", f"t{j}") for j in range(9)] + [("other", "t9")]
        store = FactStore.from_named_pairs(pairs)
        negatives, _ = sample_like_oracle(store, [store.relations.id("r")] * 20, seed=0)
        assert negatives.tolist() == [store.tuples.id("t9")] * 20

    def test_deterministic_sequence(self):
        store = small_store()
        a, _ = sample_like_oracle(store, [1] * 50, seed=9)
        b, _ = sample_like_oracle(store, [1] * 50, seed=9)
        assert a.tolist() == b.tolist()

    def test_saturated_relation_skips(self):
        pairs = [("r", f"t{j}") for j in range(4)]
        store = FactStore.from_named_pairs(pairs)
        negatives, attempts = sample_like_oracle(store, [0], seed=0)
        assert negatives.tolist() == [-1]
        assert attempts.tolist() == [trainer.MAX_NEGATIVE_ATTEMPTS]

    @pytest.mark.parametrize("max_attempts", [1, 3, trainer.MAX_NEGATIVE_ATTEMPTS])
    def test_matches_oracle_on_random_stores(self, monkeypatch, max_attempts):
        monkeypatch.setattr(trainer, "MAX_NEGATIVE_ATTEMPTS", max_attempts)
        rng = np.random.default_rng(20)
        for case in range(40):
            n_rel, n_tup = int(rng.integers(1, 6)), int(rng.integers(1, 30))
            density = rng.random(n_rel)  # some relations near or at saturation
            observed = rng.random((n_rel, n_tup)) < density[:, None]
            store = FactStore(Vocab([f"r{r}" for r in range(n_rel)]),
                              Vocab([f"t{t}" for t in range(n_tup)]),
                              np.argwhere(observed))
            relations = rng.integers(n_rel, size=int(rng.integers(0, 400)))
            sample_like_oracle(store, relations, seed=case)

    @pytest.mark.parametrize("at", [0, 63, 64, 191, 192])
    @pytest.mark.parametrize("drop", [False, True])
    def test_collision_on_window_edge(self, at, drop):
        # relation 0 has no facts, so the one collision falls on fact `at`,
        # first or deep in the stream. Relation 1 observes the tuple drawn
        # there and, unless it drops, one tuple less.
        draws = np.random.default_rng(at).integers(4, size=at + 100).tolist()
        free = -1 if drop else next(d for d in draws[at + 1:] if d != draws[at])
        store = FactStore(Vocab(["none", "edge"]), Vocab(["a", "b", "c", "d"]),
                          [(1, t) for t in range(4) if t != free])
        negatives, attempts = sample_like_oracle(store, [0] * at + [1] + [0] * 300, seed=at)
        assert attempts[at] > 1 and np.delete(attempts, at).max() == 1
        assert (negatives[at] == -1) == drop

    def test_draws_overrun_the_first_block(self):
        # each dropped pair consumes the full cap, far beyond one draw per fact
        relations = [2, 0, 1, 2, 2, 1, 0, 2] * 20
        negatives, attempts = sample_like_oracle(edge_store(), relations, seed=4)
        assert attempts.sum() > len(relations) + trainer.MAX_NEGATIVE_ATTEMPTS
        assert (negatives == -1).sum() == relations.count(2)

    def test_draws_only_the_values_it_uses(self):
        # each block holds one draw per fact still without a negative, and
        # each such fact takes at least one more, so no value is discarded
        class CountingGenerator:
            def __init__(self, rng):
                self.rng, self.bit_generator, self.drawn = rng, rng.bit_generator, 0

            def integers(self, high, size=None):
                self.drawn += 1 if size is None else size
                return self.rng.integers(high, size=size)

        rng = CountingGenerator(np.random.default_rng(4))
        _, attempts = sample_negatives(edge_store(), [2, 0, 1, 2, 2, 1, 0, 2] * 20, rng)
        assert rng.drawn == attempts.sum()

    @pytest.mark.parametrize("max_attempts", [1, trainer.MAX_NEGATIVE_ATTEMPTS])
    def test_long_collision_chains(self, monkeypatch, max_attempts):
        monkeypatch.setattr(trainer, "MAX_NEGATIVE_ATTEMPTS", max_attempts)
        # relation 0 observes 48 of 50 tuples: facts take about 25 draws
        # each under the full cap, so the stream is drawn in many blocks
        observed = np.random.default_rng(95).permutation(50)[:48]
        store = FactStore(Vocab(["dense"]), Vocab([f"t{t}" for t in range(50)]),
                          [(0, t) for t in observed.tolist()])
        relations = [0] * 2000
        negatives, attempts = sample_like_oracle(store, relations, seed=95)
        if max_attempts > 1:  # the draws outrun the first block many times over
            assert attempts.sum() > 8 * (len(relations) + max_attempts)
        assert 0 < (negatives == -1).sum() < len(relations)

    @pytest.mark.parametrize("n", [5_000, 100_000, 2**33])
    def test_batched_integers_equal_scalar_draws(self, n):
        # the property sample_negatives rests on: a size-m draw yields the
        # values and the generator state of m scalar draws, also when split
        batched, scalar = np.random.default_rng(n), np.random.default_rng(n)
        values = np.concatenate([batched.integers(n, size=333), batched.integers(n, size=667)])
        assert values.tolist() == [int(scalar.integers(n)) for _ in range(1000)]
        assert batched.bit_generator.state == scalar.bit_generator.state

    def test_every_epoch_yields_one_outcome_per_fact(self, monkeypatch):
        store = edge_store(n_tuples=6)  # relation 2's facts are always dropped
        outcomes, pairs = [], []
        recon_l2_gradients = model.recon_l2_gradients

        def sampler(store_, relations, rng):
            result = sample_negatives(store_, relations, rng)
            outcomes.append((sorted(relations.tolist()), len(result[0]), len(result[1])))
            pairs.append(0)
            return result

        def gradients(params, batch, *args):
            pairs[-1] += len(batch)
            return recon_l2_gradients(params, batch, *args)

        monkeypatch.setattr(trainer, "sample_negatives", sampler)
        monkeypatch.setattr(model, "recon_l2_gradients", gradients)
        result = train(store, [], ModelConfig(k=2), TrainOptions(epochs=3, batch_size=4))
        n = len(store)
        assert outcomes == [(sorted(store.facts[:, 0].tolist()), n, n)] * 3
        assert [p + st.dropped_pairs for p, st in zip(pairs, result.stats)] == [n] * 3
        assert [st.dropped_pairs for st in result.stats] == [6] * 3


class TestAdamStep:
    def make(self, grad_value):
        params = ModelParams(np.zeros((1, 1)), np.zeros((1, 1)))
        state = AdamState.zeros(1, 1, 1)
        grads = Gradients(np.full((1, 1), grad_value), np.zeros((0, 1)),
                          np.array([0]), np.array([], dtype=np.int64), NO_RULE_ROWS)
        return params, state, grads

    def test_first_step_magnitude(self):
        # frozen: bias-corrected first step with g=1, lr=0.005
        params, state, grads = self.make(1.0)
        trainer.adam_step(params, grads, state, TrainOptions(epochs=1))
        assert params.relations[0, 0] == pytest.approx(-0.004999999950000004, rel=1e-12)
        assert state.step == 1

    def test_zero_gradient_block_untouched(self):
        params, state, grads = self.make(1.0)
        params.tuple_pre[:] = 0.7
        state.m_tup[:] = 0.3
        trainer.adam_step(params, grads, state, TrainOptions(epochs=1))
        # tuple block had no touched rows: values and moments must not move
        assert params.tuple_pre[0, 0] == 0.7
        assert state.m_tup[0, 0] == 0.3

    def test_second_step_smaller_for_repeated_gradient(self):
        params, state, grads = self.make(1.0)
        opts = TrainOptions(epochs=1)
        trainer.adam_step(params, grads, state, opts)
        first = abs(params.relations[0, 0])
        before = params.relations[0, 0]
        trainer.adam_step(params, grads, state, opts)
        second = abs(params.relations[0, 0] - before)
        assert second < first

    def test_nonfinite_gradient_identifies_block(self):
        params, state, grads = self.make(np.nan)
        with pytest.raises(NumericalError, match="relation"):
            trainer.adam_step(params, grads, state, TrainOptions(epochs=1))

    def test_buffer_row_count_must_match_rows(self):
        params, state, grads = self.make(1.0)
        grads.tuple_pre = np.zeros((1, 1))  # one buffer row, no touched rows
        with pytest.raises(ValueError, match="tuple pre-activations"):
            trainer.adam_step(params, grads, state, TrainOptions(epochs=1))

    @pytest.mark.parametrize("row", [-1, 1])
    def test_rows_outside_block_rejected(self, row):
        params, state, grads = self.make(1.0)
        grads.relation_rows = np.array([row])
        with pytest.raises(IndexError, match="relation embeddings"):
            trainer.adam_step(params, grads, state, TrainOptions(epochs=1))
        assert params.relations[0, 0] == 0.0 and state.m_rel[0, 0] == 0.0

    @pytest.mark.parametrize("options", [
        TrainOptions(epochs=1),
        TrainOptions(epochs=1, learning_rate=0.02)])
    def test_matches_out_of_place_oracle_bytes(self, options):
        rng = np.random.default_rng(31)
        k, sizes = 6, (40, 300)  # relations, tuples
        params = ModelParams(rng.normal(size=(sizes[0], k)), rng.normal(size=(sizes[1], k)))
        state = AdamState.zeros(*sizes, k)
        expected = [params.relations.copy(), params.tuple_pre.copy(),
                    state.m_rel.copy(), state.v_rel.copy(),
                    state.m_tup.copy(), state.v_tup.copy()]
        specials = [0.0, -0.0, 5e-324, 1e-300, 1e150, -1e150, -1e-300]
        for t in range(1, 6):
            rows = [np.sort(rng.choice(size, int(rng.integers(2, size)), replace=False))
                    for size in sizes]
            grads = []
            for block_rows in rows:
                grad = rng.normal(size=(len(block_rows), k)) * 10.0 ** rng.integers(-8, 9)
                grad.flat[rng.choice(grad.size, len(specials), replace=False)] = specials
                grads.append(grad)
            trainer.adam_step(params, Gradients(*grads, *rows, NO_RULE_ROWS), state, options)
            theta_rel, theta_tup, m_rel, v_rel, m_tup, v_tup = expected
            adam_update_oracle(theta_rel, grads[0], m_rel, v_rel, rows[0], t, options)
            adam_update_oracle(theta_tup, grads[1], m_tup, v_tup, rows[1], t, options)
            got = [params.relations, params.tuple_pre,
                   state.m_rel, state.v_rel, state.m_tup, state.v_tup]
            assert [a.tobytes() == b.tobytes() for a, b in zip(got, expected)] == [True] * 6

    @pytest.mark.parametrize("k, block, full_slices, remainder", [
        (6, 24, 3, 3),      # 4 rows a slice
        (3, 16, 4, 2),      # 5 rows a slice, the block no multiple of k
        (7, 4, 6, 0),       # k > ADAM_BLOCK: one row a slice
        (6, None, 3, 1),    # the shipped ADAM_BLOCK
    ])
    def test_slices_match_out_of_place_oracle_bytes(self, monkeypatch, k, block,
                                                    full_slices, remainder):
        # both blocks' rows span several slices plus a remainder, so a slice
        # that drops, repeats or skips a row moves some bit off the oracle
        if block is not None:
            monkeypatch.setattr(trainer, "ADAM_BLOCK", block)
        n = full_slices * max(trainer.ADAM_BLOCK // k, 1) + remainder
        rng = np.random.default_rng(n)
        sizes = (n, 2 * n)  # relations, tuples: all relation rows, half the tuple rows
        params = ModelParams(rng.normal(size=(sizes[0], k)), rng.normal(size=(sizes[1], k)))
        state = AdamState.zeros(*sizes, k)
        expected = [params.relations.copy(), params.tuple_pre.copy(),
                    state.m_rel.copy(), state.v_rel.copy(),
                    state.m_tup.copy(), state.v_tup.copy()]
        options = TrainOptions(epochs=1, learning_rate=0.02)
        for t in range(1, 4):
            rows = [np.arange(n), np.sort(rng.choice(sizes[1], n, replace=False))]
            grads = [rng.normal(size=(n, k)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
                     for _ in rows]
            trainer.adam_step(params, Gradients(*grads, *rows, NO_RULE_ROWS), state, options)
            theta_rel, theta_tup, m_rel, v_rel, m_tup, v_tup = expected
            adam_update_oracle(theta_rel, grads[0], m_rel, v_rel, rows[0], t, options)
            adam_update_oracle(theta_tup, grads[1], m_tup, v_tup, rows[1], t, options)
            got = [params.relations, params.tuple_pre,
                   state.m_rel, state.v_rel, state.m_tup, state.v_tup]
            assert [a.tobytes() == b.tobytes() for a, b in zip(got, expected)] == [True] * 6

    def test_tuple_step_peak_memory(self):
        # a step's work buffers are ADAM_BLOCK-sized slices, so ten times the
        # touched rows adds no more than the finiteness check's (rows, k) bool
        k, n_tuples = 100, 20_000
        rng = np.random.default_rng(2)
        params = ModelParams(np.zeros((1, k)), rng.normal(size=(n_tuples, k)))
        state = AdamState.zeros(1, n_tuples, k)
        peaks = {}
        for rows in (1_000, 10_000):
            grads = Gradients(np.zeros((0, k)), rng.normal(size=(rows, k)),
                              np.array([], dtype=np.int64),
                              np.sort(rng.choice(n_tuples, rows, replace=False)),
                              NO_RULE_ROWS)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                trainer.adam_step(params, grads, state, TrainOptions(epochs=1))
                peaks[rows] = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            block = trainer.ADAM_BLOCK * 8
            assert peaks[rows] <= 4.5 * block + rows * k, \
                f"peak {peaks[rows] / block:.2f}x ADAM_BLOCK float64s at {rows} rows"
        assert peaks[10_000] - peaks[1_000] <= 10_000 * k, peaks

    def test_moment_invariants(self):
        rng = np.random.default_rng(0)
        params = ModelParams(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)))
        state = AdamState.zeros(3, 5, 4)
        opts = TrainOptions(epochs=1)
        for step in range(10):
            grads = Gradients(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)),
                              np.arange(3), np.arange(5), NO_RULE_ROWS)
            trainer.adam_step(params, grads, state, opts)
        assert np.all(state.v_rel >= 0) and np.all(state.v_tup >= 0)
        assert np.all(np.isfinite(params.relations))
        assert np.all(np.isfinite(params.tuple_pre))


class TestInitParams:
    def test_default_range(self):
        config = ModelConfig(k=8)
        p = model.init_params(config, 5, 7, seed=3)
        for arr in (p.relations, p.tuple_pre):
            assert np.all(arr >= -0.1) and np.all(arr <= 0.1)

    def test_negative_override_range(self):
        config = ModelConfig(k=8)
        p = model.init_params(config, 5, 7, seed=3, cold_relations={2})
        assert np.all(p.relations[2] >= -8.1) and np.all(p.relations[2] <= -7.9)
        assert np.all(p.relations[0] >= -0.1)

    def test_same_seed_bitwise_identical(self):
        config = ModelConfig(k=8)
        a = model.init_params(config, 5, 7, seed=11, cold_relations={1})
        b = model.init_params(config, 5, 7, seed=11, cold_relations={1})
        assert np.array_equal(a.relations, b.relations)
        assert np.array_equal(a.tuple_pre, b.tuple_pre)


class TestTrainOptions:
    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": 0}, {"learning_rate": -0.1}, {"learning_rate": float("nan")},
        {"learning_rate": float("inf")}, {"batch_size": 0}, {"epochs": -1},
    ])
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainOptions(**{"epochs": 1, **kwargs})


class TestTrain:
    def options(self, epochs, seed=0):
        return TrainOptions(epochs=epochs, batch_size=64, learning_rate=0.02, seed=seed)

    def test_zero_epochs_returns_initialization(self):
        store = small_store()
        config = ModelConfig(k=4)
        result = train(store, [], config, self.options(0))
        init = model.init_params(config, len(store.relations), len(store.tuples), 0)
        assert np.array_equal(result.params.relations, init.relations)
        assert np.array_equal(result.params.tuple_pre, init.tuple_pre)
        assert result.stats == []

    def test_empty_store_is_data_error(self):
        with pytest.raises(DataError, match="fact store is empty"):
            train(FactStore(Vocab(["r"]), Vocab(["t"]), []), [], ModelConfig(k=2),
                  self.options(1))

    def test_fsl_without_rules_trains_fs(self, caplog):
        store = small_store()
        with caplog.at_level(logging.WARNING, logger="liftedkb.trainer"):
            fsl = train(store, [], ModelConfig(k=4, variant="fsl"), self.options(3))
        assert [r.getMessage() for r in caplog.records] == \
            ["variant fsl with no rules: training reduces to fs"]
        fs = train(store, [], ModelConfig(k=4, variant="fs"), self.options(3))
        assert fsl.params.relations.tobytes() == fs.params.relations.tobytes()
        assert fsl.params.tuple_pre.tobytes() == fs.params.tuple_pre.tobytes()

    def test_bitwise_deterministic(self):
        corpus = clustered_corpus(n_clusters=2, relations_per_cluster=4,
                                  tuples_per_cluster=20, n_rules=2, seed=5)
        config = ModelConfig(k=6, variant="fsl")
        a = train(corpus.store, corpus.rules, config, self.options(5, seed=2))
        b = train(corpus.store, corpus.rules, config, self.options(5, seed=2))
        assert np.array_equal(a.params.relations, b.params.relations)
        assert np.array_equal(a.params.tuple_pre, b.params.tuple_pre)
        assert [s.loss for s in a.stats] == [s.loss for s in b.stats]

    def test_loss_descends_on_separable_data(self):
        corpus = clustered_corpus(n_clusters=2, relations_per_cluster=10,
                                  tuples_per_cluster=20, n_rules=0,
                                  base_prob=0.5, seed=8)
        config = ModelConfig(k=8, variant="fs")
        result = train(corpus.store, [], config, self.options(100, seed=1))
        assert result.stats[99].loss.total < result.stats[0].loss.total

    def test_recon_loss_trend_after_burn_in(self):
        corpus = clustered_corpus(n_clusters=2, relations_per_cluster=10,
                                  tuples_per_cluster=20, n_rules=0,
                                  base_prob=0.5, seed=8)
        config = ModelConfig(k=8, variant="fs")
        result = train(corpus.store, [], config, self.options(200, seed=1))
        recon = [s.loss.reconstruction for s in result.stats]
        # non-overlapping window means decrease monotonically past the burn-in
        # (fresh negative sampling makes narrower windows too noisy)
        windows = [np.mean(recon[i:i + 30]) for i in range(20, 200, 30)]
        assert all(b < a for a, b in zip(windows, windows[1:]))

    def test_fsl_drives_rule_violations_down(self):
        corpus = clustered_corpus(n_clusters=2, relations_per_cluster=4,
                                  tuples_per_cluster=30, n_rules=2, seed=9)
        config = ModelConfig(k=10, variant="fsl", delta=0.01)
        result = train(corpus.store, corpus.rules, config, self.options(300, seed=4))
        violations = []
        for rule in corpus.rules:
            diff = result.params.relations[rule.antecedent] \
                - result.params.relations[rule.consequent]
            violations.append(np.mean(diff > 0))
        assert np.mean(violations) < 0.05

    def test_all_parameters_stay_finite(self):
        store = small_store()
        config = ModelConfig(k=4, variant="fs")
        result = train(store, [], config, self.options(50))
        assert np.all(np.isfinite(result.params.relations))
        assert np.all(np.isfinite(result.params.tuple_pre))

    def test_epoch_without_batch_warns(self, caplog):
        # one fact over one tuple: every negative draw hits it, every pair drops
        store = FactStore.from_named_pairs([("r", "t")])
        with caplog.at_level(logging.WARNING, logger="liftedkb.trainer"):
            result = train(store, [], ModelConfig(k=2), self.options(2))
        assert [(s.adam_rows, s.dropped_pairs, s.loss.total) for s in result.stats] \
            == [(0, 1, 0.0)] * 2
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 2
        for epoch, message in enumerate(warnings):
            assert message.startswith(f"epoch {epoch} ran no batch: all 1 pairs were dropped")

    def test_epoch_stats_fields(self):
        store = small_store()
        result = train(store, [], ModelConfig(k=4), self.options(3))
        assert [s.epoch for s in result.stats] == [0, 1, 2]
        for s in result.stats:
            assert s.seconds >= 0
            assert 0 <= s.collision_rate <= 1
            phases = (s.sample_seconds, s.grad_seconds, s.adam_seconds, s.rule_seconds)
            assert min(phases) >= 0 and sum(phases) <= s.seconds
            assert s.adam_rows > 0


class TestGoldenDigest:
    # SHA-256 of params, ADAM moments and step after a fixed-seed run,
    # recorded with the dense-gradient trainer (numpy 2.4, x86-64). Equal
    # digests mean the row-compact gradient path changed no bit.
    DIGESTS = {
        "f": "56757697c5aef0a7b9ef9f19fd65be904534510ca69cd12548c2919af7f52228",
        "fs": "2417a645c8aa7a44acc9924bab616c5df230c3d827654adec1c0d467b2d78471",
        "fsl": "014e779d8fadc28b79cb294e0a2b37c116cd1da1ac1686332c7bd30fff82deb4",
    }

    @pytest.mark.parametrize("variant", ["f", "fs", "fsl"])
    def test_fixed_seed_run_matches_recorded_digest(self, variant, monkeypatch):
        # `train` frees its ADAM state on return: a spy on `adam_step` keeps it
        states = []
        adam_step = trainer.adam_step

        def spy(params, grads, state, options):
            states.append(state)
            return adam_step(params, grads, state, options)

        monkeypatch.setattr(trainer, "adam_step", spy)
        corpus = clustered_corpus(n_clusters=2, relations_per_cluster=6,
                                  tuples_per_cluster=40, n_rules=3, seed=3)
        result = train(corpus.store, corpus.rules, ModelConfig(k=5, variant=variant),
                       TrainOptions(epochs=4, batch_size=32, learning_rate=0.02, seed=7))
        state = states[-1]
        digest = hashlib.sha256()
        for arr in (result.params.relations, result.params.tuple_pre,
                    state.m_rel, state.v_rel, state.m_tup, state.v_tup):
            digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(str(state.step).encode())
        assert state.step == 20
        assert digest.hexdigest() == self.DIGESTS[variant]
