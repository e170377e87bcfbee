import re
import tracemalloc

import numpy as np
import pytest

from helpers import (away_from_hinge_kinks, batch_from_pairs, batch_loss, dense_gradients,
                     finite_difference_gradients, grounded_rule_loss, implication_pair_loss,
                     lifted_rule_loss, load_embeddings_oracle, random_instance,
                     recon_l2_gradients_oracle, relative_gradient_error,
                     rule_gradients_oracle)
from liftedkb import model
from liftedkb.data import FactStore, Rule, Vocab
from liftedkb.errors import ParseError
from liftedkb.model import Batch, LossBreakdown, ModelConfig, ModelParams, recon_pair_loss


def params_of(relations, tuple_pre):
    return ModelParams(np.asarray(relations, float), np.asarray(tuple_pre, float))


class TestTupleEmbedding:
    def test_sigmoid_at_zero(self):
        p = params_of([[1.0, 1.0]], [[0.0, 0.0]])
        assert model.effective_tuples(p, "fs")[0] == pytest.approx([0.5, 0.5])

    def test_identity_for_variant_f(self):
        p = params_of([[1.0, 1.0]], [[0.0, 0.0]])
        assert model.effective_tuples(p, "f")[0] == pytest.approx([0.0, 0.0])

    def test_sigmoid_of_minus_eight(self):
        # frozen: 1 / (1 + e^8)
        p = params_of([[1.0]], [[-8.0]])
        assert model.effective_tuples(p, "fs")[0, 0] == pytest.approx(
            0.0003353501304664781, rel=1e-12)

    def test_range_strictly_in_unit_interval(self):
        rng = np.random.default_rng(0)
        p = ModelParams(rng.normal(size=(2, 4)), rng.normal(0, 10, size=(50, 4)))
        emb = model.effective_tuples(p, "fsl")
        assert np.all(emb > 0.0) and np.all(emb < 1.0)


class TestScore:
    @staticmethod
    def score(p, relation, tup, variant):
        return float(p.relations[relation] @ model.effective_tuples(p, variant)[tup])

    def test_symmetric_cancellation(self):
        p = params_of([[0.5, -0.5]], [[1.0, 1.0]])
        assert self.score(p, 0, 0, "f") == pytest.approx(0.0)

    def test_unit_projection(self):
        p = params_of([[1.0, 0.0]], [[0.3, 0.9]])
        assert self.score(p, 0, 0, "f") == pytest.approx(0.3)

    def test_fs_sigmoid_midpoint(self):
        p = params_of([[0.2, 0.4]], [[0.0, 0.0]])
        assert self.score(p, 0, 0, "fs") == pytest.approx(0.3)


class TestReconPairLoss:
    def test_at_zero_is_log_two(self):
        assert recon_pair_loss(0.0) == pytest.approx(0.6931471805599453)

    def test_large_negative(self):
        # frozen: log1p(exp(-20))
        assert recon_pair_loss(-20.0) == pytest.approx(2.061153620314381e-09, rel=1e-12)

    def test_large_positive_no_overflow(self):
        assert recon_pair_loss(50.0) == 50.0
        assert np.isfinite(recon_pair_loss(1000.0))

    def test_always_positive(self):
        for s in np.linspace(-30, 30, 101):
            assert recon_pair_loss(s) > 0


class TestImplicationPairLoss:
    def test_hinge_at_margin(self):
        assert implication_pair_loss(0.0, 0.01) == pytest.approx(0.01)

    def test_satisfied_constraint_is_zero(self):
        assert implication_pair_loss(-0.02, 0.01) == 0.0
        assert implication_pair_loss(-0.01, 0.01) == 0.0

    def test_linear_above_margin(self):
        assert implication_pair_loss(0.05, 0.01) == pytest.approx(0.06)


class TestLiftedRuleLoss:
    def test_equal_vectors_give_k_delta(self):
        vec = np.random.default_rng(1).normal(size=100)
        p = ModelParams(np.vstack([vec, vec]), np.zeros((1, 100)))
        assert lifted_rule_loss(p, Rule(0, 1), 0.01) == pytest.approx(1.0)

    def test_hand_computed(self):
        p = params_of([[0.2, 0.0], [0.1, 0.5]], [[0.0, 0.0]])
        assert lifted_rule_loss(p, Rule(0, 1), 0.01) == pytest.approx(0.11)

    def test_satisfied_ordering_is_zero(self):
        rng = np.random.default_rng(2)
        cons = rng.normal(size=8)
        ant = cons - 0.01 - np.abs(rng.normal(size=8))
        p = ModelParams(np.vstack([ant, cons]), np.zeros((1, 8)))
        assert lifted_rule_loss(p, Rule(0, 1), 0.01) == 0.0


class TestGroundedRuleLoss:
    def test_zero_difference(self):
        vec = np.ones(4)
        p = ModelParams(np.vstack([vec, vec]), np.random.default_rng(0).normal(size=(5, 4)))
        assert grounded_rule_loss(p, Rule(0, 1), range(5), 0.0, "fs") == 0.0

    def test_unit_tuple_reduces_to_pair_loss(self):
        # a one-hot effective tuple grounds the loss on a single dimension
        p = params_of([[0.4, -0.2], [0.1, 0.3]], [[1.0, 0.0]])
        got = grounded_rule_loss(p, Rule(0, 1), [0], 0.01, "f")
        assert got == pytest.approx(implication_pair_loss(0.4 - 0.1, 0.01))

    def test_jensen_bound_on_random_instance(self):
        rng = np.random.default_rng(3)
        p = ModelParams(rng.normal(size=(2, 4)), rng.normal(size=(5, 4)))
        rule = Rule(0, 1)
        grounded = grounded_rule_loss(p, rule, range(5), 0.01, "fs")
        lifted = lifted_rule_loss(p, rule, 0.01)
        assert grounded <= 5 * lifted * (1 + 1e-12) + 1e-15

    def test_negative_components_rejected_for_variant_f(self):
        p = params_of([[1.0], [0.0]], [[-1.0]])
        with pytest.raises(ValueError):
            grounded_rule_loss(p, Rule(0, 1), [0], 0.01, "f")


class TestOrderingImpliesEntailment:
    def test_zero_lifted_loss_orders_all_nonnegative_tuples(self):
        rng = np.random.default_rng(4)
        k = 6
        cons = rng.normal(size=k)
        ant = cons - 0.01 - np.abs(rng.normal(size=k))
        p = ModelParams(np.vstack([ant, cons]), np.zeros((1, k)))
        assert lifted_rule_loss(p, Rule(0, 1), 0.01) == 0.0
        tuples = np.abs(rng.normal(size=(10_000, k)))
        diffs = tuples @ (cons - ant)
        assert np.all(diffs >= 0.0)


class TestLossBreakdown:
    def test_total_reconstructs_bitwise(self):
        lb = LossBreakdown.build(1.25, 3.5, 0.75, alpha=0.01, beta_tilde=0.1)
        assert lb.total == lb.reconstruction + 0.01 * lb.l2 + 0.1 * lb.implication


class TestScatterRows:
    def test_bytes_equal_add_at(self):
        # row sums in occurrence order, as np.add.at into zeros: magnitudes
        # 1e-8..1e8 of both signs make any other order change the bytes
        rng = np.random.default_rng(11)
        m, k, n_rows = 4_000, 20, 700  # some rows get no value
        at = rng.integers(n_rows - 50, size=m)
        values = rng.choice([-1.0, 1.0], (m, k)) * 10.0 ** rng.uniform(-8, 8, (m, k))
        values[7, 3] = -0.0
        expected = np.zeros((n_rows, k))
        np.add.at(expected, at, values)
        got = model.scatter_rows(at, values, n_rows)
        assert got.tobytes() == expected.tobytes()


class TestGradients:
    def test_symmetric_init_zero_recon_gradient(self):
        # all-zero params under FS: t_pos == t_neg == 0.5, so nothing moves
        config = ModelConfig(k=3, variant="fs", alpha=0.0)
        p = ModelParams(np.zeros((1, 3)), np.zeros((2, 3)))
        grads = dense_gradients(p, batch_from_pairs([(0, 0, 1)]), [], config)
        assert np.allclose(grads.relations, 0.0)
        assert np.allclose(grads.tuple_pre, 0.0)

    def test_hinge_subgradient_is_beta_tilde(self):
        config = ModelConfig(k=2, variant="fsl", alpha=0.0, beta_tilde=0.1, delta=0.01)
        p = params_of([[0.5, -0.5], [0.0, 0.0]], [[0.0, 0.0]])
        grads = dense_gradients(p, batch_from_pairs([(0, 0, 0)]), [Rule(0, 1)], config)
        # dim 0 active (0.5 + 0.01 > 0), dim 1 inactive; recon cancels (same tuple)
        assert grads.relations[0, 0] == pytest.approx(0.1)
        assert grads.relations[1, 0] == pytest.approx(-0.1)
        assert grads.relations[0, 1] == pytest.approx(0.0)

    @pytest.mark.parametrize("variant", ["f", "fs", "fsl"])
    def test_matches_finite_differences(self, variant):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 10:
            n_rules = 2 if variant == "fsl" else 0
            p, batch, rules, config = random_instance(rng, variant, n_rules=n_rules)
            if rules and not away_from_hinge_kinks(p, rules, config.delta):
                continue
            analytic = dense_gradients(p, batch, rules, config)
            numeric = finite_difference_gradients(p, batch, rules, config)
            err = relative_gradient_error((analytic.relations, analytic.tuple_pre), numeric)
            assert err < 1e-4, f"variant {variant}: relative error {err}"
            checked += 1

    def test_gradient_matches_loss_definition(self):
        # analytic gradients differentiate exactly the reported batch loss
        rng = np.random.default_rng(6)
        p, batch, rules, config = random_instance(rng, "fsl", n_rules=1)
        loss = batch_loss(p, batch, rules, config)
        assert loss.total == loss.reconstruction + config.alpha * loss.l2 \
            + config.beta_tilde * loss.implication


class TestCompactGradients:
    def test_buffer_size_independent_of_tuple_vocabulary(self):
        # the same facts in a 1k- and a 100k-tuple vocabulary: an epoch is
        # O(nnz) only if the per-batch buffers do not grow with |T|
        facts = [(f"r{i % 5}", f"t{(7 * i) % 300}") for i in range(200)]

        def store_with(n_tuples):
            relations = Vocab(f"r{i}" for i in range(5))
            tuples = Vocab(f"t{j}" for j in range(n_tuples))
            return FactStore(relations, tuples,
                             [(relations.id(r), tuples.id(t)) for r, t in facts])

        config = ModelConfig(k=4, variant="fsl")
        large = model.init_params(config, 5, 100_000, seed=0)
        small = ModelParams(large.relations, large.tuple_pre[:1_000])
        rule_idx = model.rule_index_arrays([Rule(0, 3), Rule(1, 4)])
        results = []
        for params, n_tuples in ((small, 1_000), (large, 100_000)):
            store = store_with(n_tuples)
            rel, pos = np.array(store.facts).T
            batch = Batch(rel, pos, (pos + 301) % 1_000)
            grads, _, _ = model.recon_l2_gradients(params, batch, rule_idx, config)
            model.rule_gradients(params, rule_idx, config, grads)
            rows = np.unique(np.concatenate([batch.positives, batch.negatives]))
            assert np.array_equal(grads.tuple_rows, rows)
            assert grads.tuple_pre.shape == (len(rows), 4)
            assert grads.relations.shape == (5, 4)
            results.append(grads)
        assert np.array_equal(results[0].tuple_pre, results[1].tuple_pre)
        assert np.array_equal(results[0].relations, results[1].relations)


def gather_instance(variant, shape, m=3_000, k=6, seed=0):
    """Params, batch and rule index arrays for the one-gather forward pass.

    `repeats` draws m pairs from 5 relations and 12 tuples; `self_pairs`
    makes every third pair's negative its positive; `rules_outside_batch`
    puts the rules on relations 6-9, which the batch never names;
    `shared_rule_relation` makes relation 0 the consequent of the first rule
    and the antecedent of the next two. With row scales of 1e-3..1e2, a
    reconstruction scatter summed in another occurrence order (reversed,
    halves swapped or neighbours swapped) changed the relation and tuple
    gradient bytes for every shape and variant on seeds 0-19. The rule
    term's add order is another matter: at the default `beta_tilde` and
    `delta`, an interleaved order changed bytes on 1 of 20 seeds, so its pin
    sets every hinge active with terms as large as the rows.
    """
    rng = np.random.default_rng(seed)
    config = ModelConfig(k=k, variant=variant, alpha=0.01)
    scale = 10.0 ** rng.uniform(-3, 2, (40, 1))
    params = ModelParams(rng.normal(size=(10, k)) * scale[:10],
                         rng.normal(size=(40, k)) * scale)
    relations = rng.integers(5, size=m)
    positives = rng.integers(12, size=m)
    negatives = rng.integers(12, size=m)
    if shape == "self_pairs":
        negatives[::3] = positives[::3]
    ant, cons = {"rules_outside_batch": ([6, 8], [7, 9]),
                 "shared_rule_relation": ([3, 0, 0], [0, 1, 2])}.get(shape, ([0, 3], [4, 1]))
    return params, Batch(relations, positives, negatives), \
        (np.array(ant), np.array(cons)), config


class TestOneGatherForward:
    @pytest.mark.parametrize("shape", ["repeats", "self_pairs", "rules_outside_batch"])
    @pytest.mark.parametrize("variant", ["f", "fs", "fsl"])
    def test_bytes_equal_per_occurrence_oracle(self, variant, shape):
        params, batch, rule_idx, config = gather_instance(variant, shape)
        got, recon, l2 = model.recon_l2_gradients(params, batch, rule_idx, config)
        want, want_recon, want_l2 = recon_l2_gradients_oracle(params, batch, rule_idx, config)
        assert [got.relations.tobytes(), got.tuple_pre.tobytes(), recon, l2] == \
            [want.relations.tobytes(), want.tuple_pre.tobytes(), want_recon, want_l2]
        assert np.array_equal(got.relation_rows, want.relation_rows)
        assert np.array_equal(got.tuple_rows, want.tuple_rows)
        assert np.array_equal(got.rule_rows, want.rule_rows)

    @pytest.mark.parametrize("variant", ["f", "fs", "fsl"])
    def test_sigmoid_once_per_touched_tuple_row(self, monkeypatch, variant):
        sizes = []
        real = model.effective_tuples

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(model, "effective_tuples", counting)
        params, batch, rule_idx, config = gather_instance(variant, "repeats")
        grads, _, _ = model.recon_l2_gradients(params, batch, rule_idx, config)
        assert sizes == [len(grads.tuple_rows) * config.k]
        assert len(grads.tuple_rows) < 2 * len(batch)

    def test_peak_memory(self):
        # one 8192 x 50 FSL batch over 4,666 tuples: the (2m, k) gather, the
        # m x k relation rows and one m x k difference or scratch at a time,
        # not two gathers beside a separate (2m, k) contribution buffer
        m, k = 8_192, 50
        rng = np.random.default_rng(9)
        config = ModelConfig(k=k, variant="fsl")
        params = ModelParams(rng.normal(size=(250, k)), rng.normal(size=(4_666, k)))
        batch = Batch(rng.integers(250, size=m), rng.integers(4_666, size=m),
                      rng.integers(4_666, size=m))
        rule_idx = model.rule_index_arrays([Rule(0, 1), Rule(2, 3)])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model.recon_l2_gradients(params, batch, rule_idx, config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 5.0 * m * k * 8, f"peak {peak / (m * k * 8):.2f}x m*k*8"


class TestRuleGradients:
    def test_bytes_equal_two_add_at_oracle(self):
        # relation 0 takes one consequent term, then two antecedent terms in
        # rule order. Every hinge is active and the terms are as large as the
        # gradient rows, so the partial sums cross binades, and an order other
        # than the oracle's, antecedents then consequents, changes some bits
        params, batch, rule_idx, config = gather_instance("fsl", "shared_rule_relation",
                                                          m=30, k=32)
        config.beta_tilde, config.delta = 1.0, 1e3
        got, _, _ = model.recon_l2_gradients(params, batch, rule_idx, config)
        want, _, _ = recon_l2_gradients_oracle(params, batch, rule_idx, config)
        loss = model.rule_gradients(params, rule_idx, config, got)
        want_loss = rule_gradients_oracle(params, rule_idx, config, want)
        assert [got.relations.tobytes(), loss] == [want.relations.tobytes(), want_loss]


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        p = ModelParams(rng.normal(size=(3, 5)), rng.normal(size=(4, 5)))
        path = tmp_path / "ckpt.txt"
        model.save_embeddings(path, p, ["a", "b", "c"], ["t0", "t1", "t2", "t3"], "fsl")
        loaded, rel_names, tup_names, _ = model.load_embeddings(path)
        assert rel_names == ["a", "b", "c"]
        assert tup_names == ["t0", "t1", "t2", "t3"]
        assert np.array_equal(loaded.relations, p.relations)
        assert np.array_equal(loaded.tuple_pre, p.tuple_pre)

    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_variant_round_trips(self, tmp_path, variant):
        path = tmp_path / "ckpt.txt"
        model.save_embeddings(path, ModelParams(np.zeros((1, 2)), np.zeros((1, 2))),
                              ["r"], ["t"], variant)
        assert model.load_embeddings(path)[3] == variant

    def test_written_bytes_pinned(self, tmp_path):
        # signed zero, the smallest subnormal, 17-digit rounding and a spread
        # of exponents, in the exact text earlier checkpoints were written in
        p = ModelParams(np.array([[0.0, -0.0, 5e-324, 1e300],
                                  [-1e-300, 0.1, 1 / 3, -2.5]]),
                        np.array([[1e16, 123456789.0, 1e-05, 1.7976931348623157e308]]))
        path = tmp_path / "ckpt.txt"
        model.save_embeddings(path, p, ["a", "b"], ["t"], "fs")
        assert path.read_bytes() == (
            b"k 4 variant fs\n"
            b"R a 0 -0 4.9406564584124654e-324 1.0000000000000001e+300\n"
            b"R b -1e-300 0.10000000000000001 0.33333333333333331 -2.5\n"
            b"E t 10000000000000000 123456789 1.0000000000000001e-05 "
            b"1.7976931348623157e+308\n")

    def test_header_written(self, tmp_path):
        p = ModelParams(np.zeros((1, 2)), np.zeros((1, 2)))
        path = tmp_path / "ckpt.txt"
        model.save_embeddings(path, p, ["r"], ["t"], "f")
        assert path.read_text().splitlines()[0] == "k 2 variant f"

    def test_relation_and_tuple_may_share_a_name(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        path.write_text("k 1 variant fs\nR x 0.5\nE x 0.25\n", encoding="utf-8")
        loaded, rel_names, tup_names, _ = model.load_embeddings(path)
        assert (rel_names, tup_names) == (["x"], ["x"])
        assert loaded.relations[0, 0] == 0.5 and loaded.tuple_pre[0, 0] == 0.25

    @pytest.mark.parametrize("name", ["WEIGHTED_MAP", "GRAND_MEAN"])
    def test_reserved_relation_name_names_its_line(self, tmp_path, name):
        path = tmp_path / "ckpt.txt"
        path.write_text(f"k 1 variant fs\nR a 0.1\n\nR {name} 0.2\nE t 0.3\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match=f"ckpt.txt:4: relation name '{name}' is reserved"):
            model.load_embeddings(path)

    @pytest.mark.parametrize("text, lineno", [
        ("k 1 variant fs\nR a 0.1\nR a 0.2\nE t 0.3\n", 3),
        ("k 1 variant fs\nR a 0.1\nE t 0.2\n\nE t 0.3\n", 5),
    ], ids=["relation", "tuple"])
    def test_duplicate_name_names_second_line(self, tmp_path, text, lineno):
        path = tmp_path / "ckpt.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f"ckpt.txt:{lineno}: [a-z]+ name '[at]' is repeated"):
            model.load_embeddings(path)

    @pytest.mark.parametrize("text, where", [
        ("k 2 variant fs\nR a 0.1 0.2\nE t 0.3 oops\n", ":3:"),
        ("k two\nR a 0.1\nE t 0.2\n", ":1:"),
        ("k 0\nR a\nE t\n", ":1:"),
        ("k\nR a 0.1\nE t 0.2\n", ":1:"),
        ("k 1 variant\nR a 0.1\nE t 0.2\n", ":1:"),
        ("k 1 variant fsx\nR a 0.1\nE t 0.2\n", ":1:"),
        ("k 1 fs\nR a 0.1\nE t 0.2\n", ":1:"),
        ("k 1 variant fs x\nR a 0.1\nE t 0.2\n", ":1:"),
        ("k \u0661 variant fs\nR a 0.1\nE t 0.2\n", ":1:"),
        ("k \uff12 variant fs\nR a 0.1 0.2\nE t 0.3 0.4\n", ":1:"),
        ("\nk 1 variant fs\nR a 0.1\nE t 0.2\n", ":1:"),
        (" \t\nk 1 variant fs\nR a 0.1\nE t 0.2\n", ":1:"),
        ("", ":1:"),
    ], ids=["non-numeric", "k-word", "k-zero", "k-missing", "variant-missing",
            "variant-unknown", "variant-keyword-missing", "trailing-field",
            "k-arabic-indic", "k-fullwidth", "blank-line-1", "whitespace-line-1",
            "empty-file"])
    def test_bad_value_or_header_is_parse_error(self, tmp_path, text, where):
        path = tmp_path / "ckpt.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=where):
            model.load_embeddings(path)

    @pytest.mark.parametrize("value, as_float", [
        ("1_0", 10.0), ("\u0661\u0662", 12.0), ("\uff11\uff12", 12.0)],
        ids=["underscore", "arabic-indic", "fullwidth"])
    def test_values_are_ascii_decimals(self, tmp_path, value, as_float):
        # Python's float() reads these, as the per-line reader did; the
        # checkpoint format does not, and the writer never emits them
        path = tmp_path / "ckpt.txt"
        path.write_text(f"k 2 variant fs\nR a 0.1 0.2\nE t 0.3 {value}\n", encoding="utf-8")
        assert load_embeddings_oracle(path)[0].tuple_pre[0, 1] == as_float
        with pytest.raises(ParseError) as info:
            model.load_embeddings(path)
        assert str(info.value) == f"{path}:3: non-numeric value"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["", "\n", "\n \t\n\x0c\n", "\r\n\r\n"],
                             ids=["header-only", "blank-line", "whitespace-lines", "crlf"])
    def test_no_rows_is_one_error_and_no_warning(self, tmp_path, body):
        path = tmp_path / "ckpt.txt"
        path.write_bytes(("k 2 variant fs" + body).encode("utf-8"))
        with pytest.raises(ParseError) as info:
            model.load_embeddings(path)
        assert str(info.value) == f"{path}: checkpoint has no relations or no tuples"

    def test_dim_beyond_the_file_allocates_no_rows(self, tmp_path):
        # a header typo must not make the reader allocate rows of k values:
        # a row of k = 10**6 values takes 8 MB
        path = tmp_path / "ckpt.txt"
        path.write_text("k 1000000 variant fs\nR a 0.1\nE t 0.2\n", encoding="utf-8")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as info:
                model.load_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"{path}:2: malformed embedding line"
        assert peak < 1 << 20

    def test_parse_failure_with_no_line_to_blame_keeps_numpy_message(self, tmp_path,
                                                                      monkeypatch):
        path = tmp_path / "ckpt.txt"
        path.write_text("k 1 variant fs\nR a 0.1\nE t 0.2\n", encoding="utf-8")

        def failing_loadtxt(*args, **kwargs):
            raise ValueError("numpy says no")

        monkeypatch.setattr(model.np, "loadtxt", failing_loadtxt)
        with pytest.raises(ParseError) as info:
            model.load_embeddings(path)
        assert str(info.value) == f"{path}: numpy says no"

    @pytest.mark.parametrize("relations, tuples, message", [
        (["a b", "c"], ["t", "u"], "relation name 'a b' holds whitespace"),
        (["", "c"], ["t", "u"], "relation name '' is empty"),
        (["a", "a"], ["t", "u"], "relation name 'a' is repeated"),
        (["WEIGHTED_MAP", "c"], ["t", "u"], "relation name 'WEIGHTED_MAP' is reserved"),
        (["GRAND_MEAN", "c"], ["t", "u"], "relation name 'GRAND_MEAN' is reserved"),
        (["a", "c"], ["t\tu", "v"], "tuple name 't\\tu' holds whitespace"),
        (["a", "c"], ["t", "t"], "tuple name 't' is repeated"),
        (["a"], ["t", "u"], "1 relation names for 2 rows"),
        (["a", "b", "c"], ["t", "u"], "3 relation names for 2 rows"),
        (["a", "c"], ["t"], "1 tuple names for 2 rows"),
    ], ids=["space", "empty", "repeated", "weighted-map", "grand-mean", "tuple-tab",
            "tuple-repeated", "too-few", "too-many", "tuple-too-few"])
    def test_save_rejects_names_it_could_not_read_back(self, tmp_path, relations, tuples,
                                                       message):
        path = tmp_path / "ckpt.txt"
        p = ModelParams(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match=re.escape(message)):
            model.save_embeddings(path, p, relations, tuples, "fs")
        assert not path.exists()

    # (variant, relation columns, tuple columns, relation rows, tuple rows, message)
    @pytest.mark.parametrize("variant, k, k_tuples, n_rel, n_tup, message", [
        ("xyz", 3, 3, 1, 1, "variant must be one of ('f', 'fs', 'fsl'), got 'xyz'"),
        ("fs", 0, 0, 1, 1, "k must be >= 1, got 0"),
        ("fs", 2, 3, 1, 1, "relations have 2 columns, tuple pre-activations 3"),
        ("fs", 2, 2, 0, 1, "no relation rows: a checkpoint needs relations and tuples"),
        ("fs", 2, 2, 1, 0, "no tuple rows: a checkpoint needs relations and tuples"),
    ], ids=["unknown-variant", "no-columns", "different-widths", "no-relations", "no-tuples"])
    def test_save_rejects_a_header_it_could_not_read_back(self, tmp_path, variant, k,
                                                          k_tuples, n_rel, n_tup, message):
        path = tmp_path / "ckpt.txt"
        p = ModelParams(np.zeros((n_rel, k)), np.zeros((n_tup, k_tuples)))
        with pytest.raises(ValueError, match=re.escape(message)):
            model.save_embeddings(path, p, ["r"] * n_rel, ["t"] * n_tup, variant)
        assert not path.exists()

    def test_reserved_name_saves_as_a_tuple(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        p = ModelParams(np.zeros((1, 1)), np.zeros((1, 1)))
        model.save_embeddings(path, p, ["x"], ["WEIGHTED_MAP"], "fs")
        assert model.load_embeddings(path)[2] == ["WEIGHTED_MAP"]

    def test_header_without_variant_names_the_fix(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        path.write_text("k 1\nR a 0.1\nE t 0.2\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            model.load_embeddings(path)
        message = str(info.value)
        assert message.startswith(f"{path}:1: expected header `k <dim> variant <f|fs|fsl>`")
        assert "append ` variant <v>`" in message and "trained with" in message


class TestModelConfig:
    def test_defaults_follow_standard_settings(self):
        config = ModelConfig()
        assert (config.k, config.alpha, config.beta_tilde, config.delta) == \
            (100, 0.01, 0.1, 0.01)
        assert model.INIT_RANGE == (-0.1, 0.1)

    @pytest.mark.parametrize("kwargs", [
        {"k": 0}, {"alpha": -1}, {"beta_tilde": -0.1}, {"delta": -0.5},
        {"variant": "nope"},
        {"alpha": float("nan")}, {"alpha": float("inf")}, {"beta_tilde": float("nan")},
        {"delta": float("nan")}, {"delta": float("inf")},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)
