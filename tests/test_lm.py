import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genomelm.errors import BadSmoothing, EmptyCorpus, UnknownTokenId, VocabularyMismatch
from genomelm.lm import (
    MarkovLm,
    TokenDistribution,
    UniformLm,
    sequence_logprob,
    train_markov,
)
from genomelm.tokenizer import kmer_vocabulary

VOCAB1 = kmer_vocabulary(1)  # 4 + 32 = 36 tokens
V = len(VOCAB1)


class TestTokenDistribution:
    def test_accepts_simplex(self):
        TokenDistribution(np.array([0.5, 0.5]))

    def test_rejects_negative_and_unnormalized(self):
        with pytest.raises(ValueError):
            TokenDistribution(np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            TokenDistribution(np.array([0.6, 0.6]))


class TestUniformLm:
    def test_flat_distribution(self):
        lm = UniformLm(VOCAB1)
        dist = lm.next_distribution([0, 1, 2])
        assert np.allclose(dist.probs, 1.0 / V)
        assert lm.vocabulary() is VOCAB1

    def test_logprobs_are_the_stepwise_logs(self):
        lm = UniformLm(VOCAB1)
        ids = [0, 5, V - 1, 5]
        assert np.array_equal(lm.logprobs(ids), stepwise_logprobs(lm, ids))
        assert lm.logprobs([]).shape == (0,)
        with pytest.raises(UnknownTokenId, match=f"token id {V} "):
            lm.logprobs([0, V])


class TestMarkovLm:
    def test_pure_bigram_matches_closed_form(self):
        # stream 0 1 0 1 0: context (0) -> {1: 2}, context (1) -> {0: 2}
        alpha = 0.5
        lm = MarkovLm(VOCAB1, order=1, alpha=alpha, lambdas=[0.0, 1.0])
        lm.observe([0, 1, 0, 1, 0])
        dist = lm.next_distribution([3, 0])  # only the last id matters at order 1
        denom = 2 + alpha * V
        assert dist.probs[1] == pytest.approx((2 + alpha) / denom, abs=1e-15)
        assert dist.probs[0] == pytest.approx(alpha / denom, abs=1e-15)

    def test_unigram_matches_closed_form(self):
        alpha = 0.1
        lm = MarkovLm(VOCAB1, order=0, alpha=alpha, lambdas=[1.0])
        lm.observe([2, 2, 3])
        denom = 3 + alpha * V
        dist = lm.next_distribution([])
        assert dist.probs[2] == pytest.approx((2 + alpha) / denom, abs=1e-15)
        assert dist.probs[3] == pytest.approx((1 + alpha) / denom, abs=1e-15)
        assert dist.probs[0] == pytest.approx(alpha / denom, abs=1e-15)

    def test_mixture_is_lambda_weighted_sum_of_orders(self):
        alpha = 0.2
        lams = [0.3, 0.7]
        mixed = MarkovLm(VOCAB1, 1, alpha, lams)
        uni = MarkovLm(VOCAB1, 0, alpha, [1.0])
        bi = MarkovLm(VOCAB1, 1, alpha, [0.0, 1.0])
        stream = [0, 1, 2, 0, 1, 0, 3]
        for model in (mixed, uni, bi):
            model.observe(stream)
        expect = lams[0] * uni.next_distribution([1]).probs + lams[1] * bi.next_distribution([1]).probs
        got = mixed.next_distribution([1]).probs
        assert np.array_equal(got, expect)

    def test_distribution_is_strictly_positive_and_normalized(self, rng):
        lm = MarkovLm(VOCAB1, 2, 0.05, [0.2, 0.3, 0.5])
        lm.observe([rng.randrange(4) for _ in range(500)])
        for _ in range(20):
            ctx = [rng.randrange(V) for _ in range(rng.randrange(5))]
            probs = lm.next_distribution(ctx).probs
            assert (probs > 0).all()
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unseen_context_backs_off_smoothly(self):
        lm = MarkovLm(VOCAB1, 1, 0.1, [0.0, 1.0])
        lm.observe([0, 1])
        probs = lm.next_distribution([3]).probs  # context never observed
        assert np.allclose(probs, 1.0 / V)

    def test_parameter_validation(self):
        with pytest.raises(BadSmoothing):
            MarkovLm(VOCAB1, -1, 0.1, [])
        with pytest.raises(BadSmoothing):
            MarkovLm(VOCAB1, 1, 0.0, [0.5, 0.5])
        with pytest.raises(BadSmoothing):
            MarkovLm(VOCAB1, 1, 0.1, [1.0])  # wrong arity
        with pytest.raises(BadSmoothing):
            MarkovLm(VOCAB1, 1, 0.1, [0.9, 0.3])  # not a simplex

    def test_rejects_out_of_vocab_ids(self):
        lm = MarkovLm(VOCAB1, 1, 0.1, [0.5, 0.5])
        with pytest.raises(UnknownTokenId):
            lm.observe([0, V])
        with pytest.raises(UnknownTokenId):
            lm.next_distribution([-1])

    def test_save_load_round_trip(self, tmp_path, rng):
        lm = train_markov(
            [[rng.randrange(4) for _ in range(80)] for _ in range(4)],
            VOCAB1,
            order=2,
            alpha=0.3,
        )
        path = tmp_path / "model.jsonl"
        lm.save(path)
        back = MarkovLm.load(path)
        assert back.order == lm.order
        assert back.alpha == lm.alpha
        assert back.lambdas == lm.lambdas
        assert back.counts == lm.counts
        for ctx in ([], [1], [2, 3]):
            assert np.allclose(
                back.next_distribution(ctx).probs, lm.next_distribution(ctx).probs
            )

    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "model.jsonl"
        path.write_text('{"format_version": 99}\n')
        with pytest.raises(ValueError):
            MarkovLm.load(path)


class TestTrainMarkov:
    def test_default_lambdas_double_per_order(self):
        lm = train_markov([[0, 1, 2]], VOCAB1, order=2)
        assert lm.lambdas == pytest.approx([1 / 7, 2 / 7, 4 / 7])

    def test_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpus):
            train_markov([[], []], VOCAB1, order=1)

    def test_counts_match_enumeration(self):
        lm = train_markov([[0, 1, 0, 1], [1, 0]], VOCAB1, order=1)
        assert lm.counts[0][()] == {0: 3, 1: 3}
        assert lm.counts[1][(0,)] == {1: 2}
        assert lm.counts[1][(1,)] == {0: 2}


class TestSequenceLogprob:
    def test_matches_chain_rule_by_hand(self):
        lm = train_markov([[0, 1, 0, 1]], VOCAB1, order=1, alpha=0.1)
        ids = [0, 1, 1]
        expect = sum(
            math.log(lm.next_distribution(ids[:i]).probs[ids[i]])
            for i in range(len(ids))
        )
        assert sequence_logprob(lm, ids) == pytest.approx(expect, abs=1e-12)

    def test_uniform_model_scores_length_times_log_v(self):
        lm = UniformLm(VOCAB1)
        assert sequence_logprob(lm, [0, 1, 2]) == pytest.approx(-3 * math.log(V))

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            sequence_logprob(UniformLm(VOCAB1), [])


# --- the dict-of-dicts model the array engine replaced, kept as its oracle ---

class DictMarkovLm:
    """Counts as {context tuple: {token id: count}} per order, updated one
    window at a time; each query rebuilds its estimates from the dicts."""

    def __init__(self, vocab, order, alpha, lambdas):
        self.V = len(vocab)
        self.order, self.alpha, self.lambdas = order, alpha, lambdas
        self.counts = [{} for _ in range(order + 1)]

    def observe(self, ids):
        for pos, token in enumerate(ids):
            for o in range(min(pos, self.order) + 1):
                table = self.counts[o].setdefault(tuple(ids[pos - o : pos]), {})
                table[token] = table.get(token, 0) + 1

    def next_distribution(self, context):
        probs = np.zeros(self.V)
        for o, lam in enumerate(self.lambdas):
            if lam == 0.0:
                continue
            table = self.counts[o].get(tuple(context[-o:]) if o else (), {})
            denom = sum(table.values()) + self.alpha * self.V
            est = np.full(self.V, self.alpha / denom)
            for token, c in table.items():
                est[token] = (c + self.alpha) / denom
            probs += lam * est
        return probs


@st.composite
def markov_cases(draw):
    vocab = kmer_vocabulary(draw(st.sampled_from([1, 2])))
    order = draw(st.integers(0, 3))
    weights = draw(st.lists(st.integers(0, 3), min_size=order + 1, max_size=order + 1))
    if not any(weights):
        weights[-1] = 1
    lambdas = [w / sum(weights) for w in weights]
    alpha = draw(st.sampled_from([0.05, 0.1, 0.5, 1, 2.5]))
    # mostly a few base ids, so contexts repeat; sometimes any id, specials included
    token = st.one_of(st.integers(0, 3), st.integers(0, len(vocab) - 1))
    streams = draw(st.lists(st.lists(token, max_size=40), min_size=1, max_size=3))
    contexts = draw(st.lists(st.lists(token, max_size=6), max_size=6))
    # prefixes of the training streams give observed contexts
    for stream in streams:
        cut = draw(st.integers(0, len(stream)))
        contexts.append(stream[:cut])
    second = draw(st.lists(token, max_size=30))
    return vocab, order, alpha, lambdas, streams, contexts, second


def stepwise_logprobs(lm, ids):
    """The log of each position's next_distribution probability: the oracle
    of logprobs. np.log, as logprobs uses, since math.log can differ from it
    in the last bit."""
    return np.log([lm.next_distribution(ids[:i]).probs[t] for i, t in enumerate(ids)])


class TestMarkovLmMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(markov_cases())
    def test_distributions_are_bit_identical(self, case):
        vocab, order, alpha, lambdas, streams, contexts, second = case
        lm = MarkovLm(vocab, order, alpha, lambdas)
        oracle = DictMarkovLm(vocab, order, alpha, lambdas)
        for stream in streams:
            lm.observe(stream)
            oracle.observe(stream)
        assert lm.counts == oracle.counts
        for ctx in [[]] + contexts:
            assert np.array_equal(lm.next_distribution(ctx).probs, oracle.next_distribution(ctx))
        lm.observe(second)  # counts change after the model has been queried
        oracle.observe(second)
        assert lm.counts == oracle.counts
        for ctx in [[]] + contexts + [second]:
            assert np.array_equal(lm.next_distribution(ctx).probs, oracle.next_distribution(ctx))

    @settings(max_examples=100, deadline=None)
    @given(markov_cases())
    def test_one_pass_training_counts_as_observe_does(self, case):
        vocab, order, alpha, lambdas, streams, _contexts, second = case
        corpus = streams + [second]
        assume(any(corpus))
        once = train_markov(corpus, vocab, order, alpha, lambdas)
        stepwise = MarkovLm(vocab, order, alpha, lambdas)
        for stream in corpus:
            stepwise.observe(stream)
        for o in range(order + 1):
            for a, b in zip(once._arrays[o], stepwise._arrays[o]):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @settings(max_examples=100, deadline=None)
    @given(markov_cases())
    def test_logprobs_match_the_stepwise_distributions(self, case):
        vocab, order, alpha, lambdas, streams, contexts, second = case
        lm = MarkovLm(vocab, order, alpha, lambdas)
        for stream in streams:
            lm.observe(stream)
        for ids in contexts + [second]:
            got = lm.logprobs(ids)
            assert got.shape == (len(ids),)
            assert np.array_equal(got, stepwise_logprobs(lm, ids))
            if ids:
                assert sequence_logprob(lm, ids) == got.sum()

    def test_logprobs_of_an_untrained_model_are_uniform(self):
        lm = MarkovLm(VOCAB1, 2, 0.1, [0.2, 0.3, 0.5])
        assert np.allclose(lm.logprobs([0, 5, 3]), -math.log(V), atol=1e-15)

    def test_logprobs_reject_out_of_vocab_ids(self):
        lm = train_markov([[0, 1, 2]], VOCAB1, order=1)
        with pytest.raises(UnknownTokenId, match=f"token id {V} "):
            lm.logprobs([0, V, 1])

    def test_k6_order5_keys_do_not_overflow(self, rng):
        # V^6 > 2^63 at k=6, so a key built from six ids would wrap around
        vocab = kmer_vocabulary(6)
        big = len(vocab) - 33  # the largest base id, 4095
        streams = [[big - rng.randrange(3) for _ in range(200)],
                   [rng.randrange(len(vocab)) for _ in range(200)]]
        lm = train_markov(streams, vocab, order=5)
        oracle = DictMarkovLm(vocab, 5, lm.alpha, lm.lambdas)
        for stream in streams:
            oracle.observe(stream)
        assert lm.counts == oracle.counts
        assert all((keys >= 0).all() for keys, *_ in lm._arrays)
        for stream in streams:
            for ctx in (stream[:0], stream[:3], stream[:6], stream[:150]):
                want = oracle.next_distribution(ctx)
                assert np.array_equal(lm.next_distribution(ctx).probs, want)
            assert np.array_equal(lm.logprobs(stream), stepwise_logprobs(lm, stream))

    @pytest.mark.parametrize("where", [0, 1000, 1999])
    def test_unknown_id_anywhere_in_a_long_context_is_named(self, where):
        lm = train_markov([[0, 1, 2, 3] * 10], VOCAB1, order=2)
        context = [i % 4 for i in range(2000)]
        context[where] = V + 7
        with pytest.raises(UnknownTokenId, match=f"token id {V + 7} "):
            lm.next_distribution(context)
        context[where] = -3
        with pytest.raises(UnknownTokenId, match="token id -3 "):
            lm.next_distribution(context)

    def test_cached_rows_are_bounded_by_the_observed_contexts(self, rng):
        vocab = kmer_vocabulary(2)
        lm = train_markov([[rng.randrange(8) for _ in range(300)]], vocab, order=3)
        for _ in range(1000):
            # ids 8..15 never occur in training, so every such context is unseen
            lm.next_distribution([rng.randrange(8, 16) for _ in range(rng.randrange(5))])
        assert len(lm._rows) <= sum(len(table) for table in lm.counts)

    def test_concurrent_queries_build_the_same_rows(self, rng):
        import sys
        import threading

        streams = [[rng.randrange(8) for _ in range(400)]]
        lm = train_markov(streams, kmer_vocabulary(2), order=2)
        oracle = DictMarkovLm(kmer_vocabulary(2), 2, lm.alpha, lm.lambdas)
        oracle.observe(streams[0])
        contexts = [[rng.randrange(10) for _ in range(rng.randrange(4))] for _ in range(300)]
        want = [oracle.next_distribution(ctx) for ctx in contexts]
        mismatches = []

        def query():
            for ctx, expect in zip(contexts, want):
                if not np.array_equal(lm.next_distribution(ctx).probs, expect):
                    mismatches.append(ctx)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=query) for _ in range(6)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert mismatches == []


def test_context_windows():
    assert MarkovLm(VOCAB1, 3, 0.1, [0.25] * 4).context_window == 3
    assert UniformLm(VOCAB1).context_window == 0


def test_load_rejects_a_tampered_vocab_hash(tmp_path):
    lm = train_markov([[0, 1, 2, 3, 0, 1]], VOCAB1, order=1)
    path = tmp_path / "model.jsonl"
    lm.save(path)
    with np.load(path) as npz:
        arrays = dict(npz)
    header = json.loads(str(arrays["header"]))
    header["vocab_hash"] = "0" * 16
    arrays["header"] = np.array(json.dumps(header))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(VocabularyMismatch, match="model.jsonl"):
        MarkovLm.load(path)


def test_save_is_a_single_npz_file_under_the_given_name(tmp_path):
    lm = train_markov([[0, 1, 2, 3, 0, 1]], VOCAB1, order=2)
    path = tmp_path / "model.jsonl"
    lm.save(path)
    assert [p.name for p in tmp_path.iterdir()] == ["model.jsonl"]
    with np.load(path, allow_pickle=False) as npz:
        assert sorted(npz.files) == sorted(
            ["header"] + [f"{a}_{o}" for a in ("contexts", "offsets", "tokens", "counts")
                          for o in range(3)])
        assert json.loads(str(npz["header"]))["format_version"] == 2
