import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genomelm.errors import DegenerateLabels, RefMismatch, VocabularyMismatch
from genomelm.lm import MarkovLm, TokenDistribution, train_markov
from genomelm.tokenizer import KmerTokenizer
from genomelm.vep import (
    SCORE_CAP,
    Variant,
    auprc,
    auroc,
    check_variant,
    evaluate_vep,
    marginalize_distribution,
    read_variants_tsv,
    vep_score,
)
from genomelm.seqcore import NucleotideSequence


def random_distribution(np_rng, vocab_size):
    raw = np_rng.random(vocab_size)
    return TokenDistribution(raw / raw.sum())


def brute_force_marginal(dist, tokenizer, j):
    """Oracle: iterate token strings and sum the probability per letter."""
    vocab = tokenizer.vocab
    totals = {b: 0.0 for b in "ACGT"}
    for token_id in range(vocab.n_base):
        totals[vocab.tokens[token_id][j]] += dist.probs[token_id]
    z = sum(totals.values())
    return np.array([totals[b] / z for b in "ACGT"])


class TestVariant:
    def test_validation(self):
        Variant("c", 5, "A", "G", "benign")
        with pytest.raises(ValueError):
            Variant("c", 5, "A", "A")
        with pytest.raises(ValueError):
            Variant("c", 5, "N", "A")
        with pytest.raises(ValueError):
            Variant("c", 5, "A", "G", "vus")

    def test_check_against_genome(self):
        genome = {"c": NucleotideSequence("ACGT")}
        check_variant(genome, Variant("c", 3, "G", "A"))
        with pytest.raises(RefMismatch) as exc:
            check_variant(genome, Variant("c", 3, "T", "A"))
        assert exc.value.found == "G"


class TestMarginalization:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_brute_force_at_every_offset(self, k):
        np_rng = np.random.default_rng(17)
        tok = KmerTokenizer(k)
        for _ in range(10):
            dist = random_distribution(np_rng, len(tok.vocab))
            for j in range(k):
                got = marginalize_distribution(dist, tok, j).probs
                want = brute_force_marginal(dist, tok, j)
                assert np.abs(got - want).max() < 1e-12
                assert got.sum() == pytest.approx(1.0, abs=1e-9)

    def test_special_token_mass_is_renormalized_away(self):
        tok = KmerTokenizer(1)
        probs = np.zeros(len(tok.vocab))
        probs[0] = 0.3  # A
        probs[1] = 0.1  # C
        probs[tok.vocab.bos] = 0.6
        marg = marginalize_distribution(TokenDistribution(probs), tok, 0)
        assert marg.prob("A") == pytest.approx(0.75)
        assert marg.prob("C") == pytest.approx(0.25)

    def test_all_mass_on_specials_falls_back_to_uniform(self):
        tok = KmerTokenizer(1)
        probs = np.zeros(len(tok.vocab))
        probs[tok.vocab.eos] = 1.0
        marg = marginalize_distribution(TokenDistribution(probs), tok, 0)
        assert np.allclose(marg.probs, 0.25)

    def test_offset_and_length_validation(self):
        tok = KmerTokenizer(2)
        dist = random_distribution(np.random.default_rng(0), len(tok.vocab))
        with pytest.raises(ValueError):
            marginalize_distribution(dist, tok, 2)
        with pytest.raises(VocabularyMismatch):
            marginalize_distribution(dist, KmerTokenizer(3), 0)


def _toy_genome(n=300, seed=2):
    np_rng = np.random.default_rng(seed)
    bases = "".join("ACGT"[i] for i in np_rng.integers(0, 4, n))
    return {"c": NucleotideSequence(bases, id="c")}


def _markov_on(genome, k, order, **kwargs):
    tok = KmerTokenizer(k)
    ids = tok.encode(genome["c"].bases)
    return train_markov([ids], tok.vocab, order, **kwargs), tok


class WindowSpy:
    """Passes every query to `lm`, records the context lengths it is sent,
    and reports `window` as its context window."""

    def __init__(self, lm, window):
        self.lm, self.context_window, self.lengths = lm, window, []

    def vocabulary(self):
        return self.lm.vocabulary()

    def next_distributions(self, contexts):
        self.lengths.extend(len(context) for context in contexts)
        return self.lm.next_distributions(contexts)


class TestVepScore:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_context_is_cut_to_the_model_window_before_encoding(self, k):
        genome = _toy_genome()
        lm, tok = _markov_on(genome, k, order=2)
        windowed, whole = WindowSpy(lm, lm.context_window), WindowSpy(lm, None)
        for pos in (2, 4, 40, 151, 300):
            ref = genome["c"].bases[pos - 1]
            variant = Variant("c", pos, ref, "A" if ref != "A" else "C")
            for kwargs in ({}, {"phase": 0}, {"average_phases": True}, {"context_len": 7}):
                try:
                    want = vep_score(whole, tok, genome, variant, **kwargs)
                except ValueError:  # no phase has room for a context
                    with pytest.raises(ValueError):
                        vep_score(windowed, tok, genome, variant, **kwargs)
                    continue
                assert vep_score(windowed, tok, genome, variant, **kwargs) == want
        assert max(windowed.lengths) == 2 < max(whole.lengths)

    def test_uniform_model_scores_zero_everywhere(self):
        genome = _toy_genome()
        tok = KmerTokenizer(2)
        lm = MarkovLm.uniform(tok.vocab)
        for pos in (5, 50, 123):
            ref = genome["c"].bases[pos - 1]
            alt = "A" if ref != "A" else "C"
            variant = Variant("c", pos, ref, alt)
            assert vep_score(lm, tok, genome, variant) == 0.0
            assert vep_score(lm, tok, genome, variant, average_phases=True) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_antisymmetry_is_exact(self, k):
        genome = _toy_genome()
        lm, tok = _markov_on(genome, k, order=2)
        pos = 120
        ref = genome["c"].bases[pos - 1]
        alt = "T" if ref != "T" else "G"
        swapped_bases = (
            genome["c"].bases[: pos - 1] + alt + genome["c"].bases[pos:]
        )
        swapped = {"c": NucleotideSequence(swapped_bases, id="c")}
        fwd = vep_score(lm, tok, genome, Variant("c", pos, ref, alt))
        rev = vep_score(lm, tok, swapped, Variant("c", pos, alt, ref))
        assert fwd == -rev

    def test_order2_counts_give_the_score_in_closed_form(self):
        genome = _toy_genome(n=200, seed=9)
        alpha = 0.5
        lm, tok = _markov_on(genome, 1, order=2, alpha=alpha, lambdas=[0, 0, 1])
        pos = 77
        bases = genome["c"].bases
        ref, alt = bases[pos - 1], ("A" if bases[pos - 1] != "A" else "G")
        ctx = tuple(tok.encode(bases[pos - 3 : pos - 1]))
        table = lm.counts[2].get(ctx, {})
        ref_id, alt_id = tok.encode(ref)[0], tok.encode(alt)[0]
        want = math.log(
            (table.get(ref_id, 0) + alpha) / (table.get(alt_id, 0) + alpha)
        )
        got = vep_score(lm, tok, genome, Variant("c", pos, ref, alt))
        assert got == pytest.approx(want, abs=1e-12)

    def test_point_mass_model_hits_the_score_cap(self):
        genome = {"c": NucleotideSequence("ACGTACGTAC")}
        tok = KmerTokenizer(1)

        class PointLm:
            context_window = None

            def vocabulary(self):
                return tok.vocab

            def next_distributions(self, contexts):
                probs = np.zeros((len(contexts), len(tok.vocab)))
                probs[:, 0] = 1.0  # always A
                return probs

        score = vep_score(PointLm(), tok, genome, Variant("c", 5, "A", "C"))
        assert score == SCORE_CAP

    def test_average_phases_is_the_mean_of_per_phase_scores(self):
        genome = _toy_genome()
        lm, tok = _markov_on(genome, 3, order=1)
        variant = Variant("c", 100, genome["c"].bases[99],
                          "A" if genome["c"].bases[99] != "A" else "C")
        per_phase = [
            vep_score(lm, tok, genome, variant, phase=j) for j in range(3)
        ]
        averaged = vep_score(lm, tok, genome, variant, average_phases=True)
        assert averaged == pytest.approx(sum(per_phase) / 3, abs=1e-12)

    def test_ref_mismatch_propagates(self):
        genome = {"c": NucleotideSequence("AAAA")}
        lm = MarkovLm.uniform(KmerTokenizer(1).vocab)
        with pytest.raises(RefMismatch):
            vep_score(lm, KmerTokenizer(1), genome, Variant("c", 2, "G", "T"))

    def test_vocabulary_is_checked_once_per_variant(self):
        genome = _toy_genome()
        lm, tok = _markov_on(genome, 3, order=1)
        calls = []

        class CountingLm:
            context_window = None

            def vocabulary(self):
                calls.append(1)
                return lm.vocabulary()

            def next_distributions(self, contexts):
                return lm.next_distributions(contexts)

        variant = Variant("c", 100, genome["c"].bases[99],
                          "A" if genome["c"].bases[99] != "A" else "C")
        vep_score(CountingLm(), tok, genome, variant, average_phases=True)
        assert len(calls) == 1

    def test_vocabulary_mismatch(self):
        genome = _toy_genome()
        lm, _ = _markov_on(genome, 2, order=1)
        with pytest.raises(VocabularyMismatch):
            vep_score(lm, KmerTokenizer(3), genome, Variant("c", 100, genome["c"].bases[99],
                      "A" if genome["c"].bases[99] != "A" else "C"))


def auroc_oracle(statistic, labels):
    """Average ranks by walking the sorted statistic tie group by tie group."""
    y = np.asarray(labels, dtype=int)
    s = np.asarray(statistic, dtype=float)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    order = np.argsort(s, kind="stable")
    ranks = np.empty(len(s), dtype=float)
    sorted_s = s[order]
    i = 0
    while i < len(s):
        jx = i
        while jx + 1 < len(s) and sorted_s[jx + 1] == sorted_s[i]:
            jx += 1
        ranks[order[i : jx + 1]] = (i + jx) / 2 + 1
        i = jx + 1
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def auprc_oracle(statistic, labels):
    """Precision-recall steps accumulated one tie group at a time, descending."""
    y = np.asarray(labels, dtype=int)
    s = np.asarray(statistic, dtype=float)
    n_pos = int(y.sum())
    order = np.argsort(-s, kind="stable")
    y_sorted = y[order]
    s_sorted = s[order]
    tp = 0
    area = 0.0
    prev_recall = 0.0
    i = 0
    while i < len(y_sorted):
        jx = i
        while jx + 1 < len(y_sorted) and s_sorted[jx + 1] == s_sorted[i]:
            jx += 1
        tp += int(y_sorted[i : jx + 1].sum())
        precision = tp / (jx + 1)
        recall = tp / n_pos
        area += precision * (recall - prev_recall)
        prev_recall = recall
        i = jx + 1
    return float(area)


class TestRankingMetrics:
    @settings(max_examples=300, deadline=None)
    @given(
        # mostly a few distinct values, so most items share their statistic
        pairs=st.lists(
            st.tuples(st.one_of(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.1, 0.3, 7.0]),
                                st.floats(-10, 10)),
                      st.integers(0, 1)),
            min_size=2, max_size=60,
        ).filter(lambda ps: 0 < sum(y for _, y in ps) < len(ps)),
    )
    def test_equal_to_the_loop_oracles_under_ties(self, pairs):
        scores = [s for s, _ in pairs]
        labels = [y for _, y in pairs]
        assert auroc(scores, labels) == auroc_oracle(scores, labels)
        assert auprc(scores, labels) == auprc_oracle(scores, labels)


    SCORES = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
    LABELS = [1, 1, 0, 1, 0, 0]

    def test_auroc_matches_pairwise_counting(self):
        wins = 0
        pairs = 0
        for s_p, y_p in zip(self.SCORES, self.LABELS):
            if not y_p:
                continue
            for s_n, y_n in zip(self.SCORES, self.LABELS):
                if y_n:
                    continue
                pairs += 1
                wins += 1 if s_p > s_n else (0.5 if s_p == s_n else 0)
        assert auroc(self.SCORES, self.LABELS) == pytest.approx(wins / pairs)
        assert auroc(self.SCORES, self.LABELS) == pytest.approx(8 / 9)

    def test_auprc_matches_stepwise_integration_by_hand(self):
        # descending: P P N P N N -> steps at recall 1/3 (p=1), 2/3 (p=1), 1 (p=3/4)
        want = (1 / 3) * 1.0 + (1 / 3) * 1.0 + (1 / 3) * 0.75
        assert auprc(self.SCORES, self.LABELS) == pytest.approx(want)

    def test_tied_scores_get_average_rank(self):
        assert auroc([1.0, 1.0, 1.0, 1.0], [1, 0, 1, 0]) == pytest.approx(0.5)

    def test_perfect_and_inverted_rankings(self):
        assert auroc([3, 2, 1, 0], [1, 1, 0, 0]) == 1.0
        assert auroc([0, 1, 2, 3], [1, 1, 0, 0]) == 0.0
        assert auprc([3, 2, 1, 0], [1, 1, 0, 0]) == 1.0

    def test_degenerate_labels_raise(self):
        with pytest.raises(DegenerateLabels):
            auroc([1, 2], [1, 1])
        with pytest.raises(DegenerateLabels):
            auprc([1, 2], [0, 0])

    def test_evaluate_vep_negates_scores_for_pathogenic_positives(self):
        # pathogenic variants score LOW under the reference-preference score
        scores = [-5.0, -4.0, 3.0, 2.0]
        labels = ["pathogenic", "pathogenic", "benign", "benign"]
        result = evaluate_vep(scores, labels)
        assert result["auroc"] == 1.0
        assert result["positive_class"] == "pathogenic"
        with pytest.raises(DegenerateLabels):
            evaluate_vep([1.0], ["unknown"])


class TestVariantIo:
    def test_read_tsv(self, tmp_path):
        path = tmp_path / "variants.tsv"
        path.write_text(
            "#seq\tpos\tref\talt\tlabel\n"
            "c\t5\tA\tG\tbenign\n"
            "c\t9\tT\tC\n"
        )
        variants = read_variants_tsv(path)
        assert variants[0] == Variant("c", 5, "A", "G", "benign")
        assert variants[1].label is None
