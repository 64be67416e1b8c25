import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genomelm.errors import (
    PoolTooSmall,
    SingularSystem,
    TooFewSamples,
    UnknownPrefixToken,
)
from genomelm.design import (
    ActivityRecord,
    KmerRidgePredictor,
    SelectionPlan,
    build_prefix_dataset,
    contribution_rows,
    contribution_scores,
    contributions_to_tsv,
    fit_kmer_ridge,
    kmer_counts,
    load_predictor,
    quantile_labels,
    rank_and_select,
    read_activity_tsv,
    save_predictor,
)
from genomelm.seqcore import NucleotideSequence
from genomelm.tokenizer import (KmerTokenizer, kmer_count_matrix, kmer_substitutions,
                                 kmer_windows)


def oracle_labels(activities):
    """Independent reimplementation: sort, interpolate the 25th/75th
    percentiles by hand, then compare with strict inequalities."""
    s = sorted(activities)
    n = len(s)

    def interp(q):
        h = (n - 1) * q
        lo = math.floor(h)
        if lo + 1 >= n:
            return s[lo]
        return s[lo] + (h - lo) * (s[lo + 1] - s[lo])

    q25, q75 = interp(0.25), interp(0.75)
    return [
        "low" if x < q25 else ("high" if x > q75 else "mid") for x in activities
    ]


class TestQuantileLabels:
    def test_hundred_distinct_values_split_25_50_25(self):
        values = [float(i) for i in range(100)]
        labels = quantile_labels(values)
        assert labels.count("low") == 25
        assert labels.count("mid") == 50
        assert labels.count("high") == 25

    def test_small_fixture(self):
        # q25 = 2.75, q75 = 6.25 for 1..8
        labels = quantile_labels([1, 2, 3, 4, 5, 6, 7, 8])
        assert labels == ["low", "low", "mid", "mid", "mid", "mid", "high", "high"]

    def test_all_equal_input_is_entirely_mid(self):
        assert quantile_labels([3.0] * 10) == ["mid"] * 10

    def test_threshold_values_fall_into_the_middle_band(self):
        # 0..4: q25 = 1.0 exactly; the value 1.0 must not be labeled low
        labels = quantile_labels([0.0, 1.0, 2.0, 3.0, 4.0])
        assert labels[1] == "mid"

    def test_matches_oracle_on_random_inputs(self, rng):
        for _ in range(1000):
            n = rng.randrange(4, 40)
            values = [rng.uniform(-5, 5) for _ in range(n)]
            assert quantile_labels(values) == oracle_labels(values)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            quantile_labels([1.0, 2.0, 3.0])


class TestPrefixDataset:
    def test_stream_layout(self):
        tok = KmerTokenizer(2)
        records = [ActivityRecord(NucleotideSequence("ACGT"), 1.0)]
        streams = build_prefix_dataset(records, ["high"], tok)
        vocab = tok.vocab
        assert streams == [[
            vocab.bos,
            vocab.id_of("<high>"),
            *tok.encode("ACGT"),
            vocab.eos,
        ]]

    def test_unknown_label_rejected(self):
        tok = KmerTokenizer(1)
        records = [ActivityRecord(NucleotideSequence("ACGT"), 1.0)]
        with pytest.raises(UnknownPrefixToken):
            build_prefix_dataset(records, ["extreme"], tok)


class TestKmerCounts:
    def test_fixture(self):
        counts = kmer_counts("ACGTAC", 2)
        tok = KmerTokenizer(2)
        nonzero = {
            tok.vocab.tokens[i]: int(c) for i, c in enumerate(counts) if c
        }
        assert nonzero == {"AC": 2, "CG": 1, "GT": 1, "TA": 1}
        assert counts.sum() == 5

    def test_n_windows_are_skipped(self):
        assert kmer_counts("ACNGT", 2).sum() == 2  # AC and GT only

    def test_short_sequence_gives_zero_vector(self):
        assert kmer_counts("A", 2).sum() == 0


class TestRidge:
    def _linear_data(self, seed=0, k=2, m=40):
        rng = np.random.default_rng(seed)
        true_w = rng.normal(size=4**k)
        true_b = 1.7
        records = []
        for _ in range(m):
            n = int(rng.integers(30, 61))
            seq = "".join("ACGT"[i] for i in rng.integers(0, 4, n))
            y = float(kmer_counts(seq, k) @ true_w + true_b)
            records.append(ActivityRecord(NucleotideSequence(seq), y))
        return records, true_w, true_b

    def test_unpenalized_fit_recovers_the_generating_model(self):
        records, true_w, true_b = self._linear_data()
        predictor = fit_kmer_ridge(records, k=2, l2=0.0)
        assert np.allclose(predictor.weights, true_w, atol=1e-8)
        assert predictor.intercept == pytest.approx(true_b, abs=1e-8)
        for r in records:
            assert predictor.predict(r.sequence.bases) == pytest.approx(
                r.activity, abs=1e-8
            )

    def test_heavy_penalty_shrinks_to_the_mean(self):
        records, _, _ = self._linear_data()
        predictor = fit_kmer_ridge(records, k=2, l2=1e12)
        assert np.abs(predictor.weights).max() < 1e-3
        mean_y = np.mean([r.activity for r in records])
        assert predictor.intercept == pytest.approx(mean_y, rel=1e-3)

    def test_singular_system_without_penalty(self):
        # two identical rows cannot pin down 16 weights
        records = [
            ActivityRecord(NucleotideSequence("ACGT"), 1.0),
            ActivityRecord(NucleotideSequence("ACGT"), 2.0),
        ]
        with pytest.raises(SingularSystem):
            fit_kmer_ridge(records, k=2, l2=0.0)
        fit_kmer_ridge(records, k=2, l2=1.0)  # regularized solve succeeds

    def test_equal_count_sums_are_singular_before_any_solve(self, monkeypatch):
        # 12 equal-length N-free records at k=1: more records than k-mers, and
        # every count row sums to 20, so the centered rows sum to 0 exactly
        records = self._random_records(5, 12, 1)
        records = [ActivityRecord(NucleotideSequence(r.sequence.bases * 20), r.activity)
                   for r in records]

        def boom(*args, **kwargs):
            raise AssertionError("solved a system known to be singular")

        monkeypatch.setattr(np.linalg, "solve", boom)
        monkeypatch.setattr(np.linalg, "matrix_rank", boom)
        with pytest.raises(SingularSystem, match="normal equations are singular; use l2 > 0"):
            fit_kmer_ridge(records, k=1, l2=0.0)

    def test_input_validation(self):
        records = [ActivityRecord(NucleotideSequence("ACGT"), 1.0)]
        with pytest.raises(TooFewSamples):
            fit_kmer_ridge(records)
        with pytest.raises(ValueError):
            fit_kmer_ridge(records * 3, l2=-1.0)

    @pytest.mark.parametrize("k, l2", [(1, 0.5), (2, 1.0), (3, 0.1)])
    def test_train_rmse_is_that_of_predict_on_each_record(self, k, l2):
        records, _, _ = self._linear_data(seed=3, k=2, m=60)
        records.append(ActivityRecord(NucleotideSequence("ACNNGTAC"), 0.25))
        predictor = fit_kmer_ridge(records, k=k, l2=l2)
        residuals = [predictor.predict(r.sequence.bases) - r.activity for r in records]
        assert predictor.train_rmse == float(np.sqrt(np.mean(np.square(residuals))))

    def test_save_load_round_trip(self, tmp_path):
        records, _, _ = self._linear_data()
        predictor = fit_kmer_ridge(records, k=2, l2=0.5)
        path = tmp_path / "ridge.json"
        save_predictor(predictor, path)
        back = load_predictor(path)
        assert back.k == predictor.k
        assert back.l2 == predictor.l2
        assert np.allclose(back.weights, predictor.weights)
        assert back.predict("ACGTACGT") == pytest.approx(
            predictor.predict("ACGTACGT")
        )

    @staticmethod
    def _random_records(seed, n, max_len):
        rng = np.random.default_rng(seed)
        return [
            ActivityRecord(
                NucleotideSequence("".join("ACGT"[i] for i in rng.integers(0, 4, length))),
                float(rng.normal()),
            )
            for length in rng.integers(1, max_len + 1, n)
        ]

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 4),
        n_over_kmers=st.floats(0.05, 2.0),
        log_l2=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_primal_normal_equations(self, k, n_over_kmers, log_l2, seed):
        # the oracle: the 4^k × 4^k primal solve, whatever the record count
        n, l2 = max(2, round(n_over_kmers * 4**k)), 10.0**log_l2
        records = self._random_records(seed, n, 40)
        X = kmer_count_matrix([r.sequence.bases for r in records], k)
        y = np.array([r.activity for r in records])
        Xc, yc = X - X.mean(axis=0), y - y.mean()
        w = np.linalg.solve(Xc.T @ Xc + l2 * np.eye(4**k), Xc.T @ yc)
        intercept = y.mean() - X.mean(axis=0) @ w
        rmse = np.sqrt(np.mean(np.square(X @ w + intercept - y)))

        predictor = fit_kmer_ridge(records, k=k, l2=l2)
        assert np.abs(predictor.weights - w).max() <= 1e-9 * np.abs(w).max()
        assert predictor.intercept == pytest.approx(intercept, rel=1e-9, abs=1e-12)
        assert predictor.train_rmse == pytest.approx(rmse, rel=1e-9, abs=1e-12)

    def test_fewer_records_than_kmers_solves_in_records(self):
        # k=5 on 600 records: the 600 × 600 dual system, not the 1,024 × 1,024 primal
        records = self._random_records(0, 600, 150)
        tracemalloc.start()
        try:
            fit_kmer_ridge(records, k=5, l2=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 18_000_000


class GcPredictor:
    def predict(self, sequence):
        return sequence.count("G") + sequence.count("C")

    def predict_many(self, sequences):
        return [self.predict(s) for s in sequences]


class TestSelection:
    POOL = ["GGGG", "GGCA", "ATAT", "AAAA", "CCAA", "TTTT", "ACGT", "TGCA"]

    def test_top_and_bottom_are_score_ordered(self):
        plan = SelectionPlan(top=2, bottom=2, random=2, seed=0)
        report = rank_and_select(GcPredictor(), self.POOL, plan)
        assert report.top == ["GGGG", "GGCA"]
        # three-way score-0 tie (AAAA, ATAT, TTTT) breaks lexicographically
        assert report.bottom == ["AAAA", "ATAT"]
        assert len(report.random) == 2
        taken = set(report.top) | set(report.bottom) | set(report.random)
        assert len(taken) == 6  # disjoint groups

    def test_random_draw_is_seeded(self):
        plan = SelectionPlan(top=1, bottom=1, random=3, seed=9)
        a = rank_and_select(GcPredictor(), self.POOL, plan)
        b = rank_and_select(GcPredictor(), self.POOL, plan)
        assert a.random == b.random

    def test_candidates_are_deduplicated(self):
        plan = SelectionPlan(top=1)
        report = rank_and_select(GcPredictor(), ["GGGG", "GGGG", "AAAA"], plan)
        assert report.top == ["GGGG"]
        assert len(report.scores) == 2

    def test_pool_too_small(self):
        with pytest.raises(PoolTooSmall):
            rank_and_select(GcPredictor(), ["ACGT"], SelectionPlan(top=1, bottom=1))


def naive_contributions(predictor, sequence):
    """The 3*L-predict definition: the oracle of contribution_scores' closed form."""
    out = []
    for i, base in enumerate(sequence):
        if base == "N":
            out.append(None)
            continue
        others = [b for b in "ACGT" if b != base]
        mutated = [
            predictor.predict(sequence[:i] + b + sequence[i + 1 :]) for b in others
        ]
        out.append(predictor.predict(sequence) - sum(mutated) / 3)
    return out


def k1_predictor(weights, intercept=0.0):
    """A k=1 ridge predictor: intercept + sum of the weights of the bases."""
    return KmerRidgePredictor(k=1, weights=np.asarray(weights, dtype=float),
                              intercept=intercept, l2=1.0)


A_COUNT = k1_predictor([1, 0, 0, 0])


class TestContributionScores:
    def test_a_counting_predictor_gives_plus_one_and_minus_a_third(self):
        scores = contribution_scores(A_COUNT, "ACGT")
        assert scores[0] == pytest.approx(1.0)
        assert scores[1:] == [pytest.approx(-1 / 3)] * 3

    def test_constant_predictor_gives_all_zero(self):
        assert contribution_scores(k1_predictor([0, 0, 0, 0], 2.5), "ACGTACGT") == [0.0] * 8

    def test_n_positions_are_none(self):
        scores = contribution_scores(A_COUNT, "ANA")
        assert scores[1] is None
        assert scores[0] == pytest.approx(1.0)

    def test_matches_naive_loop_for_the_ridge_predictor(self, rng):
        np_rng = np.random.default_rng(3)
        predictor = KmerRidgePredictor(
            k=2, weights=np_rng.normal(size=16), intercept=0.4, l2=1.0
        )
        for _ in range(5):
            seq = "".join(rng.choice("ACGT") for _ in range(40))
            got = contribution_scores(predictor, seq)
            want = naive_contributions(predictor, seq)
            assert np.allclose(got, want, atol=1e-10)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            contribution_scores(A_COUNT, "")

    @pytest.mark.parametrize("sequence, symbol, position", [
        ("ACGU", "U", 3), ("acgt", "a", 0), ("ANXA-", "X", 2),
    ])
    def test_symbols_outside_acgtn_rejected(self, sequence, symbol, position):
        with pytest.raises(ValueError, match=f"invalid symbol '{symbol}' at position {position}"):
            contribution_scores(A_COUNT, sequence)

    def test_tsv_rendering(self):
        text = contributions_to_tsv("AN", [1.0, None])
        assert text == "#pos\tbase\tcontribution\n1\tA\t1\n2\tN\tNA\n"


class TestRidgeContributionsClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(
        k=st.sampled_from([1, 3, 5]),
        sequence=st.text(alphabet="ACGTN", min_size=1, max_size=60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_generic_path(self, k, sequence, seed):
        np_rng = np.random.default_rng(seed)
        predictor = KmerRidgePredictor(
            k=k, weights=np_rng.normal(size=4**k), intercept=float(np_rng.normal()), l2=1.0
        )
        got = contribution_scores(predictor, sequence)
        want = naive_contributions(predictor, sequence)
        assert [g is None for g in got] == [b == "N" for b in sequence]
        assert [w is None for w in want] == [b == "N" for b in sequence]
        for g, w in zip(got, want):
            if w is not None:
                assert abs(g - w) <= 1e-9

    def test_calls_predict_no_more_than_once(self, monkeypatch):
        predictor = KmerRidgePredictor(k=3, weights=np.arange(64.0), intercept=0.0, l2=1.0)
        calls = []
        monkeypatch.setattr(
            KmerRidgePredictor, "predict", lambda self, s: calls.append(s) or 0.0
        )
        contribution_scores(predictor, "ACGTNACGTACGGT" * 10)
        assert len(calls) <= 1


def closed_form_contributions(predictor, sequence):
    """One sequence's closed form, as contribution_scores computed it before
    the batched pass: the oracle of contribution_rows."""
    k, w = predictor.k, predictor.weights
    starts, ids = kmer_windows(sequence, k)
    delta = np.zeros(len(sequence))
    for j in range(k):
        for new in kmer_substitutions(ids, k, j).T:
            delta[starts + j] += w[new] - w[ids]
    return [None if b == "N" else float(-d / 3) for b, d in zip(sequence, delta)]


class TestBatchedScoring:
    EDGE_CASES = ["A", "N", "NNNNNN", "ACG", "ACGTN", "NACGTNNTTGCAN", "GATTACA" * 9]

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 6),
        sequences=st.lists(st.text(alphabet="ACGTN", min_size=1, max_size=40), max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_contribution_rows_match_each_sequence_alone(self, k, sequences, seed):
        np_rng = np.random.default_rng(seed)
        predictor = KmerRidgePredictor(
            k=k, weights=np_rng.normal(size=4**k), intercept=float(np_rng.normal()), l2=1.0
        )
        sequences = sequences + self.EDGE_CASES
        got = contribution_rows(predictor, sequences)
        assert got == [closed_form_contributions(predictor, s) for s in sequences]
        for row, s in zip(got, sequences):
            assert [c is None for c in row] == [b == "N" for b in s]

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 6),
        sequences=st.lists(st.text(alphabet="ACGTN", max_size=40), max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_predict_many_matches_each_sequence_alone(self, k, sequences, seed):
        np_rng = np.random.default_rng(seed)
        predictor = KmerRidgePredictor(
            k=k, weights=np_rng.normal(size=4**k), intercept=float(np_rng.normal()), l2=1.0
        )
        sequences = sequences + self.EDGE_CASES
        # the single-sequence formula `predict` used before the batch
        want = [float(kmer_counts(s, k) @ predictor.weights + predictor.intercept)
                for s in sequences]
        assert predictor.predict_many(sequences) == want
        assert [predictor.predict(s) for s in sequences] == want

    @pytest.mark.parametrize("sequences, message", [
        (["ACGT", "", "ACXT"], "sequence must be non-empty"),
        (["ACGT", "ACXT", ""], "invalid symbol 'X' at position 2"),
        (["ACGT", "NNaN"], "invalid symbol 'a' at position 2"),
    ])
    def test_contribution_rows_report_the_first_bad_sequence(self, sequences, message):
        with pytest.raises(ValueError, match=message):
            contribution_rows(A_COUNT, sequences)


class TestActivityIo:
    def test_reads_both_heads(self, tmp_path):
        path = tmp_path / "activities.tsv"
        path.write_text(
            "#sequence\tdev\thk\tsplit\n"
            "ACGT\t1.5\t-0.5\ttrain\n"
            "tttt\t2.0\t0.25\n"
        )
        dev = read_activity_tsv(path, head="dev")
        hk = read_activity_tsv(path, head="hk")
        assert [r.activity for r in dev] == [1.5, 2.0]
        assert [r.activity for r in hk] == [-0.5, 0.25]
        assert dev[1].sequence.bases == "TTTT"
        assert dev[0].promoter_class == "Dev"
        assert hk[0].promoter_class == "Hk"
        with pytest.raises(ValueError):
            read_activity_tsv(path, head="other")

    def test_record_validation(self):
        with pytest.raises(ValueError):
            ActivityRecord(NucleotideSequence("ACGT"), float("nan"))
        with pytest.raises(ValueError):
            ActivityRecord(NucleotideSequence("ACGT"), 1.0, promoter_class="X")
