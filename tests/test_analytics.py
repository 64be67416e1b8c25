import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genomelm.errors import (
    ConstantInput,
    EmptyInput,
    SequenceTooShort,
    SingleCluster,
)
from genomelm.analytics import (
    ConfusionCounts,
    EmbeddingSet,
    embeddings_to_tsv,
    mcc,
    pca_project,
    pearson_r,
    profile_embeddings,
    projection_to_tsv,
    silhouette,
    weighted_f1,
)
from genomelm.tokenizer import kmer_counts


class TestMcc:
    def test_reference_fixture(self):
        value = mcc(ConfusionCounts(tp=3, tn=4, fp=1, fn=2))
        assert value == pytest.approx(10 / math.sqrt(600), abs=1e-15)

    def test_perfect_and_inverted(self):
        assert mcc(ConfusionCounts(5, 5, 0, 0)) == 1.0
        assert mcc(ConfusionCounts(0, 0, 5, 5)) == -1.0

    def test_zero_denominator_factor_scores_zero(self):
        assert mcc(ConfusionCounts(tp=0, tn=5, fp=0, fn=3)) == 0.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(-1, 0, 0, 0)


def weighted_f1_oracle(confusion_matrix):
    """Per-class loop over precision, recall and F1."""
    m = np.asarray(confusion_matrix, dtype=float)
    total = m.sum()
    score = 0.0
    for i in range(m.shape[0]):
        support = m[i].sum()
        if support == 0:
            continue
        tp = m[i, i]
        col = m[:, i].sum()
        precision = tp / col if col else 0.0
        recall = tp / support
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        score += (support / total) * f1
    return score


class TestWeightedF1:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda c: st.lists(st.lists(st.integers(0, 9), min_size=c, max_size=c),
                           min_size=c, max_size=c)
    ).filter(lambda m: sum(map(sum, m)) > 0))
    def test_matches_the_per_class_loop(self, matrix):
        assert weighted_f1(matrix) == pytest.approx(weighted_f1_oracle(matrix), abs=1e-12)

    def test_symmetric_fixture_is_two_thirds(self):
        # every class: support 3, tp 2, precision 2/3, recall 2/3, F1 2/3
        matrix = [[2, 1, 0], [0, 2, 1], [1, 0, 2]]
        assert weighted_f1(matrix) == pytest.approx(2 / 3, abs=1e-15)

    def test_perfect_diagonal(self):
        assert weighted_f1([[4, 0], [0, 6]]) == 1.0

    def test_weights_by_support(self):
        # class 0: F1 1.0 with support 3; class 1: F1 0 with support 1
        matrix = [[3, 0], [1, 0]]
        p0, r0 = 3 / 4, 1.0
        f0 = 2 * p0 * r0 / (p0 + r0)
        assert weighted_f1(matrix) == pytest.approx(0.75 * f0 + 0.25 * 0.0)

    def test_absent_class_is_skipped(self):
        assert weighted_f1([[4, 0], [0, 0]]) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_f1([[1, 2, 3]])
        with pytest.raises(EmptyInput):
            weighted_f1([[0, 0], [0, 0]])


class TestPearson:
    def test_affine_data_is_plus_minus_one(self):
        x = [1.0, 2.0, 5.0, 7.0]
        assert pearson_r(x, [3 * v + 2 for v in x]) == pytest.approx(1.0)
        assert pearson_r(x, [-2 * v + 9 for v in x]) == pytest.approx(-1.0)

    def test_matches_textbook_formula(self, rng):
        x = [rng.uniform(-3, 3) for _ in range(50)]
        y = [rng.uniform(-3, 3) for _ in range(50)]
        mx, my = sum(x) / 50, sum(y) / 50
        num = sum((a - mx) * (b - my) for a, b in zip(x, y))
        den = math.sqrt(
            sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y)
        )
        assert pearson_r(x, y) == pytest.approx(num / den, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(ConstantInput):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_validation(self):
        with pytest.raises(ValueError):
            pearson_r([1.0], [1.0])


class TestProfileEmbedding:
    def test_l1_normalized(self):
        vec = profile_embeddings(["ACGTACGT"], 2)[0]
        assert vec.sum() == pytest.approx(1.0)
        assert vec.shape == (16,)

    def test_rejects_n_and_short_input(self):
        with pytest.raises(ValueError):
            profile_embeddings(["ACGN"], 2)
        with pytest.raises(SequenceTooShort):
            profile_embeddings(["A"], 2)

    @pytest.mark.parametrize("seqs, error, message", [
        (["ACGT", "A", "ACGN"], SequenceTooShort, "sequence of 1 nt shorter than k=2"),
        (["ACGT", "ACGN", "A"], ValueError, "profile embeddings require N-free sequences"),
    ])
    def test_first_record_at_fault_raises(self, seqs, error, message):
        with pytest.raises(error, match=message):
            profile_embeddings(seqs, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.text(alphabet="ACGT", min_size=4, max_size=60), min_size=1, max_size=8),
           st.integers(1, 4))
    def test_rows_are_each_records_profile(self, seqs, k):
        # the single-record profile, as profile_embedding computed it
        want = [kmer_counts(s, k) / kmer_counts(s, k).sum() for s in seqs]
        got = profile_embeddings(seqs, k)
        assert [row.tolist() for row in got] == [row.tolist() for row in want]


class TestEmbeddingSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingSet(vectors=np.zeros(3), labels=["a", "b", "c"])
        with pytest.raises(ValueError):
            EmbeddingSet(vectors=np.zeros((2, 3)), labels=["a"])
        with pytest.raises(ValueError):
            EmbeddingSet(vectors=np.array([[np.nan, 0.0]]), labels=["a"])


def _eigh_oracle(X, dims):
    """Reference projection via a dense symmetric eigensolver, with the
    same sign convention (largest-magnitude loading positive)."""
    Xc = X - X.mean(axis=0)
    cov = Xc.T @ Xc / (X.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:dims]
    comps = []
    for idx in order:
        v = eigvecs[:, idx]
        pivot = int(np.argmax(np.abs(v)))
        comps.append(v if v[pivot] >= 0 else -v)
    return Xc @ np.stack(comps, axis=1), eigvals[order]


class TestPca:
    def test_matches_dense_eigensolver(self):
        np_rng = np.random.default_rng(11)
        X = np_rng.normal(size=(30, 6)) * np.array([3, 2, 1, 0.5, 0.25, 0.1])
        emb = EmbeddingSet(vectors=X, labels=["x"] * 30)
        result = pca_project(emb, dims=3)
        want_coords, want_vars = _eigh_oracle(X, 3)
        assert np.allclose(result.explained_variance, want_vars, rtol=0, atol=1e-9)
        assert np.allclose(result.coords, want_coords, rtol=0, atol=1e-9)
        assert result.degenerate_dims == 0

    def test_exact_when_the_top_two_variances_nearly_tie(self):
        # lambda2 / lambda1 = 0.9999: an iterate that stops once successive
        # estimates agree leaves PC1 and PC2 mixed
        np_rng = np.random.default_rng(5)
        n, variances = 40, np.array([1.0, 0.9999, 0.3, 0.1, 0.01])
        A = np_rng.normal(size=(n, 5))
        Z, _ = np.linalg.qr(A - A.mean(axis=0))  # centered orthonormal columns
        rotation, _ = np.linalg.qr(np_rng.normal(size=(5, 5)))
        X = (Z * np.sqrt((n - 1) * variances)) @ rotation.T
        result = pca_project(EmbeddingSet(vectors=X, labels=["x"] * n), dims=3)
        want_coords, want_vars = _eigh_oracle(X, 3)
        assert np.allclose(result.explained_variance, want_vars, rtol=0, atol=1e-9)
        assert np.allclose(result.coords, want_coords, rtol=0, atol=1e-9)

    def test_components_capture_descending_variance(self):
        np_rng = np.random.default_rng(4)
        X = np_rng.normal(size=(50, 5))
        result = pca_project(EmbeddingSet(vectors=X, labels=["x"] * 50), dims=3)
        ev = result.explained_variance
        assert ev[0] >= ev[1] >= ev[2] > 0

    def test_rank_deficient_data_zero_fills_and_reports(self):
        base = np.arange(10.0)
        X = np.stack([base, 2 * base, -base], axis=1)  # rank 1
        result = pca_project(EmbeddingSet(vectors=X, labels=["x"] * 10), dims=2)
        assert result.degenerate_dims == 1
        assert np.allclose(result.coords[:, 1], 0.0)
        assert result.explained_variance[1] == 0.0

    def test_dims_beyond_the_vector_width_are_degenerate(self):
        X = np.random.default_rng(2).normal(size=(6, 2))
        result = pca_project(EmbeddingSet(vectors=X, labels=["x"] * 6), dims=4)
        assert result.degenerate_dims == 2
        assert result.coords.shape == (6, 4)
        assert np.allclose(result.coords[:, 2:], 0.0)
        assert result.explained_variance[2:] == [0.0, 0.0]

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            pca_project(EmbeddingSet(vectors=np.zeros((1, 4)), labels=["a"]), dims=2)


def silhouette_oracle(X, labels, metric):
    """Per-point loop over own-cluster and nearest-cluster mean distances."""
    if metric == "euclidean":
        sq = (X**2).sum(axis=1)
        dist = np.sqrt(np.clip(sq[:, None] + sq[None, :] - 2 * (X @ X.T), 0, None))
    else:
        norms = np.linalg.norm(X, axis=1)
        dist = 1 - (X @ X.T) / np.outer(norms, norms)
        np.fill_diagonal(dist, 0)
    label_arr = np.asarray(labels)
    scores = []
    for i in range(len(labels)):
        same = label_arr == label_arr[i]
        n_same = int(same.sum())
        if n_same == 1:
            scores.append(0.0)
            continue
        a = dist[i][same].sum() / (n_same - 1)
        b = min(dist[i][label_arr == other].mean()
                for other in set(labels) if other != label_arr[i])
        scores.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
    return float(np.mean(scores))


class TestSilhouette:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(2, 14).flatmap(lambda n: st.lists(
            st.tuples(st.sampled_from("abcd"),
                      st.lists(st.floats(0.05, 5.0), min_size=3, max_size=3)),
            min_size=n, max_size=n,
        )).filter(lambda rows: len({label for label, _ in rows}) >= 2),
        metric=st.sampled_from(["euclidean", "cosine"]),
    )
    def test_matches_the_per_point_loop(self, rows, metric):
        labels = [label for label, _ in rows]
        X = np.array([vec for _, vec in rows])
        got = silhouette(EmbeddingSet(vectors=X, labels=labels), metric=metric)
        assert got == pytest.approx(silhouette_oracle(X, labels, metric), abs=1e-12)

    def test_hand_fixture(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        emb = EmbeddingSet(vectors=X, labels=["a", "a", "b", "b"])
        want = (2 * (9.5 / 10.5) + 2 * (8.5 / 9.5)) / 4
        assert silhouette(emb) == pytest.approx(want, abs=1e-12)

    def test_well_separated_clusters_score_high(self):
        np_rng = np.random.default_rng(0)
        X = np.concatenate(
            [np_rng.normal(0, 0.1, (20, 3)), np_rng.normal(10, 0.1, (20, 3))]
        )
        emb = EmbeddingSet(vectors=X, labels=["a"] * 20 + ["b"] * 20)
        assert silhouette(emb) > 0.9

    def test_singleton_cluster_scores_zero(self):
        X = np.array([[0.0], [1.0], [2.0]])
        emb = EmbeddingSet(vectors=X, labels=["a", "b", "b"])
        value = silhouette(emb)
        # singleton 'a' contributes 0; check the aggregate by hand
        s1 = (1.0 - 1.0) / 1.0  # point 1: a=1 (to point 2), b=1 (to point 0)
        s2 = (2.0 - 1.0) / 2.0
        assert value == pytest.approx((0.0 + s1 + s2) / 3)

    def test_cosine_metric(self):
        X = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
        emb = EmbeddingSet(vectors=X, labels=["a", "a", "b", "b"])
        assert silhouette(emb, metric="cosine") > 0.5
        with pytest.raises(ValueError):
            silhouette(emb, metric="manhattan")

    def test_single_label_rejected(self):
        emb = EmbeddingSet(vectors=np.zeros((3, 2)), labels=["a"] * 3)
        with pytest.raises(SingleCluster):
            silhouette(emb)


class TestExport:
    def test_embeddings_tsv(self):
        emb = EmbeddingSet(vectors=np.array([[0.5, 0.25]]), labels=["a"])
        text = embeddings_to_tsv(["s1"], emb)
        assert text == "#id\tlabel\tv_1\tv_2\ns1\ta\t0.5\t0.25\n"

    def test_projection_tsv(self):
        text = projection_to_tsv(["s1"], ["a"], np.array([[1.0, -2.0]]))
        assert text == "#id\tlabel\tx\ty\ns1\ta\t1\t-2\n"
