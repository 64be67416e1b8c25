import json

import pytest

from genomelm.errors import (
    InsufficientData,
    ReferenceTooShort,
    VocabularyMismatch,
)
from genomelm.ingest import AnnotationRecord, extract_functional_regions
from genomelm.lm import TokenDistribution, UniformLm
from genomelm.recover import (
    RecoveryItem,
    build_recovery_dataset,
    read_dataset_tsv,
    dataset_to_tsv,
    recovery_accuracy,
    run_recovery,
)
from genomelm.sampling import SamplerConfig
from genomelm.seqcore import NucleotideSequence
from genomelm.tokenizer import KmerTokenizer

import numpy as np

_NEXT = {"A": "C", "C": "G", "G": "T", "T": "A"}


def cycle_from(last, n):
    out = []
    for _ in range(n):
        last = _NEXT[last]
        out.append(last)
    return "".join(out)


class CycleLm:
    """Deterministic model: nucleotides follow the cycle A->C->G->T->A,
    expressed as a point mass over k-mer tokens."""

    context_window = None

    def __init__(self, k):
        self.tok = KmerTokenizer(k)

    def vocabulary(self):
        return self.tok.vocab

    def next_distribution(self, context):
        decoded = self.tok.decode(context)
        last = decoded[-1] if decoded else "T"
        token = cycle_from(last, self.tok.k)
        probs = np.zeros(len(self.tok.vocab))
        probs[self.tok.encode(token)[0]] = 1.0
        return TokenDistribution(probs)


class WindowSpy:
    """Passes every query to `lm`, records the context lengths it is sent,
    and reports `window` as its context window."""

    def __init__(self, lm, window):
        self.lm, self.context_window, self.lengths = lm, window, []

    def vocabulary(self):
        return self.lm.vocabulary()

    def next_distribution(self, context):
        self.lengths.append(len(context))
        return self.lm.next_distribution(context)


class TestRecoveryAccuracy:
    def test_exact_match(self):
        assert recovery_accuracy("ACGTACGT", "ACGTACGT", 8) == 1.0

    def test_partial_match(self):
        assert recovery_accuracy("AAAAAAAA", "AATAAATA", 8) == pytest.approx(0.75)

    def test_short_generation_counts_as_misses(self):
        assert recovery_accuracy("AAAA", "AA", 4) == pytest.approx(0.5)
        assert recovery_accuracy("AAAA", "", 4) == 0.0

    def test_scores_only_the_requested_prefix(self):
        assert recovery_accuracy("ACGTTTTT", "ACGAAAAA", 3) == 1.0

    def test_reference_too_short(self):
        with pytest.raises(ReferenceTooShort):
            recovery_accuracy("ACG", "ACG", 4)

    @pytest.mark.parametrize("length", [0, -3])
    def test_rejects_non_positive_length(self, length):
        with pytest.raises(ValueError, match="length must be >= 1"):
            recovery_accuracy("ACG", "ACG", length)


class TestRunRecovery:
    def _items(self):
        # references continue the cycle from the prompt's last nucleotide
        return [
            RecoveryItem("TAC", cycle_from("C", 12), "alpha"),
            RecoveryItem("GTAC", cycle_from("C", 12), "alpha"),  # forces a left-trim
        ]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_perfect_model_scores_one_for_any_k(self, k):
        report = run_recovery(CycleLm(k), KmerTokenizer(k), self._items(), [6, 12])
        assert report.overall[6] == pytest.approx(1.0)
        assert report.overall[12] == pytest.approx(1.0)

    def test_token_boundary_alignment_via_left_trim(self):
        # with k=2 the 3-nt prompt only works if the prompt is left-trimmed
        item = RecoveryItem("TAC", cycle_from("C", 8), "g")
        report = run_recovery(CycleLm(2), KmerTokenizer(2), [item], [8])
        assert report.overall[8] == pytest.approx(1.0)

    def test_cell_statistics(self):
        good = RecoveryItem("AC", cycle_from("C", 8), "g")
        ref = cycle_from("C", 8)
        half_bad = RecoveryItem("AC", _swap_prefix(ref, 4), "g")
        report = run_recovery(CycleLm(1), KmerTokenizer(1), [good, half_bad], [8])
        mean, n, se = report.cells[("g", 2, 8)]
        assert mean == pytest.approx(0.75)
        assert n == 2
        assert se == pytest.approx(0.25)

    def test_overall_is_unweighted_over_groups(self):
        ref = cycle_from("C", 8)
        items = [RecoveryItem("AC", ref, "big")] * 6 + [
            RecoveryItem("AC", _swap_prefix(ref, 4), "small"),
            RecoveryItem("AC", _swap_prefix(ref, 4), "small"),
        ]
        report = run_recovery(CycleLm(1), KmerTokenizer(1), items, [8])
        # big group scores 1.0, small group 0.5; unweighted mean is 0.75
        assert report.overall[8] == pytest.approx(0.75)

    def test_sampled_mode_is_deterministic_per_item(self):
        items = self._items()
        cfg = SamplerConfig(mode="sample", seed=9)
        tok = KmerTokenizer(1)
        lm = UniformLm(tok.vocab)
        a = run_recovery(lm, tok, items, [6], cfg)
        b = run_recovery(lm, tok, items, [6], cfg)
        assert a.cells == b.cells

    def test_vocabulary_mismatch(self):
        with pytest.raises(VocabularyMismatch):
            run_recovery(CycleLm(1), KmerTokenizer(2), self._items(), [6])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_prompt_is_cut_to_the_model_window_before_encoding(self, k, random_dna):
        from genomelm.lm import train_markov

        tok = KmerTokenizer(k)
        seq = random_dna(700)
        lm = train_markov([tok.encode(seq)], tok.vocab, order=2)
        # prompts of 1..40 nt: shorter and longer than the window, and of every phase
        items = [RecoveryItem(seq[i - n : i], seq[i : i + 12], f"g{n % 2}")
                 for n, i in zip(range(1, 41), range(50, 700, 16))]
        windowed, whole = WindowSpy(lm, lm.context_window), WindowSpy(lm, None)
        for cfg in (None, SamplerConfig(mode="sample", seed=3, temperature=0.9)):
            got = run_recovery(windowed, tok, items, [5, 12], cfg)
            assert got.cells == run_recovery(whole, tok, items, [5, 12], cfg).cells
        assert max(windowed.lengths) == 2 < max(whole.lengths)

    def test_report_serialization(self):
        report = run_recovery(CycleLm(1), KmerTokenizer(1), self._items(), [6])
        tsv = report.to_tsv()
        assert tsv.startswith("#taxon_group")
        assert "alpha\t3\t6\t1.000000" in tsv
        assert "alpha\t4\t6\t1.000000" in tsv
        payload = json.loads(report.to_json())
        assert payload["overall"]["6"] == pytest.approx(1.0)


def _swap_prefix(reference, n):
    flipped = "".join(_NEXT[c] for c in reference[:n])
    return flipped + reference[n:]


class TestBuildDataset:
    def _fixture(self, groups=("fungi", "plant")):
        bases = (cycle_from("T", 50) + "N" + cycle_from("G", 49))
        genome = {"c": NucleotideSequence(bases, id="c")}
        annotations = [
            AnnotationRecord("c", 21, 40, "+", "gene", "fungi"),
            AnnotationRecord("c", 31, 45, "+", "gene", "fungi"),
            AnnotationRecord("c", 25, 44, "-", "gene", "fungi"),   # minus: excluded
            AnnotationRecord("c", 3, 30, "+", "gene", "plant"),    # prompt underflows
            AnnotationRecord("c", 55, 80, "+", "gene", "plant"),   # N in prompt
        ]
        annotations = [a for a in annotations if a.taxon_group in groups]
        regions = extract_functional_regions(genome, annotations)
        return regions, genome

    def test_a_group_with_no_eligible_region_is_insufficient(self):
        regions, genome = self._fixture()
        with pytest.raises(InsufficientData) as exc:
            build_recovery_dataset(regions, genome, prompt_len_nt=10,
                                   predict_len_nt=12, per_group_n=2)
        assert (exc.value.group, exc.value.needed, exc.value.available) == ("plant", 2, 0)
        items = build_recovery_dataset(regions, genome, 10, 12, per_group_n=0)
        assert items == []

    def test_items_are_genome_contiguous(self):
        regions, genome = self._fixture(groups=("fungi",))
        items = build_recovery_dataset(regions, genome, prompt_len_nt=10,
                                       predict_len_nt=12, per_group_n=2)
        assert len(items) == 2
        for item in items:
            joined = item.prompt + item.reference
            assert joined in genome["c"].bases
            assert len(item.prompt) == 10
            assert len(item.reference) == 12
            assert item.taxon_group == "fungi"

    def test_filters_leave_only_eligible_regions(self):
        regions, genome = self._fixture()
        with pytest.raises(InsufficientData) as exc:
            build_recovery_dataset(regions, genome, 10, 12, per_group_n=3)
        assert exc.value.group == "fungi"
        assert exc.value.available == 2

    def test_no_eligible_region_in_any_group_raises(self):
        regions, genome = self._fixture()
        with pytest.raises(InsufficientData) as exc:
            build_recovery_dataset(regions, genome, 60, 12, per_group_n=1)
        assert exc.value.available == 0
        assert build_recovery_dataset(regions, genome, 60, 12, per_group_n=0) == []

    def test_seeded_sampling_is_reproducible(self):
        regions, genome = self._fixture(groups=("fungi",))
        a = build_recovery_dataset(regions, genome, 10, 12, 1, seed=4)
        b = build_recovery_dataset(regions, genome, 10, 12, 1, seed=4)
        assert a == b

    def test_tsv_round_trip(self, tmp_path):
        regions, genome = self._fixture(groups=("fungi",))
        items = build_recovery_dataset(regions, genome, 10, 12, 2)
        path = tmp_path / "dataset.tsv"
        path.write_text(dataset_to_tsv(items))
        assert read_dataset_tsv(path) == items
