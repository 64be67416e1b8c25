import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genomelm.errors import AmbiguousBase, InvalidSymbol
from genomelm.seqcore import (
    AMINO_ALPHABET,
    CODON_TABLE,
    DNA_ALPHABET,
    NucleotideSequence,
    ProteinSequence,
    read_fasta,
    reverse_complement,
    split_on_n,
    translate,
    validate,
    write_fasta,
)

dna = st.text(alphabet="ACGT", max_size=200)
dna_n = st.text(alphabet="ACGTN", max_size=200)


class TestValidate:
    def test_normalizes_case_and_whitespace(self):
        seq = validate("  ac\ngT\tn ")
        assert seq.bases == "ACGTN"

    def test_reports_position_of_first_bad_symbol(self):
        with pytest.raises(InvalidSymbol) as exc:
            validate("ACGU")
        assert exc.value.position == 3
        assert exc.value.symbol == "U"

    def test_position_counts_in_stripped_string(self):
        with pytest.raises(InvalidSymbol) as exc:
            validate("AC GT X")
        assert exc.value.position == 4

    def test_carries_id_and_meta(self):
        seq = validate("ACGT", id="chr1", meta={"taxon_group": "fungi"})
        assert seq.id == "chr1"
        assert seq.meta == {"taxon_group": "fungi"}

    @given(dna_n)
    def test_accepts_all_alphabet_strings(self, s):
        assert validate(s).bases == s

    def test_constructor_rejects_lowercase(self):
        with pytest.raises(InvalidSymbol):
            NucleotideSequence("acgt")


def first_bad_symbol(text, alphabet):
    """Per-character reference for the constructors' alphabet check."""
    for pos, ch in enumerate(text):
        if ch not in alphabet:
            return pos, ch
    return None


class TestAlphabetCheck:
    @pytest.mark.parametrize("cls, alphabet", [
        (NucleotideSequence, DNA_ALPHABET),
        (ProteinSequence, AMINO_ALPHABET),
    ])
    @given(text=st.text(st.sampled_from(sorted(AMINO_ALPHABET)) | st.characters(), max_size=40))
    def test_first_bad_symbol_matches_oracle(self, cls, alphabet, text):
        expected = first_bad_symbol(text, alphabet)
        if expected is None:
            cls(text)
            return
        with pytest.raises(InvalidSymbol) as exc:
            cls(text)
        assert (exc.value.position, exc.value.symbol) == expected


class TestReverseComplement:
    def test_fixture(self):
        assert reverse_complement(NucleotideSequence("AACGTN")).bases == "NACGTT"

    @given(dna_n)
    def test_involution(self, s):
        seq = NucleotideSequence(s)
        assert reverse_complement(reverse_complement(seq)).bases == s

    @given(dna_n)
    def test_preserves_length(self, s):
        assert len(reverse_complement(NucleotideSequence(s))) == len(s)


class TestTranslate:
    def test_codon_table_is_standard(self):
        assert CODON_TABLE["ATG"] == "M"
        assert CODON_TABLE["TAA"] == "*"
        assert CODON_TABLE["TGG"] == "W"
        assert CODON_TABLE["TTT"] == "F"
        assert len(CODON_TABLE) == 64

    def test_simple_orf(self):
        report = translate(NucleotideSequence("ATGAAATAG"))
        assert report.protein.residues == "MK*"
        assert report.complete
        assert not report.premature_stop
        assert report.starts_with_met

    def test_trailing_partial_codon_dropped(self):
        report = translate(NucleotideSequence("ATGAA"))
        assert report.protein.residues == "M"
        assert not report.complete

    def test_frames_shift_the_window(self):
        # GCATGA: frame 1 reads CAT GA -> "H" (partial tail dropped)
        report = translate(NucleotideSequence("GCATGA"), frame=1)
        assert report.protein.residues == "H"
        assert not report.complete

    def test_premature_stop_flag(self):
        report = translate(NucleotideSequence("ATGTAAAAA"))
        assert report.premature_stop
        report = translate(NucleotideSequence("ATGAAATAA"))
        assert not report.premature_stop

    def test_n_in_translated_codon_raises_with_position(self):
        with pytest.raises(AmbiguousBase) as exc:
            translate(NucleotideSequence("ATGANA"))
        assert exc.value.position == 4

    def test_n_in_dropped_tail_is_fine(self):
        report = translate(NucleotideSequence("ATGAN"))
        assert report.protein.residues == "M"

    def test_bad_frame(self):
        with pytest.raises(ValueError):
            translate(NucleotideSequence("ATG"), frame=3)

    @given(dna, st.sampled_from([0, 1, 2]))
    def test_length_invariant(self, s, frame):
        report = translate(NucleotideSequence(s), frame=frame)
        assert len(report.protein) == max(0, len(s) - frame) // 3


class TestSplitOnN:
    def test_splits_and_filters(self):
        seq = NucleotideSequence("ACGTNNAANGGGG", id="x")
        parts = split_on_n(seq, min_len=3)
        assert [p.bases for p in parts] == ["ACGT", "GGGG"]
        assert [p.id for p in parts] == ["x.0", "x.3"]

    def test_no_n_returns_whole(self):
        parts = split_on_n(NucleotideSequence("ACGT"))
        assert [p.bases for p in parts] == ["ACGT"]

    @given(dna_n)
    def test_pieces_are_n_free_and_reassemble(self, s):
        parts = split_on_n(NucleotideSequence(s), min_len=1)
        assert all("N" not in p.bases for p in parts)
        assert [p for p in s.split("N") if p] == [p.bases for p in parts]


class TestFasta:
    def test_round_trip_with_metadata(self, tmp_path):
        path = tmp_path / "seqs.fa"
        seqs = [
            NucleotideSequence("ACGT" * 40, id="a", meta={"taxon_group": "fungi"}),
            NucleotideSequence("TTTT", id="b", meta={"feature_type": "CDS"}),
            NucleotideSequence("GGCC", id="c"),
        ]
        write_fasta(path, seqs)
        back = read_fasta(path)
        assert [s.bases for s in back] == [s.bases for s in seqs]
        assert back[0].id == "a"
        assert back[0].meta["taxon_group"] == "fungi"
        assert back[1].meta["feature_type"] == "CDS"
        assert back[2].meta == {}

    def test_wraps_long_lines(self, tmp_path):
        path = tmp_path / "seqs.fa"
        write_fasta(path, [NucleotideSequence("A" * 130, id="long")], width=60)
        body = path.read_text().splitlines()
        assert body[0] == ">long"
        assert [len(l) for l in body[1:]] == [60, 60, 10]

    @given(dna, st.integers(1, 80))
    def test_wrapping_matches_textwrap(self, bases, width):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "seqs.fa"
            write_fasta(path, [NucleotideSequence(bases, id="s")], width=width)
            text = path.read_text()
        lines = textwrap.wrap(bases, width) or [""]
        assert text == ">s\n" + "".join(line + "\n" for line in lines)

    def test_reads_multiline_records(self, tmp_path):
        path = tmp_path / "in.fa"
        path.write_text(">one|plant|gene\nacgt\nACGT\n>two\nTTTT\n")
        seqs = read_fasta(path)
        assert seqs[0].bases == "ACGTACGT"
        assert seqs[0].meta == {"taxon_group": "plant", "feature_type": "gene"}
        assert seqs[1].id == "two"
