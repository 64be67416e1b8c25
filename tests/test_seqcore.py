import io
import os
import tempfile
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genomelm import seqcore
from genomelm.errors import AmbiguousBase, BadFastaRecord, BadRow, InvalidSymbol
from genomelm.seqcore import (
    AMINO_ALPHABET,
    CODON_TABLE,
    DNA_ALPHABET,
    NucleotideSequence,
    ProteinSequence,
    fasta_text,
    line_of_position,
    read_fasta,
    read_genome,
    read_tsv,
    reverse_complement,
    split_on_n,
    translate,
    validate,
    write_tsv,
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
        path.write_text(fasta_text(seqs))
        back = read_fasta(path)
        assert [s.bases for s in back] == [s.bases for s in seqs]
        assert back[0].id == "a"
        assert back[0].meta["taxon_group"] == "fungi"
        assert back[1].meta["feature_type"] == "CDS"
        assert back[2].meta == {}

    def test_wraps_long_lines(self):
        body = fasta_text([NucleotideSequence("A" * 130, id="long")], width=60).splitlines()
        assert body[0] == ">long"
        assert [len(l) for l in body[1:]] == [60, 60, 10]

    @given(dna, st.integers(1, 80))
    def test_wrapping_matches_textwrap(self, bases, width):
        text = fasta_text([NucleotideSequence(bases, id="s")], width=width)
        lines = textwrap.wrap(bases, width) or [""]
        assert text == ">s\n" + "".join(line + "\n" for line in lines)

    def test_reads_multiline_records(self, tmp_path):
        path = tmp_path / "in.fa"
        path.write_text(">one|plant|gene\nacgt\nACGT\n>two\nTTTT\n")
        seqs = read_fasta(path)
        assert seqs[0].bases == "ACGTACGT"
        assert seqs[0].meta == {"taxon_group": "plant", "feature_type": "gene"}
        assert seqs[1].id == "two"

    def test_bad_symbol_names_the_file_line_and_record(self, tmp_path):
        path = tmp_path / "in.fa"
        path.write_text(">one\nACGT\n>two|fungi\nACGTACGT\nACXGT\n")
        with pytest.raises(BadFastaRecord) as exc:
            read_fasta(path)
        assert (exc.value.path, exc.value.line_no, exc.value.record) == (path, 5, "two")
        assert str(exc.value) == f"{path}: line 5 (record 'two'): invalid symbol 'X' at position 10"
        assert isinstance(exc.value.__cause__, InvalidSymbol)

    @given(st.lists(st.text(alphabet="acgtACGT \t", max_size=8), min_size=1, max_size=6),
           st.sampled_from(["\n", "\r\n"]), st.data())
    def test_the_line_of_a_bad_symbol_survives_blank_lines_and_whitespace(self, body, eol, data):
        line = data.draw(st.integers(0, len(body) - 1))
        col = data.draw(st.integers(0, len(body[line])))
        body[line] = body[line][:col] + "x" + body[line][col:]
        lines = [">lead", "ACGT", "", ">r|t|f", *body, ">tail", "TT"]
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "in.fa"
            path.write_bytes((eol.join(lines) + eol).encode())
            with pytest.raises(BadFastaRecord) as exc:
                read_fasta(path)
        assert (exc.value.line_no, exc.value.record) == (5 + line, "r")


    def test_text_before_the_first_header_is_named(self, tmp_path):
        path = tmp_path / "lead.fa"
        path.write_text("\n  \nACGT\n>s\nACGTTT\n")
        with pytest.raises(BadFastaRecord) as exc:
            read_fasta(path)
        assert (exc.value.path, exc.value.line_no, exc.value.record) == (path, 3, None)
        assert str(exc.value) == f"{path}: line 3: text before the first '>' header"

    def test_blank_lines_before_the_first_header_are_allowed(self, tmp_path):
        path = tmp_path / "lead.fa"
        path.write_text("\n \t\n>s\nACGT\n")
        assert [(s.id, s.bases) for s in read_fasta(path)] == [("s", "ACGT")]

    def test_genome_maps_ids_to_records(self, tmp_path):
        path = tmp_path / "genome.fa"
        path.write_text(">a|plant|\nACGT\n>b\nTT\n")
        genome = read_genome(path)
        assert list(genome) == ["a", "b"]
        assert (genome["a"].bases, genome["a"].meta, genome["b"].bases) == (
            "ACGT", {"taxon_group": "plant"}, "TT")

    def test_a_repeated_genome_id_names_the_second_header(self, tmp_path):
        path = tmp_path / "genome.fa"
        path.write_text(">a\nACGT\n>ab\nTT\n>a|fungi|\nGG\n")
        with pytest.raises(BadFastaRecord) as exc:
            read_genome(path)
        assert (exc.value.path, exc.value.line_no, exc.value.record) == (path, 5, "a")
        assert str(exc.value) == f"{path}: line 5 (record 'a'): record id repeated from line 1"


def line_based_parse_fasta(lines, path):
    """The line-by-line FASTA parser that the block reader replaced, kept as
    its oracle: records from lines of text, such as an open file."""
    header, chunks = None, []  # every body line, blank ones too: chunk i is line first + i
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if line.startswith(">"):
            if header is not None:
                yield line_based_record(header, chunks, first, path)
            header, chunks, first = line[1:].strip(), [], line_no + 1
        elif header is not None:
            chunks.append(line)
        elif line.strip():
            raise BadFastaRecord(path, line_no, None, "text before the first '>' header")
    if header is not None:
        yield line_based_record(header, chunks, first, path)


def line_based_record(header, chunks, first, path):
    fields = header.split("|")
    meta = {}
    if len(fields) >= 2 and fields[1]:
        meta["taxon_group"] = fields[1]
    if len(fields) >= 3 and fields[2]:
        meta["feature_type"] = fields[2]
    try:
        return validate("".join(chunks), id=fields[0], meta=meta)
    except InvalidSymbol as exc:
        line_no = line_of_position(exc.position, enumerate(chunks, start=first))
        raise BadFastaRecord(path, line_no, fields[0], exc) from exc


def line_based_first_n(seqs, lines, path):
    """The N check that was made over a file's lines once its records were
    read, kept as the oracle of read_fasta's `acgt`."""
    for index, seq in enumerate(seqs):
        if seq.has_n():
            position = seq.bases.index("N")
            headers = [n for n, line in enumerate(lines) if line.startswith(">")] + [len(lines)]
            first, end = headers[index] + 1, headers[index + 1]
            line_no = line_of_position(position, enumerate(lines[first:end], start=first + 1))
            raise BadFastaRecord(path, line_no, seq.id, AmbiguousBase(position))
    return seqs


def outcome(parse, path=None):
    """The records `parse()` reads, or its error, with `path` named "in.fa"."""
    try:
        return [(s.id, s.bases, s.meta) for s in parse()]
    except BadFastaRecord as exc:
        return type(exc), str(exc).replace(f"{path}: ", "in.fa: ", 1)


def piped(data: bytes, **checks):
    """outcome of read_fasta of `data` written to a pipe and read through its /dev/fd path,
    which reads once, as `<(cat in.fa)` does."""
    read_end, write_end = os.pipe()
    try:
        with os.fdopen(write_end, "wb") as fh:  # a hypothesis example fits the pipe's buffer
            fh.write(data)
        path = f"/dev/fd/{read_end}"
        return outcome(lambda: read_fasta(path, **checks), path)
    finally:
        os.close(read_end)


fasta_line = st.one_of(
    st.sampled_from(["", " ", "\t ", ">"]),  # blank and whitespace-only lines, a bare '>'
    st.builds(">{}".format, st.text(alphabet="ab| ", max_size=8)),  # id|taxon|feature headers
    st.text(alphabet="acgtnACGTN \t", max_size=12),  # lowercase, spaces and tabs
    # bad symbols at the start and the end of a line
    st.builds("{}{}{}".format, st.sampled_from(["", "x", "U", "é"]),
              st.text(alphabet="ACGTN", max_size=6), st.sampled_from(["", "*", ">"])),
)


class TestOneTextFastaParser:
    @given(st.lists(st.tuples(fasta_line, st.sampled_from(["\n", "\r\n"])), max_size=12),
           st.booleans())
    def test_matches_the_line_based_parser(self, lines, final_newline):
        text = "".join(line + eol for line, eol in lines)
        if lines and not final_newline:
            text = text[: -len(lines[-1][1])]
        expected = outcome(lambda: line_based_parse_fasta(io.StringIO(text), "in.fa"))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "in.fa"
            path.write_bytes(text.encode())
            assert outcome(lambda: read_fasta(path), path) == expected
            if isinstance(expected, list):
                seqs = list(line_based_parse_fasta(io.StringIO(text), "in.fa"))
                text_lines = io.StringIO(text).readlines()
                assert outcome(lambda: read_fasta(path, acgt=True), path) \
                    == outcome(lambda: line_based_first_n(seqs, text_lines, "in.fa"))

    def test_a_file_reads_as_its_text(self, tmp_path):
        path = tmp_path / "in.fa"
        path.write_bytes(b"\r\n>a|t|f\r\nac\rgt\r\n>b\n")
        assert outcome(lambda: read_fasta(path)) == [
            ("a", "ACGT", {"taxon_group": "t", "feature_type": "f"}), ("b", "", {})]


block_line = st.one_of(
    st.sampled_from(["", " ", "\t\x0b", "\x1c\x1f "]),  # blank and whitespace-only lines
    st.builds(">{}".format, st.text(alphabet="ab| é", max_size=8)),  # headers, some non-ASCII
    st.builds(">{}".format, st.text(alphabet="ab|>", max_size=8)),  # a '>' inside a header
    # headers longer than a block, of letters that would pass for bases
    st.builds(">{}".format, st.text(alphabet="ACGT", min_size=60, max_size=80)),
    st.builds(">{}|t|f".format, st.text(alphabet="acgt", min_size=60, max_size=80)),
    st.text(alphabet="acgtnACGTN \t", max_size=90),  # lowercase, N, spaces and tabs
    st.text(alphabet="ACGTN\u00a0\x85\u3000", max_size=90),  # whitespace of 2 and 3 bytes
    # bad symbols, a '>' mid-line among them
    st.builds("{}{}{}".format, st.text(alphabet="ACGT", max_size=6),
              st.sampled_from(["x", ">", "*", "é"]), st.text(alphabet="ACGT", max_size=6)),
)


# bytes that are not UTF-8, or whole or cut characters of two or three bytes
junk_bytes = st.sampled_from([b"\xf0", b"\xc3", b"\xa9", b"\xff", b"\xe3\x80", b"\xc2\xa0"]) \
    | st.binary(min_size=1, max_size=3)


class TestBlockReader:
    """read_fasta reads a file a block of bytes at a time; with blocks of
    1 to 64 bytes every record, header and line end is cut somewhere."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(block_line, st.sampled_from(["\n", "\r\n", "\r"])), max_size=12),
           st.booleans(), st.integers(1, 64))
    def test_any_block_size_reads_as_the_text(self, lines, final_newline, block):
        text = "".join(line + eol for line, eol in lines)
        if lines and not final_newline:
            text = text[: -len(lines[-1][1])]
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "in.fa"
            path.write_bytes(text.encode())
            with open(path) as fh:
                expected = outcome(lambda: line_based_parse_fasta(fh, "in.fa"))
            with mock.patch.object(seqcore, "_BLOCK", block):
                assert outcome(lambda: read_fasta(path), path) == expected
                assert piped(text.encode()) == expected

    def test_a_record_start_cut_from_its_newline(self, tmp_path):
        path = tmp_path / "in.fa"
        path.write_bytes(b">a\nAC\n>b\nGT\r>c\rTT")
        for block in (2, 3, 6, 12):  # a '>' opens a block, after '\n' or '\r'
            with mock.patch.object(seqcore, "_BLOCK", block):
                assert [(s.id, s.bases) for s in read_fasta(path)] == [
                    ("a", "AC"), ("b", "GT"), ("c", "TT")]

    def test_a_header_over_many_blocks(self, tmp_path):
        path = tmp_path / "in.fa"
        path.write_bytes(b">" + b"ACGT" * 8 + b"|t\nAC\r\n>b\nGG\n")
        for block in range(1, 40):
            with mock.patch.object(seqcore, "_BLOCK", block):
                assert [(s.id, s.meta, s.bases) for s in read_fasta(path)] == [
                    ("ACGT" * 8, {"taxon_group": "t"}, "AC"), ("b", {}, "GG")]

    def test_a_mid_line_gt_that_opens_a_block_is_a_symbol(self, tmp_path):
        path = tmp_path / "in.fa"
        path.write_bytes(b">a>b\nAC>GT\n")
        for block in (1, 2, 3, 4, 5, 6, 7):
            with mock.patch.object(seqcore, "_BLOCK", block), \
                    pytest.raises(BadFastaRecord, match="line 2 .* invalid symbol '>'"):
                read_fasta(path)

    @pytest.mark.parametrize("text, expected", [
        (">\u00e9|t\nAC\r\nGT\n>b\nGG\n", [("\u00e9", "ACGT"), ("b", "GG")]),
        (">a\nAC\n>b\nGG\nGX\n", "line 5 .* invalid symbol 'X'"),
    ], ids=["non-ascii-header", "bad-symbol"])
    def test_a_pipe_is_read_once(self, text, expected):
        # a pipe's data can be read once; opened again through /dev/fd it reads as empty
        read_end, write_end = os.pipe()
        os.write(write_end, text.encode())
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
        try:
            if isinstance(expected, str):
                with pytest.raises(BadFastaRecord, match=expected):
                    read_fasta(path)
            else:
                assert [(s.id, s.bases) for s in read_fasta(path)] == expected
        finally:
            os.close(read_end)

    @pytest.mark.parametrize("data, line, record, reason", [
        (b">a\nACGT\nAC\xf0GT\n", 3, "a", "byte 0xf0 is not UTF-8"),
        # after whitespace of two bytes, which is dropped, and after a symbol of two bytes
        (b">a\r\n\r\nA\xc2\xa0\xf0\n", 3, "a", "byte 0xf0 is not UTF-8"),
        (b">a\r\n\r\nA\xc3\xa9\xf0\n", 3, "a", "invalid symbol '\u00c9' at position 1"),
        (b">a\xf0\nACGT\n", 1, None, "byte 0xf0 is not UTF-8"),
        (b"\n\xf0\n>a\nACGT\n", 2, None, "byte 0xf0 is not UTF-8"),
    ], ids=["body", "after-whitespace", "after-a-symbol", "header", "before-the-first-header"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path, data, line, record, reason):
        # the first fault in the file is named, wherever a block ends
        path = tmp_path / "in.fa"
        path.write_bytes(data)
        for block in (1, 2, 3, 64):
            with mock.patch.object(seqcore, "_BLOCK", block), \
                    pytest.raises(BadFastaRecord) as exc:
                read_fasta(path)
            assert (exc.value.line_no, exc.value.record) == (line, record)
            assert str(exc.value).endswith(f": {reason}")
            assert piped(data) == (BadFastaRecord, str(exc.value).replace(str(path), "in.fa"))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(block_line, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8),
           st.lists(st.tuples(st.integers(0, 2000), junk_bytes), max_size=3),
           st.integers(1, 64))
    def test_any_bytes_read_alike_at_any_block_size(self, lines, junk, block):
        # text with bytes that are not UTF-8 put in: the one outcome is records or a
        # BadFastaRecord, the same through a pipe at any block size as in one block
        data = "".join(line + eol for line, eol in lines).encode()
        for at, raw in junk:
            data = data[: at % (len(data) + 1)] + raw + data[at % (len(data) + 1):]
        whole, checked = piped(data), piped(data, acgt=True, unique_ids=True)
        with mock.patch.object(seqcore, "_BLOCK", block):
            assert piped(data) == whole
            assert piped(data, acgt=True, unique_ids=True) == checked

    def test_nonempty_names_a_record_of_no_bases(self, tmp_path):
        path = tmp_path / "in.fa"
        path.write_text(">a\nAC\n>b|t\n \n>c\nG\n")
        assert [len(s) for s in read_fasta(path)] == [2, 0, 1]
        with pytest.raises(BadFastaRecord) as exc:
            read_fasta(path, nonempty=True)
        assert str(exc.value) == f"{path}: line 3 (record 'b'): empty sequence"

    def test_memory_holds_the_records_and_about_one_more(self, tmp_path):
        path = tmp_path / "four.fa"
        rng = np.random.default_rng(0)
        bases = np.frombuffer(b"ACGT", dtype=np.uint8)[rng.integers(0, 4, 4_000_000)].tobytes()
        records = [bases[i : i + 1_000_000].decode() for i in range(0, len(bases), 1_000_000)]
        path.write_text(fasta_text([NucleotideSequence(r, id=f"r{i}") for i, r in enumerate(records)]))
        del bases, records
        tracemalloc.start()
        try:
            seqs = read_fasta(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(s) for s in seqs] == [1_000_000] * 4
        assert peak <= 2 * 4_000_000


class TestTsv:
    def test_round_trip_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_tsv(path, ("name", "n"), [("a", 1), ("b", 22)])
        assert path.read_text() == "#name\tn\na\t1\nb\t22\n"
        path.write_text(path.read_text() + "\n# note\nc\t3\n")
        assert read_tsv(path, lambda cols: (cols[0], int(cols[1])), min_cols=2) == [
            ("a", 1), ("b", 22), ("c", 3)
        ]

    @pytest.mark.parametrize("max_cols, row, reason", [
        (None, "a", "expected >=2 columns, got 1"),
        (2, "a\t1\tx", "expected 2 columns, got 3"),
        (3, "a", "expected 2..3 columns, got 1"),
        (None, "a\tone", "invalid literal for int() with base 10: 'one'"),
        (None, "a\t1\tACGU", "invalid symbol 'U' at position 3"),
    ])
    def test_bad_row_names_path_and_line(self, tmp_path, max_cols, row, reason):
        def parse(cols):
            if len(cols) > 2:
                NucleotideSequence(cols[2])
            return int(cols[1])

        path = tmp_path / "t.tsv"
        path.write_text("#h\n\nb\t2\n" + row + "\n")
        with pytest.raises(BadRow) as exc:
            read_tsv(path, parse, min_cols=2, max_cols=max_cols)
        assert str(exc.value) == f"{path}: bad row at line 4: {reason}"
        assert exc.value.line_no == 4
        if "columns" not in reason:
            assert isinstance(exc.value.__cause__, (ValueError, InvalidSymbol))

    def test_a_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_bytes("#h\n\u00e9\t1\n".encode() + b"b\xf0\t2\n")
        with pytest.raises(BadRow) as exc:
            read_tsv(path, lambda cols: int(cols[1]), min_cols=2)
        assert str(exc.value) == f"{path}: bad row at line 3: byte 0xf0 is not UTF-8"
