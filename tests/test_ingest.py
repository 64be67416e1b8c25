import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genomelm.errors import (
    BadRow,
    InsufficientData,
    InvalidSymbol,
    MalformedLocation,
    MissingOrigin,
    UnknownSequenceId,
)
from genomelm.ingest import (
    AnnotationRecord,
    GenerTaskConfig,
    _sample_intergenic,
    build_gener_task_datasets,
    corpus_stats,
    add_genbank,
    extract_functional_regions,
    parse_bed_like,
)
from genomelm.seqcore import NucleotideSequence, reverse_complement

GENOME_60 = "ACGTACGTACCCGGTTAACCGGATCCGGAATTCCGGAACCTTGGAACCTTGGACGTACGT"


def _origin_lines(bases):
    lines = []
    for i in range(0, len(bases), 60):
        row = bases[i : i + 60].lower()
        chunks = " ".join(row[j : j + 10] for j in range(0, len(row), 10))
        lines.append(f"{i + 1:>9} {chunks}")
    return "\n".join(lines)


def _write_genbank(path, locus_id, bases, feature_lines):
    features = "\n".join(feature_lines)
    path.write_text(
        f"LOCUS       {locus_id}             {len(bases)} bp    DNA\n"
        "FEATURES             Location/Qualifiers\n"
        f"{features}\n"
        "ORIGIN\n"
        f"{_origin_lines(bases)}\n"
        "//\n"
    )


class TestGenbank:
    def test_three_genes_exact_intervals(self, tmp_path):
        path = tmp_path / "rec.gb"
        _write_genbank(
            path,
            "CTG1",
            GENOME_60,
            [
                "     gene            4..12",
                '                     /gene="g1"',
                "     gene            complement(20..28)",
                "     gene            join(31..35,41..46)",
            ],
        )
        sequences = {}
        records = add_genbank(sequences, path)
        assert sequences["CTG1"].bases == GENOME_60
        assert [(r.start, r.end, r.strand) for r in records] == [
            (4, 12, "+"),
            (20, 28, "-"),
            (31, 46, "+"),  # join collapses to the outer span
        ]

    def test_non_gene_features_are_ignored(self, tmp_path):
        path = tmp_path / "rec.gb"
        _write_genbank(
            path,
            "CTG1",
            GENOME_60,
            [
                "     source          1..60",
                "     CDS             4..12",
                "     gene            4..12",
            ],
        )
        records = add_genbank({}, path)
        assert len(records) == 1

    def test_multi_record_file(self, tmp_path):
        path = tmp_path / "two.gb"
        one = (
            f"LOCUS       A1             60 bp    DNA\n"
            "FEATURES             Location/Qualifiers\n"
            "     gene            1..8\n"
            "ORIGIN\n"
            f"{_origin_lines(GENOME_60)}\n"
            "//\n"
        )
        two = (
            f"LOCUS       B2             60 bp    DNA\n"
            "FEATURES             Location/Qualifiers\n"
            "     gene            complement(2..9)\n"
            "ORIGIN\n"
            f"{_origin_lines(GENOME_60)}\n"
            "//\n"
        )
        path.write_text(one + two)
        sequences = {}
        records = add_genbank(sequences, path)
        assert set(sequences) == {"A1", "B2"}
        assert [(r.seq_id, r.strand) for r in records] == [("A1", "+"), ("B2", "-")]

    def test_missing_origin_raises(self, tmp_path):
        path = tmp_path / "bad.gb"
        path.write_text(
            "LOCUS       NOORI             60 bp    DNA\n"
            "FEATURES             Location/Qualifiers\n"
            "     gene            1..8\n"
            "//\n"
        )
        with pytest.raises(MissingOrigin) as exc:
            add_genbank({}, path)
        assert str(exc.value) == f"{path}: line 1: record 'NOORI' has no ORIGIN section"

    def test_malformed_location_raises(self, tmp_path):
        path = tmp_path / "bad.gb"
        _write_genbank(path, "CTG1", GENOME_60, ["     gene            4..twelve"])
        with pytest.raises(MalformedLocation) as exc:
            add_genbank({}, path)
        assert str(exc.value) == (f"{path}: line 3: malformed feature location: "
                                  "'gene            4..twelve'")

    def test_bare_locus_line_names_the_line(self, tmp_path):
        path = tmp_path / "bad.gb"
        path.write_text("LOCUS\nORIGIN\n        1 acgt\n//\n")
        with pytest.raises(BadRow) as exc:
            add_genbank({}, path)
        assert str(exc.value) == f"{path}: bad row at line 1: LOCUS line without a locus name"

    @pytest.mark.parametrize("at, line_no", [(0, 5), (59, 5), (60, 6), (75, 6)])
    def test_bad_origin_symbol_names_its_line(self, tmp_path, at, line_no):
        # LOCUS, FEATURES, one gene, ORIGIN, then 60 bases a line from line 5
        bases = GENOME_60 + GENOME_60[:20]
        path = tmp_path / "bad.gb"
        _write_genbank(path, "CTG1", bases[:at] + "X" + bases[at + 1:],
                       ["     gene            4..12"])
        with pytest.raises(BadRow) as exc:
            add_genbank({}, path)
        assert (exc.value.path, exc.value.line_no) == (path, line_no)
        assert exc.value.reason == f"record 'CTG1': invalid symbol 'X' at position {at}"
        assert isinstance(exc.value.__cause__, InvalidSymbol)

    def test_location_beyond_contig_raises(self, tmp_path):
        path = tmp_path / "bad.gb"
        _write_genbank(path, "CTG1", GENOME_60, ["     gene            4..99"])
        with pytest.raises(MalformedLocation, match=f"^{path}: line 3: "):
            add_genbank({}, path)

    @pytest.mark.parametrize("loc", ["0..3", "8..3", "join(5..8,0..2)"])
    def test_location_that_is_not_a_1_based_span_raises(self, tmp_path, loc):
        path = tmp_path / "bad.gb"
        _write_genbank(path, "CTG1", GENOME_60, [f"     gene            {loc}"])
        with pytest.raises(MalformedLocation, match=f"^{path}: line 3: "):
            add_genbank({}, path)


class TestBedLike:
    def test_half_open_converts_to_one_based_inclusive(self, tmp_path):
        path = tmp_path / "ann.tsv"
        path.write_text(
            "#seq\tstart\tend\tstrand\tfeature\ttaxon\n"
            "chr1\t0\t10\t+\tgene\tfungi\n"
            "chr1\t9\t12\t-\tCDS\n"
        )
        records = parse_bed_like(path, {"chr1": NucleotideSequence("A" * 12)})
        assert (records[0].start, records[0].end) == (1, 10)
        assert (records[1].start, records[1].end) == (10, 12)
        assert records[0].taxon_group == "fungi"
        assert records[1].taxon_group is None

    @pytest.mark.parametrize(
        "row",
        [
            "chr1\t0\t10\t+",  # too few columns
            "chr1\tzero\t10\t+\tgene",
            "chr1\t10\t10\t+\tgene",  # empty interval
            "chr1\t-1\t10\t+\tgene",
            "chr1\t0\t10\t*\tgene",
            "chr1\t0\t10\t+\tpromoter",
            "chr1\t0\t10\t+\tgene\tmartian",
        ],
    )
    def test_bad_rows_raise_with_line_number(self, tmp_path, row):
        path = tmp_path / "ann.tsv"
        path.write_text("# header\n" + row + "\n")
        with pytest.raises(BadRow) as exc:
            parse_bed_like(path, {"chr1": NucleotideSequence("A" * 10)})
        assert exc.value.line_no == 2
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("row, problem", [
        ("chrX\t0\t4\t+\tgene", "unknown sequence id 'chrX'"),
        ("chr1\t2\t9\t+\tgene", "annotation chr1:3..9 exceeds contig length 8"),
    ])
    def test_rows_off_the_genome_raise_with_line_number(self, tmp_path, row, problem):
        path = tmp_path / "ann.tsv"
        path.write_text("chr1\t0\t8\t+\tgene\n" + row + "\n")
        with pytest.raises(BadRow) as exc:
            parse_bed_like(path, {"chr1": NucleotideSequence("ACGTACGT")})
        assert exc.value.line_no == 2
        assert str(exc.value) == f"{path}: bad row at line 2: {problem}"


class TestExtraction:
    def test_strands_and_intervals(self):
        genome = {"c": NucleotideSequence(GENOME_60, id="c")}
        plus = AnnotationRecord("c", 4, 12, "+")
        minus = AnnotationRecord("c", 20, 28, "-")
        regions = extract_functional_regions(genome, [plus, minus])
        assert regions[0].sequence.bases == GENOME_60[3:12]
        assert (
            regions[1].sequence.bases
            == reverse_complement(NucleotideSequence(GENOME_60[19:28])).bases
        )

    def test_n_regions_split_with_min_length(self):
        genome = {"c": NucleotideSequence("AAAACCCCNNGGGGTTTTNGG")}
        rec = AnnotationRecord("c", 1, 21, "+")
        regions = extract_functional_regions(genome, [rec], min_subregion=4)
        assert [r.sequence.bases for r in regions] == ["AAAACCCC", "GGGGTTTT"]

    def test_unknown_contig_raises(self):
        with pytest.raises(UnknownSequenceId, match="unknown sequence id 'zzz'"):
            extract_functional_regions({}, [AnnotationRecord("zzz", 1, 4, "+")])

    def test_annotation_past_contig_end_raises(self):
        genome = {"c": NucleotideSequence("ACGT")}
        with pytest.raises(ValueError):
            extract_functional_regions(genome, [AnnotationRecord("c", 1, 9, "+")])


class TestStats:
    def test_hand_counts(self):
        genome = {"c": NucleotideSequence(GENOME_60)}
        records = [
            AnnotationRecord("c", 1, 10, "+", "gene", "fungi"),
            AnnotationRecord("c", 11, 16, "+", "gene", "fungi"),
            AnnotationRecord("c", 21, 28, "-", "CDS", "plant"),
        ]
        stats = corpus_stats(extract_functional_regions(genome, records))
        assert stats.counts[("fungi", "gene")] == (2, 16)
        assert stats.counts[("plant", "CDS")] == (1, 8)
        assert stats.total_genes == 3
        assert stats.total_nucleotides == 24
        tsv = stats.to_tsv()
        assert "fungi\tgene\t2\t16" in tsv
        assert tsv.endswith("total\t-\t3\t24\n")


def _task_fixture():
    rng = random.Random(5)
    contigs = {}
    annotations = []
    for name, taxon in (("c1", "fungi"), ("c2", "plant")):
        bases = "".join(rng.choice("ACGT") for _ in range(400))
        contigs[name] = NucleotideSequence(bases, id=name)
        # genes packed at the front; the back stays intergenic
        for g in range(3):
            start = 10 + 40 * g
            annotations.append(
                AnnotationRecord(name, start, start + 19, "+", "gene", taxon)
            )
    regions = extract_functional_regions(contigs, annotations)
    return regions, contigs, annotations


class TestGenerTasks:
    CONFIG = GenerTaskConfig(
        per_class_n=2,
        gene_min_len=10,
        gene_max_len=30,
        window_len=100,
        per_group_windows=2,
        intergenic_margin=20,
        seed=3,
    )

    def test_balanced_and_labeled(self):
        regions, contigs, annotations = _task_fixture()
        data = build_gener_task_datasets(regions, contigs, annotations, self.CONFIG)
        gene_labels = [label for _, label in data.gene_items]
        assert gene_labels.count("gene") == 2
        assert gene_labels.count("control") == 2
        taxon_labels = [label for _, label in data.taxon_items]
        assert taxon_labels.count("fungi") == 2
        assert taxon_labels.count("plant") == 2
        assert all(len(seq) == 100 for seq, _ in data.taxon_items)
        assert data.skipped_contigs == 0

    def test_controls_keep_their_distance_from_genes(self):
        regions, contigs, annotations = _task_fixture()
        data = build_gener_task_datasets(regions, contigs, annotations, self.CONFIG)
        controls = [seq for seq, label in data.gene_items if label == "control"]
        blocked = []
        for rec in annotations:
            lo = rec.start - self.CONFIG.intergenic_margin
            hi = rec.end + self.CONFIG.intergenic_margin
            blocked.append((rec.seq_id, lo, hi))
        for control in controls:
            placements = []
            for name, contig in contigs.items():
                at = contig.bases.find(control)
                if at >= 0:
                    placements.append((name, at + 1, at + len(control)))
            assert placements, "control not found in any contig"
            assert any(
                all(not (lo <= end and start <= hi)
                    for b_name, lo, hi in blocked if b_name == name)
                for name, start, end in placements
            )

    def test_deterministic_given_seed(self):
        regions, contigs, annotations = _task_fixture()
        a = build_gener_task_datasets(regions, contigs, annotations, self.CONFIG)
        b = build_gener_task_datasets(regions, contigs, annotations, self.CONFIG)
        assert a.gene_items == b.gene_items
        assert a.taxon_items == b.taxon_items

    def test_short_contigs_are_skipped_and_counted(self):
        regions, contigs, annotations = _task_fixture()
        contigs = dict(contigs)
        contigs["c3"] = NucleotideSequence("ACGT" * 10, id="c3")
        annotations = annotations + [
            AnnotationRecord("c3", 1, 8, "+", "gene", "fungi")
        ]
        regions = extract_functional_regions(contigs, annotations)
        data = build_gener_task_datasets(regions, contigs, annotations, self.CONFIG)
        assert data.skipped_contigs == 1

    def test_insufficient_pool_raises(self):
        regions, contigs, annotations = _task_fixture()
        config = GenerTaskConfig(
            per_class_n=50,
            gene_min_len=10,
            gene_max_len=30,
            window_len=100,
            per_group_windows=2,
            intergenic_margin=20,
        )
        with pytest.raises(InsufficientData):
            build_gener_task_datasets(regions, contigs, annotations, config)


def sample_intergenic_oracle(genome, annotations, length, count, margin, rng):
    """The sampler `_sample_intergenic` replaced: every start tested against
    every gene span, every candidate kept in a list."""
    spans = {}
    for rec in annotations:
        spans.setdefault(rec.seq_id, []).append((rec.start - margin, rec.end + margin))
    candidates = []
    for seq_id, contig in sorted(genome.items()):
        blocked = spans.get(seq_id, [])
        for start in range(1, len(contig) - length + 2):
            end = start + length - 1
            if any(s <= end and start <= e for s, e in blocked):
                continue
            candidates.append((seq_id, start))
    if len(candidates) < count:
        raise InsufficientData("control", count, len(candidates))
    picks = rng.sample(candidates, count)
    return [
        genome[seq_id].bases[start - 1 : start - 1 + length]
        for seq_id, start in sorted(picks)
    ]


@st.composite
def sampler_cases(draw):
    """Contigs (some shorter than the window, some unannotated) and gene
    spans that overlap each other, run past their contig's end or name a
    contig absent from the genome."""
    contig_ids = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True))
    genome = {
        cid: NucleotideSequence(
            "".join(draw(st.lists(st.sampled_from("ACGT"), max_size=120))), id=cid
        )
        for cid in contig_ids
    }
    annotations = []
    for _ in range(draw(st.integers(0, 5))):
        start = draw(st.integers(1, 130))
        annotations.append(AnnotationRecord(
            draw(st.sampled_from("abcde")), start, start + draw(st.integers(0, 20)), "+"
        ))
    return (genome, annotations, draw(st.integers(1, 16)), draw(st.integers(-1, 12)),
            draw(st.integers(-6, 10)), draw(st.integers(0, 2**16)))


def _outcome(sampler, genome, annotations, length, count, margin, seed):
    rng = random.Random(seed)
    try:
        result = sampler(genome, annotations, length, count, margin, rng)
    except InsufficientData as exc:
        result = ("InsufficientData", exc.group, exc.needed, exc.available)
    except ValueError as exc:  # a negative count, from random.sample
        result = ("ValueError", str(exc))
    return result, rng.random()


class TestSampleIntergenic:
    @settings(max_examples=300)
    @given(sampler_cases())
    @example((  # a window may end right before the margin, not on it
        {"a": NucleotideSequence("ACGTTGCAAC" * 3)}, [AnnotationRecord("a", 15, 16, "+")],
        3, 5, 2, 1,
    ))
    def test_matches_the_candidate_list_sampler(self, case):
        assert _outcome(_sample_intergenic, *case) == _outcome(sample_intergenic_oracle, *case)

    def test_memory_does_not_grow_with_the_genome(self):
        contig = NucleotideSequence("ACGGT" * 400_000, id="chr1")
        genes = [
            AnnotationRecord("chr1", start, start + 4_999, "+")
            for start in range(100_000, 2_000_000, 200_000)
        ]
        tracemalloc.start()
        try:
            windows = _sample_intergenic(
                {"chr1": contig}, genes, 2_000, 10, 1_000, random.Random(1)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(windows) == 10 and all(len(w) == 2_000 for w in windows)
        assert peak - sum(sys.getsizeof(w) for w in windows) < 1_000_000
