"""Corpus construction: annotation parsing, region extraction, task datasets.

Coordinate conventions: GenBank locations are 1-based inclusive, BED-like
TSV rows are 0-based half-open; everything is normalized to 1-based
inclusive internally.
"""
from __future__ import annotations

import bisect
import random
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import (
    BadRow,
    InsufficientData,
    InvalidSymbol,
    MalformedLocation,
    MissingOrigin,
    UnknownSequenceId,
)
from .seqcore import (NucleotideSequence, line_of_position, read_tsv, reverse_complement,
                      split_on_n, tsv_text, validate)

FEATURE_TYPES = ("CDS", "pseudo", "tRNA", "rRNA", "ncRNA", "miscRNA", "gene")
TAXON_GROUPS = (
    "protozoa",
    "fungi",
    "plant",
    "invertebrate",
    "mammalian",
    "vertebrate_other",
)


@dataclass(frozen=True)
class AnnotationRecord:
    seq_id: str
    start: int  # 1-based inclusive
    end: int
    strand: str  # '+' or '-'
    feature_type: str = "gene"
    taxon_group: Optional[str] = None

    def __post_init__(self):
        if self.start < 1 or self.end < self.start:
            raise ValueError(f"bad interval {self.start}..{self.end}")
        if self.strand not in ("+", "-"):
            raise ValueError(f"bad strand {self.strand!r}")
        if self.feature_type not in FEATURE_TYPES:
            raise ValueError(f"unknown feature type {self.feature_type!r}")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class FunctionalRegion:
    source: AnnotationRecord
    sequence: NucleotideSequence  # reverse-complemented for minus strand

    @property
    def taxon_group(self) -> Optional[str]:
        return self.source.taxon_group


# --- GenBank flat file -------------------------------------------------------

_SPAN_RE = re.compile(r"^<?(\d+)\.\.>?(\d+)$")


def _parse_location(loc: str) -> Optional[tuple[int, int, str]]:
    """Reduce a gene location to (start, end, strand), or None if malformed
    or not a 1-based span.

    join(...) collapses to the outer span [min, max]: gene-centric regions
    keep intervening introns.
    """
    strand = "+"
    loc = loc.strip()
    if loc.startswith("complement(") and loc.endswith(")"):
        strand = "-"
        loc = loc[len("complement(") : -1]
    if loc.startswith("join(") and loc.endswith(")"):
        loc = loc[len("join(") : -1]
    starts, ends = [], []
    for part in loc.split(","):
        part = part.strip()
        m = _SPAN_RE.match(part)
        if m:
            starts.append(int(m.group(1)))
            ends.append(int(m.group(2)))
        elif part.isdigit():
            starts.append(int(part))
            ends.append(int(part))
        else:
            return None
    start, end = min(starts), max(ends)
    return (start, end, strand) if 1 <= start <= end else None


def add_genbank(genome: dict[str, NucleotideSequence], path) -> list[AnnotationRecord]:
    """Parse the LOCUS/FEATURES/ORIGIN records of the GenBank file at `path`
    into `genome` and return their `gene` features. A LOCUS line without a
    name, or with the name of an earlier LOCUS or of a record `genome`
    already holds, or a symbol outside the alphabet in an ORIGIN section,
    raises BadRow naming the path and the line, and leaves `genome` as it was."""
    sequences: dict[str, NucleotideSequence] = {}
    locus_lines: dict[str, int] = {}
    records: list[AnnotationRecord] = []
    with open(path) as fh:
        lines = fh.read().splitlines()

    i = 0
    while i < len(lines):
        if not lines[i].startswith("LOCUS"):
            i += 1
            continue
        fields = lines[i].split()
        if len(fields) < 2:
            raise BadRow(i + 1, "LOCUS line without a locus name", path)
        locus_id = fields[1]
        if locus_id in locus_lines:
            raise BadRow(i + 1, f"LOCUS name {locus_id!r} repeats line {locus_lines[locus_id]}", path)
        if locus_id in genome:
            raise BadRow(i + 1, f"record {locus_id!r} is also a genome FASTA record", path)
        locus_lines[locus_id] = i + 1
        i += 1
        pending: list[tuple[str, str, int]] = []  # (location text, source line, its number)
        origin: list[tuple[int, str]] = []  # (line number, bases) of each ORIGIN line
        saw_origin = False
        in_features = False
        while i < len(lines) and not lines[i].startswith("LOCUS"):
            line = lines[i]
            if line.startswith("FEATURES"):
                in_features = True
            elif line.startswith("ORIGIN"):
                saw_origin = True
                in_features = False
                i += 1
                while i < len(lines) and not lines[i].startswith("//") and not lines[i].startswith("LOCUS"):
                    origin.append((i + 1, re.sub(r"[\d\s]", "", lines[i])))
                    i += 1
                continue
            elif in_features:
                stripped = line.strip()
                if line.startswith("     ") and not line.startswith("      " * 3):
                    parts = stripped.split(None, 1)
                    if len(parts) == 2 and not parts[0].startswith("/"):
                        key, loc = parts
                        # location may continue on following indented lines
                        j = i + 1
                        while j < len(lines) and lines[j].startswith(" " * 10) and not lines[j].strip().startswith("/"):
                            loc += lines[j].strip()
                            j += 1
                        if key == "gene":
                            pending.append((loc, line.strip(), i + 1))
                        i = j - 1
            i += 1
        if not saw_origin:
            raise MissingOrigin(f"{path}: line {locus_lines[locus_id]}: record {locus_id!r} "
                                "has no ORIGIN section")
        try:
            seq = validate("".join(bases for _, bases in origin), id=locus_id)
        except InvalidSymbol as exc:
            line_no = line_of_position(exc.position, origin)
            raise BadRow(line_no, f"record {locus_id!r}: {exc}", path) from exc
        sequences[locus_id] = seq
        for loc, src_line, line_no in pending:
            span = _parse_location(loc)
            if span is None or span[1] > len(seq):
                raise MalformedLocation(src_line, f"{path}: line {line_no}")
            start, end, strand = span
            records.append(
                AnnotationRecord(seq_id=locus_id, start=start, end=end, strand=strand)
            )
    genome.update(sequences)
    return records


# --- BED-like TSV ------------------------------------------------------------

def parse_bed_like(path, genome: dict[str, NucleotideSequence]) -> list[AnnotationRecord]:
    """seq_id, start, end, strand, feature_type[, taxon_group]; BED 0-based
    half-open. A row on no contig of `genome`, or past its contig's end, is
    a BadRow too."""
    return read_tsv(path, lambda cols: _bed_record(cols, genome), min_cols=5)


def _bed_record(cols: list[str], genome: dict[str, NucleotideSequence]) -> AnnotationRecord:
    # AnnotationRecord checks the interval, strand and feature type.
    seq_id, start_s, end_s, strand, feature = cols[:5]
    taxon = cols[5] if len(cols) > 5 and cols[5] else None
    try:
        start0, end0 = int(start_s), int(end_s)
    except ValueError:
        raise ValueError("non-integer coordinates") from None
    if taxon is not None and taxon not in TAXON_GROUPS:
        raise ValueError(f"unknown taxon group {taxon!r}")
    rec = AnnotationRecord(seq_id, start0 + 1, end0, strand, feature, taxon)
    try:
        _contig_of(genome, rec)
    except UnknownSequenceId as exc:
        raise ValueError(str(exc)) from None
    return rec


# --- extraction --------------------------------------------------------------

def _contig_of(genome: dict[str, NucleotideSequence], rec: AnnotationRecord
               ) -> NucleotideSequence:
    """rec's contig: UnknownSequenceId when genome has none, ValueError when
    rec runs past its end."""
    contig = genome.get(rec.seq_id)
    if contig is None:
        raise UnknownSequenceId(f"unknown sequence id {rec.seq_id!r}")
    if rec.end > len(contig):
        raise ValueError(
            f"annotation {rec.seq_id}:{rec.start}..{rec.end} exceeds contig length {len(contig)}"
        )
    return contig


def extract_functional_regions(
    genome: dict[str, NucleotideSequence],
    annotations: Iterable[AnnotationRecord],
    min_subregion: int = 8,
) -> list[FunctionalRegion]:
    """Extract annotated regions; minus strand is reverse-complemented.

    Regions containing N are split into maximal N-free subregions; pieces
    shorter than min_subregion are dropped.
    """
    out = []
    for rec in annotations:
        contig = _contig_of(genome, rec)
        piece = NucleotideSequence(
            contig.bases[rec.start - 1 : rec.end],
            id=f"{rec.seq_id}:{rec.start}-{rec.end}({rec.strand})",
            meta={
                k: v
                for k, v in (
                    ("taxon_group", rec.taxon_group),
                    ("feature_type", rec.feature_type),
                )
                if v
            },
        )
        if rec.strand == "-":
            piece = reverse_complement(piece)
        if piece.has_n():
            for sub in split_on_n(piece, min_len=min_subregion):
                out.append(FunctionalRegion(source=rec, sequence=sub))
        else:
            out.append(FunctionalRegion(source=rec, sequence=piece))
    return out


# --- corpus statistics -------------------------------------------------------

@dataclass
class CorpusStats:
    counts: dict[tuple[str, str], tuple[int, int]] = field(default_factory=dict)

    def add(self, taxon: str, feature: str, nucleotides: int) -> None:
        genes, nt = self.counts.get((taxon, feature), (0, 0))
        self.counts[(taxon, feature)] = (genes + 1, nt + nucleotides)

    @property
    def total_genes(self) -> int:
        return sum(g for g, _ in self.counts.values())

    @property
    def total_nucleotides(self) -> int:
        return sum(n for _, n in self.counts.values())

    def to_tsv(self) -> str:
        rows = [(taxon, feature, genes, nt)
                for (taxon, feature), (genes, nt) in sorted(self.counts.items())]
        rows.append(("total", "-", self.total_genes, self.total_nucleotides))
        return tsv_text(("taxon_group", "feature_type", "genes", "nucleotides"), rows)


def corpus_stats(regions: Iterable[FunctionalRegion]) -> CorpusStats:
    stats = CorpusStats()
    for region in regions:
        stats.add(
            region.source.taxon_group or "unlabeled",
            region.source.feature_type,
            len(region.sequence),
        )
    return stats


# --- task dataset construction -----------------------------------------------

@dataclass
class GenerTaskConfig:
    per_class_n: int = 10
    gene_min_len: int = 100
    gene_max_len: int = 5000
    window_len: int = 96_000
    per_group_windows: int = 10
    intergenic_margin: int = 1000
    seed: int = 0


@dataclass
class GenerTaskDatasets:
    gene_items: list[tuple[str, str]]  # (sequence, gene-type label)
    taxon_items: list[tuple[str, str]]  # (sequence, taxon-group label)
    skipped_contigs: int  # contigs shorter than the window length


def _free_runs(blocked: list[tuple[int, int]], last_start: int):
    """Maximal runs [first, last] of 1..last_start outside every blocked interval."""
    free_from = 1
    for lo, hi in sorted(blocked):
        if lo > hi:  # empty: a negative margin can invert a span
            continue
        if min(lo - 1, last_start) >= free_from:
            yield free_from, min(lo - 1, last_start)
        free_from = max(free_from, hi + 1)
    if last_start >= free_from:
        yield free_from, last_start


def _sample_intergenic(
    genome: dict[str, NucleotideSequence],
    annotations: list[AnnotationRecord],
    length: int,
    count: int,
    margin: int,
    rng: random.Random,
) -> list[str]:
    """Uniform positions at least `margin` away from any gene span.

    The free start positions of each contig are kept as runs between its
    sorted blocked intervals, so memory is O(genes), not O(genome). Start
    positions are numbered in (seq_id, start) order, and
    `rng.sample(range(n), count)` over the n free starts draws the same
    indices, and leaves `rng` in the same state, as sampling a list of all
    n candidates would.
    """
    blocked: dict[str, list[tuple[int, int]]] = {}
    for rec in annotations:
        # start s is blocked when [s, s+length-1] meets [start-margin, end+margin]
        blocked.setdefault(rec.seq_id, []).append(
            (rec.start - margin - length + 1, rec.end + margin)
        )
    runs: list[tuple[str, int]] = []  # (seq_id, first free start) of each run
    offsets: list[int] = []  # number of free starts before each run
    n = 0
    for seq_id, contig in sorted(genome.items()):
        for first, last in _free_runs(blocked.get(seq_id, []), len(contig) - length + 1):
            runs.append((seq_id, first))
            offsets.append(n)
            n += last - first + 1
    if n < count:
        raise InsufficientData("control", count, n)
    out = []
    for i in sorted(rng.sample(range(n), count)):
        r = bisect.bisect_right(offsets, i) - 1
        seq_id, first = runs[r]
        start = first + i - offsets[r]
        out.append(genome[seq_id].bases[start - 1 : start - 1 + length])
    return out


def build_gener_task_datasets(
    regions: list[FunctionalRegion],
    genome: dict[str, NucleotideSequence],
    annotations: list[AnnotationRecord],
    config: GenerTaskConfig,
) -> GenerTaskDatasets:
    """Balanced gene-type and taxon classification datasets.

    Gene task: per (feature_type) balanced samples of length-eligible
    regions plus `control` sequences from intergenic space. Taxon task:
    fixed-length windows balanced across taxon groups; contigs shorter
    than the window are skipped and counted.
    """
    rng = random.Random(config.seed)

    by_type: dict[str, list[FunctionalRegion]] = {}
    by_taxon: dict[str, list[FunctionalRegion]] = {}
    for region in regions:
        if config.gene_min_len <= len(region.sequence) <= config.gene_max_len:
            by_type.setdefault(region.source.feature_type, []).append(region)
        if region.taxon_group:
            by_taxon.setdefault(region.taxon_group, []).append(region)

    gene_items: list[tuple[str, str]] = []
    for feature in sorted(by_type):
        pool = by_type[feature]
        if len(pool) < config.per_class_n:
            raise InsufficientData(feature, config.per_class_n, len(pool))
        picks = rng.sample(range(len(pool)), config.per_class_n)
        for idx in sorted(picks):
            gene_items.append((pool[idx].sequence.bases, feature))
    control_len = min(
        config.gene_max_len,
        max(
            config.gene_min_len,
            max((len(r.sequence) for r in regions), default=config.gene_min_len),
        ),
    )
    for bases in _sample_intergenic(
        genome, annotations, control_len, config.per_class_n, config.intergenic_margin, rng
    ):
        gene_items.append((bases, "control"))

    taxon_items: list[tuple[str, str]] = []
    skipped = 0
    contig_taxon: dict[str, str] = {}
    for rec in annotations:
        if rec.taxon_group:
            contig_taxon[rec.seq_id] = rec.taxon_group
    windows_by_group: dict[str, list[str]] = {}
    for seq_id, contig in sorted(genome.items()):
        group = contig_taxon.get(seq_id) or contig.meta.get("taxon_group")
        if group is None:
            continue
        if len(contig) < config.window_len:
            skipped += 1
            continue
        n_windows = len(contig) // config.window_len
        for w in range(n_windows):
            windows_by_group.setdefault(group, []).append(
                contig.bases[w * config.window_len : (w + 1) * config.window_len]
            )
    for group in sorted(windows_by_group):
        pool = windows_by_group[group]
        if len(pool) < config.per_group_windows:
            raise InsufficientData(group, config.per_group_windows, len(pool))
        picks = rng.sample(range(len(pool)), config.per_group_windows)
        for idx in sorted(picks):
            taxon_items.append((pool[idx], group))

    return GenerTaskDatasets(
        gene_items=gene_items, taxon_items=taxon_items, skipped_contigs=skipped
    )

