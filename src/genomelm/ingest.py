"""Corpus construction: annotation parsing, region extraction, task datasets.

Coordinate conventions: GenBank locations are 1-based inclusive, BED-like
TSV rows are 0-based half-open; everything is normalized to 1-based
inclusive internally.
"""
from __future__ import annotations

import bisect
import itertools
import random
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import (
    BadRow,
    BadValue,
    InsufficientData,
    InvalidSymbol,
    MalformedLocation,
    MissingOrigin,
    UnknownSequenceId,
)
from .seqcore import (NucleotideSequence, first_non_dna, read_tsv, reverse_complement,
                      split_on_n, text_lines, tsv_text)

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
            raise BadValue(f"bad interval {self.start}..{self.end}")
        if self.strand not in ("+", "-"):
            raise BadValue(f"bad strand {self.strand!r}")
        if self.feature_type not in FEATURE_TYPES:
            raise BadValue(f"unknown feature type {self.feature_type!r}")

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
_NOT_BASES = re.compile(r"[\d\s]")  # what an ORIGIN line holds besides its bases


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
    into `genome` and return their `gene` features, in one pass that holds
    one record. The first fault in file order raises a GenomeLmError naming
    the path and line, and leaves `genome` as it was: a byte that is not
    UTF-8, a LOCUS line without a new name, a symbol outside the alphabet on
    an ORIGIN line, a gene location that is not a 1-based span, and at the
    record's end a missing ORIGIN section or a gene past it."""
    sequences: dict[str, NucleotideSequence] = {}
    locus_lines: dict[str, int] = {}
    records: list[AnnotationRecord] = []
    name = None  # the open record's, None before the first LOCUS line
    feature = None  # the open feature: [key, location so far, key line, its number]
    # a LOCUS line numbered 0 after the last line closes the last record
    for line_no, line in itertools.chain(text_lines(path), [(0, "LOCUS")]):
        if feature is not None:
            if line.startswith(" " * 10) and not line.strip().startswith("/"):
                feature[1] += line.strip()  # the location goes on
                continue
            key, loc, text, at = feature
            feature = None
            if key == "gene":
                span = _parse_location(loc)
                if span is None:
                    raise MalformedLocation(text, f"{path}: line {at}")
                genes.append((span, text, at))
        if line.startswith("LOCUS"):
            if name is not None:
                if origin is None:
                    raise MissingOrigin(f"{path}: line {locus_lines[name]}: record {name!r} "
                                        "has no ORIGIN section")
                seq = sequences[name] = NucleotideSequence(origin.decode(), id=name)
                for (start, end, strand), text, at in genes:
                    if end > len(seq):
                        raise MalformedLocation(text, f"{path}: line {at}")
                    records.append(AnnotationRecord(name, start, end, strand))
            if not line_no:
                break
            fields = line.split()
            if len(fields) < 2:
                raise BadRow(line_no, "LOCUS line without a locus name", path)
            name = fields[1]
            if name in locus_lines:
                raise BadRow(line_no, f"LOCUS name {name!r} repeats line {locus_lines[name]}", path)
            if name in genome:
                raise BadRow(line_no, f"record {name!r} is also a genome FASTA record", path)
            locus_lines[name] = line_no
            # the open record's section, gene spans and ORIGIN bases (None before ORIGIN)
            section, genes, origin = None, [], None
        elif name is None:
            continue
        elif section == "ORIGIN" and not line.startswith("//"):
            bases = _NOT_BASES.sub("", line).upper()
            if (bad := first_non_dna(bases)) is not None:
                exc = InvalidSymbol(len(origin) + bad.start(), bad.group())
                raise BadRow(line_no, f"record {name!r}: {exc}", path) from exc
            origin += bases.encode()
        elif line.startswith("FEATURES"):
            section = "FEATURES"
        elif line.startswith("ORIGIN"):
            section, origin = "ORIGIN", origin or bytearray()
        elif section == "ORIGIN":  # the '//' that ends the ORIGIN lines
            section = None
        elif section == "FEATURES" and line.startswith(" " * 5) and not line.startswith(" " * 18):
            parts = line.split(None, 1)
            if len(parts) == 2 and not parts[0].startswith("/"):
                feature = [parts[0], parts[1].strip(), line.strip(), line_no]
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
        raise BadValue("non-integer coordinates") from None
    if taxon is not None and taxon not in TAXON_GROUPS:
        raise BadValue(f"unknown taxon group {taxon!r}")
    rec = AnnotationRecord(seq_id, start0 + 1, end0, strand, feature, taxon)
    _contig_of(genome, rec)
    return rec


# --- extraction --------------------------------------------------------------

def _contig_of(genome: dict[str, NucleotideSequence], rec: AnnotationRecord
               ) -> NucleotideSequence:
    """rec's contig: UnknownSequenceId when genome has none, BadValue when rec runs past it."""
    contig = genome.get(rec.seq_id)
    if contig is None:
        raise UnknownSequenceId(f"unknown sequence id {rec.seq_id!r}")
    if rec.end > len(contig):
        raise BadValue(
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
    for region in regions:
        if config.gene_min_len <= len(region.sequence) <= config.gene_max_len:
            by_type.setdefault(region.source.feature_type, []).append(region)

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

