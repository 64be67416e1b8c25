"""Validated DNA sequences and exact biological primitives.

Sequences are immutable values over the alphabet {A,C,G,T,N}. N is storable
but untranslatable; downstream corpus construction splits on N runs.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .errors import AmbiguousBase, InvalidSymbol

DNA_ALPHABET = frozenset("ACGTN")
_COMPLEMENT = str.maketrans("ACGTN", "TGCAN")

# NCBI translation table 1 (standard genetic code), stop as '*'.
_BASES = "TCAG"
_AMINO = (
    "FFLLSSSSYY**CC*W"
    "LLLLPPPPHHQQRRRR"
    "IIIMTTTTNNKKSSRR"
    "VVVVAAAADDEEGGGG"
)
CODON_TABLE = {
    a + b + c: _AMINO[16 * i + 4 * j + k]
    for i, a in enumerate(_BASES)
    for j, b in enumerate(_BASES)
    for k, c in enumerate(_BASES)
}

AMINO_ALPHABET = frozenset("ACDEFGHIKLMNPQRSTVWY*")

# The first character outside each alphabet, found in one C-level scan.
_NOT_DNA = re.compile("[^%s]" % re.escape("".join(sorted(DNA_ALPHABET))))
_NOT_AMINO = re.compile("[^%s]" % re.escape("".join(sorted(AMINO_ALPHABET))))


@dataclass(frozen=True)
class NucleotideSequence:
    """A DNA string over {A,C,G,T,N} with optional id and metadata tags."""

    bases: str
    id: Optional[str] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        bad = _NOT_DNA.search(self.bases)
        if bad:
            raise InvalidSymbol(bad.start(), bad.group())

    def __len__(self) -> int:
        return len(self.bases)

    def __str__(self) -> str:
        return self.bases

    def has_n(self) -> bool:
        return "N" in self.bases


@dataclass(frozen=True)
class ProteinSequence:
    residues: str

    def __post_init__(self):
        bad = _NOT_AMINO.search(self.residues)
        if bad:
            raise InvalidSymbol(bad.start(), bad.group())

    def __len__(self) -> int:
        return len(self.residues)

    def __str__(self) -> str:
        return self.residues


@dataclass(frozen=True)
class TranslationReport:
    protein: ProteinSequence
    complete: bool
    premature_stop: bool
    starts_with_met: bool


def validate(raw_text: str, id: Optional[str] = None, meta: Optional[dict] = None) -> NucleotideSequence:
    """Normalize raw text (case, whitespace) into a NucleotideSequence.

    Raises InvalidSymbol at the position of the first offending character,
    measured in the whitespace-stripped string.
    """
    cleaned = "".join(raw_text.split()).upper()
    return NucleotideSequence(cleaned, id=id, meta=dict(meta or {}))


def reverse_complement(seq: NucleotideSequence) -> NucleotideSequence:
    return NucleotideSequence(
        seq.bases.translate(_COMPLEMENT)[::-1], id=seq.id, meta=dict(seq.meta)
    )


def translate(seq: NucleotideSequence, frame: int = 0) -> TranslationReport:
    """Translate with the standard genetic code in the given reading frame.

    The trailing partial codon is dropped (complete=False). N inside any
    translated codon raises AmbiguousBase with the nucleotide position.
    """
    if frame not in (0, 1, 2):
        raise ValueError(f"frame must be 0, 1 or 2, got {frame}")
    body = seq.bases[frame:]
    n_codons = len(body) // 3
    residues = []
    for c in range(n_codons):
        codon = body[3 * c : 3 * c + 3]
        if "N" in codon:
            raise AmbiguousBase(frame + 3 * c + codon.index("N"))
        residues.append(CODON_TABLE[codon])
    protein = ProteinSequence("".join(residues))
    complete = len(body) % 3 == 0
    premature = "*" in protein.residues[:-1] if residues else False
    starts_met = bool(residues) and residues[0] == "M"
    return TranslationReport(
        protein=protein,
        complete=complete,
        premature_stop=premature,
        starts_with_met=starts_met,
    )


def split_on_n(seq: NucleotideSequence, min_len: int = 1) -> list[NucleotideSequence]:
    """Split into maximal N-free subsequences of length >= min_len."""
    out = []
    for i, part in enumerate(seq.bases.split("N")):
        if len(part) >= min_len:
            sub_id = seq.id if seq.id is None else f"{seq.id}.{i}"
            out.append(NucleotideSequence(part, id=sub_id, meta=dict(seq.meta)))
    return out


# --- FASTA i/o ---------------------------------------------------------------

def read_fasta(path) -> list[NucleotideSequence]:
    return list(iter_fasta(path))


def iter_fasta(path) -> Iterator[NucleotideSequence]:
    with open(path) as fh:
        yield from parse_fasta(fh)


def parse_fasta(lines: Iterable[str]) -> Iterator[NucleotideSequence]:
    """FASTA records from lines of text, such as an open file."""
    header = None
    chunks: list[str] = []
    for line in lines:
        line = line.rstrip("\n")
        if line.startswith(">"):
            if header is not None:
                yield _fasta_record(header, chunks)
            header = line[1:].strip()
            chunks = []
        elif line:
            chunks.append(line)
    if header is not None:
        yield _fasta_record(header, chunks)


def _fasta_record(header: str, chunks: list[str]) -> NucleotideSequence:
    # Headers of the form "id|taxon|feature" carry corpus metadata.
    fields = header.split("|")
    meta = {}
    if len(fields) >= 2 and fields[1]:
        meta["taxon_group"] = fields[1]
    if len(fields) >= 3 and fields[2]:
        meta["feature_type"] = fields[2]
    return validate("".join(chunks), id=fields[0], meta=meta)


def write_fasta(path, seqs: Iterable[NucleotideSequence], width: int = 60) -> None:
    if width < 1:
        raise ValueError(f"line width must be positive, got {width}")
    with open(path, "w") as fh:
        for seq in seqs:
            header = seq.id or "seq"
            taxon = seq.meta.get("taxon_group")
            feature = seq.meta.get("feature_type")
            if taxon or feature:
                header = f"{header}|{taxon or ''}|{feature or ''}"
            fh.write(f">{header}\n")
            # an empty sequence still gets one (empty) line
            for i in range(0, max(len(seq.bases), 1), width):
                fh.write(seq.bases[i : i + width] + "\n")
