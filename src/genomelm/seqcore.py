"""Validated DNA sequences and exact biological primitives.

Sequences are immutable values over the alphabet {A,C,G,T,N}. N is storable
but untranslatable; downstream corpus construction splits on N runs.
"""
from __future__ import annotations

import itertools
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from .errors import AmbiguousBase, BadFastaRecord, BadModelFile, BadRow, InvalidSymbol

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

# An alphabet check is two C-level passes: the text is ASCII, and deleting
# every symbol of the alphabet from its bytes leaves nothing. Only text that
# fails is searched for its first character outside the alphabet.
_DNA_BYTES = "".join(sorted(DNA_ALPHABET)).encode()
_AMINO_BYTES = "".join(sorted(AMINO_ALPHABET)).encode()
_NOT_DNA = re.compile("[^%s]" % re.escape("".join(sorted(DNA_ALPHABET))))
_NOT_AMINO = re.compile("[^%s]" % re.escape("".join(sorted(AMINO_ALPHABET))))


@dataclass(frozen=True)
class NucleotideSequence:
    """A DNA string over {A,C,G,T,N} with optional id and metadata tags."""

    bases: str
    id: Optional[str] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.bases.isascii() or self.bases.encode().translate(None, _DNA_BYTES):
            bad = _NOT_DNA.search(self.bases)
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
        if not self.residues.isascii() or self.residues.encode().translate(None, _AMINO_BYTES):
            bad = _NOT_AMINO.search(self.residues)
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

ASCII_WS = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "  # the ASCII str.split() splits on, \x1c-\x1f too
_BLOCK = 1 << 20  # the bytes read_fasta reads at a time


def read_fasta(path) -> list[NucleotideSequence]:
    """The FASTA records of `path`, read a block of bytes at a time, lines ending as in text
    mode. Non-ASCII text, an error to name, and a pipe, which reads once, are read as one text."""
    with open(path, "rb", buffering=0) as fh:
        if fh.seekable():
            seqs = _ascii_records(iter(lambda: fh.read(_BLOCK), b""), newlines=True)
            if seqs is not None:
                return seqs
            fh.seek(0)
        with open(fh.fileno(), closefd=False) as text:  # on from where fh is
            return _text_records(text.read(), path)


def read_acgt_fasta(path) -> list[NucleotideSequence]:
    """The records of FASTA `path`, each of A, C, G and T only, as a
    tokenizer needs. An N raises BadFastaRecord naming the path, the record
    and the line of its first N."""
    seqs = read_fasta(path)
    if any(seq.has_n() for seq in seqs):
        with open(path) as fh:  # only now find the record's lines
            acgt_only(seqs, fh.read(), path)
    return seqs


def acgt_only(seqs: list[NucleotideSequence], text: str, path) -> list[NucleotideSequence]:
    """`seqs`, the records parse_fasta read from `text`, if each is of A, C,
    G and T only. An N raises BadFastaRecord naming `path`, the record and
    the line of its first N."""
    for index, seq in enumerate(seqs):
        if seq.has_n():
            position = seq.bases.index("N")
            line_no = _line_in_record(text, index, position)
            raise BadFastaRecord(path, line_no, seq.id, AmbiguousBase(position))
    return seqs


def read_genome(path) -> dict[str, NucleotideSequence]:
    """The FASTA records of `path` by id. A repeated id raises
    BadFastaRecord naming the path, the line of its second header and the id."""
    genome: dict[str, NucleotideSequence] = {}
    for seq in read_fasta(path):
        if seq.id in genome:
            with open(path) as fh:  # only now find the two headers' lines
                first, second = [n for n, line in enumerate(fh, start=1) if line.startswith(">")
                                 and line[1:].strip().split("|")[0] == seq.id][:2]
            raise BadFastaRecord(path, second, seq.id, f"record id repeated from line {first}")
        genome[seq.id] = seq
    return genome


def parse_fasta(text: str, path) -> list[NucleotideSequence]:
    """The FASTA records of `text`, read from `path`: a record starts at a
    line that starts with '>'. A symbol outside the alphabet, or text before
    the first header, raises BadFastaRecord naming the path and the line.
    A line ends at '\n' only: callers translate newlines, as open() does."""
    if text.isascii() and (seqs := _ascii_records([text.encode()], newlines=False)) is not None:
        return seqs
    return _text_records(text, path)


def _text_records(text: str, path) -> list[NucleotideSequence]:
    """parse_fasta's records, found in one text, which names any error's line."""
    preamble, *records = ("\n" + text).split("\n>")
    if preamble.strip():
        # line n of the text is line n of the preamble, after the "\n" put before it
        line_no = next(n for n, line in enumerate(preamble.split("\n")) if line.strip())
        raise BadFastaRecord(path, line_no, None, "text before the first '>' header")
    seqs = []
    for index, record in enumerate(records):
        header, _, body = record.partition("\n")
        id, meta = _id_and_meta(header)
        try:
            seqs.append(validate(body, id=id, meta=meta))
        except InvalidSymbol as exc:
            line_no = _line_in_record(text, index, exc.position)
            raise BadFastaRecord(path, line_no, id, exc) from exc
    return seqs


def _ascii_records(blocks: Iterable[bytes], newlines: bool) -> Optional[list[NucleotideSequence]]:
    """The records of the FASTA bytes `blocks`, each body piece cleaned as its block arrives, so
    only the records and the open one's bases are held; None if a block is not ASCII or holds an
    error for the text algorithm to name. With `newlines`, '\r\n' and '\r' end a line too."""
    seqs = []
    # the open record's header, whether its line is still open, and its cleaned body pieces
    head, in_header, body = b"", False, None  # (None before the first '>')
    last = 10  # the byte before the block, a newline: the text opens a line
    try:
        # a '>' line after the last block closes the last record; the one it opens is dropped
        for block in itertools.chain(blocks, [b"\n>"]):
            if not block.isascii():
                return None
            if newlines and b"\r" in block:
                # a "\r\n" cut by a block's end reads as two line ends: whitespace
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            pos = 0  # the open record goes on from `pos` to the next record start, `at`
            while True:
                at = block.find(b">", pos)
                while at >= 0 and (block[at - 1] if at else last) != 10:
                    at = block.find(b">", at + 1)
                stop = len(block) if at < 0 else at
                if in_header:
                    end = block.find(b"\n", pos, stop)
                    end = stop if end < 0 else end
                    head += block[pos:end]
                    in_header, pos = end == stop, end
                if pos < stop:
                    if body is not None:  # newlines dropped; if more is left, whitespace and case
                        piece = block[pos:stop].replace(b"\n", b"")
                        if piece.translate(None, _DNA_BYTES):
                            piece = piece.translate(None, ASCII_WS).upper()
                        body.append(piece)
                    elif block[pos:stop].translate(None, ASCII_WS):
                        return None  # text before the first header
                if at < 0:
                    break
                if body is not None:
                    bases, body = b"".join(body), None  # the pieces go as they are joined,
                    bases = bases.decode()  # and the bytes as they are decoded
                    seqs.append(NucleotideSequence(bases, *_id_and_meta(head.decode())))
                head, in_header, body, pos = b"", True, [], at + 1
            last = block[-1] if block else last
    except InvalidSymbol:
        return None
    return seqs


def _id_and_meta(header: str) -> tuple[str, dict]:
    """The id and metadata of a header: `id|taxon|feature` carries corpus metadata."""
    fields = header.strip().split("|")
    meta = {}
    if len(fields) >= 2 and fields[1]:
        meta["taxon_group"] = fields[1]
    if len(fields) >= 3 and fields[2]:
        meta["feature_type"] = fields[2]
    return fields[0], meta


def _line_in_record(text: str, index: int, position: int) -> int:
    """The line of FASTA `text` that holds character `position` of record
    `index`'s sequence; only an error needs it, so only an error pays for it."""
    preamble, *records = ("\n" + text).split("\n>")
    # each record before this one spans its newlines plus the one before its header
    header_line = preamble.count("\n") + sum(r.count("\n") for r in records[:index]) + index + 1
    body = records[index].split("\n")[1:]
    return line_of_position(position, enumerate(body, start=header_line + 1))


def line_of_position(position: int, numbered_lines: Iterable[tuple[int, str]]) -> int:
    """The number of the line that holds character `position` of the
    (line number, text) pairs' text joined without whitespace, the string
    `validate` measures an InvalidSymbol's position in."""
    seen = 0
    for line_no, text in numbered_lines:
        seen += len("".join(text.split()))
        if position < seen:
            break
    return line_no


def fasta_text(seqs: Iterable[NucleotideSequence], width: int = 60) -> str:
    """FASTA records, `width` bases a line, with `id|taxon|feature` headers
    when a sequence carries that metadata."""
    if width < 1:
        raise ValueError(f"line width must be positive, got {width}")
    lines = []
    for seq in seqs:
        header = seq.id or "seq"
        taxon = seq.meta.get("taxon_group")
        feature = seq.meta.get("feature_type")
        if taxon or feature:
            header = f"{header}|{taxon or ''}|{feature or ''}"
        lines.append(f">{header}")
        # an empty sequence still gets one (empty) line
        lines.extend(seq.bases[i : i + width] for i in range(0, max(len(seq.bases), 1), width))
    return "".join(line + "\n" for line in lines)


def write_fasta(path, seqs: Iterable[NucleotideSequence], width: int = 60) -> None:
    Path(path).write_text(fasta_text(seqs, width))


# --- TSV i/o -----------------------------------------------------------------

Row = TypeVar("Row")


def read_tsv(
    path, parse_row: Callable[[list[str]], Row], min_cols: int, max_cols: Optional[int] = None
) -> list[Row]:
    """`parse_row` of each tab-split line but blank and '#' ones. A line with
    fewer than `min_cols` or more than `max_cols` fields, or one `parse_row`
    rejects with ValueError or InvalidSymbol, raises BadRow naming the path and line."""
    if max_cols is None:
        width = f">={min_cols}"
    else:
        width = str(min_cols) if max_cols == min_cols else f"{min_cols}..{max_cols}"
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) < min_cols or (max_cols is not None and len(cols) > max_cols):
                raise BadRow(line_no, f"expected {width} columns, got {len(cols)}", path)
            try:
                rows.append(parse_row(cols))
            except (ValueError, InvalidSymbol) as exc:
                raise BadRow(line_no, str(exc), path) from exc
    return rows


def tsv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A '#'-prefixed header line, then one tab-joined line per row."""
    lines = ["#" + "\t".join(header)]
    lines.extend("\t".join(map(str, row)) for row in rows)
    return "\n".join(lines) + "\n"


def write_tsv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    Path(path).write_text(tsv_text(header, rows))


@contextmanager
def reading_model(where):
    """Report a missing key, bad JSON or bad value in a model file as
    BadModelFile; `where` names the file, or the file and the part at fault."""
    try:
        yield
    except KeyError as exc:
        raise BadModelFile(f"{where}: missing key {exc.args[0]!r}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise BadModelFile(f"{where}: {exc}") from exc
