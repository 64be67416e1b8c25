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
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from .errors import (AmbiguousBase, BadFastaRecord, BadModelFile, BadRow, BadValue,
                     GenomeLmError, InvalidSymbol)

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


def first_non_dna(bases: str) -> Optional[re.Match]:
    """The match of the first character of `bases` outside DNA_ALPHABET, or
    None when there is none."""
    if bases.isascii() and not bases.encode().translate(None, _DNA_BYTES):
        return None
    return _NOT_DNA.search(bases)


@dataclass(frozen=True)
class NucleotideSequence:
    """A DNA string over {A,C,G,T,N} with optional id and metadata tags."""

    bases: str
    id: Optional[str] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if (bad := first_non_dna(self.bases)) is not None:
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


def _clean(text: str) -> str:
    """`text` without the whitespace `str.split` splits on, in upper case."""
    return "".join(text.split()).upper()


def validate(raw_text: str, id: Optional[str] = None, meta: Optional[dict] = None) -> NucleotideSequence:
    """Normalize raw text (case, whitespace) into a NucleotideSequence.

    Raises InvalidSymbol at the position of the first offending character,
    measured in the `_clean` string.
    """
    return NucleotideSequence(_clean(raw_text), id=id, meta=dict(meta or {}))


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
        raise BadValue(f"frame must be 0, 1 or 2, got {frame}")
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
_LAST_CHARACTER = re.compile(rb"[\xc0-\xff][\x80-\xbf]*\Z")  # a non-ASCII one, whole or cut
_BLOCK = 1 << 20  # the bytes read_fasta reads at a time


def read_fasta(path, acgt=False, unique_ids=False, nonempty=False,
               blocks: Optional[Iterable[bytes]] = None) -> list[NucleotideSequence]:
    """The FASTA records of `path`, a file or a pipe read once a block of bytes at a time, or of
    `blocks`, the bytes of a stream that `path` names; lines end as in text mode. The first fault
    raises BadFastaRecord naming `path`, its line and its record: a byte that is not UTF-8, text
    before the first '>' header or a symbol outside the alphabet; with `acgt`, as a tokenizer
    needs, an N; with `unique_ids` a repeated id; with `nonempty` a record of no bases."""
    if blocks is not None:
        return _records(blocks, path, acgt, unique_ids, nonempty)
    with open(path, "rb") as fh:
        return _records(iter(lambda: fh.read(_BLOCK), b""), path, acgt, unique_ids, nonempty)


def read_genome(path) -> dict[str, NucleotideSequence]:
    """The FASTA records of `path` by id. A repeated id raises
    BadFastaRecord naming the path, the line of its second header and the id."""
    return {seq.id: seq for seq in read_fasta(path, unique_ids=True)}


def _records(blocks: Iterable[bytes], path, acgt, unique_ids, nonempty) -> list:
    """read_fasta's records of the FASTA bytes `blocks`, each body piece cleaned and checked as
    its block arrives, so only the records and the open one's bases are held. A piece's newlines
    are counted as they are dropped, so each record start and fault knows its line."""
    allowed = b"ACGT" if acgt else _DNA_BYTES
    seqs, header_lines = [], {}
    # the open record's header, whether its line is still open, and its cleaned body pieces
    head, in_header, body = b"", False, None  # (None before the first '>')
    id, meta, header_line = None, {}, 0  # the open record's, once its header line is whole
    last, line = 10, 1  # the byte before the block, a newline: the text opens line 1
    # a '>' line after the last block closes the last record; the one it opens is dropped
    for block in itertools.chain(_whole_characters(blocks), [b"\n>"]):
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        pos = 0  # the open record goes on from `pos`, on line `line`, to the next record start
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
                if not in_header:  # the header line is whole
                    try:
                        id, meta = _id_and_meta(head.decode())
                    except UnicodeDecodeError as exc:
                        raise BadFastaRecord(path, header_line, None, f"byte 0x"
                                             f"{head[exc.start]:02x} is not UTF-8") from None
                    if unique_ids and header_lines.setdefault(id, header_line) != header_line:
                        raise BadFastaRecord(path, header_line, id,
                                             f"record id repeated from line {header_lines[id]}")
            if pos < stop:  # newlines dropped and counted; past bases, whitespace and case too
                piece = block[pos:stop].replace(b"\n", b"")
                first, line = line, line + stop - pos - len(piece)
                if body is None or piece.translate(None, allowed):
                    piece = _cleaned(piece)
                    # before the first header any text is a fault, after it a symbol not allowed
                    if piece is None or piece.translate(None, b"" if body is None else allowed):
                        _raise_fault(path, block[pos:stop], first, None if body is None else id,
                                     sum(map(len, body or ())), allowed)
                if body is not None:
                    body.append(piece)
            if at < 0:
                break
            if body is not None:
                bases, body = b"".join(body), None  # the pieces go as they are joined,
                if nonempty and not bases:
                    raise BadFastaRecord(path, header_line, id, "empty sequence")
                bases = bases.decode()  # and the bytes as they are decoded
                seqs.append(NucleotideSequence(bases, id, meta))
            head, in_header, body, header_line, pos = b"", True, [], line, at + 1
        last = block[-1] if block else last
    return seqs


def _whole_characters(blocks: Iterable[bytes]) -> Iterator[bytes]:
    """`blocks`, each one's last character, if it is not ASCII, or else its trailing carriage
    return, moved on to open the next, so that no UTF-8 character and no CR LF is cut."""
    carry = b""
    for block in blocks:
        block = carry + block
        last = _LAST_CHARACTER.search(block, max(len(block) - 4, 0))
        cut = last.start() if last else len(block) - block.endswith(b"\r")
        block, carry = block[:cut], block[cut:]
        yield block
    yield carry


def _cleaned(piece: bytes) -> Optional[bytes]:
    """Body bytes `piece` cleaned as `_clean` cleans text; None if it is not UTF-8."""
    if piece.isascii():
        return piece.translate(None, ASCII_WS).upper()
    try:
        return _clean(piece.decode()).encode()
    except UnicodeDecodeError:
        return None


def _raise_fault(path, raw: bytes, line: int, record, seen: int, allowed: bytes):
    """Raise the BadFastaRecord of the first fault in FASTA bytes `raw`, opening on line `line`:
    before the first header (`record` None) any text; else a symbol not `allowed` in the `_clean`
    text, `seen` bases into `record`; or a byte not UTF-8."""
    try:
        text, undecodable = raw.decode(), None
    except UnicodeDecodeError as exc:  # the text before the byte may hold the first fault
        text, undecodable = raw[: exc.start].decode(), exc.start
    bad = re.search("." if record is None else f"[^{allowed.decode()}]", _clean(text))
    if bad is None:
        raise BadFastaRecord(path, line + raw.count(b"\n", 0, undecodable), record,
                             f"byte 0x{raw[undecodable]:02x} is not UTF-8")
    line_no = line_of_position(bad.start(), enumerate(text.split("\n"), start=line))
    if record is None:
        raise BadFastaRecord(path, line_no, None, "text before the first '>' header")
    at, symbol = seen + bad.start(), bad.group()
    reason = AmbiguousBase(at) if symbol == "N" else InvalidSymbol(at, symbol)
    raise BadFastaRecord(path, line_no, record, reason) from reason


def _id_and_meta(header: str) -> tuple[str, dict]:
    """The id and metadata of a header: `id|taxon|feature` carries corpus metadata."""
    fields = header.strip().split("|")
    meta = {}
    if len(fields) >= 2 and fields[1]:
        meta["taxon_group"] = fields[1]
    if len(fields) >= 3 and fields[2]:
        meta["feature_type"] = fields[2]
    return fields[0], meta


def line_of_position(position: int, numbered_lines: Iterable[tuple[int, str]]) -> int:
    """The number of the line that holds character `position` of the
    (line number, text) pairs' text joined without whitespace, the string
    `validate` measures an InvalidSymbol's position in."""
    seen = 0
    for line_no, text in numbered_lines:
        seen += len(_clean(text))
        if position < seen:
            break
    return line_no


def fasta_text(seqs: Iterable[NucleotideSequence], width: int = 60) -> str:
    """FASTA records, `width` bases a line, with `id|taxon|feature` headers
    when a sequence carries that metadata."""
    if width < 1:
        raise BadValue(f"line width must be positive, got {width}")
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


# --- TSV i/o -----------------------------------------------------------------

Row = TypeVar("Row")
_ESCAPED = re.compile("[\udc80-\udcff]")


def read_tsv(
    path, parse_row: Callable[[list[str]], Row], min_cols: int, max_cols: Optional[int] = None
) -> list[Row]:
    """`parse_row` of each tab-split line but blank and '#' ones. A line with
    fewer than `min_cols` or more than `max_cols` fields, or one `parse_row`
    rejects with ValueError or a GenomeLmError, raises BadRow naming the path and
    line, as a byte that is not UTF-8 does."""
    if max_cols is None:
        width = f">={min_cols}"
    else:
        width = str(min_cols) if max_cols == min_cols else f"{min_cols}..{max_cols}"
    rows = []
    for line_no, line in text_lines(path):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < min_cols or (max_cols is not None and len(cols) > max_cols):
            raise BadRow(line_no, f"expected {width} columns, got {len(cols)}", path)
        try:
            rows.append(parse_row(cols))
        except (ValueError, GenomeLmError) as exc:
            raise BadRow(line_no, str(exc), path) from exc
    return rows


def text_lines(path) -> Iterator[tuple[int, str]]:
    """Each line of text file `path` with its number. A byte that is not
    UTF-8 raises BadRow naming the path and its line."""
    with open(path, errors="surrogateescape") as fh:  # such a byte reads as U+DC80..U+DCFF
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii() and (bad := _ESCAPED.search(line)):
                raise BadRow(line_no, f"byte 0x{ord(bad.group()) - 0xDC00:02x} is not UTF-8", path)
            yield line_no, line


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
