"""The GenBank reader that `genomelm.ingest.add_genbank` replaced, kept as
its test oracle: it holds every line of the file, walks them with index
arithmetic and checks a record's ORIGIN bases once the record is read."""
import re

from genomelm.errors import BadRow, InvalidSymbol, MalformedLocation, MissingOrigin
from genomelm.ingest import AnnotationRecord, _parse_location
from genomelm.seqcore import line_of_position, text_lines, validate


def add_genbank(genome, path):
    """The records of `path` into `genome`, and their `gene` features."""
    sequences = {}
    locus_lines = {}
    records = []
    lines = [line.rstrip("\n") for _, line in text_lines(path)]

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
        pending = []  # (location text, source line, its number)
        origin = []  # (line number, bases) of each ORIGIN line
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
