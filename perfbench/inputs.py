"""Seeded synthetic inputs for the benchmark workloads.

Every input comes from one `numpy.random.Generator` seeded by the run's
`--seed`, so the same seed gives the same bytes. The seed changes sequence
content and positions; it never changes how many genes, contigs, items,
variants or records a workload has, so the amount of work per run is the
same at every seed.

Genomes are drawn from one fixed order-2 nucleotide Markov chain. Every
context row holds the same four probabilities (200, 40, 12 and 4 out of
256, an entropy of 1.00 bits/nt) in an order drawn once from CHAIN_SEED.
The chain is the same at every seed: were it redrawn, how well a model can
predict the genome, and so the quality metrics and the model sizes, would
change with the seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BASES = "ACGT"
ROW_WEIGHTS = (200, 40, 12, 4)  # out of 256, most to least probable
FEATURES = ("gene", "CDS", "tRNA", "ncRNA")
GROUPS = ("mammalian", "fungi")
CHAIN_SEED = 20250211
_TO_ACGT = bytes.maketrans(bytes(range(4)), BASES.encode())


class Chain:
    """Order-2 chain over ACGT; `rank[ctx][b]` is 0 for the likeliest base."""

    def __init__(self):
        rng = np.random.default_rng(CHAIN_SEED)
        self.rank = [list(rng.permutation(4)) for _ in range(16)]
        self._tables = [
            bytes(b for b in range(4) for _ in range(ROW_WEIGHTS[row[b]]))
            for row in self.rank
        ]

    def sample(self, rng: np.random.Generator, n: int) -> str:
        tables = self._tables
        out = bytearray(n)
        ctx = int(rng.integers(16))
        for i, d in enumerate(rng.integers(0, 256, n, dtype=np.uint8).tolist()):
            b = tables[ctx][d]
            out[i] = b
            ctx = ((ctx << 2) | b) & 15
        return out.translate(_TO_ACGT).decode()

    @staticmethod
    def context(two_bases: str) -> int:
        return BASES.index(two_bases[0]) * 4 + BASES.index(two_bases[1])

    def by_rank(self, two_bases: str, rank: int) -> str:
        return BASES[self.rank[self.context(two_bases)].index(rank)]


@dataclass
class Genome:
    contigs: dict[str, str] = field(default_factory=dict)
    taxon: dict[str, str] = field(default_factory=dict)
    # BED-like rows: seq_id, start0, end0, strand, feature, taxon
    genes: list[tuple[str, int, int, str, str, str]] = field(default_factory=list)


def make_genome(
    rng: np.random.Generator,
    chain: Chain,
    contigs_per_group: int,
    genes_per_contig: int,
    gene_len: tuple[int, int],
    gap_len: tuple[int, int],
    lead: int,
    n_every: int,
    short_contig: int = 0,
) -> Genome:
    """Annotated contigs for two taxon groups.

    Genes sit `lead` nt or more into each contig with gaps drawn from
    `gap_len`. Every fourth gene is on the minus strand. With `n_every`,
    every n-th gene holds a 25-nt N run that ends 4 nt before the gene's
    end, so region extraction splits it and drops the 4-nt piece. Each
    contig has a 50-nt N run halfway into its lead, so recovery-dataset
    construction skips the genes whose prompt covers it. A short contig
    with no genes makes `build_gener_task_datasets` skip one contig.
    """
    g = Genome()
    index = 0
    for group in GROUPS:
        for c in range(contigs_per_group):
            name = f"{group[:3]}{c}"
            spans = []
            pos = lead
            for _ in range(genes_per_contig):
                length = int(rng.integers(gene_len[0], gene_len[1] + 1))
                spans.append((pos, pos + length))
                pos += length + int(rng.integers(gap_len[0], gap_len[1] + 1))
            seq = list(chain.sample(rng, pos))
            seq[lead // 2 : lead // 2 + 50] = "N" * 50
            for start, end in spans:
                strand = "-" if index % 4 == 3 else "+"
                if n_every and index % n_every == n_every - 1:
                    seq[end - 29 : end - 4] = "N" * 25
                g.genes.append((name, start, end, strand, FEATURES[index % 4], group))
                index += 1
            g.contigs[name] = "".join(seq)
            g.taxon[name] = group
    if short_contig:
        g.contigs["short0"] = chain.sample(rng, short_contig)
        g.taxon["short0"] = GROUPS[0]
    return g


def write_fasta(path, records: dict[str, str], taxon: dict[str, str] | None = None) -> None:
    with open(path, "w") as fh:
        for name, bases in records.items():
            header = f"{name}|{taxon[name]}|" if taxon and name in taxon else name
            fh.write(f">{header}\n")
            for i in range(0, len(bases), 80):
                fh.write(bases[i : i + 80] + "\n")


def write_bed(path, genes) -> None:
    with open(path, "w") as fh:
        fh.write("#seq_id\tstart\tend\tstrand\tfeature\ttaxon\n")
        for row in genes:
            fh.write("\t".join(map(str, row)) + "\n")


def make_variants(
    rng: np.random.Generator, chain: Chain, contig: str, n: int, min_pos: int
) -> list[tuple[int, str, str, str]]:
    """`n` SNVs at distinct positions >= `min_pos`, half benign.

    Labels follow the convention of `genomelm.vep.evaluate_vep`: pathogenic
    variants get lower reference-preference scores log p(ref)/p(alt). A
    pathogenic variant sits where the reference holds the base the chain
    makes least likely after its two preceding bases, and its alternate
    allele is the likeliest base. A benign variant sits where the reference
    holds the likeliest base, and its alternate allele is the second
    likeliest. Returns (1-based pos, ref, alt, label) sorted by position.
    """
    want = {"pathogenic": 3, "benign": 0}
    picked: dict[int, tuple[str, str, str]] = {}
    order = rng.permutation(np.arange(min_pos, len(contig) + 1))
    quota = {"pathogenic": n // 2, "benign": n - n // 2}
    for pos in order.tolist():
        if not any(quota.values()):
            break
        before = contig[pos - 3 : pos - 1]
        ref = contig[pos - 1]
        if "N" in before or ref == "N":
            continue
        rank = chain.rank[chain.context(before)][BASES.index(ref)]
        for label, r in want.items():
            if quota[label] and rank == r and all(abs(pos - p) > 12 for p in picked):
                alt = chain.by_rank(before, 0 if label == "pathogenic" else 1)
                picked[pos] = (ref, alt, label)
                quota[label] -= 1
    if any(quota.values()):
        raise ValueError("contig too short for the requested variants")
    return [(pos, *picked[pos]) for pos in sorted(picked)]


def make_activities(rng: np.random.Generator, n: int, length: int) -> list[tuple[str, float]]:
    """GC-bimodal sequences whose activity is 10 x their GC draw.

    Same model as `scripts/prefix_conditioning.py`: GC content drives
    activity, and a Beta(0.2, 0.2) GC draw makes GC-rich and GC-poor
    sequences come from different records, which a prefix-conditioned
    Markov model can learn.
    """
    out = []
    gc = rng.beta(0.2, 0.2, n)
    for p in gc.tolist():
        strong = rng.random(length) < p
        pick = rng.integers(0, 2, length)
        seq = np.where(strong, np.where(pick, ord("G"), ord("C")),
                       np.where(pick, ord("A"), ord("T")))
        out.append((seq.astype(np.uint8).tobytes().decode(), p * 10))
    return out
