"""Output bytes of every leaf subcommand, pinned in one manifest.

`CALLS` runs each leaf of `genomelm` in-process through `cli.main`, in
order, on seeded synthetic inputs, and records the exit code, the SHA-256
of stdout and the SHA-256 of every file the call wrote. The digests live in
`cli_manifest.json` next to this file. A change that alters output on
purpose rewrites the manifest with

    PYTHONPATH=src python tests/test_cli_manifest.py

and names every changed entry, with its reason, in CHANGES.md.

Entries marked "(LAPACK)" go through a LAPACK solve or SVD, so a change of
BLAS/LAPACK build alone may move their last printed digit.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from genomelm.cli import main

MANIFEST = Path(__file__).with_name("cli_manifest.json")
LAPACK_LEAVES = ("design fit", "embed project")

# every leaf, run in this order: later calls read what earlier ones wrote
CALLS = [
    "ingest extract --genome genome.fa --annotations genes.tsv --out regions.fa",
    "ingest extract --genome genome.fa --annotations genes.tsv --min-subregion 40",
    "ingest extract --genome genome.fa --genbank extra.gb",
    "ingest stats --genome genome.fa --annotations genes.tsv",
    "ingest gener-tasks --genome genome.fa --annotations genes.tsv --per-class-n 2"
    " --window-len 400 --per-group-windows 2 --seed 1 --gene-out gene.tsv --taxon-out taxon.tsv",
    "tokenize --in regions.fa --k 6",
    "tokenize ACGTACGTTGCAGACGT --k 3 --offset 1",
    "tokenize --in regions.fa --k 4 --random-offset --seed 7",
    "tokenize --in cds.fa --config tokenize.cfg",
    "bpe-train regions.fa --target-vocab 48 --out bpe.json",
    "tokenize --in cds.fa --bpe-model bpe.json",
    "train-markov regions.fa --k 2 --order 2 --model-out m2.npz",
    "train-markov regions.fa --k 6 --order 1 --alpha 0.5 --model-out m6.npz",
    "train-markov regions.fa --k 1 --order 3 --lambdas 0.1,0.2,0.3,0.4 --random-offset"
    " --seed 2 --model-out m1.npz",
    "generate --model markov:m2.npz --temperature 0.7 --top-p 0.9 --seed 5 -n 3 --max-new 40",
    "generate --model markov:m2.npz --prefix <high> --temperature 1.3 --top-p 0.5 --seed 3"
    " -n 2 --max-new 30",
    "generate --model markov:m2.npz --prompt acgtac --greedy --max-new 20",
    "generate --model markov:m1.npz --prefix <low> --prompt ACGT --seed 4 -n 2 --max-new 24"
    " --out gen.txt",
    "generate --model markov:m6.npz --prompt ACGTACGGTTCAGGCATTAC --seed 1 --max-new 8",
    "generate --model uniform:1 --max-new 1 -n 6 --seed 3 --dedup-against dedup.fa",
    "recover build --genome genome.fa --annotations genes.tsv --prompt-len 60 --predict-len 24"
    " --per-group-n 3 --seed 1 --out rec.tsv",
    "recover build --genome genome.fa --annotations genes.tsv --prompt-len 30 --predict-len 12"
    " --per-group-n 2",
    "recover run --model markov:m2.npz --dataset rec.tsv --predict-len 12,24",
    "recover run --model markov:m2.npz --dataset rec.tsv --predict-len 12,24 --sample"
    " --temperature 0.8 --top-p 0.9 --seed 2 --json",
    "recover run --model markov:m6.npz --dataset rec.tsv --predict-len 24 --json",
    "recover run --model uniform:1 --dataset rec.tsv --predict-len 6 --sample --seed 9",
    "vep score --genome genome.fa --variants variants.tsv --model markov:m2.npz"
    " --context-len 60 --out vep2.tsv",
    "vep score --genome genome.fa --variants variants.tsv --model markov:m2.npz"
    " --context-len 60 --average-phases",
    "vep score --genome genome.fa --variants variants.tsv --model markov:m6.npz"
    " --context-len 90 --average-phases --out vep6.tsv",
    "vep score --genome genome.fa --variants variants.tsv --model markov:m1.npz",
    "vep score --genome genome.fa --variants near_start.tsv --model markov:m6.npz"
    " --context-len 20 --average-phases",
    "vep eval --scores vep2.tsv",
    "vep eval --scores vep6.tsv --out eval6.json",
    "design label --activities activities.tsv",
    "design label --activities activities.tsv --head hk --out labels.tsv",
    "design fit --activities activities.tsv --k 3 --l2 0.5 --model-out ridge3.json",
    "design fit --activities activities.tsv --head hk --k 1 --model-out ridge1.json",
    "design rank --predictor ridge3.json --candidates candidates.fa --top 2 --bottom 2"
    " --random 2 --seed 1",
    "design rank --predictor ridge1.json --candidates candidates.fa --top 3",
    "design contrib --predictor ridge3.json --in candidates.fa",
    "design contrib ACGTNACGTACGGTCA --predictor ridge1.json",
    "embed project --in regions.fa --k 2",
    "embed silhouette --in regions.fa --k 2",
    "embed silhouette --in regions.fa --k 3 --metric cosine",
    "translate ATGGCCAAATGATTTGCC",
    "translate --in cds.fa --frame 1",
]

_BASES = "ACGT"
_ROW_WEIGHTS = np.array([200, 40, 12, 4]) / 256


def _chain_sample(rows: np.ndarray, rng: np.random.Generator, n: int) -> str:
    """n bases of the order-2 chain whose next-base probabilities after
    context c are rows[c]."""
    draws = rng.random(n)
    cum = np.cumsum(rows, axis=1)
    ctx, out = int(rng.integers(16)), []
    for u in draws.tolist():
        b = min(int(np.searchsorted(cum[ctx], u, side="right")), 3)
        out.append(_BASES[b])
        ctx = (ctx * 4 + b) % 16
    return "".join(out)


def write_inputs(d: Path) -> None:
    """The seeded input files every call in CALLS reads."""
    rng = np.random.default_rng(20250211)
    rows = np.stack([_ROW_WEIGHTS[rng.permutation(4)] for _ in range(16)])
    contigs, genes, index = {}, [], 0
    for group in ("fungi", "plant"):
        for c in range(2):
            name = f"{group[:3]}{c}"
            seq = list(_chain_sample(rows, rng, 1400))
            seq[30:45] = "N" * 15
            for start in range(100, 1300, 200):
                end = start + int(rng.integers(110, 180))
                if index % 5 == 4:
                    seq[end - 30 : end - 10] = "N" * 20
                strand = "-" if index % 4 == 3 else "+"
                feature = ("gene", "CDS", "tRNA", "ncRNA")[index % 4]
                genes.append((name, start, end, strand, feature, group))
                index += 1
            contigs[name] = ("".join(seq), group)
    contigs["free0"] = (_chain_sample(rows, rng, 1500), "fungi")  # intergenic controls
    with open(d / "genome.fa", "w") as fh:
        for name, (bases, group) in contigs.items():
            fh.write(f">{name}|{group}|\n")
            fh.writelines(bases[i : i + 70] + "\n" for i in range(0, len(bases), 70))
    with open(d / "genes.tsv", "w") as fh:
        fh.write("#seq_id\tstart\tend\tstrand\tfeature\ttaxon\n")
        fh.writelines("\t".join(map(str, g)) + "\n" for g in genes)

    gb = _chain_sample(rows, rng, 240).lower()
    (d / "extra.gb").write_text(
        "LOCUS       GB1            240 bp    DNA\n"
        "FEATURES             Location/Qualifiers\n"
        "     gene            12..90\n"
        "     gene            complement(join(100..140,\n"
        "          150..200))\n"
        "ORIGIN\n"
        + "".join(f"{i + 1:>9} {gb[i : i + 60]}\n" for i in range(0, 240, 60))
        + "//\n"
    )

    fun0 = contigs["fun0"][0]
    variants = []
    for pos in range(100, 1390, 37):
        ref = fun0[pos - 1]
        if "N" in fun0[pos - 100 : pos + 10]:
            continue
        alt = _BASES[(_BASES.index(ref) + 1 + pos % 3) % 4]
        variants.append(f"fun0\t{pos}\t{ref}\t{alt}\t{('benign', 'pathogenic')[pos % 2]}\n")
    (d / "variants.tsv").write_text("#seq_id\tpos\tref\talt\tlabel\n" + "".join(variants))
    # within k of fun0's start and before its N run at 31..45: phases are
    # skipped and contexts are shorter than --context-len
    near = [f"fun0\t{pos}\t{fun0[pos - 1]}\t{_BASES[(_BASES.index(fun0[pos - 1]) + 1) % 4]}\n"
            for pos in range(2, 30)]
    (d / "near_start.tsv").write_text("".join(near))

    activities, candidates = [], []
    for i in range(24):
        gc = float(rng.beta(0.5, 0.5))
        strong = rng.random(60) < gc
        pick = rng.integers(0, 2, 60)
        seq = "".join(np.where(strong, np.where(pick, "G", "C"), np.where(pick, "A", "T")))
        activities.append(f"{seq}\t{10 * gc:.4f}\t{float(rng.normal()):.4f}\n")
        if i % 3 == 0:
            candidates.append(f">c{i}\n{seq}\n")
    (d / "activities.tsv").write_text("".join(activities))
    (d / "candidates.fa").write_text("".join(candidates))

    (d / "cds.fa").write_text(">cds1\nATGAAACCCGGGTTTTAA\n>cds2\nATGCGTTTAAAATGA\n")
    (d / "dedup.fa").write_text(">a\nA\n>c\nC\n")
    (d / "tokenize.cfg").write_text("k = 2\noffset = 1\n")


def _digests(d: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.iterdir()) if p.is_file()}


def run_calls(d: Path) -> dict[str, dict]:
    """Write the inputs into directory `d`, run CALLS there, and return
    each call's exit code and output digests, keyed by its argv."""
    write_inputs(d)
    entries = {}
    cwd = os.getcwd()
    os.chdir(d)
    try:
        for call in CALLS:
            before = _digests(d)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(call.split())
            after = _digests(d)
            key = f"(LAPACK) {call}" if call.startswith(LAPACK_LEAVES) else call
            entries[key] = {
                "exit": code,
                "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                "files": {name: h for name, h in after.items() if before.get(name) != h},
            }
    finally:
        os.chdir(cwd)
    return entries


def test_every_leaf_writes_the_pinned_bytes(tmp_path):
    got = run_calls(tmp_path)
    want = json.loads(MANIFEST.read_text())
    changed = [key for key in want.keys() | got.keys() if want.get(key) != got.get(key)]
    assert not changed, f"output changed for: {sorted(changed)}"
    assert all(entry["exit"] == 0 for entry in got.values())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        MANIFEST.write_text(json.dumps(run_calls(Path(d)), indent=1) + "\n")
    print(f"wrote {len(CALLS)} entries to {MANIFEST}", file=sys.stderr)
