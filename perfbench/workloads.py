"""The four benchmark workloads.

Each workload generates its inputs from the seed in `setup`, runs the timed
pipeline through `genomelm.cli.main(argv)` in `run`, and in `check` tests
the outputs of the last run against the benchmark's own reference
computations. `check` returns the workload's quality metric and a list of
gate failures; an empty list means the outputs are correct.

Module functions are looked up on their module at call time (`lm.load`,
`design.contribution_scores`), so the tracer's wrappers and a patched
function in the smoke test are the ones that run.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from perfbench import inputs

PEER = Path(__file__).resolve().parent / "peer.py"

# Sizes at which the benchmark runs; "tiny" is for the smoke test.
SIZES = {
    "full": {
        "corpus_contigs": 12, "corpus_genes": 8, "corpus_per_class": 10,
        "corpus_windows": 4, "heldout": 2,
        "recover_contigs": 2, "recover_genes": 45, "recover_per_group": 50,
        "vep_variants": 120,
        "design_records": 600, "design_n": 40,
    },
    "tiny": {
        "corpus_contigs": 2, "corpus_genes": 8, "corpus_per_class": 4,
        "corpus_windows": 2, "heldout": 1,
        "recover_contigs": 1, "recover_genes": 16, "recover_per_group": 4,
        "vep_variants": 6,
        "design_records": 60, "design_n": 4,
    },
}


class CommandFailed(Exception):
    pass


def cli(*argv: str) -> None:
    """Run one genomelm command in-process; raise if it exits non-zero."""
    from genomelm import cli as genomelm_cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = genomelm_cli.main(list(argv))
    if code != 0:
        raise CommandFailed(
            f"genomelm {' '.join(argv)} exited {code}: {err.getvalue().strip()[-500:]}"
        )


@contextlib.contextmanager
def on_one_cpu():
    """Run the calling thread, and the processes it starts, on one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def fasta_records(path) -> list[tuple[str, str]]:
    records = []
    for block in Path(path).read_text().split(">")[1:]:
        header, _, body = block.partition("\n")
        records.append((header, body.replace("\n", "")))
    return records


def kmer_rank(kmer: str) -> int:
    """Reference k-mer id: the lexicographic rank over ACGT."""
    v = 0
    for ch in kmer:
        v = v * 4 + inputs.BASES.index(ch)
    return v


def kmer_ids(bases: str, k: int) -> list[int]:
    """Reference k-mer encoding at offset 0, dropping the partial tail."""
    return [kmer_rank(bases[i : i + k]) for i in range(0, len(bases) - len(bases) % k, k)]


def kmer_string(token_id: int, k: int) -> str:
    chars = []
    for _ in range(k):
        chars.append(inputs.BASES[token_id % 4])
        token_id //= 4
    return "".join(reversed(chars))


class Workload:
    name = ""
    quality = ""

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = SIZES[size]
        self.dir = Path(".")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def setup(self, directory: Path) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def outputs(self) -> list[str]:
        """Files that must be byte-identical after every run."""
        raise NotImplementedError

    def items(self) -> int:
        raise NotImplementedError

    def finish(self) -> dict:
        """Untimed clean-up after a run; returns the bridge peer's report."""
        return {}

    def check(self) -> tuple[float, list[str]]:
        raise NotImplementedError


class CorpusTrain(Workload):
    """ingest extract -> gener-tasks -> bpe-train -> train-markov -> load ->
    held-out sequence_logprob."""

    name = "corpus-train"
    quality = "heldout_bits_per_nt"
    K = 6
    HELDOUT_NT = 1800  # 300 tokens at k=6
    WINDOW = 20_000
    BPE_VOCAB = 44  # 4 bases + 32 specials + 8 merges

    def setup(self, directory):
        self.dir = directory
        rng = self.rng()
        chain = inputs.Chain()
        s = self.size
        self.genome = inputs.make_genome(
            rng, chain, s["corpus_contigs"], s["corpus_genes"], (300, 1500),
            (2000, 6000), lead=3000, n_every=5, short_contig=8000,
        )
        inputs.write_fasta(self.path("genome.fa"), self.genome.contigs, self.genome.taxon)
        inputs.write_bed(self.path("genes.tsv"), self.genome.genes)
        self.heldout = [chain.sample(rng, self.HELDOUT_NT) for _ in range(s["heldout"])]

    def run(self):
        genome, genes = self.path("genome.fa"), self.path("genes.tsv")
        cli("ingest", "extract", "--genome", genome, "--annotations", genes,
            "--out", self.path("regions.fa"))
        cli("ingest", "gener-tasks", "--genome", genome, "--annotations", genes,
            "--per-class-n", str(self.size["corpus_per_class"]), "--window-len", str(self.WINDOW),
            "--per-group-windows", str(self.size["corpus_windows"]),
            "--gene-out", self.path("gene_task.tsv"), "--taxon-out", self.path("taxon_task.tsv"))
        cli("bpe-train", self.path("regions.fa"), "--target-vocab", str(self.BPE_VOCAB),
            "--out", self.path("bpe.json"))
        cli("train-markov", self.path("regions.fa"), "--k", str(self.K), "--order", "2",
            "--model-out", self.path("model.jsonl"))
        from genomelm import lm
        from genomelm.tokenizer import KmerTokenizer

        model = lm.MarkovLm.load(self.path("model.jsonl"))
        tokenizer = KmerTokenizer(self.K)
        self.logprobs = [lm.sequence_logprob(model, tokenizer.encode(s)) for s in self.heldout]

    def outputs(self):
        return [self.path(n) for n in
                ("regions.fa", "gene_task.tsv", "taxon_task.tsv", "bpe.json", "model.jsonl")]

    def items(self):
        return len(fasta_records(self.path("regions.fa")))

    def expected_regions(self) -> list[str]:
        """Reference extraction: slice, reverse-complement the minus strand,
        split on N and drop pieces under 8 nt (the CLI default)."""
        out = []
        comp = str.maketrans("ACGTN", "TGCAN")
        for seq_id, start0, end0, strand, _feature, _taxon in self.genome.genes:
            piece = self.genome.contigs[seq_id][start0:end0]
            if strand == "-":
                piece = piece.translate(comp)[::-1]
            out.extend(p for p in piece.split("N") if len(p) >= 8)
        return out

    def check(self):
        from genomelm import lm

        errors = []
        regions = [body for _, body in fasta_records(self.path("regions.fa"))]
        if regions != self.expected_regions():
            errors.append("extracted regions differ from the reference extraction")
        gene_rows = Path(self.path("gene_task.tsv")).read_text().splitlines()[1:]
        if len(gene_rows) != self.size["corpus_per_class"] * (len(inputs.FEATURES) + 1):
            errors.append(f"gene task has {len(gene_rows)} rows")
        taxon_rows = Path(self.path("taxon_task.tsv")).read_text().splitlines()[1:]
        if len(taxon_rows) != self.size["corpus_windows"] * len(inputs.GROUPS) or any(
            len(r.split("\t")[0]) != self.WINDOW for r in taxon_rows
        ):
            errors.append("taxon task windows have the wrong number or length")
        bpe = json.loads(Path(self.path("bpe.json")).read_text())
        if len(bpe["tokens"]) != self.BPE_VOCAB:
            errors.append(f"BPE vocabulary has {len(bpe['tokens'])} tokens")

        model = lm.MarkovLm.load(self.path("model.jsonl"))
        if model.order != 2 or len(model.vocabulary()) != 4**self.K + 32:
            errors.append("trained model has the wrong order or vocabulary")
        # the stepwise reference: one sampled held-out sequence
        pick = int(self.rng().integers(len(self.heldout)))
        ids = kmer_ids(self.heldout[pick], self.K)
        stepwise = sum(
            math.log(model.next_distribution(ids[:pos]).probs[tok])
            for pos, tok in enumerate(ids)
        )
        if not abs(self.logprobs[pick] - stepwise) <= 1e-9 * abs(stepwise):
            errors.append(
                f"sequence_logprob {self.logprobs[pick]!r} != stepwise sum {stepwise!r}"
            )
        nt = sum(len(s) - len(s) % self.K for s in self.heldout)
        bits = -sum(self.logprobs) / math.log(2) / nt
        if not bits < 2.0:
            errors.append(f"held-out bits per nt {bits:.4f} is not below 2")
        return bits, errors


class Recover(Workload):
    """recover run --model markov:... --predict-len 30,120 --json."""

    name = "recover"
    quality = "recover_acc"
    K = 6
    PREDICT = (30, 120)

    def setup(self, directory):
        self.dir = directory
        rng = self.rng()
        chain = inputs.Chain()
        s = self.size
        genome = inputs.make_genome(
            rng, chain, s["recover_contigs"], s["recover_genes"], (200, 600), (300, 1000),
            lead=3000, n_every=0,
        )
        inputs.write_fasta(self.path("genome.fa"), genome.contigs, genome.taxon)
        inputs.write_bed(self.path("genes.tsv"), genome.genes)
        train = {f"train{i}": chain.sample(rng, 40_000) for i in range(4)}
        inputs.write_fasta(self.path("train.fa"), train)
        cli("recover", "build", "--genome", self.path("genome.fa"),
            "--annotations", self.path("genes.tsv"),
            "--predict-len", str(max(self.PREDICT)),
            "--per-group-n", str(s["recover_per_group"]),
            "--seed", str(self.seed), "--out", self.path("items.tsv"))
        cli("train-markov", self.path("train.fa"), "--k", str(self.K), "--order", "2",
            "--model-out", self.path("model.jsonl"))

    def run(self):
        cli("recover", "run", "--model", "markov:" + self.path("model.jsonl"),
            "--dataset", self.path("items.tsv"),
            "--predict-len", ",".join(map(str, self.PREDICT)), "--json",
            "--out", self.path("report.json"))

    def outputs(self):
        return [self.path("report.json")]

    def dataset(self) -> list[tuple[str, str, str]]:
        rows = Path(self.path("items.tsv")).read_text().splitlines()[1:]
        return [tuple(r.split("\t")) for r in rows]

    def items(self):
        return len(self.dataset())

    def greedy(self, model, prompt: str, n_tokens: int) -> str:
        """Reference decoder: argmax over non-special tokens and EOS, lowest
        id on ties, stop at EOS."""
        vocab = model.vocabulary()
        allowed = np.zeros(len(vocab), dtype=bool)
        allowed[: vocab.n_base] = True
        allowed[vocab.eos] = True
        context = kmer_ids(prompt[len(prompt) % self.K :], self.K)
        out = []
        for _ in range(n_tokens):
            probs = np.where(allowed, model.next_distribution(context).probs, -1.0)
            token = int(np.argmax(probs))
            if token == vocab.eos:
                break
            out.append(kmer_string(token, self.K))
            context.append(token)
        return "".join(out)

    def check(self):
        from genomelm import lm

        errors = []
        report = json.loads(Path(self.path("report.json")).read_text())
        model = lm.MarkovLm.load(self.path("model.jsonl"))
        n_tokens = math.ceil(max(self.PREDICT) / self.K)
        accs: dict[tuple[str, int, int], list[float]] = {}
        for prompt, reference, group in self.dataset():
            if len(prompt) != 6144:
                errors.append(f"prompt of {len(prompt)} nt, not the full 6144")
            generated = self.greedy(model, prompt, n_tokens)
            for length in self.PREDICT:
                hits = sum(1 for p in range(min(length, len(generated)))
                           if generated[p] == reference[p])
                accs.setdefault((group, len(prompt), length), []).append(hits / length)
        cells = {(c["taxon_group"], c["prompt_len"], c["predict_len"]): c for c in report["cells"]}
        if set(cells) != set(accs):
            errors.append(f"report cells {sorted(cells)} != expected {sorted(accs)}")
        for key, values in accs.items():
            cell = cells.get(key)
            if cell and (cell["n"] != len(values) or cell["mean_accuracy"] != sum(values) / len(values)):
                errors.append(f"cell {key}: reported {cell['mean_accuracy']!r} over {cell['n']}, "
                              f"reference {sum(values) / len(values)!r} over {len(values)}")
        return float(report["overall"][str(max(self.PREDICT))]), errors


class VepBridge(Workload):
    """vep score over the bridge with --average-phases, then vep eval."""

    name = "vep-bridge"
    quality = "vep_auroc"
    K = 6
    CONTEXT = 6144
    CHECKED = 8  # variants re-scored in-process by the gate

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        self.peers = []  # bridge peers started by `vep score`
        self.stats_file = None

    def setup(self, directory):
        self.dir = directory
        rng = self.rng()
        chain = inputs.Chain()
        n = self.size["vep_variants"]
        contig = chain.sample(rng, self.CONTEXT + 400 + 200 * n)
        inputs.write_fasta(self.path("genome.fa"), {"chr1": contig})
        self.variants = inputs.make_variants(rng, chain, contig, n, self.CONTEXT + 256)
        with open(self.path("variants.tsv"), "w") as fh:
            fh.write("#seq_id\tpos\tref\talt\tlabel\n")
            for pos, ref, alt, label in self.variants:
                fh.write(f"chr1\t{pos}\t{ref}\t{alt}\t{label}\n")
        train = {f"train{i}": chain.sample(rng, 40_000) for i in range(4)}
        inputs.write_fasta(self.path("train.fa"), train)
        cli("train-markov", self.path("train.fa"), "--k", str(self.K), "--order", "2",
            "--model-out", self.path("model.jsonl"))

    def bridge_target(self) -> str:
        parts = [sys.executable, os.path.relpath(PEER), os.path.relpath(self.path("model.jsonl"))]
        if self.stats_file:
            parts.append(os.path.relpath(self.stats_file))
        if any(" " in p or ":" in p for p in parts):
            raise CommandFailed(f"bridge command parts may hold no spaces or colons: {parts}")
        return " ".join(parts)

    def run(self):
        from genomelm import lm

        # `vep score` never closes its bridge model, so its peer would wait
        # on stdin until this process exits. Keep each peer; finish() ends it.
        peer_init = lm._SubprocessPeer.__init__

        def recording_init(peer, *args, **kwargs):
            peer_init(peer, *args, **kwargs)
            self.peers.append(peer)

        lm._SubprocessPeer.__init__ = recording_init
        # Client and peer take turns: each waits while the other works. On
        # one CPU a turn is a context switch. Across two vCPUs of a shared
        # host it waits for the host to run the idle vCPU, which made the
        # round trips up to four times slower under host load. The peer
        # inherits the affinity.
        try:
            with on_one_cpu():
                cli("vep", "score", "--genome", self.path("genome.fa"),
                    "--variants", self.path("variants.tsv"),
                    "--model", "bridge:" + self.bridge_target(),
                    "--average-phases", "--context-len", str(self.CONTEXT),
                    "--out", self.path("scores.tsv"))
        finally:
            lm._SubprocessPeer.__init__ = peer_init
        cli("vep", "eval", "--scores", self.path("scores.tsv"), "--out", self.path("eval.json"))

    def finish(self):
        for peer in self.peers:
            peer.proc.stdin.close()
            try:
                peer.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                peer.proc.kill()
                peer.proc.wait()
            peer.proc.stdout.close()
        self.peers.clear()
        if self.stats_file and os.path.exists(self.stats_file):
            with open(self.stats_file) as fh:
                report = json.load(fh)
            os.remove(self.stats_file)
            return report
        return {}

    def outputs(self):
        return [self.path("scores.tsv"), self.path("eval.json")]

    def items(self):
        return len(self.variants)

    def reference_score(self, model, contig: str, pos: int, ref: str, alt: str) -> float:
        """Phase-averaged log p(ref)/p(alt) from the model's next-token
        distributions, marginalized to the variant's offset by the
        benchmark's own arithmetic; floors and caps as in genomelm.vep."""
        from genomelm.vep import PROB_FLOOR, SCORE_CAP

        n_base = 4**self.K
        scores = []
        for j in range(self.K):
            end = pos - 1 - j
            context = contig[max(0, end - self.CONTEXT) : end]
            probs = model.next_distribution(kmer_ids(context[len(context) % self.K :], self.K)).probs
            digit = (np.arange(n_base) // 4 ** (self.K - 1 - j)) % 4
            marginal = np.bincount(digit, weights=probs[:n_base], minlength=4) / probs[:n_base].sum()
            p_ref, p_alt = (max(marginal[inputs.BASES.index(b)], PROB_FLOOR) for b in (ref, alt))
            scores.append(max(-SCORE_CAP, min(SCORE_CAP, math.log(p_ref) - math.log(p_alt))))
        return sum(scores) / len(scores)

    def check(self):
        from genomelm import lm, vep
        from genomelm.seqcore import NucleotideSequence
        from genomelm.tokenizer import KmerTokenizer

        errors = []
        rows = [r.split("\t") for r in Path(self.path("scores.tsv")).read_text().splitlines()[1:]]
        if len(rows) != len(self.variants):
            return 0.5, [f"{len(rows)} scores for {len(self.variants)} variants"]
        scores = [float(r[5]) for r in rows]
        if not all(math.isfinite(s) for s in scores):
            errors.append("non-finite VEP score")
        model = lm.MarkovLm.load(self.path("model.jsonl"))
        contig = fasta_records(self.path("genome.fa"))[0][1]
        genome = {"chr1": NucleotideSequence(contig, id="chr1")}
        tokenizer = KmerTokenizer(self.K)
        picks = self.rng().choice(len(rows), min(self.CHECKED, len(rows)), replace=False)
        for i in sorted(picks.tolist()):
            pos, ref, alt, label = self.variants[i]
            expected = vep.vep_score(model, tokenizer, genome, vep.Variant("chr1", pos, ref, alt, label),
                                     context_len=self.CONTEXT, average_phases=True)
            if not abs(scores[i] - expected) <= 1e-6:
                errors.append(f"variant at {pos}: bridge score {scores[i]!r}, in-process {expected!r}")
            reference = self.reference_score(model, contig, pos, ref, alt)
            if not abs(expected - reference) <= 1e-9:
                errors.append(f"variant at {pos}: vep_score {expected!r}, reference {reference!r}")
        # reference AUROC: pathogenic positive, statistic = -score, ties half
        pos_s = [-s for s, v in zip(scores, self.variants) if v[3] == "pathogenic"]
        neg_s = [-s for s, v in zip(scores, self.variants) if v[3] == "benign"]
        wins = sum((p > q) + 0.5 * (p == q) for p in pos_s for q in neg_s)
        reference = wins / (len(pos_s) * len(neg_s))
        auroc = json.loads(Path(self.path("eval.json")).read_text())["auroc"]
        if not abs(auroc - reference) <= 1e-12:
            errors.append(f"vep eval AUROC {auroc!r} != reference {reference!r}")
        return auroc, errors


class Design(Workload):
    """design label -> fit --k 5 -> generate <high>/<low> -> rank -> contrib."""

    name = "design"
    quality = "design_gap"
    LENGTH = 150
    ORDER = 4
    CHECKED_SEQS = 5
    CHECKED_POSITIONS = 10

    def setup(self, directory):
        self.dir = directory
        from genomelm import design, lm
        from genomelm.seqcore import NucleotideSequence
        from genomelm.tokenizer import KmerTokenizer

        rng = self.rng()
        activities = inputs.make_activities(rng, self.size["design_records"], self.LENGTH)
        with open(self.path("activities.tsv"), "w") as fh:
            fh.write("#sequence\tdev\thk\n")
            for seq, act in activities:
                fh.write(f"{seq}\t{act!r}\t{10 - act!r}\n")
        records = [design.ActivityRecord(NucleotideSequence(s), a) for s, a in activities]
        tokenizer = KmerTokenizer(1)
        streams = design.build_prefix_dataset(
            records, design.quantile_labels([a for _, a in activities]), tokenizer
        )
        # Without the trailing EOS the candidates run to the full length.
        # With it their lengths are geometric, and both the cost per
        # candidate and the predicted-activity gap would change with the seed.
        lm.train_markov([s[:-1] for s in streams], tokenizer.vocab, order=self.ORDER,
                        alpha=0.05).save(self.path("prefix_model.jsonl"))

    def generate(self, prefix: str, out: str) -> None:
        cli("generate", "--model", "markov:" + self.path("prefix_model.jsonl"),
            "--prefix", prefix, "--temperature", "0.8", "--top-p", "0.95",
            "--max-new", str(self.LENGTH), "-n", str(self.size["design_n"]),
            "--seed", str(self.seed), "--out", out)

    def run(self):
        activities = self.path("activities.tsv")
        cli("design", "label", "--activities", activities, "--out", self.path("labels.tsv"))
        cli("design", "fit", "--activities", activities, "--k", "5",
            "--model-out", self.path("ridge.json"))
        self.generate("<high>", self.path("high.txt"))
        self.generate("<low>", self.path("low.txt"))
        # an empty generation (EOS first) is not a candidate
        self.candidates = {
            group: [s for s in Path(self.path(f"{group}.txt")).read_text().splitlines() if s]
            for group in ("high", "low")
        }
        with open(self.path("candidates.fa"), "w") as fh:
            for group, seqs in self.candidates.items():
                for i, seq in enumerate(seqs):
                    fh.write(f">{group}{i}\n{seq}\n")
        pool = len(set(self.candidates["high"] + self.candidates["low"]))
        edge = min(10, pool // 4)
        cli("design", "rank", "--predictor", self.path("ridge.json"),
            "--candidates", self.path("candidates.fa"), "--top", str(edge),
            "--bottom", str(edge), "--random", str(pool - 2 * edge),
            "--seed", str(self.seed), "--out", self.path("rank.tsv"))
        cli("design", "contrib", "--in", self.path("candidates.fa"),
            "--predictor", self.path("ridge.json"), "--out", self.path("contrib.tsv"))

    def outputs(self):
        return [self.path(n) for n in ("labels.tsv", "ridge.json", "high.txt", "low.txt",
                                       "rank.tsv", "contrib.tsv")]

    def items(self):
        return len(self.candidates["high"]) + len(self.candidates["low"])

    def check(self):
        from genomelm import design

        errors = []
        every = self.candidates["high"] + self.candidates["low"]
        if any(set(s) - set(inputs.BASES) for s in every):
            errors.append("a candidate holds a symbol outside ACGT")
        if not self.candidates["high"] or not self.candidates["low"]:
            return 0.0, errors + ["a prefix produced no candidates"]
        ridge = json.loads(Path(self.path("ridge.json")).read_text())
        k, weights, intercept = ridge["k"], ridge["weights"], ridge["intercept"]

        def predict(seq: str) -> float:
            return intercept + sum(weights[kmer_rank(seq[i : i + k])]
                                   for i in range(len(seq) - k + 1))

        scores = {}
        for line in Path(self.path("rank.tsv")).read_text().splitlines()[1:]:
            _group, seq, value = line.split("\t")
            scores[seq] = float(value)
        if set(scores) != set(every):
            errors.append("rank output does not score every candidate")
            return 0.0, errors
        gap = (np.mean([scores[s] for s in self.candidates["high"]])
               - np.mean([scores[s] for s in self.candidates["low"]]))

        printed = []
        for block in Path(self.path("contrib.tsv")).read_text().split("#pos\tbase\tcontribution\n")[1:]:
            printed.append([float(r.split("\t")[2]) for r in block.splitlines()])
        if [len(p) for p in printed] != [len(s) for s in every]:
            return gap, errors + ["contrib output does not cover every candidate base"]
        predictor = design.load_predictor(self.path("ridge.json"))
        rng = self.rng()
        for c in sorted(rng.choice(len(every), min(self.CHECKED_SEQS, len(every)), replace=False).tolist()):
            seq = every[c]
            computed = design.contribution_scores(predictor, seq)
            base = predict(seq)
            for i in sorted(rng.choice(len(seq), min(self.CHECKED_POSITIONS, len(seq)), replace=False).tolist()):
                subs = [predict(seq[:i] + b + seq[i + 1 :]) for b in inputs.BASES if b != seq[i]]
                direct = base - sum(subs) / 3
                if not abs(computed[i] - direct) <= 1e-9:
                    errors.append(f"contribution_scores at {i}: {computed[i]!r} != direct {direct!r}")
                if not abs(printed[c][i] - direct) <= 1e-5 * abs(direct) + 1e-9:
                    errors.append(f"design contrib printed {printed[c][i]!r} at {i}, direct {direct!r}")
        return float(gap), errors


WORKLOADS = {w.name: w for w in (CorpusTrain, Recover, VepBridge, Design)}
