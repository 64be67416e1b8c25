"""Single entry point exposing every workflow as a subcommand.

Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to
stderr; results go to stdout or --out. A --config file holds flat
key=value lines; command-line flags override it.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import itertools
import json
import random
import sys
from typing import Iterator

from . import analytics, design, ingest, recover, vep
from .errors import (AmbiguousBase, BadFastaRecord, BadValue, DegenerateLabels, EmptyCorpus,
                     GenomeLmError, InsufficientData, InvalidSymbol, PoolTooSmall,
                     SequenceTooShort, TooFewSamples)
from .lm import MarkovLm, bridge_model, train_markov
from .sampling import SamplerConfig, conditioned_generate
from .seqcore import (ASCII_WS, fasta_text, line_of_position, read_fasta, read_genome,
                      reading_model, text_lines, translate, tsv_text, validate, write_tsv)
from .tokenizer import BpeModel, KmerTokenizer, bpe_encode, bpe_train, kmer_encode

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    one_of = ()  # dests of which a call sets exactly one, by flag or by --config

    def __init__(self, **kwargs):
        # no abbreviations, so a removed flag (`--mode`) cannot read as another (`--model`)
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message, swapped=None):
        # the usage line shows the actions of `swapped`, by dest, in place of the parser's own
        formatter = self._get_formatter()
        formatter.add_usage(self.usage, [(swapped or {}).get(a.dest, a) for a in self._actions],
                            self._mutually_exclusive_groups)
        sys.stderr.write(formatter.format_help())
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _default_threads() -> int:
    # Only perfbench/run.py still calls this, for its "# meta" line, outside
    # any try; it goes when the benchmark stops reading it.
    return 1


def _load_config(path) -> dict[str, str]:
    values = {}
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            print(f"error: {path}: line {lineno}: {line!r} is not a key = value line",
                  file=sys.stderr)
            raise SystemExit(USAGE_ERROR)
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def length(text: str) -> int:
    # ValueError, not ArgumentTypeError, so a bad --config value is a usage error too
    if int(text) < 1:
        raise ValueError(f"length must be >= 1, got {text}")
    return int(text)


def lengths(text: str) -> list[int]:
    return [length(x) for x in text.split(",")]


def weights(text: str) -> list[float] | None:
    return [float(x) for x in text.split(",")] if text else None  # "": the default weights


def count(text: str) -> int:
    if int(text) < 0:
        raise ValueError(f"count must be >= 0, got {text}")
    return int(text)


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _config_value(action, default, text: str):
    """One --config value cast by the rules of its flag, whose default is
    `default`; ValueError naming the problem if it breaks them."""
    if isinstance(default, bool):
        if text.lower() not in _BOOLEANS:
            raise ValueError("is not a boolean (" + "/".join(_BOOLEANS) + ")")
        return _BOOLEANS[text.lower()]
    caster = action.type or str
    try:
        value = caster(text)
    except ValueError:
        raise ValueError(f"is not a valid {caster.__name__}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError("is not one of " + ", ".join(map(str, action.choices)))
    return value


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@contextlib.contextmanager
def _naming(where: str, *kinds):
    """Prefix `where`, the file (and record) at fault, to a fault of `kinds`."""
    try:
        yield
    except kinds as exc:
        exc.args = (f"{where}: {exc}",)
        raise


@contextlib.contextmanager
def _opened_model(spec_text: str):
    """Model spec: 'markov:<path>', 'uniform:<k>' (the untrained order-0
    Markov model over k-mers), or a bridge target. A bridge model is
    closed, and its peer shut down, on exit."""
    kind, _, rest = spec_text.partition(":")
    if kind == "markov":
        model = MarkovLm.load(rest)
    elif kind == "uniform":
        try:
            model = MarkovLm.uniform(KmerTokenizer(int(rest)).vocab)
        except ValueError:
            raise BadValue(f"--model {spec_text}: expected uniform:<k> with k in [1,8]") from None
    else:
        model = bridge_model(rest if kind == "bridge" else spec_text)
    try:
        yield model
    finally:
        if hasattr(model, "close"):
            model.close()


def _read_sequences(args, **checks):
    """The positional sequence, the FASTA records of --in or of stdin, or
    stdin as one sequence; `checks` are read_fasta's for the records."""
    if getattr(args, "seq", None):
        return [validate(args.seq)]
    if getattr(args, "infile", None):
        return read_fasta(args.infile, **checks)
    stdin = iter(lambda: sys.stdin.buffer.read(1 << 20), b"")
    # what stdin holds up to its first byte that is not blank
    lead = next((lead for lead in itertools.accumulate(stdin) if lead.lstrip(ASCII_WS)), b"")
    if lead.lstrip(ASCII_WS).startswith(b">"):
        return read_fasta("<stdin>", blocks=itertools.chain([lead], stdin), **checks)
    text = (lead + b"".join(stdin)).decode(errors="surrogateescape")  # bad bytes read as U+DCxx
    try:
        return [validate(text)]
    except InvalidSymbol as exc:  # the first fault: a byte that is not UTF-8, or a symbol
        byte = ord(exc.symbol) - 0xDC00
        reason = f"byte 0x{byte:02x} is not UTF-8" if 0x80 <= byte <= 0xFF else exc
        line = line_of_position(exc.position, enumerate(text.split("\n"), start=1))
        raise BadFastaRecord("<stdin>", line, None, reason) from exc


def _kmer_offsets(args, fixed: int) -> Iterator[int]:
    """Each sequence's k-mer offset in turn: `fixed`, or with --random-offset
    a draw from one generator seeded by --seed."""
    rng = random.Random(args.seed)
    while True:
        # a k below 1 gets no draw, so kmer_encode can name it
        yield rng.randrange(args.k) if args.random_offset and args.k > 0 else fixed


# --- subcommand implementations ----------------------------------------------

def cmd_tokenize(args):
    seqs = _read_sequences(args, acgt=True)
    lines = []
    if args.bpe_model:
        with open(args.bpe_model) as fh, reading_model(args.bpe_model):
            model = BpeModel.from_json(fh.read())
        for seq in seqs:
            lines.append(" ".join(map(str, bpe_encode(seq, model))))
    else:
        for seq, offset in zip(seqs, _kmer_offsets(args, args.offset)):
            ids, tail = kmer_encode(seq, args.k, offset)
            lines.append(f"{offset}\t{' '.join(map(str, ids))}\t{tail}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_bpe_train(args):
    corpus = read_fasta(args.corpus, acgt=True)
    model = bpe_train(corpus, args.target_vocab)
    _emit(args, model.to_json() + "\n")
    return 0


def cmd_ingest_extract(args):
    genome = read_genome(args.genome)
    annotations = (ingest.add_genbank(genome, args.genbank) if args.genbank is not None
                   else ingest.parse_bed_like(args.annotations, genome))
    regions = ingest.extract_functional_regions(genome, annotations, args.min_subregion)
    _emit(args, fasta_text(r.sequence for r in regions))
    if args.out:
        print(f"wrote {len(regions)} regions to {args.out}", file=sys.stderr)
    return 0


def cmd_ingest_stats(args):
    genome = read_genome(args.genome)
    annotations = ingest.parse_bed_like(args.annotations, genome)
    regions = ingest.extract_functional_regions(genome, annotations, args.min_subregion)
    _emit(args, ingest.corpus_stats(regions).to_tsv())
    return 0


def cmd_ingest_gener_tasks(args):
    genome = read_genome(args.genome)
    annotations = ingest.parse_bed_like(args.annotations, genome)
    regions = ingest.extract_functional_regions(genome, annotations)
    config = ingest.GenerTaskConfig(
        per_class_n=args.per_class_n,
        window_len=args.window_len,
        per_group_windows=args.per_group_windows,
        seed=args.seed,
    )
    datasets = ingest.build_gener_task_datasets(regions, genome, annotations, config)
    write_tsv(args.gene_out, ("sequence", "label"), datasets.gene_items)
    write_tsv(args.taxon_out, ("sequence", "label"), datasets.taxon_items)
    print(
        f"gene items: {len(datasets.gene_items)}, taxon items: "
        f"{len(datasets.taxon_items)}, skipped contigs: {datasets.skipped_contigs}",
        file=sys.stderr,
    )
    return 0


def cmd_train_markov(args):
    tokenizer = KmerTokenizer(args.k)
    corpus = []
    for seq, offset in zip(read_fasta(args.corpus, acgt=True), _kmer_offsets(args, 0)):
        ids = tokenizer.encode(seq.bases, offset)
        if ids:
            corpus.append(ids)
    if not corpus:
        raise EmptyCorpus(f"{args.corpus}: no record of at least {args.k} bases to train on")
    model = train_markov(corpus, tokenizer.vocab, args.order, args.alpha, args.lambdas)
    model.save(args.model_out)
    print(f"trained order-{args.order} model on {len(corpus)} sequences", file=sys.stderr)
    return 0


def cmd_generate(args):
    with _opened_model(args.model) as model:
        tokenizer = KmerTokenizer.for_vocabulary(model.vocabulary())
        cfg = SamplerConfig(
            temperature=args.temperature,
            nucleus_p=args.top_p,
            max_new_tokens=args.max_new,
            seed=args.seed,
            mode="greedy" if args.greedy else "sample",
        )
        dedup = None
        if args.dedup_against:
            dedup = {s.bases for s in read_fasta(args.dedup_against)}
        # a --prefix run starts from [BOS, prefix] and then the --prompt, whose whole tokens end
        # where it ends; its first len % k characters are checked and skipped
        text = (args.prompt or "").upper()
        prompt = tokenizer.encode(text, len(text) % tokenizer.k)
        batch = conditioned_generate(model, tokenizer, args.prefix, cfg, n_sequences=args.n,
                                     seed_context=prompt, dedup_against=dedup)
    if batch.exhausted:
        print("warning: candidate pool exhausted before n sequences", file=sys.stderr)
    _emit(args, "\n".join(batch.sequences) + "\n")
    return 0


def cmd_recover_build(args):
    genome = read_genome(args.genome)
    annotations = ingest.parse_bed_like(args.annotations, genome)
    regions = ingest.extract_functional_regions(genome, annotations)
    items = recover.build_recovery_dataset(
        regions, genome, args.prompt_len, args.predict_len, args.per_group_n, seed=args.seed
    )
    _emit(args, recover.dataset_to_tsv(items))
    return 0


def cmd_recover_run(args):
    with _opened_model(args.model) as model:
        tokenizer = KmerTokenizer.for_vocabulary(model.vocabulary())
        dataset = recover.read_dataset_tsv(args.dataset)
        cfg = SamplerConfig(
            mode="sample" if args.sample else "greedy",
            temperature=args.temperature,
            nucleus_p=args.top_p,
            seed=args.seed,
        )
        report = recover.run_recovery(model, tokenizer, dataset, args.predict_len, cfg)
    if args.json:
        _emit(args, report.to_json() + "\n")
    else:
        _emit(args, report.to_tsv())
    return 0


def cmd_vep_score(args):
    with _opened_model(args.model) as model:
        tokenizer = KmerTokenizer.for_vocabulary(model.vocabulary())
        genome = read_genome(args.genome)
        variants = vep.read_variants_tsv(args.variants)
        rows = []
        for v in variants:
            with _naming(args.variants, *vep.VARIANT_ERRORS):
                score = vep.vep_score(model, tokenizer, genome, v, context_len=args.context_len,
                                      average_phases=args.average_phases)
            rows.append((v.seq_id, v.pos, v.ref_allele, v.alt_allele, v.label or "",
                         f"{score:.6f}"))
    _emit(args, tsv_text(("seq_id", "pos", "ref", "alt", "label", "score"), rows))
    return 0


def cmd_vep_eval(args):
    labelled = [(v.label, score) for v, score in vep.read_scores_tsv(args.scores) if v.label]
    with _naming(args.scores, DegenerateLabels):
        metrics = vep.evaluate_vep([s for _, s in labelled], [label for label, _ in labelled])
    _emit(args, json.dumps(metrics, sort_keys=True) + "\n")
    return 0


def cmd_design_label(args):
    records = design.read_activity_tsv(args.activities, head=args.head)
    with _naming(args.activities, TooFewSamples):
        labels = design.quantile_labels([r.activity for r in records])
    _emit(args, tsv_text(("sequence", "activity", "label"),
                         ((r.sequence.bases, f"{r.activity:.6g}", label)
                          for r, label in zip(records, labels))))
    return 0


def cmd_design_fit(args):
    records = design.read_activity_tsv(args.activities, head=args.head)
    with _naming(args.activities, TooFewSamples):
        predictor = design.fit_kmer_ridge(records, k=args.k, l2=args.l2)
    design.save_predictor(predictor, args.model_out)
    print(f"fit k={args.k} ridge on {len(records)} records, train RMSE "
          f"{predictor.train_rmse:.4f}", file=sys.stderr)
    return 0


def cmd_design_rank(args):
    predictor = design.load_predictor(args.predictor)
    candidates = [s.bases for s in read_fasta(args.candidates)]
    plan = design.SelectionPlan(
        top=args.top, bottom=args.bottom, random=args.random, seed=args.seed
    )
    with _naming(args.candidates, PoolTooSmall):
        report = design.rank_and_select(predictor, candidates, plan)
    groups = (("top", report.top), ("bottom", report.bottom), ("random", report.random))
    _emit(args, tsv_text(("group", "sequence", "predicted_activity"),
                         ((group, seq, f"{report.scores[seq]:.6g}")
                          for group, seqs in groups for seq in seqs)))
    return 0


def cmd_design_contrib(args):
    predictor = design.load_predictor(args.predictor)
    seqs = [seq.bases for seq in _read_sequences(args, nonempty=True)]
    rows = design.contribution_rows(predictor, seqs)
    _emit(args, "".join(map(design.contributions_to_tsv, seqs, rows)))
    return 0


def _profile_embeddings(args, min_records=0):
    seqs = read_fasta(args.infile, acgt=True, nonempty=True)
    for seq in seqs:
        if len(seq) < args.k:
            raise SequenceTooShort(f"{args.infile}: record {seq.id!r}: sequence of {len(seq)} nt"
                                   f" shorter than k={args.k}")
    if len(seqs) < min_records:
        raise InsufficientData(f"--in {args.infile}", min_records, len(seqs))
    vectors = analytics.profile_embeddings([s.bases for s in seqs], args.k)
    labels = [s.meta.get("taxon_group", "unlabeled") for s in seqs]
    return seqs, analytics.EmbeddingSet(vectors=vectors, labels=labels)


def cmd_embed_project(args):
    seqs, emb = _profile_embeddings(args, min_records=2)
    result = analytics.pca_project(emb, dims=2)
    if result.degenerate_dims:
        print(f"warning: {result.degenerate_dims} degenerate dimensions zero-filled",
              file=sys.stderr)
    ids = [s.id or f"seq{i}" for i, s in enumerate(seqs)]
    _emit(args, analytics.projection_to_tsv(ids, emb.labels, result.coords))
    return 0


def cmd_embed_silhouette(args):
    _, emb = _profile_embeddings(args)
    value = analytics.silhouette(emb, metric=args.metric)
    _emit(args, f"{value:.6f}\n")
    return 0


def cmd_translate(args):
    rows = []
    for seq in _read_sequences(args):
        faults = () if seq.id is None else (AmbiguousBase,)  # a FASTA record has an id
        with _naming(f"{args.infile or '<stdin>'}: record {seq.id!r}", *faults):
            report = translate(seq, frame=args.frame)
        rows.append((seq.id or "-", args.frame, report.protein, report.complete,
                     report.premature_stop, report.starts_with_met))
    _emit(args, tsv_text(("id", "frame", "protein", "complete", "premature_stop",
                          "starts_with_met"), rows))
    return 0


# --- parser ------------------------------------------------------------------

def _add_common(p, func, seed=False, out=True):
    """The handler `func` and --config of every leaf; --seed and --out only
    where the handler reads them."""
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    if out:
        p.add_argument("--out", default=None, help="write results here instead of stdout")
    p.set_defaults(func=func)


def build_parser() -> _Parser:
    parser = _Parser(prog="genomelm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="k-mer or BPE encode sequences")
    p.add_argument("seq", nargs="?", help="raw sequence; FASTA via --in otherwise")
    p.add_argument("--in", dest="infile")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--offset", type=int, default=0)
    p.add_argument("--random-offset", action="store_true")
    p.add_argument("--bpe-model", help="path to a trained BPE model JSON")
    _add_common(p, cmd_tokenize, seed=True)

    p = sub.add_parser("bpe-train", help="train a BPE tokenizer on a FASTA corpus")
    p.add_argument("corpus")
    p.add_argument("--target-vocab", type=int, required=True)
    _add_common(p, cmd_bpe_train)

    p_ing = sub.add_parser("ingest", help="corpus construction")
    ing_sub = p_ing.add_subparsers(dest="subcommand", required=True)
    p = ing_sub.add_parser("extract", help="extract functional regions")
    p.add_argument("--genome", required=True)
    p.add_argument("--annotations", help="BED-like TSV")
    p.add_argument("--genbank", help="GenBank flat file (alternative to --annotations)")
    p.one_of = ("annotations", "genbank")
    p.add_argument("--min-subregion", type=length, default=8)
    _add_common(p, cmd_ingest_extract)
    p = ing_sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--genome", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--min-subregion", type=length, default=8)
    _add_common(p, cmd_ingest_stats)
    p = ing_sub.add_parser("gener-tasks", help="build classification datasets")
    p.add_argument("--genome", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--per-class-n", type=count, default=10)
    p.add_argument("--window-len", type=length, default=96_000)
    p.add_argument("--per-group-windows", type=count, default=10)
    p.add_argument("--gene-out", required=True)
    p.add_argument("--taxon-out", required=True)
    _add_common(p, cmd_ingest_gener_tasks, seed=True, out=False)

    p = sub.add_parser("train-markov", help="train the built-in Markov model")
    p.add_argument("corpus", help="FASTA training corpus")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--lambdas", type=weights, help="comma-separated interpolation weights")
    p.add_argument("--random-offset", action="store_true",
                   help="randomize the tokenization phase per sequence")
    p.add_argument("--model-out", required=True,
                   help="model file to write, an .npz archive whatever its name")
    _add_common(p, cmd_train_markov, seed=True, out=False)

    p = sub.add_parser("generate", help="autoregressive generation")
    p.add_argument("--model", required=True, help="markov:<path> | uniform:<k> | bridge target")
    p.add_argument("--prompt", help="nucleotide prompt")
    p.add_argument("--prefix", help="conditioning prefix token, e.g. <high>")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--top-p", type=float, default=1.0)
    p.add_argument("--max-new", type=length, default=32)
    p.add_argument("--greedy", action="store_true")
    p.add_argument("-n", type=length, default=1, help="number of sequences")
    p.add_argument("--dedup-against", help="FASTA of sequences to exclude")
    _add_common(p, cmd_generate, seed=True)

    p_rec = sub.add_parser("recover", help="sequence-recovery benchmark")
    rec_sub = p_rec.add_subparsers(dest="subcommand", required=True)
    p = rec_sub.add_parser("build", help="build a recovery dataset")
    p.add_argument("--genome", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--prompt-len", type=length, default=6144)
    p.add_argument("--predict-len", type=length, default=30)
    p.add_argument("--per-group-n", type=count, default=100)
    _add_common(p, cmd_recover_build, seed=True)
    p = rec_sub.add_parser("run", help="run the benchmark")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--predict-len", type=lengths, default="30", help="comma-separated lengths")
    p.add_argument("--sample", action="store_true", help="sampled instead of greedy decoding")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--top-p", type=float, default=1.0)
    p.add_argument("--json", action="store_true")
    _add_common(p, cmd_recover_run, seed=True)

    p_vep = sub.add_parser("vep", help="variant effect prediction")
    vep_sub = p_vep.add_subparsers(dest="subcommand", required=True)
    p = vep_sub.add_parser("score", help="score variants")
    p.add_argument("--genome", required=True)
    p.add_argument("--variants", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--context-len", type=length, default=6144)
    p.add_argument("--average-phases", action="store_true")
    _add_common(p, cmd_vep_score)
    p = vep_sub.add_parser("eval", help="AUROC/AUPRC from a score table")
    p.add_argument("--scores", required=True, help="output of `vep score`")
    _add_common(p, cmd_vep_eval)

    p_des = sub.add_parser("design", help="regulatory element design")
    des_sub = p_des.add_subparsers(dest="subcommand", required=True)
    p = des_sub.add_parser("label", help="quantile activity labels")
    p.add_argument("--activities", required=True, help="TSV: sequence, dev, hk[, split]")
    p.add_argument("--head", choices=["dev", "hk"], default="dev")
    _add_common(p, cmd_design_label)
    p = des_sub.add_parser("fit", help="fit the k-mer ridge predictor")
    p.add_argument("--activities", required=True)
    p.add_argument("--head", choices=["dev", "hk"], default="dev")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--l2", type=float, default=1.0)
    p.add_argument("--model-out", required=True)
    _add_common(p, cmd_design_fit, out=False)
    p = des_sub.add_parser("rank", help="predictor-guided selection")
    p.add_argument("--predictor", required=True)
    p.add_argument("--candidates", required=True, help="FASTA of candidates")
    p.add_argument("--top", type=count, default=0)
    p.add_argument("--bottom", type=count, default=0)
    p.add_argument("--random", type=count, default=0)
    _add_common(p, cmd_design_rank, seed=True)
    p = des_sub.add_parser("contrib", help="per-base contribution scores")
    p.add_argument("seq", nargs="?")
    p.add_argument("--in", dest="infile")
    p.add_argument("--predictor", required=True)
    _add_common(p, cmd_design_contrib)

    p_emb = sub.add_parser("embed", help="embedding analysis")
    emb_sub = p_emb.add_subparsers(dest="subcommand", required=True)
    p = emb_sub.add_parser("project", help="2-D principal-component projection")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, default=4)
    _add_common(p, cmd_embed_project)
    p = emb_sub.add_parser("silhouette", help="cluster quality of labeled embeddings")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--metric", choices=["euclidean", "cosine"], default="euclidean")
    _add_common(p, cmd_embed_silhouette)

    p = sub.add_parser("translate", help="translate with the standard genetic code")
    p.add_argument("seq", nargs="?")
    p.add_argument("--in", dest="infile")
    p.add_argument("--frame", type=int, choices=[0, 1, 2], default=0)
    _add_common(p, cmd_translate)

    return parser


@functools.cache
def _shared_parser() -> tuple[_Parser, dict, dict[str, list[str]]]:
    """The parser `main` uses, built on first use; by handler, each leaf
    parser with its flags a --config key may set, its defaults as argparse
    would cast them, and its required flags as declared, each by dest; and
    the option strings of every leaf dest. Here, once, every leaf flag loses
    its default and `required` mark, so a parse yields just the flags given."""
    parsers = [build_parser()]
    leaves, known = {}, {}
    for p in parsers:  # extended, as it goes, by every subcommand parser
        if p.get_default("func") is None:
            parsers += [sub for a in p._actions if isinstance(a, argparse._SubParsersAction)
                        for sub in a.choices.values()]
            continue
        settable = {a.dest: a for a in p._actions if a.default is not argparse.SUPPRESS}
        defaults, required = {}, {}
        for a in p._actions:
            known[a.dest] = a.option_strings
            if a.required and a.option_strings:
                required[a.dest] = copy.copy(a)
            elif not a.required and a.default is not argparse.SUPPRESS:
                cast = isinstance(a.default, str) and a.type
                defaults[a.dest] = a.type(a.default) if cast else a.default
            # a positional keeps its mark, so it is missed before --config is read
            a.default, a.required = argparse.SUPPRESS, a.required and not a.option_strings
        leaves[p.get_default("func")] = p, settable, defaults, required
    return parsers[0], leaves, known


def _parse(argv) -> argparse.Namespace | int:
    """The arguments of `argv`, over its --config values, over the flag
    defaults; or an exit code."""
    parser, leaves, known = _shared_parser()
    try:
        given = vars(parser.parse_args(argv))
        leaf, settable, defaults, required = leaves[given["func"]]
        config = given.get("config")
        file_values = _load_config(config) if config else {}
        values = dict(defaults)
        for key, text in file_values.items():
            # a key of another command's flag is ignored; one of no command's is a typo
            if key not in known:
                flag = "--" + key.replace("_", "-")
                hint = "".join(f"; the key of {flag} is {dest!r}"
                               for dest, options in known.items() if flag in options)
                print(f"error: {config}: key {key!r} matches no flag of any command{hint}",
                      file=sys.stderr)
                return USAGE_ERROR
            if key in settable:
                try:
                    values[key] = _config_value(settable[key], defaults.get(key), text)
                except ValueError as exc:
                    print(f"error: {config}: {key} = {text!r} {exc}", file=sys.stderr)
                    return USAGE_ERROR
        values.update(given)
        # as argparse would, the usage line marks required each flag the file did not set
        swapped = {dest: a for dest, a in required.items() if dest not in file_values}
        missing = ["/".join(a.option_strings) for dest, a in swapped.items() if dest not in values]
        if missing:
            leaf.error("the following arguments are required: " + ", ".join(missing), swapped)
        if leaf.one_of and sum(values.get(dest) is not None for dest in leaf.one_of) != 1:
            flags = " ".join("--" + dest.replace("_", "-") for dest in leaf.one_of)
            leaf.error(f"exactly one of the arguments {flags} is required", swapped)
        return argparse.Namespace(**values)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return DATA_ERROR


def main(argv=None) -> int:
    try:
        args = _parse(argv)  # a config file's bad byte is a BadRow
        return args if isinstance(args, int) else args.func(args)
    except (GenomeLmError, OSError) as exc:  # an OSError's message names its path
        kind = "" if isinstance(exc, OSError) else f"{type(exc).__name__}: "
        print(f"error: {kind}{exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
