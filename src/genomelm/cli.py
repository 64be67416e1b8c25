"""Single entry point exposing every workflow as a subcommand.

Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to
stderr; results go to stdout or --out. A --config file holds flat
key=value lines; command-line flags override it.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from . import analytics, design, ingest, recover, vep
from .errors import GenomeLmError
from .lm import MarkovLm, UniformLm, bridge_model, train_markov
from .sampling import SamplerConfig, conditioned_generate, generate
from .seqcore import parse_fasta, read_fasta, translate, validate, write_fasta
from .tokenizer import (
    BpeModel,
    KmerSpec,
    KmerTokenizer,
    bpe_encode,
    bpe_train,
    kmer_encode,
)

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _default_threads() -> int:
    # Only perfbench/run.py still calls this, for its "# meta" line, outside
    # any try; it goes when the benchmark stops reading it.
    return 1


def _load_config(path) -> dict[str, str]:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _leaf_parser(parser, args):
    """The subcommand parser that parsed `args`."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return _leaf_parser(action.choices[getattr(args, action.dest)], args)
    return parser


def _apply_config_value(args, action, value: str):
    """Set one --config value by the rules of its flag; a problem, or None."""
    if isinstance(getattr(args, action.dest), bool):
        if value.lower() not in _BOOLEANS:
            return "is not a boolean (" + "/".join(_BOOLEANS) + ")"
        setattr(args, action.dest, _BOOLEANS[value.lower()])
        return None
    caster = action.type or str
    try:
        cast = caster(value)
    except ValueError:
        return f"is not a valid {caster.__name__}"
    if action.choices is not None and cast not in action.choices:
        return "is not one of " + ", ".join(map(str, action.choices))
    setattr(args, action.dest, cast)
    return None


def _out_stream(args):
    if getattr(args, "out", None):
        return open(args.out, "w")
    return sys.stdout


def _emit(args, text: str) -> None:
    stream = _out_stream(args)
    stream.write(text)
    if stream is not sys.stdout:
        stream.close()


@contextlib.contextmanager
def _opened_model(spec_text: str):
    """Model spec: 'markov:<path>', 'uniform:<k>', or a bridge target.
    A bridge model is closed, and its peer shut down, on exit."""
    kind, _, rest = spec_text.partition(":")
    if kind == "markov":
        model = MarkovLm.load(rest)
    elif kind == "uniform":
        model = UniformLm(KmerTokenizer(int(rest)).vocab)
    else:
        model = bridge_model(rest if kind == "bridge" else spec_text)
    try:
        yield model
    finally:
        if hasattr(model, "close"):
            model.close()


def _read_sequences(args):
    if getattr(args, "seq", None):
        return [validate(args.seq)]
    if getattr(args, "infile", None):
        return read_fasta(args.infile)
    data = sys.stdin.read()
    if data.lstrip().startswith(">"):
        return list(parse_fasta(data.splitlines()))
    return [validate(data)]


# --- subcommand implementations ----------------------------------------------

def cmd_tokenize(args):
    seqs = _read_sequences(args)
    lines = []
    if args.bpe_model:
        with open(args.bpe_model) as fh:
            model = BpeModel.from_json(fh.read())
        for seq in seqs:
            lines.append(" ".join(map(str, bpe_encode(seq, model))))
    else:
        for seq in seqs:
            spec = KmerSpec(args.k, offset=None if args.random_offset else args.offset,
                            seed=args.seed)
            offset, ids, tail = kmer_encode(seq, spec)
            lines.append(
                f"{offset}\t{' '.join(map(str, ids))}\t{tail}"
            )
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_bpe_train(args):
    corpus = read_fasta(args.corpus)
    model = bpe_train(corpus, args.target_vocab)
    _emit(args, model.to_json() + "\n")
    return 0


def cmd_ingest_extract(args):
    genome = {s.id: s for s in read_fasta(args.genome)}
    if args.genbank:
        gb_seqs, annotations = ingest.parse_genbank(args.genbank)
        genome.update(gb_seqs)
    else:
        annotations = ingest.parse_bed_like(args.annotations)
    regions = ingest.extract_functional_regions(genome, annotations, args.min_subregion)
    if args.out:
        write_fasta(args.out, [r.sequence for r in regions])
        print(f"wrote {len(regions)} regions to {args.out}", file=sys.stderr)
    else:
        write_fasta("/dev/stdout", [r.sequence for r in regions])
    return 0


def cmd_ingest_stats(args):
    genome = {s.id: s for s in read_fasta(args.genome)}
    annotations = ingest.parse_bed_like(args.annotations)
    regions = ingest.extract_functional_regions(genome, annotations, args.min_subregion)
    _emit(args, ingest.corpus_stats(regions).to_tsv())
    return 0


def cmd_ingest_gener_tasks(args):
    genome = {s.id: s for s in read_fasta(args.genome)}
    annotations = ingest.parse_bed_like(args.annotations)
    regions = ingest.extract_functional_regions(genome, annotations)
    config = ingest.GenerTaskConfig(
        per_class_n=args.per_class_n,
        window_len=args.window_len,
        per_group_windows=args.per_group_windows,
        seed=args.seed,
    )
    datasets = ingest.build_gener_task_datasets(regions, genome, annotations, config)
    ingest.write_dataset_tsv(args.gene_out, datasets.gene_items)
    ingest.write_dataset_tsv(args.taxon_out, datasets.taxon_items)
    print(
        f"gene items: {len(datasets.gene_items)}, taxon items: "
        f"{len(datasets.taxon_items)}, skipped contigs: {datasets.skipped_contigs}",
        file=sys.stderr,
    )
    return 0


def cmd_train_markov(args):
    tokenizer = KmerTokenizer(args.k)
    corpus = []
    for seq in read_fasta(args.corpus):
        spec = KmerSpec(args.k, offset=None if args.random_offset else 0, seed=args.seed)
        _, ids, _ = kmer_encode(seq, spec)
        if ids:
            corpus.append(ids)
    lambdas = None
    if args.lambdas:
        lambdas = [float(x) for x in args.lambdas.split(",")]
    model = train_markov(corpus, tokenizer.vocab, args.order, alpha=args.alpha, lambdas=lambdas)
    model.save(args.model_out)
    print(f"trained order-{args.order} model on {len(corpus)} sequences", file=sys.stderr)
    return 0


def cmd_generate(args):
    with _opened_model(args.model) as model:
        k = len(model.vocabulary().tokens[0])
        tokenizer = KmerTokenizer(k)
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
        if args.prefix:
            batch = conditioned_generate(
                model, tokenizer, args.prefix, cfg, n_sequences=args.n, dedup_against=dedup
            )
            sequences = batch.sequences
            if batch.exhausted:
                print("warning: candidate pool exhausted before n sequences", file=sys.stderr)
        else:
            prompt_ids = tokenizer.encode(args.prompt.upper()) if args.prompt else []
            sequences = []
            for i in range(args.n):
                ids = generate(model, prompt_ids, cfg, job_index=i)
                sequences.append(tokenizer.decode(ids))
            if dedup is not None:
                sequences = [s for s in sequences if s not in dedup]
    _emit(args, "\n".join(sequences) + "\n")
    return 0


def cmd_recover_build(args):
    genome = {s.id: s for s in read_fasta(args.genome)}
    annotations = ingest.parse_bed_like(args.annotations)
    regions = ingest.extract_functional_regions(genome, annotations)
    items = recover.build_recovery_dataset(
        regions, genome, args.prompt_len, args.predict_len, args.per_group_n, seed=args.seed
    )
    recover.write_dataset_tsv(args.out or "/dev/stdout", items)
    return 0


def cmd_recover_run(args):
    with _opened_model(args.model) as model:
        k = len(model.vocabulary().tokens[0])
        tokenizer = KmerTokenizer(k)
        dataset = recover.read_dataset_tsv(args.dataset)
        cfg = SamplerConfig(
            mode="sample" if args.sample else "greedy",
            temperature=args.temperature,
            nucleus_p=args.top_p,
            seed=args.seed,
        )
        predict_lens = [int(x) for x in args.predict_len.split(",")]
        report = recover.run_recovery(model, tokenizer, dataset, predict_lens, cfg)
    if args.json:
        _emit(args, report.to_json() + "\n")
    else:
        _emit(args, report.to_tsv())
    return 0


def cmd_vep_score(args):
    with _opened_model(args.model) as model:
        k = len(model.vocabulary().tokens[0])
        tokenizer = KmerTokenizer(k)
        genome = {s.id: s for s in read_fasta(args.genome)}
        variants = vep.read_variants_tsv(args.variants)
        lines = ["#seq_id\tpos\tref\talt\tlabel\tscore"]
        for variant in variants:
            if args.mode == "mlm":
                from .sampling import CausalAsMaskedLm

                score = vep.mlm_vep_score(
                    CausalAsMaskedLm(model), tokenizer, genome, variant, window=args.context_len
                )
            else:
                score = vep.vep_score(
                    model,
                    tokenizer,
                    genome,
                    variant,
                    context_len=args.context_len,
                    average_phases=args.average_phases,
                )
            lines.append(
                f"{variant.seq_id}\t{variant.pos}\t{variant.ref_allele}\t"
                f"{variant.alt_allele}\t{variant.label or ''}\t{score:.6f}"
            )
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_vep_eval(args):
    scores, labels = [], []
    with open(args.scores) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if cols[4]:
                labels.append(cols[4])
                scores.append(float(cols[5]))
    metrics = vep.evaluate_vep(scores, labels)
    _emit(args, json.dumps(metrics, sort_keys=True) + "\n")
    return 0


def cmd_design_label(args):
    records = design.read_activity_tsv(args.activities, head=args.head)
    labels = design.quantile_labels([r.activity for r in records])
    lines = ["#sequence\tactivity\tlabel"]
    for record, label in zip(records, labels):
        lines.append(f"{record.sequence.bases}\t{record.activity:.6g}\t{label}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_design_fit(args):
    records = design.read_activity_tsv(args.activities, head=args.head)
    predictor = design.fit_kmer_ridge(records, k=args.k, l2=args.l2)
    design.save_predictor(predictor, args.model_out)
    residuals = [predictor.predict(r.sequence.bases) - r.activity for r in records]
    rmse = float(np.sqrt(np.mean(np.square(residuals))))
    print(f"fit k={args.k} ridge on {len(records)} records, train RMSE {rmse:.4f}",
          file=sys.stderr)
    return 0


def cmd_design_rank(args):
    predictor = design.load_predictor(args.predictor)
    candidates = [s.bases for s in read_fasta(args.candidates)]
    plan = design.SelectionPlan(
        top=args.top, bottom=args.bottom, random=args.random, seed=args.seed
    )
    report = design.rank_and_select(predictor, candidates, plan)
    lines = ["#group\tsequence\tpredicted_activity"]
    for group, seqs in (("top", report.top), ("bottom", report.bottom), ("random", report.random)):
        for seq in seqs:
            lines.append(f"{group}\t{seq}\t{report.scores[seq]:.6g}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_design_contrib(args):
    predictor = design.load_predictor(args.predictor)
    seqs = _read_sequences(args)
    chunks = []
    for seq in seqs:
        scores = design.contribution_scores(predictor, seq.bases)
        chunks.append(design.contributions_to_tsv(seq.bases, scores))
    _emit(args, "".join(chunks))
    return 0


def cmd_embed_project(args):
    seqs = read_fasta(args.infile)
    vectors = np.stack([analytics.profile_embedding(s.bases, args.k) for s in seqs])
    labels = [s.meta.get("taxon_group", "unlabeled") for s in seqs]
    emb = analytics.EmbeddingSet(vectors=vectors, labels=labels)
    result = analytics.pca_project(emb, dims=2)
    if result.degenerate_dims:
        print(f"warning: {result.degenerate_dims} degenerate dimensions zero-filled",
              file=sys.stderr)
    ids = [s.id or f"seq{i}" for i, s in enumerate(seqs)]
    _emit(args, analytics.projection_to_tsv(ids, labels, result.coords))
    return 0


def cmd_embed_silhouette(args):
    seqs = read_fasta(args.infile)
    vectors = np.stack([analytics.profile_embedding(s.bases, args.k) for s in seqs])
    labels = [s.meta.get("taxon_group", "unlabeled") for s in seqs]
    emb = analytics.EmbeddingSet(vectors=vectors, labels=labels)
    value = analytics.silhouette(emb, metric=args.metric)
    _emit(args, f"{value:.6f}\n")
    return 0


def cmd_translate(args):
    seqs = _read_sequences(args)
    lines = ["#id\tframe\tprotein\tcomplete\tpremature_stop\tstarts_with_met"]
    for seq in seqs:
        report = translate(seq, frame=args.frame)
        lines.append(
            f"{seq.id or '-'}\t{args.frame}\t{report.protein}\t"
            f"{report.complete}\t{report.premature_stop}\t{report.starts_with_met}"
        )
    _emit(args, "\n".join(lines) + "\n")
    return 0


# --- parser ------------------------------------------------------------------

def _add_common(p, seed=False, out=True):
    """--config on every leaf; --seed and --out only where the handler reads them."""
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    if out:
        p.add_argument("--out", default=None, help="write results here instead of stdout")


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
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("bpe-train", help="train a BPE tokenizer on a FASTA corpus")
    p.add_argument("corpus")
    p.add_argument("--target-vocab", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_bpe_train)

    p_ing = sub.add_parser("ingest", help="corpus construction")
    ing_sub = p_ing.add_subparsers(dest="subcommand", required=True)
    p = ing_sub.add_parser("extract", help="extract functional regions")
    p.add_argument("--genome", required=True)
    p.add_argument("--annotations", help="BED-like TSV")
    p.add_argument("--genbank", help="GenBank flat file (alternative to --annotations)")
    p.add_argument("--min-subregion", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=cmd_ingest_extract)
    p = ing_sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--genome", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--min-subregion", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=cmd_ingest_stats)
    p = ing_sub.add_parser("gener-tasks", help="build classification datasets")
    p.add_argument("--genome", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--per-class-n", type=int, default=10)
    p.add_argument("--window-len", type=int, default=96_000)
    p.add_argument("--per-group-windows", type=int, default=10)
    p.add_argument("--gene-out", required=True)
    p.add_argument("--taxon-out", required=True)
    _add_common(p, seed=True, out=False)
    p.set_defaults(func=cmd_ingest_gener_tasks)

    p = sub.add_parser("train-markov", help="train the built-in Markov model")
    p.add_argument("corpus", help="FASTA training corpus")
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--lambdas", help="comma-separated interpolation weights")
    p.add_argument("--random-offset", action="store_true",
                   help="randomize the tokenization phase per sequence")
    p.add_argument("--model-out", required=True)
    _add_common(p, seed=True, out=False)
    p.set_defaults(func=cmd_train_markov)

    p = sub.add_parser("generate", help="autoregressive generation")
    p.add_argument("--model", required=True, help="markov:<path> | uniform:<k> | bridge target")
    p.add_argument("--prompt", help="nucleotide prompt")
    p.add_argument("--prefix", help="conditioning prefix token, e.g. <high>")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--top-p", type=float, default=1.0)
    p.add_argument("--max-new", type=int, default=32)
    p.add_argument("--greedy", action="store_true")
    p.add_argument("-n", type=int, default=1, help="number of sequences")
    p.add_argument("--dedup-against", help="FASTA of sequences to exclude")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_generate)

    p_rec = sub.add_parser("recover", help="sequence-recovery benchmark")
    rec_sub = p_rec.add_subparsers(dest="subcommand", required=True)
    p = rec_sub.add_parser("build", help="build a recovery dataset")
    p.add_argument("--genome", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--prompt-len", type=int, default=6144)
    p.add_argument("--predict-len", type=int, default=30)
    p.add_argument("--per-group-n", type=int, default=100)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_recover_build)
    p = rec_sub.add_parser("run", help="run the benchmark")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--predict-len", default="30", help="comma-separated lengths")
    p.add_argument("--sample", action="store_true", help="sampled instead of greedy decoding")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--top-p", type=float, default=1.0)
    p.add_argument("--json", action="store_true")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_recover_run)

    p_vep = sub.add_parser("vep", help="variant effect prediction")
    vep_sub = p_vep.add_subparsers(dest="subcommand", required=True)
    p = vep_sub.add_parser("score", help="score variants")
    p.add_argument("--genome", required=True)
    p.add_argument("--variants", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=["causal", "mlm"], default="causal")
    p.add_argument("--context-len", type=int, default=6144)
    p.add_argument("--average-phases", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_vep_score)
    p = vep_sub.add_parser("eval", help="AUROC/AUPRC from a score table")
    p.add_argument("--scores", required=True, help="output of `vep score`")
    _add_common(p)
    p.set_defaults(func=cmd_vep_eval)

    p_des = sub.add_parser("design", help="regulatory element design")
    des_sub = p_des.add_subparsers(dest="subcommand", required=True)
    p = des_sub.add_parser("label", help="quantile activity labels")
    p.add_argument("--activities", required=True, help="TSV: sequence, dev, hk[, split]")
    p.add_argument("--head", choices=["dev", "hk"], default="dev")
    _add_common(p)
    p.set_defaults(func=cmd_design_label)
    p = des_sub.add_parser("fit", help="fit the k-mer ridge predictor")
    p.add_argument("--activities", required=True)
    p.add_argument("--head", choices=["dev", "hk"], default="dev")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--l2", type=float, default=1.0)
    p.add_argument("--model-out", required=True)
    _add_common(p, out=False)
    p.set_defaults(func=cmd_design_fit)
    p = des_sub.add_parser("rank", help="predictor-guided selection")
    p.add_argument("--predictor", required=True)
    p.add_argument("--candidates", required=True, help="FASTA of candidates")
    p.add_argument("--top", type=int, default=0)
    p.add_argument("--bottom", type=int, default=0)
    p.add_argument("--random", type=int, default=0)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_design_rank)
    p = des_sub.add_parser("contrib", help="per-base contribution scores")
    p.add_argument("seq", nargs="?")
    p.add_argument("--in", dest="infile")
    p.add_argument("--predictor", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_design_contrib)

    p_emb = sub.add_parser("embed", help="embedding analysis")
    emb_sub = p_emb.add_subparsers(dest="subcommand", required=True)
    p = emb_sub.add_parser("project", help="2-D principal-component projection")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, default=4)
    _add_common(p)
    p.set_defaults(func=cmd_embed_project)
    p = emb_sub.add_parser("silhouette", help="cluster quality of labeled embeddings")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--metric", choices=["euclidean", "cosine"], default="euclidean")
    _add_common(p)
    p.set_defaults(func=cmd_embed_silhouette)

    p = sub.add_parser("translate", help="translate with the standard genetic code")
    p.add_argument("seq", nargs="?")
    p.add_argument("--in", dest="infile")
    p.add_argument("--frame", type=int, choices=[0, 1, 2], default=0)
    _add_common(p)
    p.set_defaults(func=cmd_translate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR

    if args.config:
        try:
            file_values = _load_config(args.config)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return DATA_ERROR
        actions = {a.dest: a for a in _leaf_parser(parser, args)._actions}
        # flags passed on the command line override file values
        dest_of = {opt: a.dest for a in actions.values() for opt in a.option_strings}
        explicit = {
            dest_of.get(token.split("=", 1)[0])
            for token in (argv if argv is not None else sys.argv[1:])
        }
        for key, value in file_values.items():
            action = actions.get(key)
            if key == "config" or key in explicit or action is None or not hasattr(args, key):
                continue
            problem = _apply_config_value(args, action, value)
            if problem:
                print(f"error: {args.config}: {key} = {value!r} {problem}", file=sys.stderr)
                return USAGE_ERROR

    try:
        return args.func(args)
    except GenomeLmError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
