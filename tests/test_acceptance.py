"""End-to-end acceptance checks for the toolkit.

Each test exercises one release criterion and prints a single PASS/FAIL
line, so `pytest -s tests/test_acceptance.py` doubles as a checklist.
Expected values come either from closed-form constants or from an
independently coded oracle inside this module.
"""
import math
import random

import numpy as np
import pytest

from genomelm.analytics import (
    EmbeddingSet,
    pca_project,
    pearson_r,
    profile_embeddings,
    silhouette,
)
from genomelm.cli import main as cli_main
from genomelm.design import (
    KmerRidgePredictor,
    contribution_scores,
    quantile_labels,
)
from genomelm.ingest import add_genbank, corpus_stats, extract_functional_regions
from genomelm.lm import MarkovLm
from genomelm.recover import RecoveryItem, run_recovery
from genomelm.sampling import SamplerConfig, conditioned_generate
from genomelm.seqcore import NucleotideSequence, fasta_text
from genomelm.tokenizer import (
    KmerTokenizer,
    bpe_decode,
    bpe_encode,
    bpe_train,
    kmer_decode,
    kmer_encode,
    kmer_vocabulary,
)
from genomelm.vep import Variant, auprc, auroc, marginalize_distribution, vep_score
from sequential_decode import CheckedRow


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number:02d} {name} failed: {detail}"


def random_dna(rng, n, alphabet="ACGT"):
    return "".join(rng.choice(alphabet) for _ in range(n))


class ConstLm:
    """Context-independent distribution over a given vocabulary."""

    context_window = None

    def __init__(self, vocab, probs):
        self._vocab = vocab
        self._dist = CheckedRow(probs)

    def next_distributions(self, contexts):
        return np.tile(self._dist.probs, (len(contexts), 1))

    def vocabulary(self):
        return self._vocab


def test_01_tokenizer_round_trip():
    rng = random.Random(101)
    sequences = ["".join(rng.choices("ACGT", k=rng.randrange(1, 10_001))) for _ in range(1000)]

    failures = 0
    for s in sequences:
        for k in range(1, 9):
            for offset in range(k):
                ids, tail = kmer_encode(s, k, offset)
                if kmer_decode(ids, k).bases + tail != s[offset:]:
                    failures += 1

    bpe = bpe_train([s[:500] for s in sequences[:200]], target_vocab=60)
    for s in sequences:
        if bpe_decode(bpe_encode(s, bpe), bpe).bases != s:
            failures += 1

    report(1, "tokenizer round-trip", failures == 0, f"{failures} failures")


def test_02_vocabulary_shape():
    ok = all(kmer_vocabulary(k).n_base == 4**k for k in range(1, 9))
    v6 = kmer_vocabulary(6)
    ok = ok and v6.n_base == 4096 and len(v6) == 4128
    report(2, "vocabulary shape (k=6 -> 4096 + 32 = 4128)", ok,
           f"k=6 sizes {v6.n_base}/{len(v6)}")


def test_03_marginalization_oracle():
    tok = KmerTokenizer(6)
    np_rng = np.random.default_rng(33)
    tokens = tok.vocab.tokens
    max_err = 0.0
    max_sum_err = 0.0
    for _ in range(100):
        raw = np_rng.random(len(tok.vocab))
        dist = CheckedRow(raw / raw.sum())
        lm = ConstLm(tok.vocab, dist.probs)
        for j in range(6):
            got = marginalize_distribution(lm.next_distributions([[]])[0], tok, j)
            totals = {"A": 0.0, "C": 0.0, "G": 0.0, "T": 0.0}
            for token_id in range(tok.vocab.n_base):
                totals[tokens[token_id][j]] += dist.probs[token_id]
            z = sum(totals.values())
            want = np.array([totals[b] / z for b in "ACGT"])
            max_err = max(max_err, float(np.abs(got - want).max()))
            max_sum_err = max(max_sum_err, abs(float(got.sum()) - 1.0))
    report(3, "token-to-nucleotide marginalization oracle",
           max_err < 1e-12 and max_sum_err < 1e-9,
           f"max |delta| {max_err:.2e}, max sum error {max_sum_err:.2e}")


def test_04_random_baseline_recovery():
    rng = random.Random(4)
    tok = KmerTokenizer(1)
    probs = np.zeros(len(tok.vocab))
    probs[:4] = 0.25  # uniform over nucleotides, no special-token mass
    lm = ConstLm(tok.vocab, probs)
    items = [
        RecoveryItem(random_dna(rng, 5), random_dna(rng, 30), "all")
        for _ in range(10_000)
    ]
    cfg = SamplerConfig(mode="sample", seed=12345)
    got = run_recovery(lm, tok, items, [30], cfg).overall[30]
    report(4, "uniform-random recovery baseline is 0.25",
           abs(got - 0.25) <= 0.013, f"mean accuracy {got:.4f}")


def _build_order5_chain(np_rng):
    """A known order-5 nucleotide chain with a clear preferred successor."""
    n_ctx = 4**5
    T = np.empty((n_ctx, 4))
    preferred = np_rng.integers(0, 4, n_ctx)
    pref_prob = 0.6 + 0.25 * np_rng.random(n_ctx)
    for c in range(n_ctx):
        rest = (1.0 - pref_prob[c]) / 3
        T[c] = rest
        T[c, preferred[c]] = pref_prob[c]
    return T


def _chain_expected_accuracy(T, start_ctx, steps):
    """Expected positional match rate of the chain-argmax greedy path,
    computed by exact propagation of the reference-context distribution."""
    n_ctx = T.shape[0]
    succ = np.empty((n_ctx, 4), dtype=np.int64)
    for x in range(4):
        succ[:, x] = (np.arange(n_ctx) % (4**4)) * 4 + x
    d = np.zeros(n_ctx)
    d[start_ctx] = 1.0
    g_ctx = start_ctx
    total = 0.0
    for _ in range(steps):
        g = int(np.argmax(T[g_ctx]))
        total += float(d @ T[:, g])
        nd = np.zeros(n_ctx)
        for x in range(4):
            np.add.at(nd, succ[:, x], d * T[:, x])
        d = nd
        g_ctx = int(succ[g_ctx, g])
    return total / steps


def test_05_markov_recovery_matches_analytic_oracle():
    np_rng = np.random.default_rng(55)
    T = _build_order5_chain(np_rng)
    cum = np.cumsum(T, axis=1)

    # emit 1M tokens from the chain
    n_tokens = 1_000_000
    emitted = np.empty(n_tokens, dtype=np.int64)
    ctx = 0
    draws = np_rng.random(n_tokens)
    for i in range(n_tokens):
        x = int(np.searchsorted(cum[ctx], draws[i]))
        emitted[i] = x
        ctx = (ctx % 256) * 4 + x

    tok = KmerTokenizer(1)
    model = MarkovLm(tok.vocab, order=5, alpha=0.01,
                     lambdas=[0.001] * 5 + [0.995])
    model.observe(emitted.tolist())

    # evaluation items sampled from the same emission
    rng = random.Random(56)
    items = []
    start_ctxs = []
    for _ in range(1500):
        at = rng.randrange(5, n_tokens - 35)
        prompt_ids = emitted[at - 5 : at]
        items.append(RecoveryItem(
            prompt="".join("ACGT"[i] for i in prompt_ids),
            reference="".join("ACGT"[i] for i in emitted[at : at + 30]),
            taxon_group="chain",
        ))
        c = 0
        for i in prompt_ids:
            c = c * 4 + int(i)
        start_ctxs.append(c)

    got = run_recovery(model, tok, items, [30]).overall[30]
    cache = {}
    for c in start_ctxs:
        if c not in cache:
            cache[c] = _chain_expected_accuracy(T, c, 30)
    want = float(np.mean([cache[c] for c in start_ctxs]))
    report(5, "order-5 Markov recovery matches the analytic oracle",
           abs(got - want) <= 0.02,
           f"measured {got:.4f} vs analytic {want:.4f}")


def test_06_vep_properties():
    rng = random.Random(66)
    bases = random_dna(random.Random(67), 400)
    genome = {"c": NucleotideSequence(bases, id="c")}
    tok = KmerTokenizer(2)
    ids = tok.encode(bases)
    model = MarkovLm(tok.vocab, order=2, alpha=0.1,
                     lambdas=[1 / 7, 2 / 7, 4 / 7])
    model.observe(ids)

    antisymmetric = True
    for _ in range(50):
        pos = rng.randrange(30, 380)
        ref = bases[pos - 1]
        alt = rng.choice([b for b in "ACGT" if b != ref])
        swapped = {"c": NucleotideSequence(bases[: pos - 1] + alt + bases[pos:])}
        fwd = vep_score(model, tok, genome, Variant("c", pos, ref, alt))
        rev = vep_score(model, tok, swapped, Variant("c", pos, alt, ref))
        if fwd != -rev:
            antisymmetric = False

    uniform_zero = True
    uni = MarkovLm.uniform(tok.vocab)
    for _ in range(25):
        pos = rng.randrange(30, 380)
        ref = bases[pos - 1]
        alt = rng.choice([b for b in "ACGT" if b != ref])
        variant = Variant("c", pos, ref, alt)
        if vep_score(uni, tok, genome, variant) != 0.0:
            uniform_zero = False
        if vep_score(uni, tok, genome, variant, average_phases=True) != 0.0:
            uniform_zero = False

    # 6-item fixture against exhaustive pairwise counting
    scores = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
    labels = [1, 1, 0, 1, 0, 0]
    wins = sum(
        1 if sp > sn else (0.5 if sp == sn else 0)
        for sp, yp in zip(scores, labels) if yp
        for sn, yn in zip(scores, labels) if not yn
    )
    fixture_ok = (
        auroc(scores, labels) == pytest.approx(wins / 9)
        and auprc(scores, labels) == pytest.approx((1 / 3) * (1 + 1 + 0.75))
    )

    np_rng = np.random.default_rng(68)
    shuffled_scores = np_rng.normal(size=10_000)
    shuffled_labels = np.array([1] * 5000 + [0] * 5000)
    np_rng.shuffle(shuffled_labels)
    chance = auroc(shuffled_scores, shuffled_labels.tolist())
    chance_ok = abs(chance - 0.5) <= 0.02

    report(6, "variant scoring properties",
           antisymmetric and uniform_zero and fixture_ok and chance_ok,
           f"antisym {antisymmetric}, uniform-zero {uniform_zero}, "
           f"fixture {fixture_ok}, shuffled AUROC {chance:.4f}")


def test_07_quantile_labeling():
    labels = quantile_labels([float(i) for i in range(100)])
    sizes_ok = (
        labels.count("low") == 25
        and labels.count("mid") == 50
        and labels.count("high") == 25
    )

    def oracle(values):
        s = sorted(values)
        n = len(s)

        def interp(q):
            h = (n - 1) * q
            lo = math.floor(h)
            if lo + 1 >= n:
                return s[lo]
            return s[lo] + (h - lo) * (s[lo + 1] - s[lo])

        q25, q75 = interp(0.25), interp(0.75)
        return ["low" if x < q25 else ("high" if x > q75 else "mid") for x in values]

    rng = random.Random(77)
    mismatches = 0
    for _ in range(1000):
        values = [rng.uniform(-10, 10) for _ in range(rng.randrange(4, 60))]
        if quantile_labels(values) != oracle(values):
            mismatches += 1
    report(7, "activity quantile labeling", sizes_ok and mismatches == 0,
           f"sizes ok {sizes_ok}, oracle mismatches {mismatches}")


def test_08_contribution_score_oracle():
    rng = random.Random(88)
    np_rng = np.random.default_rng(89)
    predictor = KmerRidgePredictor(
        k=5, weights=np_rng.normal(size=4**5), intercept=0.3, l2=1.0
    )

    def naive(sequence):
        base = predictor.predict(sequence)
        out = []
        for i, b in enumerate(sequence):
            alts = [x for x in "ACGT" if x != b]
            mean = sum(
                predictor.predict(sequence[:i] + x + sequence[i + 1 :])
                for x in alts
            ) / 3
            out.append(base - mean)
        return out

    max_err = 0.0
    for _ in range(50):
        seq = random_dna(rng, 100)
        got = contribution_scores(predictor, seq)
        want = naive(seq)
        max_err = max(max_err, max(abs(g - w) for g, w in zip(got, want)))

    flat = KmerRidgePredictor(k=1, weights=np.zeros(4), intercept=1.25, l2=1.0)
    flat_zero = contribution_scores(flat, random_dna(rng, 100)) == [0.0] * 100
    report(8, "per-base contribution scores match a naive loop",
           max_err < 1e-10 and flat_zero,
           f"max |delta| {max_err:.2e}, constant-predictor zero {flat_zero}")


def test_09_metric_fixtures():
    x = [0.5, 1.0, 4.0, 9.0, 12.5]
    pearson_ok = (
        pearson_r(x, [2 * v - 3 for v in x]) == pytest.approx(1.0, abs=1e-12)
        and pearson_r(x, [-0.5 * v + 1 for v in x]) == pytest.approx(-1.0, abs=1e-12)
    )
    report(9, "correlation metric fixtures", pearson_ok, f"Pearson affine ok {pearson_ok}")


def test_10_conditioned_generation_separation():
    rng = random.Random(110)
    tok = KmerTokenizer(1)
    vocab = tok.vocab
    streams = []
    for _ in range(200):
        high_body = random_dna(rng, 60, "AAAAAAAAC")  # ~89% A over {A,C}
        low_body = random_dna(rng, 60, "TTTTTTTTG")
        for prefix, body in (("<high>", high_body), ("<low>", low_body)):
            streams.append(
                [vocab.bos, vocab.id_of(prefix), *tok.encode(body), vocab.eos]
            )
    model = MarkovLm(vocab, order=1, alpha=0.01, lambdas=[0.02, 0.98])
    for s in streams:
        model.observe(s)

    cfg = SamplerConfig(max_new_tokens=50, seed=10)
    fractions = {}
    for prefix in ("<high>", "<low>"):
        batch = conditioned_generate(model, tok, prefix, cfg, n_sequences=1000)
        text = "".join(batch.sequences)
        fractions[prefix] = text.count("A") / len(text)
    gap = fractions["<high>"] - fractions["<low>"]
    report(10, "prefix tokens steer generated composition", gap > 0.3,
           f"A-fraction high {fractions['<high>']:.3f} vs low "
           f"{fractions['<low>']:.3f}, gap {gap:.3f}")


GENBANK_GENOME = (
    "ACGTACGTACCCGGTTAACCGGATCCGGAATTCCGGAACCTTGGAACCTTGGACGTACGT"
)


def test_11_ingestion_exactness(tmp_path):
    row = GENBANK_GENOME.lower()
    chunks = " ".join(row[j : j + 10] for j in range(0, 60, 10))
    (tmp_path / "rec.gb").write_text(
        "LOCUS       CTG1             60 bp    DNA\n"
        "FEATURES             Location/Qualifiers\n"
        "     gene            4..12\n"
        '                     /gene="g1"\n'
        "     gene            complement(20..28)\n"
        "     gene            join(31..35,41..46)\n"
        "ORIGIN\n"
        f"        1 {chunks}\n"
        "//\n"
    )
    sequences = {}
    records = add_genbank(sequences, tmp_path / "rec.gb")
    intervals_ok = [
        (r.start, r.end, r.strand) for r in records
    ] == [(4, 12, "+"), (20, 28, "-"), (31, 46, "+")]
    genome_ok = sequences["CTG1"].bases == GENBANK_GENOME

    regions = extract_functional_regions(sequences, records)
    comp = GENBANK_GENOME[19:28].translate(str.maketrans("ACGT", "TGCA"))[::-1]
    extraction_ok = [r.sequence.bases for r in regions] == [
        GENBANK_GENOME[3:12], comp, GENBANK_GENOME[30:46]
    ]
    stats = corpus_stats(regions)
    stats_ok = (
        stats.counts[("unlabeled", "gene")] == (3, 9 + 9 + 16)
        and stats.total_genes == 3
        and stats.total_nucleotides == 34
    )
    report(11, "annotation ingestion exactness",
           genome_ok and intervals_ok and extraction_ok and stats_ok,
           f"genome {genome_ok}, intervals {intervals_ok}, "
           f"extraction {extraction_ok}, stats {stats_ok}")


def test_12_embedding_separation():
    rng = random.Random(112)
    seqs = []
    labels = []
    for gc, taxon in ((0.3, "low_gc"), (0.7, "high_gc")):
        for _ in range(50):
            bases = "".join(
                rng.choice("GC") if rng.random() < gc else rng.choice("AT")
                for _ in range(5000)
            )
            seqs.append(bases)
            labels.append(taxon)
    emb = EmbeddingSet(vectors=profile_embeddings(seqs, 4), labels=labels)
    result = pca_project(emb, dims=2)
    value = silhouette(EmbeddingSet(vectors=result.coords, labels=labels))
    report(12, "synthetic taxa separate in the 2-D projection", value > 0.5,
           f"silhouette {value:.3f}")


def test_13_cli_determinism(tmp_path):
    corpus = tmp_path / "corpus.fa"
    rng = random.Random(113)
    corpus.write_text(fasta_text([
        NucleotideSequence(random_dna(rng, 200), id=f"s{i}") for i in range(5)
    ]))
    model = tmp_path / "markov.jsonl"
    assert cli_main([
        "train-markov", str(corpus), "--k", "1", "--order", "2",
        "--model-out", str(model),
    ]) == 0

    gen_outputs = []
    for name in ("gen_a", "gen_b"):
        out = tmp_path / name
        assert cli_main([
            "generate", "--model", f"markov:{model}", "--seed", "99",
            "--max-new", "60", "-n", "5", "--out", str(out),
        ]) == 0
        gen_outputs.append(out.read_bytes())

    dataset = tmp_path / "dataset.tsv"
    items = "\n".join(
        f"{random_dna(rng, 10)}\t{random_dna(rng, 30)}\tg" for _ in range(20)
    )
    dataset.write_text("#prompt\treference\ttaxon_group\n" + items + "\n")
    rec_outputs = []
    for name in ("rec_a", "rec_b"):
        out = tmp_path / name
        assert cli_main([
            "recover", "run", "--model", f"markov:{model}",
            "--dataset", str(dataset), "--predict-len", "15,30",
            "--sample", "--seed", "7", "--out", str(out),
        ]) == 0
        rec_outputs.append(out.read_bytes())

    ok = gen_outputs[0] == gen_outputs[1] and rec_outputs[0] == rec_outputs[1]
    report(13, "seeded CLI runs are byte-identical", ok,
           f"generate identical {gen_outputs[0] == gen_outputs[1]}, "
           f"recover identical {rec_outputs[0] == rec_outputs[1]}")
