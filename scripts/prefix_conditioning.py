#!/usr/bin/env python3
"""Activity-conditioned generation with class-prefix tokens.

Trains a Markov model on streams that start with <low>/<mid>/<high>
prefix tokens derived from quantile-labeled activity data, then samples
fresh sequences under each prefix and compares their composition and
predicted activity. Conditioning works when the generated populations
pull apart.

Usage:
    python3 scripts/prefix_conditioning.py [--seed 0] [--n-generate 200]
"""
import argparse
import random
import statistics

from genomelm.design import (
    ActivityRecord,
    build_prefix_dataset,
    fit_kmer_ridge,
    quantile_labels,
)
from genomelm.lm import train_markov
from genomelm.sampling import SamplerConfig, conditioned_generate
from genomelm.seqcore import NucleotideSequence
from genomelm.tokenizer import KmerTokenizer


def simulate(rng, n, length):
    """GC content drives activity, so composition is the learnable signal.

    The GC distribution is bimodal on purpose: an order-n model can only
    honor the prefix if local context keeps predicting same-class
    continuations, which needs GC-rich and GC-poor contexts to come from
    different sequences rather than from one homogeneous population.
    """
    records = []
    for _ in range(n):
        gc = rng.betavariate(0.2, 0.2)
        seq = "".join(
            rng.choice("GC") if rng.random() < gc else rng.choice("AT")
            for _ in range(length)
        )
        records.append(ActivityRecord(NucleotideSequence(seq), gc * 10))
    return records


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-train", type=int, default=600)
    parser.add_argument("--length", type=int, default=150)
    parser.add_argument("--order", type=int, default=4)
    parser.add_argument("--temperature", type=float, default=0.8)
    parser.add_argument("--n-generate", type=int, default=200)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    records = simulate(rng, args.n_train, args.length)
    labels = quantile_labels([r.activity for r in records])

    tok = KmerTokenizer(1)
    streams = build_prefix_dataset(records, labels, tok)
    model = train_markov(streams, tok.vocab, order=args.order, alpha=0.05)

    oracle = fit_kmer_ridge(records, k=2, l2=1.0)
    cfg = SamplerConfig(max_new_tokens=args.length, seed=args.seed,
                        temperature=args.temperature, nucleus_p=0.95)
    print(f"{args.n_generate} samples per prefix, order-{args.order} model:")
    for prefix in ("<low>", "<mid>", "<high>"):
        batch = conditioned_generate(
            model, tok, prefix, cfg, n_sequences=args.n_generate,
            dedup_against=set(),
        )
        text = "".join(batch.sequences)
        gc = (text.count("G") + text.count("C")) / len(text)
        activity = statistics.mean(
            oracle.predict_many([s for s in batch.sequences if s])
        )
        print(f"  {prefix:7s} GC fraction {gc:.3f}  "
              f"predicted activity {activity:+.2f}  "
              f"duplicates filtered {batch.duplicates_filtered}")


if __name__ == "__main__":
    main()
