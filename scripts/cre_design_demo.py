#!/usr/bin/env python3
"""Regulatory-element design walkthrough on synthetic activity data.

Simulates promoter activity driven by a handful of motifs plus noise,
then runs the full design loop: quantile labeling, k-mer ridge fit,
held-out correlation, candidate ranking, and per-base contribution
scores for the best candidate.

Usage:
    python3 scripts/cre_design_demo.py [--seed 0] [--n 400] [--k 4]
"""
import argparse
import random

from genomelm.analytics import pearson_r
from genomelm.design import (
    ActivityRecord,
    SelectionPlan,
    contribution_scores,
    contributions_to_tsv,
    fit_kmer_ridge,
    quantile_labels,
    rank_and_select,
)
from genomelm.seqcore import NucleotideSequence

MOTIF_EFFECTS = {"TATAA": 2.0, "GGGCGG": 1.5, "TTTT": -0.8}


def simulate(rng, n, length, noise=0.3):
    records = []
    for _ in range(n):
        seq = "".join(rng.choice("ACGT") for _ in range(length))
        activity = sum(
            w * seq.count(m) for m, w in MOTIF_EFFECTS.items()
        ) + rng.gauss(0.0, noise)
        records.append(ActivityRecord(NucleotideSequence(seq), activity))
    return records


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=400)
    parser.add_argument("--length", type=int, default=120)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--l2", type=float, default=1.0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    records = simulate(rng, args.n, args.length)
    split = int(0.8 * len(records))
    train, test = records[:split], records[split:]

    labels = quantile_labels([r.activity for r in train])
    print("label split on the training set:",
          {name: labels.count(name) for name in ("low", "mid", "high")})

    predictor = fit_kmer_ridge(train, k=args.k, l2=args.l2)
    preds = predictor.predict_many([r.sequence.bases for r in test])
    r = pearson_r(preds, [r.activity for r in test])
    print(f"held-out Pearson r ({len(test)} sequences, k={args.k}, "
          f"l2={args.l2}): {r:.3f}")

    pool = ["".join(rng.choice("ACGT") for _ in range(args.length))
            for _ in range(2000)]
    plan = SelectionPlan(top=5, bottom=5, random=5, seed=args.seed)
    report = rank_and_select(predictor, pool, plan)
    print("top predicted activities:",
          [f"{report.scores[s]:.2f}" for s in report.top])
    print("bottom predicted activities:",
          [f"{report.scores[s]:.2f}" for s in report.bottom])

    best = report.top[0]
    scores = contribution_scores(predictor, best)
    print("\nper-base contributions of the best candidate "
          "(positive = the observed base raises predicted activity):")
    print(contributions_to_tsv(best, scores), end="")


if __name__ == "__main__":
    main()
