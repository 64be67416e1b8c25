"""Variant effect scoring via token-to-nucleotide marginalization.

The score is the log-likelihood ratio log p(ref) / p(alt) of the two
alleles at the variant position under the model; positive means the
reference allele is preferred.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AmbiguousContext,
    DegenerateLabels,
    PositionOutOfRange,
    RefMismatch,
    UnknownSequenceId,
    VocabularyMismatch,
)
from .lm import CausalLm, TokenDistribution, check_vocabulary, context_start
from .seqcore import NucleotideSequence, read_tsv
from .tokenizer import BASE_RANK, KmerTokenizer, base_ranks_at

PROB_FLOOR = 1e-18
SCORE_CAP = 40.0


@dataclass(frozen=True)
class Variant:
    seq_id: str
    pos: int  # 1-based
    ref_allele: str
    alt_allele: str
    label: Optional[str] = None  # benign | pathogenic

    def __post_init__(self):
        if self.ref_allele not in BASE_RANK or self.alt_allele not in BASE_RANK:
            raise ValueError(
                f"alleles must be single bases in ACGT, got {self.ref_allele!r}>{self.alt_allele!r}"
            )
        if self.ref_allele == self.alt_allele:
            raise ValueError("ref and alt alleles must differ")
        if self.label is not None and self.label not in ("benign", "pathogenic"):
            raise ValueError(f"unknown label {self.label!r}")


@dataclass(frozen=True)
class NucleotideMarginal:
    """Probability 4-vector indexed A,C,G,T."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if p.shape != (4,) or (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"not a nucleotide distribution: {p}")

    def prob(self, base: str) -> float:
        return float(self.probs[BASE_RANK[base]])


def marginalize_distribution(
    dist: TokenDistribution, tokenizer: KmerTokenizer, j: int
) -> NucleotideMarginal:
    """Collapse a token distribution to the nucleotide at offset j.

    Special-token mass is excluded and renormalized away. The base at
    offset j of each token is read off its id, without string lookups.
    """
    k = tokenizer.k
    if not 0 <= j < k:
        raise ValueError(f"offset {j} outside [0,{k - 1}]")
    n_base = tokenizer.vocab.n_base
    if len(dist.probs) != len(tokenizer.vocab):
        raise VocabularyMismatch(
            f"distribution of length {len(dist.probs)} vs vocabulary {len(tokenizer.vocab)}"
        )
    body = np.asarray(dist.probs[:n_base], dtype=float)
    total = body.sum()
    if total <= 0:
        return NucleotideMarginal(np.full(4, 0.25))
    marg = np.bincount(base_ranks_at(np.arange(n_base), k, j), weights=body, minlength=4) / total
    return NucleotideMarginal(marg)


def marginal_nucleotide_prob(
    lm: CausalLm, tokenizer: KmerTokenizer, context_before: str, j: int
) -> NucleotideMarginal:
    """Marginal over the nucleotide at offset j of the next token after a context
    left-trimmed to a token boundary and to the model's context window; lm and
    tokenizer must share a vocabulary."""
    start = context_start(lm, len(context_before), tokenizer.k)
    ids = tokenizer.encode(context_before[start:])
    return marginalize_distribution(TokenDistribution(lm.next_distributions([ids])[0]),
                                    tokenizer, j)


def _llr(p_ref: float, p_alt: float) -> float:
    score = math.log(max(p_ref, PROB_FLOOR)) - math.log(max(p_alt, PROB_FLOOR))
    return max(-SCORE_CAP, min(SCORE_CAP, score))


def check_variant(genome: dict[str, NucleotideSequence], variant: Variant) -> None:
    contig = genome.get(variant.seq_id)
    if contig is None:
        raise UnknownSequenceId(variant.seq_id)
    if not 1 <= variant.pos <= len(contig):
        raise PositionOutOfRange(
            f"position {variant.pos} outside {variant.seq_id!r} (1..{len(contig)})"
        )
    found = contig.bases[variant.pos - 1]
    if found != variant.ref_allele:
        raise RefMismatch(variant.pos, variant.ref_allele, found)


def vep_score(
    lm: CausalLm,
    tokenizer: KmerTokenizer,
    genome: dict[str, NucleotideSequence],
    variant: Variant,
    context_len: int = 6144,
    phase: Optional[int] = None,
    average_phases: bool = False,
) -> float:
    """Score with the variant at the end of the context.

    phase j places the variant at offset j inside the next predicted token
    (default k-1, maximizing preceding context). With average_phases the
    score is averaged over all k alignments. An N in the part of a context
    the model reads raises AmbiguousContext naming the variant and the N.
    """
    check_variant(genome, variant)
    check_vocabulary(lm, tokenizer.vocab)
    k = tokenizer.k
    contig = genome[variant.seq_id]
    phases = range(k) if average_phases else [k - 1 if phase is None else phase]
    scores = []
    for j in phases:
        context_end = variant.pos - 1 - j  # inclusive, 1-based
        if context_end < 0:
            continue
        start = max(0, context_end - context_len)
        start += context_start(lm, context_end - start, k)
        context = contig.bases[start:context_end]
        if "N" in context:
            raise AmbiguousContext(f"{variant.seq_id}:{variant.pos}",
                                   f"{variant.seq_id}:{start + context.index('N') + 1}")
        marg = marginal_nucleotide_prob(lm, tokenizer, context, j)
        scores.append(_llr(marg.prob(variant.ref_allele), marg.prob(variant.alt_allele)))
    if not scores:
        raise ValueError(f"no valid phase for variant at position {variant.pos}")
    return sum(scores) / len(scores)


# --- classification metrics --------------------------------------------------

def _tie_groups(statistic: Sequence[float], labels: Sequence[int]):
    """Per distinct statistic value, ascending: how many items hold it and how
    many of them are positive; plus the total positives. Raises
    DegenerateLabels unless both classes occur."""
    y = np.asarray(labels, dtype=int)
    _, inverse, counts = np.unique(
        np.asarray(statistic, dtype=float), return_inverse=True, return_counts=True
    )
    positives = np.bincount(inverse, weights=y, minlength=len(counts))
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == len(y):
        raise DegenerateLabels("need at least one positive and one negative label")
    return counts, positives, n_pos


def auroc(statistic: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-based AUROC; higher statistic means positive class. Ties get
    the average rank."""
    counts, positives, n_pos = _tie_groups(statistic, labels)
    n_neg = int(counts.sum()) - n_pos
    last = np.cumsum(counts)  # 1-based rank of each group's last item
    mean_rank = (last - counts + 1 + last) / 2
    rank_sum = (mean_rank * positives).sum()  # sums of half-integers: exact in any order
    return float((rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def auprc(statistic: Sequence[float], labels: Sequence[int]) -> float:
    """Step-wise precision-recall integration (higher statistic = positive)."""
    counts, positives, n_pos = _tie_groups(statistic, labels)
    tp = np.cumsum(positives[::-1])
    precision = tp / np.cumsum(counts[::-1])
    recall = tp / n_pos
    steps = precision * np.diff(recall, prepend=0.0)
    return float(np.cumsum(steps)[-1])  # cumsum adds left to right, as a loop would


def evaluate_vep(scores: Sequence[float], labels: Sequence[str]) -> dict:
    """AUROC/AUPRC with pathogenic as the positive class.

    Pathogenic variants are expected to receive lower reference-favoring
    scores, so the classifier statistic is the negated VEP score; the sign
    convention is recorded in the returned metadata.
    """
    y = []
    for label in labels:
        if label not in ("benign", "pathogenic"):
            raise DegenerateLabels(f"unknown label {label!r}")
        y.append(1 if label == "pathogenic" else 0)
    statistic = [-s for s in scores]
    return {
        "auroc": auroc(statistic, y),
        "auprc": auprc(statistic, y),
        "positive_class": "pathogenic",
        "statistic": "negated VEP score (lower score => more pathogenic)",
    }


# --- variant file i/o --------------------------------------------------------

def read_variants_tsv(path) -> list[Variant]:
    """TSV columns: seq_id, pos, ref, alt[, label]."""
    return read_tsv(path, _variant, min_cols=4)


def read_scores_tsv(path) -> list[tuple[Variant, float]]:
    """The table `vep score` writes: seq_id, pos, ref, alt, label, score."""
    return read_tsv(path, _scored_variant, min_cols=6)


def _variant(cols: list[str]) -> Variant:
    # Variant checks the alleles and the label.
    try:
        pos = int(cols[1])
    except ValueError:
        raise ValueError(f"non-integer position {cols[1]!r}") from None
    label = cols[4] if len(cols) > 4 and cols[4] else None
    return Variant(seq_id=cols[0], pos=pos, ref_allele=cols[2], alt_allele=cols[3], label=label)


def _scored_variant(cols: list[str]) -> tuple[Variant, float]:
    score = float(cols[5])
    if not math.isfinite(score):
        raise ValueError(f"score must be finite, got {cols[5]!r}")
    return _variant(cols), score
