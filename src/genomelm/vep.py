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
    BadRow,
    DegenerateLabels,
    PositionOutOfRange,
    RefMismatch,
    UnknownSequenceId,
    VocabularyMismatch,
)
from .lm import CausalLm, TokenDistribution
from .sampling import MaskedLm
from .seqcore import NucleotideSequence
from .tokenizer import BASES, KmerTokenizer

PROB_FLOOR = 1e-18
SCORE_CAP = 40.0

_BASE_POS = {b: i for i, b in enumerate(BASES)}


@dataclass(frozen=True)
class Variant:
    seq_id: str
    pos: int  # 1-based
    ref_allele: str
    alt_allele: str
    label: Optional[str] = None  # benign | pathogenic

    def __post_init__(self):
        if self.ref_allele not in _BASE_POS or self.alt_allele not in _BASE_POS:
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
        return float(self.probs[_BASE_POS[base]])


def marginalize_distribution(
    dist: TokenDistribution, tokenizer: KmerTokenizer, j: int
) -> NucleotideMarginal:
    """Collapse a token distribution to the nucleotide at offset j.

    Special-token mass is excluded and renormalized away. With the
    lexicographic k-mer layout the j-th character of token t is digit
    (t // 4^(k-1-j)) mod 4, so the sum runs without string lookups.
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
    stride = 4 ** (k - 1 - j)
    digits = (np.arange(n_base) // stride) % 4
    marg = np.bincount(digits, weights=body, minlength=4) / total
    return NucleotideMarginal(marg)


def marginal_nucleotide_prob(
    lm: CausalLm, tokenizer: KmerTokenizer, context_before: str, j: int
) -> NucleotideMarginal:
    """Marginal over the nucleotide at offset j of the next token, given a
    context that is left-trimmed to end on a token boundary."""
    _check_vocab(lm, tokenizer)
    trim = len(context_before) % tokenizer.k
    ids = tokenizer.encode(context_before[trim:])
    return marginalize_distribution(lm.next_distribution(ids), tokenizer, j)


def _check_vocab(lm: CausalLm, tokenizer: KmerTokenizer) -> None:
    if tokenizer.vocab.tokens != lm.vocabulary().tokens:
        raise VocabularyMismatch("tokenizer vocabulary does not match model vocabulary")


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
    """Causal-mode score with the variant at the sequence end.

    phase j places the variant at offset j inside the next predicted token
    (default k-1, maximizing preceding context). With average_phases the
    score is averaged over all k alignments.
    """
    check_variant(genome, variant)
    k = tokenizer.k
    contig = genome[variant.seq_id]
    phases = range(k) if average_phases else [k - 1 if phase is None else phase]
    scores = []
    for j in phases:
        context_end = variant.pos - 1 - j  # inclusive, 1-based
        if context_end < 0:
            continue
        start = max(0, context_end - context_len)
        context = contig.bases[start:context_end]
        marg = marginal_nucleotide_prob(lm, tokenizer, context, j)
        scores.append(_llr(marg.prob(variant.ref_allele), marg.prob(variant.alt_allele)))
    if not scores:
        raise ValueError(f"no valid phase for variant at position {variant.pos}")
    return sum(scores) / len(scores)


def mlm_vep_score(
    mlm: MaskedLm,
    tokenizer: KmerTokenizer,
    genome: dict[str, NucleotideSequence],
    variant: Variant,
    window: int = 6144,
    phase: Optional[int] = None,
) -> float:
    """Masked-mode score: variant-containing token masked, window centered
    on the variant; the left window is truncated at the contig start."""
    check_variant(genome, variant)
    k = tokenizer.k
    j = k - 1 if phase is None else phase
    contig = genome[variant.seq_id]
    context_end = variant.pos - 1 - j
    if context_end < 0:
        raise ValueError(f"phase {j} impossible at position {variant.pos}")
    start = max(0, context_end - window // 2)
    trim = (context_end - start) % k
    left_ids = tokenizer.encode(contig.bases[start + trim : context_end])
    right_start = context_end + k
    right_end = min(len(contig), right_start + window // 2)
    right_span = (right_end - right_start) // k * k
    right_ids = tokenizer.encode(contig.bases[right_start : right_start + right_span])
    vocab = tokenizer.vocab
    dist = mlm.distribution_at_mask(left_ids + [vocab.mask] + right_ids)
    marg = marginalize_distribution(dist, tokenizer, j)
    return _llr(marg.prob(variant.ref_allele), marg.prob(variant.alt_allele))


# --- classification metrics --------------------------------------------------

def auroc(statistic: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-based AUROC; higher statistic means positive class. Ties get
    the average rank."""
    y = np.asarray(labels, dtype=int)
    s = np.asarray(statistic, dtype=float)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("need at least one positive and one negative label")
    order = np.argsort(s, kind="stable")
    ranks = np.empty(len(s), dtype=float)
    sorted_s = s[order]
    i = 0
    while i < len(s):
        jx = i
        while jx + 1 < len(s) and sorted_s[jx + 1] == sorted_s[i]:
            jx += 1
        ranks[order[i : jx + 1]] = (i + jx) / 2 + 1  # average 1-based rank
        i = jx + 1
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def auprc(statistic: Sequence[float], labels: Sequence[int]) -> float:
    """Step-wise precision-recall integration (higher statistic = positive)."""
    y = np.asarray(labels, dtype=int)
    s = np.asarray(statistic, dtype=float)
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == len(y):
        raise DegenerateLabels("need at least one positive and one negative label")
    order = np.argsort(-s, kind="stable")
    y_sorted = y[order]
    s_sorted = s[order]
    tp = 0
    area = 0.0
    prev_recall = 0.0
    i = 0
    while i < len(y_sorted):
        jx = i
        while jx + 1 < len(y_sorted) and s_sorted[jx + 1] == s_sorted[i]:
            jx += 1
        tp += int(y_sorted[i : jx + 1].sum())
        precision = tp / (jx + 1)
        recall = tp / n_pos
        area += precision * (recall - prev_recall)
        prev_recall = recall
        i = jx + 1
    return float(area)


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
    variants = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) < 4:
                raise BadRow(line_no, f"expected >=4 columns, got {len(cols)}", path)
            try:
                pos = int(cols[1])
            except ValueError:
                raise BadRow(line_no, f"non-integer position {cols[1]!r}", path)
            try:
                variants.append(
                    Variant(
                        seq_id=cols[0],
                        pos=pos,
                        ref_allele=cols[2],
                        alt_allele=cols[3],
                        label=cols[4] if len(cols) > 4 and cols[4] else None,
                    )
                )
            except ValueError as exc:
                raise BadRow(line_no, str(exc), path)
    return variants
