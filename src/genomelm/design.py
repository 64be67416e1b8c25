"""Regulatory-element design loop: activity quantile labels, prefix-token
dataset construction, a k-mer ridge activity predictor, predictor-guided
selection, and per-base contribution scores."""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    PoolTooSmall,
    SingularSystem,
    TooFewSamples,
    UnknownPrefixToken,
)
from .seqcore import DNA_ALPHABET, NucleotideSequence, read_tsv, reading_model, tsv_text
from .tokenizer import (KmerTokenizer, check_k, kmer_count_matrix, kmer_counts,
                        kmer_substitutions, kmer_windows)

PREFIX_BY_LABEL = {"high": "<high>", "mid": "<mid>", "low": "<low>"}


@dataclass(frozen=True)
class ActivityRecord:
    sequence: NucleotideSequence
    activity: float  # log2 fold-change units
    promoter_class: str = "Dev"  # Dev | Hk

    def __post_init__(self):
        if not math.isfinite(self.activity):
            raise ValueError("activity must be finite")
        if self.promoter_class not in ("Dev", "Hk"):
            raise ValueError(f"unknown promoter class {self.promoter_class!r}")


def quantile_labels(activities: Sequence[float]) -> list[str]:
    """Partition into low / mid / high at the 25th and 75th percentiles
    (linear interpolation). Values exactly at a threshold fall into the
    middle band, so an all-equal input is labeled entirely mid."""
    if len(activities) < 4:
        raise TooFewSamples(f"need at least 4 activities, got {len(activities)}")
    a = np.asarray(activities, dtype=float)
    q25, q75 = np.percentile(a, [25, 75])
    return np.where(a < q25, "low", np.where(a > q75, "high", "mid")).tolist()


def build_prefix_dataset(
    records: Sequence[ActivityRecord],
    labels: Sequence[str],
    tokenizer: KmerTokenizer,
) -> list[list[int]]:
    """Token streams [BOS, <label>, tokens(seq), EOS], one per record."""
    vocab = tokenizer.vocab
    out = []
    for record, label in zip(records, labels):
        prefix = PREFIX_BY_LABEL.get(label)
        if prefix is None:
            raise UnknownPrefixToken(f"no prefix token for label {label!r}")
        try:
            prefix_id = vocab.id_of(prefix)
        except KeyError:
            raise UnknownPrefixToken(f"{prefix!r} not in vocabulary")
        body = tokenizer.encode(record.sequence.bases)
        out.append([vocab.bos, prefix_id, *body, vocab.eos])
    return out


# --- k-mer ridge predictor ---------------------------------------------------

@dataclass
class KmerRidgePredictor:
    """Affine model over k-mer counts: predict = w . counts + b."""

    k: int
    weights: np.ndarray  # length 4^k
    intercept: float
    l2: float
    # root-mean-square error on the records it was fitted to; not saved
    train_rmse: Optional[float] = field(default=None, compare=False)

    def predict(self, sequence: str) -> float:
        return float(kmer_counts(sequence, self.k) @ self.weights + self.intercept)


def fit_kmer_ridge(
    records: Sequence[ActivityRecord], k: int = 5, l2: float = 1.0
) -> KmerRidgePredictor:
    """Regularized least squares via the normal equations. The intercept
    is unpenalized (features and targets are mean-centered for the solve).
    Each record is featurized once; its row also gives the training error."""
    if len(records) < 2:
        raise TooFewSamples(f"need at least 2 records, got {len(records)}")
    if not (math.isfinite(l2) and l2 >= 0):
        raise ValueError(f"l2 strength must be finite and >= 0, got {l2}")
    X = kmer_count_matrix([r.sequence.bases for r in records], k)
    y = np.asarray([r.activity for r in records], dtype=float)
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean
    gram = Xc.T @ Xc + l2 * np.eye(X.shape[1])
    try:
        w = np.linalg.solve(gram, Xc.T @ yc)
    except np.linalg.LinAlgError:
        raise SingularSystem("normal equations are singular; use l2 > 0")
    if l2 == 0 and np.linalg.matrix_rank(gram) < gram.shape[0]:
        raise SingularSystem("normal equations are singular; use l2 > 0")
    intercept = float(y_mean - x_mean @ w)
    # row by row, the dot product `predict` takes, so each residual is its own
    residuals = [float(x @ w + intercept) - a for x, a in zip(X, y.tolist())]
    rmse = float(np.sqrt(np.mean(np.square(residuals))))
    return KmerRidgePredictor(k=k, weights=w, intercept=intercept, l2=l2, train_rmse=rmse)


# --- selection ---------------------------------------------------------------

@dataclass
class SelectionPlan:
    top: int = 0
    bottom: int = 0
    random: int = 0
    seed: int = 0


@dataclass
class SelectionReport:
    top: list[str]
    bottom: list[str]
    random: list[str]
    scores: dict[str, float]


def rank_and_select(
    predictor: KmerRidgePredictor,
    candidates: Sequence[str],
    plan: SelectionPlan,
) -> SelectionReport:
    """Deterministic predictor-guided selection: highest-scoring `top`,
    lowest-scoring `bottom`, and a seeded random draw from the remainder.
    Score ties break by lexicographic sequence order."""
    pool = list(dict.fromkeys(candidates))  # dedup, keep first occurrence
    needed = plan.top + plan.bottom + plan.random
    if needed > len(pool):
        raise PoolTooSmall(f"plan needs {needed} sequences, pool has {len(pool)}")
    scores = {seq: predictor.predict(seq) for seq in pool}
    by_score = sorted(pool, key=lambda s: (-scores[s], s))
    top = by_score[: plan.top]
    taken = set(top)
    bottom_sorted = sorted(pool, key=lambda s: (scores[s], s))
    bottom = [s for s in bottom_sorted if s not in taken][: plan.bottom]
    taken.update(bottom)
    rest = [s for s in sorted(pool) if s not in taken]
    rng = random.Random(plan.seed)
    rand = rng.sample(rest, plan.random) if plan.random else []
    return SelectionReport(top=top, bottom=bottom, random=rand, scores=scores)


# --- contribution scores ------------------------------------------------------

def contribution_scores(
    predictor: KmerRidgePredictor, sequence: str
) -> list[Optional[float]]:
    """Per-position score: predicted activity of the sequence minus the
    mean over the three single-base substitutions at that position.
    Positions holding N are emitted as None; any symbol outside ACGTN
    raises ValueError.

    A substitution at position i changes only the (at most k) windows
    that cover i, so the score is -mean over the 3 other bases of the sum
    over those windows of w[new k-mer] - w[old k-mer]. Windows holding an N
    are skipped, as kmer_counts skips them."""
    if not sequence:
        raise ValueError("sequence must be non-empty")
    bad = set(sequence) - DNA_ALPHABET
    if bad:
        i = min(sequence.index(b) for b in bad)
        raise ValueError(f"invalid symbol {sequence[i]!r} at position {i}")
    k, w = predictor.k, predictor.weights
    starts, ids = kmer_windows(sequence, k)
    delta = np.zeros(len(sequence))
    for j in range(k):  # the substituted base is the j-th of each window
        for new in kmer_substitutions(ids, k, j).T:
            delta[starts + j] += w[new] - w[ids]
    return [None if b == "N" else float(-d / 3) for b, d in zip(sequence, delta)]


def save_predictor(predictor: KmerRidgePredictor, path) -> None:
    with open(path, "w") as fh:
        json.dump(
            {
                "k": predictor.k,
                "weights": predictor.weights.tolist(),
                "intercept": predictor.intercept,
                "l2": predictor.l2,
            },
            fh,
        )


def load_predictor(path) -> KmerRidgePredictor:
    with open(path) as fh, reading_model(path):
        obj = json.load(fh)
        check_k(obj["k"])
        weights = np.asarray(obj["weights"], dtype=float)
        if weights.shape != (4 ** obj["k"],):
            raise ValueError(f"{weights.size} weights for k={obj['k']}, expected 4^k")
        return KmerRidgePredictor(obj["k"], weights, obj["intercept"], obj["l2"])


# --- DeepSTARR-style file i/o -------------------------------------------------

def read_activity_tsv(path, head: str = "dev") -> list[ActivityRecord]:
    """TSV columns: sequence, dev_activity, hk_activity[, split]."""
    if head not in ("dev", "hk"):
        raise ValueError(f"head must be 'dev' or 'hk', got {head!r}")
    col = 1 if head == "dev" else 2
    promoter_class = "Dev" if head == "dev" else "Hk"

    def record(cols: list[str]) -> ActivityRecord:
        sequence = NucleotideSequence(cols[0].upper())
        return ActivityRecord(sequence, float(cols[col]), promoter_class)

    return read_tsv(path, record, min_cols=3)


def contributions_to_tsv(sequence: str, scores: Sequence[Optional[float]]) -> str:
    return tsv_text(("pos", "base", "contribution"),
                    ((i, base, "NA" if c is None else f"{c:.6g}")
                     for i, (base, c) in enumerate(zip(sequence, scores), start=1)))
