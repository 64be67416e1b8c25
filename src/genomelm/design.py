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
    BadValue,
    PoolTooSmall,
    SingularSystem,
    TooFewSamples,
    UnknownPrefixToken,
)
from .seqcore import NucleotideSequence, first_non_dna, read_tsv, reading_model
from .tokenizer import (KmerTokenizer, check_k, kmer_count_matrix, kmer_substitutions,
                        kmer_windows)

PREFIX_BY_LABEL = {"high": "<high>", "mid": "<mid>", "low": "<low>"}


@dataclass(frozen=True)
class ActivityRecord:
    sequence: NucleotideSequence
    activity: float  # log2 fold-change units
    promoter_class: str = "Dev"  # Dev | Hk

    def __post_init__(self):
        if not math.isfinite(self.activity):
            raise BadValue("activity must be finite")
        if self.promoter_class not in ("Dev", "Hk"):
            raise BadValue(f"unknown promoter class {self.promoter_class!r}")


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
        return self.predict_many([sequence])[0]

    def predict_many(self, sequences: Sequence[str]) -> list[float]:
        """Each prediction is its own row's dot product, so it never depends on the batch."""
        X = kmer_count_matrix(sequences, self.k)
        return [float(row @ self.weights + self.intercept) for row in X]


def fit_kmer_ridge(
    records: Sequence[ActivityRecord], k: int = 5, l2: float = 1.0
) -> KmerRidgePredictor:
    """Regularized least squares, solved in the smaller of its two
    dimensions. With l2 > 0 and fewer records n than k-mers 4^k, it solves
    the n × n dual system (Xc Xcᵀ + l2·I) α = yc and takes w = Xcᵀ α
    (ridge regression in dual variables); otherwise the 4^k × 4^k normal
    equations (Xcᵀ Xc + l2·I) w = Xcᵀ yc. Both give the same weights.
    With l2 == 0 and n <= 4^k the centered rows have rank below 4^k, so
    that case is singular before anything is built; so is l2 == 0 when every
    record has the same count total, as then Xc·𝟙 = 0. The intercept is
    unpenalized (features and targets are mean-centered for the solve).
    Each record is featurized once; its row also gives the training error."""
    if len(records) < 2:
        raise TooFewSamples(f"need at least 2 records, got {len(records)}")
    if not (math.isfinite(l2) and l2 >= 0):
        raise BadValue(f"l2 strength must be finite and >= 0, got {l2}")
    if l2 == 0 and len(records) <= 4**k:
        raise SingularSystem("normal equations are singular; use l2 > 0")
    X = kmer_count_matrix([r.sequence.bases for r in records], k)
    if l2 == 0 and np.ptp(X.sum(axis=1)) == 0:  # integer counts sum exactly
        raise SingularSystem("normal equations are singular; use l2 > 0")
    y = np.asarray([r.activity for r in records], dtype=float)
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    yc = y - y_mean
    dual = l2 > 0 and len(records) < 4**k
    gram = Xc @ Xc.T if dual else Xc.T @ Xc
    gram.flat[:: gram.shape[0] + 1] += l2
    try:
        w = Xc.T @ np.linalg.solve(gram, yc) if dual else np.linalg.solve(gram, Xc.T @ yc)
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
    scores = dict(zip(pool, predictor.predict_many(pool)))
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

def contribution_scores(predictor: KmerRidgePredictor, sequence: str) -> list[Optional[float]]:
    """The per-position scores of one sequence: see contribution_rows."""
    return contribution_rows(predictor, [sequence])[0]


def contribution_rows(
    predictor: KmerRidgePredictor, sequences: Sequence[str]
) -> list[list[Optional[float]]]:
    """Per-position scores of each sequence: predicted activity minus the
    mean over the three single-base substitutions at that position.
    Positions holding N are emitted as None; an empty sequence or any
    symbol outside ACGTN raises BadValue, for the first sequence at fault.

    A substitution at position i changes only the (at most k) windows
    that cover i, so the score is -mean over the 3 other bases of the sum
    over those windows of w[new k-mer] - w[old k-mer]. Windows holding an N
    are skipped, as kmer_count_matrix skips them, so all sequences join into one pass."""
    for sequence in sequences:
        if not sequence:
            raise BadValue("sequence must be non-empty")
        if (bad := first_non_dna(sequence)) is not None:
            raise BadValue(f"invalid symbol {bad.group()!r} at position {bad.start()}")
    k, w = predictor.k, predictor.weights
    joined = "N".join(sequences)
    starts, ids = kmer_windows(joined, k)
    delta = np.zeros(len(joined))
    for j in range(k):  # the substituted base is the j-th of each window
        for new in kmer_substitutions(ids, k, j).T:
            delta[starts + j] += w[new] - w[ids]
    scores = [None if b == "N" else c for b, c in zip(joined, (-delta / 3).tolist())]
    ends = np.cumsum([len(s) + 1 for s in sequences])  # each sequence's end, its N included
    return [scores[end - len(s) - 1 : end - 1] for s, end in zip(sequences, ends.tolist())]


def save_predictor(predictor: KmerRidgePredictor, path) -> None:
    record = {"k": predictor.k, "weights": predictor.weights.tolist(),
              "intercept": predictor.intercept, "l2": predictor.l2}
    with open(path, "w") as fh:
        fh.write(json.dumps(record))  # one write, where json.dump writes once per chunk


def load_predictor(path) -> KmerRidgePredictor:
    with open(path) as fh, reading_model(path):
        obj = json.load(fh)
        check_k(obj["k"])
        weights = np.asarray(obj["weights"], dtype=float)
        if weights.shape != (4 ** obj["k"],):
            raise BadValue(f"{weights.size} weights for k={obj['k']}, expected 4^k")
        return KmerRidgePredictor(obj["k"], weights, obj["intercept"], obj["l2"])


# --- DeepSTARR-style file i/o -------------------------------------------------

def read_activity_tsv(path, head: str = "dev") -> list[ActivityRecord]:
    """TSV columns: sequence, dev_activity, hk_activity[, split]."""
    if head not in ("dev", "hk"):
        raise BadValue(f"head must be 'dev' or 'hk', got {head!r}")
    col = 1 if head == "dev" else 2
    promoter_class = "Dev" if head == "dev" else "Hk"

    def record(cols: list[str]) -> ActivityRecord:
        sequence = NucleotideSequence(cols[0].upper())
        return ActivityRecord(sequence, float(cols[col]), promoter_class)

    return read_tsv(path, record, min_cols=3)


def contributions_to_tsv(sequence: str, scores: Sequence[Optional[float]]) -> str:
    """The text `tsv_text` gives for these (pos, base, contribution) rows."""
    return "#pos\tbase\tcontribution\n" + "".join(
        f"{i}\t{base}\tNA\n" if c is None else f"{i}\t{base}\t{c:.6g}\n"
        for i, (base, c) in enumerate(zip(sequence, scores), start=1))
