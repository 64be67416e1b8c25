"""Pearson correlation and embedding analysis.

The embedding side works on any EmbeddingSet, but its only producer is
`profile_embeddings`, L1-normalized k-mer composition profiles: the
`embed` subcommands use it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConstantInput, SequenceTooShort, SingleCluster
from .seqcore import tsv_text
from .tokenizer import kmer_count_matrix


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if len(xa) != len(ya) or len(xa) < 2:
        raise ValueError("need two equal-length vectors with n >= 2")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    denom = math.sqrt((xc @ xc) * (yc @ yc))
    if denom == 0:
        raise ConstantInput("correlation undefined for a constant input")
    return float((xc @ yc) / denom)


# --- embeddings --------------------------------------------------------------

@dataclass
class EmbeddingSet:
    vectors: np.ndarray  # n x d
    labels: list[str]

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be an n x d matrix")
        if len(self.labels) != self.vectors.shape[0]:
            raise ValueError("one label per row required")
        if not np.isfinite(self.vectors).all():
            raise ValueError("embedding entries must be finite")


def profile_embeddings(seqs: Sequence[str], k: int) -> np.ndarray:
    """The L1-normalized k-mer frequency vector of each sequence, one row of
    length 4^k each, from one count matrix; the first sequence at fault raises."""
    for bases in seqs:
        if "N" in bases:
            raise ValueError("profile embeddings require N-free sequences")
        if len(bases) < k:
            raise SequenceTooShort(f"sequence of {len(bases)} nt shorter than k={k}")
    counts = kmer_count_matrix(seqs, k)
    return counts / counts.sum(axis=1, keepdims=True)


@dataclass
class PcaResult:
    coords: np.ndarray  # n x dims
    explained_variance: list[float]
    degenerate_dims: int  # trailing components zero-filled for rank-deficient data


def pca_project(embeddings: EmbeddingSet, dims: int = 2) -> PcaResult:
    """Principal-component projection from the SVD of the centered vectors.

    Component i has variance s_i^2 / (n - 1). Each component's sign is
    fixed so its largest-magnitude entry is positive. Components with
    variance <= 1e-12, and those beyond min(n, d), are zero-filled and
    counted in degenerate_dims rather than fatal.
    """
    X = embeddings.vectors
    n, d = X.shape
    if n < dims:
        raise ValueError(f"need at least {dims} points, got {n}")
    Xc = X - X.mean(axis=0)
    _, s, vt = np.linalg.svd(Xc, full_matrices=False)  # s descending
    var = s[:dims] ** 2 / max(n - 1, 1)
    r = int(np.count_nonzero(var > 1e-12))  # the leading components that carry variance
    components = np.zeros((dims, d))
    components[:r] = vt[:r]
    # deterministic sign: largest-magnitude loading positive
    pivots = components[np.arange(r), np.abs(vt[:r]).argmax(axis=1)]
    components[:r] *= np.sign(pivots)[:, None]
    variances = [float(v) for v in var[:r]] + [0.0] * (dims - r)
    return PcaResult(coords=Xc @ components.T, explained_variance=variances,
                     degenerate_dims=dims - r)


def silhouette(embeddings: EmbeddingSet, metric: str = "euclidean") -> float:
    """Mean silhouette (b - a) / max(a, b); singleton clusters score 0."""
    unique, cluster = np.unique(np.asarray(embeddings.labels), return_inverse=True)
    if len(unique) < 2:
        raise SingleCluster("silhouette needs at least two labels")
    X = embeddings.vectors
    if metric == "euclidean":
        sq = (X**2).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2 * (X @ X.T)
        dist = np.sqrt(np.clip(d2, 0, None))
    elif metric == "cosine":
        norms = np.linalg.norm(X, axis=1)
        dist = 1 - (X @ X.T) / np.outer(norms, norms)
        np.fill_diagonal(dist, 0)
    else:
        raise ValueError(f"unknown metric {metric!r}")

    members = np.eye(len(unique))[cluster]  # n x clusters indicator
    sizes = members.sum(axis=0)
    totals = dist @ members  # each point's summed distance to each cluster
    own = sizes[cluster]
    rows = np.arange(len(cluster))
    # a: mean distance to the other members of the own cluster
    a = np.divide(totals[rows, cluster], own - 1, out=np.zeros(len(rows)), where=own > 1)
    # b: mean distance to the nearest other cluster
    means = totals / sizes
    means[rows, cluster] = np.inf
    b = means.min(axis=1)
    top = np.maximum(a, b)
    scores = np.divide(b - a, top, out=np.zeros(len(rows)), where=(own > 1) & (top > 0))
    return float(scores.mean())


# --- export ------------------------------------------------------------------

def projection_to_tsv(ids: Sequence[str], labels: Sequence[str], coords: np.ndarray) -> str:
    return tsv_text(("id", "label", "x", "y"),
                    ((seq_id, label, f"{x:.6g}", f"{y:.6g}")
                     for seq_id, label, (x, y) in zip(ids, labels, coords)))
