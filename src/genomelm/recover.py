"""Tokenization-agnostic sequence-recovery benchmark.

An item pairs a nucleotide prompt with the reference continuation that
follows it; the model generates and is scored by positional overlap.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from .errors import BadRow, InsufficientData, ReferenceTooShort, VocabularyMismatch
from .ingest import FunctionalRegion
from .lm import CausalLm
from .sampling import SamplerConfig, generate
from .seqcore import NucleotideSequence
from .tokenizer import KmerTokenizer


@dataclass(frozen=True)
class RecoveryItem:
    prompt: str
    reference: str
    taxon_group: str = "unlabeled"


def recovery_accuracy(reference: str, generated: str, length: int) -> float:
    """Fraction of the first `length` positions where generated matches
    the reference; positions the generation never reached count as misses."""
    if len(reference) < length:
        raise ReferenceTooShort(
            f"reference of {len(reference)} nt cannot score length {length}"
        )
    hits = sum(
        1
        for p in range(length)
        if p < len(generated) and generated[p] == reference[p]
    )
    return hits / length


def build_recovery_dataset(
    regions: Sequence[FunctionalRegion],
    genome: dict[str, NucleotideSequence],
    prompt_len_nt: int,
    predict_len_nt: int,
    per_group_n: int,
    seed: int = 0,
) -> list[RecoveryItem]:
    """Balanced items whose continuation lies wholly inside a functional
    region; the prompt is the immediately preceding genome context and may
    span intergenic sequence. Plus-strand regions only (the prompt must be
    genome-contiguous with the continuation)."""
    rng = random.Random(seed)
    by_group: dict[str, list[RecoveryItem]] = {}
    for region in regions:
        rec = region.source
        if rec.strand != "+" or rec.length < predict_len_nt:
            continue
        contig = genome.get(rec.seq_id)
        if contig is None:
            continue
        cont_start = rec.start  # 1-based; continuation starts at region start
        prompt_start = cont_start - prompt_len_nt
        if prompt_start < 1:
            continue
        prompt = contig.bases[prompt_start - 1 : cont_start - 1]
        reference = contig.bases[cont_start - 1 : cont_start - 1 + predict_len_nt]
        if "N" in prompt or "N" in reference:
            continue
        group = rec.taxon_group or "unlabeled"
        by_group.setdefault(group, []).append(
            RecoveryItem(prompt=prompt, reference=reference, taxon_group=group)
        )
    items: list[RecoveryItem] = []
    if per_group_n == 0:
        return items
    for group in sorted(by_group):
        pool = by_group[group]
        if len(pool) < per_group_n:
            raise InsufficientData(group, per_group_n, len(pool))
        picks = rng.sample(range(len(pool)), per_group_n)
        items.extend(pool[i] for i in sorted(picks))
    return items


@dataclass
class RecoveryReport:
    # (taxon_group, prompt_len, predict_len) -> (mean accuracy, n, std error)
    cells: dict[tuple[str, int, int], tuple[float, int, float]] = field(default_factory=dict)
    overall: dict[int, float] = field(default_factory=dict)  # predict_len -> unweighted group mean

    def to_tsv(self) -> str:
        lines = ["#taxon_group\tprompt_len\tpredict_len\tmean_accuracy\tn\tstd_error"]
        for (group, plen, llen), (mean, n, se) in sorted(self.cells.items()):
            lines.append(f"{group}\t{plen}\t{llen}\t{mean:.6f}\t{n}\t{se:.6f}")
        for llen, mean in sorted(self.overall.items()):
            lines.append(f"overall\t-\t{llen}\t{mean:.6f}\t-\t-")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "cells": [
                    {
                        "taxon_group": g,
                        "prompt_len": p,
                        "predict_len": l,
                        "mean_accuracy": mean,
                        "n": n,
                        "std_error": se,
                    }
                    for (g, p, l), (mean, n, se) in sorted(self.cells.items())
                ],
                "overall": {str(l): m for l, m in sorted(self.overall.items())},
            },
            sort_keys=True,
        )


def run_recovery(
    model: CausalLm,
    tokenizer: KmerTokenizer,
    dataset: Sequence[RecoveryItem],
    predict_lens: Sequence[int],
    cfg: Optional[SamplerConfig] = None,
) -> RecoveryReport:
    """Score every item at every requested prediction length.

    The prompt is left-trimmed so it ends on a token boundary, which makes
    the first generated token start exactly at the reference start for any
    k. Decoding is greedy unless cfg says otherwise.
    """
    if len(tokenizer.vocab) != len(model.vocabulary()) or (
        tokenizer.vocab.tokens != model.vocabulary().tokens
    ):
        raise VocabularyMismatch(
            "tokenizer vocabulary does not match the model vocabulary"
        )
    if cfg is None:
        cfg = SamplerConfig(mode="greedy")
    k = tokenizer.k
    job_cfg = replace(cfg, max_new_tokens=math.ceil(max(predict_lens) / k))

    sums: dict[tuple[str, int, int], list[float]] = {}
    for idx, item in enumerate(dataset):
        trim = len(item.prompt) % k
        prompt_ids = tokenizer.encode(item.prompt[trim:])
        ids = generate(model, prompt_ids, job_cfg, job_index=idx)
        decoded = tokenizer.decode(ids)
        for llen in predict_lens:
            acc = recovery_accuracy(item.reference, decoded, llen)
            sums.setdefault((item.taxon_group, len(item.prompt), llen), []).append(acc)

    report = RecoveryReport()
    for key in sorted(sums):
        values = sums[key]
        n = len(values)
        mean = sum(values) / n
        var = sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
        report.cells[key] = (mean, n, math.sqrt(var / n) if n > 1 else 0.0)
    for llen in predict_lens:
        group_means: dict[str, list[float]] = {}
        for (group, _plen, cell_len), (mean, n, _se) in report.cells.items():
            if cell_len == llen:
                group_means.setdefault(group, []).append((mean, n))
        per_group = [
            sum(m * n for m, n in cells) / sum(n for _, n in cells)
            for cells in group_means.values()
        ]
        if per_group:
            report.overall[llen] = sum(per_group) / len(per_group)
    return report


def write_dataset_tsv(path, items: Sequence[RecoveryItem]) -> None:
    with open(path, "w") as fh:
        fh.write("#prompt\treference\ttaxon_group\n")
        for item in items:
            fh.write(f"{item.prompt}\t{item.reference}\t{item.taxon_group}\n")


def read_dataset_tsv(path) -> list[RecoveryItem]:
    items = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise BadRow(line_no, f"expected 3 columns, got {len(cols)}", path)
            prompt, reference, taxon = cols
            items.append(RecoveryItem(prompt=prompt, reference=reference, taxon_group=taxon))
    return items
