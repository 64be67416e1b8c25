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

from .errors import BadValue, InsufficientData, ReferenceTooShort
from .ingest import FunctionalRegion
from .lm import CausalLm, check_vocabulary, context_start
from .sampling import SamplerConfig, generate
from .seqcore import NucleotideSequence, read_tsv, tsv_text
from .tokenizer import KmerTokenizer


@dataclass(frozen=True)
class RecoveryItem:
    prompt: str
    reference: str
    taxon_group: str = "unlabeled"


def recovery_accuracy(reference: str, generated: str, length: int) -> float:
    """Fraction of the first `length` positions where generated matches
    the reference; positions the generation never reached count as misses."""
    if length < 1:
        raise BadValue(f"length must be >= 1, got {length}")
    if len(reference) < length:
        raise ReferenceTooShort(
            f"reference of {len(reference)} nt cannot score length {length}"
        )
    hits = sum(map(str.__eq__, generated[:length], reference[:length]))
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
    genome-contiguous with the continuation). A taxon group with fewer than
    per_group_n eligible regions, none included, raises InsufficientData."""
    rng = random.Random(seed)
    by_group: dict[str, list[RecoveryItem]] = {}
    for region in regions:
        rec = region.source
        group = rec.taxon_group or "unlabeled"
        pool = by_group.setdefault(group, [])  # a group with no eligible region is short too
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
        pool.append(RecoveryItem(prompt=prompt, reference=reference, taxon_group=group))
    if per_group_n and not by_group:
        raise InsufficientData("any taxon group", per_group_n, 0)
    items: list[RecoveryItem] = []
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
        rows = [(group, plen, llen, f"{mean:.6f}", n, f"{se:.6f}")
                for (group, plen, llen), (mean, n, se) in sorted(self.cells.items())]
        rows += [("overall", "-", llen, f"{mean:.6f}", "-", "-")
                 for llen, mean in sorted(self.overall.items())]
        return tsv_text(("taxon_group", "prompt_len", "predict_len", "mean_accuracy", "n",
                         "std_error"), rows)

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
    k, and to the model's context window before it is tokenized. Item i
    decodes on job stream i, all items in one lockstep `generate`.
    Decoding is greedy unless cfg says otherwise.
    """
    check_vocabulary(model, tokenizer.vocab)
    if cfg is None:
        cfg = SamplerConfig(mode="greedy")
    k = tokenizer.k
    job_cfg = replace(cfg, max_new_tokens=math.ceil(max(predict_lens) / k))

    prompts = [tokenizer.encode(item.prompt[context_start(model, len(item.prompt), k):])
               for item in dataset]
    sums: dict[tuple[str, int, int], list[float]] = {}
    for item, ids in zip(dataset, generate(model, prompts, job_cfg)):
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


def dataset_to_tsv(items: Sequence[RecoveryItem]) -> str:
    """The table `read_dataset_tsv` reads."""
    return tsv_text(("prompt", "reference", "taxon_group"),
                    ((i.prompt, i.reference, i.taxon_group) for i in items))


def read_dataset_tsv(path) -> list[RecoveryItem]:
    """TSV columns: prompt, reference, taxon_group."""
    return read_tsv(path, _recovery_item, min_cols=3, max_cols=3)


def _recovery_item(cols: list[str]) -> RecoveryItem:
    """A dataset row. An N, which `recover build` never writes, is a fault: no model can read one
    in a prompt, nor match one in a reference."""
    prompt, reference = (NucleotideSequence(bases).bases for bases in cols[:2])
    for column, bases in (("prompt", prompt), ("reference", reference)):
        if "N" in bases:
            raise BadValue(f"{column}: ambiguous base 'N' at position {bases.index('N')}")
    return RecoveryItem(prompt=prompt, reference=reference, taxon_group=cols[2])
