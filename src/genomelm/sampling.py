"""Autoregressive decoding: temperature + nucleus sampling, greedy mode
and conditioning prefixes.

Jobs decode in lockstep: each step asks the model for the next-token
distributions of every live job at once and selects all their tokens
with array operations. Job i draws from its own xoshiro256** stream,
seeded through SplitMix64 from (seed, i), so its tokens do not depend on
the batch it ran in, the platform or the process.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import UnknownPrefixToken
from .lm import CausalLm, check_ids
from .tokenizer import KmerTokenizer

MAX_ATTEMPTS_FACTOR = 4  # a dedup run makes up to this many attempts per sequence asked for
BLOCK_VALUES = 2**17  # float64 values in one block of jobs' distributions (1 MiB)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _rotl(x: np.ndarray, k: int) -> np.ndarray:
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


class XoshiroLanes:
    """xoshiro256** streams on uint64 lanes: lane i is the stream of job
    first_job + i, its state seeded by SplitMix64 from
    seed * 0x9E3779B97F4A7C15 + job + 1 (mod 2^64). Array arithmetic
    wraps, so every lane matches the scalar generator bit for bit."""

    def __init__(self, seed: int, first_job: int, n: int):
        z = np.full(n, (seed * _GOLDEN + first_job + 1) & _MASK64, dtype=np.uint64)
        z += np.arange(n, dtype=np.uint64)
        self.s = np.empty((4, n), dtype=np.uint64)
        for word in self.s:
            z += np.uint64(_GOLDEN)
            w = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            w = (w ^ (w >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            word[:] = w ^ (w >> np.uint64(31))

    def keep(self, live: np.ndarray) -> None:
        """Drop the lanes whose entry in `live` is False."""
        self.s = self.s[:, live]

    def next_u64(self) -> np.ndarray:
        s0, s1, s2, s3 = self.s
        result = _rotl(s1 * np.uint64(5), 7) * np.uint64(9)
        t = s1 << np.uint64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3[:] = _rotl(s3, 45)
        return result

    def uniform(self) -> np.ndarray:
        """One draw per lane, uniform in [0,1) with 53 bits of precision."""
        return (self.next_u64() >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


@dataclass
class SamplerConfig:
    temperature: float = 1.0
    nucleus_p: float = 1.0
    max_new_tokens: int = 32
    seed: int = 0
    mode: str = "sample"  # or "greedy"

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature}")
        if not 0 < self.nucleus_p <= 1:
            raise ValueError(f"nucleus P must be in (0,1], got {self.nucleus_p}")
        if self.mode not in ("sample", "greedy"):
            raise ValueError(f"unknown mode {self.mode!r}")


def _select(probs: np.ndarray, cfg: SamplerConfig, banned: np.ndarray,
            uniform: Callable[[], np.ndarray]) -> np.ndarray:
    """The next token of each row of a (B, |V|) array of distributions,
    which it overwrites. `uniform()` gives one draw in [0,1) per row;
    greedy mode never calls it.

    Every row sum is a full-row NumPy sum, or a sum over the first n < 8
    entries, which a row cumsum gives exactly; so each row's token is the
    one a 1-d sampler of that row alone picks.
    """
    probs[:, banned] = 0.0
    total = probs.sum(axis=1, keepdims=True)
    if (total <= 0).any():
        raise ValueError("all candidate tokens are masked out")
    probs /= total

    if cfg.mode == "greedy":
        return probs.argmax(axis=1)  # argmax ties resolve to the lowest id

    if cfg.temperature != 1.0:
        # zero-probability ids stay at exp(-inf) = 0
        with np.errstate(divide="ignore"):
            logits = np.where(probs > 0, np.log(probs), -np.inf) / cfg.temperature
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)

    # nucleus: probability-sorted prefix with cumulative mass >= P,
    # equal probabilities admitted lower id first
    B, V = probs.shape
    order = np.argsort(-probs, axis=1, kind="stable")
    ranked = np.take_along_axis(probs, order, axis=1)
    cum = np.cumsum(ranked, axis=1)
    cut = np.minimum((cum < cfg.nucleus_p - 1e-12).sum(axis=1) + 1, V)
    kept_mass = cum[np.arange(B), cut - 1]  # exact below 8 kept ids
    for n in np.unique(cut[cut >= 8]):
        rows = np.flatnonzero(cut == n)
        kept_mass[rows] = ranked[rows, :n].sum(axis=1)

    # the first kept id whose cumulative mass exceeds u; the last one if rounding
    # leaves the total at or below u
    kept_cum = np.cumsum(ranked / kept_mass[:, None], axis=1)
    below = (kept_cum <= uniform()[:, None]) & (np.arange(V) < cut[:, None])
    pick = np.minimum(below.sum(axis=1), cut - 1)
    return order[np.arange(B), pick]


def generate(
    lm: CausalLm,
    prompts: Sequence[Sequence[int]],
    cfg: SamplerConfig,
    first_job: int = 0,
) -> list[list[int]]:
    """Decode up to max_new_tokens ids after each prompt, stopping before
    EOS; prompt i decodes on the stream of job first_job + i.

    Special tokens other than EOS are masked out of the candidate set.
    Each prompt is checked against the vocabulary once. Jobs run in blocks
    of at most BLOCK_VALUES // |V| rows; within a block every step makes
    one `next_distributions` call over the live jobs, each context cut to
    the last `lm.context_window` ids when the model says, and a job that
    draws EOS leaves the block. Deterministic given (lm, prompt, cfg, job).
    """
    vocab = lm.vocabulary()
    for prompt in prompts:
        check_ids(prompt, len(vocab))
    specials = np.arange(vocab.n_base, len(vocab), dtype=np.int64)
    banned = specials[specials != vocab.eos]
    window = lm.context_window
    outs: list[list[int]] = [[] for _ in prompts]
    block = max(1, BLOCK_VALUES // len(vocab))
    for lo in range(0, len(prompts), block):
        jobs = list(range(lo, min(lo + block, len(prompts))))
        contexts = [list(prompts[j]) for j in jobs]
        lanes = XoshiroLanes(cfg.seed, first_job + lo, len(jobs))
        for _ in range(cfg.max_new_tokens):
            if not jobs:
                break
            if window is not None:
                for ctx in contexts:
                    del ctx[: max(0, len(ctx) - window)]
            tokens = _select(lm.next_distributions(contexts), cfg, banned, lanes.uniform)
            live = tokens != vocab.eos
            if not live.all():
                jobs = [j for j, keep in zip(jobs, live) if keep]
                contexts = [ctx for ctx, keep in zip(contexts, live) if keep]
                tokens = tokens[live]
                lanes.keep(live)
            for j, ctx, token in zip(jobs, contexts, tokens.tolist()):
                outs[j].append(token)
                ctx.append(token)
    return outs


@dataclass
class ConditionedBatch:
    sequences: list[str]  # decoded nucleotide strings
    duplicates_filtered: int
    exhausted: bool  # true when dedup left fewer sequences than requested


def conditioned_generate(
    lm: CausalLm,
    tokenizer: KmerTokenizer,
    prefix_token: Optional[str],
    cfg: SamplerConfig,
    n_sequences: int = 1,
    seed_context: Sequence[int] = (),
    dedup_against: Optional[set[str]] = None,
) -> ConditionedBatch:
    """Generate nucleotide sequences primed with [BOS, prefix]+seed_context,
    or with seed_context alone when prefix_token is None; attempt i decodes
    on job stream i.

    With dedup_against, a string in it or generated before is discarded and
    extra attempts are made up to MAX_ATTEMPTS_FACTOR * n_sequences. Each
    round decodes as many attempts as sequences are still missing, and
    accepts them in attempt order: the attempts a one-at-a-time loop makes.
    """
    prompt = list(seed_context)
    if prefix_token is not None:
        vocab = lm.vocabulary()
        try:
            prefix_id = vocab.id_of(prefix_token)
        except KeyError:
            raise UnknownPrefixToken(f"prefix token {prefix_token!r} not in vocabulary")
        if not vocab.is_special(prefix_id):
            raise UnknownPrefixToken(f"{prefix_token!r} is not a special token")
        prompt = [vocab.bos, prefix_id, *prompt]

    seen = set(dedup_against or ())
    sequences: list[str] = []
    filtered = 0
    attempts = 0
    budget = n_sequences if dedup_against is None else n_sequences * MAX_ATTEMPTS_FACTOR
    while len(sequences) < n_sequences and attempts < budget:
        need = min(n_sequences - len(sequences), budget - attempts)
        for ids in generate(lm, [prompt] * need, cfg, first_job=attempts):
            bases = tokenizer.decode(ids)
            attempts += 1
            if dedup_against is not None and bases in seen:
                filtered += 1
                continue
            seen.add(bases)
            sequences.append(bases)
    return ConditionedBatch(sequences, filtered, exhausted=len(sequences) < n_sequences)
