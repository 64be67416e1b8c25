"""Autoregressive decoding: temperature + nucleus sampling, greedy mode
and conditioning prefixes.

Randomness comes from a self-contained xoshiro256** stream seeded through
SplitMix64, so draws are identical across platforms and processes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import UnknownPrefixToken
from .lm import CausalLm, TokenDistribution, check_ids
from .tokenizer import KmerTokenizer

_MASK64 = (1 << 64) - 1
MAX_ATTEMPTS_FACTOR = 4  # a dedup run makes up to this many attempts per sequence asked for


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256:
    """xoshiro256** with SplitMix64 seeding."""

    def __init__(self, seed: int):
        self.s = []
        z = seed & _MASK64
        for _ in range(4):
            z = (z + 0x9E3779B97F4A7C15) & _MASK64
            w = z
            w = ((w ^ (w >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            w = ((w ^ (w >> 27)) * 0x94D049BB133111EB) & _MASK64
            self.s.append(w ^ (w >> 31))

    def next_u64(self) -> int:
        s = self.s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self) -> float:
        """Uniform in [0,1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))


def job_rng(seed: int, job_index: int = 0) -> Xoshiro256:
    """One independent stream per generation job."""
    return Xoshiro256((seed * 0x9E3779B97F4A7C15 + job_index + 1) & _MASK64)


@dataclass
class SamplerConfig:
    temperature: float = 1.0
    nucleus_p: float = 1.0
    max_new_tokens: int = 32
    seed: int = 0
    mode: str = "sample"  # or "greedy"

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if not 0 < self.nucleus_p <= 1:
            raise ValueError(f"nucleus P must be in (0,1], got {self.nucleus_p}")
        if self.mode not in ("sample", "greedy"):
            raise ValueError(f"unknown mode {self.mode!r}")


def _select(dist: TokenDistribution, cfg: SamplerConfig, rng: Xoshiro256,
            banned: np.ndarray) -> int:
    probs = dist.probs.copy()
    probs[banned] = 0.0
    total = probs.sum()
    if total <= 0:
        raise ValueError("all candidate tokens are masked out")
    probs /= total

    if cfg.mode == "greedy":
        return int(np.argmax(probs))  # argmax ties resolve to the lowest id

    if cfg.temperature != 1.0:
        # zero-probability ids stay at exp(-inf) = 0
        with np.errstate(divide="ignore"):
            logits = np.where(probs > 0, np.log(probs), -np.inf) / cfg.temperature
        logits -= logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()

    # nucleus: probability-sorted prefix with cumulative mass >= P,
    # equal probabilities admitted lower id first
    order = np.lexsort((np.arange(len(probs)), -probs))
    cum = np.cumsum(probs[order])
    cut = int(np.searchsorted(cum, cfg.nucleus_p - 1e-12)) + 1
    kept = order[:cut]
    kept_probs = probs[kept]
    kept_probs /= kept_probs.sum()

    # the first kept id whose cumulative mass exceeds u; the last one if rounding
    # leaves the total at or below u
    pick = np.searchsorted(np.cumsum(kept_probs), rng.uniform(), side="right")
    return int(kept[min(pick, len(kept) - 1)])


def generate(
    lm: CausalLm,
    prompt_ids: Sequence[int],
    cfg: SamplerConfig,
    job_index: int = 0,
) -> list[int]:
    """Decode up to max_new_tokens ids after the prompt, stopping before EOS.

    Special tokens other than EOS are masked out of the candidate set.
    The whole prompt is checked against the vocabulary once; each step then
    passes the model only the last `lm.context_window` ids, when it says.
    Deterministic given (lm, prompt, cfg, job_index).
    """
    vocab = lm.vocabulary()
    check_ids(prompt_ids, len(vocab))
    specials = np.arange(vocab.n_base, len(vocab), dtype=np.int64)
    banned = specials[specials != vocab.eos]
    rng = job_rng(cfg.seed, job_index)
    window = lm.context_window
    context = list(prompt_ids)
    out: list[int] = []
    for _ in range(cfg.max_new_tokens):
        if window is not None:
            del context[: max(0, len(context) - window)]
        token = _select(lm.next_distribution(context), cfg, rng, banned)
        if token == vocab.eos:
            break
        out.append(token)
        context.append(token)
    return out


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
    extra attempts are made up to MAX_ATTEMPTS_FACTOR * n_sequences.
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
        ids = generate(lm, prompt, cfg, job_index=attempts)
        bases = tokenizer.decode(ids)
        attempts += 1
        if dedup_against is not None and bases in seen:
            filtered += 1
            continue
        seen.add(bases)
        sequences.append(bases)
    return ConditionedBatch(sequences, filtered, exhausted=len(sequences) < n_sequences)
