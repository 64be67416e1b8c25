"""The one-job-at-a-time decoder that `genomelm.sampling.generate`
replaced, kept as its test oracle: a scalar xoshiro256** on Python
integers, a 1-d sampler step and the per-job decode loop. Each row the
loop reads is a CheckedRow."""
from dataclasses import dataclass

import numpy as np

from genomelm.lm import check_ids

_MASK64 = (1 << 64) - 1
_SUM_TOL = 1e-9


@dataclass(frozen=True)
class CheckedRow:
    """A next-token distribution, checked: non-negative, summing to 1 within 1e-9."""
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if (p < 0).any():
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")


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


def normalized(dist: CheckedRow, banned) -> np.ndarray:
    """The distribution with the banned ids at zero, renormalized."""
    probs = dist.probs.copy()
    probs[banned] = 0.0
    total = probs.sum()
    if total <= 0:
        raise ValueError("all candidate tokens are masked out")
    probs /= total
    return probs


def nucleus(probs: np.ndarray, cfg) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ids a sampling step keeps, most probable first, with the
    cumulative mass of every id in that order and of the kept ids alone."""
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
    return kept, cum, np.cumsum(kept_probs)


def select(dist: CheckedRow, cfg, rng, banned: np.ndarray) -> int:
    probs = normalized(dist, banned)
    if cfg.mode == "greedy":
        return int(np.argmax(probs))  # argmax ties resolve to the lowest id
    kept, _, kept_cum = nucleus(probs, cfg)
    # the first kept id whose cumulative mass exceeds u; the last one if rounding
    # leaves the total at or below u
    pick = np.searchsorted(kept_cum, rng.uniform(), side="right")
    return int(kept[min(pick, len(kept) - 1)])


def generate_one(lm, prompt_ids, cfg, job_index: int = 0) -> list[int]:
    """Decode one job, one `next_distributions([context])` call a step."""
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
        dist = CheckedRow(lm.next_distributions([context])[0])
        token = select(dist, cfg, rng, banned)
        if token == vocab.eos:
            break
        out.append(token)
        context.append(token)
    return out


def conditioned_attempts(lm, tokenizer, prompt, cfg, n_sequences, dedup_against, budget):
    """The attempt loop of conditioned generation, one job at a time:
    (sequences, duplicates filtered, attempts made)."""
    seen = set(dedup_against or ())
    sequences, filtered, attempts = [], 0, 0
    while len(sequences) < n_sequences and attempts < budget:
        bases = tokenizer.decode(generate_one(lm, prompt, cfg, job_index=attempts))
        attempts += 1
        if dedup_against is not None and bases in seen:
            filtered += 1
            continue
        seen.add(bases)
        sequences.append(bases)
    return sequences, filtered, attempts
