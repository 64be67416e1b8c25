"""Autoregressive decoding: temperature + nucleus sampling, greedy mode
and conditioning prefixes.

Jobs decode in lockstep: each step asks the model for the next-token
distributions of the live jobs at once and selects all their tokens
with array operations. Job i draws from its own xoshiro256** stream,
seeded through SplitMix64 from (seed, i), so its tokens do not depend on
the batch it ran in, the platform or the process.

Selection has a deterministic half per distribution (`_prepare`) and a
per-job draw (`_draw`). With a finite `context_window`, a job's context
state is its last `context_window` ids, and its row depends on nothing
else; so one `generate` call keeps the prepared tables of every state it
meets in a store and asks the model only for states the store lacks.
A stored state costs its key (a tuple of ids in a dict) and its row of
the tables: its token when greedy, or its token order, kept cumulative
masses and cut when sampling. The store holds as many states as fit in
the BLOCK_VALUES budget (8 bytes a value), and never fewer than one
block's states, so one step's new states always fit. When a step's new
states do not fit, it starts over.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BadValue, UnknownPrefixToken
from .lm import CausalLm, check_ids
from .tokenizer import KmerTokenizer

MAX_ATTEMPTS_FACTOR = 4  # a dedup run makes up to this many attempts per sequence asked for
# float64 values in one block of jobs' distributions (1 MiB), and the byte
# budget of the state store (8 bytes a value)
BLOCK_VALUES = 2**17
# bytes a stored state's key takes beyond 8 an id: the tuple, its dict entry
# and its row number (80-115 bytes for 1-8 ids, measured with tracemalloc)
_KEY_BYTES = 128

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
            raise BadValue(f"temperature must be finite and > 0, got {self.temperature}")
        if not 0 < self.nucleus_p <= 1:
            raise BadValue(f"nucleus P must be in (0,1], got {self.nucleus_p}")
        if self.mode not in ("sample", "greedy"):
            raise BadValue(f"unknown mode {self.mode!r}")


def _prepare(probs: np.ndarray, cfg: SamplerConfig, banned: np.ndarray) -> tuple:
    """The selection tables of each row of a (S, |V|) array of
    distributions, which it overwrites: (greedy token,) per row, or the
    nucleus as (order, kept_cum, cut): the ids by falling probability, the
    cumulative kept mass in that order, and how many ids are kept.

    Every row sum is a full-row NumPy sum, or a sum over the first n < 8
    entries, which a row cumsum gives exactly; so each row's tables are the
    ones a 1-d sampler of that row alone builds.
    """
    probs[:, banned] = 0.0
    total = probs.sum(axis=1, keepdims=True)
    if (total <= 0).any():
        raise BadValue("all candidate tokens are masked out")
    probs /= total

    if cfg.mode == "greedy":
        return (probs.argmax(axis=1),)  # argmax ties resolve to the lowest id

    if cfg.temperature != 1.0:
        # zero-probability ids stay at exp(-inf) = 0
        with np.errstate(divide="ignore"):
            logits = np.where(probs > 0, np.log(probs), -np.inf) / cfg.temperature
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)

    # nucleus: probability-sorted prefix with cumulative mass >= P,
    # equal probabilities admitted lower id first
    S, V = probs.shape
    order = np.argsort(-probs, axis=1, kind="stable")
    ranked = np.take_along_axis(probs, order, axis=1)
    cum = np.cumsum(ranked, axis=1)
    cut = np.minimum((cum < cfg.nucleus_p - 1e-12).sum(axis=1) + 1, V)
    kept_mass = cum[np.arange(S), cut - 1]  # exact below 8 kept ids
    for n in np.unique(cut[cut >= 8]):
        rows = np.flatnonzero(cut == n)
        kept_mass[rows] = ranked[rows, :n].sum(axis=1)
    return order, np.cumsum(ranked / kept_mass[:, None], axis=1), cut


def _draw(tables: tuple, idx: np.ndarray, cfg: SamplerConfig,
          uniform: Callable[[], np.ndarray]) -> np.ndarray:
    """The next token of each job, whose state is row idx[i] of the tables
    `_prepare` built. `uniform()` gives one draw in [0,1) per job; greedy
    mode never calls it."""
    if cfg.mode == "greedy":
        return tables[0][idx]
    order, kept_cum, cut = tables
    cut = cut[idx]
    # the first kept id whose cumulative mass exceeds u; the last one if rounding
    # leaves the total at or below u
    below = (kept_cum[idx] <= uniform()[:, None]) & (np.arange(order.shape[1]) < cut[:, None])
    pick = np.minimum(below.sum(axis=1), cut - 1)
    return order[idx, pick]


class _StateStore:
    """The selection tables of the context states one `generate` call has
    prepared, row `rows[state]` each. It grows by doubling as states come,
    up to `capacity` states, and starts over when a step's new states do
    not fit; `capacity` is at least the states of one step."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.rows: dict[tuple, int] = {}
        self.tables: Optional[tuple] = None

    def lookup(self, states: list[tuple],
               prepare: Callable[[list[tuple]], tuple]) -> tuple[tuple, np.ndarray]:
        """Tables that hold every state, and each state's row in them; the
        states the store lacks are prepared in one `prepare(new)` call."""
        new = [s for s in dict.fromkeys(states) if s not in self.rows]
        if len(self.rows) + len(new) > self.capacity:
            self.rows.clear()
            new = list(dict.fromkeys(states))
        if new:
            self._add(new, prepare(new))
        return self.tables, np.array([self.rows[s] for s in states])

    def _add(self, states: list[tuple], fresh: tuple) -> None:
        n, m = len(self.rows), len(states)
        held = 0 if self.tables is None else len(self.tables[0])
        if n + m > held:
            size = min(self.capacity, max(n + m, 2 * held))
            grown = tuple(np.empty((size, *t.shape[1:]), t.dtype) for t in fresh)
            for new, old in zip(grown, self.tables or ()):
                new[:n] = old[:n]
            self.tables = grown
        for table, rows in zip(self.tables, fresh):
            table[n : n + m] = rows
        self.rows.update(zip(states, range(n, n + m)))


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
    of at most BLOCK_VALUES // |V| rows, and a job that draws EOS leaves
    its block. Within a block every step makes at most one
    `next_distributions` call: over every live job's whole context when
    `lm.context_window` is None, or else over the distinct context states
    (each cut to the last `context_window` ids) that the call's state store
    lacks. Deterministic given (lm, prompt, cfg, job).
    """
    vocab = lm.vocabulary()
    for prompt in prompts:
        check_ids(prompt, len(vocab))
    specials = np.arange(vocab.n_base, len(vocab), dtype=np.int64)
    banned = specials[specials != vocab.eos]
    window = lm.context_window
    block = max(1, BLOCK_VALUES // len(vocab))
    row_bytes = 8 if cfg.mode == "greedy" else 16 * len(vocab) + 8
    state_bytes = row_bytes + 8 * (window or 0) + _KEY_BYTES
    store = _StateStore(max(block, 8 * BLOCK_VALUES // state_bytes))
    outs: list[list[int]] = [[] for _ in prompts]
    for lo in range(0, len(prompts), block):
        jobs = list(range(lo, min(lo + block, len(prompts))))
        contexts = [list(prompts[j]) for j in jobs]
        lanes = XoshiroLanes(cfg.seed, first_job + lo, len(jobs))
        for _ in range(cfg.max_new_tokens):
            if not jobs:
                break
            if window is None:  # whole contexts rarely repeat: nothing is stored
                tables = _prepare(lm.next_distributions(contexts), cfg, banned)
                idx = np.arange(len(jobs))
            else:
                for ctx in contexts:
                    del ctx[: max(0, len(ctx) - window)]
                tables, idx = store.lookup(
                    [tuple(ctx) for ctx in contexts],
                    lambda new: _prepare(lm.next_distributions(new), cfg, banned))
            tokens = _draw(tables, idx, cfg, lanes.uniform)
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
