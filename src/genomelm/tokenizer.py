"""k-mer and BPE tokenizers over a shared vocabulary.

Vocabulary layout: nucleotide tokens first (dense ids from 0), then a fixed
block of 32 special-token slots at the top of the id range. For a k-mer
vocabulary the nucleotide block is exactly the 4^k strings over {A,C,G,T}
in lexicographic order (A<C<G<T), so token ids are index-computable.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ContainsAmbiguousBase,
    EmptyCorpus,
    InvalidSymbol,
    OffsetOutOfRange,
    SpecialTokenInStream,
)
from .seqcore import NucleotideSequence

BASES = "ACGT"
_BASE_INDEX = {b: i for i, b in enumerate(BASES)}

# byte -> base rank lookup; 255 marks non-ACGT bytes
_DIGIT_LUT = np.full(256, 255, dtype=np.uint8)
for _b, _i in _BASE_INDEX.items():
    _DIGIT_LUT[ord(_b)] = _i

N_SPECIAL_SLOTS = 32
SPECIAL_NAMES = ["<bos>", "<eos>", "<mask>", "<unk>", "<pad>", "<high>", "<mid>", "<low>"]
_SPECIAL_TOKENS = SPECIAL_NAMES + [
    f"<reserved{i}>" for i in range(len(SPECIAL_NAMES), N_SPECIAL_SLOTS)
]


@dataclass(frozen=True)
class Vocabulary:
    """Dense token<->id bijection with special ids in the top range."""

    tokens: tuple[str, ...]
    n_base: int  # number of non-special tokens; specials are ids n_base..|V|-1

    @cached_property
    def _index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.tokens)}

    @property
    def index(self) -> dict[str, int]:
        # A plain property over the cached dict: perfbench's tracer wraps
        # `Vocabulary.index` as a property.
        return self._index

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self.index[token]

    def is_special(self, token_id: int) -> bool:
        return token_id >= self.n_base

    @property
    def bos(self) -> int:
        return self.n_base

    @property
    def eos(self) -> int:
        return self.n_base + 1

    @property
    def mask(self) -> int:
        return self.n_base + 2

    @property
    def unk(self) -> int:
        return self.n_base + 3

    @property
    def pad(self) -> int:
        return self.n_base + 4

    def prefix_id(self, name: str) -> int:
        """Id of a conditioning prefix token such as '<high>'."""
        return self.id_of(name)

    def content_hash(self) -> str:
        return hashlib.sha256("\n".join(self.tokens).encode()).hexdigest()[:16]

    def to_json(self) -> str:
        return json.dumps({"tokens": list(self.tokens), "n_base": self.n_base})

    @classmethod
    def from_json(cls, text: str) -> "Vocabulary":
        obj = json.loads(text)
        return cls(tokens=tuple(obj["tokens"]), n_base=obj["n_base"])


@lru_cache(maxsize=None)
def kmer_vocabulary(k: int) -> Vocabulary:
    """The k-mer vocabulary; built once per k and shared, as it is immutable."""
    if not 1 <= k <= 8:
        raise ValueError(f"k must be in [1,8], got {k}")
    kmers = ["".join(p) for p in itertools.product(BASES, repeat=k)]
    return Vocabulary(tokens=tuple(kmers + _SPECIAL_TOKENS), n_base=4**k)


def kmer_id(kmer: str) -> int:
    """Lexicographic rank of a k-mer; the token id in a k-mer vocabulary."""
    rank = 0
    for ch in kmer:
        rank = rank * 4 + _BASE_INDEX[ch]
    return rank


def token_char(vocab: Vocabulary, token_id: int, j: int) -> str:
    """The j-th nucleotide of a non-special token."""
    if vocab.is_special(token_id):
        raise SpecialTokenInStream(token_id)
    token = vocab.tokens[token_id]
    if not 0 <= j < len(token):
        raise OffsetOutOfRange(f"offset {j} outside token of length {len(token)}")
    return token[j]


@dataclass
class KmerSpec:
    """k-mer tokenization config. offset=None draws uniform offsets per call."""

    k: int
    offset: Optional[int] = 0
    seed: Optional[int] = None
    _rng: Optional[random.Random] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.k <= 8:
            raise ValueError(f"k must be in [1,8], got {self.k}")
        if self.offset is not None and not 0 <= self.offset < self.k:
            raise ValueError(f"fixed offset must be in [0,{self.k - 1}]")
        # Only a drawn offset needs a generator, and an unseeded one is seeded
        # from the OS: a cost every fixed-offset encode and decode would pay.
        self._rng = random.Random(self.seed) if self.offset is None else None

    def draw_offset(self) -> int:
        if self.offset is not None:
            return self.offset
        return self._rng.randrange(self.k)


def kmer_encode(
    seq: NucleotideSequence | str, spec: KmerSpec
) -> tuple[int, list[int], str]:
    """Encode to k-mer token ids.

    Returns (offset_used, ids, tail). The leading `offset_used` nucleotides
    are skipped and the trailing remainder shorter than k is returned as
    `tail` rather than padded or dropped silently.
    """
    bases = seq.bases if isinstance(seq, NucleotideSequence) else seq
    if "N" in bases:
        raise ContainsAmbiguousBase("cannot k-mer encode a sequence containing N")
    offset = spec.draw_offset()
    k = spec.k
    body = bases[offset:]
    n_tokens = len(body) // k
    digits = _DIGIT_LUT[
        np.frombuffer(body[: n_tokens * k].encode("ascii"), dtype=np.uint8)
    ]
    if (digits == 255).any():
        bad = int(np.argmax(digits == 255))
        raise InvalidSymbol(offset + bad, body[bad])
    powers = 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    ids = (digits.reshape(n_tokens, k).astype(np.int64) @ powers).tolist()
    tail = body[n_tokens * k :]
    return offset, ids, tail


def kmer_decode(ids: Sequence[int], spec: KmerSpec) -> NucleotideSequence:
    return _decode(ids, kmer_vocabulary(spec.k))


def _decode(ids: Sequence[int], vocab: Vocabulary) -> NucleotideSequence:
    if len(ids) and max(ids) >= vocab.n_base:
        raise SpecialTokenInStream(next(t for t in ids if vocab.is_special(t)))
    return NucleotideSequence("".join([vocab.tokens[t] for t in ids]))


# --- BPE ---------------------------------------------------------------------

@dataclass(frozen=True)
class BpeModel:
    merges: tuple[tuple[str, str], ...]
    vocab: Vocabulary

    def to_json(self) -> str:
        return json.dumps(
            {
                "merges": [list(m) for m in self.merges],
                "tokens": list(self.vocab.tokens),
                "n_base": self.vocab.n_base,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "BpeModel":
        obj = json.loads(text)
        return cls(
            merges=tuple((a, b) for a, b in obj["merges"]),
            vocab=Vocabulary(tokens=tuple(obj["tokens"]), n_base=obj["n_base"]),
        )


def bpe_train(corpus: Sequence[NucleotideSequence | str], target_vocab: int) -> BpeModel:
    """Greedy pair-merge training.

    target_vocab counts base symbols, merged tokens and the 32 special
    slots. Ties between equally frequent pairs break by lexicographic
    order of the concatenated pair, so training is deterministic.
    """
    if target_vocab < 4 + N_SPECIAL_SLOTS:
        raise ValueError(
            f"target_vocab must be at least {4 + N_SPECIAL_SLOTS}, got {target_vocab}"
        )
    seqs = []
    for s in corpus:
        bases = s.bases if isinstance(s, NucleotideSequence) else s
        if "N" in bases:
            raise ContainsAmbiguousBase("BPE corpus must be N-free")
        if bases:
            seqs.append(list(bases))
    if not seqs:
        raise EmptyCorpus("BPE training corpus is empty")

    merges: list[tuple[str, str]] = []
    tokens = list(BASES)
    while len(tokens) + N_SPECIAL_SLOTS < target_vocab:
        counts: dict[tuple[str, str], int] = {}
        for word in seqs:
            for pair in zip(word, word[1:]):
                counts[pair] = counts.get(pair, 0) + 1
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0][0] + kv[0][1]))
        if best[1] < 2:
            break
        pair = best[0]
        merged = pair[0] + pair[1]
        merges.append(pair)
        tokens.append(merged)
        seqs = [_apply_merge(word, pair, merged) for word in seqs]

    vocab = Vocabulary(tokens=tuple(tokens + _SPECIAL_TOKENS), n_base=len(tokens))
    return BpeModel(merges=tuple(merges), vocab=vocab)


def _apply_merge(word: list[str], pair: tuple[str, str], merged: str) -> list[str]:
    out = []
    i = 0
    while i < len(word):
        if i + 1 < len(word) and word[i] == pair[0] and word[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(word[i])
            i += 1
    return out


def bpe_encode(seq: NucleotideSequence | str, model: BpeModel) -> list[int]:
    bases = seq.bases if isinstance(seq, NucleotideSequence) else seq
    if "N" in bases:
        raise ContainsAmbiguousBase("cannot BPE encode a sequence containing N")
    if not bases:
        return []
    index = model.vocab.index
    word = _DIGIT_LUT[np.frombuffer(bases.encode("ascii"), dtype=np.uint8)].astype(
        np.int64
    )
    if (word == 255).any():
        bad = int(np.argmax(word == 255))
        raise InvalidSymbol(bad, bases[bad])
    # Merges are applied in training order; within one merge, occurrences
    # merge left to right so overlapping candidates (only possible when the
    # pair is a doubled token) resolve the same way training did.
    for left, right in model.merges:
        lid, rid, mid = index[left], index[right], index[left + right]
        cand = np.nonzero((word[:-1] == lid) & (word[1:] == rid))[0]
        if cand.size == 0:
            continue
        keep = []
        prev = -2
        for i in cand.tolist():
            if i == prev + 1:
                continue
            keep.append(i)
            prev = i
        keep_arr = np.asarray(keep)
        word[keep_arr] = mid
        drop = np.zeros(len(word), dtype=bool)
        drop[keep_arr + 1] = True
        word = word[~drop]
    return word.tolist()


def bpe_decode(ids: Sequence[int], model: BpeModel) -> NucleotideSequence:
    return _decode(ids, model.vocab)


# --- facade used by the benchmark and scoring code ---------------------------

class KmerTokenizer:
    """Bundles a k-mer vocabulary with encode/decode at a fixed k."""

    def __init__(self, k: int):
        self.k = k
        self.vocab = kmer_vocabulary(k)

    def encode(self, bases: str, offset: int = 0) -> list[int]:
        _, ids, _ = kmer_encode(bases, KmerSpec(self.k, offset=offset))
        return ids

    def decode(self, ids: Sequence[int]) -> str:
        return kmer_decode(ids, KmerSpec(self.k)).bases
