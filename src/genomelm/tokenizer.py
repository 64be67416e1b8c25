"""k-mer and BPE tokenizers over a shared vocabulary.

Vocabulary layout: nucleotide tokens first (dense ids from 0), then a fixed
block of 32 special-token slots at the top of the id range. For a k-mer
vocabulary the nucleotide block is exactly the 4^k strings over {A,C,G,T}
in lexicographic order (A<C<G<T), so a k-mer's id is its base ranks read
as a base-4 number. That layout is used only here: encoding, decoding,
k-mer counts and the bases of an id.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ContainsAmbiguousBase,
    EmptyCorpus,
    InvalidSymbol,
    SpecialTokenInStream,
    UnknownTokenId,
    VocabularyMismatch,
)
from .seqcore import NucleotideSequence

BASES = "ACGT"
BASE_RANK = {b: i for i, b in enumerate(BASES)}

# byte -> base rank lookup; 255 marks non-ACGT bytes
_DIGIT_LUT = np.full(256, 255, dtype=np.uint8)
_DIGIT_LUT[np.frombuffer(BASES.encode(), dtype=np.uint8)] = np.arange(4)


def _digits(bases: str) -> np.ndarray:
    """Each character's base rank (A,C,G,T -> 0..3), 255 for any other character."""
    # a non-ASCII character encodes to one '?', so index i stays character i
    return _DIGIT_LUT[np.frombuffer(bases.encode("ascii", errors="replace"), dtype=np.uint8)]


def _acgt_digits(bases: str) -> np.ndarray:
    """The base ranks of a string that must hold only A, C, G and T. An N
    anywhere raises ContainsAmbiguousBase; any other character raises
    InvalidSymbol at the first one's position."""
    digits = _digits(bases)
    if (digits == 255).any():
        if "N" in bases:
            raise ContainsAmbiguousBase(f"cannot tokenize N (position {bases.index('N')})")
        bad = int(np.argmax(digits == 255))
        raise InvalidSymbol(bad, bases[bad])
    return digits


def _ranks(windows: np.ndarray) -> np.ndarray:
    """The k-mer id of each row of an n x k array of base ranks."""
    k = windows.shape[1]
    return windows.astype(np.int64) @ 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)


N_SPECIAL_SLOTS = 32
SPECIAL_NAMES = ["<bos>", "<eos>", "<mask>", "<unk>", "<pad>", "<high>", "<mid>", "<low>"]
_SPECIAL_TOKENS = SPECIAL_NAMES + [
    f"<reserved{i}>" for i in range(len(SPECIAL_NAMES), N_SPECIAL_SLOTS)
]


@dataclass(frozen=True)
class Vocabulary:
    """Dense token<->id bijection: the base tokens, then the `<...>` specials.
    Construction checks that layout; a ValueError names the field at fault."""

    tokens: tuple[str, ...]
    n_base: int  # number of non-special tokens; specials are ids n_base..|V|-1

    def __post_init__(self):
        tokens, n_base = self.tokens, self.n_base
        if not tokens or set(map(type, tokens)) != {str} or "" in tokens:
            raise ValueError("tokens: not a non-empty list of non-empty strings")
        if len(set(tokens)) != len(tokens):
            raise ValueError("tokens: not unique")
        if type(n_base) is not int or not 0 < n_base <= len(tokens):
            raise ValueError(f"n_base: {n_base!r} is not in 1..{len(tokens)}")
        if any(t.startswith("<") for t in tokens[:n_base]) or not all(
                t.startswith("<") for t in tokens[n_base:]):
            raise ValueError(f"n_base: {n_base} does not split base tokens from <specials>")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.tokens)}

    @cached_property
    def _base_bytes(self) -> np.ndarray:
        """The base tokens as NUL-padded ASCII strings, indexed by id."""
        return np.array(self.tokens[: self.n_base], dtype=bytes)

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

    def content_hash(self) -> str:
        return hashlib.sha256("\n".join(self.tokens).encode()).hexdigest()[:16]

    def to_record(self) -> dict:
        """The {"tokens", "n_base"} pair a model file stores."""
        return {"tokens": list(self.tokens), "n_base": self.n_base}

    @classmethod
    def from_record(cls, obj: dict) -> "Vocabulary":
        if not isinstance(obj["tokens"], list):
            raise ValueError("tokens: not a list")
        return cls(tokens=tuple(obj["tokens"]), n_base=obj["n_base"])


def check_k(k: int) -> None:
    """Raise ValueError unless k is a k-mer size this package handles, 1..8."""
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= 8:
        raise ValueError(f"k must be in [1,8], got {k!r}")


@lru_cache(maxsize=None)
def kmer_vocabulary(k: int) -> Vocabulary:
    """The k-mer vocabulary; built once per k and shared, as it is immutable."""
    check_k(k)
    kmers = ["".join(p) for p in itertools.product(BASES, repeat=k)]
    return Vocabulary(tokens=tuple(kmers + _SPECIAL_TOKENS), n_base=4**k)


def kmer_encode(seq: NucleotideSequence | str, k: int, offset: int = 0) -> tuple[list[int], str]:
    """Encode to k-mer token ids.

    Returns (ids, tail). The leading `offset` nucleotides are skipped and
    the trailing remainder shorter than k is returned as `tail` rather than
    padded or dropped silently. Every character, skipped ones and the tail
    included, must be A, C, G or T.
    """
    check_k(k)
    if not 0 <= offset < k:
        raise ValueError(f"offset must be in [0,{k - 1}], got {offset}")
    bases = seq.bases if isinstance(seq, NucleotideSequence) else seq
    digits = _acgt_digits(bases)
    end = offset + max(len(bases) - offset, 0) // k * k
    ids = _ranks(digits[offset:end].reshape(-1, k)).tolist()
    return ids, bases[end:]


def kmer_decode(ids: Sequence[int], k: int) -> NucleotideSequence:
    return _decode(ids, kmer_vocabulary(k))


def _decode(ids: Sequence[int], vocab: Vocabulary) -> NucleotideSequence:
    """The bases of base-token ids, looked up as one array: no token is a
    Python object on the way."""
    ids = np.fromiter(ids, dtype=np.intp, count=len(ids))
    if len(ids) and (ids.max() >= vocab.n_base or ids.min() < 0):
        bad = int(ids[(ids >= vocab.n_base) | (ids < 0)][0])
        if bad < 0:
            raise UnknownTokenId(f"token id {bad} outside vocabulary of size {len(vocab)}")
        raise SpecialTokenInStream(bad)
    # tokens hold no NUL, so dropping the padding leaves their bases
    return NucleotideSequence(vocab._base_bytes[ids].tobytes().replace(b"\0", b"").decode())


def kmer_windows(bases: str, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ids) of every k-long window of `bases` that holds only A, C,
    G and T; a window with an N, or any other character, is skipped."""
    check_k(k)
    digits = _digits(bases)
    n = max(len(digits) - k + 1, 0)
    ids, valid = np.zeros(n, dtype=np.int64), np.ones(n, dtype=bool)
    for j in range(k):
        column = digits[j : j + n]
        ids <<= 2
        ids += column
        valid &= column != 255
    starts = np.flatnonzero(valid)
    return starts, ids[starts]


def kmer_count_matrix(seqs: Sequence[str], k: int) -> np.ndarray:
    """The k-mer count vector of each sequence, one row each, from one pass
    over the sequences joined by N, so that no window spans two of them."""
    starts, ids = kmer_windows("N".join(seqs), k)
    ends = np.cumsum([len(s) + 1 for s in seqs])  # each sequence's end, its N included
    rows = np.searchsorted(ends, starts, side="right")
    counts = np.zeros((len(seqs), 4**k))
    np.add.at(counts.reshape(-1), rows * 4**k + ids, 1.0)
    return counts


def base_ranks_at(ids: np.ndarray, k: int, j: int) -> np.ndarray:
    """The rank of base j (0 = first) of each k-mer id."""
    return (ids // 4 ** (k - 1 - j)) % 4


def kmer_substitutions(ids: np.ndarray, k: int, j: int) -> np.ndarray:
    """For each k-mer id, the ids of the three k-mers that differ from it at
    base j only, as columns for the base ranks old+1, old+2, old+3 mod 4."""
    old = base_ranks_at(ids, k, j)[:, None]
    return ids[:, None] + ((old + np.arange(1, 4)) % 4 - old) * 4 ** (k - 1 - j)


# --- BPE ---------------------------------------------------------------------

@dataclass(frozen=True)
class BpeModel:
    """Merges in training order and the vocabulary they built, checked
    against each other so that every lookup `bpe_encode` makes is total."""

    merges: tuple[tuple[str, str], ...]
    vocab: Vocabulary

    def __post_init__(self):
        made = set(BASES)
        for left, right in self.merges:
            if left not in made or right not in made:
                raise ValueError(f"merges: {left!r}+{right!r} joins a token not made before it")
            made.add(left + right)
        if self.vocab.tokens[: self.vocab.n_base] != (*BASES, *(a + b for a, b in self.merges)):
            raise ValueError("tokens: base tokens are not ACGT, then each merge's concatenation")

    def to_json(self) -> str:
        return json.dumps({"merges": [list(m) for m in self.merges], **self.vocab.to_record()})

    @classmethod
    def from_json(cls, text: str) -> "BpeModel":
        obj = json.loads(text)
        if not all(type(m) is list and len(m) == 2 for m in obj["merges"]):
            raise ValueError("merges: not a list of [left, right] pairs")
        return cls(merges=tuple(map(tuple, obj["merges"])), vocab=Vocabulary.from_record(obj))


def bpe_train(corpus: Sequence[NucleotideSequence | str], target_vocab: int) -> BpeModel:
    """Greedy pair-merge training.

    target_vocab counts base symbols, merged tokens and the 32 special
    slots. Ties between equally frequent pairs break by lexicographic
    order of the concatenated pair, then by first occurrence in the
    corpus, so training is deterministic.
    """
    if target_vocab < 4 + N_SPECIAL_SLOTS:
        raise ValueError(
            f"target_vocab must be at least {4 + N_SPECIAL_SLOTS}, got {target_vocab}"
        )
    words = [_acgt_digits(s.bases if isinstance(s, NucleotideSequence) else s) for s in corpus]
    words = [w.astype(np.int64) for w in words if w.size]
    if not words:
        raise EmptyCorpus("BPE training corpus is empty")

    # The whole corpus as one stream of symbol ids, -1 between words so no
    # pair spans two words. A symbol id indexes `tokens`. A concatenation
    # made twice would be a duplicate token, which Vocabulary rejects.
    stream = np.concatenate([part for w in words for part in (w, [-1])][:-1])
    merges: list[tuple[str, str]] = []
    tokens = list(BASES)
    while len(tokens) + N_SPECIAL_SLOTS < target_vocab:
        pair = _most_frequent_pair(stream, tokens)
        if pair is None:
            break
        left, right = pair
        merges.append((tokens[left], tokens[right]))
        tokens.append(tokens[left] + tokens[right])
        stream = _merge_pair(stream, left, right, len(tokens) - 1)

    vocab = Vocabulary(tokens=tuple(tokens + _SPECIAL_TOKENS), n_base=len(tokens))
    return BpeModel(merges=tuple(merges), vocab=vocab)


def _most_frequent_pair(
    stream: np.ndarray, tokens: list[str]
) -> Optional[tuple[int, int]]:
    """The adjacent symbol pair to merge next, or None if none repeats.

    The highest count wins; among equal counts the smallest concatenation,
    and among pairs with equal concatenations (("A","CG") and ("AC","G"))
    the one that occurs first in the stream.
    """
    left, right = stream[:-1], stream[1:]
    both = (left >= 0) & (right >= 0)
    width = len(tokens)
    codes = left[both] * width + right[both]
    if codes.size == 0:
        return None
    uniq, counts = np.unique(codes, return_counts=True)
    top = counts.max()
    if top < 2:
        return None
    tied = [divmod(int(c), width) for c in uniq[counts == top]]
    concat = min(tokens[a] + tokens[b] for a, b in tied)
    tied = [(a, b) for a, b in tied if tokens[a] + tokens[b] == concat]
    return min(tied, key=lambda p: np.argmax(codes == p[0] * width + p[1]))


def _merge_pair(word: np.ndarray, left: int, right: int, merged: int) -> np.ndarray:
    """`word` with each (left, right) occurrence replaced by `merged`.

    Occurrences merge left to right: two can overlap only when left ==
    right, and in a run of overlapping occurrences every other one merges,
    starting with the first.
    """
    cand = np.flatnonzero((word[:-1] == left) & (word[1:] == right))
    if cand.size == 0:
        return word
    idx = np.arange(cand.size)
    run_start = np.maximum.accumulate(
        np.where(np.diff(cand, prepend=-2) != 1, idx, 0)
    )
    keep = cand[(idx - run_start) % 2 == 0]
    out = np.delete(word, keep + 1)
    # each merge before a kept occurrence shifted it left by one
    out[keep - np.arange(keep.size)] = merged
    return out


def bpe_encode(seq: NucleotideSequence | str, model: BpeModel) -> list[int]:
    word = _acgt_digits(seq.bases if isinstance(seq, NucleotideSequence) else seq).astype(np.int64)
    index = model.vocab.index
    # Merges are applied in training order, each the way training applied it.
    for left, right in model.merges:
        word = _merge_pair(word, index[left], index[right], index[left + right])
    return word.tolist()


def bpe_decode(ids: Sequence[int], model: BpeModel) -> NucleotideSequence:
    return _decode(ids, model.vocab)


# --- facade used by the benchmark and scoring code ---------------------------

class KmerTokenizer:
    """A k-mer vocabulary, built once, with encode/decode at its k. Both go
    through the pure functions `kmer_encode` and `kmer_decode`."""

    def __init__(self, k: int):
        self.k = k
        self.vocab = kmer_vocabulary(k)

    @classmethod
    def for_vocabulary(cls, vocab: Vocabulary) -> "KmerTokenizer":
        """The tokenizer of the k-mer vocabulary `vocab`; any other
        vocabulary, a BPE one for instance, raises VocabularyMismatch."""
        k = len(vocab.tokens[0])
        tokenizer = cls(k) if 1 <= k <= 8 else None
        if tokenizer is None or tokenizer.vocab != vocab:
            raise VocabularyMismatch(f"not a k-mer vocabulary: {len(vocab)} tokens")
        return tokenizer

    def encode(self, bases: str, offset: int = 0) -> list[int]:
        return kmer_encode(bases, self.k, offset)[0]

    def decode(self, ids: Sequence[int]) -> str:
        return kmer_decode(ids, self.k).bases
