"""Causal language-model contract, an interpolated Markov reference model,
and a JSON-lines bridge to external models.

All log probabilities are base-e.
"""
from __future__ import annotations

import array
import contextlib
import json
import math
import os
import select
import socket
import subprocess
import time
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import (
    BadModelFile,
    BadSmoothing,
    BadValue,
    BridgeTimeout,
    EmptyCorpus,
    PeerUnavailable,
    ProtocolViolation,
    UnknownTokenId,
    VocabularyMismatch,
)
from .seqcore import reading_model
from .tokenizer import Vocabulary


@dataclass(frozen=True)
class TokenDistribution:
    """One next-token distribution, as the single-context wrappers return it."""
    probs: np.ndarray


@runtime_checkable
class CausalLm(Protocol):
    """Anything that maps token-id contexts to next-token distributions.

    `next_distributions(contexts)` returns a new (len(contexts), |V|)
    array, one row per context, which the caller may write into.
    `context_window` is how many trailing context ids the model reads, or
    None when it may read them all; callers pass no more than that.

    A row depends on the model and its own context only, not on the other
    contexts of the batch or on the calls before it. With a finite
    `context_window`, it is a function of the last `context_window` ids
    only, so a caller may reuse the row of one such tail for every context
    that ends in it (`generate` does).
    """

    context_window: Optional[int]

    def next_distributions(self, contexts: Sequence[Sequence[int]]) -> np.ndarray: ...

    def vocabulary(self) -> Vocabulary: ...


class MarkovLm:
    """Order-n count model: lambda-weighted mixture of add-alpha estimates.

    Per order o in 0..n the estimate for token t given the last o context
    ids c is (count(c,t) + alpha) / (count(c,*) + alpha*|V|); the emitted
    distribution is sum_o lambda_o * estimate_o, strictly positive.

    The counts of each order are sorted arrays in compressed-row form: the
    observed contexts as ascending int64 keys, each context's row start in
    the entry arrays (`offsets`, one more than the contexts), and the
    entries' int32 token ids (ascending within a row) and int64 counts.
    The order-o context c_1..c_o has the key r * |V| + c_1, where r is the
    row of its suffix c_2..c_o among the order-(o-1) contexts. A suffix of
    an observed context is observed too, so every key is below (contexts
    of order o-1) * |V| at any order. The empty context of order 0 has key 0.

    `train_markov` counts a whole corpus in one pass and `observe` merges
    one more sequence in. `next_distributions` reads the rows of a batch
    of contexts and `logprobs` scores every position of a sequence: both
    find each context's row at every order by `_rows` and read the terms
    `_derive` builds. `save` writes one .npz file that `load` checks.
    `MarkovLm.uniform` is the untrained order-0 model, the random baseline.
    """

    FORMAT_VERSION = 2

    def __init__(self, vocab: Vocabulary, order: int, alpha: float, lambdas: Sequence[float]):
        if order < 0:
            raise BadSmoothing(f"order must be >= 0, got {order}")
        if not math.isfinite(alpha):
            raise BadSmoothing(f"alpha must be finite, got {alpha}")
        if alpha <= 0:
            raise BadSmoothing(f"alpha must be > 0, got {alpha}")
        lambdas = [float(x) for x in lambdas]
        if len(lambdas) != order + 1:
            raise BadSmoothing(f"need {order + 1} interpolation weights, got {len(lambdas)}")
        if not all(map(math.isfinite, lambdas)):
            raise BadSmoothing(f"interpolation weights must be finite, got {lambdas}")
        if any(x < 0 for x in lambdas) or abs(sum(lambdas) - 1.0) > 1e-9:
            raise BadSmoothing("interpolation weights must be a simplex")
        self._vocab = vocab
        self.order = order
        self.alpha = alpha
        self.lambdas = lambdas
        empty = np.empty(0, dtype=np.int64)
        # per order: context keys, row offsets, entry token ids, entry counts
        self._arrays = [(empty, np.zeros(1, dtype=np.int64), _NO_IDS, empty)] * (order + 1)
        self._derived = None  # what _derive builds from the counts, until they change
        # the estimate after a context never observed, at any order
        self._unseen_estimate = alpha / (alpha * len(vocab))

    @classmethod
    def uniform(cls, vocab: Vocabulary) -> "MarkovLm":
        """The untrained order-0 model: every token has probability 1/|V|."""
        return cls(vocab, 0, 1.0, [1.0])

    @property
    def context_window(self) -> int:
        return self.order

    def vocabulary(self) -> Vocabulary:
        return self._vocab

    @property
    def counts(self) -> list[dict[tuple, dict[int, int]]]:
        """Per order, {context tuple: {token id: count}}: a copy, for inspection."""
        V = len(self._vocab)
        tables, contexts = [], [()]
        for o, (keys, offsets, tokens, counts) in enumerate(self._arrays):
            contexts = [(key % V,) + contexts[key // V] if o else () for key in keys.tolist()]
            bounds = offsets.tolist()
            tokens, counts = tokens.tolist(), counts.tolist()
            tables.append({
                ctx: dict(zip(tokens[lo:hi], counts[lo:hi]))
                for ctx, lo, hi in zip(contexts, bounds, bounds[1:])
            })
        return tables

    def observe(self, ids: Sequence[int]) -> None:
        self._add([ids])

    def _add(self, seqs: Sequence[Sequence[int]]) -> None:
        """Merge the windows of every sequence into the count arrays: per
        order, one np.unique ranks the contexts and one counts the entries."""
        V = len(self._vocab)
        for ids in seqs:
            check_ids(ids, V)
        seqs = [ids for ids in seqs if len(ids)]
        if not seqs:
            return
        self._derived = None
        stream = np.concatenate([np.asarray(ids, dtype=np.int64) for ids in seqs])
        depth = np.concatenate([np.arange(len(ids)) for ids in seqs])  # index in its sequence
        at = np.arange(len(stream))  # positions that have a context of the current order
        rows = np.zeros(len(stream), dtype=np.int64)  # ...and that context's row
        moved = np.zeros(1, dtype=np.int64)  # old row -> merged row, one order down
        for o, (old_keys, old_offsets, old_tokens, old_counts) in enumerate(self._arrays):
            if o:
                keep = depth[at] >= o
                at = at[keep]
                new_keys = rows[keep] * V + stream[at - o]
                old_keys = moved[old_keys // V] * V + old_keys % V
            else:
                new_keys = rows
            keys, inverse = np.unique(np.concatenate([old_keys, new_keys]), return_inverse=True)
            moved, rows = inverse[: len(old_keys)], inverse[len(old_keys) :]
            entries, counts = np.unique(rows * V + stream[at], return_counts=True)
            if len(old_tokens):
                old_entries = np.repeat(moved, np.diff(old_offsets)) * V + old_tokens
                added = counts
                entries, inverse = np.unique(np.concatenate([old_entries, entries]),
                                             return_inverse=True)
                counts = np.zeros(len(entries), dtype=np.int64)
                np.add.at(counts, inverse, np.concatenate([old_counts, added]))
            offsets = np.searchsorted(entries // V, np.arange(len(keys) + 1))
            self._arrays[o] = (keys, offsets, (entries % V).astype(np.int32), counts)

    def next_distribution(self, context: Sequence[int]) -> TokenDistribution:
        """The row of one context: kept only because the benchmark harness
        (perfbench) calls and traces it by name; it goes when that moves to
        `next_distributions`."""
        return TokenDistribution(self.next_distributions([context])[0])

    def next_distributions(self, contexts: Sequence[Sequence[int]]) -> np.ndarray:
        """The next-token distribution after each context, one row each.

        Each row starts from the dense order-0 row (0.0 + x == x) and adds
        the higher orders' terms in place, so a row is the same sum, bit
        for bit, in any batch and in `logprobs`.
        """
        V, n = len(self._vocab), self.order
        for ctx in contexts:
            check_ids(ctx, V)
        base, orders = self._derived or self._derive()
        tails = [list(ctx[-n:]) if n and len(ctx) else [] for ctx in contexts]
        last = np.array([[_PAD] * (n - len(t)) + t for t in tails], dtype=np.int64)
        probs = None
        for o, rows in self._rows(orders, last.reshape(len(contexts), n)):
            _, offsets, tokens, _, terms, rest = orders[o]
            lo = offsets[rows]
            lens = offsets[rows + 1] - lo
            entry = np.arange(lens.sum()) + (lo - lens.cumsum() + lens).repeat(lens)
            # probs += lam * (the estimate: its entries' terms in their cells, `rest` elsewhere)
            cells = np.arange(len(contexts)).repeat(lens) * V + tokens[entry]
            if probs is None:  # the first order adds to the order-0 row
                seen = base[tokens[entry]] + terms[entry]
                probs = base + rest[rows][:, None]
            else:
                seen = probs.reshape(-1)[cells] + terms[entry]
                probs += rest[rows][:, None]
            probs.reshape(-1)[cells] = seen
        if probs is None:
            probs = np.tile(base, (len(contexts), 1))
        return probs

    def logprobs(self, ids: Sequence[int]) -> np.ndarray:
        """log p(ids[i] | ids[:i]) for every position i: each position's
        cell of the row `next_distributions` gives after ids[:i], summed
        in the same order, so each probability is the same bits."""
        V, n = len(self._vocab), self.order
        check_ids(ids, V)
        base, orders = self._derived or self._derive()
        ids = np.asarray(ids, dtype=np.int64)
        # each position's previous n ids, oldest first
        last = np.append(np.full(n, _PAD), ids)[np.arange(len(ids))[:, None] + np.arange(n)]
        probs = base[ids]
        for o, rows in self._rows(orders, last):
            _, _, _, entry_keys, terms, rest = orders[o]
            query = rows * V + ids
            j = np.searchsorted(entry_keys, query)
            probs += np.where(entry_keys[j] == query, terms[j], rest[rows])
        return np.log(probs)

    def _rows(self, orders: list, last: np.ndarray):
        """(o, rows) for each order o in 1..n whose lambda is not 0: the row
        of `orders[o]` that each context reads. `last` holds each context's
        last n ids, oldest first, padded on the left with an id that no
        stored key holds. One searchsorted per order; an unseen context
        reads the empty row after the last, and so does every longer one."""
        V, n = len(self._vocab), last.shape[1]
        rows = np.zeros(len(last), dtype=np.int64)
        for o in range(1, n + 1):
            keys = orders[o][0]
            key = rows * V + last[:, n - o]
            at = np.searchsorted(keys, key)
            rows = np.where(keys[at] == key, at, len(keys) - 1)
            if self.lambdas[o] != 0.0:
                yield o, rows

    def _derive(self) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]]]:
        """Per order o, lambda_o times the add-alpha estimate after each
        observed context: its key, row offsets, token ids, each entry's
        flat key (row * |V| + token) and term, and each row's term for
        every token without an entry. One more row, keyed above every key
        and with no entries, stands for every unseen context, and one more
        entry, keyed above every entry with term 0, ends the entries. And
        the dense order-0 row."""
        V = len(self._vocab)
        orders = []
        for lam, (keys, offsets, tokens, counts) in zip(self.lambdas, self._arrays):
            totals = np.add.reduceat(counts, offsets[:-1]) if len(counts) else counts
            denom = totals + self.alpha * V
            terms = lam * ((counts + self.alpha) / denom.repeat(np.diff(offsets)))
            rest = np.append(lam * (self.alpha / denom), lam * self._unseen_estimate)
            entry_keys = np.arange(len(keys)).repeat(np.diff(offsets)) * V + tokens
            orders.append((np.append(keys, _NO_KEY), np.append(offsets, offsets[-1]), tokens,
                           np.append(entry_keys, _NO_KEY), np.append(terms, 0.0), rest))
        _, _, tokens, _, terms, rest = orders[0]
        base = np.full(V, rest[0])  # the empty context's row, observed or not
        base[tokens] = terms[:-1]
        self._derived = base, orders
        return self._derived

    # --- persistence: one .npz file, a JSON header and four arrays per order --

    def save(self, path) -> None:
        header = {
            "format_version": self.FORMAT_VERSION,
            "vocab_hash": self._vocab.content_hash(),
            "vocab": self._vocab.to_record(),
            "order": self.order,
            "alpha": self.alpha,
            "lambdas": self.lambdas,
        }
        arrays = {"header": np.array(json.dumps(header, sort_keys=True))}
        for o, values in enumerate(self._arrays):
            arrays.update((f"{name}_{o}", a) for name, a in zip(_DTYPES, values))
        with open(path, "wb") as fh:  # a file object: np.savez would append .npz to a name
            np.savez(fh, **arrays)

    @classmethod
    def load(cls, path) -> "MarkovLm":
        with open(path, "rb") as fh:
            magic = fh.read(len(_NPZ_MAGIC))
            if magic != _NPZ_MAGIC:
                hint = ("; it looks like a format-1 (JSON-lines) model: retrain it with "
                        "`genomelm train-markov`" if magic[:1] == b"{" else "")
                raise BadModelFile(f"{path}: not a format-{cls.FORMAT_VERSION} (.npz) model{hint}")
            fh.seek(0)
            arrays, name = {}, None
            try:
                with np.load(fh, allow_pickle=False) as npz:
                    for name in npz.files:
                        arrays[name] = npz[name]
                        if not isinstance(arrays[name], np.ndarray):
                            raise BadValue("not a .npy array")
            except Exception as exc:  # zipfile and NumPy fail a corrupt archive in many types
                where = path if name is None else f"{path}: {name}"
                raise BadModelFile(f"{where}: {exc}") from exc
        model = cls._from_header(path, arrays.pop("header", None))
        unexpected = sorted(set(arrays) - {
            f"{name}_{o}" for o in range(model.order + 1) for name in _DTYPES
        })
        if unexpected:
            raise BadModelFile(
                f"{path}: {unexpected[0]}: not an array of an order-{model.order} model"
            )
        n_below = 1  # contexts one order down; the empty context is the one order-0 key
        for o in range(model.order + 1):
            model._arrays[o] = _checked_counts(path, o, arrays, n_below, len(model._vocab))
            n_below = len(model._arrays[o][0]) * len(model._vocab)
        return model

    @classmethod
    def _from_header(cls, path, header) -> "MarkovLm":
        if header is None or header.dtype.kind != "U" or header.ndim != 0:
            raise BadModelFile(f"{path}: header: missing, or not a JSON string")
        with reading_model(f"{path}: header"):
            header = json.loads(str(header))
            if header.get("format_version") != cls.FORMAT_VERSION:
                raise BadValue(f"unsupported model format: {header.get('format_version')}")
            vocab = Vocabulary.from_record(header["vocab"])
            if header.get("vocab_hash") != vocab.content_hash():
                raise VocabularyMismatch(
                    f"{path}: vocab_hash {header.get('vocab_hash')!r} does not match "
                    f"the stored tokens ({vocab.content_hash()!r})"
                )
            order = header["order"]
            if type(order) is not int:
                raise BadValue(f"order {order!r} is not an integer")
            return cls(vocab, order, header["alpha"], header["lambdas"])


# the arrays of each order in a model file, and their types
_DTYPES = {"contexts": np.int64, "offsets": np.int64, "tokens": np.int32, "counts": np.int64}
_NO_IDS = np.empty(0, dtype=np.int32)
_PAD = 2**62  # an id no stored key holds: a key is below (contexts one order down) * |V|
_NO_KEY = np.iinfo(np.int64).max  # the key of the empty row and of the entry that end an order
_NPZ_MAGIC = b"PK\x03\x04"  # a zip archive, as np.savez writes
_MAX_TOTAL = 2.0**53  # counts sum to less, so every total is exact as a float


def _checked_counts(path, o: int, arrays: dict, n_keys: int, V: int) -> tuple:
    """The order-o arrays of a model file, checked against each other:
    context keys below n_keys, sorted and unique; offsets rising from 0 to
    the entry count; token ids in the vocabulary and ascending within a
    row; counts of at least 1, summing to less than 2^53."""
    names = [f"{name}_{o}" for name in _DTYPES]
    for name, dtype in zip(names, _DTYPES.values()):
        a = arrays.get(name)
        if a is None:
            raise BadModelFile(f"{path}: {name}: missing")
        if a.dtype != dtype or a.ndim != 1:
            raise BadModelFile(f"{path}: {name}: expected a 1-d {np.dtype(dtype)} array, "
                               f"got a {a.ndim}-d {a.dtype} array")
    kname, oname, tname, cname = names
    keys, offsets, tokens, counts = (arrays[name] for name in names)

    def bad(name, what):
        raise BadModelFile(f"{path}: {name}: {what}")

    if (np.diff(keys) <= 0).any():
        bad(kname, "keys are not sorted and unique")
    if len(keys) and (keys[0] < 0 or keys[-1] >= n_keys):
        bad(kname, f"key outside 0..{n_keys - 1}")
    if len(offsets) != len(keys) + 1:
        bad(oname, f"{len(offsets)} offsets for {len(keys)} contexts")
    if offsets[0] != 0 or (np.diff(offsets) <= 0).any():
        bad(oname, "offsets do not rise from 0")
    if offsets[-1] != len(tokens):
        bad(oname, f"offsets end at {offsets[-1]}, not at the token count {len(tokens)}")
    if len(tokens) and (tokens.min() < 0 or tokens.max() >= V):
        bad(tname, f"token id outside vocabulary of size {V}")
    rising = np.diff(tokens) > 0
    rising[offsets[1:-1] - 1] = True  # a row may start below the last one's end
    if not rising.all():
        bad(tname, "token ids are not sorted and unique within a row")
    if len(counts) != len(tokens):
        bad(cname, f"{len(counts)} counts for {len(tokens)} tokens")
    if len(counts) and counts.min() < 1:
        bad(cname, "count below 1")
    if counts.sum(dtype=float) >= _MAX_TOTAL:  # or a total could round, or wrap as int64
        bad(cname, "counts sum to 2^53 or more")
    return keys, offsets, tokens, counts


def check_vocabulary(model: CausalLm, vocab: Vocabulary) -> None:
    """Raise VocabularyMismatch unless `model` reads and emits `vocab`'s tokens."""
    if model.vocabulary().tokens != vocab.tokens:
        raise VocabularyMismatch("tokenizer vocabulary does not match the model vocabulary")


def check_ids(ids: Sequence[int], V: int) -> None:
    """Raise UnknownTokenId naming the first id outside 0..V-1."""
    if len(ids) and not (0 <= min(ids) and max(ids) < V):
        bad = next(t for t in ids if not 0 <= t < V)
        raise UnknownTokenId(f"token id {bad} outside vocabulary of size {V}")


def context_start(model: CausalLm, n_nt: int, k: int) -> int:
    """Where an n_nt-long nucleotide context must start to end on a k-mer
    token boundary and hold no more tokens than `model` reads."""
    start = n_nt % k
    if model.context_window is not None:
        start = max(start, n_nt - model.context_window * k)
    return start


def train_markov(
    corpus: Sequence[Sequence[int]],
    vocab: Vocabulary,
    order: int,
    alpha: float = 0.1,
    lambdas: Optional[Sequence[float]] = None,
) -> MarkovLm:
    """Accumulate counts for all orders 0..order over token-id sequences.

    Default interpolation weights put most mass on the highest order:
    lambda_o proportional to 2^o.
    """
    seqs = [s for s in corpus if len(s)]
    if not seqs:
        raise EmptyCorpus("Markov training corpus is empty")
    if lambdas is None:
        raw = [2.0**o for o in range(order + 1)]
        lambdas = [x / sum(raw) for x in raw]
    model = MarkovLm(vocab, order, alpha, lambdas)
    model._add(seqs)
    return model


def sequence_logprob(model: MarkovLm, ids: Sequence[int]) -> float:
    """Sum of log p(ids[i] | ids[:i]), by the model's `logprobs`."""
    if not len(ids):
        raise BadValue("cannot score an empty id sequence")
    return float(model.logprobs(ids).sum())


# --- bridge ------------------------------------------------------------------

class BridgeModel:
    """CausalLm over a JSON-lines peer (subprocess stdio or TCP). Each reply has
    one deadline, and a peer that missed one is not read again (_Peer.roundtrip).

    Requests: {"op":"next","context":[ids]} -> {"probs":[...]} or
    {"top":[[id,logprob],...],"rest_mass":r}; {"op":"vocab"} ->
    {"tokens":[...]}, the `<...>` special tokens last, as Vocabulary lays
    them out. The peer is sent the whole context: the protocol does not
    say how much of it a peer reads. `_row` is the one parser of a `next`
    reply: every check on what the peer sends is made there.
    """

    context_window = None

    def __init__(self, peer: "_Peer", timeout: float = 30.0):
        self._peer = peer
        self.timeout = timeout
        try:
            tokens = self._call({"op": "vocab"}).get("tokens")
            if not isinstance(tokens, list):
                raise ProtocolViolation("vocab reply missing token list")
            n_special = sum(1 for t in tokens if isinstance(t, str) and t.startswith("<"))
            try:
                self._vocab = Vocabulary(tokens=tuple(tokens), n_base=len(tokens) - n_special)
            except ValueError as exc:
                raise ProtocolViolation(f"vocab reply: {exc}") from None
        except BaseException:
            peer.close()
            raise

    def vocabulary(self) -> Vocabulary:
        return self._vocab

    def next_distribution(self, context: Sequence[int]) -> TokenDistribution:
        """The row of one context: kept only because the benchmark harness
        (perfbench) calls and traces it by name; it goes when that moves to
        `next_distributions`."""
        return TokenDistribution(self.next_distributions([context])[0])

    def next_distributions(self, contexts: Sequence[Sequence[int]]) -> np.ndarray:
        """One `next` request per context, in order."""
        rows = np.empty((len(contexts), len(self._vocab)))
        for row, ctx in zip(rows, contexts):
            row[:] = self._row(self._call({"op": "next", "context": list(ctx)}))
        return rows

    def _row(self, reply: dict) -> np.ndarray:
        """The distribution a `next` reply gives, checked and renormalized."""
        V = len(self._vocab)
        if "probs" in reply:
            probs = _finite(reply["probs"], "probs")
            if probs.shape != (V,):
                raise ProtocolViolation(
                    f"probs length {probs.size} != vocabulary size {V}"
                )
        elif "top" in reply:
            top = reply["top"]
            if not isinstance(top, list) or not all(type(e) is list and len(e) == 2 for e in top):
                raise ProtocolViolation("top: not a list of [id, logprob] pairs")
            ids = [token_id for token_id, _ in top]
            if not all(type(i) is int and 0 <= i < V for i in ids) or len(set(ids)) < len(ids):
                raise ProtocolViolation(f"top: ids must be distinct integers in 0..{V - 1}")
            logprobs = _finite([logprob for _, logprob in top], "top logprobs")
            rest = _finite([reply.get("rest_mass", 0.0)], "rest_mass")[0]
            others = V - len(ids)
            probs = np.full(V, rest / others if others else 0.0)
            try:
                probs[ids] = [math.exp(logprob) for logprob in logprobs.tolist()]
            except OverflowError:  # a logprob above log(max float)
                raise ProtocolViolation("probabilities sum to inf") from None
        else:
            raise ProtocolViolation("next reply has neither 'probs' nor 'top'")
        total = probs.sum()
        if (probs < 0).any() or abs(total - 1.0) > 1e-6:
            raise ProtocolViolation(f"probabilities sum to {total}")
        probs /= total
        return probs

    def _call(self, request: dict) -> dict:
        """Send one request and return the peer's reply object.

        Each distinct number text of a reply is parsed once: a smoothed or
        low-precision distribution repeats a few values over the whole
        vocabulary. `float(text)` is what json.loads itself makes of a
        number text, so every value is the same bits; the memo lives for
        one reply, so it holds at most one reply's texts.
        """
        line = self._peer.roundtrip(json.dumps(request), self.timeout)
        try:
            reply = json.loads(line, parse_float=_NumberTexts().__getitem__)
        except json.JSONDecodeError:
            raise ProtocolViolation(f"unparsable reply: {line[:200]!r}")
        if not isinstance(reply, dict):
            raise ProtocolViolation("reply is not a JSON object")
        if "error" in reply:
            raise ProtocolViolation(f"peer error: {reply['error']}")
        return reply

    def close(self) -> None:
        self._peer.close()


class _NumberTexts(dict):
    """The floats of one reply by their JSON text; a text seen again is not parsed again."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


def _finite(values, what: str) -> np.ndarray:
    """A reply's list of finite JSON numbers as float64; anything else is a ProtocolViolation.

    array("d") takes ints and floats and refuses strings, null, lists and
    objects, but it takes a bool as 0.0 or 1.0: so the types of a list are
    checked one by one only when it holds one of those values, or could not
    be converted.
    """
    if not isinstance(values, list):
        raise ProtocolViolation(f"{what}: not a list of numbers")
    try:
        a = np.frombuffer(array.array("d", values))
    except (TypeError, OverflowError):
        a = None
    if a is None or ((a == 0.0) | (a == 1.0)).any():
        if not set(map(type, values)) <= {int, float}:
            raise ProtocolViolation(f"{what}: not a list of numbers")
        if a is None:  # an integer beyond the float range
            raise ProtocolViolation(f"{what}: not finite")
    if not np.isfinite(a).all():
        raise ProtocolViolation(f"{what}: not finite")
    return a


_EXIT_GRACE_S = 5.0  # how long a closed subprocess peer may take to exit
_READ_BYTES = 1 << 16  # the most of a reply read in at a time


class _Peer:
    """A JSON-lines peer: requests go to `writer`, replies come from `reader`'s descriptor."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self._stalled = False  # a request went unanswered within its timeout
        self._unread = bytearray()  # what the peer sent past the last reply's newline

    def roundtrip(self, line: str, timeout: float) -> str:
        """Send `line` and return the reply line, read in chunks as they come.
        A reply not whole `timeout` seconds after the request, even one cut off
        mid-line, raises BridgeTimeout, and the peer, which may still send it,
        is not read again: every later request raises PeerUnavailable unsent."""
        if self._stalled:
            raise PeerUnavailable("bridge peer missed an earlier reply's deadline")
        try:
            self.writer.write(line.encode() + b"\n")
            self.writer.flush()
            deadline = time.monotonic() + timeout
            buf = self._unread
            while (end := buf.find(b"\n")) < 0:
                wait = deadline - time.monotonic()
                if wait <= 0 or not select.select([self.reader], [], [], wait)[0]:
                    self._stalled = True
                    raise BridgeTimeout(f"no reply within {timeout}s")
                if not (chunk := os.read(self.reader.fileno(), _READ_BYTES)):
                    raise PeerUnavailable("bridge peer closed the connection")
                buf += chunk
            reply, self._unread = buf[: end + 1], buf[end + 1 :]
            return reply.decode()
        except OSError as exc:
            raise PeerUnavailable(str(exc)) from None
        except UnicodeDecodeError as exc:
            raise ProtocolViolation(
                f"reply byte 0x{reply[exc.start]:02x} at offset {exc.start} is not UTF-8") from None

    def close(self) -> None:
        with contextlib.suppress(OSError):  # the peer hung up: a request it never took is dropped
            self.writer.close()
        self.reader.close()


class _SubprocessPeer(_Peer):
    def __init__(self, argv: list[str]):
        try:
            self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        except OSError as exc:
            raise PeerUnavailable(str(exc))
        super().__init__(self.proc.stdout, self.proc.stdin)

    def close(self) -> None:
        """Close the peer's stdin so it can exit at end of input. A peer
        still running after _EXIT_GRACE_S, or one stalled on a request, is
        terminated, then killed. Closing twice is a no-op."""
        with contextlib.suppress(OSError):  # the peer already closed its end of the pipe
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=0 if self._stalled else _EXIT_GRACE_S)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=_EXIT_GRACE_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def bridge_model(target: str, timeout: float = 30.0) -> BridgeModel:
    """Connect to a bridge peer.

    `host:port` opens a TCP stream; anything else is run as a command
    line speaking the protocol on stdio.
    """
    host, sep, port = target.rpartition(":")
    if not (sep and host and port.isdigit() and "/" not in host and " " not in host):
        return BridgeModel(_SubprocessPeer(target.split()), timeout=timeout)
    try:
        sock = socket.create_connection((host, int(port)), timeout=10.0)
    except OSError as exc:
        raise PeerUnavailable(str(exc))
    with sock:  # the connection stays open until the peer closes both its files
        return BridgeModel(_Peer(sock.makefile("rb"), sock.makefile("wb")), timeout=timeout)
