"""Causal language-model contract, an interpolated Markov reference model,
and a JSON-lines bridge to external models.

All log probabilities are base-e.
"""
from __future__ import annotations

import json
import math
import socket
import subprocess
import select
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import (
    BadSmoothing,
    BridgeTimeout,
    EmptyCorpus,
    PeerUnavailable,
    ProtocolViolation,
    UnknownTokenId,
    VocabularyMismatch,
)
from .seqcore import reading_model
from .tokenizer import Vocabulary

_SUM_TOL = 1e-9


@dataclass(frozen=True)
class TokenDistribution:
    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "probs", p)
        if (p < 0).any():
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")

    def __len__(self) -> int:
        return len(self.probs)


@runtime_checkable
class CausalLm(Protocol):
    """Anything that maps a token-id context to a next-token distribution."""

    def next_distribution(self, context: Sequence[int]) -> TokenDistribution: ...

    def vocabulary(self) -> Vocabulary: ...


class UniformLm:
    """Uniform next-token model; the random-guessing baseline."""

    def __init__(self, vocab: Vocabulary):
        self._vocab = vocab
        self._dist = TokenDistribution(np.full(len(vocab), 1.0 / len(vocab)))

    def next_distribution(self, context: Sequence[int]) -> TokenDistribution:
        return self._dist

    def vocabulary(self) -> Vocabulary:
        return self._vocab


class MarkovLm:
    """Order-n count model: lambda-weighted mixture of add-alpha estimates.

    Per order o in 0..n the estimate for token t given the last o context
    ids c is (count(c,t) + alpha) / (count(c,*) + alpha*|V|); the emitted
    distribution is sum_o lambda_o * estimate_o, strictly positive.

    Each (order, context) count table is compiled on first use into a cached
    row of numpy arrays. Only contexts present in `counts` are cached, and
    `observe` clears the cache; `counts` must not be edited by hand once the
    model has been queried.
    """

    FORMAT_VERSION = 1

    def __init__(self, vocab: Vocabulary, order: int, alpha: float, lambdas: Sequence[float]):
        if order < 0:
            raise BadSmoothing(f"order must be >= 0, got {order}")
        if alpha <= 0:
            raise BadSmoothing(f"alpha must be > 0, got {alpha}")
        lambdas = [float(x) for x in lambdas]
        if len(lambdas) != order + 1:
            raise BadSmoothing(f"need {order + 1} interpolation weights, got {len(lambdas)}")
        if any(x < 0 for x in lambdas) or abs(sum(lambdas) - 1.0) > 1e-9:
            raise BadSmoothing("interpolation weights must be a simplex")
        self._vocab = vocab
        self.order = order
        self.alpha = alpha
        self.lambdas = lambdas
        # counts[o][context tuple of length o] -> {token_id: count}
        self.counts: list[dict[tuple, dict[int, int]]] = [
            {} for _ in range(order + 1)
        ]
        # (order, context) -> (token ids, their estimates, estimate of the rest)
        self._rows: dict[tuple[int, tuple], tuple[np.ndarray, np.ndarray, float]] = {}
        # the estimate after a context never observed, at any order
        self._unseen = (np.empty(0, dtype=np.int64), np.empty(0), alpha / (alpha * len(vocab)))

    def vocabulary(self) -> Vocabulary:
        return self._vocab

    def observe(self, ids: Sequence[int]) -> None:
        _check_ids(ids, len(self._vocab))
        self._rows.clear()
        for pos, token in enumerate(ids):
            for o in range(self.order + 1):
                if pos < o:
                    continue
                ctx = tuple(ids[pos - o : pos])
                table = self.counts[o].setdefault(ctx, {})
                table[token] = table.get(token, 0) + 1

    def next_distribution(self, context: Sequence[int]) -> TokenDistribution:
        V = len(self._vocab)
        _check_ids(context, V)
        probs = np.zeros(V)
        for o, lam in enumerate(self.lambdas):
            if lam == 0.0:
                continue
            ids, values, rest = self._row(o, tuple(context[-o:]) if o else ())
            est = np.full(V, rest)
            est[ids] = values
            probs += lam * est
        return TokenDistribution(probs / probs.sum())

    def _row(self, o: int, ctx: tuple) -> tuple[np.ndarray, np.ndarray, float]:
        """The add-alpha estimate of order o after ctx, as the observed token
        ids, their estimates and the estimate shared by every other token."""
        row = self._rows.get((o, ctx))
        if row is None:
            table = self.counts[o].get(ctx)
            if table is None:
                return self._unseen
            denom = sum(table.values()) + self.alpha * len(self._vocab)
            ids = np.fromiter(table.keys(), dtype=np.int64, count=len(table))
            counts = np.fromiter(table.values(), dtype=float, count=len(table))
            row = self._rows[(o, ctx)] = (ids, (counts + self.alpha) / denom, self.alpha / denom)
        return row

    # --- persistence: JSON header line, then one JSON line per context -------

    def save(self, path) -> None:
        header = {
            "format_version": self.FORMAT_VERSION,
            "vocab_hash": self._vocab.content_hash(),
            "vocab": {"tokens": list(self._vocab.tokens), "n_base": self._vocab.n_base},
            "order": self.order,
            "alpha": self.alpha,
            "lambdas": self.lambdas,
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for o in range(self.order + 1):
                for ctx in sorted(self.counts[o]):
                    table = self.counts[o][ctx]
                    row = {
                        "o": o,
                        "ctx": list(ctx),
                        "counts": {str(t): c for t, c in sorted(table.items())},
                    }
                    fh.write(json.dumps(row, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "MarkovLm":
        with open(path) as fh:
            with reading_model(path):
                header = json.loads(fh.readline())
                if header.get("format_version") != cls.FORMAT_VERSION:
                    raise ValueError(f"unsupported model format: {header.get('format_version')}")
                vocab = Vocabulary(
                    tokens=tuple(header["vocab"]["tokens"]), n_base=header["vocab"]["n_base"]
                )
                if header.get("vocab_hash") != vocab.content_hash():
                    raise VocabularyMismatch(
                        f"{path}: vocab_hash {header.get('vocab_hash')!r} does not match "
                        f"the stored tokens ({vocab.content_hash()!r})"
                    )
                model = cls(vocab, header["order"], header["alpha"], header["lambdas"])
            for line_no, line in enumerate(fh, start=2):
                try:
                    row = json.loads(line)
                    o = row["o"]
                    if not 0 <= o <= model.order:
                        raise ValueError(f"order {o} outside 0..{model.order}")
                    model.counts[o][tuple(row["ctx"])] = {
                        int(t): c for t, c in row["counts"].items()
                    }
                except Exception:
                    # entered only on failure: a context manager per row would
                    # add a few microseconds to each of thousands of rows
                    with reading_model(f"{path}: line {line_no}"):
                        raise
        return model


def check_vocabulary(model: CausalLm, vocab: Vocabulary) -> None:
    """Raise VocabularyMismatch unless `model` reads and emits `vocab`'s tokens."""
    if model.vocabulary().tokens != vocab.tokens:
        raise VocabularyMismatch("tokenizer vocabulary does not match the model vocabulary")


def _check_ids(ids: Sequence[int], V: int) -> None:
    if len(ids) and not (0 <= min(ids) and max(ids) < V):
        bad = next(t for t in ids if not 0 <= t < V)
        raise UnknownTokenId(f"token id {bad} outside vocabulary of size {V}")


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
    seqs = [list(s) for s in corpus if len(s)]
    if not seqs:
        raise EmptyCorpus("Markov training corpus is empty")
    if lambdas is None:
        raw = [2.0**o for o in range(order + 1)]
        lambdas = [x / sum(raw) for x in raw]
    model = MarkovLm(vocab, order, alpha, lambdas)
    for ids in seqs:
        model.observe(ids)
    return model


def sequence_logprob(model: CausalLm, ids: Sequence[int]) -> float:
    if not len(ids):
        raise ValueError("cannot score an empty id sequence")
    total = 0.0
    for pos in range(len(ids)):
        dist = model.next_distribution(ids[:pos])
        total += math.log(dist.probs[ids[pos]])
    return total


# --- bridge ------------------------------------------------------------------

class BridgeModel:
    """CausalLm over a JSON-lines peer (subprocess stdio or TCP).

    Requests: {"op":"next","context":[ids]} -> {"probs":[...]} or
    {"top":[[id,logprob],...],"rest_mass":r}; {"op":"embed","context":[...]}
    -> {"vec":[...]}; {"op":"vocab"} -> {"tokens":[...]}.
    """

    def __init__(self, peer: "_Peer", timeout: float = 30.0):
        self._peer = peer
        self.timeout = timeout
        try:
            tokens = self._call({"op": "vocab"}).get("tokens")
            if not isinstance(tokens, list) or not tokens:
                raise ProtocolViolation("vocab reply missing token list")
        except BaseException:
            peer.close()
            raise
        n_special = sum(1 for t in tokens if t.startswith("<"))
        self._vocab = Vocabulary(tokens=tuple(tokens), n_base=len(tokens) - n_special)

    def vocabulary(self) -> Vocabulary:
        return self._vocab

    def next_distribution(self, context: Sequence[int]) -> TokenDistribution:
        reply = self._call({"op": "next", "context": list(context)})
        V = len(self._vocab)
        if "probs" in reply:
            probs = np.asarray(reply["probs"], dtype=float)
            if probs.shape != (V,):
                raise ProtocolViolation(
                    f"probs length {probs.size} != vocabulary size {V}"
                )
        elif "top" in reply:
            probs = np.zeros(V)
            rest = float(reply.get("rest_mass", 0.0))
            ids = []
            for token_id, logprob in reply["top"]:
                if not 0 <= token_id < V:
                    raise ProtocolViolation(f"top entry id {token_id} out of range")
                probs[token_id] = math.exp(logprob)
                ids.append(token_id)
            others = V - len(ids)
            if others:
                probs[probs == 0.0] = rest / others
        else:
            raise ProtocolViolation("next reply has neither 'probs' nor 'top'")
        if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-6:
            raise ProtocolViolation(f"probabilities sum to {probs.sum()}")
        return TokenDistribution(probs / probs.sum())

    def embed(self, context: Sequence[int]) -> np.ndarray:
        reply = self._call({"op": "embed", "context": list(context)})
        if "vec" not in reply:
            raise ProtocolViolation("embed reply missing 'vec'")
        return np.asarray(reply["vec"], dtype=float)

    def _call(self, request: dict) -> dict:
        line = self._peer.roundtrip(json.dumps(request), self.timeout)
        try:
            reply = json.loads(line)
        except json.JSONDecodeError:
            raise ProtocolViolation(f"unparsable reply: {line[:200]!r}")
        if not isinstance(reply, dict):
            raise ProtocolViolation("reply is not a JSON object")
        if "error" in reply:
            raise ProtocolViolation(f"peer error: {reply['error']}")
        return reply

    def close(self) -> None:
        self._peer.close()


_EXIT_GRACE_S = 5.0  # how long a closed subprocess peer may take to exit


class _SubprocessPeer:
    def __init__(self, argv: list[str]):
        try:
            self.proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise PeerUnavailable(str(exc))
        self._stalled = False  # a request went unanswered within its timeout

    def roundtrip(self, line: str, timeout: float) -> str:
        if self.proc.poll() is not None:
            raise PeerUnavailable("bridge peer exited")
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            self._stalled = True
            raise BridgeTimeout(f"no reply within {timeout}s")
        reply = self.proc.stdout.readline()
        if not reply:
            raise PeerUnavailable("bridge peer closed its stdout")
        return reply

    def close(self) -> None:
        """Close the peer's stdin so it can exit at end of input. A peer
        still running after _EXIT_GRACE_S, or one stalled on a request, is
        terminated, then killed. Closing twice is a no-op."""
        try:
            self.proc.stdin.close()
        except OSError:  # the peer already closed its end of the pipe
            pass
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


class _TcpPeer:
    def __init__(self, host: str, port: int):
        try:
            self.sock = socket.create_connection((host, port), timeout=10.0)
        except OSError as exc:
            raise PeerUnavailable(str(exc))
        self.reader = self.sock.makefile("r")

    def roundtrip(self, line: str, timeout: float) -> str:
        self.sock.settimeout(timeout)
        try:
            self.sock.sendall((line + "\n").encode())
            reply = self.reader.readline()
        except socket.timeout:
            raise BridgeTimeout(f"no reply within {timeout}s")
        except OSError as exc:
            raise PeerUnavailable(str(exc))
        if not reply:
            raise PeerUnavailable("bridge peer closed the connection")
        return reply

    def close(self) -> None:
        self.sock.close()


def bridge_model(target: str, timeout: float = 30.0) -> BridgeModel:
    """Connect to a bridge peer.

    `host:port` opens a TCP stream; anything else is run as a command
    line speaking the protocol on stdio.
    """
    host, sep, port = target.rpartition(":")
    if sep and host and port.isdigit() and "/" not in host and " " not in host:
        return BridgeModel(_TcpPeer(host, int(port)), timeout=timeout)
    return BridgeModel(_SubprocessPeer(target.split()), timeout=timeout)
