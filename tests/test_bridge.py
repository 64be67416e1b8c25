import json
import math
import random
import socket
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genomelm import lm
from genomelm.cli import main
from genomelm.errors import BridgeTimeout, PeerUnavailable, ProtocolViolation
from genomelm.lm import BridgeModel, bridge_model
from genomelm.sampling import SamplerConfig, generate
from sequential_decode import CheckedRow

ROOT = Path(__file__).resolve().parent.parent

PEER_SOURCE = '''
import json
import math
import sys
import time

MODE = sys.argv[1] if len(sys.argv) > 1 else "probs"
TOKENS = {
    "int-tokens": [1, 2, 3],
    "low-specials": ["A", "<bos>", "C", "G", "T", "<eos>"],
    "no-tokens": [],
}.get(MODE, ["A", "C", "G", "T", "<bos>", "<eos>"])


NAN, INF = float("nan"), float("inf")
# replies that are JSON, but not a distribution over the 6 tokens
BAD_REPLIES = {
    "nan-probs": {"probs": [NAN, 0.5, 0.25, 0.25, 0, 0]},
    "inf-probs": {"probs": [INF, 0, 0, 0, 0, 0]},
    "str-probs": {"probs": ["1", 0, 0, 0, 0, 0]},
    "bool-probs": {"probs": [True, False, False, False, False, False]},
    "huge-probs": {"probs": [10**400, 0, 0, 0, 0, 0]},
    "nan-top": {"top": [[0, NAN]], "rest_mass": 0.5},
    "huge-logprob": {"top": [[0, 800.0]]},
    "nan-rest": {"top": [[0, math.log(0.7)], [1, math.log(0.2)]], "rest_mass": NAN},
    "str-rest": {"top": [[0, math.log(0.7)], [1, math.log(0.2)]], "rest_mass": "0.1"},
    "str-logprob": {"top": [[0, "x"]]},
    "float-id": {"top": [[1.5, -0.1]]},
    "bool-id": {"top": [[True, 0.0]]},
    "short-pair": {"top": [[0]]},
    "top-not-list": {"top": {"0": 0.0}},
    "repeat-id": {"top": [[0, math.log(0.5)], [0, math.log(0.5)]], "rest_mass": 0.4},
}


def reply_next(context):
    n = len(TOKENS)
    if MODE in BAD_REPLIES:
        return BAD_REPLIES[MODE]
    if MODE == "probs":
        probs = [0.0] * n
        probs[len(context) % 4] = 1.0
        return {"probs": probs}
    if MODE == "top":
        return {"top": [[0, math.log(0.7)], [1, math.log(0.2)]], "rest_mass": 0.1}
    if MODE == "badsum":
        return {"probs": [0.5] * n}
    if MODE == "badlen":
        return {"probs": [1.0]}
    if MODE == "error":
        return {"error": "boom"}
    if MODE == "empty":
        return {}
    if MODE == "slow":
        time.sleep(10)
        return {"probs": [1.0 / n] * n}
    raise SystemExit(2)


for line in sys.stdin:
    req = json.loads(line)
    if req["op"] == "vocab":
        out = {"tokens": TOKENS}
    elif req["op"] == "next":
        if MODE == "garbage":
            print("} this is not json {")
            sys.stdout.flush()
            continue
        if MODE == "not-utf8":  # byte 0xff at offset 11 of the reply line
            sys.stdout.buffer.write(b'{"error": "\\xff"}\\n')
            sys.stdout.flush()
            continue
        if MODE == "partial":  # a reply cut off mid-line, then nothing
            sys.stdout.write('{"probs": [0.25, 0.25')
            sys.stdout.flush()
            time.sleep(60)
        out = reply_next(req["context"])
    else:
        out = {"error": f"unknown op {req['op']}"}
    print(json.dumps(out))
    sys.stdout.flush()
'''


@pytest.fixture(scope="module")
def peer_script(tmp_path_factory):
    path = tmp_path_factory.mktemp("bridge") / "peer.py"
    path.write_text(PEER_SOURCE)
    return str(path)


def _connect(peer_script, mode, timeout=30.0):
    return bridge_model(f"{sys.executable} {peer_script} {mode}", timeout=timeout)


class TestSubprocessBridge:
    def test_vocabulary_from_peer(self, peer_script):
        model = _connect(peer_script, "probs")
        try:
            vocab = model.vocabulary()
            assert vocab.tokens == ("A", "C", "G", "T", "<bos>", "<eos>")
            assert vocab.n_base == 4
        finally:
            model.close()

    def test_full_probs_reply(self, peer_script):
        model = _connect(peer_script, "probs")
        try:
            dist = model.next_distribution([0, 1, 2])
            assert dist.probs[3] == pytest.approx(1.0)
        finally:
            model.close()

    def test_top_plus_rest_mass_reply(self, peer_script):
        model = _connect(peer_script, "top")
        try:
            probs = model.next_distribution([]).probs
            assert probs[0] == pytest.approx(0.7, abs=1e-9)
            assert probs[1] == pytest.approx(0.2, abs=1e-9)
            # remaining mass spread evenly over the 4 unlisted tokens
            assert np.allclose(probs[2:], 0.1 / 4, atol=1e-9)
        finally:
            model.close()

    @pytest.mark.parametrize("mode, field", [
        ("int-tokens", "tokens"), ("low-specials", "n_base"), ("no-tokens", "tokens"),
    ])
    def test_a_bad_vocabulary_closes_the_peer(self, peer_script, monkeypatch, mode, field):
        peers = []
        peer_init = lm._SubprocessPeer.__init__

        def recording_init(peer, *args, **kwargs):
            peer_init(peer, *args, **kwargs)
            peers.append(peer)

        monkeypatch.setattr(lm._SubprocessPeer, "__init__", recording_init)
        with pytest.raises(ProtocolViolation, match=f"vocab reply: {field}: "):
            _connect(peer_script, mode)
        assert len(peers) == 1 and peers[0].proc.returncode is not None

    @pytest.mark.parametrize("mode", [
        "badsum", "badlen", "error", "empty", "garbage", "nan-probs", "inf-probs", "str-probs",
        "bool-probs", "huge-probs", "nan-top", "nan-rest", "str-rest", "str-logprob",
        "float-id", "bool-id", "short-pair", "top-not-list", "repeat-id", "huge-logprob",
        "not-utf8",
    ])
    def test_protocol_violations(self, peer_script, mode):
        model = _connect(peer_script, mode)
        try:
            with pytest.raises(ProtocolViolation):
                model.next_distribution([0])
        finally:
            model.close()

    def test_timeout(self, peer_script):
        model = _connect(peer_script, "slow", timeout=0.3)
        try:
            with pytest.raises(BridgeTimeout):
                model.next_distribution([0])
        finally:
            model.close()

    def test_a_reply_cut_off_mid_line_times_out(self, peer_script):
        model = _connect(peer_script, "partial", timeout=1.0)
        try:
            started = time.monotonic()
            with pytest.raises(BridgeTimeout):
                model.next_distribution([0])
            assert time.monotonic() - started < 5.0
        finally:
            model.close()

    def test_dead_peer(self):
        with pytest.raises(PeerUnavailable):
            bridge_model(f"{sys.executable} -c pass")

    def test_generation_through_the_bridge(self, peer_script):
        model = _connect(peer_script, "probs")
        try:
            # the peer is a point-mass on (context length mod 4)
            ids = generate(model, [[0], [0, 1]], SamplerConfig(mode="greedy", max_new_tokens=4))
            assert ids == [[1, 2, 3, 0], [2, 3, 0, 1]]
        finally:
            model.close()

    def test_batched_distributions_are_one_request_each(self, peer_script):
        model = _connect(peer_script, "probs")
        try:
            probs = model.next_distributions([[], [0, 1, 2], [3]])
            assert probs.shape == (3, 6)
            assert probs.argmax(axis=1).tolist() == [0, 3, 1]
            assert model.next_distributions([]).shape == (0, 6)
        finally:
            model.close()


UNIFORM_REPLY = (json.dumps({"probs": [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]}) + "\n").encode()


def _serve_tcp(server_sock, next_reply):
    conn, _ = server_sock.accept()
    with conn, conn.makefile("r") as reader:
        for line in reader:
            req = json.loads(line)
            if req["op"] == "vocab":
                conn.sendall((json.dumps({"tokens": ["A", "C", "G", "T", "<bos>", "<eos>"]})
                              + "\n").encode())
            else:
                conn.sendall(next_reply)


def _tcp_model(server, next_reply):
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    port = server.getsockname()[1]
    threading.Thread(target=_serve_tcp, args=(server, next_reply), daemon=True).start()
    return bridge_model(f"127.0.0.1:{port}")


class TestTcpBridge:
    def test_round_trip_over_tcp(self):
        with socket.socket() as server:
            model = _tcp_model(server, UNIFORM_REPLY)
            try:
                assert model.vocabulary().n_base == 4
                probs = model.next_distribution([1]).probs
                assert np.allclose(probs[:4], 0.25)
            finally:
                model.close()

    def test_a_reply_byte_that_is_not_utf8_is_a_violation(self):
        with socket.socket() as server:
            model = _tcp_model(server, b'{"error": "\xff"}\n')
            try:
                with pytest.raises(ProtocolViolation, match="reply byte 0xff at offset 11 is not UTF-8"):
                    model.next_distribution([0])
            finally:
                model.close()

    def test_unreachable_host(self):
        with pytest.raises(PeerUnavailable):
            # a port from the reserved block nothing listens on
            bridge_model("127.0.0.1:1")


# --- the reply decoder against plain json.loads and per-element checks ------

TOKENS = ["A", "C", "G", "T", "<bos>", "<eos>"]


class _ReplyPeer:
    """An in-process peer: the six tokens, then `line` as every `next` reply."""

    def __init__(self, line):
        self.line = line

    def roundtrip(self, request, timeout):
        return json.dumps({"tokens": TOKENS}) if '"vocab"' in request else self.line

    def close(self):
        pass


def _oracle_finite(values, what):
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise ProtocolViolation(f"{what}: not a list of numbers")
    try:
        a = np.array(values, dtype=float)
    except OverflowError:
        raise ProtocolViolation(f"{what}: not finite") from None
    if not np.isfinite(a).all():
        raise ProtocolViolation(f"{what}: not finite")
    return a


def _oracle_row(line, V):
    """The row of a `next` reply as BridgeModel made it before number texts
    were memoized: json.loads, a type check and np.array per list, and a
    CheckedRow."""
    try:
        reply = json.loads(line)
    except json.JSONDecodeError:
        raise ProtocolViolation(f"unparsable reply: {line[:200]!r}")
    if not isinstance(reply, dict):
        raise ProtocolViolation("reply is not a JSON object")
    if "error" in reply:
        raise ProtocolViolation(f"peer error: {reply['error']}")
    if "probs" in reply:
        probs = _oracle_finite(reply["probs"], "probs")
        if probs.shape != (V,):
            raise ProtocolViolation(f"probs length {probs.size} != vocabulary size {V}")
    elif "top" in reply:
        top = reply["top"]
        if not isinstance(top, list) or not all(type(e) is list and len(e) == 2 for e in top):
            raise ProtocolViolation("top: not a list of [id, logprob] pairs")
        ids = [token_id for token_id, _ in top]
        if not all(type(i) is int and 0 <= i < V for i in ids) or len(set(ids)) < len(ids):
            raise ProtocolViolation(f"top: ids must be distinct integers in 0..{V - 1}")
        logprobs = _oracle_finite([logprob for _, logprob in top], "top logprobs")
        rest = _oracle_finite([reply.get("rest_mass", 0.0)], "rest_mass")[0]
        others = V - len(ids)
        probs = np.full(V, rest / others if others else 0.0)
        try:
            probs[ids] = [math.exp(logprob) for logprob in logprobs.tolist()]
        except OverflowError:  # a logprob above log(max float)
            raise ProtocolViolation("probabilities sum to inf") from None
    else:
        raise ProtocolViolation("next reply has neither 'probs' nor 'top'")
    if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-6:
        raise ProtocolViolation(f"probabilities sum to {probs.sum()}")
    return CheckedRow(probs / probs.sum()).probs


def _outcome(decode):
    try:
        return decode()
    except ProtocolViolation as exc:
        return type(exc), str(exc)


def _float_texts(x):
    """JSON texts that all parse to the float x."""
    texts = [repr(x), f"{x:.17e}", f"{x:.17E}", f"{x:.20g}"]
    if x == int(x) and abs(x) < 2**53:
        texts.append(str(int(x)) if x or math.copysign(1, x) > 0 else "-0")
    return [t for t in texts if float(t) == x and json.loads(t) == x]


# values that are not a JSON number, or not a finite float
BAD_TEXTS = ["true", "false", "null", '"0.5"', "[0.5]", "[]", "{}", "NaN", "Infinity",
             "-Infinity", "1e400", "-1e400", "9" * 401, "0.5.5"]

weights = st.one_of(
    st.floats(0.0, 1e3, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 3.0]),
)


@st.composite
def number_list(draw, values):
    """JSON texts for `values`: a few distinct values, each repeated, in
    varied spellings, maybe with ints (some above 2^53) and one bad text."""
    texts = [draw(st.sampled_from(_float_texts(v))) for v in values]
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(texts) - 1))
        texts[i] = str(draw(st.one_of(st.integers(0, 3), st.integers(2**53, 2**70))))
    if draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(0, len(texts) - 1))
        texts[i] = draw(st.sampled_from(BAD_TEXTS))
    return texts


@st.composite
def next_replies(draw):
    V = len(TOKENS)
    kind = draw(st.sampled_from(["probs", "probs", "top", "top", "other"]))
    if kind == "probs":
        pool = draw(st.lists(weights, min_size=1, max_size=4))
        n = draw(st.sampled_from([V] * 6 + [V - 1, V + 1]))
        values = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                                 min_size=n, max_size=n))]
        total = sum(values)
        if total > 0 and draw(st.integers(0, 3)):
            values = [v / total for v in values]
        return '{"probs": [' + ", ".join(draw(number_list(values))) + "]}"
    if kind == "top":
        ids = draw(st.lists(st.integers(0, V - 1), min_size=1, max_size=V, unique=True))
        if draw(st.integers(0, 7)) == 0:
            ids[0] = draw(st.sampled_from([V, -1, ids[-1]]))
        mass = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(ids) + 1,
                             max_size=len(ids) + 1))
        logprobs = [math.log(m / sum(mass)) for m in mass[:-1]]
        texts = draw(number_list(logprobs + [mass[-1] / sum(mass)]))
        pairs = ", ".join(f"[{i}, {t}]" for i, t in zip(ids, texts))
        rest = "" if draw(st.integers(0, 4)) == 0 else f', "rest_mass": {texts[-1]}'
        return '{"top": [' + pairs + "]" + rest + "}"
    return draw(st.sampled_from([
        "{}", '{"prob": [1.0]}', "[1.0]", '{"error": "boom"}', '{"top": {"0": 0.0}}',
        '{"top": [[0]]}', '{"probs": 1.0}', '{"top": [[1.5, -0.1]]}',
    ]))


class TestReplyDecoderMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(line=next_replies())
    def test_same_row_or_same_violation(self, line):
        model = BridgeModel(_ReplyPeer(line))
        got = _outcome(lambda: model.next_distribution([0, 1]).probs)
        want = _outcome(lambda: _oracle_row(line, len(TOKENS)))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert isinstance(got, np.ndarray) and got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("bad", BAD_TEXTS)
    def test_each_bad_number_text_raises_as_before(self, bad):
        line = '{"probs": [0.5, 0.5, 0, 0, ' + bad + ", 0]}"
        got = _outcome(lambda: BridgeModel(_ReplyPeer(line)).next_distribution([]))
        assert got == _outcome(lambda: _oracle_row(line, len(TOKENS)))
        assert got[0] is ProtocolViolation

    def test_rows_of_a_batch_are_the_single_rows(self):
        line = '{"probs": [0.5, -0.0, 0.25, 0.125, 0.125, 0.0]}'
        model = BridgeModel(_ReplyPeer(line))
        rows = model.next_distributions([[0], [1, 2]])
        assert rows.shape == (2, len(TOKENS))
        for row in rows:
            assert np.array_equal(row, _oracle_row(line, len(TOKENS)))
            assert np.signbit(row[1]) and not np.signbit(row[5])


# --- a model served over the bridge gives the bytes it gives in-process -----

@pytest.fixture(scope="module")
def served_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("served")
    rng = random.Random(17)
    contig = "".join(rng.choice("ACGT") for _ in range(2400))
    (d / "genome.fa").write_text(f">chr1\n{contig}\n")
    train = "".join(f">t{i}\n" + "".join(rng.choice("AACGTT") for _ in range(3000)) + "\n"
                    for i in range(3))
    (d / "train.fa").write_text(train)
    rows = ["#seq_id\tpos\tref\talt\tlabel"]
    for i, pos in enumerate(range(700, 2300, 200)):
        ref = contig[pos - 1]
        alt = rng.choice([b for b in "ACGT" if b != ref])
        rows.append(f"chr1\t{pos}\t{ref}\t{alt}\t{'pathogenic' if i % 2 else 'benign'}")
    (d / "variants.tsv").write_text("\n".join(rows) + "\n")
    items = [f"{contig[at - 240 : at]}\t{contig[at : at + 30]}\tg{i % 2}"
             for i, at in enumerate(range(300, 2100, 300))]
    (d / "items.tsv").write_text("#prompt\treference\ttaxon_group\n" + "\n".join(items) + "\n")
    model = d / "m.npz"
    assert main(["train-markov", str(d / "train.fa"), "--k", "3", "--order", "2",
                 "--model-out", str(model)]) == 0
    return d


class TestServedModelGivesTheSameBytes:
    """perfbench/peer.py serves a saved MarkovLm; every command must write
    the same bytes through it as with the model loaded in-process. The peer
    runs with -B, so it writes no bytecode next to itself."""

    @pytest.mark.parametrize("argv", [
        ["vep", "score", "--genome", "{d}/genome.fa", "--variants", "{d}/variants.tsv",
         "--average-phases", "--context-len", "600"],
        ["generate", "--prompt", "ACGTTGCAAC", "--greedy", "--max-new", "40"],
        ["generate", "--prompt", "ACGTTG", "-n", "5", "--max-new", "30", "--temperature",
         "0.9", "--top-p", "0.95", "--seed", "3"],
        ["recover", "run", "--dataset", "{d}/items.tsv", "--predict-len", "12,30"],
        ["recover", "run", "--dataset", "{d}/items.tsv", "--predict-len", "12,30", "--sample",
         "--temperature", "0.9", "--top-p", "0.95", "--seed", "3"],
    ], ids=["vep-score", "generate-greedy", "generate-sampled", "recover-greedy",
            "recover-sampled"])
    def test_same_output_bytes(self, served_inputs, tmp_path, argv):
        d = served_inputs
        argv = [a.format(d=d) for a in argv]
        served = f"bridge:{sys.executable} -B {ROOT / 'perfbench' / 'peer.py'} {d / 'm.npz'}"
        outputs = []
        for spec in (f"markov:{d / 'm.npz'}", served):
            out = tmp_path / f"out{len(outputs)}"
            assert main(argv + ["--model", spec, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) > 1 or argv[0] == "generate"
