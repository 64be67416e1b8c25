import json
import math
import socket
import sys
import threading

import numpy as np
import pytest

from genomelm import lm
from genomelm.errors import BridgeTimeout, PeerUnavailable, ProtocolViolation
from genomelm.lm import bridge_model
from genomelm.sampling import SamplerConfig, generate

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


def reply_next(context):
    n = len(TOKENS)
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

    @pytest.mark.parametrize("mode", ["badsum", "badlen", "error", "empty", "garbage"])
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


def _serve_tcp(server_sock):
    conn, _ = server_sock.accept()
    with conn, conn.makefile("r") as reader:
        for line in reader:
            req = json.loads(line)
            if req["op"] == "vocab":
                out = {"tokens": ["A", "C", "G", "T", "<bos>", "<eos>"]}
            else:
                out = {"probs": [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]}
            conn.sendall((json.dumps(out) + "\n").encode())


class TestTcpBridge:
    def test_round_trip_over_tcp(self):
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]
        thread = threading.Thread(target=_serve_tcp, args=(server,), daemon=True)
        thread.start()
        model = bridge_model(f"127.0.0.1:{port}")
        try:
            assert model.vocabulary().n_base == 4
            probs = model.next_distribution([1]).probs
            assert np.allclose(probs[:4], 0.25)
        finally:
            model.close()
            server.close()

    def test_unreachable_host(self):
        with pytest.raises(PeerUnavailable):
            # a port from the reserved block nothing listens on
            bridge_model("127.0.0.1:1")
