"""JSON-lines bridge peer that serves a saved MarkovLm on stdin/stdout.

Usage: python3 perfbench/peer.py MODEL [STATS_JSON]

Answers {"op":"vocab"} and {"op":"next","context":[ids]} as
`genomelm.lm.BridgeModel` expects. It exits at end of input. With
STATS_JSON it then writes its own report there: requests served, seconds
spent in the model (`busy_s`), bytes read and written, and peak resident
memory in MB.
"""
import json
import os
import resource
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from genomelm.lm import MarkovLm  # noqa: E402


def probs_reply(probs: np.ndarray) -> str:
    """The text json.dumps({"probs": probs.tolist()}) gives, formatting each
    distinct value once: a smoothed distribution repeats a few values over
    the whole vocabulary, and float formatting would otherwise be most of
    the peer's time."""
    values, inverse = np.unique(probs, return_inverse=True)
    texts = [repr(v) for v in values.tolist()]
    return '{"probs": [' + ", ".join([texts[i] for i in inverse.tolist()]) + "]}"


def serve(model_path: str, stats_path: str | None) -> None:
    model = MarkovLm.load(model_path)
    tokens = list(model.vocabulary().tokens)
    busy = 0.0
    requests = bytes_in = bytes_out = 0
    for line in sys.stdin:
        bytes_in += len(line)
        requests += 1
        try:
            request = json.loads(line)
            op = request.get("op")
            if op == "vocab":
                text = json.dumps({"tokens": tokens})
            elif op == "next":
                start = time.perf_counter()
                dist = model.next_distribution(request["context"])
                busy += time.perf_counter() - start
                text = probs_reply(dist.probs)
            else:
                text = json.dumps({"error": f"unsupported op {op!r}"})
        except Exception as exc:  # reported to the client, which raises
            text = json.dumps({"error": f"{type(exc).__name__}: {exc}"})
        text += "\n"
        bytes_out += len(text)
        sys.stdout.write(text)
        sys.stdout.flush()
    if stats_path:
        with open(stats_path, "w") as fh:
            json.dump(
                {
                    "requests": requests,
                    "busy_s": busy,
                    "bytes_in": bytes_in,
                    "bytes_out": bytes_out,
                    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                },
                fh,
            )


if __name__ == "__main__":
    serve(sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else None)
