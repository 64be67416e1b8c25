"""Spans and counters recorded from outside the program.

`Tracer.install()` replaces public functions and methods of `genomelm`
with wrappers. A module-level function is replaced at every binding that
holds it, so `genomelm.cli.read_fasta` is wrapped as well as
`genomelm.seqcore.read_fasta`. Methods are replaced on their class.
`uninstall()` puts the originals back.

Each span records a name, its start and end (`time.perf_counter`), its
parent span, numeric attributes and whether it raised. Spans stay in memory
until the run writes them out. A span opened on a worker thread with no
open span of its own takes the main thread's innermost open span as its
parent, so the items `recover run` scores on its thread pool hang under
`run_recovery`. Self time is a span's duration minus the union of its
children's intervals, so children that overlap in time are not counted
twice.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import os
import statistics
import sys
import threading
import time

_now = time.perf_counter


def _size_of(path) -> int:
    return os.path.getsize(path)


def _capped(score: float) -> int:
    from genomelm.vep import SCORE_CAP

    return int(abs(score) >= SCORE_CAP)


# (module, attribute path, span name, attributes from (args, kwargs, result))
SPANS = [
    ("genomelm.cli", "main", "cli.main", None),
    ("genomelm.seqcore", "read_fasta", "seqcore.read_fasta",
     lambda a, kw, r: {"nt": sum(len(s) for s in r)}),
    ("genomelm.seqcore", "NucleotideSequence.__post_init__", "seqcore.sequence",
     lambda a, kw, r: {"nt": len(a[0].bases)}),
    ("genomelm.tokenizer", "kmer_encode", "tokenizer.encode",
     lambda a, kw, r: {"nt": len(a[0])}),
    ("genomelm.tokenizer", "kmer_decode", "tokenizer.decode",
     lambda a, kw, r: {"tokens": len(a[0])}),
    ("genomelm.tokenizer", "bpe_train", "tokenizer.bpe_train",
     lambda a, kw, r: {"merges": len(r.merges)}),
    ("genomelm.ingest", "parse_bed_like", "ingest.parse_bed_like", None),
    ("genomelm.ingest", "extract_functional_regions", "ingest.extract",
     lambda a, kw, r: {"regions": len(r)}),
    ("genomelm.ingest", "build_gener_task_datasets", "ingest.gener_tasks", None),
    ("genomelm.lm", "MarkovLm.observe", "lm.observe",
     lambda a, kw, r: {"tokens": len(a[1])}),
    ("genomelm.lm", "MarkovLm.save", "lm.save",
     lambda a, kw, r: {"bytes": _size_of(a[1])}),
    ("genomelm.lm", "MarkovLm.load", "lm.load",
     lambda a, kw, r: {"bytes": _size_of(a[1])}),
    ("genomelm.lm", "MarkovLm.next_distribution", "lm.next_distribution",
     lambda a, kw, r: {"context_ids": len(a[1])}),
    ("genomelm.lm", "sequence_logprob", "lm.sequence_logprob",
     lambda a, kw, r: {"tokens": len(a[1])}),
    ("genomelm.lm", "bridge_model", "lm.bridge.connect", None),
    ("genomelm.lm", "BridgeModel.next_distribution", "lm.bridge.next_distribution", None),
    # The one private boundary: every bridge request, whatever its op,
    # passes through BridgeModel._call.
    ("genomelm.lm", "BridgeModel._call", "lm.bridge.roundtrip", None),
    ("genomelm.sampling", "generate", "sampling.generate",
     lambda a, kw, r: {"tokens": len(r)}),
    ("genomelm.sampling", "conditioned_generate", "sampling.conditioned_generate",
     lambda a, kw, r: {"duplicates_filtered": r.duplicates_filtered}),
    ("genomelm.recover", "run_recovery", "recover.run_recovery",
     lambda a, kw, r: {"items": len(a[2])}),
    ("genomelm.vep", "vep_score", "vep.vep_score",
     lambda a, kw, r: {"capped": _capped(r)}),
    ("genomelm.design", "quantile_labels", "design.quantile_labels", None),
    ("genomelm.design", "fit_kmer_ridge", "design.fit_kmer_ridge", None),
    ("genomelm.design", "rank_and_select", "design.rank_and_select", None),
    ("genomelm.design", "contribution_scores", "design.contribution_scores", None),
]

# Calls counted without a span: too frequent or too cheap for one.
COUNTS = [
    ("genomelm.tokenizer", "kmer_vocabulary", "tokenizer.vocab_builds"),
    ("genomelm.tokenizer", "Vocabulary.index", "tokenizer.index_builds"),
    ("genomelm.design", "KmerRidgePredictor.predict", "design.predict_calls"),
]

MODEL_CALLS = ("lm.next_distribution", "lm.bridge.next_distribution")


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "error")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.attrs = None
        self.error = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ----------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, fn, name, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            span = Span(name, _now(), parent)
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = _now()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                with tracer._lock:
                    tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # --- installing ----------------------------------------------------------

    def install(self) -> None:
        for module, path, name, attrs in SPANS:
            self._wrap(module, path, lambda fn, n=name, a=attrs: self._span_wrapper(fn, n, a))
        for module, path, name in COUNTS:
            self._wrap(module, path, lambda fn, n=name: self._count_wrapper(fn, n))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, module_name, path, make) -> None:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            elif isinstance(raw, property):
                new = property(make(raw.fget))
            else:
                new = make(raw)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, new)
            return
        original = getattr(module, path)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "genomelm" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def take(self) -> tuple[list[Span], dict[str, int]]:
        """Hand over what was recorded since the last call and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


# --- aggregation ----------------------------------------------------------------

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = children.get(id(s))
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in kids] if kids else []
        out[id(s)] = (s.end - s.start) - _covered(clipped)
    return out


def _under(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def layer_metrics(spans: list[Span], counts: dict[str, int], peer: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    `peer` holds the bridge peer's own report (busy seconds, bytes and peak
    memory) or is empty when the iteration started no peer.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    self_s: dict[str, float] = {}
    attrs: dict[str, float] = {}
    errors: dict[str, int] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        secs[s.name] = secs.get(s.name, 0.0) + (s.end - s.start)
        self_s[s.name] = self_s.get(s.name, 0.0) + own[id(s)]
        errors[s.name] = errors.get(s.name, 0) + s.error
        for key, value in (s.attrs or {}).items():
            attrs[f"{s.name}.{key}"] = attrs.get(f"{s.name}.{key}", 0) + value

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return secs.get(name, 0.0)

    def a(name):
        return attrs.get(name, 0)

    m = {
        "cli.main.calls": c("cli.main"),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "seqcore.read_fasta.s": t("seqcore.read_fasta"),
        "seqcore.read_fasta.nt": a("seqcore.read_fasta.nt"),
        "seqcore.sequence.calls": c("seqcore.sequence"),
        "seqcore.sequence.s": t("seqcore.sequence"),
        "seqcore.sequence.nt": a("seqcore.sequence.nt"),
        "tokenizer.encode.calls": c("tokenizer.encode"),
        "tokenizer.encode.s": t("tokenizer.encode"),
        "tokenizer.encode.nt": a("tokenizer.encode.nt"),
        "tokenizer.decode.calls": c("tokenizer.decode"),
        "tokenizer.decode.s": t("tokenizer.decode"),
        "tokenizer.decode.tokens": a("tokenizer.decode.tokens"),
        "tokenizer.vocab_builds": counts.get("tokenizer.vocab_builds", 0),
        "tokenizer.index_builds": counts.get("tokenizer.index_builds", 0),
        "tokenizer.bpe_train.s": t("tokenizer.bpe_train"),
        "tokenizer.bpe_train.merges": a("tokenizer.bpe_train.merges"),
        "ingest.parse_bed_like.s": t("ingest.parse_bed_like"),
        "ingest.extract.s": t("ingest.extract"),
        "ingest.extract.regions": a("ingest.extract.regions"),
        "ingest.gener_tasks.s": t("ingest.gener_tasks"),
        "lm.observe.calls": c("lm.observe"),
        "lm.observe.s": t("lm.observe"),
        "lm.observe.tokens": a("lm.observe.tokens"),
        "lm.save.s": t("lm.save"),
        "lm.save.bytes": a("lm.save.bytes"),
        "lm.load.s": t("lm.load"),
        "lm.load.bytes": a("lm.load.bytes"),
        "lm.sequence_logprob.calls": c("lm.sequence_logprob"),
        "lm.sequence_logprob.s": t("lm.sequence_logprob"),
        "lm.sequence_logprob.tokens": a("lm.sequence_logprob.tokens"),
        "lm.next_distribution.calls": c("lm.next_distribution"),
        "lm.next_distribution.s": t("lm.next_distribution"),
        "lm.next_distribution.context_ids": a("lm.next_distribution.context_ids"),
        "lm.bridge.connect_s": t("lm.bridge.connect"),
        "lm.bridge.roundtrips": c("lm.bridge.roundtrip"),
        "lm.bridge.roundtrip_s": t("lm.bridge.roundtrip"),
        "lm.bridge.peer_busy_s": peer.get("busy_s", 0.0),
        "lm.bridge.wait_s": t("lm.bridge.roundtrip") - peer.get("busy_s", 0.0),
        "lm.bridge.bytes_sent": peer.get("bytes_in", 0),
        "lm.bridge.bytes_recv": peer.get("bytes_out", 0),
        "lm.bridge.failures": errors.get("lm.bridge.roundtrip", 0),
        "lm.bridge.peer_rss_mb": peer.get("rss_mb", 0.0),
        "sampling.generate.calls": c("sampling.generate"),
        "sampling.generate.self_s": self_s.get("sampling.generate", 0.0),
        "sampling.generate.tokens": a("sampling.generate.tokens"),
        "sampling.conditioned_generate.attempts": sum(
            1 for s in spans
            if s.name == "sampling.generate" and s.parent is not None
            and s.parent.name == "sampling.conditioned_generate"
        ),
        "sampling.conditioned_generate.duplicates_filtered":
            a("sampling.conditioned_generate.duplicates_filtered"),
        "recover.run_recovery.self_s": self_s.get("recover.run_recovery", 0.0),
        "recover.run_recovery.items": a("recover.run_recovery.items"),
        "vep.vep_score.calls": c("vep.vep_score"),
        "vep.vep_score.self_s": self_s.get("vep.vep_score", 0.0),
        "vep.model_calls": sum(
            1 for s in spans if s.name in MODEL_CALLS and _under(s, "vep.vep_score")
        ),
        "vep.capped": a("vep.vep_score.capped"),
        "design.quantile_labels.s": t("design.quantile_labels"),
        "design.fit_kmer_ridge.s": t("design.fit_kmer_ridge"),
        "design.rank_and_select.s": t("design.rank_and_select"),
        "design.contribution_scores.calls": c("design.contribution_scores"),
        "design.contribution_scores.s": t("design.contribution_scores"),
        "design.predict_calls": counts.get("design.predict_calls", 0),
    }
    return m


def unit_of(metric: str) -> str:
    if metric.endswith("items_per_s"):
        return "items/s"
    if metric == "trace.slowdown":
        return "ratio"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(".nt"):
        return "nt"
    if metric.endswith("tokens") or metric.endswith("context_ids"):
        return "tokens"
    if "bytes" in metric:
        return "bytes"
    return "count"


def combine(per_iteration: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each time over the traced iterations; counts must repeat.

    Returns the combined metrics and the names of counts that differed
    between iterations.
    """
    out = {}
    unstable = []
    for name in per_iteration[0]:
        values = [m[name] for m in per_iteration]
        if unit_of(name) in ("s", "MB"):
            out[name] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                unstable.append(name)
            out[name] = values[0]
    return out, unstable


def dump(path, spans: list[Span], counts: dict[str, int], metrics: dict) -> None:
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w") as fh:
        json.dump(
            {
                "metrics": metrics,
                "counters": counts,
                "spans": [
                    {
                        "name": s.name,
                        "start": s.start,
                        "end": s.end,
                        "parent": index.get(id(s.parent)) if s.parent is not None else None,
                        **({"attrs": s.attrs} if s.attrs else {}),
                        **({"error": True} if s.error else {}),
                    }
                    for s in spans
                ],
            },
            fh,
        )
