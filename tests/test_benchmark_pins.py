"""The names the benchmark's tracer (perfbench/tracing.py) wraps from outside.

The tracer finds each span and counter by module and attribute name: a
module-level function at every binding that holds it, a method through its
class `__dict__`, `Vocabulary.index` as a property and `MarkovLm.load` as a
classmethod. These tests resolve every entry the same way, so a rename or an
inlining fails here rather than in a benchmark run. Importing perfbench only
reads it: no bytecode is written under it.
"""
import importlib
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracing():
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT))
    try:
        return importlib.import_module("perfbench.tracing")
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved


def resolve(module_name, path):
    module = importlib.import_module(module_name)
    if "." not in path:
        return getattr(module, path)
    cls_name, attr = path.split(".")
    return vars(getattr(module, cls_name))[attr]


def test_every_span_and_counter_resolves(tracing):
    entries = [(m, p) for m, p, *_ in tracing.SPANS + tracing.COUNTS]
    assert len(entries) == len(tracing.SPANS) + len(tracing.COUNTS) > 20
    for module_name, path in entries:
        raw = resolve(module_name, path)
        if path == "Vocabulary.index":
            assert isinstance(raw, property)
        elif path == "MarkovLm.load":
            assert isinstance(raw, classmethod)
        else:
            assert callable(raw) and not isinstance(raw, (property, classmethod)), path


def test_names_the_benchmark_reads_or_patches(tracing):
    from genomelm import cli, lm

    assert cli._default_threads() == 1
    assert inspect.isfunction(vars(lm._SubprocessPeer)["__init__"])


def test_the_k_mer_tokenizer_goes_through_the_traced_functions(tracing):
    from genomelm.tokenizer import KmerTokenizer

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        tokenizer = KmerTokenizer(3)
        ids = tokenizer.encode("ACGTACGTAC", offset=1)
        assert tokenizer.decode(ids) == "CGTACGTAC"
        tracer.active = False
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    got = [(s.name, s.attrs) for s in spans if s.name.startswith("tokenizer.")]
    assert got == [("tokenizer.encode", {"nt": 10}), ("tokenizer.decode", {"tokens": 3})]
    assert counts == {"tokenizer.vocab_builds": 2}


@pytest.mark.parametrize("leaf", ["ingest-extract", "train-markov"])
def test_every_fasta_read_is_a_traced_read_fasta(tracing, tmp_path, leaf):
    # corpus-train reads its genome and corpus through these leaves; were they to
    # read by any name but read_fasta, seqcore.read_fasta.* would read 0 there
    from genomelm.cli import main

    fasta = tmp_path / "g.fa"
    fasta.write_text(">s0|fungi\n" + "ACGT" * 30 + "\n>s1|plant\n" + "GGCA" * 20 + "\n")
    (tmp_path / "ann.tsv").write_text("s0\t10\t60\t+\tgene\tfungi\n")
    argv = {
        "ingest-extract": ["ingest", "extract", "--genome", str(fasta),
                           "--annotations", str(tmp_path / "ann.tsv"),
                           "--out", str(tmp_path / "regions.fa")],
        "train-markov": ["train-markov", str(fasta), "--k", "2",
                         "--model-out", str(tmp_path / "m.npz")],
    }[leaf]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        assert main(argv) == 0
        tracer.active = False
    finally:
        tracer.uninstall()
    spans, _ = tracer.take()
    assert [s.attrs for s in spans if s.name == "seqcore.read_fasta"] == [{"nt": 200}]
