"""Every fault a command reports is a typed GenomeLmError.

The gate is mutation fuzzing, in the manner of Miller, Fredriksen & So, "An
Empirical Study of the Reliability of UNIX Utilities" (CACM 1990). Each
trial takes one kind of input file, one call of the manifest's `CALLS` that
reads such a file, and 1-3 edits of that file's bytes, and runs `cli.main` in-process on
the edited copy; FASTA and TSV inputs may come through a pipe, as
/dev/fd/N. Whatever the edit, no exception leaves `main`, the exit code is
0, 1 or 2, and a data error (2) reads `error: <GenomeLmError subclass>: ...`
or is an OSError that names its path. A reader's error names one of the
call's input files: the edited one, or the one whose rows no longer match
it. The trials are derandomized, so the gate runs the same trials each time.

The faults found by hand and by the fuzzer are pinned one by one, with
their exit code and message: a bad byte in a --config file, a flag value
the library rejects, a --lambdas value that is not a number, a raw stdin
byte, a short or lone `embed` record, and model archives that zipfile or
NumPy cannot read, each of which fails with an exception of another type.

A static test keeps the rule in the source: no module raises a
bare ValueError but `cli.py`'s flag types and `_config_value`, which argparse
and `_parse` report as usage errors.
"""
from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import shlex
import zipfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import genomelm
from genomelm import errors
from genomelm.cli import DATA_ERROR, main
from genomelm.lm import MarkovLm
from genomelm.tokenizer import KmerTokenizer
from test_cli_manifest import CALLS, run_calls

OUTPUT_FLAGS = ("--out", "--model-out", "--gene-out", "--taxon-out")
FILE = re.compile(r"(markov:)?\w+\.(fa|tsv|gb|cfg|json|npz)")  # an argument that names a file
PIPED = (".fa", ".tsv")  # the inputs also sent through a pipe
PIPE_BYTES = 1 << 16  # a pipe's buffer on Linux: an input this small is written whole first
JUNK = [b"\t", b">", b"N", "\u00e9".encode(), b"\x00", b"nan", b"1e400", b"-1", b"="]
READER_ERRORS = ("BadRow", "BadFastaRecord", "BadModelFile", "MalformedLocation", "MissingOrigin")
TYPED = re.compile(r"error: (\w+): ")

# each call that reads a file, with the argv positions of the files it reads
FUZZED = {call: [i for i, arg in enumerate(argv)
                 if FILE.fullmatch(arg) and (i == 0 or argv[i - 1] not in OUTPUT_FLAGS)]
          for call, argv in zip(CALLS, map(str.split, CALLS))}
FUZZED = {call: inputs for call, inputs in FUZZED.items() if inputs}
# each kind of input file, by suffix, with the (call, argv position) pairs that read one
TARGETS: dict[str, list[tuple[str, int]]] = {}
for _call, _inputs in FUZZED.items():
    for _i in _inputs:
        TARGETS.setdefault(Path(_call.split()[_i]).suffix, []).append((_call, _i))

EDITS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.sampled_from(JUNK)),
    st.tuples(st.just("delete"), st.integers(0, 1 << 16), st.integers(1, 8)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16), st.none()),
    st.tuples(st.just("line"), st.integers(0, 1 << 16), st.none()),
    st.tuples(st.just("set"), st.integers(0, 1 << 16), st.integers(0, 255)),
)


def edited(data: bytes, edit) -> bytes:
    """`data` after one edit at a position taken modulo its length + 1:
    insert a junk token, delete up to 8 bytes, truncate, duplicate the line
    that holds the position, or set one byte."""
    kind, at, arg = edit
    at %= len(data) + 1
    if kind == "insert":
        return data[:at] + arg + data[at:]
    if kind == "delete":
        return data[:at] + data[at + arg:]
    if kind == "truncate":
        return data[:at]
    if kind == "line":
        start, end = data.rfind(b"\n", 0, at) + 1, data.find(b"\n", at)
        end = len(data) if end < 0 else end + 1
        return data[:end] + data[start:end] + data[end:]
    return data[:at] + bytes([arg]) + data[at + 1:]


@st.composite
def trials(draw):
    """A manifest call, the argv position of one file it reads, the edits
    of that file, and whether a FASTA or TSV file comes through a pipe. The
    kind of file is drawn first, so a kind that one call reads (a --config
    file) is edited as often as one that forty read (FASTA)."""
    call, target = draw(st.sampled_from(TARGETS[draw(st.sampled_from(sorted(TARGETS)))]))
    return call, target, draw(st.lists(EDITS, min_size=1, max_size=3)), draw(st.booleans())


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    """The manifest's inputs, and the files its calls write for later ones."""
    d = tmp_path_factory.mktemp("manifest")
    run_calls(d)
    return d


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("trials")


@contextlib.contextmanager
def delivered(data: bytes, name: str, piped: bool, work_dir: Path):
    """A path that reads as `data`: with `piped`, a FASTA or TSV input small
    enough to be written whole before the read comes through a pipe, as
    /dev/fd/N; any other is a file in `work_dir`."""
    if piped and name.endswith(PIPED) and len(data) < PIPE_BYTES:
        read_end, write_end = os.pipe()
        try:
            with os.fdopen(write_end, "wb") as fh:
                fh.write(data)
            yield f"/dev/fd/{read_end}"
        finally:
            os.close(read_end)
    else:
        path = work_dir / f"edited-{name}"
        path.write_bytes(data)
        yield str(path)


def _file(arg: str) -> str:
    return arg.removeprefix("markov:")


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            raise AssertionError(f"{shlex.join(argv)}: {exc!r} left main") from exc
    return code, err.getvalue()


@settings(max_examples=600, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(trial=trials())
def test_no_edit_of_an_input_escapes_the_typed_error_path(manifest_dir, work_dir, trial):
    call, target, edits, piped = trial
    argv = call.split()
    name = _file(argv[target])
    data = (manifest_dir / name).read_bytes()
    for edit in edits:
        data = edited(data, edit)
    with delivered(data, name, piped, work_dir) as path:
        for i, arg in enumerate(argv):
            if i in FUZZED[call]:
                argv[i] = arg.replace(_file(arg), path if i == target else
                                      str(manifest_dir / _file(arg)))
            elif i and argv[i - 1] in OUTPUT_FLAGS:
                argv[i] = str(work_dir / arg)
        code, err = _run(argv)
    shown = shlex.join(argv)
    assert code in (0, 1, 2), f"{shown}: exit {code}"
    if code != DATA_ERROR:
        return
    message = [line for line in err.splitlines() if line.startswith("error: ")][-1]
    paths = [_file(argv[i]) for i in FUZZED[call]]
    typed = TYPED.match(message)
    error = getattr(errors, typed.group(1), None) if typed else None
    if not (isinstance(error, type) and issubclass(error, errors.GenomeLmError)):
        assert "[Errno " in message and any(p in message for p in paths), \
            f"{shown}: an untyped data error: {message}"
    elif error.__name__ in READER_ERRORS:
        assert any(p in message for p in paths), f"{shown}: names no input file: {message}"


# --- faults found by hand and by the fuzzer ------------------------------------

ONE = b">a|plant\nACGTACGT\n"
SHORT = ONE + b">b|plant\nA\n"
ACTIVITIES = b"#sequence\tdev\thk\nACGT\t1.0\t2.0\nAGGT\t0.5\t1.0\n"
ORDER_1_LAMBDAS = "--k 1 --order 1 --model-out m.npz --lambdas"
NAMED = [  # argv, the files it reads, stdin, exit code, the last stderr line
    ("tokenize ACGT --config bad.cfg", {"bad.cfg": b"k = 3\xf0\n"}, None, 2,
     "error: BadRow: bad.cfg: bad row at line 1: byte 0xf0 is not UTF-8"),
    ("tokenize --in one.fa --config off.cfg", {"one.fa": ONE, "off.cfg": b"offset = -1\n"},
     None, 2, "error: BadValue: offset must be in [0,5], got -1"),
    ("tokenize ACGT --k 9", {}, None, 2, "error: BadValue: k must be in [1,8], got 9"),
    ("tokenize --k 2", {}, b"AC\xf0GT\n", 2,
     "error: BadFastaRecord: <stdin>: line 1: byte 0xf0 is not UTF-8"),
    ("tokenize --k 2", {}, b"ACXGT\n", 2,
     "error: BadFastaRecord: <stdin>: line 1: invalid symbol 'X' at position 2"),
    ("bpe-train one.fa --target-vocab 3", {"one.fa": ONE}, None, 2,
     "error: BadValue: target_vocab must be at least 36, got 3"),
    (f"train-markov one.fa {ORDER_1_LAMBDAS} a,b", {"one.fa": ONE}, None, 1,
     "error: argument --lambdas: invalid weights value: 'a,b'"),
    (f"train-markov one.fa {ORDER_1_LAMBDAS} 0.5,nan", {"one.fa": ONE}, None, 2,
     "error: BadSmoothing: interpolation weights must be finite, got [0.5, nan]"),
    ("generate --model uniform:1 --temperature 0", {}, None, 2,
     "error: BadValue: temperature must be finite and > 0, got 0.0"),
    ("generate --model uniform:1 --top-p 2", {}, None, 2,
     "error: BadValue: nucleus P must be in (0,1], got 2.0"),
    ("design fit --activities a.tsv --l2 -1 --model-out p.json", {"a.tsv": ACTIVITIES}, None,
     2, "error: BadValue: l2 strength must be finite and >= 0, got -1.0"),
    ("embed project --in one.fa", {"one.fa": ONE}, None, 2,
     "error: InsufficientData: insufficient data for --in one.fa: need 2, have 1"),
    ("embed project --in short.fa --k 2", {"short.fa": SHORT}, None, 2,
     "error: SequenceTooShort: short.fa: record 'b': sequence of 1 nt shorter than k=2"),
    ("embed silhouette --in short.fa --k 2", {"short.fa": SHORT}, None, 2,
     "error: SequenceTooShort: short.fa: record 'b': sequence of 1 nt shorter than k=2"),
]


@pytest.mark.parametrize("call, files, stdin, code, message", NAMED, ids=[c[0] for c in NAMED])
def test_a_named_fault_is_typed(call, files, stdin, code, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        Path(name).write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin or b"")))
    got, err = _run(call.split())
    assert (got, err.splitlines()[-1]) == (code, message)


def _cut(data: bytearray) -> bytearray:
    return data[:4] + data[5:]  # a zip directory offset that seeks before the start


def _set_bits(offset: int, bits: int):
    """An edit that sets `bits` in byte `offset` of the first zip directory entry."""
    def edit(data: bytearray) -> bytearray:
        data[data.find(b"PK\x01\x02") + offset] |= bits
        return data
    return edit


def _unclosed_npy_header(data: bytearray) -> bytes:
    """The archive with the header array's .npy dict left open, under a
    valid CRC, so that NumPy's header parser fails, not zipfile."""
    archive, out = zipfile.ZipFile(io.BytesIO(data)), io.BytesIO()
    with zipfile.ZipFile(out, "w") as rewritten:
        for name in archive.namelist():
            entry = archive.read(name)
            rewritten.writestr(name, entry.replace(b"}", b"(", 1) if name == "header.npy" else entry)
    return out.getvalue()


ARCHIVE_FAULTS = [  # an edit of a model file's zip archive, and the error it raises there
    (_cut, "[Errno 22] Invalid argument"),  # an OSError
    (_set_bits(10, 99), "That compression method is not supported"),  # NotImplementedError
    (_set_bits(8, 1),  # the encryption flag: a RuntimeError
     "File 'header.npy' is encrypted, password required for extraction"),
    (_unclosed_npy_header, "('EOF in multi-line statement', (2, 0))"),  # tokenize.TokenError
]


@pytest.mark.parametrize("edit, reason", ARCHIVE_FAULTS,
                         ids=["cannot-seek", "unknown-compression", "encrypted", "npy-header"])
def test_a_model_file_whose_archive_cannot_be_read_names_it(edit, reason, tmp_path):
    path = tmp_path / "m.npz"
    MarkovLm.uniform(KmerTokenizer(1).vocab).save(path)
    path.write_bytes(edit(bytearray(path.read_bytes())))
    code, err = _run(["generate", "--model", f"markov:{path}"])
    assert (code, err) == (DATA_ERROR, f"error: BadModelFile: {path}: header: {reason}\n")


# --- the rule in the source --------------------------------------------------

# the functions that may raise a bare ValueError, by module
BARE_VALUE_ERRORS = {"cli.py": {"length", "count", "_config_value"}}


def _bare_value_error_raisers(tree: ast.Module) -> list[tuple[str, int]]:
    """(function, line) of each `raise ValueError...` in `tree`."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_no_module_raises_a_bare_value_error():
    source = Path(genomelm.__file__).parent
    bare = [(path.name, function, line)
            for path in sorted(source.glob("*.py"))
            for function, line in _bare_value_error_raisers(ast.parse(path.read_text()))
            if function not in BARE_VALUE_ERRORS.get(path.name, ())]
    assert not bare, f"raise BadValue instead of ValueError at {bare}"


def test_the_rule_sees_a_bare_raise():
    tree = ast.parse("def f(x):\n    if x:\n        raise ValueError('x')\n    raise ValueError\n"
                     "def length(t):\n    raise ValueError(t)\n")
    assert _bare_value_error_raisers(tree) == [("f", 3), ("f", 4), ("length", 6)]
