import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genomelm.cli import (_BOOLEANS, DATA_ERROR, USAGE_ERROR, _load_config, _parse,
                          _shared_parser, build_parser, count, length, lengths, main,
                          weights)
from genomelm.seqcore import NucleotideSequence, fasta_text
from genomelm.tokenizer import kmer_count_matrix


def rewrite_npz(path, edit):
    """Rewrite the .npz model file at `path` after edit(arrays) changes its
    dict of arrays in place."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = dict(npz)
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def edit_array(name, fn):
    """An edit that replaces array `name` by fn(array); fn=None deletes it."""
    def edit(arrays):
        if fn is None:
            del arrays[name]
        else:
            arrays[name] = fn(arrays.get(name))
    return edit


def edit_header(**fields):
    """An edit that sets header fields; None deletes one."""
    def change(header):
        obj = json.loads(str(header))
        for key, value in fields.items():
            if value is None:
                del obj[key]
            else:
                obj[key] = value
        return np.array(json.dumps(obj))
    return edit_array("header", change)


def stdin_of(text: str):
    """A sys.stdin that holds `text`, with the `.buffer` of bytes the CLI reads."""
    return io.TextIOWrapper(io.BytesIO(text.encode()))


def write_fasta(path, seqs):
    Path(path).write_text(fasta_text(seqs))


def write_corpus(path, n=6, length=120, seed=0):
    import random

    rng = random.Random(seed)
    seqs = [
        NucleotideSequence(
            "".join(rng.choice("ACGT") for _ in range(length)), id=f"s{i}"
        )
        for i in range(n)
    ]
    write_fasta(path, seqs)
    return seqs


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == USAGE_ERROR

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == USAGE_ERROR

    def test_missing_required_flag_is_usage_error(self):
        assert main(["bpe-train", "corpus.fa"]) == USAGE_ERROR

    def test_domain_failure_is_data_error(self, capsys):
        assert main(["translate", "ACGU"]) == DATA_ERROR
        assert "InvalidSymbol" in capsys.readouterr().err

    def test_missing_file_is_data_error(self):
        assert main(["bpe-train", "/nonexistent.fa", "--target-vocab", "40"]) == DATA_ERROR

    @pytest.mark.parametrize("argv", [
        ["recover", "run", "--model", "uniform:1", "--dataset", "d.tsv", "--threads", "2"],
        ["vep", "score", "--genome", "g.fa", "--variants", "v.tsv", "--model", "uniform:1",
         "--seed", "1"],
        ["train-markov", "c.fa", "--model-out", "m.jsonl", "--out", "x"],
        ["vep", "score", "--genome", "g.fa", "--variants", "v.tsv", "--model", "uniform:1",
         "--mode", "mlm"],
    ])
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, argv, capsys):
        assert main(argv) == USAGE_ERROR
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["uniform:x", "uniform:", "uniform:0", "uniform:9"])
    def test_a_bad_uniform_model_spec_is_named(self, spec, capsys):
        assert main(["generate", "--model", spec, "--max-new", "4"]) == DATA_ERROR
        assert capsys.readouterr().err == (
            f"error: BadValue: --model {spec}: expected uniform:<k> with k in [1,8]\n")

    def test_success_is_zero(self, capsys):
        assert main(["translate", "ATGTAA"]) == 0
        out = capsys.readouterr().out
        assert "M*" in out
        assert "True" in out  # complete


class TestTokenizeCommand:
    def test_kmer_output_shape(self, capsys):
        assert main(["tokenize", "ACGTACG", "--k", "3"]) == 0
        offset, ids, tail = capsys.readouterr().out.strip().split("\t")
        assert offset == "0"
        assert ids.split() == ["6", "49"]  # ACG, TAC
        assert tail == "G"

    def test_bpe_pipeline(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.fa"
        write_fasta(corpus, [NucleotideSequence("ACACACAC", id="a")])
        model_out = tmp_path / "bpe.json"
        assert main([
            "bpe-train", str(corpus), "--target-vocab", "38",
            "--out", str(model_out),
        ]) == 0
        assert main([
            "tokenize", "ACACG", "--bpe-model", str(model_out)
        ]) == 0
        ids = capsys.readouterr().out.strip().split()
        assert len(ids) >= 2

    def test_bpe_model_is_read_once(self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "corpus.fa"
        write_fasta(corpus, [NucleotideSequence("ACACACAC", id=f"s{i}") for i in range(3)])
        model = tmp_path / "bpe.json"
        assert main([
            "bpe-train", str(corpus), "--target-vocab", "38", "--out", str(model),
        ]) == 0
        opened = []
        real_open = open

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", recording_open)
        assert main(["tokenize", "--in", str(corpus), "--bpe-model", str(model)]) == 0
        assert opened.count(str(model)) == 1
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_fasta_on_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", stdin_of(">a|fungi\nACG\nTAC\n\n>b\nGGG\n"))
        assert main(["tokenize", "--k", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0\t6 49\t", "0\t42\t"]

    @pytest.mark.parametrize("eol", ["\r\n", "\r"])
    def test_fasta_on_stdin_ends_lines_as_a_file_does(self, monkeypatch, capsys, eol):
        text = ">a|fungi\nACG\nTAC\n\n>b\nGGG\n".replace("\n", eol)
        monkeypatch.setattr("sys.stdin", stdin_of(text))
        assert main(["tokenize", "--k", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0\t6 49\t", "0\t42\t"]

    def test_random_offset_is_drawn_per_sequence_from_one_seed(self, tmp_path, capsys):
        import random

        fasta = tmp_path / "r.fa"
        write_corpus(fasta, n=3, length=20)
        argv = ["tokenize", "--in", str(fasta), "--k", "3", "--random-offset", "--seed", "0"]
        assert main(argv) == 0
        offsets = [int(line.split("\t")[0]) for line in capsys.readouterr().out.splitlines()]
        rng = random.Random(0)
        assert offsets == [rng.randrange(3) for _ in range(3)]

    def test_out_flag_writes_file_not_stdout(self, tmp_path, capsys):
        out = tmp_path / "tokens.txt"
        assert main(["tokenize", "ACGT", "--k", "2", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("0\t")


class TestConfigPrecedence:
    def test_config_file_supplies_values(self, tmp_path, capsys):
        config = tmp_path / "genomelm.conf"
        config.write_text("# comment\nk = 2\n")
        assert main(["tokenize", "ACGTAC", "--config", str(config)]) == 0
        _, ids, _ = capsys.readouterr().out.rstrip("\n").split("\t")
        assert len(ids.split()) == 3  # tokenized at k=2, not the default 6

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        config = tmp_path / "genomelm.conf"
        config.write_text("k=2\n")
        assert main(["tokenize", "ACGTAC", "--k", "3", "--config", str(config)]) == 0
        _, ids, _ = capsys.readouterr().out.rstrip("\n").split("\t")
        assert len(ids.split()) == 2  # k=3 wins

    def test_explicit_flag_beats_config_under_another_dest(self, tmp_path, capsys):
        fasta = tmp_path / "a.fa"
        fasta.write_text(">a\nACGTAC\n")
        config = tmp_path / "genomelm.conf"
        config.write_text(f"infile = {tmp_path / 'missing.fa'}\n")
        argv = ["tokenize", "--in", str(fasta), "--k", "2", "--config", str(config)]
        assert main(argv) == 0
        assert capsys.readouterr().out == "0\t1 11 1\t\n"

    def test_abbreviated_flag_beats_config(self, tmp_path, capsys):
        corpus = tmp_path / "corp.fa"
        write_corpus(corpus)
        config = tmp_path / "t.conf"
        config.write_text("target_vocab = 37\n")
        # abbreviations are off, so the file value cannot silently win: a usage error
        assert main(["bpe-train", str(corpus), "--target-v", "40", "--config", str(config)]) \
            == USAGE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --target-v 40" in captured.err

    def test_config_supplies_a_required_flag(self, tmp_path, capsys):
        corpus = tmp_path / "corp.fa"
        write_corpus(corpus)
        config = tmp_path / "t.conf"
        config.write_text("target_vocab = 37\n")
        assert main(["bpe-train", str(corpus), "--config", str(config)]) == 0
        assert len(json.loads(capsys.readouterr().out)["tokens"]) == 37
        assert main(["bpe-train", str(corpus), "--target-vocab", "40", "--config", str(config)]) \
            == 0
        assert len(json.loads(capsys.readouterr().out)["tokens"]) == 40

    def test_required_flag_in_neither_argv_nor_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "t.conf"
        config.write_text("k = 3\n")
        assert main(["bpe-train", "corp.fa", "--config", str(config)]) == USAGE_ERROR
        assert "required: --target-vocab" in capsys.readouterr().err

    def test_unreadable_config_is_data_error(self, tmp_path):
        assert main(["tokenize", "ACGT", "--config", str(tmp_path / "no.conf")]) == DATA_ERROR

    def test_uncastable_config_value_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "genomelm.conf"
        config.write_text("k = two\n")
        assert main(["tokenize", "ACGT", "--config", str(config)]) == USAGE_ERROR
        err = capsys.readouterr().err
        assert "k = 'two'" in err and str(config) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, line, problem", [
        (["translate", "ATG"], "frame = 5", "'5' is not one of 0, 1, 2"),
        (["tokenize", "ACGTAC", "--k", "2"], "random_offset = maybe",
         "'maybe' is not a boolean (1/true/yes/on/0/false/no/off)"),
    ])
    def test_config_value_obeys_the_flag_rules(self, tmp_path, capsys, argv, line, problem):
        config = tmp_path / "genomelm.conf"
        config.write_text(line + "\n")
        assert main(argv + ["--config", str(config)]) == USAGE_ERROR
        key = line.split(" ")[0]
        assert f"error: {config}: {key} = {problem}" in capsys.readouterr().err

    def test_config_boolean_reads_like_the_flag(self, tmp_path, capsys):
        config = tmp_path / "genomelm.conf"
        config.write_text("random_offset = ON\nseed = 3\n")
        argv = ["tokenize", "ACGTACGTAC", "--k", "3"]
        assert main(argv + ["--config", str(config)]) == 0
        from_config = capsys.readouterr().out
        assert main(argv + ["--random-offset", "--seed", "3"]) == 0
        assert from_config == capsys.readouterr().out

    def test_keys_for_absent_flags_are_ignored(self, tmp_path, capsys):
        # translate has neither --k nor --seed; tokenize has both
        config = tmp_path / "genomelm.conf"
        config.write_text("k = 2\nseed = x\n")
        assert main(["translate", "ATG", "--config", str(config)]) == 0
        assert "M" in capsys.readouterr().out

    @pytest.mark.parametrize("key, hint", [
        ("tempreature", ""), ("threads", ""), ("in", "; the key of --in is 'infile'"),
    ])
    def test_key_of_no_flag_is_usage_error(self, tmp_path, capsys, key, hint):
        config = tmp_path / "c.cfg"
        config.write_text(f"seed = 3\n{key} = 0.1\n")
        assert main(["generate", "--model", "uniform:1", "--config", str(config)]) == USAGE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {config}: key {key!r} matches no flag of any command{hint}\n" \
            == captured.err

    @pytest.mark.parametrize("line", ["temperature 0.1", "greedy", "k: 2"])
    def test_line_without_equals_is_usage_error(self, tmp_path, capsys, line):
        config = tmp_path / "c.cfg"
        config.write_text(f"# comment\n\nseed = 3\n{line}\n")
        assert main(["generate", "--model", "uniform:1", "--config", str(config)]) == USAGE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {config}: line 4: {line!r} is not a key = value line\n"

    def test_infile_key_sets_in(self, tmp_path, capsys):
        fasta = tmp_path / "s.fa"
        fasta.write_text(">s\nATGGCC\n")
        config = tmp_path / "c.cfg"
        config.write_text(f"infile = {fasta}\n")
        assert main(["translate", "--config", str(config)]) == 0
        assert "MA" in capsys.readouterr().out

    # main builds its parser once per process; these run several calls in one
    # process, so a --config value or a switched-off `required` that outlived
    # its call would show in the next one.
    def test_a_config_default_does_not_outlive_its_call(self, tmp_path, capsys):
        corpus, model = tmp_path / "corp.fa", tmp_path / "m.npz"
        write_corpus(corpus)
        assert main(["train-markov", str(corpus), "--k", "1", "--model-out", str(model)]) == 0
        argv = ["generate", "--model", f"markov:{model}", "--max-new", "40", "-n", "3"]
        assert main(argv) == 0
        flag_default = capsys.readouterr().out
        cold, bad = tmp_path / "cold.cfg", tmp_path / "bad.cfg"
        cold.write_text("temperature = 0.1\n")
        bad.write_text("temperature = 0.1\ntop_p = x\n")  # fails after temperature is applied
        assert main(argv + ["--config", str(cold)]) == 0
        assert capsys.readouterr().out != flag_default  # the config value did apply
        assert main(argv) == 0
        assert capsys.readouterr().out == flag_default
        assert main(argv + ["--config", str(bad)]) == USAGE_ERROR
        assert main(argv) == 0
        assert capsys.readouterr().out == flag_default

    def test_calls_from_many_threads_keep_their_own_config(self, tmp_path):
        config = tmp_path / "k2.conf"
        config.write_text("k = 2\n")
        expected = {True: "0\t1 11 1\t\n", False: "0\t433\t\n"}  # k=2 and the default k=6
        wrong = []

        def call(worker):
            for i in range(100):
                with_config = (worker + i) % 2 == 0
                out = tmp_path / f"{worker}.txt"
                argv = ["tokenize", "ACGTAC", "--out", str(out)]
                code = main(argv + ["--config", str(config)] if with_config else argv)
                if code != 0 or out.read_text() != expected[with_config]:
                    wrong.append((worker, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=call, args=(w,)) for w in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert wrong == []

    @pytest.mark.parametrize("between", [
        ["bpe-train", "CORPUS", "--config", "CONFIG"],
        ["bpe-train", "CORPUS", "--config", "BAD"],
        ["bpe-train", "--help"],
    ])
    def test_a_required_flag_stays_required_in_the_next_call(self, tmp_path, capsys, between):
        corpus, config, bad = tmp_path / "corp.fa", tmp_path / "t.conf", tmp_path / "bad.conf"
        write_corpus(corpus)
        config.write_text("target_vocab = 37\n")
        bad.write_text("target_vocab = many\n")
        paths = {"CORPUS": str(corpus), "CONFIG": str(config), "BAD": str(bad)}
        main([paths.get(arg, arg) for arg in between])
        capsys.readouterr()
        assert main(["bpe-train", str(corpus)]) == USAGE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "required: --target-vocab" in captured.err


# --- the two-pass parse that `cli._parse` replaced, kept as its oracle --------
# It runs on a parser of its own, built by `build_parser` and so unsuppressed:
# it switches off every required flag for a first parse, writes the --config
# values into the flag defaults, parses again, and restores every action.

def oracle_parsers(parser):
    """`parser` and every subcommand parser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from oracle_parsers(sub)


def oracle_apply_config_value(action, value):
    """Make one --config value its flag's default, cast by the flag's rules;
    a problem, or None."""
    if isinstance(action.default, bool):
        if value.lower() not in _BOOLEANS:
            return "is not a boolean (" + "/".join(_BOOLEANS) + ")"
        action.default = _BOOLEANS[value.lower()]
        return None
    caster = action.type or str
    try:
        cast = caster(value)
    except ValueError:
        return f"is not a valid {caster.__name__}"
    if action.choices is not None and cast not in action.choices:
        return "is not one of " + ", ".join(map(str, action.choices))
    action.default = cast
    return None


def oracle_parse(parser, argv):
    all_actions = [a for p in oracle_parsers(parser) for a in p._actions]
    saved = [(a, a.required, a.default) for a in all_actions]
    required = [a for a in all_actions if a.required and a.option_strings]
    for action in required:
        action.required = False
    try:
        args = parser.parse_args(argv)
        file_values = _load_config(args.config) if args.config else {}
        leaf = next(p for p in oracle_parsers(parser) if p.get_default("func") is args.func)
        actions = {a.dest: a for a in leaf._actions}
        known = {a.dest: a.option_strings
                 for p in oracle_parsers(parser) if p.get_default("func") for a in p._actions}
        for key, value in file_values.items():
            if key not in known:
                flag = "--" + key.replace("_", "-")
                hint = "".join(f"; the key of {flag} is {dest!r}"
                               for dest, options in known.items() if flag in options)
                print(f"error: {args.config}: key {key!r} matches no flag of any command{hint}",
                      file=sys.stderr)
                return USAGE_ERROR
            action = actions.get(key)
            if key == "config" or action is None or not hasattr(args, key):
                continue
            problem = oracle_apply_config_value(action, value)
            if problem:
                print(f"error: {args.config}: {key} = {value!r} {problem}", file=sys.stderr)
                return USAGE_ERROR
        for action in required:
            action.required = action.dest not in file_values
        return parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return DATA_ERROR
    finally:
        for action, was_required, default in saved:
            action.required, action.default = was_required, default


ORACLE_PARSER = build_parser()
LEAVES = [p for p in oracle_parsers(ORACLE_PARSER) if p.get_default("func")]


def flag_text(action):
    """A value that `action`'s flag takes."""
    if action.nargs == 0:
        return "on"
    if action.choices:
        return str(action.choices[-1])
    return {None: "x.txt", int: "3", float: "0.5", length: "3", count: "3",
            lengths: "3,4", weights: "0.5,0.5"}[action.type]


def oracle_cases(leaf):
    """(argv, --config text or None) pairs that exercise every rule of the
    parse on the subcommand `leaf`."""
    actions = [a for a in leaf._actions if a.dest not in ("help", "config")]
    positionals = [flag_text(a) for a in actions if not a.option_strings and a.required]
    required = [a for a in actions if a.option_strings and a.required]
    # a base call of the new parse sets one of the flags it needs exactly one of
    chosen = [a for a in actions if a.dest in leaf.one_of[:1]]

    def argv(without=(), positional=True):
        flags = [x for a in required + chosen if a not in without
                 for x in (a.option_strings[0], flag_text(a))]
        return leaf.prog.split()[1:] + (positionals if positional else []) + flags

    typed = [a for a in actions if a.type or a.choices or a.nargs == 0]
    cases = [(argv(), None), (argv() + ["--help"], None), (argv(), "help = 1"),
             (argv(), "config = other.cfg"), (argv(), "tempreature = 1"), (argv(), "in = x"),
             (argv(), "tempreature = 1\nk = x"), (argv(required), None),
             (argv() + ["--config", "missing.cfg"], None)]
    # the one-of rule is new; its cases are tested on their own
    cases += [(argv(), f"{a.dest} = {flag_text(a)}") for a in actions
              if a.dest not in leaf.one_of[1:]]
    cases += [(argv(), f"{a.dest} = x?") for a in typed]
    cases += [(argv(), f"{a.dest} = x?\n{a.dest} = {flag_text(a)}") for a in typed]
    cases += [(argv(), f"{key} = 1") for key in ("temperature", "gene_out", "frame", "seq")
              if key not in {a.dest for a in actions}]
    cases += [(argv([a]), f"{a.dest} = {flag_text(a)}") for a in required]
    cases += [(argv(required), f"{a.dest} = {flag_text(a)}") for a in required]
    if positionals:
        cases.append((argv(positional=False), f"{actions[-1].dest} = 1"))
    if any(a.dest == "seq" for a in actions):
        cases.append((argv(), "seq = ACGT"))
    return cases


class TestSharedParser:
    @pytest.mark.parametrize("leaf", LEAVES, ids=lambda leaf: leaf.prog.split(" ", 1)[1])
    def test_each_call_matches_the_two_pass_oracle(self, leaf, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for argv, config in oracle_cases(leaf):
            if config is not None:
                Path("c.cfg").write_text(config + "\n")
                argv = argv + ["--config", "c.cfg"]
            outcomes = []
            for parse in (_parse, functools.partial(oracle_parse, ORACLE_PARSER)):
                result = parse(argv)
                captured = capsys.readouterr()
                if isinstance(result, argparse.Namespace):
                    result = vars(result)
                outcomes.append((result, captured.out, captured.err))
            assert outcomes[0] == outcomes[1], (argv, config)

    def test_calls_leave_every_action_as_built(self, tmp_path, capsys):
        _shared_parser.cache_clear()
        parser = _shared_parser()[0]

        def state():
            return [(a, a.required, a.default) for p in oracle_parsers(parser) for a in p._actions]

        built = state()
        good, bad, variants = tmp_path / "k2.cfg", tmp_path / "bad.cfg", tmp_path / "v.cfg"
        good.write_text("k = 2\n")
        bad.write_text("k = two\n")
        variants.write_text("variants = v.tsv\n")
        assert main(["tokenize", "ACGTAC", "--config", str(good)]) == 0
        assert main(["tokenize", "ACGTAC", "--config", str(bad)]) == USAGE_ERROR
        assert main(["bpe-train", "--help"]) == 0
        capsys.readouterr()
        assert main(["vep", "score"]) == USAGE_ERROR
        err = capsys.readouterr().err
        assert err.endswith("error: the following arguments are required: "
                            "--genome, --variants, --model\n")
        assert "[--variants VARIANTS]" not in err
        assert main(["vep", "score", "--config", str(variants)]) == USAGE_ERROR
        err = capsys.readouterr().err
        assert err.endswith("error: the following arguments are required: --genome, --model\n")
        # the file set it, so the usage line shows it optional
        assert "[--variants VARIANTS]" in err
        assert state() == built


class TestLengthFlags:
    @pytest.mark.parametrize("argv, value", [
        (["recover", "run", "--model", "uniform:1", "--dataset", "d.tsv", "--predict-len"], "0"),
        (["recover", "run", "--model", "uniform:1", "--dataset", "d.tsv", "--predict-len"],
         "30,-3"),
        (["recover", "build", "--genome", "g.fa", "--annotations", "a.tsv", "--prompt-len"],
         "-1"),
        (["generate", "--model", "uniform:1", "-n", "2", "--max-new"], "-3"),
        (["vep", "score", "--genome", "g.fa", "--variants", "v.tsv", "--model", "uniform:1",
          "--context-len"], "-5"),
        (["ingest", "gener-tasks", "--genome", "g.fa", "--annotations", "a.tsv",
          "--gene-out", "g.tsv", "--taxon-out", "t.tsv", "--window-len"], "0"),
        (["ingest", "gener-tasks", "--genome", "g.fa", "--annotations", "a.tsv",
          "--gene-out", "g.tsv", "--taxon-out", "t.tsv", "--window-len"], "-10"),
        (["ingest", "extract", "--genome", "g.fa", "--annotations", "a.tsv",
          "--min-subregion"], "0"),
        (["ingest", "extract", "--genome", "g.fa", "--annotations", "a.tsv",
          "--min-subregion"], "-3"),
        (["ingest", "stats", "--genome", "g.fa", "--annotations", "a.tsv",
          "--min-subregion"], "0"),
    ])
    def test_non_positive_length_is_usage_error(self, tmp_path, capsys, argv, value):
        assert main(argv + [value]) == USAGE_ERROR
        assert "invalid length" in capsys.readouterr().err
        # the same value from a config file
        config = tmp_path / "t.conf"
        config.write_text(f"{argv[-1][2:].replace('-', '_')} = {value}\n")
        assert main(argv[:-1] + ["--config", str(config)]) == USAGE_ERROR
        assert f"= '{value}' is not a valid length" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["ingest", "gener-tasks", "--genome", "g.fa", "--annotations", "a.tsv",
         "--gene-out", "g.tsv", "--taxon-out", "t.tsv", "--window-len"],
        ["ingest", "extract", "--genome", "g.fa", "--annotations", "a.tsv", "--min-subregion"],
    ])
    def test_a_length_of_one_is_valid(self, tmp_path, argv):
        key = argv[-1][2:].replace("-", "_")
        assert vars(_parse(argv + ["1"]))[key] == 1
        config = tmp_path / "t.conf"
        config.write_text(f"{key} = 1\n")
        assert vars(_parse(argv[:-1] + ["--config", str(config)]))[key] == 1

    @pytest.mark.parametrize("argv, value", [
        (["design", "rank", "--predictor", "p.json", "--candidates", "c.fa", "--top"], "-1"),
        (["design", "rank", "--predictor", "p.json", "--candidates", "c.fa", "--top", "5",
          "--bottom"], "-3"),
        (["design", "rank", "--predictor", "p.json", "--candidates", "c.fa", "--random"], "-2"),
        (["recover", "build", "--genome", "g.fa", "--annotations", "a.tsv", "--per-group-n"],
         "-1"),
        (["ingest", "gener-tasks", "--genome", "g.fa", "--annotations", "a.tsv",
          "--gene-out", "g.tsv", "--taxon-out", "t.tsv", "--per-class-n"], "-1"),
        (["ingest", "gener-tasks", "--genome", "g.fa", "--annotations", "a.tsv",
          "--gene-out", "g.tsv", "--taxon-out", "t.tsv", "--per-group-windows"], "-1"),
    ])
    def test_negative_count_is_usage_error(self, tmp_path, capsys, argv, value):
        assert main(argv + [value]) == USAGE_ERROR
        assert f"invalid count value: '{value}'" in capsys.readouterr().err
        # the same value from a config file
        key = argv[-1][2:].replace("-", "_")
        config = tmp_path / "t.conf"
        config.write_text(f"{key} = {value}\n")
        assert main(argv[:-1] + ["--config", str(config)]) == USAGE_ERROR
        assert f"{key} = '{value}' is not a valid count" in capsys.readouterr().err
        # a count of 0 is valid, from a flag and from a file
        assert vars(_parse(argv + ["0"]))[key] == 0
        config.write_text(f"{key} = 0\n")
        assert vars(_parse(argv[:-1] + ["--config", str(config)]))[key] == 0

    def test_sequence_count_must_be_positive(self, tmp_path, capsys):
        for value in ("0", "-2"):
            assert main(["generate", "--model", "uniform:1", "-n", value]) == USAGE_ERROR
            captured = capsys.readouterr()
            assert captured.out == "" and "invalid length" in captured.err
        config = tmp_path / "t.conf"
        config.write_text("n = 0\n")
        out = tmp_path / "gen.txt"
        argv = ["generate", "--model", "uniform:1", "--config", str(config), "--out", str(out)]
        assert main(argv) == USAGE_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and "n = '0' is not a valid length" in captured.err
        assert not out.exists()


class TestNumberFlags:
    """Float flags reject NaN and inf, which pass a `<= 0` check, and every
    k-mer size flag rejects a k outside 1..8."""

    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        seqs = write_corpus(tmp_path / "c.fa", n=4, length=40)
        Path("act.tsv").write_text("".join(f"{s.bases}\t{i}\t0\n" for i, s in enumerate(seqs)))

    @pytest.mark.parametrize("argv, reason", [
        (["train-markov", "c.fa", "--k", "1", "--alpha", "nan"], "alpha must be finite, got nan"),
        (["train-markov", "c.fa", "--k", "1", "--alpha", "inf"], "alpha must be finite, got inf"),
        (["train-markov", "c.fa", "--k", "1", "--order", "1", "--lambdas", "0.5,nan"],
         "interpolation weights must be finite"),
        (["generate", "--model", "uniform:1", "--temperature", "nan", "--out", "m.out"],
         "temperature must be finite and > 0, got nan"),
        (["generate", "--model", "uniform:1", "--temperature", "inf", "--out", "m.out"],
         "temperature must be finite and > 0, got inf"),
        (["design", "fit", "--activities", "act.tsv", "--k", "1", "--l2", "nan"],
         "l2 strength must be finite and >= 0, got nan"),
        (["design", "fit", "--activities", "act.tsv", "--k", "1", "--l2", "inf"],
         "l2 strength must be finite and >= 0, got inf"),
    ])
    def test_non_finite_number_is_data_error(self, inputs, capsys, argv, reason):
        out = [] if argv[0] == "generate" else ["--model-out", "m.out"]
        assert main(argv + out) == DATA_ERROR
        captured = capsys.readouterr()
        assert reason in captured.err and "Traceback" not in captured.err
        assert not Path("m.out").exists()

    def test_k_8_fit_on_few_records(self, tmp_path, monkeypatch, capsys):
        # 20 records against 4^8 = 65,536 k-mers: a 20 × 20 system, not 65,536 × 65,536
        monkeypatch.chdir(tmp_path)
        seqs = write_corpus(tmp_path / "k8.fa", n=20, length=30, seed=8)
        y = np.random.default_rng(8).normal(size=20)
        rows = (f"{s.bases}\t{a!r}\t0\n" for s, a in zip(seqs, y.tolist()))
        Path("k8.tsv").write_text("".join(rows))
        fit = ["design", "fit", "--activities", "k8.tsv", "--k", "8", "--model-out", "k8.json"]
        assert main(fit + ["--l2", "1"]) == 0
        w = np.array(json.loads(Path("k8.json").read_text())["weights"])
        X = kmer_count_matrix([s.bases for s in seqs], 8)
        Xc, yc = X - X.mean(axis=0), y - y.mean()
        # the ridge condition Xcᵀ (yc - Xc w) = l2 w, here with l2 = 1
        assert np.abs(Xc.T @ (yc - Xc @ w) - w).max() <= 1e-9 * np.abs(w).max()
        Path("k8.json").unlink()
        assert main(fit + ["--l2", "0"]) == DATA_ERROR
        err = capsys.readouterr().err
        assert "normal equations are singular; use l2 > 0" in err and "Traceback" not in err
        assert not Path("k8.json").exists()

    @pytest.mark.parametrize("k", ["-1", "0", "9", "12"])
    @pytest.mark.parametrize("argv", [
        ["design", "fit", "--activities", "act.tsv", "--model-out", "m.out", "--k"],
        ["embed", "project", "--in", "c.fa", "--k"],
        ["tokenize", "ACGTACGT", "--k"],
    ], ids=["design-fit", "embed-project", "tokenize"])
    def test_k_mer_size_outside_1_to_8_is_data_error(self, inputs, capsys, argv, k):
        assert main(argv + [k]) == DATA_ERROR
        captured = capsys.readouterr()
        assert f"k must be in [1,8], got {k}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestModelFileErrors:
    def _markov(self, tmp_path):
        corpus = tmp_path / "corpus.fa"
        write_corpus(corpus)
        model = tmp_path / "markov.jsonl"
        assert main([
            "train-markov", str(corpus), "--k", "1", "--order", "1", "--model-out", str(model),
        ]) == 0
        return model

    def _predictor(self, tmp_path, capsys):
        activities = tmp_path / "activities.tsv"
        activities.write_text("".join(f"{s}\t{i}\t0\n" for i, s in
                                      enumerate(["ACGTAC", "AAGTTC", "GGCTAC", "ACGTTT"])))
        predictor = tmp_path / "ridge.json"
        assert main(["design", "fit", "--activities", str(activities), "--k", "2",
                     "--model-out", str(predictor)]) == 0
        capsys.readouterr()
        return predictor

    def _fails_naming(self, capsys, argv, path, reason):
        assert main(argv) == DATA_ERROR
        err = capsys.readouterr().err
        assert f"BadModelFile: {path}: {reason}" in err and "Traceback" not in err

    def test_markov_header_without_vocab(self, tmp_path, capsys):
        model = self._markov(tmp_path)
        rewrite_npz(model, edit_header(vocab=None))
        self._fails_naming(capsys, ["generate", "--model", f"markov:{model}"], model,
                           "header: missing key 'vocab'")

    def test_markov_header_that_is_not_an_object(self, tmp_path, capsys):
        model = self._markov(tmp_path)
        rewrite_npz(model, edit_array("header", lambda a: np.array("[]")))
        self._fails_naming(capsys, ["generate", "--model", f"markov:{model}"], model,
                           "header: 'list' object has no attribute 'get'")

    @pytest.mark.parametrize("edit, reason", [
        pytest.param(edit_header(format_version=1), "header: unsupported model format: 1",
                     id="header-format"),
        pytest.param(edit_header(vocab={"tokens": ["A", "C", "G", "T", "<bos>"], "n_base": 99}),
                     "header: n_base: 99 is not in 1..5", id="header-n-base"),
        pytest.param(edit_header(vocab={"tokens": "ACGT", "n_base": 4}),
                     "header: tokens: not a list", id="header-tokens"),
        pytest.param(edit_header(order=-1), "header: order must be >= 0, got -1",
                     id="header-order"),
        pytest.param(edit_header(order=1.0), "header: order 1.0 is not an integer",
                     id="header-order-float"),
        pytest.param(edit_header(alpha=0), "header: alpha must be > 0, got 0",
                     id="header-alpha"),
        pytest.param(edit_header(alpha=float("nan")), "header: alpha must be finite, got nan",
                     id="header-alpha-nan"),
        pytest.param(edit_header(lambdas=[float("inf"), 0.0]),
                     "header: interpolation weights must be finite, got [inf, 0.0]",
                     id="header-lambdas-inf"),
        pytest.param(edit_header(lambdas=[0.2, 0.3, 0.5]),
                     "header: need 2 interpolation weights, got 3", id="header-lambdas"),
        pytest.param(edit_header(lambdas=[0.7, 0.7]),
                     "header: interpolation weights must be a simplex", id="header-simplex"),
        pytest.param(edit_array("counts_1", None), "counts_1: missing", id="array-missing"),
        pytest.param(edit_array("counts_2", lambda a: np.ones(3, dtype=np.int64)),
                     "counts_2: not an array of an order-1 model", id="array-unexpected"),
        pytest.param(edit_array("counts_1", lambda a: a.astype(float)),
                     "counts_1: expected a 1-d int64 array, got a 1-d float64 array",
                     id="dtype"),
        pytest.param(edit_array("tokens_0", lambda a: a.astype(np.int64)),
                     "tokens_0: expected a 1-d int32 array, got a 1-d int64 array",
                     id="dtype-tokens"),
        pytest.param(edit_array("contexts_0", lambda a: a.reshape(1, -1)),
                     "contexts_0: expected a 1-d int64 array, got a 2-d int64 array", id="shape"),
        pytest.param(edit_array("tokens_1", lambda a: a.astype(object)),
                     "tokens_1: Object arrays cannot be loaded when allow_pickle=False",
                     id="pickled"),
        pytest.param(edit_array("contexts_1", lambda a: a[::-1].copy()),
                     "contexts_1: keys are not sorted and unique", id="keys-unsorted"),
        pytest.param(edit_array("contexts_1", lambda a: np.append(a[:-1], a[-2])),
                     "contexts_1: keys are not sorted and unique", id="keys-repeated"),
        pytest.param(edit_array("contexts_1", lambda a: np.append(a[:-1], 36)),
                     "contexts_1: key outside 0..35", id="key-unreachable"),
        pytest.param(edit_array("contexts_0", lambda a: a + 1),
                     "contexts_0: key outside 0..0", id="key-order-0"),
        pytest.param(edit_array("offsets_1", lambda a: a[:-1]),
                     "offsets_1: 4 offsets for 4 contexts", id="offsets-length"),
        pytest.param(edit_array("offsets_1", lambda a: a[[0, 2, 1, 3, 4]]),
                     "offsets_1: offsets do not rise from 0", id="offsets-falling"),
        pytest.param(edit_array("offsets_1", lambda a: a + 1),
                     "offsets_1: offsets do not rise from 0", id="offsets-start"),
        pytest.param(edit_array("offsets_1", lambda a: np.append(a[:-1], a[-1] - 1)),
                     "offsets_1: offsets end at 15, not at the token count 16",
                     id="offsets-end"),
        pytest.param(edit_array("tokens_1", lambda a: np.append(a[:-1], np.int32(36))),
                     "tokens_1: token id outside vocabulary of size 36", id="token-range"),
        pytest.param(edit_array("tokens_1", lambda a: np.append(a[:-1], np.int32(-1))),
                     "tokens_1: token id outside vocabulary of size 36", id="token-negative"),
        pytest.param(edit_array("tokens_0", lambda a: a[::-1].copy()),
                     "tokens_0: token ids are not sorted and unique within a row",
                     id="tokens-unsorted"),
        pytest.param(edit_array("counts_1", lambda a: a[:-1]),
                     "counts_1: 15 counts for 16 tokens", id="counts-length"),
        pytest.param(edit_array("counts_1", lambda a: np.append(a[:-1], 0)),
                     "counts_1: count below 1", id="count-zero"),
        pytest.param(edit_array("counts_0", lambda a: a + 2**62),
                     "counts_0: counts sum to 2^53 or more", id="counts-overflow"),
    ])
    def test_markov_array_corruption_is_named(self, tmp_path, capsys, edit, reason):
        model = self._markov(tmp_path)
        rewrite_npz(model, edit)
        self._fails_naming(capsys, ["generate", "--model", f"markov:{model}"], model, reason)

    def test_truncated_markov_model(self, tmp_path, capsys):
        model = self._markov(tmp_path)
        model.write_bytes(model.read_bytes()[:-100])
        self._fails_naming(capsys, ["generate", "--model", f"markov:{model}"], model,
                           "File is not a zip file")

    def test_format_1_model_says_to_retrain(self, tmp_path, capsys):
        model = tmp_path / "m.jsonl"
        model.write_text('{"alpha": 0.1, "format_version": 1, "order": 1}\n'
                         '{"counts": {"1": 3}, "ctx": [0], "o": 1}\n')
        self._fails_naming(capsys, ["generate", "--model", f"markov:{model}"], model,
                           "not a format-2 (.npz) model; it looks like a format-1 (JSON-lines) "
                           "model: retrain it with `genomelm train-markov`")

    def test_truncated_bpe_model(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.fa"
        write_fasta(corpus, [NucleotideSequence("ACACACAC", id="a")])
        model = tmp_path / "bpe.json"
        assert main(["bpe-train", str(corpus), "--target-vocab", "38", "--out", str(model)]) == 0
        model.write_text(model.read_text()[:40])
        self._fails_naming(capsys, ["tokenize", "ACGT", "--bpe-model", str(model)], model, "")

    @pytest.mark.parametrize("edit, reason", [
        (lambda m: m["tokens"].remove("ACAC"), "n_base: 6 does not split base tokens"),
        (lambda m: m.update(n_base=99), "n_base: 99 is not in 1..38"),
        (lambda m: m["merges"].reverse(), "merges: 'AC'+'AC' joins a token not made before it"),
    ])
    def test_bpe_vocabulary_is_checked(self, tmp_path, capsys, edit, reason):
        corpus = tmp_path / "corpus.fa"
        write_fasta(corpus, [NucleotideSequence("ACACACAC", id="a")])
        model = tmp_path / "bpe.json"
        assert main(["bpe-train", str(corpus), "--target-vocab", "38", "--out", str(model)]) == 0
        obj = json.loads(model.read_text())
        edit(obj)
        model.write_text(json.dumps(obj))
        self._fails_naming(capsys, ["tokenize", "ACGT", "--bpe-model", str(model)], model,
                           reason)

    def test_predictor_without_intercept(self, tmp_path, capsys):
        predictor = self._predictor(tmp_path, capsys)
        obj = json.loads(predictor.read_text())
        del obj["intercept"]
        predictor.write_text(json.dumps(obj))
        self._fails_naming(capsys, ["design", "contrib", "ACGT", "--predictor", str(predictor)],
                           predictor, "missing key 'intercept'")

    @pytest.mark.parametrize("k", [0, 9, 2.0, "2"])
    def test_predictor_with_k_outside_1_to_8(self, tmp_path, capsys, k):
        predictor = self._predictor(tmp_path, capsys)
        obj = json.loads(predictor.read_text())
        obj["k"] = k
        predictor.write_text(json.dumps(obj))
        self._fails_naming(capsys, ["design", "contrib", "ACGT", "--predictor", str(predictor)],
                           predictor, f"k must be in [1,8], got {k!r}")

    def test_predictor_with_too_few_weights(self, tmp_path, capsys):
        predictor = self._predictor(tmp_path, capsys)
        obj = json.loads(predictor.read_text())
        obj["weights"] = obj["weights"][:5]
        predictor.write_text(json.dumps(obj))
        self._fails_naming(capsys, ["design", "contrib", "ACGT", "--predictor", str(predictor)],
                           predictor, "5 weights for k=2, expected 4^k")


class TestModelWorkflows:
    def test_model_files_are_pinned(self, tmp_path):
        # np.savez stamps every entry 1980-01-01, so a .npz file's bytes are
        # a function of its arrays; a change to either file format shows here
        corpus = tmp_path / "corpus.fa"
        write_corpus(corpus, n=8, length=300, seed=11)
        bpe, markov = tmp_path / "bpe.json", tmp_path / "m.npz"
        assert main(["bpe-train", str(corpus), "--target-vocab", "64", "--out", str(bpe)]) == 0
        assert main(["train-markov", str(corpus), "--k", "3", "--order", "2",
                     "--model-out", str(markov)]) == 0
        digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in (bpe, markov)]
        assert digests == [
            "f49d8286104c5de93b62a318b2171290e2ab1261cf9f6d047e33c1478523ad4d",
            "9ae31243db145c9b68420eb94ef84141084fadf8eacee3cb694573b4d0ec7350",
        ]

    def test_train_and_generate_deterministically(self, tmp_path):
        corpus = tmp_path / "corpus.fa"
        write_corpus(corpus)
        model = tmp_path / "markov.jsonl"
        assert main([
            "train-markov", str(corpus), "--k", "1", "--order", "2",
            "--model-out", str(model),
        ]) == 0
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            assert main([
                "generate", "--model", f"markov:{model}", "--seed", "11",
                "--max-new", "40", "-n", "3", "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().splitlines()
        assert len(lines) == 3
        assert all(set(line) <= set("ACGT") and len(line) == 40 for line in lines)

    def test_train_markov_writes_the_same_bytes_under_any_hash_seed(self, tmp_path):
        import os
        import subprocess
        import sys

        import genomelm

        corpus = tmp_path / "corpus.fa"
        write_corpus(corpus)
        src = str(Path(genomelm.__file__).resolve().parent.parent)
        written = []
        for hash_seed in ("0", "4242"):
            model = tmp_path / f"markov-{hash_seed}.npz"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            subprocess.run([sys.executable, "-m", "genomelm.cli", "train-markov", str(corpus),
                            "--k", "2", "--order", "3", "--model-out", str(model)],
                           env=env, check=True, capture_output=True, timeout=120)
            written.append(model.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("argv, want", [
        (["--temperature", "0.7", "--top-p", "0.9", "--seed", "5", "-n", "3", "--max-new", "40"],
         "GCAGTAACATTTTATCAACAGCATTTCAGGTTCTGAAACA\n"
         "CGACTGAGGGTTGGCCCAACTAGAGAAGAGGTTGCAGCGG\n"
         "TGCACAGCTTGTGGACATATTAACCGTTTATTAATGACGA\n"),
        (["--greedy", "--prompt", "acgtac", "--max-new", "20"], "CATTAATTAATTAATTAATT\n"),
        (["--prefix", "<high>", "--temperature", "1.3", "--top-p", "0.5", "--seed", "3",
          "-n", "2", "--max-new", "30"],
         "GCATGCAAAATGAAATGCCAAAAATGACCT\nGAATTGCCTGCCAAATTGACCTGAAAATTA\n"),
        (["--seed", "9", "-n", "2", "--max-new", "30"],
         "CTATGCTTAGCCCTGCGTATTTGAGCGAGG\nTTCCTTGAGCTATGGGGATTTCTTCCACCT\n"),
        (["--prefix", "<high>", "--prompt", "ACGT", "--temperature", "1.3", "--top-p", "0.5",
          "--seed", "3", "-n", "2", "--max-new", "30"],
         "TAATGCAAAATGAAATGCCAAAAATGACCT\nTATTATTATTAATGACCTTAAATGAAATTA\n"),
    ])
    def test_generate_output_is_pinned(self, tmp_path, capsys, argv, want):
        # bytes recorded from the per-token Python sampler loop; a change to
        # the sampler step or the random stream shows up here
        corpus = tmp_path / "corpus.fa"
        write_corpus(corpus, seed=0)
        model = tmp_path / "markov.jsonl"
        assert main([
            "train-markov", str(corpus), "--k", "1", "--order", "2", "--model-out", str(model),
        ]) == 0
        capsys.readouterr()
        assert main(["generate", "--model", f"markov:{model}", *argv]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("prefix", [[], ["--prefix", "<high>"], ["--prompt", "ACGT"]])
    def test_generate_dedup_keeps_each_sequence_once(self, tmp_path, capsys, prefix):
        # the prompt and the --prefix paths share one rule: a sequence in the
        # dedup file or generated before is retried, and a short batch warns
        dedup = tmp_path / "a.fa"
        dedup.write_text(">a\nA\n")
        argv = ["generate", "--model", "uniform:1", "--max-new", "1", "-n", "8", "--seed", "3",
                "--dedup-against", str(dedup), *prefix]
        assert main(argv) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == len(set(lines)) and "A" not in lines
        assert set(lines) <= {"", "C", "G", "T"}
        assert "warning: candidate pool exhausted before n sequences" in captured.err

    def test_train_on_a_bad_fasta_names_the_file_line_and_record(self, tmp_path, capsys):
        corpus = tmp_path / "bad.fa"
        corpus.write_text(">s1\nACGT\n>s2|fungi\nACGTACGT\nACXGT\n")
        argv = ["train-markov", str(corpus), "--k", "1", "--model-out", str(tmp_path / "m.npz")]
        assert main(argv) == DATA_ERROR
        assert capsys.readouterr().err == (
            f"error: BadFastaRecord: {corpus}: line 5 (record 's2'): "
            "invalid symbol 'X' at position 10\n"
        )
        assert not (tmp_path / "m.npz").exists()

    def test_train_on_a_fasta_with_nothing_to_count_names_the_file(self, tmp_path, capsys):
        corpus = tmp_path / "short.fa"
        corpus.write_text(">s1\nACG\n>s2\n")
        argv = ["train-markov", str(corpus), "--k", "4", "--model-out", str(tmp_path / "m.npz")]
        assert main(argv) == DATA_ERROR
        assert capsys.readouterr().err == (
            f"error: EmptyCorpus: {corpus}: no record of at least 4 bases to train on\n")
        assert not (tmp_path / "m.npz").exists()

    def test_bad_fasta_on_stdin_is_named_too(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", stdin_of(">a\nACG\n\nTAU\n"))
        assert main(["tokenize", "--k", "3"]) == DATA_ERROR
        assert "BadFastaRecord: <stdin>: line 4 (record 'a')" in capsys.readouterr().err

    def test_an_n_in_fasta_on_stdin_to_tokenize_names_record_and_line(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", stdin_of(">a\nACG\n>b|fungi\nACGT\r\n\r\nTTNA\n"))
        assert main(["tokenize", "--k", "3"]) == DATA_ERROR
        assert capsys.readouterr().err == ("error: BadFastaRecord: <stdin>: line 6 (record 'b'): "
                                           "ambiguous base 'N' at position 6\n")

    @pytest.mark.parametrize("data, message", [
        (b">a\nAC\xf0GT\n", "<stdin>: line 2 (record 'a'): byte 0xf0 is not UTF-8"),
        (b">a\xf0\nACGT\n", "<stdin>: line 1: byte 0xf0 is not UTF-8"),
        (b"\n \n>a\nACGXTT\n", "<stdin>: line 4 (record 'a'): invalid symbol 'X' at position 3"),
    ], ids=["body", "header", "after-blank-lines"])
    def test_fasta_on_stdin_is_read_as_bytes(self, monkeypatch, capsys, data, message):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert main(["tokenize", "--k", "3"]) == DATA_ERROR
        assert capsys.readouterr().err == f"error: BadFastaRecord: {message}\n"

    def test_stdin_that_opens_with_no_header_is_one_sequence(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", stdin_of("\n  \nacg\r\nTAC\n"))
        assert main(["tokenize", "--k", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0\t6 49\t"]

    def test_generate_with_uniform_model_and_prompt(self, tmp_path, capsys):
        assert main([
            "generate", "--model", "uniform:1", "--prompt", "ACGT",
            "--max-new", "8", "--greedy",
        ]) == 0
        line = capsys.readouterr().out.strip()
        assert len(line) == 8

    def test_generate_reads_the_prompt_to_its_end(self, tmp_path, capsys):
        # the model follows TA with GG and GT with CC: the prompt AGGTA ends in the token TA,
        # where whole tokens from its start (AG, GT) would drop the A of its end
        corpus = tmp_path / "corpus.fa"
        corpus.write_text(">a\n" + "TAGG" * 20 + "\n>b\n" + "GTCC" * 20 + "\n")
        model = tmp_path / "m.npz"
        assert main(["train-markov", str(corpus), "--k", "2", "--order", "1",
                     "--model-out", str(model)]) == 0
        capsys.readouterr()
        assert main(["generate", "--model", f"markov:{model}", "--prompt", "aggta",
                     "--max-new", "2", "--greedy"]) == 0
        assert capsys.readouterr().out == "GGTA\n"

    @pytest.mark.parametrize("prefix", [[], ["--prefix", "<high>"]])
    def test_generate_rejects_a_bad_prompt(self, capsys, prefix):
        argv = ["generate", "--model", "uniform:1", "--prompt", "ACGU", *prefix]
        assert main(argv) == DATA_ERROR
        assert "InvalidSymbol: invalid symbol 'U' at position 3" in capsys.readouterr().err

    def test_recovery_pipeline(self, tmp_path, capsys):
        genome = tmp_path / "genome.fa"
        seqs = write_corpus(genome, n=1, length=400, seed=3)
        annotations = tmp_path / "ann.tsv"
        annotations.write_text(
            "s0\t100\t200\t+\tgene\tfungi\n"
            "s0\t250\t350\t+\tgene\tfungi\n"
        )
        dataset = tmp_path / "dataset.tsv"
        assert main([
            "recover", "build", "--genome", str(genome),
            "--annotations", str(annotations),
            "--prompt-len", "20", "--predict-len", "12", "--per-group-n", "2",
            "--out", str(dataset),
        ]) == 0
        assert main([
            "recover", "run", "--model", "uniform:1", "--dataset", str(dataset),
            "--predict-len", "6,12", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["overall"]) == {"6", "12"}

    def test_build_with_no_eligible_region_is_data_error(self, tmp_path, capsys):
        genome = tmp_path / "genome.fa"
        write_corpus(genome, n=1, length=100, seed=3)
        annotations = tmp_path / "ann.tsv"
        annotations.write_text("s0\t1\t40\t+\tgene\tfungi\n")  # no room for a prompt
        out = tmp_path / "items.tsv"
        assert main([
            "recover", "build", "--genome", str(genome), "--annotations", str(annotations),
            "--prompt-len", "4", "--predict-len", "12", "--per-group-n", "1", "--out", str(out),
        ]) == DATA_ERROR
        assert "InsufficientData" in capsys.readouterr().err
        assert not out.exists()

    def test_vep_pipeline(self, tmp_path, capsys):
        genome = tmp_path / "genome.fa"
        seqs = write_corpus(genome, n=1, length=120, seed=5)
        bases = seqs[0].bases
        variants = tmp_path / "variants.tsv"
        rows = []
        for pos, label in ((40, "benign"), (60, "pathogenic"), (80, "benign"), (95, "pathogenic")):
            ref = bases[pos - 1]
            alt = "A" if ref != "A" else "C"
            rows.append(f"s0\t{pos}\t{ref}\t{alt}\t{label}")
        variants.write_text("\n".join(rows) + "\n")
        scores = tmp_path / "scores.tsv"
        assert main([
            "vep", "score", "--genome", str(genome), "--variants", str(variants),
            "--model", "uniform:2", "--out", str(scores),
        ]) == 0
        assert main(["vep", "eval", "--scores", str(scores)]) == 0
        metrics = json.loads(capsys.readouterr().out)
        # the uniform model scores every variant 0, so ranking is chance
        assert metrics["auroc"] == pytest.approx(0.5)
        assert metrics["positive_class"] == "pathogenic"

    def test_vep_ref_mismatch_is_data_error(self, tmp_path):
        genome = tmp_path / "genome.fa"
        write_fasta(genome, [NucleotideSequence("AAAA", id="s0")])
        variants = tmp_path / "variants.tsv"
        variants.write_text("s0\t2\tG\tT\tbenign\n")
        assert main([
            "vep", "score", "--genome", str(genome), "--variants", str(variants),
            "--model", "uniform:1",
        ]) == DATA_ERROR


    @pytest.mark.parametrize("row, error", [
        ("chrX\t2\tC\tT", "UnknownSequenceId"),
        ("s0\t5\tA\tT", "PositionOutOfRange"),
        ("s0\t0\tG\tT", "PositionOutOfRange"),  # would read the last base
    ])
    def test_variant_outside_the_genome_is_data_error(self, tmp_path, capsys, row, error):
        genome = tmp_path / "genome.fa"
        write_fasta(genome, [NucleotideSequence("ACAG", id="s0")])
        variants = tmp_path / "variants.tsv"
        variants.write_text(row + "\n")
        assert main([
            "vep", "score", "--genome", str(genome), "--variants", str(variants),
            "--model", "uniform:1",
        ]) == DATA_ERROR
        err = capsys.readouterr().err
        assert error in err and "Traceback" not in err

    @pytest.mark.parametrize("row, message", [
        ("chrX\t2\tC\tT", "UnknownSequenceId: {path}: variant chrX:2: unknown sequence id 'chrX'"),
        ("s0\t5\tA\tT", "PositionOutOfRange: {path}: variant s0:5: position 5 outside 's0' (1..4)"),
        ("s0\t2\tG\tT", "RefMismatch: {path}: variant s0:2: reference mismatch: variant says 'G', "
                        "genome has 'C'"),
        ("s0\t1\tA\tT", "PositionOutOfRange: {path}: variant s0:1: a 3-mer token ending at "
                        "position 1 would start before 's0'"),
    ])
    def test_a_variant_error_names_the_file_and_the_variant(self, tmp_path, capsys, row,
                                                            message):
        genome = tmp_path / "genome.fa"
        write_fasta(genome, [NucleotideSequence("ACAG", id="s0")])
        variants = tmp_path / "variants.tsv"
        variants.write_text("s0\t3\tA\tT\n" + row + "\n")
        assert main([
            "vep", "score", "--genome", str(genome), "--variants", str(variants),
            "--model", "uniform:3",
        ]) == DATA_ERROR
        assert capsys.readouterr().err == f"error: {message.format(path=variants)}\n"

    @pytest.mark.parametrize("rows, line_no, reason", [
        ("s0\t2\tC\n", 1, "expected >=4 columns, got 3"),
        ("# header\ns0\ttwo\tC\tT\n", 2, "non-integer position 'two'"),
    ])
    def test_malformed_variant_row_names_file_and_line(self, tmp_path, capsys,
                                                        rows, line_no, reason):
        genome = tmp_path / "genome.fa"
        write_fasta(genome, [NucleotideSequence("ACAG", id="s0")])
        variants = tmp_path / "variants.tsv"
        variants.write_text(rows)
        assert main([
            "vep", "score", "--genome", str(genome), "--variants", str(variants),
            "--model", "uniform:1",
        ]) == DATA_ERROR
        err = capsys.readouterr().err
        assert f"BadRow: {variants}: bad row at line {line_no}: {reason}" in err

    def test_malformed_recovery_row_names_file_and_line(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.tsv"
        dataset.write_text("#prompt\treference\ttaxon_group\nACGT\tACGT\n")
        assert main(["recover", "run", "--model", "uniform:1", "--dataset", str(dataset)]) \
            == DATA_ERROR
        err = capsys.readouterr().err
        assert f"BadRow: {dataset}: bad row at line 2: expected 3 columns, got 2" in err

    @pytest.mark.parametrize("row, reason", [
        ("ACGTACGTACGTANGT\tACGTACGT\tplant", "prompt: ambiguous base 'N' at position 13"),
        ("ACGTACGTACGTACGT\tACGNACGT\tplant", "reference: ambiguous base 'N' at position 3"),
    ])
    def test_an_n_in_a_recovery_row_names_file_and_line(self, tmp_path, capsys, row, reason):
        # `recover build` writes no N; a k=2 order-0 model read past both and exited 0
        dataset = tmp_path / "dataset.tsv"
        dataset.write_text("#prompt\treference\ttaxon_group\n" + row + "\n")
        assert main(["recover", "run", "--model", "uniform:2", "--dataset", str(dataset),
                     "--predict-len", "4"]) == DATA_ERROR
        assert capsys.readouterr().err == (f"error: BadRow: {dataset}: bad row at line 2: "
                                           f"{reason}\n")


GENOME_S0 = "ACGTACGTAC" * 6


def table_argv(table, path, genome):
    """The subcommand that reads a table of this kind from `path`."""
    return {
        "annotations": ["ingest", "stats", "--genome", genome, "--annotations", path],
        "variants": ["vep", "score", "--genome", genome, "--variants", path,
                     "--model", "uniform:1"],
        "scores": ["vep", "eval", "--scores", path],
        "dataset": ["recover", "run", "--model", "uniform:1", "--dataset", path],
        "activities": ["design", "label", "--activities", path],
    }[table]


class TestTableErrors:
    @pytest.mark.parametrize("table, row, reason", [
        ("annotations", "s0\t1\t5\t+", "expected >=5 columns, got 4"),
        ("annotations", "s0\tone\t5\t+\tgene", "non-integer coordinates"),
        ("annotations", "s0\t5\t5\t+\tgene", "bad interval 6..5"),
        ("variants", "s0\t2\tC\tU", "alleles must be single bases in ACGT, got 'C'>'U'"),
        ("scores", "s0\t2\tC\tA\tbenign", "expected >=6 columns, got 5"),
        ("scores", "s0\t2\tC\tA\tbenign\tabc", "could not convert string to float: 'abc'"),
        ("scores", "s0\t2\tC\tU\tbenign\t0.5", "alleles must be single bases"),
        ("dataset", "ACGU\tACGT\tfungi", "invalid symbol 'U' at position 3"),
        ("activities", "ACGT\t1.0", "expected >=3 columns, got 2"),
        ("activities", "ACGT\tx\t1.0", "could not convert string to float: 'x'"),
        ("activities", "ACGU\t1.0\t1.0", "invalid symbol 'U' at position 3"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, capsys, table, row, reason):
        genome = tmp_path / "genome.fa"
        write_fasta(genome, [NucleotideSequence(GENOME_S0, id="s0")])
        path = tmp_path / f"{table}.tsv"
        path.write_text("#header\n" + row + "\n")
        assert main(table_argv(table, str(path), str(genome))) == DATA_ERROR
        err = capsys.readouterr().err
        assert f"BadRow: {path}: bad row at line 2: {reason}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, line_no, reason", [
        ("LOCUS\nORIGIN\n        1 acgt\n//\n", 1, "LOCUS line without a locus name"),
        ("LOCUS       C1  4 bp\nORIGIN\n        1 acgx\n//\n", 3,
         "record 'C1': invalid symbol 'X' at position 3"),
        ("LOCUS       C1  4 bp\nORIGIN\n        1 acgt\n//\n" * 2, 5,
         "LOCUS name 'C1' repeats line 1"),
        ("LOCUS       C1  4 bp\nORIGIN\n        1 acgt\n//\n"
         "LOCUS       s0  4 bp\nORIGIN\n        1 acgt\n//\n", 5,
         "record 's0' is also a genome FASTA record"),
    ])
    def test_bad_genbank_names_file_and_line(self, tmp_path, capsys, text, line_no, reason):
        genome = tmp_path / "genome.fa"
        write_fasta(genome, [NucleotideSequence(GENOME_S0, id="s0")])
        path = tmp_path / "rec.gb"
        path.write_text(text)
        assert main(["ingest", "extract", "--genome", str(genome), "--genbank", str(path)]) \
            == DATA_ERROR
        err = capsys.readouterr().err
        assert f"BadRow: {path}: bad row at line {line_no}: {reason}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        "ingest extract --annotations ANN", "ingest stats --annotations ANN",
        "ingest gener-tasks --annotations ANN --gene-out g.tsv --taxon-out t.tsv",
        "recover build --annotations ANN", "vep score --variants v.tsv --model uniform:1",
    ])
    def test_a_repeated_genome_id_names_file_and_line(self, tmp_path, capsys, argv):
        genome = tmp_path / "genome.fa"
        genome.write_text(f">s0\n{GENOME_S0}\n>s1\nACGT\n>s0|fungi|\nACGT\n")
        annotations = tmp_path / "ann.tsv"
        annotations.write_text("s0\t5\t35\t+\tgene\tfungi\n")
        argv = argv.replace("ANN", str(annotations)).split() + ["--genome", str(genome)]
        assert main(argv) == DATA_ERROR
        err = capsys.readouterr().err
        assert err == (f"error: BadFastaRecord: {genome}: line 5 (record 's0'): "
                       "record id repeated from line 1\n")

    def test_text_before_the_first_fasta_header(self, tmp_path, capsys):
        path = tmp_path / "lead.fa"
        path.write_text("ACGT\n>s\nACGTTT\n")
        assert main(["tokenize", "--in", str(path), "--k", "2"]) == DATA_ERROR
        err = capsys.readouterr().err
        assert f"BadFastaRecord: {path}: line 1: text before the first '>' header" in err

    @pytest.mark.parametrize("argv", [
        "train-markov FA --k 2 --model-out m.npz", "tokenize --in FA --k 2",
        "embed project --in FA", "bpe-train FA --target-vocab 37",
    ])
    def test_an_n_in_a_fasta_to_tokenize_names_file_record_and_line(self, tmp_path, capsys,
                                                                     argv):
        path = tmp_path / "g.fa"
        path.write_text(f">s0|fungi\n{GENOME_S0[:40]}\n>s1|plants\nACGTACGTAC\n\nACGNNNGT\n")
        argv = argv.replace("FA", str(path)).replace("m.npz", str(tmp_path / "m.npz")).split()
        assert main(argv) == DATA_ERROR
        err = capsys.readouterr().err
        assert err == (f"error: BadFastaRecord: {path}: line 6 (record 's1'): "
                       "ambiguous base 'N' at position 13\n")

    def test_an_n_in_a_scored_vep_context_names_the_variant_and_the_n(self, tmp_path, capsys):
        rng = random.Random(5)
        bases = [rng.choice("ACGT") for _ in range(120)]
        bases[40:50] = "N" * 10  # genome positions 41..50
        genome, train = tmp_path / "g.fa", tmp_path / "train.fa"
        genome.write_text(">c1\n" + "".join(bases) + "\n")
        train.write_text(">t\n" + "".join(rng.choice("ACGT") for _ in range(400)) + "\n")
        model = tmp_path / "m.npz"
        assert main(["train-markov", str(train), "--k", "2", "--order", "1",
                     "--model-out", str(model)]) == 0
        variants = tmp_path / "v.tsv"
        rows = [(60, bases[59]), (53, bases[52])]  # c1:53's order-1 context reads c1:50..51
        variants.write_text("".join(f"c1\t{pos}\t{ref}\t{'A' if ref != 'A' else 'C'}\n"
                                    for pos, ref in rows))
        capsys.readouterr()
        argv = ["vep", "score", "--model", f"markov:{model}", "--genome", str(genome),
                "--variants", str(variants)]
        assert main(argv) == DATA_ERROR
        assert capsys.readouterr().err == (
            f"error: AmbiguousContext: {variants}: variant c1:53: its scored context holds "
            "an N at c1:50\n")
        variants.write_text(variants.read_text().splitlines()[0] + "\n")
        assert main(argv) == 0  # a variant whose context the N run does not reach is scored


# Well-formed rows of every table, so that a fuzzed table can mix good rows,
# rows of another table and rows of fields that reach past the row checks.
GOOD_ROWS = [
    ["s0", "5", "35", "+", "gene", "fungi"], ["s0", "10", "40", "-", "CDS"],
    ["s0", "2", "C", "A", "benign"], ["s0", "7", "G", "T", "pathogenic"],
    ["s0", "2", "C", "A", "benign", "0.5"], ["s0", "7", "G", "T", "pathogenic", "-1.25"],
    [GENOME_S0[:40], GENOME_S0[40:], "fungi"],
    [GENOME_S0[:30], "1.5", "-0.5"], [GENOME_S0[5:35], "2", "0"],
]
FIELD = st.one_of(
    st.sampled_from(["s0", "s1", "0", "1", "2", "5", "30", "-1", "1e3", "nan", "inf", "0.5",
                     "A", "C", "T", "N", "+", "-", "gene", "CDS", "fungi", "benign",
                     "pathogenic", "", GENOME_S0[:40], GENOME_S0[:12], "acgt", "ACGTÉ"]),
    st.text(max_size=8),
)


class TestTableFuzz:
    @settings(max_examples=150, deadline=None)
    @given(
        table=st.sampled_from(["annotations", "variants", "scores", "dataset", "activities"]),
        rows=st.lists(st.one_of(st.sampled_from(GOOD_ROWS), st.lists(FIELD, max_size=7)),
                      max_size=6),
    )
    def test_malformed_tables_exit_cleanly(self, table, rows):
        with tempfile.TemporaryDirectory() as d:
            genome = Path(d) / "genome.fa"
            write_fasta(genome, [NucleotideSequence(GENOME_S0, id="s0")])
            path = Path(d) / "table.tsv"
            path.write_text("".join("\t".join(row) + "\n" for row in rows))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(table_argv(table, str(path), str(genome)))
        assert code in (0, USAGE_ERROR, DATA_ERROR), err.getvalue()
        assert "Traceback" not in err.getvalue()


GOOD_GENBANK = (
    "LOCUS       C1             60 bp    DNA\n"
    "FEATURES             Location/Qualifiers\n"
    "     gene            4..12\n"
    "                     /gene=\"a\"\n"
    "     gene            complement(join(20..25,\n"
    "          28..31))\n"
    "ORIGIN\n"
    f"        1 {GENOME_S0[:30].lower()}\n"
    f"       31 {GENOME_S0[30:].lower()}\n"
    "//\n"
).splitlines()
GENBANK_LINE = st.one_of(
    st.sampled_from(["LOCUS", "LOCUS       C2", "FEATURES", "ORIGIN", "//", "     gene",
                     "     gene            1..80", "     gene            0..3",
                     "     gene            complement(", "          9..))", "        1 acgx",
                     "        1 nnnn", ""]),
    st.text(max_size=12),
)
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 99) | st.floats(allow_nan=False)
    | st.sampled_from(["A", "C", "AC", "ACAC", "<bos>", "<x>", ""]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=2),
    max_leaves=5,
)


def mutate_list(items, data, value):
    """`items` with one element deleted, repeated, swapped or replaced."""
    if not items:
        return [data.draw(value)]
    i = data.draw(st.integers(0, len(items) - 1))
    j = data.draw(st.integers(0, len(items) - 1))
    how = data.draw(st.sampled_from(["delete", "repeat", "swap", "replace"]))
    items = list(items)
    if how == "delete":
        del items[i]
    elif how == "repeat":
        items.insert(j, items[i])
    elif how == "swap":
        items[i], items[j] = items[j], items[i]
    else:
        items[i] = data.draw(value)
    return items


def mutate_bpe_model(obj, data):
    """A BPE model file's object with one key deleted or its value changed."""
    key = data.draw(st.sampled_from(["merges", "tokens", "n_base"]))
    how = data.draw(st.sampled_from(["delete", "replace", "edit"]))
    if how == "delete":
        obj.pop(key, None)
    elif how == "edit" and isinstance(obj.get(key), list):
        obj[key] = mutate_list(obj[key], data, JSON_VALUE)
    else:
        obj[key] = data.draw(JSON_VALUE | st.integers(-1, 50))


NPZ_VALUE = st.one_of(st.integers(-2, 40), st.sampled_from([2**31 - 1, 2**62, -2**63]))
HEADER_VALUE = JSON_VALUE | st.sampled_from([math.nan, math.inf, -math.inf, 1e308])
FASTA_LINE = st.one_of(
    st.sampled_from([">s1", ">", ">s0 taxon_group=x", "ACGT", "acgt", "NNNN", "ACGU", "AC GT",
                     "", "  ", ";comment", GENOME_S0[:30]]),
    st.text(max_size=8),
)


def mutate_npz(arrays, data):
    """A saved model's arrays with one array or header field dropped or
    changed, or one array retyped, reshaped or given a new element."""
    name = data.draw(st.sampled_from(sorted(arrays)))
    how = data.draw(st.sampled_from(["drop", "retype", "reshape", "perturb"]))
    if name == "header" and how != "drop":
        header = json.loads(str(arrays[name]))
        key = data.draw(st.sampled_from(sorted(header)))
        if data.draw(st.booleans()):
            del header[key]
        else:
            header[key] = data.draw(HEADER_VALUE)
        arrays[name] = np.array(json.dumps(header))
    elif how == "drop":
        del arrays[name]
    elif how == "retype":
        arrays[name] = arrays[name].astype(data.draw(st.sampled_from(
            [np.int32, np.int64, np.uint8, np.float64, object])))
    elif how == "reshape":
        a = arrays[name]
        arrays[name] = a.reshape(1, -1) if a.size != 1 else a.reshape(())
    elif arrays[name].size:
        a = arrays[name].copy()
        value = data.draw(NPZ_VALUE)
        if np.can_cast(np.min_scalar_type(value), a.dtype):
            a.flat[data.draw(st.integers(0, a.size - 1))] = value
        arrays[name] = a


@functools.lru_cache(maxsize=None)
def saved_markov_model() -> bytes:
    """The file bytes of a k=1, order-2 Markov model."""
    from genomelm.lm import train_markov
    from genomelm.tokenizer import KmerTokenizer

    tokenizer = KmerTokenizer(1)
    model = train_markov([tokenizer.encode(GENOME_S0[:37]), tokenizer.encode("ACCA")],
                         tokenizer.vocab, order=2)
    with tempfile.TemporaryDirectory() as d:
        model.save(Path(d) / "m.npz")
        return (Path(d) / "m.npz").read_bytes()


class TestModelFileFuzz:
    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["bpe", "genbank", "npz", "fasta"]), rounds=st.integers(1, 3),
           data=st.data())
    def test_malformed_model_and_genbank_files_exit_cleanly(self, bpe_json, kind, rounds, data):
        with tempfile.TemporaryDirectory() as d:
            genome = Path(d) / "genome.fa"
            write_fasta(genome, [NucleotideSequence(GENOME_S0, id="s0")])
            path = Path(d) / "input"
            if kind == "bpe":
                obj = json.loads(bpe_json)
                for _ in range(rounds):
                    mutate_bpe_model(obj, data)
                text = json.dumps(obj)
                text = text[: data.draw(st.sampled_from([len(text), len(text) // 2]))]
                argv = ["tokenize", "ACGTACGTAC", "--bpe-model", str(path)]
            elif kind == "npz":
                with np.load(io.BytesIO(saved_markov_model()), allow_pickle=False) as npz:
                    arrays = dict(npz)
                for _ in range(rounds):
                    mutate_npz(arrays, data)
                buffer = io.BytesIO()
                np.savez(buffer, **arrays)
                body = buffer.getvalue()
                path.write_bytes(body[: data.draw(st.sampled_from([len(body), len(body) // 2,
                                                                   len(body) - 30, 3]))])
                argv = ["generate", "--model", f"markov:{path}", "-n", "2", "--max-new", "6"]
            elif kind == "fasta":
                lines = [">s0", GENOME_S0[:30], GENOME_S0[30:], ">s1", "ACGTTGCA"]
                for _ in range(rounds):
                    lines = mutate_list(lines, data, FASTA_LINE)
                text = "\n".join(lines) + "\n"
                argv = ["train-markov", str(path), "--k", "1", "--order", "2",
                        "--model-out", str(Path(d) / "m.npz")]
            else:
                lines = GOOD_GENBANK
                for _ in range(rounds):
                    lines = mutate_list(lines, data, GENBANK_LINE)
                text = "\n".join(lines) + "\n"
                argv = ["ingest", "extract", "--genome", str(genome), "--genbank", str(path)]
            if kind != "npz":
                path.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, USAGE_ERROR, DATA_ERROR), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert code == 0 or str(path) in err.getvalue(), err.getvalue()

    @pytest.fixture(scope="class")
    def bpe_json(self):
        from genomelm.tokenizer import bpe_train

        return bpe_train([GENOME_S0, "ACACACGTGT"], 44).to_json()


class TestDesignWorkflow:
    def test_label_fit_rank_contrib(self, tmp_path, capsys):
        import random

        rng = random.Random(1)
        activities = tmp_path / "activities.tsv"
        lines = []
        pool = []
        for i in range(12):
            seq = "".join(rng.choice("ACGT") for _ in range(30))
            pool.append(seq)
            lines.append(f"{seq}\t{seq.count('G') * 0.5:.3f}\t0.0")
        activities.write_text("\n".join(lines) + "\n")

        assert main(["design", "label", "--activities", str(activities)]) == 0
        labels = [l.split("\t")[2] for l in capsys.readouterr().out.splitlines()[1:]]
        assert set(labels) <= {"low", "mid", "high"}

        predictor = tmp_path / "ridge.json"
        assert main([
            "design", "fit", "--activities", str(activities),
            "--k", "1", "--l2", "0.1", "--model-out", str(predictor),
        ]) == 0

        candidates = tmp_path / "candidates.fa"
        write_fasta(candidates, [NucleotideSequence(s, id=f"c{i}") for i, s in enumerate(pool)])
        assert main([
            "design", "rank", "--predictor", str(predictor),
            "--candidates", str(candidates), "--top", "2", "--bottom", "2",
            "--random", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("top\t") == 2
        assert out.count("bottom\t") == 2

        assert main([
            "design", "contrib", pool[0], "--predictor", str(predictor)
        ]) == 0
        body = capsys.readouterr().out.splitlines()
        assert len(body) == 1 + len(pool[0])


class TestEmbedWorkflow:
    def _fasta(self, tmp_path):
        import random

        rng = random.Random(7)
        seqs = []
        for i in range(6):
            gc = 0.2 if i < 3 else 0.8
            bases = "".join(
                rng.choice("GC") if rng.random() < gc else rng.choice("AT")
                for _ in range(300)
            )
            taxon = "fungi" if i < 3 else "plant"
            seqs.append(NucleotideSequence(bases, id=f"s{i}", meta={"taxon_group": taxon}))
        path = tmp_path / "seqs.fa"
        write_fasta(path, seqs)
        return path

    def test_project_and_silhouette(self, tmp_path, capsys):
        path = self._fasta(tmp_path)
        assert main(["embed", "project", "--in", str(path), "--k", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "#id\tlabel\tx\ty"
        assert len(lines) == 7
        assert main(["embed", "silhouette", "--in", str(path), "--k", "2"]) == 0
        value = float(capsys.readouterr().out)
        assert value > 0.3


class TestEmptyRecords:
    def _fasta(self, tmp_path):
        path = tmp_path / "e.fa"
        path.write_text(">a|fungi\nACGTACGT\n>b|plant\n\n>c|plant\nGGCCAT\n")
        return path

    @pytest.mark.parametrize("leaf", ["project", "silhouette"])
    def test_embed_names_the_file_and_record(self, tmp_path, capsys, leaf):
        path = self._fasta(tmp_path)
        assert main(["embed", leaf, "--in", str(path), "--k", "2"]) == DATA_ERROR
        assert capsys.readouterr().err == (
            f"error: BadFastaRecord: {path}: line 3 (record 'b'): empty sequence\n")

    def _predictor(self, tmp_path, capsys):
        activities = tmp_path / "activities.tsv"
        activities.write_text("".join(f"{s}\t{i}\t0\n"
                                      for i, s in enumerate(["ACGT", "GGCC", "ATAT", "CCGA"])))
        predictor = tmp_path / "ridge.json"
        assert main(["design", "fit", "--activities", str(activities), "--k", "1",
                     "--model-out", str(predictor)]) == 0
        capsys.readouterr()
        return predictor

    def test_design_contrib_names_the_file_and_record(self, tmp_path, capsys):
        predictor, path = self._predictor(tmp_path, capsys), self._fasta(tmp_path)
        assert main(["design", "contrib", "--in", str(path),
                     "--predictor", str(predictor)]) == DATA_ERROR
        assert capsys.readouterr().err == (
            f"error: BadFastaRecord: {path}: line 3 (record 'b'): empty sequence\n")

    def test_design_rank_still_ranks_an_empty_candidate(self, tmp_path, capsys):
        # generate can emit an empty sequence when EOS comes first; rank scores it
        predictor, path = self._predictor(tmp_path, capsys), self._fasta(tmp_path)
        assert main(["design", "rank", "--top", "3", "--candidates", str(path),
                     "--predictor", str(predictor)]) == 0
        rows = [row.split("\t") for row in capsys.readouterr().out.splitlines()]
        assert rows[0] == ["#group", "sequence", "predicted_activity"]
        assert sorted((group, seq) for group, seq, _ in rows[1:]) == [
            ("top", ""), ("top", "ACGTACGT"), ("top", "GGCCAT")]


def two_record_genome() -> bytes:
    """A FASTA genome of two 400-nt records, 60 bases a line: s1's header is line 9."""
    rng = random.Random(5)
    return fasta_text(
        NucleotideSequence("".join(rng.choice("ACGT") for _ in range(400)), id=f"s{i}",
                           meta={"taxon_group": taxon})
        for i, taxon in enumerate(["fungi", "plant"])
    ).encode()


def with_line(data: bytes, index: int, edit) -> bytes:
    lines = data.split(b"\n")
    lines[index] = edit(lines[index])
    return b"\n".join(lines)


# each a FASTA fault, made in s1, the record that no annotation or variant touches
FASTA_FAULTS = {
    "none": lambda data: data,
    "bad-symbol": lambda data: with_line(data, 11, lambda line: b"X" + line[1:]),
    "n": lambda data: with_line(data, 11, lambda line: b"N" + line[1:]),
    "repeated-id": lambda data: with_line(data, 8, lambda line: b">s0|plant"),
    "not-utf8": lambda data: with_line(data, 11, lambda line: line[:5] + b"\xf0" + line[6:]),
    "text-before-the-header": lambda data: b"ACGT\n" + data,
}

# each leaf that reads FASTA, given the FASTA's path and a directory of its other inputs
FASTA_LEAVES = {
    "train-markov": lambda fa, d: ["train-markov", fa, "--k", "2", "--model-out",
                                   str(d / "m.npz")],
    "tokenize": lambda fa, d: ["tokenize", "--in", fa, "--k", "3"],
    "embed": lambda fa, d: ["embed", "project", "--in", fa, "--k", "2"],
    "ingest-extract": lambda fa, d: ["ingest", "extract", "--genome", fa,
                                     "--annotations", str(d / "ann.tsv")],
    "recover-build": lambda fa, d: ["recover", "build", "--genome", fa,
                                    "--annotations", str(d / "ann.tsv"), "--prompt-len", "20",
                                    "--predict-len", "12", "--per-group-n", "1"],
    "vep-score": lambda fa, d: ["vep", "score", "--genome", fa, "--variants",
                                str(d / "variants.tsv"), "--model", "uniform:1",
                                "--context-len", "16"],
}


class TestFastaThroughAPipe:
    """A FASTA read through a pipe's /dev/fd path, which reads once, as
    `<(zcat g.fa.gz)` is, ends as the same file read from disk does."""

    @pytest.mark.parametrize("fault", FASTA_FAULTS)
    @pytest.mark.parametrize("leaf", FASTA_LEAVES)
    def test_a_pipe_reads_as_the_file(self, tmp_path, capsys, leaf, fault):
        data = FASTA_FAULTS[fault](two_record_genome())
        (tmp_path / "ann.tsv").write_text("s0\t100\t200\t+\tgene\tfungi\n")
        ref = data.split(b"\n", 1)[1].replace(b"\n", b"")[49:50].decode()  # s0's base 50
        (tmp_path / "variants.tsv").write_text(f"s0\t50\t{ref}\t{'C' if ref == 'A' else 'A'}\n")
        fasta = tmp_path / "g.fa"
        fasta.write_bytes(data)
        code = main(FASTA_LEAVES[leaf](str(fasta), tmp_path))
        from_file = code, *capsys.readouterr()
        read_end, write_end = os.pipe()
        try:
            with os.fdopen(write_end, "wb") as fh:  # the genome fits the pipe's buffer
                fh.write(data)
            path = f"/dev/fd/{read_end}"
            code = main(FASTA_LEAVES[leaf](path, tmp_path))
            out, err = capsys.readouterr()
        finally:
            os.close(read_end)
        assert (code, out, err.replace(path, str(fasta))) == from_file
        assert code == 0 or err.startswith(f"error: BadFastaRecord: {path}: line ")


class TestStdoutSink:
    @pytest.mark.parametrize("argv", [
        ["ingest", "extract"],
        ["recover", "build", "--prompt-len", "20", "--predict-len", "12", "--per-group-n", "2"],
    ])
    def test_stdout_equals_the_out_file(self, tmp_path, argv):
        genome = tmp_path / "genome.fa"
        write_corpus(genome, n=1, length=400, seed=3)
        annotations = tmp_path / "ann.tsv"
        annotations.write_text("s0\t100\t200\t+\tgene\tfungi\ns0\t250\t350\t+\tgene\tfungi\n")
        argv = argv + ["--genome", str(genome), "--annotations", str(annotations)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            assert main(argv) == 0
        assert captured.getvalue().startswith(("#prompt", ">s0"))
        assert captured.getvalue() == out.read_text()


class TestIngestCommands:
    def test_stats(self, tmp_path, capsys):
        genome = tmp_path / "genome.fa"
        write_corpus(genome, n=1, length=100, seed=2)
        annotations = tmp_path / "ann.tsv"
        annotations.write_text("s0\t10\t30\t+\tgene\tfungi\n")
        assert main([
            "ingest", "stats", "--genome", str(genome),
            "--annotations", str(annotations),
        ]) == 0
        assert "fungi\tgene\t1\t20" in capsys.readouterr().out

    def test_extract_to_fasta(self, tmp_path):
        genome = tmp_path / "genome.fa"
        write_corpus(genome, n=1, length=100, seed=2)
        annotations = tmp_path / "ann.tsv"
        annotations.write_text("s0\t10\t30\t-\tgene\tfungi\n")
        out = tmp_path / "regions.fa"
        assert main([
            "ingest", "extract", "--genome", str(genome),
            "--annotations", str(annotations), "--out", str(out),
        ]) == 0
        assert out.read_text().startswith(">")

    @pytest.mark.parametrize("flags, config", [
        ([], None),
        (["--annotations", "ann.tsv", "--genbank", "rec.gb"], None),
        (["--annotations", "ann.tsv"], "genbank = rec.gb"),
        ([], "annotations = ann.tsv\ngenbank = rec.gb"),
    ], ids=["neither", "both", "one-by-config", "both-by-config"])
    def test_extract_needs_exactly_one_annotation_source(self, tmp_path, capsys, flags,
                                                         config):
        argv = ["ingest", "extract", "--genome", str(tmp_path / "genome.fa")] + flags
        if config is not None:
            (tmp_path / "c.cfg").write_text(config + "\n")
            argv += ["--config", str(tmp_path / "c.cfg")]
        assert main(argv) == USAGE_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "error: exactly one of the arguments --annotations --genbank is required\n")

    def test_extract_takes_its_annotations_from_the_config(self, tmp_path, capsys):
        genome = tmp_path / "genome.fa"
        write_corpus(genome, n=1, length=100, seed=2)
        annotations = tmp_path / "ann.tsv"
        annotations.write_text("s0\t10\t30\t-\tgene\tfungi\n")
        config = tmp_path / "c.cfg"
        config.write_text(f"annotations = {annotations}\n")
        assert main(["ingest", "extract", "--genome", str(genome), "--config", str(config)]) == 0
        from_config = capsys.readouterr().out
        assert main(["ingest", "extract", "--genome", str(genome),
                     "--annotations", str(annotations)]) == 0
        assert from_config.startswith(">") and from_config == capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["ingest", "extract"],
        ["ingest", "stats"],
        ["ingest", "gener-tasks", "--gene-out", "g.tsv", "--taxon-out", "t.tsv"],
        ["recover", "build", "--prompt-len", "20", "--predict-len", "12"],
    ])
    @pytest.mark.parametrize("row, problem", [
        ("zzz\t1\t4\t+\tgene\tfungi", "unknown sequence id 'zzz'"),
        ("s0\t1\t140\t+\tgene\tfungi", "annotation s0:2..140 exceeds contig length 100"),
    ])
    def test_a_row_off_the_genome_names_the_file_and_line(self, tmp_path, capsys, argv, row,
                                                          problem):
        genome = tmp_path / "genome.fa"
        write_corpus(genome, n=1, length=100, seed=2)
        annotations = tmp_path / "ann.tsv"
        annotations.write_text(f"s0\t10\t30\t+\tgene\tfungi\n{row}\n")
        assert main(argv + ["--genome", str(genome), "--annotations", str(annotations)]) \
            == DATA_ERROR
        err = capsys.readouterr().err
        assert f"error: BadRow: {annotations}: bad row at line 2: {problem}" in err
        assert "Traceback" not in err


UNIFORM_K1_PEER = '''
import json
import sys

TOKENS = ["A", "C", "G", "T", "<bos>", "<eos>", "<mask>", "<unk>", "<pad>",
          "<high>", "<mid>", "<low>"] + [f"<reserved{i}>" for i in range(8, 32)]
for line in sys.stdin:
    request = json.loads(line)
    if request["op"] == "vocab":
        print(json.dumps({"tokens": TOKENS}), flush=True)
    else:
        print(json.dumps({"probs": [1 / len(TOKENS)] * len(TOKENS)}), flush=True)
'''


class TestModelLifecycle:
    def test_vep_score_shuts_down_its_bridge_peer(self, tmp_path, monkeypatch):
        import sys

        from genomelm import lm

        peers = []
        peer_init = lm._SubprocessPeer.__init__

        def recording_init(peer, *args, **kwargs):
            peer_init(peer, *args, **kwargs)
            peers.append(peer)

        monkeypatch.setattr(lm._SubprocessPeer, "__init__", recording_init)
        script = tmp_path / "peer.py"
        script.write_text(UNIFORM_K1_PEER)
        genome = tmp_path / "genome.fa"
        bases = write_corpus(genome, n=1, length=60, seed=2)[0].bases
        variants = tmp_path / "variants.tsv"
        variants.write_text(f"s0\t30\t{bases[29]}\t{'A' if bases[29] != 'A' else 'C'}\tbenign\n")
        assert main([
            "vep", "score", "--genome", str(genome), "--variants", str(variants),
            "--model", f"bridge:{sys.executable} {script}", "--out", str(tmp_path / "s.tsv"),
        ]) == 0
        assert len(peers) == 1
        # the peer saw end of input and exited by itself, and was reaped
        assert peers[0].proc.returncode == 0
        peers[0].close()  # closing again is a no-op

    def test_generate_rejects_a_bridge_vocabulary_that_is_not_k_mers(self, tmp_path, capsys):
        import sys

        script = tmp_path / "bpe_peer.py"
        # the k=1 vocabulary plus two merged tokens: a BPE vocabulary
        script.write_text(UNIFORM_K1_PEER.replace('"T", ', '"T", "AC", "ACG", ', 1))
        argv = ["generate", "--model", f"bridge:{sys.executable} {script}", "--max-new", "4"]
        assert main(argv) == DATA_ERROR
        err = capsys.readouterr().err
        assert "VocabularyMismatch" in err and "Traceback" not in err

    def test_a_bridge_vocabulary_of_integers_is_a_protocol_violation(self, tmp_path, capsys):
        import sys

        script = tmp_path / "int_peer.py"
        script.write_text(UNIFORM_K1_PEER.replace('{"tokens": TOKENS}', '{"tokens": [1, 2, 3]}'))
        argv = ["generate", "--model", f"bridge:{sys.executable} {script}", "--max-new", "4"]
        assert main(argv) == DATA_ERROR
        err = capsys.readouterr().err
        assert "ProtocolViolation: bridge protocol violation: vocab reply: tokens: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("reply", [
        '{"probs": [float("nan"), 0.5, 0.25, 0.25] + [0] * 32}',
        '{"top": [[0, -0.1]], "rest_mass": float("nan")}',
        '{"top": [[0, "x"]]}',
        '{"top": [[1.5, -0.1]]}',
    ])
    def test_a_bridge_reply_that_is_not_a_distribution_is_a_protocol_violation(
            self, tmp_path, capsys, reply):
        import sys

        script = tmp_path / "bad_peer.py"
        script.write_text(UNIFORM_K1_PEER.replace(
            '{"probs": [1 / len(TOKENS)] * len(TOKENS)}', reply))
        argv = ["generate", "--model", f"bridge:{sys.executable} {script}", "--max-new", "4"]
        assert main(argv) == DATA_ERROR
        captured = capsys.readouterr()
        assert "error: ProtocolViolation: bridge protocol violation: " in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_tampered_model_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.fa"
        write_corpus(corpus)
        model = tmp_path / "markov.jsonl"
        assert main([
            "train-markov", str(corpus), "--k", "1", "--order", "1", "--model-out", str(model),
        ]) == 0
        rewrite_npz(model, edit_header(vocab_hash="f00d" * 4))
        capsys.readouterr()
        assert main(["generate", "--model", f"markov:{model}", "--max-new", "4"]) == DATA_ERROR
        err = capsys.readouterr().err
        assert "VocabularyMismatch" in err and str(model) in err
