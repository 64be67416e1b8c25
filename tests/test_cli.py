import json

import pytest

from genomelm.cli import DATA_ERROR, USAGE_ERROR, main
from genomelm.seqcore import NucleotideSequence, write_fasta


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
    ])
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, argv, capsys):
        assert main(argv) == USAGE_ERROR
        assert "unrecognized arguments" in capsys.readouterr().err

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
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(">a|fungi\nACG\nTAC\n\n>b\nGGG\n"))
        assert main(["tokenize", "--k", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0\t6 49\t", "0\t42\t"]

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
        config = tmp_path / "genomelm.conf"
        config.write_text("threads = 2\nseed = x\n")
        assert main(["translate", "ATG", "--config", str(config)]) == 0
        assert "M" in capsys.readouterr().out


class TestModelWorkflows:
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

    def test_generate_with_uniform_model_and_prompt(self, tmp_path, capsys):
        assert main([
            "generate", "--model", "uniform:1", "--prompt", "ACGT",
            "--max-new", "8", "--greedy",
        ]) == 0
        line = capsys.readouterr().out.strip()
        assert len(line) == 8

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

    def test_tampered_model_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.fa"
        write_corpus(corpus)
        model = tmp_path / "markov.jsonl"
        assert main([
            "train-markov", str(corpus), "--k", "1", "--order", "1", "--model-out", str(model),
        ]) == 0
        header, rest = model.read_text().split("\n", 1)
        model.write_text(header.replace('"vocab_hash": "', '"vocab_hash": "f00d') + "\n" + rest)
        capsys.readouterr()
        assert main(["generate", "--model", f"markov:{model}", "--max-new", "4"]) == DATA_ERROR
        err = capsys.readouterr().err
        assert "VocabularyMismatch" in err and str(model) in err
