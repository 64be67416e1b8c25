import json
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genomelm import tokenizer
from genomelm.errors import (
    ContainsAmbiguousBase,
    EmptyCorpus,
    InvalidSymbol,
    SpecialTokenInStream,
    UnknownTokenId,
    VocabularyMismatch,
)
from genomelm.seqcore import NucleotideSequence
from genomelm.tokenizer import (
    BpeModel,
    KmerTokenizer,
    N_SPECIAL_SLOTS,
    Vocabulary,
    _SPECIAL_TOKENS,
    _decode,
    _digits,
    _merge_pair,
    _ranks,
    bpe_decode,
    bpe_encode,
    _most_frequent_pair,
    base_ranks_at,
    bpe_train,
    kmer_count_matrix,
    kmer_decode,
    kmer_encode,
    kmer_substitutions,
    kmer_vocabulary,
    kmer_windows,
)

dna = st.text(alphabet="ACGT", max_size=300)


def kmer_id(kmer):
    """Lexicographic rank of a k-mer, one base at a time: the oracle for
    every k-mer id the tokenizer computes in bulk."""
    rank = 0
    for ch in kmer:
        rank = rank * 4 + "ACGT".index(ch)
    return rank


def bpe_train_oracle(corpus, target_vocab):
    """The list-of-words trainer `bpe_train` replaced: every pair recounted
    after each merge, ties broken by (count, concatenation, insertion order)."""
    seqs = [list(s) for s in corpus if s]
    merges, tokens = [], list("ACGT")
    while len(tokens) + N_SPECIAL_SLOTS < target_vocab:
        counts = {}
        for word in seqs:
            for pair in zip(word, word[1:]):
                counts[pair] = counts.get(pair, 0) + 1
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0][0] + kv[0][1]))
        if best[1] < 2:
            break
        pair = best[0]
        merged = pair[0] + pair[1]
        merges.append(pair)
        tokens.append(merged)
        new_seqs = []
        for word in seqs:
            out, i = [], 0
            while i < len(word):
                if i + 1 < len(word) and (word[i], word[i + 1]) == pair:
                    out.append(merged)
                    i += 2
                else:
                    out.append(word[i])
                    i += 1
            new_seqs.append(out)
        seqs = new_seqs
    return tuple(merges), tuple(tokens + _SPECIAL_TOKENS)


class TestVocabulary:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_kmer_vocab_shape(self, k):
        vocab = kmer_vocabulary(k)
        assert vocab.n_base == 4**k
        assert len(vocab) == 4**k + N_SPECIAL_SLOTS

    def test_k6_sizes(self):
        vocab = kmer_vocabulary(6)
        assert vocab.n_base == 4096
        assert len(vocab) == 4128

    def test_tokens_sorted_lexicographically(self):
        vocab = kmer_vocabulary(3)
        body = vocab.tokens[: vocab.n_base]
        assert list(body) == sorted(body)
        assert body[0] == "AAA"
        assert body[-1] == "TTT"

    def test_ids_are_index_computable(self):
        vocab = kmer_vocabulary(4)
        for token_id in (0, 1, 17, 255):
            assert kmer_id(vocab.tokens[token_id]) == token_id
        assert kmer_id("AAAA") == 0
        assert kmer_id("AAAC") == 1
        assert kmer_id("TTTT") == 255

    def test_special_ids_sit_at_top(self):
        vocab = kmer_vocabulary(2)
        assert vocab.bos == 16
        assert vocab.eos == 17
        assert vocab.id_of("<mask>") == 18
        assert vocab.id_of("<unk>") == 19
        assert vocab.id_of("<pad>") == 20
        assert vocab.is_special(16)
        assert not vocab.is_special(15)
        assert vocab.tokens[vocab.id_of("<high>")] == "<high>"

    def test_record_round_trip_and_hash(self):
        vocab = kmer_vocabulary(3)
        back = Vocabulary.from_record(json.loads(json.dumps(vocab.to_record())))
        assert back == vocab
        assert back.content_hash() == vocab.content_hash()
        assert back.content_hash() != kmer_vocabulary(4).content_hash()

    def test_k_bounds(self):
        for bad in (0, 9):
            with pytest.raises(ValueError):
                kmer_vocabulary(bad)

    @pytest.mark.parametrize("tokens, n_base, field", [
        ((), 1, "tokens"),
        (("A", 3, "<bos>"), 2, "tokens"),
        (("A", "", "<bos>"), 2, "tokens"),
        (("A", "C", "A", "<bos>"), 3, "tokens"),
        (("A", "C", "<bos>"), 0, "n_base"),
        (("A", "C", "<bos>"), 4, "n_base"),
        (("A", "C", "<bos>"), 2.0, "n_base"),
        (("A", "C", "<bos>"), True, "n_base"),
        # every special above the base tokens, and nothing else
        (("A", "C", "<bos>"), 3, "n_base"),
        (("A", "<bos>", "C"), 1, "n_base"),
        (("<bos>", "A", "C"), 2, "n_base"),
    ])
    def test_layout_is_checked_on_construction(self, tokens, n_base, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            Vocabulary(tokens=tokens, n_base=n_base)

    @pytest.mark.parametrize("record, field", [
        ({"tokens": "AC<bos>", "n_base": 2}, "tokens"),
        ({"tokens": {"A": 0, "<bos>": 1}, "n_base": 1}, "tokens"),
        ({"tokens": ["A", "C", "<bos>"], "n_base": 99}, "n_base"),
    ])
    def test_a_bad_record_names_its_field(self, record, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            Vocabulary.from_record(record)


class TestVocabularyCaching:
    def test_kmer_vocabulary_is_built_once_per_k(self):
        assert kmer_vocabulary(6) is kmer_vocabulary(6)
        assert kmer_vocabulary(3) is not kmer_vocabulary(4)

    def test_index_is_built_once_per_instance(self):
        vocab = Vocabulary(tokens=("A", "C", "<bos>"), n_base=2)
        assert vocab.index is vocab.index
        assert vocab.id_of("<bos>") == 2

    def test_cached_index_leaves_equality_and_hashing_alone(self):
        used = Vocabulary(tokens=("A", "C", "<bos>"), n_base=2)
        used.id_of("C")
        fresh = Vocabulary(tokens=("A", "C", "<bos>"), n_base=2)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert used != Vocabulary(tokens=("A", "G", "<bos>"), n_base=2)


class TestTokenizerForVocabulary:
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_kmer_vocabulary_gives_its_k(self, k):
        vocab = Vocabulary.from_record(kmer_vocabulary(k).to_record())
        assert KmerTokenizer.for_vocabulary(vocab).k == k

    def test_other_vocabularies_are_a_mismatch(self):
        bpe = bpe_train(["ACACAC"], 4 + N_SPECIAL_SLOTS + 1).vocab
        wide = Vocabulary(tokens=("ACGTACGTA", "<bos>"), n_base=1)
        shuffled = kmer_vocabulary(1).tokens
        shuffled = Vocabulary(tokens=shuffled[1::-1] + shuffled[2:], n_base=4)
        for vocab in (bpe, wide, shuffled):
            with pytest.raises(VocabularyMismatch):
                KmerTokenizer.for_vocabulary(vocab)


class TestKmerCodec:
    def test_fixture(self):
        ids, tail = kmer_encode("ACGTACG", 3)
        assert ids == [kmer_id("ACG"), kmer_id("TAC")]
        assert tail == "G"

    def test_offset_skips_leading_bases(self):
        ids, tail = kmer_encode("ACGTACG", 3, offset=1)
        assert ids == [kmer_id("CGT"), kmer_id("ACG")]
        assert tail == ""

    def test_short_input_goes_entirely_to_tail(self):
        ids, tail = kmer_encode("AC", 6)
        assert ids == [] and tail == "AC"
        assert kmer_encode("AC", 3, offset=2) == ([], "")

    def test_accepts_a_nucleotide_sequence(self):
        assert kmer_encode(NucleotideSequence("ACGTA"), 2, 1) == ([kmer_id("CG"), kmer_id("TA")], "")

    def test_rejects_n(self):
        with pytest.raises(ContainsAmbiguousBase):
            kmer_encode("ACGNT", 2)

    def test_rejects_non_alphabet(self):
        with pytest.raises(InvalidSymbol) as exc:
            kmer_encode("ACGU", 2)
        assert exc.value.symbol == "U"

    @pytest.mark.parametrize("bases, k, offset", [("ACGU", 3, 0), ("ACGU", 3, 1), ("ACGU", 8, 0)])
    def test_tail_is_checked_too(self, bases, k, offset):
        with pytest.raises(InvalidSymbol) as exc:
            kmer_encode(bases, k, offset)
        assert (exc.value.position, exc.value.symbol) == (3, "U")

    def test_rejects_non_ascii_as_a_symbol(self):
        with pytest.raises(InvalidSymbol) as exc:
            kmer_encode("AÉ", 2)
        assert (exc.value.position, exc.value.symbol) == (1, "É")

    def test_random_offset_is_seeded_and_in_range(self, tmp_path, capsys):
        # tokenize --random-offset draws one offset per sequence, all from
        # one generator seeded by --seed
        from genomelm.cli import main

        fasta = tmp_path / "many.fa"
        fasta.write_text("".join(f">s{i}\nACGTACGTAC\n" for i in range(200)))
        runs = []
        for _ in range(2):
            assert main(["tokenize", "--in", str(fasta), "--k", "6", "--random-offset",
                         "--seed", "1"]) == 0
            runs.append([int(line.split("\t")[0]) for line in capsys.readouterr().out.splitlines()])
        assert runs[0] == runs[1]
        assert set(runs[0]) == set(range(6))

    def test_fixed_offset_bounds(self):
        for offset in (3, -1):
            with pytest.raises(ValueError, match="offset must be in"):
                kmer_encode("ACGTACGTAC", 3, offset)

    def test_k_bounds(self):
        for k in (0, 9):
            with pytest.raises(ValueError, match="k must be in"):
                kmer_encode("ACGTACGTAC", k)

    def test_decode_rejects_specials(self):
        vocab = kmer_vocabulary(2)
        with pytest.raises(SpecialTokenInStream):
            kmer_decode([0, vocab.eos], 2)

    @settings(max_examples=200)
    @given(dna, st.integers(1, 8), st.integers(0, 7))
    def test_round_trip_reproduces_trimmed_input(self, s, k, off):
        offset = off % k
        ids, tail = kmer_encode(s, k, offset)
        assert ids == [kmer_id(s[i : i + k]) for i in range(offset, len(s) - k + 1, k)]
        decoded = kmer_decode(ids, k).bases
        assert decoded + tail == s[offset:]
        assert len(tail) < k

    def test_facade(self):
        tok = KmerTokenizer(2)
        assert tok.decode(tok.encode("ACGT")) == "ACGT"
        assert tok.encode("ACGTA", offset=1) == [kmer_id("CG"), kmer_id("TA")]
        assert tok.vocab.n_base == 16


class TestFixedOffsetCodec:
    def test_encode_and_decode_need_no_generator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("random.Random constructed")

        monkeypatch.setattr(random, "Random", refuse)
        tok = KmerTokenizer(6)
        ids = tok.encode("ACGTACGTACGTA")
        assert len(ids) == 2
        assert tok.decode(ids) == "ACGTACGTACGT"

    def test_encode_is_a_pure_function_of_its_arguments(self):
        first = kmer_encode("ACGTTGCAAC", 3, 1)
        for k in range(1, 9):  # other calls in between change nothing
            kmer_encode("ACGTTGCAAC", k, k - 1)
        assert kmer_encode("ACGTTGCAAC", 3, 1) == first == ([kmer_id("CGT"), kmer_id("TGC"),
                                                              kmer_id("AAC")], "")


class TestOneAcgtCheck:
    """kmer_encode, bpe_encode and bpe_train apply one rule: an N anywhere is
    ContainsAmbiguousBase, any other character outside ACGT InvalidSymbol."""

    MODEL = bpe_train(["ACAC"], 4 + N_SPECIAL_SLOTS + 1)
    CODECS = {
        "kmer_encode": lambda s: kmer_encode(s, 2),
        "bpe_encode": lambda s: bpe_encode(s, TestOneAcgtCheck.MODEL),
        "bpe_train": lambda s: bpe_train(["ACGT", s], 40),
    }

    @pytest.mark.parametrize("codec", CODECS)
    @settings(max_examples=100)
    @given(st.text(st.sampled_from("ACGTN") | st.characters(), max_size=12))
    def test_same_rule_everywhere(self, codec, text):
        bad = [i for i, ch in enumerate(text) if ch not in "ACGT"]
        if not bad:
            self.CODECS[codec](text)
        elif "N" in text:
            with pytest.raises(ContainsAmbiguousBase):
                self.CODECS[codec](text)
        else:
            with pytest.raises(InvalidSymbol) as exc:
                self.CODECS[codec](text)
            assert (exc.value.position, exc.value.symbol) == (bad[0], text[bad[0]])


def sliding_kmer_windows(bases, k):
    """kmer_windows as a sliding window view over the base ranks: the oracle
    of its rolling code."""
    if len(bases) < k:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(_digits(bases), k)
    starts = np.flatnonzero((windows != 255).all(axis=1))
    return starts, _ranks(windows[starts])


# N, lowercase, any other ASCII and any non-ASCII character
ANY_SYMBOL = st.one_of(st.sampled_from("ACGTNacgtn"), st.characters(max_codepoint=127),
                       st.characters(min_codepoint=128))


class TestKmerLayout:
    @settings(max_examples=300)
    @given(st.integers(1, 8).flatmap(
        lambda k: st.tuples(st.just(k), st.text(ANY_SYMBOL, max_size=3 * k))))
    def test_rolling_windows_match_the_sliding_view(self, k_text):
        k, text = k_text
        starts, ids = kmer_windows(text, k)
        want_starts, want_ids = sliding_kmer_windows(text, k)
        assert starts.dtype == want_starts.dtype and ids.dtype == want_ids.dtype
        assert starts.tolist() == want_starts.tolist()
        assert ids.tolist() == want_ids.tolist()

    def test_count_matrix_peak_memory_is_near_its_result(self):
        # 600 records of 150 nt at k=5: the 4.9 MB result, and little beside it
        rng = np.random.default_rng(0)
        seqs = ["".join("ACGT"[i] for i in rng.integers(0, 4, 150)) for _ in range(600)]
        tracemalloc.start()
        try:
            counts = kmer_count_matrix(seqs, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.7 * counts.nbytes

    @settings(max_examples=100)
    @given(st.text(alphabet="ACGTN", max_size=60), st.integers(1, 6))
    def test_windows_and_counts_match_the_oracle(self, s, k):
        want = [(i, kmer_id(s[i : i + k])) for i in range(len(s) - k + 1) if "N" not in s[i : i + k]]
        starts, ids = kmer_windows(s, k)
        assert list(zip(starts.tolist(), ids.tolist())) == want
        counts = np.zeros(4**k)
        for _, rank in want:
            counts[rank] += 1
        assert kmer_count_matrix([s], k)[0].tolist() == counts.tolist()

    @settings(max_examples=100)
    @given(st.lists(st.text(alphabet="ACGTN", max_size=30), max_size=6), st.integers(1, 4))
    def test_count_matrix_rows_are_each_sequences_counts(self, seqs, k):
        got = kmer_count_matrix(seqs, k)
        assert got.shape == (len(seqs), 4**k)
        for row, s in zip(got, seqs):
            want = np.zeros(4**k)
            for i in range(len(s) - k + 1):
                if "N" not in s[i : i + k]:
                    want[kmer_id(s[i : i + k])] += 1
            assert row.tolist() == want.tolist()

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_base_ranks_and_substitutions(self, k):
        vocab = kmer_vocabulary(k)
        ids = np.arange(4**k)
        for j in range(k):
            ranks = base_ranks_at(ids, k, j)
            subs = kmer_substitutions(ids, k, j)
            for t in ids.tolist():
                kmer = vocab.tokens[t]
                assert ranks[t] == "ACGT".index(kmer[j])
                others = ["ACGT"[("ACGT".index(kmer[j]) + s) % 4] for s in (1, 2, 3)]
                assert subs[t].tolist() == [kmer_id(kmer[:j] + b + kmer[j + 1 :]) for b in others]


def join_decode(ids, vocab):
    """The per-token join the array decoder replaced, kept as its oracle."""
    if len(ids) and max(ids) >= vocab.n_base:
        raise SpecialTokenInStream(next(t for t in ids if vocab.is_special(t)))
    return "".join([vocab.tokens[t] for t in ids])


BPE_FOR_DECODE = bpe_train(["ACGTTACGAACGTTTACGGA" * 3, "TTTTACGCCA"], target_vocab=50)


class TestDecodeMatchesTheJoin:
    @settings(max_examples=200)
    @given(st.data(), st.sampled_from([kmer_vocabulary(k) for k in (1, 2, 3, 6)]
                                      + [BPE_FOR_DECODE.vocab]))
    def test_same_bases_and_errors(self, data, vocab):
        token = st.integers(0, vocab.n_base - 1)
        ids = data.draw(st.lists(st.one_of(token, st.integers(0, len(vocab) - 1)), max_size=50))
        try:
            want = join_decode(ids, vocab)
        except SpecialTokenInStream as exc:
            with pytest.raises(SpecialTokenInStream, match=f"id {exc.token_id} "):
                _decode(ids, vocab)
            return
        assert _decode(ids, vocab).bases == want
        assert _decode(np.asarray(ids, dtype=np.int64), vocab).bases == want

    def test_through_both_decoders(self):
        assert kmer_decode([0, 27, 63], 3).bases == "AAACGTTTT"
        ids = bpe_encode("ACGTTACGAAT", BPE_FOR_DECODE)
        assert bpe_decode(ids, BPE_FOR_DECODE).bases == "ACGTTACGAAT"

    def test_a_negative_id_is_named(self):
        with pytest.raises(UnknownTokenId, match="token id -2 "):
            kmer_decode([1, -2], 2)


class TestBpe:
    def test_training_fixture(self):
        model = bpe_train(["ACACAC", "ACAC"], 4 + N_SPECIAL_SLOTS + 2)
        assert model.merges == (("A", "C"), ("AC", "AC"))
        assert model.vocab.tokens[4] == "AC"
        assert model.vocab.tokens[5] == "ACAC"
        assert len(model.vocab) == 4 + N_SPECIAL_SLOTS + 2

    def test_frequency_ties_break_lexicographically(self):
        model = bpe_train(["GT", "GT", "AC", "AC"], 4 + N_SPECIAL_SLOTS + 1)
        assert model.merges == (("A", "C"),)

    def test_stops_when_no_pair_repeats(self):
        model = bpe_train(["AC", "GT"], 4 + N_SPECIAL_SLOTS + 10)
        assert model.merges == ()

    def test_doubled_letter_merges_left_to_right(self):
        model = bpe_train(["AAAA", "AAAA"], 4 + N_SPECIAL_SLOTS + 1)
        assert model.merges == (("A", "A"),)
        assert bpe_encode("AAAAA", model) == [
            model.vocab.id_of("AA"),
            model.vocab.id_of("AA"),
            model.vocab.id_of("A"),
        ]

    def test_encode_fixture(self):
        model = bpe_train(["ACACAC", "ACAC"], 4 + N_SPECIAL_SLOTS + 2)
        assert bpe_encode("ACACG", model) == [
            model.vocab.id_of("ACAC"),
            model.vocab.id_of("G"),
        ]
        assert bpe_encode("", model) == []

    def test_rejects_n_and_empty_corpus(self):
        with pytest.raises(ContainsAmbiguousBase):
            bpe_train(["ACN"], 40)
        with pytest.raises(EmptyCorpus):
            bpe_train(["", ""], 40)
        model = bpe_train(["ACAC"], 4 + N_SPECIAL_SLOTS)
        with pytest.raises(ContainsAmbiguousBase):
            bpe_encode("NN", model)

    def test_target_vocab_floor(self):
        with pytest.raises(ValueError):
            bpe_train(["ACGT"], 4 + N_SPECIAL_SLOTS - 1)

    def test_training_is_deterministic(self):
        corpus = ["ACGTACGTGG", "TTACGTACCA", "GGGACGT"]
        a = bpe_train(corpus, 50)
        b = bpe_train(corpus, 50)
        assert a.merges == b.merges
        assert a.vocab == b.vocab

    def test_json_round_trip(self):
        model = bpe_train(["ACACAC", "ACAC"], 42)
        back = BpeModel.from_json(model.to_json())
        assert back == model
        json.loads(model.to_json())  # valid JSON document

    @pytest.mark.parametrize("edit, field", [
        # a merged token dropped, n_base kept: <bos> lands below n_base
        (lambda m: m["tokens"].remove("ACAC"), "n_base"),
        # ... and with n_base one lower
        (lambda m: (m["tokens"].remove("ACAC"), m.update(n_base=6)), "tokens"),
        (lambda m: m.update(n_base=99), "n_base"),
        (lambda m: m["tokens"].insert(4, m["tokens"].pop(5)), "tokens"),
        (lambda m: m["merges"].reverse(), "merges"),
        (lambda m: m["merges"][2].reverse(), "tokens"),
        # a merge spelled as one two-letter string, or as a triple
        (lambda m: m["merges"].__setitem__(0, "AC"), "merges"),
        (lambda m: m["merges"][0].append("G"), "merges"),
    ])
    def test_the_file_is_checked_against_its_merges(self, edit, field):
        obj = json.loads(bpe_train(["ACACAC", "ACAC", "GTGTT"], 42).to_json())
        assert obj["merges"] == [["A", "C"], ["AC", "AC"], ["G", "T"]]
        edit(obj)
        with pytest.raises(ValueError, match=f"^{field}: "):
            BpeModel.from_json(json.dumps(obj))

    @settings(max_examples=100)
    @given(st.lists(st.text(alphabet="ACGT", min_size=1, max_size=60), min_size=1, max_size=5),
           dna)
    def test_round_trip_is_exact_with_no_trimming(self, corpus, probe):
        model = bpe_train(corpus, 4 + N_SPECIAL_SLOTS + 8)
        for s in corpus + [probe]:
            assert bpe_decode(bpe_encode(s, model), model).bases == s

    def test_decode_rejects_specials(self):
        model = bpe_train(["ACAC"], 4 + N_SPECIAL_SLOTS)
        with pytest.raises(SpecialTokenInStream):
            bpe_decode([model.vocab.bos], model)

    def test_rejects_symbols_outside_acgt(self):
        with pytest.raises(InvalidSymbol) as exc:
            bpe_train(["ACGT", "ACxG"], 40)
        assert (exc.value.position, exc.value.symbol) == (2, "x")

    def test_encode_rejects_non_ascii_as_a_symbol(self):
        model = bpe_train(["ACAC"], 4 + N_SPECIAL_SLOTS + 1)
        with pytest.raises(InvalidSymbol) as exc:
            bpe_encode("AÉ", model)
        assert (exc.value.position, exc.value.symbol) == (1, "É")


def unique_most_frequent_pair(stream, tokens):
    """The pair counter that sorted every pair code with np.unique on each
    merge, kept as the oracle of _most_frequent_pair."""
    left, right = stream[:-1], stream[1:]
    both = (left >= 0) & (right >= 0)
    width = len(tokens)
    codes = left[both] * width + right[both]
    if codes.size == 0:
        return None
    uniq, counts = np.unique(codes, return_counts=True)
    top = counts.max()
    if top < 2:
        return None
    tied = [divmod(int(c), width) for c in uniq[counts == top]]
    concat = min(tokens[a] + tokens[b] for a, b in tied)
    tied = [(a, b) for a, b in tied if tokens[a] + tokens[b] == concat]
    return min(tied, key=lambda p: np.argmax(codes == p[0] * width + p[1]))


def delete_merge_pair(word, left, right, merged):
    """The merge that ran the overlap logic on every pair and dropped the
    merged positions with np.delete, kept as the oracle of _merge_pair."""
    cand = np.flatnonzero((word[:-1] == left) & (word[1:] == right))
    if cand.size == 0:
        return word
    idx = np.arange(cand.size)
    run_start = np.maximum.accumulate(np.where(np.diff(cand, prepend=-2) != 1, idx, 0))
    keep = cand[(idx - run_start) % 2 == 0]
    out = np.delete(word, keep + 1)
    out[keep - np.arange(keep.size)] = merged
    return out


def oracle_bpe_train(corpus, target_vocab):
    """bpe_train's stream loop over the two oracles."""
    words = [np.array(["ACGT".index(b) for b in s], dtype=np.int64) for s in corpus if s]
    stream = np.concatenate([part for w in words for part in (w, [-1])][:-1])
    tokens = list("ACGT")
    while len(tokens) + N_SPECIAL_SLOTS < target_vocab:
        pair = unique_most_frequent_pair(stream, tokens)
        if pair is None:
            break
        tokens.append(tokens[pair[0]] + tokens[pair[1]])
        stream = delete_merge_pair(stream, *pair, len(tokens) - 1)
    return tokens


def oracle_bpe_encode(bases, model):
    word = np.array(["ACGT".index(b) for b in bases], dtype=np.int64)
    index = model.vocab.index
    for left, right in model.merges:
        word = delete_merge_pair(word, index[left], index[right], index[left + right])
    return word.tolist()


# Streams as bpe_train sees them: runs of one symbol, -1 between words.
# Tokens 4 ("AC") and 5 ("CG") make the pairs (AC, G) and (A, CG) spell
# the same ACG, so ties reach the first-occurrence rule.
PAIR_TOKENS = ["A", "C", "G", "T", "AC", "CG"]
symbol_runs = st.lists(st.tuples(st.sampled_from([-1, 0, 1, 2, 4, 5]), st.integers(1, 5)),
                       max_size=30)


def run_stream(runs):
    return np.array([symbol for symbol, n in runs for _ in range(n)], dtype=np.int64)


# _CODES_PER_PAIR at 0 sorts the codes of every stream; at 10**9 it counts every code
both_counters = pytest.mark.parametrize("codes_per_pair", [0, 10**9], ids=["sort", "bincount"])


class TestPairCountersAgainstTheSortingOracles:
    @both_counters
    @settings(max_examples=300)
    @given(symbol_runs)
    def test_the_pair_counter_picks_the_same_pair(self, codes_per_pair, runs):
        stream = run_stream(runs)
        with mock.patch.object(tokenizer, "_CODES_PER_PAIR", codes_per_pair):
            got = _most_frequent_pair(stream, PAIR_TOKENS)
        assert got == unique_most_frequent_pair(stream, PAIR_TOKENS)

    def test_a_wide_vocabulary_sorts_rather_than_counts_every_code(self):
        tokens = [f"t{i}" for i in range(1024)]  # a count per code would take 8 MB
        stream = np.tile(np.arange(100), 10)
        stream[::7] = -1
        tracemalloc.start()
        try:
            got = _most_frequent_pair(stream, tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == unique_most_frequent_pair(stream, tokens)
        assert peak < 1_000_000

    @settings(max_examples=300)
    @given(symbol_runs, st.sampled_from([0, 1, 2, 4, 5]), st.sampled_from([0, 1, 2, 4, 5]))
    def test_the_merge_drops_the_same_positions(self, runs, left, right):
        stream = run_stream(runs)
        got = _merge_pair(stream, left, right, 6)
        assert got.tolist() == delete_merge_pair(stream, left, right, 6).tolist()
        assert stream.tolist() == run_stream(runs).tolist()  # the input is not written to

    @both_counters
    @settings(max_examples=200)
    @given(st.lists(st.lists(st.tuples(st.sampled_from("ACG"), st.integers(1, 6)), max_size=12),
                    min_size=1, max_size=5),
           st.integers(4 + N_SPECIAL_SLOTS, 4 + N_SPECIAL_SLOTS + 12), st.text("ACGT", max_size=40))
    def test_training_and_encoding_match(self, codes_per_pair, words, target_vocab, probe):
        corpus = ["".join(base * n for base, n in word) for word in words]
        if not any(corpus):
            return
        with mock.patch.object(tokenizer, "_CODES_PER_PAIR", codes_per_pair):
            model = bpe_train(corpus, target_vocab)
        assert list(model.vocab.tokens[: model.vocab.n_base]) == oracle_bpe_train(
            corpus, target_vocab)
        for bases in corpus + [probe]:
            assert bpe_encode(bases, model) == oracle_bpe_encode(bases, model)


class TestBpeAgainstOracle:
    @settings(max_examples=300)
    @given(
        st.sampled_from(["AC", "ACGT"]).flatmap(
            lambda alphabet: st.lists(st.text(alphabet=alphabet, max_size=40), max_size=6)
        ),
        st.integers(4 + N_SPECIAL_SLOTS, 4 + N_SPECIAL_SLOTS + 16),
    )
    def test_matches_the_list_trainer(self, corpus, target_vocab):
        if not any(corpus):
            with pytest.raises(EmptyCorpus):
                bpe_train(corpus, target_vocab)
            return
        model = bpe_train(corpus, target_vocab)
        merges, tokens = bpe_train_oracle(corpus, target_vocab)
        assert model.merges == merges
        assert model.vocab.tokens == tokens

    def test_doubled_pairs(self):
        corpus, target_vocab = ["AAAA", "AAAAA", "CAAAC", "AAAAAAA"], 4 + N_SPECIAL_SLOTS + 4
        model = bpe_train(corpus, target_vocab)
        assert (model.merges, model.vocab.tokens) == bpe_train_oracle(corpus, target_vocab)

    def test_equal_concatenations_break_by_first_occurrence(self):
        # ("AC","G") and ("A","CG") both spell ACG and occur twice each;
        # the pair seen first in the stream wins, whichever it is.
        tokens = ["A", "C", "G", "T", "AC", "CG"]
        ac_g, a_cg = [4, 2], [0, 5]
        stream = np.array(ac_g + [-1] + a_cg + [-1] + a_cg + [-1] + ac_g)
        assert _most_frequent_pair(stream, tokens) == (4, 2)
        stream = np.array(a_cg + [-1] + ac_g + [-1] + ac_g + [-1] + a_cg)
        assert _most_frequent_pair(stream, tokens) == (0, 5)
