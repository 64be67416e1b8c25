import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genomelm.errors import (
    ContainsAmbiguousBase,
    EmptyCorpus,
    InvalidSymbol,
    OffsetOutOfRange,
    SpecialTokenInStream,
)
from genomelm.tokenizer import (
    BpeModel,
    KmerSpec,
    KmerTokenizer,
    N_SPECIAL_SLOTS,
    Vocabulary,
    _SPECIAL_TOKENS,
    bpe_decode,
    bpe_encode,
    _most_frequent_pair,
    bpe_train,
    kmer_decode,
    kmer_encode,
    kmer_id,
    kmer_vocabulary,
    token_char,
)

dna = st.text(alphabet="ACGT", max_size=300)


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
        assert vocab.mask == 18
        assert vocab.unk == 19
        assert vocab.pad == 20
        assert vocab.is_special(16)
        assert not vocab.is_special(15)
        assert vocab.tokens[vocab.prefix_id("<high>")] == "<high>"

    def test_json_round_trip_and_hash(self):
        vocab = kmer_vocabulary(3)
        back = Vocabulary.from_json(vocab.to_json())
        assert back == vocab
        assert back.content_hash() == vocab.content_hash()
        assert back.content_hash() != kmer_vocabulary(4).content_hash()

    def test_k_bounds(self):
        for bad in (0, 9):
            with pytest.raises(ValueError):
                kmer_vocabulary(bad)


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
        assert used != Vocabulary(tokens=("A", "C", "<bos>"), n_base=3)


class TestTokenChar:
    def test_reads_positions(self):
        vocab = kmer_vocabulary(3)
        token_id = kmer_id("ACG")
        assert [token_char(vocab, token_id, j) for j in range(3)] == ["A", "C", "G"]

    def test_rejects_special_and_bad_offset(self):
        vocab = kmer_vocabulary(3)
        with pytest.raises(SpecialTokenInStream):
            token_char(vocab, vocab.bos, 0)
        with pytest.raises(OffsetOutOfRange):
            token_char(vocab, 0, 3)


class TestKmerCodec:
    def test_fixture(self):
        offset, ids, tail = kmer_encode("ACGTACG", KmerSpec(3, offset=0))
        assert offset == 0
        assert ids == [kmer_id("ACG"), kmer_id("TAC")]
        assert tail == "G"

    def test_offset_skips_leading_bases(self):
        offset, ids, tail = kmer_encode("ACGTACG", KmerSpec(3, offset=1))
        assert offset == 1
        assert ids == [kmer_id("CGT"), kmer_id("ACG")]
        assert tail == ""

    def test_short_input_goes_entirely_to_tail(self):
        offset, ids, tail = kmer_encode("AC", KmerSpec(6))
        assert ids == [] and tail == "AC"

    def test_rejects_n(self):
        with pytest.raises(ContainsAmbiguousBase):
            kmer_encode("ACGNT", KmerSpec(2))

    def test_rejects_non_alphabet(self):
        with pytest.raises(InvalidSymbol) as exc:
            kmer_encode("ACGU", KmerSpec(2))
        assert exc.value.symbol == "U"

    def test_random_offset_is_seeded_and_in_range(self):
        draws_a = [KmerSpec(6, offset=None, seed=7).draw_offset() for _ in range(1)]
        spec_b = KmerSpec(6, offset=None, seed=7)
        assert spec_b.draw_offset() == draws_a[0]
        spec = KmerSpec(6, offset=None, seed=1)
        seen = {spec.draw_offset() for _ in range(200)}
        assert seen == set(range(6))

    def test_fixed_offset_bounds(self):
        with pytest.raises(ValueError):
            KmerSpec(3, offset=3)

    def test_decode_rejects_specials(self):
        vocab = kmer_vocabulary(2)
        with pytest.raises(SpecialTokenInStream):
            kmer_decode([0, vocab.eos], KmerSpec(2))

    @settings(max_examples=200)
    @given(dna, st.integers(1, 8), st.integers(0, 7))
    def test_round_trip_reproduces_trimmed_input(self, s, k, off):
        offset = off % k
        _, ids, tail = kmer_encode(s, KmerSpec(k, offset=offset))
        decoded = kmer_decode(ids, KmerSpec(k)).bases
        assert decoded + tail == s[offset:]
        assert len(tail) < k

    def test_facade(self):
        tok = KmerTokenizer(2)
        assert tok.decode(tok.encode("ACGT")) == "ACGT"
        assert tok.vocab.n_base == 16


class TestFixedOffsetCodec:
    def test_encode_and_decode_need_no_generator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("random.Random constructed for a fixed offset")

        monkeypatch.setattr("genomelm.tokenizer.random.Random", refuse)
        tok = KmerTokenizer(6)
        ids = tok.encode("ACGTACGTACGTA")
        assert len(ids) == 2
        assert tok.decode(ids) == "ACGTACGTACGT"


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
