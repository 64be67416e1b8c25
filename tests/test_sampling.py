import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genomelm.errors import UnknownPrefixToken, UnknownTokenId
from genomelm.lm import TokenDistribution, UniformLm
from genomelm.sampling import (
    SamplerConfig,
    Xoshiro256,
    _select,
    conditioned_generate,
    generate,
    job_rng,
)
from genomelm.tokenizer import KmerTokenizer, kmer_vocabulary

VOCAB1 = kmer_vocabulary(1)
V = len(VOCAB1)


def dist(*pairs):
    probs = np.zeros(V)
    for token_id, p in pairs:
        probs[token_id] = p
    return TokenDistribution(probs)


class FnLm:
    """Test double: next-token distribution computed from the context."""

    context_window = None

    def __init__(self, fn, vocab=VOCAB1):
        self._fn = fn
        self._vocab = vocab

    def next_distribution(self, context):
        return self._fn(list(context))

    def vocabulary(self):
        return self._vocab


class TestXoshiro:
    def test_same_seed_same_stream(self):
        a = [Xoshiro256(42).next_u64() for _ in range(5)]
        b = [Xoshiro256(42).next_u64() for _ in range(5)]
        assert a == b

    def test_different_seeds_diverge(self):
        assert Xoshiro256(1).next_u64() != Xoshiro256(2).next_u64()

    def test_uniform_range_and_mean(self):
        rng = Xoshiro256(7)
        draws = [rng.uniform() for _ in range(20_000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert abs(sum(draws) / len(draws) - 0.5) < 0.01

    def test_job_streams_are_independent(self):
        streams = [job_rng(0, j).next_u64() for j in range(10)]
        assert len(set(streams)) == 10


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(temperature=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(nucleus_p=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(nucleus_p=1.5)
        with pytest.raises(ValueError):
            SamplerConfig(mode="beam")


class TestGenerate:
    def test_point_mass_always_selected(self):
        lm = FnLm(lambda ctx: dist((2, 1.0)))
        assert generate(lm, [], SamplerConfig(max_new_tokens=5)) == [2] * 5

    def test_greedy_takes_argmax(self):
        lm = FnLm(lambda ctx: dist((0, 0.2), (3, 0.5), (1, 0.3)))
        cfg = SamplerConfig(mode="greedy", max_new_tokens=4)
        assert generate(lm, [], cfg) == [3] * 4

    def test_greedy_ties_resolve_to_lowest_id(self):
        lm = FnLm(lambda ctx: dist((1, 0.5), (2, 0.5)))
        cfg = SamplerConfig(mode="greedy", max_new_tokens=3)
        assert generate(lm, [], cfg) == [1] * 3

    def test_nucleus_cut_keeps_minimal_mass_prefix(self):
        lm = FnLm(lambda ctx: dist((0, 0.5), (1, 0.3), (2, 0.2)))
        cfg = SamplerConfig(nucleus_p=0.5, max_new_tokens=50, seed=11)
        assert generate(lm, [], cfg) == [0] * 50  # cumulative 0.5 reached by id 0 alone

    def test_nucleus_ties_admit_lower_ids_first(self):
        lm = FnLm(lambda ctx: dist((0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)))
        cfg = SamplerConfig(nucleus_p=0.5, max_new_tokens=400, seed=3)
        out = generate(lm, [], cfg)
        assert set(out) == {0, 1}

    def test_low_temperature_approaches_greedy(self):
        lm = FnLm(lambda ctx: dist((0, 0.6), (1, 0.3), (2, 0.1)))
        cfg = SamplerConfig(temperature=0.02, max_new_tokens=200, seed=5)
        assert generate(lm, [], cfg) == [0] * 200

    def test_sampling_frequencies_match_distribution(self):
        lm = FnLm(lambda ctx: dist((0, 0.6), (1, 0.3), (2, 0.1)))
        cfg = SamplerConfig(max_new_tokens=1, seed=123)
        counts = np.zeros(V)
        n = 20_000
        for job in range(n):
            counts[generate(lm, [], cfg, job_index=job)[0]] += 1
        freqs = counts / n
        assert freqs[0] == pytest.approx(0.6, abs=0.015)
        assert freqs[1] == pytest.approx(0.3, abs=0.015)
        assert freqs[2] == pytest.approx(0.1, abs=0.015)

    def test_eos_stops_generation(self):
        lm = FnLm(lambda ctx: dist((VOCAB1.eos, 0.9), (0, 0.1)))
        cfg = SamplerConfig(mode="greedy", max_new_tokens=10)
        assert generate(lm, [], cfg) == []

    def test_non_eos_specials_are_banned(self):
        lm = FnLm(lambda ctx: dist((VOCAB1.id_of("<mask>"), 0.7), (1, 0.3)))
        cfg = SamplerConfig(max_new_tokens=30, seed=9)
        assert generate(lm, [], cfg) == [1] * 30

    def test_deterministic_per_seed_and_job(self):
        lm = UniformLm(VOCAB1)
        cfg = SamplerConfig(max_new_tokens=30, seed=77)
        a = generate(lm, [0], cfg, job_index=4)
        b = generate(lm, [0], cfg, job_index=4)
        c = generate(lm, [0], cfg, job_index=5)
        assert a == b
        assert a != c

    @pytest.mark.parametrize("window", [None, 0, 1, 3, 50])
    def test_each_step_sees_only_the_context_window(self, window):
        seen = []

        def record(ctx):
            seen.append(ctx)
            return dist((len(ctx) % 4, 1.0))

        lm = FnLm(record)
        lm.context_window = window
        prompt = [i % 4 for i in range(7)]
        out = generate(lm, prompt, SamplerConfig(max_new_tokens=6))
        full = prompt + out
        for step, ctx in enumerate(seen):
            whole = full[: len(prompt) + step]
            assert ctx == (whole if window is None else whole[max(0, len(whole) - window):])

    def test_markov_output_is_unchanged_by_the_window(self, rng):
        from genomelm.lm import train_markov

        lm = train_markov([[rng.randrange(4) for _ in range(300)]], VOCAB1, order=3)
        reading_all = FnLm(lm.next_distribution)  # context_window None: passes the whole context
        cfg = SamplerConfig(max_new_tokens=40, seed=4, temperature=0.8)
        prompt = [rng.randrange(4) for _ in range(25)]
        assert generate(lm, prompt, cfg) == generate(reading_all, prompt, cfg)

    @pytest.mark.parametrize("where", [0, 1000, 1999])
    def test_unknown_id_anywhere_in_a_long_prompt_is_named(self, where):
        from genomelm.lm import train_markov

        lm = train_markov([[0, 1, 2, 3] * 10], VOCAB1, order=2)
        prompt = [i % 4 for i in range(2000)]
        prompt[where] = V + 7
        with pytest.raises(UnknownTokenId, match=f"token id {V + 7} "):
            generate(lm, prompt, SamplerConfig(max_new_tokens=3))


def _select_oracle(dist, cfg, rng, banned):
    """The per-token loop version of one sampler step."""
    probs = dist.probs.copy()
    for b in banned:
        probs[b] = 0.0
    total = probs.sum()
    if total <= 0:
        raise ValueError("all candidate tokens are masked out")
    probs /= total
    if cfg.mode == "greedy":
        return int(np.argmax(probs))
    if cfg.temperature != 1.0:
        with np.errstate(divide="ignore"):
            logits = np.where(probs > 0, np.log(probs), -np.inf) / cfg.temperature
        logits -= logits.max()
        probs = np.exp(logits)
        probs[dist.probs <= 0] = 0.0
        for b in banned:
            probs[b] = 0.0
        probs /= probs.sum()
    order = np.lexsort((np.arange(len(probs)), -probs))
    cum = np.cumsum(probs[order])
    cut = int(np.searchsorted(cum, cfg.nucleus_p - 1e-12)) + 1
    kept = order[:cut]
    kept_probs = probs[kept]
    kept_probs /= kept_probs.sum()
    u = rng.uniform()
    acc = 0.0
    for token_id, p in zip(kept, kept_probs):
        acc += p
        if u < acc:
            return int(token_id)
    return int(kept[-1])


class TestSelect:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        # small integer weights give zeros and ties
        weights=st.lists(st.integers(0, 4), min_size=1, max_size=40),
        temperature=st.one_of(st.just(1.0), st.floats(0.01, 3.0)),
        nucleus_p=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
        mode=st.sampled_from(["sample", "greedy"]),
        seed=st.integers(0, 2**32),
    )
    def test_matches_the_loop_oracle(self, data, weights, temperature, nucleus_p, mode, seed):
        w = np.asarray(weights, dtype=float)
        if w.sum() == 0:
            w[0] = 1.0
        banned = data.draw(st.lists(st.integers(0, len(w) - 1), unique=True))
        dist = TokenDistribution(w / w.sum())
        cfg = SamplerConfig(temperature=temperature, nucleus_p=nucleus_p, mode=mode)
        fast_rng, slow_rng = Xoshiro256(seed), Xoshiro256(seed)
        try:
            want = _select_oracle(dist, cfg, slow_rng, banned)
        except ValueError:
            with pytest.raises(ValueError, match="masked out"):
                _select(dist, cfg, fast_rng, np.asarray(banned, dtype=np.int64))
            return
        assert _select(dist, cfg, fast_rng, np.asarray(banned, dtype=np.int64)) == want
        assert fast_rng.s == slow_rng.s

    @pytest.mark.parametrize("n_equal, u, want", [
        (2, 0.5, 1),  # u on a cumulative boundary belongs to the next id
        (21, 1 - 2**-53, 20),  # the cumulative total rounds to below u: the last id
    ])
    def test_draw_at_the_edges_of_the_cumulative_mass(self, n_equal, u, want):
        class FixedDraw:
            def uniform(self):
                return u

        d = dist(*((i, 1 / n_equal) for i in range(n_equal)))
        banned = np.empty(0, dtype=np.int64)
        assert _select(d, SamplerConfig(), FixedDraw(), banned) == want
        assert _select_oracle(d, SamplerConfig(), FixedDraw(), banned) == want


class TestConditionedGenerate:
    def test_prompt_layout(self):
        seen = []

        def fn(ctx):
            if not seen:
                seen.append(list(ctx))
            return dist((2, 1.0))

        lm = FnLm(fn)
        tok = KmerTokenizer(1)
        cfg = SamplerConfig(max_new_tokens=4)
        batch = conditioned_generate(lm, tok, "<high>", cfg, seed_context=[3, 3])
        assert seen[0] == [VOCAB1.bos, VOCAB1.id_of("<high>"), 3, 3]
        assert batch.sequences == ["GGGG"]
        assert not batch.exhausted

    def test_dedup_discards_repeats_and_reports_exhaustion(self):
        lm = FnLm(lambda ctx: dist((0, 1.0)))  # always generates "AAAA"
        tok = KmerTokenizer(1)
        cfg = SamplerConfig(max_new_tokens=4)
        batch = conditioned_generate(
            lm, tok, "<high>", cfg, n_sequences=3, dedup_against={"AAAA"},
        )
        assert batch.sequences == []
        assert batch.duplicates_filtered == 12  # all 4 * 3 attempts
        assert batch.exhausted

    def test_dedup_keeps_distinct_outputs(self):
        lm = UniformLm(VOCAB1)
        tok = KmerTokenizer(1)
        cfg = SamplerConfig(max_new_tokens=12, seed=1)
        batch = conditioned_generate(
            lm, tok, "<low>", cfg, n_sequences=5, dedup_against=set()
        )
        assert len(batch.sequences) == 5
        assert len(set(batch.sequences)) == 5

    def test_no_prefix_primes_with_the_seed_context_alone(self):
        seen = []

        def fn(ctx):
            seen.append(list(ctx))
            return dist((1, 1.0))

        batch = conditioned_generate(FnLm(fn), KmerTokenizer(1), None,
                                     SamplerConfig(max_new_tokens=2), seed_context=[3, 0])
        assert seen == [[3, 0], [3, 0, 1]]
        assert batch.sequences == ["CC"]

    def test_no_prefix_dedups_by_the_same_rule(self):
        lm = FnLm(lambda ctx: dist((0, 1.0)))  # always generates "AAAA"
        cfg = SamplerConfig(max_new_tokens=4)
        batch = conditioned_generate(lm, KmerTokenizer(1), None, cfg, n_sequences=3,
                                     dedup_against=set())
        assert batch.sequences == ["AAAA"]
        assert batch.duplicates_filtered == 11  # 4 * 3 attempts, one kept
        assert batch.exhausted
        # without a dedup set every attempt is kept, repeats included
        batch = conditioned_generate(lm, KmerTokenizer(1), None, cfg, n_sequences=3)
        assert batch.sequences == ["AAAA"] * 3 and not batch.exhausted

    def test_unknown_or_non_special_prefix_rejected(self):
        lm = UniformLm(VOCAB1)
        tok = KmerTokenizer(1)
        cfg = SamplerConfig()
        with pytest.raises(UnknownPrefixToken):
            conditioned_generate(lm, tok, "<nope>", cfg)
        with pytest.raises(UnknownPrefixToken):
            conditioned_generate(lm, tok, "A", cfg)
