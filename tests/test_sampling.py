import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genomelm import sampling
from genomelm.errors import UnknownPrefixToken, UnknownTokenId
from genomelm.lm import MarkovLm, TokenDistribution, train_markov
from genomelm.sampling import (
    MAX_ATTEMPTS_FACTOR,
    SamplerConfig,
    XoshiroLanes,
    _draw,
    _prepare,
    conditioned_generate,
    generate,
)
from genomelm.tokenizer import KmerTokenizer, kmer_vocabulary
from sequential_decode import (
    Xoshiro256,
    conditioned_attempts,
    generate_one,
    job_rng,
    normalized,
    nucleus,
)
from sequential_decode import select as select_one

VOCAB1 = kmer_vocabulary(1)
V = len(VOCAB1)


def dist(*pairs):
    probs = np.zeros(V)
    for token_id, p in pairs:
        probs[token_id] = p
    return TokenDistribution(probs)


class FnLm:
    """Test double: next-token distribution computed from the context, one
    call of `fn` per context, in order."""

    context_window = None

    def __init__(self, fn, vocab=VOCAB1):
        self._fn = fn
        self._vocab = vocab

    def next_distributions(self, contexts):
        rows = [self._fn(list(ctx)).probs for ctx in contexts]
        return np.array(rows).reshape(len(contexts), len(self._vocab))

    def vocabulary(self):
        return self._vocab


def generate1(lm, prompt, cfg, job_index=0):
    """One job through the lockstep decoder."""
    return generate(lm, [prompt], cfg, first_job=job_index)[0]


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
        assert generate1(lm, [], SamplerConfig(max_new_tokens=5)) == [2] * 5

    def test_greedy_takes_argmax(self):
        lm = FnLm(lambda ctx: dist((0, 0.2), (3, 0.5), (1, 0.3)))
        cfg = SamplerConfig(mode="greedy", max_new_tokens=4)
        assert generate1(lm, [], cfg) == [3] * 4

    def test_greedy_ties_resolve_to_lowest_id(self):
        lm = FnLm(lambda ctx: dist((1, 0.5), (2, 0.5)))
        cfg = SamplerConfig(mode="greedy", max_new_tokens=3)
        assert generate1(lm, [], cfg) == [1] * 3

    def test_nucleus_cut_keeps_minimal_mass_prefix(self):
        lm = FnLm(lambda ctx: dist((0, 0.5), (1, 0.3), (2, 0.2)))
        cfg = SamplerConfig(nucleus_p=0.5, max_new_tokens=50, seed=11)
        assert generate1(lm, [], cfg) == [0] * 50  # cumulative 0.5 reached by id 0 alone

    def test_nucleus_ties_admit_lower_ids_first(self):
        lm = FnLm(lambda ctx: dist((0, 0.25), (1, 0.25), (2, 0.25), (3, 0.25)))
        cfg = SamplerConfig(nucleus_p=0.5, max_new_tokens=400, seed=3)
        out = generate1(lm, [], cfg)
        assert set(out) == {0, 1}

    def test_low_temperature_approaches_greedy(self):
        lm = FnLm(lambda ctx: dist((0, 0.6), (1, 0.3), (2, 0.1)))
        cfg = SamplerConfig(temperature=0.02, max_new_tokens=200, seed=5)
        assert generate1(lm, [], cfg) == [0] * 200

    def test_sampling_frequencies_match_distribution(self):
        lm = FnLm(lambda ctx: dist((0, 0.6), (1, 0.3), (2, 0.1)))
        cfg = SamplerConfig(max_new_tokens=1, seed=123)
        counts = np.zeros(V)
        n = 20_000
        for ids in generate(lm, [[]] * n, cfg):
            counts[ids[0]] += 1
        freqs = counts / n
        assert freqs[0] == pytest.approx(0.6, abs=0.015)
        assert freqs[1] == pytest.approx(0.3, abs=0.015)
        assert freqs[2] == pytest.approx(0.1, abs=0.015)

    def test_eos_stops_generation(self):
        lm = FnLm(lambda ctx: dist((VOCAB1.eos, 0.9), (0, 0.1)))
        cfg = SamplerConfig(mode="greedy", max_new_tokens=10)
        assert generate1(lm, [], cfg) == []

    def test_non_eos_specials_are_banned(self):
        lm = FnLm(lambda ctx: dist((VOCAB1.id_of("<mask>"), 0.7), (1, 0.3)))
        cfg = SamplerConfig(max_new_tokens=30, seed=9)
        assert generate1(lm, [], cfg) == [1] * 30

    def test_deterministic_per_seed_and_job(self):
        lm = MarkovLm.uniform(VOCAB1)
        cfg = SamplerConfig(max_new_tokens=30, seed=77)
        a = generate1(lm, [0], cfg, job_index=4)
        b = generate1(lm, [0], cfg, job_index=4)
        c = generate1(lm, [0], cfg, job_index=5)
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
        out = generate1(lm, prompt, SamplerConfig(max_new_tokens=6))
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
        assert generate1(lm, prompt, cfg) == generate1(reading_all, prompt, cfg)

    @pytest.mark.parametrize("where", [0, 1000, 1999])
    def test_unknown_id_anywhere_in_a_long_prompt_is_named(self, where):
        from genomelm.lm import train_markov

        lm = train_markov([[0, 1, 2, 3] * 10], VOCAB1, order=2)
        prompt = [i % 4 for i in range(2000)]
        prompt[where] = V + 7
        with pytest.raises(UnknownTokenId, match=f"token id {V + 7} "):
            generate1(lm, prompt, SamplerConfig(max_new_tokens=3))


def _select(probs, cfg, banned, uniform):
    """`_prepare` then `_draw` with row i of `probs` as job i's state."""
    return _draw(_prepare(probs, cfg, banned), np.arange(len(probs)), cfg, uniform)


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
        width=st.integers(1, 40),
        n_rows=st.integers(1, 6),
        temperature=st.one_of(st.just(1.0), st.floats(0.01, 3.0)),
        nucleus_p=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
        mode=st.sampled_from(["sample", "greedy"]),
        seed=st.integers(0, 2**32),
    )
    def test_matches_the_loop_oracle(self, data, width, n_rows, temperature, nucleus_p, mode,
                                     seed):
        rows = []
        for _ in range(n_rows):
            w = np.asarray(data.draw(st.lists(st.integers(0, 4), min_size=width,
                                              max_size=width)), dtype=float)
            if w.sum() == 0:
                w[0] = 1.0
            rows.append(w / w.sum())
        banned = data.draw(st.lists(st.integers(0, width - 1), unique=True))
        cfg = SamplerConfig(temperature=temperature, nucleus_p=nucleus_p, mode=mode)
        streams = [Xoshiro256(seed + i) for i in range(n_rows)]
        draws = []

        def uniform():
            draws.append(np.array([rng.uniform() for rng in streams]))
            return draws[-1]

        try:
            want = []
            for i, row in enumerate(rows):
                want.append(select_one(TokenDistribution(row), cfg, Xoshiro256(seed + i), banned))
                loop = _select_oracle(TokenDistribution(row), cfg, Xoshiro256(seed + i), banned)
                assert loop == want[-1]
        except ValueError:
            with pytest.raises(ValueError, match="masked out"):
                _select(np.array(rows), cfg, np.asarray(banned, dtype=np.int64), uniform)
            return
        got = _select(np.array(rows), cfg, np.asarray(banned, dtype=np.int64), uniform)
        assert got.tolist() == want
        assert len(draws) == (mode == "sample")  # one draw a row when sampling, none greedy

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           weights=st.lists(st.floats(0.001, 1.0), min_size=9, max_size=40),
           temperature=st.one_of(st.just(1.0), st.floats(0.3, 3.0)))
    def test_draws_and_cuts_on_cumulative_boundaries(self, data, weights, temperature):
        # u equal to a kept cumulative mass, and a nucleus P whose cut lands on
        # a cumulative mass, pick a different id if one sum is off by one bit
        w = np.asarray(weights)
        dist = TokenDistribution(w / w.sum())
        none = np.empty(0, dtype=np.int64)
        cfg = SamplerConfig(temperature=temperature)
        _, cum, _ = nucleus(normalized(dist, none), cfg)
        p = cum[data.draw(st.integers(0, len(cum) - 1))] + 1e-12
        if p <= 1.0:
            cfg = SamplerConfig(temperature=temperature, nucleus_p=p)
        kept, _, kept_cum = nucleus(normalized(dist, none), cfg)
        draws = np.array([u for u in kept_cum if u < 1.0] or [0.5])

        class FixedDraws:
            def __init__(self):
                self.draws = iter(draws.tolist())

            def uniform(self):
                return next(self.draws)

        rng = FixedDraws()
        want = [select_one(dist, cfg, rng, none) for _ in draws]
        rows = np.tile(dist.probs, (len(draws), 1))
        assert _select(rows, cfg, none, lambda: draws).tolist() == want

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
        assert _select(d.probs[None].copy(), SamplerConfig(), banned,
                       lambda: np.array([u])) == [want]
        assert select_one(d, SamplerConfig(), FixedDraw(), banned) == want
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
        lm = MarkovLm.uniform(VOCAB1)
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
        lm = MarkovLm.uniform(VOCAB1)
        tok = KmerTokenizer(1)
        cfg = SamplerConfig()
        with pytest.raises(UnknownPrefixToken):
            conditioned_generate(lm, tok, "<nope>", cfg)
        with pytest.raises(UnknownPrefixToken):
            conditioned_generate(lm, tok, "A", cfg)


class TestXoshiroLanes:
    @pytest.mark.parametrize("seed", [0, -1, 2**63 + 5])
    def test_each_lane_is_its_jobs_scalar_stream(self, seed):
        first_job, n_lanes, n_draws = 7, 3, 10_000
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning from the wrapping arithmetic
            lanes = XoshiroLanes(seed, first_job, n_lanes)
            got = np.array([lanes.uniform() for _ in range(n_draws)]).T
        for lane, draws in enumerate(got):
            rng = job_rng(seed, first_job + lane)
            assert draws.tolist() == [rng.uniform() for _ in range(n_draws)]

    def test_dropped_lanes_leave_the_others_on_their_streams(self):
        lanes = XoshiroLanes(11, 0, 4)
        lanes.uniform()
        lanes.keep(np.array([True, False, True, False]))
        after = lanes.next_u64().tolist()
        want = []
        for job in (0, 2):
            rng = job_rng(11, job)
            rng.uniform()
            want.append(rng.next_u64())
        assert after == want


VOCAB2 = kmer_vocabulary(2)  # 16 base ids: kept sets of more than 8 ids


class TableLm:
    """Rows of a fixed table, picked by the last `depth` context ids."""

    def __init__(self, table, depth, window):
        self.table, self.depth, self.context_window = table, depth, window

    def next_distributions(self, contexts):
        picks = [sum((t + 1) * 7**i for i, t in enumerate(ctx[len(ctx) - self.depth:]))
                 % len(self.table) for ctx in contexts]
        return self.table[picks]

    def vocabulary(self):
        return VOCAB2


@st.composite
def decode_cases(draw):
    V = len(VOCAB2)
    token = st.integers(0, VOCAB2.n_base - 1)
    if draw(st.booleans()):
        order = draw(st.integers(0, 3))
        streams = draw(st.lists(st.lists(token, min_size=1, max_size=60), min_size=1,
                                max_size=3))
        # an EOS or a special in the corpus gives them mass, as a prefix model has
        streams.append([VOCAB2.bos, VOCAB2.id_of("<high>"), *streams[0][:5], VOCAB2.eos])
        lm = train_markov(streams, VOCAB2, order, alpha=draw(st.sampled_from([0.01, 0.1, 1.0])))
    else:
        # small integer weights give zeros and ties; the EOS weight sets how early jobs end
        rows = []
        for _ in range(draw(st.integers(1, 5))):
            w = np.asarray(draw(st.lists(st.integers(0, 4), min_size=V, max_size=V)), float)
            w[VOCAB2.eos] *= draw(st.sampled_from([0, 1, 8]))
            if not w[: VOCAB2.n_base].any() and not w[VOCAB2.eos]:
                w[0] = 1.0  # leave the sampler a candidate
            rows.append(w / w.sum())
        lm = TableLm(np.array(rows), draw(st.integers(0, 3)),
                     draw(st.one_of(st.none(), st.integers(0, 3))))
    cfg = SamplerConfig(
        temperature=draw(st.one_of(st.just(1.0), st.floats(0.05, 3.0))),
        nucleus_p=draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0))),
        max_new_tokens=draw(st.integers(0, 12)),
        seed=draw(st.one_of(st.integers(-5, 5), st.integers(-2**70, 2**70))),
        mode=draw(st.sampled_from(["sample", "sample", "greedy"])),
    )
    prompts = draw(st.lists(st.lists(token, max_size=6), min_size=1, max_size=9))
    block_rows = draw(st.sampled_from([1, 2, 3, 1000]))
    return lm, cfg, prompts, block_rows


class TestLockstepMatchesSequential:
    @settings(max_examples=250, deadline=None)
    @given(case=decode_cases(), first_job=st.integers(0, 5))
    def test_token_for_token(self, case, first_job):
        lm, cfg, prompts, block_rows = case
        want = [generate_one(lm, p, cfg, job_index=first_job + i) for i, p in enumerate(prompts)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "BLOCK_VALUES", block_rows * len(VOCAB2))
            assert generate(lm, prompts, cfg, first_job=first_job) == want

    @settings(max_examples=100, deadline=None)
    @given(case=decode_cases(), n=st.integers(1, 6), prefix=st.sampled_from([None, "<high>"]),
           dedup=st.sampled_from([None, set(), {"", "A", "AC"}]))
    def test_conditioned_attempts(self, case, n, prefix, dedup):
        lm, cfg, prompts, block_rows = case
        cfg = replace(cfg, max_new_tokens=min(cfg.max_new_tokens, 3))  # short outputs collide
        tok = KmerTokenizer(2)
        prompt = [VOCAB2.bos, VOCAB2.id_of(prefix), *prompts[0]] if prefix else prompts[0]
        budget = n if dedup is None else n * MAX_ATTEMPTS_FACTOR
        sequences, filtered, attempts = conditioned_attempts(lm, tok, prompt, cfg, n, dedup,
                                                             budget)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sampling, "BLOCK_VALUES", block_rows * len(VOCAB2))
            batch = conditioned_generate(lm, tok, prefix, cfg, n_sequences=n,
                                         seed_context=prompts[0], dedup_against=dedup)
        assert batch.sequences == sequences
        assert batch.duplicates_filtered == filtered
        assert len(batch.sequences) + batch.duplicates_filtered == attempts
        assert batch.exhausted == (len(sequences) < n)

    def test_dedup_collisions_rerun_only_the_missing_attempts(self):
        calls = []

        def fn(ctx):
            calls.append(list(ctx))
            return dist((0, 0.5), (1, 0.5))

        cfg = SamplerConfig(max_new_tokens=1, seed=2)
        batch = conditioned_generate(FnLm(fn), KmerTokenizer(1), None, cfg, n_sequences=2,
                                     dedup_against=set())
        sequences, filtered, attempts = conditioned_attempts(
            FnLm(lambda ctx: dist((0, 0.5), (1, 0.5))), KmerTokenizer(1), [], cfg, 2, set(), 8)
        assert (batch.sequences, batch.duplicates_filtered) == (sequences, filtered)
        assert filtered > 0  # the seed gives at least one repeat
        assert len(calls) == attempts  # one step per attempt, no attempt beyond the loop's

    def test_jobs_beyond_one_block_run_in_blocks(self, monkeypatch):
        lm = train_markov([[i % 16 for i in range(200)]], VOCAB2, order=2)
        calls = []

        class Spy:
            context_window = lm.context_window

            def vocabulary(self):
                return VOCAB2

            def next_distributions(self, contexts):
                calls.append([tuple(ctx) for ctx in contexts])
                return lm.next_distributions(contexts)

        monkeypatch.setattr(sampling, "BLOCK_VALUES", 3 * len(VOCAB2) + 5)  # 3 rows a block
        # keys cost nothing, so the budget holds 8(3|V| + 5) / 24 = 49 greedy states
        monkeypatch.setattr(sampling, "_KEY_BYTES", 0)
        prompts = [[i % 16] for i in range(8)]
        for mode in ("sample", "greedy"):
            calls.clear()
            cfg = SamplerConfig(max_new_tokens=4, seed=9, temperature=1.5, mode=mode)
            got = generate(Spy(), prompts, cfg)
            assert got == [generate_one(lm, p, cfg, job_index=i) for i, p in enumerate(prompts)]
            assert max(map(len, calls)) == 3
            requested = [state for call in calls for state in call]
            if mode == "greedy":
                # the budget holds more greedy states than the call meets:
                # each distinct state is requested once
                assert len(requested) == len(set(requested))
                assert len(requested) < sum(len(ids) + (len(ids) < 4) for ids in got)
            else:
                # it holds 3 sampled states and starts over, yet no call repeats a state
                assert all(len(set(call)) == len(call) for call in calls)

class Served:
    """A model that records the contexts it is asked for, served with its own
    context window or with none (every job's whole context is sent)."""

    def __init__(self, lm, window):
        self.lm, self.context_window = lm, window
        self.requested = []

    def vocabulary(self):
        return self.lm.vocabulary()

    def next_distributions(self, contexts):
        self.requested += [tuple(ctx) for ctx in contexts]
        return self.lm.next_distributions(contexts)


def ending_lm():
    """An order-3 k=2 Markov model whose training streams end on EOS, so
    decoding jobs stop partway."""
    rng = np.random.default_rng(5)
    streams = [[*rng.integers(0, 4, rng.integers(3, 9)).tolist(), VOCAB2.eos]
               for _ in range(40)]
    return train_markov(streams, VOCAB2, 3, alpha=0.05)


# prompts shorter than the window of 3, as long and longer
STORE_PROMPTS = [[], [1], [2, 3], [0, 1, 2], [3, 3, 1, 0], [1, 0, 2, 2, 3], [1], [2, 3]]
STORE_CONFIGS = [
    SamplerConfig(mode="greedy", max_new_tokens=10),
    SamplerConfig(temperature=0.7, nucleus_p=0.9, max_new_tokens=10, seed=3),
    SamplerConfig(temperature=1.3, max_new_tokens=10, seed=4),
    SamplerConfig(max_new_tokens=10, seed=5),
]


class TestStateStoreMatchesSequential:
    """`generate` against the one-job decoder, with its state store at the
    default budget and at budgets it overflows: 4 values (1 state, one job
    a block), 2|V| (4 greedy states, 2 sampled, 2 jobs a block) and |V| - 1
    (2 greedy states, 1 sampled)."""

    @pytest.mark.parametrize("cfg", STORE_CONFIGS)
    @pytest.mark.parametrize("windowed", [True, False])
    @pytest.mark.parametrize("budget", [None, 4, 2 * len(VOCAB2), len(VOCAB2) - 1])
    def test_token_for_token(self, monkeypatch, cfg, windowed, budget):
        lm = ending_lm()
        want = [generate_one(lm, p, cfg, job_index=2 + i) for i, p in enumerate(STORE_PROMPTS)]
        assert any(len(ids) < cfg.max_new_tokens for ids in want)  # some jobs end at EOS
        assert any(ids for ids in want)
        served = Served(lm, lm.context_window if windowed else None)
        if budget is not None:
            monkeypatch.setattr(sampling, "BLOCK_VALUES", budget)
        assert generate(served, STORE_PROMPTS, cfg, first_job=2) == want
        steps = sum(len(ids) + (len(ids) < cfg.max_new_tokens) for ids in want)
        if not windowed:  # nothing stored: one row a job-step
            assert len(served.requested) == steps
        elif budget is None:  # everything fits: each state once
            assert len(served.requested) == len(set(served.requested)) < steps
        elif budget == 4:  # the store starts over: states come back
            assert len(served.requested) > len(set(served.requested))

    @pytest.mark.parametrize("cfg", STORE_CONFIGS[1:])
    @pytest.mark.parametrize("windowed", [True, False])
    @pytest.mark.parametrize("budget", [None, 2 * len(VOCAB2)])
    def test_dedup_rounds(self, monkeypatch, cfg, windowed, budget):
        lm = ending_lm()
        cfg = replace(cfg, max_new_tokens=1)  # one-token outputs collide
        tok = KmerTokenizer(2)
        sequences, filtered, attempts = conditioned_attempts(
            lm, tok, [VOCAB2.bos, VOCAB2.id_of("<high>"), 1], cfg, 6, set(), 24)
        assert filtered > 0  # more than one round
        if budget is not None:
            monkeypatch.setattr(sampling, "BLOCK_VALUES", budget)
        batch = conditioned_generate(Served(lm, lm.context_window if windowed else None), tok,
                                     "<high>", cfg, n_sequences=6, seed_context=[1],
                                     dedup_against=set())
        assert (batch.sequences, batch.duplicates_filtered) == (sequences, filtered)

    def test_a_restart_prepares_every_state_of_its_step(self, monkeypatch):
        # job 0 stays in state (0, 0, 0); job 1 cycles 1 -> 2 -> 3 and meets a new
        # state each step, so the 2-state store starts over when it is full,
        # while job 0's state is one it already holds
        requested = []

        def fn(ctx):
            requested.append(tuple(ctx))
            return dist((0, 1.0)) if ctx[-1] == 0 else dist((ctx[-1] % 3 + 1, 1.0))

        lm = FnLm(fn)
        lm.context_window = 3
        monkeypatch.setattr(sampling, "BLOCK_VALUES", 2 * V)  # 2 jobs a block, 2 sampled states
        cfg = SamplerConfig(max_new_tokens=6, seed=1)
        assert generate(lm, [[0], [1]], cfg) == [[0] * 6, [2, 3, 1, 2, 3, 1]]
        assert requested.count((0, 0, 0)) == 4  # prepared again after each restart

    @pytest.mark.parametrize("window", [1, 2, 4, 8])
    def test_key_bytes_cover_a_stored_state(self, window):
        # the store's own bytes per greedy state: its key tuples are made as
        # generate makes them, of ids the contexts hold
        rng = np.random.default_rng(window)
        ids = list(range(256, 4384))
        contexts = [[ids[i] for i in row] for row in
                    {tuple(row) for row in rng.integers(0, len(ids), (5000, window)).tolist()}]
        store = sampling._StateStore(len(contexts))
        tracemalloc.start()
        try:
            store.lookup([tuple(ctx) for ctx in contexts],
                         lambda new: (np.zeros(len(new), dtype=np.int64),))
            used = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert used / len(contexts) <= 8 + 8 * window + sampling._KEY_BYTES

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_store_capacity_fits_the_budget(self, monkeypatch, mode):
        capacities = []

        class Store(sampling._StateStore):
            def __init__(self, capacity):
                capacities.append(capacity)
                super().__init__(capacity)

        monkeypatch.setattr(sampling, "_StateStore", Store)
        vocab = kmer_vocabulary(6)
        generate(Served(MarkovLm.uniform(vocab), 2), [[1, 2]], SamplerConfig(mode=mode))
        block = sampling.BLOCK_VALUES // len(vocab)
        if mode == "greedy":  # the token, two ids and the key's overhead a state
            state_bytes = 8 + 16 + sampling._KEY_BYTES
            assert 4 * sampling.BLOCK_VALUES < capacities[0] * state_bytes \
                <= 8 * sampling.BLOCK_VALUES
        else:  # a sampled state's tables outgrow the budget: one block's states
            assert capacities == [block] == [31]
