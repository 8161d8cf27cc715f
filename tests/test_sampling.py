import math
import random
import types
import warnings
from array import array
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from snchar import partitions as pt
from snchar import sampling as sp

SEED = 915


def _draws(fn, n, count, seed=SEED):
    out = []
    for block, take in sp.block_plan(count):
        rng = sp.substream(seed, block)
        out.extend(fn(n, rng) for _ in range(take))
    return out


class TestPlumbing:
    def test_block_plan_covers_total(self):
        plan = sp.block_plan(50_000)
        assert sum(c for _, c in plan) == 50_000
        assert [b for b, _ in plan] == list(range(len(plan)))
        assert all(c <= sp.BLOCK_SIZE for _, c in plan)

    def test_block_plan_empty(self):
        assert sp.block_plan(0) == []
        with pytest.raises(ValueError):
            sp.block_plan(-1)

    def test_substreams_reproducible(self):
        a = sp.substream(SEED, 3).bytes(32)
        b = sp.substream(SEED, 3).bytes(32)
        c = sp.substream(SEED, 4).bytes(32)
        assert a == b
        assert a != c

    def test_substreams_distinct_for_any_64_bit_seed(self):
        # seeds at or above 2^63 (negative ones included, via the mask) once
        # went through float64 and collapsed onto shared streams
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in ((-1, -2), (2**63, 2**63 + 1), (-1, 2**64 - 1000)):
                assert sp.substream(a, 0).bytes(32) != sp.substream(b, 0).bytes(32)
            assert sp.substream(-1, 0).bytes(32) == sp.substream(2**64 - 1, 0).bytes(32)

    def test_uniform_below_range(self):
        rng = sp.substream(SEED, 0)
        for bound in (1, 2, 7, 2**64 - 1, 10**30, pt.partition_count(500)):
            for _ in range(40):
                x = sp.uniform_below(bound, rng)
                assert 0 <= x < bound

    def test_uniform_below_one(self):
        rng = sp.substream(SEED, 0)
        assert all(sp.uniform_below(1, rng) == 0 for _ in range(5))

    def test_uniform_below_invalid(self):
        with pytest.raises(ValueError):
            sp.uniform_below(0, sp.substream(SEED, 0))

    def test_uniform_below_large_bound_unbiased_halves(self):
        # a bound just over a power of two stresses the rejection path
        bound = 2**70 + 1
        rng = sp.substream(SEED, 1)
        draws = [sp.uniform_below(bound, rng) for _ in range(4000)]
        low = sum(1 for x in draws if x < bound // 2)
        assert abs(low - 2000) < 5 * math.sqrt(4000 * 0.25)

    def test_summary_json(self):
        s = sp.SampleSummary(
            estimate=0.25, samples=4, std_error=0.1, seed=7, extra={"n": 3}
        )
        assert s.to_json_dict() == {
            "estimate": 0.25, "samples": 4, "std_error": 0.1, "seed": 7, "n": 3,
        }


def _generator(seed, index):
    """numpy's Generator on the Philox key of substream(seed, index)."""
    key = np.array([seed & sp.MASK64, index & sp.MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _philox_raw(key0, key1, k):
    """The first k words of numpy's Philox on the key (key0, key1)."""
    key = np.array([key0, key1], dtype=np.uint64)
    return np.random.Philox(key=key).random_raw(k).tolist()


class TestPhiloxOracle:
    """philox_chunks gives numpy's Philox words on the same key."""

    KEYS = (0, 1, 2**63, 2**64 - 1)
    REFILLS = 3

    def test_words_match_numpy_philox(self):
        for key0 in self.KEYS:
            for key1 in self.KEYS:
                chunks = islice(sp.philox_chunks(key0, key1), self.REFILLS)
                got = [w for chunk in chunks for w in chunk]
                want = _philox_raw(key0, key1, self.REFILLS * sp.CHUNK)
                assert got == want, (key0, key1)

    def test_negative_seed_is_masked(self):
        # below(2^64) hands out whole raw words
        for seed in (-1, -sp.DEFAULT_SEED):
            stream = sp.substream(seed, 2)
            got = [stream.below(2**64) for _ in range(self.REFILLS * sp.CHUNK)]
            assert got == _philox_raw(seed & sp.MASK64, 2, len(got)), seed

    def test_lane_words(self):
        ones = (1 << 128 * sp.LANES) - 1
        rnd = random.Random(SEED)
        for x in (0, ones, 1 << 128 * (sp.LANES - 1), rnd.getrandbits(128 * sp.LANES)):
            want = [(x >> 128 * i) & sp.MASK64 for i in range(sp.LANES)]
            assert sp.lane_words(x).tolist() == want


    def test_lane_words_on_a_big_endian_host(self, monkeypatch):
        # emulated: array reads the little-endian bytes big-endian, as it
        # would there, and lane_words must swap them back
        def big_endian_array(typecode, data):
            words = array(typecode, data)
            words.byteswap()
            return words

        monkeypatch.setattr(sp, "sys", types.SimpleNamespace(byteorder="big"))
        monkeypatch.setattr(sp, "array", big_endian_array)
        rnd = random.Random(SEED)
        for x in (1, 1 << 128 * (sp.LANES - 1) | 0x0102030405060708,
                  rnd.getrandbits(128 * sp.LANES)):
            want = [(x >> 128 * i) & sp.MASK64 for i in range(sp.LANES)]
            assert sp.lane_words(x).tolist() == want

class TestStreamOracle:
    """Stream draws equal numpy's Generator draws on the same key."""

    # every bound class of Stream.below: no draw, 32-bit Lemire (with the
    # rejection-heavy 2^31 + 1), a raw half, 64-bit Lemire, and 2^63
    BOUNDS = (1, 2, 20, 627, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1,
              2**62 + 2**61 + 1, 2**63)
    LENGTHS = (0, 1, 5, 32)

    def test_interleaved_draws_match_generator(self):
        for seed in range(120):
            ops = random.Random(seed)
            stream, gen = sp.substream(seed, 7), _generator(seed, 7)
            for step in range(300):
                if ops.random() < 0.25:
                    k = ops.choice(self.LENGTHS)
                    assert stream.bytes(k) == gen.bytes(k), (seed, step, k)
                else:
                    b = ops.choice(self.BOUNDS)
                    want = int(gen.integers(0, b))
                    assert stream.below(b) == want, (seed, step, b)

    def test_full_64_bit_range_is_a_raw_word(self):
        stream, gen = sp.substream(SEED, 0), _generator(SEED, 0)
        for b in (2**64, 3, 2**64, 2**32, 2**64):
            assert stream.below(b) == int(gen.integers(0, b, dtype="uint64"))

    def test_bound_one_consumes_nothing(self):
        stream, fresh = sp.substream(SEED, 2), sp.substream(SEED, 2)
        assert [stream.below(1) for _ in range(10)] == [0] * 10
        assert stream.below(2**40) == fresh.below(2**40)
        assert stream.below(627) == fresh.below(627)

    def test_invalid_arguments(self):
        stream = sp.substream(SEED, 0)
        for b in (0, -3, 2**64 + 1):
            with pytest.raises(ValueError):
                stream.below(b)
        with pytest.raises(ValueError):
            stream.bytes(-1)


class TestCycleTypes:
    def test_n1(self):
        assert sp.random_cycle_type(1, sp.substream(SEED, 0)) == (1,)

    def test_invalid(self):
        with pytest.raises(ValueError):
            sp.random_cycle_type(0, sp.substream(SEED, 0))

    def test_results_are_partitions(self):
        for lam in _draws(sp.random_cycle_type, 17, 300):
            assert pt.as_partition(lam) == lam
            assert sum(lam) == 17

    def test_n3_frequencies(self):
        draws = _draws(sp.random_cycle_type, 3, 30_000)
        counts = {}
        for lam in draws:
            counts[lam] = counts.get(lam, 0) + 1
        for lam, p in (((1, 1, 1), Fraction(1, 6)),
                       ((2, 1), Fraction(1, 2)),
                       ((3,), Fraction(1, 3))):
            se = math.sqrt(float(p) * (1 - float(p)) / len(draws))
            assert abs(counts[lam] / len(draws) - p) < 5 * se, lam

    def test_n6_frequencies_match_centralizers(self):
        draws = _draws(sp.random_cycle_type, 6, 60_000)
        counts = {}
        for lam in draws:
            counts[lam] = counts.get(lam, 0) + 1
        assert set(counts) <= set(pt.enumerate_partitions(6))
        for lam in pt.enumerate_partitions(6):
            p = 1.0 / pt.centralizer_order(lam)
            se = math.sqrt(p * (1 - p) / len(draws))
            assert abs(counts.get(lam, 0) / len(draws) - p) < 5 * se, lam

    def test_deterministic(self):
        assert _draws(sp.random_cycle_type, 9, 500) == _draws(
            sp.random_cycle_type, 9, 500
        )


class TestUniformPartitions:
    def test_n0_n1(self):
        rng = sp.substream(SEED, 0)
        assert sp.uniform_partition(0, rng) == ()
        assert sp.uniform_partition(1, rng) == (1,)

    def test_invalid(self):
        with pytest.raises(ValueError):
            sp.uniform_partition(-1, sp.substream(SEED, 0))

    def test_n4_frequencies(self):
        draws = _draws(sp.uniform_partition, 4, 25_000)
        counts = {}
        for lam in draws:
            counts[lam] = counts.get(lam, 0) + 1
        assert set(counts) == set(pt.enumerate_partitions(4))
        p = 1 / 5
        se = math.sqrt(p * (1 - p) / len(draws))
        for lam, c in counts.items():
            assert abs(c / len(draws) - p) < 5 * se, lam

    def test_n10_all_values_seen(self):
        draws = _draws(sp.uniform_partition, 10, 20_000)
        assert set(draws) == set(pt.enumerate_partitions(10))

    def test_large_n_is_valid(self):
        # p_n first exceeds 2^63 at n = 406, so p_420 forces the
        # wide-integer rejection path of uniform_below
        n = 420
        assert pt.partition_count(n) > 1 << 63
        for lam in _draws(sp.uniform_partition, n, 5):
            assert sum(lam) == n
            assert pt.as_partition(lam) == lam

    def test_deterministic(self):
        assert _draws(sp.uniform_partition, 12, 500) == _draws(
            sp.uniform_partition, 12, 500
        )
