"""The Monte Carlo fast path against the draws and loop it replaced.

Stream.cycle_lengths must consume a stream exactly as one Stream.below
call per cycle does, and montecarlo_pzero, which stops reading a shape
once no hook of it can hold the longest cycle or, with enough samples per
shape, looks its bead mask up in a table, must count the zeros of the
loop that unranks every shape in full. The samplers' blocks, shared
among forked workers by sampling.map_blocks, must give the results of
one process at any worker count. Nothing here needs numpy.
"""

import os
import random
import threading
import time
from fractions import Fraction

import pytest

import oracles as orc
from snchar import characters as ch
from snchar import groups as gr
from snchar import partitions as pt
from snchar import sampling as sp
from snchar import vanishing as vn


def _hand_chunks(words: list[int], size: int):
    """words cut into lists of size, then an endless tail of fixed words
    with no zero half."""
    for i in range(0, len(words), size):
        yield words[i:i + size]
    rnd = random.Random(1)
    while True:
        yield [rnd.getrandbits(64) | 1 << 32 | 1 for _ in range(size)]


def _pair(words: list[int], size: int = 3):
    return sp.Stream(_hand_chunks(words, size)), sp.Stream(_hand_chunks(words, size))


def _state_after(stream: sp.Stream) -> tuple:
    """The buffer, then draws that read both halves and whole words."""
    return (stream._high, stream.below(7), stream.below(2**64),
            stream.below(2**40), stream.below(1000), stream.below(2**64))


def _agree(fast: sp.Stream, ref: sp.Stream, n: int) -> list[int]:
    got = fast.cycle_lengths(n)
    want = orc.reference_cycle_type(n, ref)
    assert tuple(got) == want, n
    assert got == sorted(got, reverse=True) and sum(got) == n
    assert _state_after(fast) == _state_after(ref), n
    return got


class TestCycleLengthsDrawForDraw:
    def test_forced_lemire_rejections(self):
        # a zero half is rejected for every bound that is not a power of two;
        # the chunks hold 3 words, so rejections straddle refills
        rnd = random.Random(7)
        for trial in range(200):
            words = []
            for _ in range(rnd.randrange(1, 40)):
                lo = 0 if rnd.random() < 0.4 else rnd.getrandbits(32)
                hi = 0 if rnd.random() < 0.4 else rnd.getrandbits(32)
                words.append(hi << 32 | lo)
            for n in (1, 2, 3, 17, 100, 2**31 + 1):
                fast, ref = _pair(words, rnd.choice((1, 2, 3, 5)))
                if trial % 2:  # start with a high half waiting in the buffer
                    assert fast.below(5) == ref.below(5)
                _agree(fast, ref, n)

    def test_zero_words_only(self):
        # 12 zero halves in a row: every non-power-of-two bound redraws
        fast, ref = _pair([0] * 6)
        _agree(fast, ref, 1000)

    def test_bound_one_draws_nothing(self):
        fast, ref = _pair([5 << 32 | 9])
        assert fast.cycle_lengths(1) == [1]
        assert fast._high is None
        assert _state_after(fast) == _state_after(ref)

    def test_64_bit_fallback(self):
        # r > 2^32 takes whole words and leaves the half buffer alone; small
        # words give cycles of length 1, so r stays above 2^32 for several
        # draws, a zero word is rejected on the 64-bit path, and 2^32 + 1
        # steps down to exactly 2^32, a raw half
        small = [1 << 20, 1 << 21, 0, 1 << 22]
        for n in (2**32 + 5, 2**32 + 1, 2**32):
            for lead in ([], [3 << 32 | 8]):
                fast, ref = _pair(lead + small + [0xDEADBEEF << 32 | 12345], 2)
                if lead:
                    assert fast.below(9) == ref.below(9)
                got = _agree(fast, ref, n)
                if n == 2**32 + 5:
                    assert got.count(1) >= 3

    def test_64_bit_fallback_on_philox(self):
        for seed in (0, 1, 2**63 + 5):
            fast, ref = sp.substream(seed, 3), sp.substream(seed, 3)
            for _ in range(20):
                got = _agree(fast, ref, 2**32 + 5)
                assert len(got) < 60

    def test_philox_streams(self):
        rnd = random.Random(3)
        for seed in (1, 2**64 - 1):
            fast, ref = sp.substream(seed, 0), sp.substream(seed, 0)
            for _ in range(400):
                _agree(fast, ref, rnd.choice((1, 2, 5, 20, 100, 10_000)))


class TestPartsAt:
    def test_every_rank_up_to_14(self):
        rows = pt.count_rows(14)
        for n in range(15):
            listed = pt.enumerate_partitions(n)
            assert listed == orc._lex_desc_partitions(n)
            for r, lam in enumerate(listed):
                assert tuple(pt.parts_at(n, r, rows)) == lam
                assert pt.unrank(n, r, rows) == lam


class TestMontecarloAgainstFullLoop:
    SAMPLES = {1: 300, 2: 300, 3: 600, 7: 1500, 20: 1500, 60: 800, 150: 400}

    @pytest.mark.parametrize("n", sorted(SAMPLES))
    @pytest.mark.parametrize("seed", (5, 2**63 + 11))
    def test_zero_counts(self, n, seed):
        samples = self.SAMPLES[n]
        got = vn.montecarlo_pzero(n, samples, seed=seed)
        assert got.extra["zeros"] == orc.montecarlo_zeros(n, samples, seed)

    def test_across_a_block_boundary(self):
        samples = sp.BLOCK_SIZE + 200
        got = vn.montecarlo_pzero(5, samples, seed=3)
        assert got.extra["zeros"] == orc.montecarlo_zeros(5, samples, 3)


def _workers(monkeypatch, ways: int) -> list[int]:
    """Make map_blocks see ways CPUs; the returned list grows by one per fork."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(sp, "_cpus", lambda: ways)
    monkeypatch.setattr(sp.os, "fork", counted)
    return forks


_SAMPLERS = {
    "mc-pzero": lambda samples: vn.montecarlo_pzero(6, samples, seed=4),
    "goncharov": lambda samples: vn.goncharov_experiment(30, samples, seed=4),
    "long-cycle": lambda samples: vn.long_cycle_frequency(30, samples, seed=4),
}


class TestWorkers:
    BLOCK = 64  # small blocks keep 4-block runs quick; the streams stay keyed by block

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(sp, "BLOCK_SIZE", self.BLOCK)

    @pytest.mark.parametrize("sampler", sorted(_SAMPLERS))
    @pytest.mark.parametrize("blocks", (1, 2, 4))
    def test_any_worker_count_gives_the_serial_result(self, monkeypatch, small_blocks,
                                                      sampler, blocks):
        run = _SAMPLERS[sampler]
        samples = (blocks - 1) * self.BLOCK + 17  # an uneven tail block
        _workers(monkeypatch, 1)
        want = run(samples)
        for ways in (2, 3):
            forks = _workers(monkeypatch, ways)
            assert run(samples) == want, ways
            assert len(forks) == min(blocks, ways) - 1

    def test_three_blocks_match_the_full_loop(self, monkeypatch):
        samples = 2 * sp.BLOCK_SIZE + 100
        forks = _workers(monkeypatch, 3)
        got = vn.montecarlo_pzero(4, samples, seed=8)
        assert len(forks) == 2
        assert got.extra["zeros"] == orc.montecarlo_zeros(4, samples, 8)

    def test_results_come_in_block_order(self, monkeypatch):
        # the 848-sample tail goes to the less loaded share, yet comes last
        _workers(monkeypatch, 2)
        got = sp.map_blocks(1, 50_000, lambda rng, count: [count, rng.below(2**64)])
        want = [[count, sp.substream(1, block).below(2**64)]
                for block, count in sp.block_plan(50_000)]
        assert got == want

    def test_failed_worker_raises_and_is_reaped(self, monkeypatch):
        _workers(monkeypatch, 3)
        parent = os.getpid()

        def draw(rng, count):
            if os.getpid() != parent:
                raise ValueError("worker fails")
            return count

        with pytest.raises(RuntimeError, match="worker failed"):
            sp.map_blocks(1, 3 * sp.BLOCK_SIZE, draw)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_interrupted_parent_kills_its_workers(self, monkeypatch):
        _workers(monkeypatch, 3)
        parent = os.getpid()

        def draw(rng, count):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            sp.map_blocks(1, 3 * sp.BLOCK_SIZE, draw)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_serial_from_a_second_thread(self, monkeypatch):
        forks = _workers(monkeypatch, 3)
        samples = 2 * sp.BLOCK_SIZE + 5
        got = []
        thread = threading.Thread(
            target=lambda: got.append(vn.long_cycle_frequency(10, samples, seed=2)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert not forks
        want = vn.long_cycle_frequency(10, samples, seed=2)
        assert len(forks) == 2
        assert got == [want]

    def test_serial_without_fork(self, monkeypatch):
        _workers(monkeypatch, 3)
        monkeypatch.delattr(sp.os, "fork")
        got = sp.map_blocks(5, 2 * sp.BLOCK_SIZE + 1, lambda rng, count: count)
        assert got == [sp.BLOCK_SIZE, sp.BLOCK_SIZE, 1]


def _mask_tables(monkeypatch) -> list[int]:
    """Spy on montecarlo_pzero's path: the list gets the rank of each mask
    that ch.rank_beads builds in full (t = 0), as only the bead-mask table
    does, and stays empty on the path that reads parts."""
    built = []
    rank_beads = vn.ch.rank_beads

    def spy(n, r, rows, t=0):
        if not t:
            built.append(r)
        return rank_beads(n, r, rows, t)

    monkeypatch.setattr(vn.ch, "rank_beads", spy)
    return built


class TestMaskTable:
    @pytest.mark.parametrize("n", (1, 2, 3, 7, 12, 20))
    @pytest.mark.parametrize("seed", (5, 2**63 + 11))
    def test_zero_counts_on_both_sides_of_the_rule(self, monkeypatch, n, seed):
        # one block is one share, so the table is taken from 4 p_n samples on
        built = _mask_tables(monkeypatch)
        pn = pt.partition_count(n)
        for samples in (pn, 4 * pn - 1, 4 * pn, 4 * pn + 37, 20 * pn):
            built.clear()
            got = vn.montecarlo_pzero(n, samples, seed=seed)
            assert built == (list(range(pn)) if samples >= 4 * pn else []), samples
            assert got.extra["zeros"] == orc.montecarlo_zeros(n, samples, seed), samples

    def test_across_a_block_boundary_at_any_worker_count(self, monkeypatch):
        # two blocks make two shares at 2 or 3 CPUs. At n = 12 every count
        # takes the table; at n = 27, 4 W p_27 = 12,040 W takes it only at W = 1
        samples = sp.BLOCK_SIZE + 200
        built = _mask_tables(monkeypatch)
        seed = 2**63 + 11
        for n, table_at in ((12, (1, 2, 3)), (27, (1,))):
            want = orc.montecarlo_zeros(n, samples, seed)
            for ways in (1, 2, 3):
                forks = _workers(monkeypatch, ways)
                built.clear()
                got = vn.montecarlo_pzero(n, samples, seed=seed)
                assert len(forks) == min(2, ways) - 1
                assert sp.share_count(samples) == min(2, ways)
                table = list(range(pt.partition_count(n)))
                assert built == (table if ways in table_at else []), (n, ways)
                assert got.extra["zeros"] == want, (n, ways)

    def test_one_counting_table_per_run(self, monkeypatch):
        # 5000 samples at n = 20 take the table; a cap of 600 < p_20 keeps
        # the parts path. Either way the ranks and masks read one table
        built = _mask_tables(monkeypatch)
        builds = []
        rows = pt._rows
        monkeypatch.setattr(pt, "_rows", lambda n: builds.append(n) or rows(n))
        for cap, table in ((None, True), (600, False)):
            builds.clear()
            built.clear()
            vn.montecarlo_pzero(20, 5000, seed=5, cap=cap)
            assert builds == [20], cap
            assert bool(built) == table, cap

    def test_cap_keeps_the_parts_path(self, monkeypatch):
        # p_20 = 627 shapes over a cap of 600: the ranking table fits, the
        # masks do not, so the run reads parts and raises nothing
        built = _mask_tables(monkeypatch)
        got = vn.montecarlo_pzero(20, 5000, seed=5, cap=600)
        assert built == []
        assert got.extra["zeros"] == orc.montecarlo_zeros(20, 5000, 5)


def _hook_lengths(beads: int) -> set[int]:
    """Hook lengths of the shape with bead mask beads, from its parts and
    their conjugate rather than from the beads."""
    spots = [b for b in range(beads.bit_length() - 1, -1, -1) if beads >> b & 1]
    shape = [b - (len(spots) - 1 - i) for i, b in enumerate(spots)]
    shape = [part for part in shape if part]
    conj = pt.conjugate(tuple(shape))
    return {row - j + conj[j] - i - 1 for i, row in enumerate(shape) for j in range(row)}


class TestPartsPathSweeps:
    def test_sweeps_only_shapes_with_a_longest_cycle_hook(self, monkeypatch):
        # 800 samples at n = 60 stay below 4 p_60 and read parts; a shape
        # with no hook of length mu_1 is a zero without a sweep
        built = _mask_tables(monkeypatch)
        sweeps = []
        sweep = vn.ch._sweep

        def spy(beads, mu):
            sweeps.append((beads, tuple(mu)))
            return sweep(beads, mu)

        monkeypatch.setattr(vn.ch, "_sweep", spy)
        got = vn.montecarlo_pzero(60, 800, seed=5)
        assert built == []
        assert sweeps
        assert all(mu[0] in _hook_lengths(beads) for beads, mu in sweeps)
        assert got.extra["zeros"] == orc.montecarlo_zeros(60, 800, 5)


class TestRankBeads:
    def test_every_rank_and_strip_length_up_to_14(self):
        # the full mask at t = 0; else 0 exactly when the corner hook
        # lambda_1 + l(lambda) - 1, the longest, is shorter than t
        rows = pt.count_rows(14)
        for n in range(1, 15):
            for r in range(pt.partition_count(n)):
                full = ch._beads(pt.unrank(n, r, rows))
                assert ch.rank_beads(n, r, rows) == full, (n, r)
                longest = max(_hook_lengths(full))
                for t in range(n + 2):
                    want = 0 if longest < t else full
                    assert ch.rank_beads(n, r, rows, t) == want, (n, r, t)


class TestSampledOmegaCheck:
    def test_max_is_the_greedy_sum(self):
        # 25 classes take the sampled branch; weights k*size - order of both
        # signs. best starts at the sum of the nonnegative weights, which
        # bounds every subset sum, so no sampled subset can move it.
        sizes = (1,) * 15 + (2,) * 5 + (10, 20, 30, 40, 50)
        k, order = len(sizes), sum(sizes)
        data = gr.ClassData(
            group_name="mock", order=order,
            class_names=tuple(f"c{i}" for i in range(k)),
            class_sizes=sizes,
        )
        weights = [k * s - order for s in sizes]
        assert min(weights) < 0 < max(weights)
        rec = gr.best_omega_check(data)
        assert rec.method == "sampled"
        assert rec.subsets_checked == gr.SAMPLED_SUBSETS
        assert rec.max_value == Fraction(sum(max(w, 0) for w in weights), k * order)
        assert rec.max_value == rec.default_value
        assert rec.default_is_max
