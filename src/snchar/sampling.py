"""Random partitions and random cycle types, with reproducible streams.

Randomness comes from the counter-based generator Philox4x64-10 (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011). A run is
identified by a 64-bit seed; sample index space is split into fixed-size
blocks and block i draws from the substream keyed by (seed, i).
Substreams are independent by construction, so results depend only on
(seed, sample index). map_blocks shares the blocks of a run among forked
workers, one per further CPU; the results never depend on how.

The generator is plain Python: one refill computes CHUNK words as 128
counters side by side in the 128-bit lanes of four big ints, word for word
equal to numpy's Philox(key=[seed, i]).random_raw. A Stream turns the
words into bounded integers and bytes by Lemire's multiply-and-reject
method, as numpy's Generator implements it, so every draw equals
Generator.integers or Generator.bytes on the same key, bit for bit. The
package needs nothing beyond the standard library at run time.

Two samplers:

* random_cycle_type draws the cycle type of a uniform permutation of S_n
  without building the permutation: repeatedly pick a cycle length uniform
  on {1..r} where r cells remain. The resulting distribution on partitions
  is exactly 1/z_lambda. Stream.cycle_lengths makes those draws with the
  stream's buffer held in locals, consuming the words exactly as one
  below(r) call per cycle would.
* uniform_partition draws a partition of n uniformly among all p_n of
  them, by rejection-sampling an integer rank below p_n and unranking it
  with one bisect per part in a pt.count_rows table.
"""

import itertools
import marshal
import math
import os
import sys
import threading
from array import array
from typing import NamedTuple

from . import partitions as pt
from .partitions import Partition

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
DEFAULT_SEED = 20250217
BLOCK_SIZE = 16384
CHUNK = 512  # Philox words computed per refill, four per counter

# Philox4x64-10: round multipliers, key increments, round count
PHILOX_M0, PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
PHILOX_W0, PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
PHILOX_ROUNDS = 10

# A refill puts the i-th of its LANES counters in bits [128 i, 128 i + 128)
# of an int, so a 64 x 64-bit product never carries into the next lane. The
# lane constants are closed forms, cheap to build at import.
LANES = CHUNK // 4
_LANE = 1 << 128
_TOP = 1 << 128 * LANES
_REP = (_TOP - 1) // (_LANE - 1)  # 1 in every lane
_LO = MASK64 * _REP  # MASK64 in every lane
# i in lane i: with r = _LANE and B = LANES, the sum of i r^i over i < B
# is (r - B r^B + (B - 1) r^(B+1)) / (r - 1)^2
_IOTA = (_LANE - LANES * _TOP + (LANES - 1) * _TOP * _LANE) // (_LANE - 1) ** 2
_LANE_BYTES = 16 * LANES


def lane_words(x: int) -> array:
    """The low 64 bits of each 128-bit lane of x, lane 0 first."""
    words = array("Q", x.to_bytes(_LANE_BYTES, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words[::2]


def philox_chunks(key0: int, key1: int):
    """Philox4x64-10 words under the key (key0, key1), CHUNK per list.

    The words are those of numpy's Philox(key=[key0, key1]).random_raw:
    counter word 0 runs 1, 2, ... (numpy increments before it generates),
    words 1 to 3 stay 0 (a carry into them needs 2^64 blocks), and each
    block gives its output words v0, v1, v2, v3 in that order.
    """
    keys = []  # the round keys, repeated in every lane
    for _ in range(PHILOX_ROUNDS):
        keys.append((key0 * _REP, key1 * _REP))
        key0 = (key0 + PHILOX_W0) & MASK64
        key1 = (key1 + PHILOX_W1) & MASK64
    counters = _REP + _IOTA  # 1 + i in lane i
    while True:
        x0, x1, x2, x3 = counters, 0, 0, 0
        for k0, k1 in keys:
            p0 = x0 * PHILOX_M0
            p1 = x2 * PHILOX_M1
            x0, x1, x2, x3 = ((p1 >> 64) & _LO ^ x1 ^ k0, p1 & _LO,
                              (p0 >> 64) & _LO ^ x3 ^ k1, p0 & _LO)
        words = [0] * CHUNK
        for j, x in enumerate((x0, x1, x2, x3)):
            words[j::4] = lane_words(x)
        yield words
        counters += LANES * _REP


class Stream:
    """Bounded draws from raw 64-bit words, equal to numpy's Generator
    on the same bit generator.

    chunks yields lists of words, such as philox_chunks. 32-bit draws take
    a word's low half, then its high half, which waits in a one-word
    buffer; 64-bit draws take whole words and leave the buffer alone,
    as numpy's Philox does.
    """

    __slots__ = ("_word", "_high")

    def __init__(self, chunks):
        self._word = itertools.chain.from_iterable(chunks).__next__
        self._high: int | None = None

    def _half(self) -> int:
        high = self._high
        if high is not None:
            self._high = None
            return high
        word = self._word()
        self._high = word >> 32
        return word & MASK32

    def below(self, bound: int) -> int:
        """Generator.integers(0, bound) for 1 <= bound <= 2^64.

        Lemire's method: the high part of draw * bound is the result,
        and a draw whose low part falls under 2^w mod bound is redrawn
        (w = 32 up to bound 2^32, else 64). bound 1 draws nothing, and
        the full ranges 2^32 and 2^64 return a raw half or word.
        """
        if bound < 1 << 32:
            if bound < 2:
                if bound == 1:
                    return 0
                raise ValueError("bound must be positive")
            m = self._half() * bound
            if m & MASK32 < bound:
                floor = (1 << 32) % bound
                while m & MASK32 < floor:
                    m = self._half() * bound
            return m >> 32
        if bound == 1 << 32:
            return self._half()
        if bound < 1 << 64:
            m = self._word() * bound
            if m & MASK64 < bound:
                floor = (1 << 64) % bound
                while m & MASK64 < floor:
                    m = self._word() * bound
            return m >> 64
        if bound == 1 << 64:
            return self._word()
        raise ValueError("bound must be at most 2^64")

    def cycle_lengths(self, n: int) -> list[int]:
        """Cycle type of a uniform element of S_n, n >= 1, largest first.

        While r cells remain, the next cycle length is below(r) + 1, drawn
        exactly as those below calls draw it: r = 1 takes nothing, r up to
        2^32 takes halves by Lemire's rule (the word source and the buffer
        held in locals), and r > 2^32 goes through below's 64-bit path.
        """
        parts = []
        r = n
        while r > 1 << 32:
            c = self.below(r) + 1
            parts.append(c)
            r -= c
        word, high = self._word, self._high
        while r > 1:
            if high is None:
                w = word()
                m = (w & MASK32) * r
                high = w >> 32
            else:
                m = high * r
                high = None
            if m & MASK32 < r:
                floor = (1 << 32) % r
                if m & MASK32 < floor:  # rejected: redraw through _half
                    self._high = high
                    while m & MASK32 < floor:
                        m = self._half() * r
                    high = self._high
            c = (m >> 32) + 1
            parts.append(c)
            r -= c
        if r:
            parts.append(1)
        self._high = high
        parts.sort(reverse=True)
        return parts

    def bytes(self, length: int) -> bytes:
        """Generator.bytes(length): little-endian 32-bit halves, cut to
        length. numpy counts the halves with C division, so length 0
        still takes one.
        """
        if length < 0:
            raise ValueError("length must be nonnegative")
        halves = [self._half() for _ in range((length + 3) // 4 or 1)]
        return b"".join(h.to_bytes(4, "little") for h in halves)[:length]


def substream(seed: int, index: int) -> Stream:
    """Philox stream keyed by (seed, block index), each taken mod 2^64."""
    return Stream(philox_chunks(seed & MASK64, index & MASK64))


def block_plan(total: int) -> list[tuple[int, int]]:
    """Split total samples into (block index, count) pairs of at most
    BLOCK_SIZE each. Deterministic partition of the sample index space.
    """
    if total < 0:
        raise ValueError("total must be nonnegative")
    starts = range(0, total, BLOCK_SIZE)
    return [(i, min(BLOCK_SIZE, total - s)) for i, s in enumerate(starts)]


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def share_count(samples: int) -> int:
    """min(blocks, CPUs), the shares map_blocks deals a run into; one if
    os.fork is missing or other threads run (forking beside them is unsafe)."""
    if hasattr(os, "fork") and threading.active_count() == 1:
        return max(1, min(len(block_plan(samples)), _cpus()))
    return 1


def map_blocks(seed: int, samples: int, draw) -> list:
    """[draw(substream(seed, b), count) for b, count in block_plan(samples)].

    The blocks go to share_count(samples) shares. This process runs the
    first; a forked worker runs each other one, marshals its results down
    a pipe and ends in os._exit, nonzero if it failed, which raises
    RuntimeError here. Every worker is reaped, so its CPU time counts in
    this process's children, and is killed first on any exception here.
    """
    plan = block_plan(samples)
    ways = share_count(samples)
    # every block but the last is full, so dealing them out in turn gives
    # each block, largest first, to the least loaded share
    shares = [plan[i::ways] for i in range(ways)]

    def run(share):
        return {b: draw(substream(seed, b), count) for b, count in share}

    workers = []  # (pid, read end of its pipe, closed once reaped)
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    with open(w, "wb") as out:
                        out.write(marshal.dumps(run(share)))
                    os._exit(0)
                finally:
                    os._exit(1)  # reached only if the work raised
            os.close(w)
            workers.append((pid, open(r, "rb")))
        results = run(shares[0])
        for pid, pipe in workers:
            with pipe:
                data, status = pipe.read(), os.waitpid(pid, 0)[1]
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"a Monte Carlo worker failed (exit code {code})")
            results.update(marshal.loads(data))
    finally:
        for pid, pipe in workers:
            if not pipe.closed:
                pipe.close()
                os.kill(pid, 9)  # SIGKILL
                os.waitpid(pid, 0)
    return [results[b] for b, _ in plan]


def uniform_below(bound: int, rng: Stream) -> int:
    """Uniform integer in [0, bound) for arbitrary-precision bound.

    Bounds up to 2^63 take one Stream.below draw (Lemire, unbiased).
    Larger bounds use rejection sampling on the minimal whole-byte width,
    which accepts with probability > 1/256 per draw.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    if bound <= 1 << 63:
        return rng.below(bound)
    nbytes = (bound.bit_length() + 7) // 8
    top = 1 << (8 * nbytes)
    # drop whole multiples of bound from the top to keep acceptance unbiased
    limit = top - top % bound
    while True:
        x = int.from_bytes(rng.bytes(nbytes), "little")
        if x < limit:
            return x % bound


def random_cycle_type(n: int, rng: Stream) -> Partition:
    """Cycle type of a uniform element of S_n, as a partition of n.

    The cycle through the smallest unplaced point has length uniform on
    {1..remaining}; repeating until the points run out reproduces the
    class distribution Pr[lambda] = 1/z_lambda exactly.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return tuple(rng.cycle_lengths(n))


def uniform_partition(n: int, rng: Stream,
                      rows: list[list[int]] | None = None) -> Partition:
    """Uniform partition of n (each of the p_n partitions equally likely).

    rows is pt.count_rows(m) for some m >= n; pass it when drawing in a loop.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if rows is None:
        rows = pt.count_rows(n)
    return pt.unrank(n, uniform_below(rows[n][n], rng), rows)


class SampleSummary(NamedTuple):
    """Outcome of a Monte Carlo run: point estimate with its sampling
    error and enough metadata to reproduce it exactly.
    """
    estimate: float
    samples: int
    std_error: float
    seed: int
    extra: dict

    @classmethod
    def of(cls, hits: int, samples: int, seed: int, extra: dict) -> "SampleSummary":
        """The binomial estimate hits/samples with its standard error."""
        est = hits / samples
        return cls(est, samples, math.sqrt(est * (1.0 - est) / samples), seed, extra)

    def to_text(self) -> str:
        """One line, led by the statistic that extra names, at extra["n"]."""
        n = self.extra["n"]
        head = (f"P_{n} estimate =" if self.extra["statistic"] == "pzero"
                else f"freq(cycle >= n/(2 log n)) at n={n}:")
        return (f"{head} {self.estimate!r} +/- {self.std_error!r}"
                f" ({self.samples} samples, seed {self.seed})\n")

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "samples": self.samples,
            "std_error": self.std_error,
            "seed": self.seed,
            **self.extra,
        }
