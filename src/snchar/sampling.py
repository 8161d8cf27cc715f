"""Random partitions and random cycle types, with reproducible streams.

Randomness comes from numpy's Philox counter-based generator. A run is
identified by a 64-bit seed; sample index space is split into fixed-size
blocks and block i draws from the keyed substream Philox(key=[seed, i]).
Substreams are independent by construction, so results depend only on
(seed, sample index), not on how many workers consumed the blocks.

numpy supplies only the raw 64-bit Philox words, CHUNK of them per call.
A Stream turns them into bounded integers and bytes in plain Python:
Lemire's multiply-and-reject method, as numpy's Generator implements it,
so every draw equals Generator.integers or Generator.bytes on the same
key, bit for bit, without a numpy call per draw.

Two samplers:

* random_cycle_type draws the cycle type of a uniform permutation of S_n
  without building the permutation: repeatedly pick a cycle length uniform
  on {1..r} where r cells remain. The resulting distribution on partitions
  is exactly 1/z_lambda.
* uniform_partition draws a partition of n uniformly among all p_n of
  them, by rejection-sampling an integer rank below p_n and unranking it
  with one bisect per part in a pt.count_rows table.
"""

from dataclasses import dataclass, field

from . import partitions as pt
from .partitions import Partition

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
DEFAULT_SEED = 20250217
BLOCK_SIZE = 16384
CHUNK = 512  # Philox words fetched per numpy call


class Stream:
    """Bounded draws from raw 64-bit words, equal to numpy's Generator
    on the same bit generator.

    raw(k) returns the next k words as a uint64 array. 32-bit draws take
    a word's low half, then its high half, which waits in a one-word
    buffer; 64-bit draws take whole words and leave the buffer alone,
    as numpy's Philox does.
    """

    __slots__ = ("_raw", "_words", "_next", "_high")

    def __init__(self, raw):
        self._raw = raw
        self._words: list[int] = []
        self._next = 0
        self._high: int | None = None

    def _word(self) -> int:
        i = self._next
        if i == len(self._words):
            self._words = self._raw(CHUNK).tolist()
            i = 0
        self._next = i + 1
        return self._words[i]

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
    """Philox stream keyed by (seed, block index).

    numpy is imported here, its only use, so that commands which draw no
    samples do not pay for the import.
    """
    import numpy as np

    # an explicit uint64 array: a plain list holding a value >= 2^63 is
    # cast through float64, and distinct seeds collide
    key = np.array([seed & MASK64, index & MASK64], dtype=np.uint64)
    return Stream(np.random.Philox(key=key).random_raw)


def block_plan(total: int, block_size: int = BLOCK_SIZE) -> list[tuple[int, int]]:
    """Split total samples into (block index, count) pairs of at most
    block_size each. Deterministic partition of the sample index space.
    """
    if total < 0:
        raise ValueError("total must be nonnegative")
    plan = []
    i = 0
    while total > 0:
        take = min(block_size, total)
        plan.append((i, take))
        total -= take
        i += 1
    return plan


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
    parts = []
    remaining = n
    while remaining:
        c = rng.below(remaining) + 1
        parts.append(c)
        remaining -= c
    parts.sort(reverse=True)
    return tuple(parts)


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


@dataclass(frozen=True)
class SampleSummary:
    """Outcome of a Monte Carlo run: point estimate with its sampling
    error and enough metadata to reproduce it exactly.
    """
    estimate: float
    samples: int
    std_error: float
    seed: int
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "samples": self.samples,
            "std_error": self.std_error,
            "seed": self.seed,
            **self.extra,
        }
