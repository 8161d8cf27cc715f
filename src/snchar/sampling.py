"""Random partitions and random cycle types, with reproducible streams.

Randomness comes from numpy's Philox counter-based generator. A run is
identified by a 64-bit seed; sample index space is split into fixed-size
blocks and block i draws from the keyed substream Philox(key=[seed, i]).
Substreams are independent by construction, so results depend only on
(seed, sample index), not on how many workers consumed the blocks.

Two samplers:

* random_cycle_type draws the cycle type of a uniform permutation of S_n
  without building the permutation: repeatedly pick a cycle length uniform
  on {1..r} where r cells remain. The resulting distribution on partitions
  is exactly 1/z_lambda.
* uniform_partition draws a partition of n uniformly among all p_n of
  them, by rejection-sampling an integer rank below p_n and unranking it
  with one bisect per part in a pt.count_rows table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import partitions as pt
from .partitions import Partition

MASK64 = (1 << 64) - 1
DEFAULT_SEED = 20250217
BLOCK_SIZE = 16384


def substream(seed: int, index: int) -> np.random.Generator:
    """Philox generator keyed by (seed, block index).

    numpy is imported here, its only use, so that commands which draw no
    samples do not pay for the import.
    """
    import numpy as np

    # an explicit uint64 array: a plain list holding a value >= 2^63 is
    # cast through float64, and distinct seeds collide
    key = np.array([seed & MASK64, index & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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


def uniform_below(bound: int, rng: np.random.Generator) -> int:
    """Uniform integer in [0, bound) for arbitrary-precision bound.

    Small bounds go through the generator's native integers(). Larger
    bounds use rejection sampling on the minimal whole-byte width, which
    accepts with probability > 1/256 per draw.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    if bound <= 1 << 63:
        # within the generator's native int64 range (Lemire-style, unbiased)
        return int(rng.integers(0, bound))
    nbytes = (bound.bit_length() + 7) // 8
    top = 1 << (8 * nbytes)
    # drop whole multiples of bound from the top to keep acceptance unbiased
    limit = top - top % bound
    while True:
        x = int.from_bytes(rng.bytes(nbytes), "little")
        if x < limit:
            return x % bound


def random_cycle_type(n: int, rng: np.random.Generator) -> Partition:
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
        c = int(rng.integers(1, remaining + 1))
        parts.append(c)
        remaining -= c
    parts.sort(reverse=True)
    return tuple(parts)


def uniform_partition(n: int, rng: np.random.Generator,
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
