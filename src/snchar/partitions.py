"""Integer partitions of n: enumeration, counting, ranking, and the
class-theoretic attributes (centralizer orders, class sizes, conjugation)
that identify conjugacy classes of the symmetric group by cycle type.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the unique partition of 0. The canonical order used everywhere
(table axes, ranking) is descending lexicographic on the part sequence,
so (n) comes first and (1,...,1) last.

All counts use Python's arbitrary-precision ints. Internal memo tables are
plain dicts of pure results.
"""

import os
from fractions import Fraction
from math import factorial

Partition = tuple[int, ...]

DEFAULT_CAP = 10_000_000
CAP_ENV_VAR = "SNCHAR_CAP"


class CapExceededError(RuntimeError):
    """A full enumeration (or table build) would exceed the partition cap."""


def enumeration_cap(cap: int | None = None) -> int:
    """Resolve the enumeration cap: explicit value, else env override, else default."""
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    return int(env) if env else DEFAULT_CAP


def as_partition(parts) -> Partition:
    """Validate and return parts as a partition tuple.

    Raises ValueError unless parts is weakly decreasing with positive
    integer entries.
    """
    t = tuple(parts)
    for i, p in enumerate(t):
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"partition parts must be positive integers, got {p!r}")
        if i and t[i - 1] < p:
            raise ValueError(f"partition parts must be weakly decreasing: {t}")
    return t


def format_partition(parts) -> str:
    """Dash-joined parts, e.g. (3, 1, 1) -> '3-1-1'. Empty partition -> ''."""
    return "-".join(str(p) for p in parts)


# -- counting ----------------------------------------------------------------

_pn_cache: dict[int, int] = {0: 1}

def partition_count(n: int) -> int:
    """Number p_n of partitions of n, by the pentagonal-number recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    got = _pn_cache.get(n)
    if got is not None:
        return got
    top = max(_pn_cache)
    vals = [_pn_cache[i] for i in range(top + 1)]
    for m in range(top + 1, n + 1):
        total = 0
        k = 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > m:
                break
            term = vals[m - g]
            g2 = g + k
            if g2 <= m:
                term += vals[m - g2]
            total += term if k % 2 else -term
            k += 1
        vals.append(total)
        _pn_cache[m] = total
    return _pn_cache[n]


_le_cache: dict[tuple[int, int], int] = {}

def count_with_max_part(n: int, k: int) -> int:
    """Number of partitions of n whose parts are all <= k.

    Bounded-largest-part recurrence c(n,k) = c(n,k-1) + c(n-k,k),
    evaluated with an explicit stack so deep (n,k) pairs don't hit the
    interpreter recursion limit. Independent of partition_count's
    pentagonal recurrence, which it cross-checks in tests.
    """
    if n < 0:
        return 0
    k = min(k, n)
    if n == 0:
        return 1
    if k <= 0:
        return 0
    root = (n, k)
    cache = _le_cache
    stack = [root]
    while stack:
        m, j = key = stack[-1]
        if key in cache:
            stack.pop()
            continue
        if j <= 1:
            cache[key] = 1 if j == 1 else 0
            stack.pop()
            continue
        rest = m - j
        a = (m, j - 1)
        b = (rest, min(j, rest))
        if rest == 0:
            vb = 1
        else:
            vb = cache.get(b)
        va = cache.get(a)
        if va is None or vb is None:
            if va is None:
                stack.append(a)
            if vb is None:
                stack.append(b)
            continue
        cache[key] = va + vb
        stack.pop()
    return cache[root]


# -- enumeration and ranking -------------------------------------------------

def enumerate_partitions(n: int, cap: int | None = None) -> list[Partition]:
    """All partitions of n in canonical (descending lexicographic) order.

    Raises CapExceededError if p_n exceeds the enumeration cap.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    limit = enumeration_cap(cap)
    total = partition_count(n)
    if total > limit:
        raise CapExceededError(
            f"p_{n} = {total} exceeds enumeration cap {limit}"
        )
    if n == 0:
        return [()]
    out = []
    cur = (n,)
    while True:
        out.append(cur)
        i = len(cur) - 1
        while i >= 0 and cur[i] == 1:
            i -= 1
        if i < 0:
            break
        # decrement cur[i], redistribute the freed cells greedily
        k = cur[i] - 1
        rest = len(cur) - i
        head = cur[:i] + (k,)
        tail = []
        while rest > 0:
            part = min(k, rest)
            tail.append(part)
            rest -= part
        cur = head + tuple(tail)
    return out


def rank(parts) -> int:
    """Canonical rank of a partition among partitions of its own size."""
    t = as_partition(parts)
    r = 0
    remaining = sum(t)
    bound = remaining
    for a in t:
        for k in range(min(remaining, bound), a, -1):
            r += count_with_max_part(remaining - k, k)
        bound = a
        remaining -= a
    return r


def unrank(n: int, r: int) -> Partition:
    """Partition of n at canonical rank r; inverse of rank()."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0 <= r < partition_count(n):
        raise ValueError(f"rank {r} out of bounds for n={n} (p_n={partition_count(n)})")
    parts = []
    remaining = n
    bound = n
    while remaining:
        for k in range(min(remaining, bound), 0, -1):
            c = count_with_max_part(remaining - k, k)
            if r < c:
                parts.append(k)
                bound = k
                remaining -= k
                break
            r -= c
    return tuple(parts)


# -- class-theoretic attributes ----------------------------------------------

def conjugate(parts) -> Partition:
    """Transpose of the Young diagram; an involution."""
    t = as_partition(parts)
    if not t:
        return ()
    out = []
    for j in range(t[0]):
        out.append(sum(1 for p in t if p > j))
    return tuple(out)


def centralizer_order(parts) -> int:
    """Centralizer order of a permutation with the given cycle type:
    product over distinct part sizes i of i^m_i * m_i! (m_i = multiplicity).
    """
    t = as_partition(parts)
    mult: dict[int, int] = {}
    for p in t:
        mult[p] = mult.get(p, 0) + 1
    z = 1
    for i, m in mult.items():
        z *= i**m * factorial(m)
    return z


def class_size(parts) -> int:
    """Size of the conjugacy class with the given cycle type: n!/z."""
    t = as_partition(parts)
    n = sum(t)
    z = centralizer_order(t)
    q, rem = divmod(factorial(n), z)
    if rem:
        raise ArithmeticError(
            f"n! not divisible by centralizer order for {t}; implementation bug"
        )
    return q


def class_probability(parts) -> Fraction:
    """Probability 1/z that a uniform permutation has this cycle type."""
    return Fraction(1, centralizer_order(parts))
