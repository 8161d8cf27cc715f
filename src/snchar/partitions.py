"""Integer partitions of n: counting, enumeration, unranking, and the
class-theoretic attributes (centralizer orders, class sizes, conjugation)
that identify conjugacy classes of the symmetric group by cycle type.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the unique partition of 0. The canonical order used everywhere
(table axes, sampling) is descending lexicographic on the part sequence,
so (n) comes first and (1,...,1) last. It has one definition: parts_at
reads the parts of the partition at rank r off the counting table of
count_rows, unrank collects them, and enumerate_partitions lists
unrank(n, r) for r = 0, ..., p_n - 1.

All counts use Python's arbitrary-precision ints. The only memo is
_pn_cache, the partition counts; the counting table of count_rows is built
per call and owned by the caller.

Every cap refusal is made here, before any work, by one function per
quantity the cap bounds: enumerate_partitions checks p_n, check_table_cap
a table's p_n^2 entries and count_rows a counting table's (n + 1)(n + 2)/2
ints. A counting table built once a p_n or p_n^2 check has passed is not
checked again.
"""

import os
from bisect import bisect_left
from collections.abc import Iterator
from itertools import accumulate
from math import factorial

Partition = tuple[int, ...]

DEFAULT_CAP = 10_000_000
CAP_ENV_VAR = "SNCHAR_CAP"


class CapExceededError(RuntimeError):
    """A full enumeration (or table build) would exceed the partition cap."""


def enumeration_cap(cap: int | None = None) -> int:
    """Resolve the enumeration cap: explicit value, else env override (an
    integer >= 1, like --cap), else default."""
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR) or str(DEFAULT_CAP)
    try:
        limit = int(env)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer >= 1, got {env!r}")
    return limit


def as_partition(parts) -> Partition:
    """Validate and return parts as a partition tuple.

    Raises ValueError unless parts is weakly decreasing with positive
    int entries; bools and other int subclasses are rejected.
    """
    t = tuple(parts)
    for i, p in enumerate(t):
        if type(p) is not int or p < 1:
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
    # the memo holds 0..top, so extending it by one m costs no copy of it
    for m in range(len(_pn_cache), n + 1):
        total = 0
        k = 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > m:
                break
            term = _pn_cache[m - g]
            g2 = g + k
            if g2 <= m:
                term += _pn_cache[m - g2]
            total += term if k % 2 else -term
            k += 1
        _pn_cache[m] = total
    return _pn_cache[n]


def first_count_over(n: int, limit: int) -> int:
    """The least m < n with p_m > limit, else n. p_m grows with m, so the
    walk costs what the limit allows, not what n asks."""
    return next((m for m in range(n) if partition_count(m) > limit), n)


def count_rows(n: int, cap: int | None = None) -> list[list[int]]:
    """The counting table _rows(n): rows[m][k] counts the partitions of m
    with every part <= k. Raises CapExceededError before any work if its
    (n + 1)(n + 2)/2 ints exceed the enumeration cap."""
    limit = enumeration_cap(cap)
    entries = (n + 1) * (n + 2) // 2
    if entries > limit:
        raise CapExceededError(
            f"a counting table for n={n} needs {entries} entries"
            f" (exceeds cap {limit})"
        )
    return _rows(n)


def _rows(n: int) -> list[list[int]]:
    """Counting table of the canonical order: rows[m][k] is the number of
    partitions of m with every part <= k, for 0 <= k <= m <= n.

    Built row by row from c(m, k) = c(m, k-1) + c(m-k, min(k, m-k)), a
    recurrence independent of partition_count's pentagonal one (rows[n][n]
    is p_n). (n + 1)(n + 2)/2 ints, owned by the caller; unchecked.
    """
    rows, corners = [[1]], [1]
    for m in range(1, n + 1):
        h = m // 2
        # a first part k > m - k leaves any partition of m - k: p_{m-k}
        rows.append(list(accumulate(
            [rows[m - k][k] for k in range(1, h + 1)] + corners[m - h - 1::-1],
            initial=0,
        )))
        corners.append(rows[m][m])
    return rows


# -- enumeration -------------------------------------------------------------

def enumerate_partitions(n: int, cap: int | None = None) -> list[Partition]:
    """All partitions of n in canonical (descending lexicographic) order.

    Raises CapExceededError if p_n exceeds the enumeration cap.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    limit = enumeration_cap(cap)
    m = first_count_over(n, limit)
    if partition_count(m) > limit:
        head = f"p_{n}" if m == n else f"p_{n} > p_{m}"
        raise CapExceededError(
            f"{head} = {partition_count(m)} exceeds enumeration cap {limit}"
        )
    rows = _rows(n)
    return [unrank(n, r, rows) for r in range(rows[n][n])]


def check_table_cap(n: int, cap: int | None = None) -> None:
    """Fail before any table work unless the p_n^2 entries fit the cap."""
    limit = enumeration_cap(cap)
    m = first_count_over(n, limit)  # m < n has p_m^2 > p_m > limit
    pm = partition_count(m)
    if pm * pm > limit:
        need = "p_n^2" if m == n else f"p_n^2 > p_{m}^2"
        raise CapExceededError(
            f"a table for n={n} needs {need} = {pm * pm} entries"
            f" (exceeds cap {limit})"
        )


def unrank(n: int, r: int, rows: list[list[int]] | None = None) -> Partition:
    """Partition of n at canonical rank r, 0 <= r < p_n.

    Each part is one bisect in a row of count_rows. rows is count_rows(m)
    for some m >= n; it costs O(n^2) to build, so pass it when unranking
    in a loop.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if rows is None:
        rows = count_rows(n)
    if not 0 <= r < rows[n][n]:
        raise ValueError(f"rank {r} out of bounds for n={n} (p_n={rows[n][n]})")
    return tuple(parts_at(n, r, rows))


def parts_at(n: int, r: int, rows: list[list[int]]) -> Iterator[int]:
    """Yield the parts of the partition of n at canonical rank r, largest
    first, one bisect each; unrank without its checks, for callers that
    may stop reading early. Needs 0 <= r < p_n and rows = count_rows(m)
    for some m >= n.
    """
    remaining = bound = n
    while remaining:
        # row[b] - row[k] partitions of `remaining` have first part in (k, b]
        row = rows[remaining]
        b = bound if bound < remaining else remaining
        k = bisect_left(row, row[b] - r, 1, b + 1)
        r -= row[b] - row[k]
        yield k
        bound = k
        remaining -= k


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

