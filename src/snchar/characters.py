"""Irreducible characters of symmetric groups, evaluated exactly.

Single values come from the recursive border-strip expansion: removing a
strip of size t from shape lambda for the largest remaining part t of the
cycle type mu, with the sign determined by the strip height, and summing
over all legal removals. Strips are found through the first-column hook
length encoding (beta numbers): shape (l_1 >= ... >= l_m) maps to the
strictly decreasing set beta_i = l_i + m - 1 - i, a strip of size t is
removable at row i exactly when c = beta_i - t is nonnegative and not
already in the set, and the strip height is the number of beta values
lying strictly between c and beta_i.

Everything is exact integer arithmetic; there is no floating point here.
"""

from collections.abc import Iterator
from dataclasses import dataclass
from math import factorial

from . import partitions as pt
from .partitions import Partition, CapExceededError

_Memo = dict[tuple[Partition, tuple[int, ...]], int]


def _strip_removals(shape: Partition, t: int) -> list[tuple[Partition, int]]:
    """All ways to remove a border strip of size t from shape.

    Returns (smaller shape, sign) pairs ordered by the row where the strip
    starts, topmost first.
    """
    m = len(shape)
    beta = [shape[i] + (m - 1 - i) for i in range(m)]
    bset = set(beta)
    out = []
    for i in range(m):
        c = beta[i] - t
        if c < 0 or c in bset:
            continue
        height = 0
        for j in range(i + 1, m):
            if beta[j] > c:
                height += 1
            else:
                break
        nb = sorted(beta[:i] + beta[i + 1:] + [c], reverse=True)
        ns = tuple(nb[k] - (m - 1 - k) for k in range(m))
        while ns and ns[-1] == 0:
            ns = ns[:-1]
        out.append((ns, -1 if height % 2 else 1))
    return out


def _mn(shape: Partition, mu: Partition, memo: _Memo) -> int:
    """Character value chi^shape(mu) by iterative strip removal.

    memo is keyed by (shape, remaining mu suffix), so one memo serves
    every column of a table.
    Uses an explicit work stack: recursion depth grows with len(mu),
    which can exceed the interpreter limit for cycle types with many
    fixed points at large n.
    """
    root = (shape, mu)
    stack = [root]
    # pending[key] holds the signed child keys once they are scheduled
    pending: dict[tuple[Partition, Partition], list[tuple[tuple[Partition, Partition], int]]] = {}
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        sh, rest = key
        if not rest:
            memo[key] = 1
            stack.pop()
            continue
        children = pending.get(key)
        if children is None:
            t, tail = rest[0], rest[1:]
            children = [((ns, tail), sign) for ns, sign in _strip_removals(sh, t)]
            pending[key] = children
            missing = [ck for ck, _ in children if ck not in memo]
            if missing:
                stack.extend(missing)
                continue
        memo[key] = sum(sign * memo[ck] for ck, sign in children)
        del pending[key]
        stack.pop()
    return memo[root]


def mn_value(shape, mu) -> int:
    """chi^shape(mu): the irreducible character of S_n indexed by shape,
    at the class of cycle type mu. Both arguments must partition the same
    positive integer.
    """
    sh = pt.as_partition(shape)
    m = pt.as_partition(mu)
    n = sum(sh)
    if n != sum(m):
        raise ValueError(f"shape sums to {n} but cycle type sums to {sum(m)}")
    if n == 0:
        raise ValueError("partitions of 0 index no character value")
    return _mn(sh, m, {})


def dimension(shape) -> int:
    """Degree of the irreducible character: n! over the product of hook
    lengths of the shape.
    """
    sh = pt.as_partition(shape)
    n = sum(sh)
    if n == 0:
        raise ValueError("empty shape has no dimension")
    conj = pt.conjugate(sh)
    hooks = 1
    for i, row in enumerate(sh):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    q, r = divmod(factorial(n), hooks)
    if r:
        raise ArithmeticError(f"hook product does not divide n! for {sh}")
    return q


@dataclass(frozen=True)
class CharacterTable:
    """Full character table of S_n on canonical axes.

    Rows are characters (indexed by shape), columns are classes (indexed
    by cycle type), both in canonical partition order. values[i][j] is
    chi^{characters[i]}(classes[j]), an exact int.
    """
    n: int
    characters: tuple[Partition, ...]
    classes: tuple[Partition, ...]
    values: tuple[tuple[int, ...], ...]

    def value(self, shape, mu) -> int:
        return self.values[pt.rank(shape)][pt.rank(mu)]

    def to_csv(self) -> str:
        """CSV text: header row of class labels, then one row per character
        led by its shape label.
        """
        lines = ["shape," + ",".join(pt.format_partition(c) for c in self.classes)]
        for sh, row in zip(self.characters, self.values):
            lines.append(
                pt.format_partition(sh) + "," + ",".join(str(v) for v in row)
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        """JSON-ready dict with axis labels and values as decimal strings
        (entries can exceed what consumers of double-precision JSON numbers
        survive).
        """
        return {
            "n": self.n,
            "characters": [pt.format_partition(s) for s in self.characters],
            "classes": [pt.format_partition(c) for c in self.classes],
            "values": [[str(v) for v in row] for row in self.values],
        }


def check_table_cap(n: int, cap: int | None = None) -> None:
    """Fail before any table work unless the p_n^2 entries fit the cap."""
    limit = pt.enumeration_cap(cap)
    pn = pt.partition_count(n)
    if pn * pn > limit:
        raise CapExceededError(
            f"a table for n={n} needs p_n^2 = {pn * pn} entries"
            f" (exceeds cap {limit})"
        )


def table_columns(n: int, cap: int | None = None) -> Iterator[tuple[Partition, list[int]]]:
    """Yield (mu, column) for every class mu of S_n in canonical order.

    column[i] is the value at mu of the i-th shape in canonical order. One
    memo serves all columns; a reader that consumes the stream column by
    column never holds the p_n^2 table. The cap is checked on the first
    next(), before any value is computed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_table_cap(n, cap)
    labels = pt.enumerate_partitions(n, cap)
    memo: _Memo = {}
    for mu in labels:
        yield mu, [_mn(sh, mu, memo) for sh in labels]


def character_table(n: int, cap: int | None = None) -> CharacterTable:
    """Build the full table for S_n: the column stream, transposed."""
    classes, cols = zip(*table_columns(n, cap))
    return CharacterTable(
        n=n, characters=classes, classes=classes, values=tuple(zip(*cols))
    )
