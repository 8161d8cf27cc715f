"""Irreducible characters of symmetric groups, evaluated exactly.

Single values come from the recursive border-strip expansion: removing a
strip of size t from shape lambda for the largest remaining part t of the
cycle type mu, with the sign determined by the strip height, and summing
over all legal removals. A shape is held as a bead mask (the James-Kerber
abacus): shape (l_1 >= ... >= l_m) is the int with bits beta_i =
l_i + m - 1 - i set. A strip of size t is removable at bead b exactly when
b >= t and bit b - t is clear, and removing it moves the bead from b to
b - t; the strip height is the number of beads strictly between. Trailing
zero parts are the trailing one bits of the mask, so a mask is normalised
by shifting them out, and equal shapes always meet as equal ints.

A table evaluates only one shape of each conjugate pair and fills the other
from chi^{lambda'}(mu) = sgn(mu) chi^lambda(mu), with sgn(mu) =
(-1)^(n - len(mu)).

Everything is exact integer arithmetic; there is no floating point here.
"""

from collections.abc import Iterator
from dataclasses import dataclass
from math import factorial

from . import partitions as pt
from .partitions import Partition, CapExceededError

_Key = tuple[int, Partition]  # (bead mask, remaining mu suffix)
_Memo = dict[_Key, int]


def _mn(shape: Partition, mu: Partition, memo: _Memo) -> int:
    """Character value chi^shape(mu) by iterative strip removal.

    shape is turned into its bead mask, and memo is keyed by (normalised
    bead mask, remaining mu suffix), so one memo serves every column of a
    table and every single value of a run. The movable beads for part t
    are beads & ~(beads << t) & ~((1 << t) - 1), a move is
    beads ^ (1 << b) ^ (1 << (b - t)), and its sign is the parity of the
    t - 1 bits above b - t.
    Uses an explicit work stack: recursion depth grows with len(mu),
    which can exceed the interpreter limit for cycle types with many
    fixed points at large n.
    """
    # parts are positive, so bit 0 is clear and the root mask is normalised
    m = len(shape)
    beads = 0
    for i, part in enumerate(shape):
        beads |= 1 << (part + m - 1 - i)
    root = (beads, mu)
    stack = [root]
    # pending[key] holds the signed child keys once they are scheduled
    pending: dict[_Key, list[tuple[_Key, int]]] = {}
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        beads, rest = key
        if not rest:
            memo[key] = 1
            stack.pop()
            continue
        children = pending.pop(key, None)
        if children is None:
            t, tail = rest[0], rest[1:]
            between = (1 << (t - 1)) - 1
            movable = beads & ~(beads << t) & ~((1 << t) - 1)
            children = []
            while movable:
                bit = movable & -movable
                movable ^= bit
                b = bit.bit_length() - 1
                moved = beads ^ bit ^ (bit >> t)
                moved >>= (~moved & (moved + 1)).bit_length() - 1
                odd = ((beads >> (b - t + 1)) & between).bit_count() & 1
                children.append(((moved, tail), -1 if odd else 1))
            missing = [ck for ck, _ in children if ck not in memo]
            if missing:
                pending[key] = children
                stack.extend(missing)
                continue
        memo[key] = sum(sign * memo[ck] for ck, sign in children)
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

    column[i] is the value at mu of the i-th shape in canonical order. Only
    the first shape of each conjugate pair (and each self-conjugate shape)
    is evaluated; its partner is sgn(mu) times that value. One memo serves
    all columns; a reader that consumes the stream column by
    column never holds the p_n^2 table. The cap is checked on the first
    next(), before any value is computed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_table_cap(n, cap)
    labels = pt.enumerate_partitions(n, cap)
    index = {sh: i for i, sh in enumerate(labels)}
    conj = [index[pt.conjugate(sh)] for sh in labels]
    memo: _Memo = {}
    for mu in labels:
        sign = -1 if (n - len(mu)) % 2 else 1
        column = [0] * len(labels)
        for i, sh in enumerate(labels):
            if i <= conj[i]:
                value = _mn(sh, mu, memo)
                column[i] = value
                column[conj[i]] = sign * value
        yield mu, column


def character_table(n: int, cap: int | None = None) -> CharacterTable:
    """Build the full table for S_n: the column stream, transposed."""
    classes, cols = zip(*table_columns(n, cap))
    return CharacterTable(
        n=n, characters=classes, classes=classes, values=tuple(zip(*cols))
    )
