"""Irreducible characters of symmetric groups, evaluated exactly.

A shape is held as a bead mask (the James-Kerber abacus): shape
(l_1 >= ... >= l_m) is the int with bits beta_i = l_i + m - 1 - i set. A
strip of size t is removable at bead b exactly when b >= t and bit b - t is
clear; removing it moves the bead to b - t, with sign (-1) to the number of
beads strictly between. A mask is normalised by shifting out its trailing
one bits (zero parts), so equal shapes meet as equal ints. _strips is this
move, and both evaluators use it. _beads, the one mask builder, reads a
shape's parts largest first. rank_beads, the one route from a canonical
rank to a mask, feeds it the parts read off a counting table of
partitions; mn_value alone feeds it a tuple. No other module builds one.

mn_value gives single values by a layer sweep: a map from bead mask to
signed coefficient starts at the shape, each part t of mu replaces every
mask by its t-strip removals, and the value is the coefficient left on the
empty shape (mask 0). Equal shapes merge at each layer, and only two layers
are alive at a time; nothing is kept between calls.

Whole columns read Murnaghan-Nakayama as p_t s_nu = sum of +-s_lambda over
the t-strips added to nu (Macdonald, Symmetric Functions, ch. I): the
column chi^.(t, nu) is a sparse signed operator A_(|nu|,t) applied to the
column chi^.(nu). class_columns walks the cycle types depth first as a trie
of suffixes from the root () with column [1]; a child of nu prepends a part
t >= nu_1 whose remainder parts >= t can still fill. Before its first
column the walk builds every operator once, from the rank maps (mask ->
rank) of two levels m <= n, read off one counting table by rank_beads; it
then holds neither maps nor table, only operators and the current path.

Everything is exact integer arithmetic; there is no floating point here.
partitions.check_table_cap caps a table's p_n^2 entries; character_table
sorts the walk's own classes into canonical order. CharacterTable owns the
table's text, CSV and JSON forms, which all read its rows().
"""

from collections.abc import Callable, Iterator
from itertools import accumulate
from math import factorial
from operator import itemgetter, neg, sub
from typing import NamedTuple

from . import partitions as pt
from .partitions import Partition

_Op = Callable[[list[int]], list[int]]  # a strip operator A_(m,t)


def _beads(parts: Iterator[int], n: int, t: int = 0) -> int:
    """The one mask builder: the bead mask of the shape of n whose parts,
    positive and largest first, the iterator parts yields. 0 for the empty
    shape, and 0 as soon as the shape is seen to have no hook of length t,
    so t = 0 always gives the mask.

    Every hook is at most lambda_1 + l(lambda) - 1. With j parts read and s
    cells left, l(lambda) <= j + s: reach = lambda_1 + j + s - 1 is n after
    the first part, never grows, and ends at lambda_1 + l(lambda) - 1.
    """
    last = next(parts, 0)
    if n < t or not last:
        return 0
    beads, reach = 1, n
    for k in parts:
        reach -= k - 1
        if reach < t:
            return 0
        # a part's bead sits at part + (parts after it); the mask holds it
        # less the latest part, added back by the last shift
        beads = beads << (last - k + 1) | 1
        last = k
    return beads << last


def rank_beads(n: int, r: int, rows: list[list[int]], t: int = 0) -> int:
    """_beads of the shape of n >= 0 at canonical rank r, its parts read
    off pt.parts_at(n, r, rows)."""
    return _beads(pt.parts_at(n, r, rows), n, t)


def _strips(beads: int, t: int) -> list[tuple[int, int]]:
    """(normalised mask, sign) of each t-strip removal from beads."""
    between = (1 << (t - 1)) - 1
    movable = beads & ~(beads << t) & ~((1 << t) - 1)
    out = []
    while movable:
        bit = movable & -movable
        movable ^= bit
        moved = beads ^ bit ^ (bit >> t)
        moved >>= (~moved & (moved + 1)).bit_length() - 1
        odd = ((beads >> (bit.bit_length() - t)) & between).bit_count() & 1
        out.append((moved, -1 if odd else 1))
    return out


def mn_value(shape, mu) -> int:
    """chi^shape(mu): the irreducible character of S_n indexed by shape,
    at the class of cycle type mu. Both arguments must partition the same
    positive integer. A forward sweep over the parts of mu; it has no
    recursion, so any number of parts is fine.
    """
    sh = pt.as_partition(shape)
    m = pt.as_partition(mu)
    n = sum(sh)
    if n != sum(m):
        raise ValueError(f"shape sums to {n} but cycle type sums to {sum(m)}")
    if n == 0:
        raise ValueError("partitions of 0 index no character value")
    return _sweep(_beads(iter(sh), n), m)


def _sweep(beads: int, mu) -> int:
    """mn_value without its checks: the signed count of ways to empty the
    shape with bead mask beads by removing strips of lengths mu in order.
    It stops at 0 as soon as a layer has no shape left.
    """
    layer = {beads: 1}
    for t in mu:
        nxt: dict[int, int] = {}
        for mask, c in layer.items():
            for moved, sign in _strips(mask, t):
                nxt[moved] = nxt.get(moved, 0) + sign * c
        if not nxt:
            return 0
        layer = nxt
    return layer.get(0, 0)


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


class CharacterTable(NamedTuple):
    """Full character table of S_n on canonical axes.

    Rows are characters (indexed by shape), columns are classes (indexed
    by cycle type), both in canonical partition order. values[i][j] is
    chi^{characters[i]}(classes[j]), an exact int.
    """
    n: int
    characters: tuple[Partition, ...]
    classes: tuple[Partition, ...]
    values: tuple[tuple[int, ...], ...]

    def rows(self) -> Iterator[list[str]]:
        """The header row, class labels led by "shape", then one row per
        character, its shape label and decimal values; one at a time."""
        yield ["shape", *map(pt.format_partition, self.classes)]
        for sh, row in zip(self.characters, self.values):
            yield [pt.format_partition(sh), *map(str, row)]

    def to_csv(self) -> str:
        """The rows as CSV text."""
        return "\n".join(map(",".join, self.rows())) + "\n"

    def to_text(self) -> str:
        """The rows as right-aligned columns two spaces apart, each as wide
        as its widest entry, header included; " | " sets off the labels."""
        rows = list(self.rows())
        w0, *widths = (max(map(len, col)) for col in zip(*rows))
        return "".join(
            lab.rjust(w0) + " | " + "  ".join(map(str.rjust, cells, widths)) + "\n"
            for lab, *cells in rows
        )

    def to_json_dict(self) -> dict:
        """JSON-ready dict with axis labels and values as decimal strings
        (entries can exceed what consumers of double-precision JSON numbers
        survive).
        """
        (_, *classes), *rows = self.rows()
        characters = [row.pop(0) for row in rows]  # leaves each row its cells
        return {"n": self.n, "characters": characters,
                "classes": classes, "values": rows}


def _operator(src: dict[int, int], dst: dict[int, int], t: int) -> _Op:
    """A_(m,t) from src to dst, the level maps (mask -> rank) of m and m + t.

    Rows follow dst's canonical order; a row lists its signed sources as
    indices into vec + -vec + [0] (the 0 keeps itemgetter's result a tuple).
    Row sums are differences of one running sum taken at the row ends.
    """
    shift = len(src)
    flat: list[int] = []
    ends = [0]
    for beads in dst:
        flat.extend(src[b] if sign > 0 else src[b] + shift
                    for b, sign in _strips(beads, t))
        ends.append(len(flat))
    gather = itemgetter(*flat, 2 * shift)
    at_ends = itemgetter(*ends)  # p_(m+t) + 1 >= 2 indices: always a tuple

    def apply(vec: list[int]) -> list[int]:
        run = at_ends(list(accumulate(gather([*vec, *map(neg, vec), 0]), initial=0)))
        return list(map(sub, run[1:], run))
    return apply


def _steps(rest: int, low: int) -> tuple[int, ...]:
    """The parts t a node with rest cells left and first part low may
    prepend, in push order: t = rest or low <= t <= rest // 2, so the
    child's own rest is 0 or at least t, and the single part rest can
    always close it."""
    return (rest, *range(rest // 2, low - 1, -1))


def class_columns(n: int, cap: int | None = None) -> Iterator[tuple[Partition, list[int]]]:
    """Yield (mu, column) once for every class mu of S_n, in trie order.

    column[i] is the value at mu of the i-th shape in canonical order. The
    cap is checked on the first next(), before any value is computed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    pt.check_table_cap(n, cap)
    rows = pt._rows(n)  # the p_n^2 check above is the walk's one cap check
    levels = [{rank_beads(m, r, rows): r for r in range(rows[m][m])} for m in range(n + 1)]
    # (1^s) is in the walk for each s < n and takes every step s cells can
    ops = {(s, t): _operator(levels[s], levels[s + t], t)
           for s in range(n) for t in _steps(n - s, 1)}
    del rows, levels
    # Entries (t, nu, |nu|, chi^.(nu)); the child (t,) + nu is computed when popped
    stack = [(t, (), 0, [1]) for t in _steps(n, 1)]
    while stack:
        t, nu, s, vec = stack.pop()
        nu, s, vec = (t,) + nu, s + t, ops[s, t](vec)
        rest = n - s
        if not rest:
            yield nu, vec
            continue
        stack.extend((u, nu, s, vec) for u in _steps(rest, t))


def character_table(n: int, cap: int | None = None) -> CharacterTable:
    """The full table of S_n: the walk's columns, keyed by classes sorted
    descending (canonical order) and transposed; all p_n^2 values at once."""
    columns = dict(class_columns(n, cap))
    classes = tuple(sorted(columns, reverse=True))
    values = tuple(zip(*map(columns.pop, classes)))
    return CharacterTable(n=n, characters=classes, classes=classes, values=values)
