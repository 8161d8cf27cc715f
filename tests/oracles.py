"""Independent reference implementations used only by the tests.

Everything here is deliberately brute force and shares no code with the
package: characters come from permutation modules and exact inner
products, not strip removal; class data comes from enumerating actual
permutations; tableau counts come from corner-removal recursion, not hook
products. Feasible for small n only.

Five exceptions are former package code, kept verbatim as the reference
for the fast path that replaced it:

- reference_mn, the strip-removal kernel on sorted beta lists, for the
  bead-mask kernel;
- omega_set and q_of_omega (with their bounded_partitions generator), the
  enumeration of Omega and the sum of 1/z over it, for the closed-form Q_n
  and |Omega| of lemma_bound. They use the package's cap, partition count
  and centralizer order, none of which the closed form touches;
- count_with_max_part (with its memo dict _le_cache, now the oracle's own)
  and reference_unrank, the scan over first parts that calls it, for the
  count table and bisect of partitions.count_rows and unrank. They use the
  package's partition count only for unrank's bounds check;
- reference_cycle_type, one Stream.below call per cycle, for
  Stream.cycle_lengths, and montecarlo_zeros, the Monte Carlo loop that
  unranks every shape in full and evaluates mn_value, for the loop of
  vanishing.montecarlo_pzero that stops once no hook can hold the
  longest cycle or looks the shape's bead mask up in a table. They draw
  from the package's Stream and unrank with its uniform_partition, which
  the tests check on their own;
- reference_ks_distance, which evaluates the CDF once per sample, for
  vanishing.ks_distance, which evaluates it once per distinct value.

core_count and hook_free_rate count the t-cores, the shapes with no hook
of length t, from their generating function, for the zeros that the Monte
Carlo loop takes without a sweep.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from snchar import characters as ch
from snchar import partitions as pt
from snchar import sampling as sp


# -- permutations and classes --------------------------------------------------

def cycle_type_of(perm: tuple) -> tuple:
    """Cycle type of a permutation given as a tuple of images of 0..n-1."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


def parity_by_inversions(perm: tuple) -> int:
    """+1 or -1 via inversion count (no cycle-structure shortcut)."""
    inv = sum(
        1
        for i, j in itertools.combinations(range(len(perm)), 2)
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


def brute_classes(n: int) -> dict[tuple, int]:
    """Cycle type -> class size, by enumerating all n! permutations."""
    sizes: dict[tuple, int] = {}
    for perm in itertools.permutations(range(n)):
        t = cycle_type_of(perm)
        sizes[t] = sizes.get(t, 0) + 1
    return sizes


# -- character tables from permutation modules ---------------------------------

def _fixed_tabloids(cycles: tuple, rows: tuple) -> int:
    """Number of ways to place the given cycle lengths into ordered rows
    of the given capacities, each cycle wholly inside one row. This counts
    the row-partitions of {1..n} fixed by a permutation with those cycles.
    """
    @lru_cache(maxsize=None)
    def go(i: int, caps: tuple) -> int:
        if i == len(cycles):
            return 1
        c = cycles[i]
        total = 0
        for r, cap in enumerate(caps):
            if cap >= c:
                total += go(i + 1, caps[:r] + (cap - c,) + caps[r + 1:])
        return total

    return go(0, rows)


def _lex_desc_partitions(n: int) -> list[tuple]:
    """All partitions of n, largest-first lexicographic, by recursion."""
    def gen(m, bound):
        if m == 0:
            yield ()
            return
        for first in range(min(m, bound), 0, -1):
            for rest in gen(m - first, first):
                yield (first,) + rest

    return list(gen(n, n))


def oracle_character_table(n: int) -> dict[tuple, dict[tuple, int]]:
    """Irreducible character table of S_n as {shape: {class: value}}.

    Permutation-module route: the character of the module of row-partitions
    with row sizes lambda counts fixed tabloids; subtracting the
    previously extracted irreducibles (inner products with class weights)
    in largest-first lexicographic order leaves exactly one new
    irreducible each time. Exact rational arithmetic; every multiplicity
    must come out a nonnegative integer or the oracle aborts.
    """
    shapes = _lex_desc_partitions(n)
    sizes = brute_classes(n)
    classes = [t for t in shapes if t in sizes]
    assert set(classes) == set(sizes)
    order = math.factorial(n)

    def inner(a, b) -> Fraction:
        return sum(
            (Fraction(sizes[k]) * a[k] * b[k] for k in classes),
            Fraction(0),
        ) / order

    table: dict[tuple, dict[tuple, int]] = {}
    for shape in shapes:
        perm_char = {
            k: Fraction(_fixed_tabloids(k, shape)) for k in classes
        }
        for prev in table.values():
            mult = inner(perm_char, prev)
            assert mult.denominator == 1 and mult >= 0, (shape, mult)
            if mult:
                for k in classes:
                    perm_char[k] -= mult * prev[k]
        assert inner(perm_char, perm_char) == 1, shape
        row = {}
        for k in classes:
            assert perm_char[k].denominator == 1, (shape, k)
            row[k] = int(perm_char[k])
        table[shape] = row
    return table


def oracle_pzero(n: int) -> Fraction:
    """P_n from the oracle table: uniform character, uniform group element."""
    table = oracle_character_table(n)
    sizes = brute_classes(n)
    order = math.factorial(n)
    total = Fraction(0)
    for row in table.values():
        for k, v in row.items():
            if v == 0:
                total += Fraction(sizes[k], order)
    return total / len(table)


# -- strip removal on sorted beta lists ---------------------------------------

def _strip_removals(shape: tuple, t: int) -> list[tuple[tuple, int]]:
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


def reference_mn(shape: tuple, mu: tuple, memo: dict) -> int:
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
    pending: dict[tuple[tuple, tuple], list[tuple[tuple[tuple, tuple], int]]] = {}
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


# -- ranking by the bounded-largest-part recursion ------------------------------

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


def reference_unrank(n: int, r: int) -> tuple:
    """Partition of n at canonical rank r, by scanning first parts."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0 <= r < pt.partition_count(n):
        raise ValueError(f"rank {r} out of bounds for n={n} (p_n={pt.partition_count(n)})")
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


# -- Monte Carlo draws one call at a time ---------------------------------------

def reference_cycle_type(n: int, rng) -> tuple:
    """Cycle type of a uniform element of S_n: while r cells remain, the
    next cycle length is rng.below(r) + 1.
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


def montecarlo_zeros(n: int, samples: int, seed: int) -> int:
    """Zero count of the Monte Carlo estimate of P_n: each sample unranks
    a uniform shape in full, draws a cycle type and evaluates mn_value.
    """
    rows = pt.count_rows(n)
    zeros = 0
    for block, count in sp.block_plan(samples):
        rng = sp.substream(seed, block)
        for _ in range(count):
            shape = sp.uniform_partition(n, rng, rows)
            mu = reference_cycle_type(n, rng)
            if ch.mn_value(shape, mu) == 0:
                zeros += 1
    return zeros


def reference_ks_distance(values, cdf) -> float:
    """Two-sided one-sample Kolmogorov-Smirnov statistic of values vs cdf."""
    xs = sorted(values)
    m = len(xs)
    if m == 0:
        raise ValueError("need at least one value")
    d = 0.0
    for i, x in enumerate(xs):
        f = cdf(x)
        d = max(d, (i + 1) / m - f, f - i / m)
    return d


# -- Omega by enumeration -------------------------------------------------------

def bounded_partitions(n: int, max_part: int):
    """Yield partitions of n with all parts <= max_part, canonical order.

    Generator; callers wanting the unrestricted list should use
    enumerate_partitions, which is cap-guarded.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for tail in bounded_partitions(n - first, first):
            yield (first,) + tail


def omega_set(n: int, spec, cap: int | None = None) -> list[tuple]:
    """Partitions of n in Omega, canonical order.

    Only Omega itself is materialized (first part runs downward from n to
    the threshold, tails enumerated with bounded largest part), but the
    p_n-within-cap precondition is still enforced.
    """
    limit = pt.enumeration_cap(cap)
    total = pt.partition_count(n)
    if total > limit:
        raise pt.CapExceededError(f"p_{n} = {total} exceeds enumeration cap {limit}")
    t = spec.min_first_part(n)
    out = []
    for k in range(n, max(t, 1) - 1, -1):
        for tail in bounded_partitions(n - k, k):
            out.append((k,) + tail)
    return out


def q_of_omega(n: int, omega) -> Fraction:
    """Probability that a uniform permutation's cycle type lies in omega:
    sum of 1/z over the distinct members. All members must partition n.
    """
    total = Fraction(0)
    seen = set()
    for lam in omega:
        lam = pt.as_partition(lam)
        if sum(lam) != n:
            raise ValueError(f"{lam} does not partition {n}")
        if lam in seen:
            continue
        seen.add(lam)
        total += Fraction(1, pt.centralizer_order(lam))
    return total


# -- tableau counting -----------------------------------------------------------

@lru_cache(maxsize=None)
def count_standard_tableaux(shape: tuple) -> int:
    """Standard fillings counted by removing corner cells one at a time."""
    if sum(shape) <= 1:
        return 1
    total = 0
    for i, row in enumerate(shape):
        if i + 1 < len(shape) and shape[i + 1] == row:
            continue
        smaller = shape[:i] + (row - 1,) + shape[i + 1:]
        if smaller[-1] == 0:
            smaller = smaller[:-1]
        total += count_standard_tableaux(smaller)
    return total


# -- cycle-count law ------------------------------------------------------------

def parts_count_law(n: int) -> dict[int, Fraction]:
    """Exact law of the number of parts of a cycle type of a uniform
    permutation, as the coefficient sequence of prod_i ((i-1) + x)/i.
    """
    poly = [Fraction(1)]
    for i in range(1, n + 1):
        stay = Fraction(i - 1, i)
        move = Fraction(1, i)
        nxt = [Fraction(0)] * (len(poly) + 1)
        for m, c in enumerate(poly):
            nxt[m] += c * stay
            nxt[m + 1] += c * move
        poly = nxt
    return {m: c for m, c in enumerate(poly) if c}


def parts_count_law_by_classes(n: int, partitions_of) -> dict[int, Fraction]:
    """Same law the slow way: sum 1/z over partitions with m parts.
    Takes the package's enumerator plus centralizer as inputs so the two
    routes stay structurally independent.
    """
    enumerate_partitions, centralizer_order = partitions_of
    law: dict[int, Fraction] = {}
    for lam in enumerate_partitions(n):
        m = len(lam)
        law[m] = law.get(m, Fraction(0)) + Fraction(1, centralizer_order(lam))
    return law


# -- t-cores ----------------------------------------------------------------------

def core_count(n: int, t: int) -> int:
    """Number of t-cores of n, partitions with no hook of length t: the q^n
    coefficient of prod_k (1 - q^(tk))^t / (1 - q^k) (Garvan-Kim-Stanton,
    "Cranks and t-cores", Invent. Math. 1990), as a series cut at q^n.
    """
    if t < 1:
        raise ValueError("t must be positive")
    c = [1] + [0] * n
    for k in range(1, n + 1):  # 1 / (1 - q^k)
        for m in range(k, n + 1):
            c[m] += c[m - k]
    for s in range(t, n + 1, t):  # (1 - q^s)^t for s = t k
        for _ in range(t):
            for m in range(n, s - 1, -1):
                c[m] -= c[m - s]
    return c[n]


def _all_cycles_at_most(n: int, t: int) -> int:
    """n! times the probability that every cycle of a uniform permutation
    of S_n is at most t long: with e_0 = n!, m e_m = e_(m-1) + ... +
    e_(m-t), and e_m / n! is that probability for S_m."""
    e = [math.factorial(n)]
    for m in range(1, n + 1):
        e.append(sum(e[max(0, m - t):m]) // m)
    return e[n]


def hook_free_rate(n: int) -> Fraction:
    """L_n, the probability that a uniform shape of n has no hook of length
    mu_1, the longest cycle of a uniform permutation of S_n: the sum over t
    of Pr[mu_1 = t] c_t(n) / p_n. Each such character value is 0, so
    L_n <= P_n. At t = n + 1 every factor 1 - q^(tk) is 1 up to q^n, so
    c_(n+1)(n) = p_n."""
    at_most = [_all_cycles_at_most(n, t) for t in range(n + 1)]
    weighted = sum((at_most[t] - at_most[t - 1]) * core_count(n, t) for t in range(1, n + 1))
    return Fraction(weighted, math.factorial(n) * core_count(n, n + 1))  # p_n
