"""Vanishing statistics of random character values of S_n.

The quantity of interest is P_n, the probability that chi(g) = 0 when chi
is drawn uniformly from the p_n irreducible characters and g uniformly
from the group. Exact evaluation counts each column's zeros once per
element of its class. The lower bound machinery works through a set Omega of
partitions with large first part: with Q_n the probability that a uniform
permutation's cycle type lies in Omega and R_n = |Omega|/p_n,

    1 >= P_n >= Q_n - R_n

holds exactly for every choice of Omega, because a character column
orthogonality argument pins zeros inside the Omega classes. The default
Omega takes first part at least c*sqrt(n)*(log n + f(n)) with
c = sqrt(6)/(2*pi) (the scale at which the largest part of a random
partition concentrates) and f(n) = log n. Neither Q_n nor |Omega| needs
Omega itself: Q_n follows from the longest-cycle recurrence and |Omega|
from counting partitions with all parts below the threshold.

Also here: Monte Carlo, whose bead masks all come from
characters.rank_beads; the cycle-count limit law experiment (the number
of cycles m of a uniform permutation, normalized as (m - log n)/sqrt(2
log n), tends to the law with density exp(-t^2)/sqrt(pi)); and the
long-cycle frequency estimate. Logs are natural throughout.
"""

import math
from collections import Counter, deque
from fractions import Fraction
from typing import NamedTuple

from . import characters as ch
from . import partitions as pt
from . import sampling as sp
from .groups import rational_json, rational_text
from .sampling import SampleSummary

DEFAULT_C = math.sqrt(6.0) / (2.0 * math.pi)


class _OmegaFields(NamedTuple):
    c: float = DEFAULT_C
    f_mode: str = "log"
    f_const: float = 0.0
    strict: bool = False


class OmegaSpec(_OmegaFields):
    """Parameters of the large-first-part set Omega.

    The cut is lambda_1 >= c*sqrt(n)*(log n + f(n)) (or strictly >, with
    strict=True). f is the natural log by default; f_mode "const" uses the
    constant f_const instead.
    """
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.c > 0:
            raise ValueError(f"threshold constant must be positive, got {self.c}")
        if self.f_mode not in ("log", "const"):
            raise ValueError(f"f_mode must be 'log' or 'const', got {self.f_mode!r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, which would skip __new__
        return cls(*iterable)

    def f_value(self, n: int) -> float:
        return math.log(n) if self.f_mode == "log" else self.f_const

    def min_first_part(self, n: int) -> int:
        """Smallest integer first part admitted to Omega.

        The real threshold is converted exactly to a rational, then rounded
        up (non-strict) or taken past (strict), so membership of integer
        first parts never depends on floating-point comparison.
        """
        if n < 2:
            raise ValueError("Omega is defined for n >= 2")
        x = self.c * math.sqrt(n) * (math.log(n) + self.f_value(n))
        if not math.isfinite(x):
            raise ValueError(
                f"Omega threshold for n={n} is not finite ({x}); check c and f"
            )
        t = Fraction(x)
        if self.strict:
            return math.floor(t) + 1
        return math.ceil(t)


def omega_count(n: int, spec: OmegaSpec) -> int:
    """|Omega| without enumeration: p_n minus the partitions with all parts
    below the threshold t, counted by the rolling coin-change sum over part
    sizes 1..t-1.
    """
    t = spec.min_first_part(n)
    below = [1] + [0] * n
    for k in range(1, min(t - 1, n) + 1):
        for m in range(k, n + 1):
            below[m] += below[m - k]
    return pt.partition_count(n) - below[n]


def omega_probability(n: int, spec: OmegaSpec) -> Fraction:
    """Q_n without enumeration: 1 minus the probability that a uniform
    permutation of S_n has every cycle shorter than the threshold t.

    Longest-cycle recurrence (Shepp-Lloyd): with e_0 = n!,
    m*e_m = e_{m-1} + ... + e_{m-t+1}, terms of negative index absent.
    e_m/n! is that probability for S_m, so every division is exact. The
    right-hand sum slides with m, and only its t - 1 terms are stored.
    No cycle is longer than n, so Q_n = 0 when t > n.
    """
    t = spec.min_first_part(n)
    if t <= 1:
        return Fraction(1)
    if t > n:
        return Fraction(0)
    total = math.factorial(n)
    window = deque([total], maxlen=t - 1)
    s = total
    for m in range(1, n + 1):
        e = s // m
        if len(window) == window.maxlen:
            s -= window[0]
        window.append(e)
        s += e
    return 1 - Fraction(window[-1], total)


def exact_pzero(n: int, cap: int | None = None) -> Fraction:
    """P_n exactly: the sum over classes mu of |mu| * (zeros in column mu),
    over n! * p_n."""
    weighted = sum(col.count(0) * pt.class_size(mu) for mu, col in ch.class_columns(n, cap))
    return Fraction(weighted, math.factorial(n) * pt.partition_count(n))


class PzeroReport(NamedTuple):
    """Exact P_n as the pzero subcommand reports it."""
    n: int
    p: Fraction

    def to_text(self) -> str:
        return f"P_{self.n} = {rational_text(self.p)}\n"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "p": rational_json(self.p)}


class BoundReport(NamedTuple):
    """Everything the two-sided bound needs, exact.

    lower_bound = q_n - r_n may be negative (the bound is then vacuous);
    exact_p is present only when the full table was computed.
    """
    n: int
    p_n: int
    omega_count: int
    q_n: Fraction
    r_n: Fraction
    lower_bound: Fraction
    exact_p: Fraction | None

    def to_text(self) -> str:
        lines = [
            f"n = {self.n}", f"p_n = {self.p_n}", f"|Omega| = {self.omega_count}",
            f"Q_n = {rational_text(self.q_n)}",
            f"R_n = |Omega|/p_n = {rational_text(self.r_n)}",
            f"lower bound Q_n - R_n = {rational_text(self.lower_bound)}",
        ]
        if self.exact_p is not None:
            lines.append(f"exact P_n = {rational_text(self.exact_p)}")
            lines.append("bound check 1 >= P_n >= Q_n - R_n: OK")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "p_n": str(self.p_n),
            "omega_count": str(self.omega_count),
            "q_n": rational_json(self.q_n),
            "r_n": rational_json(self.r_n),
            "lower_bound": rational_json(self.lower_bound),
            "exact_p": rational_json(self.exact_p),
        }


def lemma_bound(
    n: int,
    spec: OmegaSpec | None = None,
    compute_exact: bool = False,
    cap: int | None = None,
) -> BoundReport:
    """Assemble the bound report for n >= 2.

    Q_n and |Omega| come from omega_probability and omega_count, which
    enumerate nothing, so without compute_exact no cap applies. With
    compute_exact, also evaluates P_n (the table cap is checked first) and
    asserts the sandwich 1 >= P_n >= Q_n - R_n in exact arithmetic; a
    violation would be an implementation bug, not a data condition.
    """
    if n < 2:
        raise ValueError("bound reports need n >= 2")
    if spec is None:
        spec = OmegaSpec()
    if compute_exact:
        pt.check_table_cap(n, cap)
    pn = pt.partition_count(n)
    count = omega_count(n, spec)
    q = omega_probability(n, spec)
    r = Fraction(count, pn)
    lower = q - r
    exact = exact_pzero(n, cap) if compute_exact else None
    if exact is not None and not (1 >= exact >= lower):
        raise AssertionError(
            f"bound violated at n={n}: P={exact}, Q-R={lower}; implementation bug"
        )
    return BoundReport(
        n=n, p_n=pn, omega_count=count,
        q_n=q, r_n=r, lower_bound=lower, exact_p=exact,
    )


def montecarlo_pzero(n: int, samples: int, seed: int = sp.DEFAULT_SEED,
                     cap: int | None = None) -> SampleSummary:
    """Estimate P_n from uniform ranks (chi) and cycle types mu (g), drawn
    as uniform_partition and random_cycle_type do; values by mn_value's sweep.

    The shape's bead mask comes from ch.rank_beads, 0 if no hook is mu_1
    long. If 4 W p_n <= samples, W = sp.share_count(samples), and p_n fits
    the cap, all p_n masks are built before sp.map_blocks forks (measured,
    that pays from about four samples per shape and share) and looked up
    by rank. A mask with no bead b >= mu_1 over an empty b - mu_1 has no
    mu_1-hook, so no mu_1-strip comes off: a zero without a sweep.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rows = pt.count_rows(n, cap)
    pn = rows[n][n]
    table = None
    if 4 * sp.share_count(samples) * pn <= samples and pn <= pt.enumeration_cap(cap):
        table = [ch.rank_beads(n, r, rows) for r in range(pn)]

    def block_zeros(rng, count):
        zeros = 0
        for _ in range(count):
            r = sp.uniform_below(pn, rng)
            mu = rng.cycle_lengths(n)
            t = mu[0]
            beads = table[r] if table is not None else ch.rank_beads(n, r, rows, t)
            if not (beads >> t) & ~beads or not ch._sweep(beads, mu):
                zeros += 1
        return zeros
    zeros = sum(sp.map_blocks(seed, samples, block_zeros))
    return SampleSummary.of(zeros, samples, seed,
                            {"n": n, "zeros": zeros, "statistic": "pzero"})


# -- cycle-count limit law -----------------------------------------------------

def limit_cdf(x: float) -> float:
    """CDF of the limit law with density exp(-t^2)/sqrt(pi): (1 + erf(x))/2."""
    return 0.5 * (1.0 + math.erf(x))


def ks_distance(values, cdf) -> float:
    """Two-sided one-sample Kolmogorov-Smirnov statistic of values vs cdf.
    A run of c equal values from sorted index i has its extremes at
    (i + c)/m - f and f - i/m, so cdf is read once per distinct value."""
    counts = Counter(values)
    m = counts.total()
    if m == 0:
        raise ValueError("need at least one value")
    d, i = 0.0, 0
    for x, c in sorted(counts.items()):
        f = cdf(x)
        d = max(d, (i + c) / m - f, f - i / m)
        i += c
    return d


class GoncharovSample(NamedTuple):
    """Normalized cycle counts of sampled permutations plus their KS
    distance to the limit law. The values are in the CSV form only.
    """
    n: int
    sample_count: int
    seed: int
    normalized_values: tuple[float, ...]
    ks_distance: float

    def to_text(self) -> str:
        return (f"cycle counts at n={self.n}: {self.sample_count} samples, seed {self.seed}\n"
                f"KS distance to limit law = {self.ks_distance!r}\n")

    def to_csv(self) -> str:
        return "\n".join(["normalized_value", *map(repr, self.normalized_values)]) + "\n"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "sample_count": self.sample_count,
                "seed": self.seed, "ks_distance": self.ks_distance}


def goncharov_experiment(n: int, samples: int, seed: int = sp.DEFAULT_SEED) -> GoncharovSample:
    """Sample cycle counts m of uniform permutations of S_n and normalize
    as (m - log n)/sqrt(2 log n), block by block through sp.map_blocks.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    center = math.log(n)
    scale = math.sqrt(2.0 * center)

    def block_values(rng, count):
        return [(len(rng.cycle_lengths(n)) - center) / scale for _ in range(count)]
    vals = [v for block in sp.map_blocks(seed, samples, block_values) for v in block]
    return GoncharovSample(
        n=n, sample_count=samples, seed=seed,
        normalized_values=tuple(vals),
        ks_distance=ks_distance(vals, limit_cdf),
    )


def long_cycle_frequency(n: int, samples: int, seed: int = sp.DEFAULT_SEED) -> SampleSummary:
    """Empirical probability that a uniform permutation of S_n has a cycle
    of length at least n/(2 log n), counted block by block by sp.map_blocks.
    """
    if n < 3:
        raise ValueError("n must be >= 3 (threshold needs log n > 0)")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    threshold = n / (2.0 * math.log(n))

    def block_hits(rng, count):
        return sum(rng.cycle_lengths(n)[0] >= threshold for _ in range(count))
    hits = sum(sp.map_blocks(seed, samples, block_hits))
    return SampleSummary.of(hits, samples, seed,
                            {"n": n, "hits": hits, "statistic": "long_cycle",
                             "threshold": threshold})
