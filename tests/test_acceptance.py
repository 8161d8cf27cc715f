"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line (visible in captured output; pytest -v adds its own
verdict per criterion).

Criterion 7's distributional part is asserted faithfully and is expected
to fail: the normalized cycle-count statistic lives on a lattice whose
Kolmogorov-Smirnov distance to the continuous limit law is ~0.13 at
n = 10^4, far above the 0.02 tolerance; see the assertion message for the
numbers. No other criterion is affected.
"""

import json
import math
import random
from fractions import Fraction

import pytest
import scipy.stats

import oracles as orc
from snchar import characters as ch
from snchar import cli
from snchar import groups as gr
from snchar import partitions as pt
from snchar import sampling as sp
from snchar import vanishing as vn
from snchar.table_stats import SERIES_CSV_HEADER, series_csv, stats_series, table_stats


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> str:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    return line


def test_criterion_01_column_orthogonality():
    worst = None
    for n in range(1, 13):
        tbl = ch.character_table(n)
        for j, mu in enumerate(tbl.classes):
            got = sum(row[j] ** 2 for row in tbl.values)
            want = pt.centralizer_order(mu)
            if got != want:
                worst = (n, mu, got, want)
    line = _verdict(1, "column orthogonality n<=12", worst is None,
                    "sum chi(mu)^2 = z_mu exactly for every class")
    assert worst is None, line + f" at {worst}"


def test_criterion_02_dimension_consistency():
    for n in range(1, 21):
        total = sum(ch.dimension(s) ** 2 for s in pt.enumerate_partitions(n))
        assert total == math.factorial(n), _verdict(
            2, "dimension consistency", False, f"sum dim^2 != n! at n={n}"
        )
    for n in range(1, 15):
        e = (1,) * n
        for sh in pt.enumerate_partitions(n):
            if ch.mn_value(sh, e) != ch.dimension(sh):
                assert False, _verdict(
                    2, "dimension consistency", False,
                    f"identity value != hook dimension at {sh}",
                )
    _verdict(2, "dimension consistency", True,
             "sum dim^2 = n! (n<=20); identity column = hook dims (n<=14)")


def test_criterion_03_bound_sweep():
    rnd = random.Random(20250819)
    checked = 0
    for n in range(5, 21):
        # P_n does not depend on Omega: compute it once per n, with the
        # default spec, and hold every spec's Q_n - R_n against it.
        p = vn.lemma_bound(n, vn.OmegaSpec(), compute_exact=True).exact_p
        specs = [vn.OmegaSpec()]
        for _ in range(5):
            specs.append(vn.OmegaSpec(
                c=rnd.uniform(0.05, 3.0),
                f_mode=rnd.choice(["log", "const"]),
                f_const=rnd.uniform(0.0, 5.0),
                strict=rnd.random() < 0.5,
            ))
        for spec in specs:
            rep = vn.lemma_bound(n, spec)
            assert 1 >= p >= rep.lower_bound, _verdict(
                3, "exact bound sweep", False, f"violated at n={n}, {spec}"
            )
            checked += 1
    _verdict(3, "exact bound sweep", True,
             f"1 >= P_n >= Q_n - R_n exact for {checked} (n, spec) pairs,"
             " n in 5..20, default + 5 randomized specs each")


def test_criterion_04_exact_anchors():
    ok = (
        vn.exact_pzero(1) == 0
        and vn.exact_pzero(2) == 0
        and vn.exact_pzero(3) == Fraction(1, 6)
        and orc.oracle_pzero(1) == 0
        and orc.oracle_pzero(2) == 0
        and orc.oracle_pzero(3) == Fraction(1, 6)
    )
    line = _verdict(4, "exact anchors", ok,
                    "P_1 = P_2 = 0, P_3 = 1/6, matching the permutation-module oracle")
    assert ok, line


def test_criterion_05_trend():
    series = {n: vn.exact_pzero(n) for n in (5, 10, 15, 20)}
    readable = ", ".join(
        f"P_{n} = {p} ({float(p):.4f})" for n, p in series.items()
    )
    ok = series[20] > series[10] > series[5]
    line = _verdict(5, "vanishing-probability trend", ok, readable)
    assert ok, line


def test_criterion_06_montecarlo_agreement():
    devs = []
    for n in (3, 8, 15):
        exact = float(vn.exact_pzero(n))
        s = vn.montecarlo_pzero(n, 100_000)
        se = math.sqrt(exact * (1.0 - exact) / s.samples)
        devs.append((n, abs(s.estimate - exact) / se))
    ok = all(d < 5 for _, d in devs)
    line = _verdict(6, "Monte Carlo vs exact", ok,
                    "; ".join(f"n={n}: {d:.2f} sigma" for n, d in devs))
    assert ok, line


def test_criterion_07_cycle_count_limit_law():
    for i in range(100):
        x = -3.0 + i * 0.06
        assert abs(vn.limit_cdf(x) + vn.limit_cdf(-x) - 1.0) < 1e-12
    assert abs(vn.limit_cdf(0.0) - 0.5) < 1e-12
    g = vn.goncharov_experiment(10_000, 100_000)
    ok = g.ks_distance < 0.02
    line = _verdict(
        7, "cycle-count limit law", ok,
        f"limit_cdf identities hold to 1e-12; KS = {g.ks_distance:.4f}"
        " against tolerance 0.02",
    )
    assert ok, (
        line
        + ". The criterion is unattainable as stated: the sampled statistic"
        " (m - log n)/sqrt(2 log n) is supported on a lattice of spacing"
        " 1/sqrt(2 log n) ~ 0.233 at n = 10^4, because m is an integer."
        " The exact law of m puts ~0.13 mass on its modal point, so the"
        " step-function CDF of any sample from the true distribution stays"
        " at KS distance >= (max atom)/2 ~ 0.066 from every continuous CDF,"
        " and its distance to this limit law converges to the exact lattice"
        " value 0.1309 (computed from the exact distribution of m at"
        " n = 10^4), matching the observed 0.13. The sampler itself is"
        " correct: its cycle-count law is verified exactly against the"
        " enumerated distribution in the module tests."
    )


def test_criterion_08_long_cycle():
    threshold = 3 / (2 * math.log(3))
    exact3 = sum(
        Fraction(1, pt.centralizer_order(lam))
        for lam in pt.enumerate_partitions(3)
        if lam[0] >= threshold
    )
    s = vn.long_cycle_frequency(100, 100_000)
    ok = exact3 == Fraction(5, 6) and s.estimate > 0.99
    line = _verdict(8, "long-cycle ingredient", ok,
                    f"exact n=3 value {exact3}; n=100 estimate {s.estimate}")
    assert ok, line


def test_criterion_09_generic_group_path():
    data = gr.load_class_data(json.dumps(gr.symmetric_group_json(3)))
    rep = gr.proposition_bound(data, gr.default_omega(data))
    ok = (
        rep.q == Fraction(5, 6)
        and rep.r == Fraction(2, 3)
        and rep.lower_bound == Fraction(1, 6)
        and rep.exact_p == Fraction(1, 6)
    )
    small = {
        "trivial": gr.ClassData("trivial", 1, ("e",), (1,)),
    }
    for n in (2, 3, 4):
        small[f"s{n}"] = gr.load_class_data(
            json.dumps(gr.symmetric_group_json(n))
        )
    for name, d in small.items():
        rec = gr.best_omega_check(d)
        if not (rec.method == "exhaustive" and rec.default_is_max):
            ok = False
    line = _verdict(9, "generic-group bound", ok,
                    "Q = 5/6, R = 2/3, bound = 1/6 = exact P for exported"
                    " symmetric-3 data; default Omega maximal in all"
                    " exhaustive subset scans (k <= 5)")
    assert ok, line


def test_criterion_10_table_statistics():
    s3 = table_stats(3)
    ok = (s3.zero_entries, s3.positive_entries, s3.negative_entries) == (1, 6, 2)
    series = stats_series(5, 18)
    for s in series:
        pn = pt.partition_count(s.n)
        if s.zero_entries + s.positive_entries + s.negative_entries != pn * pn:
            ok = False
        if not (0 < s.zero_density < 1):
            ok = False
    csv = series_csv(series)
    if "abs_diff_inv_e" not in SERIES_CSV_HEADER or "abs_diff_one_third" not in csv:
        ok = False
    line = _verdict(10, "table entry statistics", ok,
                    "n=3 counts (1, 6, 2); conservation and density in (0,1)"
                    " for n in 5..18; reference-distance columns emitted")
    assert ok, line


def test_criterion_11_sampler_quality(capsys):
    samples = 100_000

    def chisq(fn, n, cells):
        counts = {}
        for block, take in sp.block_plan(samples):
            rng = sp.substream(sp.DEFAULT_SEED, block)
            for _ in range(take):
                lam = fn(n, rng)
                counts[lam] = counts.get(lam, 0) + 1
        return sum(
            (counts.get(lam, 0) - p * samples) ** 2 / (p * samples)
            for lam, p in cells.items()
        )

    cells10 = {
        lam: 1.0 / pt.partition_count(10) for lam in pt.enumerate_partitions(10)
    }
    cells6 = {
        lam: 1.0 / pt.centralizer_order(lam) for lam in pt.enumerate_partitions(6)
    }
    stat10 = chisq(sp.uniform_partition, 10, cells10)
    stat6 = chisq(sp.random_cycle_type, 6, cells6)
    crit10 = scipy.stats.chi2.ppf(0.999, len(cells10) - 1)
    crit6 = scipy.stats.chi2.ppf(0.999, len(cells6) - 1)

    def cli_bytes():
        assert cli.run(["mc-pzero", "6", "--samples", "2000",
                        "--format", "json"]) == 0
        return capsys.readouterr().out

    identical = cli_bytes() == cli_bytes()
    draws = lambda: [
        sp.uniform_partition(10, sp.substream(sp.DEFAULT_SEED, 0))
        for _ in range(200)
    ]
    identical = identical and draws() == draws()

    ok = stat10 < crit10 and stat6 < crit6 and identical
    line = _verdict(
        11, "sampler goodness of fit", ok,
        f"chi2(partition n=10) = {stat10:.1f} < {crit10:.1f};"
        f" chi2(cycle type n=6) = {stat6:.1f} < {crit6:.1f};"
        f" fixed seed byte-identical: {identical}",
    )
    assert ok, line
