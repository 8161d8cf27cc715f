"""t-cores, an independent oracle for the zeros that need no sweep.

A shape with no hook of length t = mu_1 has chi(mu) = 0, and the Monte
Carlo loop of vanishing.montecarlo_pzero counts it as a zero without a
sweep. Such shapes are the t-cores, counted exactly by oracles.core_count;
oracles.hook_free_rate is the probability L_n that a uniform (chi, g) is
one, so L_n <= P_n, and the loop's rate of zeros without a sweep estimates
L_n.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

import oracles as orc
from snchar import characters as ch
from snchar import partitions as pt
from snchar import sampling as sp
from snchar import vanishing as vn

EXACT = json.loads((Path(__file__).parent / "exact_counts.json").read_text(encoding="utf-8"))


def _no_hook(beads: int, t: int) -> bool:
    """No bead b >= t over an empty b - t: no hook of length t."""
    return not (beads >> t) & ~beads


@pytest.mark.parametrize("n", range(1, 15))
def test_core_count_matches_a_count_of_bead_masks(n):
    rows = pt.count_rows(n)
    masks = [ch.rank_beads(n, r, rows) for r in range(rows[n][n])]
    for t in range(1, n + 2):
        assert orc.core_count(n, t) == sum(_no_hook(b, t) for b in masks), t
        if n < 2 * t <= 2 * n:
            # one t-hook leaves a shape of n - t < t, on one of t runners
            assert orc.core_count(n, t) == pt.partition_count(n) - t * pt.partition_count(n - t)


@pytest.mark.parametrize("n", range(1, 15))
def test_each_class_vanishes_on_its_cores(n):
    # for each class mu, the shapes with no hook of length mu_1 are the
    # mu_1-cores, and chi(mu) = 0 on every one of them
    rows = pt.count_rows(n)
    masks = [ch.rank_beads(n, r, rows) for r in range(rows[n][n])]
    for mu, col in ch.class_columns(n):
        cores = [r for r, b in enumerate(masks) if _no_hook(b, mu[0])]
        assert len(cores) == orc.core_count(n, mu[0]), mu
        assert all(col[r] == 0 for r in cores), mu


def test_hook_free_rate_is_below_exact_pzero():
    for n, counts in EXACT.items():
        assert orc.hook_free_rate(int(n)) <= Fraction(counts["p_n"]), n


@pytest.mark.parametrize("n, samples", [(20, 50_000), (100, 20_000)])
def test_montecarlo_zeros_without_a_sweep_estimate_hook_free_rate(monkeypatch, n, samples):
    # one share, so every sweep is made, and counted, in this process; the
    # table path (n = 20) and the parts path (n = 100) both make the test
    monkeypatch.setattr(sp, "_cpus", lambda: 1)
    sweep = ch._sweep
    sweeps = []

    def spy(beads, mu):
        sweeps.append(1)
        return sweep(beads, mu)

    monkeypatch.setattr(vn.ch, "_sweep", spy)
    vn.montecarlo_pzero(n, samples, seed=1)
    rate = (samples - len(sweeps)) / samples
    want = float(orc.hook_free_rate(n))
    se = math.sqrt(want * (1 - want) / samples)
    assert abs(rate - want) < 5 * se, (rate, want)
