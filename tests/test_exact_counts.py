"""Exact P_n and table entry counts against a recorded fixture.

exact_counts.json holds P_n (as num/den) and the zero, positive and
negative entry counts of the character table of S_n for n = 1..30, as
exact_pzero and table_stats computed them at cap 40,000,000. The exact
paths are checked against it up to n = 20, so a rewrite of the table
walk or the sign count has a fixed target.
"""

import json
import os
from fractions import Fraction

import pytest

from snchar import partitions as pt
from snchar import vanishing as vn
from snchar.table_stats import table_stats

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "exact_counts.json"), encoding="utf-8") as fh:
    COUNTS = json.load(fh)


@pytest.mark.parametrize("n", range(1, 21))
def test_exact_path_matches_fixture(n):
    want = COUNTS[str(n)]
    assert vn.exact_pzero(n) == Fraction(want["p_n"])
    s = table_stats(n)
    assert (s.zero_entries, s.positive_entries, s.negative_entries) == (
        want["zeros"], want["positives"], want["negatives"])


def test_fixture_covers_each_table():
    assert sorted(map(int, COUNTS)) == list(range(1, 31))
    for n, row in COUNTS.items():
        total = row["zeros"] + row["positives"] + row["negatives"]
        assert total == pt.partition_count(int(n)) ** 2, n
        assert 0 <= Fraction(row["p_n"]) < 1, n


def test_fixture_agrees_with_the_benchmark_pin():
    with open(os.path.join(os.path.dirname(HERE), "perfbench", "expected.json"),
              encoding="utf-8") as fh:
        pinned = json.load(fh)["exact_pzero"]["20"]
    assert COUNTS["20"]["p_n"] == pinned
