import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles as orc
from snchar import partitions as pt

# first values of the partition-count sequence, long known
PN_SMALL = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176]


@functools.cache
def _lex_desc(n):
    return orc._lex_desc_partitions(n)


def partitions_strategy(max_n=30):
    # any sorted list of small positive ints is a partition of its sum
    return st.lists(
        st.integers(min_value=1, max_value=12), min_size=0, max_size=8
    ).map(lambda xs: tuple(sorted(xs, reverse=True))).filter(
        lambda t: sum(t) <= max_n
    )


class TestCounting:
    def test_small_values(self):
        for n, want in enumerate(PN_SMALL):
            assert pt.partition_count(n) == want

    def test_known_large_values(self):
        assert pt.partition_count(100) == 190569292
        assert pt.partition_count(200) == 3972999029388

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pt.partition_count(-1)

    def test_bounded_count_agrees_with_pentagonal(self):
        # two unrelated recurrences computing the same sequence
        for n in range(0, 201, 7):
            assert orc.count_with_max_part(n, n) == pt.partition_count(n)

    def test_bounded_count_small_cases(self):
        assert orc.count_with_max_part(5, 2) == 3   # 2+2+1, 2+1+1+1, 1^5
        assert orc.count_with_max_part(6, 3) == 7
        assert orc.count_with_max_part(4, 0) == 0
        assert orc.count_with_max_part(0, 0) == 1
        assert orc.count_with_max_part(-2, 3) == 0

    def test_bounded_count_matches_enumeration(self):
        for n in range(0, 13):
            full = pt.enumerate_partitions(n)
            for k in range(0, n + 2):
                want = sum(1 for lam in full if not lam or lam[0] <= k)
                assert orc.count_with_max_part(n, k) == want

    def test_count_rows_match_the_recursion(self):
        rows = pt.count_rows(60)
        assert [len(row) for row in rows] == list(range(1, 62))
        for m, row in enumerate(rows):
            for k, c in enumerate(row):
                assert c == orc.count_with_max_part(m, k), (m, k)

    def test_count_rows_corner_is_pentagonal(self):
        # the count table and the pentagonal recurrence, two unrelated ways to p_n
        rows = pt.count_rows(200)
        for n in range(201):
            assert rows[n][n] == pt.partition_count(n)

    def test_count_rows_cap_counts_entries(self, monkeypatch):
        # rows 0..100 hold 101 * 102 / 2 = 5151 ints
        with pytest.raises(pt.CapExceededError, match="5151 entries"):
            pt.count_rows(100, cap=5150)
        assert len(pt.count_rows(100, cap=5151)) == 101
        monkeypatch.setenv(pt.CAP_ENV_VAR, "5150")
        with pytest.raises(pt.CapExceededError):
            pt.count_rows(100)


class TestEnumeration:
    def test_n4_order(self):
        assert pt.enumerate_partitions(4) == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
        ]

    def test_degenerate(self):
        assert pt.enumerate_partitions(0) == [()]
        assert pt.enumerate_partitions(1) == [(1,)]
        with pytest.raises(ValueError, match="nonnegative"):
            pt.enumerate_partitions(-1)

    def test_lengths(self):
        for n in (5, 12, 25, 40, 50):
            assert len(pt.enumerate_partitions(n)) == pt.partition_count(n)

    def test_strictly_descending_lex(self):
        seq = pt.enumerate_partitions(9)
        assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_all_valid_and_distinct(self):
        seq = pt.enumerate_partitions(11)
        assert len(set(seq)) == len(seq)
        for lam in seq:
            assert pt.as_partition(lam) == lam
            assert sum(lam) == 11

    def test_matches_independent_generator(self):
        # enumeration is unrank over the count table; check it against recursion
        for n in range(0, 26):
            assert pt.enumerate_partitions(n) == orc._lex_desc_partitions(n)

    def test_cap_enforced(self):
        with pytest.raises(pt.CapExceededError):
            pt.enumerate_partitions(100, cap=1000)

    def test_cap_refusal_costs_what_the_cap_allows(self, monkeypatch):
        # p_77 = 10,619,863 is the first count over the default cap, so a
        # refusal at n = 10^6 needs no p_m past m = 77
        monkeypatch.delenv(pt.CAP_ENV_VAR, raising=False)
        count = pt.partition_count
        seen = []

        def spy(m):
            seen.append(m)
            if m > 100:
                raise AssertionError(f"partition_count({m}) computed")
            return count(m)

        monkeypatch.setattr(pt, "partition_count", spy)
        with pytest.raises(pt.CapExceededError, match=r"p_n\^2 > p_77\^2 = "):
            pt.check_table_cap(10**6)
        with pytest.raises(pt.CapExceededError, match=r"p_1000000 > p_77 = 10619863 "):
            pt.enumerate_partitions(10**6)
        assert seen and max(seen) == 77
        # where the walk reaches n, the message names p_n itself
        with pytest.raises(pt.CapExceededError, match=r"^p_12 = 77 exceeds"):
            pt.enumerate_partitions(12, cap=76)

    @pytest.mark.parametrize("n", range(15))
    def test_cap_admits_exactly_p_n(self, n):
        # the counting table read after the p_n check is not checked again,
        # though for n <= 13 its (n + 1)(n + 2)/2 ints outnumber p_n
        pn = pt.partition_count(n)
        assert pt.enumerate_partitions(n, cap=pn) == orc._lex_desc_partitions(n)
        if pn == 1:
            return  # the CLI accepts no cap below 1
        with pytest.raises(pt.CapExceededError,
                           match=rf"^p_{n} = {pn} exceeds enumeration cap {pn - 1}$"):
            pt.enumerate_partitions(n, cap=pn - 1)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv(pt.CAP_ENV_VAR, "5")
        with pytest.raises(pt.CapExceededError):
            pt.enumerate_partitions(10)
        assert pt.enumerate_partitions(10, cap=100)

    def test_bounded_generator_matches_filter(self):
        for n in range(0, 9):
            full = pt.enumerate_partitions(n)
            for k in range(0, n + 1):
                want = [lam for lam in full if not lam or lam[0] <= k]
                assert list(orc.bounded_partitions(n, k)) == want


class TestRanking:
    def test_anchors(self):
        assert pt.unrank(4, 0) == (4,)
        assert pt.unrank(4, 4) == (1, 1, 1, 1)
        assert pt.unrank(0, 0) == ()

    def test_roundtrip_exhaustive(self):
        for n in (0, 1, 7, 10, 20):
            for r, lam in enumerate(orc._lex_desc_partitions(n)):
                assert pt.unrank(n, r) == lam

    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            pt.unrank(5, pt.partition_count(5))
        with pytest.raises(ValueError):
            pt.unrank(5, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            pt.unrank(-1, 0)

    @pytest.mark.parametrize("n", [100, 420, 1000])
    def test_unrank_matches_reference_scan(self, n):
        rows = pt.count_rows(n)
        rng = random.Random(n)
        for _ in range(40):
            r = rng.randrange(pt.partition_count(n))
            lam = orc.reference_unrank(n, r)
            assert pt.unrank(n, r, rows) == lam
        assert pt.unrank(n, r) == lam

    def test_roundtrip_with_passed_rows(self):
        rows = pt.count_rows(30)
        for n in (0, 1, 17, 30):
            want = orc._lex_desc_partitions(n)
            for r in range(0, len(want), 7):
                assert pt.unrank(n, r, rows) == want[r]

    @given(partitions_strategy())
    def test_roundtrip_property(self, lam):
        n = sum(lam)
        r = _lex_desc(n).index(lam)
        assert pt.unrank(n, r) == lam


class TestClassAttributes:
    def test_conjugate_anchors(self):
        assert pt.conjugate((4,)) == (1, 1, 1, 1)
        assert pt.conjugate((3, 1, 1)) == (3, 1, 1)
        assert pt.conjugate(()) == ()

    def test_conjugate_involution(self):
        for n in range(0, 16):
            for lam in pt.enumerate_partitions(n):
                assert pt.conjugate(pt.conjugate(lam)) == lam

    def test_centralizer_anchors(self):
        assert pt.centralizer_order((1, 1, 1)) == 6
        assert pt.centralizer_order((3,)) == 3
        assert pt.centralizer_order((2, 1)) == 2
        assert pt.centralizer_order((2, 2, 1)) == 8

    def test_class_sizes_match_brute_force(self):
        for n in range(1, 7):
            sizes = orc.brute_classes(n)
            for lam, size in sizes.items():
                assert pt.class_size(lam) == size
                assert pt.centralizer_order(lam) == math.factorial(n) // size

    def test_class_sizes_partition_group(self):
        for n in range(1, 31):
            lams = pt.enumerate_partitions(n)
            assert sum(pt.class_size(l) for l in lams) == math.factorial(n)
            assert sum(Fraction(1, pt.centralizer_order(l)) for l in lams) == 1

    @given(partitions_strategy())
    def test_conjugate_preserves_class_size_parity_free_facts(self, lam):
        # transpose fixes the size and the largest part <-> part count swap
        conj = pt.conjugate(lam)
        assert sum(conj) == sum(lam)
        if lam:
            assert conj[0] == len(lam)
            assert len(conj) == lam[0]


class TestValidation:
    def test_as_partition_rejects_increasing(self):
        with pytest.raises(ValueError):
            pt.as_partition((1, 2))

    def test_as_partition_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pt.as_partition((3, 0))
        with pytest.raises(ValueError):
            pt.as_partition((3, -1))

    def test_as_partition_rejects_non_integer(self):
        # bool is an int subclass, yet (2, True) is no partition of 3
        for parts in ((2.5, 1), (2, True), (True,)):
            with pytest.raises(ValueError):
                pt.as_partition(parts)

    def test_format(self):
        assert pt.format_partition((3, 1, 1)) == "3-1-1"
        assert pt.format_partition(()) == ""
