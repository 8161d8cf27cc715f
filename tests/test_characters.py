import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles as orc
from snchar import characters as ch
from snchar import partitions as pt
from snchar import vanishing as vn
from snchar.table_stats import table_stats


def _same_n_pairs(max_n=12):
    def build(draw_n, seed_a, seed_b):
        lams = pt.enumerate_partitions(draw_n)
        return lams[seed_a % len(lams)], lams[seed_b % len(lams)]

    return st.builds(
        build,
        st.integers(min_value=1, max_value=max_n),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )


def _pairs_with_fixed_points(max_n=40):
    """(shape, mu) of one n <= max_n, where mu ends in a drawn run of ones."""
    def build(n, ones, seed_a, seed_b):
        ones = ones % (n + 1)
        shape = pt.unrank(n, seed_a % pt.partition_count(n))
        head = pt.unrank(n - ones, seed_b % pt.partition_count(n - ones))
        return shape, head + (1,) * ones

    return st.builds(
        build,
        st.integers(min_value=1, max_value=max_n),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    )


class TestSingleValues:
    def test_trivial_character_is_one(self):
        for n in range(1, 9):
            for mu in pt.enumerate_partitions(n):
                assert ch.mn_value((n,), mu) == 1

    def test_sign_character(self):
        for n in range(1, 9):
            col = (1,) * n
            for mu in pt.enumerate_partitions(n):
                assert ch.mn_value(col, mu) == (-1) ** (n - len(mu))

    def test_standard_zero(self):
        assert ch.mn_value((2, 1), (2, 1)) == 0

    def test_bare_sweep_matches_mn_value(self):
        # the Monte Carlo loop calls the sweep on bead masks directly
        for n in range(1, 9):
            lams = pt.enumerate_partitions(n)
            for sh in lams:
                beads = orc.bead_mask(sh)
                for mu in lams:
                    assert ch._sweep(beads, mu) == ch.mn_value(sh, mu), (sh, mu)

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            ch.mn_value((3,), (2, 2))
        with pytest.raises(ValueError):
            ch.mn_value((), ())

    def test_matches_oracle_tables(self):
        for n in range(1, 6):
            want = orc.oracle_character_table(n)
            for sh in pt.enumerate_partitions(n):
                for mu in pt.enumerate_partitions(n):
                    assert ch.mn_value(sh, mu) == want[sh][mu], (sh, mu)

    def test_identity_column_equals_dimension(self):
        for n in range(1, 11):
            e = (1,) * n
            for sh in pt.enumerate_partitions(n):
                assert ch.mn_value(sh, e) == ch.dimension(sh)

    def test_deep_mu_does_not_hit_recursion_limit(self):
        # 3000 parts would blow the interpreter stack under naive recursion
        n = 3000
        assert ch.mn_value((n,), (1,) * n) == 1
        assert ch.mn_value((1,) * n, (1,) * n) == 1
        # many shapes per layer across 2000 layers, not only one row or column
        assert ch.mn_value((1990, 10), (1,) * 2000) == ch.dimension((1990, 10))

    @given(_same_n_pairs())
    def test_conjugation_symmetry(self, pair):
        sh, mu = pair
        n = sum(sh)
        sign = (-1) ** (n - len(mu))
        assert ch.mn_value(pt.conjugate(sh), mu) == sign * ch.mn_value(sh, mu)

    @given(_same_n_pairs(max_n=10))
    def test_value_matches_table(self, pair):
        sh, mu = pair
        tbl = ch.character_table(sum(sh))
        i, j = tbl.characters.index(sh), tbl.classes.index(mu)
        assert ch.mn_value(sh, mu) == tbl.values[i][j]


class TestReferenceKernel:
    """The bead-mask kernel against the sorted-beta-list kernel it replaced."""

    def test_every_pair_up_to_12(self):
        for n in range(1, 13):
            labels = pt.enumerate_partitions(n)
            memo = {}
            for sh in labels:
                for mu in labels:
                    want = orc.reference_mn(sh, mu, memo)
                    assert ch.mn_value(sh, mu) == want, (sh, mu)

    @settings(max_examples=150)
    @given(_pairs_with_fixed_points())
    def test_random_pairs_up_to_40(self, pair):
        sh, mu = pair
        assert ch.mn_value(sh, mu) == orc.reference_mn(sh, mu, {})


class TestDimension:
    def test_anchors(self):
        assert ch.dimension((5,)) == 1
        assert ch.dimension((2, 1)) == 2
        assert ch.dimension((3, 2)) == 5

    def test_against_tableau_counting(self):
        for n in range(1, 8):
            for sh in pt.enumerate_partitions(n):
                assert ch.dimension(sh) == orc.count_standard_tableaux(sh)

    def test_sum_of_squares(self):
        for n in range(1, 13):
            total = sum(ch.dimension(s) ** 2 for s in pt.enumerate_partitions(n))
            assert total == math.factorial(n)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ch.dimension(())


class TestTable:
    def test_n1_n2(self):
        assert ch.character_table(1).values == ((1,),)
        t2 = ch.character_table(2)
        assert t2.characters == ((2,), (1, 1))
        # columns ((2), (1,1)): the sign character is -1 on transpositions
        assert t2.values == ((1, 1), (-1, 1))

    def test_n3_single_zero(self):
        t3 = ch.character_table(3)
        zeros = [
            (sh, mu)
            for i, sh in enumerate(t3.characters)
            for j, mu in enumerate(t3.classes)
            if t3.values[i][j] == 0
        ]
        assert zeros == [((2, 1), (2, 1))]

    def test_column_orthogonality(self):
        for n in range(1, 9):
            tbl = ch.character_table(n)
            for j, mu in enumerate(tbl.classes):
                s = sum(row[j] ** 2 for row in tbl.values)
                assert s == pt.centralizer_order(mu)

    def test_mixed_column_orthogonality(self):
        for n in range(2, 9):
            tbl = ch.character_table(n)
            k = len(tbl.classes)
            for j in range(k):
                for l in range(j + 1, k):
                    assert sum(row[j] * row[l] for row in tbl.values) == 0

    def test_row_orthogonality(self):
        for n in range(1, 8):
            tbl = ch.character_table(n)
            zs = [pt.centralizer_order(mu) for mu in tbl.classes]
            for a, ra in enumerate(tbl.values):
                for b, rb in enumerate(tbl.values):
                    got = sum(
                        Fraction(x * y, z) for x, y, z in zip(ra, rb, zs)
                    )
                    assert got == (1 if a == b else 0)

    def test_matches_oracle_tables(self):
        for n in range(1, 8):
            want = orc.oracle_character_table(n)
            tbl = ch.character_table(n)
            got = {
                sh: dict(zip(tbl.classes, row))
                for sh, row in zip(tbl.characters, tbl.values)
            }
            assert got == want

    @pytest.mark.parametrize("n", [9, 14])
    def test_conjugate_fill_matches_reference(self, n):
        labels = pt.enumerate_partitions(n)
        assert any(pt.conjugate(sh) == sh for sh in labels)
        memo = {}
        want = tuple(
            tuple(orc.reference_mn(sh, mu, memo) for mu in labels)
            for sh in labels
        )
        assert ch.character_table(n).values == want

    def test_cap(self):
        with pytest.raises(pt.CapExceededError):
            ch.character_table(30, cap=100)

    def test_cap_counts_entries_not_labels(self):
        # p_10 = 42 fits a cap of 100, but the 42^2 = 1764 entries do not
        with pytest.raises(pt.CapExceededError, match=r"p_n\^2 = 1764"):
            ch.character_table(10, cap=100)
        assert ch.character_table(10, cap=42 * 42).n == 10

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            ch.character_table(0)

    def test_csv_n3(self):
        want = (
            "shape,3,2-1,1-1-1\n"
            "3,1,1,1\n"
            "2-1,-1,0,2\n"
            "1-1-1,1,-1,1\n"
        )
        assert ch.character_table(3).to_csv() == want

    def test_json_dict(self):
        doc = ch.character_table(3).to_json_dict()
        assert doc["n"] == 3
        assert doc["characters"] == ["3", "2-1", "1-1-1"]
        assert doc["classes"] == ["3", "2-1", "1-1-1"]
        assert doc["values"][1] == ["-1", "0", "2"]

    # SHA-256 of `snchar table n --format text`, n = 1..10
    TEXT_SHA256 = {
        1: "b2af96a52c7e4657ff37ecc6a3b1ccb81f6ea87b87046c242c7ce00f05e3888f",
        2: "211ee863c39398a1c9b6de60848773c0ec7ef2dc6808e07df00eaf165d65fe2a",
        3: "bdd8b052cc4b6a6ed38455210da4e63e35ab8358fb314ff97013b832fa4aca1e",
        4: "eaf8e6d324567ac35a8696a939ee76ee110a626cb5f7be76829082bfc742e6f1",
        5: "1b7459694febea86ec81452a9c0b49fea31c53f3a1b3a6a2c7b187a9be9a2ff1",
        6: "069055df331e65296d0d79ed63605c46ebf618c0318447f87db9c33794889361",
        7: "79dbd3ce117f76354bdb462bd596b40b89b9fa76f5169dce4ebf3df40b22069d",
        8: "6739a584056cfffa879245cde162f4863bf225628a75829ddb9620a769622a5b",
        9: "93c28c64ea49663f0034304c536761c45ee0143c64026ad0b95aa9a9e9bb80c4",
        10: "bb4468a624d3012c0bd1337df9484005089bc67e97cd4d98e42fe63346f3f272",
    }

    @pytest.mark.parametrize("n", sorted(TEXT_SHA256))
    def test_text_is_pinned(self, n):
        text = ch.character_table(n).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == self.TEXT_SHA256[n]

    def test_formats_read_the_same_rows(self):
        tbl = ch.character_table(6)
        rows = list(tbl.rows())
        doc = tbl.to_json_dict()
        assert rows[0] == ["shape", *doc["classes"]]
        labels, cells = doc["characters"], doc["values"]
        assert rows[1:] == [[lab, *row] for lab, row in zip(labels, cells)]
        assert tbl.to_csv().splitlines() == [",".join(row) for row in rows]


class TestColumnStream:
    def test_readers_match_the_table(self):
        for n in range(1, 13):
            tbl = ch.character_table(n)
            want = [
                (mu, [row[j] for row in tbl.values])
                for j, mu in enumerate(tbl.classes)
            ]
            assert dict(ch.class_columns(n)) == dict(want)

            p = sum(
                Fraction(col.count(0), pt.centralizer_order(mu))
                for mu, col in want
            ) / len(tbl.classes)
            assert vn.exact_pzero(n) == p

            entries = [v for row in tbl.values for v in row]
            s = table_stats(n)
            assert s.zero_entries == sum(1 for v in entries if v == 0)
            assert s.positive_entries == sum(1 for v in entries if v > 0)
            assert s.negative_entries == sum(1 for v in entries if v < 0)


class TestClassColumns:
    """The trie walk of sparse strip operators, in its own (depth-first) order."""

    def test_matches_reference_up_to_14(self):
        for n in range(1, 15):
            labels = pt.enumerate_partitions(n)
            memo = {}
            want = {
                mu: [orc.reference_mn(sh, mu, memo) for sh in labels]
                for mu in labels
            }
            assert dict(ch.class_columns(n)) == want, n

    def test_each_class_once_up_to_20(self):
        for n in range(1, 21):
            classes = [mu for mu, _ in ch.class_columns(n)]
            assert len(classes) == pt.partition_count(n)
            assert set(classes) == set(pt.enumerate_partitions(n))

    def test_column_norms_at_20(self):
        for mu, col in ch.class_columns(20):
            assert sum(v * v for v in col) == pt.centralizer_order(mu), mu

    @pytest.mark.parametrize("n", [1, 2, 20, 24])
    def test_builds_before_the_first_column_what_it_applies(self, n, monkeypatch):
        """n + sum of r // 2 over r <= n operators, all built by the first
        column, each applied at least once by the end of the walk."""
        want = n + sum(r // 2 for r in range(n + 1))
        built, applied = [], set()

        def spy(src, dst, t, real=ch._operator):
            apply, k = real(src, dst, t), len(built)
            built.append(k)
            return lambda vec: applied.add(k) or apply(vec)

        monkeypatch.setattr(ch, "_operator", spy)
        stream = ch.class_columns(n)
        next(stream)
        assert len(built) == want
        assert 1 + sum(1 for _ in stream) == pt.partition_count(n)
        assert len(built) == want and applied == set(built)

    def test_cap_before_any_value(self):
        stream = ch.class_columns(10, cap=100)
        with pytest.raises(pt.CapExceededError, match=r"p_n\^2 = 1764"):
            next(stream)
