import math
import sys
from fractions import Fraction

import pytest

import oracles as orc
from snchar import partitions as pt
from snchar.table_stats import SERIES_CSV_HEADER, series_csv, stats_series, table_stats


class TestCounts:
    def test_n1(self):
        s = table_stats(1)
        assert (s.zero_entries, s.positive_entries, s.negative_entries) == (0, 1, 0)
        assert s.sign_ratio is None

    def test_n2(self):
        s = table_stats(2)
        assert (s.zero_entries, s.positive_entries, s.negative_entries) == (0, 3, 1)
        assert s.sign_ratio == 3

    def test_n3(self):
        s = table_stats(3)
        assert (s.zero_entries, s.positive_entries, s.negative_entries) == (1, 6, 2)
        assert s.zero_density == Fraction(1, 9)
        assert s.sign_ratio == 3

    def test_n5_against_oracle_table(self):
        want = orc.oracle_character_table(5)
        zeros = positives = negatives = 0
        for row in want.values():
            for v in row.values():
                if v == 0:
                    zeros += 1
                elif v > 0:
                    positives += 1
                else:
                    negatives += 1
        s = table_stats(5)
        assert (s.zero_entries, s.positive_entries, s.negative_entries) == (
            zeros, positives, negatives,
        )

    def test_conservation_and_bounds(self):
        for n in range(1, 13):
            s = table_stats(n)
            pn = pt.partition_count(n)
            assert s.zero_entries + s.positive_entries + s.negative_entries == pn * pn
            assert s.positive_entries >= pn
            assert 0 <= s.zero_density < 1
            if n >= 3:
                assert s.zero_density > 0

    def test_json_dict(self):
        doc = table_stats(3).to_json_dict()
        assert doc["zeros"] == 1
        assert doc["zero_density"] == {"num": "1", "den": "9"}
        assert doc["sign_ratio"] == {"num": "3", "den": "1"}
        assert table_stats(1).to_json_dict()["sign_ratio"] is None


class TestSeries:
    def test_composition(self):
        assert stats_series(1, 3) == [table_stats(1), table_stats(2), table_stats(3)]

    def test_empty_range(self):
        assert stats_series(5, 4) == []

    def test_csv_shape(self):
        text = series_csv(stats_series(1, 4))
        lines = text.strip().split("\n")
        assert lines[0] == SERIES_CSV_HEADER
        assert len(lines) == 5
        row = lines[3].split(",")  # n=3
        assert row[0] == "3"
        assert row[1] == "3"
        assert row[2] == "1"
        assert row[6] == "1/9"
        assert row[7] == "3"
        assert float(row[5]) == pytest.approx(1 / 9, abs=1e-10)
        assert float(row[8]) == pytest.approx(abs(1 / 9 - 1 / math.e), abs=1e-9)
        assert float(row[9]) == pytest.approx(abs(1 / 9 - 1 / 3), abs=1e-9)

    def test_csv_undefined_ratio(self):
        text = series_csv(stats_series(1, 1))
        assert text.strip().split("\n")[1].split(",")[7] == "undefined"

    def test_csv_empty_series(self):
        assert series_csv([]) == SERIES_CSV_HEADER + "\n"


def test_package_name_is_the_function_not_the_module():
    # snchar re-exports table_stats by name, which shadows the submodule
    import snchar
    import snchar.table_stats

    assert snchar.table_stats is table_stats
    assert sys.modules["snchar.table_stats"].table_stats is table_stats
    assert sys.modules["snchar.table_stats"].__name__ == "snchar.table_stats"
