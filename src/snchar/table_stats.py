"""Sign and zero counts over full character tables of S_n.

These statistics weight all p_n^2 table entries equally (character and
class both uniform), which is a different measure from the class-size
weighting used for P_n; both get reported so the distinction stays
visible. No limiting value is asserted anywhere: the series exists for
inspection, with reference distances to 1/e and 1/3 included. StatsReport
holds a series and renders it as text, as series_csv and as JSON.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from . import characters as ch
from . import partitions as pt
from .groups import rational_json, rational_text


class TableStats(NamedTuple):
    """Entry counts of the p_n x p_n character table.

    sign_ratio is positives/negatives, or None when there are no negative
    entries (n <= 2); exact reports carry no sentinel numerics.
    """
    n: int
    zero_entries: int
    positive_entries: int
    negative_entries: int
    zero_density: Fraction
    sign_ratio: Fraction | None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "zeros": self.zero_entries,
            "positives": self.positive_entries,
            "negatives": self.negative_entries,
            "zero_density": rational_json(self.zero_density),
            "sign_ratio": rational_json(self.sign_ratio),
        }


def table_stats(n: int, cap: int | None = None) -> TableStats:
    """Exact zero/positive/negative counts for the table of S_n, taken one
    column at a time.
    """
    entries = zeros = negatives = 0
    for _, col in ch.class_columns(n, cap):
        entries += len(col)
        zeros += col.count(0)
        negatives += sum(1 for v in col if v < 0)
    positives = entries - zeros - negatives
    pn = pt.partition_count(n)
    total = pn * pn
    # every int is 0, > 0 or < 0, so this checks only sum len(col) = p_n^2
    if zeros + positives + negatives != total:
        raise AssertionError(f"entry counts do not cover the table at n={n}")
    return TableStats(
        n=n,
        zero_entries=zeros,
        positive_entries=positives,
        negative_entries=negatives,
        zero_density=Fraction(zeros, total),
        sign_ratio=None if negatives == 0 else Fraction(positives, negatives),
    )


def stats_series(n_min: int, n_max: int, cap: int | None = None) -> list[TableStats]:
    """table_stats for each n in [n_min, n_max]; empty when n_min > n_max.

    A non-empty range is checked for n_min >= 1, then the cap for n_max,
    before any table work.
    """
    if n_min <= n_max:
        if n_min < 1:
            raise ValueError("n must be positive")
        pt.check_table_cap(n_max, cap)
    return [table_stats(n, cap) for n in range(n_min, n_max + 1)]


SERIES_CSV_HEADER = (
    "n,p_n,zeros,positives,negatives,"
    "zero_density,zero_density_fraction,sign_ratio,"
    "abs_diff_inv_e,abs_diff_one_third"
)


def series_csv(series) -> str:
    """CSV rendering of a TableStats sequence.

    zero_density appears both as a 10-place decimal and as the exact
    fraction; the last two columns are |density - 1/e| and |density - 1/3|
    (reference distances only, nothing is asserted about them).
    """
    lines = [SERIES_CSV_HEADER]
    for s in series:
        d = float(s.zero_density)
        ratio = "undefined" if s.sign_ratio is None else str(s.sign_ratio)
        lines.append(
            f"{s.n},{pt.partition_count(s.n)},{s.zero_entries},"
            f"{s.positive_entries},{s.negative_entries},"
            f"{d:.10f},{s.zero_density},{ratio},"
            f"{abs(d - 1.0 / math.e):.10f},{abs(d - 1.0 / 3.0):.10f}"
        )
    return "\n".join(lines) + "\n"


class StatsReport(NamedTuple):
    """The table-stats subcommand's report: one TableStats per n."""
    series: list[TableStats]

    def to_text(self) -> str:
        return "".join(
            f"n={s.n}: zeros {s.zero_entries}, positives {s.positive_entries},"
            f" negatives {s.negative_entries},"
            f" zero density {rational_text(s.zero_density)}, sign ratio"
            f" {'undefined' if s.sign_ratio is None else rational_text(s.sign_ratio)}\n"
            for s in self.series
        ) or "empty range\n"

    def to_csv(self) -> str:
        return series_csv(self.series)

    def to_json_dict(self) -> dict:
        return {"series": [s.to_json_dict() for s in self.series]}
