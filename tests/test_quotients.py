"""Whole columns at the classes (t^k) against Littlewood's formula.

oracles.rectangular_value reads chi^lambda(t^k) off the t-quotient of
lambda on an abacus, with hook-length dimensions: a theorem other than the
Murnaghan-Nakayama rule that mn_value and the strip operators of
class_columns both apply. It sees a sign swapped between two rows of equal
|value|, which the column norms and the zero counts of exact_counts.json
cannot.
"""

import pytest

import oracles as orc
from snchar import characters as ch
from snchar import partitions as pt


def _rectangles(n: int) -> list[tuple[int, int]]:
    """(t, k) for each class (t^k) of S_n."""
    return [(t, n // t) for t in range(1, n + 1) if n % t == 0]


def _multipartitions(t: int, k: int) -> int:
    """Number of t-tuples of partitions of total size k: the q^k
    coefficient of prod_j (1 - q^j)^(-t)."""
    c = [1] + [0] * k
    for _ in range(t):
        for j in range(1, k + 1):
            for m in range(j, k + 1):
                c[m] += c[m - j]
    return c[k]


@pytest.mark.parametrize("n", range(1, 15))
def test_equals_mn_value(n):
    for t, k in _rectangles(n):
        for sh in pt.enumerate_partitions(n):
            assert orc.rectangular_value(sh, t, k) == ch.mn_value(sh, (t,) * k), (sh, t)


@pytest.mark.parametrize("n", [20, 24])
def test_equals_every_rectangular_column(n):
    shapes = pt.enumerate_partitions(n)
    columns = dict(ch.class_columns(n))
    for t, k in _rectangles(n):
        want = [orc.rectangular_value(sh, t, k) for sh in shapes]
        assert columns[(t,) * k] == want, (t, k)


@pytest.mark.parametrize("n", [*range(1, 15), 20, 24])
def test_nonzeros_count_multipartitions(n):
    # lambda is nonzero at (t^k) exactly when its t-core is empty, and the
    # t-quotient is then a bijection onto the t-multipartitions of k
    columns = dict(ch.class_columns(n))
    for t, k in _rectangles(n):
        nonzeros = len(columns[(t,) * k]) - columns[(t,) * k].count(0)
        assert nonzeros == _multipartitions(t, k), (t, k)


def test_multipartition_counts():
    assert [_multipartitions(1, k) for k in range(8)] == [pt.partition_count(k) for k in range(8)]
    assert [_multipartitions(2, k) for k in range(6)] == [1, 2, 5, 10, 20, 36]
    assert [_multipartitions(3, k) for k in range(5)] == [1, 3, 9, 22, 51]
