"""The elimination kernel against the brute-force oracle."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cdgacyc import kernels, linalg

from oracles import rref_rank

matrices = st.integers(0, 6).flatmap(
    lambda nc: st.lists(
        st.lists(st.integers(-9, 9), min_size=nc, max_size=nc),
        min_size=0,
        max_size=6,
    ).map(lambda rows: (rows, nc))
)


def test_kernel_contract():
    # perfbench stamps KERNEL_NAME and wraps kernels.bareiss, which
    # reaches linalg only while linalg binds that very function.
    assert kernels.KERNEL_NAME == "python"
    assert linalg.bareiss is kernels.bareiss


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_rank_matches_naive_elimination(case):
    rows, ncols = case
    _, pivots = kernels.bareiss(rows, ncols)
    naive = rref_rank([[Fraction(v) for v in r] for r in rows])
    assert len(pivots) == naive


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_echelon_spans_row_space(case):
    rows, ncols = case
    echelon, pivots = kernels.bareiss(rows, ncols)
    assert pivots == sorted(pivots)
    assert len(echelon) == len(pivots)
    # every original row reduces to zero against the echelon
    for r in rows:
        r = [Fraction(v) for v in r]
        for erow in echelon:
            lead = next((j for j, v in enumerate(erow) if v), None)
            if lead is not None and r[lead]:
                f = r[lead] / erow[lead]
                r = [a - f * b for a, b in zip(r, erow)]
        assert not any(r)


def test_known_echelon():
    echelon, pivots = kernels.bareiss([[2, 4], [1, 2], [0, 3]], 2)
    assert pivots == [0, 1]
    assert echelon == [[1, 2], [0, 1]]
