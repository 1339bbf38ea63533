"""The Fraction entries of a package matrix, for tests that compare them
with hand-written or brute-force values."""

from fractions import Fraction


def entries(m):
    """{(row, col): nonzero Fraction} of a SparseMatrix, read off its
    integer form."""
    den, nums = m.integer()
    return {k: Fraction(v, den) for k, v in nums.items()}
