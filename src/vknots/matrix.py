"""Exact determinants and minors over integral domains.

Entries may be LaurentPoly, LaurentPoly2, GaussianLaurent, or plain int:
anything supporting +, -, *, is_zero/bool and exact_div.  The Bareiss
routine is fraction-free (every intermediate value stays in the ring); it
backs ``fastdet.det_laurent2``, the generalized Alexander determinant, and
is the reference the tests and the benchmark check the quaternionic
engine of :mod:`vknots.fastdet` against.  A straightforward cofactor
expansion is kept as the independent oracle for Bareiss itself.
"""

from __future__ import annotations


def _is_zero(x):
    return (x.is_zero() if hasattr(x, "is_zero") else x == 0)


def _exact_div(a, b):
    if hasattr(a, "exact_div"):
        return a.exact_div(b)
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact integer division")
    return q


def det_bareiss(mat, one):
    """Fraction-free determinant of a square matrix.

    ``one`` is the multiplicative identity of the entry ring; it seeds the
    running pivot.  Rows are swapped as needed (with the usual sign flip)
    when a pivot vanishes.  The first step would divide by ``one``, so
    it skips the division.
    """
    n = len(mat)
    if n == 0:
        return one
    m = [row[:] for row in mat]
    sign = 1
    prev = one
    for k in range(n - 1):
        if _is_zero(m[k][k]):
            for r in range(k + 1, n):
                if not _is_zero(m[r][k]):
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                zero = m[k][k] - m[k][k]
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                x = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = _exact_div(x, prev) if k else x
            m[i][k] = m[k][k] - m[k][k]  # zero of the ring
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return d if sign > 0 else -d


def det_cofactor(mat):
    """Determinant by first-row cofactor expansion (reference oracle)."""
    n = len(mat)
    if n == 0:
        raise ValueError("empty matrix needs an explicit identity")
    if n == 1:
        return mat[0][0]
    zero = mat[0][0] - mat[0][0]
    acc = zero
    for j in range(n):
        if _is_zero(mat[0][j]):
            continue
        sub = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * det_cofactor(sub)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def minor_matrix(mat, rows, cols):
    """Submatrix obtained by deleting the given row and column index sets."""
    rset, cset = set(rows), set(cols)
    return [
        [e for c, e in enumerate(row) if c not in cset]
        for r, row in enumerate(mat)
        if r not in rset
    ]
