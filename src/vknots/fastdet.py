"""Exact determinants of Laurent-polynomial matrices.

A determinant over Z[s, s^-1, t, t^-1] (``det_laurent2``) is taken by the
fraction-free Bareiss routine of :mod:`vknots.matrix`: the relation
matrices it sees are small once reduced by unit pivots.

Quaternionic matrices.  An m x m matrix Q over H[t, t^-1] (quaternions
w + x i + y j + z k with integer Laurent coefficients) is read as the
lists of its four components, ``QuaternionSetup``.  Its complex doubling
A is the 2m x 2m matrix over Z[i][t, t^-1] of blocks [[w + x i, y + z i],
[-y + z i, w - x i]] = [[a, b], [-conj b, conj a]], and det A is the
Study determinant of Q (Aslaksen, "Quaternionic determinants", Math.
Intelligencer 18, 1996).  conj A = S A S^-1 with S the block-diagonal
matrix of blocks [[0, 1], [-1, 0]] and det S = 1.  Hence det A is real,
and so is every minor that deletes whole block rows and block columns,
since deleting block r of S leaves a matrix of the same form: such a
minor is the Study determinant of Q without row r and column c.

Coefficient bound.  On |t| = 1 an entry e = sum_k c_k t^k with K nonzero
coefficients has |e| <= sum_k |c_k|.  The square of that is at most
l1(e)^2 = (sum_k |Re c_k| + |Im c_k|)^2 and, by Cauchy-Schwarz, at most
K sum_k |c_k|^2; the smaller of these two integers is the entry's weight
(for real coefficients it is always l1(e)^2, for a single term c t^k it is
|c|^2).  By Hadamard's inequality |det| <= prod_r (sum_j weight(e_rj))^(1/2)
there, and each coefficient of det, a Fourier coefficient on the circle,
obeys the same bound (Goldstein & Graham, "A Hadamard-type bound on the
coefficients of a determinant of polynomials", SIAM Review 16, 1974).
Row r of Q stands for two rows of A with the same shift, degree and
weight sum_c weight(w + x i) + weight(y + z i), so every coefficient of
det A is at most L = prod_r weight_r in absolute value.  Monomial row
shifts keep |entry| on the circle and deleting columns only lowers row
weights and degrees, so a block minor is bounded by the shifts, degrees
and weights of the rows it keeps.

Kronecker substitution and Bareiss.  With the rows shifted, put t = 2^B
with 2^(B-1) > L + 1 and evaluate each entry's four components as Python
ints.  t -> 2^B is a ring map, so det A(2^B) = (det A)(2^B).  That is
taken by fraction-free elimination over Z[i] in the two-step form of
Bareiss ("Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968), one 2 x 2 block of the doubling per
step.  By Sylvester's identity the values after k steps are the minors
of A(2^B) on its first 2k rows and columns and one row and one column
more; they make up d_k times the doubling of the Schur complement R of
Q's leading k x k block, d_k the (real) Study determinant of that block.
The next pivot block is the doubling of p = R_kk: its determinant is
N(p) = p conj(p) and its adjugate the doubling of conj(p).  Since the
doubling is a ring map, the two-step rule reads on quaternions

    R'_ij = (N(p) R_ij - R_ik conj(p) R_kj) / d_k^2,   d_{k+1} = N(p) / d_k,

every division exact, and d_m = det A(2^B).  Swapping two rows of Q
swaps two pairs of rows of A, so no sign arises, and a column of Q with
no pivot left means det A(2^B) = 0.  Every coefficient of det A is below
2^(B-1) in absolute value, so they are the digits of det A(2^B) in
balanced base 2^B (Kronecker substitution; von zur Gathen & Gerhard,
*Modern Computer Algebra*, 3rd ed. 2013, section 8.4), and a nonzero
polynomial with such coefficients has every root below 2^(B-1) in
absolute value (Cauchy's bound), so det A(2^B) = 0 only when det A = 0.
A remainder in a division or a digit past degree D raises
ArithmeticError: neither can happen.  A block minor is the same
computation on the submatrix of Q, with the bound of its kept rows.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .laurent import LaurentPoly, LaurentPoly2
from .matrix import det_bareiss


def _qmul(p, q):
    """The product of quaternions given as (w, x, y, z) tuples of ints."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def _study_bareiss(q):
    """The Study determinant of a square matrix of integer quaternions
    (w, x, y, z), by Bareiss's two-step elimination on its doubling, one
    2 x 2 block at a time (see the module docstring); q is overwritten."""
    m = len(q)
    d = 1  # the Study determinant of the leading k x k block
    for k in range(m):
        src = next((i for i in range(k, m) if any(q[i][k])), None)
        if src is None:
            return 0
        q[k], q[src] = q[src], q[k]  # two row swaps of the doubling
        prow = q[k]
        w, x, y, z = prow[k]
        conj, norm, dd = (w, -x, -y, -z), w * w + x * x + y * y + z * z, d * d
        for row in q[k + 1 :]:
            f = _qmul(row[k], conj)
            for j in range(k + 1, m):
                g0, g1, g2, g3 = _qmul(f, prow[j])
                e0, e1, e2, e3 = row[j]
                q0, r0 = divmod(norm * e0 - g0, dd)
                q1, r1 = divmod(norm * e1 - g1, dd)
                q2, r2 = divmod(norm * e2 - g2, dd)
                q3, r3 = divmod(norm * e3 - g3, dd)
                if r0 or r1 or r2 or r3:
                    raise ArithmeticError("inexact Bareiss division")
                row[j] = (q0, q1, q2, q3)
        d, r = divmod(norm, d)
        if r:
            raise ArithmeticError("inexact Bareiss division")
    return d


def _study_kronecker(rows, shifts, degs, weights):
    """The Study determinant of a square matrix over H[t, t^-1] with no
    zero row: rows[r][c] holds entry (r, c) as four coefficient lists, and
    shifts, degs and weights bound row r as in QuaternionSetup.  The matrix
    is evaluated at t = 2^B, its Study determinant taken by _study_bareiss,
    and the coefficients read back in balanced base 2^B (see the module
    docstring)."""
    B = (prod(weights) + 1).bit_length() + 1  # 2^(B-1) > prod(weights) + 1

    def at(cs):  # sum_d cs[d] 2^(B d)
        v = 0
        for c in reversed(cs):
            v = (v << B) + c
        return v

    value = _study_bareiss([[tuple(map(at, entry)) for entry in row] for row in rows])
    half, mask, out = 1 << (B - 1), (1 << B) - 1, {}
    shift = 2 * sum(shifts)
    for d in range(2 * sum(degs) + 1):
        c = ((value + half) & mask) - half
        if c:
            out[d + shift] = c
        value = (value - c) >> B
    if value:
        raise ArithmeticError("Study determinant past its degree bound")
    return LaurentPoly(out)


class QuaternionSetup(NamedTuple):
    """An m x m matrix over H[t, t^-1] in the form the engine reads.

    Each row is shifted by a monomial so its least exponent is 0.
    coeffs[r][c][k][d], nested lists of Python ints of shape
    (m, m, 4, deg + 1), is the coefficient of t^d in component k (of 1, i,
    j, k) of entry (r, c).  shifts, degs and weights are per-row lists of
    Python ints: the shift, the degree after shifting and the weight (see
    the module docstring) of each of the row's two rows in the doubling.
    A zero row has shift 0, degree 0 and weight 0.
    """

    coeffs: list
    shifts: list
    degs: list
    weights: list


def quaternion_setup(m, terms):
    """The QuaternionSetup of the m x m matrix over H[t, t^-1] that is the
    sum of the given terms (row, col, w, x, y, z, e), each the entry
    (w + x i + y j + z k) t^e.  Terms at one place add up in Python ints,
    and shifts, degrees and weights are read from the sums.
    """
    acc = {}  # (row, col, component, exponent) -> coefficient
    for r, c, *parts, e in terms:
        for k, v in enumerate(parts):
            if v:
                key = (r, c, k, e)
                acc[key] = acc.get(key, 0) + v
    acc = {key: v for key, v in acc.items() if v}
    lo, hi = {}, {}
    pairs = {}  # (row, col, w + x i or y + z i) -> [l1, sum of squares, exponents]
    for (r, c, k, e), v in acc.items():
        lo[r] = min(lo.get(r, e), e)
        hi[r] = max(hi.get(r, e), e)
        pair = pairs.setdefault((r, c, k // 2), [0, 0, set()])
        pair[0] += abs(v)
        pair[1] += v * v
        pair[2].add(e)
    shifts = [lo.get(r, 0) for r in range(m)]
    degs = [hi.get(r, 0) - shifts[r] for r in range(m)]
    weights = [0] * m
    for (r, _c, _k), (l1, sq, exps) in pairs.items():
        weights[r] += min(l1 * l1, len(exps) * sq)
    width = max(degs, default=0) + 1
    coeffs = [[[[0] * width for _k in range(4)] for _c in range(m)] for _r in range(m)]
    for (r, c, k, e), v in acc.items():
        coeffs[r][c][k][e - shifts[r]] = v
    return QuaternionSetup(coeffs, shifts, degs, weights)


def block_places(m):
    """The block deletions (r, c) of an m x m quaternionic matrix in the
    order block_selections lists them: diagonal ones first (a gcd fold
    stops at 1, and the diagonal minors often reach it)."""
    return [(r, r) for r in range(m)] + [
        (r, c) for r in range(m) for c in range(m) if r != c
    ]


def block_selections(m):
    """The selections (rows, cols) of the 2m x 2m doubling that
    det_gaussian_submatrices takes: the full one, then the m^2 that delete
    block row r = {2r, 2r+1} and block column c, in block_places order."""
    keep = [tuple(i for i in range(2 * m) if i // 2 != r) for r in range(m)]
    everything = tuple(range(2 * m))
    return [(everything, everything)] + [(keep[r], keep[c]) for r, c in block_places(m)]


def det_gaussian_many(setups):
    """Exact determinants of the complex doublings of many quaternionic
    matrices, given as QuaternionSetups: one LaurentPoly each, each a
    full-only det_gaussian_submatrices call."""
    out = []
    for setup in setups:
        everything = tuple(range(2 * len(setup.shifts)))
        out += det_gaussian_submatrices(setup, [(everything, everything)])
    return out


def det_gaussian_submatrices(setup, selections):
    """Exact determinants of block submatrices of the complex doubling of
    a quaternionic matrix.

    setup is the QuaternionSetup of the m x m matrix.  selections is a
    list of (rows, cols) index tuples into the 2m x 2m doubling, each the
    full selection or one deleting one block row r and one block column c
    (see block_selections); any other raises ValueError.  Returns one
    LaurentPoly per selection: the Study determinant of the matrix, or of
    the matrix without row r and column c, each by Kronecker substitution
    and Bareiss (_study_kronecker) with the bounds of the rows it keeps.
    A kept zero row gives 0.
    """
    coeffs, shifts, degs, weights = setup
    m = len(shifts)
    if m == 0:
        return [LaurentPoly.const(1) for _ in selections]
    block_of = {
        tuple(i for i in range(2 * m) if i // 2 != r): r for r in range(m)
    }
    block_of[tuple(range(2 * m))] = m  # the full selection
    places = []
    for rows, cols in selections:
        rc = (block_of.get(tuple(rows)), block_of.get(tuple(cols)))
        if None in rc or (m in rc and rc != (m, m)):
            raise ValueError(f"not a block selection of the doubling: {rows}, {cols}")
        places.append(rc)
    values = {}
    for r, c in places:
        if (r, c) in values:
            continue
        qs = [q for q in range(m) if q != r]
        if not all(weights[q] for q in qs):
            values[r, c] = LaurentPoly({})
            continue
        ps = [p for p in range(m) if p != c]
        values[r, c] = _study_kronecker(
            [[coeffs[q][p] for p in ps] for q in qs],
            [shifts[q] for q in qs],
            [degs[q] for q in qs],
            [weights[q] for q in qs],
        )
    return [values[rc] for rc in places]


def det_laurent2(mat):
    """Exact determinant of a matrix over Z[s, s^-1, t, t^-1], by
    fraction-free elimination (matrix.det_bareiss)."""
    return det_bareiss(mat, LaurentPoly2.const(1))
