"""The general determinant engine over Z[i][t, t^-1], kept as a test oracle.

These are the routines ``vknots.fastdet`` had before it took quaternionic
matrices only, unchanged: a square matrix over Z[i][t, t^-1] is read into
a ``GaussianSetup`` (n x n with an i axis of real and imaginary parts),
evaluated at i -> +/- sqrt(-1) mod p (the two-point i axis, whose inverse
Vandermonde matrix separates the real and imaginary parts), and any
selection of rows and columns is eliminated on its own unless it is a
block selection.  A matrix that ``_is_doubling`` recognises, with only
block selections, takes the one point +sqrt(-1), as the doubling-only
engine does.  Results are ``GaussianLaurent``.

``_evaluate`` (a matrix on a two-axis grid of points) and
``_coefficient_bound`` serve this engine only: ``vknots.fastdet``
evaluates doublings with ``_evaluate_doubling`` and bounds them by
prod_r weight_r + 1.

``doubled_setup_of`` lays out the GaussianSetup of the doubling from a
``vknots.fastdet.QuaternionSetup``: the reference for the block layout
that the engine assembles at evaluation time.

``numpy_quaternion_setup`` is the numpy build of a QuaternionSetup
(``np.add.at`` on index arrays, with int64-overflow guards) that
``vknots.fastdet.quaternion_setup`` had before it summed terms in Python
ints: the oracle for that rewrite.
"""

from __future__ import annotations

from math import isqrt, prod
from typing import NamedTuple

import numpy as np

from vknots.fastdet import (
    QuaternionSetup,
    _block_keep,
    _block_minors_mod,
    _chunked_det,
    _interpolate,
    _powers,
)
from vknots.laurent import LaurentPoly
from vknots.quaternion import GaussianLaurent


def _evaluate(coeffs, points, p):
    """The matrix sum_{a,b} coeffs[:, :, a, b] x^a y^b mod p at every point
    (x, y) of the grid points = (xs, ys), x major: a stack of shape
    (len(xs) * len(ys), n, n).  coeffs has shape (n, n, D0 + 1, D1 + 1)."""
    n = coeffs.shape[0]
    c = (coeffs % p).astype(np.int64)
    v = np.tensordot(c, _powers(points[1], c.shape[3] - 1, p), axes=([3], [1])) % p
    v = np.tensordot(v, _powers(points[0], c.shape[2] - 1, p), axes=([2], [1])) % p
    return v.transpose(3, 2, 0, 1).reshape(-1, n, n)


def _coefficient_bound(weights):
    """Bound on every coefficient of a determinant whose rows have the
    given weights (a row's weight is the sum of its entries' weights);
    see the docstring of vknots.fastdet."""
    return isqrt(prod(weights)) + 1


class GaussianSetup(NamedTuple):
    """A square matrix over Z[i][t, t^-1] in the form the engine reads.

    Each row is shifted by a monomial so its least exponent is 0.
    coeffs, of shape (n, n, 2, deg + 1), holds at [r, c, k, d] the
    coefficient of i^k t^d in entry (r, c): axis 2 is the i axis, k = 0
    real and k = 1 imaginary.  Its dtype is int64, or object (Python ints)
    when a coefficient does not fit, so that every one reduces exactly
    mod p.  shifts, degs and weights are per-row lists of Python ints:
    the shift, the degree after shifting and the weight (see
    _coefficient_bound).  A zero row has shift 0, degree 0 and weight 0.
    """

    coeffs: np.ndarray
    shifts: list
    degs: list
    weights: list


def gaussian_setup_from_terms(n, terms):
    """The GaussianSetup of the n x n matrix over Z[i][t, t^-1] that is the
    sum of the given terms (part, row, col, exponent, value), part 0 real
    and 1 imaginary.  Terms at one place add up, and shifts, degrees and
    weights are read from the sums, one pass over them.
    """
    acc = {}
    for part, r, c, d, v in terms:
        key = (part, r, c, d)
        acc[key] = acc.get(key, 0) + v
    acc = {k: v for k, v in acc.items() if v}
    lo, hi = {}, {}
    entries = {}  # (r, c) -> [l1, sum of squares, exponents]
    for (_part, r, c, d), v in acc.items():
        lo[r] = min(lo.get(r, d), d)
        hi[r] = max(hi.get(r, d), d)
        ent = entries.setdefault((r, c), [0, 0, set()])
        ent[0] += abs(v)
        ent[1] += v * v
        ent[2].add(d)
    shifts = [lo.get(r, 0) for r in range(n)]
    degs = [hi.get(r, 0) - shifts[r] for r in range(n)]
    weights = [0] * n
    for (r, _c), (l1, sq, exps) in entries.items():
        weights[r] += min(l1 * l1, len(exps) * sq)
    small = all(-(2**63) < v < 2**63 for v in acc.values())
    coeffs = np.zeros((n, n, 2, max(degs, default=0) + 1),
                      dtype=np.int64 if small else object)
    if acc:
        part, rows, cols, exps = zip(*acc)
        coeffs[rows, cols, part, [d - shifts[r] for r, d in zip(rows, exps)]] = list(
            acc.values()
        )
    return GaussianSetup(coeffs, shifts, degs, weights)


def _gaussian_setup(mat):
    """The GaussianSetup of a square matrix over Z[i][t, t^-1]."""
    return gaussian_setup_from_terms(
        len(mat),
        [
            (part, r, c, d, v)
            for r, row in enumerate(mat)
            for c, e in enumerate(row)
            for part, tbl in ((0, e.re.terms), (1, e.im.terms))
            for d, v in tbl.items()
        ],
    )


def _is_doubling(coeffs):
    """Whether a GaussianSetup coefficient array is a complex doubling:
    every 2 x 2 block is [[a, b], [-conj b, conj a]], checked exactly over
    Z (conj negates the i part, index 1 of axis 2)."""
    n = coeffs.shape[0]
    if n % 2:
        return False
    blk = coeffs.reshape(n // 2, 2, n // 2, 2, 2, -1)
    a, b = blk[:, 0, :, 0], blk[:, 0, :, 1]
    c, d = blk[:, 1, :, 0], blk[:, 1, :, 1]
    return (
        np.array_equal(c[:, :, 0], -b[:, :, 0])
        and np.array_equal(c[:, :, 1], b[:, :, 1])
        and np.array_equal(d[:, :, 0], a[:, :, 0])
        and np.array_equal(d[:, :, 1], -a[:, :, 1])
    )


def _interpolate_gaussian(D, L, values, shifts, var, real):
    """Exact polynomials over Z[i] of degree <= D and coefficients of
    absolute value <= L, from their values: _interpolate on the axes
    i -> +/- sqrt(-1) and t = 1..D+1.  Returns them as GaussianLaurent,
    polynomial s multiplied by t^shifts[s].

    real says every polynomial is known to be real (a doubling's block
    minors): the i axis is then the one point +sqrt(-1), whose inverse
    Vandermonde matrix is [1], so the coefficients read are the real
    parts, and every imaginary part is one shared zero.
    """
    coef = _interpolate(
        L,
        lambda p, root: ((root,) if real else (root, p - root), range(1, D + 2)),
        values,
    )
    re, *im = coef.transpose(0, 2, 1).tolist()
    zero = LaurentPoly({}, var)
    return [
        GaussianLaurent(
            _poly(re[s], shift, var), _poly(im[0][s], shift, var) if im else zero
        )
        for s, shift in enumerate(shifts)
    ]


def _poly(coeffs, shift, var):
    return LaurentPoly({d + shift: c for d, c in enumerate(coeffs) if c}, var)


def det_gaussian_many(mats, var="t"):
    """Exact determinants of matrices over Z[i][t, t^-1].

    Returns one GaussianLaurent per input matrix, batching all evaluation
    work across matrices and primes.  When every matrix is a doubling the
    i axis is the one point +sqrt(-1) (see the module docstring).
    """
    results: list = [None] * len(mats)
    zero = GaussianLaurent(LaurentPoly({}, var), LaurentPoly({}, var))
    jobs = []  # (idx, coefficient arrays, total shift)
    D, L = 0, 1
    for idx, mat in enumerate(mats):
        if not mat:
            results[idx] = GaussianLaurent.const(1, 0, var)
            continue
        coeffs, shifts, degs, weights = _gaussian_setup(mat)
        if not all(weights):
            results[idx] = zero
            continue
        jobs.append((idx, coeffs, sum(shifts)))
        D = max(D, sum(degs))
        L = max(L, _coefficient_bound(weights))
    if not jobs:
        return results
    by_size: dict[int, list] = {}
    for j, (_idx, coeffs, _shift) in enumerate(jobs):
        by_size.setdefault(coeffs.shape[0], []).append(j)

    def values(p, points):
        k = len(points[0]) * len(points[1])
        vals = np.empty((k, len(jobs)), dtype=np.int64)
        for js in by_size.values():
            stack = np.concatenate([_evaluate(jobs[j][1], points, p) for j in js])
            vals[:, js] = _chunked_det(stack, p).reshape(len(js), k).T
        return vals

    real = all(_is_doubling(coeffs) for _idx, coeffs, _shift in jobs)
    dets = _interpolate_gaussian(D, L, values, [s for _i, _c, s in jobs], var, real)
    for (idx, _coeffs, _shift), g in zip(jobs, dets):
        results[idx] = g
    return results


def det_gaussian_submatrices(mat, selections, var="t"):
    """Exact determinants of many square submatrices of one matrix over
    Z[i][t, t^-1].

    mat is the matrix, or its GaussianSetup when the caller has built that
    already.  selections is a list of (rows, cols) index tuples (equal
    lengths).  The base matrix is evaluated once per prime and each
    submatrix is a slice of the evaluated stack.  For an even-sized
    matrix, the full selection (every row and column) and the selections
    that delete one 2 x 2 block row and one block column are all read off
    one Gauss-Jordan elimination per evaluation point (see the module
    docstring); any other selection is eliminated on its own.  When the
    matrix is a doubling and every selection is one of those, the i axis
    is the one point +sqrt(-1).
    """
    coeffs, shifts, degs, weights = (
        mat if isinstance(mat, GaussianSetup) else _gaussian_setup(mat)
    )
    n = len(shifts)
    if n == 0:
        return [GaussianLaurent.const(1, 0, var) for _ in selections]
    zero = GaussianLaurent(LaurentPoly({}, var), LaurentPoly({}, var))
    results = [zero] * len(selections)
    zero_rows = {r for r, w in enumerate(weights) if not w}
    live = [
        (i, tuple(rows), tuple(cols))
        for i, (rows, cols) in enumerate(selections)
        if zero_rows.isdisjoint(rows)
    ]
    if not live:
        return results
    row_shift = {
        rows: sum(shifts[r] for r in rows) for rows in {rows for _i, rows, _c in live}
    }
    D = max(sum(degs[r] for r in rows) for rows in row_shift)
    L = max(_coefficient_bound(weights[r] for r in rows) for rows in row_shift)
    m = n // 2
    block_of = {}  # block r deleted -> r; the full selection -> m
    if n % 2 == 0:
        block_of = {tuple(k): r for r, k in enumerate(_block_keep(m).tolist())}
        block_of[tuple(range(n))] = m
    blocks, direct = [], {}
    for j, (_i, rows, cols) in enumerate(live):
        rc = (block_of.get(rows), block_of.get(cols))
        if None in rc:
            direct.setdefault(len(rows), []).append(j)
        else:
            blocks.append((j, *rc))

    def values(p, points):
        stack = _evaluate(coeffs, points, p)
        vals = np.empty((len(stack), len(live)), dtype=np.int64)
        if blocks:
            js, rs, cs = (list(x) for x in zip(*blocks))
            det, minors = _block_minors_mod(stack, p)
            table = np.pad(minors, ((0, 0), (0, 1), (0, 1)))
            table[:, m, m] = det
            vals[:, js] = table[:, rs, cs]
        for js in direct.values():
            subs = np.concatenate(
                [stack[:, list(live[j][1])][:, :, list(live[j][2])] for j in js]
            )
            vals[:, js] = _chunked_det(subs, p).reshape(len(js), len(stack)).T
        return vals

    # a doubling's block minors are real (module docstring)
    real = not direct and _is_doubling(coeffs)
    dets = _interpolate_gaussian(
        D, L, values, [row_shift[rows] for _i, rows, _cols in live], var, real
    )
    for (i, _rows, _cols), g in zip(live, dets):
        results[i] = g
    return results


def doubled_setup_of(qsetup):
    """The GaussianSetup of the complex doubling of the quaternionic
    matrix that qsetup stands for: entry (r, c) = (w + x i + y j + z k)
    becomes the block [[w + x i, y + z i], [-y + z i, w - x i]], and each
    row's shift, degree and weight belong to both of its doubled rows."""
    q = qsetup.coeffs
    w, x, y, z = (q[:, :, k] for k in range(4))
    m = q.shape[0]
    blocks = [[(w, x), (y, z)], [(-y, z), (w, -x)]]
    coeffs = np.zeros((2 * m, 2 * m, 2, q.shape[3]), dtype=q.dtype)
    for dr in range(2):
        for dc in range(2):
            for part in range(2):
                coeffs[dr::2, dc::2, part] = blocks[dr][dc][part]
    return GaussianSetup(coeffs, *([v for v in vals for _ in (0, 1)]
                                   for vals in qsetup[1:]))


def numpy_quaternion_setup(m, terms):
    """The QuaternionSetup of the m x m matrix over H[t, t^-1] that is the
    sum of the given terms (row, col, w, x, y, z, e), each the entry
    (w + x i + y j + z k) t^e, built with numpy: terms at one place add
    up, and shifts, degrees and weights are read from the sums.
    """
    T = np.array(terms)
    if T.dtype != np.int64:  # a coefficient past int64, or no terms at all
        T = np.array(terms, dtype=object).reshape(-1, 7)
    rows, cols, exps = (T[:, k].astype(np.int64) for k in (0, 1, 6))
    vals = T[:, 2:6]
    lim = max(-int(vals.min(initial=0)), int(vals.max(initial=0)))
    e0, e1 = (int(exps.min()), int(exps.max())) if len(T) else (0, 0)
    E = e1 - e0 + 1
    # with lim * len(T) < 2^63 no sum of coefficients can leave int64
    small = lim * len(T) < 2**63
    acc = np.zeros((m, m, 4, E), dtype=np.int64 if small else object)
    np.add.at(acc, (rows, cols, slice(None), exps - e0), vals.astype(acc.dtype))
    if not small and np.abs(acc).max() < 2**63:
        acc = acc.astype(np.int64)
    support = (acc != 0).any(axis=(1, 2))  # (m, E): the exponents of each row
    live = support.any(axis=1)
    lo = support.argmax(axis=1)
    hi = np.where(live, E - 1 - support[:, ::-1].argmax(axis=1), lo)
    degs = hi - lo
    coeffs = np.zeros((m, m, 4, int(degs.max(initial=0)) + 1), dtype=acc.dtype)
    for r in range(m):
        coeffs[r, :, :, : degs[r] + 1] = acc[r, :, :, lo[r] : hi[r] + 1]
    # the complex pairs (w + x i, y + z i) of every entry; an entry's l1^2
    # and K * sum |c|^2 are at most E * (4 lim len(T))^2, so where that
    # leaves int64 they are taken in Python ints
    z = acc if E * (4 * lim * len(T)) ** 2 < 2**63 else acc.astype(object)
    z = z.reshape(m, m, 2, 2, E)
    l1 = np.abs(z).sum(axis=(3, 4))
    sq = (z * z).sum(axis=(3, 4))
    K = (z != 0).any(axis=3).sum(axis=3)
    weights = np.minimum(l1 * l1, K * sq).sum(axis=(1, 2))
    shifts = np.where(live, lo + e0, 0)
    return QuaternionSetup(coeffs, shifts.tolist(), degs.tolist(), weights.tolist())
