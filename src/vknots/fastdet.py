"""Exact determinants of Laurent-polynomial matrices via modular evaluation.

The fraction-free Bareiss routine in :mod:`vknots.matrix` is the reference
implementation, but its intermediate swell makes large relation matrices
slow.  This module computes the same determinants exactly by a standard
evaluation/interpolation scheme:

* shift each row by a monomial so all exponents are nonnegative (the
  determinant picks up a known monomial factor),
* bound the degree (sum of per-row maxima) and the coefficients (below),
* evaluate the matrix at enough integer points modulo several primes,
  run batched division-free elimination in numpy, interpolate the
  coefficients with a cached inverse Vandermonde matrix, and
* lift by the Chinese remainder theorem with symmetric representatives.

Gaussian-integer coefficients are handled with primes p = 1 (mod 4): the
two ring maps i -> +/- sqrt(-1) (mod p) give conjugate evaluations whose
half-sum and half-difference separate the real and imaginary parts.

Coefficient bound.  On |t| = 1 an entry is at most its coefficient l1
norm in absolute value, so by Hadamard's inequality |det| <= prod_r
(sum_j l1(e_rj)^2)^(1/2) there, and each coefficient of det, a Fourier
coefficient on the circle, obeys the same bound (Goldstein & Graham, "A
Hadamard-type bound on the coefficients of a determinant of polynomials",
SIAM Review 16, 1974); the torus |s| = |t| = 1 gives it for two variables.
Monomial row shifts keep |entry| on the circle and deleting columns only
lowers row norms, so one bound from the rows serves every shifted matrix
and every submatrix on those rows.  It is kept exact as
isqrt(prod_r sum_j l1(e_rj)^2) + 1, and the primes are chosen so that
their product exceeds twice it.

Block minors.  The quaternionic pair needs, for an N x N doubled matrix
(N = 2m), the m^2 minors that delete one 2 x 2 block row r and one block
column c.  ``det_gaussian_submatrices`` recognises these selections and,
at every evaluation point, gets all of them from one division-free
Gauss-Jordan elimination of [A | I] mod p.  The rule is picked by the rank
of the evaluated matrix A over F_p:

* rank N (Jacobi's complementary-minor identity):
  minor(r, c) = det A * det (A^-1)[{2c, 2c+1}, {2r, 2r+1}]; the sign
  (-1)^(sum of the deleted indices) is + for block deletions;
* rank N-2: the (N-2)-th compound of A has rank one, so
  minor(r, c) = kappa * u_r * w_c, where u and w are the block 2 x 2
  Pluecker coordinates of the left and right kernels and kappa comes from
  one directly eliminated nonzero minor;
* rank < N-2: every minor is 0;
* rank N-1: the minors of that matrix are eliminated one by one.

Each rule is an identity over F_p, so every value is exact whatever the
generic rank of the polynomial matrix (Horn & Johnson, *Matrix Analysis*,
section 0.8).  No floating point is involved anywhere.
"""

from __future__ import annotations

from math import isqrt, prod

import numpy as np

from .laurent import LaurentPoly, LaurentPoly2
from .quaternion import GaussianLaurent

_PRIME_START = 15_000_000
_prime_cache: list[tuple[int, int]] = []  # (p, sqrt(-1) mod p)
_vand_cache: dict[tuple[int, int], np.ndarray] = {}


def _is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_minus_one(p):
    for a in range(2, p):
        r = pow(a, (p - 1) // 4, p)
        if r * r % p == p - 1:
            return r
    raise ArithmeticError(f"no sqrt(-1) mod {p}")


def _primes(count):
    """First `count` cached primes p = 1 (mod 4), each with sqrt(-1)."""
    n = _prime_cache[-1][0] + 4 if _prime_cache else _PRIME_START + 1
    while n % 4 != 1:
        n += 1
    while len(_prime_cache) < count:
        if _is_prime(n):
            _prime_cache.append((n, _sqrt_minus_one(n)))
        n += 4
    return _prime_cache[:count]


def _num_primes_for(bound):
    """How many ~15e6 primes are needed so their product exceeds 2*bound."""
    need = 2 * bound + 1
    acc, k = 1, 0
    while acc < need:
        acc *= _PRIME_START
        k += 1
    return max(k, 1)


def _modpow(base, e, p):
    result = np.ones_like(base)
    b = base % p
    while e:
        if e & 1:
            result = result * b % p
        b = b * b % p
        e >>= 1
    return result


def _mod_inplace(x, p):
    """Reduce an int64 array mod p in place and return it.

    numpy divides by a scalar far faster than it takes a remainder, so
    this is x - (x // p) * p rather than x % p; both are exact.
    """
    q = np.floor_divide(x, p)
    q *= p
    x -= q
    return x


def _batch_det_mod(a, p):
    """Determinants mod p of a stack of square int64 matrices (B, n, n).

    Division-free: each row below the pivot becomes piv * row - f * prow,
    and the product of those scalings is inverted once per matrix at the
    end.  Entries stay below p < 2^31, so every product fits in int64.
    """
    a = np.array(a, dtype=np.int64) % p
    B, n, _ = a.shape
    det = np.ones(B, dtype=np.int64)  # sign * product of the pivots
    lead = np.ones(B, dtype=np.int64)  # product of the pivots so far
    scale = np.ones(B, dtype=np.int64)  # det(U) = det(A) * scale
    for k in range(n):
        nz = a[:, k:, k] != 0
        src = nz.argmax(axis=1) + k
        idx = np.nonzero(src > k)[0]
        if idx.size:
            rk = src[idx]
            tmp = a[idx, k, :].copy()
            a[idx, k, :] = a[idx, rk, :]
            a[idx, rk, :] = tmp
            det[idx] = p - det[idx]
        det = det * a[:, k, k] % p
        if k + 1 < n:
            # a column without a pivot has already made det 0; scaling its
            # rows by 1 keeps scale invertible
            piv = np.where(nz.any(axis=1), a[:, k, k], 1)
            upd = piv[:, None, None] * a[:, k + 1 :, k + 1 :]
            upd -= a[:, k + 1 :, k, None] * a[:, None, k, k + 1 :]
            a[:, k + 1 :, k + 1 :] = _mod_inplace(upd, p)
            lead = lead * piv % p
            scale = scale * lead % p
    return det * _modpow(scale, p - 2, p) % p


def _chunked_det(stack, p):
    """_batch_det_mod in chunks of about 2e6 entries, to cap working memory."""
    n = stack.shape[1]
    chunk = max(1, 2_000_000 // max(n * n, 1))
    return np.concatenate(
        [_batch_det_mod(stack[i : i + chunk], p) for i in range(0, len(stack), chunk)]
    )


def _gauss_jordan_mod(a, p):
    """Division-free Gauss-Jordan elimination of [A | I] mod p, batched.

    For a stack a of shape (B, n, n) with entries in [0, p), returns
    (M, rank, pivotal, sign, lead) with M = [R | T] and T A = R.  The
    rank[b] pivot rows of R come first, in the order of their pivot
    columns (pivotal[b, k] marks those), and every other pivot column is
    zero in them.  Each step replaces every row by piv * row - f * prow
    (f = 0 on the pivot row itself), so det T = sign * lead^n with lead
    the product of the pivots.
    """
    B, n, _ = a.shape
    M = np.zeros((B, n, 2 * n), dtype=np.int64)
    M[:, :, :n] = a
    M[:, :, n:] = np.eye(n, dtype=np.int64)
    rank = np.zeros(B, dtype=np.int64)
    pivotal = np.zeros((B, n), dtype=bool)
    sign = np.ones(B, dtype=np.int64)
    lead = np.ones(B, dtype=np.int64)
    rows = np.arange(n)
    bi = np.arange(B)
    for k in range(n):
        cand = (M[:, :, k] != 0) & (rows >= rank[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        # rank <= k < n, so M[bi, rank] is a row even where column k has
        # no pivot; there piv = 1 and f = 0 leave the matrix unchanged
        src = cand.argmax(axis=1)
        sw = np.nonzero(has & (src != rank))[0]
        if sw.size:
            d, s = rank[sw], src[sw]
            tmp = M[sw, d].copy()
            M[sw, d] = M[sw, s]
            M[sw, s] = tmp
            sign[sw] = -sign[sw]
        prow = M[bi, rank]
        piv = np.where(has, prow[:, k], 1)
        f = np.where(has[:, None], M[:, :, k], 0)
        f[bi, rank] = 0
        M *= piv[:, None, None]
        M -= f[:, :, None] * prow[:, None, :]
        _mod_inplace(M, p)
        lead = lead * piv % p
        pivotal[:, k] = has
        rank += has
    return M, rank, pivotal, sign, lead


def _products_but_one(x, p):
    """out[..., i] = product of x[..., j] over j != i, mod p (no inverses)."""
    out = np.empty_like(x)
    acc = np.ones(x.shape[:-1], dtype=np.int64)
    for i in range(x.shape[-1]):
        out[..., i] = acc
        acc = acc * x[..., i] % p
    acc = np.ones(x.shape[:-1], dtype=np.int64)
    for i in reversed(range(x.shape[-1])):
        out[..., i] = out[..., i] * acc % p
        acc = acc * x[..., i] % p
    return out


def _block_keep(m):
    """keep[r] = the 2m - 2 indices left after deleting block r = {2r, 2r+1}."""
    return np.array(
        [[i for i in range(2 * m) if i // 2 != r] for r in range(m)], dtype=np.int64
    ).reshape(m, 2 * m - 2)


def _pluecker2(x):
    """2 x 2 determinants over the last two axes, not yet reduced mod p."""
    return x[..., 0, 0] * x[..., 1, 1] - x[..., 0, 1] * x[..., 1, 0]


def _block_minors_mod(a, p):
    """All block-deleted minors of a stack of N x N matrices mod p (N = 2m).

    Returns out of shape (B, m, m): out[b, r, c] is the determinant of a[b]
    without rows 2r, 2r+1 and columns 2c, 2c+1.  One Gauss-Jordan
    elimination serves every minor of a matrix; see the module docstring
    for the rule used at each rank.
    """
    a = np.array(a, dtype=np.int64) % p
    B, n, _ = a.shape
    m = n // 2
    keep = _block_keep(m)
    out = np.zeros((B, m, m), dtype=np.int64)
    M, rank, pivotal, sign, lead = _gauss_jordan_mod(a, p)

    full = np.nonzero(rank == n)[0]
    if full.size:
        # A^-1 = diag(d)^-1 T and det A = prod(d) / det T, so
        # minor(r, c) = det T[blk c, blk r] * prod_{i not in blk c} d_i / det T
        F = full.size
        Mf = M[full]
        diag = np.arange(n)
        d = Mf[:, diag, diag].reshape(F, m, 2)
        excl = _products_but_one(d[:, :, 0] * d[:, :, 1] % p, p)  # (F, m) over c
        T = Mf[:, :, n:].reshape(F, m, 2, m, 2).transpose(0, 3, 1, 2, 4)
        tdet = _pluecker2(T) % p  # (F, r, c): det T[blk c, blk r]
        coef = sign[full] * _modpow(lead[full], p - 1 - n, p) % p
        out[full] = tdet * excl[:, None, :] % p * coef[:, None, None] % p

    low = np.nonzero(rank == n - 2)[0]
    if low.size:
        L = low.size
        Ml = M[low]
        # left kernel: the last two rows of T
        u = _pluecker2(Ml[:, n - 2 :, n:].reshape(L, 2, m, 2).transpose(0, 2, 1, 3)) % p
        # right kernel from the free columns f of R: y_f = prod(d),
        # y_{pc_i} = -R[i, f] * prod_{j != i} d_j (the kernel scaled by prod(d))
        pc = np.nonzero(pivotal[low])[1].reshape(L, n - 2)
        fc = np.nonzero(~pivotal[low])[1].reshape(L, 2)
        R = Ml[:, : n - 2, :n]
        d = np.take_along_axis(R, pc[:, :, None], axis=2)[:, :, 0]
        rf = np.take_along_axis(R, fc[:, None, :], axis=2)
        y = np.zeros((L, n, 2), dtype=np.int64)
        li = np.arange(L)
        y[li[:, None], pc] = -rf * _products_but_one(d, p)[:, :, None] % p
        dprod = np.ones(L, dtype=np.int64)
        for i in range(n - 2):
            dprod = dprod * d[:, i] % p
        y[li, fc[:, 0], 0] = dprod
        y[li, fc[:, 1], 1] = dprod
        w = _pluecker2(y.reshape(L, m, 2, 2)) % p
        ok = u.any(axis=1) & w.any(axis=1)
        if ok.any():
            sel, u, w = low[ok], u[ok], w[ok]
            si = np.arange(sel.size)
            r0 = (u != 0).argmax(axis=1)
            c0 = (w != 0).argmax(axis=1)
            sub = a[sel[:, None, None], keep[r0][:, :, None], keep[c0][:, None, :]]
            kappa = (
                _batch_det_mod(sub, p)
                * _modpow(u[si, r0] * w[si, c0] % p, p - 2, p)
                % p
            )
            out[sel] = kappa[:, None, None] * u[:, :, None] % p * w[:, None, :] % p

    mid = np.nonzero(rank == n - 1)[0]
    if mid.size:
        subs = a[mid][:, keep[:, None, :, None], keep[None, :, None, :]]
        subs = subs.reshape(mid.size * m * m, n - 2, n - 2)
        out[mid] = _chunked_det(subs, p).reshape(mid.size, m, m)
    return out


def _vand_inv(npoints, p):
    """Inverse mod p of the Vandermonde matrix at points 1..npoints."""
    key = (p, npoints)
    cached = _vand_cache.get(key)
    if cached is not None:
        return cached
    m = npoints
    V = np.empty((m, m), dtype=np.int64)
    for i in range(m):
        x = i + 1
        acc = 1
        for j in range(m):
            V[i, j] = acc
            acc = acc * x % p
    A = np.concatenate([V, np.eye(m, dtype=np.int64)], axis=1)
    for k in range(m):
        if A[k, k] == 0:
            for r in range(k + 1, m):
                if A[r, k]:
                    A[[k, r]] = A[[r, k]]
                    break
        inv = pow(int(A[k, k]), p - 2, p)
        A[k] = A[k] * inv % p
        for r in range(m):
            if r != k and A[r, k]:
                A[r] = (A[r] - A[r, k] * A[k]) % p
    out = A[:, m:]
    _vand_cache[key] = out
    return out


def _crt_symmetric(residues, primes):
    """Symmetric-range integers from equally shaped arrays of residues
    modulo distinct primes: int64 for one prime, else an object array."""
    x = residues[0] if len(primes) == 1 else residues[0].astype(object)
    M = primes[0]
    for r, p in zip(residues[1:], primes[1:]):
        t = (r - x % p) * pow(M, -1, p) % p
        x = x + M * t
        M *= p
    return np.where(x > M // 2, x - M, x)


def _point_powers(npoints, maxdeg, p):
    XP = np.empty((npoints, maxdeg + 1), dtype=np.int64)
    for i in range(npoints):
        x = i + 1
        acc = 1
        for j in range(maxdeg + 1):
            XP[i, j] = acc
            acc = acc * x % p
    return XP


def _coefficient_bound(weights):
    """Bound on every coefficient of a determinant whose rows have the
    given weights (a row's weight is the sum of its entries' squared l1
    norms); see the module docstring."""
    return isqrt(prod(weights)) + 1


def _gaussian_setup(mat):
    """Shift, degree, weight and coefficients of every row of a square
    matrix over Z[i][t, t^-1], from one pass over its nonzero entries.

    Each row is shifted by a monomial so its least exponent is 0.  Returns
    (coeffs, shifts, row degrees, row weights): coeffs[0] and coeffs[1]
    hold the real and imaginary coefficients, shape (n, n, deg + 1), as
    int64, or as Python ints when one does not fit, so that every
    coefficient reduces exactly mod p.  A zero row has shift 0, degree 0
    and weight 0.
    """
    n = len(mat)
    shifts, degs, weights, terms = [], [], [], []
    for r, row in enumerate(mat):
        ents = [(c, e.re.terms, e.im.terms) for c, e in enumerate(row)
                if e.re.terms or e.im.terms]
        exps = [d for _c, re, im in ents for d in (*re, *im)]
        lo = min(exps, default=0)
        shifts.append(lo)
        degs.append(max(exps, default=0) - lo)
        w = 0
        for c, re, im in ents:
            l1 = 0
            for part, tbl in ((0, re), (1, im)):
                for d, v in tbl.items():
                    terms.append((part, r, c, d - lo, v))
                    l1 += abs(v)
            w += l1 * l1
        weights.append(w)
    small = all(-(2**63) < t[4] < 2**63 for t in terms)
    coeffs = np.zeros((2, n, n, max(degs, default=0) + 1),
                      dtype=np.int64 if small else object)
    if terms:
        part, rows, cols, exps, vals = zip(*terms)
        coeffs[part, rows, cols, exps] = vals
    return coeffs, shifts, degs, weights


def _evaluate(coeffs, P, p, root):
    """The matrix at t = 1..P mod p, first with i -> root, then i -> -root:
    a stack of shape (2P, n, n)."""
    XP = _point_powers(P, coeffs.shape[3] - 1, p)
    vre, vim = np.tensordot((coeffs % p).astype(np.int64), XP, axes=([3], [1])) % p
    return np.concatenate(
        [
            np.moveaxis((vre + root * vim) % p, 2, 0),
            np.moveaxis((vre - root * vim) % p, 2, 0),
        ]
    )


def _interpolate_gaussian(D, L, evaluate, shifts, var):
    """Exact polynomials over Z[i] of degree <= D and coefficients of
    absolute value <= L, from their values.

    evaluate(p, root, P) returns a (2P, S) array: the values of S
    polynomials mod p at t = 1..P with i -> root, then with i -> -root.
    Returns the S polynomials as GaussianLaurent, polynomial s multiplied
    by t^shifts[s].
    """
    P = D + 1
    primes = _primes(_num_primes_for(L))
    re_res, im_res = [], []
    for p, root in primes:
        vals = evaluate(p, root, P)
        vplus, vminus = vals[:P], vals[P:]
        Vinv = _vand_inv(P, p)
        re_res.append(Vinv @ ((vplus + vminus) * pow(2, -1, p) % p) % p)
        im_res.append(Vinv @ ((vplus - vminus) * pow(2 * root, -1, p) % p) % p)
    plist = [p for p, _ in primes]
    re = _crt_symmetric(re_res, plist).T.tolist()
    im = _crt_symmetric(im_res, plist).T.tolist()
    return [
        GaussianLaurent(_poly(re[s], shift, var), _poly(im[s], shift, var))
        for s, shift in enumerate(shifts)
    ]


def _poly(coeffs, shift, var):
    return LaurentPoly({d + shift: c for d, c in enumerate(coeffs) if c}, var)


def det_gaussian_many(mats, var="t"):
    """Exact determinants of matrices over Z[i][t, t^-1].

    Returns one GaussianLaurent per input matrix, batching all evaluation
    work across matrices and primes.
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
        by_size.setdefault(coeffs.shape[1], []).append(j)

    def evaluate(p, root, P):
        vals = np.empty((2 * P, len(jobs)), dtype=np.int64)
        for js in by_size.values():
            stack = np.concatenate([_evaluate(jobs[j][1], P, p, root) for j in js])
            vals[:, js] = _chunked_det(stack, p).reshape(len(js), 2 * P).T
        return vals

    dets = _interpolate_gaussian(D, L, evaluate, [s for _i, _c, s in jobs], var)
    for (idx, _coeffs, _shift), g in zip(jobs, dets):
        results[idx] = g
    return results


def det_gaussian_submatrices(mat, selections, var="t"):
    """Exact determinants of many square submatrices of one matrix over
    Z[i][t, t^-1].

    selections is a list of (rows, cols) index tuples (equal lengths).
    The base matrix is evaluated once per prime and each submatrix is a
    slice of the evaluated stack.  Selections that delete one 2 x 2 block
    row and one block column of an even-sized matrix are all read off one
    Gauss-Jordan elimination per evaluation point (see the module
    docstring); any other selection is eliminated on its own.
    """
    n = len(mat)
    if n == 0:
        return [GaussianLaurent.const(1, 0, var) for _ in selections]
    zero = GaussianLaurent(LaurentPoly({}, var), LaurentPoly({}, var))
    results = [zero] * len(selections)
    coeffs, shifts, degs, weights = _gaussian_setup(mat)
    zero_rows = {r for r, w in enumerate(weights) if not w}
    live = [
        (i, tuple(rows), tuple(cols))
        for i, (rows, cols) in enumerate(selections)
        if zero_rows.isdisjoint(rows)
    ]
    if not live:
        return results
    row_shift = {rows: sum(shifts[r] for r in rows) for _i, rows, _cols in live}
    D = max(sum(degs[r] for r in rows) for rows in row_shift)
    L = max(_coefficient_bound(weights[r] for r in rows) for rows in row_shift)
    block_of = (
        {tuple(k): r for r, k in enumerate(_block_keep(n // 2).tolist())}
        if n % 2 == 0
        else {}
    )
    blocks, direct = [], {}
    for j, (_i, rows, cols) in enumerate(live):
        rc = (block_of.get(rows), block_of.get(cols))
        if None in rc:
            direct.setdefault(len(rows), []).append(j)
        else:
            blocks.append((j, *rc))

    def evaluate(p, root, P):
        stack = _evaluate(coeffs, P, p, root)
        vals = np.empty((2 * P, len(live)), dtype=np.int64)
        if blocks:
            js, rs, cs = (list(x) for x in zip(*blocks))
            vals[:, js] = _block_minors_mod(stack, p)[:, rs, cs]
        for js in direct.values():
            subs = np.concatenate(
                [stack[:, list(live[j][1])][:, :, list(live[j][2])] for j in js]
            )
            vals[:, js] = _chunked_det(subs, p).reshape(len(js), 2 * P).T
        return vals

    dets = _interpolate_gaussian(
        D, L, evaluate, [row_shift[rows] for _i, rows, _cols in live], var
    )
    for (i, _rows, _cols), g in zip(live, dets):
        results[i] = g
    return results


def det_laurent2(mat):
    """Exact determinant of a matrix over Z[s, s^-1, t, t^-1]."""
    n = len(mat)
    if n == 0:
        return LaurentPoly2.const(1)
    shifted, tshift, sshift = [], 0, 0
    Ds = Dt = 0
    weights = []
    for row in mat:
        nz = [e for e in row if e]
        if not nz:
            return LaurentPoly2({})
        vs = min(e.min_exps()[0] for e in nz)
        vt = min(e.min_exps()[1] for e in nz)
        sshift += vs
        tshift += vt
        srow = [e.shift(-vs, -vt) for e in row]
        shifted.append(srow)
        Ds += max(e.max_exps()[0] for e in srow if e)
        Dt += max(e.max_exps()[1] for e in srow if e)
        weights.append(sum(e.l1_norm() ** 2 for e in srow))
    eds = max((e.max_exps()[0] for row in shifted for e in row if e), default=0)
    edt = max((e.max_exps()[1] for row in shifted for e in row if e), default=0)
    coeffs = [
        [
            [
                [e.terms.get((a, b), 0) for b in range(edt + 1)]
                for a in range(eds + 1)
            ]
            for e in row
        ]
        for row in shifted
    ]
    Ps, Pt = Ds + 1, Dt + 1
    primes = _primes(_num_primes_for(_coefficient_bound(weights)))
    grids = []
    for p, _root in primes:
        C = (np.array(coeffs, dtype=object) % p).astype(np.int64)
        XS = _point_powers(Ps, eds, p)
        XT = _point_powers(Pt, edt, p)
        # vals[r, c, a, b] = sum_{i,j} C[r,c,i,j] * s_a^i * t_b^j
        v = np.tensordot(C, XT, axes=([3], [1])) % p  # (n, n, eds+1, Pt)
        v = np.tensordot(v, XS, axes=([2], [1])) % p  # (n, n, Pt, Ps)
        stack = v.transpose(3, 2, 0, 1).reshape(Ps * Pt, n, n)
        dets = _batch_det_mod(stack, p).reshape(Ps, Pt)
        Vsinv = _vand_inv(Ps, p)
        Vtinv = _vand_inv(Pt, p)
        grid = Vsinv @ dets % p
        grid = grid @ Vtinv.T % p
        grids.append(grid)
    coef = _crt_symmetric(grids, [p for p, _ in primes])
    terms = {
        (a, b): int(coef[a, b])
        for a in range(Ps)
        for b in range(Pt)
        if coef[a, b]
    }
    return LaurentPoly2(terms).shift(sshift, tshift)
