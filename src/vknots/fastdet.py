"""Exact determinants of Laurent-polynomial matrices.

A determinant over Z[s, s^-1, t, t^-1] (``det_laurent2``) is taken by the
fraction-free Bareiss routine of :mod:`vknots.matrix`: the relation
matrices it sees are small once reduced by unit pivots.  The quaternionic
determinants are computed exactly by a standard evaluation/interpolation
scheme:

* shift each row by a monomial so all exponents are nonnegative (the
  determinant picks up a known monomial factor),
* bound the degree (sum of per-row maxima) and the coefficients (below),
* evaluate the matrix on a grid of points modulo several primes, run
  batched division-free elimination in numpy, interpolate the
  coefficients with a cached inverse Vandermonde matrix per axis, and
  lift by the Chinese remainder theorem with symmetric representatives
  (``_interpolate``, the one loop over primes).

Quaternionic matrices.  An m x m matrix Q over H[t, t^-1] (quaternions
w + x i + y j + z k with integer Laurent coefficients) is read as the
array of its four components, ``QuaternionSetup``.  Its complex doubling
A is the 2m x 2m matrix over Z[i][t, t^-1] of blocks [[w + x i, y + z i],
[-y + z i, w - x i]] = [[a, b], [-conj b, conj a]], and det A is the
Study determinant of Q (Aslaksen, "Quaternionic determinants", Math.
Intelligencer 18, 1996).  conj A = S A S^-1 with S the block-diagonal
matrix of blocks [[0, 1], [-1, 0]] and det S = 1.  Hence det A is real,
and so is every minor that deletes whole block rows and block columns,
since deleting block r of S leaves a matrix of the same form.  The
primes are p = 1 (mod 4), and A is assembled only when it is evaluated:
at i -> +sqrt(-1) mod p, a ring map Z[i] -> F_p that leaves a real
polynomial's coefficients as they are, and at t = 1..D+1.  To
``_interpolate`` that is an i axis of the one point +sqrt(-1), whose
inverse Vandermonde matrix is [1], so the coefficients read are those of
the real determinants.

Coefficient bound.  On |t| = 1 an entry e = sum_k c_k t^k with K nonzero
coefficients has |e| <= sum_k |c_k|.  The square of that is at most
l1(e)^2 = (sum_k |Re c_k| + |Im c_k|)^2 and, by Cauchy-Schwarz, at most
K sum_k |c_k|^2; the smaller of these two integers is the entry's weight
(for real coefficients it is always l1(e)^2, for a single term c t^k it is
|c|^2).  By Hadamard's inequality |det| <= prod_r (sum_j weight(e_rj))^(1/2)
there, and each coefficient of det, a Fourier coefficient on the circle,
obeys the same bound (Goldstein & Graham, "A Hadamard-type bound on the
coefficients of a determinant of polynomials", SIAM Review 16, 1974).
Monomial row shifts keep |entry| on the circle and deleting columns only
lowers row norms, so one bound from the rows serves every shifted matrix
and every submatrix on those rows.  Row r of Q stands for two rows of A
with the same shift, degree and weight sum_c weight(w + x i) +
weight(y + z i), so the bound for A is kept exact as prod_r weight_r + 1,
and the primes are chosen so that their product exceeds twice it.

Block minors.  The quaternionic pair needs, for the N x N doubling
(N = 2m), det A and the m^2 minors that delete one 2 x 2 block row r and
one block column c.  ``det_gaussian_submatrices`` takes these selections
(the full one included; any other raises ValueError) and, at every
evaluation point, gets all of them from one division-free Gauss-Jordan
elimination T [A | I] = [R | T] mod p, with det T = sign * lead^N (lead
the product of the pivots) and d the pivots left on R's diagonal.  The
degree and coefficient bounds of the full selection cover every minor, so
with it present one set of evaluation points and primes serves all.  The
rule is picked by the rank of the evaluated matrix A over F_p:

* rank N: det A = prod(d) / det T, and by Jacobi's complementary-minor
  identity minor(r, c) = det A * det (A^-1)[{2c, 2c+1}, {2r, 2r+1}]
  (the sign (-1)^(sum of the deleted indices) is + for block deletions);
* rank N-2: det A = 0, and
  minor(r, c) = (-1)^(f1+f2+1) u_r w_c / (prod(d) det T), where f1 < f2
  are R's free columns, u_r is the 2 x 2 minor on block r of the last two
  rows of T (a basis of the left kernel), and w_c that of the right
  kernel y with y_f = prod(d) on the free columns and
  y_{pc_i} = -R[i, f] prod_{j != i} d_j on the pivot columns.  Proof
  sketch: Cauchy-Binet on T A = R gives C(A) = C(T)^-1 C(R) for the
  (N-2)-th compounds.  C(R) has a single nonzero row, the (N-2)-minors of
  R's pivot rows, and the complementary Pluecker identity (normalised at
  the pivot columns, where that minor is prod(d)) makes the one deleting
  block c equal to (-1)^(f1+f2+1) w_c / prod(d).  Jacobi's identity makes
  the matching entry of C(T)^-1 equal to u_r / det T.  No minor is
  eliminated on its own, and u = 0 or w = 0 gives all minors 0;
* rank < N-2: det A and every minor are 0;
* rank N-1: det A = 0 and the minors are eliminated one by one.

Each rule is an identity over F_p, so every value is exact whatever the
generic rank of the polynomial matrix (Horn & Johnson, *Matrix Analysis*,
section 0.8).  No floating point is involved anywhere.

The Study determinant alone.  A list that asks for det A alone skips all
of this, and numpy too (``_study_kronecker``).  With the rows shifted,
put t = 2^B with 2^(B-1) > L = prod_r weight_r + 1, the bound above, and
evaluate each entry's four components as Python ints.  t -> 2^B is a
ring map, so det A(2^B) = (det A)(2^B).  That is taken by fraction-free
elimination over Z[i] in the two-step form of Bareiss ("Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 22, 1968), one 2 x 2 block of the doubling per step.  By
Sylvester's identity the values after k steps are the minors of A(2^B)
on its first 2k rows and columns and one row and one column more; they
make up d_k times the doubling of the Schur complement R of Q's leading
k x k block, d_k the (real) Study determinant of that block.  The next
pivot block is the doubling of p = R_kk: its determinant is
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
ArithmeticError: neither can happen.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

import numpy as np

from .laurent import LaurentPoly, LaurentPoly2
from .matrix import det_bareiss

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


def _corank2_factors(M, pivotal, sign, lead, p):
    """(u, w, kappa) with minor(r, c) = kappa * u_r * w_c for a stack of
    Gauss-Jordan results [R | T] of N x N matrices of rank N - 2.

    u (B, m) and w (B, m) are the block 2 x 2 Pluecker coordinates of the
    left kernel (the last two rows of T) and of the right kernel y, scaled
    by prod(d) and read off the free columns f1 < f2 of R; kappa (B,) is
    (-1)^(f1 + f2 + 1) / (prod(d) * det T).  See the module docstring.
    """
    L, n, _ = M.shape
    m = n // 2
    u = _pluecker2(M[:, n - 2 :, n:].reshape(L, 2, m, 2).transpose(0, 2, 1, 3)) % p
    # y_f = prod(d) on the free columns, y_{pc_i} = -R[i, f] * prod_{j != i} d_j
    pc = np.nonzero(pivotal)[1].reshape(L, n - 2)
    fc = np.nonzero(~pivotal)[1].reshape(L, 2)
    R = M[:, : n - 2, :n]
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
    det_t = sign * _modpow(lead, n, p) % p
    kappa = _modpow(dprod * det_t % p, p - 2, p)
    neg = (fc[:, 0] + fc[:, 1]) % 2 == 0
    kappa[neg] = p - kappa[neg]
    return u, w, kappa


def _block_minors_mod(a, p):
    """det A and all block-deleted minors of a stack of N x N matrices mod
    p (N = 2m).

    Returns (det, out) of shapes (B,) and (B, m, m): out[b, r, c] is the
    determinant of a[b] without rows 2r, 2r+1 and columns 2c, 2c+1.  One
    Gauss-Jordan elimination serves det A and every minor of a matrix; see
    the module docstring for the rule used at each rank.
    """
    a = np.array(a, dtype=np.int64) % p
    B, n, _ = a.shape
    m = n // 2
    det = np.zeros(B, dtype=np.int64)
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
        dblk = d[:, :, 0] * d[:, :, 1] % p
        excl = _products_but_one(dblk, p)  # (F, m) over c
        T = Mf[:, :, n:].reshape(F, m, 2, m, 2).transpose(0, 3, 1, 2, 4)
        tdet = _pluecker2(T) % p  # (F, r, c): det T[blk c, blk r]
        coef = sign[full] * _modpow(lead[full], p - 1 - n, p) % p
        out[full] = tdet * excl[:, None, :] % p * coef[:, None, None] % p
        det[full] = excl[:, 0] * dblk[:, 0] % p * coef % p

    low = np.nonzero(rank == n - 2)[0]
    if low.size:
        u, w, kappa = _corank2_factors(
            M[low], pivotal[low], sign[low], lead[low], p
        )
        out[low] = kappa[:, None, None] * u[:, :, None] % p * w[:, None, :] % p

    mid = np.nonzero(rank == n - 1)[0]
    if mid.size:
        keep = _block_keep(m)
        subs = a[mid][:, keep[:, None, :, None], keep[None, :, None, :]]
        subs = subs.reshape(mid.size * m * m, n - 2, n - 2)
        out[mid] = _chunked_det(subs, p).reshape(mid.size, m, m)
    return det, out


def _powers(points, maxdeg, p):
    """out[i, j] = points[i]^j mod p, shape (len(points), maxdeg + 1)."""
    x = np.array(points, dtype=np.int64) % p
    out = np.ones((len(x), maxdeg + 1), dtype=np.int64)
    for j in range(1, maxdeg + 1):
        out[:, j] = out[:, j - 1] * x % p
    return out


def _vand_inv(points, p):
    """Inverse mod p of the Vandermonde matrix V[i, j] = points[i]^j.

    One Gauss-Jordan pass gives T V = diag(d), so V^-1 = diag(d)^-1 T.
    """
    key = (p, tuple(points))
    cached = _vand_cache.get(key)
    if cached is None:
        n = len(key[1])
        M = _gauss_jordan_mod(_powers(key[1], n - 1, p)[None], p)[0][0]
        d_inv = _modpow(M.diagonal(), p - 2, p)
        cached = _vand_cache[key] = d_inv[:, None] * M[:, n:] % p
    return cached


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


def _interpolate(bound, grid, values):
    """Exact coefficients c[a, b, s] of S polynomials
    f_s = sum_{a,b} c[a, b, s] x^a y^b with |c| <= bound, from their values.

    For each prime p, with root = sqrt(-1) mod p, grid(p, root) gives the
    axes (xs, ys), one point per coefficient on each, and values(p, (xs,
    ys)) the values f_s(x, y) mod p as an array (len(xs) * len(ys), S), x
    major.  Returns c, shape (len(xs), len(ys), S): int64 for one prime,
    else an object array.
    """
    primes = _primes(_num_primes_for(bound))
    res = []
    for p, root in primes:
        xs, ys = grid(p, root)
        v = values(p, (xs, ys)).reshape(len(xs), len(ys), -1)
        v = _vand_inv(ys, p) @ v % p
        res.append((_vand_inv(xs, p) @ v.reshape(len(xs), -1) % p).reshape(v.shape))
    return _crt_symmetric(res, [p for p, _ in primes])


class QuaternionSetup(NamedTuple):
    """An m x m matrix over H[t, t^-1] in the form the engine reads.

    Each row is shifted by a monomial so its least exponent is 0.
    coeffs, of shape (m, m, 4, deg + 1), holds at [r, c, k, d] the
    coefficient of t^d in component k (of 1, i, j, k) of entry (r, c).
    Its dtype is int64, or object (Python ints) when a coefficient does
    not fit, so that every one reduces exactly mod p.  shifts, degs and
    weights are per-row lists of Python ints: the shift, the degree after
    shifting and the weight (see the module docstring) of each of the row's
    two rows in the doubling.  A zero row has shift 0, degree 0 and
    weight 0.
    """

    coeffs: np.ndarray
    shifts: list
    degs: list
    weights: list


def quaternion_setup(m, terms):
    """The QuaternionSetup of the m x m matrix over H[t, t^-1] that is the
    sum of the given terms (row, col, w, x, y, z, e), each the entry
    (w + x i + y j + z k) t^e.  Terms at one place add up in Python ints,
    and shifts, degrees and weights are read from the sums; coeffs is
    int64 when every sum fits, and object otherwise.
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
    small = all(-(2**63) < v < 2**63 for v in acc.values())
    coeffs = np.zeros((m, m, 4, max(degs, default=0) + 1),
                      dtype=np.int64 if small else object)
    if acc:
        rows, cols, comps, exps = zip(*acc)
        coeffs[rows, cols, comps, [e - shifts[r] for r, e in zip(rows, exps)]] = list(
            acc.values()
        )
    return QuaternionSetup(coeffs, shifts, degs, weights)


def _evaluate_doubling(coeffs, root, ts, p):
    """The complex doubling of sum_d coeffs[:, :, :, d] t^d mod p at
    i -> root (a square root of -1 mod p) and at every t in ts: a stack of
    shape (len(ts), 2m, 2m) of blocks [[w + x root, y + z root],
    [-y + z root, w - x root]]."""
    m = coeffs.shape[0]
    c = (coeffs % p).astype(np.int64)
    v = np.tensordot(c, _powers(ts, c.shape[3] - 1, p), axes=([3], [1])) % p
    w, x, y, z = (v[:, :, k] for k in range(4))
    xr, zr = x * root % p, z * root % p
    blocks = np.stack([w + xr, y + zr, zr - y, w - xr]) % p
    blocks = blocks.reshape(2, 2, m, m, -1).transpose(4, 2, 0, 3, 1)
    return blocks.reshape(-1, 2 * m, 2 * m)


def _poly(coeffs, shift):
    return LaurentPoly({d + shift: c for d, c in enumerate(coeffs) if c})


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


def _study_kronecker(setup):
    """det A, the Study determinant of a QuaternionSetup with no zero row,
    without numpy: the matrix evaluated at t = 2^B, its Study determinant
    by _study_bareiss, and the coefficients read back in balanced base
    2^B (see the module docstring)."""
    coeffs, shifts, degs, weights = setup
    B = (prod(weights) + 1).bit_length() + 1  # 2^(B-1) > prod(weights) + 1

    def at(cs):  # sum_d cs[d] 2^(B d)
        v = 0
        for c in reversed(cs):
            v = (v << B) + c
        return v

    value = _study_bareiss(
        [[tuple(map(at, entry)) for entry in row] for row in coeffs.tolist()]
    )
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


def block_selections(m):
    """The selections (rows, cols) of the 2m x 2m doubling that
    det_gaussian_submatrices reads off one elimination: the full one, then
    the m^2 that delete block row r = {2r, 2r+1} and block column c,
    diagonal ones first (a gcd fold stops at 1, and the diagonal minors
    often reach it)."""
    keep = [tuple(i for i in range(2 * m) if i // 2 != r) for r in range(m)]
    pairs = [(r, r) for r in range(m)]
    pairs += [(r, c) for r in range(m) for c in range(m) if r != c]
    everything = tuple(range(2 * m))
    return [(everything, everything)] + [(keep[r], keep[c]) for r, c in pairs]


def det_gaussian_many(setups):
    """Exact determinants of the complex doublings of many quaternionic
    matrices, given as QuaternionSetups: one LaurentPoly each, each a
    full-only det_gaussian_submatrices call (Kronecker substitution and
    Bareiss over Z[i], without numpy)."""
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
    full selection or one deleting one block row and one block column (see
    block_selections); any other raises ValueError.  Returns one
    LaurentPoly per selection, all read off one Gauss-Jordan elimination
    per evaluation point (see the module docstring).  When every
    selection is the full one, det A is taken by Kronecker substitution
    and Bareiss over Z[i] instead, without numpy (_study_kronecker).
    """
    coeffs, shifts, degs, weights = setup
    m = len(shifts)
    if m == 0:
        return [LaurentPoly.const(1) for _ in selections]
    everything = tuple(range(2 * m))
    if selections and all(
        tuple(rows) == everything == tuple(cols) for rows, cols in selections
    ):
        det = _study_kronecker(setup) if all(weights) else LaurentPoly({})
        return [det] * len(selections)
    block_of = {tuple(k): r for r, k in enumerate(_block_keep(m).tolist())}
    block_of[everything] = m  # the full selection
    blocks = []
    for rows, cols in selections:
        rc = (block_of.get(tuple(rows)), block_of.get(tuple(cols)))
        if None in rc or (m in rc and rc != (m, m)):
            raise ValueError(f"not a block selection of the doubling: {rows}, {cols}")
        blocks.append(rc)
    results = [LaurentPoly({})] * len(selections)
    zero_rows = {r for r, w in enumerate(weights) if not w}
    live = [(i, r, c) for i, (r, c) in enumerate(blocks) if zero_rows <= {r}]
    if not live:
        return results
    kept = {r: [q for q in range(m) if q != r] for _i, r, _c in live}
    # each row of the quaternionic matrix is two rows of the doubling
    row_shift = {r: 2 * sum(shifts[q] for q in qs) for r, qs in kept.items()}
    D = max(2 * sum(degs[q] for q in qs) for qs in kept.values())
    L = max(prod(weights[q] for q in qs) for qs in kept.values()) + 1
    rs, cs = [r for _i, r, _c in live], [c for _i, _r, c in live]

    def values(p, points):
        (root,), ts = points
        det, minors = _block_minors_mod(_evaluate_doubling(coeffs, root, ts, p), p)
        table = np.pad(minors, ((0, 0), (0, 1), (0, 1)))
        table[:, m, m] = det
        return table[:, rs, cs]

    coef = _interpolate(L, lambda p, root: ((root,), range(1, D + 2)), values)
    for (i, r, _c), cf in zip(live, coef[0].T.tolist()):
        results[i] = _poly(cf, row_shift[r])
    return results


def det_laurent2(mat):
    """Exact determinant of a matrix over Z[s, s^-1, t, t^-1], by
    fraction-free elimination (matrix.det_bareiss)."""
    return det_bareiss(mat, LaurentPoly2.const(1))
