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

A list that asks for det A alone skips all of this: det A is read off
one division-free LU of each evaluated matrix (``_chunked_det``).

Each rule is an identity over F_p, so every value is exact whatever the
generic rank of the polynomial matrix (Horn & Johnson, *Matrix Analysis*,
section 0.8).  No floating point is involved anywhere.
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
    (w + x i + y j + z k) t^e.  Terms at one place add up, and shifts,
    degrees and weights are read from the sums.
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
    matrices, given as QuaternionSetups: one LaurentPoly each."""
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
    per evaluation point (see the module docstring); when the full
    selection is the only one, det A is read off one LU instead.
    """
    coeffs, shifts, degs, weights = setup
    m = len(shifts)
    if m == 0:
        return [LaurentPoly.const(1) for _ in selections]
    block_of = {tuple(k): r for r, k in enumerate(_block_keep(m).tolist())}
    block_of[tuple(range(2 * m))] = m  # the full selection
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
        a = _evaluate_doubling(coeffs, root, ts, p)
        if set(rs) == {m}:  # the full selection only: det A off one LU
            return np.repeat(_chunked_det(a, p)[:, None], len(rs), axis=1)
        det, minors = _block_minors_mod(a, p)
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
