"""The evaluate -> eliminate mod p -> interpolate -> CRT determinant
engine over Z[i][t, t^-1], kept as a test oracle for ``vknots.fastdet``.

The evaluation scheme:

* shift each row by a monomial so all exponents are nonnegative (the
  determinant picks up a known monomial factor),
* bound the degree (sum of per-row maxima) and the coefficients
  (``_coefficient_bound``, the Goldstein-Graham bound of the
  ``vknots.fastdet`` docstring),
* evaluate the matrix on a grid of points modulo several primes
  p = 1 (mod 4), run batched division-free elimination in numpy,
  interpolate the coefficients with a cached inverse Vandermonde matrix
  per axis, and lift by the Chinese remainder theorem with symmetric
  representatives (``_interpolate``, the one loop over primes).

A square matrix over Z[i][t, t^-1] is read into a ``GaussianSetup`` (n x
n with an i axis of real and imaginary parts), evaluated at i -> +/-
sqrt(-1) mod p (the two-point i axis, whose inverse Vandermonde matrix
separates the real and imaginary parts), and any selection of rows and
columns is eliminated on its own unless it is a block selection.  A
matrix that ``_is_doubling`` recognises, with only block selections,
takes the one point +sqrt(-1): conj A = S A S^-1 for a doubling, so its
determinant and block minors are real, and i -> +sqrt(-1) is a ring map
Z[i] -> F_p that leaves a real polynomial's coefficients as they are.
Results are ``GaussianLaurent``.

Block minors.  For an N x N matrix A (N = 2m), det A and the m^2 minors
that delete one 2 x 2 block row r and one block column c are all read
off one division-free Gauss-Jordan elimination T [A | I] = [R | T] mod p
per evaluation point (``_block_minors_mod``), with det T = sign * lead^N
(lead the product of the pivots) and d the pivots left on R's diagonal.
The rule is picked by the rank of the evaluated matrix over F_p:

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
  eliminated on its own, and u = 0 or w = 0 gives all minors 0
  (``_corank2_factors``);
* rank < N-2: det A and every minor are 0;
* rank N-1: det A = 0 and the minors are eliminated one by one.

Each rule is an identity over F_p, so every value is exact whatever the
generic rank of the polynomial matrix (Horn & Johnson, *Matrix Analysis*,
section 0.8).

``doubled_setup_of`` lays out the GaussianSetup of the doubling from a
``vknots.fastdet.QuaternionSetup``: the reference for the block layout
of the quaternionic matrices the engine reads.

``numpy_quaternion_setup`` is a numpy build of a QuaternionSetup
(``np.add.at`` on index arrays, with int64-overflow guards): the oracle
for ``vknots.fastdet.quaternion_setup``, which sums terms in Python ints.
"""

from __future__ import annotations

from math import isqrt, prod
from typing import NamedTuple

import numpy as np

from vknots.fastdet import QuaternionSetup
from vknots.laurent import LaurentPoly
from vknots.quaternion import GaussianLaurent

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


def coefficient_array(qsetup):
    """The nested coefficient lists of a QuaternionSetup as an array of
    shape (m, m, 4, deg + 1): int64 when every coefficient fits, as in a
    GaussianSetup, and object (Python ints) otherwise."""
    m = len(qsetup.shifts)
    width = len(qsetup.coeffs[0][0][0]) if m else 1
    q = np.array(qsetup.coeffs, dtype=object).reshape(m, m, 4, width)
    small = all(-(2**63) < v < 2**63 for v in q.flat)
    return q.astype(np.int64) if small else q


def doubled_setup_of(qsetup):
    """The GaussianSetup of the complex doubling of the quaternionic
    matrix that qsetup stands for: entry (r, c) = (w + x i + y j + z k)
    becomes the block [[w + x i, y + z i], [-y + z i, w - x i]], and each
    row's shift, degree and weight belong to both of its doubled rows."""
    q = coefficient_array(qsetup)
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
