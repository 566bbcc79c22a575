"""The modular/interpolation determinant engine against slow exact oracles."""

import random
from collections import Counter
from itertools import product
from math import prod

import numpy as np
import pytest

from vknots import fastdet
from vknots.fastdet import (
    _batch_det_mod,
    _block_minors_mod,
    _coefficient_bound,
    _corank2_factors,
    _evaluate,
    _gauss_jordan_mod,
    _gaussian_setup,
    _interpolate,
    _is_doubling,
    _is_prime,
    _num_primes_for,
    _primes,
    _vand_inv,
    det_gaussian_many,
    det_gaussian_submatrices,
    det_laurent2,
)
from vknots.gausscode import edge_structure
from vknots.invariants import alexander_matrix, doubled_setup, quaternionic_matrix
from vknots.laurent import LaurentPoly, LaurentPoly2, normalize_unit
from vknots.matrix import det_bareiss, det_cofactor
from vknots.quaternion import GaussianLaurent, Quaternion, double_matrix

from conftest import catalog_and_walk_codes, random_code
from test_algebra import (
    G_ONE,
    L2_ONE,
    L_ONE,
    rand_gaussian,
    rand_lpoly,
    rand_lpoly2,
    rand_quaternion,
)


def det_laurent_many(mats, var="t"):
    """Exact determinants of matrices over Z[t, t^-1]."""
    gmats = [
        [[GaussianLaurent.from_poly(e) for e in row] for row in mat]
        for mat in mats
    ]
    out = []
    for g in det_gaussian_many(gmats, var=var):
        if not g.im.is_zero():
            raise ArithmeticError("real determinant came out complex")
        out.append(g.re)
    return out


def test_prime_generator():
    ps = _primes(8)
    assert len(ps) == 8
    for p, r in ps:
        assert _is_prime(p)
        assert p % 4 == 1
        assert (r * r + 1) % p == 0


# --- the evaluate -> interpolate -> CRT core -------------------------------


@pytest.mark.parametrize("k", range(3))
def test_vand_inv_inverts_vandermonde(k):
    p, root = _primes(3)[k]
    axes = [(root, p - root)]
    axes += [tuple(range(1, P + 1)) for P in (1, 2, 3, 10, 41, 99, 150)]
    for points in axes:
        V = np.array([[pow(x, j, p) for j in range(len(points))] for x in points],
                     dtype=np.int64).reshape(len(points), len(points))
        assert np.array_equal(_vand_inv(points, p) @ V % p, np.eye(len(points))), points
    # on the i axis it is the half-sum and the half-difference over 2 root
    half, half_root = pow(2, -1, p), pow(2 * root, -1, p)
    assert _vand_inv((root, p - root), p).tolist() == [
        [half, half], [half_root, p - half_root]
    ]


@pytest.mark.parametrize("big", [False, True])
def test_evaluate_then_interpolate_round_trip(big):
    """Random coefficient arrays (n, n, D0 + 1, D1 + 1) come back exactly
    from their values, on the s, t grid and on the i, t grid; above 2^63
    the coefficients are Python ints and need several primes."""
    rng = random.Random(7200 + big)
    top = 2**70 if big else 1000
    cases = [(1, 0, 0, False), (2, 3, 2, False), (3, 1, 4, False), (2, 1, 0, True),
             (3, 1, 5, True)]
    for n, d0, d1, gaussian in cases:
        shape = (n, n, d0 + 1, d1 + 1)
        C = np.array([rng.randint(-top, top) for _ in range(prod(shape))],
                     dtype=object if big else np.int64).reshape(shape)
        if big:
            C[0, 0, 0, 0] = 2**63 + rng.randrange(2**63)
            C[-1, -1, -1, -1] = -(2**64)
        bound = int(np.abs(C).max())
        if gaussian:
            def grid(p, root):
                return (root, p - root), range(1, d1 + 2)
        else:
            def grid(p, root):
                return range(1, d0 + 2), range(1, d1 + 2)

        def values(p, points):
            return _evaluate(C, points, p).reshape(-1, n * n)

        assert _num_primes_for(bound) >= 3 if big else _num_primes_for(bound) == 1
        got = _interpolate(bound, grid, values)
        assert got.dtype == (object if big else np.int64)
        assert got.tolist() == C.transpose(2, 3, 0, 1).reshape(d0 + 1, d1 + 1, -1).tolist()


def test_det_laurent2_matches_bareiss_on_alexander_matrices():
    square = nonzero = 0
    for code in catalog_and_walk_codes(6, 40, seed=92):
        if not code.n_crossings or edge_structure(code).free_circles:
            continue  # the relation matrix is not square
        m = alexander_matrix(code)
        want = normalize_unit(det_bareiss(m, LaurentPoly2.const(1)))
        assert normalize_unit(det_laurent2(m)) == want, code
        square += 1
        nonzero += bool(want.terms)
    assert square > 100 and 0 < nonzero < square


def test_det_gaussian_many_matches_bareiss(rng):
    mats = [
        [[rand_gaussian(rng) for _ in range(n)] for _ in range(n)]
        for n in (1, 2, 3, 4, 4, 5)
    ]
    fast = det_gaussian_many(mats)
    for m, d in zip(mats, fast):
        assert d == det_bareiss(m, G_ONE)


def test_det_gaussian_many_zero_and_empty(rng):
    zrow = [[GaussianLaurent(LaurentPoly({}, "t"), LaurentPoly({}, "t"))] * 3] * 3
    fast = det_gaussian_many([zrow, []])
    assert fast[0].re.is_zero() and fast[0].im.is_zero()
    assert fast[1] == G_ONE


def test_det_laurent_many_matches_bareiss(rng):
    mats = [
        [[rand_lpoly(rng) for _ in range(n)] for _ in range(n)]
        for n in (2, 3, 4, 5)
    ]
    fast = det_laurent_many(mats)
    for m, d in zip(mats, fast):
        assert d == det_bareiss(m, L_ONE)


def test_det_laurent2_matches_cofactor(rng):
    for n in (1, 2, 3, 4):
        m = [[rand_lpoly2(rng) for _ in range(n)] for _ in range(n)]
        assert det_laurent2(m) == det_cofactor(m)


def test_det_laurent2_large_coefficients():
    big = 10**12
    m = [
        [LaurentPoly2({(0, 3): big, (-2, 0): 7}), LaurentPoly2({(1, 1): -big})],
        [LaurentPoly2({(0, 0): 3}), LaurentPoly2({(0, -4): big, (2, 2): 1})],
    ]
    assert det_laurent2(m) == det_cofactor(m)


def test_det_gaussian_submatrices_large_coefficients():
    def g(a):
        return GaussianLaurent.const(a)

    m = [[g(10**20), g(1)], [g(2), g(3)]]
    (d,) = det_gaussian_submatrices(m, [((0, 1), (0, 1))])
    assert d == g(3 * 10**20 - 2)


def test_det_gaussian_submatrices_matches_per_minor(rng):
    for n in (3, 4, 5):
        m = [[rand_gaussian(rng) for _ in range(n)] for _ in range(n)]
        selections = []
        for i in range(n):
            for j in range(n):
                rows = tuple(x for x in range(n) if x != i)
                cols = tuple(y for y in range(n) if y != j)
                selections.append((rows, cols))
        fast = det_gaussian_submatrices(m, selections)
        for (rows, cols), d in zip(selections, fast):
            sub = [[m[r][c] for c in cols] for r in rows]
            assert d == det_bareiss(sub, G_ONE)


def _gaussian_matrix_of_rank(rng, n, rank):
    """A random n x n Gaussian-Laurent matrix that is a product of n x rank
    and rank x n factors."""
    x = [[rand_gaussian(rng) for _ in range(rank)] for _ in range(n)]
    y = [[rand_gaussian(rng) for _ in range(n)] for _ in range(rank)]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            e = GaussianLaurent()
            for k in range(rank):
                e = e + x[i][k] * y[k][j]
            row.append(e)
        out.append(row)
    return out


def test_det_gaussian_submatrices_block_deletions(rng):
    # the full selection and every deletion of one 2 x 2 block row and
    # column: the Gauss-Jordan path, at every rank rule
    for n, rank in ((2, 2), (4, 4), (6, 6), (4, 2), (6, 4), (6, 5), (6, 3)):
        if rank == n:
            m = [[rand_gaussian(rng) for _ in range(n)] for _ in range(n)]
            if n > 2:
                m[0][0] = GaussianLaurent()  # a row swap at every point
        else:
            m = _gaussian_matrix_of_rank(rng, n, rank)
        everything = (tuple(range(n)), tuple(range(n)))
        selections = [everything] + [
            (
                tuple(x for x in range(n) if x // 2 != i),
                tuple(y for y in range(n) if y // 2 != j),
            )
            for i in range(n // 2)
            for j in range(n // 2)
        ]
        fast = det_gaussian_submatrices(m, selections)
        assert fast[0] == det_gaussian_many([m])[0] == det_bareiss(m, G_ONE)
        assert fast[0].is_zero() == (rank < n)
        for (rows, cols), d in zip(selections, fast):
            sub = [[m[r][c] for c in cols] for r in rows]
            assert d == det_bareiss(sub, G_ONE)


def test_det_gaussian_submatrices_mixed_sizes(rng):
    n = 4
    m = [[rand_gaussian(rng) for _ in range(n)] for _ in range(n)]
    selections = [
        ((0,), (2,)),
        ((0, 1), (1, 3)),
        ((0, 1, 2, 3), (0, 1, 2, 3)),
    ]
    fast = det_gaussian_submatrices(m, selections)
    for (rows, cols), d in zip(selections, fast):
        sub = [[m[r][c] for c in cols] for r in rows]
        assert d == det_bareiss(sub, G_ONE)


def _matrix_of_rank(rng, n, rank, p):
    """A random n x n matrix mod p that is a product of n x rank and
    rank x n factors: of that rank for all but a negligible share of draws."""
    x = np.array([[rng.randrange(p) for _ in range(rank)] for _ in range(n)],
                 dtype=np.int64).reshape(n, rank)
    y = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(rank)],
                 dtype=np.int64).reshape(rank, n)
    out = np.zeros((n, n), dtype=np.int64)
    for k in range(rank):
        out = (out + x[:, k, None] * y[None, k, :]) % p
    return out


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_block_minors_mod_matches_per_minor_elimination(n):
    rng = random.Random(7000 + n)
    p, _root = _primes(1)[0]
    m = n // 2
    mats = [
        _matrix_of_rank(rng, n, rank, p)
        for rank in range(max(n - 4, 0), n + 1)
        for _ in range(3)
    ]
    # a zero corner forces a row swap, so det T carries the sign -1
    swapped = [a.copy() for a in mats]
    for a in swapped:
        a[0, 0] = 0
    mats += swapped
    stack = np.stack(mats)
    det, fast = _block_minors_mod(stack, p)
    for b, a in enumerate(mats):
        assert det[b] == _batch_det_mod(a[None], p)[0], (n, b)
        for r in range(m):
            for c in range(m):
                rows = [i for i in range(n) if i // 2 != r]
                cols = [j for j in range(n) if j // 2 != c]
                sub = a[np.ix_(rows, cols)][None]
                assert fast[b, r, c] == _batch_det_mod(sub, p)[0], (n, b, r, c)


def _kappa_by_elimination(a, u, w, p):
    """The rule the rank-(N-2) closed form replaced: with u_r0, w_c0 the
    first nonzero kernel coordinates, kappa = minor(r0, c0) / (u_r0 w_c0),
    that one minor eliminated directly."""
    n = a.shape[0]
    r0, c0 = int(np.flatnonzero(u)[0]), int(np.flatnonzero(w)[0])
    rows = [i for i in range(n) if i // 2 != r0]
    cols = [j for j in range(n) if j // 2 != c0]
    minor = int(_batch_det_mod(a[np.ix_(rows, cols)][None], p)[0])
    return minor * pow(int(u[r0]) * int(w[c0]), p - 2, p) % p


def _block_diagonal(rng, n, p):
    """A random invertible n x n matrix mod p of 2 x 2 diagonal blocks."""
    out = np.zeros((n, n), dtype=np.int64)
    for b in range(0, n, 2):
        while True:
            blk = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
            if (blk[0][0] * blk[1][1] - blk[0][1] * blk[1][0]) % p:
                break
        out[b : b + 2, b : b + 2] = blk
    return out


def _corank2_u_zero(rng, n, p):
    """Rank n - 2 mod p (all but surely) with rows 0 and 2 zero, then
    scrambled by block-diagonal factors on both sides.  The zero rows put
    the left kernel across two blocks at one index each, so every block
    coordinate u_r is 0, and the scrambling keeps it so."""
    a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)],
                 dtype=np.int64)
    a[[0, 2]] = 0
    a = _block_diagonal(rng, n, p) @ a % p
    return a @ _block_diagonal(rng, n, p) % p


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_corank2_closed_form_matches_second_elimination(n):
    rng = random.Random(7100 + n)
    p, _root = _primes(1)[0]
    m = n // 2
    generic = [_matrix_of_rank(rng, n, n - 2, p) for _ in range(12)]
    u_zero = [_corank2_u_zero(rng, n, p) for _ in range(4)]
    w_zero = [_corank2_u_zero(rng, n, p).T.copy() for _ in range(4)]
    mats = generic + u_zero + w_zero
    stack = np.stack(mats)
    M, rank, pivotal, sign, lead = _gauss_jordan_mod(stack % p, p)
    assert (rank == n - 2).all()
    u, w, kappa = _corank2_factors(M, pivotal, sign, lead, p)
    for b in range(len(generic)):
        assert u[b].any() and w[b].any()
        assert kappa[b] == _kappa_by_elimination(mats[b], u[b], w[b], p), b
    assert not u[len(generic) : len(generic) + len(u_zero)].any()
    assert not w[len(generic) + len(u_zero) :].any()
    det, fast = _block_minors_mod(stack, p)
    assert not det.any()
    for b, a in enumerate(mats):
        for r in range(m):
            for c in range(m):
                rows = [i for i in range(n) if i // 2 != r]
                cols = [j for j in range(n) if j // 2 != c]
                sub = a[np.ix_(rows, cols)][None]
                assert fast[b, r, c] == _batch_det_mod(sub, p)[0], (n, b, r, c)


# --- the coefficient bound ------------------------------------------------


def _sylvester(k):
    """The 2^k x 2^k Sylvester-Hadamard matrix: +-1 entries, orthogonal
    rows, |det| = 2^(k 2^(k-1)), which equals Hadamard's bound."""
    h = [[1]]
    for _ in range(k):
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


H16 = _sylvester(4)
I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^c as (re, im)


def _hadamard_gaussian(factor=(1, 0)):
    """H16 with row r times t^r, column c times i^c and every entry times
    the Gaussian integer factor = (re, im).  With factor 1 the entries are
    +-1, +-i, +-t^r and +-i t^r, each of weight 1, so the bound is
    2^32 + 1; factor 1 + i makes every entry of weight |1 + i|^2 = 2 (not
    l1^2 = 4) and multiplies det by (1 + i)^16 = 2^8: the bound 2^40 + 1."""
    ua, ub = factor

    def entry(h, r, c):
        a, b = I_POWERS[c % 4]
        re, im = ua * a - ub * b, ua * b + ub * a
        return GaussianLaurent(LaurentPoly({r: h * re}), LaurentPoly({r: h * im}))

    return [[entry(h, r, c) for c, h in enumerate(row)] for r, row in enumerate(H16)]


def _weight(e):
    """An entry's weight by definition: min(l1^2, K * sum |c_k|^2) over its
    K nonzero coefficients c_k = a_k + b_k i, with l1 = sum |a_k| + |b_k|."""
    if isinstance(e, GaussianLaurent):
        cs = [(e.re.terms.get(d, 0), e.im.terms.get(d, 0))
              for d in e.re.terms.keys() | e.im.terms.keys()]
    else:
        cs = [(a, 0) for a in e.terms.values()]
    l1 = sum(abs(a) + abs(b) for a, b in cs)
    return min(l1 * l1, len(cs) * sum(a * a + b * b for a, b in cs))


def _weights(mat):
    """Row weights by definition: each row's sum of entry weights."""
    return [sum(_weight(e) for e in row) for row in mat]


def _coefficients(d):
    if isinstance(d, GaussianLaurent):
        return [*d.re.terms.values(), *d.im.terms.values()]
    return list(d.terms.values())


def test_coefficient_bound_is_tight_on_sylvester_hadamard():
    for factor, weight, top in (((1, 0), 16, 2**32), ((1, 1), 32, 2**40)):
        mat = _hadamard_gaussian(factor)
        weights = _gaussian_setup(mat)[3]
        assert weights == _weights(mat) == [weight] * 16
        assert _coefficient_bound(weights) == top + 1
        (d,) = det_gaussian_many([mat])
        assert d == det_bareiss(mat, G_ONE)
        assert max(abs(c) for c in _coefficients(d)) == top


def test_block_minors_of_sylvester_hadamard():
    mat = _hadamard_gaussian()
    selections = [
        (tuple(x for x in range(16) if x // 2 != r),
         tuple(y for y in range(16) if y // 2 != c))
        for r in range(8)
        for c in range(8)
    ]
    fast = det_gaussian_submatrices(mat, selections)
    for (rows, cols), d in zip(selections, fast):
        sub = [[mat[r][c] for c in cols] for r in rows]
        assert d == det_bareiss(sub, G_ONE)
    assert any(not d.is_zero() for d in fast)


def test_det_laurent2_of_sylvester_hadamard():
    # row r times s^r, column c times t^c
    mat = [
        [LaurentPoly2({(r, c): h}) for c, h in enumerate(row)]
        for r, row in enumerate(H16)
    ]
    assert _coefficient_bound(_weights(mat)) == 2**32 + 1
    d = det_laurent2(mat)
    assert d == det_bareiss(mat, L2_ONE)
    assert max(abs(c) for c in _coefficients(d)) == 2**32


def _scaled(rng, e):
    """e with every coefficient times up to 10^8: determinants then cross
    the sizes at which the engine takes one more prime."""
    k = 10 ** rng.randint(0, 8)
    if isinstance(e, GaussianLaurent):
        return GaussianLaurent(_scaled_poly(e.re, k), _scaled_poly(e.im, k))
    return _scaled_poly(e, k)


def _scaled_poly(p, k):
    if isinstance(p, LaurentPoly2):
        return LaurentPoly2({e: c * k for e, c in p.terms.items()})
    return LaurentPoly({e: c * k for e, c in p.terms.items()}, p.var)


def _rand_gaussian_term(rng):
    k = rng.randint(-2, 2)
    return GaussianLaurent(
        LaurentPoly({k: rng.randint(-5, 5)}), LaurentPoly({k: rng.randint(-5, 5)})
    )


def test_coefficient_bound_covers_bareiss_coefficients(rng):
    for n in (1, 2, 3, 4, 5):
        for _ in range(6):
            # general entries, and single terms c t^k, whose weight |c|^2
            # is below l1^2 whenever c has both parts
            for g in (
                [[_scaled(rng, rand_gaussian(rng)) for _ in range(n)]
                 for _ in range(n)],
                [[_scaled(rng, _rand_gaussian_term(rng)) for _ in range(n)]
                 for _ in range(n)],
            ):
                assert _gaussian_setup(g)[3] == _weights(g)
                dg = det_bareiss(g, G_ONE)
                bound = _coefficient_bound(_weights(g))
                assert all(abs(c) <= bound for c in _coefficients(dg))
                assert det_gaussian_many([g])[0] == dg

            s = [[_scaled(rng, rand_lpoly2(rng)) for _ in range(n)] for _ in range(n)]
            ds = det_bareiss(s, L2_ONE)
            bound = _coefficient_bound(_weights(s))
            assert all(abs(c) <= bound for c in _coefficients(ds))
            assert det_laurent2(s) == ds


# --- doublings: the one-point i axis ----------------------------------------


def _block_selections(m):
    """The full selection of a 2m x 2m matrix, then its m^2 block deletions."""
    keep = [tuple(i for i in range(2 * m) if i // 2 != r) for r in range(m)]
    everything = (tuple(range(2 * m)), tuple(range(2 * m)))
    return [everything] + [(keep[r], keep[c]) for r in range(m) for c in range(m)]


def _two_point(monkeypatch, fn, *args):
    """fn(*args) with doublings unrecognised, so on the two-point i axis."""
    with monkeypatch.context() as mp:
        mp.setattr(fastdet, "_is_doubling", lambda coeffs: False)
        return fn(*args)


def _stack_sizes(monkeypatch, fn, *args, name="_block_minors_mod"):
    """fn(*args), and the number of matrices in every stack that the
    engine's elimination `name` got (one call per CRT prime)."""
    sizes = []
    real = getattr(fastdet, name)

    def recording(a, p):
        sizes.append(len(a))
        return real(a, p)

    with monkeypatch.context() as mp:
        mp.setattr(fastdet, name, recording)
        return fn(*args), sizes


def _square_doubling(code):
    """double_matrix of the quaternionic relation matrix without its
    free-circle columns: the matrix doubled_setup(code) stands for."""
    qmat = quaternionic_matrix(code)
    return double_matrix([row[: len(qmat)] for row in qmat])


def _doubling_codes():
    """Catalog and walk codes with at most 5 crossings, then three random
    10-crossing codes; each with crossings, and each once."""
    codes = catalog_and_walk_codes(5, 40, seed=41)
    codes += [random_code(random.Random(s), 10) for s in (1000, 1001, 1002)]
    seen = set()
    return [c for c in codes if c.n_crossings and not (c in seen or seen.add(c))]


def test_doubled_setups_take_the_one_point_axis(monkeypatch):
    codes = _doubling_codes()
    assert len(codes) > 100 and max(c.n_crossings for c in codes) == 10
    for k, code in enumerate(codes):
        setup = doubled_setup(code)
        assert _is_doubling(setup.coeffs), code
        sels = _block_selections(len(setup.shifts) // 2)
        fast, sizes = _stack_sizes(monkeypatch, det_gaussian_submatrices, setup, sels)
        D = sum(setup.degs)
        assert len(sizes) == _num_primes_for(_coefficient_bound(setup.weights))
        assert sizes == [D + 1] * len(sizes), code
        assert all(d.im.is_zero() for d in fast)
        assert fast == _two_point(monkeypatch, det_gaussian_submatrices, setup, sels)
        dbl = _square_doubling(code)
        assert fast[0] == det_bareiss(dbl, G_ONE), code
        if code.n_crossings <= 3:
            # one block minor per code, in turn, against Bareiss too
            rows, cols = sels[1 + k % (len(sels) - 1)]
            sub = [[dbl[r][c] for c in cols] for r in rows]
            assert fast[1 + k % (len(sels) - 1)] == det_bareiss(sub, G_ONE), code


def test_doubling_halves_agree_at_conjugate_points():
    """conj A = S A S^-1 for a doubling: at i -> -sqrt(-1) the evaluated
    matrices differ from those at +sqrt(-1), but det A and every block
    minor agree, so the second half of the two-point axis is redundant."""
    differ = 0
    for code in _doubling_codes():
        setup = doubled_setup(code)
        ts = range(1, sum(setup.degs) + 2)
        for p, root in _primes(2):
            plus = _evaluate(setup.coeffs, ((root,), ts), p)
            minus = _evaluate(setup.coeffs, ((p - root,), ts), p)
            differ += not np.array_equal(plus, minus)
            for a, b in zip(_block_minors_mod(plus, p), _block_minors_mod(minus, p)):
                assert np.array_equal(a, b), code
    assert differ


def _big_quaternion(rng):
    """A random quaternion whose coefficients reach past 2^63."""
    def poly():
        return LaurentPoly({k: rng.choice((-1, 1)) * (2**63 + rng.randrange(2**66))
                            for k in rng.sample(range(-2, 3), rng.randint(0, 2))})

    return Quaternion(poly(), poly(), poly(), poly())


def test_big_doublings_take_the_one_point_axis(monkeypatch):
    rng = random.Random(7300)
    for m in (1, 2, 3):
        qmat = [[_big_quaternion(rng) for _ in range(m)] for _ in range(m)]
        dbl = double_matrix(qmat)
        setup = _gaussian_setup(dbl)
        assert setup.coeffs.dtype == object and _is_doubling(setup.coeffs)
        sels = _block_selections(m)
        fast, sizes = _stack_sizes(monkeypatch, det_gaussian_submatrices, setup, sels)
        assert len(sizes) >= 3 and sizes == [sum(setup.degs) + 1] * len(sizes)
        assert fast == _two_point(monkeypatch, det_gaussian_submatrices, setup, sels)
        for (rows, cols), d in zip(sels, fast):
            sub = [[dbl[r][c] for c in cols] for r in rows]
            assert d == det_bareiss(sub, G_ONE)
        assert not fast[0].is_zero()


def test_doubling_with_other_selections_keeps_two_points(monkeypatch):
    """A minor that deletes one row and one column of a doubling need not
    be real: with such a selection in the list, every selection is
    interpolated on the two-point axis."""
    rng = random.Random(7304)
    dbl = double_matrix([[rand_quaternion(rng) for _ in range(2)] for _ in range(2)])
    setup = _gaussian_setup(dbl)
    assert _is_doubling(setup.coeffs)
    sels = _block_selections(2) + [
        (tuple(x for x in range(4) if x != i), tuple(y for y in range(4) if y != j))
        for i in range(4)
        for j in range(4)
    ]
    fast, sizes = _stack_sizes(monkeypatch, det_gaussian_submatrices, setup, sels)
    assert sizes == [2 * (sum(setup.degs) + 1)] * len(sizes)
    for (rows, cols), d in zip(sels, fast):
        assert d == det_bareiss([[dbl[r][c] for c in cols] for r in rows], G_ONE)
    assert any(not d.im.is_zero() for d in fast[len(_block_selections(2)):])


def _many_stack_sizes(mats, i_points):
    """The sorted stack sizes det_gaussian_many hands _chunked_det: one
    stack per matrix size and CRT prime, i_points * (D + 1) evaluation
    points per nonzero matrix."""
    live = [s for s in map(_gaussian_setup, mats) if all(s.weights)]
    D = max(sum(s.degs) for s in live)
    primes = _num_primes_for(max(_coefficient_bound(s.weights) for s in live))
    per_size = Counter(len(s.shifts) for s in live).values()
    return sorted([i_points * (D + 1) * k for k in per_size] * primes)


def test_det_gaussian_many_takes_the_one_point_axis_on_doublings(monkeypatch):
    rng = random.Random(7301)
    dbls = [double_matrix([[rand_quaternion(rng) for _ in range(m)] for _ in range(m)])
            for m in (1, 2, 2, 3)]
    fast, sizes = _stack_sizes(
        monkeypatch, det_gaussian_many, dbls, name="_chunked_det"
    )
    assert sorted(sizes) == _many_stack_sizes(dbls, 1)
    assert all(d.im.is_zero() for d in fast)
    assert fast == _two_point(monkeypatch, det_gaussian_many, dbls)
    assert fast == [det_bareiss(d, G_ONE) for d in dbls]
    # one matrix that is no doubling puts the whole batch on two points
    mats = [*dbls, [[rand_gaussian(rng) for _ in range(4)] for _ in range(4)]]
    fast, sizes = _stack_sizes(
        monkeypatch, det_gaussian_many, mats, name="_chunked_det"
    )
    assert sorted(sizes) == _many_stack_sizes(mats, 2)
    assert fast == [det_bareiss(d, G_ONE) for d in mats]
    assert not fast[-1].im.is_zero()


@pytest.mark.parametrize("big", [False, True])
def test_is_doubling_rejects_every_single_coefficient_perturbation(monkeypatch, big):
    """A change to one real or imaginary coefficient of any cell of a block
    breaks the structure: the matrix goes to the two-point axis, and its
    determinant and block minors still match Bareiss."""
    rng = random.Random(7302 + big)
    m = 3
    qmat = [[_big_quaternion(rng) if big else rand_quaternion(rng) for _ in range(m)]
            for _ in range(m)]
    dbl = double_matrix(qmat)
    assert _is_doubling(_gaussian_setup(dbl).coeffs)
    assert (_gaussian_setup(dbl).coeffs.dtype == object) == big
    sels = _block_selections(m)
    complex_dets = 0
    for dr, dc, part in product(range(2), range(2), range(2)):
        br, bc = rng.randrange(m), rng.randrange(m)
        r, c = 2 * br + dr, 2 * bc + dc
        e = dbl[r][c]
        k = min([*e.re.terms, *e.im.terms], default=0)
        old = (e.im if part else e.re).terms.get(k, 0)
        bump = LaurentPoly({k: 2 if old == -1 else 1})
        pert = [row[:] for row in dbl]
        pert[r][c] = e + (GaussianLaurent(LaurentPoly({}), bump) if part
                          else GaussianLaurent(bump, LaurentPoly({})))
        setup = _gaussian_setup(pert)
        assert not _is_doubling(setup.coeffs), (dr, dc, part)
        fast, sizes = _stack_sizes(monkeypatch, det_gaussian_submatrices, pert, sels)
        assert sizes == [2 * (sum(setup.degs) + 1)] * len(sizes)
        for (rows, cols), d in zip(sels, fast):
            sub = [[pert[i][j] for j in cols] for i in rows]
            assert d == det_bareiss(sub, G_ONE), (dr, dc, part)
        complex_dets += not fast[0].im.is_zero()
    assert complex_dets
