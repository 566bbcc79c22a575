"""The determinant engines against slow exact oracles: fastdet's Study
determinants by Kronecker substitution and Bareiss, and the evaluation /
interpolation / CRT engine over Z[i][t, t^-1] kept in gaussian_engine,
against Bareiss and cofactor determinants and against each other."""

import random
import subprocess
import sys
from collections import Counter
from itertools import product
from math import prod
from typing import NamedTuple

import numpy as np
import pytest

import gaussian_engine as oracle
from gaussian_engine import (
    _batch_det_mod,
    _block_minors_mod,
    _coefficient_bound,
    _corank2_factors,
    _evaluate,
    _gauss_jordan_mod,
    _interpolate,
    _is_prime,
    _num_primes_for,
    _primes,
    _vand_inv,
)
from vknots.fastdet import (
    block_selections,
    det_gaussian_many,
    det_gaussian_submatrices,
    det_laurent2,
    quaternion_setup,
)
from vknots import invariants
from vknots.gausscode import edge_structure, parse_gauss
from vknots.invariants import (
    _qmat_setup,
    alexander_matrix,
    quaternionic_matrix,
)
from vknots.laurent import (
    LaurentPoly,
    LaurentPoly2,
    normalize_leadpos,
    normalize_unit,
    poly_gcd,
)
from vknots.matrix import det_bareiss, det_cofactor
from vknots.quaternion import GaussianLaurent, Quaternion, double_matrix

from conftest import catalog_and_walk_codes, doubled_setup, random_code
from test_invariants import (
    _quaternionic_setup_codes,
    rank_one_counterexample,
    reduced_gcd_counterexample,
)
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
    for g in oracle.det_gaussian_many(gmats, var=var):
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
    """det_laurent2 is det_bareiss, so the full relation matrices are
    checked against the independent cofactor expansion."""
    square = nonzero = 0
    for code in catalog_and_walk_codes(6, 40, seed=92):
        if not code.n_crossings or edge_structure(code).free_circles:
            continue  # the relation matrix is not square
        m = alexander_matrix(code)
        want = normalize_unit(det_cofactor(m))
        assert normalize_unit(det_laurent2(m)) == want, code
        square += 1
        nonzero += bool(want.terms)
    assert square > 100 and 0 < nonzero < square


def test_det_gaussian_many_matches_bareiss(rng):
    mats = [
        [[rand_gaussian(rng) for _ in range(n)] for _ in range(n)]
        for n in (1, 2, 3, 4, 4, 5)
    ]
    fast = oracle.det_gaussian_many(mats)
    for m, d in zip(mats, fast):
        assert d == det_bareiss(m, G_ONE)


def test_det_gaussian_many_zero_and_empty(rng):
    zrow = [[GaussianLaurent(LaurentPoly({}, "t"), LaurentPoly({}, "t"))] * 3] * 3
    fast = oracle.det_gaussian_many([zrow, []])
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
    (d,) = oracle.det_gaussian_submatrices(m, [((0, 1), (0, 1))])
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
        fast = oracle.det_gaussian_submatrices(m, selections)
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
        fast = oracle.det_gaussian_submatrices(m, selections)
        assert fast[0] == oracle.det_gaussian_many([m])[0] == det_bareiss(m, G_ONE)
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
    fast = oracle.det_gaussian_submatrices(m, selections)
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
        weights = oracle._gaussian_setup(mat)[3]
        assert weights == _weights(mat) == [weight] * 16
        assert _coefficient_bound(weights) == top + 1
        (d,) = oracle.det_gaussian_many([mat])
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
    fast = oracle.det_gaussian_submatrices(mat, selections)
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
                assert oracle._gaussian_setup(g)[3] == _weights(g)
                dg = det_bareiss(g, G_ONE)
                bound = _coefficient_bound(_weights(g))
                assert all(abs(c) <= bound for c in _coefficients(dg))
                assert oracle.det_gaussian_many([g])[0] == dg

            s = [[_scaled(rng, rand_lpoly2(rng)) for _ in range(n)] for _ in range(n)]
            ds = det_bareiss(s, L2_ONE)
            bound = _coefficient_bound(_weights(s))
            assert all(abs(c) <= bound for c in _coefficients(ds))
            assert det_laurent2(s) == ds


# --- doublings: the quaternion engine ---------------------------------------


def _block_selections(m):
    """The full selection of a 2m x 2m matrix, then its m^2 block deletions."""
    keep = [tuple(i for i in range(2 * m) if i // 2 != r) for r in range(m)]
    everything = (tuple(range(2 * m)), tuple(range(2 * m)))
    return [everything] + [(keep[r], keep[c]) for r in range(m) for c in range(m)]


def _two_point(monkeypatch, fn, *args):
    """fn(*args) with doublings unrecognised by the general engine, so on
    its two-point i axis."""
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_is_doubling", lambda coeffs: False)
        return fn(*args)


def _stack_sizes(monkeypatch, fn, *args, name="_block_minors_mod", module=oracle):
    """fn(*args), and the number of matrices in every stack that the
    elimination `name` bound in `module` got (one call per CRT prime)."""
    sizes = []
    real = getattr(module, name)

    def recording(a, p):
        sizes.append(len(a))
        return real(a, p)

    with monkeypatch.context() as mp:
        mp.setattr(module, name, recording)
        return fn(*args), sizes


def _real(dets):
    """The real parts of GaussianLaurent results, each checked real."""
    assert all(d.im.is_zero() for d in dets)
    return [d.re for d in dets]


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


class Doubling(NamedTuple):
    """A code's doubling as the engine reads it and as the oracles do."""

    code: object
    qsetup: object  # doubled_setup(code), the engine's QuaternionSetup
    matrix: list  # _square_doubling(code), GaussianLaurent entries
    gsetup: object  # the general engine's GaussianSetup of matrix
    one_point: list  # the general engine's block minors, on +sqrt(-1) only
    one_point_sizes: list  # its _block_minors_mod stack sizes, one per prime
    two_point: list  # and on the two-point i axis
    det: object  # det_bareiss of matrix


@pytest.fixture(scope="module")
def doublings():
    """Every code of _doubling_codes() with its oracle values, computed
    once for the tests of this module that read them."""
    out = []
    for code in _doubling_codes():
        matrix = _square_doubling(code)
        gsetup = oracle._gaussian_setup(matrix)
        sels = _block_selections(len(matrix) // 2)
        with pytest.MonkeyPatch.context() as mp:
            one_point, sizes = _stack_sizes(mp, oracle.det_gaussian_submatrices,
                                            gsetup, sels)
            two_point = _two_point(mp, oracle.det_gaussian_submatrices, gsetup, sels)
        det = det_bareiss(matrix, G_ONE)
        out.append(Doubling(code, doubled_setup(code), matrix, gsetup, one_point,
                            sizes, two_point, det))
    return out


def test_doubled_setups_take_the_one_point_axis(doublings):
    """The general engine recognises every code's doubling and takes the
    one point +sqrt(-1) (D + 1 matrices per prime), with the values of the
    two-point axis; fastdet's Study determinants of the quaternionic
    matrix and of each of its block submatrices are those values."""
    assert len(doublings) > 100 and max(d.code.n_crossings for d in doublings) == 10
    for k, dbl in enumerate(doublings):
        code, setup = dbl.code, dbl.qsetup
        assert oracle._is_doubling(dbl.gsetup.coeffs), code
        sels = _block_selections(len(setup.shifts))
        assert block_selections(len(setup.shifts))[0] == sels[0]
        D = 2 * sum(setup.degs)
        assert D == sum(dbl.gsetup.degs)
        sizes = dbl.one_point_sizes
        assert len(sizes) == _num_primes_for(_coefficient_bound(dbl.gsetup.weights))
        assert sizes == [D + 1] * len(sizes), code
        assert dbl.one_point == dbl.two_point, code
        fast = det_gaussian_submatrices(setup, sels)
        assert all(isinstance(d, LaurentPoly) for d in fast)
        assert fast == _real(dbl.one_point), code
        assert fast[0] == dbl.det.re and dbl.det.im.is_zero(), code
        assert det_gaussian_many([setup]) == fast[:1], code  # Kronecker, full-only
        if code.n_crossings <= 3:
            # one block minor per code, in turn, against Bareiss too
            rows, cols = sels[1 + k % (len(sels) - 1)]
            sub = [[dbl.matrix[r][c] for c in cols] for r in rows]
            assert fast[1 + k % (len(sels) - 1)] == det_bareiss(sub, G_ONE).re, code


def test_doubling_halves_agree_at_conjugate_points(doublings):
    """conj A = S A S^-1 for a doubling: at i -> -sqrt(-1) the evaluated
    matrices differ from those at +sqrt(-1), but det A and every block
    minor agree, so the second half of the two-point axis is redundant."""
    differ = 0
    for dbl in doublings:
        setup = dbl.gsetup
        ts = range(1, sum(setup.degs) + 2)
        for p, root in _primes(2):
            plus = _evaluate(setup.coeffs, ((root,), ts), p)
            minus = _evaluate(setup.coeffs, ((p - root,), ts), p)
            differ += not np.array_equal(plus, minus)
            for a, b in zip(_block_minors_mod(plus, p), _block_minors_mod(minus, p)):
                assert np.array_equal(a, b), dbl.code
    assert differ


def test_doublings_evaluate_as_the_oracle_lays_them_out(doublings):
    """The engine reads the m x m quaternion lists; doubled as the oracle
    lays them out, they are the general engine's 2m x 2m setup of the
    doubling, and at the first two primes their stacks at +sqrt(-1) are
    that setup's, to the byte."""
    for dbl in doublings:
        want = oracle.doubled_setup_of(dbl.qsetup)
        assert want.coeffs.dtype == dbl.gsetup.coeffs.dtype, dbl.code
        assert np.array_equal(want.coeffs, dbl.gsetup.coeffs), dbl.code
        assert want[1:] == dbl.gsetup[1:], dbl.code
        ts = range(1, 2 * sum(dbl.qsetup.degs) + 2)
        for p, root in _primes(2):
            got = _evaluate(want.coeffs, ((root,), ts), p)
            ref = _evaluate(dbl.gsetup.coeffs, ((root,), ts), p)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), dbl.code


def _big_quaternion(rng):
    """A random quaternion whose coefficients reach past 2^63."""
    def poly():
        return LaurentPoly({k: rng.choice((-1, 1)) * (2**63 + rng.randrange(2**66))
                            for k in rng.sample(range(-2, 3), rng.randint(0, 2))})

    return Quaternion(poly(), poly(), poly(), poly())


def test_big_doublings_take_the_one_point_axis(monkeypatch):
    """Doublings with coefficients past 2^63: the general engine takes the
    one-point axis on object arrays over three or more primes, with the
    values of the two-point axis, and fastdet's Study determinants are
    those values and Bareiss's."""
    rng = random.Random(7300)
    for m in (1, 2, 3):
        qmat = [[_big_quaternion(rng) for _ in range(m)] for _ in range(m)]
        dbl = double_matrix(qmat)
        gsetup = oracle._gaussian_setup(dbl)
        assert gsetup.coeffs.dtype == object and oracle._is_doubling(gsetup.coeffs)
        setup = _qmat_setup(qmat)
        assert oracle.coefficient_array(setup).dtype == object
        sels = _block_selections(m)
        one_point, sizes = _stack_sizes(monkeypatch, oracle.det_gaussian_submatrices,
                                        gsetup, sels)
        assert len(sizes) >= 3 and sizes == [2 * sum(setup.degs) + 1] * len(sizes)
        fast = det_gaussian_submatrices(setup, sels)
        assert fast == _real(one_point) == _real(
            _two_point(monkeypatch, oracle.det_gaussian_submatrices, gsetup, sels)
        )
        for (rows, cols), d in zip(sels, fast):
            sub = [[dbl[r][c] for c in cols] for r in rows]
            assert d == det_bareiss(sub, G_ONE).re
        assert not fast[0].is_zero()


def _other_selections(n):
    """The selections of an n x n matrix that delete one row and one column."""
    return [
        (tuple(x for x in range(n) if x != i), tuple(y for y in range(n) if y != j))
        for i in range(n)
        for j in range(n)
    ]


def test_doubling_with_other_selections_keeps_two_points(monkeypatch):
    """A minor that deletes one row and one column of a doubling need not
    be real: with such a selection in the list, the general engine
    interpolates every selection on the two-point axis, and the quaternion
    engine, whose results are real, refuses the list."""
    rng = random.Random(7304)
    qmat = [[rand_quaternion(rng) for _ in range(2)] for _ in range(2)]
    dbl = double_matrix(qmat)
    setup = oracle._gaussian_setup(dbl)
    assert oracle._is_doubling(setup.coeffs)
    sels = _block_selections(2) + _other_selections(4)
    fast, sizes = _stack_sizes(monkeypatch, oracle.det_gaussian_submatrices, setup,
                               sels, module=oracle)
    assert sizes == [2 * (sum(setup.degs) + 1)] * len(sizes)
    for (rows, cols), d in zip(sels, fast):
        assert d == det_bareiss([[dbl[r][c] for c in cols] for r in rows], G_ONE)
    assert any(not d.im.is_zero() for d in fast[len(_block_selections(2)):])
    with pytest.raises(ValueError):
        det_gaussian_submatrices(_qmat_setup(qmat), sels)


def _many_stack_sizes(mats, i_points):
    """The sorted stack sizes det_gaussian_many hands _chunked_det: one
    stack per matrix size and CRT prime, i_points * (D + 1) evaluation
    points per nonzero matrix."""
    live = [s for s in map(oracle._gaussian_setup, mats) if all(s.weights)]
    D = max(sum(s.degs) for s in live)
    primes = _num_primes_for(max(_coefficient_bound(s.weights) for s in live))
    per_size = Counter(len(s.shifts) for s in live).values()
    return sorted([i_points * (D + 1) * k for k in per_size] * primes)


def test_det_gaussian_many_takes_the_one_point_axis_on_doublings(monkeypatch):
    rng = random.Random(7301)
    qmats = [[[rand_quaternion(rng) for _ in range(m)] for _ in range(m)]
             for m in (1, 2, 2, 3)]
    dbls = [double_matrix(q) for q in qmats]
    fast, sizes = _stack_sizes(
        monkeypatch, oracle.det_gaussian_many, dbls, name="_chunked_det", module=oracle
    )
    assert sorted(sizes) == _many_stack_sizes(dbls, 1)
    assert all(d.im.is_zero() for d in fast)
    assert fast == _two_point(monkeypatch, oracle.det_gaussian_many, dbls)
    assert fast == [det_bareiss(d, G_ONE) for d in dbls]
    assert det_gaussian_many([_qmat_setup(q) for q in qmats]) == _real(fast)
    # one matrix that is no doubling puts the whole batch on two points
    mats = [*dbls, [[rand_gaussian(rng) for _ in range(4)] for _ in range(4)]]
    fast, sizes = _stack_sizes(
        monkeypatch, oracle.det_gaussian_many, mats, name="_chunked_det", module=oracle
    )
    assert sorted(sizes) == _many_stack_sizes(mats, 2)
    assert fast == [det_bareiss(d, G_ONE) for d in mats]
    assert not fast[-1].im.is_zero()


@pytest.mark.parametrize("big", [False, True])
def test_is_doubling_rejects_every_single_coefficient_perturbation(monkeypatch, big):
    """A change to one real or imaginary coefficient of any cell of a block
    breaks the structure: the general engine takes the matrix to the
    two-point axis, and its determinant and block minors still match
    Bareiss."""
    rng = random.Random(7302 + big)
    m = 3
    qmat = [[_big_quaternion(rng) if big else rand_quaternion(rng) for _ in range(m)]
            for _ in range(m)]
    dbl = double_matrix(qmat)
    assert oracle._is_doubling(oracle._gaussian_setup(dbl).coeffs)
    assert (oracle._gaussian_setup(dbl).coeffs.dtype == object) == big
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
        setup = oracle._gaussian_setup(pert)
        assert not oracle._is_doubling(setup.coeffs), (dr, dc, part)
        fast, sizes = _stack_sizes(monkeypatch, oracle.det_gaussian_submatrices, pert,
                                   sels, module=oracle)
        assert sizes == [2 * (sum(setup.degs) + 1)] * len(sizes)
        for (rows, cols), d in zip(sels, fast):
            sub = [[pert[i][j] for j in cols] for i in rows]
            assert d == det_bareiss(sub, G_ONE), (dr, dc, part)
        complex_dets += not fast[0].im.is_zero()
    assert complex_dets


# --- the quaternion engine against the general engine -----------------------


def _doubled_terms(terms):
    """The general engine's terms (part, row, col, exponent, value) of the
    doubling of quaternion terms (row, col, w, x, y, z, exponent)."""
    out = []
    for r, c, w, x, y, z, e in terms:
        r, c = 2 * r, 2 * c
        out += [
            (0, r, c, e, w), (1, r, c, e, x), (0, r, c + 1, e, y), (1, r, c + 1, e, z),
            (0, r + 1, c, e, -y), (1, r + 1, c, e, z),
            (0, r + 1, c + 1, e, w), (1, r + 1, c + 1, e, -x),
        ]
    return out


def _random_terms(rng, m, top):
    """Quaternion terms on an m x m matrix with repeated places, terms that
    cancel, one zero row and coefficients up to top."""
    terms = []
    for _ in range(rng.randint(0, 4 * m)):
        r, c = rng.randrange(m), rng.randrange(m)
        if m > 1 and r == m - 1:
            continue  # the last row stays zero
        vals = [rng.choice((0, rng.randint(-top, top))) for _ in range(4)]
        e = rng.randint(-3, 3)
        terms.append((r, c, *vals, e))
        if rng.random() < 0.3:  # the same place again, or its negative
            sign = rng.choice((1, -1))
            terms.append((r, c, *(sign * v for v in vals), e))
    return terms


def _coefficients_of(setup):
    """Every coefficient of a QuaternionSetup's nested lists."""
    return [v for row in setup.coeffs for entry in row for cs in entry for v in cs]


def _nested_shape(setup):
    """The shape (m, m, 4, width) of a QuaternionSetup's nested lists, or
    None when they are ragged."""
    c = setup.coeffs
    m = len(c)
    widths = {len(cs) for row in c for entry in row for cs in entry}
    if any(len(row) != m for row in c) or any(len(e) != 4 for row in c for e in row):
        return None
    return (m, m, 4, *widths) if len(widths) <= 1 else None


def _python_ints(setup):
    """Whether every coefficient, shift, degree and weight is a Python int."""
    return all(type(v) is int for v in _coefficients_of(setup)) and all(
        type(v) is int for lst in setup[1:] for v in lst
    )


@pytest.mark.parametrize("big", [False, True])
def test_quaternion_setup_matches_the_general_setup(big):
    """The m x m quaternion lists, doubled as the oracle lays them out,
    are the general engine's setup of the doubling built from the same
    terms: coefficients, and each row's shift, degree and weight twice.
    Every value is a Python int, past 2^63 too; big terms that cancel
    leave the small sum."""
    rng = random.Random(7400 + big)
    top = 2**66 if big else 6
    seen = Counter()
    for m in (1, 1, 2, 2, 3, 3, 4, 5):
        terms = _random_terms(rng, m, top)
        got = quaternion_setup(m, terms)
        want = oracle.gaussian_setup_from_terms(2 * m, _doubled_terms(terms))
        doubled = oracle.doubled_setup_of(got)
        assert _nested_shape(got) == (m, m, 4, max(got.degs) + 1)
        assert doubled.coeffs.dtype == want.coeffs.dtype, terms
        assert np.array_equal(doubled.coeffs, want.coeffs), terms
        assert doubled[1:] == want[1:], terms
        assert _python_ints(got)
        seen[any(abs(v) >= 2**63 for v in _coefficients_of(got))] += 1
    if big:
        n = 2**64
        cancel = quaternion_setup(1, [(0, 0, n, 0, 0, 0, 0), (0, 0, 1 - n, 2, 0, 0, 0)])
        assert [cs[0] for cs in cancel.coeffs[0][0]] == [1, 2, 0, 0]
    assert seen[big] > 0, seen


def _same_setup(got, want):
    """got, a QuaternionSetup of nested lists, holds the values of want,
    the numpy build, as Python ints (equal nested lists have one shape)."""
    return (got.coeffs == want.coeffs.tolist()
            and got[1:] == want[1:]
            and _python_ints(got))


def test_quaternion_setup_matches_the_numpy_build(monkeypatch):
    """quaternion_setup sums terms in Python ints; the numpy build it
    replaced (np.add.at, with int64-overflow guards) is the oracle: the
    same coefficients, shifts, degrees and weights on every call
    the quaternionic pair makes on kink, free-circle, catalog and walk
    codes, on random terms up to 6 and past 2^63, on big terms that
    cancel to int64, and on sums that leave int64 only when added."""
    calls = []
    real = invariants.quaternion_setup

    def recording(m, terms):
        calls.append((m, list(terms)))
        return real(m, terms)

    with monkeypatch.context() as mp:
        mp.setattr(invariants, "quaternion_setup", recording)
        for code in _quaternionic_setup_codes():
            invariants.quaternionic_invariant(code)
            if edge_structure(code).free_circles <= 1:
                doubled_setup(code)
    assert len({m for m, _terms in calls}) >= 5
    rng = random.Random(7410)
    for top in (6, 2**66):
        calls += [(m, _random_terms(rng, m, top)) for m in (1, 2, 3, 4, 5) for _ in range(3)]
    n = 2**64
    calls += [
        (1, [(0, 0, n, 0, 0, 0, 0), (0, 0, 1 - n, 2, 0, 0, 0)]),  # int64 again
        (2, [(1, 0, 0, 2**62, 0, 0, -1), (1, 0, 0, 2**62 + 5, 0, 0, -1)]),
        (1, [(0, 0, 0, 0, -(2**62), 0, 4), (0, 0, 0, 0, -(2**62), 0, 4)]),
        (3, []),
    ]
    seen = Counter()
    for m, terms in calls:
        got = quaternion_setup(m, terms)
        assert _same_setup(got, oracle.numpy_quaternion_setup(m, terms)), (m, terms)
        seen[any(abs(v) >= 2**63 for v in _coefficients_of(got))] += 1
    assert quaternion_setup(2, calls[-3][1]).coeffs[1][0][1][0] == 2**63 + 5
    assert quaternion_setup(1, calls[-2][1]).coeffs[0][0][2][0] == -(2**63)
    assert min(seen[True], seen[False]) >= 5, seen


def _quaternion_matrix_of_rank(rng, m, rank):
    """A random m x m quaternionic matrix that is a product of m x rank
    and rank x m factors."""
    x = [[rand_quaternion(rng) for _ in range(rank)] for _ in range(m)]
    y = [[rand_quaternion(rng) for _ in range(m)] for _ in range(rank)]
    zero = Quaternion()
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            e = zero
            for k in range(rank):
                e = e + x[i][k] * y[k][j]
            row.append(e)
        out.append(row)
    return out


@pytest.mark.parametrize("big", [False, True])
def test_engine_matches_general_engine_and_bareiss(big):
    """Random quaternionic matrices of every rank, a zero row and the zero
    matrix: the engine's determinant and block minors are the general
    engine's, all real, and Bareiss's on the doubling."""
    rng = random.Random(7500 + big)
    entry = _big_quaternion if big else rand_quaternion
    cases = []  # (matrix, whether its coefficients pass 2^63)
    for m in (1, 2, 3, 4):
        cases.append(([[entry(rng) for _ in range(m)] for _ in range(m)], big))
        for rank in range(m) if not big else ():
            cases.append((_quaternion_matrix_of_rank(rng, m, rank), False))
    zero_row = [[entry(rng) for _ in range(3)] for _ in range(3)]
    zero_row[1] = [Quaternion()] * 3
    cases += [(zero_row, big), ([[Quaternion()] * 2] * 2, False)]
    nonzero = 0
    for qmat, over in cases:
        m = len(qmat)
        setup = _qmat_setup(qmat)
        assert any(abs(v) >= 2**63 for v in _coefficients_of(setup)) == over
        sels = block_selections(m)
        fast = det_gaussian_submatrices(setup, sels)
        dbl = double_matrix(qmat)
        assert fast == _real(oracle.det_gaussian_submatrices(dbl, sels))
        assert det_gaussian_many([setup]) == fast[:1]
        if m <= 3:
            for (rows, cols), d in zip(sels, fast):
                sub = [[dbl[r][c] for c in cols] for r in rows]
                assert d == det_bareiss(sub, G_ONE).re
        nonzero += not fast[0].is_zero()
    assert 0 < nonzero < len(cases)


def _full_only(setup):
    """The full-only det_gaussian_submatrices call."""
    (det,) = det_gaussian_submatrices(setup, block_selections(len(setup.shifts))[:1])
    return det


def _oracle_study(setup):
    """det A of a QuaternionSetup by the general engine: dets[0] of its
    call on the doubling that asks for every block selection."""
    sels = _block_selections(len(setup.shifts))
    return _real(oracle.det_gaussian_submatrices(oracle.doubled_setup_of(setup), sels))[0]


def test_the_package_imports_no_numpy():
    """Importing vknots and its command line leaves numpy unloaded: every
    determinant is taken in Python ints."""
    code = "import sys, vknots, vknots.cli; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_full_selection_alone_takes_kronecker_bareiss():
    """Asked for the full selection alone, det_gaussian_submatrices takes
    det A by Kronecker substitution and Bareiss's two-step elimination on
    the doubling's 2 x 2 blocks (fastdet._study_bareiss), and returns
    dets[0] of the call that asks for every block selection, the general
    engine's det A and Bareiss's det over GaussianLaurent.  A doubling has
    even rank over Q(i)(t), so the setups are of rank N, N - 2 and N - 4;
    the constant entry root + i, whose norm root^2 + 1 is 0 mod the first
    prime, makes the evaluated matrices of rank N - 1 (and two of them
    N - 2) at every point of that prime, where the general engine takes
    its rank N - 1 rule."""
    rng = random.Random(7700)
    p, root = _primes(1)[0]
    bad = Quaternion.const(root, 1)
    cases = []
    for m in (1, 2, 3, 4):
        cases.append([[rand_quaternion(rng) for _ in range(m)] for _ in range(m)])
        cases += [_quaternion_matrix_of_rank(rng, m, rank) for rank in range(m)]
        for k in range(1, min(m, 2) + 1):
            qmat = [[rand_quaternion(rng) for _ in range(m)] for _ in range(m)]
            for d in range(k):
                qmat[d] = [Quaternion()] * m
                qmat[d][d] = bad
            cases.append(qmat)
    nonzero, coranks = 0, set()
    for qmat in cases:
        setup = _qmat_setup(qmat)
        sels = block_selections(len(qmat))
        ts = range(1, 2 * sum(setup.degs) + 2)
        stack = _evaluate(oracle.doubled_setup_of(setup).coeffs, ((root,), ts), p)
        coranks |= set((2 * len(qmat) - _gauss_jordan_mod(stack, p)[1]).tolist())
        det = _full_only(setup)
        assert det_gaussian_many([setup]) == [det], qmat
        assert det == det_gaussian_submatrices(setup, sels)[0] == _oracle_study(setup), qmat
        want = det_bareiss(double_matrix(qmat), G_ONE)
        assert want.im.is_zero() and det == want.re, qmat
        nonzero += not det.is_zero()
    assert 0 < nonzero < len(cases) and {0, 1, 2} <= coranks
    # and mod p alone, on random stacks of rank N, N - 1 and N - 2
    for n in (2, 4, 6):
        stack = np.array([_matrix_of_rank(rng, n, rank, p)
                          for rank in range(n - 2, n + 1) for _ in range(3)])
        assert np.array_equal(oracle._chunked_det(stack, p), _block_minors_mod(stack, p)[0])


def _random_setups(rng):
    """QuaternionSetups of random m x m matrices, m = 1..6: full, of every
    rank below m, with a zero row, and with coefficients past 2^63."""
    qmats = []
    for m in range(1, 7):
        qmats.append([[rand_quaternion(rng) for _ in range(m)] for _ in range(m)])
        qmats += [_quaternion_matrix_of_rank(rng, m, rank)
                  for rank in rng.sample(range(m), min(m, 2))]
        zero_row = [[rand_quaternion(rng) for _ in range(m)] for _ in range(m)]
        zero_row[rng.randrange(m)] = [Quaternion()] * m
        qmats.append(zero_row)
        if m <= 4:
            qmats.append([[_big_quaternion(rng) for _ in range(m)] for _ in range(m)])
    return [_qmat_setup(q) for q in qmats]


def _code_setups():
    """QuaternionSetups of the relation matrices of kink codes, codes with
    one free circle and catalog and walk codes (without the free-circle
    columns), and of the rests their unit-pivot reductions leave."""
    out = []
    for code in _quaternionic_setup_codes():
        es = edge_structure(code)
        if not es.edges or es.free_circles > 1:
            continue
        rows = invariants._quaternionic_rows(es)
        _steps, S = invariants._unit_reduce(rows, invariants._qmono_mul,
                                            invariants._qmono_inv)
        out.append(invariants._setup_of(S))
        if code.n_crossings <= 3:
            out.append(invariants._setup_of(rows))
    return out


def test_study_kronecker_matches_the_numpy_engine():
    """Kronecker substitution and two-step Bareiss against the numpy
    engine kept in gaussian_engine: its det A (dets[0] of the call on the
    doubling that asks for every block selection, on evaluation,
    elimination mod p, interpolation and CRT) on random setups of 1-6
    rows, the rests and small relation matrices of kink, free-circle,
    catalog and walk codes, and both pinned counterexamples of the
    reduction; Bareiss over GaussianLaurent too up to 3 rows."""
    rng = random.Random(7900)
    setups = _random_setups(rng) + _code_setups()
    pinned = [reduced_gcd_counterexample(), rank_one_counterexample()]
    setups += [_qmat_setup(q) for q in pinned]
    seen = Counter()
    for setup in setups:
        m = len(setup.shifts)
        det = _full_only(setup)
        assert det == _oracle_study(setup), setup
        seen["zero"] += det.is_zero()
        seen["object"] += oracle.coefficient_array(setup).dtype == object
        seen["zero row"] += not all(setup.weights)
        seen["past int64"] += any(abs(c) >= 2**63 for c in det.terms.values())
        seen["negative"] += any(c < 0 for c in det.terms.values())
        seen[m] += 1
    dets = [_full_only(_qmat_setup(q)) for q in pinned]
    assert [normalize_leadpos(d) for d in dets] == [LaurentPoly.const(9), LaurentPoly({})]
    assert dets == [det_bareiss(double_matrix(q), G_ONE).re for q in pinned]
    for setup in setups[:40]:
        if len(setup.shifts) <= 3:
            qmat = [[Quaternion(*(_poly_of(setup, r, c, k) for k in range(4)))
                     for c in range(len(setup.shifts))] for r in range(len(setup.shifts))]
            want = det_bareiss(double_matrix(qmat), G_ONE)
            assert _full_only(setup) == want.re and want.im.is_zero()
    assert all(seen[m] for m in range(1, 7)) and min(seen.values()) >= 2, seen


def _poly_of(setup, r, c, k):
    """Component k of entry (r, c) of the matrix a QuaternionSetup stands
    for, its row shift put back."""
    cs = setup.coeffs[r][c][k]
    return LaurentPoly({d + setup.shifts[r]: v for d, v in enumerate(cs) if v})


def test_study_kronecker_meets_the_hadamard_bound():
    """1 x 1 constants c, -c i and c k times t^3: the row weight is c^2
    and det = c^2 t^6, one below the bound prod(weights) + 1 that sets
    t = 2^B, so the top digit of the balanced base 2^B is needed.  The
    same entry in a 2 x 2 matrix whose other row is the unit 1 in the
    other column, (1, 1) minor: that minor keeps row 0 alone, so it takes
    the bound of that row and needs its top digit too."""
    for c in (2, 3, 5, 181, 2**31 + 11, 2**70 + 1):
        for parts in ((c, 0, 0, 0), (0, -c, 0, 0), (0, 0, 0, c)):
            setup = quaternion_setup(1, [(0, 0, *parts, 3)])
            assert setup.weights == [c * c]
            (det,) = det_gaussian_submatrices(setup, block_selections(1)[:1])
            assert det == LaurentPoly({6: c * c})
            setup = quaternion_setup(2, [(0, 0, *parts, 3), (1, 1, 1, 0, 0, 0, 0)])
            assert setup.weights == [c * c, 1]
            sels = block_selections(2)  # the full one, then (0, 0), (1, 1), ...
            full, minor = det_gaussian_submatrices(setup, [sels[0], sels[2]])
            assert full == minor == LaurentPoly({6: c * c})
    # det = c^2 (1 - t)^2 has the negative middle coefficient -2 c^2
    setup = quaternion_setup(1, [(0, 0, 5, 0, 0, 0, 0), (0, 0, -5, 0, 0, 0, 1)])
    (det,) = det_gaussian_many([setup])
    assert det == LaurentPoly({0: 25, 1: -50, 2: 25})


def test_engine_on_kishino():
    """Kishino's knot: Study determinant 0, codim-1 gcd 2 + 5t^2 + 2t^4,
    from one engine call on doubled_setup, as from the general engine."""
    code = parse_gauss("O1+U2-U1+O2-U3-O4+O3-U4+")
    setup = doubled_setup(code)
    sels = block_selections(len(setup.shifts))
    dets = det_gaussian_submatrices(setup, sels)
    assert dets == _real(oracle.det_gaussian_submatrices(_square_doubling(code), sels))
    gcd = LaurentPoly({})
    for d in dets[1:]:
        gcd = poly_gcd(gcd, d)
    assert dets[0].is_zero() and det_gaussian_many([setup]) == [LaurentPoly({})]
    assert normalize_leadpos(gcd).render() == "2 + 5*t^2 + 2*t^4"


def test_engine_refuses_non_block_selections():
    rng = random.Random(7600)
    setup = _qmat_setup([[rand_quaternion(rng) for _ in range(3)] for _ in range(3)])
    full = tuple(range(6))
    keep0 = tuple(range(2, 6))
    for sel in [((0,), (2,)), (full, keep0), (keep0, full), (full[:5], full[:5]),
                ((0, 1, 2, 3), (0, 1, 4, 5)[::-1]), *_other_selections(6)[:3]]:
        with pytest.raises(ValueError):
            det_gaussian_submatrices(setup, [block_selections(3)[0], sel])


def test_engine_zero_and_empty_setups():
    assert det_gaussian_many([_qmat_setup([]), _qmat_setup([[Quaternion()] * 3] * 3)]) \
        == [LaurentPoly.const(1), LaurentPoly({})]
    assert det_gaussian_submatrices(_qmat_setup([]), [((), ())]) == [LaurentPoly.const(1)]
