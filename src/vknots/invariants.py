"""Polynomial and combinatorial invariants of signed oriented Gauss codes:
bracket state sum, writhe-normalized f-polynomial, generalized Alexander
polynomial over Z[s,t]^{+/-}, the quaternionic biquandle pair (Study
determinant, codimension-1 gcd), atom genus/orientability, and the
arrow-diagram expansion.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .budget import BudgetError, read_budget
from .fastdet import (
    block_places,
    block_selections,
    det_gaussian_many,
    det_gaussian_submatrices,
    det_laurent2,
    quaternion_setup,
)
from .gausscode import edge_structure
from .laurent import (
    LaurentPoly,
    LaurentPoly2,
    normalize_leadpos,
    normalize_unit,
    poly_gcd,
)
from .quaternion import Quaternion

# --- state smoothing geometry ---------------------------------------------
#
# Each crossing meets four edge-ends: over-in, over-out, under-in,
# under-out.  The orientation-respecting smoothing joins over-in with
# under-out and under-in with over-out; the disoriented smoothing joins
# the two inputs together and the two outputs together, reversing the
# traversal direction across the joint.  The A-smoothing is the
# orientation-respecting one at a positive crossing and the disoriented
# one at a negative crossing (fixed by R2-invariance of the bracket).


def _oriented(sign, smoothing):
    return (sign > 0) == (smoothing == "A")


def _crossing_end_pairs(ends, oriented):
    """Matched edge-end pairs at one crossing, whose EdgeStructure
    crossing_ends are (over_in, over_out, under_in, under_out)."""
    o_in, o_out, u_in, u_out = ends
    if oriented:
        return ((o_in, u_out), (u_in, o_out))
    return ((o_in, u_in), (o_out, u_out))


def loop_count(code, state):
    """Number of loops after smoothing every crossing per the state."""
    es = edge_structure(code)
    return len(_traced_loops(es, state)[0]) + es.free_circles


def writhe(code):
    return sum(e.sign for comp in code.components for e in comp) // 2


STATE_BUDGET_ENV_VAR = "VKNOTS_STATE_BUDGET"
DEFAULT_STATE_BUDGET = 5 * 10**4


def _sweep_order(es):
    """Crossing labels in a greedy narrow-cut order.

    Each step sweeps the crossing, first in label order among equals,
    that leaves the fewest edges with exactly one swept end: an edge-end
    whose partner end sits at a swept crossing scores 2 (the edge leaves
    the cut), one whose partner sits at the crossing itself (a kink)
    scores 1, twice per kink edge (the edge never enters the cut).  The
    scores are kept up to date as crossings are swept: sweeping one adds
    2 to a partner's score once per edge they share.
    """
    ends = es.crossing_ends
    at = {x: label for label, xs in ends.items() for x in xs}
    partners = {label: [at[x ^ 1] for x in xs] for label, xs in ends.items()}
    score = {label: ys.count(label) for label, ys in partners.items()}
    order = []
    rest = sorted(ends)
    while rest:
        label = max(rest, key=score.__getitem__)
        rest.remove(label)
        order.append(label)
        for y in partners[label]:
            score[y] += 2
    return order


def _state_counts(code):
    """Histogram {(a_choices, loops): multiplicity} over all 2^n states.

    Frontier dynamic programming: crossings are smoothed one at a time in
    _sweep_order.  A DP state is the pairing of the open edge-ends (ends
    at crossings not yet smoothed).  Its key is a byte string with one
    item per edge end (edge e has tail 2e and head 2e + 1): item x is the
    far end of the strand that leaves x, which is x ^ 1 while both ends
    of x's edge are open, and a sentinel (all bits set) once x's crossing
    is swept, so that states with the same pairing have the same key.  An
    item is one byte while the end ids stay below the sentinel (at most
    127 edges), two bytes up to 32 767 edges and a C long past that.
    Smoothing joins two ends x, y: when item x is y the strand closes
    into a loop, otherwise the far ends of x and y become partners.  One
    smoothing costs an array copy of the key, at most eight item writes
    and one tobytes().

    Each state carries its histogram as one packed int: slot
    loops * (n + 1) + a_choices, for loops closed so far, is n + 1 bits
    wide.  A slot counts at most 2^n states and no count is negative, so
    no carry crosses a slot, an A-smoothing is a shift by one slot, a
    closed loop a shift by n + 1 slots, and merging two states is one
    addition.  Work grows with the number of states, which depends on the
    cut width rather than on n; past VKNOTS_STATE_BUDGET states after one
    crossing the sum stops with BudgetError.
    """
    es = edge_structure(code)
    if not es.edges:
        return {(0, es.free_circles): 1}
    budget = read_budget(STATE_BUDGET_ENV_VAR, DEFAULT_STATE_BUDGET)
    width = len(es.crossing_ends) + 1  # bits per slot; a_choices in 0..n
    nends = 2 * len(es.edges)
    typecode = "B" if nends < 0xFF else "H" if nends < 0xFFFF else "L"
    sentinel = (1 << 8 * array(typecode).itemsize) - 1
    loop_shift = width * width
    states = {array(typecode, [x ^ 1 for x in range(nends)]).tobytes(): 1}
    for label in _sweep_order(es):
        ends = es.crossing_ends[label]
        ori = _oriented(es.signs[label], "A")
        smoothings = (
            (width, _crossing_end_pairs(ends, ori)),
            (0, _crossing_end_pairs(ends, not ori)),
        )
        e1, e2, e3, e4 = ends
        swept = {}
        for key, hist in states.items():
            for shift, pairs in smoothings:
                mate = array(typecode, key)
                for x, y in pairs:
                    mx = mate[x]
                    if mx == y:
                        shift += loop_shift
                    else:
                        my = mate[y]
                        mate[mx] = my
                        mate[my] = mx
                mate[e1] = mate[e2] = mate[e3] = mate[e4] = sentinel
                new_key = mate.tobytes()
                swept[new_key] = swept.get(new_key, 0) + (hist << shift)
        if len(swept) > budget:
            raise BudgetError(
                f"bracket state sum exceeded budget of {budget} frontier "
                f"states (override with {STATE_BUDGET_ENV_VAR})"
            )
        states = swept
    (hist,) = states.values()
    # read the slots off the binary digits, lowest slot last
    digits = format(hist, "b")
    out = {}
    for k, stop in enumerate(range(len(digits), 0, -width)):
        m = int(digits[max(stop - width, 0):stop], 2)
        if m:
            loops, a_used = divmod(k, width)
            out[(a_used, loops + es.free_circles)] = m
    return out


def bracket(code):
    """Kauffman bracket: sum over states of A^(a-b) d^(loops-1)."""
    n = len(code.labels)
    by_loops = {}  # loops - 1 -> {exponent of A: multiplicity}
    for (a_used, loops), mult in _state_counts(code).items():
        by_loops.setdefault(loops - 1, {})[2 * a_used - n] = mult
    d = LaurentPoly({2: -1, -2: -1}, "A")
    total = LaurentPoly({}, "A")
    for k in range(max(by_loops), -1, -1):  # Horner in d; loops >= 1
        total = total * d + LaurentPoly(by_loops.get(k, {}), "A")
    return total


def f_polynomial(code):
    """(-A^3)^(-w) times the bracket; invariant of all generalized moves."""
    w = writhe(code)
    br = bracket(code)
    sign = -1 if w % 2 else 1
    return br * LaurentPoly.monomial(sign, -3 * w, "A")


def jones_t_form(f):
    """Render f(A) as V(t) via t = A^-4 when all exponents allow it.

    Returns the rendered string, or None when some exponent of f is not
    divisible by 4 (links; fractional powers are suppressed)."""
    if any(e % 4 for e in f.terms):
        return None
    return LaurentPoly({-e // 4: c for e, c in f.terms.items()}, "t").render()


# --- unit-pivot reduction ---------------------------------------------------
#
# Every relation row has a literal 1 on an out-edge, so most of a relation
# matrix can be eliminated exactly by Schur complements before any
# determinant is taken: the Tietze move on presentations (Fox, "Free
# differential calculus II", Ann. of Math. 1954).  Matrices are lists of
# sparse rows {column: entry}, each entry a nonempty {monomial: coefficient}
# dict.  A ring is given by the product of two monomials and the inverse of
# a monomial, each returned as (sign, monomial): over Z[s^+/-, t^+/-] a
# monomial is (a, b) for s^a t^b; over H[t^+/-] it is (tpow, basis) for
# basis 1, i, j, k numbered 0..3, and t is central.

# _QBASIS[p][q] = (sign, r) with basis p times basis q = sign * basis r
_QBASIS = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0)),
)


def _qmono_mul(x, y):
    sign, basis = _QBASIS[x[1]][y[1]]
    return sign, (x[0] + y[0], basis)


def _qmono_inv(x):
    return (-1 if x[1] else 1), (-x[0], x[1])


def _lmono_mul(x, y):
    return 1, (x[0] + y[0], x[1] + y[1])


def _lmono_inv(x):
    return 1, (-x[0], -x[1])


def _sparse_rows(nrows, terms):
    """The sparse rows of the sum of the terms (row, column, monomial,
    coefficient); terms landing on one entry, at a kink, add up, and
    what cancels is dropped."""
    rows = [{} for _ in range(nrows)]
    for r, c, mono, v in terms:
        entry = rows[r].setdefault(c, {})
        entry[mono] = entry.get(mono, 0) + v
    out = []
    for row in rows:
        row = {c: {x: v for x, v in e.items() if v} for c, e in row.items()}
        out.append({c: e for c, e in row.items() if e})
    return out


def _unit_reduce(rows, mul, inv):
    """Eliminate unit pivots from a square sparse matrix M.

    An entry is a unit when it is one monomial with coefficient +-1.  Each
    step takes the unit u = M[r][c] with the fewest fill-ins,
    (row entries - 1) * (column entries - 1) (Markowitz), the first found
    among equals, drops row r and column c, and replaces every other
    entry by M[r'][c'] - M[r'][c] u^-1 M[r][c'], in that order.  It stops
    when no unit is left or one row is, so the result is never 0 x 0.
    Returns (steps, S), S the Schur complement as sparse rows, its rows
    and columns in their order in M, and steps one record
    (r, c, u^-1, pivot row, f column) per pivot in order: u^-1 as a
    one-term entry, the pivot row {c': M[r][c']} without column c, and
    the f column {r': M[r'][c] u^-1}, both as M stood at that step.
    rows is not changed.

    Over a commutative ring det M = +-prod u_k det S, and the Study
    determinant of M is prod N(u_k) times that of S: both change by a
    unit.  Every block minor of S is, up to a unit, a block minor of M
    that keeps the pivots, so the gcd of M's block minors divides that of
    S's; it can be smaller, so only a gcd of 1 carries over.
    """
    rows = dict(enumerate(map(dict, rows)))
    ncols = len(rows)
    cols = {}  # column -> the rows with an entry there
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    steps = []
    while len(rows) > 1:
        best = None
        for r, row in rows.items():
            for c, e in row.items():
                if len(e) == 1:
                    ((x, v),) = e.items()
                    if v == 1 or v == -1:
                        cost = (len(row) - 1) * (len(cols[c]) - 1)
                        if best is None or cost < best[0]:
                            best = (cost, r, c, x, v)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _cost, r, c, x, v = best
        prow = rows.pop(r)
        del prow[c]
        for c2 in prow:
            cols[c2].discard(r)
        below = cols.pop(c)
        below.discard(r)
        sign, uinv = inv(x)
        sign *= v  # u^-1 = v * inv(x), as v = +-1
        fcol = {}
        steps.append((r, c, {uinv: sign}, prow, fcol))
        for r2 in below:
            row2 = rows[r2]
            f = fcol[r2] = {}  # M[r2][c] u^-1
            for y, w in row2.pop(c).items():
                s, z = mul(y, uinv)
                f[z] = s * sign * w
            for c2, b in prow.items():
                e = dict(row2.get(c2, ()))
                for y, w in f.items():
                    for z, w2 in b.items():
                        s, yz = mul(y, z)
                        t = e.get(yz, 0) - s * w * w2
                        if t:
                            e[yz] = t
                        else:
                            del e[yz]
                if e:
                    row2[c2] = e
                    cols[c2].add(r2)
                elif c2 in row2:
                    del row2[c2]
                    cols[c2].discard(r2)
    renumber = {c: k for k, c in enumerate(_kept(steps, ncols, 1))}
    S = [{renumber[c]: e for c, e in rows[r].items()} for r in sorted(rows)]
    return steps, S


def _kept(steps, m, side):
    """The rows (side 0) or columns (side 1) of an m x m matrix that its
    reduction steps left, in order."""
    gone = {step[side] for step in steps}
    return [i for i in range(m) if i not in gone]


# --- generalized Alexander polynomial --------------------------------------
#
# One generator per diagram edge; each crossing contributes two relations.
# With a = under-in, b = over-in, c = under-out, d = over-out:
#   positive:  c = t a + (1 - s t) b,        d = s b
#   negative:  c = t^-1 a + (1 - s^-1 t^-1) b,  d = s^-1 b
# Rows are outputs minus the operation applied to inputs; the determinant
# is taken up to units +/- s^i t^j.


def _alexander_rows(code, es):
    """The Alexander relation matrix as sparse rows, one pair per crossing
    in the code's label order; entries are {(a, b): coefficient} dicts
    for the monomials s^a t^b."""
    terms = []
    for k, label in enumerate(code.labels):
        o_in, o_out, u_in, u_out = es.crossing_edges[label]
        eps = 1 if es.signs[label] > 0 else -1
        r1, r2 = 2 * k, 2 * k + 1
        terms += [
            # c - t^eps a - (1 - s^eps t^eps) b = 0
            (r1, u_out, (0, 0), 1),
            (r1, u_in, (0, eps), -1),
            (r1, o_in, (0, 0), -1),
            (r1, o_in, (eps, eps), 1),
            # d - s^eps b = 0
            (r2, o_out, (0, 0), 1),
            (r2, o_in, (eps, 0), -1),
        ]
    return _sparse_rows(2 * code.n_crossings, terms)


def alexander_matrix(code):
    """Relation matrix over Z[s^+/-, t^+/-]; columns indexed by edges,
    then one zero column per crossing-free circle component."""
    es = edge_structure(code)
    ncols = len(es.edges) + es.free_circles
    rows = _alexander_rows(code, es)
    return [[LaurentPoly2(row.get(c)) for c in range(ncols)] for row in rows]


def _alexander_det(rows):
    """The determinant, up to a unit +-s^a t^b, of a square matrix over
    Z[s^+/-, t^+/-] given as sparse rows: reduced by unit pivots first
    (see _unit_reduce), then the rest taken by det_laurent2."""
    _steps, S = _unit_reduce(rows, _lmono_mul, _lmono_inv)
    return det_laurent2([[LaurentPoly2(r.get(c)) for c in range(len(S))] for r in S])


def gen_alexander(code):
    """Normalized determinant of the Alexander-biquandle relation matrix.

    Vanishes on classical codes.  A crossing-free circle component adds a
    relation-free generator, so the zeroth elementary ideal (hence the
    result) is 0 whenever one is present alongside anything else.
    """
    es = edge_structure(code)
    if es.free_circles or not code.n_crossings:
        return LaurentPoly2({})  # a free circle, or the bare unknot
    return normalize_unit(_alexander_det(_alexander_rows(code, es)))


# --- quaternionic biquandle invariant ---------------------------------------
#
# Same edge/relation scheme with quaternionic coefficients:
#   positive:  c = j t a + (1 + i) b,      d = (1 + i) a - j t^-1 b
#   negative:  c = j t^-1 a + (1 - i) b,   d = (1 - i) a - j t b
# (the negative rules are the inverses of the positive ones, i.e. the
# positive rules with t -> t^-1 and i -> -i).  The invariant pair is the
# Study determinant of the relation matrix and the gcd of the Study
# determinants of its codimension-1 minors, each defined up to units.


def _quaternionic_rows(es):
    """The quaternionic relation matrix without its free-circle columns,
    as sparse rows, one pair per crossing in label order; entries are
    {(tpow, basis): coefficient} dicts, basis 0..3 for 1, i, j, k."""
    terms = []
    for k, label in enumerate(sorted(es.crossing_edges)):
        o_in, o_out, u_in, u_out = es.crossing_edges[label]
        eps = 1 if es.signs[label] > 0 else -1
        r1, r2 = 2 * k, 2 * k + 1
        terms += [
            # c - (j t^eps) a - (1 + eps*i) b = 0
            (r1, u_out, (0, 0), 1),
            (r1, u_in, (eps, 2), -1),
            (r1, o_in, (0, 0), -1),
            (r1, o_in, (0, 1), -eps),
            # d - (1 + eps*i) a + (j t^-eps) b = 0
            (r2, o_out, (0, 0), 1),
            (r2, u_in, (0, 0), -1),
            (r2, u_in, (0, 1), -eps),
            (r2, o_in, (-eps, 2), 1),
        ]
    return _sparse_rows(len(es.edges), terms)


def _quaternion_of(entry):
    """The Quaternion of a sparse {(tpow, basis): coefficient} entry."""
    parts = [{}, {}, {}, {}]
    for (tpow, basis), v in entry.items():
        parts[basis][tpow] = v
    return Quaternion(*map(LaurentPoly, parts))


def _entry_norm(entry):
    """N(q) = w^2 + x^2 + y^2 + z^2 of a sparse {(tpow, basis):
    coefficient} entry: each basis part's terms squared into one
    LaurentPoly, with no Quaternion built."""
    parts = [[], [], [], []]
    for (tpow, basis), v in entry.items():
        parts[basis].append((tpow, v))
    acc = {}
    for part in parts:
        for k, (e, v) in enumerate(part):
            acc[2 * e] = acc.get(2 * e, 0) + v * v
            for e2, v2 in part[k + 1 :]:
                acc[e + e2] = acc.get(e + e2, 0) + 2 * v * v2
    return LaurentPoly(acc)


def quaternionic_matrix(code):
    """Quaternionic relation matrix; zero columns for free circles."""
    es = edge_structure(code)
    ncols = len(es.edges) + es.free_circles
    return [
        [_quaternion_of(row.get(c, {})) for c in range(ncols)]
        for row in _quaternionic_rows(es)
    ]


def _qmat_rows(qmat):
    """The sparse rows of a square matrix of Quaternions."""
    m = len(qmat)
    if any(len(row) != m for row in qmat):
        raise ValueError(f"quaternionic matrix is not square: {m} rows")
    terms = [
        (r, c, (tpow, basis), v)
        for r, row in enumerate(qmat)
        for c, q in enumerate(row)
        for basis, part in enumerate((q.w, q.x, q.y, q.z))
        for tpow, v in part.terms.items()
    ]
    return _sparse_rows(m, terms)


def _setup_of(rows):
    """The determinant engine's QuaternionSetup of a square quaternionic
    matrix given as sparse rows."""
    terms = []
    for r, row in enumerate(rows):
        for c, entry in row.items():
            for (tpow, basis), v in entry.items():
                parts = [0, 0, 0, 0]
                parts[basis] = v
                terms.append((r, c, *parts, tpow))
    return quaternion_setup(len(rows), terms)


def _qmat_setup(qmat):
    """The QuaternionSetup of a square quaternionic matrix."""
    return _setup_of(_qmat_rows(qmat))


def study_determinant(qmat):
    """Determinant of the complex doubling of a square quaternionic
    matrix, which is real: a LaurentPoly.

    qmat is the quaternionic matrix, or the determinant itself when the
    engine has computed it already.
    """
    if isinstance(qmat, LaurentPoly):
        return qmat
    if not qmat:
        return LaurentPoly.const(1)
    return det_gaussian_many([_qmat_setup(qmat)])[0]


def _fold_study_gcd(g, dets):
    for d in dets:
        # g is normalized, so this means d = +-t^k g and gcd(g, d) = g
        if not g.is_zero() and normalize_leadpos(d) == g:
            continue
        g = poly_gcd(g, d)
        if g == LaurentPoly.const(1):
            break
    return g


def codim1_gcd(qmat):
    """gcd in Z[t] of the Study determinants of all first minors of a
    square quaternionic matrix, normalized to t-valuation 0 and positive
    leading coefficient: the gcd of _quaternionic_pair on its sparse rows.
    """
    if not qmat:
        return LaurentPoly.const(1)
    return _quaternionic_pair(_qmat_rows(qmat))[1]


def _reduced_study(S):
    """Study determinant of a reduced matrix S: the norm of its one entry,
    or one engine call that asks for the full selection only."""
    if len(S) == 1:
        return _entry_norm(S[0].get(0, {}))
    (det,) = det_gaussian_submatrices(_setup_of(S), block_selections(len(S))[:1])
    return det


def _matrix_minor(rows, r, c):
    """Study determinant, up to a unit, of the square matrix given as
    sparse rows (at least 2) without row r and column c: reduced by unit
    pivots first (see _unit_reduce), then its rest by _reduced_study."""
    sub = [
        {c2 - (c2 > c): e for c2, e in row.items() if c2 != c}
        for r2, row in enumerate(rows)
        if r2 != r
    ]
    return _reduced_study(_unit_reduce(sub, _qmono_mul, _qmono_inv)[1])


def _qaddmul(acc, a, b):
    """acc + a b for sparse quaternion entries; acc is updated in place."""
    for x, v in a.items():
        for y, w in b.items():
            s, z = _qmono_mul(x, y)
            t = acc.get(z, 0) + s * v * w
            if t:
                acc[z] = t
            else:
                acc.pop(z, None)
    return acc


def _kernel_vectors(steps, S):
    """(x, v): x M = 0 and M v = 0 for the matrix M that steps reduce to
    S (see _unit_reduce), S k x k of rank k - 1 (k >= 2), as {index:
    entry}.

    S is taken down by fraction-free steps, each on a nonzero pivot
    a = S[r][c] with the fewest terms: every other row r' becomes
    N(a) row r' - S[r'][c] conj(a) row r, N(a) times the Schur complement
    at a, and row r and column c leave.  The rank falls by one per step,
    so the 1 x 1 rest is 0, with kernel vectors (1).  The steps in reverse
    lift them by v_c = -conj(a) sum_c' S[r][c'] v_c' and
    x_r = -sum_r' x_r' S[r'][c] conj(a), every other entry times N(a)
    (real, so central); then the unit steps lift them to M by
    v_c = -u^-1 sum prow[c'] v_c' and x_r = -sum x_r' f_r'.
    """
    rest = dict(enumerate(map(dict, S)))
    cols = set(range(len(S)))
    lifts = []
    while len(rest) > 1:
        _size, r, c = min((len(e), r, c) for r, row in rest.items() for c, e in row.items())
        prow = rest.pop(r)
        a = prow.pop(c)
        cols.discard(c)
        minus_abar = {y: (w if y[1] else -w) for y, w in a.items()}
        na = {y: -w for y, w in _qaddmul({}, a, minus_abar).items()}  # N(a), real
        fcol = {}
        for r2, row in rest.items():
            f = row.pop(c, None)
            new = {c2: _qaddmul({}, na, e) for c2, e in row.items()}
            if f:
                fcol[r2] = f
                g = _qaddmul({}, f, minus_abar)
                for c2, b in prow.items():
                    e = _qaddmul(new.get(c2, {}), g, b)
                    if e:
                        new[c2] = e
                    else:
                        new.pop(c2, None)
            rest[r2] = new
        lifts.append((r, c, minus_abar, na, prow, fcol))
    one = {(0, 0): 1}
    x, v = {next(iter(rest)): one}, {cols.pop(): one}
    for r, c, minus_abar, na, prow, fcol in reversed(lifts):
        acc = {}
        for c2, e in prow.items():
            _qaddmul(acc, e, v[c2])
        v = {c2: _qaddmul({}, na, e) for c2, e in v.items()}
        v[c] = _qaddmul({}, minus_abar, acc)
        acc = {}
        for r2, f in fcol.items():
            _qaddmul(acc, x[r2], f)
        x = {r2: _qaddmul({}, e, na) for r2, e in x.items()}
        x[r] = _qaddmul({}, acc, minus_abar)
    m = len(steps) + len(S)
    rows, cols = _kept(steps, m, 0), _kept(steps, m, 1)
    x = {rows[i]: e for i, e in x.items()}
    v = {cols[j]: e for j, e in v.items()}
    for r, col, uinv, prow, fcol in reversed(steps):
        acc = {}
        for c2, e in prow.items():
            _qaddmul(acc, e, v[c2])
        v[col] = _qaddmul({}, {y: -w for y, w in uinv.items()}, acc)
        acc = {}
        for r2, f in fcol.items():
            _qaddmul(acc, x[r2], f)
        x[r] = {y: -w for y, w in acc.items()}
    return x, v


def _rank_one_gcd(steps, S, place, minor):
    """The codimension-1 gcd of the matrix M that steps reduce to S (see
    _unit_reduce), for S k x k of rank k - 1 (k >= 2), given a nonzero
    block minor of S and its place (r0, c0).

    M then has rank m - 1 over the quaternions, so its doubling has rank
    2m - 2 and its (2m - 2)-minors factor as in Jacobi's complementary
    minor identity: the block minor without row r and column c is
    lambda N(x_r) N(v_c), for the kernel vectors x M = 0 and M v = 0 of
    _kernel_vectors (their doublings span both kernels of the doubling).
    The minor of S at (r0, c0) keeps every pivot, so it is, up to a unit,
    M's at the rows and columns (R0, C0) of M that S's r0 and c0 are;
    that fixes lambda.  By Gauss's lemma the gcd over (r, c) of
    N(x_r) N(v_c) is gcd_r N(x_r) gcd_c N(v_c), so no other minor is
    taken.
    """
    x, v = _kernel_vectors(steps, S)
    m = len(steps) + len(S)
    r0, c0 = place
    R0, C0 = _kept(steps, m, 0)[r0], _kept(steps, m, 1)[c0]
    gx, gv = (
        _fold_study_gcd(LaurentPoly({}), map(_entry_norm, vec.values()))
        for vec in (x, v)
    )
    scale = _entry_norm(x[R0]) * _entry_norm(v[C0])
    return normalize_leadpos((gx * gv * minor).exact_div(scale))


def _quaternionic_pair(rows):
    """(normalized Study determinant, codimension-1 gcd) of a square
    quaternionic matrix M, m x m with m >= 1, given as sparse rows.

    M is reduced by unit pivots to a k x k rest S (see _unit_reduce),
    which changes its Study determinant by a unit only; that is the norm
    of S's one entry, or one full-only engine call.  S's block minors are
    folded into gcd_S lazily, in block_places order, stopping at 1: the
    norms of its entries when k = 2, one single-selection engine call
    each when k >= 3, and the one empty minor 1 when k = 1.  Then, in
    turn:

    * no pivot was taken, or gcd_S = 1: gcd_S is M's gcd (every block
      minor of S is, up to a unit, one of M, so M's gcd divides gcd_S);
    * gcd_S = 0: rank S <= k - 2, so rank M <= m - 2 and every block
      minor of M is 0;
    * det S = 0: rank S = k - 1, and the gcd is read off kernel vectors
      and the first nonzero minor of S (_rank_one_gcd);
    * otherwise M's own block minors are folded, each reduced and taken
      on its own (_matrix_minor).
    """
    steps, S = _unit_reduce(rows, _qmono_mul, _qmono_inv)
    k = len(S)
    one = LaurentPoly.const(1)
    if k == 1:
        det, gcd = _entry_norm(S[0].get(0, {})), one
    else:
        setup, sels = _setup_of(S), block_selections(k)
        (det,) = det_gaussian_submatrices(setup, sels[:1])
        gcd, first = LaurentPoly({}), None  # first: S's first nonzero minor
        for (r, c), sel in zip(block_places(k), sels[1:]):
            if k == 2:
                d = _entry_norm(S[1 - r].get(1 - c, {}))
            else:
                (d,) = det_gaussian_submatrices(setup, [sel])
            if first is None and not d.is_zero():
                first = ((r, c), d)
            gcd = _fold_study_gcd(gcd, [d])
            if gcd == one:
                break
    if steps and gcd != one and not gcd.is_zero():
        if det.is_zero():
            gcd = _rank_one_gcd(steps, S, *first)
        else:
            places = block_places(len(rows))
            gcd = _fold_study_gcd(
                LaurentPoly({}), (_matrix_minor(rows, r, c) for r, c in places)
            )
    return normalize_leadpos(study_determinant(det)), gcd


def quaternionic_invariant(code):
    """(normalized Study determinant, codimension-1 gcd) of the code.

    Both values are reduced to t-valuation 0 with positive leading
    coefficient, the precision to which they are move-invariant.  A free
    circle component contributes a relation-free generator: the Study
    determinant is then 0, and the gcd drops to the next elementary ideal
    (0 as soon as two such generators exist), the Study determinant of
    the square matrix left without the zero column.

    The relation matrix is built from its terms without quaternion
    objects and reduced by unit pivots before any engine call (see
    _quaternionic_pair).
    """
    es = edge_structure(code)
    free = es.free_circles
    if free >= 2:
        return (LaurentPoly({}), LaurentPoly({}))
    if not es.edges:
        # no relations: a free module of rank free <= 1
        return (LaurentPoly({}), LaurentPoly.const(1))
    rows = _quaternionic_rows(es)
    if free:
        # E_0 = 0; E_1 is a Study determinant, which the reduction keeps
        _steps, S = _unit_reduce(rows, _qmono_mul, _qmono_inv)
        return (LaurentPoly({}), normalize_leadpos(study_determinant(_reduced_study(S))))
    return _quaternionic_pair(rows)


# --- atom profile -----------------------------------------------------------


@dataclass(frozen=True)
class AtomProfile:
    """genus is the orientable genus (2 - chi)/2 when the atom is
    orientable; for a non-orientable atom chi is not always even and the
    reported number is the cross-cap count 2 - chi of each piece."""

    genus: int
    orientable: bool
    a_loops: int
    b_loops: int


def _traced_loops(es, state):
    """Loops of a state (label -> "A" or "B") as edge traversals of the
    code's EdgeStructure es.

    Returns (loops, cell_of_edge, dir_of_edge): each loop is a tuple of
    edge ids; dir_of_edge[e] is +1 when the loop runs along the edge's own
    orientation and -1 otherwise.  Free circles are not traced.
    """
    match = {}
    for label, ends in es.crossing_ends.items():
        ori = _oriented(es.signs[label], state[label])
        for a, b in _crossing_end_pairs(ends, ori):
            match[a] = b
            match[b] = a
    loops = []
    cell_of_edge = {}
    dir_of_edge = {}
    unvisited = set(range(len(es.edges)))
    while unvisited:
        # a loop leaves each edge by one end x (the tail 2e when it runs
        # along e) and goes on from the end matched to x's far end x ^ 1
        start = x = 2 * min(unvisited)
        loop = []
        while True:
            e = x >> 1
            loop.append(e)
            unvisited.discard(e)
            cell_of_edge[e] = len(loops)
            dir_of_edge[e] = -1 if x & 1 else 1
            x = match[x ^ 1]
            if x == start:
                break
        loops.append(tuple(loop))
    return loops, cell_of_edge, dir_of_edge


def atom_profile(code):
    """Genus, orientability, and state loop counts of the atom.

    Black cells are the all-A loops, white cells the all-B loops; each
    diagram edge is a band between one black and one white cell.  The atom
    is orientable iff cell orientations can be chosen inducing opposite
    directions on every band, a parity constraint propagated by BFS.
    Genus is summed over connected pieces of the diagram (free circles
    are spheres).
    """
    es = edge_structure(code)
    a_loops_l, a_cell, a_dir = _traced_loops(es, dict.fromkeys(es.signs, "A"))
    b_loops_l, b_cell, b_dir = _traced_loops(es, dict.fromkeys(es.signs, "B"))
    a_loops = len(a_loops_l) + es.free_circles
    b_loops = len(b_loops_l) + es.free_circles

    # orientability: variables = cells of both colors; per edge constraint
    # eps_black + eps_white = d_A + d_B + 1 (mod 2)
    nA = len(a_loops_l)
    nB = len(b_loops_l)
    color = {}
    orientable = True
    adj = {v: [] for v in range(nA + nB)}
    for e in range(len(es.edges)):
        u = a_cell[e]
        v = nA + b_cell[e]
        w = ((1 if a_dir[e] < 0 else 0) + (1 if b_dir[e] < 0 else 0) + 1) % 2
        adj[u].append((v, w))
        adj[v].append((u, w))
    cellgroup = {}
    group_orientable = []
    for start in range(nA + nB):
        if start in color:
            continue
        gid = len(group_orientable)
        group_orientable.append(True)
        color[start] = 0
        cellgroup[start] = gid
        stack = [start]
        while stack:
            u = stack.pop()
            for v, w in adj[u]:
                want = (color[u] + w) % 2
                if v not in color:
                    color[v] = want
                    cellgroup[v] = gid
                    stack.append(v)
                elif color[v] != want:
                    group_orientable[gid] = False
                    orientable = False

    # genus per connected piece of the diagram
    genus = 0
    for piece in es.pieces:
        n = len(piece)
        piece_edges = {e for l in piece for e in es.crossing_edges[l]}
        fa = len({a_cell[e] for e in piece_edges})
        fb = len({b_cell[e] for e in piece_edges})
        chi = n - 2 * n + fa + fb
        e0 = next(iter(piece_edges))
        piece_orientable = group_orientable[cellgroup[a_cell[e0]]]
        genus += (2 - chi) // 2 if piece_orientable else 2 - chi
    return AtomProfile(
        genus=genus, orientable=orientable, a_loops=a_loops, b_loops=b_loops
    )


def exponent_congruence(poly):
    """Largest m in (4, 2, 1) with all exponents of poly pairwise
    congruent mod m (4 for the zero polynomial)."""
    exps = sorted(poly.terms)
    for m in (4, 2):
        if all((e - exps[0]) % m == 0 for e in exps):
            return m
    return 1


def bracket_congruence(code):
    """Largest m in (4, 2, 1) with all bracket exponents pairwise
    congruent mod m.  Moves multiply the bracket by at most a unit
    monomial, so exponent differences — hence this modulus — are a move
    invariant; the atom claims predict 4 whenever the atom is orientable
    and at least 2 always.  The f-polynomial is the bracket times a unit
    monomial, so exponent_congruence(f_polynomial(code)) is the same
    number.
    """
    return exponent_congruence(bracket(code))


def atom_congruence_ok(code):
    """The atom-orientability claim checked on one code: orientable atoms
    force bracket exponents congruent mod 4, and mod 2 unconditionally."""
    br = bracket(code)
    mod = exponent_congruence(br)
    if atom_profile(code).orientable:
        return mod % 4 == 0 or not br.terms
    return mod % 2 == 0 or not br.terms


# --- arrow-diagram expansion ------------------------------------------------


def _canonical_arrow(seq):
    """Canonical rotation/relabeling of a dotted chord diagram.

    seq is a tuple of (role, label, sign) with role 'T' at the arrow tail
    (the Over passage) and 'H' at the head."""
    k = len(seq)
    if k == 0:
        return ()
    best = None
    for r in range(k):
        rot = seq[r:] + seq[:r]
        mapping = {}
        out = []
        for role, lab, sign in rot:
            if lab not in mapping:
                mapping[lab] = len(mapping) + 1
            out.append((role, mapping[lab], sign))
        key = tuple(out)
        if best is None or key < best:
            best = key
    return best


def arrow_expansion(code, max_arrows=None):
    """Sum over chord subsets of the dotted sub-diagrams (as canonical
    forms with integer coefficients).  The full expansion over an
    n-chord diagram has total coefficient mass 2^n."""
    if len(code.components) != 1:
        raise ValueError("arrow expansion needs a single-component code")
    comp = code.components[0]
    labels = code.labels
    n = len(labels)
    if max_arrows is None:
        max_arrows = n
    base = tuple(
        ("T" if e.passage == "O" else "H", e.label, e.sign) for e in comp
    )
    out = {}
    for mask in range(1 << n):
        if mask.bit_count() > max_arrows:
            continue
        keep = {labels[i] for i in range(n) if mask >> i & 1}
        sub = tuple(item for item in base if item[1] in keep)
        key = _canonical_arrow(sub)
        out[key] = out.get(key, 0) + 1
    return out
