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


# --- generalized Alexander polynomial --------------------------------------
#
# One generator per diagram edge; each crossing contributes two relations.
# With a = under-in, b = over-in, c = under-out, d = over-out:
#   positive:  c = t a + (1 - s t) b,        d = s b
#   negative:  c = t^-1 a + (1 - s^-1 t^-1) b,  d = s^-1 b
# Rows are outputs minus the operation applied to inputs; the determinant
# is taken up to units +/- s^i t^j.


def _sp2(terms):
    return LaurentPoly2(terms)


def alexander_matrix(code):
    """Relation matrix over Z[s^+/-, t^+/-]; columns indexed by edges,
    then one zero column per crossing-free circle component."""
    es = edge_structure(code)
    ncols = len(es.edges) + es.free_circles
    rows = []
    one = {(0, 0): 1}
    for label in code.labels:
        o_in, o_out, u_in, u_out = es.crossing_edges[label]
        eps = 1 if es.signs[label] > 0 else -1
        # c - t^eps a - (1 - s^eps t^eps) b = 0
        row1 = [LaurentPoly2({}) for _ in range(ncols)]
        row1[u_out] = row1[u_out] + _sp2(one)
        row1[u_in] = row1[u_in] - _sp2({(0, eps): 1})
        row1[o_in] = row1[o_in] - _sp2({(0, 0): 1, (eps, eps): -1})
        # d - s^eps b = 0
        row2 = [LaurentPoly2({}) for _ in range(ncols)]
        row2[o_out] = row2[o_out] + _sp2(one)
        row2[o_in] = row2[o_in] - _sp2({(eps, 0): 1})
        rows.append(row1)
        rows.append(row2)
    return rows


def gen_alexander(code):
    """Normalized determinant of the Alexander-biquandle relation matrix.

    Vanishes on classical codes.  A crossing-free circle component adds a
    relation-free generator, so the zeroth elementary ideal (hence the
    result) is 0 whenever one is present alongside anything else.
    """
    free = edge_structure(code).free_circles
    if free and (code.n_crossings or free > 1):
        return LaurentPoly2({})
    if not code.n_crossings:
        return LaurentPoly2({})  # bare unknot: free rank-1 module
    m = alexander_matrix(code)
    return normalize_unit(det_laurent2(m))


# --- quaternionic biquandle invariant ---------------------------------------
#
# Same edge/relation scheme with quaternionic coefficients:
#   positive:  c = j t a + (1 + i) b,      d = (1 + i) a - j t^-1 b
#   negative:  c = j t^-1 a + (1 - i) b,   d = (1 - i) a - j t b
# (the negative rules are the inverses of the positive ones, i.e. the
# positive rules with t -> t^-1 and i -> -i).  The invariant pair is the
# Study determinant of the relation matrix and the gcd of the Study
# determinants of its codimension-1 minors, each defined up to units.


def _q(w=0, x=0, y=0, z=0, tpow=0):
    return Quaternion(
        LaurentPoly({tpow: w} if w else {}),
        LaurentPoly({tpow: x} if x else {}),
        LaurentPoly({tpow: y} if y else {}),
        LaurentPoly({tpow: z} if z else {}),
    )


def _quaternionic_terms(es):
    """(row, column, w, x, y, z, tpow) for each term
    (w + x i + y j + z k) t^tpow of the quaternionic relation matrix, one
    pair of rows per crossing, in label order."""
    terms = []
    for k, label in enumerate(sorted(es.crossing_edges)):
        o_in, o_out, u_in, u_out = es.crossing_edges[label]
        eps = 1 if es.signs[label] > 0 else -1
        r1, r2 = 2 * k, 2 * k + 1
        terms += [
            # c - (j t^eps) a - (1 + eps*i) b = 0
            (r1, u_out, 1, 0, 0, 0, 0),
            (r1, u_in, 0, 0, -1, 0, eps),
            (r1, o_in, -1, -eps, 0, 0, 0),
            # d - (1 + eps*i) a + (j t^-eps) b = 0
            (r2, o_out, 1, 0, 0, 0, 0),
            (r2, u_in, -1, -eps, 0, 0, 0),
            (r2, o_in, 0, 0, 1, 0, -eps),
        ]
    return terms


def quaternionic_matrix(code):
    """Quaternionic relation matrix; zero columns for free circles."""
    es = edge_structure(code)
    ncols = len(es.edges) + es.free_circles
    zero = _q()
    rows = [[zero] * ncols for _ in range(2 * code.n_crossings)]
    for r, c, w, x, y, z, tpow in _quaternionic_terms(es):
        rows[r][c] = rows[r][c] + _q(w, x, y, z, tpow)
    return rows


def doubled_setup(code):
    """The determinant engine's QuaternionSetup of the quaternionic
    relation matrix without its free-circle columns, built from the
    relation terms without quaternion objects (terms landing on one
    entry, at a kink, add up)."""
    es = edge_structure(code)
    return quaternion_setup(len(es.edges), _quaternionic_terms(es))


def _qmat_setup(qmat):
    """The QuaternionSetup of a square quaternionic matrix."""
    m = len(qmat)
    if any(len(row) != m for row in qmat):
        raise ValueError(f"quaternionic matrix is not square: {m} rows")
    terms = []
    for r, row in enumerate(qmat):
        for c, q in enumerate(row):
            parts = (q.w.terms, q.x.terms, q.y.terms, q.z.terms)
            for e in set().union(*parts):
                terms.append((r, c, *(t.get(e, 0) for t in parts), e))
    return quaternion_setup(m, terms)


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
    leading coefficient.

    All m^2 minors come from one determinant-engine call, which eliminates
    each evaluated matrix once for all of them.  The gcd folds the
    diagonal minors first: once it is 1 the rest cannot change it.
    """
    m = len(qmat)
    if m == 0:
        return LaurentPoly.const(1)
    dets = det_gaussian_submatrices(_qmat_setup(qmat), block_selections(m)[1:])
    return _fold_study_gcd(LaurentPoly({}), dets)


def quaternionic_invariant(code):
    """(normalized Study determinant, codimension-1 gcd) of the code.

    Both values are reduced to t-valuation 0 with positive leading
    coefficient, the precision to which they are move-invariant.  A free
    circle component contributes a relation-free generator: the Study
    determinant is then 0, and the gcd drops to the next elementary ideal
    (0 as soon as two such generators exist).

    The doubling's determinant and all its block-deleted minors come from
    one engine call on one coefficient-array build.
    """
    es = edge_structure(code)
    free = es.free_circles
    if free >= 2:
        return (LaurentPoly({}), LaurentPoly({}))
    if not es.edges:
        # no relations: a free module of rank free <= 1
        return (LaurentPoly({}), LaurentPoly.const(1))
    setup = quaternion_setup(len(es.edges), _quaternionic_terms(es))
    selections = block_selections(len(setup.shifts))
    if free:
        # one free circle next to crossings: E_0 = 0; E_1 = the square
        # determinant left after deleting the zero column.
        (det,) = det_gaussian_submatrices(setup, selections[:1])
        return (LaurentPoly({}), normalize_leadpos(study_determinant(det)))
    dets = det_gaussian_submatrices(setup, selections)
    sd = normalize_leadpos(study_determinant(dets[0]))
    return (sd, _fold_study_gcd(LaurentPoly({}), dets[1:]))


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
