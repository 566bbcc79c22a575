"""Finite quandles and biquandles, and coloring-count invariants.

A finite biquandle is a set {0..n-1} with four binary operations,
written ``a^b`` (up), ``a_b`` (down), ``a^{b-bar}`` (upbar), and
``a_{b-bar}`` (downbar), satisfying axioms that transcribe the
generalized Reidemeister moves.  Diagram edges carry labels; at a
positive crossing with under-input a and over-input b, the under-output
is a^b and the over-output is b_a; a negative crossing imposes the same
shape with the barred operations.

An involutory quandle (IQ) labels arcs instead of edges: an arc runs
between consecutive under-passages, and the relation at every crossing
(independent of sign, by involutivity) is (under-out) = (under-in) |> (over).

Coloring counts are exact.  Affine structures over a squarefree carrier
(the mod-p Alexander biquandles, the dihedral quandles of squarefree
order, and any loaded table of the same form) are counted by the rank of
their relation matrix over F_p for each prime p dividing the carrier
size.  Every other structure is counted by label propagation with
branching only at genuinely free choices, a search under the node budget
VKNOTS_COLOR_BUDGET.
"""

import os
from dataclasses import dataclass, field
from functools import lru_cache

from .budget import BudgetError, read_budget
from .gausscode import GaussCodeError, edge_structure

BUDGET_ENV_VAR = "VKNOTS_COLOR_BUDGET"
DEFAULT_COLOR_BUDGET = 10**8


class ColoringBudgetError(BudgetError):
    """Raised when a coloring search would exceed its node budget."""


# --- structures -----------------------------------------------------------


@dataclass(frozen=True)
class FiniteBiquandle:
    """Four n-by-n operation tables over the carrier {0..n-1}.

    up[a][b] = a^b, down[a][b] = a_b, upbar[a][b] = a^{b-bar},
    downbar[a][b] = a_{b-bar}.  Tables are tuples of tuples.
    """

    n: int
    up: tuple
    down: tuple
    upbar: tuple
    downbar: tuple
    name: str = field(default="", compare=False)

    def __post_init__(self):
        for table in (self.up, self.down, self.upbar, self.downbar):
            if len(table) != self.n or any(len(row) != self.n for row in table):
                raise ValueError("operation table is not n-by-n")
            if any(not (0 <= v < self.n) for row in table for v in row):
                raise ValueError("operation table value out of range")


@dataclass(frozen=True)
class FiniteQuandle:
    """One n-by-n table for a |> b plus an involutory flag."""

    n: int
    table: tuple
    involutory: bool
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if len(self.table) != self.n or any(len(r) != self.n for r in self.table):
            raise ValueError("operation table is not n-by-n")
        if any(not (0 <= v < self.n) for row in self.table for v in row):
            raise ValueError("operation table value out of range")


# --- biquandle axioms -----------------------------------------------------
#
# Axiom 1: for every a there exist x and y with
#     x = a_x,  a = x^a    and    y = a^{y-bar},  a = y_{a-bar}.
# Axiom 2 (four cancellation identities, composing left to right):
#     (a^b)^{(b_a)-bar} = a        (b_a)_{(a^b)-bar} = b
#     (a^{b-bar})^{b_{a-bar}} = a  (b_{a-bar})_{a^{b-bar}} = b
# Axiom 3: for all a, b there exist x, y with
#     x_b = a,  y^{a-bar} = b,  b^x = y,  a_{y-bar} = x
# and z, t with
#     t^a = b,  a_t = z,  z_{b-bar} = a,  b^{z-bar} = t.
# The biquandle is *strong* when these solutions are unique.
# Axiom 4 (set-theoretic Yang-Baxter, right operations):
#     a^{bc} = a^{(c_b)(b^c)}
#     c_{ba} = c_{(a^b)(b_a)}
#     (b_a)^{c_{a^b}} = (b^c)_{a^{c_b}}
# and the same three equations with every up/down replaced by upbar/downbar.
# Stacked exponents and subscripts compose sequentially: a^{bc} = (a^b)^c.


def check_biquandle_axioms(bq):
    """Return a list of human-readable violation strings (empty iff valid)."""
    n = bq.n
    rng = range(n)
    up, down, upbar, downbar = bq.up, bq.down, bq.upbar, bq.downbar
    bad = []

    for a in rng:
        if not any(x == down[a][x] and a == up[x][a] for x in rng):
            bad.append(f"axiom 1: no x with x = a_x and a = x^a for a={a}")
        if not any(y == upbar[a][y] and a == downbar[y][a] for y in rng):
            bad.append(
                f"axiom 1: no y with y = a^(y-bar) and a = y_(a-bar) for a={a}"
            )

    for a in rng:
        for b in rng:
            if upbar[up[a][b]][down[b][a]] != a:
                bad.append(f"axiom 2: (a^b)^((b_a)-bar) != a at a={a}, b={b}")
            if downbar[down[b][a]][up[a][b]] != b:
                bad.append(f"axiom 2: (b_a)_((a^b)-bar) != b at a={a}, b={b}")
            if up[upbar[a][b]][downbar[b][a]] != a:
                bad.append(f"axiom 2: (a^(b-bar))^(b_(a-bar)) != a at a={a}, b={b}")
            if down[downbar[b][a]][upbar[a][b]] != b:
                bad.append(f"axiom 2: (b_(a-bar))_(a^(b-bar)) != b at a={a}, b={b}")

    for a in rng:
        for b in rng:
            first, second = _axiom3_solutions(bq, a, b)
            if not first:
                bad.append(f"axiom 3: no (x, y) solution at a={a}, b={b}")
            if not second:
                bad.append(f"axiom 3: no (z, t) solution at a={a}, b={b}")

    for a in rng:
        for b in rng:
            for c in rng:
                if up[up[a][b]][c] != up[up[a][down[c][b]]][up[b][c]]:
                    bad.append(
                        f"axiom 4: a^(bc) != a^((c_b)(b^c)) at a={a}, b={b}, c={c}"
                    )
                if down[down[c][b]][a] != down[down[c][up[a][b]]][down[b][a]]:
                    bad.append(
                        f"axiom 4: c_(ba) != c_((a^b)(b_a)) at a={a}, b={b}, c={c}"
                    )
                if (
                    up[down[b][a]][down[c][up[a][b]]]
                    != down[up[b][c]][up[a][down[c][b]]]
                ):
                    bad.append(
                        "axiom 4: (b_a)^(c_(a^b)) != (b^c)_(a^(c_b))"
                        f" at a={a}, b={b}, c={c}"
                    )
                if upbar[upbar[a][b]][c] != upbar[upbar[a][downbar[c][b]]][upbar[b][c]]:
                    bad.append(
                        "axiom 4 (left ops): a^(bc) != a^((c_b)(b^c))"
                        f" at a={a}, b={b}, c={c}"
                    )
                if (
                    downbar[downbar[c][b]][a]
                    != downbar[downbar[c][upbar[a][b]]][downbar[b][a]]
                ):
                    bad.append(
                        "axiom 4 (left ops): c_(ba) != c_((a^b)(b_a))"
                        f" at a={a}, b={b}, c={c}"
                    )
                if (
                    upbar[downbar[b][a]][downbar[c][upbar[a][b]]]
                    != downbar[upbar[b][c]][upbar[a][downbar[c][b]]]
                ):
                    bad.append(
                        "axiom 4 (left ops): (b_a)^(c_(a^b)) != (b^c)_(a^(c_b))"
                        f" at a={a}, b={b}, c={c}"
                    )
    return bad


def _axiom3_solutions(bq, a, b):
    """The axiom-3 solutions at (a, b): the list of pairs (x, y) and the
    list of pairs (z, t).  The axiom asks for both to be nonempty."""
    rng = range(bq.n)
    up, down, upbar, downbar = bq.up, bq.down, bq.upbar, bq.downbar
    first = [
        (x, y)
        for x in rng
        for y in rng
        if down[x][b] == a
        and upbar[y][a] == b
        and up[b][x] == y
        and downbar[a][y] == x
    ]
    second = [
        (z, t)
        for z in rng
        for t in rng
        if up[t][a] == b
        and down[a][t] == z
        and downbar[z][b] == a
        and upbar[b][z] == t
    ]
    return first, second


def is_strong_biquandle(bq):
    """True when the axiom-3 solutions (x, y) and (z, t) are unique."""
    rng = range(bq.n)
    return all(
        len(solutions) == 1
        for a in rng
        for b in rng
        for solutions in _axiom3_solutions(bq, a, b)
    )


def make_alexander_biquandle_modp(p, s, t):
    """Linear biquandle on Z_p: a^b = ta + (1-st)b, a_b = sa, barred via inverses."""
    if p < 1:
        raise ValueError("biquandle modulus must be at least 1")
    s %= p
    t %= p
    d, s_inv, _ = _egcd(s, p)
    if d != 1:
        raise ValueError(f"s={s} is not a unit mod {p}")
    d, t_inv, _ = _egcd(t, p)
    if d != 1:
        raise ValueError(f"t={t} is not a unit mod {p}")
    s_inv %= p
    t_inv %= p
    up = tuple(
        tuple((t * a + (1 - s * t) * b) % p for b in range(p)) for a in range(p)
    )
    down = tuple(tuple((s * a) % p for _b in range(p)) for a in range(p))
    upbar = tuple(
        tuple((t_inv * a + (1 - s_inv * t_inv) * b) % p for b in range(p))
        for a in range(p)
    )
    downbar = tuple(tuple((s_inv * a) % p for _b in range(p)) for a in range(p))
    return FiniteBiquandle(
        n=p,
        up=up,
        down=down,
        upbar=upbar,
        downbar=downbar,
        name=f"alexander-mod{p}-s{s}-t{t}",
    )


def _egcd(a, b):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def make_dihedral_quandle(n):
    """Dihedral quandle R_n: a |> b = 2b - a mod n (always involutory)."""
    if n < 1:
        raise ValueError("quandle size must be at least 1")
    table = tuple(tuple((2 * b - a) % n for b in range(n)) for a in range(n))
    return FiniteQuandle(n=n, table=table, involutory=True, name=f"dihedral-{n}")


# --- coloring counts ------------------------------------------------------
#
# Both counters build a list of relations ``(out, a, b, table)``, each
# meaning label[out] = table[label[a]][label[b]], and hand it to one
# dispatcher.  When the carrier size q is squarefree and every table is
# affine, table[x][y] = alpha*x + beta*y + c (mod q), the relations form a
# linear system over Z_q and the count is exact linear algebra: by the
# Chinese remainder theorem Z_q is the product of the fields F_p for the
# primes p dividing q, and over F_p the system has no solution when the
# augmented matrix has larger rank than the coefficient matrix, and
# otherwise p^(n_vars - rank) of them.  This covers the mod-p Alexander
# biquandles (Kauffman-Radford, "Bi-oriented quantum algebras, and a
# generalized Alexander polynomial for virtual links", 2003) and the
# dihedral quandles of squarefree order (Fox colorings as the nullity of
# the coloring matrix, Przytycki, "3-coloring and other elementary
# invariants of knots", 1998).
#
# Every other table, and a non-squarefree q, takes a budgeted backtracking
# search.  Every label keeps a watch list of the relations that take it as
# an input.  Assigning a label follows only that label's watch list: a
# relation whose inputs are both known forces its output (or fails on a
# different known output), and a newly forced label is followed in turn,
# until a fixed point or a contradiction.  Outputs need no watching: an
# output with both inputs known is already forced.  The search branches on
# the first unassigned label only when nothing is forced.  Biquandle counts
# label edges (two relations per crossing, from the crossing sign's
# tables); IQ counts label arcs (one per crossing).


@lru_cache(maxsize=64)
def _affine_coefficients(table, q):
    """(alpha, beta, c) with table[x][y] = alpha*x + beta*y + c (mod q) for
    every x, y in {0..q-1}, or None when the table is not of that form."""
    c = table[0][0]
    alpha = (table[1][0] - c) % q if q > 1 else 0
    beta = (table[0][1] - c) % q if q > 1 else 0
    for x, row in enumerate(table):
        for y, value in enumerate(row):
            if value != (alpha * x + beta * y + c) % q:
                return None
    return alpha, beta, c


def _squarefree_primes(q):
    """The primes dividing q when q is squarefree, else None (also for an
    empty carrier, q = 0)."""
    if q < 1:
        return None
    primes = []
    d = 2
    while d * d <= q:
        if q % d == 0:
            q //= d
            if q % d == 0:
                return None
            primes.append(d)
        d += 1
    if q > 1:
        primes.append(q)
    return tuple(primes)


def _count_labelings(n_vars, q, relations):
    """Number of maps {0..n_vars-1} -> {0..q-1} satisfying every relation:
    by rank when q is squarefree and every table affine, else by search."""
    budget = read_budget(BUDGET_ENV_VAR, DEFAULT_COLOR_BUDGET)
    primes = _squarefree_primes(q)
    if primes is not None:
        coeffs = [_affine_coefficients(rel[3], q) for rel in relations]
        if None not in coeffs:
            return _linear_count(n_vars, primes, relations, coeffs)
    return _search_labelings(n_vars, q, relations, budget)


def _linear_count(n_vars, primes, relations, coeffs):
    """Solutions over Z_q (q the product of primes) of the affine system
    label[out] - alpha*label[a] - beta*label[b] = c, one row per relation.

    Over each F_p the rows are eliminated one at a time as sparse
    {column: coefficient} maps, the constant in column n_vars.  A pivot
    row has a 1 in its pivot column and no entry in an earlier pivot's
    column, so one pass over the pivot rows in the order found reduces a
    new row: what is left is zero, a new pivot row, or a lone constant,
    and then the system has no solution.
    """
    count = 1
    for p in primes:
        pivots = {}  # pivot column -> pivot row
        for (out, a, b, _table), (alpha, beta, c) in zip(relations, coeffs):
            row = {n_vars: c % p}
            for col, v in ((out, 1), (a, -alpha), (b, -beta)):
                row[col] = (row.get(col, 0) + v) % p
            for col, pivot_row in pivots.items():
                f = row.get(col)
                if f:
                    for k, v in pivot_row.items():
                        row[k] = (row.get(k, 0) - f * v) % p
            col = next((k for k, v in row.items() if v and k != n_vars), None)
            if col is None:
                if row[n_vars]:
                    return 0
                continue
            inv = pow(row[col], -1, p)
            pivots[col] = {k: v * inv % p for k, v in row.items() if v}
        count *= p ** (n_vars - len(pivots))
    return count


def _search_labelings(n_vars, q, relations, budget):
    """The count by watch-list search, raising ColoringBudgetError after
    budget search nodes."""
    watch = [[] for _ in range(n_vars)]
    for rel in relations:
        for var in set(rel[1:3]):
            watch[var].append(rel)
    assign = [None] * n_vars
    nodes = 0

    def propagate(var, trail):
        stack = [var]
        while stack:
            for out, a, b, table in watch[stack.pop()]:
                x, y = assign[a], assign[b]
                if x is None or y is None:
                    continue
                want = table[x][y]
                got = assign[out]
                if got is None:
                    assign[out] = want
                    trail.append(out)
                    stack.append(out)
                elif got != want:
                    return False
        return True

    def recurse():
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise ColoringBudgetError(
                f"coloring search exceeded budget of {budget} nodes"
                f" (override with {BUDGET_ENV_VAR})"
            )
        try:
            var = assign.index(None)
        except ValueError:
            return 1
        total = 0
        for value in range(q):
            assign[var] = value
            trail = [var]
            if propagate(var, trail):
                total += recurse()
            for v in trail:
                assign[v] = None
        return total

    return recurse()


def count_biquandle_colorings(code, bq):
    """Number of edge labelings satisfying the crossing relations.

    Positive crossing, under-input a, over-input b: under-out = a^b,
    over-out = b_a.  Negative crossings use the barred operations.
    Every free circle contributes a factor of n (one unconstrained label).
    """
    struct = edge_structure(code)
    relations = []
    for label in sorted(struct.crossing_edges):
        o_in, o_out, u_in, u_out = struct.crossing_edges[label]
        if struct.signs[label] > 0:
            up_table, down_table = bq.up, bq.down
        else:
            up_table, down_table = bq.upbar, bq.downbar
        relations.append((u_out, u_in, o_in, up_table))
        relations.append((o_out, o_in, u_in, down_table))
    count = _count_labelings(len(struct.edges), bq.n, relations)
    return count * bq.n**struct.free_circles


def count_iq_colorings(code, q):
    """Number of arc labelings with (under-out) = (under-in) |> (over).

    Requires an involutory quandle: involutivity makes the relation
    sign-independent, so signs are ignored.  Free circles and closed-arc
    components each carry one unconstrained label.
    """
    if not q.involutory:
        raise ValueError("IQ coloring requires an involutory quandle")
    struct = edge_structure(code)
    relations = []
    for label in sorted(struct.crossing_arcs):
        over_arc, under_in, under_out = struct.crossing_arcs[label]
        relations.append((under_out, under_in, over_arc, q.table))
    count = _count_labelings(len(struct.arcs), q.n, relations)
    return count * q.n**struct.free_circles


# --- table file format ----------------------------------------------------
#
# Biquandle file: first line "n", then four n-line blocks of n integers,
# in the order (a^b, a_b, a^{b-bar}, a_{b-bar}).  Quandle file: "n", one
# n-line block, then a line "involutory" or "not-involutory".


def _read_table(lines, pos, n, path):
    rows = []
    for i in range(n):
        if pos + i >= len(lines):
            raise GaussCodeError(f"{path}: truncated table at line {pos + i + 1}")
        parts = lines[pos + i].split()
        if len(parts) != n:
            raise GaussCodeError(
                f"{path}: expected {n} entries on line {pos + i + 1},"
                f" got {len(parts)}"
            )
        try:
            row = tuple(int(x) for x in parts)
        except ValueError:
            raise GaussCodeError(
                f"{path}: non-integer table entry on line {pos + i + 1}"
            ) from None
        rows.append(row)
    return tuple(rows), pos + n


def load_biquandle_file(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise GaussCodeError(f"{path}: empty biquandle file")
    try:
        n = int(lines[0])
    except ValueError:
        raise GaussCodeError(f"{path}: first line must be the size n") from None
    pos = 1
    tables = []
    for _ in range(4):
        table, pos = _read_table(lines, pos, n, path)
        tables.append(table)
    if pos != len(lines):
        raise GaussCodeError(f"{path}: trailing content after the four tables")
    return FiniteBiquandle(n=n, up=tables[0], down=tables[1],
                           upbar=tables[2], downbar=tables[3],
                           name=os.path.basename(path))


def load_quandle_file(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise GaussCodeError(f"{path}: empty quandle file")
    try:
        n = int(lines[0])
    except ValueError:
        raise GaussCodeError(f"{path}: first line must be the size n") from None
    table, pos = _read_table(lines, 1, n, path)
    if pos >= len(lines):
        raise GaussCodeError(f"{path}: missing involutory flag line")
    flag = lines[pos].lower()
    if flag not in ("involutory", "not-involutory"):
        raise GaussCodeError(
            f"{path}: flag line must be 'involutory' or 'not-involutory'"
        )
    if pos + 1 != len(lines):
        raise GaussCodeError(f"{path}: trailing content after the flag line")
    return FiniteQuandle(n=n, table=table, involutory=(flag == "involutory"),
                         name=os.path.basename(path))
