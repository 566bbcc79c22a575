import itertools
import os
import random
import time

import pytest

from vknots.cli import enumerate_single_component
from vknots.coloring import (
    BUDGET_ENV_VAR,
    ColoringBudgetError,
    FiniteBiquandle,
    FiniteQuandle,
    check_biquandle_axioms,
    count_biquandle_colorings,
    count_iq_colorings,
    is_strong_biquandle,
    load_biquandle_file,
    load_quandle_file,
    make_alexander_biquandle_modp,
    make_dihedral_quandle,
    _affine_coefficients,
    _count_labelings,
    _search_labelings,
)
from vknots.gausscode import GaussCodeError, edge_structure, parse_gauss

from conftest import catalog_and_walk_codes, random_code

TREFOIL = "O1+U2+O3+U1+O2+U3+"
VTREF = "O1+O2+U1+U2+"


# --- constructions and axioms ---------------------------------------------------


def test_alexander_biquandle_axiom_clean():
    bq = make_alexander_biquandle_modp(5, 2, 3)
    assert check_biquandle_axioms(bq) == []


def test_alexander_biquandle_trivial_action():
    bq = make_alexander_biquandle_modp(3, 1, 1)
    assert bq.up[2][1] == 2  # a^b = a when s = t = 1
    assert check_biquandle_axioms(bq) == []


def test_alexander_biquandle_rejects_nonunit():
    with pytest.raises(ValueError):
        make_alexander_biquandle_modp(5, 0, 3)
    with pytest.raises(ValueError):
        make_alexander_biquandle_modp(3, 1, 3)  # t = 0 mod 3
    for p in (0, -3):
        with pytest.raises(ValueError, match="modulus must be at least 1"):
            make_alexander_biquandle_modp(p, 1, 1)


def test_size_one_biquandle():
    triv = FiniteBiquandle(1, ((0,),), ((0,),), ((0,),), ((0,),))
    assert check_biquandle_axioms(triv) == []
    assert is_strong_biquandle(triv)


def test_corruption_detected_and_named():
    bq = make_alexander_biquandle_modp(5, 2, 3)
    up = [list(r) for r in bq.up]
    up[1][2] = (up[1][2] + 1) % 5
    bad = FiniteBiquandle(5, tuple(tuple(r) for r in up), bq.down, bq.upbar,
                          bq.downbar)
    violations = check_biquandle_axioms(bad)
    assert violations
    assert all(v.startswith("axiom") for v in violations)


def test_alexander_biquandle_is_strong():
    assert is_strong_biquandle(make_alexander_biquandle_modp(5, 2, 3))


def test_constant_tables_fail_axiom_3():
    # every operation is 0, so x_b = 1 has no solution x at a = 1
    zero = ((0, 0), (0, 0))
    bq = FiniteBiquandle(2, zero, zero, zero, zero)
    assert not is_strong_biquandle(bq)
    violations = check_biquandle_axioms(bq)
    assert "axiom 3: no (x, y) solution at a=1, b=0" in violations
    assert "axiom 3: no (z, t) solution at a=1, b=1" in violations


def test_table_range_enforced():
    with pytest.raises(ValueError):
        FiniteBiquandle(2, ((0, 2), (0, 1)), ((0, 0),) * 2, ((0, 0),) * 2,
                        ((0, 0),) * 2)


def test_dihedral_quandle_properties():
    for n in range(1, 13):
        q = make_dihedral_quandle(n)
        assert q.involutory
        for a in range(n):
            assert q.table[a][a] == a
            for b in range(n):
                assert q.table[q.table[a][b]][b] == a
    assert make_dihedral_quandle(3).table[0][1] == 2


# --- coloring counts --------------------------------------------------------------


def test_unknot_counts_equal_carrier():
    bq = make_alexander_biquandle_modp(7, 3, 2)
    assert count_biquandle_colorings(parse_gauss("()"), bq) == 7
    assert count_biquandle_colorings(parse_gauss("O1+U1+"), bq) == 7
    assert count_iq_colorings(parse_gauss("()"), make_dihedral_quandle(3)) == 3


def test_trefoil_dihedral_counts():
    code = parse_gauss(TREFOIL)
    assert count_iq_colorings(code, make_dihedral_quandle(3)) == 9
    assert count_iq_colorings(code, make_dihedral_quandle(5)) == 5


def test_trefoil_dihedral3_brute_force_oracle():
    # arcs are 3; relation under-out = under-in |> over at each crossing
    q = make_dihedral_quandle(3)
    from vknots.gausscode import edge_structure

    code = parse_gauss(TREFOIL)
    es = edge_structure(code)
    n_arcs = len(es.arcs)
    count = 0
    for assign in itertools.product(range(3), repeat=n_arcs):
        ok = True
        for label, (over, u_in, u_out) in es.crossing_arcs.items():
            if assign[u_out] != q.table[assign[u_in]][assign[over]]:
                ok = False
                break
        count += ok
    assert count == 9
    assert count_iq_colorings(code, q) == count


def test_iq_rejects_non_involutory():
    table = tuple(tuple((b + 1) % 3 for b in range(3)) for _ in range(3))
    q = FiniteQuandle(3, table, involutory=False)
    with pytest.raises(ValueError):
        count_iq_colorings(parse_gauss(TREFOIL), q)


def test_biquandle_counts_power_of_p(rng):
    bq = make_alexander_biquandle_modp(5, 2, 3)
    for n in range(0, 5):
        code = random_code(rng, n)
        count = count_biquandle_colorings(code, bq)
        assert count >= 5  # constant labelings always color
        while count % 5 == 0:
            count //= 5
        assert count == 1


def test_constant_labelings_always_color(rng):
    structures = [
        make_alexander_biquandle_modp(3, 2, 2),
        make_alexander_biquandle_modp(7, 3, 5),
    ]
    for n in range(0, 4):
        code = random_code(rng, n)
        for bq in structures:
            assert count_biquandle_colorings(code, bq) >= bq.n
        assert count_iq_colorings(code, make_dihedral_quandle(4)) >= 4


def test_free_circle_multiplies_counts():
    bq = make_alexander_biquandle_modp(5, 2, 3)
    base = count_biquandle_colorings(parse_gauss(TREFOIL), bq)
    with_circle = count_biquandle_colorings(parse_gauss(TREFOIL + "/()"), bq)
    assert with_circle == 5 * base


def test_budget_exceeded(monkeypatch):
    # dihedral-4 is not over a squarefree carrier, so it takes the search
    monkeypatch.setenv(BUDGET_ENV_VAR, "2")
    with pytest.raises(ColoringBudgetError):
        count_iq_colorings(parse_gauss(TREFOIL), make_dihedral_quandle(4))


def test_budget_does_not_cap_affine_counts(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "1")
    bq = make_alexander_biquandle_modp(5, 2, 3)
    code = parse_gauss(TREFOIL)
    n_vars, rels, _free = _relations(code, bq)
    want = _search_labelings(n_vars, bq.n, rels, 10**8)
    assert count_biquandle_colorings(code, bq) == want


def test_budget_env_must_be_integer(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "lots")
    bq = make_alexander_biquandle_modp(3, 1, 1)
    with pytest.raises(ValueError):
        count_biquandle_colorings(parse_gauss("()"), bq)


# --- differential test against the closure-based search -------------------------
#
# The search the relation-table counter replaced: constraints are closures
# returning False, True or ("force", var, value), and every assignment
# re-runs every constraint.  It returns (count, search nodes); the node
# count is the smallest VKNOTS_COLOR_BUDGET under which it passes.


def _closure_search_count(n_vars, q, constraints, var_constraints):
    assign = [None] * n_vars
    nodes = 0

    def propagate(trail):
        queue = list(range(len(constraints)))
        while queue:
            ci = queue.pop()
            res = constraints[ci](assign)
            if res is False:
                return False
            if res is True:
                continue
            _tag, var, value = res
            if assign[var] is None:
                assign[var] = value
                trail.append(var)
                queue.extend(var_constraints[var])
            elif assign[var] != value:
                return False
        return True

    def recurse():
        nonlocal nodes
        nodes += 1
        try:
            var = assign.index(None)
        except ValueError:
            return 1
        total = 0
        for value in range(q):
            assign[var] = value
            trail = []
            if propagate(trail):
                total += recurse()
            for v in trail:
                assign[v] = None
            assign[var] = None
        return total

    if not propagate([]):
        return 0, nodes
    return recurse(), nodes


def _closure_relation(out_var, in1, in2, table):
    def check(assign):
        a, b = assign[in1], assign[in2]
        if a is None or b is None:
            return True
        want = table[a][b]
        got = assign[out_var]
        if got is None:
            return ("force", out_var, want)
        return got == want

    return check


def _relations(code, struct):
    """(n_vars, relations, free circles) of a code's coloring system."""
    es = edge_structure(code)
    if isinstance(struct, FiniteQuandle):
        n_vars = len(es.arcs)
        rels = [
            (u_out, u_in, over, struct.table)
            for label, (over, u_in, u_out) in sorted(es.crossing_arcs.items())
        ]
    else:
        n_vars = len(es.edges)
        rels = []
        for label, (o_in, o_out, u_in, u_out) in sorted(es.crossing_edges.items()):
            pos = code.sign_of(label) > 0
            rels.append((u_out, u_in, o_in, struct.up if pos else struct.upbar))
            rels.append((o_out, o_in, u_in, struct.down if pos else struct.downbar))
    return n_vars, rels, es.free_circles


def _closure_count(code, struct):
    """(count, smallest passing budget) from the closure-based search."""
    n_vars, rels, free_circles = _relations(code, struct)
    constraints = [_closure_relation(*rel) for rel in rels]
    var_constraints = [[] for _ in range(n_vars)]
    for ci, rel in enumerate(rels):
        for var in set(rel[:3]):
            var_constraints[var].append(ci)
    count, nodes = _closure_search_count(n_vars, struct.n, constraints, var_constraints)
    return count * struct.n**free_circles, nodes


DIFFERENTIAL_STRUCTURES = [
    make_dihedral_quandle(3),
    make_dihedral_quandle(4),
    make_dihedral_quandle(5),
    make_dihedral_quandle(6),
    make_alexander_biquandle_modp(5, 2, 3),
    make_alexander_biquandle_modp(7, 3, 2),
    make_alexander_biquandle_modp(3, 1, 2),
]


def test_counts_and_budgets_match_closure_search():
    # the public counts against the closure search, and the search's node
    # budget on the search itself: affine structures never search
    codes = catalog_and_walk_codes(6, 20, seed=51)
    assert max(c.n_crossings for c in codes) == 6
    for code in codes:
        for struct in DIFFERENTIAL_STRUCTURES:
            counter = (
                count_iq_colorings
                if isinstance(struct, FiniteQuandle)
                else count_biquandle_colorings
            )
            want, nodes = _closure_count(code, struct)
            assert counter(code, struct) == want, (code, struct.name)
            n_vars, rels, free_circles = _relations(code, struct)
            assert (
                _search_labelings(n_vars, struct.n, rels, nodes)
                * struct.n**free_circles
                == want
            ), (code, struct.name)
            with pytest.raises(ColoringBudgetError):
                _search_labelings(n_vars, struct.n, rels, nodes - 1)


# --- the linear-algebra count against the search ---------------------------------


def _assert_matches_search(codes, structures):
    for code in codes:
        for struct in structures:
            n_vars, rels, _free = _relations(code, struct)
            want = _search_labelings(n_vars, struct.n, rels, 10**8)
            assert _count_labelings(n_vars, struct.n, rels) == want, (
                code,
                struct.name,
            )


def test_linear_count_matches_search_on_codes():
    codes = catalog_and_walk_codes(5, 20, seed=52)
    codes += enumerate_single_component(3)
    structures = [make_dihedral_quandle(n) for n in (3, 4, 5, 6)]
    structures += [
        make_alexander_biquandle_modp(p, s, t)
        for p in (2, 3, 5, 7)
        for s in range(1, p)
        for t in range(1, p)
    ]
    _assert_matches_search(codes, structures)


@pytest.mark.parametrize("seed", [1200, 1201, 1202])
def test_alexander_count_on_12_crossings_takes_milliseconds(seed):
    # the search takes about 9, 0.2 and 0.8 s on these codes
    bq = make_alexander_biquandle_modp(5, 2, 3)
    code = random_code(random.Random(seed), 12)
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        count = count_biquandle_colorings(code, bq)
        timings.append(time.perf_counter() - start)
    assert min(timings) < 0.05, timings
    n_vars, rels, free_circles = _relations(code, bq)
    assert count == _search_labelings(n_vars, bq.n, rels, 10**8) * 5**free_circles


def _random_affine_table(rng, q):
    alpha, beta, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
    return tuple(
        tuple((alpha * x + beta * y + c) % q for y in range(q)) for x in range(q)
    )


@pytest.mark.parametrize("q", [2, 3, 5, 6, 7, 10, 15])
def test_linear_count_matches_search_on_random_affine_systems(q):
    rng = random.Random(7000 + q)
    n_inconsistent = 0
    for _ in range(150):
        n_vars = rng.randint(1, 3 if q > 7 else 5)
        tables = [_random_affine_table(rng, q) for _ in range(3)]
        rels = [
            (
                rng.randrange(n_vars),
                rng.randrange(n_vars),
                rng.randrange(n_vars),
                rng.choice(tables),
            )
            for _ in range(rng.randint(0, n_vars + 2))
        ]
        want = _search_labelings(n_vars, q, rels, 10**8)
        assert _count_labelings(n_vars, q, rels) == want, (q, n_vars, rels)
        n_inconsistent += want == 0
    assert n_inconsistent  # nonzero constants make some systems unsolvable


def test_affine_coefficients_reject_any_single_perturbed_entry():
    tables = [make_dihedral_quandle(n).table for n in (3, 5, 6)]
    bq = make_alexander_biquandle_modp(7, 3, 2)
    tables += [bq.up, bq.down, bq.upbar, bq.downbar]
    for table in tables:
        q = len(table)
        alpha, beta, c = _affine_coefficients(table, q)
        assert all(
            table[x][y] == (alpha * x + beta * y + c) % q
            for x in range(q)
            for y in range(q)
        )
        for x, y in itertools.product(range(q), repeat=2):
            rows = [list(r) for r in table]
            rows[x][y] = (rows[x][y] + 1) % q
            assert _affine_coefficients(tuple(map(tuple, rows)), q) is None


# the non-affine involutory quandle of order 3: 2 swaps 0 and 1, and 0
# and 1 fix everything; as a biquandle, a^b = a^{b-bar} = a |> b and
# a_b = a_{b-bar} = a
_NON_AFFINE_IQ = ((0, 0, 1), (1, 1, 0), (2, 2, 2))
_FIRST = ((0, 0, 0), (1, 1, 1), (2, 2, 2))


def _table_lines(table):
    return [" ".join(str(v) for v in row) for row in table]


def _load_quandle(tmp_path, name, table):
    lines = [str(len(table))] + _table_lines(table) + ["involutory"]
    return load_quandle_file(_write(tmp_path / name, "\n".join(lines)))


def _load_biquandle(tmp_path, name, tables):
    lines = [str(len(tables[0]))]
    for table in tables:
        lines += _table_lines(table)
    return load_biquandle_file(_write(tmp_path / name, "\n".join(lines)))


def test_loaded_tables_match_search(tmp_path):
    bq = make_alexander_biquandle_modp(5, 2, 3)
    affine_q = _load_quandle(tmp_path, "d5.q", make_dihedral_quandle(5).table)
    plain_q = _load_quandle(tmp_path, "na.q", _NON_AFFINE_IQ)
    affine_bq = _load_biquandle(
        tmp_path, "a5.bq", (bq.up, bq.down, bq.upbar, bq.downbar)
    )
    plain_bq = _load_biquandle(
        tmp_path, "na.bq", (_NON_AFFINE_IQ, _FIRST, _NON_AFFINE_IQ, _FIRST)
    )
    assert check_biquandle_axioms(plain_bq) == []
    assert _affine_coefficients(affine_q.table, 5) == (4, 2, 0)  # 2b - a
    assert _affine_coefficients(affine_bq.up, 5) == (3, 0, 0)  # 1 - st = -5
    assert _affine_coefficients(plain_q.table, 3) is None
    assert _affine_coefficients(plain_bq.up, 3) is None
    codes = catalog_and_walk_codes(5, 10, seed=53)
    _assert_matches_search(codes, [affine_q, plain_q, affine_bq, plain_bq])


def test_one_and_zero_element_carriers_match_search(tmp_path):
    one = FiniteBiquandle(1, ((0,),), ((0,),), ((0,),), ((0,),))
    empty = load_biquandle_file(_write(tmp_path / "empty.bq", "0\n"))
    codes = catalog_and_walk_codes(4, 5, seed=54)
    assert {count_biquandle_colorings(c, empty) for c in codes} == {0}
    _assert_matches_search(codes, [one, empty])


# --- table files ------------------------------------------------------------------


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_biquandle_file_roundtrip(tmp_path):
    bq = make_alexander_biquandle_modp(3, 2, 2)
    blocks = []
    for table in (bq.up, bq.down, bq.upbar, bq.downbar):
        blocks.extend(" ".join(str(v) for v in row) for row in table)
    path = _write(tmp_path / "bq.txt", "3\n" + "\n".join(blocks) + "\n")
    loaded = load_biquandle_file(path)
    assert (loaded.up, loaded.down, loaded.upbar, loaded.downbar) == (
        bq.up,
        bq.down,
        bq.upbar,
        bq.downbar,
    )
    assert check_biquandle_axioms(loaded) == []


def test_quandle_file_roundtrip(tmp_path):
    q = make_dihedral_quandle(3)
    rows = "\n".join(" ".join(str(v) for v in row) for row in q.table)
    path = _write(tmp_path / "q.txt", f"3\n{rows}\ninvolutory\n")
    loaded = load_quandle_file(path)
    assert loaded.table == q.table
    assert loaded.involutory


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x\n0\n",
        "2\n0 0\n0 0\n0 0\n0 0\n0 0\n0 0\n0 0\n",  # truncated fourth table
        "1\n0\n0\n0\n0\nextra\n",
    ],
)
def test_biquandle_file_errors(tmp_path, text):
    path = _write(tmp_path / "bad.txt", text)
    with pytest.raises(GaussCodeError):
        load_biquandle_file(path)


def test_quandle_file_flag_required(tmp_path):
    path = _write(tmp_path / "q.txt", "1\n0\n")
    with pytest.raises(GaussCodeError):
        load_quandle_file(path)
